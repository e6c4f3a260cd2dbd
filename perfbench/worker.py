"""Measurement child: runs `debiaskit matrix` in-process through
`debiaskit.cli.main`, back to back, for about `--seconds`, checking every
invocation's outputs. With `--trace 1` untraced and traced invocations
alternate; the traced ones give the per-layer split and the difference of
the two medians is the tracing overhead. Writes one JSON result file.

    python3 perfbench/worker.py --workload NAME --corpus DIR --seconds S \
        --trace 0|1 --result FILE [--spans FILE]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from contextlib import redirect_stdout
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
from debiaskit import cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_INVOCATIONS = 3  # untraced; a traced run adds one so each kind gets two
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_once(argv: list[str], results_dir: str) -> tuple[float, float, str | None]:
    """Wall and CPU seconds of one invocation; the error text if it failed."""
    shutil.rmtree(results_dir, ignore_errors=True)
    error = None
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status != 0:
            error = f"debiaskit matrix exited with status {status}"
    except Exception:  # a crash fails the invocation's ops; the run goes on
        error = traceback.format_exc()
    return time.perf_counter() - start, time.process_time() - cpu0, error


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    results_dir = os.path.join(args.corpus, "results")
    argv = [
        "matrix",
        "--config",
        os.path.join(args.corpus, "config.json"),
        "--strategies",
        workload["strategies"],
        "--scopes",
        workload["scopes"],
    ]
    tracer = tracing.Tracer(tracing.matrix_targets()) if args.trace else None
    min_invocations = MIN_INVOCATIONS + 1 if tracer else MIN_INVOCATIONS

    plain_wall: list[float] = []
    plain_cpu: list[float] = []
    traced_wall: list[float] = []
    layer_samples: list[dict] = []
    last_spans: list = []
    reference = None
    cross_auc = None
    ops = failed = 0
    failures: list[str] = []
    log: list[str] = []
    begin = time.perf_counter()
    while True:
        n = len(plain_wall) + len(traced_wall)
        elapsed = time.perf_counter() - begin
        if n >= min_invocations and elapsed + elapsed / n > args.seconds:
            break
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.install()
            try:
                wall, cpu, error = run_once(argv, results_dir)
            finally:
                tracer.uninstall()
            spans = tracer.take()
        else:
            wall, cpu, error = run_once(argv, results_dir)

        outputs = checks.read_outputs(results_dir)
        if error is None:
            job_failures = checks.check(outputs, workload, reference)
        else:
            job_failures = {job: [error] for job in workload["jobs"]}
        ops += len(job_failures)
        for job, reasons in job_failures.items():
            if reasons:
                failed += 1
                failures.append(f"invocation {n} {job}: {'; '.join(reasons)}")
        if reference is None and not any(job_failures.values()):
            reference = outputs["report"]
            cross_auc = checks.cross_auc_pp(reference, workload)
            log.extend(checks.self_test(outputs, workload))

        if traced:
            traced_wall.append(wall)
            _, by_layer, _ = tracing.span_totals(spans)
            tracing.check_coverage(by_layer, workload["layers"], args.workload)
            layer_samples.append(tracing.layer_metrics(spans))
            last_spans = spans
        else:
            plain_wall.append(wall)
            plain_cpu.append(cpu)

    result = {
        "env": environment(),
        "matrix_s": plain_wall,
        "traced_matrix_s": traced_wall,
        "cpu_s": plain_cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cross_auc_pp": cross_auc,
        "ops": ops,
        "failed": failed,
        "failures": failures,
        "log": log,
    }
    if tracer:
        layers = tracing.median_metrics(layer_samples)
        layers["process.cpu_s"] = median(plain_cpu)
        layers["process.cpu_util"] = median(c / w for c, w in zip(plain_cpu, plain_wall))
        layers["trace.overhead_s"] = median(traced_wall) - median(plain_wall)
        result["layers"] = layers
        if args.spans:
            origin = last_spans[0].start if last_spans else 0.0
            with open(args.spans, "w", encoding="utf-8") as handle:
                json.dump([s.to_dict(origin) for s in last_spans], handle)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
