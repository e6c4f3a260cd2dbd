"""debiaskit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload quickstart|many-clips|wide-kernel \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Set-up generates the workload's
corpus from the seed several times, each in a fresh process (`setup_s` is
the median). A fresh worker process then runs `debiaskit matrix` on it back
to back for about S seconds and checks every invocation's outputs. The last
stdout line is one JSON object: `correct`, `attempted` and `failed` ops, and
the end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
Details of each run go to `.perfbench_out/`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import SETUP_REPEATS, WORKLOADS  # noqa: E402

END_TO_END = {"matrix_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "cross_auc_pp": "pp"}
# 3 x 30 s + (seconds + 60 s) keeps a hung run under three minutes at 25 s.
SETUP_TIMEOUT_S = 30
WORKER_GRACE_S = 60

# One BLAS/OpenMP thread, so any parallelism measured is the program's own.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child(args: list[str], timeout: float) -> str:
    """Run a Python child to completion; return its stdout, raise on failure."""
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with status {proc.returncode}")
    return proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "debiaskit", "cli.py")):
        print("perfbench: no debiaskit sources under src/; run from a source checkout",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}_s{args.seed}_t{args.trace}"
    work = os.path.join(ROOT, ".perfbench_work", f"{tag}_p{os.getpid()}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    corpus = os.path.join(work, "corpus")
    worker_result = os.path.join(work, "worker.json")
    try:
        setup_walls, digests, setup_layers = [], set(), []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(corpus, ignore_errors=True)
            start = time.perf_counter()
            stdout = child(
                [os.path.join(HERE, "corpus.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--out", corpus, "--trace", str(args.trace)],
                SETUP_TIMEOUT_S,
            )
            setup_walls.append(time.perf_counter() - start)
            setup = json.loads(stdout.splitlines()[-1])
            digests.add(setup["digest"])
            if args.trace:
                setup_layers.append(setup["layers"])

        child(
            [os.path.join(HERE, "worker.py"), "--workload", args.workload,
             "--corpus", corpus, "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--result", worker_result,
             "--spans", os.path.join(out_dir, f"spans_{tag}.json")],
            args.seconds + WORKER_GRACE_S,
        )
        with open(worker_result, "r", encoding="utf-8") as handle:
            worker = json.load(handle)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = list(worker["failures"])
    if len(digests) != 1:
        failures.append("set-up wrote different corpora for the same seed")
    if args.trace:
        values = dict(worker["layers"], **tracing.median_metrics(setup_layers))
        units = tracing.LAYER_METRICS
    else:
        values = {
            "matrix_s": median(worker["matrix_s"]),
            "peak_rss_mb": worker["peak_rss_mb"],
            "setup_s": median(setup_walls),
            "cross_auc_pp": worker["cross_auc_pp"],
        }
        units = END_TO_END
    if any(values[name] is None for name in units):
        failures.append("no invocation passed its checks, so some metrics are missing")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = not failures

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": dict(worker["env"], child_env=CHILD_ENV),
        "setup_s": setup_walls,
        "matrix_s": worker["matrix_s"],
        "traced_matrix_s": worker["traced_matrix_s"],
        "ops_total": worker["ops"],
        "ops_failed": worker["failed"],
        "failures": failures,
        "log": worker["log"],
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"result_{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=2)

    env = details["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"invocations {len(worker['matrix_s']) + len(worker['traced_matrix_s'])}")
    print(f"env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']} threads={env['threads']}")
    for line in worker["log"] + failures:
        print(line)
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']!s:>22} {metric['unit']}")
    print(f"{'ops_total':34s} {worker['ops']:>22} count")
    print(f"{'ops_failed':34s} {worker['failed']:>22} count")
    print(json.dumps({
        "correct": correct,
        "attempted": worker["ops"],
        "failed": worker["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
