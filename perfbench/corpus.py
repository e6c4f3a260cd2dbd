"""Set-up child: import debiaskit, write a workload's corpus with `debiaskit
synth`, then the workload's config.json. Run in a fresh process, so its wall
time includes the import. Prints one JSON line: per-function seconds when
traced and a digest of the files written.

    python3 perfbench/corpus.py --workload NAME --seed N --out DIR [--trace 1]
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from debiaskit import cli  # noqa: E402
from debiaskit.synth import default_spec  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _digest(directory: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode())
        with open(os.path.join(directory, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    corpus_seed = workload.get("corpus_seed", args.seed)
    spec = dataclasses.replace(default_spec(corpus_seed), **workload["spec"])
    os.makedirs(args.out, exist_ok=True)
    spec_path = os.path.join(args.out, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(dataclasses.asdict(spec), handle)

    tracer = tracing.Tracer(tracing.setup_targets()) if args.trace else None
    if tracer:
        tracer.install()
    with redirect_stdout(io.StringIO()):
        status = cli.main(
            ["synth", "--spec", spec_path, "--out", args.out, "--format", workload["format"]]
        )
    if tracer:
        tracer.uninstall()
    if status != 0:
        return status

    config_path = os.path.join(args.out, "config.json")
    with open(config_path, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    config.update(workload["config"], seed=args.seed)
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump(config, handle, indent=2, sort_keys=True)

    result = {"digest": _digest(args.out)}
    if tracer:
        result["layers"] = tracing.setup_metrics(tracer.take())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
