"""Check a stock quick-start matrix against its committed expected values.

    python tests/check_golden.py RESULTS_DIR

RESULTS_DIR holds the outputs of the README quick start's matrix: the
default `debiaskit synth` corpus, run with
`debiaskit matrix --strategies LDA,mLDA,K,KLDA,mKLDA --scopes global,classwise`.
The check passes when `table1.csv` and `audit.json` have the expected sha256,
every AUC cell of `report.json` (per class and mean) and every job's bias-fit
notes (genre pairs skipped, fits found degenerate) match exactly, and every
model/bias correlation matches within CORRELATION_ATOL: the float32 Hessian
products make the correlations' last bits depend on the BLAS build.
Otherwise it lists each mismatch and exits 1.

The stock matrix takes about 25 s, so this script is not a pytest module.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_stock_matrix.json")
CORRELATION_ATOL = 1e-9
HASHED = {"table1_csv_sha256": "table1.csv", "audit_json_sha256": "audit.json"}
NOTES = "bias_fit_notes"  # per job: names and counts, matched exactly
# Per kind of entry: the fields that identify one, its per-class values, its summary.
ENTRIES = {
    "cells": (("train", "test", "strategy", "scope"), "class_auc", "mean_auc", 0.0),
    "correlations": (
        ("domain", "strategy", "scope", "space"),
        "class_corr",
        "mean_abs_corr",
        CORRELATION_ATOL,
    ),
}


def observed(results_dir: str) -> dict:
    values = {}
    for key, name in HASHED.items():
        with open(os.path.join(results_dir, name), "rb") as handle:
            values[key] = hashlib.sha256(handle.read()).hexdigest()
    with open(os.path.join(results_dir, "report.json"), encoding="utf-8") as handle:
        report = json.load(handle)
    return {**values, **{kind: report[kind] for kind in ENTRIES}, NOTES: report.get(NOTES, {})}


def mismatches(expected: dict, actual: dict) -> list[str]:
    problems = [
        f"{key}: expected {expected[key]}, got {actual[key]}"
        for key in HASHED
        if actual[key] != expected[key]
    ]
    for kind, (fields, per_class, summary, atol) in ENTRIES.items():
        want, got = (
            {tuple(e[f] for f in fields): {**e[per_class], summary: e[summary]} for e in entries}
            for entries in (expected[kind], actual[kind])
        )
        for key in sorted(want.keys() | got.keys()):
            if key not in got or key not in want:
                problems.append(f"{kind} {key}: {'missing' if key in want else 'unexpected'}")
                continue
            for label in sorted(want[key].keys() | got[key].keys()):
                a, b = want[key].get(label), got[key].get(label)
                if a is None or b is None or not abs(a - b) <= atol:
                    problems.append(f"{kind} {key} {label}: expected {a}, got {b}")
    for job in sorted(expected[NOTES].keys() | actual[NOTES].keys()):
        a, b = expected[NOTES].get(job), actual[NOTES].get(job)
        if a != b:
            problems.append(f"{NOTES} {job}: expected {a}, got {b}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results_dir")
    args = parser.parse_args(argv)
    with open(GOLDEN, encoding="utf-8") as handle:
        problems = mismatches(json.load(handle), observed(args.results_dir))
    for problem in problems:
        print(problem)
    print(f"golden check: {len(problems)} mismatches in {args.results_dir}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
