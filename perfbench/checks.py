"""Output checks for one `debiaskit matrix` invocation.

An op is one (strategy, scope) job together with its checks; any failed
check fails the op. `self_test` proves that tampered outputs are caught.
"""

from __future__ import annotations

import copy
import json
import math
import os

from workloads import projecting_jobs

# Acceptance criterion 07 on the stock corpus: the baseline's within-minus-
# cross gap is at least this, and global LDA removes at least this share of it.
MIN_BASELINE_GAP = 0.10
MIN_GAP_SHRINK = 0.5


def read_outputs(results_dir: str) -> dict:
    """The files the checks look at; missing ones read as None."""

    def read(name: str) -> bytes | None:
        try:
            with open(os.path.join(results_dir, name), "rb") as handle:
                return handle.read()
        except OSError:
            return None

    audit_bytes = read("audit.json")
    try:
        audit = json.loads(audit_bytes) if audit_bytes is not None else None
    except ValueError:
        audit = None
    files = set(os.listdir(results_dir)) if os.path.isdir(results_dir) else set()
    return {"report": read("report.json"), "audit": audit, "files": files}


def _cells(report: dict, job: str) -> dict[tuple[str, str], dict]:
    strategy, scope = job.split(":")
    return {
        (c["train"], c["test"]): c
        for c in report.get("cells", [])
        if c.get("strategy") == strategy and c.get("scope") == scope
    }


def _is_auc(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def within_cross(report: dict, job: str) -> tuple[float, float]:
    """Mean AUC over the within-dataset cells and over the cross-dataset cells."""
    cells = _cells(report, job)
    within = [c["mean_auc"] for (train, test), c in cells.items() if train == test]
    cross = [c["mean_auc"] for (train, test), c in cells.items() if train != test]
    return sum(within) / len(within), sum(cross) / len(cross)


def check(outputs: dict, workload: dict, reference: bytes | None) -> dict[str, list[str]]:
    """Failed checks per job; an empty list means the op passed."""
    jobs = workload["jobs"]
    failures: dict[str, list[str]] = {job: [] for job in jobs}

    def fail_all(reason: str) -> dict[str, list[str]]:
        for job in jobs:
            failures[job].append(reason)
        return failures

    if outputs["report"] is None:
        return fail_all("report.json missing")
    try:
        report = json.loads(outputs["report"])
    except ValueError:
        return fail_all("report.json is not JSON")
    if reference is not None and outputs["report"] != reference:
        fail_all("report.json differs from the first invocation of this seed")
    runs = (outputs["audit"] or {}).get("runs", {})
    datasets = report.get("datasets", [])
    if len(datasets) != 2:
        return fail_all("report.json does not name two datasets")

    for job in jobs:
        strategy, scope = job.split(":")
        audit = runs.get(job)
        if audit is None:
            failures[job].append("no audit entry")
        else:
            if audit.get("clean") is not True:
                failures[job].append("audit is not clean")
            if audit.get("test_rows_read_during_fit") != 0:
                failures[job].append("test rows read during fit")
        if f"report_{strategy}_{scope}.json" not in outputs["files"]:
            failures[job].append("per-job report missing")
        cells = _cells(report, job)
        for train in datasets:
            for test in datasets:
                cell = cells.get((train, test))
                if cell is None:
                    failures[job].append(f"cell {train}->{test} missing")
                    continue
                values = [cell.get("mean_auc")] + list(cell.get("class_auc", {}).values())
                if not all(_is_auc(v) for v in values):
                    failures[job].append(f"cell {train}->{test} not a finite AUC in [0, 1]")

    if workload["gap_check"] and not failures["none:global"] and not failures["LDA:global"]:
        base_within, base_cross = within_cross(report, "none:global")
        lda_within, lda_cross = within_cross(report, "LDA:global")
        base_gap = base_within - base_cross
        if base_gap < MIN_BASELINE_GAP:
            failures["none:global"].append(f"baseline gap {base_gap:.3f} < {MIN_BASELINE_GAP}")
        elif (lda_within - lda_cross) > (1.0 - MIN_GAP_SHRINK) * base_gap:
            failures["LDA:global"].append("LDA:global shrinks the baseline gap by less than half")
    return failures


def cross_auc_pp(report_bytes: bytes, workload: dict) -> float:
    """Mean cross-dataset ROC-AUC of the projecting jobs, in percentage points."""
    report = json.loads(report_bytes)
    crosses = [within_cross(report, job)[1] for job in projecting_jobs(workload)]
    return 100.0 * sum(crosses) / len(crosses)


def self_test(outputs: dict, workload: dict) -> list[str]:
    """Tamper with passing outputs in several ways; each must fail an op.

    Returns one line per tampering for the run's log, raises if one slips by.
    """
    if any(check(outputs, workload, None).values()):
        raise RuntimeError("self-test needs passing outputs to tamper with")
    job = projecting_jobs(workload)[0]
    report = json.loads(outputs["report"])

    dirty_audit = copy.deepcopy(outputs)
    dirty_audit["audit"]["runs"][job]["clean"] = False

    nan_cell = copy.deepcopy(report)
    next(c for c in nan_cell["cells"] if f"{c['strategy']}:{c['scope']}" == job)[
        "mean_auc"
    ] = float("nan")

    dropped_cell = copy.deepcopy(report)
    first = next(c for c in dropped_cell["cells"] if f"{c['strategy']}:{c['scope']}" == job)
    dropped_cell["cells"].remove(first)

    tamperings = {
        "audit with clean: false": (dirty_audit, None),
        "NaN cell": (dict(outputs, report=json.dumps(nan_cell).encode()), None),
        "missing cell": (dict(outputs, report=json.dumps(dropped_cell).encode()), None),
        "report.json changed between repeats": (outputs, outputs["report"] + b" "),
    }
    log = []
    for label, (tampered, reference) in tamperings.items():
        failed = [j for j, reasons in check(tampered, workload, reference).items() if reasons]
        if job not in failed:
            raise RuntimeError(f"self-test: tampering ({label}) was not counted as a failed op")
        log.append(f"self-test: {label} -> {len(failed)} of {len(workload['jobs'])} ops failed")
    return log
