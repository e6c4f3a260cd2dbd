"""The golden checker (tests/check_golden.py) on its committed values: the
values match themselves, and a changed hash, AUC, correlation or bias-fit
note is caught."""

import copy
import json
import math

import pytest

from check_golden import CORRELATION_ATOL, GOLDEN, mismatches


@pytest.fixture()
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_committed_values_pin_the_stock_hashes_and_every_entry(golden):
    assert golden["table1_csv_sha256"].startswith("f3ac59bcbee49aa4")
    assert golden["audit_json_sha256"].startswith("b260194d4c1d7565")
    # Ten jobs: the baseline, K, and four removal strategies at two scopes.
    assert len(golden["cells"]) == 4 * 10
    assert len(golden["correlations"]) == 2 * 10
    assert len(golden["bias_fit_notes"]) == 10
    assert mismatches(golden, copy.deepcopy(golden)) == []


def test_an_auc_cell_must_match_exactly(golden):
    actual = copy.deepcopy(golden)
    cell = actual["cells"][5]
    cell["mean_auc"] = math.nextafter(cell["mean_auc"], 2.0)
    (problem,) = mismatches(golden, actual)
    assert problem.startswith("cells ") and "mean_auc" in problem


def test_correlations_match_within_the_tolerance(golden):
    actual = copy.deepcopy(golden)
    entry = actual["correlations"][3]
    entry["class_corr"]["class1"] += 0.5 * CORRELATION_ATOL
    assert mismatches(golden, actual) == []
    entry["class_corr"]["class1"] += CORRELATION_ATOL
    (problem,) = mismatches(golden, actual)
    assert problem.startswith("correlations ") and "class1" in problem


def test_hashes_missing_entries_and_nan_are_mismatches(golden):
    actual = copy.deepcopy(golden)
    actual["audit_json_sha256"] = "0" * 64
    del actual["cells"][0]
    actual["correlations"][0]["mean_abs_corr"] = float("nan")
    problems = mismatches(golden, actual)
    assert len(problems) == 3
    assert any("missing" in p for p in problems)


def test_bias_fit_notes_must_match_exactly(golden):
    # Class-wise mLDA skips one genre pair for every class of the stock corpus.
    actual = copy.deepcopy(golden)
    skipped = actual["bias_fit_notes"]["mLDA:classwise"]["skipped_genre_pairs"]
    assert len(skipped) == 4
    skipped[0]["n_a"] += 1
    del actual["bias_fit_notes"]["K:global"]
    problems = mismatches(golden, actual)
    assert len(problems) == 2
    assert all(p.startswith("bias_fit_notes ") for p in problems)
    assert any("mLDA:classwise" in p for p in problems)
