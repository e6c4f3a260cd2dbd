"""Train/test isolation guard: phase rules, violation reporting, audit counts."""

import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debiaskit.errors import LeakageError
from debiaskit.guard import (
    ALL_PHASES,
    FIT_PHASES,
    PHASE_BIAS,
    PHASE_EVALUATE,
    PHASE_POOL,
    PHASE_TRAIN,
    SplitGuard,
)


def make_guard():
    return SplitGuard(test_indices={"north": np.array([3, 5, 9]), "south": np.array([0])})


def test_train_rows_pass_in_every_phase():
    guard = make_guard()
    for phase in ALL_PHASES:
        guard.enter(phase)
        guard.check("north", np.array([0, 1, 2, 4]))
    assert guard.audit()["clean"] is True


def test_test_row_read_during_fit_raises():
    guard = make_guard()
    for phase in FIT_PHASES:
        guard = make_guard()
        guard.enter(phase)
        with pytest.raises(LeakageError):
            guard.check("north", np.array([1, 5]))


def test_test_row_read_during_evaluate_allowed():
    guard = make_guard()
    guard.enter(PHASE_EVALUATE)
    guard.check("north", np.array([3, 5, 9]))
    audit = guard.audit()
    assert audit["clean"] is True
    assert audit["phases"]["evaluate"]["test_rows"] == 3


def test_violation_message_lists_offending_indices():
    guard = SplitGuard(test_indices={"north": np.arange(100)})
    guard.enter(PHASE_BIAS)
    with pytest.raises(LeakageError) as excinfo:
        guard.check("north", np.arange(50))
    message = str(excinfo.value)
    assert "north" in message and "bias" in message
    assert "[0, 1, 2, 3, 4]" in message  # at most five indices, then an ellipsis
    assert "..." in message


def test_short_violation_list_has_no_ellipsis():
    guard = make_guard()
    guard.enter(PHASE_TRAIN)
    with pytest.raises(LeakageError) as excinfo:
        guard.check("north", np.array([5]))
    assert "..." not in str(excinfo.value)


def test_unknown_dataset_treated_as_all_train():
    guard = make_guard()
    guard.enter(PHASE_POOL)
    guard.check("elsewhere", np.array([0, 1, 2]))
    assert guard.audit()["clean"] is True


def test_audit_counts_reads_rows_and_test_rows():
    guard = make_guard()
    guard.enter(PHASE_POOL)
    guard.check("north", np.array([0, 1]))
    guard.check("south", np.array([1, 2, 3]))
    guard.enter(PHASE_EVALUATE)
    guard.check("north", np.array([3, 5]))
    audit = guard.audit()
    assert audit["phases"]["pool"] == {"reads": 2, "rows": 5, "test_rows": 0}
    assert audit["phases"]["evaluate"] == {"reads": 1, "rows": 2, "test_rows": 2}
    assert audit["test_rows_read_during_fit"] == 0
    assert audit["clean"] is True


def test_audit_flags_dirty_run():
    guard = make_guard()
    guard.enter(PHASE_POOL)
    with pytest.raises(LeakageError):
        guard.check("north", np.array([3]))
    audit = guard.audit()
    assert audit["test_rows_read_during_fit"] == 1
    assert audit["clean"] is False


def test_invalid_phase_rejected():
    guard = make_guard()
    with pytest.raises(ValueError):
        guard.enter("deploy")


def test_scalar_and_empty_accesses():
    guard = make_guard()
    guard.enter(PHASE_POOL)
    guard.check("north", np.array([], dtype=np.intp))
    guard.enter(PHASE_EVALUATE)
    guard.check("north", np.array(5))
    audit = guard.audit()
    assert audit["phases"]["pool"]["rows"] == 0
    assert audit["phases"]["evaluate"]["test_rows"] == 1


# The guard once kept one record per read and summed the log in audit(); that
# code stays here as the oracle for the per-phase counters that replaced it.


@dataclass
class AccessRecord:
    phase: str
    dataset: str
    n_rows: int
    n_test_rows: int


def logged_audit(records):
    per_phase = {}
    for record in records:
        bucket = per_phase.setdefault(record.phase, {"reads": 0, "rows": 0, "test_rows": 0})
        bucket["reads"] += 1
        bucket["rows"] += record.n_rows
        bucket["test_rows"] += record.n_test_rows
    fit_test_rows = sum(per_phase.get(p, {}).get("test_rows", 0) for p in FIT_PHASES)
    return {
        "phases": per_phase,
        "test_rows_read_during_fit": fit_test_rows,
        "clean": fit_test_rows == 0,
    }


guard_calls = st.lists(
    st.one_of(
        st.tuples(st.just("enter"), st.sampled_from(ALL_PHASES)),
        st.tuples(
            st.just("check"),
            st.sampled_from(["north", "south", "elsewhere"]),
            st.one_of(st.integers(0, 11), st.lists(st.integers(0, 11), max_size=8)),
        ),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(calls=guard_calls)
def test_audit_equals_the_aggregated_read_log(calls):
    guard = make_guard()
    held_out = {name: set(idx.tolist()) for name, idx in guard.test_indices.items()}
    records = []
    for call in calls:
        if call[0] == "enter":
            guard.enter(call[1])
            continue
        _, dataset, indices = call
        flat = [indices] if isinstance(indices, int) else indices
        n_test = sum(i in held_out.get(dataset, ()) for i in flat)
        records.append(AccessRecord(guard.phase, dataset, len(flat), n_test))
        leaks = n_test > 0 and guard.phase != PHASE_EVALUATE
        try:
            guard.check(dataset, np.array(indices, dtype=np.intp))
        except LeakageError:
            assert leaks
        else:
            assert not leaks
        returned = guard.audit()
        assert returned == logged_audit(records)
        # A returned audit is the caller's: changing it leaves the next one be.
        for bucket in returned["phases"].values():
            bucket["reads"] += 100
        returned["phases"]["deploy"] = {"reads": 1, "rows": 1, "test_rows": 1}
        assert guard.audit() == logged_audit(records)


def _check_seconds(n_indices):
    # Shuffled reads of half the clips; a quarter of the reads' count held out.
    rng = np.random.default_rng(0)
    held_out = rng.permutation(2 * n_indices)[: n_indices // 4]
    indices = rng.permutation(2 * n_indices)[:n_indices]
    best = float("inf")
    for _ in range(20):
        guard = SplitGuard(test_indices={"d": held_out})
        guard.enter(PHASE_EVALUATE)
        start = time.perf_counter()
        guard.check("d", indices)
        best = min(best, time.perf_counter() - start)
    touched = len(set(indices.tolist()) & set(held_out.tolist()))
    assert guard.audit()["phases"]["evaluate"]["test_rows"] == touched
    return best


def test_check_is_linear_in_the_index_count():
    # 8x the indices and held-out rows: about 8x the time when linear (12-16x
    # measured on 2 x86-64 cores, cache effects included), 64x when quadratic.
    ratio = _check_seconds(128_000) / _check_seconds(16_000)
    assert ratio < 32, ratio
