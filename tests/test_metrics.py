"""ROC-AUC: worked cases, the pairwise-counting oracle, and exact identities."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from debiaskit.errors import DimensionMismatchError, NonFiniteError, SingleClassError
from debiaskit.metrics import roc_auc


def pairwise_auc(scores, labels):
    """O(N^2) oracle: fraction of (pos, neg) pairs won, ties counting half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def rankdata_auc(scores, labels):
    """The implementation this module replaced, kept as the reference: the
    Mann-Whitney U statistic from scipy's average ranks."""
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    ranks = rankdata(scores, method="average")
    return (float(ranks[labels].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def test_perfect_ranking_is_one():
    assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0


def test_all_tied_scores_give_half():
    assert roc_auc(np.full(6, 0.4), np.array([1, 1, 1, 0, 0, 0])) == 0.5


def test_two_pos_two_neg_with_tie():
    scores = np.array([0.3, 0.7, 0.3, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert roc_auc(scores, labels) == pytest.approx(0.875, abs=1e-15)
    assert pairwise_auc(scores, labels) == pytest.approx(0.875, abs=1e-15)


def test_matches_pairwise_oracle_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = rng.integers(2, 51)
        labels = np.zeros(n, dtype=int)
        labels[: rng.integers(1, n)] = 1
        rng.shuffle(labels)
        # Draw from a small grid so ties actually occur.
        scores = rng.choice(np.linspace(0, 1, 7), size=n)
        if labels.all() or not labels.any():
            continue
        assert roc_auc(scores, labels) == pytest.approx(
            pairwise_auc(scores, labels), abs=1e-12
        )


def test_complement_identity_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = rng.integers(2, 51)
        labels = np.zeros(n, dtype=int)
        labels[: rng.integers(1, n)] = 1
        rng.shuffle(labels)
        if labels.all() or not labels.any():
            continue
        scores = rng.choice(np.linspace(0, 1, 5), size=n)
        assert roc_auc(scores, labels) + roc_auc(scores, 1 - labels) == 1.0


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(-50, 50), st.booleans()), min_size=4, max_size=40
    ).filter(lambda rows: len({lab for _, lab in rows}) == 2)
)
def test_invariant_under_strictly_monotone_transforms(data):
    # Round to a coarse grid so the transforms below cannot collapse two
    # distinct scores into one float (which would legitimately change ties).
    scores = np.round(np.array([s for s, _ in data]), 6)
    labels = np.array([int(lab) for _, lab in data])
    base = roc_auc(scores, labels)
    assert roc_auc(3.0 * scores + 2.0, labels) == pytest.approx(base, abs=1e-12)
    assert roc_auc(np.exp(scores / 25.0), labels) == pytest.approx(base, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            # A small pool makes ties common; -0.0 and 0.0 must tie as well.
            st.sampled_from([-1e300, -2.5, -0.0, 0.0, 5e-324, 0.125, 3.0, 1e300])
            | st.floats(-1e6, 1e6),
            st.booleans(),
        ),
        min_size=2,
        max_size=300,
    )
)
def test_matches_scipy_rankdata_bit_for_bit(rows):
    scores = np.array([s for s, _ in rows])
    labels = np.array([lab for _, lab in rows])
    assume(labels.any() and not labels.all())
    assert roc_auc(scores, labels) == rankdata_auc(scores, labels)


def test_single_class_rejected():
    with pytest.raises(SingleClassError):
        roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))


def test_length_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        roc_auc(np.array([0.1, 0.2, 0.3]), np.array([1, 0]))


def test_non_finite_scores_rejected():
    with pytest.raises(NonFiniteError):
        roc_auc(np.array([0.1, np.nan]), np.array([1, 0]))
