"""Exact ROC-AUC via the rank statistic, with tied scores counted as half."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, SingleClassError


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve for binary ``labels`` (truthy = positive).

    Computed from average ranks (a tie group of c scores ending at sorted
    position j shares rank j - (c - 1) / 2), so it equals the pairwise count
    P(score_pos > score_neg) + 0.5 * P(tie) exactly, in O(N log N).
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel().astype(bool)
    if scores.shape != labels.shape:
        raise DimensionMismatchError(
            f"scores ({scores.shape[0]}) and labels ({labels.shape[0]}) disagree"
        )
    if not np.isfinite(scores).all():
        raise NonFiniteError("non-finite score")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("ROC-AUC needs at least one positive and one negative")
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # Ranks and their sums are exact halves; the single division is the only rounding.
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    u_stat = float(ranks[labels].sum()) - n_pos * (n_pos + 1) / 2.0
    return u_stat / (n_pos * n_neg)
