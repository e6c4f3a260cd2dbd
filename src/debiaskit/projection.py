"""Removing fitted directions from feature spaces by orthogonal projection.

A debias operator holds an orthonormal basis B (D x r) of the subspace to
remove and applies x -> x - B (B^T x) without ever materialising the D x D
projector. Multi-direction removal takes the column space of the stacked
direction matrix via a reduced SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bias import BiasDirection
from .errors import (
    DimensionMismatchError,
    RankDeficientError,
    ZeroVectorError,
)

DEFAULT_RANK_REL_TOL = 1e-6
_ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True)
class DebiasOperator:
    """Orthogonal projection removing the span of ``basis`` columns."""

    basis: np.ndarray
    singular_values: np.ndarray

    def __post_init__(self):
        basis = np.ascontiguousarray(self.basis, dtype=np.float64)
        if basis.ndim != 2 or basis.shape[1] < 1:
            raise DimensionMismatchError("basis must be D x r with r >= 1")
        gram_err = float(np.linalg.norm(basis.T @ basis - np.eye(basis.shape[1])))
        if gram_err > _ORTHONORMALITY_TOL:
            raise RankDeficientError(
                f"basis is not orthonormal (||B^T B - I||_F = {gram_err:.3e})"
            )
        basis.setflags(write=False)
        sv = np.ascontiguousarray(self.singular_values, dtype=np.float64)
        sv.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "singular_values", sv)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Project rows of ``x`` onto the orthogonal complement of the basis."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        rows = x[None, :] if single else x
        if rows.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"operator dimension {self.dim} does not match features {rows.shape[1]}"
            )
        # rows - (rows B) B^T, the difference written over the product.
        out = (rows @ self.basis) @ self.basis.T
        np.subtract(rows, out, out=out)
        return out[0] if single else out


def projector_from_direction(direction: BiasDirection) -> DebiasOperator:
    """Rank-1 removal of a single fitted direction."""
    vector = direction.vector
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise ZeroVectorError("cannot build a projector from a zero direction")
    basis = (vector / norm)[:, None]
    return DebiasOperator(basis, np.ones(1))


def projector_from_subspace(
    directions: list[BiasDirection] | tuple[BiasDirection, ...],
) -> DebiasOperator:
    """Removal of the column space of the stacked direction matrix.

    The stacked D x G matrix must be full column rank: the smallest singular
    value must be at least DEFAULT_RANK_REL_TOL times the largest, otherwise a
    RankDeficientError reports all singular values and the offending
    near-parallel input pairs.
    """
    if len(directions) < 1:
        raise ZeroVectorError("need at least one direction")
    dims = {d.vector.shape[0] for d in directions}
    if len(dims) != 1:
        raise DimensionMismatchError(f"directions disagree on dimension: {sorted(dims)}")
    stacked = np.column_stack([d.vector for d in directions])
    if stacked.shape[0] < stacked.shape[1]:
        raise DimensionMismatchError(
            f"{stacked.shape[1]} directions cannot be independent in {stacked.shape[0]} dims"
        )
    left, sv, _ = np.linalg.svd(stacked, full_matrices=False)
    if sv[-1] < DEFAULT_RANK_REL_TOL * sv[0]:
        pairs = []
        for i in range(len(directions)):
            for j in range(i + 1, len(directions)):
                cosine = abs(
                    float(directions[i].vector @ directions[j].vector)
                    / (np.linalg.norm(directions[i].vector) * np.linalg.norm(directions[j].vector))
                )
                if cosine > 1.0 - 1e-6:
                    pairs.append((i, j, cosine))
        raise RankDeficientError(
            f"stacked directions are rank deficient: singular values {sv.tolist()}; "
            f"near-parallel input pairs (i, j, |cos|): {pairs}"
        )
    return DebiasOperator(left, sv)
