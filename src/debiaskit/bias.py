"""Fitting dataset-identity directions and measuring alignment with them.

The direction between two sample groups is the regularised two-class linear
discriminant: LU-solve (S_w + lambda I) w = mu_a - mu_b with S_w the unweighted
average of the two per-group covariance matrices (1/N normalisation) and
lambda = shrinkage * trace(S_w) / D, then normalise to unit length with the
first nonzero component positive. At shrinkage 0 the scatter can be singular
(a coordinate constant over both groups), and the fit is refused.

How the scatter is formed depends only on the input shape, and is chosen for
the smaller transient. When group a has at least as many rows as features,
each group's covariance is taken in turn (``np.cov``) and added into the
scatter in place; while group b's is taken, the fit holds b's centred copy
plus two D x D matrices, n_b D + 2 D^2 values. When group a has fewer rows
than features, as random-feature groups narrower than their kernel width
do, S_w = z'z, where z stacks both groups' centred rows, each group weighted
by sqrt(0.5 / n_g). z is never formed whole: the scatter is filled block by
block from column slices of z ``_SCATTER_COLUMNS`` wide, two slices at a
time, so the fit holds the scatter plus two (n_a + n_b) x b slices,
D^2 + 2 (n_a + n_b) b values. A diagonal block is one slice's symmetric
product and an off-diagonal block is computed once and mirrored, so the
scatter is exactly symmetric; at D <= b one slice holds all of z. The slices
sit in an anonymous mapping that is unmapped before the solve, so none of
their pages stays resident after it. Either way the LU solve copies the
scatter, so two D x D matrices are the floor. The layouts agree to rounding,
but each sums in another order, so their directions are not bit-identical to
each other.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMeansError,
    DimensionMismatchError,
    NonFiniteError,
    RankDeficientError,
    ZeroVectorError,
)

DEFAULT_SHRINKAGE = 1e-2

# Columns per slice of z when the stacked scatter is formed (module
# docstring).
_SCATTER_COLUMNS = 512

# Scope tag recorded on fitted directions.
SCOPE_GLOBAL = "global"


@dataclass(frozen=True)
class BiasDirection:
    """A unit direction separating two sample groups, with fit provenance."""

    vector: np.ndarray
    scope: str
    class_name: str | None
    genre: str | None
    n_a: int
    n_b: int
    shrinkage: float

    def __post_init__(self):
        vector = np.ascontiguousarray(self.vector, dtype=np.float64)
        vector.setflags(write=False)
        object.__setattr__(self, "vector", vector)


def _validate_group(x: np.ndarray, name: str) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-d")
    if x.shape[0] < 2:
        raise DegenerateMeansError(f"{name} needs at least 2 rows, got {x.shape[0]}")
    if not np.isfinite(x).all():
        raise NonFiniteError(f"non-finite value in {name}")
    return x


def _sign_fix(vector: np.ndarray) -> np.ndarray:
    nonzero = np.flatnonzero(np.abs(vector) > 1e-14)
    if nonzero.size and vector[nonzero[0]] < 0:
        return -vector
    return vector


def _stacked_scatter(
    x_a: np.ndarray, mu_a: np.ndarray, x_b: np.ndarray, mu_b: np.ndarray
) -> np.ndarray:
    """The average of the two groups' covariances as z'z, where z stacks
    each group's centred rows weighted by sqrt(0.5 / n_g). z is never whole:
    the scatter is filled block by block from column slices of z
    ``_SCATTER_COLUMNS`` wide, two slices at a time. A diagonal block is one
    slice's symmetric product; an off-diagonal block is computed once and
    mirrored."""
    n_a, dim = x_a.shape
    blocks = [
        slice(start, min(start + _SCATTER_COLUMNS, dim))
        for start in range(0, dim, _SCATTER_COLUMNS)
    ]
    # The slices get an anonymous mapping of their own, unmapped on return.
    # Freed into the heap instead, they can stay resident and lift the peaks
    # of the solve and of later fits.
    shape = (2, n_a + x_b.shape[0], blocks[0].stop)
    buffers = np.frombuffer(mmap.mmap(-1, math.prod(shape) * 8)).reshape(shape)

    def weighted(columns: slice, buffer: np.ndarray) -> np.ndarray:
        z = buffer[:, : columns.stop - columns.start]
        for rows, x, mu in ((z[:n_a], x_a, mu_a), (z[n_a:], x_b, mu_b)):
            np.subtract(x[:, columns], mu[columns], out=rows)
            rows *= math.sqrt(0.5 / x.shape[0])
        return z

    scatter = np.empty((dim, dim))
    for i, left in enumerate(blocks):
        z_left = weighted(left, buffers[0])
        np.matmul(z_left.T, z_left, out=scatter[left, left])
        for right in blocks[i + 1 :]:
            z_right = weighted(right, buffers[1])
            np.matmul(z_left.T, z_right, out=scatter[left, right])
            scatter[right, left] = scatter[left, right].T
    return scatter


def fit_lda_direction(
    x_a: np.ndarray,
    x_b: np.ndarray,
    shrinkage: float = DEFAULT_SHRINKAGE,
    *,
    scope: str = SCOPE_GLOBAL,
    class_name: str | None = None,
    genre: str | None = None,
) -> BiasDirection:
    """Two-class discriminant direction from group a toward group b's complement.

    With fewer rows in x_a than features the scatter is the product of both
    groups' stacked, weighted centred rows, filled in blocks from two column
    slices of them at a time, so the fit holds the scatter and two slices;
    otherwise it is the sum of the two ``np.cov`` matrices, built in place.
    Each is the layout with the smaller transient for its shape (module
    docstring). The LU solve's own copy of the scatter sets a floor of
    2 D x D matrices.

    Raises DegenerateMeansError when the group means coincide (relative to
    their scale), DimensionMismatchError when dimensions differ and
    RankDeficientError when the solve fails or gives a non-finite vector.
    """
    x_a = _validate_group(x_a, "x_a")
    x_b = _validate_group(x_b, "x_b")
    if x_a.shape[1] != x_b.shape[1]:
        raise DimensionMismatchError(
            f"dimension mismatch: {x_a.shape[1]} vs {x_b.shape[1]}"
        )
    if not (shrinkage >= 0 and np.isfinite(shrinkage)):
        raise ValueError(f"shrinkage must be a finite non-negative number, got {shrinkage}")
    mu_a = x_a.mean(axis=0)
    mu_b = x_b.mean(axis=0)
    delta = mu_a - mu_b
    norm_delta = float(np.linalg.norm(delta))
    if norm_delta < 1e-12 * (np.linalg.norm(mu_a) + np.linalg.norm(mu_b) + 1.0):
        raise DegenerateMeansError("group means coincide; no direction to fit")
    dim = x_a.shape[1]
    if x_a.shape[0] < dim:
        scatter = _stacked_scatter(x_a, mu_a, x_b, mu_b)
    else:
        # Built in place and shifted on its diagonal, the scatter is the only
        # D x D array the fit keeps; each covariance is freed once it is added.
        scatter = np.cov(x_a, rowvar=False, bias=True).reshape(dim, dim)
        scatter += np.cov(x_b, rowvar=False, bias=True).reshape(dim, dim)
        scatter *= 0.5
    trace = float(np.trace(scatter))
    if trace <= 0.0:
        # All points identical within each group: the shrinkage-dominated
        # limit, where the direction is the normalised mean difference.
        vector = delta / norm_delta
    else:
        lam = shrinkage * trace / dim
        scatter[np.diag_indices(dim)] += lam
        try:
            raw = np.linalg.solve(scatter, delta)
        except np.linalg.LinAlgError:
            raw = None
        if raw is None or not np.isfinite(raw).all():
            raise RankDeficientError(
                f"the within-group scatter is singular at shrinkage {shrinkage!r}, so no"
                " discriminant direction solves it; shrinkage > 0 avoids this"
            )
        norm = float(np.linalg.norm(raw))
        if norm == 0.0:
            raise DegenerateMeansError("discriminant solve returned the zero vector")
        vector = raw / norm
    vector = _sign_fix(vector)
    return BiasDirection(
        vector, scope, class_name, genre, x_a.shape[0], x_b.shape[0], float(shrinkage)
    )


def bias_correlation(direction: np.ndarray, vector: np.ndarray) -> float:
    """Cosine between a bias direction and an arbitrary vector (signed)."""
    direction = np.asarray(direction, dtype=np.float64).ravel()
    vector = np.asarray(vector, dtype=np.float64).ravel()
    if direction.shape != vector.shape:
        raise DimensionMismatchError(
            f"dimension mismatch: {direction.shape[0]} vs {vector.shape[0]}"
        )
    norm_d = float(np.linalg.norm(direction))
    norm_v = float(np.linalg.norm(vector))
    if norm_d == 0.0 or norm_v == 0.0:
        raise ZeroVectorError("cannot take the cosine of a zero vector")
    return float(direction @ vector) / (norm_d * norm_v)


def subspace_correlation(basis: np.ndarray, vector: np.ndarray) -> float:
    """Magnitude of the cosine between ``vector`` and the span of ``basis`` columns."""
    basis = np.asarray(basis, dtype=np.float64)
    vector = np.asarray(vector, dtype=np.float64).ravel()
    if basis.shape[0] != vector.shape[0]:
        raise DimensionMismatchError(
            f"dimension mismatch: {basis.shape[0]} vs {vector.shape[0]}"
        )
    norm_v = float(np.linalg.norm(vector))
    if norm_v == 0.0:
        raise ZeroVectorError("cannot take the cosine of a zero vector")
    return float(np.linalg.norm(basis.T @ (vector / norm_v)))

