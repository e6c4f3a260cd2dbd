"""Standardisation and random Fourier features for the Gaussian kernel.

The feature map approximates k(x, y) = exp(-gamma ||x - y||^2): draw D'
frequencies from Normal(0, 2 gamma I) and phases from Uniform[0, 2 pi), then
map x to sqrt(2 / D') cos(x . w_j + b_j). Inputs are z-scored with
training-set statistics before the map; the map itself is frozen at fit
time and fully determined by (dim, dprime, gamma, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InsufficientSampleError,
    InvalidGammaError,
    NonFiniteError,
    ValidationError,
)
from .seeding import derive_seed

DEFAULT_DPRIME_FACTOR = 4
MEDIAN_SAMPLE_CAP = 1000
MAX_MAP_VALUES = 2**26  # cap on dprime * dim, the frequencies a map draws (512 MiB)
MAX_FEATURE_VALUES = 2**27  # cap on dprime**2 (the scatter) and train rows * dprime (1 GiB)
_SCALE_FLOOR = 1e-8


@dataclass(frozen=True)
class Standardizer:
    """Per-coordinate z-scoring with training statistics.

    Scales are population standard deviations floored at 1e-8 so constant
    coordinates pass through centred instead of dividing by zero.
    """

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        mean = np.ascontiguousarray(self.mean, dtype=np.float64)
        scale = np.ascontiguousarray(self.scale, dtype=np.float64)
        if mean.shape != scale.shape or mean.ndim != 1:
            raise DimensionMismatchError("mean and scale must be matching 1-d arrays")
        mean.setflags(write=False)
        scale.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.mean.shape[0]:
            raise DimensionMismatchError(
                f"standardizer dimension {self.mean.shape[0]} does not match {x.shape[-1]}"
            )
        out = x - self.mean
        out /= self.scale
        return out


def fit_standardizer(x: np.ndarray) -> Standardizer:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise InsufficientSampleError("standardizer needs at least one row")
    if not np.isfinite(x).all():
        raise NonFiniteError("non-finite value in standardizer input")
    mean = x.mean(axis=0)
    scale = np.maximum(x.std(axis=0), _SCALE_FLOOR)
    return Standardizer(mean, scale)


@dataclass(frozen=True)
class KernelMap:
    """Frozen random Fourier feature map."""

    frequencies: np.ndarray  # D' x D
    phases: np.ndarray  # D'
    gamma: float

    def __post_init__(self):
        freq = np.ascontiguousarray(self.frequencies, dtype=np.float64)
        phases = np.ascontiguousarray(self.phases, dtype=np.float64)
        if freq.ndim != 2 or phases.shape != (freq.shape[0],):
            raise DimensionMismatchError("frequencies must be D' x D with D' phases")
        freq.setflags(write=False)
        phases.setflags(write=False)
        object.__setattr__(self, "frequencies", freq)
        object.__setattr__(self, "phases", phases)

    @property
    def input_dim(self) -> int:
        return self.frequencies.shape[1]

    @property
    def dprime(self) -> int:
        return self.frequencies.shape[0]


def median_heuristic_gamma(x_sample: np.ndarray, seed: int) -> float:
    """gamma = 1 / (2 m^2) with m the median pairwise distance of <= 1000 rows,
    from the Gram expansion of the centred rows. Pairs where it cancels (<= 1e-4
    of the squared norms) are recomputed from their difference, so duplicates are 0."""
    x_sample = np.asarray(x_sample, dtype=np.float64)
    if x_sample.ndim != 2 or x_sample.shape[0] < 2:
        raise InsufficientSampleError("median heuristic needs at least 2 rows")
    if x_sample.shape[0] > MEDIAN_SAMPLE_CAP:
        rng = np.random.default_rng(derive_seed(seed, "median-subsample"))
        take = np.sort(rng.choice(x_sample.shape[0], size=MEDIAN_SAMPLE_CAP, replace=False))
        x_sample = x_sample[take]
    x_sample = x_sample - x_sample.mean(axis=0)
    sq_norms = np.einsum("ij,ij->i", x_sample, x_sample)
    rows, cols = np.triu_indices(x_sample.shape[0], k=1)
    norm_sums = sq_norms[rows] + sq_norms[cols]
    sq_dists = norm_sums - 2.0 * (x_sample @ x_sample.T)[rows, cols]
    # 64 blocks bound the memory of the differences when most pairs are near.
    for block in np.array_split(np.flatnonzero(sq_dists <= 1e-4 * norm_sums), 64):
        diff = x_sample[rows[block]] - x_sample[cols[block]]
        sq_dists[block] = np.einsum("ij,ij->i", diff, diff)
    median = float(np.median(np.sqrt(sq_dists)))
    if not (median > 0.0 and np.isfinite(median)):
        raise InvalidGammaError(
            f"median pairwise distance {median} admits no positive kernel width"
        )
    return 1.0 / (2.0 * median * median)


def fit_rff(
    dim: int,
    dprime: int,
    gamma: float | str,
    seed: int,
    x_sample: np.ndarray | None = None,
) -> KernelMap:
    """Draw a frozen feature map. ``gamma`` may be "median" (needs ``x_sample``).

    A map past MAX_MAP_VALUES, or whose D' x D' scatter or feature rows of
    ``x_sample`` would pass MAX_FEATURE_VALUES, is refused before any draw."""
    if dim < 1 or dprime < 1:
        raise ValidationError("dim and dprime must be >= 1")
    if dprime * dim > MAX_MAP_VALUES:
        raise ValidationError(
            f"a {dprime} x {dim} feature map exceeds {MAX_MAP_VALUES} values; lower dprime_factor"
        )
    n_rows = 0 if x_sample is None else len(x_sample)
    if max(dprime, n_rows) * dprime > MAX_FEATURE_VALUES:
        raise ValidationError(
            f"{dprime} random features over {n_rows} training rows exceed {MAX_FEATURE_VALUES}"
            " values in the scatter or the feature rows; lower dprime_factor"
        )
    if gamma == "median":
        if x_sample is None:
            raise InsufficientSampleError("median heuristic requested without a sample")
        gamma_value = median_heuristic_gamma(x_sample, seed)
    else:
        gamma_value = float(gamma)
        if not (gamma_value > 0.0 and np.isfinite(gamma_value)):
            raise InvalidGammaError(f"gamma must be positive and finite, got {gamma}")
    scale = np.sqrt(2.0 * gamma_value)
    if not np.isfinite(scale):
        raise InvalidGammaError(f"kernel width {gamma_value} overflows the frequency scale sqrt(2 gamma)")
    rng = np.random.default_rng(seed)
    frequencies = rng.standard_normal((dprime, dim)) * scale
    phases = rng.uniform(0.0, 2.0 * np.pi, size=dprime)
    return KernelMap(frequencies, phases, gamma_value)


def transform_rff(kernel_map: KernelMap, x: np.ndarray) -> np.ndarray:
    """Map rows of ``x`` into the D'-dimensional random feature space."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    rows = x[None, :] if single else x
    if rows.shape[1] != kernel_map.input_dim:
        raise DimensionMismatchError(
            f"map expects dimension {kernel_map.input_dim}, got {rows.shape[1]}"
        )
    # sqrt(2 / D') cos(rows . w + b), computed in the product's own buffer.
    out = rows @ kernel_map.frequencies.T
    out += kernel_map.phases
    np.cos(out, out=out)
    out *= np.sqrt(2.0 / kernel_map.dprime)
    return out[0] if single else out
