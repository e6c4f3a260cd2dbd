"""Discriminant-direction fitting and cosine diagnostics."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from debiaskit.bias import (
    _stacked_scatter,
    bias_correlation,
    fit_lda_direction,
    subspace_correlation,
)
from debiaskit.errors import (
    DegenerateMeansError,
    DimensionMismatchError,
    RankDeficientError,
    ZeroVectorError,
)


def unit(vector):
    vector = np.asarray(vector, dtype=float)
    return vector / np.linalg.norm(vector)


# --- fitting --------------------------------------------------------------


def test_axis_aligned_separation():
    x_a = np.array([[0.0, 0.0], [0.0, 1.0]])
    x_b = np.array([[4.0, 0.0], [4.0, 1.0]])
    fitted = fit_lda_direction(x_a, x_b, shrinkage=0.01)
    np.testing.assert_allclose(fitted.vector, [1.0, 0.0], atol=1e-12)


def test_identical_clouds_degenerate():
    x = np.random.default_rng(0).standard_normal((20, 3))
    with pytest.raises(DegenerateMeansError):
        fit_lda_direction(x, x.copy())


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        fit_lda_direction(np.zeros((5, 3)), np.ones((5, 4)))


def test_anisotropic_gaussian_matches_whitened_oracle():
    rng = np.random.default_rng(42)
    cov = np.diag([2.0, 1.0])
    delta = np.array([1.0, 1.0])
    n = 10_000
    x_a = rng.multivariate_normal(delta, cov, size=n)
    x_b = rng.multivariate_normal(np.zeros(2), cov, size=n)
    fitted = fit_lda_direction(x_a, x_b, shrinkage=0.01)
    # Population solution: cov^{-1} (mu_a - mu_b) = (0.5, 1.0).
    oracle = unit([0.5, 1.0])
    assert abs(float(fitted.vector @ oracle)) >= 0.99


@pytest.mark.parametrize("dim", [2, 16, 257, 512])
def test_matches_the_cholesky_solve(dim):
    """numpy's LU solve agrees with the Cholesky solve (scipy, assume_a="pos")
    that this module used before."""
    rng = np.random.default_rng(dim)
    mixing = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    x_a = rng.standard_normal((600, dim)) @ mixing + 0.3
    x_b = rng.standard_normal((500, dim)) @ mixing
    fitted = fit_lda_direction(x_a, x_b, shrinkage=0.01)
    scatter = 0.5 * (np.cov(x_a, rowvar=False, bias=True) + np.cov(x_b, rowvar=False, bias=True))
    lam = 0.01 * np.trace(scatter) / dim
    raw = scipy.linalg.solve(
        scatter + lam * np.eye(dim), x_a.mean(axis=0) - x_b.mean(axis=0), assume_a="pos"
    )
    expected = raw / np.linalg.norm(raw)
    expected *= np.sign(expected[np.flatnonzero(np.abs(expected) > 1e-14)[0]])
    np.testing.assert_allclose(fitted.vector, expected, rtol=0, atol=1e-12)


def out_of_place_direction(x_a, x_b, shrinkage):
    """The discriminant as this module computed it before building the
    scatter in place: every step a new D x D matrix."""
    dim = x_a.shape[1]
    cov_a = np.cov(x_a, rowvar=False, bias=True).reshape(dim, dim)
    cov_b = np.cov(x_b, rowvar=False, bias=True).reshape(dim, dim)
    scatter = 0.5 * (cov_a + cov_b)
    lam = shrinkage * float(np.trace(scatter)) / dim
    raw = np.linalg.solve(scatter + lam * np.eye(dim), x_a.mean(axis=0) - x_b.mean(axis=0))
    vector = raw / float(np.linalg.norm(raw))
    return -vector if vector[np.flatnonzero(np.abs(vector) > 1e-14)[0]] < 0 else vector


@pytest.mark.parametrize(
    "n_a, n_b, dim, shrinkage",
    [(40, 30, 1, 0.01), (50, 70, 7, 0.0), (300, 200, 64, 0.01), (30, 45, 200, 0.5), (12, 9, 513, 0.01)],
)
def test_in_place_scatter_is_bit_identical(n_a, n_b, dim, shrinkage):
    rng = np.random.default_rng(dim)
    x_a = rng.standard_normal((n_a, dim)) * rng.uniform(0.1, 3.0, dim) + 0.2
    x_b = rng.standard_normal((n_b, dim)) @ (rng.standard_normal((dim, dim)) / np.sqrt(dim))
    fitted = fit_lda_direction(x_a, x_b, shrinkage=shrinkage)
    expected = out_of_place_direction(x_a, x_b, shrinkage)
    if n_a < dim:
        # The stacked block sums the scatter in another order.
        np.testing.assert_allclose(fitted.vector, expected, rtol=0, atol=1e-12)
    else:
        assert fitted.vector.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "n_a, n_b, dim",
    [(63, 80, 64), (64, 80, 64), (65, 80, 64), (40, 300, 128), (200, 50, 96)],
)
def test_stacked_and_per_group_scatters_agree(n_a, n_b, dim):
    rng = np.random.default_rng(n_a + dim)
    mixing = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    x_a = rng.standard_normal((n_a, dim)) @ mixing + 0.3
    x_b = rng.standard_normal((n_b, dim)) * rng.uniform(0.1, 3.0, dim)
    per_group = 0.5 * (np.cov(x_a, rowvar=False, bias=True) + np.cov(x_b, rowvar=False, bias=True))
    stacked = _stacked_scatter(x_a, x_a.mean(axis=0), x_b, x_b.mean(axis=0))
    np.testing.assert_allclose(stacked, per_group, rtol=0, atol=1e-12 * np.abs(per_group).max())
    # The fit takes the stacked block only when x_a has fewer rows than
    # features, and either way gives the per-group direction.
    fitted = fit_lda_direction(x_a, x_b)
    np.testing.assert_allclose(
        fitted.vector, out_of_place_direction(x_a, x_b, 1e-2), rtol=0, atol=1e-12
    )


def traced_peak(x_a, x_b):
    tracemalloc.start()
    try:
        fit_lda_direction(x_a, x_b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_fit_holds_at_most_three_dense_matrices():
    # At D = 1024 each D x D matrix is 8 MiB. Summing the covariances out of
    # place and shifting by lam * eye peaked at four of them (32 MiB).
    dim = 1024
    rng = np.random.default_rng(5)
    x_a = rng.standard_normal((600, dim)) + 0.1
    x_b = rng.standard_normal((600, dim))
    assert traced_peak(x_a, x_b) < 3 * dim * dim * 8
    # Wider than either group, as random features are: the stacked block
    # plus one D x D matrix, where the per-group covariances held one
    # group's centred copy plus two D x D matrices (87.5 MiB here).
    dim, n = 2048, 1500
    x_a = rng.standard_normal((n, dim)) + 0.1
    x_b = rng.standard_normal((n, dim))
    assert traced_peak(x_a, x_b) < (2 * n * dim + dim * dim) * 8 + 2 * 2**20


def test_isotropic_scatter_gives_mean_difference():
    # Points mu +/- c*e_i have mean exactly mu and population covariance
    # exactly (c^2/D) I, so whitening reduces to a scalar and the fitted
    # direction must align with the mean difference.
    dim = 4
    spread = 0.7 * np.vstack([np.eye(dim), -np.eye(dim)])
    mu_a = np.array([0.3, -0.4, 0.5, 0.1])
    x_a = mu_a + spread
    x_b = spread.copy()
    fitted = fit_lda_direction(x_a, x_b, shrinkage=0.01)
    cosine = abs(float(fitted.vector @ unit(mu_a)))
    assert cosine >= 1.0 - 1e-9


def test_huge_shrinkage_collapses_to_mean_difference():
    rng = np.random.default_rng(11)
    cov = np.diag([5.0, 0.5, 2.0])
    x_a = rng.multivariate_normal([1.0, 2.0, -1.0], cov, size=400)
    x_b = rng.multivariate_normal([0.0, 0.0, 0.0], cov, size=400)
    fitted = fit_lda_direction(x_a, x_b, shrinkage=1e6)
    sample_delta = x_a.mean(axis=0) - x_b.mean(axis=0)
    assert abs(float(fitted.vector @ unit(sample_delta))) >= 1.0 - 1e-6


def test_unit_norm_and_sign_convention():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x_a = rng.standard_normal((30, 6)) + rng.standard_normal(6)
        x_b = rng.standard_normal((30, 6))
        fitted = fit_lda_direction(x_a, x_b)
        assert abs(float(np.linalg.norm(fitted.vector)) - 1.0) <= 1e-12
        first_nonzero = fitted.vector[np.flatnonzero(np.abs(fitted.vector) > 1e-14)[0]]
        assert first_nonzero > 0


def test_swapping_groups_gives_same_line():
    rng = np.random.default_rng(4)
    x_a = rng.standard_normal((40, 5)) + 1.0
    x_b = rng.standard_normal((40, 5))
    forward = fit_lda_direction(x_a, x_b)
    backward = fit_lda_direction(x_b, x_a)
    # The sign convention cancels the group swap: same oriented vector.
    np.testing.assert_allclose(forward.vector, backward.vector, atol=1e-10)


def test_zero_scatter_falls_back_to_mean_difference():
    x_a = np.tile([2.0, 0.0, 0.0], (5, 1))
    x_b = np.tile([0.0, 0.0, 0.0], (5, 1))
    fitted = fit_lda_direction(x_a, x_b)
    np.testing.assert_allclose(fitted.vector, [1.0, 0.0, 0.0], atol=1e-12)


def test_singular_scatter_at_zero_shrinkage_is_refused():
    # A coordinate constant over both groups leaves a zero row and column in
    # the scatter; without shrinkage nothing regularises the solve.
    rng = np.random.default_rng(11)
    x_a = rng.standard_normal((20, 4))
    x_b = rng.standard_normal((20, 4)) + 1.0
    x_a[:, 0] = x_b[:, 0] = 0.0
    with pytest.raises(RankDeficientError, match=r"singular at shrinkage 0\.0.*shrinkage > 0"):
        fit_lda_direction(x_a, x_b, shrinkage=0.0)
    fitted = fit_lda_direction(x_a, x_b, shrinkage=1e-2)
    assert np.isfinite(fitted.vector).all() and fitted.vector[0] == 0.0


def test_negative_shrinkage_rejected():
    x_a = np.array([[0.0, 0.0], [0.0, 1.0]])
    x_b = np.array([[4.0, 0.0], [4.0, 1.0]])
    with pytest.raises(ValueError):
        fit_lda_direction(x_a, x_b, shrinkage=-0.5)


def test_metadata_recorded():
    x_a = np.random.default_rng(5).standard_normal((12, 3)) + 1.0
    x_b = np.random.default_rng(6).standard_normal((9, 3))
    fitted = fit_lda_direction(
        x_a, x_b, shrinkage=0.25, scope="classwise", class_name="guitar", genre="jazz"
    )
    assert fitted.n_a == 12
    assert fitted.n_b == 9
    assert fitted.shrinkage == 0.25
    assert fitted.scope == "classwise"
    assert fitted.class_name == "guitar"
    assert fitted.genre == "jazz"


# --- cosine diagnostics ---------------------------------------------------


def test_correlation_orthogonal_parallel_oblique():
    assert bias_correlation([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert bias_correlation([1.0, 0.0], [2.0, 0.0]) == pytest.approx(1.0)
    assert bias_correlation([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / np.sqrt(2))
    assert bias_correlation([1.0, 0.0], [-3.0, 0.0]) == pytest.approx(-1.0)


@settings(max_examples=100, deadline=None)
@given(
    scale=st.floats(
        min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    flip=st.booleans(),
)
def test_correlation_scale_invariant_sign_equivariant(scale, flip):
    rng = np.random.default_rng(12)
    direction = rng.standard_normal(8)
    vector = rng.standard_normal(8)
    base = bias_correlation(direction, vector)
    signed = -scale if flip else scale
    assert bias_correlation(direction, signed * vector) == pytest.approx(
        np.sign(signed) * base, rel=1e-9, abs=1e-12
    )


def test_correlation_zero_vector_rejected():
    with pytest.raises(ZeroVectorError):
        bias_correlation([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ZeroVectorError):
        bias_correlation([1.0, 0.0], [0.0, 0.0])


def test_correlation_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        bias_correlation([1.0, 0.0], [1.0, 0.0, 0.0])


def test_subspace_correlation_extremes():
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert subspace_correlation(basis, [3.0, -4.0, 0.0]) == pytest.approx(1.0)
    assert subspace_correlation(basis, [0.0, 0.0, 2.0]) == pytest.approx(0.0, abs=1e-12)
    tilted = np.array([0.0, 1.0, 1.0])
    assert subspace_correlation(basis, tilted) == pytest.approx(1 / np.sqrt(2))


def test_subspace_correlation_zero_vector():
    with pytest.raises(ZeroVectorError):
        subspace_correlation(np.eye(3)[:, :2], [0.0, 0.0, 0.0])

