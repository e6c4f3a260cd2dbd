"""Standardization and the random Fourier feature approximation of the RBF kernel."""

import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from debiaskit.errors import (
    DimensionMismatchError,
    InsufficientSampleError,
    InvalidGammaError,
    NonFiniteError,
    ValidationError,
)
from debiaskit.kernel import (
    MAX_FEATURE_VALUES,
    MAX_MAP_VALUES,
    MEDIAN_SAMPLE_CAP,
    KernelMap,
    Standardizer,
    fit_rff,
    fit_standardizer,
    median_heuristic_gamma,
    transform_rff,
)
from debiaskit.seeding import derive_seed


def rbf(x, y, gamma):
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return float(np.exp(-gamma * np.dot(diff, diff)))


# --- standardizer ---------------------------------------------------------


def test_two_point_mean_and_scale():
    fitted = fit_standardizer(np.array([[0.0], [2.0]]))
    np.testing.assert_allclose(fitted.mean, [1.0])
    np.testing.assert_allclose(fitted.scale, [1.0])
    np.testing.assert_allclose(fitted.apply(np.array([[0.0], [2.0]])), [[-1.0], [1.0]])


def test_constant_column_floored_to_centred_zero():
    x = np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]])
    fitted = fit_standardizer(x)
    out = fitted.apply(x)
    np.testing.assert_allclose(out[:, 0], 0.0, atol=1e-12)
    assert fitted.scale[0] >= 1e-8


def test_standardizer_matches_recomputed_statistics():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 7)) * rng.uniform(0.5, 4.0, size=7) + rng.uniform(
        -3, 3, size=7
    )
    fitted = fit_standardizer(x)
    oracle = (x - x.mean(axis=0)) / x.std(axis=0)
    np.testing.assert_allclose(fitted.apply(x), oracle, atol=1e-10)


def test_test_rows_use_training_statistics():
    train = np.array([[0.0], [2.0]])
    fitted = fit_standardizer(train)
    np.testing.assert_allclose(fitted.apply(np.array([[5.0]])), [[4.0]])


def test_standardizer_rejects_empty_and_nonfinite():
    with pytest.raises(InsufficientSampleError):
        fit_standardizer(np.zeros((0, 3)))
    with pytest.raises(NonFiniteError):
        fit_standardizer(np.array([[1.0, np.nan]]))


def test_standardizer_dimension_check():
    fitted = fit_standardizer(np.array([[0.0, 1.0], [2.0, 3.0]]))
    with pytest.raises(DimensionMismatchError):
        fitted.apply(np.zeros((2, 3)))


@pytest.mark.parametrize("shape", [(50, 9), (9,)])
def test_standardizer_apply_matches_the_plain_expression_bit_for_bit(shape):
    rng = np.random.default_rng(20)
    fitted = fit_standardizer(rng.standard_normal((30, 9)) * 1e3)
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 5, shape)
    before = x.copy()
    out = fitted.apply(x)
    assert out.tobytes() == ((before - fitted.mean) / fitted.scale).tobytes()
    assert x.tobytes() == before.tobytes()


# --- feature map construction ---------------------------------------------


def test_same_seed_same_map():
    a = fit_rff(6, 32, 0.5, seed=123)
    b = fit_rff(6, 32, 0.5, seed=123)
    np.testing.assert_array_equal(a.frequencies, b.frequencies)
    np.testing.assert_array_equal(a.phases, b.phases)
    c = fit_rff(6, 32, 0.5, seed=124)
    assert not np.array_equal(a.frequencies, c.frequencies)


def test_median_heuristic_two_points():
    x = np.array([[0.0, 0.0], [2.0, 0.0]])
    # Median pairwise distance is 2, so gamma = 1 / (2 * 2^2) = 1/8.
    assert median_heuristic_gamma(x, seed=0) == pytest.approx(1.0 / 8.0)


def test_median_heuristic_needs_two_rows():
    with pytest.raises(InsufficientSampleError):
        median_heuristic_gamma(np.zeros((1, 3)), seed=0)


def test_median_heuristic_identical_points_rejected():
    with pytest.raises(InvalidGammaError):
        median_heuristic_gamma(np.ones((4, 2)), seed=0)


def pdist_median(x, seed):
    """The median this module used to take with scipy's pdist, kept as the
    reference, over the same subsample of at most MEDIAN_SAMPLE_CAP rows."""
    if x.shape[0] > MEDIAN_SAMPLE_CAP:
        rng = np.random.default_rng(derive_seed(seed, "median-subsample"))
        x = x[np.sort(rng.choice(x.shape[0], size=MEDIAN_SAMPLE_CAP, replace=False))]
    return float(np.median(pdist(x)))


def median_sample(name):
    """Inputs where a Gram expansion could lose digits, and one subsampled input."""
    rng = np.random.default_rng(11)
    if name == "above the cap":
        return rng.standard_normal((MEDIAN_SAMPLE_CAP + 500, 128))
    normal = rng.standard_normal((1000, 512))
    return {
        "standard normal": normal,
        "offset 1e4": normal + 1e4,
        "1e-6-wide cluster": rng.standard_normal(512) + 1e-6 * normal,
        "duplicated rows": np.repeat(normal[:400, :64], [1, 2, 3, 4] * 100, axis=0),
        # Most pairs, the median among them, lie inside the cluster, where the
        # expansion cancels and only the recomputed differences are exact.
        "cluster beside outliers": np.vstack([5.0 + 1e-6 * normal[:800, :64], normal[800:, :64]]),
    }[name]


@pytest.mark.parametrize(
    "name",
    [
        "standard normal",
        "offset 1e4",
        "1e-6-wide cluster",
        "duplicated rows",
        "cluster beside outliers",
        "above the cap",
    ],
)
def test_median_heuristic_matches_scipy_pdist(name):
    x = median_sample(name)
    expected = pdist_median(x, seed=3)
    median = np.sqrt(0.5 / median_heuristic_gamma(x, seed=3))
    assert abs(median - expected) <= 1e-12 * expected


def test_median_heuristic_mostly_duplicate_pairs_rejected():
    # 800 copies of one row make 64% of the pairs duplicates, so the median
    # distance is exactly 0, for scipy's pdist and for the Gram expansion.
    rng = np.random.default_rng(12)
    x = np.vstack([np.tile(5.0 + rng.standard_normal(64), (800, 1)), rng.standard_normal((200, 64))])
    assert pdist_median(x, seed=0) == 0.0
    with pytest.raises(InvalidGammaError):
        median_heuristic_gamma(x, seed=0)


def test_invalid_gamma_values():
    with pytest.raises(InvalidGammaError):
        fit_rff(4, 16, 0.0, seed=0)
    with pytest.raises(InvalidGammaError):
        fit_rff(4, 16, -1.0, seed=0)
    with pytest.raises(InvalidGammaError):
        fit_rff(4, 16, float("inf"), seed=0)


@pytest.mark.parametrize("gamma", [1e308, "median"])
def test_a_width_whose_frequency_scale_overflows_is_refused(gamma):
    # sqrt(2 * 1e308) is inf; so is the median heuristic's 1 / (2 m^2) for
    # rows 1e-160 apart, although the median distance itself is finite.
    x = np.array([[0.0], [1e-160], [2e-160]])
    with pytest.raises(InvalidGammaError, match="overflows the frequency scale"):
        fit_rff(1, 4, gamma, 0, x_sample=x)
    assert np.isfinite(fit_rff(1, 4, 1e307, 0).frequencies).all()


def test_oversized_map_is_refused_before_drawing():
    # Sized far past memory: refused from the shape alone.
    with pytest.raises(ValidationError, match="feature map exceeds"):
        fit_rff(512, 10**30 * 512, 1.0, seed=0)
    with pytest.raises(ValidationError, match="feature map exceeds"):
        fit_rff(2, MAX_MAP_VALUES // 2 + 1, 1.0, seed=0)
    # Within the map cap, but past the cap on the D' x D' scatter, or on the
    # feature rows of the sample; a broadcast sample takes no memory.
    side = math.isqrt(MAX_FEATURE_VALUES)
    with pytest.raises(ValidationError, match=f"{side + 1} random features over 0 training rows"):
        fit_rff(1, side + 1, 1.0, seed=0)
    rows = np.broadcast_to(np.zeros(1), (MAX_FEATURE_VALUES // 2 + 1, 1))
    with pytest.raises(ValidationError, match=f"exceed {MAX_FEATURE_VALUES} values"):
        fit_rff(1, 2, 1.0, seed=0, x_sample=rows)
    # At the caps themselves the map is drawn.
    assert fit_rff(1, side, 1.0, seed=0).dprime == side
    assert fit_rff(1, 2, 1.0, seed=0, x_sample=rows[1:]).dprime == 2


def test_median_request_requires_sample():
    with pytest.raises(InsufficientSampleError):
        fit_rff(4, 16, "median", seed=0)


def test_median_request_uses_sample():
    x = np.array([[0.0, 0.0], [2.0, 0.0]])
    fitted = fit_rff(2, 16, "median", seed=5, x_sample=x)
    assert fitted.gamma == pytest.approx(1.0 / 8.0)


# --- transform properties -------------------------------------------------


def test_output_bounds():
    rng = np.random.default_rng(2)
    kernel_map = fit_rff(8, 64, 0.3, seed=9)
    out = transform_rff(kernel_map, rng.standard_normal((100, 8)))
    bound = np.sqrt(2.0 / 64) + 1e-12
    assert np.abs(out).max() <= bound


def test_self_inner_product_near_one():
    rng = np.random.default_rng(3)
    kernel_map = fit_rff(8, 2048, 0.3, seed=10)
    for _ in range(10):
        z = transform_rff(kernel_map, rng.standard_normal(8))
        assert abs(float(z @ z) - 1.0) <= 0.1


def test_distant_points_decorrelate():
    kernel_map = fit_rff(4, 2048, 1.0, seed=11)
    x = np.zeros(4)
    y = np.full(4, 10.0)
    z_x = transform_rff(kernel_map, x)
    z_y = transform_rff(kernel_map, y)
    # The exact kernel value is exp(-400), so the feature inner product
    # must sit within Monte Carlo noise of zero.
    assert abs(float(z_x @ z_y)) <= 0.1


def test_kernel_approximation_error_shrinks_with_width():
    rng = np.random.default_rng(4)
    gamma = 0.25
    pairs = rng.standard_normal((200, 2, 8))

    def mae(dprime, seed):
        kernel_map = fit_rff(8, dprime, gamma, seed=seed)
        errors = []
        for x, y in pairs:
            approx = float(transform_rff(kernel_map, x) @ transform_rff(kernel_map, y))
            errors.append(abs(approx - rbf(x, y, gamma)))
        return float(np.mean(errors))

    wide = mae(4096, seed=21)
    narrow = mae(64, seed=21)
    assert wide <= 0.05
    assert wide < narrow


def test_shift_invariance():
    rng = np.random.default_rng(5)
    kernel_map = fit_rff(6, 4096, 0.5, seed=12)
    shift = rng.standard_normal(6)
    for _ in range(20):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        base = float(transform_rff(kernel_map, x) @ transform_rff(kernel_map, y))
        moved = float(
            transform_rff(kernel_map, x + shift) @ transform_rff(kernel_map, y + shift)
        )
        assert abs(base - moved) <= 0.05


def test_transform_dimension_check():
    kernel_map = fit_rff(4, 16, 0.5, seed=13)
    with pytest.raises(DimensionMismatchError):
        transform_rff(kernel_map, np.zeros(5))


def test_single_row_matches_matrix_row():
    kernel_map = fit_rff(5, 32, 0.4, seed=14)
    x = np.random.default_rng(6).standard_normal((3, 5))
    matrix = transform_rff(kernel_map, x)
    np.testing.assert_allclose(transform_rff(kernel_map, x[1]), matrix[1], atol=1e-14)


@pytest.mark.parametrize("shape", [(40, 6), (6,)])
def test_transform_matches_the_plain_expression_bit_for_bit(shape):
    kernel_map = fit_rff(6, 48, 0.3, seed=16)
    x = np.random.default_rng(7).standard_normal(shape) * 3.0
    before = x.copy()
    rows = np.atleast_2d(before)
    plain = np.sqrt(2.0 / kernel_map.dprime) * np.cos(
        rows @ kernel_map.frequencies.T + kernel_map.phases
    )
    out = transform_rff(kernel_map, x)
    assert out.shape == shape[:-1] + (48,)
    assert out.tobytes() == plain.tobytes()
    assert x.tobytes() == before.tobytes()


def test_map_shape_properties():
    kernel_map = fit_rff(7, 28, 0.2, seed=15)
    assert kernel_map.input_dim == 7
    assert kernel_map.dprime == 28
    assert kernel_map.frequencies.shape == (28, 7)
    assert kernel_map.phases.shape == (28,)


def test_kernel_map_validation():
    with pytest.raises(DimensionMismatchError):
        KernelMap(np.zeros((4, 3)), np.zeros(5), 0.5)
