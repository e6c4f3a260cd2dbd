"""Regularised binary classifier: objective, optimiser, fold logic, C selection."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from debiaskit import logreg
from debiaskit.data import NEG, POS, pool_frames
from debiaskit.errors import FoldDegenerateError, NonFiniteError, SingleClassError
from debiaskit.logreg import (
    DEFAULT_C_GRID,
    GRAD_TOL,
    MIN_C,
    ClassifierModel,
    cv_select_c,
    logreg_objective,
    predict_scores,
    stratified_folds,
    train_logreg,
)
from debiaskit.metrics import roc_auc
from debiaskit.synth import default_spec, generate_biased_corpus


def make_separable(n=60, dim=4, margin=3.0, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack(
        [
            rng.standard_normal((half, dim)) * 0.3 + margin,
            rng.standard_normal((half, dim)) * 0.3 - margin,
        ]
    )
    y = np.concatenate([np.ones(half, dtype=bool), np.zeros(half, dtype=bool)])
    return x, y


def make_shifted(n, dim, seed):
    """Overlapping classes with per-feature offsets, like pooled embeddings."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2 == 0
    x = rng.standard_normal((n, dim)) + rng.normal(0.0, 0.3, dim)
    x[y] += 1.2 * rng.standard_normal(dim) / np.sqrt(dim)
    return x, y


def stock_problem():
    """The first 900 labelled clips of one class in the stock corpus: 900 x 64."""
    tables, manifests, _ = generate_biased_corpus(default_spec())
    table = pool_frames(tables["synthA"])
    manifest = manifests["synthA"]
    state_of = dict(zip(manifest.clip_ids, manifest.labels["class0"]))
    labels = [state_of[c] for c in table.clip_ids]
    rows = [i for i, label in enumerate(labels) if label in (POS, NEG)][:900]
    return table.vectors[rows], np.asarray([labels[i] == POS for i in rows])


def reference_fit(x, y, c_value, *, warm_start=None):
    """The solver this module replaced, kept as the reference: scipy L-BFGS-B
    with the same gradient tolerance and iteration cap."""

    def loss_grad(theta):
        loss, grad_w, grad_b = logreg_objective(theta[:-1], theta[-1], x, y, c_value)
        return loss, np.append(grad_w, grad_b)

    start = np.zeros(x.shape[1] + 1) if warm_start is None else warm_start
    result = scipy.optimize.minimize(
        loss_grad,
        start,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 10_000, "maxfun": 40_000, "gtol": 1e-6, "ftol": 0.0},
    )
    _, grad = loss_grad(result.x)
    return ClassifierModel(
        weights=result.x[:-1],
        intercept=float(result.x[-1]),
        converged=bool(np.abs(grad).max() <= GRAD_TOL),
        n_iter=int(result.nit),
        grad_norm=float(np.abs(grad).max()),
    )


def loss_at(weights, intercept, x, y, c_value):
    """The objective at a point, as the solver's own loss computes it."""
    return logreg_objective(weights, intercept, x, y, c_value)[0]


# --- objective ------------------------------------------------------------


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 5))
    y = rng.random(40) > 0.5
    if y.all() or not y.any():
        y[0] = ~y[0]
    c_value = 3.0
    h = 1e-5
    for _ in range(20):
        w = rng.standard_normal(5)
        b = float(rng.standard_normal())
        _, grad_w, grad_b = logreg_objective(w, b, x, y, c_value)
        numeric = np.empty(6)
        for j in range(5):
            bump = np.zeros(5)
            bump[j] = h
            hi, _, _ = logreg_objective(w + bump, b, x, y, c_value)
            lo, _, _ = logreg_objective(w - bump, b, x, y, c_value)
            numeric[j] = (hi - lo) / (2 * h)
        hi, _, _ = logreg_objective(w, b + h, x, y, c_value)
        lo, _, _ = logreg_objective(w, b - h, x, y, c_value)
        numeric[5] = (hi - lo) / (2 * h)
        analytic = np.concatenate([grad_w, [grad_b]])
        denom = max(float(np.linalg.norm(numeric)), 1.0)
        assert float(np.linalg.norm(analytic - numeric)) / denom <= 1e-5


def test_antisymmetric_data_gives_zero_intercept():
    rng = np.random.default_rng(2)
    half = rng.standard_normal((30, 4)) + 1.5
    x = np.vstack([half, -half])
    y = np.concatenate([np.ones(30, dtype=bool), np.zeros(30, dtype=bool)])
    model = train_logreg(x, y, c_value=1.0)
    assert abs(model.intercept) <= 1e-6
    prob_at_origin = predict_scores(model, np.zeros((1, 4)))[0]
    assert prob_at_origin == pytest.approx(0.5, abs=1e-6)


def test_single_class_rejected():
    x = np.random.default_rng(3).standard_normal((10, 3))
    with pytest.raises(SingleClassError):
        train_logreg(x, np.ones(10, dtype=bool), c_value=1.0)
    with pytest.raises(SingleClassError):
        train_logreg(x, np.zeros(10, dtype=bool), c_value=1.0)


# --- training -------------------------------------------------------------


def test_separable_data_perfect_auc_and_converged():
    x, y = make_separable()
    model = train_logreg(x, y, c_value=1.0)
    assert model.converged
    assert model.grad_norm <= 1e-6
    assert roc_auc(predict_scores(model, x), y) == 1.0


def test_retraining_is_bit_identical():
    x, y = make_separable(seed=4)
    first = train_logreg(x, y, c_value=0.5)
    second = train_logreg(x, y, c_value=0.5)
    np.testing.assert_array_equal(first.weights, second.weights)
    assert first.intercept == second.intercept
    assert first.n_iter == second.n_iter


def test_final_loss_never_exceeds_initial():
    rng = np.random.default_rng(5)
    for trial in range(5):
        x = rng.standard_normal((50, 6))
        y = rng.random(50) > 0.4
        if y.all() or not y.any():
            y[0] = ~y[0]
        c_value = 10.0 ** rng.integers(-3, 3)
        model = train_logreg(x, y, c_value)
        initial = loss_at(np.zeros(6), 0.0, x, y, c_value)
        assert loss_at(model.weights, model.intercept, x, y, c_value) <= initial + 1e-12


def test_weak_regularisation_fits_separable_data_tighter():
    x, y = make_separable(seed=6)
    weak = train_logreg(x, y, c_value=1e4)
    strong = train_logreg(x, y, c_value=1e-8)
    # Compare pure data losses (regularisation excluded) at each solution.
    def data_loss(model):
        loss, _, _ = logreg_objective(model.weights, model.intercept, x, y, 1e30)
        return loss

    assert data_loss(weak) < data_loss(strong)


def test_label_flip_negates_weights():
    x, y = make_separable(seed=7)
    forward = train_logreg(x, y, c_value=1.0)
    backward = train_logreg(x, ~y, c_value=1.0)
    np.testing.assert_allclose(backward.weights, -forward.weights, atol=1e-6)
    assert backward.intercept == pytest.approx(-forward.intercept, abs=1e-6)


def test_invalid_c_rejected():
    x, y = make_separable(seed=8)
    for bad in (0.0, -1.0, float("nan"), float("inf"), 1e-310, math.nextafter(MIN_C, 0.0)):
        with pytest.raises(ValueError):
            train_logreg(x, y, c_value=bad)
    # An empty grid is refused before any fold is drawn: these folds cannot be.
    with pytest.raises(ValueError, match="grid is empty"):
        cv_select_c(x, y, seed=0, grid=(), n_folds=len(y))


def test_the_smallest_c_has_a_finite_regulariser_and_trains():
    # 1 / sys.float_info.max rounds to 2**-1024, whose reciprocal is inf;
    # MIN_C is the next float up. Warnings are errors here, so an overflow
    # in the loss or the gradient fails the fit.
    assert math.isfinite(1.0 / MIN_C) and 1.0 / math.nextafter(MIN_C, 0.0) == math.inf
    x, y = make_shifted(200, 8, seed=3)
    model = train_logreg(x, y, MIN_C)
    assert model.converged
    assert np.all(np.abs(model.weights) < 1e-300)


def test_scores_monotone_in_linear_score():
    x, y = make_separable(seed=10)
    model = train_logreg(x, y, c_value=1.0)
    linear = x @ model.weights + model.intercept
    scores = predict_scores(model, x)
    order = np.argsort(linear)
    assert (np.diff(scores[order]) >= 0).all()
    assert ((scores > 0.0) & (scores < 1.0)).all()


@pytest.mark.parametrize("c_value", [1e-8, 1e-2, 1.0, 1e4])
@pytest.mark.parametrize("n, dim", [(400, 20), (60, 120)])
def test_newton_matches_lbfgs_reference(n, dim, c_value):
    x, y = make_shifted(n, dim, seed=17)
    model = train_logreg(x, y, c_value)
    ref = reference_fit(x, y, c_value)
    assert model.converged
    loss, grad_w, grad_b = logreg_objective(model.weights, model.intercept, x, y, c_value)
    ref_loss = loss_at(ref.weights, ref.intercept, x, y, c_value)
    assert loss <= ref_loss + 1e-9 * abs(ref_loss)
    # The reported gradient describes the returned point.
    assert max(np.abs(grad_w).max(), abs(grad_b)) == pytest.approx(model.grad_norm, abs=1e-12)
    # Strong convexity bounds the distance between two points by the sum of
    # their gradient norms over the smallest Hessian eigenvalue; both fits
    # are only as exact as their gradients, so the bound has a factor 2 spare.
    theta_ref = np.append(ref.weights, ref.intercept)
    xa = np.hstack([x, np.ones((n, 1))])
    p = 1.0 / (1.0 + np.exp(-(xa @ theta_ref)))
    reg = np.append(np.full(dim, 1.0 / c_value), 0.0)
    hessian = xa.T @ ((p * (1.0 - p))[:, None] * xa) + np.diag(reg)
    grad_sum = 0.0
    for fit in (model, ref):
        _, grad_w, grad_b = logreg_objective(fit.weights, fit.intercept, x, y, c_value)
        grad_sum += float(np.linalg.norm(np.append(grad_w, grad_b)))
    bound = 2.0 * grad_sum / np.linalg.eigvalsh(hessian)[0]
    assert np.abs(model.weights - ref.weights).max() <= bound
    assert abs(model.intercept - ref.intercept) <= bound


def test_cv_selects_the_reference_c_on_a_stock_problem(monkeypatch):
    x, y = stock_problem()
    selected, scores = cv_select_c(x, y, seed=3)

    def reference_cv_fit(x, y, c_value, *, warm_start=None, _design=None):
        # The prepared fold is the Newton solver's; the reference refits the rows.
        return reference_fit(x, y, c_value, warm_start=warm_start)

    monkeypatch.setattr(logreg, "train_logreg", reference_cv_fit)
    ref_selected, ref_scores = cv_select_c(x, y, seed=3)
    assert selected == ref_selected
    for c_value, score in scores.items():
        assert score == pytest.approx(ref_scores[c_value], abs=1e-6)


def test_cv_fits_equal_a_chain_of_standalone_fits(monkeypatch):
    # Each fold is prepared once and shared along the C grid; every fit must
    # be the one a standalone, warm-started train_logreg on the fold gives,
    # and the curve must be the per-C mean of the chain's validation AUCs.
    x, y = make_shifted(240, 12, seed=21)
    grid, n_folds = (1e-4, 1e-2, 1.0, 1e2), 4
    fits = []

    def recording(x, y, c_value, **kwargs):
        model = train_logreg(x, y, c_value, **kwargs)
        fits.append((c_value, model))
        return model

    monkeypatch.setattr(logreg, "train_logreg", recording)
    selected, curve = cv_select_c(x, y, seed=9, grid=grid, n_folds=n_folds)
    monkeypatch.undo()
    assert len(fits) == n_folds * len(grid)
    fits = iter(fits)
    aucs = np.empty((n_folds, len(grid)))
    for k, (train_idx, val_idx) in enumerate(stratified_folds(y, n_folds, seed=9)):
        warm = None
        for j, c_value in enumerate(grid):
            alone = train_logreg(x[train_idx], y[train_idx], c_value, warm_start=warm)
            shared_c, shared = next(fits)
            assert shared_c == c_value
            assert shared.weights.tobytes() == alone.weights.tobytes()
            assert np.float64(shared.intercept).tobytes() == np.float64(alone.intercept).tobytes()
            assert (shared.n_iter, shared.converged) == (alone.n_iter, alone.converged)
            warm = np.append(alone.weights, alone.intercept)
            aucs[k, j] = roc_auc(predict_scores(alone, x[val_idx]), y[val_idx])
    means = aucs.mean(axis=0)
    assert list(curve) == list(grid)
    assert np.array(list(curve.values())).tobytes() == means.tobytes()
    assert selected == grid[list(means).index(means.max())]  # the first maximum


def test_prepared_design_is_read_only(monkeypatch):
    x, y = make_shifted(60, 5, seed=22)
    designs = []

    def recording(x, y, c_value, **kwargs):
        designs.append(kwargs["_design"])
        return train_logreg(x, y, c_value, **kwargs)

    monkeypatch.setattr(logreg, "train_logreg", recording)
    cv_select_c(x, y, seed=0, grid=(0.1, 1.0), n_folds=3)
    assert len(designs) == 6 and len({id(d) for d in designs}) == 3
    arrays = [getattr(designs[0], f.name) for f in dataclasses.fields(designs[0])]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert len(arrays) == 5
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
        with pytest.raises(ValueError):
            array += 1.0


def test_prepared_design_holds_16_bytes_per_entry():
    # The float64 design and its float32 scaled copy and square: 8 + 4 + 4
    # bytes per entry, plus the per-row labels and per-column means, and no
    # more than that while preparing (numpy's casting buffer aside).
    n, dim = 1000, 255
    x, y = make_shifted(n, dim, seed=25)
    tracemalloc.start()
    try:
        design = logreg._prepare(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = [getattr(design, f.name) for f in dataclasses.fields(design)]
    held = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    bound = 16 * n * (dim + 1) + 8 * (n + dim)
    assert held <= bound
    assert peak <= bound + 2**18


def test_cv_holds_one_fold_design_at_a_time():
    # One fold's row slices and design are alive at a time, plus the
    # solver's temporaries: 5.21 MiB here. Preparing the next fold before
    # the previous one is released holds a second design (8.27 MiB); the
    # bound sits half a design above the one-fold peak.
    n, dim, n_folds = 1000, 255, 5
    n_train = n - n // n_folds
    design = 16 * n_train * (dim + 1)
    one_fold = 8 * n * dim + design + 2**18
    x, y = make_shifted(n, dim, seed=25)
    tracemalloc.start()
    try:
        cv_select_c(x, y, seed=0, grid=(0.1, 1.0), n_folds=n_folds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= one_fold + design // 2


def test_float32_copy_is_an_exact_power_of_two_scaling():
    x, y = make_shifted(80, 6, seed=26)
    for scale in (1e-30, 1.0, 3.0, 1e30):
        design = logreg._prepare(x * scale, y)
        assert design.xa32.dtype == design.xa32_sq.dtype == np.float32
        assert np.abs(design.xa32).max() <= 1.0
        rebuilt = np.ldexp(design.xa32.astype(np.float64), design.exponent)
        np.testing.assert_array_equal(rebuilt, design.xa.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("layout", ["C", "F", "float32", "column view"])
def test_centred_design_equals_copying_then_centring(layout):
    # The design is written as x - mean in one pass. It must hold the bytes
    # of the two-pass build (copy x into [x, 1], then centre the copy's
    # feature columns) for any layout the caller passes.
    x, y = make_shifted(90, 12, seed=28)
    x = {
        "C": x,
        "F": np.asfortranarray(x),
        "float32": x.astype(np.float32),
        "column view": x[:, ::2],
    }[layout]
    reference = np.empty((x.shape[0], x.shape[1] + 1))
    reference[:, :-1] = x
    reference[:, -1] = 1.0
    mean = reference[:, :-1].mean(axis=0)
    reference[:, :-1] -= mean
    design = logreg._prepare(x, y)
    assert design.mean.tobytes() == mean.tobytes()
    assert design.xa.tobytes() == reference.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("size", [1e-300, 1.0, 1e300])
def test_float32_hessian_product_matches_float64_at_any_direction_size(size):
    # Rounding bound of the two float32 products and the three casts, fixed
    # from the dtype: (n + d + 8) float32 unit roundoffs of the product of
    # absolute values. An unscaled float32 cast overflows at 1e300 and
    # flushes to zero at 1e-300.
    rng = np.random.default_rng(27)
    x, y = make_shifted(80, 6, seed=27)
    design = logreg._prepare(x * 1e3, y)
    curv32 = rng.uniform(0.0, 0.25, 80).astype(np.float32)
    curv = curv32.astype(np.float64)
    direction = rng.standard_normal(7) * size
    product = logreg._data_hessian_product(design, curv32, direction)
    xa = design.xa
    exact = xa.T @ (curv * (xa @ direction))
    scale = np.abs(xa).T @ (curv * (np.abs(xa) @ np.abs(direction)))
    assert (np.abs(product - exact) <= (80 + 7 + 8) * 2.0**-24 * scale).all()


def test_cv_rejects_a_non_finite_feature():
    x, y = make_shifted(60, 5, seed=23)
    x[17, 3] = np.nan
    with pytest.raises(NonFiniteError):
        cv_select_c(x, y, seed=0, grid=(0.1, 1.0), n_folds=3)


def test_sigmoid_matches_the_two_branch_formula_bit_for_bit():
    def two_branch(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        expz = np.exp(z[~pos])
        out[~pos] = expz / (1.0 + expz)
        return out

    edges = np.array([0.0, 1e-300, 36.0, 745.0, 1e308, np.inf])
    rng = np.random.default_rng(24)
    spread = rng.standard_normal(100_000) * 10.0 ** rng.uniform(-3, 3, 100_000)
    z = np.concatenate([edges, -edges, spread])
    assert logreg._sigmoid(z).tobytes() == two_branch(z).tobytes()


def test_fit_at_the_float64_floor_counts_as_converged():
    # At C = 1e-8 the regularisation gradient is ~1e2 and cancels the data
    # gradient; float64 cannot show the loss decrease that would take the
    # absolute gradient below GRAD_TOL, so the fit stops early and the
    # scale-aware test judges it converged.
    x, y = stock_problem()
    model = train_logreg(x, y, 1e-8)
    assert model.grad_norm > GRAD_TOL
    assert model.converged
    assert model.n_iter < 10


@pytest.mark.parametrize("seed", range(4))
def test_full_step_at_the_float64_floor_is_taken_when_it_lowers_the_gradient(seed):
    # At C = 1e-8 on 900 x 256 the first Newton step leaves the gradient
    # just above its tolerance, and the next step's predicted decrease is
    # below float64 resolution at the loss. The loss cannot judge that step;
    # the gradient can, so the fit takes it and converges. Stopping there
    # instead left these four fits at 1.05-1.22x their tolerance after one
    # iteration, as it left 4 CV fits of the stock matrix.
    x, y = make_shifted(900, 256, seed=seed)
    model = train_logreg(x, y, 1e-8)
    assert model.converged
    assert model.n_iter < 10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-30, 1e-20, 1e20, 1e30])
def test_extreme_feature_scales_raise_no_float32_overflow(scale):
    # The float32 design products must neither overflow nor warn. Tiny
    # features converge; at 1e20 and beyond float64 cannot resolve the
    # absolute gradient tolerance, and the fit is flagged, not failed.
    x, y = make_shifted(200, 10, seed=19)
    starts = [(c_value, None) for c_value in (1e-8, 1.0, 1e4)]
    for c_value, warm in starts + [(1.0, np.full(11, 30.0))]:
        model = train_logreg(x * scale, y, c_value, warm_start=warm)
        assert model.converged == (scale < 1.0)
        loss = loss_at(model.weights, model.intercept, x * scale, y, c_value)
        assert np.isfinite(model.weights).all() and np.isfinite(loss)
        assert model.n_iter < logreg.MAX_ITER


def test_far_warm_start_reaches_the_cold_start_optimum():
    # Saturated margins make the first Newton steps overshoot; the line
    # search has to cut them back.
    x, y = make_shifted(200, 10, seed=19)
    cold = train_logreg(x, y, 1.0)
    far = train_logreg(x, y, 1.0, warm_start=np.full(11, 30.0))
    assert far.converged
    start_loss = loss_at(np.full(10, 30.0), 30.0, x, y, 1.0)
    assert loss_at(far.weights, far.intercept, x, y, 1.0) <= start_loss
    np.testing.assert_allclose(far.weights, cold.weights, atol=1e-6)


def test_singular_intercept_stops_cg_before_its_step_overflows():
    # The first steps from a far warm start saturate every margin, so every
    # curvature vanishes and the Hessian is singular in the intercept. CG
    # must stop before its step overflows; the fit then reaches the optimum,
    # which at C = 1e-8 and balanced labels is w ~ 0, b = 0.
    x, y = make_shifted(200, 10, seed=19)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train_logreg(x * 1e-20, y, 1e-8, warm_start=np.full(11, 30.0))
    assert model.converged
    loss = loss_at(model.weights, model.intercept, x * 1e-20, y, 1e-8)
    assert loss == pytest.approx(200 * np.log(2.0), rel=1e-12)


def test_iteration_cap_reports_not_converged(monkeypatch):
    x, y = make_shifted(200, 10, seed=18)
    monkeypatch.setattr(logreg, "MAX_ITER", 1)
    model = train_logreg(x, y, 1.0)
    assert model.n_iter == 1
    assert not model.converged


# --- folds ----------------------------------------------------------------


def test_folds_partition_and_stratify():
    y = np.array([True] * 10 + [False] * 15)
    folds = stratified_folds(y, n_folds=5, seed=0)
    assert len(folds) == 5
    all_val = np.concatenate([val for _, val in folds])
    assert sorted(all_val.tolist()) == list(range(25))
    for train, val in folds:
        assert set(train) | set(val) == set(range(25))
        assert not set(train) & set(val)
        assert y[val].sum() == 2  # 10 positives / 5 folds
        assert (~y[val]).sum() == 3  # 15 negatives / 5 folds


def test_folds_deterministic_per_seed():
    y = np.random.default_rng(11).random(40) > 0.5
    a = stratified_folds(y, 4, seed=3)
    b = stratified_folds(y, 4, seed=3)
    for (ta, va), (tb, vb) in zip(a, b):
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(va, vb)
    c = stratified_folds(y, 4, seed=4)
    assert any(
        not np.array_equal(va, vc) for (_, va), (_, vc) in zip(a, c)
    )


def chunked_folds(y, n_folds, seed):
    """The fold construction stratified_folds replaced, kept as the reference:
    each fold concatenates and sorts its class chunks."""
    y = np.asarray(y).astype(bool).ravel()
    rng = np.random.default_rng(seed)
    pos_chunks = np.array_split(rng.permutation(np.flatnonzero(y)), n_folds)
    neg_chunks = np.array_split(rng.permutation(np.flatnonzero(~y)), n_folds)
    folds = []
    for k in range(n_folds):
        val = np.sort(np.concatenate([pos_chunks[k], neg_chunks[k]]))
        train = np.sort(
            np.concatenate(
                [c for i, c in enumerate(pos_chunks) if i != k]
                + [c for i, c in enumerate(neg_chunks) if i != k]
            )
        )
        folds.append((train, val))
    return folds


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_folds_equal_the_chunk_and_sort_reference(data):
    n_folds = data.draw(st.integers(2, 6), label="n_folds")
    n_pos = data.draw(st.integers(n_folds, 40), label="n_pos")
    n_neg = data.draw(st.integers(n_folds, 40), label="n_neg")
    y = np.array(data.draw(st.permutations([True] * n_pos + [False] * n_neg), label="y"))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    folds = stratified_folds(y, n_folds, seed)
    reference = chunked_folds(y, n_folds, seed)
    assert len(folds) == len(reference)
    for pair, ref_pair in zip(folds, reference):
        for got, want in zip(pair, ref_pair):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def test_too_few_members_for_folds():
    y = np.array([True] * 3 + [False] * 20)
    with pytest.raises(FoldDegenerateError):
        stratified_folds(y, n_folds=5, seed=0)
    for bad in (1, 0, -1):
        with pytest.raises(ValueError, match="at least 2 folds"):
            stratified_folds(y, n_folds=bad, seed=0)


# --- C selection ----------------------------------------------------------


def test_default_grid_has_thirteen_values():
    assert len(DEFAULT_C_GRID) == 13
    assert DEFAULT_C_GRID[0] == pytest.approx(1e-8)
    assert DEFAULT_C_GRID[-1] == pytest.approx(1e4)


def test_single_element_grid_returned_verbatim():
    x, y = make_separable(seed=12)
    selected, scores = cv_select_c(x, y, seed=0, grid=(0.125,))
    assert selected == 0.125
    assert set(scores) == {0.125}


def test_tie_goes_to_smaller_c():
    # Strongly separable data: every adequately regularised C reaches fold
    # AUC 1.0, so the tie rule must pick the smallest of the tied values.
    x, y = make_separable(n=80, margin=5.0, seed=13)
    grid = (0.1, 1.0, 10.0)
    selected, scores = cv_select_c(x, y, seed=0, grid=grid, n_folds=4)
    best = max(scores.values())
    tied = [c for c in grid if scores[c] == best]
    assert selected == min(tied)
    assert scores[selected] == 1.0


def test_selection_matches_argmax_with_tie_rule():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((60, 4))
    y = np.concatenate([np.ones(30, dtype=bool), np.zeros(30, dtype=bool)])
    x[y] += 0.8
    selected, scores = cv_select_c(x, y, seed=5, grid=(1e-3, 1e-1, 1e1), n_folds=3)
    best = max(scores.values())
    assert selected == min(c for c, s in scores.items() if s == best)


def test_cv_deterministic():
    x, y = make_separable(seed=15)
    a = cv_select_c(x, y, seed=7, grid=(0.01, 1.0), n_folds=3)
    b = cv_select_c(x, y, seed=7, grid=(0.01, 1.0), n_folds=3)
    assert a == b


def test_cv_degenerate_folds_propagate():
    x = np.random.default_rng(16).standard_normal((8, 3))
    y = np.array([True] * 3 + [False] * 5)
    with pytest.raises(FoldDegenerateError):
        cv_select_c(x, y, seed=0, n_folds=5)
    for bad in (1, 0, -1):
        with pytest.raises(ValueError, match="at least 2 folds"):
            cv_select_c(x, y, seed=0, n_folds=bad)
