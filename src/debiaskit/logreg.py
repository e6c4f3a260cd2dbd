"""L2-regularised logistic regression trained from scratch, with stratified CV.

The objective over weights w and unregularised intercept b is

    (1 / C) * 0.5 ||w||^2  +  sum_i log(1 + exp(-y_i (w . x_i + b)))

with y in {-1, +1}. The solver is a deterministic truncated Newton method on
the augmented design [x, 1] (the intercept is its last parameter), with the
feature columns centred so that the intercept does not couple to the
feature means; the intercept absorbs the shift, so the objective is
unchanged. Each iteration solves the Newton system approximately by
conjugate gradients on Hessian-vector products, preconditioned by the
Hessian's diagonal and stopped once the residual falls below a forcing
fraction of the gradient that shrinks as the fit converges, then backtracks
along the step until the Armijo condition holds. Hessian work is two
products with the design per CG step, so the cost per iteration grows as
n * d, never d^2.

The inner solve is inexact by design (inexact Newton: Dembo, Eisenstat and
Steihaug 1982), so its two products per CG step and the Jacobi diagonal
are taken in float32, which halves the bytes each pass reads. The float32
design is the centred design scaled by a power of two to at most 1 in
magnitude, and each CG direction is scaled the same way before its cast,
so no float32 value can overflow and both scalings are exact. The CG
residual, direction and step, the margins (one float64 product with the
step per iteration), the gradient, the loss, the line search and the
gradient test all stay float64, so float32 rounding can slow a fit's CG
but cannot change what counts as converged.

A training set is validated, augmented, centred, scaled and squared once
(``_prepare``), into a read-only design that no fit copies or writes.
Cross-validation (``cv_select_c``) prepares each fold once; every C of the
ascending grid reuses that design and warm-starts from the previous C's
solution, and only one fold's design is alive at a time.

A fit stops when the gradient test passes: the gradient infinity-norm is at
most 1e-6 times max(1, ||w||_inf / C). At the optimum the data gradient
cancels the regularisation gradient w / C, so float64 can resolve the
gradient only relative to that size; for weak regularisation the test is the
absolute 1e-6. When the Armijo decrease the full Newton step must achieve
(ARMIJO times its predicted decrease) is below the spacing of float64
numbers at the loss, the loss cannot judge the step, and the fit takes it
only if it lowers the gradient infinity-norm; this is the test the line
search applies to each backtracked step. A fit stops early when that fails,
or when the Armijo decrease of every backtracked step is below the spacing
at the loss. ``converged`` is True exactly when
the gradient test holds at the returned point; a fit that stalls without
meeting it, or that runs MAX_ITER iterations, is flagged (not failed) with
``converged=False``.
Identical inputs give bit-identical weights on one platform and BLAS build,
so reruns write the same bytes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    FoldDegenerateError,
    NonFiniteError,
    SingleClassError,
)
from .metrics import roc_auc

GRAD_TOL = 1e-6
MAX_ITER = 10_000  # Newton iterations
ARMIJO = 1e-4  # sufficient-decrease fraction of the directional derivative
FORCING_MAX = 0.1  # CG stops at residual <= min(FORCING_MAX, sqrt(||g|| / ||g_start||)) * ||g||
# CG stops before a step entry would pass this. CG diverges on a singular
# Hessian, as when every curvature vanishes at a saturated intercept; past
# this size the step's squared norm and regulariser would overflow.
STEP_MAX = 2.0**256
# The smallest C whose regulariser 1 / C is finite: 1 / sys.float_info.max
# rounds to 2**-1024, whose reciprocal overflows.
MIN_C = math.nextafter(1.0 / sys.float_info.max, 1.0)

# 10^-8 .. 10^4, one value per decade.
DEFAULT_C_GRID = tuple(10.0 ** k for k in range(-8, 5))
DEFAULT_FOLDS = 5


@dataclass(frozen=True)
class ClassifierModel:
    """Fitted weights, intercept and training metadata."""

    weights: np.ndarray
    intercept: float
    converged: bool
    n_iter: int
    grad_norm: float

    def __post_init__(self):
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)


def _checked(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The features in float64 and C order and the labels as +-1, after the
    input checks. In C order the column means sum row by row, whatever
    layout the caller passed."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(y).ravel()
    if x.ndim != 2:
        raise DimensionMismatchError("features must be 2-d")
    if y.shape[0] != x.shape[0]:
        raise DimensionMismatchError(
            f"labels ({y.shape[0]}) and features ({x.shape[0]}) disagree"
        )
    if not np.isfinite(x).all():
        raise NonFiniteError("non-finite feature value")
    signs = np.where(np.asarray(y, dtype=bool), 1.0, -1.0)
    if signs.max() == signs.min():
        raise SingleClassError("training needs both classes present")
    return x, signs


def _regulariser(n_params: int, c_value: float) -> np.ndarray:
    """Per-parameter regularisation weights: 1 / C, and 0 for the intercept."""
    reg = np.full(n_params, 1.0 / c_value)
    reg[-1] = 0.0
    return reg


@dataclass(frozen=True)
class _Design:
    """A training set made ready for Newton fits at any C, all read-only.

    ``xa`` is the augmented design with its feature columns centred by
    ``mean``: with b' = b + w . mean the intercept column no longer couples
    to the feature means, which conditions the Newton system, and the
    objective is the same. ``xa32`` is ``xa`` times 2**-``exponent`` in
    float32, so its largest magnitude is at most 1 and the scaling is exact;
    ``xa32_sq`` is its elementwise square. ``signs`` are the labels as +-1.
    """

    xa: np.ndarray
    xa32: np.ndarray
    xa32_sq: np.ndarray
    exponent: int
    mean: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        for array in (self.xa, self.xa32, self.xa32_sq, self.mean, self.signs):
            array.setflags(write=False)


def _prepare(x: np.ndarray, y: np.ndarray) -> _Design:
    """Check, augment, centre, scale and square a training set, once per set."""
    x, signs = _checked(x, y)
    mean = x.mean(axis=0)
    xa = np.empty((x.shape[0], x.shape[1] + 1))
    np.subtract(x, mean, out=xa[:, :-1])
    xa[:, -1] = 1.0
    exponent = math.frexp(max(xa.max(), -xa.min()))[1]
    xa32 = np.empty(xa.shape, dtype=np.float32)
    np.multiply(xa, math.ldexp(1.0, -exponent), out=xa32, casting="same_kind")
    return _Design(xa, xa32, np.square(xa32), exponent, mean, signs)


def _loss(margins: np.ndarray, theta: np.ndarray, reg: np.ndarray) -> float:
    # log(1 + exp(-m)) computed stably for both margin signs.
    return float(np.logaddexp(0.0, -margins).sum()) + 0.5 * float(theta @ (reg * theta))


def _gradient(
    xa: np.ndarray, signs: np.ndarray, p: np.ndarray, theta: np.ndarray, reg: np.ndarray
) -> np.ndarray:
    # d/dm log(1+exp(-m)) = -sigmoid(-m) = -p
    return (-signs * p) @ xa + reg * theta


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so exp
    # never overflows; both branches share e = exp(-|z|).
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def logreg_objective(
    weights: np.ndarray, intercept: float, x: np.ndarray, y: np.ndarray, c_value: float
) -> tuple[float, np.ndarray, float]:
    """Loss, weight gradient and intercept gradient at the given point."""
    x, signs = _checked(x, y)
    xa = np.column_stack([x, np.ones(x.shape[0])])
    reg = _regulariser(xa.shape[1], c_value)
    theta = np.append(np.asarray(weights, dtype=np.float64), float(intercept))
    margins = signs * (xa @ theta)
    grad = _gradient(xa, signs, _sigmoid(-margins), theta, reg)
    return _loss(margins, theta, reg), grad[:-1], float(grad[-1])


def _converged(grad: np.ndarray, theta: np.ndarray, reg: np.ndarray) -> bool:
    """The gradient test of the module docstring."""
    return bool(np.abs(grad).max() <= GRAD_TOL * max(1.0, float(np.abs(reg * theta).max())))


def _data_hessian_product(
    design: _Design, curv32: np.ndarray, direction: np.ndarray
) -> np.ndarray:
    """xa' diag(curv) xa @ direction in float64, from two float32 products.

    The direction is cast after scaling by a power of two to at most 1 in
    magnitude, so with |xa32| <= 1 and curv <= 1/4 no float32 value in the
    products can overflow; both scalings are undone exactly in float64.
    """
    dir_exp = math.frexp(np.abs(direction).max())[1]
    dir32 = (direction * math.ldexp(1.0, -dir_exp)).astype(np.float32)
    h32 = (curv32 * (design.xa32 @ dir32)) @ design.xa32
    return np.ldexp(h32, 2 * design.exponent + dir_exp, dtype=np.float64)


def _newton(
    design: _Design, reg: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Truncated Newton from ``theta``, a private copy, on the prepared
    ``design``, which it only reads. Returns (theta, gradient, iterations) in
    uncentred coordinates; the stopping rule is the module docstring's."""
    xa, mean, signs = design.xa, design.mean, design.signs
    theta[-1] += theta[:-1] @ mean

    def uncentred(grad: np.ndarray) -> np.ndarray:
        out = grad.copy()
        out[:-1] += mean * grad[-1]
        return out

    margins = signs * (xa @ theta)
    loss = _loss(margins, theta, reg)
    p = _sigmoid(-margins)
    grad = _gradient(xa, signs, p, theta, reg)
    start_norm = float(np.sqrt(grad @ grad))
    n_iter = 0
    while n_iter < MAX_ITER and not _converged(uncentred(grad), theta, reg):
        # Preconditioned CG on H step = -grad, H = xa' diag(curv) xa + diag(reg).
        # The products with the design run in float32; the CG recurrences in float64.
        curv32 = (p * (1.0 - p)).astype(np.float32)
        diag = np.ldexp(curv32 @ design.xa32_sq, 2 * design.exponent, dtype=np.float64) + reg
        diag[diag <= 0.0] = 1.0
        grad_norm = float(np.sqrt(grad @ grad))
        resid_tol_sq = (min(FORCING_MAX, np.sqrt(grad_norm / start_norm)) * grad_norm) ** 2
        step = np.zeros_like(theta)
        resid = -grad
        z = resid / diag
        direction = z
        rz = float(resid @ z)
        for _ in range(theta.size):
            h_dir = _data_hessian_product(design, curv32, direction) + reg * direction
            curvature = float(direction @ h_dir)
            if curvature <= 0.0:
                break
            alpha = rz / curvature
            next_step = step + alpha * direction
            if np.abs(next_step).max() > STEP_MAX:
                break
            step = next_step
            resid -= alpha * h_dir
            if resid @ resid <= resid_tol_sq:
                break
            z = resid / diag
            rz, rz_old = float(resid @ z), rz
            direction = z + (rz / rz_old) * direction

        slope = float(grad @ step)
        margin_step = signs * (xa @ step)
        # Below float64 resolution at the loss, the Armijo decrease cannot
        # judge the step; the full step is then judged by the gradient.
        judged = loss + ARMIJO * slope < loss
        alpha = 1.0
        while True:
            cand = theta + alpha * step
            cand_margins = margins + alpha * margin_step
            cand_loss = _loss(cand_margins, cand, reg)
            if not judged or cand_loss <= loss + ARMIJO * alpha * slope:
                break
            alpha *= 0.5
            if not loss + ARMIJO * alpha * slope < loss:
                cand = None
                break
        if cand is None:
            break
        cand_p = _sigmoid(-cand_margins)
        cand_grad = _gradient(xa, signs, cand_p, cand, reg)
        if not judged and not (
            np.abs(uncentred(cand_grad)).max() < np.abs(uncentred(grad)).max()
        ):
            break
        theta, margins, loss, p, grad = cand, cand_margins, cand_loss, cand_p, cand_grad
        n_iter += 1
    theta[-1] -= theta[:-1] @ mean
    return theta, uncentred(grad), n_iter


def train_logreg(
    x: np.ndarray,
    y: np.ndarray,
    c_value: float,
    *,
    warm_start: np.ndarray | None = None,
    _design: _Design | None = None,
) -> ClassifierModel:
    """Fit the regularised model from zero, or from ``warm_start`` (the
    weights followed by the intercept). Deterministic.

    ``_design`` is ``_prepare(x, y)`` when the caller already holds it, as
    cross-validation does for each fold along the C grid.
    """
    if not (c_value >= MIN_C and np.isfinite(c_value)):
        raise ValueError(f"C must be finite and >= {MIN_C}, got {c_value}")
    design = _prepare(x, y) if _design is None else _design
    n_params = design.xa.shape[1]
    start = np.zeros(n_params)
    if warm_start is not None:
        start = np.asarray(warm_start, dtype=np.float64).copy()
        if start.shape != (n_params,):
            raise DimensionMismatchError("warm start has wrong shape")
    reg = _regulariser(n_params, c_value)
    theta, grad, n_iter = _newton(design, reg, start)
    return ClassifierModel(
        weights=theta[:-1],
        intercept=float(theta[-1]),
        converged=_converged(grad, theta, reg),
        n_iter=n_iter,
        grad_norm=float(np.abs(grad).max()),
    )


def predict_scores(model: ClassifierModel, x: np.ndarray) -> np.ndarray:
    """Per-row sigmoid scores in (0, 1), monotone in the linear score."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.weights.shape[0]:
        raise DimensionMismatchError(
            f"model dimension {model.weights.shape[0]} does not match {x.shape[1]}"
        )
    return _sigmoid(x @ model.weights + model.intercept)


def stratified_folds(
    y: np.ndarray, n_folds: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic stratified K-fold (train_idx, val_idx) pairs, each ascending.

    Each class is permuted (positives first) and split into ``n_folds``
    near-equal chunks; chunk k of both classes is fold k's validation set.
    Raises ValueError for fewer than two folds and FoldDegenerateError when
    any fold would miss a class.
    """
    if n_folds < 2:
        raise ValueError(f"need at least 2 folds, got {n_folds}")
    y = np.asarray(y).astype(bool).ravel()
    pos = np.flatnonzero(y)
    neg = np.flatnonzero(~y)
    if min(len(pos), len(neg)) < n_folds:
        raise FoldDegenerateError(
            f"cannot build {n_folds} stratified folds from {len(pos)} positives "
            f"and {len(neg)} negatives"
        )
    rng = np.random.default_rng(seed)
    fold_of = np.empty(y.size, dtype=np.intp)
    for members in (pos, neg):
        for k, chunk in enumerate(np.array_split(rng.permutation(members), n_folds)):
            fold_of[chunk] = k
    return [(np.flatnonzero(fold_of != k), np.flatnonzero(fold_of == k)) for k in range(n_folds)]


def cv_select_c(
    x: np.ndarray,
    y: np.ndarray,
    seed: int,
    grid: tuple[float, ...] = DEFAULT_C_GRID,
    n_folds: int = DEFAULT_FOLDS,
) -> tuple[float, dict[float, float]]:
    """Pick C maximising mean validation ROC-AUC over stratified folds.

    Ties go to the smaller C. Returns (selected C, mean AUC per grid value).
    Each fold's training rows are prepared once, and its fits run up the
    ascending grid, each warm-started from the previous C's solution on the
    same fold (the first from zero). A fold's rows and design are released
    before the next fold is prepared, so only one fold's design is alive at a
    time. The caller retrains the final model from scratch at the selected C.
    """
    ordered = sorted(grid)
    if not ordered:
        raise ValueError("the C grid is empty")
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(y).astype(bool).ravel()
    folds = stratified_folds(y, n_folds, seed)
    scores = np.empty((len(folds), len(ordered)))
    for k, (train_idx, val_idx) in enumerate(folds):
        x_train, y_train = x[train_idx], y[train_idx]
        x_val, y_val = x[val_idx], y[val_idx]
        design = _prepare(x_train, y_train)
        warm = None
        for j, c_value in enumerate(ordered):
            # A module lookup, so a wrapper patched onto logreg.train_logreg sees every fit.
            model = train_logreg(x_train, y_train, c_value, warm_start=warm, _design=design)
            warm = np.append(model.weights, model.intercept)
            scores[k, j] = roc_auc(predict_scores(model, x_val), y_val)
        del x_train, y_train, x_val, y_val, design
    means = scores.mean(axis=0)
    # argmax takes the first maximum: ties go to the smaller C.
    return ordered[int(np.argmax(means))], {c: float(m) for c, m in zip(ordered, means)}
