"""Projection operators: identities, subspace construction, rank guarding."""

import re
import tracemalloc

import numpy as np
import pytest

from debiaskit.bias import BiasDirection
from debiaskit.errors import DimensionMismatchError, RankDeficientError
from debiaskit.projection import (
    _PANEL_ROWS,
    DebiasOperator,
    projector_from_direction,
    projector_from_subspace,
)


def unit(vector):
    vector = np.asarray(vector, dtype=float)
    return vector / np.linalg.norm(vector)


def direction(vector, **kwargs):
    return BiasDirection(
        vector=unit(vector),
        scope=kwargs.get("scope", "global"),
        class_name=kwargs.get("class_name"),
        genre=kwargs.get("genre"),
        n_a=kwargs.get("n_a", 2),
        n_b=kwargs.get("n_b", 2),
        shrinkage=kwargs.get("shrinkage", 0.01),
    )


# --- single-direction operator --------------------------------------------


def test_axis_projection():
    op = projector_from_direction(direction([1.0, 0.0]))
    np.testing.assert_allclose(op.apply(np.array([3.0, 4.0])), [0.0, 4.0], atol=1e-15)


def test_orthogonal_vector_is_fixed_point():
    op = projector_from_direction(direction([1.0, 0.0, 0.0]))
    x = np.array([0.0, 2.0, -5.0])
    np.testing.assert_array_equal(op.apply(x), x)


def test_direction_itself_maps_to_zero():
    w = unit([0.3, -1.2, 0.8])
    op = projector_from_direction(direction(w))
    np.testing.assert_allclose(op.apply(w), np.zeros(3), atol=1e-12)


def test_matches_dense_projector_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = unit(rng.standard_normal(5))
        x = rng.standard_normal(5)
        dense = (np.eye(5) - np.outer(w, w)) @ x
        np.testing.assert_allclose(
            projector_from_direction(direction(w)).apply(x), dense, atol=1e-12
        )


def test_projection_identities_bulk():
    rng = np.random.default_rng(1)
    dim = 64
    for _ in range(50):
        w = unit(rng.standard_normal(dim))
        x = rng.standard_normal(dim)
        op = projector_from_direction(direction(w))
        px = op.apply(x)
        norm_x = np.linalg.norm(x)
        assert np.linalg.norm(op.apply(px) - px) <= 1e-10 * norm_x
        assert abs(np.dot(w, px)) <= 1e-8 * norm_x
        lhs = np.dot(px, px)
        rhs = np.dot(x, x) - np.dot(w, x) ** 2
        assert abs(lhs - rhs) <= 1e-9 * max(np.dot(x, x), 1.0)
        assert np.linalg.norm(px) <= norm_x + 1e-12


def test_apply_handles_matrices_rowwise():
    rng = np.random.default_rng(2)
    w = unit(rng.standard_normal(4))
    op = projector_from_direction(direction(w))
    x = rng.standard_normal((10, 4))
    stacked = np.vstack([op.apply(row) for row in x])
    np.testing.assert_allclose(op.apply(x), stacked, atol=1e-14)


# --- subspace operator ----------------------------------------------------


def test_orthogonal_directions_remove_plane():
    ops = projector_from_subspace(
        [direction([1.0, 0.0, 0.0]), direction([0.0, 1.0, 0.0])]
    )
    np.testing.assert_allclose(
        ops.apply(np.array([1.0, 2.0, 3.0])), [0.0, 0.0, 3.0], atol=1e-12
    )


def test_correlated_directions_span_same_plane():
    dirs = [direction([1.0, 0.0, 0.0]), direction([1.0, 1.0, 0.0])]
    op = projector_from_subspace(dirs)
    np.testing.assert_allclose(
        op.apply(np.array([1.0, 2.0, 3.0])), [0.0, 0.0, 3.0], atol=1e-10
    )
    # Gram-Schmidt oracle on the two stacked columns gives the same projector.
    w = np.column_stack([d.vector for d in dirs])
    q1 = unit(w[:, 0])
    q2 = unit(w[:, 1] - q1 * np.dot(q1, w[:, 1]))
    x = np.array([0.4, -1.3, 2.2])
    oracle = x - q1 * np.dot(q1, x) - q2 * np.dot(q2, x)
    np.testing.assert_allclose(op.apply(x), oracle, atol=1e-12)


def test_duplicate_direction_rank_deficient():
    w = direction([1.0, 0.0, 0.0])
    with pytest.raises(RankDeficientError) as excinfo:
        projector_from_subspace([w, w])
    singular_values = re.search(r"singular values \[([^]]*)\]", str(excinfo.value))
    assert singular_values is not None
    assert len(singular_values.group(1).split(", ")) == 2


def test_rank_error_reports_correlated_pair():
    base = unit(np.array([0.2, 0.5, -0.8, 0.1]))
    nearly = unit(base + 1e-9 * np.array([1.0, 0.0, 0.0, 0.0]))
    other = unit(np.array([0.9, -0.1, 0.2, 0.3]))
    with pytest.raises(RankDeficientError) as excinfo:
        projector_from_subspace([direction(base), direction(other), direction(nearly)])
    assert "near-parallel input pairs (i, j, |cos|): [(0, 2, " in str(excinfo.value)


def test_random_correlated_subspaces_up_to_eight():
    rng = np.random.default_rng(3)
    dim = 32
    for g in range(2, 9):
        base = rng.standard_normal((dim, g))
        # Correlate the columns without destroying full rank.
        mix = np.eye(g) + 0.4
        w = base @ mix
        dirs = [direction(w[:, j]) for j in range(g)]
        op = projector_from_subspace(dirs)
        assert op.basis.shape == (dim, g)
        gram = op.basis.T @ op.basis
        assert np.linalg.norm(gram - np.eye(g)) <= 1e-8
        x = rng.standard_normal(dim)
        px = op.apply(x)
        for j in range(g):
            assert abs(np.dot(unit(w[:, j]), px)) <= 1e-7 * np.linalg.norm(x)


def test_subspace_idempotent_and_contracting():
    rng = np.random.default_rng(4)
    dirs = [direction(rng.standard_normal(12)) for _ in range(3)]
    op = projector_from_subspace(dirs)
    x = rng.standard_normal((40, 12))
    px = op.apply(x)
    np.testing.assert_allclose(op.apply(px), px, atol=1e-10)
    assert (np.linalg.norm(px, axis=1) <= np.linalg.norm(x, axis=1) + 1e-12).all()


def test_energy_identity_many_rows():
    rng = np.random.default_rng(5)
    dirs = [direction(rng.standard_normal(16)) for _ in range(4)]
    op = projector_from_subspace(dirs)
    x = rng.standard_normal((1000, 16))
    px = op.apply(x)
    coeffs = x @ op.basis
    lhs = (px**2).sum(axis=1)
    rhs = (x**2).sum(axis=1) - (coeffs**2).sum(axis=1)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


def test_dimension_mismatch_between_directions():
    with pytest.raises(DimensionMismatchError):
        projector_from_subspace([direction([1.0, 0.0]), direction([1.0, 0.0, 0.0])])


def test_apply_rejects_wrong_width():
    op = projector_from_direction(direction([1.0, 0.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        op.apply(np.zeros((2, 4)))


# Rank 3 at width 7; rank 1 on blocks taller than one panel at odd widths,
# where every panel's outer product keeps the whole block's bits.
@pytest.mark.parametrize("shape", [(30, 7), (7,), (1000, 513), (1500, 2049)])
def test_apply_matches_the_plain_expression_bit_for_bit(shape):
    rng = np.random.default_rng(8)
    rank = 3 if shape[-1] == 7 else 1
    assert rank == 3 or shape[0] > _PANEL_ROWS
    op = projector_from_subspace([direction(rng.standard_normal(shape[-1])) for _ in range(rank)])
    x = rng.standard_normal(shape) * 5.0
    before = x.copy()
    rows = np.atleast_2d(before)
    plain = rows - (rows @ op.basis) @ op.basis.T
    out = op.apply(x)
    assert out.shape == x.shape
    assert out.tobytes() == plain.tobytes()
    assert x.tobytes() == before.tobytes()


def test_in_place_projection_writes_into_its_block():
    rng = np.random.default_rng(9)
    op = projector_from_subspace([direction(rng.standard_normal(6)) for _ in range(2)])
    x = rng.standard_normal((700, 6))
    expected = op.apply(x)
    assert op.apply_in_place(x) is x
    assert x.tobytes() == expected.tobytes()
    with pytest.raises(DimensionMismatchError):
        op.apply_in_place(np.zeros((2, 5)))


def test_in_place_projection_allocates_one_panel_and_the_coefficients():
    # Projecting a copy allocated the block's size again (23.4 MiB here).
    rows, dim = 1500, 2048
    rng = np.random.default_rng(10)
    op = projector_from_direction(direction(rng.standard_normal(dim)))
    x = rng.standard_normal((rows, dim))
    tracemalloc.start()
    try:
        op.apply_in_place(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (_PANEL_ROWS * dim + rows * op.basis.shape[1]) * 8 + 64 * 1024


def test_operator_requires_orthonormal_basis():
    with pytest.raises(RankDeficientError):
        DebiasOperator(
            basis=np.array([[1.0], [1.0]]),
            singular_values=np.array([1.0]),
        )


# --- projecting out a planted direction kills refits ----------------------


def test_refit_after_projection_is_degenerate():
    rng = np.random.default_rng(7)
    w = unit(rng.standard_normal(8))
    base = rng.standard_normal((300, 8))
    x_a = base + 2.0 * w
    x_b = rng.standard_normal((300, 8)) - 2.0 * w
    # Force both clouds to differ only along w, then remove w.
    shared = (x_a.mean(axis=0) + x_b.mean(axis=0)) / 2
    x_a = x_a - (x_a.mean(axis=0) - shared) + w * ((x_a.mean(axis=0) - shared) @ w) * 0
    op = projector_from_direction(direction(w))
    pa, pb = op.apply(x_a), op.apply(x_b)
    # Any remaining separation along w is numerically zero.
    assert abs(pa @ w).max() <= 1e-8 * np.abs(x_a).max()
    assert abs(pb @ w).max() <= 1e-8 * np.abs(x_b).max()
