import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import popdmp as P


def test_point_counts():
    assert P.build_simplex_grid(3, 2).n_points == 6
    assert P.build_simplex_grid(1, 9).n_points == 1
    assert P.build_simplex_grid(3, 50).n_points == 1326
    assert P.build_simplex_grid(2, 7).n_points == 8


def test_overflow_guard():
    with pytest.raises(ValueError):
        P.build_simplex_grid(3, 5000)


def test_grid_points_interpolate_exactly():
    grid = P.build_simplex_grid(3, 12)
    values = np.random.default_rng(0).uniform(0.0, 10.0, grid.n_points)
    vg = P.ValueGrid(grid, values)
    for p, v in zip(grid.points, values):
        assert P.interpolate(vg, p) == v


def test_barycentric_unit_weight_at_vertices():
    for d, K in ((2, 5), (3, 9), (4, 4)):
        grid = P.build_simplex_grid(d, K)
        idx, w = grid.barycentric_batch(grid.points)
        top = np.argmax(w, axis=1)
        assert np.allclose(w[np.arange(len(w)), top], 1.0)
        assert np.allclose(np.sort(w, axis=1)[:, :-1], 0.0)
        assert (idx[np.arange(len(w)), top] == np.arange(grid.n_points)).all()


def test_affine_functions_reproduce():
    grid = P.build_simplex_grid(3, 40)
    alpha = np.array([0.3, 0.7, 1.1])
    vg = P.ValueGrid(grid, grid.points @ alpha)
    beliefs = np.random.default_rng(1).dirichlet(np.ones(3), size=100)
    err = np.abs(P.interpolate_batch(vg, beliefs) - beliefs @ alpha)
    assert err.max() < 1e-12


def test_constant_function_reproduces():
    grid = P.build_simplex_grid(3, 7)
    vg = P.ValueGrid.constant(grid, 4.25)
    beliefs = np.random.default_rng(2).dirichlet(np.ones(3), size=50)
    assert np.allclose(P.interpolate_batch(vg, beliefs), 4.25, atol=1e-13)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=3, max_size=3),
       st.integers(min_value=1, max_value=25))
def test_barycentric_weights_reconstruct_the_belief(raw, K):
    probs = np.asarray(raw) / np.sum(raw)
    grid = P.build_simplex_grid(3, K)
    idx, w = grid.barycentric_batch(probs.reshape(1, -1))
    assert np.all(w >= 0.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    recon = (w[0][:, None] * grid.points[idx[0]]).sum(axis=0)
    assert np.abs(recon - probs).max() < 1e-9


def kuhn_simplices(grid):
    """Reference enumeration of the top-dimensional Kuhn simplices as
    vertex-index tuples: in cumulative coordinates xi, each unit cell corner
    u and each order of unit steps gives a vertex chain, kept when every
    vertex stays in the order cone 0 <= xi_1 <= ... <= xi_{d-1} <= K."""
    d, K = grid.dim, grid.subdivisions
    if d == 1:
        return [(0,)]
    steps = np.eye(d - 1, dtype=np.int64)
    out = []
    for u in itertools.product(range(K), repeat=d - 1):
        for perm in itertools.permutations(range(d - 1)):
            chain = [np.asarray(u, dtype=np.int64)]
            for p in perm:
                chain.append(chain[-1] + steps[p])
            if all(np.all(np.diff(v) >= 0) and v[-1] <= K for v in chain):
                out.append(tuple(grid.vertex_index(np.diff(v, prepend=0, append=K))
                                 for v in chain))
    return out


def test_every_belief_lands_in_an_enumerated_simplex():
    grid = P.build_simplex_grid(3, 4)
    simplex_sets = [frozenset(s) for s in kuhn_simplices(grid)]
    assert len(simplex_sets) == 16  # K^2 top-dimensional cells for d=3
    rng = np.random.default_rng(3)
    beliefs = rng.dirichlet(np.ones(3), size=200)
    idx, w = grid.barycentric_batch(beliefs)
    for row in idx:
        members = frozenset(int(v) for v in row)
        assert any(members <= s for s in simplex_sets)


def test_dimension_edge_cases():
    g1 = P.build_simplex_grid(1, 5)
    vg1 = P.ValueGrid(g1, np.array([3.0]))
    assert P.interpolate(vg1, np.array([1.0])) == 3.0

    g2 = P.build_simplex_grid(2, 6)
    alpha = np.array([0.25, 1.5])
    vg2 = P.ValueGrid(g2, g2.points @ alpha)
    beliefs = np.random.default_rng(4).dirichlet(np.ones(2), size=40)
    assert np.abs(P.interpolate_batch(vg2, beliefs) - beliefs @ alpha).max() < 1e-12


def test_sorted_code_fallback_matches_dense_lookup():
    grid = P.build_simplex_grid(4, 6)
    beliefs = np.random.default_rng(5).dirichlet(np.ones(4), size=60)
    idx_dense, w_dense = grid.barycentric_batch(beliefs)
    # cached_property stores on the instance; forcing None exercises the
    # searchsorted path used when the code space is too large for a table
    grid.__dict__["_dense_lookup"] = None
    idx_sparse, w_sparse = grid.barycentric_batch(beliefs)
    assert (idx_dense == idx_sparse).all()
    assert np.array_equal(w_dense, w_sparse)


def test_nearest_vertex_lookup():
    grid = P.build_simplex_grid(3, 10)
    probe = grid.points[37] + np.array([0.004, -0.004, 0.0])
    assert grid.nearest_vertex_batch(probe.reshape(1, -1))[0] == 37


def test_value_grid_validation():
    grid = P.build_simplex_grid(3, 3)
    with pytest.raises(ValueError):
        P.ValueGrid(grid, np.ones(grid.n_points - 1))
    with pytest.raises(ValueError):
        P.ValueGrid(grid, -np.ones(grid.n_points))
    with pytest.raises(ValueError):
        P.ValueGrid(grid, np.full(grid.n_points, np.nan))
