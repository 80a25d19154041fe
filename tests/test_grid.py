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
@given(st.integers(min_value=2, max_value=5).flatmap(
           lambda d: st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=d, max_size=d)),
       st.integers(min_value=1, max_value=25))
def test_barycentric_weights_reconstruct_the_belief(raw, K):
    # d = len(raw) runs over 2..5
    probs = np.asarray(raw) / np.sum(raw)
    grid = P.build_simplex_grid(probs.size, K)
    idx, w = grid.barycentric_batch(probs.reshape(1, -1))
    assert np.all(w >= 0.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    recon = (w[0][:, None] * grid.points[idx[0]]).sum(axis=0)
    assert np.abs(recon - probs).max() < 1e-9


def kuhn_simplices(grid):
    """Reference enumeration of the top-dimensional Kuhn simplices as
    vertex-index tuples: in cumulative coordinates xi, each unit cell corner
    u and each order of unit steps gives a vertex chain, kept when every
    vertex stays in the order cone 0 <= xi_1 <= ... <= xi_{d-1} <= K.
    Vertices are indexed by matching compositions against ``grid.points``."""
    d, K = grid.dim, grid.subdivisions
    if d == 1:
        return [(0,)]
    index = {tuple(c): i for i, c in enumerate(np.rint(grid.points * K).astype(np.int64).tolist())}
    steps = np.eye(d - 1, dtype=np.int64)
    out = []
    for u in itertools.product(range(K), repeat=d - 1):
        for perm in itertools.permutations(range(d - 1)):
            chain = [np.asarray(u, dtype=np.int64)]
            for p in perm:
                chain.append(chain[-1] + steps[p])
            if all(np.all(np.diff(v) >= 0) and v[-1] <= K for v in chain):
                out.append(tuple(index[tuple(np.diff(v, prepend=0, append=K).tolist())]
                                 for v in chain))
    return out


def _tie_heavy_beliefs(grid, rng, n):
    """Cumulative coordinates on the quarter lattice, so fractional parts
    tie often (exactly, for K a power of two), plus edge midpoints of
    random grid points moved half a step between two coordinates."""
    d, K = grid.dim, grid.subdivisions
    xi = np.sort(rng.integers(0, 4 * K + 1, (n, d - 1)), axis=1) / 4.0
    shared = np.diff(xi, prepend=0.0, append=float(K), axis=1) / K
    p = grid.points[rng.integers(0, grid.n_points, n)].copy()
    a, b = rng.integers(0, d, n), rng.integers(0, d, n)
    keep = (p[np.arange(n), a] >= 1.0 / K) & (a != b)
    p[np.arange(n), a] -= 0.5 / K
    p[np.arange(n), b] += 0.5 / K
    return np.vstack([shared, p[keep]])


def test_every_belief_lands_in_an_enumerated_simplex():
    # slow path: solve the barycentric system of every enumerated cell; the
    # locator's vertex set must be a cell that contains the belief, and its
    # nonzero weights the solved ones
    rng = np.random.default_rng(3)
    for d, K in ((2, 8), (3, 4), (4, 4), (5, 4)):
        grid = P.build_simplex_grid(d, K)
        cells = kuhn_simplices(grid)
        assert len(cells) == K ** (d - 1)  # top-dimensional cells of the Kuhn triangulation
        cell_of = {frozenset(c): k for k, c in enumerate(cells)}
        inverses = np.linalg.inv(grid.points[np.asarray(cells)].transpose(0, 2, 1))
        beliefs = np.vstack([rng.dirichlet(np.ones(d), size=200),
                             rng.dirichlet(np.full(d, 0.2), size=100),
                             _tie_heavy_beliefs(grid, rng, 200)])
        idx, w = grid.barycentric_batch(beliefs)
        for b, row, wr in zip(beliefs, idx, w):
            k = cell_of.get(frozenset(row.tolist()))
            assert k is not None, (d, K, b)
            lam = dict(zip(cells[k], inverses[k] @ b))
            assert min(lam.values()) >= -1e-12, (d, K, b)
            for v, wv in zip(row.tolist(), wr):
                if wv > 0.0:
                    assert abs(wv - lam[v]) <= 1e-12, (d, K, b)


@st.composite
def faces(draw):
    """A grid of dimension 2..5, a support on it (any size, adjacent or not)
    and a seed."""
    d = draw(st.integers(2, 5))
    K = draw(st.sampled_from([1, 2, 3, 4, 7, 8, 16]))
    support = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True))
    return P.build_simplex_grid(d, K), sorted(support), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=120, deadline=None)
@given(faces())
def test_face_locator_matches_the_full_locator(case):
    # a belief zero off the support, located on the face and mapped through
    # the table, gives the full locator's nonzero vertices and weights in
    # their order, bit for bit
    grid, support, seed = case
    face, to_grid = grid.face(support)
    rng = np.random.default_rng(seed)
    m = len(support)
    on_face = np.vstack([face.points, rng.dirichlet(np.ones(m), size=40),
                         rng.dirichlet(np.full(m, 0.2), size=20)]
                        + ([_tie_heavy_beliefs(face, rng, 60)] if m > 1 else []))
    full = np.zeros((on_face.shape[0], grid.dim))
    full[:, support] = on_face
    idx_f, w_f = face.barycentric_batch(on_face)
    idx, w = grid.barycentric_batch(full)
    assert np.array_equal((w_f > 0.0).sum(axis=1), (w > 0.0).sum(axis=1))
    assert np.array_equal(to_grid[idx_f][w_f > 0.0], idx[w > 0.0])
    assert np.array_equal(w_f[w_f > 0.0].view(np.uint64), w[w > 0.0].view(np.uint64))


def test_face_tables_and_cache():
    grid = P.build_simplex_grid(4, 5)
    assert "_faces" not in grid.__dict__  # nothing is built with the grid
    same, ident = grid.face([0, 1, 2, 3])
    assert same is grid and np.array_equal(ident, np.arange(grid.n_points))
    for support in ([0, 2], [1, 3], [0, 1, 3], [2]):
        face, to_grid = grid.face(support)
        assert face.dim == len(support) and face.subdivisions == 5
        embedded = np.zeros((face.n_points, 4))
        embedded[:, support] = face.points
        assert np.array_equal(grid.points[to_grid], embedded)
        assert grid.face(support)[0] is face
    for bad in ([], [1, 0], [2, 2], [4], [-1, 2]):
        with pytest.raises(ValueError, match="support"):
            grid.face(bad)


def test_codes_follow_point_order():
    for d, K in ((1, 5), (2, 7), (3, 40), (4, 6), (5, 4), (6, 3)):
        grid = P.build_simplex_grid(d, K)
        assert np.all(np.diff(grid._codes) > 0)
        comps = np.rint(grid.points * K).astype(np.int64)
        for i in np.linspace(0, grid.n_points - 1, 20).astype(int):
            assert grid.vertex_index(comps[i]) == i
        if d > 1:
            with pytest.raises(KeyError):
                grid.vertex_index(np.r_[K + 1, np.zeros(d - 2, dtype=np.int64), -1])


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
