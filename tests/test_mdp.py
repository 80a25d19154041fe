import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import popdmp as P
import popdmp.mdp as mdp_module
import popdmp.solver as solver_module
from popdmp.filtering import _DENOM_FLOOR
from popdmp.mdp import (_BLOCK_CELLS, _TIE_RTOL, _row_layout, _row_products, _smooth_tensor,
                        _tie_stable_min, _time_classes, transition_matrix)


def test_stage_quadrature_tail_bound(steering):
    q = P.StageQuadrature.for_model(steering)
    decay = steering.discount + steering.hazard_bounds[0]
    assert steering.cost_max * math.exp(-decay * q.t_max) / decay <= 1e-8
    ts, w = q.times_and_weights()
    assert ts.size % 2 == 1  # even panel count for composite Simpson
    assert w.sum() == pytest.approx(q.t_max, abs=1e-9)
    assert 9.5 < q.t_max < 11.0


def test_switching_family_layout(family):
    assert len(family) == 43
    assert family[0].pieces[0].actions == ((0.0,),) and family[0].breaks == ()
    # block of +1 switches with ascending switch times, then the -1 block
    assert family[1].pieces[0].actions == ((1.0,),) and family[1].breaks == (0.1,)
    assert family[20].breaks == (2.0,)
    assert family[21].pieces[0].actions == ((-1.0,),) and family[21].breaks == (0.1,)
    assert family[41].pieces[0].actions == ((1.0,),) and family[41].breaks == ()
    assert family[42].pieces[0].actions == ((-1.0,),) and family[42].breaks == ()


# ---------------------------------------------------------------------------
# stage costs


def test_stage_cost_zero_cost_path(steering, ctx):
    assert P.stage_cost_g(steering, 1, P.RelaxedControl.constant(0.0), ctx=ctx) == 0.0


def test_stage_cost_plateau_closed_form(steering, ctx):
    # drifting left from the left plateau keeps cost 10; integral of
    # 10 e^{-2t} is 5
    g = P.stage_cost_g(steering, 0, P.RelaxedControl.constant(-1.0), ctx=ctx)
    assert g == pytest.approx(5.0, abs=1e-6)


def test_stage_cost_respects_global_bound(steering, ctx, family):
    bound = steering.cost_max / (steering.discount + steering.hazard_bounds[0])
    for k in (0, 5, 21, 41, 42):
        for y in range(3):
            g = P.stage_cost_g(steering, y, family[k], ctx=ctx)
            assert -1e-12 <= g <= bound + 1e-9


def test_stage_cost_belief_examples(steering, ctx):
    r0 = P.RelaxedControl.constant(0.0)
    assert P.stage_cost_belief(steering, [1, 0, 0], r0, ctx=ctx) == pytest.approx(
        P.stage_cost_g(steering, 0, r0, ctx=ctx)
    )
    assert P.stage_cost_belief(steering, [1 / 3, 1 / 3, 1 / 3], r0, ctx=ctx) == pytest.approx(
        10.0 / 3.0, abs=1e-6
    )


def test_stage_cost_belief_is_affine(steering, ctx):
    r = P.RelaxedControl.from_pieces([(0.0, 1.0), (0.5, 0.0)])
    rho1 = np.array([0.7, 0.1, 0.2])
    rho2 = np.array([0.0, 0.6, 0.4])
    lhs = P.stage_cost_belief(steering, 0.5 * rho1 + 0.5 * rho2, r, ctx=ctx)
    rhs = 0.5 * P.stage_cost_belief(steering, rho1, r, ctx=ctx) + 0.5 * P.stage_cost_belief(
        steering, rho2, r, ctx=ctx
    )
    assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# the belief transition expectation


def test_expected_value_of_one_is_the_substochastic_mass(steering, ctx):
    grid = P.build_simplex_grid(3, 6)
    ones = P.ValueGrid.constant(grid, 1.0)
    for control in (P.RelaxedControl.constant(0.0), P.switch_control(1.0, 0.5)):
        ev = P.expected_next_value(steering, ones, [0.3, 0.4, 0.3], control, ctx=ctx)
        assert ev == pytest.approx(0.5, abs=1e-5)
        assert ev == pytest.approx(
            P.transition_mass(steering, [0.3, 0.4, 0.3], control, ctx=ctx), abs=1e-12
        )


def test_expected_value_of_zero_is_zero(steering, ctx):
    grid = P.build_simplex_grid(3, 6)
    zero = P.ValueGrid.constant(grid, 0.0)
    ev = P.expected_next_value(steering, zero, [0.2, 0.3, 0.5],
                               P.RelaxedControl.constant(1.0), ctx=ctx)
    assert ev == 0.0


def test_expected_value_from_an_absorbing_belief(steering, ctx):
    grid = P.build_simplex_grid(3, 8)
    values = np.random.default_rng(5).uniform(0.0, 10.0, grid.n_points)
    vg = P.ValueGrid(grid, values)
    ev = P.expected_next_value(steering, vg, [0, 1, 0], P.RelaxedControl.constant(0.0), ctx=ctx)
    stay_value = values[grid.vertex_index([0, 8, 0])]
    assert ev == pytest.approx(0.5 * stay_value, abs=1e-7 * (1 + stay_value))


def test_transition_mass_is_belief_independent_for_constant_hazard(steering, ctx):
    r = P.switch_control(-1.0, 0.7)
    rng = np.random.default_rng(6)
    masses = [P.transition_mass(steering, rng.dirichlet(np.ones(3)), r, ctx=ctx)
              for _ in range(5)]
    assert np.ptp(masses) < 1e-12


# ---------------------------------------------------------------------------
# L and T


def test_L_reduces_to_stage_cost_for_zero_values(steering, ctx):
    grid = P.build_simplex_grid(3, 6)
    zero = P.ValueGrid.constant(grid, 0.0)
    r = P.RelaxedControl.constant(-1.0)
    lv = P.L_operator(steering, zero, [0.5, 0.5, 0.0], r, ctx=ctx)
    assert lv == pytest.approx(P.stage_cost_belief(steering, [0.5, 0.5, 0.0], r, ctx=ctx))


def test_L_zero_at_the_absorbing_belief(steering, ctx):
    grid = P.build_simplex_grid(3, 6)
    zero = P.ValueGrid.constant(grid, 0.0)
    assert P.L_operator(steering, zero, [0, 1, 0], P.RelaxedControl.constant(0.0), ctx=ctx) == 0.0


def test_L_is_monotone_in_the_value_function(steering, ctx):
    grid = P.build_simplex_grid(3, 6)
    rng = np.random.default_rng(8)
    v = rng.uniform(0.0, 5.0, grid.n_points)
    w = v + rng.uniform(0.0, 3.0, grid.n_points)
    vg, wg = P.ValueGrid(grid, v), P.ValueGrid(grid, w)
    r = P.switch_control(1.0, 0.4)
    for _ in range(5):
        rho = rng.dirichlet(np.ones(3))
        assert P.L_operator(steering, vg, rho, r, ctx=ctx) <= P.L_operator(
            steering, wg, rho, r, ctx=ctx
        ) + 1e-12


def test_tie_rule_takes_the_lowest_index_within_a_few_ulp():
    eps = np.finfo(float).eps
    vals = np.array([[1.0 + 2 * eps, 10.0, 3.0],
                     [1.0, 10.0 - 20 * eps, 3.0 + 1e-9],
                     [1.0 + 9 * eps, 10.0 + 20 * eps, 3.0 - 1e-9]])
    best, k = _tie_stable_min(vals)
    assert best.tolist() == vals.min(axis=0).tolist()
    # within 4 eps * max(1, |min|) of the minimum the lowest index wins;
    # 9 eps at 1.0 and a 1e-9 gap are not ties
    assert k.tolist() == [0, 0, 2]
    assert _TIE_RTOL == 4 * eps


def test_T_singleton_family(steering, ctx):
    grid = P.build_simplex_grid(3, 6)
    vg = P.ValueGrid(grid, np.random.default_rng(9).uniform(0.0, 10.0, grid.n_points))
    fam1 = P.ControlFamily((P.RelaxedControl.constant(0.0),))
    val, k = P.T_operator(steering, vg, [0.5, 0.2, 0.3], fam1, ctx=ctx)
    assert k == 0
    assert val == pytest.approx(
        P.L_operator(steering, vg, [0.5, 0.2, 0.3], fam1[0], ctx=ctx)
    )


def test_T_picks_the_stay_control_at_the_absorbing_belief(steering, family, ctx, solved15):
    _, vg, _, _ = solved15
    val, k = P.T_operator(steering, vg, [0, 1, 0], family, ctx=ctx)
    assert k == 0
    assert val < 1e-6


def test_T_reproduces_the_single_switch_optimum(steering, family, ctx, solved15):
    _, vg, _, _ = solved15
    val, k = P.T_operator(steering, vg, [0.5, 0.3, 0.2], family, ctx=ctx)
    control = family[k]
    assert control.pieces[0].actions == ((1.0,),)
    assert 0.4 <= control.breaks[0] <= 0.6
    assert control.pieces[1].actions == ((0.0,),)


# ---------------------------------------------------------------------------
# contraction and monotonicity of the grid-restricted operator


def test_grid_bellman_contraction(steering, family, solved15):
    _, _, _, sweep = solved15
    q = steering.hazard_bounds[1] / (steering.discount + steering.hazard_bounds[0])
    rng = np.random.default_rng(10)
    n = sweep.grid.n_points
    for _ in range(4):
        v = rng.uniform(0.0, 10.0, n)
        w = rng.uniform(0.0, 10.0, n)
        tv, _ = sweep.bellman(v)
        tw, _ = sweep.bellman(w)
        assert np.abs(tv - tw).max() <= q * np.abs(v - w).max() + 1e-9


def test_grid_bellman_monotone(steering, family, solved15):
    _, _, _, sweep = solved15
    rng = np.random.default_rng(11)
    n = sweep.grid.n_points
    v = rng.uniform(0.0, 5.0, n)
    w = v + rng.uniform(0.0, 4.0, n)
    tv, _ = sweep.bellman(v)
    tw, _ = sweep.bellman(w)
    assert (tv <= tw + 1e-9).all()


def test_transition_matrices_have_substochastic_rows(solved15):
    _, _, _, sweep = solved15
    for k in (0, 7, 25, 42):
        rows = np.asarray(sweep.mats[k].sum(axis=1)).ravel()
        assert rows.max() <= 0.5 + 1e-6
        assert rows.min() >= 0.0


# ---------------------------------------------------------------------------
# regularization policy


def controlled_hazard_model():
    states = np.array([[-1.0], [1.0]])
    return P.PopdmpModel(
        post_jump_states=states,
        drift=P.velocity_flow(),
        hazard=lambda pts, a: np.full(pts.shape[0], 1.0 + 0.5 * abs(a[0])),
        hazard_bounds=(1.0, 1.5),
        jump_kernel=lambda pts, a: np.tile(np.array([0.5, 0.5]), (pts.shape[0], 1)),
        noise=P.NoiseModel(offsets=np.array([[0.0]]), weights=np.array([1.0])),
        cost_rate=lambda pts, a: np.abs(pts[:, 0]),
        cost_max=20.0,
        discount=1.0,
        initial_kernel=lambda x: np.array([0.5, 0.5]),
        action_box=np.array([[-1.0, 1.0]]),
        hazard_controlled=True,
    )


def test_an_undeclared_action_dependent_hazard_or_kernel_is_rejected():
    # the plain filter is exact only when neither depends on the action, so
    # hazard_controlled=False is checked at the sample actions, not trusted
    declared = controlled_hazard_model()
    with pytest.raises(P.ModelValidationError, match="hazard_controlled"):
        dataclasses.replace(declared, hazard_controlled=False)
    with pytest.raises(P.ModelValidationError, match="hazard_controlled"):
        dataclasses.replace(
            declared, hazard=lambda pts, a: np.ones(pts.shape[0]), hazard_bounds=(1.0, 1.0),
            jump_kernel=lambda pts, a: np.tile([0.5 + 0.25 * a[0], 0.5 - 0.25 * a[0]],
                                               (pts.shape[0], 1)),
            hazard_controlled=False)


def naive_expected_next_value(vg, rho, control, kernel, ctx):
    """Reference for the belief transition kernel: per-belief quadrature,
    one posterior per observation atom and kept time node, each looked up
    with on-the-fly barycentric interpolation of the value grid."""
    tb = ctx.tables(control)
    d_b = ctx.smoothed_dmat(control, kernel) if kernel is not None else tb.dmat
    un_w = np.einsum("i,iuj->uj", rho, tb.dmat)
    un_b = np.einsum("i,iuj->uj", rho, d_b)
    total = 0.0
    for wvec in ctx.obs_weights:
        wx = wvec @ un_w
        numer = wvec[:, None] * un_b
        denom = numer.sum(axis=0)
        keep = np.flatnonzero((wx > 0.0) & (denom > _DENOM_FLOOR))
        vals = P.interpolate_batch(vg, (numer[:, keep] / denom[keep]).T)
        total += float((tb.weights[keep] * wx[keep]) @ vals)
    return total


def test_direct_operator_matches_the_precomputed_sweep(steering, ctx):
    # the shared transition kernel (sweep rows, and the one-row point
    # operator) against an independent per-belief quadrature with
    # on-the-fly interpolation, plain and regularized, at grid points and
    # at off-grid beliefs
    grid = P.build_simplex_grid(3, 6)
    fam = P.ControlFamily((
        P.RelaxedControl.constant(0.0),
        P.switch_control(1.0, 0.5),
        P.switch_control(-1.0, 1.0),
        P.RelaxedControl.constant(1.0),
    ))
    values = np.random.default_rng(12).uniform(0.0, 10.0, grid.n_points)
    vg = P.ValueGrid(grid, values)
    off_grid = np.random.default_rng(13).dirichlet(np.ones(3), size=6)
    for kernel in (None, P.RegularizationKernel("gaussian", 0.1)):
        sweep = P.BellmanSweep(steering, grid, fam, kernel=kernel, ctx=ctx)
        for k, control in enumerate(fam):
            swept = sweep.mats[k] @ values
            for i in range(0, grid.n_points, 3):
                ref = naive_expected_next_value(vg, grid.points[i], control, kernel, ctx)
                assert swept[i] == pytest.approx(ref, abs=1e-11)
            for rho in np.vstack([grid.points[::4], off_grid]):
                ref = naive_expected_next_value(vg, rho, control, kernel, ctx)
                direct = P.expected_next_value(steering, vg, rho, control, kernel=kernel, ctx=ctx)
                assert direct == pytest.approx(ref, abs=1e-11)
        swept, _ = sweep.bellman(values)
        for i in range(0, grid.n_points, 5):
            direct, _ = P.T_operator(steering, vg, grid.points[i], fam, kernel=kernel, ctx=ctx)
            assert direct == pytest.approx(swept[i], abs=1e-9)


def reference_transition_matrix(ctx, control, kernel, grid, beliefs):
    """Uncompressed reference for ``transition_matrix``: one posterior per
    (belief, observation atom, stage time node), located on the grid and
    summed as COO triplets, with no grouping of the time nodes."""
    tb = ctx.tables(control)
    d_b = ctx.smoothed_dmat(control, kernel) if kernel is not None else tb.dmat
    un_w = np.einsum("pi,iuj->puj", beliefs, tb.dmat)
    un_b = np.einsum("pi,iuj->puj", beliefs, d_b)
    out = sp.csr_matrix((beliefs.shape[0], grid.n_points))
    for wvec in ctx.obs_weights:
        wx = np.einsum("u,puj->pj", wvec, un_w)
        numer = wvec[None, :, None] * un_b
        denom = numer.sum(axis=1)
        psel, jsel = np.nonzero((wx > 0.0) & (denom > _DENOM_FLOOR))
        posts = numer[psel, :, jsel] / denom[psel, jsel][:, None]
        idx, bw = grid.barycentric_batch(posts)
        vals = (tb.weights[jsel] * wx[psel, jsel])[:, None] * bw
        out = out + sp.coo_matrix((vals.ravel(), (np.repeat(psel, grid.dim), idx.ravel())),
                                  shape=out.shape).tocsr()
    return out


@st.composite
def table_models(draw, lattice_noise=False):
    d = draw(st.integers(2, 4 if lattice_noise else 3))
    if lattice_noise:
        # evenly spaced states and a run of offsets on the same lattice with
        # geometric weights: the end atoms see one state only, and shifting
        # an observation by one step scales its likelihood row by the ratio
        step = draw(st.sampled_from([1, 2]))
        start = draw(st.integers(-4, 0))
        states = [start + step * i for i in range(d)]
        first = draw(st.integers(-2, 0))
        n_off = draw(st.integers(2, 5))
        offsets = [0.5 * step * (first + j) for j in range(n_off)]
        ratio = draw(st.sampled_from([1.0, 0.5, 2.0, 3.0]))
        noise_weights = ratio ** np.arange(n_off)
        noise_weights = noise_weights / noise_weights.sum()
    else:
        states = sorted(draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d, unique=True)))
    cost_nodes = sorted(draw(st.lists(st.integers(-6, 6), min_size=2, max_size=4, unique=True)))
    kern_nodes = sorted(draw(st.lists(st.integers(-6, 6), min_size=2, max_size=3, unique=True)))
    # dyadic rows: where the flow rests on a plateau, every kernel slice is
    # then an exact scalar multiple of one matrix, bit for bit
    rows = {2: [(1.0, 0.0), (0.5, 0.5)],
            3: [(1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.5, 0.25, 0.25)],
            4: [(1.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0), (0.5, 0.25, 0.25, 0.0),
                (0.25, 0.25, 0.25, 0.25)]}[d]
    kernel_table = [(0.5 * y, *draw(st.permutations(draw(st.sampled_from(rows)))))
                    for y in kern_nodes]
    if draw(st.booleans()):
        hazard = draw(st.sampled_from([0.5, 1.0, 1.7]))
    else:
        hazard = [(-1.0, draw(st.floats(0.5, 2.0))), (1.0, draw(st.floats(0.5, 2.0)))]
    if not lattice_noise:
        offsets = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), min_size=1,
                                max_size=3, unique=True))
        noise_weights = np.full(len(offsets), 1.0 / len(offsets))
    return P.table_model(
        states=[0.5 * y for y in states],
        cost_table=[(0.5 * y, draw(st.floats(0.0, 5.0))) for y in cost_nodes],
        kernel_table=kernel_table,
        hazard=hazard,
        noise_offsets=offsets,
        noise_weights=noise_weights,
        discount=draw(st.floats(0.5, 2.0)),
    )


@settings(max_examples=60, deadline=None)
@given(table_models(), st.floats(-1.0, 1.0), st.floats(0.05, 2.0),
       st.floats(0.05, 0.3), st.integers(0, 2**32 - 1))
def test_time_classes_match_the_per_node_reference(model, action, tau, sigma, seed):
    # the compressed kernel against the uncompressed per-node sum, plain
    # and regularized, at grid points and random beliefs; with a constant
    # hazard the discount factor is the same for every state, so once the
    # flow rests on a kernel plateau the slices are exact multiples of each
    # other and the time classes must merge those nodes
    ctx = P.StageContext(model, P.StageQuadrature.for_model(model, h=0.05))
    grid = P.build_simplex_grid(model.n_states, 4)
    beliefs = np.vstack([grid.points,
                         np.random.default_rng(seed).dirichlet(np.ones(model.n_states), 5)])
    control = P.switch_control(action, tau)
    tb = ctx.tables(control)
    if model.hazard_bounds[0] == model.hazard_bounds[1]:
        assert _time_classes(tb)[2].size < tb.times.size // 2
    for kernel in (None, P.RegularizationKernel("gaussian", sigma)):
        got = transition_matrix(ctx, control, kernel, grid, beliefs)
        ref = reference_transition_matrix(ctx, control, kernel, grid, beliefs)
        assert abs(got - ref).max() <= 1e-13
        assert np.all(got.data != 0.0)


def located_rows(build):
    """Result of ``build()`` and the number of beliefs it passed to
    ``SimplexGrid.barycentric_batch``."""
    rows = []
    locate = P.SimplexGrid.barycentric_batch

    def counting(grid, probs):
        rows.append(len(probs))
        return locate(grid, probs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(P.SimplexGrid, "barycentric_batch", counting)
        out = build()
    return out, sum(rows)


def per_atom_posteriors(ctx, control, kernel, beliefs):
    """Per observation atom, the posteriors the kernel keeps on the time
    classes: (belief, time class) pairs that pass the mass and floor tests."""
    tb = ctx.tables(control)
    d_b = ctx.smoothed_dmat(control, kernel) if kernel is not None else None
    c_w, c_b, _ = _time_classes(tb, d_b)
    un_w = np.einsum("pi,iuc->puc", beliefs, c_w)
    un_b = np.einsum("pi,iuc->puc", beliefs, c_b)
    return np.array([np.count_nonzero((np.einsum("u,puc->pc", w, un_w) > 0.0)
                                      & (np.einsum("u,puc->pc", w, un_b) > _DENOM_FLOOR))
                     for w in ctx.obs_weights])


@settings(max_examples=40, deadline=None)
@given(table_models(lattice_noise=True), st.floats(-1.0, 1.0), st.floats(0.05, 2.0),
       st.floats(0.05, 0.3), st.integers(0, 2**32 - 1))
def test_single_support_atoms_match_the_per_atom_reference(model, action, tau, sigma, seed):
    # an atom seen from one state only is located once, as its vertex, the
    # others on their faces (up to three states of four), and the kernel
    # still equals the per-atom, per-node sum
    ctx = P.StageContext(model, P.StageQuadrature.for_model(model, h=0.05))
    single = (ctx.obs_weights > 0.0).sum(axis=1) == 1
    assert single.any()
    grid = P.build_simplex_grid(model.n_states, 4)
    beliefs = np.vstack([grid.points,
                         np.random.default_rng(seed).dirichlet(np.ones(model.n_states), 5)])
    control = P.switch_control(action, tau)
    for kernel in (None, P.RegularizationKernel("gaussian", sigma)):
        got, located = located_rows(lambda: transition_matrix(ctx, control, kernel, grid, beliefs))
        ref = reference_transition_matrix(ctx, control, kernel, grid, beliefs)
        assert abs(got - ref).max() <= 1e-13
        assert np.all(got.data != 0.0)
        posteriors = per_atom_posteriors(ctx, control, kernel, beliefs)
        assert located <= posteriors[~single].sum() + np.count_nonzero(single)


def bang5():
    """The five-candidate bang family of the benchmark: zero, switch(+-1, 0.5), +-1."""
    return P.ControlFamily((
        P.RelaxedControl.constant(0.0),
        P.switch_control(1.0, 0.5),
        P.switch_control(-1.0, 0.5),
        P.RelaxedControl.constant(1.0),
        P.RelaxedControl.constant(-1.0),
    ))


@pytest.mark.parametrize("kind,sigma,n,d", [
    ("gaussian", 0.03, 40, 3), ("epanechnikov", 0.05, 40, 2),
    ("gaussian", 0.2, 30, 3), ("epanechnikov", 0.5, 12, 2),  # windows wider than the grid
])
def test_smoothing_matches_the_per_node_window_sum(kind, sigma, n, d):
    # node t sums the Simpson-weighted kernel terms of its window; terms
    # before time zero are dropped and the tensor is zero past t_max
    step = 0.01
    kernel = P.RegularizationKernel(kind, sigma)
    dmat = np.random.default_rng(n + d).random((d, d, n))
    w = max(1, math.ceil(kernel.halfwidth / step))
    simpson = np.full(2 * w + 1, 2.0)
    simpson[1::2] = 4.0
    simpson[[0, -1]] = 1.0
    ref = np.zeros_like(dmat)
    for t in range(n):
        for j, m in enumerate(range(-w, w + 1)):
            if 0 <= t - m < n:
                ref[..., t] += simpson[j] * step / 3.0 * kernel.density(m * step) * dmat[..., t - m]
    got = _smooth_tensor(dmat, step, kernel)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref).max(axis=-1, keepdims=True))


def test_steering_time_class_counts(steering, ctx):
    # time classes per candidate of the benchmark family; a summation order
    # in the tables or the smoothing that splits classes shows here
    want = {None: [1, 52, 52, 154, 154], 0.2: [1, 153, 153, 503, 503],
            0.1: [1, 103, 103, 406, 406], 0.05: [1, 78, 78, 284, 284]}
    for sigma, counts in want.items():
        kernel = None if sigma is None else P.RegularizationKernel("gaussian", sigma)
        got = [_time_classes(ctx.tables(c), None if kernel is None
                             else ctx.smoothed_dmat(c, kernel))[2].size for c in bang5()]
        assert got == counts, sigma


def test_steering_single_support_atoms(steering, ctx):
    # offsets {-1, 0, 1} around states {-2, 0, 2}: x = -3, -2, 0, 2 and 3
    # are each seen from one state, so 5 of the 7 atoms are located as
    # vertices and the sweep locates well under half the per-atom posteriors
    atoms = ctx.obs_weights
    assert atoms.shape[0] == 7
    assert np.count_nonzero((atoms > 0.0).sum(axis=1) == 1) == 5
    family = bang5()
    grid = P.build_simplex_grid(3, 15)
    _, located = located_rows(lambda: P.BellmanSweep(steering, grid, family, ctx=ctx))
    per_atom = sum(per_atom_posteriors(ctx, c, None, grid.points).sum() for c in family)
    assert located <= 0.45 * per_atom


def test_compressed_argmins_match_the_uncompressed_reference_k15(steering, monkeypatch):
    # the sigma-sweep grid with the mirror pairs of the benchmark family:
    # with the tie rule, compressed and uncompressed builds pick the same
    # candidate everywhere, plain and regularized
    family = bang5()
    grid = P.build_simplex_grid(3, 15)
    ctx = P.StageContext(steering)
    kernels = [None] + [P.RegularizationKernel("gaussian", s) for s in (0.2, 0.1, 0.05)]
    solved = [P.value_iteration(steering, grid, family,
                                sweep=P.BellmanSweep(steering, grid, family, kernel=k, ctx=ctx))[0]
              for k in kernels]
    monkeypatch.setattr(solver_module, "transition_matrix", reference_transition_matrix)
    for kernel, vg in zip(kernels, solved):
        sweep = P.BellmanSweep(steering, grid, family, kernel=kernel, ctx=ctx)
        ref, _ = P.value_iteration(steering, grid, family, sweep=sweep)
        assert np.abs(ref.values - vg.values).max() <= 1e-12
        assert np.array_equal(ref.argmins, vg.argmins)


def test_compressed_argmins_match_the_uncompressed_reference_k40(steering, family, solved40,
                                                                 monkeypatch):
    # the acceptance grid and family, where the tie rule is what keeps the
    # mirror-image switches on the diagonal from flipping
    grid, vg, _, _, _ = solved40
    monkeypatch.setattr(solver_module, "transition_matrix", reference_transition_matrix)
    ref, _ = P.value_iteration(steering, grid, family, tol=1e-4)
    assert np.abs(ref.values - vg.values).max() <= 1e-12
    assert np.array_equal(ref.argmins, vg.argmins)


def test_controlled_hazard_requires_a_kernel():
    m = controlled_hazard_model()
    grid = P.build_simplex_grid(2, 4)
    vg = P.ValueGrid.constant(grid, 1.0)
    r = P.RelaxedControl.constant(1.0)
    with pytest.raises(ValueError):
        P.expected_next_value(m, vg, [0.5, 0.5], r)
    ev = P.expected_next_value(m, vg, [0.5, 0.5], r,
                               kernel=P.RegularizationKernel("gaussian", 0.1))
    assert 0.0 < ev < 1.0


# ---------------------------------------------------------------------------
# posteriors on their faces


def full_locator_transition_matrix(ctx, control, kernel, grid, beliefs):
    """``transition_matrix`` as it was before posteriors were located on
    their faces: every multi-state atom forms its posteriors over all d
    states and locates them with the full grid's locator, in one block of
    all rows.  Its products follow the kernel's per-row rule
    (``_row_products``), so the two agree bit for bit."""
    tb = ctx.tables(control)
    d_b = ctx.smoothed_dmat(control, kernel) if kernel is not None else None
    c_w, c_b, cw = _time_classes(tb, d_b)
    d, n_cls = c_w.shape[0], cw.size
    un_w = _row_products(beliefs, c_w.reshape(d, -1)).reshape(-1, d, n_cls)
    un_b = un_w if d_b is None else _row_products(beliefs, c_b.reshape(d, -1)).reshape(-1, d, n_cls)
    n_rows, n_cols = beliefs.shape[0], grid.n_points
    dense = np.zeros(n_rows * n_cols)
    for wvec in ctx.obs_weights:
        support = np.flatnonzero(wvec)
        if support.size == 1:
            u = support[0]
            wx = wvec[u] * un_w[:, u]
            keep = (wx > 0.0) & (wvec[u] * un_b[:, u] > _DENOM_FLOOR)
            psel = np.flatnonzero(keep.any(axis=1))
            pw = _row_products(np.where(keep[psel], wx[psel], 0.0), cw[:, None])[:, 0]
            posts = np.eye(1, wvec.size, u)
        else:
            wx = np.einsum("u,puc->pc", wvec, un_w)
            numer = wvec[None, :, None] * un_b
            denom = numer.sum(axis=1)
            psel, csel = np.nonzero((wx > 0.0) & (denom > _DENOM_FLOOR))
            pw = cw[csel] * wx[psel, csel]
            posts = numer[psel, :, csel] / denom[psel, csel][:, None]
        if psel.size == 0:
            continue
        idx, bw = grid.barycentric_batch(posts)
        np.add.at(dense, (psel[:, None] * n_cols + idx).ravel(), (pw[:, None] * bw).ravel())
    return sp.csr_matrix(dense.reshape(n_rows, n_cols))


def four_state_model():
    """States -3, -1, 1, 3 and offsets -2, 0, 2: its six atoms are seen
    from 1, 2, 3, 3, 2 and 1 states."""
    return P.table_model(
        states=[-3.0, -1.0, 1.0, 3.0],
        cost_table=[(-3.0, 4.0), (0.0, 0.0), (3.0, 4.0)],
        kernel_table=[(-3.0, 0.5, 0.5, 0.0, 0.0), (0.0, 0.25, 0.25, 0.25, 0.25),
                      (3.0, 0.0, 0.0, 0.5, 0.5)],
        hazard=1.0, noise_offsets=[-2.0, 0.0, 2.0], noise_weights=[0.25, 0.5, 0.25])


def split_support_model():
    """States -2, 0, 2 and offsets -2, 2: x = 0 is seen from states 0 and 2
    only, a face of non-adjacent states."""
    return P.table_model(
        states=[-2.0, 0.0, 2.0],
        cost_table=[(-2.0, 3.0), (2.0, 1.0)],
        kernel_table=[(-2.0, 0.5, 0.25, 0.25), (2.0, 0.25, 0.25, 0.5)],
        hazard=[(-1.0, 0.7), (1.0, 1.6)], noise_offsets=[-2.0, 2.0], noise_weights=[0.5, 0.5])


def assert_same_matrix(a, b):
    """``a`` and ``b`` are the same CSR matrix field by field, bit for bit,
    and store no explicit zeros."""
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64))
    assert np.all(a.data != 0.0)


def assert_same_sweeps(got, ref):
    assert np.array_equal(got.gmat.view(np.uint64), ref.gmat.view(np.uint64))
    for a, b in zip(got.mats, ref.mats, strict=True):
        assert_same_matrix(a, b)


@pytest.mark.parametrize("case", ["steering-k40", "steering-k15", "four-state", "split-support"])
def test_face_kernel_matches_the_full_locator_bit_for_bit(case, steering, monkeypatch):
    if case.startswith("steering"):
        model, family = steering, bang5()
        k, sigmas = (40, (None,)) if case == "steering-k40" else (15, (None, 0.2, 0.1, 0.05))
    else:
        model = four_state_model() if case == "four-state" else split_support_model()
        family, k, sigmas = P.switching_family(taus=[0.5]), 8, (None, 0.1)
    supports = (P.StageContext(model).obs_weights > 0.0).sum(axis=1)
    if case == "four-state":
        assert supports.tolist() == [1, 2, 3, 3, 2, 1]
    if case == "split-support":
        assert (P.StageContext(model).obs_weights[:, [0, 2]] > 0.0).all(axis=1).any()
    grid = P.build_simplex_grid(model.n_states, k)
    ctx = P.StageContext(model)
    kernels = [None if s is None else P.RegularizationKernel("gaussian", s) for s in sigmas]
    got = [P.BellmanSweep(model, grid, family, kernel=kern, ctx=ctx) for kern in kernels]
    monkeypatch.setattr(solver_module, "transition_matrix", full_locator_transition_matrix)
    for sweep, kern in zip(got, kernels):
        assert_same_sweeps(sweep, P.BellmanSweep(model, grid, family, kernel=kern, ctx=ctx))


class _CountingNumpy:
    """numpy, with ``np.add.at`` noting the entries it adds in the last
    record of ``records`` unless that has them already: each location is
    followed by the add of its posteriors, while a single-state atom, whose
    vertex is located once per build, adds after other atoms' locations."""

    def __init__(self, records):
        self.add = SimpleNamespace(at=self._at)
        self._records = records

    def _at(self, a, indices, values):
        self._records[-1].setdefault("entries", np.size(indices))
        np.add.at(a, indices, values)

    def __getattr__(self, name):
        return getattr(np, name)


def test_two_state_posteriors_add_a_third_fewer_entries(steering, ctx, monkeypatch):
    # at K=40 every two-state posterior adds its two vertices, where the
    # full locator added d = 3, one of them with weight exactly 0
    records = []
    locate = P.SimplexGrid.barycentric_batch

    def recording(grid, probs):
        records.append({"rows": len(probs), "states": np.count_nonzero(probs.any(axis=0))})
        return locate(grid, probs)

    monkeypatch.setattr(P.SimplexGrid, "barycentric_batch", recording)
    monkeypatch.setattr(mdp_module, "np", _CountingNumpy(records))
    # one runner: concurrent candidate builds would interleave the records
    monkeypatch.setattr(solver_module, "_usable_cores", lambda: 1)
    grid = P.build_simplex_grid(3, 40)
    family = bang5()
    P.BellmanSweep(steering, grid, family, ctx=ctx)
    two = [r for r in records if r["states"] == 2]
    two_atoms = (ctx.obs_weights > 0.0).sum(axis=1) == 2
    rows = sum(r["rows"] for r in two)
    assert rows == sum(per_atom_posteriors(ctx, c, None, grid.points)[two_atoms].sum()
                       for c in family) > 0
    assert 3 * sum(r["entries"] for r in two) == 2 * (grid.dim * rows)


# ---------------------------------------------------------------------------
# row blocks


def assert_rows_alone(rows, mat):
    """``_row_products(rows, mat)`` is, row by row, ``rows[p] @ mat``
    computed for that row alone, bit for bit."""
    got = _row_products(rows, mat)
    ref = np.array([row @ mat for row in rows])
    assert got.shape == ref.shape
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("case", ["steering-k40", "four-state-k8"])
def test_row_products_are_each_row_alone_bit_for_bit(case, steering):
    # the grid's points against every candidate's class tensors, plain and
    # regularized, and one state's masses against the class weights: the
    # three products of the kernel
    if case == "steering-k40":
        model, k, family = steering, 40, bang5()
    else:
        model, k, family = four_state_model(), 8, P.switching_family(taus=[0.5])
    grid = P.build_simplex_grid(model.n_states, k)
    ctx = P.StageContext(model)
    for control in family:
        for kernel in (None, P.RegularizationKernel("gaussian", 0.1)):
            d_b = None if kernel is None else ctx.smoothed_dmat(control, kernel)
            c_w, c_b, cw = _time_classes(ctx.tables(control), d_b)
            d = c_w.shape[0]
            assert_rows_alone(grid.points, c_w.reshape(d, -1))
            assert_rows_alone(grid.points, c_b.reshape(d, -1))
            masses = _row_products(grid.points, c_w.reshape(d, -1)).reshape(-1, d, cw.size)[:, 0]
            assert_rows_alone(masses, cw[:, None])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(1, 40), st.integers(1, 600), st.integers(0, 2**32 - 1))
def test_row_products_of_any_shape_are_each_row_alone(d, n_rows, n_cols, seed):
    # beliefs against a tensor of mixed magnitudes, and masses against one
    # column, for all rows and for the first row alone
    gen = np.random.default_rng(seed)
    beliefs = gen.dirichlet(np.ones(d), n_rows)
    mat = gen.random((d, n_cols)) * 10.0 ** gen.integers(-3, 4, (d, n_cols))
    masses, weights = gen.random((n_rows, n_cols)), gen.random((n_cols, 1))
    for rows in (n_rows, 1):
        assert_rows_alone(beliefs[:rows], mat)
        assert_rows_alone(masses[:rows], weights)


@pytest.mark.parametrize("case", ["steering", "steering-0.2", "four-state"])
def test_row_blocks_match_the_single_block_build(case, steering, monkeypatch):
    # blocks and chunks of 1 row and of 7 rows, chunks of four blocks (7, 7,
    # 7 and 3 rows) and one block of all rows, bit for bit, and the blocked
    # build against the per-node reference; the four-state model's atoms
    # span faces of 1, 2 and 3 states
    model = four_state_model() if case == "four-state" else steering
    kernel = P.RegularizationKernel("gaussian", 0.2) if case == "steering-0.2" else None
    grid = P.build_simplex_grid(model.n_states, 6 if case == "four-state" else 12)
    ctx = P.StageContext(model)
    n_rows = grid.n_points  # 91 or 84: the chunks of 24 rows end in a short block
    layouts = [(1, 1), (7, 7), (7, 24), (n_rows, n_rows)]  # (block rows, chunk rows)
    family = bang5() if model is steering else P.switching_family(taus=[0.5])
    built, used = {}, []
    for layout in layouts:
        monkeypatch.setattr(mdp_module, "_row_layout",
                            lambda *sizes, layout=layout: used.append(layout) or layout)
        for control in family:
            built.setdefault(control, []).append(
                transition_matrix(ctx, control, kernel, grid, grid.points))
    assert used == [layout for layout in layouts for _ in family]
    for control, (one, seven, chunked, whole) in built.items():
        assert_same_matrix(one, whole)
        assert_same_matrix(seven, whole)
        assert_same_matrix(chunked, whole)
        ref = reference_transition_matrix(ctx, control, kernel, grid, grid.points)
        assert abs(one - ref).max() <= 1e-13


@pytest.mark.parametrize("n_cols,chunk_cells,block_cells", [
    (861, 3 * 154, 12 * 154),       # steering K=40, a +-1 constant
    (136, 6 * 503, 12 * 503),       # steering K=15, sigma 0.2: two products
    (13041, 3 * 154, 12 * 154),     # steering K=160: blocks of 10 rows
    (2**18, 2**18, 2**18),          # wider than a buffer: one row each
])
def test_row_layout_fills_each_buffer_with_whole_rows(n_cols, chunk_cells, block_cells):
    # a block takes the most rows whose dense buffer and posterior work fit
    # in _BLOCK_CELLS each, a chunk the most whole blocks whose products do;
    # each takes one at least
    block, chunk = _row_layout(n_cols, chunk_cells, block_cells)
    widest = max(n_cols, block_cells)
    assert block == max(1, _BLOCK_CELLS // widest)
    assert chunk % block == 0
    assert chunk == block or chunk * chunk_cells <= _BLOCK_CELLS < (chunk + block) * chunk_cells


def build_peaks(ctx, control, kernel, grid):
    """Tracemalloc peak, in MiB, of one ``transition_matrix`` call over the
    grid's points, and the part of it above the matrix the call returns.
    The stage tables and the grid's faces are built beforehand."""
    transition_matrix(ctx, control, kernel, grid, grid.points)
    tracemalloc.start()
    try:
        out = transition_matrix(ctx, control, kernel, grid, grid.points)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (grid.n_points, grid.n_points)
    return peak / 2**20, (peak - held) / 2**20


@pytest.mark.parametrize("k,sigma", [(40, None), (15, 0.2)])
def test_a_build_holds_a_few_buffers_whatever_its_time_classes(k, sigma, steering):
    # the +1 constant has the most time classes (154 plain, 503 at sigma
    # 0.2); products over all rows at once peaked at 10.1 and 14.5 MiB
    kernel = None if sigma is None else P.RegularizationKernel("gaussian", sigma)
    peak, _ = build_peaks(P.StageContext(steering), P.RelaxedControl.constant(1.0), kernel,
                          P.build_simplex_grid(3, k))
    assert peak <= 5.0


def test_a_build_working_set_does_not_grow_with_the_grid(steering):
    # K=80 has 3.9 times the rows of K=40 and 7.5 times the stored entries;
    # beyond the matrix it returns, a build holds its chunk, block and
    # buffer, and the parts of the matrix while they are joined
    ctx, plus = P.StageContext(steering), P.RelaxedControl.constant(1.0)
    _, k40 = build_peaks(ctx, plus, None, P.build_simplex_grid(3, 40))
    _, k80 = build_peaks(ctx, plus, None, P.build_simplex_grid(3, 80))
    assert k80 <= 1.25 * k40
