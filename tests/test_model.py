import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import popdmp as P
from popdmp.model import ControlPath, _index_groups, _simpson_nodes


def toy_model(b=None, hazard=None, hazard_bounds=(1.0, 1.0), cost=None, cost_max=0.0,
              hazard_controlled=False, states=(0.0,), box=(-1.0, 1.0), discount=1.0,
              drift=None):
    """Minimal one-dimensional model around a custom drift or hazard."""
    states_arr = np.asarray(states, dtype=float).reshape(-1, 1)
    d = states_arr.shape[0]
    if drift is None:
        drift = P.VectorField(b=b if b is not None else (lambda y, a: np.zeros_like(y)))
    hz = hazard if hazard is not None else (lambda pts, a: np.ones(pts.shape[0]))
    cst = cost if cost is not None else (lambda pts, a: np.zeros(pts.shape[0]))
    return P.PopdmpModel(
        post_jump_states=states_arr,
        drift=drift,
        hazard=hz,
        hazard_bounds=hazard_bounds,
        jump_kernel=lambda pts, a: np.tile(np.eye(d)[0], (pts.shape[0], 1)),
        noise=P.NoiseModel(offsets=np.zeros((1, 1)), weights=np.array([1.0])),
        cost_rate=cst,
        cost_max=cost_max,
        discount=discount,
        initial_kernel=lambda x: np.eye(d)[0],
        action_box=np.asarray(box, dtype=float).reshape(-1, 2),
        hazard_controlled=hazard_controlled,
    )


# ---------------------------------------------------------------------------
# mixtures and controls


def test_mixture_validation():
    with pytest.raises(ValueError):
        P.ActionMixture(actions=((1.0,),), weights=(0.5,))
    with pytest.raises(ValueError):
        P.ActionMixture(actions=((1.0,), (0.0,)), weights=(0.7, 0.2))
    m = P.ActionMixture.of([(0.0, 0.5), (2.0, 0.5)])
    assert m.mean_action() == pytest.approx([1.0])


def test_control_validation_and_lookup():
    with pytest.raises(ValueError):
        P.RelaxedControl(pieces=(P.ActionMixture.dirac(0.0),), breaks=(1.0,))
    with pytest.raises(ValueError):
        P.RelaxedControl.from_pieces([(0.0, 1.0), (2.0, 0.0), (1.0, 1.0)])
    r = P.RelaxedControl.from_pieces([(0.0, 1.0), (0.5, 0.0)])
    assert r.mixture_at(0.0).actions == ((1.0,),)
    assert r.mixture_at(0.4999).actions == ((1.0,),)
    # pieces are right-continuous: the new piece applies at its breakpoint
    assert r.mixture_at(0.5).actions == ((0.0,),)
    assert r.mixture_at(100.0).actions == ((0.0,),)


def test_mixture_velocity_examples():
    field = P.VectorField(b=lambda y, a: np.broadcast_to(a, y.shape).astype(float))
    v = P.mixture_velocity(field, [0.0], P.ActionMixture.dirac(1.0))
    assert v == pytest.approx([1.0])

    zero = P.VectorField(b=lambda y, a: np.zeros_like(y))
    assert P.mixture_velocity(zero, [3.0], P.ActionMixture.dirac(0.7)) == pytest.approx([0.0])

    scale = P.VectorField(b=lambda y, a: a[0] * y)
    mix = P.ActionMixture.of([(0.0, 0.5), (2.0, 0.5)])
    # 0.5 * 0 + 0.5 * (2 * 3) = 3, by hand
    assert P.mixture_velocity(scale, [3.0], mix) == pytest.approx([3.0])


# ---------------------------------------------------------------------------
# flow


def test_flow_unit_speed(steering):
    r = P.RelaxedControl.constant(1.0)
    assert P.flow(steering, [0.0], r, 0.5) == pytest.approx([0.5])
    assert P.flow(steering, [-2.0], r, 0.0) == pytest.approx([-2.0])


def test_flow_exponential_vs_closed_form():
    m = toy_model(b=lambda y, a: a[0] * y, box=(-1.0, 1.0))
    r = P.RelaxedControl.constant(1.0)
    out = P.flow(m, [1.0], r, 1.0)
    assert abs(out[0] - math.e) < 1e-6


def test_flow_initial_condition_is_exact():
    m = toy_model(b=lambda y, a: a[0] * y)
    for y in (-1.3, 0.0, 2.7):
        assert P.flow(m, [y], P.RelaxedControl.constant(0.5), 0.0)[0] == y


def test_flow_matches_closed_form_drift(steering):
    m_field = toy_model(drift=P.velocity_field())
    r = P.RelaxedControl.from_pieces([(0.0, 1.0), (0.3, -0.5), (0.9, 0.25)])
    ts = np.linspace(0.0, 2.0, 21)
    closed = P.flow_path(steering, [0.5], r, ts)
    rk4 = P.flow_path(m_field, [0.5], r, ts)
    assert np.abs(closed - rk4).max() < 1e-9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_flow_divergence_is_an_error():
    m = toy_model(b=lambda y, a: y * y)
    with pytest.raises(P.IntegrationDivergedError):
        P.flow(m, [2.0], P.RelaxedControl.constant(0.0), 1.0)


def test_flow_semigroup_for_constant_controls():
    m = toy_model(b=lambda y, a: a[0] * np.sin(y) + 0.1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        y = rng.uniform(-2, 2)
        a = rng.uniform(-1, 1)
        s, t = rng.uniform(0.05, 1.0, size=2)
        r = P.RelaxedControl.constant(a)
        direct = P.flow(m, [y], r, t + s)
        chained = P.flow(m, P.flow(m, [y], r, s), r, t)
        assert np.abs(direct - chained).max() < 1e-8


def test_flow_is_continuous_in_time():
    m = toy_model(b=lambda y, a: np.broadcast_to(a, y.shape).astype(float))
    r = P.RelaxedControl.constant(1.0)
    ts = np.arange(0.0, 1.0, 1e-3)
    path = P.flow_path(m, [0.0], r, ts)[:, 0]
    assert np.abs(np.diff(path)).max() <= 1.01e-3


def test_actions_outside_box_are_rejected(steering):
    bad = P.RelaxedControl.constant(1.5)
    with pytest.raises(P.InvalidControlError):
        P.flow(steering, [0.0], bad, 1.0)
    with pytest.raises(P.InvalidControlError):
        P.big_lambda(steering, [0.0], bad, 1.0)


def test_non_finite_actions_and_times_are_rejected(steering):
    for a in (np.nan, np.inf):
        with pytest.raises(P.InvalidControlError, match="not finite"):
            steering.check_control(P.RelaxedControl.constant(a))
    r = P.RelaxedControl.constant(0.5)
    for ts in ([0.5, np.inf], [np.nan]):
        with pytest.raises(ValueError, match="finite"):
            P.lambda_path(steering, [0.0], r, ts)
    with pytest.raises(ValueError, match="finite"):
        P.update(steering, [1 / 3] * 3, r, np.inf, 0.0)


# ---------------------------------------------------------------------------
# hazard integrals


def test_big_lambda_constant_hazard(steering):
    r = P.RelaxedControl.constant(0.3)
    assert P.big_lambda(steering, [0.0], r, 2.0) == pytest.approx(2.0, abs=1e-10)
    assert P.big_lambda(steering, [0.0], r, 0.0) == 0.0


def test_big_lambda_action_dependent_hazard():
    m = toy_model(
        hazard=lambda pts, a: np.full(pts.shape[0], 1.0 + abs(a[0])),
        hazard_bounds=(1.0, 2.0),
        hazard_controlled=True,
    )
    val = P.big_lambda(m, [0.0], P.RelaxedControl.constant(1.0), 1.0)
    assert val == pytest.approx(2.0, abs=1e-10)


def test_big_lambda_monotone_and_bounded():
    m = toy_model(
        hazard=lambda pts, a: 1.5 + 0.5 * np.sin(pts[:, 0]),
        hazard_bounds=(1.0, 2.0),
        b=lambda y, a: np.broadcast_to(a, y.shape).astype(float),
    )
    r = P.RelaxedControl.from_pieces([(0.0, 1.0), (0.7, -1.0)])
    ts = np.linspace(0.0, 3.0, 13)
    vals = [P.big_lambda(m, [0.0], r, t) for t in ts]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    for t, v in zip(ts, vals):
        assert 1.0 * t - 1e-9 <= v <= 2.0 * t + 1e-9


def test_lambda_path_consistent_with_big_lambda():
    m = toy_model(
        hazard=lambda pts, a: 1.5 + 0.4 * np.cos(pts[:, 0]),
        hazard_bounds=(1.0, 2.0),
        b=lambda y, a: np.broadcast_to(a, y.shape).astype(float),
    )
    r = P.RelaxedControl.from_pieces([(0.0, 0.8), (0.5, -0.2)])
    ts = np.array([0.0, 0.3, 0.5, 1.1, 2.0])
    path = P.lambda_path(m, [0.2], r, ts)
    for t, v in zip(ts, path):
        assert v == pytest.approx(P.big_lambda(m, [0.2], r, t), abs=1e-9)


def test_gamma_examples(steering):
    r = P.RelaxedControl.constant(0.0)
    assert P.gamma(steering, [0.0], r, 1.0) == pytest.approx(2.0, abs=1e-10)
    assert P.gamma(steering, [0.0], r, 0.0) == 0.0
    m = toy_model(hazard=lambda pts, a: np.full(pts.shape[0], 3.0),
                  hazard_bounds=(3.0, 3.0), discount=2.0)
    assert P.gamma(m, [0.0], P.RelaxedControl.constant(0.0), 0.5) == pytest.approx(2.5, abs=1e-12)


def test_gamma_is_exactly_discount_plus_lambda(steering):
    r = P.RelaxedControl.from_pieces([(0.0, 1.0), (0.4, 0.0)])
    for t in (0.25, 1.0, 3.5):
        lam = P.big_lambda(steering, [-2.0], r, t)
        assert P.gamma(steering, [-2.0], r, t) == steering.discount * t + lam


def test_simpson_nodes_tag_breakpoint_sides():
    r = P.RelaxedControl.from_pieces([(0.0, 1.0), (0.5, 0.0)])
    nodes, weights, pieces, _ = _simpson_nodes(r, [0.0, 0.5, 1.0], 0.25)
    at_break = np.flatnonzero(nodes == 0.5)
    assert len(at_break) == 2
    assert sorted(pieces[at_break]) == [0, 1]
    assert weights.sum() == pytest.approx(1.0)


def controlled_model():
    """Three states; hazard, kernel and cost all depend on position and action."""
    states = np.array([-1.0, 0.0, 1.0])

    def kernel(pts, a):
        z = np.exp(-(pts[:, :1] - states[None, :]) ** 2 * (1.0 + a[0] ** 2))
        return z / z.sum(axis=1, keepdims=True)

    return P.PopdmpModel(
        post_jump_states=states.reshape(-1, 1),
        drift=P.velocity_flow(),
        hazard=lambda pts, a: 1.0 + 0.2 * np.sin(pts[:, 0]) ** 2 + 0.25 * abs(a[0]),
        hazard_bounds=(1.0, 1.5),
        jump_kernel=kernel,
        noise=P.NoiseModel(offsets=np.zeros((1, 1)), weights=np.array([1.0])),
        cost_rate=lambda pts, a: (1.0 + 0.5 * a[0]) * pts[:, 0] ** 2 / (1.0 + pts[:, 0] ** 2),
        cost_max=1.5,
        discount=1.0,
        initial_kernel=lambda x: np.full(3, 1.0 / 3.0),
        action_box=np.array([[-1.0, 1.0]]),
        hazard_controlled=True,
    )


@st.composite
def mixture_controls(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    breaks = sorted(draw(st.lists(st.floats(min_value=0.05, max_value=2.5), min_size=n - 1,
                                  max_size=n - 1, unique=True)))
    pieces = []
    for _ in range(n):
        pairs = draw(st.lists(st.tuples(st.floats(min_value=-1.0, max_value=1.0),
                                        st.floats(min_value=0.05, max_value=1.0)),
                              min_size=1, max_size=3))
        total = sum(w for _, w in pairs)
        pieces.append(P.ActionMixture.of([(a, w / total) for a, w in pairs]))
    return P.RelaxedControl(pieces=tuple(pieces), breaks=tuple(breaks))


@settings(max_examples=40, deadline=None)
@given(mixture_controls())
def test_control_path_matches_a_per_point_mixture_loop(control):
    m = controlled_model()
    ts = np.unique(np.concatenate([np.linspace(0.0, 3.0, 31), control.breaks]))
    assert control.piece_index_at(ts).tolist() == [bisect.bisect_right(control.breaks, t)
                                                   for t in ts]
    path = ControlPath.from_post_jump_states(m, control, ts)
    lam = np.zeros((3, ts.size))
    cost = np.zeros((3, ts.size))
    rows = np.zeros((3, ts.size, 3))
    for i, y in enumerate(m.post_jump_states):
        pos = P.flow_path(m, y, control, ts)
        for k, t in enumerate(ts):
            mix = control.mixture_at(t)
            for a, w in zip(mix.actions, mix.weights):
                av = np.asarray(a)
                h = m.hazard(pos[k:k + 1], av)[0]
                lam[i, k] += w * h
                cost[i, k] += w * m.cost_rate(pos[k:k + 1], av)[0]
                rows[i, k] += w * h * m.jump_kernel(pos[k:k + 1], av)[0]
    assert np.abs(path.hazard - lam).max() <= 1e-13
    assert np.abs(path.cost - cost).max() <= 1e-13
    assert np.abs(path.kernel_rows - rows).max() <= 1e-13
    # the same points laid out time-major, pieces broadcast along the states
    swapped = ControlPath(m, control, path.points.transpose(1, 0, 2),
                          control.piece_index_at(ts)[:, None])
    assert np.array_equal(swapped.hazard, path.hazard.T)
    assert np.array_equal(swapped.kernel_rows, path.kernel_rows.transpose(1, 0, 2))


@given(st.lists(st.integers(0, 4), max_size=40))
def test_index_groups_match_np_unique(ids):
    ids = np.array(ids, dtype=np.int64)
    got = _index_groups(ids)
    assert [v for v, _ in got] == np.unique(ids).tolist()
    for v, rows in got:
        assert np.array_equal(rows, np.flatnonzero(ids == v))


# ---------------------------------------------------------------------------
# model validation


def test_kernel_rows_must_sum_to_one():
    with pytest.raises(P.ModelValidationError):
        P.table_model(
            states=[-1.0, 1.0],
            cost_table=[(-1.0, 0.0), (1.0, 0.0)],
            kernel_table=[(-1.0, 0.5, 0.4), (1.0, 0.5, 0.5)],
            hazard=1.0,
            noise_offsets=[0.0],
            noise_weights=[1.0],
        )


def test_hazard_must_stay_in_declared_bounds():
    with pytest.raises(P.ModelValidationError):
        toy_model(hazard=lambda pts, a: np.full(pts.shape[0], 3.0), hazard_bounds=(1.0, 2.0))


def test_noise_model_validation():
    with pytest.raises(P.ModelValidationError):
        P.NoiseModel(offsets=np.array([[0.0], [0.0]]), weights=np.array([0.5, 0.5]))
    with pytest.raises(P.ModelValidationError):
        P.NoiseModel(offsets=np.array([[0.0], [1.0]]), weights=np.array([0.5, 0.4]))
    for tol in (0.0, -1e-9, float("nan")):
        with pytest.raises(P.ModelValidationError, match="match_tol"):
            P.NoiseModel(offsets=np.array([[0.0]]), weights=np.array([1.0]), match_tol=tol)
    nm = P.NoiseModel(offsets=np.array([[-1.0], [0.0], [1.0]]), weights=np.full(3, 1 / 3))
    assert nm.density_at([1.0]) == pytest.approx(1 / 3)
    assert nm.density_at([0.5]) == 0.0


def test_noise_density_matches_the_scalar_rule():
    # the vectorized rule against a per-delta density_at loop and a naive
    # reading of the documented rule: the first offset within
    # match_tol * (1 + max|delta|) in every coordinate
    rng = np.random.default_rng(8)
    nm = P.NoiseModel(offsets=rng.uniform(-3.0, 3.0, (5, 2)), weights=rng.dirichlet(np.ones(5)),
                      match_tol=1e-9)
    off = nm.offsets[rng.integers(0, 5, 120)]
    tol = nm.match_tol * (1.0 + np.abs(off).max(axis=1, keepdims=True))
    ulps = rng.integers(-4, 5, off.shape)
    deltas = np.stack([
        off,
        off + ulps * np.spacing(off),
        off + rng.choice([-3.0, 3.0], off.shape) * tol,
        off + np.where(rng.random(off.shape) < 0.5, 3.0, 0.0) * tol,
        rng.uniform(-3.0, 3.0, off.shape),
    ])  # (5, 120, 2)

    def naive(delta):
        t = nm.match_tol * (1.0 + max(abs(v) for v in delta))
        for o, w in zip(nm.offsets, nm.weights):
            if all(abs(a - b) <= t for a, b in zip(delta, o)):
                return w
        return 0.0

    got = nm.density(deltas)
    assert got.shape == deltas.shape[:-1]
    loop = np.array([[nm.density_at(dl) for dl in row] for row in deltas])
    ref = np.array([[naive(dl) for dl in row] for row in deltas])
    assert np.array_equal(got, loop) and np.array_equal(got, ref)
    assert np.all(got[:2] > 0.0) and np.all(got[2] == 0.0)
    # offsets closer than the tolerance: the first one wins
    close = P.NoiseModel(offsets=np.array([[0.0], [1e-10]]), weights=np.array([0.3, 0.7]))
    assert close.density(np.array([[0.0], [1e-10], [0.5]])).tolist() == [0.3, 0.3, 0.0]


def test_distinct_states_required():
    with pytest.raises(P.ModelValidationError):
        toy_model(states=(0.0, 0.0))


# ---------------------------------------------------------------------------
# policy correspondence


def test_roundtrip_constant_policy():
    pol = P.PiecewisePolicy(lambda summary, t: P.ActionMixture.dirac(1.0))
    probes = np.linspace(0.0, 3.0, 31)
    control, back = P.correspondence_roundtrip(pol, None, probes)
    assert control.breaks == ()
    for t in probes:
        assert back.mixture(None, t) == pol.mixture(None, t)


def test_roundtrip_single_switch_policy():
    def rule(summary, t):
        return P.ActionMixture.dirac(1.0 if t <= 0.5 else 0.0)

    pol = P.PiecewisePolicy(rule)
    probes = np.linspace(0.0, 2.0, 41)
    control, back = P.correspondence_roundtrip(pol, None, probes)
    for t in probes:
        assert back.mixture(None, t) == pol.mixture(None, t)


def test_roundtrip_random_three_piece_control():
    rng = np.random.default_rng(4)
    breaks = np.sort(rng.uniform(0.2, 1.8, size=2))
    mixes = [P.ActionMixture.dirac(rng.uniform(-1, 1)) for _ in range(3)]
    source = P.RelaxedControl(pieces=tuple(mixes), breaks=tuple(breaks))
    pol = P.PiecewisePolicy(lambda summary, t: source.mixture_at(t))
    probes = np.unique(np.concatenate([np.linspace(0, 2.5, 26), breaks]))
    control, back = P.correspondence_roundtrip(pol, None, probes)
    assert control.pieces == source.pieces
    for t in probes:
        assert back.mixture(None, t) == source.mixture_at(t)
