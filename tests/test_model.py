import bisect
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import popdmp as P
import popdmp.model as model_module
import popdmp.sim as sim_module
from popdmp.mdp import build_tables
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
    assert P.flow_path(steering, [0.0], r, [0.5])[0] == pytest.approx([0.5])
    assert P.flow_path(steering, [-2.0], r, [0.0])[0] == pytest.approx([-2.0])


def test_flow_exponential_vs_closed_form():
    m = toy_model(b=lambda y, a: a[0] * y, box=(-1.0, 1.0))
    r = P.RelaxedControl.constant(1.0)
    out = P.flow_path(m, [1.0], r, [1.0])[0]
    assert abs(out[0] - math.e) < 1e-6


def test_flow_initial_condition_is_exact():
    m = toy_model(b=lambda y, a: a[0] * y)
    for y in (-1.3, 0.0, 2.7):
        assert P.flow_path(m, [y], P.RelaxedControl.constant(0.5), [0.0])[0, 0] == y


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
        P.flow_path(m, [2.0], P.RelaxedControl.constant(0.0), [1.0])


def test_flow_semigroup_for_constant_controls():
    m = toy_model(b=lambda y, a: a[0] * np.sin(y) + 0.1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        y = rng.uniform(-2, 2)
        a = rng.uniform(-1, 1)
        s, t = rng.uniform(0.05, 1.0, size=2)
        r = P.RelaxedControl.constant(a)
        direct = P.flow_path(m, [y], r, [t + s])[0]
        chained = P.flow_path(m, P.flow_path(m, [y], r, [s])[0], r, [t])[0]
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
        P.flow_path(steering, [0.0], bad, [1.0])
    with pytest.raises(P.InvalidControlError):
        P.lambda_path(steering, [0.0], bad, [1.0])


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


def test_flow_times_must_be_finite(steering):
    # an infinite time passed the sortedness check and reached the flow,
    # where it overflowed the RK4 step count or turned the closed form's
    # inf * 0 into a NaN, with a RuntimeWarning
    m_field = toy_model(drift=P.velocity_field())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for model in (steering, m_field):
            for a in (0.0, 0.5):
                with pytest.raises(ValueError, match="finite"):
                    P.flow_path(model, [0.0], P.RelaxedControl.constant(a), [0.5, np.inf])


# ---------------------------------------------------------------------------
# hazard integrals


def test_big_lambda_constant_hazard(steering):
    r = P.RelaxedControl.constant(0.3)
    assert P.lambda_path(steering, [0.0], r, [2.0])[0] == pytest.approx(2.0, abs=1e-10)
    assert P.lambda_path(steering, [0.0], r, [0.0])[0] == 0.0


def test_big_lambda_action_dependent_hazard():
    m = toy_model(
        hazard=lambda pts, a: np.full(pts.shape[0], 1.0 + abs(a[0])),
        hazard_bounds=(1.0, 2.0),
        hazard_controlled=True,
    )
    val = P.lambda_path(m, [0.0], P.RelaxedControl.constant(1.0), [1.0])[0]
    assert val == pytest.approx(2.0, abs=1e-10)


def test_big_lambda_monotone_and_bounded():
    m = toy_model(
        hazard=lambda pts, a: 1.5 + 0.5 * np.sin(pts[:, 0]),
        hazard_bounds=(1.0, 2.0),
        b=lambda y, a: np.broadcast_to(a, y.shape).astype(float),
    )
    r = P.RelaxedControl.from_pieces([(0.0, 1.0), (0.7, -1.0)])
    ts = np.linspace(0.0, 3.0, 13)
    vals = [P.lambda_path(m, [0.0], r, [t])[0] for t in ts]
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
        assert v == pytest.approx(P.lambda_path(m, [0.2], r, [t])[0], abs=1e-9)


def test_gamma_examples(steering):
    # the discount-augmented integral beta*t + Lambda^r(y, t)
    def gamma(m, t):
        return m.discount * t + P.lambda_path(m, [0.0], P.RelaxedControl.constant(0.0), [t])[0]

    assert gamma(steering, 1.0) == pytest.approx(2.0, abs=1e-10)
    assert gamma(steering, 0.0) == 0.0
    m = toy_model(hazard=lambda pts, a: np.full(pts.shape[0], 3.0),
                  hazard_bounds=(3.0, 3.0), discount=2.0)
    assert gamma(m, 0.5) == pytest.approx(2.5, abs=1e-12)


def test_controls_built_from_lists_hash_like_tuples(steering):
    # the batched filter groups events by control, as the stage tables and
    # the simulator key their tables; a control built from lists used to be
    # unhashable
    mix = P.ActionMixture(actions=[(1.0,), (-1.0,)], weights=[0.25, 0.75])
    listed = P.RelaxedControl(pieces=[mix, P.ActionMixture.dirac(0.0)], breaks=[0.5])
    tupled = P.RelaxedControl.from_pieces([(0.0, P.ActionMixture.of([(1.0, 0.25), (-1.0, 0.75)])),
                                           (0.5, 0.0)])
    assert listed == tupled and hash(listed) == hash(tupled)
    events = [(listed, 0.7, 1.0), (tupled, 0.4, 1.0)]
    beliefs = P.filter_trajectory(steering, 0.0, events)
    assert np.array_equal(beliefs[-1].probs, P.update(steering, beliefs[1], tupled, 0.4, 1.0).probs)


def test_simpson_nodes_tag_breakpoint_sides():
    r = P.RelaxedControl.from_pieces([(0.0, 1.0), (0.5, 0.0)])
    nodes, weights, pieces, _ = _simpson_nodes(r, [0.0, 0.5], [0.5, 1.0], 0.25)
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


@settings(max_examples=40, deadline=None)
@given(mixture_controls())
def test_per_node_pieces_match_the_broadcast_pieces(control):
    # pieces given per node are grouped once over the nodes, each group
    # taken row by row; the values equal a build from the broadcast
    # (d, n) piece array bit for bit
    m = controlled_model()
    ts = np.unique(np.concatenate([np.linspace(0.0, 3.0, 31), control.breaks]))
    pos = np.stack([P.flow_path(m, y, control, ts) for y in m.post_jump_states])
    pieces = control.piece_index_at(ts)
    sizes = []

    def recording(ids):
        sizes.append(ids.size)
        return _index_groups(ids)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_module, "_index_groups", recording)
        per_node = ControlPath(m, control, pos, pieces)
    assert sizes == [ts.size]
    broadcast = ControlPath(m, control, pos, np.broadcast_to(pieces, pos.shape[:-1]).copy())
    for attr in ("hazard", "cost", "kernel_rows"):
        assert np.array_equal(getattr(per_node, attr), getattr(broadcast, attr)), attr


def test_an_out_of_box_control_raises_at_every_entry(steering):
    bad = P.RelaxedControl.constant(1.5)
    grid = P.build_simplex_grid(3, 2)
    calls = [
        lambda: P.flow_path(steering, [0.0], bad, [0.5]),
        lambda: P.BellmanSweep(steering, grid, P.ControlFamily((bad,))),
        lambda: P.evaluate_policy_mc(steering, 0.0, bad, 10, seed=1),
        lambda: P.sample_jump(steering, 1, bad, 3),
        lambda: P.filter_trajectory(steering, 0.0, [(bad, 0.5, [0.0])]),
    ]
    for call in calls:
        with pytest.raises(P.InvalidControlError, match="outside the action box"):
            call()


def test_each_entry_checks_its_control_once(steering, monkeypatch):
    # flows inside the path builds and the thinning loop take the entry's
    # check; each entry below checks the control once, not once per flow
    checks = []
    check = model_module._check_actions_in_box
    monkeypatch.setattr(model_module, "_check_actions_in_box",
                        lambda control, box: checks.append(control) or check(control, box))
    control = P.switch_control(1.0, 0.5)
    entries = [
        (lambda: build_tables(steering, control, P.StageQuadrature(t_max=2.0, h=0.05)), 1),
        (lambda: P.lambda_path(steering, [0.0], control, [0.25, 1.0]), 1),
        (lambda: sim_module.SimTables(steering, 1.0)._build(control), 1),
        (lambda: [P.sample_jump(steering, 1, control, (3, i)) for i in range(5)], 5),
    ]
    for entry, calls in entries:
        checks.clear()
        entry()
        assert checks == [control] * calls


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


def beyond(fn, limit, change=lambda v: np.nan):
    """``fn`` with its rows at points beyond |y| > limit replaced by
    ``change(rows)`` (NaN by default)."""
    def wrapped(pts, a):
        out = np.array(fn(pts, a), dtype=float)
        far = np.abs(pts[:, 0]) > limit
        out[far] = change(out[far])
        return out
    return wrapped


@pytest.mark.parametrize("field, what", [("jump_kernel", "jump kernel"), ("hazard", "hazard"),
                                         ("cost_rate", "cost rate")])
def test_nan_local_characteristics_fail_validation(field, what):
    # the sample positions reach |y| = 4; every bound check used to be
    # false for a NaN, so such a model constructed
    steering = P.particle_steering_model()
    with pytest.raises(P.ModelValidationError, match=what):
        dataclasses.replace(steering, **{field: beyond(getattr(steering, field), 3.0)})


@pytest.mark.parametrize("field, what, change", [
    ("hazard", "hazard", lambda v: 3.0),
    ("hazard", "hazard", lambda v: np.nan),
    ("jump_kernel", "jump kernel", lambda v: np.nan),
    ("jump_kernel", "jump kernel", lambda v: 0.9 * v),
    ("cost_rate", "cost rate", lambda v: 50.0),
], ids=["hazard-above-bound", "nan-hazard", "nan-kernel-rows", "kernel-rows-sum-to-0.9",
        "cost-above-bound"])
def test_every_consumer_refuses_a_model_that_breaks_its_contract(field, what, change):
    # the fault sits at |y| > 5, past the sample positions (|y| <= 4), so the
    # model constructs; every consumer that evaluates the faulty
    # characteristic must raise naming it, since running on would bias its
    # result (or, for NaN kernel rows, blame the observation) without a word
    steering = P.particle_steering_model()
    m = dataclasses.replace(steering, **{field: beyond(getattr(steering, field), 5.0, change)})
    right = P.RelaxedControl.constant(1.0)
    consumers = [
        lambda: P.BellmanSweep(m, P.build_simplex_grid(3, 4), P.switching_family(taus=[0.5])),
        lambda: P.evaluate_policy_mc(m, 0.0, right, n_traj=500, seed=3),
    ]
    if field != "cost_rate":
        consumers += [
            lambda: P.filter_trajectory(m, 2.0, [(right, 6.0, 2.0)]),
            lambda: P.update(m, [0.0, 0.0, 1.0], right, 6.0, 2.0),
            lambda: [P.sample_jump(m, 2, right, P.RngStream(5, i)) for i in range(50)],
        ]
    for consumer in consumers:
        with pytest.raises(P.ModelValidationError, match=what) as err:
            consumer()
        assert "NaN" in str(err.value)


@pytest.mark.parametrize("box", [[[np.nan, 1.0]], [[-1.0, np.nan]], [[-np.inf, 1.0]],
                                 [[-1.0, np.inf]], [[np.inf, 1.0]], [[-1.0, -np.inf]]])
def test_the_action_box_must_be_finite(box):
    # the action space is compact; against a NaN bound check_control would
    # accept any action on that side
    with pytest.raises(P.ModelValidationError, match="action box"):
        dataclasses.replace(P.particle_steering_model(), action_box=box)


def test_noise_model_validation():
    with pytest.raises(P.ModelValidationError):
        P.NoiseModel(offsets=np.array([[0.0], [0.0]]), weights=np.array([0.5, 0.5]))
    with pytest.raises(P.ModelValidationError):
        P.NoiseModel(offsets=np.array([[0.0], [1.0]]), weights=np.array([0.5, 0.4]))
    # a NaN weight used to construct, and every posterior was then dropped
    with pytest.raises(P.ModelValidationError, match="weights must be finite"):
        P.NoiseModel(offsets=np.array([[-1.0], [0.0], [1.0]]),
                     weights=np.array([0.5, np.nan, 0.5]))
    with pytest.raises(P.ModelValidationError, match="offsets must be finite"):
        P.NoiseModel(offsets=np.array([[0.0], [np.inf]]), weights=np.array([0.5, 0.5]))
    for tol in (0.0, -1e-9, float("nan")):
        with pytest.raises(P.ModelValidationError, match="match_tol"):
            P.NoiseModel(offsets=np.array([[0.0]]), weights=np.array([1.0]), match_tol=tol)
    nm = P.NoiseModel(offsets=np.array([[-1.0], [0.0], [1.0]]), weights=np.full(3, 1 / 3))
    assert nm.density([1.0]) == pytest.approx(1 / 3)
    assert nm.density([0.5]) == 0.0


@pytest.mark.parametrize("field, value", [
    ("discount", np.nan), ("discount", np.inf), ("cost_max", np.nan), ("cost_max", np.inf),
])
def test_non_finite_model_constants_are_rejected(field, value):
    with pytest.raises(P.ModelValidationError, match="finite"):
        dataclasses.replace(P.particle_steering_model(), **{field: value})


def test_noise_density_matches_the_scalar_rule():
    # the vectorized rule against a per-delta loop and a naive
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
    loop = np.array([[nm.density(dl) for dl in row] for row in deltas])
    ref = np.array([[naive(dl) for dl in row] for row in deltas])
    assert np.array_equal(got, loop) and np.array_equal(got, ref)
    assert np.all(got[:2] > 0.0) and np.all(got[2] == 0.0)
    # offsets closer than the tolerance: the first one wins
    close = P.NoiseModel(offsets=np.array([[0.0], [1e-10]]), weights=np.array([0.3, 0.7]))
    assert close.density(np.array([[0.0], [1e-10], [0.5]])).tolist() == [0.3, 0.3, 0.0]


def test_distinct_states_required():
    with pytest.raises(P.ModelValidationError):
        toy_model(states=(0.0, 0.0))
