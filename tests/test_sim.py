import dataclasses
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import popdmp as P
import popdmp.sim as sim


def simpson_vals(fn, lo, hi, n):
    xs = np.linspace(lo, hi, n + 1)
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return xs, w * (hi - lo) / n / 3.0


# seeds and indices at the entropy word-count edges: 0 and 2**32 - 1 (one
# uint32 word), 2**32 (two) and two three-word values; a three-word seed with
# a three-word index makes six entropy words, beyond the pool of four
_WORD_EDGES = [0, 2**32 - 1, 2**32, 2**64 + 5, 2**70]
_stream_ids = st.one_of(st.sampled_from(_WORD_EDGES), st.integers(0, 2**40),
                        st.integers(0, 2**80))


@settings(max_examples=60, deadline=None)
@given(_stream_ids, st.lists(_stream_ids, min_size=1, max_size=6),
       st.sampled_from([1, 2, 5, 16, 64]), st.data())
def test_stream_bank_draws_the_numpy_streams(seed, indices, block, data):
    # ragged takes (random row subsets, rows recurring across refills, so
    # that refills are partial; one to three adjacent draws per row, so that
    # a refill may keep unread draws) against RngStream(seed, i).generator()
    big = max(indices) >= 2**63
    bank = sim._StreamBank(seed, np.array(indices, dtype=object if big else np.int64),
                           block=block)
    n = len(indices)
    takes = data.draw(st.lists(st.tuples(
        st.lists(st.integers(0, n - 1), unique=True),
        st.integers(1, min(block, 3))), max_size=90))
    used = np.zeros(n, dtype=np.int64)
    want = [P.RngStream(seed, i).generator().random(3 * len(takes)) for i in indices]
    for rows, k in takes:
        rows = np.array(rows, dtype=np.int64)
        got = bank.take(rows, k)
        expected = [want[r][used[r]:used[r] + k] for r in rows]
        assert np.array_equal(got, np.reshape(expected, (rows.size, k)).T)
        used[rows] += k


def test_stream_bank_rejects_negative_seeds_and_indices():
    for seed, indices in ((-1, [0]), (0, [3, -2]), (5, [2**70, -1])):
        with pytest.raises(ValueError):
            P.RngStream(seed, indices[-1]).generator()
        with pytest.raises(ValueError):
            sim._StreamBank(seed, np.array(indices))


class _GeneratorBank:
    """Reference bank: one numpy generator per row, one scalar draw per row
    and draw."""

    def __init__(self, seed, indices):
        self._gens = [P.RngStream(seed, int(i)).generator() for i in indices]
        self.n = len(self._gens)

    def take(self, rows, k=1):
        return np.array([[self._gens[r].random() for r in rows] for _ in range(k)])


def test_engine_draws_match_the_per_row_generator_reference(steering, family, solved15,
                                                            monkeypatch):
    _, vg, _, _ = solved15
    policy = P.extract_policy(vg, family)

    def run():
        mc = [P.evaluate_policy_mc(steering, x0, policy, 1_500, seed=11 + k)
              for k, x0 in enumerate((-2.0, 0.0, 2.0))]
        traj = P.simulate_trajectory(steering, -2.0, policy, P.RngStream(2**32 + 8, 2**33 + 1))
        first = P.sample_first_jumps(steering, P.RelaxedControl.constant(0.5), 600, seed=4,
                                     x0=0.0)
        return mc, traj, first

    fast = run()
    monkeypatch.setattr(sim, "_StreamBank", _GeneratorBank)
    ref = run()
    assert fast[0] == ref[0]
    for name in ("times", "states", "segment_costs", "total_cost", "truncated"):
        assert getattr(fast[1], name) == getattr(ref[1], name)
    assert np.array_equal(fast[1].observations, ref[1].observations)
    for a, b in zip(fast[2], ref[2]):
        assert np.array_equal(a, b)


def test_first_jumps_past_the_first_horizon_match_one_long_run(steering):
    # sample_first_jumps runs to 4/lambda_lo and reruns the rows still waiting
    # there, from the start of their streams, with the horizon doubled; one
    # run over tables that cover every first jump is the reference
    control = P.RelaxedControl.constant(0.5)
    n, seed = 20_000, 3
    got = P.sample_first_jumps(steering, control, n, seed=seed, x0=0.0)
    lam_lo = steering.hazard_bounds[0]
    assert np.any(got[0] > 4.0 / lam_lo) and np.any(got[0] > 8.0 / lam_lo)
    res = sim._simulate_batch(sim._policy_rule(control), sim.SimTables(steering, 64.0),
                              sim._StreamBank(seed, np.arange(n)), P.initial_belief(steering, 0.0),
                              max_jumps=1, record=True)
    assert not res.truncated.any()
    order = np.argsort(res.events["traj"], kind="stable")
    want = [res.events[k][order] for k in ("t", "y", "x")] + [res.beliefs]
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_zero_rows_give_empty_event_arrays(steering):
    # no rows record no events; the arrays keep their dtypes and trailing shapes
    control = P.RelaxedControl.constant(0.5)
    res = sim._simulate_batch(sim._policy_rule(control), sim.SimTables(steering, 4.0),
                              sim._StreamBank(1, np.arange(0)), P.Belief([0.0, 1.0, 0.0]),
                              y0=1, record=True)
    want = {"traj": np.int64, "t": np.float64, "y": np.int64, "x": np.float64,
            "cand": np.int64, "seg": np.float64}
    assert {k: v.dtype for k, v in res.events.items()} == want
    assert res.events["x"].shape == (0, steering.space_dim)
    for kw in ({"y0": 1}, {"x0": 0.0}):
        s, y, x, beliefs = P.sample_first_jumps(steering, control, 0, seed=1, **kw)
        assert (s.dtype, y.dtype, x.dtype, beliefs.dtype) == (np.float64, np.int64,
                                                              np.float64, np.float64)
        assert (s.shape, y.shape, x.shape, beliefs.shape) == ((0,), (0,), (0, steering.space_dim),
                                                              (0, steering.n_states))


def test_sample_jump_reproducible(steering):
    r = P.RelaxedControl.constant(1.0)
    a = P.sample_jump(steering, 0, r, P.RngStream(3, 14))
    b = P.sample_jump(steering, 0, r, P.RngStream(3, 14))
    assert a[0] == b[0] and a[1] == b[1] and np.array_equal(a[2], b[2])
    c = P.sample_jump(steering, 0, r, P.RngStream(3, 15))
    assert a[0] != c[0]
    # a point argument addresses the same state as its index
    d = P.sample_jump(steering, [-2.0], r, P.RngStream(3, 14))
    assert d == a


def test_interjump_times_are_unit_exponential(steering):
    ss, _, _, _ = P.sample_first_jumps(steering, P.RelaxedControl.constant(0.5),
                                       40_000, seed=21, y0=1)
    se = ss.std(ddof=1) / math.sqrt(ss.size)
    assert abs(ss.mean() - 1.0) < 3 * se
    ks = stats.kstest(ss, "expon").statistic
    assert ks < 1.628 / math.sqrt(ss.size)  # 1% critical value


def test_discounted_first_jump_mass(steering):
    for y in range(3):
        ss, _, _, _ = P.sample_first_jumps(steering, P.RelaxedControl.constant(-1.0),
                                           20_000, seed=31 + y, y0=y)
        vals = np.exp(-steering.discount * ss)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 0.5) < 3 * se


def test_stay_control_from_the_center(steering):
    ss, yy, xx, _ = P.sample_first_jumps(steering, P.RelaxedControl.constant(0.0),
                                         9_000, seed=5, y0=1)
    assert (yy == 1).all()
    counts = np.array([(xx[:, 0] == v).sum() for v in (-1.0, 0.0, 1.0)])
    assert counts.sum() == 9_000
    assert stats.chisquare(counts).pvalue > 0.01


def test_observation_marginal_matches_quadrature(steering):
    # the undiscounted law of the first observation from the center state
    # under a rightward drift, against direct quadrature of the jump density
    control = P.RelaxedControl.constant(1.0)
    n = 40_000
    _, _, xx, _ = P.sample_first_jumps(steering, control, n, seed=77, y0=1)
    ts, w = simpson_vals(None, 0.0, 18.0, 720)
    pos = ts.reshape(-1, 1)  # flow from the origin at unit speed
    rows = steering.jump_kernel(pos, np.array([1.0]))
    dens = np.exp(-ts)[:, None] * rows  # unit hazard
    state_mass = w @ dens
    xs, noisew = steering.observation_atoms()
    probs = noisew @ state_mass
    probs = probs / probs.sum()
    counts = np.array([(np.abs(xx[:, 0] - x) < 1e-9).sum() for x in xs[:, 0]])
    assert counts.sum() == n
    assert (counts[probs == 0] == 0).all()
    live = probs > 0
    assert stats.chisquare(counts[live], probs[live] / probs[live].sum() * n).pvalue > 0.01


def test_trajectory_record_invariants(steering, family, solved15):
    _, vg, _, _ = solved15
    policy = P.extract_policy(vg, family)
    traj = P.simulate_trajectory(steering, -2.0, policy, P.RngStream(8, 2))
    assert traj.times[0] == 0.0
    assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
    offsets = steering.noise.offsets[:, 0]
    for n in range(1, len(traj.times)):
        delta = traj.observations[n][0] - steering.post_jump_states[traj.states[n]][0]
        assert np.any(np.abs(offsets - delta) < 1e-9)
    assert traj.total_cost == pytest.approx(sum(traj.segment_costs), abs=1e-12)
    assert traj.truncated
    assert len(traj.controls) == len(traj.segment_costs)


def test_zero_cost_paths_cost_exactly_zero(steering):
    stay = P.RelaxedControl.constant(0.0)
    traj = P.simulate_trajectory(steering, 0.0, stay, P.RngStream(1, 0), y0=1)
    assert traj.total_cost == 0.0
    # an integer seed addresses stream (seed, 0)
    same = P.simulate_trajectory(steering, 0.0, stay, 1, y0=1)
    assert same.times == traj.times
    m0 = P.table_model(
        states=[-2.0, 0.0, 2.0],
        cost_table=[(-2.0, 0.0), (2.0, 0.0)],
        kernel_table=[(-2.0, 1.0, 0.0, 0.0), (-1.5, 0.0, 1.0, 0.0),
                      (1.5, 0.0, 1.0, 0.0), (2.0, 0.0, 0.0, 1.0)],
        hazard=1.0,
        noise_offsets=[-1.0, 0.0, 1.0],
        noise_weights=[1 / 3, 1 / 3, 1 / 3],
    )
    mean, se = P.evaluate_policy_mc(m0, -2.0, P.RelaxedControl.constant(1.0), 200, seed=3)
    assert mean == 0.0 and se == 0.0


def test_single_trajectory_matches_batch_member(steering, family, solved15):
    _, vg, _, _ = solved15
    policy = P.extract_policy(vg, family)
    mean5, _ = P.evaluate_policy_mc(steering, -2.0, policy, 5, seed=101)
    singles = [
        P.simulate_trajectory(steering, -2.0, policy, P.RngStream(101, i)).total_cost
        for i in range(5)
    ]
    assert mean5 == np.mean(singles)


def test_single_run_reproducibility(steering):
    stay = P.RelaxedControl.constant(0.0)
    m1 = P.evaluate_policy_mc(steering, -2.0, stay, 1, seed=55)
    m2 = P.evaluate_policy_mc(steering, -2.0, stay, 1, seed=55)
    assert m1[0] == m2[0] and m1[1] == 0.0


def test_generic_belief_policy_drives_the_engine(steering):
    # a stationary rule supplied as a plain belief -> control map works like
    # the equivalent fixed control
    rule = P.DiscretePolicy(lambda probs: P.RelaxedControl.constant(0.0))
    via_rule = P.evaluate_policy_mc(steering, -2.0, rule, 50, seed=19)
    via_control = P.evaluate_policy_mc(steering, -2.0, P.RelaxedControl.constant(0.0),
                                       50, seed=19)
    assert via_rule == via_control

    def two_sided(probs):
        return P.switch_control(1.0 if probs[0] >= probs[2] else -1.0, 0.5)

    traj = P.simulate_trajectory(steering, -2.0, P.DiscretePolicy(two_sided),
                                 P.RngStream(77, 0))
    assert traj.total_cost >= 0.0
    assert traj.controls[0].pieces[0].actions == ((1.0,),)


def test_worker_count_does_not_change_results(steering, family, solved15):
    _, vg, _, _ = solved15
    policy = P.extract_policy(vg, family)
    a = P.evaluate_policy_mc(steering, 2.0, policy, 400, seed=9, workers=1)
    b = P.evaluate_policy_mc(steering, 2.0, policy, 400, seed=9, workers=3)
    assert a == b
    for bad in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            P.evaluate_policy_mc(steering, 2.0, policy, 400, seed=9, workers=bad)


def test_default_workers_are_one_per_core_with_a_chunk_floor(monkeypatch):
    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    rows = sim._AUTO_CHUNK_ROWS
    assert sim._auto_workers(1) == 1
    assert sim._auto_workers(2 * rows - 1) == 1
    assert sim._auto_workers(2 * rows) == 2
    assert sim._auto_workers(100 * rows) == 8


def _solved_policy(model, family, k):
    vg, _ = P.value_iteration(model, P.build_simplex_grid(model.n_states, k), family, tol=1e-4)
    return P.extract_policy(vg, family)


@pytest.fixture(scope="module")
def pinned_runs(steering, family, solved15):
    """(model, x0, policy, seed) of each pinned evaluate_policy_mc run."""
    mix = P.RelaxedControl.from_pieces([(0.0, P.ActionMixture.of([(1.0, 0.3), (-1.0, 0.7)])),
                                        (0.6, 0.5)])
    mix_family = P.ControlFamily((mix, P.RelaxedControl.constant(0.0),
                                  P.switch_control(-1.0, 0.5)))
    table = P.table_model(
        states=[-2.0, 0.0, 2.0],
        cost_table=[(-2.0, 0.0), (2.0, 2.0)],
        kernel_table=[(-2.0, 1.0, 0.0, 0.0), (-1.5, 0.0, 1.0, 0.0),
                      (1.5, 0.0, 1.0, 0.0), (2.0, 0.0, 0.0, 1.0)],
        hazard=[(-2.0, 0.8), (2.0, 1.6)],
        noise_offsets=[-1.0, 0.0, 1.0],
        noise_weights=[1 / 3, 1 / 3, 1 / 3],
    )
    planar = planar_model()
    planar_family = P.ControlFamily((P.RelaxedControl.constant(0.0),
                                     P.RelaxedControl.from_pieces([(0.0, 1.0), (0.4, 0.0)])))
    return {
        "bang": (steering, -2.0, P.extract_policy(solved15[1], family), 61),
        "mixture": (steering, -2.0, _solved_policy(steering, mix_family, 8), 62),
        "hazard table": (table, 2.0, _solved_policy(table, P.switching_family(taus=[0.5]), 6), 63),
        "planar": (planar, np.array([2.0, 1.0]), _solved_policy(planar, planar_family, 6), 64),
    }


# (mean, stderr) of 1000 trajectories of each pinned run, bit for bit: the
# thread layout and the order of the per-jump work must not move them
_PINNED = {
    "bang": (2.241304202985316, 0.01680374583366609),
    "mixture": (9.03064624374082, 0.026800623417416344),
    "hazard table": (1.3171414621182906, 0.00644257808945463),
    "planar": (0.9769637311402694, 0.02064636892490792),
}


@pytest.mark.parametrize("workers", [1, 2, None])
def test_mc_results_are_pinned_at_every_worker_count(pinned_runs, workers):
    for name, (model, x0, policy, seed) in pinned_runs.items():
        got = P.evaluate_policy_mc(model, x0, policy, 1000, seed, workers=workers)
        assert got == _PINNED[name], name


def test_more_threads_than_cores_under_fast_switching_match_one(pinned_runs):
    # four chunks share the lazily built path tables and the policy lookup
    # while the interpreter switches threads every microsecond; a lost or
    # mixed-up update would move a bit
    model, x0, policy, seed = pinned_runs["mixture"]
    ref = P.evaluate_policy_mc(model, x0, policy, 400, seed, workers=1)
    got = {}
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: got.update(
            mc=P.evaluate_policy_mc(model, x0, policy, 400, seed, workers=4)), daemon=True)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not runner.is_alive()
    assert got["mc"] == ref


def test_workers_with_a_callable_policy_warn_and_run_single_threaded(steering):
    rule = P.DiscretePolicy(lambda probs: P.RelaxedControl.constant(0.0))
    with pytest.warns(RuntimeWarning, match="workers=2 ignored"):
        many = P.evaluate_policy_mc(steering, -2.0, rule, 50, seed=19, workers=2)
    # the default, one worker per usable core, resolves to one without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert many == P.evaluate_policy_mc(steering, -2.0, rule, 50, seed=19)


def test_always_left_from_the_left_plateau_is_deterministic(steering):
    # drifting left from the left edge keeps the cost rate at its plateau
    # and every jump returns to the same state, so the discounted cost is
    # the closed-form plateau integral
    left = P.RelaxedControl.constant(-1.0)
    H = P.default_horizon(steering)
    mean, se = P.evaluate_policy_mc(steering, -2.0, left, 3_000, seed=13, horizon=H)
    exact = 10.0 * (1.0 - math.exp(-H))
    assert se < 1e-6
    assert abs(mean - exact) < 1e-4
    # the filtered-MDP side evaluates the same stationary control to the
    # same number
    grid = P.build_simplex_grid(3, 2)
    fam = P.ControlFamily((left,))
    sweep = P.BellmanSweep(steering, grid, fam)
    v = sweep.policy_fixed_point(np.zeros(grid.n_points, dtype=np.int64))
    v_at = v[grid.vertex_index([2, 0, 0])]
    assert abs(mean - v_at) < 3 * se + 1e-3


def test_cross_check_zero_cost_model():
    m0 = P.table_model(
        states=[-2.0, 0.0, 2.0],
        cost_table=[(-2.0, 0.0), (2.0, 0.0)],
        kernel_table=[(-2.0, 1.0, 0.0, 0.0), (-1.5, 0.0, 1.0, 0.0),
                      (1.5, 0.0, 1.0, 0.0), (2.0, 0.0, 0.0, 1.0)],
        hazard=1.0,
        noise_offsets=[-1.0, 0.0, 1.0],
        noise_weights=[1 / 3, 1 / 3, 1 / 3],
    )
    grid = P.build_simplex_grid(3, 4)
    fam = P.ControlFamily((P.RelaxedControl.constant(0.0),))
    vg, _ = P.value_iteration(m0, grid, fam, tol=1e-6)
    policy = P.extract_policy(vg, fam)
    report = P.cross_check(m0, policy, [-2.0, 0.0, 2.0], n_traj=300, seed=2)
    for row in report.rows:
        assert row.mc_mean == 0.0 and row.mdp_value == 0.0 and row.z == 0.0


def test_cross_check_constant_stay_policy(steering, family):
    grid = P.build_simplex_grid(3, 8)
    stay_everywhere = P.ValueGrid(grid, np.zeros(grid.n_points),
                                  np.zeros(grid.n_points, dtype=np.int64))
    policy = P.extract_policy(stay_everywhere, family)
    report = P.cross_check(steering, policy, [-2.0, 0.0, 2.0], n_traj=4_000, seed=23)
    assert report.max_abs_z < 3.0


def test_default_horizon_bound(steering):
    H = P.default_horizon(steering)
    assert math.exp(-steering.discount * H) * steering.cost_max / steering.discount < 1e-6
    assert 16.0 < H < 18.0


def test_horizon_must_be_finite_and_non_negative(steering):
    # below t = 0 the cost tables used to be extrapolated into negative costs
    stay = P.RelaxedControl.constant(0.0)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="horizon"):
            P.evaluate_policy_mc(steering, -2.0, stay, 20, 1, horizon=bad)
        with pytest.raises(ValueError, match="horizon"):
            P.simulate_trajectory(steering, -2.0, stay, (1, 0), cost_horizon=bad)
    # a zero horizon truncates every run at its start, at no cost
    assert P.evaluate_policy_mc(steering, -2.0, stay, 20, 1, horizon=0.0) == (0.0, 0.0)
    traj = P.simulate_trajectory(steering, -2.0, stay, (1, 0), cost_horizon=0.0)
    assert traj.total_cost == 0.0 and traj.truncated


def test_mixture_controls_match_their_mean_action(steering):
    # with uncontrolled hazard, kernel and cost, the process law depends on
    # the control only through the flow, which follows the mean action
    mix = P.RelaxedControl.constant(P.ActionMixture.of([(0.2, 0.5), (0.6, 0.5)]))
    dirac = P.RelaxedControl.constant(0.4)
    mc_mix, se_mix = P.evaluate_policy_mc(steering, -2.0, mix, 3_000, seed=71)
    mc_dir, se_dir = P.evaluate_policy_mc(steering, -2.0, dirac, 3_000, seed=72)
    assert abs(mc_mix - mc_dir) < 3 * math.hypot(se_mix, se_dir)
    # the filtered-MDP side evaluates both to the same number exactly
    grid = P.build_simplex_grid(3, 4)
    fam = P.ControlFamily((mix, dirac))
    sweep = P.BellmanSweep(steering, grid, fam)
    v_mix = sweep.policy_fixed_point(np.zeros(grid.n_points, dtype=np.int64))
    v_dir = sweep.policy_fixed_point(np.ones(grid.n_points, dtype=np.int64))
    assert np.abs(v_mix - v_dir).max() < 1e-12


def test_position_dependent_hazard_mass_bookkeeping():
    # hazard varying along the line: the simulated discounted first-jump
    # mass must match the quadrature-side transition mass
    m = P.table_model(
        states=[-2.0, 0.0, 2.0],
        cost_table=[(-2.0, 1.0), (2.0, 1.0)],
        kernel_table=[(-2.0, 1.0, 0.0, 0.0), (-1.5, 0.0, 1.0, 0.0),
                      (1.5, 0.0, 1.0, 0.0), (2.0, 0.0, 0.0, 1.0)],
        hazard=[(-2.0, 0.8), (2.0, 1.6)],
        noise_offsets=[-1.0, 0.0, 1.0],
        noise_weights=[1 / 3, 1 / 3, 1 / 3],
    )
    assert m.hazard_bounds == (0.8, 1.6)
    control = P.RelaxedControl.constant(1.0)
    for y in (0, 1):
        ss, _, _, _ = P.sample_first_jumps(m, control, 30_000, seed=140 + y, y0=y)
        disc = np.exp(-m.discount * ss)
        se = disc.std(ddof=1) / math.sqrt(disc.size)
        rho = np.eye(3)[y]
        mass = P.transition_mass(m, rho, control)
        assert abs(disc.mean() - mass) < 3 * se


def test_thinning_refuses_a_hazard_above_its_declared_bound():
    # the spike sits between the validation sample points (multiples of 0.5),
    # so the model validates; thinning at rate 1.5 would silently clip it to 1.5
    m = dataclasses.replace(
        P.particle_steering_model(),
        hazard=lambda pts, a: np.where(np.abs(pts[:, 0] - 0.25) < 0.1, 3.0, 1.0),
        hazard_bounds=(1.0, 1.5),
    )
    r = P.RelaxedControl.constant(1.0)
    with pytest.raises(P.ModelValidationError):
        P.evaluate_policy_mc(m, 0.0, r, n_traj=200, seed=3)
    with pytest.raises(P.ModelValidationError):
        for i in range(50):
            P.sample_jump(m, 1, r, P.RngStream(5, i))


def test_simulator_raises_on_an_impossible_observation():
    # with match_tol=1e-20, state 2 plus offset 0.3 does not match back
    # (2.3 - 2.0 != 0.3 in floating point), so the generated observation has
    # zero likelihood; the online Bayes update reports it as the filter does
    m = dataclasses.replace(
        P.particle_steering_model(q0="uniform"),
        noise=P.NoiseModel(offsets=np.array([[-0.1], [0.0], [0.3]]),
                           weights=np.full(3, 1.0 / 3.0), match_tol=1e-20),
    )
    with pytest.raises(P.ImpossibleObservationError, match="zero likelihood"):
        P.evaluate_policy_mc(m, 0.0, P.RelaxedControl.constant(1.0), n_traj=200, seed=1)
    # the simulator matches through NoiseModel.density, the filter's rule
    delta = np.array([[(2.0 + 0.3) - 2.0], [(2.0 - 0.1) - 2.0], [0.0]])
    expected = [0.0, 0.0, 1 / 3]
    assert m.noise.density(delta).tolist() == [m.noise.density_at(v) for v in delta] == expected
    assert dataclasses.replace(m.noise, match_tol=1e-9).density(delta).tolist() == [1 / 3] * 3


def test_simulator_rejects_an_initial_kernel_that_is_not_a_probability_vector():
    # the kernel passes model validation on the observations states can
    # emit, but sums to 2 far out; the simulator used to renormalize it
    m = dataclasses.replace(P.particle_steering_model(q0="uniform"),
                            initial_kernel=lambda x: np.full(3, 1 / 3) * (1 + (abs(x[0]) > 5)))
    r = P.RelaxedControl.constant(0.0)
    assert P.evaluate_policy_mc(m, 0.0, r, 50, seed=1) == P.evaluate_policy_mc(
        P.particle_steering_model(q0="uniform"), 0.0, r, 50, seed=1)
    with pytest.raises(ValueError, match="renormalization window"):
        P.evaluate_policy_mc(m, 10.0, r, 50, seed=1)
    with pytest.raises(ValueError, match="renormalization window"):
        P.simulate_trajectory(m, 10.0, r, 1)


def test_replayed_filter_reproduces_the_policy_choices(steering, family, solved15):
    # reconstruct the belief path from the recorded events with the filter
    # module and confirm the policy would have chosen the recorded controls
    _, vg, _, _ = solved15
    policy = P.extract_policy(vg, family)
    traj = P.simulate_trajectory(steering, -2.0, policy, P.RngStream(314, 4))
    events = [
        (traj.controls[n], traj.times[n + 1] - traj.times[n], traj.observations[n + 1])
        for n in range(len(traj.times) - 1)
    ]
    beliefs = P.filter_trajectory(steering, traj.observations[0], events)
    assert len(beliefs) == len(traj.times)
    for n, control in enumerate(traj.controls):
        assert policy.control(beliefs[n]) == control


def planar_model():
    """Two post-jump states in the plane, direction-scaled drift."""
    states = np.array([[0.0, 0.0], [1.0, 1.0]])

    def kernel(pts, a):
        p = 0.5 + 0.4 * np.tanh(pts[:, 0] - 0.5)
        return np.stack([p, 1.0 - p], axis=1)

    return P.PopdmpModel(
        post_jump_states=states,
        drift=P.VectorField(b=lambda y, a: np.array([a[0], 0.5 * a[0]])),
        hazard=lambda pts, a: 1.0 + 0.1 * np.sin(pts[:, 0] + pts[:, 1]),
        hazard_bounds=(0.9, 1.1),
        jump_kernel=kernel,
        noise=P.NoiseModel(offsets=np.array([[0.0, 0.0], [1.0, 0.0]]),
                           weights=np.array([0.6, 0.4])),
        cost_rate=lambda pts, a: np.minimum((pts * pts).sum(axis=1), 8.0),
        cost_max=8.0,
        discount=1.0,
        initial_kernel=lambda x: np.array([0.5, 0.5]),
        action_box=np.array([[-1.0, 1.0]]),
        hazard_controlled=False,
    )


def test_planar_state_space_end_to_end():
    m = planar_model()
    r = P.RelaxedControl.from_pieces([(0.0, 1.0), (0.4, 0.0)])
    path = P.flow_path(m, [0.0, 0.0], r, np.array([0.0, 0.2, 0.4, 1.0]))
    assert np.allclose(path[-1], [0.4, 0.2], atol=1e-9)

    b = P.update(m, [0.5, 0.5], r, 0.3, np.array([1.0, 1.0]))
    assert b.probs.sum() == pytest.approx(1.0, abs=1e-10)

    grid = P.build_simplex_grid(2, 6)
    ones = P.ValueGrid.constant(grid, 1.0)
    mass = P.transition_mass(m, [0.5, 0.5], r)
    assert 0.4 < mass < 0.56
    assert P.expected_next_value(m, ones, [0.5, 0.5], r) == pytest.approx(mass, abs=1e-9)

    fam = P.ControlFamily((P.RelaxedControl.constant(0.0), r))
    vg, report = P.value_iteration(m, grid, fam, tol=1e-4)
    assert report.converged
    assert vg.values.min() >= 0.0 and vg.values.max() <= m.cost_max / m.discount + 1e-9

    policy = P.extract_policy(vg, fam)
    cc = P.cross_check(m, policy, [np.array([0.0, 0.0]), np.array([2.0, 1.0])],
                       n_traj=800, seed=41)
    assert cc.max_abs_z < 4.0
