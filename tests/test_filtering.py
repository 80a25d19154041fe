import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

import popdmp as P
import popdmp.filtering as F
from popdmp.model import H_QUAD, ControlPath, _lambda_lists, flow_path, simpson_weights


def simpson(fn, lo, hi, n):
    if n % 2:
        n += 1
    xs = np.linspace(lo, hi, n + 1)
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return float(w @ np.array([fn(x) for x in xs])) * (hi - lo) / n / 3.0


# ---------------------------------------------------------------------------
# beliefs


def test_belief_construction_renormalizes_small_drift():
    b = P.Belief(np.array([0.3, 0.3, 0.4]) * (1 + 5e-9))
    assert b.probs.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        P.Belief(np.array([0.5, 0.6, 0.2]))
    with pytest.raises(ValueError):
        P.Belief(np.array([-0.1, 0.6, 0.5]))


# ---------------------------------------------------------------------------
# the joint density


def test_qtilde_hand_values(steering):
    r0 = P.RelaxedControl.constant(0.0)
    for s in (0.0, 0.5, 1.0):
        # discount factor e^{-2s}, noise weight 1/3, unit hazard, kernel mass 1
        assert P.q_tilde(steering, s, 1, 0.0, 1, r0) == pytest.approx(
            math.exp(-2 * s) / 3.0, abs=1e-12
        )


def test_qtilde_vanishes_off_the_noise_support(steering):
    r = P.RelaxedControl.constant(1.0)
    assert P.q_tilde(steering, 0.7, 2, 0.5, 0, r) == 0.0
    assert P.q_tilde(steering, 0.7, 2, 7.0, 0, r) == 0.0


def test_qtilde_total_mass_by_quadrature(steering):
    xs, _ = steering.observation_atoms()
    r = P.RelaxedControl.from_pieces([(0.0, 1.0), (0.5, 0.0)])
    for y in (0, 2):
        total = simpson(
            lambda s: sum(P.q_tilde_sx(steering, s, x, y, r) for x in xs[:, 0]),
            0.0, 14.0, 280,
        )
        assert total == pytest.approx(0.5, abs=1e-6)


def test_qtilde_sx_single_state_model():
    m = P.table_model(
        states=[0.0],
        cost_table=[(-1.0, 1.0), (1.0, 1.0)],
        kernel_table=[(-1.0, 1.0), (1.0, 1.0)],
        hazard=2.0,
        noise_offsets=[0.0],
        noise_weights=[1.0],
    )
    r = P.RelaxedControl.constant(0.0)
    assert P.q_tilde_sx(m, 0.8, 0.0, 0, r) == pytest.approx(
        P.q_tilde(m, 0.8, 0, 0.0, 0, r), abs=1e-15
    )


def test_qtilde_sx_matches_simulated_discounted_indicator(steering):
    r = P.RelaxedControl.constant(1.0)
    ss, _, xx, _ = P.sample_first_jumps(steering, r, 30_000, seed=5, y0=1)
    target = 1.0
    vals = np.exp(-ss) * (np.abs(xx[:, 0] - target) < 1e-9)
    quad = simpson(lambda s: P.q_tilde_sx(steering, s, target, 1, r), 0.0, 14.0, 280)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - quad) < 3 * se


# ---------------------------------------------------------------------------
# Bayes updates


def test_update_keeps_forced_support(steering):
    r0 = P.RelaxedControl.constant(0.0)
    for s, x in ((0.1, -1.0), (0.9, 0.0), (2.5, 1.0)):
        b = P.update(steering, [0.0, 1.0, 0.0], r0, s, x)
        assert np.array_equal(b.probs, [0.0, 1.0, 0.0])


def test_update_hand_bayes_example(steering):
    b = P.update(steering, [1 / 3, 1 / 3, 1 / 3], P.RelaxedControl.constant(1.0), 0.5, 2.0)
    assert np.array_equal(b.probs, [0.0, 0.0, 1.0])


def test_update_impossible_observation(steering):
    with pytest.raises(P.ImpossibleObservationError):
        P.update(steering, [1.0, 0.0, 0.0], P.RelaxedControl.constant(0.0), 1.0, 5.0)


def test_update_normalizes(steering):
    rng = np.random.default_rng(7)
    r = P.RelaxedControl.from_pieces([(0.0, 1.0), (0.6, -1.0)])
    for _ in range(25):
        rho = rng.dirichlet(np.ones(3))
        s = rng.uniform(0.05, 2.0)
        x = float(rng.choice([-1.0, 0.0, 1.0]))
        b = P.update(steering, rho, r, s, x)
        assert np.all(b.probs >= 0)
        assert b.probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_update_support_rule(steering):
    # the posterior never charges a state whose noise cannot explain x
    b = P.update(steering, [0.25, 0.5, 0.25], P.RelaxedControl.constant(1.0), 1.7, 3.0)
    assert b.probs[0] == 0.0 and b.probs[1] == 0.0


def test_update_invariant_to_uniform_rescaling_of_the_density(steering):
    # raising the discount multiplies every q value at fixed s by the same
    # constant, which Bayes normalization removes
    heavier = P.table_model(
        states=[-2.0, 0.0, 2.0],
        cost_table=[(-2.0, 10.0), (-1.5, 0.0), (1.5, 0.0), (2.0, 10.0)],
        kernel_table=[(-2.0, 1.0, 0.0, 0.0), (-1.5, 0.0, 1.0, 0.0),
                      (1.5, 0.0, 1.0, 0.0), (2.0, 0.0, 0.0, 1.0)],
        hazard=1.0,
        noise_offsets=[-1.0, 0.0, 1.0],
        noise_weights=[1 / 3, 1 / 3, 1 / 3],
        discount=2.0,
    )
    r = P.RelaxedControl.constant(1.0)
    for s, x in ((0.4, 0.0), (1.2, 1.0)):
        b1 = P.update(steering, [0.2, 0.5, 0.3], r, s, x)
        b2 = P.update(heavier, [0.2, 0.5, 0.3], r, s, x)
        assert np.allclose(b1.probs, b2.probs, atol=1e-13)


def test_update_unnormalized_map_is_linear_in_the_prior(steering):
    r = P.RelaxedControl.constant(-1.0)
    rho1 = np.array([0.6, 0.3, 0.1])
    rho2 = np.array([0.1, 0.2, 0.7])
    alpha, s, x = 0.3, 0.8, -1.0
    mix = alpha * rho1 + (1 - alpha) * rho2
    d1 = sum(rho1[i] * P.q_tilde_sx(steering, s, x, i, r) for i in range(3))
    d2 = sum(rho2[i] * P.q_tilde_sx(steering, s, x, i, r) for i in range(3))
    b1 = P.update(steering, rho1, r, s, x).probs
    b2 = P.update(steering, rho2, r, s, x).probs
    expected = (alpha * d1 * b1 + (1 - alpha) * d2 * b2) / (alpha * d1 + (1 - alpha) * d2)
    got = P.update(steering, mix, r, s, x).probs
    assert np.allclose(got, expected, atol=1e-12)


def test_update_depends_on_the_control_only_through_the_flow(steering):
    # uncontrolled hazard and kernel: a mixture with the same mean action
    # induces the same flow, hence the same posterior
    dirac = P.RelaxedControl.constant(0.4)
    spread = P.RelaxedControl.constant(P.ActionMixture.of([(0.2, 0.5), (0.6, 0.5)]))
    for s, x in ((0.3, 0.0), (1.1, 1.0), (4.2, 2.0)):
        b1 = P.update(steering, [0.4, 0.3, 0.3], dirac, s, x)
        b2 = P.update(steering, [0.4, 0.3, 0.3], spread, s, x)
        assert np.allclose(b1.probs, b2.probs, atol=1e-12)


# ---------------------------------------------------------------------------
# regularized updates


def test_regularized_update_converges_to_the_plain_one(steering):
    r = P.RelaxedControl.constant(1.0)
    rho = [0.5, 0.2, 0.3]
    s, x = 0.7, 1.0
    plain = P.update(steering, rho, r, s, x).probs
    gaps = []
    for sigma in (0.1, 0.05, 0.025):
        reg = P.update_regularized(steering, rho, r, s, x,
                                   P.RegularizationKernel("gaussian", sigma)).probs
        gaps.append(np.abs(reg - plain).max())
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.02


def test_regularized_update_keeps_forced_support(steering):
    for sigma in (0.3, 0.1, 0.02):
        b = P.update_regularized(steering, [0.0, 1.0, 0.0], P.RelaxedControl.constant(0.0),
                                 0.8, 1.0, P.RegularizationKernel("gaussian", sigma))
        assert np.array_equal(b.probs, [0.0, 1.0, 0.0])


def test_regularized_update_single_state_model():
    m = P.table_model(
        states=[0.0],
        cost_table=[(-1.0, 1.0), (1.0, 1.0)],
        kernel_table=[(-1.0, 1.0), (1.0, 1.0)],
        hazard=1.0,
        noise_offsets=[0.0],
        noise_weights=[1.0],
    )
    b = P.update_regularized(m, [1.0], P.RelaxedControl.constant(0.0), 0.5, 0.0,
                             P.RegularizationKernel("epanechnikov", 0.2))
    assert np.array_equal(b.probs, [1.0])


def test_regularization_kernels_integrate_to_one():
    for kind, sigma in (("gaussian", 0.17), ("epanechnikov", 0.42)):
        k = P.RegularizationKernel(kind, sigma)
        xs = np.linspace(-k.halfwidth, k.halfwidth, 20001)
        total = trapezoid(k.density(xs), xs)  # np.trapezoid needs numpy 2
        assert total == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# the belief recursion


def test_filter_trajectory_empty_events(steering):
    out = P.filter_trajectory(steering, -2.0, [])
    assert len(out) == 1
    assert np.array_equal(out[0].probs, [1.0, 0.0, 0.0])


def test_filter_trajectory_composed_example(steering_uniform_q0):
    events = [(P.RelaxedControl.constant(1.0), 0.5, 2.0)]
    out = P.filter_trajectory(steering_uniform_q0, 0.0, events)
    assert np.allclose(out[0].probs, [1 / 3, 1 / 3, 1 / 3])
    assert np.array_equal(out[1].probs, [0.0, 0.0, 1.0])


def test_filter_trajectory_reports_event_index(steering_uniform_q0):
    ok = (P.RelaxedControl.constant(1.0), 0.5, 2.0)
    bad = (P.RelaxedControl.constant(0.0), 0.5, -3.0)
    with pytest.raises(P.ImpossibleObservationError, match="event 1"):
        P.filter_trajectory(steering_uniform_q0, 0.0, [ok, bad])


def test_initial_belief_is_the_filters_first_belief(steering, steering_uniform_q0):
    assert np.array_equal(P.initial_belief(steering, -2.0).probs, [1.0, 0.0, 0.0])
    assert np.array_equal(P.initial_belief(steering, 1.0).probs, [0.0, 0.5, 0.5])
    events = [(P.RelaxedControl.constant(1.0), 0.5, 2.0)]
    assert np.array_equal(P.filter_trajectory(steering, 1.0, events)[0].probs,
                          P.initial_belief(steering, 1.0).probs)
    # an observation no state can emit, even where Q_0 ignores the observation
    with pytest.raises(P.ImpossibleObservationError):
        P.initial_belief(steering, 0.5)
    with pytest.raises(P.ImpossibleObservationError):
        P.initial_belief(steering_uniform_q0, np.inf)


def test_an_unreachable_initial_observation_raises_whatever_the_initial_kernel(
        steering_uniform_q0):
    # x0 = 0.5 is no state plus a noise offset; the uniform and explicit
    # initial kernels ignore x0, so the check cannot be left to them
    with pytest.raises(P.ImpossibleObservationError, match="unreachable"):
        P.initial_belief(steering_uniform_q0, 0.5)
    explicit = P.particle_steering_model(q0=[0.2, 0.3, 0.5])
    with pytest.raises(P.ImpossibleObservationError, match="unreachable"):
        P.evaluate_policy_mc(explicit, 0.5, P.RelaxedControl.constant(0.0), 10, seed=1)


def test_non_finite_observations_match_no_noise_offset(steering):
    # an infinite observation-minus-state difference used to get an infinite
    # match tolerance, and so matched the first offset of every state
    assert steering.noise.density([[np.inf], [-np.inf], [np.nan]]).tolist() == [0.0] * 3
    r = P.RelaxedControl.constant(0.0)
    for x in (np.inf, -np.inf):
        with pytest.raises(P.ImpossibleObservationError):
            steering.initial_kernel(np.array([x]))
        with pytest.raises(P.ImpossibleObservationError, match="event 0"):
            P.filter_trajectory(steering, 0.0, [(r, 0.5, x)])
        with pytest.raises(P.ImpossibleObservationError):
            P.evaluate_policy_mc(steering, x, r, 200, seed=1)


def test_an_observation_must_match_the_state_dimension(steering):
    # a 2-vector broadcast against the one-dimensional states and was
    # silently accepted everywhere
    r = P.RelaxedControl.constant(0.0)
    x = [0.0, 0.0]
    calls = [
        lambda: P.initial_belief(steering, x),
        lambda: P.update(steering, [0.0, 1.0, 0.0], r, 0.5, x),
        lambda: P.q_tilde(steering, 0.5, 1, x, 1, r),
        lambda: P.filter_trajectory(steering, 0.0, [(r, 0.5, x)]),
        lambda: P.filter_trajectory(steering, x, []),
        lambda: P.evaluate_policy_mc(steering, x, r, 10, seed=1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="dimension"):
            call()


@pytest.mark.parametrize("kernel", [None, P.RegularizationKernel("gaussian", 0.1)],
                         ids=["exact", "regularized"])
def test_every_event_check_names_its_event(steering, kernel):
    # only s <= 0 and a zero likelihood used to name the failing event
    r = P.RelaxedControl.constant(0.0)
    ok = (r, 0.5, 0.0)
    bad_events = [(r, np.nan, 0.0), (r, np.inf, 0.0), (P.RelaxedControl.constant(2.0), 0.5, 0.0),
                  (P.RelaxedControl.constant(np.nan), 0.5, 0.0), (r, 0.5, np.nan),
                  (r, 0.5, -np.inf)]
    for bad in bad_events:
        with pytest.raises(ValueError, match="^event 1: "):
            P.filter_trajectory(steering, 0.0, [ok, bad, ok], kernel=kernel)


def steering_regularized_closed_form(x0, events, sigma):
    """Regularized filter of the steering model written out by hand: unit
    hazard and discount, so the jump density from y_i at time u is
    e^{-2u} Q(y_i + displacement(u), y_j) p(x - y_j), with the jump kernel Q
    linear between its plateaus e_1 (below -2), e_2 (on [-1.5, 1.5]) and
    e_3 (above 2) and p uniform on the offsets {-1, 0, 1}; the time argument
    is smoothed by the gaussian of bandwidth sigma, truncated at five
    bandwidths and at zero, by composite Simpson with step at most
    min(sigma / 8, 0.02) over at least 8 panels."""
    states = np.array([-2.0, 0.0, 2.0])

    def noise(x):
        off = x - states
        return np.where(np.isin(off, [-1.0, 0.0, 1.0]), 1.0 / 3.0, 0.0)

    mu = noise(x0) / noise(x0).sum()
    out = [mu]
    for control, s, x in events:
        lo, hi = max(0.0, s - 5.0 * sigma), s + 5.0 * sigma
        npan = max(8, 2 * math.ceil((hi - lo) / (2.0 * min(sigma / 8.0, 0.02))))
        u = np.linspace(lo, hi, npan + 1)
        simpson = np.full(npan + 1, 2.0)
        simpson[1::2] = 4.0
        simpson[0] = simpson[-1] = 1.0
        gauss = np.exp(-0.5 * ((s - u) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        coeff = simpson * (hi - lo) / npan / 3.0 * gauss
        starts = np.array([0.0, *control.breaks])
        ends = np.append(starts[1:], np.inf)
        shift = sum(mix.mean_action()[0] * np.clip(u - a, 0.0, b - a)
                    for a, b, mix in zip(starts, ends, control.pieces))
        pos = states[None, :] + shift[:, None]                   # (node, i)
        left = np.clip((-1.5 - pos) / 0.5, 0.0, 1.0)
        right = np.clip((pos - 1.5) / 0.5, 0.0, 1.0)
        kern = np.stack([left, 1.0 - left - right, right], axis=-1)  # (node, i, j)
        numer = np.einsum("k,i,kij->j", coeff * np.exp(-2.0 * u), mu, kern) * noise(x)
        mu = numer / numer.sum()
        out.append(mu)
    return np.array(out)


def test_regularized_filter_trajectory_matches_the_closed_form(steering):
    # observations +-1 are explained by two states, and positions that
    # cross 1.5 or -1.5 split the kernel, so the beliefs stay mixed
    mix = P.ActionMixture.of([(1.0, 0.25), (-1.0, 0.75)])
    events = [
        (P.RelaxedControl.constant(-1.0), 0.4, 1.0),
        (P.RelaxedControl.constant(-0.5), 0.6, 1.0),
        (P.switch_control(1.0, 0.5), 1.0, 1.0),
        (P.RelaxedControl.from_pieces([(0.0, mix), (0.6, 0.5)]), 0.5, -1.0),
        (P.RelaxedControl.constant(-1.0), 1.7, -1.0),
    ]
    for sigma in (0.1, 0.03):
        beliefs = P.filter_trajectory(steering, 1.0, events,
                                      kernel=P.RegularizationKernel("gaussian", sigma))
        ref = steering_regularized_closed_form(1.0, events, sigma)
        assert np.abs(np.array([b.probs for b in beliefs]) - ref).max() <= 1e-9
        assert np.count_nonzero(ref.max(axis=1) < 0.99) >= 4


def test_filter_matches_simulated_conditional_frequencies(steering_uniform_q0):
    m = steering_uniform_q0
    r = P.RelaxedControl.constant(1.0)
    ss, yy, xx, mu1 = P.sample_first_jumps(m, r, 20_000, seed=17, x0=0.0)
    # spot-check the engine posterior against the reference update
    for i in range(0, 20_000, 977):
        ref = P.update(m, [1 / 3, 1 / 3, 1 / 3], r, float(ss[i]), xx[i]).probs
        assert np.allclose(mu1[i], ref, atol=1e-9)
    # the posterior is a conditional law: E[1{Y=y} - mu(y)] = 0 per component
    for comp in range(3):
        diff = (yy == comp).astype(float) - mu1[:, comp]
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        assert abs(diff.mean()) < 4 * max(se, 1e-12)


def test_all_states_hazard_integral_matches_lambda_path():
    m = P.table_model(
        states=[-2.0, 0.0, 2.0],
        cost_table=[(-2.0, 1.0), (2.0, 1.0)],
        kernel_table=[(-2.0, 1.0, 0.0, 0.0), (2.0, 0.0, 0.0, 1.0)],
        hazard=[(-2.0, 0.8), (0.5, 1.9), (2.0, 1.2)],
        noise_offsets=[0.0],
        noise_weights=[1.0],
    )
    r = P.RelaxedControl.from_pieces([
        (0.0, P.ActionMixture.of([(1.0, 0.3), (-0.5, 0.7)])), (0.37, -1.0), (1.1, 0.5),
    ])
    ts = np.linspace(0.25, 1.75, 41)  # the node layout of a regularized update
    together = _lambda_lists(m, m.post_jump_states, r, [ts])
    for i, y in enumerate(m.post_jump_states):
        assert np.abs(together[i] - P.lambda_path(m, y, r, ts)).max() <= 1e-13


# ---------------------------------------------------------------------------
# the batched filter against the per-event update it replaced
#
# The oracle below evaluates q-tilde for one event at a time: its own
# Simpson node build per hazard integral, its own flows and ControlPath.
# filter_trajectory computes a block of events per control in one pass and
# must give the same beliefs bit for bit for closed-form flows.


def _oracle_simpson_nodes(control, cuts, h):
    cuts = np.asarray(cuts, dtype=float)
    spans = np.diff(cuts)
    npans = np.maximum(2, 2 * np.ceil(spans / (2.0 * h)).astype(np.int64))
    first = np.cumsum(npans + 1) - (npans + 1)
    seg = np.repeat(np.arange(spans.size), npans + 1)
    i = np.arange(seg.size) - first[seg]
    step = spans / npans
    nodes = i * step[seg] + cuts[seg]
    nodes[first + npans] = cuts[1:]
    pattern = np.where(i % 2 == 1, 4.0, 2.0)
    pattern[first] = pattern[first + npans] = 1.0
    weights = pattern * (step / 3.0)[seg]
    pieces = control.piece_index_at(0.5 * (cuts[:-1] + cuts[1:]))[seg]
    return nodes, weights, pieces, seg


def _oracle_lambda_paths(model, control, ts):
    k = model.n_states
    if ts[-1] == 0.0:
        return np.zeros((k, ts.size))
    t_end = float(ts[-1])
    cuts = np.unique(
        np.concatenate([[0.0, t_end], ts, [b for b in control.breaks if 0.0 < b < t_end]])
    )
    nodes, weights, pieces, seg = _oracle_simpson_nodes(control, cuts, H_QUAD)
    pos = np.stack([flow_path(model, y, control, nodes) for y in model.post_jump_states])
    lam = ControlPath(model, control, pos, pieces).hazard
    n_seg = cuts.size - 1
    bins = (np.arange(k)[:, None] * n_seg + seg).ravel()
    seg_int = np.bincount(bins, weights=(weights * lam).ravel(), minlength=k * n_seg)
    cum = np.cumsum(seg_int.reshape(k, n_seg), axis=1)
    return np.stack([np.interp(ts, cuts, np.concatenate([[0.0], c]), left=0.0) for c in cum])


def _oracle_qtilde(model, control, ts, x):
    egamma = np.exp(-model.discount * ts - _oracle_lambda_paths(model, control, ts))
    hk = ControlPath.from_post_jump_states(model, control, ts).kernel_rows
    out = np.ascontiguousarray((egamma[:, :, None] * hk).transpose(1, 0, 2))
    noisew = model.noise.density(np.asarray(x, dtype=float) - model.post_jump_states)
    return out * noisew[None, None, :]


def _oracle_filter(model, x0, events, kernel=None):
    mu = P.initial_belief(model, x0)
    out = [mu.probs]
    for control, s, x in events:
        if kernel is None:
            numer = mu.probs @ _oracle_qtilde(model, control, np.array([float(s)]), x)[0]
        else:
            w = kernel.halfwidth
            lo, hi = max(0.0, s - w), s + w
            step = min(kernel.sigma / 8.0, 0.02)
            npan = max(8, 2 * math.ceil((hi - lo) / (2.0 * step)))
            nodes = np.linspace(lo, hi, npan + 1)
            coeff = simpson_weights(npan, (hi - lo) / npan) * kernel.density(s - nodes)
            mats = _oracle_qtilde(model, control, nodes, x)
            numer = np.einsum("k,i,kij->j", coeff, mu.probs, mats)
        mu = P.Belief(numer / numer.sum())
        out.append(mu.probs)
    return np.array(out)


def kinked_model():
    """Three states; a hazard table kinked at -2, 0.5 and 2, and kernel rows
    that mix all three states, so every q-tilde entry carries the hazard."""
    return P.table_model(
        states=[-2.0, 0.0, 2.0],
        cost_table=[(-2.0, 1.0), (2.0, 1.0)],
        kernel_table=[(-2.0, 0.7, 0.2, 0.1), (0.3, 0.1, 0.6, 0.3), (2.0, 0.2, 0.1, 0.7)],
        hazard=[(-2.0, 0.8), (0.5, 1.9), (2.0, 1.2)],
        noise_offsets=[-1.0, 0.0, 1.0],
        noise_weights=[0.3, 0.4, 0.3],
    )


DIFF_KERNELS = {
    "exact": None,
    "gaussian": P.RegularizationKernel("gaussian", 0.1),
    "epanechnikov": P.RegularizationKernel("epanechnikov", 0.05),
}


def differential_log(model, n, seed):
    """A sampled log under switch and mixture controls whose breaks fall
    inside the regularization windows, then the edge cases: a jump exactly
    at a break, jumps within one halfwidth of zero (the window starts at 0),
    and a repeated (control, s) pair."""
    gen = np.random.default_rng(seed)
    mix = P.ActionMixture.of([(1.0, 0.25), (-1.0, 0.75)])
    controls = [P.switch_control(1.0, 0.5), P.switch_control(-1.0, 0.3),
                P.RelaxedControl.constant(0.5),
                P.RelaxedControl.from_pieces([(0.0, mix), (0.6, 0.5), (0.65, -0.3)])]
    y, events = 1, []
    for _ in range(n):
        control = controls[int(gen.integers(len(controls)))]
        s, y, x = P.sample_jump(model, y, control, gen)
        events.append((control, s, x))
    x = events[-1][2]
    events += [(controls[0], 0.5, x), (controls[3], 0.6, x), (controls[1], 0.04, x),
               (controls[2], 0.2, x), (controls[1], 0.04, x), events[3]]
    return events


@pytest.fixture(scope="module")
def differential_cases():
    steering = P.particle_steering_model(q0="uniform")
    kinked = kinked_model()
    return {"steering": (steering, differential_log(steering, 30, 5)),
            "kinked": (kinked, differential_log(kinked, 30, 6))}


def beliefs_of(model, x0, events, kernel):
    return np.array([b.probs for b in P.filter_trajectory(model, x0, events, kernel=kernel)])


@pytest.mark.parametrize("kind", sorted(DIFF_KERNELS))
@pytest.mark.parametrize("name", ["steering", "kinked"])
def test_batched_filter_matches_the_per_event_oracle_bit_for_bit(differential_cases, name,
                                                                   kind):
    model, events = differential_cases[name]
    kernel = DIFF_KERNELS[kind]
    want = _oracle_filter(model, 0.0, events, kernel)
    assert np.array_equal(beliefs_of(model, 0.0, events, kernel), want)
    for short in ([], events[:1], events[-1:]):
        assert np.array_equal(beliefs_of(model, 0.0, short, kernel),
                              _oracle_filter(model, 0.0, short, kernel))
    # the one-event updates are the same batch of one
    mu = P.Belief(want[-2])
    control, s, x = events[-1]
    one = (P.update(model, mu, control, s, x) if kernel is None
           else P.update_regularized(model, mu, control, s, x, kernel))
    assert np.array_equal(one.probs, want[-1])


@pytest.mark.parametrize("blocks", ["one event", "seven events"])
def test_block_size_does_not_move_the_beliefs(differential_cases, monkeypatch, blocks):
    model, events = differential_cases["kinked"]
    kernel = DIFF_KERNELS["gaussian"]
    budget = 1 if blocks == "one event" else sum(
        F._event(model, n, c, s, x, kernel).nodes for n, (c, s, x) in enumerate(events[:7]))
    sizes = []
    fill = F._fill_qtilde
    monkeypatch.setattr(F, "_NODE_BUDGET", budget)
    monkeypatch.setattr(F, "_fill_qtilde", lambda m, block: sizes.append(len(block))
                        or fill(m, block))
    got = beliefs_of(model, 0.0, events, kernel)
    assert sizes[0] == (1 if blocks == "one event" else 7)
    assert sum(sizes) == len(events) and len(sizes) > 1
    assert np.array_equal(got, _oracle_filter(model, 0.0, events, kernel))


def test_batched_filter_on_a_vector_field_drift_agrees_to_1e12():
    # RK4 knots follow the requested times, which a batch shares across
    # events, so only closed-form flows are bit for bit
    model = dataclasses.replace(kinked_model(), drift=P.velocity_field())
    mix = P.ActionMixture.of([(1.0, 0.25), (-1.0, 0.75)])
    events = [(P.switch_control(1.0, 0.5), 0.7, 1.0),
              (P.RelaxedControl.from_pieces([(0.0, mix), (0.6, 0.5)]), 0.9, -1.0),
              (P.switch_control(-1.0, 0.3), 0.2, 0.0), (P.switch_control(1.0, 0.5), 0.4, 1.0)]
    for kernel in (None, DIFF_KERNELS["epanechnikov"]):
        got = beliefs_of(model, 0.0, events, kernel)
        assert np.abs(got - _oracle_filter(model, 0.0, events, kernel)).max() <= 1e-12


def test_batched_filter_raises_at_the_first_failing_event_in_log_order(steering_uniform_q0):
    r = P.RelaxedControl.constant(0.0)
    impossible = (r, 0.5, 0.5)   # 0.5 is no state plus a noise offset
    for kernel in (None, DIFF_KERNELS["gaussian"]):
        # a zero likelihood at event 1 comes before a bad time at event 3
        with pytest.raises(P.ImpossibleObservationError, match="event 1"):
            P.filter_trajectory(steering_uniform_q0, 0.0,
                                [(r, 0.5, 0.0), impossible, (r, 0.5, 0.0), (r, 0.0, 0.0)],
                                kernel=kernel)
        with pytest.raises(ValueError, match="event 1: inter-jump time must be positive"):
            P.filter_trajectory(steering_uniform_q0, 0.0,
                                [(r, 0.5, 0.0), (r, -1.0, 0.0), impossible], kernel=kernel)
