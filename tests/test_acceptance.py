"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and asserts
the same condition, so the suite doubles as a checklist.  The heavyweight
solve (K=40, tolerance 1e-4) is shared through a session fixture; its wall
time includes building the per-candidate transition operators.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

import popdmp as P
from conftest import mirror_gap

N_MC = 100_000


def _check(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_substochastic_mass_identity(steering, ctx):
    t0 = time.perf_counter()
    grid = P.build_simplex_grid(3, 4)
    ones = P.ValueGrid.constant(grid, 1.0)
    worst = 0.0
    for control in (P.RelaxedControl.constant(0.0), P.switch_control(1.0, 0.5),
                    P.RelaxedControl.constant(-1.0)):
        for rho in ([1, 0, 0], [0.2, 0.5, 0.3]):
            m1 = P.transition_mass(steering, rho, control, ctx=ctx)
            m2 = P.expected_next_value(steering, ones, rho, control, ctx=ctx)
            worst = max(worst, abs(m1 - 0.5), abs(m2 - 0.5))
    ss, _, _, _ = P.sample_first_jumps(steering, P.RelaxedControl.constant(1.0),
                                       N_MC, seed=2024, y0=0)
    disc = np.exp(-steering.discount * ss)
    se = disc.std(ddof=1) / math.sqrt(N_MC)
    mc_gap = abs(disc.mean() - 0.5)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and mc_gap < 3 * se and elapsed < 10.0
    _check(
        "substochastic mass = 1/2",
        ok,
        f"quadrature gap {worst:.2e} (<1e-5), MC gap {mc_gap:.2e} vs 3se={3*se:.2e}, "
        f"{elapsed:.1f}s (<10s)",
    )


def test_filter_correctness(steering, steering_uniform_q0):
    t0 = time.perf_counter()
    b = P.update(steering, [1 / 3, 1 / 3, 1 / 3], P.RelaxedControl.constant(1.0), 0.5, 2.0)
    exact = bool(np.array_equal(b.probs, [0.0, 0.0, 1.0]))

    m = steering_uniform_q0
    control = P.RelaxedControl.constant(1.0)
    ss, yy, xx, mu1 = P.sample_first_jumps(m, control, N_MC, seed=515, x0=0.0)
    for i in range(0, N_MC, 9973):  # engine posterior vs reference update
        ref = P.update(m, [1 / 3, 1 / 3, 1 / 3], control, float(ss[i]), xx[i]).probs
        assert np.allclose(mu1[i], ref, atol=1e-9)
    worst_z = 0.0
    for comp in range(3):
        diff = (yy == comp).astype(float) - mu1[:, comp]
        se = diff.std(ddof=1) / math.sqrt(N_MC)
        worst_z = max(worst_z, abs(diff.mean()) / max(se, 1e-300))
    elapsed = time.perf_counter() - t0
    ok = exact and worst_z < 3.0 and elapsed < 30.0
    _check(
        "filter correctness",
        ok,
        f"hand Bayes exact={exact}, conditional-frequency worst |z|={worst_z:.2f} (<3), "
        f"{elapsed:.1f}s (<30s)",
    )


def test_regularization_convergence(steering):
    rng = np.random.default_rng(20260810)
    controls = [P.RelaxedControl.constant(1.0), P.RelaxedControl.constant(-1.0),
                P.switch_control(1.0, 0.3), P.switch_control(-1.0, 0.7)]
    xs = np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
    probes = []
    while len(probes) < 50:
        rho = rng.dirichlet(np.ones(3))
        control = controls[rng.integers(len(controls))]
        s = rng.uniform(0.2, 1.8)
        x = float(xs[rng.integers(xs.size)])
        try:
            plain = P.update(steering, rho, control, s, x).probs
        except P.ImpossibleObservationError:
            continue
        probes.append((rho, control, s, x, plain))
    gaps = []
    for sigma in (0.2, 0.1, 0.05):
        kern = P.RegularizationKernel("gaussian", sigma)
        gap = 0.0
        for rho, control, s, x, plain in probes:
            reg = P.update_regularized(steering, rho, control, s, x, kern).probs
            gap = max(gap, float(np.abs(reg - plain).max()))
        gaps.append(gap)
    r1 = gaps[1] / gaps[0]
    r2 = gaps[2] / gaps[1]
    ok = r1 <= 0.7 and r2 <= 0.7
    _check(
        "regularized filter converges",
        ok,
        f"sup gaps {gaps[0]:.4f} -> {gaps[1]:.4f} -> {gaps[2]:.4f}, "
        f"halving ratios {r1:.2f}, {r2:.2f} (<=0.7)",
    )


def test_value_iteration_criteria(steering, solved40):
    grid, vg, report, _, elapsed = solved40
    ratios = [b / a for a, b in zip(report.residuals, report.residuals[1:]) if a > 0]
    max_ratio = max(ratios) if ratios else 0.0
    v010 = vg.values[grid.vertex_index([0, grid.subdivisions, 0])]
    sym = mirror_gap(grid, vg.values)
    ok = (
        report.converged
        and report.iterations <= 30
        and max_ratio <= 0.6
        and report.final_residual < 2e-4
        and vg.values.min() >= 0.0
        and vg.values.max() <= 10.0 + 1e-9
        and v010 < 2e-3
        and sym < 5e-3
        and elapsed < 300.0
    )
    _check(
        "value iteration fixed point",
        ok,
        f"{report.iterations} iters (<=30), max ratio {max_ratio:.3f} (<=0.6), "
        f"|TV-V|={report.final_residual:.2e} (<2e-4), range [{vg.values.min():.2g}, "
        f"{vg.values.max():.4g}] (within [0,10]), V(0,1,0)={v010:.2e} (<2e-3), "
        f"symmetry {sym:.2e} (<5e-3), {elapsed:.0f}s (<300s)",
    )


def test_optimal_policy_reproduction(family, solved40):
    grid, vg, _, _, _ = solved40
    violations = 0
    checked = 0
    for p, k in zip(grid.points, vg.argmins):
        gap = p[0] - p[2]
        if abs(gap) <= 0.1:
            continue
        checked += 1
        control = family[int(k)]
        want = 1.0 if gap > 0 else -1.0
        good = (
            len(control.pieces) == 2
            and control.pieces[0].actions == ((want,),)
            and 0.4 <= control.breaks[0] <= 0.6
            and control.pieces[1].actions == ((0.0,),)
        )
        violations += not good
    ok = violations == 0 and checked > 600
    _check(
        "bang policy with switch near 1/2",
        ok,
        f"{checked} decisive beliefs checked, {violations} violations "
        f"(switch time within [0.4, 0.6], then coast)",
    )


def _mirror_candidates(family):
    """Index of each candidate's mirror image (every action negated)."""
    def flip(c):
        return P.RelaxedControl(
            pieces=tuple(P.ActionMixture(actions=tuple(tuple(-v for v in a) for a in p.actions),
                                         weights=p.weights) for p in c.pieces),
            breaks=c.breaks)
    cands = list(family)
    return np.array([cands.index(flip(c)) for c in cands])


def test_argmin_mirror_symmetry(family, solved40):
    grid, vg, _, _, _ = solved40
    K = grid.subdivisions
    mirror = np.array([grid.vertex_index(np.rint(p[::-1] * K).astype(np.int64))
                       for p in grid.points])
    mk = _mirror_candidates(family)
    a = vg.argmins
    diag = grid.points[:, 0] == grid.points[:, 2]
    # off the diagonal the reversed belief takes the mirrored candidate; on
    # it the mirror pair ties and the tie rule takes the lower index
    off_bad = int(np.sum(mk[a[~diag]] != a[mirror[~diag]]))
    diag_bad = int(np.sum(a[diag] > mk[a[diag]]))
    ok = off_bad == 0 and diag_bad == 0
    _check(
        "argmins mirror-symmetric",
        ok,
        f"{off_bad} of {int((~diag).sum())} off-diagonal beliefs without the mirrored "
        f"candidate, {diag_bad} of {int(diag.sum())} diagonal beliefs not on the lower "
        f"index of their mirror pair",
    )


def test_reduction_equivalence(steering, family, solved40):
    t0 = time.perf_counter()
    _, vg, _, _, _ = solved40
    policy = P.extract_policy(vg, family)
    details = []
    ok = True
    for x0 in (-2.0, 0.0, 2.0):
        mu0 = steering.initial_kernel(np.array([x0]))
        v = P.interpolate(vg, mu0 / mu0.sum())
        mc, se = P.evaluate_policy_mc(steering, x0, policy, N_MC, seed=int(3000 + x0))
        gap = abs(mc - v)
        tol = 3 * se + 0.02
        ok = ok and gap <= tol
        details.append(f"x0={x0:+.0f}: |{mc:.4f}-{v:.4f}|={gap:.4f} (<= {tol:.4f})")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _check("continuous-time cost matches solved value", ok,
           "; ".join(details) + f"; {elapsed:.0f}s (<120s)")


def test_degenerate_single_state_closed_form():
    m = P.table_model(
        states=[0.0],
        cost_table=[(-1.0, 2.0), (1.0, 2.0)],
        kernel_table=[(-1.0, 1.0), (1.0, 1.0)],
        hazard=3.0,
        noise_offsets=[0.0],
        noise_weights=[1.0],
    )
    grid = P.build_simplex_grid(1, 1)
    fam = P.ControlFamily((P.RelaxedControl.constant(0.0),))
    vg, report = P.value_iteration(m, grid, fam, tol=1e-5)
    # stage cost 2/(1+3) plus mass 3/4 of the value again: V = 2 = cost/discount
    gap = abs(vg.values[0] - 2.0)
    ok = report.converged and gap < 1e-4
    _check("one-state closed form", ok, f"V={vg.values[0]:.6f} vs 2, gap {gap:.2e} (<1e-4)")


def test_property_suites(steering, ctx, solved40):
    grid40, vg40, _, sweep, _ = solved40
    rng = np.random.default_rng(99)

    # filter outputs normalize
    r = P.RelaxedControl.from_pieces([(0.0, 1.0), (0.6, -1.0)])
    norm_ok = True
    for _ in range(40):
        rho = rng.dirichlet(np.ones(3))
        b = P.update(steering, rho, r, rng.uniform(0.05, 2.0),
                     float(rng.choice([-1.0, 0.0, 1.0])))
        norm_ok = norm_ok and abs(b.probs.sum() - 1.0) < 1e-10 and (b.probs >= 0).all()

    # stage cost is affine in the belief
    rho1, rho2 = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
    lhs = P.stage_cost_belief(steering, 0.5 * rho1 + 0.5 * rho2, r, ctx=ctx)
    rhs = 0.5 * (P.stage_cost_belief(steering, rho1, r, ctx=ctx)
                 + P.stage_cost_belief(steering, rho2, r, ctx=ctx))
    affine_ok = abs(lhs - rhs) < 1e-12

    # Bellman operator: monotone and a 1/2-contraction on the grid
    q = steering.hazard_bounds[1] / (steering.discount + steering.hazard_bounds[0])
    contr_ok = mono_ok = True
    for _ in range(2):
        v = rng.uniform(0.0, 10.0, grid40.n_points)
        w = rng.uniform(0.0, 10.0, grid40.n_points)
        tv, _ = sweep.bellman(v)
        tw, _ = sweep.bellman(w)
        contr_ok = contr_ok and np.abs(tv - tw).max() <= q * np.abs(v - w).max() + 1e-9
        up, _ = sweep.bellman(np.maximum(v, w))
        mono_ok = mono_ok and (up >= tv - 1e-9).all() and (up >= tw - 1e-9).all()

    # interpolation reproduces affine functions
    alpha = np.array([0.4, 1.2, 0.1])
    aff = P.ValueGrid(grid40, grid40.points @ alpha)
    beliefs = rng.dirichlet(np.ones(3), size=100)
    interp_ok = np.abs(P.interpolate_batch(aff, beliefs) - beliefs @ alpha).max() < 1e-12

    # simulator: exponential inter-jump law and observation marginal
    ss, _, xx, _ = P.sample_first_jumps(steering, P.RelaxedControl.constant(1.0),
                                        N_MC, seed=606, y0=1)
    ks = stats.kstest(ss, "expon").statistic
    ks_ok = ks < 1.628 / math.sqrt(N_MC)
    ts = np.linspace(0.0, 18.0, 721)
    w = np.full(721, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= 18.0 / 720 / 3.0
    rows = steering.jump_kernel(ts.reshape(-1, 1), np.array([1.0]))
    state_mass = w @ (np.exp(-ts)[:, None] * rows)
    xs, noisew = steering.observation_atoms()
    probs = noisew @ state_mass
    probs /= probs.sum()
    counts = np.array([(np.abs(xx[:, 0] - x) < 1e-9).sum() for x in xs[:, 0]])
    live = probs > 0
    chi_ok = bool(
        (counts[~live] == 0).all()
        and stats.chisquare(counts[live], probs[live] / probs[live].sum() * N_MC).pvalue > 0.01
    )

    ok = all([norm_ok, affine_ok, contr_ok, mono_ok, interp_ok, ks_ok, chi_ok])
    _check(
        "property suites",
        ok,
        f"filter normalization {norm_ok}, cost affinity {affine_ok}, contraction "
        f"{contr_ok}, monotonicity {mono_ok}, affine interpolation {interp_ok}, "
        f"KS {ks:.4f} (<{1.628 / math.sqrt(N_MC):.4f}), chi2 ok {chi_ok}",
    )
