import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import popdmp as P
import popdmp.solver as solver_module
from conftest import mirror_gap


def zero_cost_model():
    return P.table_model(
        states=[-2.0, 0.0, 2.0],
        cost_table=[(-2.0, 0.0), (2.0, 0.0)],
        kernel_table=[(-2.0, 1.0, 0.0, 0.0), (-1.5, 0.0, 1.0, 0.0),
                      (1.5, 0.0, 1.0, 0.0), (2.0, 0.0, 0.0, 1.0)],
        hazard=1.0,
        noise_offsets=[-1.0, 0.0, 1.0],
        noise_weights=[1 / 3, 1 / 3, 1 / 3],
    )


def small_family():
    return P.ControlFamily((
        P.RelaxedControl.constant(0.0),
        P.switch_control(1.0, 0.5),
        P.switch_control(-1.0, 0.5),
    ))


def test_zero_cost_model_converges_immediately():
    m = zero_cost_model()
    grid = P.build_simplex_grid(3, 5)
    vg, report = P.value_iteration(m, grid, small_family(), tol=1e-6)
    assert report.iterations == 1
    assert report.converged
    assert np.array_equal(vg.values, np.zeros(grid.n_points))


def test_value_iteration_is_monotone_from_zero(steering, solved15):
    _, _, _, sweep = solved15
    v = np.zeros(sweep.grid.n_points)
    for _ in range(6):
        nxt, _ = sweep.bellman(v)
        assert (nxt >= v - 1e-9).all()
        v = nxt


def test_fixed_point_residual(solved15):
    _, vg, report, _ = solved15
    assert report.converged
    assert report.final_residual < 2 * report.tol
    assert len(report.residuals) == report.iterations
    assert report.wall_time > 0


def test_value_bounds(steering, solved15):
    _, vg, _, _ = solved15
    bound = steering.cost_max / steering.discount
    assert vg.values.min() >= 0.0
    assert vg.values.max() <= bound + 1e-9


def test_reflection_symmetry(solved15):
    grid, vg, _, _ = solved15
    assert mirror_gap(grid, vg.values) < 5e-3


def test_non_convergence_is_flagged(steering, solved15):
    _, _, _, sweep = solved15
    vg, report = P.value_iteration(steering, sweep.grid, sweep.family,
                                   tol=1e-12, max_iter=3, sweep=sweep)
    assert not report.converged
    assert report.iterations == 3
    assert vg.values.max() > 0  # partial result still returned


def test_degenerate_single_state_value():
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
    # per-stage cost 2/(1+3), mass 3/4, geometric sum -> 2 = cost/discount
    assert report.converged
    assert vg.values[0] == pytest.approx(2.0, abs=1e-4)


def test_grid_refinement_stability(steering, family, solved40):
    grid40, vg40, _, _, _ = solved40
    grid20 = P.build_simplex_grid(3, 20)
    vg20, _ = P.value_iteration(steering, grid20, family, tol=1e-4)
    common = P.interpolate_batch(vg40, grid20.points)
    assert np.abs(common - vg20.values).max() < 0.05


# ---------------------------------------------------------------------------
# policy extraction


def test_extract_policy_requires_argmins(solved15):
    grid, vg, _, _ = solved15
    bare = P.ValueGrid(grid, vg.values)
    with pytest.raises(ValueError):
        P.extract_policy(bare, P.switching_family())


def test_extracted_policy_structure(solved15, family):
    grid, vg, _, _ = solved15
    policy = P.extract_policy(vg, family)
    checked = 0
    for p in grid.points:
        control = policy.control(p)
        if p[0] - p[2] > 0.1:
            assert control.pieces[0].actions == ((1.0,),)
            assert 0.4 <= control.breaks[0] <= 0.6
            assert control.pieces[1].actions == ((0.0,),)
            checked += 1
        elif p[2] - p[0] > 0.1:
            assert control.pieces[0].actions == ((-1.0,),)
            assert 0.4 <= control.breaks[0] <= 0.6
            assert control.pieces[1].actions == ((0.0,),)
            checked += 1
    assert checked > 50
    stay = policy.control(np.array([0.0, 1.0, 0.0]))
    assert stay.breaks == () and stay.pieces[0].actions == ((0.0,),)


def test_policy_reminimization(steering, solved15, family, ctx):
    grid, vg, _, _ = solved15
    policy = P.extract_policy(vg, family)
    val, k = P.T_operator(steering, vg, np.array([0.62, 0.2, 0.18]), policy.family, ctx=ctx)
    assert policy.family[k].pieces[0].actions == ((1.0,),)
    assert val == pytest.approx(P.interpolate(vg, np.array([0.62, 0.2, 0.18])), abs=5e-3)


# ---------------------------------------------------------------------------
# regularization sweep


def test_sigma_sweep_gap_shrinks(steering, family):
    grid = P.build_simplex_grid(3, 8)
    res = P.sigma_sweep(steering, grid, family, [0.2, 0.1, 0.05], tol=1e-4)
    gaps = [row.value_gap for row in res.rows]
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert res.rows[-1].argmin_agreement >= 0.9
    assert res.plain_report.converged


def test_sigma_sweep_huge_bandwidth_is_diagnostic_only(steering):
    grid = P.build_simplex_grid(3, 3)
    fam = small_family()
    res = P.sigma_sweep(steering, grid, fam, [2.0], tol=1e-3)
    assert len(res.rows) == 1
    assert np.isfinite(res.rows[0].value_gap)


def test_sigma_sweep_requires_decreasing_sigmas(steering, family):
    grid = P.build_simplex_grid(3, 3)
    with pytest.raises(ValueError):
        P.sigma_sweep(steering, grid, family, [0.1, 0.2])


def test_sigma_sweep_rejects_controlled_hazard():
    from test_mdp import controlled_hazard_model

    m = controlled_hazard_model()
    grid = P.build_simplex_grid(2, 3)
    fam = P.ControlFamily((P.RelaxedControl.constant(0.0),))
    with pytest.raises(ValueError):
        P.sigma_sweep(m, grid, fam, [0.1])


def five_candidates():
    return P.ControlFamily((
        P.RelaxedControl.constant(0.0),
        P.switch_control(1.0, 0.5),
        P.switch_control(-1.0, 0.5),
        P.RelaxedControl.constant(1.0),
        P.RelaxedControl.constant(-1.0),
    ))


def test_sigma_sweep_builds_each_stage_table_once(steering, monkeypatch):
    import popdmp.mdp as mdp

    built = []
    build = mdp.build_tables

    def counting_build(model, control, stage):
        built.append(control)
        return build(model, control, stage)

    monkeypatch.setattr(mdp, "build_tables", counting_build)
    family = five_candidates()
    P.sigma_sweep(steering, P.build_simplex_grid(3, 4), family, [0.2, 0.1, 0.05], tol=1e-3)
    assert len(built) == len(family)


def test_a_sweep_for_another_grid_or_family_is_rejected(steering):
    # a sweep's rows follow its own family order and grid, so a mismatched
    # one would silently solve or evaluate another problem
    family = five_candidates()
    grid = P.build_simplex_grid(3, 6)
    vg, _ = P.value_iteration(steering, grid, family, tol=1e-4)
    policy = P.extract_policy(vg, family)
    other = P.particle_steering_model()  # equal data, but another model
    mismatched = [P.BellmanSweep(steering, grid, P.ControlFamily(family.candidates[::-1])),
                  P.BellmanSweep(steering, P.build_simplex_grid(3, 5), family),
                  P.BellmanSweep(other, grid, family)]
    for sweep in mismatched:
        with pytest.raises(ValueError, match="built"):
            P.value_iteration(steering, grid, family, tol=1e-4, sweep=sweep)
        with pytest.raises(ValueError, match="built"):
            P.cross_check(steering, policy, [-2.0, 0.0], n_traj=20, seed=1, sweep=sweep)
    # so are stage tables built for another model, by a sweep and by the
    # point operators
    with pytest.raises(ValueError, match="another model"):
        P.BellmanSweep(steering, grid, family, ctx=P.StageContext(other))
    with pytest.raises(ValueError, match="another model"):
        P.stage_cost_g(steering, 0, family[0], ctx=P.StageContext(other))
    # an equal grid and family built separately are accepted
    same = P.BellmanSweep(steering, P.build_simplex_grid(3, 6), five_candidates())
    again, _ = P.value_iteration(steering, grid, family, tol=1e-4, sweep=same)
    assert np.array_equal(again.values, vg.values)
    checked = [P.cross_check(steering, policy, [-2.0], n_traj=20, seed=1, sweep=sweep).rows
               for sweep in (same, None)]
    assert checked[0] == checked[1]


def test_controlled_hazard_solves_with_mandatory_regularization():
    from test_mdp import controlled_hazard_model

    m = controlled_hazard_model()
    grid = P.build_simplex_grid(2, 8)
    fam = P.ControlFamily((
        P.RelaxedControl.constant(0.0),
        P.RelaxedControl.constant(1.0),
        P.switch_control(-1.0, 0.5),
    ))
    with pytest.raises(ValueError):
        P.value_iteration(m, grid, fam, tol=1e-4)
    sweep = P.BellmanSweep(m, grid, fam, kernel=P.RegularizationKernel("gaussian", 0.1))
    vg, report = P.value_iteration(m, grid, fam, tol=1e-4, sweep=sweep)
    assert report.converged
    assert vg.values.min() >= 0.0
    assert vg.values.max() <= m.cost_max / m.discount + 1e-9


# ---------------------------------------------------------------------------
# candidate builds on several cores


@pytest.mark.parametrize("case", ["steering", "steering-0.2", "four-state"])
def test_threaded_sweep_matches_the_one_worker_build(case, steering, monkeypatch):
    from test_mdp import assert_same_sweeps, four_state_model

    model = four_state_model() if case == "four-state" else steering
    kernel = P.RegularizationKernel("gaussian", 0.2) if case == "steering-0.2" else None
    family = five_candidates() if model is steering else P.switching_family(taus=[0.5, 1.0])
    grid = P.build_simplex_grid(model.n_states, 6 if case == "four-state" else 15)
    monkeypatch.setattr(solver_module, "_MIN_THREADED_POINTS", 0)
    built = {}
    for cores in (1, 2, 3):
        monkeypatch.setattr(solver_module, "_usable_cores", lambda: cores)
        built[cores] = P.BellmanSweep(model, grid, family, kernel=kernel,
                                      ctx=P.StageContext(model))
    assert_same_sweeps(built[2], built[1])
    assert_same_sweeps(built[3], built[1])


def test_small_plain_builds_run_on_the_calling_thread(steering, monkeypatch):
    monkeypatch.setattr(solver_module, "_usable_cores", lambda: 2)
    threads = []
    build = solver_module.transition_matrix

    def recording(*args):
        threads.append(threading.get_ident())
        time.sleep(0.01)
        return build(*args)

    monkeypatch.setattr(solver_module, "transition_matrix", recording)
    sigma = P.RegularizationKernel("gaussian", 0.2)
    for k, kernel, runners in ((15, None, 1), (16, None, 2), (15, sigma, 2)):  # 136, 153 points
        threads.clear()
        P.BellmanSweep(steering, P.build_simplex_grid(3, k), five_candidates(), kernel=kernel)
        assert len(threads) == 5 and len(set(threads)) == runners
        assert threading.get_ident() in threads


def test_candidate_tasks_keep_their_order_and_the_first_error():
    # three runners (more than the cores of a 2-core host) switching threads
    # as often as the interpreter allows: every item runs once, on up to
    # three threads, and its result lands at its own index
    def map3(fn, items):
        return solver_module._map_threaded(fn, items, 3)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        calls, threads = [], set()

        def square(k):
            calls.append(k)
            threads.add(threading.get_ident())
            time.sleep(0.001 if k < 12 else 0.0)
            return k * k

        assert map3(square, list(range(500))) == [k * k for k in range(500)]
        assert sorted(calls) == list(range(500))
        assert 1 < len(threads) <= 3
        assert map3(square, []) == []

        def fail_at_4_and_7(k):
            if k in (4, 7):
                time.sleep(0.05 if k == 4 else 0.0)
                raise ValueError(f"item {k}")
            return k

        # item 7 fails first, while item 4 is still running: the error is
        # item 4's, as in a serial loop
        for _ in range(5):
            with pytest.raises(ValueError, match="item 4"):
                map3(fail_at_4_and_7, list(range(12)))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_a_large_grid_builds_in_bounded_memory(tmp_path):
    # K=160 has 13041 grid points, so the dense (points x points) buffer the
    # build once filled per candidate held 13041**2 float64 = 1.36 GB,
    # far above the bound; row chunks and blocks hold about 2**17 cells
    # (1 MiB) each at a time, and the build read 231 MB with two runners.
    # The peak is the child's VmHWM: its ru_maxrss would start from this
    # process's peak, which a spawned child inherits
    src = Path(P.__file__).resolve().parent.parent
    code = (
        "import popdmp as P\n"
        "m = P.particle_steering_model()\n"
        "sweep = P.BellmanSweep(m, P.build_simplex_grid(3, 160), P.switching_family(taus=[0.5]))\n"
        "assert len(sweep.mats) == 5 and sweep.mats[0].shape == (13041, 13041)\n"
        "print([ln.split()[1] for ln in open('/proc/self/status') if ln.startswith('VmHWM')][0])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    peak_mb = int(out.stdout.split()[-1]) / 1024  # VmHWM is in kB
    assert peak_mb < 384


# ---------------------------------------------------------------------------
# csv emission


def test_csv_writers(tmp_path, solved15):
    _, vg, report, _ = solved15
    vpath = tmp_path / "value.csv"
    rpath = tmp_path / "report.csv"
    P.write_value_csv(vg, vpath)
    P.write_report_csv(report, rpath)
    lines = vpath.read_text().splitlines()
    assert lines[0] == "rho_1,rho_2,rho_3,value,argmin_index"
    assert len(lines) == vg.grid.n_points + 1
    rlines = rpath.read_text().splitlines()
    assert rlines[0] == "iteration,residual"
    assert len(rlines) == report.iterations + 1
