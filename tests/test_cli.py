import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import popdmp as P
from popdmp.cli import format_control, load_config, main, parse_control

FAST_SOLVER = {
    "grid_k": 4,
    "tol": 1.0e-3,
    "family": {"actions": [-1.0, 0.0, 1.0], "taus": [0.5, 1.0]},
    "quadrature": {"t_max": 8.0, "h": 0.05, "tail_tol": 1.0e-8},
}

INLINE_STEERING = {
    "states": [-2.0, 0.0, 2.0],
    "cost_table": [[-2.0, 10.0], [-1.5, 0.0], [1.5, 0.0], [2.0, 10.0]],
    "kernel_table": [
        [-2.0, 1.0, 0.0, 0.0],
        [-1.5, 0.0, 1.0, 0.0],
        [1.5, 0.0, 1.0, 0.0],
        [2.0, 0.0, 0.0, 1.0],
    ],
    "hazard": 1.0,
    "noise": {"offsets": [-1.0, 0.0, 1.0],
              "weights": [1 / 3, 1 / 3, 1 / 3]},
}


def write_cfg(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return str(path)


# ---------------------------------------------------------------------------
# control spec grammar


def test_control_spec_roundtrip():
    cases = [
        P.RelaxedControl.constant(0.0),
        P.RelaxedControl.constant(-1.0),
        P.switch_control(1.0, 0.5),
        P.RelaxedControl.from_pieces([(0.0, 1.0), (0.4, -0.25), (1.2, 0.0)]),
        P.RelaxedControl.constant(P.ActionMixture.of([(0.5, 0.25), (-0.5, 0.75)])),
    ]
    for control in cases:
        spec = format_control(control)
        assert parse_control(spec) == control


def test_control_spec_errors():
    from popdmp.cli import ConfigError

    with pytest.raises(ConfigError):
        parse_control("hold:1")
    with pytest.raises(ConfigError):
        parse_control("switch:1")


# ---------------------------------------------------------------------------
# config loading


def test_load_config_defaults_and_validation(tmp_path):
    cfg = load_config(write_cfg(tmp_path / "c.yaml", {}))
    assert cfg.resolved["model"]["builtin"] == "particle-steering"
    assert cfg.resolved["solver"]["grid_k"] == 40

    from popdmp.cli import ConfigError

    with pytest.raises(ConfigError, match="exactly one"):
        load_config(write_cfg(tmp_path / "c2.yaml",
                              {"model": {"builtin": "particle-steering",
                                         "inline": INLINE_STEERING}}))
    bad_kernel = dict(INLINE_STEERING)
    bad_kernel["kernel_table"] = [[-2.0, 0.5, 0.4, 0.0], [2.0, 0.0, 0.0, 1.0]]
    cfg_bad = load_config(write_cfg(tmp_path / "c3.yaml", {"model": {"inline": bad_kernel}}))
    with pytest.raises(ConfigError, match="sum to one"):
        cfg_bad.build_model()


def test_inline_defaults_are_applied_and_echoed(tmp_path):
    cfg = load_config(write_cfg(tmp_path / "c.yaml", {"model": {"inline": INLINE_STEERING}}))
    assert cfg.resolved["model"]["inline"]["discount"] == 1.0
    assert cfg.resolved["model"]["inline"]["q0"] == "bayes"
    model = cfg.build_model()
    assert model.discount == 1.0


def test_builtin_model_constants(tmp_path):
    cfg = load_config(write_cfg(tmp_path / "c.yaml", {}))
    model = cfg.build_model()
    assert model.hazard_bounds == (1.0, 1.0)
    assert model.discount == 1.0
    assert np.allclose(model.noise.offsets[:, 0], [-1.0, 0.0, 1.0])
    assert np.allclose(model.noise.weights, 1 / 3)
    assert np.allclose(model.post_jump_states[:, 0], [-2.0, 0.0, 2.0])


def test_config_error_paths(tmp_path):
    from popdmp.cli import ConfigError

    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.yaml")
    (tmp_path / "list.yaml").write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(tmp_path / "list.yaml")
    with pytest.raises(ConfigError, match="non-finite"):
        load_config(write_cfg(tmp_path / "nan.yaml", {"sim": {"x0": float("nan")}}))
    with pytest.raises(ConfigError, match=r"crosscheck\.observations\[1\] is non-finite"):
        load_config(write_cfg(tmp_path / "inf.yaml",
                              {"crosscheck": {"observations": [0.0, float("inf")]}}))
    with pytest.raises(ConfigError, match=r"solver\.tol is non-finite"):
        load_config(write_cfg(tmp_path / "ok.yaml", {}), {"solver": {"tol": float("inf")}})
    with pytest.raises(ConfigError, match="grid_k"):
        load_config(write_cfg(tmp_path / "bad.yaml", {"solver": {"grid_k": 0}}))


def test_example_command_prints_resolved_defaults(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["example"])
    assert result.exit_code == 0
    doc = yaml.safe_load(result.output)
    assert doc["model"]["builtin"] == "particle-steering"
    assert doc["solver"]["grid_k"] == 40
    assert doc["sim"]["seed"] == 20260810
    out_file = tmp_path / "cfg.yaml"
    result2 = runner.invoke(main, ["example", "--out", str(out_file)])
    assert result2.exit_code == 0
    assert yaml.safe_load(out_file.read_text()) == doc


# ---------------------------------------------------------------------------
# subcommands


def test_solve_writes_outputs_and_is_repeatable(tmp_path):
    cfg_path = write_cfg(tmp_path / "cfg.yaml", {
        "solver": FAST_SOLVER, "output": {"directory": str(tmp_path / "out")},
    })
    runner = CliRunner()
    result = runner.invoke(main, ["solve", "--config", cfg_path])
    assert result.exit_code == 0, result.output
    out = tmp_path / "out"
    for name in ("value.csv", "policy.csv", "report.csv", "resolved_config.yaml"):
        assert (out / name).exists()
    header = (out / "value.csv").read_text().splitlines()[0]
    assert header == "rho_1,rho_2,rho_3,value,argmin_index"
    first_echo = (out / "resolved_config.yaml").read_bytes()
    value_bytes = (out / "value.csv").read_bytes()
    result2 = runner.invoke(main, ["solve", "--config", cfg_path])
    assert result2.exit_code == 0
    assert (out / "resolved_config.yaml").read_bytes() == first_echo
    assert (out / "value.csv").read_bytes() == value_bytes


def test_solve_with_regularized_filter(tmp_path):
    cfg_path = write_cfg(tmp_path / "cfg.yaml", {
        "solver": dict(FAST_SOLVER, grid_k=3),
        "output": {"directory": str(tmp_path / "out")},
    })
    result = CliRunner().invoke(main, ["solve", "--config", cfg_path, "--sigma", "0.2"])
    assert result.exit_code == 0, result.output
    doc = yaml.safe_load((tmp_path / "out" / "resolved_config.yaml").read_text())
    assert doc["solver"]["sigma"] == 0.2


def test_solve_exit_code_on_non_convergence(tmp_path):
    solver = dict(FAST_SOLVER, max_iter=1, tol=1e-12)
    cfg_path = write_cfg(tmp_path / "cfg.yaml", {
        "solver": solver, "output": {"directory": str(tmp_path / "out")},
    })
    result = CliRunner().invoke(main, ["solve", "--config", cfg_path])
    assert result.exit_code == 2


def test_filter_command_replays_events(tmp_path):
    inline = dict(INLINE_STEERING, q0="uniform")
    cfg_path = write_cfg(tmp_path / "cfg.yaml", {
        "model": {"inline": inline},
        "output": {"directory": str(tmp_path / "out")},
    })
    events = tmp_path / "events.csv"
    events.write_text("r_piece_spec,s,x\nconst:1,0.5,2\n")
    result = CliRunner().invoke(
        main, ["filter", "--config", cfg_path, "--events", str(events), "--x0", "0"]
    )
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "out" / "beliefs.csv").read_text().splitlines()
    assert lines[0] == "step,mu_1,mu_2,mu_3"
    step0 = [float(v) for v in lines[1].split(",")[1:]]
    step1 = [float(v) for v in lines[2].split(",")[1:]]
    assert np.allclose(step0, [1 / 3, 1 / 3, 1 / 3])
    assert step1 == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("log, args, key", [
    # from x0 = -2 the particle stays on -2 under const:0, so x = 3 is impossible
    ("const:0,0.4,-2\nconst:0,0.4,3\n", ["--x0", "-2"], "event 1"),
    ("const:0,0.4,-2\nconst:0,0,-2\n", ["--x0", "-2"], "event 1"),
    # no state explains an observation halfway between the noise offsets
    ("const:0,0.4,-2\n", ["--x0", "0.5"], "--x0"),
    ("const:0,0.4,-2\n", ["--x0", "inf"], "--x0"),
    # each row is checked as it is read
    ("const:2,0.4,-2\n", ["--x0", "-2"], "event 0"),
    ("const:0,0.4,-2\nconst:nan,0.4,-2\n", ["--x0", "-2"], "event 1"),
    ("const:0,inf,-2\n", ["--x0", "-2"], "event 0"),
    ("const:0,0.4,inf\n", ["--x0", "-2"], "event 0"),
    ("const:0,0.4,-2\nconst:0,0.4,nan\n", ["--x0", "-2"], "event 1"),
    ("const:0,0.4,-2\nconst:0,0.4\n", ["--x0", "-2"], "event 1"),
], ids=["zero-likelihood", "non-positive-s", "unreachable-x0", "infinite-x0",
        "control-outside-the-box", "nan-action", "infinite-s", "infinite-x", "nan-x",
        "short-row"])
def test_filter_command_rejects_impossible_events(tmp_path, log, args, key):
    cfg_path = write_cfg(tmp_path / "cfg.yaml", {"output": {"directory": str(tmp_path / "out")}})
    events = tmp_path / "events.csv"
    events.write_text("r_piece_spec,s,x\n" + log)
    result = CliRunner().invoke(main, ["filter", "--config", cfg_path, "--events", str(events),
                                       *args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert key in result.output


def test_filter_command_rejects_a_missing_event_log(tmp_path):
    cfg_path = write_cfg(tmp_path / "cfg.yaml", {"output": {"directory": str(tmp_path / "out")}})
    result = CliRunner().invoke(main, ["filter", "--config", cfg_path,
                                       "--events", str(tmp_path / "missing.csv")])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "missing.csv" in result.output


def test_simulate_constant_policy(tmp_path):
    cfg_path = write_cfg(tmp_path / "cfg.yaml", {
        "solver": FAST_SOLVER,
        "sim": {"n_traj": 60, "seed": 7, "x0": -2.0,
                "policy": {"kind": "constant", "a": 0.0}, "record_trajectories": 2},
        "output": {"directory": str(tmp_path / "out")},
    })
    result = CliRunner().invoke(main, ["simulate", "--config", cfg_path])
    assert result.exit_code == 0, result.output
    ev = (tmp_path / "out" / "evaluation.csv").read_text().splitlines()
    assert ev[0] == "x0,n_traj,seed,mean_cost,stderr"
    mean = float(ev[1].split(",")[3])
    assert mean > 5.0  # parked on the expensive plateau
    tr = (tmp_path / "out" / "trajectories.csv").read_text().splitlines()
    assert tr[0] == "traj,n,T_n,Y_n,X_n,segment_cost"
    assert len(tr) > 4


def test_crosscheck_command(tmp_path):
    cfg_path = write_cfg(tmp_path / "cfg.yaml", {
        "solver": FAST_SOLVER,
        "sim": {"n_traj": 300, "seed": 11},
        "crosscheck": {"observations": [0.0]},
        "output": {"directory": str(tmp_path / "out")},
    })
    result = CliRunner().invoke(main, ["crosscheck", "--config", cfg_path])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "out" / "zscores.csv").read_text().splitlines()
    assert lines[0] == "x0,mc_mean,stderr,mdp_value,z"
    row = lines[1].split(",")
    assert float(row[1]) == 0.0 and float(row[4]) == 0.0


def test_sweep_command(tmp_path):
    cfg_path = write_cfg(tmp_path / "cfg.yaml", {
        "solver": dict(FAST_SOLVER, tol=1e-3),
        "sweep": {"sigmas": [0.4, 0.2], "grid_k": 3},
        "output": {"directory": str(tmp_path / "out")},
    })
    result = CliRunner().invoke(main, ["sweep", "--config", cfg_path])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "out" / "sigma_sweep.csv").read_text().splitlines()
    assert lines[0] == "sigma,value_gap,argmin_agreement"
    assert len(lines) == 3


def test_cli_overrides_change_resolved_echo(tmp_path):
    cfg_path = write_cfg(tmp_path / "cfg.yaml", {
        "solver": FAST_SOLVER, "output": {"directory": str(tmp_path / "out")},
    })
    result = CliRunner().invoke(
        main, ["solve", "--config", cfg_path, "--grid-k", "3", "--seed", "123"]
    )
    assert result.exit_code == 0, result.output
    doc = yaml.safe_load((tmp_path / "out" / "resolved_config.yaml").read_text())
    assert doc["solver"]["grid_k"] == 3
    assert doc["sim"]["seed"] == 123


def test_crosscheck_builds_the_operator_once(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path / "cfg.yaml", {
        "solver": FAST_SOLVER,
        "sim": {"n_traj": 300, "seed": 11},
        "crosscheck": {"observations": [-2.0, 0.0]},
        "output": {"directory": str(tmp_path / "out")},
    })
    builds = []
    build = P.BellmanSweep.__init__

    def counting_build(self, *args, **kwargs):
        builds.append(args)
        build(self, *args, **kwargs)

    monkeypatch.setattr(P.BellmanSweep, "__init__", counting_build)
    result = CliRunner().invoke(main, ["crosscheck", "--config", cfg_path])
    assert result.exit_code == 0, result.output
    assert len(builds) == 1
    monkeypatch.undo()

    # the library route, with one operator for the solve and the cross-check
    model = P.particle_steering_model()
    family = P.switching_family(taus=[0.5, 1.0])
    grid = P.build_simplex_grid(3, 4)
    stage = P.StageQuadrature(t_max=8.0, h=0.05)
    sweep = P.BellmanSweep(model, grid, family, ctx=P.StageContext(model, stage))
    vg, _ = P.value_iteration(model, grid, family, tol=1e-3, sweep=sweep)
    report = P.cross_check(model, P.extract_policy(vg, family), [-2.0, 0.0], n_traj=300, seed=11,
                           horizon=P.default_horizon(model), sweep=sweep)
    expected = ["x0,mc_mean,stderr,mdp_value,z"] + [
        ",".join(f"{v:.9g}" for v in (r.x0, r.mc_mean, r.stderr, r.mdp_value, r.z))
        for r in report.rows
    ]
    assert (tmp_path / "out" / "zscores.csv").read_text().splitlines() == expected


@pytest.mark.parametrize("command, doc, args, key", [
    ("simulate", {}, ["--seed", "-1"], "sim.seed"),
    ("simulate", {"sim": {"seed": -5}}, [], "sim.seed"),
    ("sweep", {"sweep": {"grid_k": 0}}, [], "sweep.grid_k"),
    ("sweep", {"sweep": {"sigmas": [0.1, 0.2], "grid_k": 3}}, [], "sweep.sigmas"),
    ("sweep", {"sweep": {"sigmas": [0.2, -0.1], "grid_k": 3}}, [], "sweep.sigmas"),
    ("sweep", {"sweep": {"sigmas": 0.1, "grid_k": 3}}, [], "sweep.sigmas"),
    ("simulate", {"sim": {"x0": 0.5}}, [], "sim.x0"),
    ("crosscheck", {"crosscheck": {"observations": [0.0, 0.5]}}, [], "crosscheck.observations"),
    ("simulate", {"sim": {"horizon": -1.0}}, [], "sim.horizon"),
    ("sweep", {"solver": dict(FAST_SOLVER, kernel="box"), "sweep": {"grid_k": 3}}, [],
     "solver.kernel"),
    ("solve", {"solver": dict(FAST_SOLVER, quadrature={"h": 0})}, [], "solver.quadrature"),
    ("solve", {"solver": dict(FAST_SOLVER, family={"actions": [2.0]})}, [],
     "solver.family.actions"),
    ("solve", {"solver": dict(FAST_SOLVER, family={"taus": {"start": 0.1, "stop": 0.5,
                                                            "step": 0}})}, [],
     "solver.family.taus"),
    ("solve", {"solver": dict(FAST_SOLVER, family={"taus": {"start": 0.5, "stop": 0.1,
                                                            "step": 0.1}})}, [],
     "solver.family.taus"),
    ("solve", {}, ["--sigma", "abc"], "solver.sigma"),
    ("solve", {}, ["--sigma", "inf"], "solver.sigma"),
    ("solve", {}, ["--tol", "inf"], "solver.tol"),
    *[("simulate", {"sim": {"workers": bad}}, [], "sim.workers")
      for bad in (0, -1, 1.5, "abc", True)],
    ("simulate", {}, ["--workers", "0"], "sim.workers"),
    ("simulate", {}, ["--workers", "abc"], "sim.workers"),
    ("simulate", {"sim": {"policy": {"kind": "constant", "a": 2.0}}}, [], "sim.policy"),
    ("simulate", {"sim": {"policy": {"kind": "switch", "a": -3.0, "tau": 0.5}}}, [],
     "sim.policy"),
    ("solve", {"solver": dict(FAST_SOLVER, tol="abc")}, [], "solver.tol"),
    ("solve", {"solver": dict(FAST_SOLVER, max_iter="abc")}, [], "solver.max_iter"),
    ("simulate", {"sim": {"x0": "abc"}}, [], "sim.x0"),
    ("crosscheck", {"crosscheck": {"observations": [0.0, "abc"]}}, [], "crosscheck.observations"),
    # a YAML true is not the number 1
    ("solve", {"solver": dict(FAST_SOLVER, tol=True)}, [], "solver.tol"),
    ("solve", {"solver": dict(FAST_SOLVER, sigma=True)}, [], "solver.sigma"),
    ("simulate", {"sim": {"x0": True}}, [], "sim.x0"),
    ("simulate", {"sim": {"seed": True}}, [], "sim.seed"),
    ("simulate", {"sim": {"horizon": True}}, [], "sim.horizon"),
    ("crosscheck", {"crosscheck": {"observations": [True]}}, [], "crosscheck.observations"),
    *[("simulate", {"sim": {"record_trajectories": bad}}, [], "sim.record_trajectories")
      for bad in ("abc", 1.5, True, -1)],
])
def test_invalid_inputs_end_in_a_config_error(tmp_path, command, doc, args, key):
    # each of these used to reach the library and end in a traceback
    sim = {"n_traj": 20, "policy": {"kind": "constant", "a": 0.0}, "record_trajectories": 1}
    cfg_path = write_cfg(tmp_path / "cfg.yaml", {
        "solver": FAST_SOLVER, "output": {"directory": str(tmp_path / "out")},
        **doc, "sim": {**sim, **doc.get("sim", {})},
    })
    result = CliRunner().invoke(main, [command, "--config", cfg_path, *args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert key in result.output


def test_filter_command_with_sigma_writes_the_library_beliefs(tmp_path):
    cfg_path = write_cfg(tmp_path / "cfg.yaml", {"output": {"directory": str(tmp_path / "out")}})
    events = [
        (P.RelaxedControl.constant(-1.0), 0.4, 1.0),
        (P.switch_control(1.0, 0.5), 1.0, 1.0),
        (P.RelaxedControl.from_pieces([(0.0, P.ActionMixture.of([(1.0, 0.25), (-1.0, 0.75)])),
                                       (0.6, 0.5)]), 0.5, -1.0),
    ]
    log = tmp_path / "events.csv"
    log.write_text("r_piece_spec,s,x\n" + "".join(
        f"{format_control(c)},{s},{x}\n" for c, s, x in events))
    result = CliRunner().invoke(main, ["filter", "--config", cfg_path, "--events", str(log),
                                       "--x0", "1", "--sigma", "0.1"])
    assert result.exit_code == 0, result.output
    beliefs = P.filter_trajectory(P.particle_steering_model(), 1.0, events,
                                  kernel=P.RegularizationKernel("gaussian", 0.1))
    expected = ["step,mu_1,mu_2,mu_3"] + [
        ",".join([str(n)] + [f"{p:.9g}" for p in b.probs]) for n, b in enumerate(beliefs)
    ]
    assert (tmp_path / "out" / "beliefs.csv").read_text().splitlines() == expected


def test_simulate_with_the_default_policy_taus_and_quadrature_forms(tmp_path):
    # the solved policy, the {start, stop, step} switch times and the
    # automatic quadrature range are the defaults; the switch policy is the
    # other kind no other test runs
    solver = {"grid_k": 5, "family": {"taus": {"start": 0.5, "stop": 1.0, "step": 0.5}},
              "quadrature": {"h": 0.05}}
    sim = {"n_traj": 800, "seed": 5, "x0": -2.0, "record_trajectories": 2}
    model = P.particle_steering_model()
    family = P.switching_family(taus=[0.5, 1.0])
    grid = P.build_simplex_grid(3, 5)
    stage = P.StageQuadrature.for_model(model, h=0.05)
    sweep = P.BellmanSweep(model, grid, family, ctx=P.StageContext(model, stage))
    vg, _ = P.value_iteration(model, grid, family, sweep=sweep)
    policies = {"solved": P.extract_policy(vg, family), "switch": P.switch_control(-1.0, 0.25)}
    for kind, policy in policies.items():
        out = tmp_path / kind
        cfg_path = write_cfg(tmp_path / f"{kind}.yaml", {
            "solver": solver, "output": {"directory": str(out)},
            "sim": dict(sim, policy={"kind": kind, "a": -1.0, "tau": 0.25}),
        })
        result = CliRunner().invoke(main, ["simulate", "--config", cfg_path])
        assert result.exit_code == 0, result.output
        doc = yaml.safe_load((out / "resolved_config.yaml").read_text())
        assert doc["solver"]["quadrature"]["t_max"] == "auto"
        mean, se = P.evaluate_policy_mc(model, -2.0, policy, 800, 5)
        assert (out / "evaluation.csv").read_text().splitlines()[1] == (
            f"-2,800,5,{mean:.9g},{se:.9g}")
        rows = (out / "trajectories.csv").read_text().splitlines()[1:]
        for i in range(2):
            traj = P.simulate_trajectory(model, -2.0, policy, (5, i))
            mine = [r for r in rows if r.startswith(f"{i},")]
            assert len(mine) == len(traj.times)
            assert mine[-1].split(",")[2] == f"{traj.times[-1]:.9g}"
