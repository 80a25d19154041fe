"""Command-line interface: config ingestion and the solve / simulate /
filter / crosscheck / sweep pipelines.

Configs are YAML.  The shared value flags (``--grid-k``, ``--tol``,
``--sigma``, ``--seed``, ``--workers``) form one more override document,
merged after the file, so flag and file values pass the same checks.  Every
run writes ``resolved_config.yaml`` into the output directory with all
defaults filled in, so runs are self-describing and the echo is
byte-identical across reruns of the same input.  All numeric CSV fields are
printed with nine significant digits.

Control specification grammar (used in ``policy.csv`` and in the event logs
replayed by ``popdmp filter``)::

    const:<a>                 constant action a
    switch:<a>:<tau>          action a on [0, tau), then 0
    pw:<t0>=<a0>;<t1>=<a1>    piecewise-constant actions from the given times
                              (t0 must be 0); an action may be a mixture
                              written a1*w1|a2*w2
"""

from __future__ import annotations

import copy
import csv
import functools
import math
import sys
from pathlib import Path

import click
import numpy as np
import yaml

from .catalog import BUILTIN_MODELS, build_builtin, table_model
from .filtering import (KERNEL_KINDS, ImpossibleObservationError, RegularizationKernel,
                        filter_trajectory, initial_belief)
from .mdp import ControlFamily, StageContext, StageQuadrature, switch_control, switching_family
from .model import ActionMixture, InvalidControlError, PopdmpModel, RelaxedControl
from .sim import cross_check, evaluate_policy_mc, simulate_trajectory
from .solver import (
    BellmanSweep,
    _fmt,
    build_simplex_grid,
    extract_policy,
    sigma_sweep,
    value_iteration,
    write_csv,
    write_report_csv,
    write_value_csv,
)

__all__ = ["main", "load_config", "RunConfig", "format_control", "parse_control"]


class ConfigError(click.ClickException):
    exit_code = 1


# ---------------------------------------------------------------------------
# control spec strings


def format_control(control: RelaxedControl) -> str:
    def atom_str(mix: ActionMixture) -> str:
        parts = []
        for a, w in zip(mix.actions, mix.weights):
            a_txt = ",".join(_fmt(v) for v in a)
            parts.append(a_txt if len(mix.actions) == 1 else f"{a_txt}*{_fmt(w)}")
        return "|".join(parts)

    if len(control.pieces) == 1 and len(control.pieces[0].actions) == 1:
        return f"const:{atom_str(control.pieces[0])}"
    if (
        len(control.pieces) == 2
        and all(len(p.actions) == 1 for p in control.pieces)
        and all(v == 0.0 for v in control.pieces[1].actions[0])
    ):
        return f"switch:{atom_str(control.pieces[0])}:{_fmt(control.breaks[0])}"
    starts = [0.0, *control.breaks]
    return "pw:" + ";".join(f"{_fmt(t)}={atom_str(p)}" for t, p in zip(starts, control.pieces))


def _parse_mixture(txt: str) -> ActionMixture:
    pairs = []
    for part in txt.split("|"):
        if "*" in part:
            a_txt, w_txt = part.rsplit("*", 1)
            w = float(w_txt)
        else:
            a_txt, w = part, 1.0
        action = tuple(float(v) for v in a_txt.split(","))
        pairs.append((action, w))
    return ActionMixture.of(pairs)


def parse_control(spec: str) -> RelaxedControl:
    spec = spec.strip()
    try:
        if spec.startswith("const:"):
            return RelaxedControl.constant(_parse_mixture(spec[6:]))
        if spec.startswith("switch:"):
            _, a_txt, tau_txt = spec.split(":")
            return RelaxedControl.from_pieces(
                [(0.0, _parse_mixture(a_txt)), (float(tau_txt), 0.0)]
            )
        if spec.startswith("pw:"):
            pairs = []
            for part in spec[3:].split(";"):
                t_txt, a_txt = part.split("=")
                pairs.append((float(t_txt), _parse_mixture(a_txt)))
            return RelaxedControl.from_pieces(pairs)
    except (ValueError, IndexError) as err:
        raise ConfigError(f"bad control spec {spec!r}: {err}") from None
    raise ConfigError(f"bad control spec {spec!r}: expected const:/switch:/pw: prefix")


# ---------------------------------------------------------------------------
# configuration


_DEFAULTS = {
    "model": {"builtin": "particle-steering"},
    "solver": {
        "grid_k": 40,
        "tol": 1.0e-4,
        "max_iter": 200,
        "sigma": "plain",
        "kernel": "gaussian",
        "family": {"actions": [-1.0, 0.0, 1.0], "taus": {"start": 0.1, "stop": 2.0, "step": 0.1}},
        "quadrature": {"t_max": "auto", "h": 0.01, "tail_tol": 1.0e-8},
    },
    "sim": {
        "n_traj": 10000,
        "seed": 20260810,
        "horizon": "auto",
        "x0": 0.0,
        "policy": {"kind": "solved", "a": 0.0, "tau": 0.5},
        "record_trajectories": 10,
        "workers": "auto",
    },
    "crosscheck": {"observations": [-2.0, 0.0, 2.0]},
    "sweep": {"sigmas": [0.2, 0.1, 0.05], "grid_k": 15},
    "output": {"directory": "out"},
}

_INLINE_DEFAULTS = {"discount": 1.0, "q0": "bayes", "action_box": [-1.0, 1.0]}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        here = f"{path}.{key}" if path else key
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val, here)
        else:
            out[key] = copy.deepcopy(val)
    return out


class RunConfig:
    """Validated, fully resolved run configuration."""

    def __init__(self, resolved: dict):
        self.resolved = resolved
        if resolved["model"].get("inline"):
            # echo the applied inline defaults (discount, q0 rule, action box)
            resolved["model"]["inline"] = {**_INLINE_DEFAULTS, **resolved["model"]["inline"]}
        self._validate()

    def _validate(self) -> None:
        key = _non_finite_key(self.resolved)
        if key is not None:
            raise ConfigError(f"{key} is non-finite")
        m = self.resolved["model"]
        has_builtin = "builtin" in m and m["builtin"] is not None
        has_inline = "inline" in m and m["inline"] is not None
        if has_builtin == has_inline:
            raise ConfigError("model must name exactly one source: 'builtin' or 'inline'")
        if has_builtin and m["builtin"] not in BUILTIN_MODELS:
            raise ConfigError(
                f"unknown builtin model {m['builtin']!r}; available: {sorted(BUILTIN_MODELS)}"
            )
        if has_inline:
            inline = m["inline"]
            for key in ("states", "cost_table", "kernel_table", "hazard", "noise"):
                if key not in inline:
                    raise ConfigError(f"inline model is missing '{key}'")
        sol = self.resolved["solver"]
        if not _is_positive_int(sol["grid_k"]):
            raise ConfigError("solver.grid_k must be a positive integer")
        if not _number(sol["tol"]) > 0:
            raise ConfigError("solver.tol must be a positive number")
        if not _is_positive_int(sol["max_iter"]):
            raise ConfigError("solver.max_iter must be a positive integer")
        sig = sol["sigma"]
        if sig != "plain" and not (_is_real(sig) and sig > 0):
            raise ConfigError("solver.sigma must be 'plain' or a positive bandwidth")
        sim = self.resolved["sim"]
        if not _is_positive_int(sim["n_traj"]):
            raise ConfigError("sim.n_traj must be a positive integer")
        if sim["workers"] != "auto" and not _is_positive_int(sim["workers"]):
            raise ConfigError("sim.workers must be 'auto' or a positive integer")
        if math.isnan(_number(sim["x0"])):
            raise ConfigError("sim.x0 must be a number")
        if not (_is_int(sim["seed"]) and sim["seed"] >= 0):
            raise ConfigError("sim.seed must be a non-negative integer")
        if not (_is_int(sim["record_trajectories"]) and sim["record_trajectories"] >= 0):
            raise ConfigError("sim.record_trajectories must be a non-negative integer")
        if sim["horizon"] != "auto" and not _is_non_negative_number(sim["horizon"]):
            raise ConfigError("sim.horizon must be 'auto' or a finite non-negative number")
        sweep = self.resolved["sweep"]
        if not _is_positive_int(sweep["grid_k"]):
            raise ConfigError("sweep.grid_k must be a positive integer")
        sigmas = sweep["sigmas"]
        if not (isinstance(sigmas, list)
                and all(_is_real(s) and s > 0 for s in sigmas)
                and all(b < a for a, b in zip(sigmas, sigmas[1:]))):
            raise ConfigError("sweep.sigmas must be strictly decreasing positive bandwidths")
        obs = self.resolved["crosscheck"]["observations"]
        if not (isinstance(obs, list) and not any(math.isnan(_number(v)) for v in obs)):
            raise ConfigError("crosscheck.observations must be a list of numbers")

    def dump(self) -> str:
        """The resolved configuration as YAML with sorted keys."""
        return yaml.safe_dump(self.resolved, sort_keys=True, default_flow_style=False)

    # -- builders --------------------------------------------------------------

    def build_model(self) -> PopdmpModel:
        m = self.resolved["model"]
        try:
            if m.get("builtin"):
                return build_builtin(m["builtin"])
            inline = m["inline"]
            noise = inline["noise"]
            return table_model(
                states=inline["states"],
                cost_table=[tuple(row) for row in inline["cost_table"]],
                kernel_table=[tuple(row) for row in inline["kernel_table"]],
                hazard=inline["hazard"] if np.isscalar(inline["hazard"])
                else [tuple(row) for row in inline["hazard"]],
                noise_offsets=noise["offsets"],
                noise_weights=noise["weights"],
                discount=float(inline["discount"]),
                q0=inline["q0"],
                action_box=inline["action_box"],
                name="inline",
            )
        except ValueError as err:
            raise ConfigError(f"invalid model data: {err}") from None

    def build_family(self, model: PopdmpModel) -> ControlFamily:
        """The switching family, checked against the model's action box."""
        fam = self.resolved["solver"]["family"]
        taus_spec = fam["taus"]
        try:
            if isinstance(taus_spec, dict):
                start, stop, step = (float(taus_spec[k]) for k in ("start", "stop", "step"))
                count = int(round((stop - start) / step)) + 1 if step else 0
                if count < 1:
                    raise ConfigError("solver.family.taus: start, stop and step give no switch time")
                taus = [start + i * step for i in range(count)]
            else:
                taus = [float(t) for t in taus_spec]
            family = switching_family(actions=[float(a) for a in fam["actions"]], taus=taus)
        except (ValueError, TypeError, KeyError) as err:
            raise ConfigError(f"solver.family: {err}") from None
        try:
            for control in family:
                model.check_control(control)
        except InvalidControlError as err:
            raise ConfigError(f"solver.family.actions: {err}") from None
        return family

    def stage(self, model: PopdmpModel) -> StageQuadrature:
        q = self.resolved["solver"]["quadrature"]
        try:
            h = float(q["h"])
            if q["t_max"] == "auto":
                return StageQuadrature.for_model(model, h=h, tail_tol=float(q["tail_tol"]))
            return StageQuadrature(t_max=float(q["t_max"]), h=h)
        except (ValueError, ZeroDivisionError) as err:
            raise ConfigError(f"solver.quadrature: {err}") from None

    def kernel_kind(self) -> str:
        kind = self.resolved["solver"]["kernel"]
        if kind not in KERNEL_KINDS:
            raise ConfigError(f"solver.kernel must be one of {list(KERNEL_KINDS)}, got {kind!r}")
        return kind

    def kernel(self) -> RegularizationKernel | None:
        sig = self.resolved["solver"]["sigma"]
        if sig == "plain":
            return None
        return RegularizationKernel(self.kernel_kind(), float(sig))

    def horizon(self) -> float | None:
        """Simulation horizon; None, the model's default horizon, for 'auto'."""
        h = self.resolved["sim"]["horizon"]
        return None if h == "auto" else float(h)

    def workers(self) -> int | None:
        """Simulation threads; None, the engine's default layout, for 'auto'."""
        w = self.resolved["sim"]["workers"]
        return None if w == "auto" else w


def load_config(path, flags: dict | None = None) -> RunConfig:
    """Parse a YAML config and merge it, then the ``flags`` override
    document, over the defaults; the result passes one set of checks."""
    try:
        with open(path) as fh:
            user = yaml.safe_load(fh) or {}
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as err:
        raise ConfigError(f"cannot parse {path}: {err}") from None
    if not isinstance(user, dict):
        raise ConfigError("config root must be a mapping")
    resolved = _merge(_merge(_DEFAULTS, user), flags or {})
    user_model = user.get("model") or {}
    if user_model.get("inline") is not None and "builtin" not in user_model:
        # an inline model in the user file replaces the default builtin
        resolved["model"]["builtin"] = None
    return RunConfig(resolved)


def _non_finite_key(node, key: str = "") -> str | None:
    """The dotted key of the first non-finite number in ``node``, or None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else key
    if isinstance(node, dict):
        items = ((f"{key}.{k}" if key else str(k), v) for k, v in node.items())
    elif isinstance(node, (list, tuple)):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(node))
    else:
        return None
    return next(filter(None, (_non_finite_key(v, k) for k, v in items)), None)


def _number(value) -> float:
    """``value`` as a float, or NaN when it is not a number (a YAML
    ``true`` or ``false`` is not one)."""
    if isinstance(value, bool):
        return math.nan
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _is_non_negative_number(value) -> bool:
    return 0.0 <= _number(value) < math.inf


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_positive_int(value) -> bool:
    return _is_int(value) and value >= 1


# ---------------------------------------------------------------------------
# solve machinery shared by subcommands


def _check_observation(model: PopdmpModel, x0, key: str) -> None:
    """An initial observation must be explained by some post-jump state."""
    try:
        initial_belief(model, x0)
    except ImpossibleObservationError as err:
        raise ConfigError(f"{key}: {err}") from None


def _solve(cfg: RunConfig, model: PopdmpModel):
    """Build the Bellman operator once and iterate it to the fixed point."""
    family = cfg.build_family(model)
    grid = build_simplex_grid(model.n_states, int(cfg.resolved["solver"]["grid_k"]))
    sweep = BellmanSweep(model, grid, family, kernel=cfg.kernel(),
                         ctx=StageContext(model, cfg.stage(model)))
    vg, report = value_iteration(model, grid, family, tol=float(cfg.resolved["solver"]["tol"]),
                                 max_iter=int(cfg.resolved["solver"]["max_iter"]), sweep=sweep)
    return family, sweep, vg, report


# ---------------------------------------------------------------------------
# commands


@click.group()
def main():
    """Optimal control of partially observable piecewise deterministic
    Markov processes on a finite post-jump state set."""


def _sigma_flag(ctx, param, text):
    """``--sigma`` text as the value a config file would hold."""
    if text is None or text == "plain":
        return text
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"solver.sigma must be 'plain' or a positive bandwidth, "
                          f"got {text!r}") from None


def _workers_flag(ctx, param, text):
    """``--workers`` text as the value a config file would hold."""
    if text is None or text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"sim.workers must be 'auto' or a positive integer, "
                          f"got {text!r}") from None


# flag name -> config section of the key it overrides
_FLAG_SECTIONS = {"grid_k": "solver", "tol": "solver", "sigma": "solver",
                  "seed": "sim", "workers": "sim"}

_shared = [
    click.option("--config", "config_path", type=click.Path(), required=True,
                 help="YAML run configuration."),
    click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
                 help="Output directory (default: from config)."),
    click.option("--grid-k", type=int, default=None, help="Override solver.grid_k."),
    click.option("--tol", type=float, default=None, help="Override solver.tol."),
    click.option("--sigma", default=None, callback=_sigma_flag,
                 help="Override solver.sigma ('plain' or bandwidth)."),
    click.option("--seed", type=int, default=None, help="Override sim.seed."),
    click.option("--workers", default=None, callback=_workers_flag,
                 help="Override sim.workers ('auto', one per usable core and 12.5k "
                      "trajectories, or a count)."),
]


def _with_shared(fn):
    """Give a command the shared options: the config file, resolved with the
    given flags as one more override document, and the output directory,
    which receives ``resolved_config.yaml``.  The command is called with
    ``(cfg, out)`` and its own options."""

    @functools.wraps(fn)
    def command(config_path, out_dir, **options):
        flags: dict = {}
        for key, section in _FLAG_SECTIONS.items():
            value = options.pop(key)
            if value is not None:
                flags.setdefault(section, {})[key] = value
        cfg = load_config(config_path, flags)
        out = Path(out_dir) if out_dir is not None else Path(cfg.resolved["output"]["directory"])
        out.mkdir(parents=True, exist_ok=True)
        (out / "resolved_config.yaml").write_text(cfg.dump())
        return fn(cfg, out, **options)

    for opt in reversed(_shared):
        command = opt(command)
    return command


@main.command()
@_with_shared
def solve(cfg: RunConfig, out: Path):
    """Run value iteration and write value.csv, policy.csv, report.csv."""
    family, _, vg, report = _solve(cfg, cfg.build_model())
    write_value_csv(vg, out / "value.csv")
    write_csv(out / "policy.csv",
              [f"rho_{i + 1}" for i in range(vg.grid.dim)] + ["argmin_index", "control"],
              ([_fmt(c) for c in p] + [str(int(a)), format_control(family[int(a)])]
               for p, a in zip(vg.grid.points, vg.argmins)))
    write_report_csv(report, out / "report.csv")
    click.echo(
        f"value iteration: {report.iterations} iterations, "
        f"final residual {report.final_residual:.3e}, "
        f"{'converged' if report.converged else 'NOT converged'}"
    )
    if not report.converged:
        sys.exit(2)


@main.command()
@_with_shared
def simulate(cfg: RunConfig, out: Path):
    """Simulate trajectories under the configured policy; write
    trajectories.csv and evaluation.csv."""
    model = cfg.build_model()
    sim_cfg = cfg.resolved["sim"]
    _check_observation(model, sim_cfg["x0"], "sim.x0")
    pol_cfg = sim_cfg["policy"]
    if pol_cfg["kind"] == "solved":
        family, _, vg, _ = _solve(cfg, model)
        policy = extract_policy(vg, family)
    elif pol_cfg["kind"] in ("constant", "switch"):
        try:
            policy = (RelaxedControl.constant(float(pol_cfg["a"])) if pol_cfg["kind"] == "constant"
                      else switch_control(float(pol_cfg["a"]), float(pol_cfg["tau"])))
            model.check_control(policy)
        except (ValueError, TypeError) as err:  # InvalidControlError is a ValueError
            raise ConfigError(f"sim.policy: {err}") from None
    else:
        raise ConfigError("sim.policy.kind must be solved, constant or switch")
    x0 = float(sim_cfg["x0"])
    horizon = cfg.horizon()
    n_traj = int(sim_cfg["n_traj"])
    seed_v = int(sim_cfg["seed"])
    mean, se = evaluate_policy_mc(model, x0, policy, n_traj, seed_v, horizon=horizon,
                                  workers=cfg.workers())
    write_csv(out / "evaluation.csv", ["x0", "n_traj", "seed", "mean_cost", "stderr"],
              [[_fmt(x0), str(n_traj), str(seed_v), _fmt(mean), _fmt(se)]])

    def trajectory_rows():
        for i in range(min(int(sim_cfg["record_trajectories"]), n_traj)):
            traj = simulate_trajectory(model, x0, policy, (seed_v, i), cost_horizon=horizon)
            for nn in range(len(traj.times)):
                yield [str(i), str(nn), _fmt(traj.times[nn]),
                       _fmt(model.post_jump_states[traj.states[nn]][0]),
                       _fmt(traj.observations[nn][0]),
                       _fmt(traj.segment_costs[nn]) if nn < len(traj.segment_costs) else ""]

    write_csv(out / "trajectories.csv", ["traj", "n", "T_n", "Y_n", "X_n", "segment_cost"],
              trajectory_rows())
    click.echo(f"mean discounted cost {mean:.6g} (stderr {se:.3g}) over {n_traj} runs")


@main.command(name="filter")
@click.option("--events", "events_path", type=click.Path(exists=True, dir_okay=False),
              required=True,
              help="CSV with columns r_piece_spec,s,x.")
@click.option("--x0", type=float, default=None, help="Initial observation (default sim.x0).")
@_with_shared
def filter_cmd(cfg: RunConfig, out: Path, events_path, x0):
    """Replay an event log through the Bayes filter; write beliefs.csv."""
    model = cfg.build_model()
    events = []
    try:
        with open(events_path) as fh:
            for row in csv.DictReader(fh):
                control = parse_control(row["r_piece_spec"])
                model.check_control(control)  # InvalidControlError is a ValueError
                s, x = float(row["s"]), float(row["x"])
                if not 0.0 < s < math.inf:
                    raise ValueError("inter-jump time s must be positive and finite")
                if not math.isfinite(x):
                    raise ValueError("observation x must be finite")
                events.append((control, s, x))
    # events holds the rows before the bad one; a short row reads None (TypeError)
    except (KeyError, TypeError, ValueError, ConfigError) as err:
        raise ConfigError(f"bad event log {events_path}: event {len(events)}: {err}") from None
    x0_val = float(cfg.resolved["sim"]["x0"]) if x0 is None else float(x0)
    _check_observation(model, x0_val, "sim.x0" if x0 is None else "--x0")
    try:
        beliefs = filter_trajectory(model, x0_val, events, kernel=cfg.kernel())
    except ImpossibleObservationError as err:
        raise ConfigError(f"event log {events_path}: {err}") from None
    write_csv(out / "beliefs.csv", ["step"] + [f"mu_{i + 1}" for i in range(model.n_states)],
              ([str(n)] + [_fmt(p) for p in b.probs] for n, b in enumerate(beliefs)))
    click.echo(f"filtered {len(events)} events; final belief "
               + "[" + ", ".join(_fmt(p) for p in beliefs[-1].probs) + "]")


@main.command()
@_with_shared
def crosscheck(cfg: RunConfig, out: Path):
    """Solve, then compare Monte Carlo cost of the solved policy against the
    filtered-MDP value; write zscores.csv.  Exits nonzero if any |z| >= 4."""
    model = cfg.build_model()
    observations = [float(v) for v in cfg.resolved["crosscheck"]["observations"]]
    for x0 in observations:
        _check_observation(model, x0, "crosscheck.observations")
    family, sweep, vg, _ = _solve(cfg, model)
    policy = extract_policy(vg, family)
    sim_cfg = cfg.resolved["sim"]
    report_cc = cross_check(model, policy, observations, n_traj=int(sim_cfg["n_traj"]),
                            seed=int(sim_cfg["seed"]), horizon=cfg.horizon(),
                            workers=cfg.workers(), sweep=sweep)
    write_csv(out / "zscores.csv", ["x0", "mc_mean", "stderr", "mdp_value", "z"],
              ([_fmt(r.x0), _fmt(r.mc_mean), _fmt(r.stderr), _fmt(r.mdp_value), _fmt(r.z)]
               for r in report_cc.rows))
    for r in report_cc.rows:
        click.echo(
            f"x0={r.x0:+.3g}: mc={r.mc_mean:.6g} (se {r.stderr:.3g}) "
            f"mdp={r.mdp_value:.6g} z={r.z:+.2f}"
        )
    if report_cc.max_abs_z >= 4.0:
        click.echo("cross-check FAILED: |z| >= 4", err=True)
        sys.exit(3)


@main.command()
@_with_shared
def sweep(cfg: RunConfig, out: Path):
    """Regularization-bandwidth sweep against the plain filter; write
    sigma_sweep.csv."""
    model = cfg.build_model()
    family = cfg.build_family(model)
    grid = build_simplex_grid(model.n_states, int(cfg.resolved["sweep"]["grid_k"]))
    sol = cfg.resolved["solver"]
    result = sigma_sweep(model, grid, family, [float(s) for s in cfg.resolved["sweep"]["sigmas"]],
                         tol=float(sol["tol"]), max_iter=int(sol["max_iter"]),
                         stage=cfg.stage(model), kind=cfg.kernel_kind())
    write_csv(out / "sigma_sweep.csv", ["sigma", "value_gap", "argmin_agreement"],
              ([_fmt(row.sigma), _fmt(row.value_gap), _fmt(row.argmin_agreement)]
               for row in result.rows))
    for row in result.rows:
        click.echo(f"sigma={row.sigma:g}: gap={row.value_gap:.4g} "
                   f"argmin agreement={row.argmin_agreement:.3f}")


@main.command()
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the config to a file instead of stdout.")
def example(out_path):
    """Print the fully resolved configuration of the built-in
    particle-steering model."""
    text = RunConfig(copy.deepcopy(_DEFAULTS)).dump()
    if out_path is None:
        click.echo(text, nl=False)
    else:
        Path(out_path).write_text(text)


if __name__ == "__main__":
    main()
