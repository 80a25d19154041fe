"""Command-line interface: config ingestion and the solve / simulate /
filter / crosscheck / sweep pipelines.

Configs are YAML.  The shared value flags (``--grid-k``, ``--tol``,
``--sigma``, ``--seed``) form one more override document,
merged after the file, so flag and file values pass the same checks: one
row of ``_RULES`` per key, for every command.  Every run writes ``resolved_config.yaml`` into the output directory with all
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
    },
    "crosscheck": {"observations": [-2.0, 0.0, 2.0]},
    "sweep": {"sigmas": [0.2, 0.1, 0.05], "grid_k": 15},
    "output": {"directory": "out"},
}

_INLINE_DEFAULTS = {"discount": 1.0, "q0": "bayes", "action_box": [-1.0, 1.0]}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


class RunConfig:
    """Validated, fully resolved run configuration."""

    def __init__(self, resolved: dict):
        self.resolved = resolved
        self._validate()

    def _validate(self) -> None:
        key = _non_finite_key(self.resolved)
        if key is not None:
            raise ConfigError(f"{key} is non-finite")
        key = _unknown_key(self.resolved, _DEFAULTS)
        if key is not None:
            raise ConfigError(f"{key} is not a config key")
        sources = [_lookup(self.resolved, f"model.{k}") for k in ("builtin", "inline")]
        if sum(v is not None for v in sources) != 1:
            raise ConfigError("model must name exactly one source: 'builtin' or 'inline'")
        for key, (valid, what) in _RULES.items():
            value = _lookup(self.resolved, key)
            if not valid(value):
                raise ConfigError(f"{key} must be {what}, got {value!r}")
        m = self.resolved["model"]
        if m.get("inline") is not None:
            # echo the applied inline defaults (discount, q0 rule, action box)
            m["inline"] = {**_INLINE_DEFAULTS, **m["inline"]}

    def dump(self) -> str:
        """The resolved configuration as YAML with sorted keys."""
        return yaml.safe_dump(self.resolved, sort_keys=True, default_flow_style=False)

    # -- builders --------------------------------------------------------------

    def build_model(self) -> PopdmpModel:
        m = self.resolved["model"]
        if m.get("inline") is None:
            return build_builtin(m["builtin"])
        try:
            tables = dict(m["inline"])
            noise = tables.pop("noise", {})
            return table_model(**tables, **{f"noise_{k}": v for k, v in noise.items()},
                               name="inline")
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"model.inline: {err}") from None

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
        if q["t_max"] != "auto":
            return StageQuadrature(t_max=float(q["t_max"]), h=float(q["h"]))
        try:
            return StageQuadrature.for_model(model, h=float(q["h"]), tail_tol=float(q["tail_tol"]))
        except ValueError as err:  # a tail tolerance too loose for the model's rates
            raise ConfigError(f"solver.quadrature: {err}") from None

    def kernel(self) -> RegularizationKernel | None:
        sol = self.resolved["solver"]
        return None if sol["sigma"] == "plain" else RegularizationKernel(sol["kernel"],
                                                                         float(sol["sigma"]))

    def horizon(self) -> float | None:
        """Simulation horizon; None, the model's default horizon, for 'auto'."""
        h = self.resolved["sim"]["horizon"]
        return None if h == "auto" else float(h)


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
    for section, value in user.items():
        if section in _DEFAULTS and not isinstance(value, dict):
            raise ConfigError(f"{section} must be a mapping, got {value!r}")
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


def _unknown_key(node: dict, defaults: dict, key: str = "") -> str | None:
    """The dotted key of the first entry of ``node`` that ``defaults`` does
    not name, or None.  Only mapping values of mapping defaults are walked
    (not the list form of ``solver.family.taus``), and ``model.inline`` is
    left to ``table_model``, which rejects unknown fields itself."""
    for k, v in node.items():
        dotted = f"{key}.{k}" if key else str(k)
        if k not in defaults and dotted != "model.inline":
            return dotted
        if isinstance(v, dict) and isinstance(defaults.get(k), dict):
            found = _unknown_key(v, defaults[k], dotted)
            if found is not None:
                return found
    return None


def _lookup(doc, key: str):
    """The value at a dotted key, None where a section is missing."""
    for part in key.split("."):
        doc = doc.get(part) if isinstance(doc, dict) else None
    return doc


def _number(value) -> float:
    """``value`` as a float, or NaN when it is not a number (a YAML
    ``true`` or ``false`` is not one)."""
    if isinstance(value, bool):
        return math.nan
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_POSITIVE_INT = (lambda v: _is_int(v) and v >= 1, "a positive integer")
_COUNT = (lambda v: _is_int(v) and v >= 0, "a non-negative integer")
_POSITIVE = (lambda v: 0.0 < _number(v) < math.inf, "a positive number")

# dotted key -> (predicate, what a valid value is): every scalar key and list
# of numbers, checked once the flags are merged, whatever the command; checks
# that need the model (the action box, reachable observations, the quadrature
# range under "auto") run where the model is built
_RULES = {
    "model.builtin": (lambda v: v is None or (isinstance(v, str) and v in BUILTIN_MODELS),
                      f"one of {sorted(BUILTIN_MODELS)}"),
    "model.inline": (lambda v: v is None or isinstance(v, dict), "a mapping"),
    "solver.grid_k": _POSITIVE_INT,
    "solver.tol": _POSITIVE,
    "solver.max_iter": _POSITIVE_INT,
    "solver.sigma": (lambda v: v == "plain" or (_is_real(v) and v > 0),
                     "'plain' or a positive bandwidth"),
    "solver.kernel": (lambda v: v in KERNEL_KINDS, " or ".join(KERNEL_KINDS)),
    "solver.quadrature.t_max": (lambda v: v == "auto" or 0.0 < _number(v) < math.inf,
                                "'auto' or a positive number"),
    "solver.quadrature.h": _POSITIVE,
    "solver.quadrature.tail_tol": _POSITIVE,
    "sim.n_traj": _POSITIVE_INT,
    "sim.seed": _COUNT,
    "sim.x0": (lambda v: not math.isnan(_number(v)), "a number"),
    "sim.horizon": (lambda v: v == "auto" or 0.0 <= _number(v) < math.inf,
                    "'auto' or a finite non-negative number"),
    "sim.policy.kind": (lambda v: v in ("solved", "constant", "switch"),
                        "solved, constant or switch"),
    "sim.policy.a": (lambda v: math.isfinite(_number(v)), "a finite number"),
    "sim.policy.tau": _POSITIVE,
    "sim.record_trajectories": _COUNT,
    "crosscheck.observations": (lambda v: isinstance(v, list) and len(v) > 0
                                and not any(math.isnan(_number(x)) for x in v),
                                "a non-empty list of numbers"),
    "sweep.sigmas": (lambda v: isinstance(v, list) and len(v) > 0
                     and all(_is_real(s) and s > 0 for s in v)
                     and all(b < a for a, b in zip(v, v[1:])),
                     "a non-empty strictly decreasing list of positive bandwidths"),
    "sweep.grid_k": _POSITIVE_INT,
}


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


def _flag(convert):
    """A value-flag callback: the text as ``convert`` reads it, else the text
    itself ('plain', or a value the rule table rejects)."""

    def callback(ctx, param, text):
        try:
            return convert(text)
        except (TypeError, ValueError):
            return text

    return callback


# flag name -> config section of the key it overrides
_FLAG_SECTIONS = {"grid_k": "solver", "tol": "solver", "sigma": "solver", "seed": "sim"}

_shared = [
    click.option("--config", "config_path", type=click.Path(), required=True,
                 help="YAML run configuration."),
    click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
                 help="Output directory (default: from config)."),
    click.option("--grid-k", type=int, default=None, help="Override solver.grid_k."),
    click.option("--tol", type=float, default=None, help="Override solver.tol."),
    click.option("--sigma", default=None, callback=_flag(float),
                 help="Override solver.sigma ('plain' or bandwidth)."),
    click.option("--seed", type=int, default=None, help="Override sim.seed."),
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
    else:
        policy = (RelaxedControl.constant(float(pol_cfg["a"])) if pol_cfg["kind"] == "constant"
                  else switch_control(float(pol_cfg["a"]), float(pol_cfg["tau"])))
        try:
            model.check_control(policy)
        except InvalidControlError as err:
            raise ConfigError(f"sim.policy: {err}") from None
    x0 = float(sim_cfg["x0"])
    horizon = cfg.horizon()
    n_traj = int(sim_cfg["n_traj"])
    seed_v = int(sim_cfg["seed"])
    mean, se = evaluate_policy_mc(model, x0, policy, n_traj, seed_v, horizon=horizon)
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
                events.append((parse_control(row["r_piece_spec"]), float(row["s"]),
                               float(row["x"])))
    # events holds the rows before the bad one; a short row reads None (TypeError)
    except (KeyError, TypeError, ValueError, ConfigError) as err:
        raise ConfigError(f"bad event log {events_path}: event {len(events)}: {err}") from None
    x0_val = float(cfg.resolved["sim"]["x0"]) if x0 is None else float(x0)
    _check_observation(model, x0_val, "sim.x0" if x0 is None else "--x0")
    try:
        beliefs = filter_trajectory(model, x0_val, events, kernel=cfg.kernel())
    except ValueError as err:  # the first event that fails a check, in log order
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
                            seed=int(sim_cfg["seed"]), horizon=cfg.horizon(), sweep=sweep)
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
                         stage=cfg.stage(model), kind=sol["kernel"])
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
