"""The two benchmark workloads and the four parts they are made of.

Each part builds its inputs from the seed (``setup``), runs one pass through
the library calls a ``popdmp`` subcommand makes (``run``), and checks every
operation of a pass (``check``: one entry per operation, ``None`` when it
passed, else the reason).  ``summary`` gives the numbers recorded in
``reference.json`` at the commit that defined the benchmark; ``extras`` the
end-to-end figures only this part has, from the (duration, output) of its
passes, which are printed but not gated.

A workload runs its parts one after the other in every pass:

- ``solve-sweep``: solve-k40 then sigma-sweep, where operator assembly does
  nearly all the work;
- ``mc-filter``: mc-crosscheck then filter-replay, which assemble nothing
  in the timed section (the cross-check sweep is built in set-up).

All parts use the built-in particle-steering model.  ``catalog`` (model
and family construction) runs in set-up only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import popdmp as P

TOL = 1e-4                 # value-iteration tolerance, the CLI default
SIGMAS = (0.2, 0.1, 0.05)  # the CLI's default sweep bandwidths
FILTER_SIGMA = 0.1         # regularized replay bandwidth
X0S = (-2.0, 0.0, 2.0)     # the CLI's default cross-check observations
BANG_BELIEF = (0.6, 0.2, 0.2)

# Acceptance gates of the solver (ROADMAP aim 3).
MAX_ITERATIONS = 30
MAX_FINAL_RESIDUAL = 2e-4
MAX_ABS_Z = 4.0
# Reordering a float sum moves values by ~1e-15; these tolerances sit far
# above that and far below any change of the mathematics.
VALUE_RTOL = 1e-9
BELIEF_ATOL = 1e-9


@dataclass(frozen=True)
class Size:
    solve_k: int
    sweep_k: int
    mc_k: int
    taus: tuple            # switch times of the bang family
    n_traj: int            # Monte Carlo trajectories per cross-check row
    events: int            # filter-replay log length


SIZES = {
    # seconds per workload; for self-tests
    "tiny": Size(solve_k=4, sweep_k=3, mc_k=4, taus=(0.5, 1.0), n_traj=1000, events=30),
    # the measured size: the 5-candidate family (switch time 0.5, which the
    # bang policy uses) and 25k trajectories per row keep a solve-sweep pass
    # near 10 s and an mc-filter pass near 6 s, so a 55 s run times several
    "bench": Size(solve_k=40, sweep_k=15, mc_k=15, taus=(0.5,), n_traj=25_000, events=200),
}


def _family(size: Size):
    return P.switching_family(taus=list(size.taus))


def _close(a, b) -> bool:
    return abs(a - b) <= VALUE_RTOL * max(1.0, abs(b))


def _mirror(control):
    """The control with every action negated (the model is symmetric under
    y -> -y, which maps belief (r1, r2, r3) to (r3, r2, r1))."""
    pieces = tuple(
        P.ActionMixture(actions=tuple(tuple(-v + 0.0 for v in a) for a in mix.actions),
                        weights=mix.weights)
        for mix in control.pieces
    )
    return P.RelaxedControl(pieces=pieces, breaks=control.breaks)


def _sample_indices(n: int) -> list[int]:
    return sorted({int(i) for i in np.linspace(0, n - 1, 25)})


class Part:
    def extras(self, inp, passes) -> dict:
        return {}


# ---------------------------------------------------------------------------
# solve-k40: value_iteration with no prebuilt sweep, as `popdmp solve` runs it


class Solve(Part):
    name = "solve-k40"

    def setup(self, size: Size, seed: int):
        model = P.particle_steering_model()
        family = _family(size)
        grid = P.build_simplex_grid(model.n_states, size.solve_k)
        return SimpleNamespace(model=model, family=family, grid=grid)

    def ops(self, inp) -> int:
        return 1

    def run(self, inp):
        return P.value_iteration(inp.model, inp.grid, inp.family, tol=TOL)

    def summary(self, inp, out) -> dict:
        vg, report = out
        return {"iterations": report.iterations,
                "values": [[i, float(vg.values[i])] for i in _sample_indices(vg.values.size)]}

    def check(self, inp, out, ref) -> list:
        vg, report = out
        grid, family = inp.grid, inp.family
        why = []
        if not report.converged:
            why.append("not converged")
        if report.iterations > MAX_ITERATIONS:
            why.append(f"{report.iterations} iterations")
        if not report.final_residual < MAX_FINAL_RESIDUAL:
            why.append(f"final residual {report.final_residual:.3g}")
        K = grid.subdivisions
        mirror = np.array([grid.vertex_index(np.rint(p[::-1] * K).astype(np.int64))
                           for p in grid.points])
        v = vg.values
        if np.any(np.abs(v - v[mirror]) > VALUE_RTOL * np.maximum(1.0, np.abs(v))):
            why.append("values not mirror-symmetric")
        cands = list(family)
        try:
            mk = np.array([cands.index(_mirror(c)) for c in cands])
        except ValueError:
            why.append("family not closed under mirroring")
        else:
            # on the diagonal r1 = r3 the mirrored candidates tie exactly
            off = grid.points[:, 0] != grid.points[:, 2]
            if np.any(mk[vg.argmins[off]] != vg.argmins[mirror][off]):
                why.append("argmins not mirror-symmetric off the diagonal")
        chosen = P.extract_policy(vg, family).control(np.array(BANG_BELIEF))
        if chosen != P.switch_control(1.0, 0.5):
            why.append(f"policy at {BANG_BELIEF} is not switch(+1, 0.5)")
        bad = [i for i, val in ref["values"] if not _close(float(v[i]), val)]
        if bad:
            why.append(f"values differ from the reference at points {bad[:5]}")
        return ["; ".join(why) if why else None]


# ---------------------------------------------------------------------------
# sigma-sweep: sigma_sweep at K=15, as `popdmp sweep` runs it


class Sweep(Part):
    name = "sigma-sweep"

    def setup(self, size: Size, seed: int):
        model = P.particle_steering_model()
        family = _family(size)
        grid = P.build_simplex_grid(model.n_states, size.sweep_k)
        return SimpleNamespace(model=model, family=family, grid=grid)

    def ops(self, inp) -> int:
        return len(SIGMAS)

    def run(self, inp):
        return P.sigma_sweep(inp.model, inp.grid, inp.family, SIGMAS, tol=TOL, kind="gaussian")

    def summary(self, inp, out) -> dict:
        return {"rows": [[r.sigma, r.value_gap, r.argmin_agreement] for r in out.rows]}

    def check(self, inp, out, ref) -> list:
        grid = inp.grid
        # argmins may flip at exact ties, which sit on the diagonal r1 = r3
        n_diag = int(np.sum(grid.points[:, 0] == grid.points[:, 2]))
        agree_tol = n_diag / grid.n_points + 1e-12
        base = None if out.plain_report.converged else "plain solve not converged"
        result = []
        for k, (sigma, gap, agree) in enumerate(ref["rows"]):
            why = [base] if base else []
            row = out.rows[k] if k < len(out.rows) else None
            if row is None or row.sigma != sigma:
                why.append("missing row")
            else:
                if not abs(row.value_gap - gap) <= VALUE_RTOL * max(1.0, gap):
                    why.append(f"gap {row.value_gap!r} vs {gap!r}")
                if not abs(row.argmin_agreement - agree) <= agree_tol:
                    why.append(f"agreement {row.argmin_agreement!r} vs {agree!r}")
            result.append("; ".join(why) if why else None)
        return result


# ---------------------------------------------------------------------------
# mc-crosscheck: cross_check with a prebuilt policy and sweep


class CrossCheck(Part):
    name = "mc-crosscheck"

    def setup(self, size: Size, seed: int):
        model = P.particle_steering_model()
        family = _family(size)
        grid = P.build_simplex_grid(model.n_states, size.mc_k)
        # built here and passed in, so the timed section assembles nothing
        sweep = P.BellmanSweep(model, grid, family)
        vg, _ = P.value_iteration(model, grid, family, tol=TOL, sweep=sweep)
        policy = P.extract_policy(vg, family)
        # cross_check uses stream seed mc_seed + row for row `row`
        mc_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
        return SimpleNamespace(model=model, policy=policy, sweep=sweep, mc_seed=mc_seed,
                               n_traj=size.n_traj)

    def ops(self, inp) -> int:
        return len(X0S)

    def run(self, inp):
        return P.cross_check(inp.model, inp.policy, X0S, n_traj=inp.n_traj, seed=inp.mc_seed,
                             sweep=inp.sweep)

    def summary(self, inp, out) -> dict:
        return {"mdp_values": [r.mdp_value for r in out.rows]}

    def check(self, inp, out, ref) -> list:
        result = []
        for k, want in enumerate(ref["mdp_values"]):
            row = out.rows[k] if k < len(out.rows) else None
            why = []
            if row is None:
                why.append("missing row")
            else:
                if not abs(row.z) < MAX_ABS_Z:
                    why.append(f"|z| = {abs(row.z):.3g}")
                if not _close(row.mdp_value, want):
                    why.append(f"mdp value {row.mdp_value!r} vs {want!r}")
            result.append("; ".join(why) if why else None)
        return result

    def extras(self, inp, passes) -> dict:
        if not passes:
            return {}
        traj = inp.n_traj * len(X0S)
        return {"traj_per_s": float(np.median([traj / d for d, _ in passes]))}


# ---------------------------------------------------------------------------
# filter-replay: filter_trajectory over a seeded event log


class _Clocked:
    """Event sequence that stamps the time each event is requested, so the
    gap between stamps is one filter update as filter_trajectory runs it."""

    def __init__(self, events):
        self.events = events
        self.stamps: list[float] = []

    def __iter__(self):
        for event in self.events:
            self.stamps.append(time.perf_counter())
            yield event


class FilterReplay(Part):
    name = "filter-replay"

    def setup(self, size: Size, seed: int):
        model = P.particle_steering_model()
        family = _family(size)
        gen = np.random.default_rng(seed)
        y = int(gen.integers(model.n_states))
        eps = model.noise.offsets[int(gen.choice(len(model.noise.weights), p=model.noise.weights))]
        x0 = float(model.post_jump_states[y, 0] + eps[0])
        events = []
        for _ in range(size.events):
            control = family[int(gen.integers(len(family)))]
            s, y, x = P.sample_jump(model, y, control, gen)
            events.append((control, s, x))
        return SimpleNamespace(model=model, x0=x0, events=events,
                               kernel=P.RegularizationKernel("gaussian", FILTER_SIGMA),
                               expected=None)

    def ops(self, inp) -> int:
        return 2 * len(inp.events)

    def run(self, inp):
        out = {}
        for key, kernel in (("exact", None), ("regularized", inp.kernel)):
            clocked = _Clocked(inp.events)
            beliefs = P.filter_trajectory(inp.model, inp.x0, clocked, kernel=kernel)
            end = time.perf_counter()
            out[key] = (beliefs, np.diff(np.append(clocked.stamps, end)))
        return out

    def check(self, inp, out, ref) -> list:
        if inp.expected is None:
            inp.expected = {"exact": reference_beliefs(inp.x0, inp.events),
                            "regularized": reference_beliefs(inp.x0, inp.events, FILTER_SIGMA)}
        result = []
        for key in ("exact", "regularized"):
            beliefs = np.array([b.probs for b in out[key][0]])
            err = np.abs(beliefs - inp.expected[key]).max(axis=1)[1:]
            result += [None if e <= BELIEF_ATOL else f"{key} update {n}: error {e:.3g}"
                       for n, e in enumerate(err)]
        return result

    def extras(self, inp, passes) -> dict:
        """Update latency median and 99th percentile over all passes, with
        the sample count and the number of samples beyond the percentile."""
        if not passes:
            return {}
        out = {}
        for key, prefix in (("exact", "update"), ("regularized", "reg_update")):
            ms = np.concatenate([r[key][1] for _, r in passes]) * 1e3
            p99 = float(np.percentile(ms, 99))
            out.update({f"{prefix}_p50_ms": float(np.percentile(ms, 50)),
                        f"{prefix}_p99_ms": p99, f"{prefix}_samples": int(ms.size),
                        f"{prefix}_beyond_p99": int(np.sum(ms > p99))})
        return out


# Independent closed form of the particle-steering filter: unit hazard and
# discount, pure-velocity drift, piecewise-linear jump kernel and uniform
# three-point noise, written out here rather than taken from the library.
_STATES = np.array([-2.0, 0.0, 2.0])
_KERNEL_NODES = np.array([-2.0, -1.5, 1.5, 2.0])
_KERNEL_ROWS = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def _displacement(control, t: np.ndarray) -> np.ndarray:
    starts = np.array((0.0,) + tuple(control.breaks))
    ends = np.append(starts[1:], np.inf)
    out = np.zeros_like(t)
    for a, b, mix in zip(starts, ends, control.pieces):
        out += mix.mean_action()[0] * np.clip(t - a, 0.0, b - a)
    return out


def _kernel(pos: np.ndarray) -> np.ndarray:
    return np.stack([np.interp(pos, _KERNEL_NODES, col) for col in _KERNEL_ROWS.T], axis=-1)


def _reachable(x: float) -> np.ndarray:
    """States y with x - y among the noise offsets {-1, 0, 1}."""
    d = x - _STATES
    return (np.abs(d - np.rint(d)) <= 1e-9) & (np.abs(np.rint(d)) <= 1.0)


def reference_beliefs(x0: float, events, sigma: float | None = None) -> np.ndarray:
    """Belief after each event; the regularized version integrates the
    gaussian-smoothed jump density by composite Simpson on
    [max(0, s - 5 sigma), s + 5 sigma] with step min(sigma/8, 0.02)."""
    mu = _reachable(x0).astype(float)
    mu /= mu.sum()
    out = [mu]
    for control, s, x in events:
        if sigma is None:
            u, c = np.array([s]), np.ones(1)
        else:
            lo, hi = max(0.0, s - 5.0 * sigma), s + 5.0 * sigma
            npan = max(8, 2 * math.ceil((hi - lo) / (2.0 * min(sigma / 8.0, 0.02))))
            u = np.linspace(lo, hi, npan + 1)
            w = np.full(npan + 1, 2.0)
            w[1::2] = 4.0
            w[0] = w[-1] = 1.0
            dens = np.exp(-0.5 * ((s - u) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
            # hazard 1 and discount 1 give the factor exp(-2u)
            c = w * (hi - lo) / npan / 3.0 * dens * np.exp(-2.0 * u)
        pos = _STATES[:, None] + _displacement(control, u)[None, :]
        numer = np.einsum("k,i,ikj->j", c, mu, _kernel(pos)) * _reachable(float(x[0]))
        mu = numer / numer.sum()
        out.append(mu)
    return np.array(out)


PARTS = {p.name: p for p in (Solve(), Sweep(), CrossCheck(), FilterReplay())}


class Workload:
    """Parts run one after the other in each pass.  ``run`` returns the
    (duration, output) of every part; ``extras`` adds each part's mean
    duration per pass as ``<part>.pass_s``."""

    def __init__(self, name: str, *parts: str):
        self.name = name
        self.parts = [PARTS[p] for p in parts]

    def setup(self, size: Size, seed: int):
        return [p.setup(size, seed) for p in self.parts]

    def ops(self, inp) -> int:
        return sum(p.ops(i) for p, i in zip(self.parts, inp))

    def run(self, inp):
        out = []
        for p, i in zip(self.parts, inp):
            t0 = time.perf_counter()
            result = p.run(i)
            out.append((time.perf_counter() - t0, result))
        return out

    def check(self, inp, out, ref) -> list:
        return [v for p, i, (_, o) in zip(self.parts, inp, out)
                for v in p.check(i, o, ref.get(p.name))]

    def extras(self, inp, passes) -> dict:
        out = {}
        for k, (p, i) in enumerate(zip(self.parts, inp)):
            mine = [r[k] for _, r in passes]
            if mine:
                out[f"{p.name}.pass_s"] = float(np.mean([d for d, _ in mine]))
            out.update(p.extras(i, mine))
        return out


WORKLOADS = {w.name: w for w in (Workload("solve-sweep", "solve-k40", "sigma-sweep"),
                                 Workload("mc-filter", "mc-crosscheck", "filter-replay"))}
