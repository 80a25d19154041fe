"""Belief-space solver: value iteration to the Bellman fixed point on a
triangulated simplex grid, stationary policy extraction, and the
regularization-bandwidth sweep.

The Bellman operator restricted to the grid is linear in the value samples
for each candidate control, so it is precomputed once per candidate as a
stage-cost vector plus a sparse matrix; a Jacobi sweep is then a handful of
sparse matrix-vector products and is deterministic regardless of how work is
scheduled.  The candidates' operators are built as one task each, on every
usable core when the grid is large enough to pay; each matrix is assembled
in row blocks of bounded size, and is bitwise the same for any runner count
and block size.
"""

from __future__ import annotations

import csv
import queue
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .filtering import RegularizationKernel
from .grid import SimplexGrid, ValueGrid, build_simplex_grid
from .mdp import (
    ControlFamily,
    StageContext,
    StageQuadrature,
    _context,
    _require_kernel_policy,
    _tie_stable_min,
    transition_matrix,
)
from .model import PopdmpModel, RelaxedControl, _index_groups, _usable_cores

__all__ = [
    "BellmanSweep",
    "SolveReport",
    "GridPolicy",
    "SigmaSweepRow",
    "SigmaSweepResult",
    "build_simplex_grid",
    "value_iteration",
    "extract_policy",
    "sigma_sweep",
    "write_csv",
    "write_value_csv",
    "write_report_csv",
]


# the policy fixed point stops at a sup-norm step below FIXED_POINT_TOL
FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_ITER = 10_000


# Plain-filter builds on grids with fewer points run their candidates on
# the calling thread alone.  numpy releases the interpreter lock only inside
# its kernels, and a small grid's arrays are too small for that to pay for
# passing the lock between threads.  On a 2-vCPU host, with the 5-candidate
# steering family, two threads built no faster at K=15 (136 points), where
# they made the benchmark's mc-filter set-up 28% slower, and 22% faster at
# K=18 (190 points).  A regularized build has about three times the time
# classes, and two threads built it 30% faster at K=15 (sigma 0.2 and 0.1).
_MIN_THREADED_POINTS = 150


def _map_threaded(fn, items: list, runners: int) -> list:
    """``[fn(x) for x in items]``, with the items handed out one at a time,
    in order, to ``runners`` runners: the calling thread and a pool of
    ``runners - 1`` threads.  The candidates of a ``BellmanSweep`` and the
    row blocks of a Monte Carlo run (``sim._mc_estimates``) both run
    through it.  Each result is what ``fn`` returns for its item alone, so
    the list does not depend on ``runners``.  Once a call raises, no
    further item is started; the calls in flight finish, and the error of
    the lowest failed index is raised, which is the one a serial loop would
    meet first."""
    todo: queue.SimpleQueue = queue.SimpleQueue()
    for k in range(len(items)):
        todo.put(k)
    out: list = [None] * len(items)
    errors: dict = {}

    def drain() -> None:
        while not errors:
            try:
                k = todo.get_nowait()
            except queue.Empty:
                return
            try:
                out[k] = fn(items[k])
            except BaseException as exc:
                errors[k] = exc

    # a pool starts its threads on submit, so one runner starts none
    with ThreadPoolExecutor(max_workers=max(1, runners - 1)) as pool:
        rest = [pool.submit(drain) for _ in range(runners - 1)]
        drain()
        for f in rest:
            f.result()
    if errors:
        raise errors[min(errors)]
    return out


class BellmanSweep:
    """Grid-restricted Bellman operator, one (cost vector, sparse matrix)
    pair per candidate control, for the regularization kernel (None: plain
    filter) and the stage quadrature of ``ctx`` (default ``StageContext(model)``;
    one built for another model raises ValueError).

    Each candidate's stage tables, cost row and matrix are built as one
    task.  With a regularization kernel, or on a grid of at least
    ``_MIN_THREADED_POINTS`` points, the tasks run on one runner per usable
    core, at most one per candidate (``_map_threaded``); otherwise on the
    calling thread.  A task depends only on its own control, so every
    matrix is bitwise the same whatever the runner count."""

    def __init__(self, model: PopdmpModel, grid: SimplexGrid, family: ControlFamily,
                 kernel: RegularizationKernel | None = None,
                 ctx: StageContext | None = None):
        _require_kernel_policy(model, kernel)
        self.model = model
        self.grid = grid
        self.family = family
        self.kernel = kernel
        self.ctx = _context(model, ctx)
        if grid.dim != model.n_states:
            raise ValueError("grid dimension must match the number of post-jump states")
        for wvec in self.ctx.obs_weights:
            grid.face(np.flatnonzero(wvec))  # cached here, so the runners only read it

        def build(control: RelaxedControl) -> tuple[np.ndarray, sp.csr_matrix]:
            g = grid.points @ self.ctx.tables(control).g
            return g, transition_matrix(self.ctx, control, kernel, grid, grid.points)

        threaded = kernel is not None or grid.n_points >= _MIN_THREADED_POINTS
        built = _map_threaded(build, list(family),
                              min(_usable_cores(), len(family)) if threaded else 1)
        self.gmat = np.stack([g for g, _ in built])
        self.mats: list[sp.csr_matrix] = [m for _, m in built]

    # -- sweeps ---------------------------------------------------------------

    def bellman(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One Jacobi sweep: minimized values and argmin candidate indices,
        the lowest index among tied candidates (``mdp._tie_stable_min``)."""
        return _tie_stable_min(self.gmat + np.stack([m @ values for m in self.mats]))

    def apply_assignment(self, assign: np.ndarray, values: np.ndarray) -> np.ndarray:
        """One sweep of T_f for a fixed candidate assignment per grid point."""
        out = np.empty(self.grid.n_points)
        for k, sel in _index_groups(assign):
            out[sel] = self.gmat[k, sel] + self.mats[k][sel] @ values
        return out

    def policy_fixed_point(self, assign: np.ndarray) -> np.ndarray:
        """Value of the stationary policy given by a candidate assignment."""
        v = np.zeros(self.grid.n_points)
        for _ in range(FIXED_POINT_MAX_ITER):
            nxt = self.apply_assignment(assign, v)
            delta = float(np.max(np.abs(nxt - v)))
            v = nxt
            if delta < FIXED_POINT_TOL:
                break
        return v

    def require_built_for(self, model: PopdmpModel, grid: SimplexGrid,
                          family: ControlFamily) -> None:
        """Raise ValueError unless built for ``model`` (the same object), on a
        grid of ``grid``'s dimension and subdivisions, and for ``family``."""
        built = (self.grid.dim, self.grid.subdivisions, self.family)
        if self.model is not model or built != (grid.dim, grid.subdivisions, family):
            raise ValueError("sweep was built for another model, grid or control family")


@dataclass
class SolveReport:
    iterations: int
    residuals: list[float]
    final_residual: float
    converged: bool
    wall_time: float
    tol: float


def value_iteration(model: PopdmpModel, grid: SimplexGrid, family: ControlFamily,
                    tol: float = 1e-4, max_iter: int = 200,
                    sweep: BellmanSweep | None = None) -> tuple[ValueGrid, SolveReport]:
    """Iterate V_{n+1} = T V_n from zero until the sup-norm step drops below
    tol; on max_iter the partial result is returned with converged=False.
    The returned argmins are greedy for the returned values: they come from
    the closing sweep T V that also gives the final residual.  ``sweep``
    (default: the plain filter's) must be built for ``model``, ``grid`` and
    ``family``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    t0 = time.perf_counter()
    if sweep is None:
        sweep = BellmanSweep(model, grid, family)
    sweep.require_built_for(model, grid, family)
    values = np.zeros(grid.n_points)
    residuals: list[float] = []
    converged = False
    for _ in range(max_iter):
        nxt, _ = sweep.bellman(values)
        residuals.append(float(np.max(np.abs(nxt - values))))
        values = nxt
        if residuals[-1] < tol:
            converged = True
            break
    final_check, argmins = sweep.bellman(values)
    final_residual = float(np.max(np.abs(final_check - values)))
    report = SolveReport(
        iterations=len(residuals),
        residuals=residuals,
        final_residual=final_residual,
        converged=converged,
        wall_time=time.perf_counter() - t0,
        tol=tol,
    )
    return ValueGrid(grid, values, argmins), report


@dataclass(eq=False)
class GridPolicy:
    """Stationary policy: each belief uses the argmin candidate stored at the
    interpolation-nearest grid vertex."""

    grid: SimplexGrid
    family: ControlFamily
    argmins: np.ndarray

    def candidate_indices(self, probs: np.ndarray) -> np.ndarray:
        verts = self.grid.nearest_vertex_batch(np.atleast_2d(np.asarray(probs, dtype=float)))
        return self.argmins[verts]

    def control(self, belief) -> RelaxedControl:
        probs = np.asarray(getattr(belief, "probs", belief), dtype=float).reshape(1, -1)
        return self.family[int(self.candidate_indices(probs)[0])]


def extract_policy(vg: ValueGrid, family: ControlFamily) -> GridPolicy:
    """Stationary policy from the stored argmin candidate per grid point."""
    if vg.argmins is None:
        raise ValueError("value grid carries no argmin data; run value_iteration first")
    return GridPolicy(grid=vg.grid, family=family, argmins=vg.argmins)


@dataclass
class SigmaSweepRow:
    sigma: float
    value_gap: float
    argmin_agreement: float


@dataclass
class SigmaSweepResult:
    rows: list[SigmaSweepRow]
    plain_values: ValueGrid
    plain_report: SolveReport


def sigma_sweep(model: PopdmpModel, grid: SimplexGrid, family: ControlFamily,
                sigmas, tol: float = 1e-4, max_iter: int = 200,
                stage: StageQuadrature | None = None,
                kind: str = "gaussian") -> SigmaSweepResult:
    """Solve with the regularized filter at each bandwidth and report the
    sup-norm gap and argmin agreement against the plain-filter solution.

    Requires an uncontrolled hazard and jump kernel so the plain-filter
    solution exists; sigmas must be decreasing.
    """
    if model.hazard_controlled:
        raise ValueError("sigma sweep needs hazard_controlled=False for the plain baseline")
    sig = [float(s) for s in sigmas]
    if any(b >= a for a, b in zip(sig, sig[1:])):
        raise ValueError("sigmas must be strictly decreasing")
    # one stage context, so every candidate's stage tables are built once
    ctx = StageContext(model, stage)
    plain_vg, plain_report = value_iteration(
        model, grid, family, tol=tol, max_iter=max_iter,
        sweep=BellmanSweep(model, grid, family, ctx=ctx),
    )
    rows = []
    for s in sig:
        vg, _ = value_iteration(
            model, grid, family, tol=tol, max_iter=max_iter,
            sweep=BellmanSweep(model, grid, family, kernel=RegularizationKernel(kind, s), ctx=ctx),
        )
        gap = float(np.max(np.abs(vg.values - plain_vg.values)))
        agree = float(np.mean(vg.argmins == plain_vg.argmins))
        rows.append(SigmaSweepRow(sigma=s, value_gap=gap, argmin_agreement=agree))
    return SigmaSweepResult(rows=rows, plain_values=plain_vg, plain_report=plain_report)


# ---------------------------------------------------------------------------
# delimited output


def _fmt(x) -> str:
    return f"{float(x):.9g}"


def write_csv(path, header: list[str], rows) -> None:
    """Write the header, then the rows (lists of already formatted fields)."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(rows)


def write_value_csv(vg: ValueGrid, path) -> None:
    argm = vg.argmins if vg.argmins is not None else np.full(vg.grid.n_points, -1)
    write_csv(path, [f"rho_{i + 1}" for i in range(vg.grid.dim)] + ["value", "argmin_index"],
              ([_fmt(c) for c in p] + [_fmt(v), str(int(a))]
               for p, v, a in zip(vg.grid.points, vg.values, argm)))


def write_report_csv(report: SolveReport, path) -> None:
    write_csv(path, ["iteration", "residual"],
              ([str(i), _fmt(r)] for i, r in enumerate(report.residuals, start=1)))
