"""Filtered-MDP layer over the belief simplex.

Provides the one-stage cost of a relaxed control from a post-jump state and
from a belief, the expectation of a grid value function under the belief
transition kernel, and the L / T Bellman operators minimized over a finite
control family.

All time integrals here run on one shared grid over [0, t_max] with composite
Simpson weights.  With piecewise-constant controls whose hazard, kernel or
cost actually depends on the action, the integrand jumps at control
breakpoints; those jumps are not panel-aligned, costing O(h) locally.  Models
with uncontrolled local characteristics (the usual case here) have continuous
integrands and keep the full Simpson order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import cumulative_simpson

from .filtering import _DENOM_FLOOR, RegularizationKernel, as_belief
from .grid import SimplexGrid, ValueGrid
from .model import ControlPath, PopdmpModel, RelaxedControl, _state_number, simpson_weights

__all__ = [
    "StageQuadrature",
    "ControlFamily",
    "CandidateTables",
    "StageContext",
    "switching_family",
    "build_tables",
    "stage_cost_g",
    "stage_cost_belief",
    "transition_matrix",
    "expected_next_value",
    "transition_mass",
    "L_operator",
    "T_operator",
]

DEFAULT_STAGE_STEP = 0.01
DEFAULT_TAIL_TOL = 1e-8


@dataclass(frozen=True)
class StageQuadrature:
    """Truncated time grid for the stage integrals.

    ``t_max`` is chosen so the neglected tail of both the discounted cost
    integral and the transition mass sits below ``tail_tol``; the integrand
    decays at least like exp(-(discount + hazard_lower) t).
    """

    t_max: float
    h: float = DEFAULT_STAGE_STEP

    def __post_init__(self):
        if not (self.t_max > 0 and self.h > 0):
            raise ValueError("t_max and h must be positive")

    @staticmethod
    def for_model(model: PopdmpModel, h: float = DEFAULT_STAGE_STEP,
                  tail_tol: float = DEFAULT_TAIL_TOL) -> "StageQuadrature":
        decay = model.discount + model.hazard_bounds[0]
        scale = max(model.cost_max, model.hazard_bounds[1], 1.0)
        t_max = math.log(scale / (decay * tail_tol)) / decay
        return StageQuadrature(t_max=t_max, h=h)

    def times_and_weights(self) -> tuple[np.ndarray, np.ndarray]:
        npan = max(2, 2 * math.ceil(self.t_max / (2.0 * self.h)))
        ts = np.linspace(0.0, self.t_max, npan + 1)
        return ts, simpson_weights(npan, self.t_max / npan)


@dataclass(frozen=True)
class ControlFamily:
    """Finite candidate set standing in for the full relaxed-control space."""

    candidates: tuple[RelaxedControl, ...]

    def __post_init__(self):
        if len(self.candidates) == 0:
            raise ValueError("control family must be non-empty")

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)

    def __getitem__(self, k: int) -> RelaxedControl:
        return self.candidates[k]


def switch_control(action: float, tau: float, after: float = 0.0) -> RelaxedControl:
    """Hold ``action`` on [0, tau), then ``after`` forever."""
    return RelaxedControl.from_pieces([(0.0, float(action)), (float(tau), float(after))])


def switching_family(actions=(-1.0, 0.0, 1.0), taus=None) -> ControlFamily:
    """Single-switch bang family over scalar actions.

    Candidate order (it breaks argmin ties, lowest index first): the zero
    constant, then for each nonzero action in descending order all switch
    times ascending, then the nonzero constants in descending order.
    Zero-action switches coincide with the zero constant and are not
    duplicated.
    """
    if taus is None:
        taus = [k / 10.0 for k in range(1, 21)]
    acts = [float(a) for a in actions]
    nonzero = sorted([a for a in acts if a != 0.0], reverse=True)
    cands: list[RelaxedControl] = []
    if 0.0 in acts:
        cands.append(RelaxedControl.constant(0.0))
    for a in nonzero:
        for tau in taus:
            cands.append(switch_control(a, tau))
    for a in nonzero:
        cands.append(RelaxedControl.constant(a))
    return ControlFamily(tuple(cands))


# ---------------------------------------------------------------------------
# per-candidate tables


@dataclass(eq=False)
class CandidateTables:
    """Everything about one control that is independent of beliefs and of the
    value function: the discounted hazard-kernel tensor and the per-state
    stage cost on the stage time grid."""

    times: np.ndarray        # (n,)
    weights: np.ndarray      # (n,) composite Simpson weights on [0, t_max]
    step: float
    dmat: np.ndarray         # (d, d, n): exp(-beta t_j - Lambda_i(t_j)) * sum_a w lam Q(u)
    g: np.ndarray            # (d,) stage costs
    node_class: np.ndarray   # (n,) factor class of each node (see build_tables)


def _bit_classes(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classes of the columns of the float array ``cols`` that are
    bit-identical: the first column of each class and every column's class,
    classes in the lexicographic order of their bits as uint64 (the order of
    ``np.unique(bits, axis=0)``, which sorts slower)."""
    bits = np.ascontiguousarray(cols).view(np.uint64)
    order = np.lexsort(bits[::-1])
    fresh = np.ones(order.size, dtype=bool)
    fresh[1:] = (bits[:, order[1:]] != bits[:, order[:-1]]).any(axis=0)
    inverse = np.empty(order.size, dtype=np.int64)
    inverse[order] = np.cumsum(fresh) - 1
    return order[fresh], inverse


def build_tables(model: PopdmpModel, control: RelaxedControl,
                 stage: StageQuadrature) -> CandidateTables:
    """Stage tables of one control.

    Nodes share a factor class when their discount factors agree across
    states up to one scale (``egamma[:, j] / max_i egamma[i, j]``) and their
    kernel rows agree, both bit for bit; their ``dmat`` slices are then
    multiples of each other in exact arithmetic, whatever the rounding of the
    products does to their last bits.
    """
    model.check_control(control)
    ts, W = stage.times_and_weights()
    path = ControlPath.from_post_jump_states(model, control, ts)
    lam_int = cumulative_simpson(path.hazard, dx=float(ts[1] - ts[0]), axis=1, initial=0.0)
    egamma = np.exp(-model.discount * ts[None, :] - lam_int)
    dmat = np.ascontiguousarray((egamma[:, :, None] * path.kernel_rows).transpose(0, 2, 1))
    g = (W[None, :] * egamma * path.cost).sum(axis=1)
    factors = np.concatenate([egamma / egamma.max(axis=0),
                              path.kernel_rows.transpose(0, 2, 1).reshape(-1, ts.size)])
    _, node_class = _bit_classes(factors)
    return CandidateTables(
        times=ts,
        weights=W,
        step=float(ts[1] - ts[0]),
        dmat=dmat,
        g=g,
        node_class=node_class,
    )


def _smooth_tensor(dmat: np.ndarray, step: float, kernel: RegularizationKernel) -> np.ndarray:
    """Convolve the last axis with h_sigma using window Simpson weights, one
    full ``np.convolve`` per (i, u) row cut back to the stage grid.

    Terms reaching below time zero are dropped, matching the truncated
    integration domain of the regularized filter; beyond t_max the tensor is
    treated as zero (its mass there is below the tail tolerance).
    """
    w = max(1, math.ceil(kernel.halfwidth / step))
    sw = simpson_weights(2 * w, step) * kernel.density(np.arange(-w, w + 1) * step)
    n = dmat.shape[-1]
    rows = [np.convolve(row, sw)[w:w + n] for row in dmat.reshape(-1, n)]
    return np.array(rows).reshape(dmat.shape)


class StageContext:
    """Cache of per-control tables shared across operator evaluations."""

    def __init__(self, model: PopdmpModel, stage: StageQuadrature | None = None):
        self.model = model
        self.stage = stage if stage is not None else StageQuadrature.for_model(model)
        _, self.obs_weights = model.observation_atoms()
        self._tables: dict[RelaxedControl, CandidateTables] = {}

    def tables(self, control: RelaxedControl) -> CandidateTables:
        tb = self._tables.get(control)
        if tb is None:
            tb = build_tables(self.model, control, self.stage)
            self._tables[control] = tb
        return tb

    def smoothed_dmat(self, control: RelaxedControl, kernel: RegularizationKernel) -> np.ndarray:
        """The control's ``dmat`` smoothed in time by ``kernel`` (not cached:
        each operator build asks once per candidate and kernel)."""
        tb = self.tables(control)
        return _smooth_tensor(tb.dmat, tb.step, kernel)


def _context(model: PopdmpModel, ctx: StageContext | None) -> StageContext:
    """``ctx``, or a fresh one for ``model``; tables built for another model
    would silently answer for it, so such a context raises ValueError."""
    if ctx is None:
        return StageContext(model)
    if ctx.model is not model:
        raise ValueError("stage context was built for another model")
    return ctx


# ---------------------------------------------------------------------------
# operators


def stage_cost_g(model: PopdmpModel, y, control: RelaxedControl,
                 ctx: StageContext | None = None) -> float:
    """Expected discounted running cost until the next jump, started at y."""
    ctx = _context(model, ctx)
    return float(ctx.tables(control).g[_state_number(model, y)])


def stage_cost_belief(model: PopdmpModel, rho, control: RelaxedControl,
                      ctx: StageContext | None = None) -> float:
    """Belief-averaged one-stage cost sum_y g(y, r) rho(y)."""
    ctx = _context(model, ctx)
    probs = as_belief(rho, model.n_states).probs
    return float(probs @ ctx.tables(control).g)


# Candidates whose L lies within _TIE_RTOL * max(1, |min L|) of the minimum
# count as tied.  Regrouping the quadrature sums moves L by a few ulp, which
# would otherwise flip argmins between candidates that tie in exact
# arithmetic (mirror-image controls on a symmetric belief).
_TIE_RTOL = 4.0 * np.finfo(float).eps


def _tie_stable_min(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum over axis 0 of the (candidates, ...) array ``vals`` and the
    lowest candidate index within the tie tolerance of it."""
    best = vals.min(axis=0)
    tied = vals <= best + _TIE_RTOL * np.maximum(1.0, np.abs(best))
    return best, tied.argmax(axis=0)


def _require_kernel_policy(model: PopdmpModel, kernel) -> None:
    if model.hazard_controlled and kernel is None:
        raise ValueError(
            "models with action-dependent hazard or jump kernel require a "
            "regularization kernel for the belief transition"
        )


def _time_classes(tb: CandidateTables,
                  d_b: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the stage time nodes of ``tb`` whose kernel slices agree up to
    scale.

    A posterior depends on a node's ``d_b`` slice (the regularized tensor,
    or ``tb.dmat`` when ``d_b`` is None) only up to scale, and its
    probability weight is linear in the ``tb.dmat`` slice.  Every node
    takes the ``dmat`` slice, divided by its largest entry, of the first
    node of its factor class (``tb.node_class``), so that slices that are
    multiples in exact arithmetic merge whatever rounding did to their last
    bits.  Nodes whose normalized slices are then bit-identical (jointly
    with their normalized ``d_b`` slice) form one class, represented by
    those slices and carrying the sum of Simpson weight times ``dmat``
    scale over its nodes; classes are ordered by those bits.  Nodes with an
    all-zero slice carry no mass and are dropped.  Returns the normalized
    ``dmat`` and ``d_b`` slices, (d, d, C) each, and the (C,) class weights.
    """
    d_w = tb.dmat
    d, n = d_w.shape[0], d_w.shape[-1]
    sw = d_w.reshape(-1, n).max(axis=0)
    sb = sw if d_b is None else d_b.reshape(-1, n).max(axis=0)
    live = np.flatnonzero((sw > 0.0) & (sb > 0.0))
    _, first, node = np.unique(tb.node_class[live], return_index=True, return_inverse=True)
    rep = live[first[node]]
    norm_w = d_w[..., rep] / sw[rep]
    norm_b = norm_w if d_b is None else d_b[..., live] / sb[live]
    norm = np.concatenate([norm_w, norm_b])
    first, inverse = _bit_classes(norm.reshape(-1, live.size))
    cw = np.bincount(inverse, weights=tb.weights[live] * sw[live])
    rep = norm[..., first]
    return rep[:d], rep[d:], cw


# dense cells (1 MiB of float64) per row block of ``transition_matrix``
_BLOCK_CELLS = 2**17


def transition_matrix(ctx: StageContext, control: RelaxedControl,
                      kernel: RegularizationKernel | None, grid: SimplexGrid,
                      beliefs: np.ndarray) -> sp.csr_matrix:
    """Belief transition kernel from each row of ``beliefs`` to the grid.

    Row p holds, per grid vertex, the substochastic mass of the posteriors
    reached from belief p: for every observation atom and stage time class
    (``_time_classes``; one class per distinct kernel slice up to scale) the
    posterior is formed (driven by the regularized tensor when a kernel is
    given), dropped when its normalizer (taken on the class's normalized
    slice) is at most ``_DENOM_FLOOR``, located on the grid, and weighted by
    its class-weighted probability times the barycentric weights.  Grouping
    the nodes only regroups the Simpson sum, so the matrix equals the
    per-node sum up to rounding.  An atom whose noise weights are nonzero
    on the states S only yields posteriors that are zero off S, so they are
    formed and located on the face of the grid spanned by S
    (``SimplexGrid.face``); the full locator would return the same nonzero
    vertices and weights bit for bit, plus vertices of weight exactly 0.  A
    single-state atom u yields the posterior e_u exactly (x/x) wherever it
    is kept, so each row's mass, summed over its kept time classes, goes to
    that vertex.

    The matrix products (the beliefs against the class tensors, the
    observation weights against those, and the single-state masses against
    the class weights) run once over all rows, since BLAS may round a row
    differently when the rows are split.  The row-wise work (masks,
    posteriors, location) then runs on blocks of about ``_BLOCK_CELLS``
    dense cells: each block's entries are added in place into one dense
    (block rows x grid points) buffer, whose nonzero cells become that
    block's CSR rows.  Every cell receives its terms in the same order
    whatever the block size, so the matrix is bitwise independent of it.
    The buffer holds about ``_BLOCK_CELLS`` cells (at least one row) for any
    number of beliefs; memory is otherwise the products, of order beliefs
    times time classes.  The result stores no explicit zeros.  A value
    grid's expectation is therefore ``transition_matrix(...) @ values``.
    """
    tb = ctx.tables(control)
    d_b = ctx.smoothed_dmat(control, kernel) if kernel is not None else None
    c_w, c_b, cw = _time_classes(tb, d_b)
    d, n_cls = c_w.shape[0], cw.size
    un_w = (beliefs @ c_w.reshape(d, -1)).reshape(-1, d, n_cls)
    un_b = un_w if d_b is None else (beliefs @ c_b.reshape(d, -1)).reshape(-1, d, n_cls)
    n_rows, n_cols = beliefs.shape[0], grid.n_points
    atoms = []
    for wvec in ctx.obs_weights:
        support = np.flatnonzero(wvec)
        if support.size == 1:
            u = support[0]
            keep = wvec[u] * un_b[:, u] > _DENOM_FLOOR
            wx = wvec[u] * un_w[:, u]
            keep &= wx > 0.0
            wx[~keep] = 0.0  # in place: np.where(keep, wx, 0.0) without another copy
            psel = np.flatnonzero(keep.any(axis=1))
            mass = (psel, wx[psel] @ cw)
        else:
            mass = np.einsum("u,puc->pc", wvec, un_w)
        atoms.append((wvec, support, *grid.face(support), mass))
    step = max(1, _BLOCK_CELLS // n_cols)
    dense = np.empty(min(step, n_rows) * n_cols)
    # CSR parts, each list led by an empty part (a zero for the row pointer)
    data, cols, counts = [np.zeros(0)], [np.zeros(0, np.int64)], [np.zeros(1, np.int64)]
    for lo in range(0, n_rows, step):
        hi = min(lo + step, n_rows)
        block = dense[:(hi - lo) * n_cols]
        block.fill(0.0)
        for wvec, support, face, to_grid, mass in atoms:
            if support.size == 1:
                psel, pw = mass
                a, b = np.searchsorted(psel, (lo, hi))
                rows, pw = psel[a:b] - lo, pw[a:b]
                posts = np.ones((1, 1))
            else:
                wx = mass[lo:hi]
                numer = wvec[None, support, None] * un_b[lo:hi, support]
                denom = numer.sum(axis=1)
                rows, csel = np.nonzero((wx > 0.0) & (denom > _DENOM_FLOOR))
                pw = cw[csel] * wx[rows, csel]
                posts = numer[rows, :, csel] / denom[rows, csel][:, None]
            if rows.size == 0:
                continue
            idx, bw = face.barycentric_batch(posts)
            # flat: numpy's fast ufunc.at path takes a 1-d index (2-d ran about 6x slower)
            np.add.at(block, (rows[:, None] * n_cols + to_grid[idx]).ravel(),
                      (pw[:, None] * bw).ravel())
        nz = np.flatnonzero(block != 0.0)  # a bool scan: ~6x faster than one of the floats
        data.append(block[nz])
        cols.append(nz % n_cols)
        counts.append(np.bincount(nz // n_cols, minlength=hi - lo))
    del un_w, un_b, atoms  # the products are spent: free them before the rows are joined
    indptr = np.cumsum(np.concatenate(counts))
    return sp.csr_matrix((np.concatenate(data), np.concatenate(cols), indptr),
                         shape=(n_rows, n_cols))


def expected_next_value(model: PopdmpModel, v: ValueGrid, rho, control: RelaxedControl,
                        kernel: RegularizationKernel | None = None,
                        ctx: StageContext | None = None) -> float:
    """Integral of the interpolated value function against the belief
    transition kernel: the one-row ``transition_matrix`` times the values.

    The observation sum is exact (finitely many reachable observations); the
    time integral uses the stage Simpson grid.  The plain filter drives the
    next belief unless a regularization kernel is given (mandatory when the
    hazard or jump kernel is controlled).
    """
    _require_kernel_policy(model, kernel)
    probs = as_belief(rho, model.n_states).probs
    row = transition_matrix(_context(model, ctx), control, kernel, v.grid, probs[None])
    return float((row @ v.values)[0])


def transition_mass(model: PopdmpModel, rho, control: RelaxedControl,
                    ctx: StageContext | None = None) -> float:
    """Total substochastic mass of the belief transition kernel; equals
    expected_next_value with v identically one."""
    tb = _context(model, ctx).tables(control)
    probs = as_belief(rho, model.n_states).probs
    un_w = np.einsum("i,iuj->uj", probs, tb.dmat)
    return float(tb.weights @ un_w.sum(axis=0))


def L_operator(model: PopdmpModel, v: ValueGrid, rho, control: RelaxedControl,
               kernel: RegularizationKernel | None = None,
               ctx: StageContext | None = None) -> float:
    """One-stage cost plus expected next value under one candidate control."""
    ctx = _context(model, ctx)
    return stage_cost_belief(model, rho, control, ctx=ctx) + expected_next_value(
        model, v, rho, control, kernel=kernel, ctx=ctx
    )


def T_operator(model: PopdmpModel, v: ValueGrid, rho, family: ControlFamily,
               kernel: RegularizationKernel | None = None,
               ctx: StageContext | None = None) -> tuple[float, int]:
    """Minimum of L over the candidate family and the lowest index among the
    candidates tied with it (``_tie_stable_min``)."""
    ctx = _context(model, ctx)
    vals = [L_operator(model, v, rho, control, kernel=kernel, ctx=ctx) for control in family]
    best, k = _tie_stable_min(np.array(vals))
    return float(best), int(k)
