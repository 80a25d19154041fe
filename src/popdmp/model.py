"""Problem data and deterministic dynamics for controlled piecewise
deterministic Markov processes observed through additive noise at jump times.

The model couples a finite set of post-jump states with a controlled drift,
a bounded jump hazard, a jump kernel concentrated on the post-jump set, a
discrete observation-noise density and a nonnegative running cost.  Controls
are relaxed: piecewise-constant paths of finitely supported probability
mixtures over a compact action box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ActionMixture",
    "RelaxedControl",
    "NoiseModel",
    "VectorField",
    "ClosedFormFlow",
    "PopdmpModel",
    "DiscretePolicy",
    "PiecewisePolicy",
    "IntegrationDivergedError",
    "InvalidControlError",
    "ModelValidationError",
    "mixture_velocity",
    "flow",
    "flow_path",
    "big_lambda",
    "lambda_path",
    "gamma",
    "piecewise_to_discrete",
    "discrete_to_piecewise",
    "correspondence_roundtrip",
]


class IntegrationDivergedError(RuntimeError):
    """The flow integrator produced a non-finite state."""


class InvalidControlError(ValueError):
    """A control places probability mass outside the action box."""


class ModelValidationError(ValueError):
    """Model data violates a declared bound or normalization."""


# slack on the declared hazard and cost bounds, at validation and at run time
_BOUND_TOL = 1e-9
# largest RK4 step of a vector-field flow and largest Simpson step of a
# hazard integral
H_ODE = 1e-3
H_QUAD = 1e-3


def _as_vector(x) -> np.ndarray:
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if a.ndim != 1:
        raise ValueError(f"expected a flat vector, got shape {a.shape}")
    return a


# ---------------------------------------------------------------------------
# relaxed controls


@dataclass(frozen=True)
class ActionMixture:
    """Finitely supported probability mixture over the action space.

    ``actions`` holds the atoms (each an m-tuple), ``weights`` their
    probabilities.  Weights must be nonnegative and sum to one.
    """

    actions: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.actions) == 0 or len(self.actions) != len(self.weights):
            raise ValueError("mixture needs matching, non-empty atoms and weights")
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("mixture weights must be finite and nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {w.sum()!r}, expected 1")

    @staticmethod
    def dirac(action) -> "ActionMixture":
        a = tuple(float(v) for v in np.atleast_1d(action))
        return ActionMixture(actions=(a,), weights=(1.0,))

    @staticmethod
    def of(pairs: Sequence[tuple[object, float]]) -> "ActionMixture":
        """Build a mixture from (action, weight) pairs."""
        actions = tuple(tuple(float(v) for v in np.atleast_1d(a)) for a, _ in pairs)
        weights = tuple(float(w) for _, w in pairs)
        return ActionMixture(actions=actions, weights=weights)

    def mean_action(self) -> np.ndarray:
        acts = np.asarray(self.actions, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        return w @ acts


@dataclass(frozen=True)
class RelaxedControl:
    """Piecewise-constant relaxed control on [0, inf).

    ``breaks`` are the interior breakpoints 0 < t_1 < ... < t_k; piece i is
    active on [t_i, t_{i+1}) and the last piece extends to infinity, so there
    are k+1 pieces for k breakpoints.
    """

    pieces: tuple[ActionMixture, ...]
    breaks: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.pieces) != len(self.breaks) + 1:
            raise ValueError("need exactly one more piece than breakpoints")
        b = np.asarray(self.breaks, dtype=float)
        if b.size and (not np.all(np.isfinite(b)) or b[0] <= 0 or np.any(np.diff(b) <= 0)):
            raise ValueError("breakpoints must be finite, positive and strictly increasing")

    @staticmethod
    def constant(mixture) -> "RelaxedControl":
        if not isinstance(mixture, ActionMixture):
            mixture = ActionMixture.dirac(mixture)
        return RelaxedControl(pieces=(mixture,))

    @staticmethod
    def from_pieces(pairs: Sequence[tuple[float, object]]) -> "RelaxedControl":
        """Build from (start_time, mixture-or-action) pairs; first start must be 0."""
        if not pairs or float(pairs[0][0]) != 0.0:
            raise ValueError("first piece must start at time 0")
        starts = [float(t) for t, _ in pairs]
        mixes = tuple(
            m if isinstance(m, ActionMixture) else ActionMixture.dirac(m) for _, m in pairs
        )
        return RelaxedControl(pieces=mixes, breaks=tuple(starts[1:]))

    def piece_index_at(self, t):
        """Index of the piece active at time(s) t; accepts scalars and arrays."""
        return np.searchsorted(self.breaks, t, side="right")

    def mixture_at(self, t: float) -> ActionMixture:
        return self.pieces[self.piece_index_at(t)]


def _check_actions_in_box(control: RelaxedControl, box: np.ndarray) -> None:
    for piece in control.pieces:
        for a in piece.actions:
            av = np.asarray(a, dtype=float)
            if av.shape != (box.shape[0],):
                raise InvalidControlError(
                    f"action {a} has dimension {av.shape}, action box expects {box.shape[0]}"
                )
            if not all(map(math.isfinite, av.tolist())):
                raise InvalidControlError(f"action {a} is not finite")
            if np.any(av < box[:, 0] - 1e-12) or np.any(av > box[:, 1] + 1e-12):
                raise InvalidControlError(f"action {a} lies outside the action box")


# ---------------------------------------------------------------------------
# observation noise


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Discrete observation noise: finitely many offsets with a density
    with respect to the counting measure on the offset set."""

    offsets: np.ndarray  # (n, D)
    weights: np.ndarray  # (n,)
    match_tol: float = 1e-9

    def __post_init__(self):
        off = np.atleast_2d(np.asarray(self.offsets, dtype=float))
        if off.shape[0] == 1 and off.shape[1] > 1 and np.asarray(self.offsets).ndim == 1:
            off = off.T
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "weights", w)
        if off.shape[0] != w.shape[0]:
            raise ModelValidationError("offsets and weights disagree in length")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ModelValidationError("noise weights must be nonnegative and sum to 1")
        if len({tuple(row) for row in off}) != off.shape[0]:
            raise ModelValidationError("noise offsets must be distinct")
        if not self.match_tol > 0:
            # state + offset need not round back to the offset, so an exact
            # match would reject the model's own observations
            raise ModelValidationError("noise match_tol must be positive")

    @property
    def dim(self) -> int:
        return self.offsets.shape[1]

    def density(self, deltas) -> np.ndarray:
        """Noise density at observation-minus-state differences, (..., D) -> (...).

        A delta matches the first offset within ``match_tol * (1 + max|delta|)``
        in every coordinate, unless that tolerance is not finite (an infinite
        delta would match anything); the filter, the simulator and
        ``PopdmpModel.observation_atoms`` all match through this rule.
        """
        d = np.asarray(deltas, dtype=float)
        tol = self.match_tol * (1.0 + np.abs(d).max(axis=-1, initial=0.0))
        out = np.zeros(d.shape[:-1])
        free = np.isfinite(tol)
        for off, w in zip(self.offsets, self.weights):
            hit = free & np.all(np.abs(d - off) <= tol[..., None], axis=-1)
            out += w * hit  # branch-free: masked stores are slow on random masks
            free &= ~hit
        return out

    def density_at(self, delta) -> float:
        return float(self.density(_as_vector(delta)))


# ---------------------------------------------------------------------------
# drift representations


@dataclass(frozen=True)
class VectorField:
    """Controlled drift given as b(y, a); flows are integrated by fixed-step
    RK4 restarting at control breakpoints."""

    b: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ClosedFormFlow:
    """Controlled drift given directly as its flow map: ``path(y, r, times)``
    returns the flow from y under r at each of the sorted times, (n, D)."""

    path: Callable[[np.ndarray, RelaxedControl, np.ndarray], np.ndarray]


def mixture_velocity(field: VectorField, y, mixture: ActionMixture) -> np.ndarray:
    """Mixture-averaged velocity sum_atoms w * b(y, a)."""
    y = _as_vector(y)
    out = np.zeros_like(y)
    for a, w in zip(mixture.actions, mixture.weights):
        out = out + w * np.asarray(field.b(y, np.asarray(a, dtype=float)), dtype=float)
    return out


# ---------------------------------------------------------------------------
# the model


@dataclass(frozen=True, eq=False)
class PopdmpModel:
    """Complete problem data for a controlled, partially observable PDMP.

    Callables follow a batch convention: ``hazard(points, a) -> (N,)``,
    ``jump_kernel(points, a) -> (N, d)`` and ``cost_rate(points, a) -> (N,)``
    where ``points`` is an (N, D) array and ``a`` a single action vector.
    ``initial_kernel(x) -> (d,)`` maps one observation to post-jump-state
    probabilities.
    """

    post_jump_states: np.ndarray  # (d, D)
    drift: VectorField | ClosedFormFlow
    hazard: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hazard_bounds: tuple[float, float]
    jump_kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    noise: NoiseModel
    cost_rate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cost_max: float
    discount: float
    initial_kernel: Callable[[np.ndarray], np.ndarray]
    action_box: np.ndarray  # (m, 2)
    hazard_controlled: bool = False
    name: str = ""

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.post_jump_states, dtype=float))
        if np.asarray(self.post_jump_states).ndim == 1:
            states = states.T
        object.__setattr__(self, "post_jump_states", states)
        box = np.atleast_2d(np.asarray(self.action_box, dtype=float))
        object.__setattr__(self, "action_box", box)
        if box.shape[1] != 2 or np.any(box[:, 0] > box[:, 1]):
            raise ModelValidationError("action box rows must be (lower, upper) intervals")
        if states.shape[0] < 1:
            raise ModelValidationError("need at least one post-jump state")
        if len({tuple(row) for row in states}) != states.shape[0]:
            raise ModelValidationError("post-jump states must be distinct")
        lo, hi = self.hazard_bounds
        if not (0 < lo <= hi < math.inf):
            raise ModelValidationError("hazard bounds must satisfy 0 < lower <= upper < inf")
        if self.discount <= 0 or self.cost_max < 0:
            raise ModelValidationError("discount must be positive, cost bound nonnegative")
        if self.noise.dim != states.shape[1]:
            raise ModelValidationError("noise offsets and states disagree in dimension")
        self._validate_samples()

    # -- basic geometry -----------------------------------------------------

    @property
    def n_states(self) -> int:
        return self.post_jump_states.shape[0]

    @property
    def space_dim(self) -> int:
        return self.post_jump_states.shape[1]

    def state_index(self, y) -> int:
        y = _as_vector(y)
        hits = np.where(np.all(np.isclose(self.post_jump_states, y, atol=1e-9), axis=1))[0]
        if not hits.size:
            raise ValueError(f"{y} is not a post-jump state")
        return int(hits[0])

    def observation_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct reachable observations and their per-state noise weights.

        Returns ``(xs, w)`` with ``xs`` of shape (n_x, D) and
        ``w[j, i] = f(xs[j] - y_i)``.  Observations produced by different
        post-jump states coincide only on exact float equality.
        """
        pts = (self.post_jump_states[:, None, :] + self.noise.offsets[None, :, :]).reshape(
            -1, self.space_dim
        )
        xs = np.unique(pts, axis=0)
        return xs, self.noise.density(xs[:, None, :] - self.post_jump_states[None, :, :])

    def check_control(self, control: RelaxedControl) -> None:
        _check_actions_in_box(control, self.action_box)

    # -- validation ----------------------------------------------------------

    def _sample_actions(self) -> list[np.ndarray]:
        grids = [np.array([lo, 0.5 * (lo + hi), hi]) for lo, hi in self.action_box]
        acts: list[np.ndarray] = []
        if len(grids) <= 3:
            mesh = np.meshgrid(*grids, indexing="ij")
            acts = [np.array(a) for a in zip(*(m.ravel() for m in mesh))]
        else:
            acts = [self.action_box[:, 0], self.action_box[:, 1], self.action_box.mean(axis=1)]
        return acts

    def _sample_positions(self) -> np.ndarray:
        pts = [self.post_jump_states]
        if self.space_dim == 1:
            lo = self.post_jump_states.min() - 2.0
            hi = self.post_jump_states.max() + 2.0
            pts.append(np.linspace(lo, hi, 17)[:, None])
        else:
            s = self.post_jump_states
            if s.shape[0] >= 2:
                pts.append(0.5 * (s[:-1] + s[1:]))
        return np.concatenate(pts, axis=0)

    def _validate_samples(self) -> None:
        pos = self._sample_positions()
        lo, hi = self.hazard_bounds
        for a in self._sample_actions():
            lam = np.asarray(self.hazard(pos, a), dtype=float)
            if np.any(lam < lo - _BOUND_TOL) or np.any(lam > hi + _BOUND_TOL):
                raise ModelValidationError("hazard leaves its declared bounds on the test grid")
            c = np.asarray(self.cost_rate(pos, a), dtype=float)
            if np.any(c < -1e-12) or np.any(c > self.cost_max + _BOUND_TOL):
                raise ModelValidationError("cost rate leaves [0, cost_max] on the test grid")
            rows = np.asarray(self.jump_kernel(pos, a), dtype=float)
            if rows.shape != (pos.shape[0], self.n_states):
                raise ModelValidationError("jump kernel returned a wrongly shaped row block")
            if np.any(rows < -1e-12) or np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-12):
                raise ModelValidationError("jump kernel rows must be probabilities summing to 1")
        for y in self.post_jump_states:
            for eps in self.noise.offsets:
                q0 = np.asarray(self.initial_kernel(y + eps), dtype=float)
                if q0.shape != (self.n_states,) or np.any(q0 < -1e-12):
                    raise ModelValidationError("initial kernel must return a probability vector")
                if abs(q0.sum() - 1.0) > 1e-12:
                    raise ModelValidationError("initial kernel rows must sum to 1")


def _state_number(model: PopdmpModel, y) -> int:
    """Index of a post-jump state given either as an index or as a point."""
    if isinstance(y, (int, np.integer)):
        i = int(y)
        if not (0 <= i < model.n_states):
            raise IndexError(f"state index {i} out of range")
        return i
    return model.state_index(y)


# ---------------------------------------------------------------------------
# flow, local characteristics, hazard integral


def flow_path(model: PopdmpModel, y, control: RelaxedControl, times) -> np.ndarray:
    """Controlled flow evaluated along sorted times >= 0; returns (n, D).

    Closed-form drifts are evaluated directly.  Vector fields are integrated
    with fixed-step RK4 (step <= H_ODE), restarting at control
    breakpoints so each step sees a constant mixture.
    """
    model.check_control(control)
    y = _as_vector(y)
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or (t.size and (t[0] < 0 or np.any(np.diff(t) < 0))):
        raise ValueError("times must be a sorted, nonnegative 1-d array")
    if isinstance(model.drift, ClosedFormFlow):
        out = np.asarray(model.drift.path(y, control, t), dtype=float).reshape(t.size, y.size)
        if not np.all(np.isfinite(out)):
            raise IntegrationDivergedError("closed-form flow produced non-finite values")
        return out

    field = model.drift
    # knots: requested times plus breakpoints falling strictly inside the range
    t_end = t[-1] if t.size else 0.0
    knots = np.unique(np.concatenate([[0.0], t, [b for b in control.breaks if b < t_end]]))
    out = np.empty((t.size, y.size))
    state = y.copy()
    want = {}
    for j, tt in enumerate(t):
        want.setdefault(float(tt), []).append(j)
    for j in want.get(0.0, []):
        out[j] = y
    for a, b in zip(knots[:-1], knots[1:]):
        mix = control.mixture_at(0.5 * (a + b))
        span = b - a
        nsteps = max(1, math.ceil(span / H_ODE))
        h = span / nsteps
        for _ in range(nsteps):
            k1 = mixture_velocity(field, state, mix)
            k2 = mixture_velocity(field, state + 0.5 * h * k1, mix)
            k3 = mixture_velocity(field, state + 0.5 * h * k2, mix)
            k4 = mixture_velocity(field, state + h * k3, mix)
            state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(state)):
            raise IntegrationDivergedError(f"flow integration diverged near t={b}")
        for j in want.get(float(b), []):
            out[j] = state
    return out


def flow(model: PopdmpModel, y, control: RelaxedControl, t: float) -> np.ndarray:
    """Controlled flow Phi^r(y, t) as a point in R^D."""
    if t < 0:
        raise ValueError("flow requires t >= 0")
    return flow_path(model, y, control, np.array([float(t)]))[0]


def simpson_weights(n_panels: int, h: float) -> np.ndarray:
    """Composite-Simpson weights on an even number of panels of width h."""
    w = np.full(n_panels + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= h / 3.0
    return w


def _simpson_nodes(control: RelaxedControl, cuts, h: float):
    """Composite-Simpson nodes (step <= h) on each interval between sorted cuts.

    Returns nodes, weights, the active piece and the interval index of each
    node.  A cut shared by two intervals appears once per interval, each copy
    tagged with its own interval's piece, so one-sided limits integrate
    correctly.
    """
    cuts = np.asarray(cuts, dtype=float)
    spans = np.diff(cuts)
    npans = np.maximum(2, 2 * np.ceil(spans / (2.0 * h)).astype(np.int64))
    first = np.cumsum(npans + 1) - (npans + 1)
    seg = np.repeat(np.arange(spans.size), npans + 1)
    i = np.arange(seg.size) - first[seg]
    step = spans / npans
    # np.linspace's arithmetic, then each interval's last node set to its cut
    nodes = i * step[seg] + cuts[seg]
    nodes[first + npans] = cuts[1:]
    pattern = np.where(i % 2 == 1, 4.0, 2.0)
    pattern[first] = pattern[first + npans] = 1.0
    weights = pattern * (step / 3.0)[seg]
    pieces = control.piece_index_at(0.5 * (cuts[:-1] + cuts[1:]))[seg]
    return nodes, weights, pieces, seg


def _index_groups(ids: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The distinct values of the 1-d integer array ``ids`` in ascending
    order, each with the ascending positions that hold it: the pairs
    ``(v, np.flatnonzero(ids == v))`` for ``v`` in ``np.unique(ids)``, from
    one stable argsort."""
    if ids.size == 0:
        return []
    order = np.argsort(ids, kind="stable")
    cuts = np.flatnonzero(ids[order[1:]] != ids[order[:-1]]) + 1
    return [(ids[g[0]], g) for g in np.split(order, cuts)]


class ControlPath:
    """Local characteristics of a relaxed control at points on its flow.

    ``points`` has shape (..., D); ``piece_of``, broadcast to the leading
    shape, names the control piece active at each point.  The mixture hazard
    ``hazard`` (...), cost rate ``cost`` (...) and hazard-weighted kernel rows
    ``kernel_rows`` (..., d), each summed over the atoms of the active
    mixture, are evaluated on first use; ``hazard`` and ``kernel_rows`` share
    the per-atom hazard evaluations.
    """

    def __init__(self, model: PopdmpModel, control: RelaxedControl, points, piece_of):
        self.model = model
        self.points = np.asarray(points, dtype=float)
        self.shape = self.points.shape[:-1]
        flat = self.points.reshape(-1, self.points.shape[-1])
        piece = np.broadcast_to(piece_of, self.shape).ravel()
        # (rows, their points, action, weight) for each atom of each piece in use
        self._atoms = []
        for p, sel in _index_groups(piece):
            pts = flat[sel]
            mix = control.pieces[p]
            for a, w in zip(mix.actions, mix.weights):
                self._atoms.append((sel, pts, np.asarray(a, dtype=float), w))

    @classmethod
    def from_post_jump_states(cls, model: PopdmpModel, control: RelaxedControl,
                              times) -> "ControlPath":
        """Path along the flows from every post-jump state; points (d, n, D)."""
        pos = np.stack([flow_path(model, y, control, times) for y in model.post_jump_states])
        return cls(model, control, pos, control.piece_index_at(times))

    def _sum_over_atoms(self, terms, tail=()) -> np.ndarray:
        out = np.zeros((math.prod(self.shape), *tail))
        for (sel, _, _, _), term in zip(self._atoms, terms):
            out[sel] += term
        return out.reshape(*self.shape, *tail)

    @cached_property
    def _atom_hazards(self) -> list[np.ndarray]:
        return [np.asarray(self.model.hazard(pts, a), dtype=float) for _, pts, a, _ in self._atoms]

    @cached_property
    def hazard(self) -> np.ndarray:
        return self._sum_over_atoms(
            w * lam for (_, _, _, w), lam in zip(self._atoms, self._atom_hazards)
        )

    @cached_property
    def cost(self) -> np.ndarray:
        return self._sum_over_atoms(
            w * np.asarray(self.model.cost_rate(pts, a), dtype=float)
            for _, pts, a, w in self._atoms
        )

    @cached_property
    def kernel_rows(self) -> np.ndarray:
        """sum over atoms of w * hazard * jump-kernel row."""
        return self._sum_over_atoms(
            ((w * lam)[:, None] * np.asarray(self.model.jump_kernel(pts, a), dtype=float)
             for (_, pts, a, w), lam in zip(self._atoms, self._atom_hazards)),
            tail=(self.model.n_states,),
        )


def big_lambda(model: PopdmpModel, y, control: RelaxedControl, t: float) -> float:
    """Integrated mixture hazard Lambda^r(y, t) by composite Simpson."""
    return float(_lambda_paths(model, [y], control, [float(t)])[0, 0])


def _lambda_paths(model: PopdmpModel, starts, control: RelaxedControl, times) -> np.ndarray:
    """Lambda^r(y, t) for each start y (rows) at each of the sorted times.

    The quadrature places sub-interval boundaries at every requested time and
    every control breakpoint, so each returned value is a full composite
    Simpson integral with step <= H_QUAD.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1:
        raise ValueError("times must be 1-d")
    # every comparison with a NaN is false, and an inf is last if anywhere
    if ts.size and not (ts[0] >= 0 and np.all(np.diff(ts) >= 0) and math.isfinite(ts[-1])):
        raise ValueError("times must be finite, sorted and nonnegative")
    k = len(starts)
    if ts.size == 0 or ts[-1] == 0.0:
        return np.zeros((k, ts.size))
    t_end = float(ts[-1])
    cuts = np.unique(
        np.concatenate([[0.0, t_end], ts, [b for b in control.breaks if 0.0 < b < t_end]])
    )
    nodes, weights, pieces, seg = _simpson_nodes(control, cuts, H_QUAD)
    pos = np.stack([flow_path(model, y, control, nodes) for y in starts])
    lam = ControlPath(model, control, pos, pieces).hazard
    n_seg = cuts.size - 1
    # one bincount over (start, interval) bins sums each bin in node order
    bins = (np.arange(k)[:, None] * n_seg + seg).ravel()
    seg_int = np.bincount(bins, weights=(weights * lam).ravel(), minlength=k * n_seg)
    cum = np.cumsum(seg_int.reshape(k, n_seg), axis=1)
    return np.stack([np.interp(ts, cuts, np.concatenate([[0.0], c]), left=0.0) for c in cum])


def lambda_path(model: PopdmpModel, y, control: RelaxedControl, times) -> np.ndarray:
    """Lambda^r(y, t) evaluated at each of the sorted times."""
    return _lambda_paths(model, [y], control, times)[0]


def gamma(model: PopdmpModel, y, control: RelaxedControl, t: float) -> float:
    """Discount-augmented hazard integral beta*t + Lambda^r(y, t)."""
    return model.discount * float(t) + big_lambda(model, y, control, t)


# ---------------------------------------------------------------------------
# policies and the piecewise/discrete correspondence


class DiscretePolicy:
    """Stationary policy mapping a belief over the post-jump set to a
    relaxed control applied on the next inter-jump interval."""

    def __init__(self, rule: Callable[[np.ndarray], RelaxedControl]):
        self._rule = rule

    def control(self, belief) -> RelaxedControl:
        probs = np.asarray(getattr(belief, "probs", belief), dtype=float)
        return self._rule(probs)


class PiecewisePolicy:
    """Open-loop-per-stage policy: (history summary, elapsed time) -> mixture."""

    def __init__(self, rule: Callable[[object, float], ActionMixture]):
        self._rule = rule

    def mixture(self, summary, elapsed: float) -> ActionMixture:
        return self._rule(summary, elapsed)


def piecewise_to_discrete(policy: PiecewisePolicy, summary, probe_times) -> RelaxedControl:
    """Reconstruct a piecewise-constant relaxed control from probes.

    A breakpoint is placed at every probe where the returned mixture changes,
    so re-expanding the control reproduces the probed mixtures exactly.
    """
    probes = np.asarray(probe_times, dtype=float)
    if probes.ndim != 1 or probes.size == 0 or probes[0] != 0.0 or np.any(np.diff(probes) <= 0):
        raise ValueError("probe times must be strictly increasing and start at 0")
    pairs: list[tuple[float, ActionMixture]] = []
    for t in probes:
        m = policy.mixture(summary, float(t))
        if not pairs or m != pairs[-1][1]:
            pairs.append((float(t), m))
    return RelaxedControl.from_pieces(pairs)


def discrete_to_piecewise(rule: Callable[[object], RelaxedControl]) -> PiecewisePolicy:
    """Expand a summary -> control map back into a (summary, t) -> mixture rule."""
    return PiecewisePolicy(lambda summary, t: rule(summary).mixture_at(t))


def correspondence_roundtrip(policy: PiecewisePolicy, summary, probe_times):
    """Round-trip a piecewise policy through its discrete representation.

    Returns ``(control, back)`` where ``control`` is the reconstructed
    relaxed control and ``back`` the re-expanded piecewise policy; for
    piecewise-constant inputs both agree with the original at every probe.
    """
    control = piecewise_to_discrete(policy, summary, probe_times)
    back = discrete_to_piecewise(lambda _s: control)
    return control, back
