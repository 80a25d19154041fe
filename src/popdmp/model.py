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
import os
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
    "IntegrationDivergedError",
    "InvalidControlError",
    "ModelValidationError",
    "mixture_velocity",
    "flow_path",
    "lambda_path",
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
        # tuples, so that a mixture and its control hash: the filter, the
        # stage tables and the simulator key their work by control
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "weights", tuple(self.weights))
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
        object.__setattr__(self, "pieces", tuple(self.pieces))
        object.__setattr__(self, "breaks", tuple(self.breaks))
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
        if not np.all(np.isfinite(off)):
            raise ModelValidationError("noise offsets must be finite")
        # each check holds for every entry, so a NaN weight fails it
        if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12):
            raise ModelValidationError("noise weights must be finite, nonnegative and sum to 1")
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


# ---------------------------------------------------------------------------
# drift representations


@dataclass(frozen=True)
class VectorField:
    """Controlled drift given as b(y, a); flows are integrated by fixed-step
    RK4 restarting at control breakpoints."""

    b: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ClosedFormFlow:
    """Controlled drift given as its flow map: ``path(y, r, times)`` is the
    flow from y under r at each time, elementwise in t and in any order, (n, D)."""

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
    probabilities.  ``hazard_controlled=False`` declares that hazard and jump
    kernel ignore the action; validation checks it at the sample actions.
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
        if box.shape[1] != 2 or not (np.isfinite(box).all() and np.all(box[:, 0] <= box[:, 1])):
            raise ModelValidationError("action box rows must be finite (lower, upper) intervals")
        if states.shape[0] < 1:
            raise ModelValidationError("need at least one post-jump state")
        if len({tuple(row) for row in states}) != states.shape[0]:
            raise ModelValidationError("post-jump states must be distinct")
        lo, hi = self.hazard_bounds
        if not (0 < lo <= hi < math.inf):
            raise ModelValidationError("hazard bounds must satisfy 0 < lower <= upper < inf")
        if not (0 < self.discount < math.inf and 0 <= self.cost_max < math.inf):
            raise ModelValidationError("discount must be positive, cost bound nonnegative, "
                                       "both finite")
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
        seen = None  # hazard and kernel rows at the first sample action
        for a in self._sample_actions():
            lam = _local(self, "hazard", pos, a)
            _local(self, "cost_rate", pos, a)
            rows = _local(self, "jump_kernel", pos, a)
            seen = seen or (lam, rows)
            if not self.hazard_controlled and not all(
                    np.array_equal(u, v) for u, v in zip((lam, rows), seen)):
                raise ModelValidationError("hazard or jump kernel depends on the action; "
                                           "declare hazard_controlled=True")
        for y in self.post_jump_states:
            for eps in self.noise.offsets:
                q0 = np.asarray(self.initial_kernel(y + eps), dtype=float)
                if q0.shape != (self.n_states,) or not np.all(q0 >= -1e-12):
                    raise ModelValidationError("initial kernel must return a probability vector")
                if not abs(q0.sum() - 1.0) <= 1e-12:
                    raise ModelValidationError("initial kernel rows must sum to 1")


def _state_number(model: PopdmpModel, y) -> int:
    """Index of a post-jump state given either as an index or as a point."""
    if isinstance(y, (int, np.integer)):
        i = int(y)
        if not (0 <= i < model.n_states):
            raise IndexError(f"state index {i} out of range")
        return i
    return model.state_index(y)


def _local(model: PopdmpModel, name: str, points: np.ndarray, action) -> np.ndarray:
    """``model.<name>(points, action)`` as floats, for ``name`` one of
    ``hazard``, ``cost_rate`` and ``jump_kernel``: the one place they are
    evaluated, each checked against the model's bounds by reductions, which
    propagate a NaN.  A failure raises ``ModelValidationError``."""
    out = np.asarray(getattr(model, name)(points, action), dtype=float)
    if name == "jump_kernel":
        if out.shape != (len(points), model.n_states):
            raise ModelValidationError(f"jump kernel returned a block of shape {out.shape}")
        sums = out @ np.ones(model.n_states)
        # max |sums - 1| <= 1e-12 bit for bit, as sums - 1 is exact near 1
        if not (out.min(initial=0.0) >= -1e-12 and sums.max(initial=1.0) - 1.0 <= 1e-12
                and 1.0 - sums.min(initial=1.0) <= 1e-12):
            raise ModelValidationError("jump kernel rows are NaN or not probabilities summing to 1")
        return out
    lo, hi = model.hazard_bounds if name == "hazard" else (0.0, model.cost_max)
    if not (out.min(initial=lo) >= lo - (_BOUND_TOL if name == "hazard" else 1e-12)
            and out.max(initial=hi) <= hi + _BOUND_TOL):
        raise ModelValidationError(f"{name.replace('_', ' ')} is NaN or leaves its declared "
                                   f"bounds [{lo}, {hi}]: it spans [{out.min()}, {out.max()}]")
    return out


# ---------------------------------------------------------------------------
# flow, local characteristics, hazard integral


def _check_times(times) -> np.ndarray:
    """``times`` as a float array; it must be 1-d, finite, sorted and
    nonnegative."""
    ts = np.asarray(times, dtype=float)
    # every comparison with a NaN is false, and an inf is last if anywhere
    if ts.ndim != 1 or ts.size and not (ts[0] >= 0 and np.all(np.diff(ts) >= 0)
                                        and math.isfinite(ts[-1])):
        raise ValueError("times must be a 1-d array, finite, sorted and nonnegative")
    return ts


def flow_path(model: PopdmpModel, y, control: RelaxedControl, times) -> np.ndarray:
    """Controlled flow evaluated along finite, sorted times >= 0; returns (n, D).

    Closed-form drifts are evaluated directly.  Vector fields are integrated
    with fixed-step RK4 (step <= H_ODE), restarting at control
    breakpoints so each step sees a constant mixture.
    """
    model.check_control(control)
    return _flow_path(model, y, control, times)


def _closed_form_path(model: PopdmpModel, y, control: RelaxedControl, t) -> np.ndarray:
    """The closed-form flow from the vector ``y`` at the times ``t``, in any
    order, as a float (n, D) array: the one place ``ClosedFormFlow.path`` is
    called.  A non-finite value raises IntegrationDivergedError."""
    out = np.asarray(model.drift.path(y, control, t), dtype=float).reshape(t.size, y.size)
    if not np.all(np.isfinite(out)):
        raise IntegrationDivergedError("closed-form flow produced non-finite values")
    return out


def _flow_path(model: PopdmpModel, y, control: RelaxedControl, times) -> np.ndarray:
    """``flow_path`` for a control its caller has checked."""
    y = _as_vector(y)
    t = _check_times(times)
    if isinstance(model.drift, ClosedFormFlow):
        return _closed_form_path(model, y, control, t)

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


def simpson_weights(n_panels: int, h: float) -> np.ndarray:
    """Composite-Simpson weights on an even number of panels of width h."""
    w = np.full(n_panels + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= h / 3.0
    return w


def _simpson_nodes(control: RelaxedControl, a, b, h: float):
    """Composite-Simpson nodes (step <= h) on each interval [a_i, b_i].

    Returns nodes, weights, the active piece and the interval index of each
    node.  An endpoint shared by two intervals appears once per interval,
    each copy tagged with its own interval's piece, so one-sided limits
    integrate correctly.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    spans = b - a
    npans = np.maximum(2, 2 * np.ceil(spans / (2.0 * h)).astype(np.int64))
    first = np.cumsum(npans + 1) - (npans + 1)
    seg = np.repeat(np.arange(spans.size), npans + 1)
    i = np.arange(seg.size) - first[seg]
    step = spans / npans
    # np.linspace's arithmetic, then each interval's last node set to its end
    nodes = i * step[seg] + a[seg]
    nodes[first + npans] = b
    pattern = np.where(i % 2 == 1, 4.0, 2.0)
    pattern[first] = pattern[first + npans] = 1.0
    weights = pattern * (step / 3.0)[seg]
    pieces = control.piece_index_at(0.5 * (a + b))[seg]
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


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one, else the machine's CPU count (at least one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        piece_of = np.asarray(piece_of)
        if len(self.shape) == 2 and piece_of.shape == self.shape[1:]:
            # pieces per node, shared by every start: group the nodes once and
            # take each group start by start, the order a stable argsort of
            # the broadcast array gives
            starts = np.arange(self.shape[0])[:, None] * self.shape[1]
            groups = [(p, (starts + g).ravel()) for p, g in _index_groups(piece_of)]
        else:
            groups = _index_groups(np.broadcast_to(piece_of, self.shape).ravel())
        # (rows, their points, action, weight) for each atom of each piece in use
        self._atoms = []
        for p, sel in groups:
            pts = flat[sel]
            mix = control.pieces[p]
            for a, w in zip(mix.actions, mix.weights):
                self._atoms.append((sel, pts, np.asarray(a, dtype=float), w))

    @classmethod
    def from_post_jump_states(cls, model: PopdmpModel, control: RelaxedControl,
                              times) -> "ControlPath":
        """Path along the flows from every post-jump state; points (d, n, D).
        The caller checks ``control``."""
        pos = np.stack([_flow_path(model, y, control, times) for y in model.post_jump_states])
        return cls(model, control, pos, control.piece_index_at(times))

    def _sum_over_atoms(self, terms, tail=()) -> np.ndarray:
        out = np.zeros((math.prod(self.shape), *tail))
        for (sel, _, _, _), term in zip(self._atoms, terms):
            out[sel] += term
        return out.reshape(*self.shape, *tail)

    @cached_property
    def _atom_hazards(self) -> list[np.ndarray]:
        return [_local(self.model, "hazard", pts, a) for _, pts, a, _ in self._atoms]

    @cached_property
    def hazard(self) -> np.ndarray:
        return self._sum_over_atoms(
            w * lam for (_, _, _, w), lam in zip(self._atoms, self._atom_hazards)
        )

    @cached_property
    def cost(self) -> np.ndarray:
        return self._sum_over_atoms(
            w * _local(self.model, "cost_rate", pts, a) for _, pts, a, w in self._atoms
        )

    @cached_property
    def kernel_rows(self) -> np.ndarray:
        """sum over atoms of w * hazard * jump-kernel row."""
        return self._sum_over_atoms(
            ((w * lam)[:, None] * _local(self.model, "jump_kernel", pts, a)
             for (_, pts, a, w), lam in zip(self._atoms, self._atom_hazards)),
            tail=(self.model.n_states,),
        )


def _lambda_lists(model: PopdmpModel, starts, control: RelaxedControl,
                  time_lists) -> np.ndarray:
    """Lambda^r(y, t) for each start y (rows) at the times of every list of
    sorted times, the lists' columns one after the other.

    Each list is integrated on its own cuts: 0, the control breakpoints
    below its last time and its times, so each of its values is a full
    composite Simpson integral with step <= H_QUAD and does not depend on
    the other lists.  The lists share one node build over their distinct
    intervals and one flow and hazard evaluation; each interval is summed
    by one bincount bin in node order and each list by its own cumsum, so
    every value equals a lone list's bit for bit.
    """
    lists = [_check_times(ts) for ts in time_lists]
    cut_lists = [
        np.unique(np.concatenate([[0.0], ts[-1:], ts,
                                  [b for b in control.breaks if 0.0 < b < ts[-1]]]))
        if ts.size else np.zeros(1) for ts in lists
    ]
    k = len(starts)
    n_int = np.array([c.size - 1 for c in cut_lists])
    # each time's cut number in its list, so its integral sums that many intervals
    rows = np.repeat(np.arange(len(lists)), [ts.size for ts in lists])
    cols = np.concatenate([np.searchsorted(c, ts) for c, ts in zip(cut_lists, lists)])
    if not n_int.any():
        return np.zeros((k, cols.size))
    # each distinct interval once: a complex key sorts (start, end) pairs exactly
    ivals, ival_of = np.unique(
        np.concatenate([c[:-1] + 1j * c[1:] for c in cut_lists]), return_inverse=True)
    nodes, weights, pieces, seg = _simpson_nodes(control, ivals.real, ivals.imag, H_QUAD)
    # flow and hazard along the sorted nodes, put back in node order
    order = np.argsort(nodes)
    model.check_control(control)  # once for every start's flow
    pos = np.stack([_flow_path(model, y, control, nodes[order]) for y in starts])
    lam = np.empty((k, nodes.size))
    lam[:, order] = ControlPath(model, control, pos, pieces[order]).hazard
    n_seg = ivals.size
    # one bincount over (start, interval) bins sums each bin in node order
    bins = (np.arange(k)[:, None] * n_seg + seg).ravel()
    seg_int = np.bincount(bins, weights=(weights * lam).ravel(), minlength=k * n_seg)
    # every list's intervals in order after a zero column, zero-padded to
    # the longest list, so one cumsum gives each list's integral at its cuts
    padded = np.zeros((k, len(lists), n_int.max() + 1))
    padded[:, np.repeat(np.arange(len(lists)), n_int),
           np.concatenate([np.arange(1, n + 1) for n in n_int])] = (
        seg_int.reshape(k, n_seg)[:, ival_of])
    return np.cumsum(padded, axis=2)[:, rows, cols]


def lambda_path(model: PopdmpModel, y, control: RelaxedControl, times) -> np.ndarray:
    """Lambda^r(y, t) evaluated at each of the sorted times."""
    return _lambda_lists(model, [y], control, [times])[0]
