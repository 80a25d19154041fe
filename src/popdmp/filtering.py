"""Exact Bayes filter over the finite post-jump state set.

Implements the discounted joint density of (inter-jump time, next hidden
state, observation), the one-step Bayes update, its kernel-regularized
variant, and the belief recursion driven by an observed event log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (H_QUAD, ControlPath, PopdmpModel, RelaxedControl, _lambda_lists,
                    _state_number, simpson_weights)

__all__ = [
    "Belief",
    "RegularizationKernel",
    "ImpossibleObservationError",
    "initial_belief",
    "q_tilde",
    "q_tilde_sx",
    "update",
    "update_regularized",
    "filter_trajectory",
]

# a Bayes normalizer that is not above this floor (NaN included) counts as
# zero likelihood, in the filter, the simulator and the transition kernel
_DENOM_FLOOR = 1e-300
# the shapes of RegularizationKernel
KERNEL_KINDS = ("gaussian", "epanechnikov")
# hazard-quadrature nodes per block of filter_trajectory's batched q-tilde
_NODE_BUDGET = 1 << 15


class ImpossibleObservationError(ValueError):
    """The observation has zero likelihood under the current belief."""


@dataclass(frozen=True, eq=False)
class Belief:
    """Probability vector over the post-jump states.

    Construction renormalizes when the sum deviates from one by at most
    1e-8 and rejects anything worse; entries must be nonnegative.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if p.size == 0 or not np.all(np.isfinite(p)):
            raise ValueError("belief must be a non-empty finite vector")
        if np.any(p < -1e-12):
            raise ValueError("belief entries must be nonnegative")
        p = np.maximum(p, 0.0)
        s = p.sum()
        if abs(s - 1.0) > 1e-8:
            raise ValueError(f"belief sums to {s!r}, outside the 1e-8 renormalization window")
        object.__setattr__(self, "probs", p / s)

    def __len__(self) -> int:
        return self.probs.size


def as_belief(value, d: int | None = None) -> Belief:
    if isinstance(value, Belief):
        return value
    b = Belief(np.asarray(value, dtype=float))
    if d is not None and len(b) != d:
        raise ValueError(f"belief has length {len(b)}, expected {d}")
    return b


def _observation(model: PopdmpModel, x) -> np.ndarray:
    """Every observation the filter reads, as a flat vector of the model's
    dimension (a scalar is a 1-vector); a non-finite one is impossible."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.shape != (model.space_dim,):
        raise ValueError(f"observation {x!r} is not a flat vector of dimension {model.space_dim}")
    if not np.all(np.isfinite(v)):
        raise ImpossibleObservationError(f"observation {v} is not finite")
    return v


def initial_belief(model: PopdmpModel, x0) -> Belief:
    """mu_0 = Q_0(.|x0), where the filter and the simulator start: a length-d
    Belief, so a kernel output outside its 1e-8 window, like an observation
    of the wrong shape, raises ValueError; a non-finite observation, or one
    no state can emit whatever Q_0, raises ImpossibleObservationError."""
    x = _observation(model, x0)
    if not np.any(model.noise.density(x - model.post_jump_states) > 0.0):
        raise ImpossibleObservationError(f"observation {x} is unreachable: no state explains it")
    return as_belief(model.initial_kernel(x), model.n_states)


@dataclass(frozen=True)
class RegularizationKernel:
    """Smoothing kernel h_sigma for the regularized filter.

    The gaussian kernel is truncated at five bandwidths (mass outside is
    below 6e-7); the epanechnikov kernel has compact support [-sigma, sigma].
    """

    kind: str = "gaussian"
    sigma: float = 0.1

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown regularization kernel {self.kind!r}")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError("bandwidth sigma must be positive")

    @property
    def halfwidth(self) -> float:
        return 5.0 * self.sigma if self.kind == "gaussian" else self.sigma

    def density(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.kind == "gaussian":
            return np.exp(-0.5 * (u / self.sigma) ** 2) / (self.sigma * math.sqrt(2.0 * math.pi))
        return np.maximum(0.75 / self.sigma * (1.0 - (u / self.sigma) ** 2), 0.0)


# ---------------------------------------------------------------------------
# joint density


@dataclass(eq=False)
class _Event:
    """One Bayes update: the times at which it evaluates q-tilde, the
    Simpson-times-kernel weights of a regularized update (None for the exact
    one), the noise weights f(x - y_j) of its observation, and, once a batch
    fills it in, q-tilde at those times, (len(times), d, d)."""

    n: int
    control: RelaxedControl
    s: float
    x: object
    times: np.ndarray
    coeff: np.ndarray | None
    noise: np.ndarray
    mats: np.ndarray | None = None

    @property
    def nodes(self) -> float:
        """Bound on the hazard-quadrature nodes of the update's intervals."""
        return self.times[-1] / H_QUAD + 3 * (self.times.size + len(self.control.breaks) + 1)


def _event(model: PopdmpModel, n: int, control: RelaxedControl, s: float, x,
           kernel: RegularizationKernel | None) -> _Event:
    """The update's inputs; checks s (finite, >= 0), the control, the observation."""
    s = float(s)
    if not 0.0 <= s < math.inf:
        raise ValueError(f"inter-jump time s={s} must be finite and nonnegative")
    if kernel is None:
        times, coeff = np.array([s]), None
    else:
        w = kernel.halfwidth
        lo, hi = max(0.0, s - w), s + w
        step = min(kernel.sigma / 8.0, 0.02)
        npan = max(8, 2 * math.ceil((hi - lo) / (2.0 * step)))
        times = np.linspace(lo, hi, npan + 1)
        coeff = simpson_weights(npan, (hi - lo) / npan) * kernel.density(s - times)
    model.check_control(control)
    noise = model.noise.density(_observation(model, x) - model.post_jump_states)
    return _Event(n, control, s, x, times, coeff, noise)


def _fill_qtilde(model: PopdmpModel, events: list[_Event]) -> None:
    """Set every event's q-tilde, ``mats[k, i, j] = q(t_k, y_j, x | y_i, r)``
    at its times t_k, in one batched pass per control.

    Hazard integrals come from one ``_lambda_lists`` call and the
    hazard-weighted kernel rows from one evaluation on the sorted union of
    the times, so for a closed-form flow every value equals a lone event's
    bit for bit.
    """
    groups: dict[RelaxedControl, list[_Event]] = {}
    for ev in events:
        groups.setdefault(ev.control, []).append(ev)
    for control, evs in groups.items():
        sizes = [ev.times.size for ev in evs]
        ts = np.concatenate([ev.times for ev in evs])
        lam = _lambda_lists(model, model.post_jump_states, control, [ev.times for ev in evs])
        grid, at = np.unique(ts, return_inverse=True)
        hk = ControlPath.from_post_jump_states(model, control, grid).kernel_rows[:, at]
        egamma = np.exp(-model.discount * ts - lam)
        out = np.ascontiguousarray((egamma[:, :, None] * hk).transpose(1, 0, 2))
        out = out * np.repeat([ev.noise for ev in evs], sizes, axis=0)[:, None, :]
        for ev, mats in zip(evs, np.split(out, np.cumsum(sizes)[:-1])):
            ev.mats = mats


def _filled(model: PopdmpModel, control: RelaxedControl, s: float, x,
            kernel: RegularizationKernel | None) -> _Event:
    """One event, q-tilde filled in: a batch of one."""
    ev = _event(model, 0, control, s, x, kernel)
    _fill_qtilde(model, [ev])
    return ev


def q_tilde(model: PopdmpModel, s: float, y_next, x, y, control: RelaxedControl) -> float:
    """Joint density of (jump time, next state, observation) with the
    discount absorbed; zero whenever x - y_next is not a noise offset."""
    i = _state_number(model, y)
    j = _state_number(model, y_next)
    return float(_filled(model, control, s, x, None).mats[0, i, j])


def q_tilde_sx(model: PopdmpModel, s: float, x, y, control: RelaxedControl) -> float:
    """Marginal density over next states: sum_j q_tilde(s, y_j, x | y, r)."""
    i = _state_number(model, y)
    return float(_filled(model, control, s, x, None).mats[0, i, :].sum())


# ---------------------------------------------------------------------------
# Bayes updates


def _posterior(numer: np.ndarray, s: float, x) -> Belief:
    """Normalize an unnormalized posterior; zero likelihood raises."""
    denom = numer.sum()
    if not denom > _DENOM_FLOOR:
        raise ImpossibleObservationError(
            f"observation {x!r} at s={s} has zero likelihood under the current belief"
        )
    return Belief(numer / denom)


def _bayes(probs: np.ndarray, ev: _Event) -> Belief:
    """The posterior after a filled-in event."""
    if ev.coeff is None:
        return _posterior(probs @ ev.mats[0], ev.s, ev.x)
    return _posterior(np.einsum("k,i,kij->j", ev.coeff, probs, ev.mats), ev.s, ev.x)


def update(model: PopdmpModel, rho, control: RelaxedControl, s: float, x) -> Belief:
    """One-step Bayes update of the belief given (control, jump time,
    observation)."""
    return _bayes(as_belief(rho, model.n_states).probs, _filled(model, control, s, x, None))


def update_regularized(model: PopdmpModel, rho, control: RelaxedControl, s: float, x,
                       kernel: RegularizationKernel) -> Belief:
    """Bayes update with the jump-time argument smoothed by h_sigma.

    The numerator integrates q_tilde(u, ...) h_sigma(s - u) over
    u in [max(0, s - w), s + w] by composite Simpson, w the kernel support
    halfwidth.
    """
    return _bayes(as_belief(rho, model.n_states).probs, _filled(model, control, s, x, kernel))


def _filled_events(model: PopdmpModel, events, kernel: RegularizationKernel | None):
    """The log's events in order, with q-tilde filled in a block at a time.

    A block takes events until their quadrature nodes reach _NODE_BUDGET
    (at least one), so memory does not grow with the log, and gets one
    batched pass per control.  An event that fails a check (a logged time
    must be positive) ends its block and raises, as ``event n: ...``, once
    the events before it are yielded, so errors come in log order.
    """
    it = enumerate(events)
    more = True
    while more:
        block, nodes, failure, more = [], 0.0, None, False
        for n, (control, s, x) in it:
            try:
                if s <= 0:
                    raise ValueError("inter-jump time must be positive")
                block.append(_event(model, n, control, s, x, kernel))
            except (TypeError, ValueError) as err:
                failure = type(err)(f"event {n}: {err}")
                break
            nodes += block[-1].nodes
            if nodes >= _NODE_BUDGET:
                more = True
                break
        _fill_qtilde(model, block)
        yield from block
        if failure is not None:
            raise failure from None


def filter_trajectory(model: PopdmpModel, x0, events,
                      kernel: RegularizationKernel | None = None) -> list[Belief]:
    """Belief recursion mu_0, mu_1, ... along an observed event log.

    ``events`` is a sequence of (control, inter-jump time, observation)
    triples; ``mu_0 = Q_0(.|x0)``.  Every belief equals the one ``update``
    (or ``update_regularized``) gives from the previous one, but q-tilde is
    computed for a block of events at a time, one pass per control.  The
    first event, in log order, that fails a check or has zero likelihood
    raises its error, of the same type, tagged ``event n:``.
    """
    mu = initial_belief(model, x0)
    out = [mu]
    for ev in _filled_events(model, events, kernel):
        try:
            mu = _bayes(mu.probs, ev)
        except ImpossibleObservationError as err:
            raise ImpossibleObservationError(f"event {ev.n}: {err}") from None
        out.append(mu)
    return out
