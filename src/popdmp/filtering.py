"""Exact Bayes filter over the finite post-jump state set.

Implements the discounted joint density of (inter-jump time, next hidden
state, observation), the one-step Bayes update, its kernel-regularized
variant, and the belief recursion driven by an observed event log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (ControlPath, PopdmpModel, RelaxedControl, _lambda_paths, _state_number,
                    simpson_weights)

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


def initial_belief(model: PopdmpModel, x0) -> Belief:
    """mu_0 = Q_0(.|x0), where the filter and the simulator start: a length-d
    Belief, so a kernel output outside its 1e-8 window raises ValueError; a
    non-finite observation, or one that no post-jump state can emit, raises
    ImpossibleObservationError, whatever the initial kernel."""
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ImpossibleObservationError(f"observation {x} is not finite")
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


def _qtilde_matrices(model: PopdmpModel, control: RelaxedControl, times: np.ndarray,
                     x=None) -> np.ndarray:
    """q-tilde evaluated on a time grid: out[k, i, j] = q(t_k, y_j, x | y_i, r).

    With ``x=None`` the observation-density factor is omitted.
    """
    ts = np.asarray(times, dtype=float)
    egamma = np.exp(-model.discount * ts - _lambda_paths(model, model.post_jump_states, control, ts))
    hk = ControlPath.from_post_jump_states(model, control, ts).kernel_rows
    out = np.ascontiguousarray((egamma[:, :, None] * hk).transpose(1, 0, 2))
    if x is not None:
        noisew = model.noise.density(np.asarray(x, dtype=float) - model.post_jump_states)
        out = out * noisew[None, None, :]
    return out


def q_tilde(model: PopdmpModel, s: float, y_next, x, y, control: RelaxedControl) -> float:
    """Joint density of (jump time, next state, observation) with the
    discount absorbed; zero whenever x - y_next is not a noise offset."""
    if s < 0:
        raise ValueError("q_tilde requires s >= 0")
    i = _state_number(model, y)
    j = _state_number(model, y_next)
    m = _qtilde_matrices(model, control, np.array([float(s)]), x=x)[0]
    return float(m[i, j])


def q_tilde_sx(model: PopdmpModel, s: float, x, y, control: RelaxedControl) -> float:
    """Marginal density over next states: sum_j q_tilde(s, y_j, x | y, r)."""
    if s < 0:
        raise ValueError("q_tilde_sx requires s >= 0")
    i = _state_number(model, y)
    m = _qtilde_matrices(model, control, np.array([float(s)]), x=x)[0]
    return float(m[i, :].sum())


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


def update(model: PopdmpModel, rho, control: RelaxedControl, s: float, x) -> Belief:
    """One-step Bayes update of the belief given (control, jump time,
    observation)."""
    if s < 0:
        raise ValueError("update requires s >= 0")
    probs = as_belief(rho, model.n_states).probs
    m = _qtilde_matrices(model, control, np.array([float(s)]), x=x)[0]
    return _posterior(probs @ m, s, x)


def update_regularized(model: PopdmpModel, rho, control: RelaxedControl, s: float, x,
                       kernel: RegularizationKernel) -> Belief:
    """Bayes update with the jump-time argument smoothed by h_sigma.

    The numerator integrates q_tilde(u, ...) h_sigma(s - u) over
    u in [max(0, s - w), s + w] by composite Simpson, w the kernel support
    halfwidth.
    """
    if s < 0:
        raise ValueError("update_regularized requires s >= 0")
    probs = as_belief(rho, model.n_states).probs
    w = kernel.halfwidth
    lo, hi = max(0.0, s - w), s + w
    step = min(kernel.sigma / 8.0, 0.02)
    npan = max(8, 2 * math.ceil((hi - lo) / (2.0 * step)))
    nodes = np.linspace(lo, hi, npan + 1)
    coeff = simpson_weights(npan, (hi - lo) / npan) * kernel.density(s - nodes)
    mats = _qtilde_matrices(model, control, nodes, x=x)
    return _posterior(np.einsum("k,i,kij->j", coeff, probs, mats), s, x)


def filter_trajectory(model: PopdmpModel, x0, events,
                      kernel: RegularizationKernel | None = None) -> list[Belief]:
    """Belief recursion mu_0, mu_1, ... along an observed event log.

    ``events`` is a sequence of (control, inter-jump time, observation)
    triples; ``mu_0 = Q_0(.|x0)``.  A zero-likelihood observation raises
    ImpossibleObservationError tagged with the event index.
    """
    mu = initial_belief(model, x0)
    out = [mu]
    for n, (control, s, x) in enumerate(events):
        if s <= 0:
            raise ValueError(f"event {n}: inter-jump time must be positive")
        try:
            if kernel is None:
                mu = update(model, mu, control, float(s), x)
            else:
                mu = update_regularized(model, mu, control, float(s), x, kernel)
        except ImpossibleObservationError as err:
            raise ImpossibleObservationError(f"event {n}: {err}") from None
        out.append(mu)
    return out
