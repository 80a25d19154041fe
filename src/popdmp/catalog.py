"""Ready-made model constructions.

``particle_steering_model`` builds the benchmark of steering a particle on
the line into a zero-cost zone: three post-jump states, unit hazard, unit
discount, piecewise-linear jump kernel and cost, and uniform three-point
observation noise.  ``table_model`` builds general one-dimensional models of
the same shape from piecewise-linear tables, which is also what the CLI
config uses; table rows keep kernel continuity by construction.
"""

from __future__ import annotations

import numpy as np

from .filtering import ImpossibleObservationError
from .model import (ClosedFormFlow, ModelValidationError, NoiseModel, PopdmpModel,
                    RelaxedControl, VectorField)

__all__ = [
    "particle_steering_model",
    "table_model",
    "build_builtin",
    "BUILTIN_MODELS",
    "velocity_flow",
    "velocity_field",
]


def _displacement(control: RelaxedControl, times: np.ndarray) -> np.ndarray:
    """Integral of the mean action over [0, t] for piecewise-constant controls."""
    times = np.asarray(times, dtype=float)
    breaks = np.asarray(control.breaks, dtype=float)
    starts = np.concatenate([[0.0], breaks])
    means = np.array([p.mean_action()[0] for p in control.pieces])
    if starts.size > 1:
        cum = np.concatenate([[0.0], np.cumsum(np.diff(starts) * means[:-1])])
    else:
        cum = np.zeros(1)
    idx = np.searchsorted(breaks, times, side="right")
    return cum[idx] + (times - starts[idx]) * means[idx]


def velocity_flow() -> ClosedFormFlow:
    """Closed-form flow for the pure-velocity drift b(y, a) = a in 1-d."""

    def path(y, control, times):
        times = np.asarray(times, dtype=float)
        return np.asarray(y, dtype=float)[None, :] + _displacement(control, times)[:, None]

    return ClosedFormFlow(path=path)


def velocity_field() -> VectorField:
    """The same drift as a vector field, for integrator cross-checks."""
    return VectorField(b=lambda y, a: np.broadcast_to(a, y.shape).astype(float))


def _pw_linear(nodes, values):
    """Piecewise-linear interpolant with flat extension beyond the end nodes."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)

    def fn(x):
        x = np.asarray(x, dtype=float)
        if values.ndim == 1:
            return np.interp(x, nodes, values)
        return np.stack([np.interp(x, nodes, col) for col in values.T], axis=-1)

    return fn


def _q0_rule(states: np.ndarray, noise: NoiseModel, rule) -> callable:
    d = states.shape[0]
    if isinstance(rule, str) and rule == "uniform":
        probs = np.full(d, 1.0 / d)
        return lambda x: probs.copy()
    if isinstance(rule, str) and rule == "bayes":

        def bayes(x):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            w = noise.density(x - states)
            s = w.sum()
            if s <= 0:
                raise ImpossibleObservationError(
                    f"observation {x} is unreachable: no state explains it")
            return w / s

        return bayes
    vec = np.asarray(rule, dtype=float)
    if vec.shape != (d,) or abs(vec.sum() - 1.0) > 1e-10 or np.any(vec < 0):
        raise ModelValidationError("explicit initial distribution must be a length-d probability vector")
    vec = vec / vec.sum()
    return lambda x: vec.copy()


def table_model(states, cost_table, kernel_table, hazard, noise_offsets, noise_weights,
                discount: float = 1.0, q0="bayes", action_box=(-1.0, 1.0),
                name: str = "") -> PopdmpModel:
    """One-dimensional model with pure-velocity drift and table data.

    ``cost_table`` is a sequence of (y, cost) nodes, ``kernel_table`` a
    sequence of (y, p_1, ..., p_d) rows; both extend flat beyond their end
    nodes.  ``hazard`` is a constant or a (y, rate) table.  Hazard, kernel
    and cost do not depend on the action, so no filter regularization is
    needed.  Flow and quadrature steps are ``PopdmpModel``'s defaults.
    """
    states = np.asarray(states, dtype=float).reshape(-1, 1)
    d = states.shape[0]

    cost_nodes = np.asarray([row[0] for row in cost_table], dtype=float)
    cost_vals = np.asarray([row[1] for row in cost_table], dtype=float)
    if np.any(np.diff(cost_nodes) <= 0):
        raise ModelValidationError("cost table breakpoints must be strictly increasing")
    if np.any(cost_vals < 0):
        raise ModelValidationError("cost table values must be nonnegative")
    cost_fn = _pw_linear(cost_nodes, cost_vals)

    kern_nodes = np.asarray([row[0] for row in kernel_table], dtype=float)
    kern_rows = np.asarray([row[1:] for row in kernel_table], dtype=float)
    if kern_rows.shape[1] != d:
        raise ModelValidationError("kernel table rows must have one probability per state")
    if np.any(np.diff(kern_nodes) <= 0):
        raise ModelValidationError("kernel table breakpoints must be strictly increasing")
    if np.any(kern_rows < 0) or np.any(np.abs(kern_rows.sum(axis=1) - 1.0) > 1e-12):
        raise ModelValidationError("kernel table rows must sum to one")
    kern_fn = _pw_linear(kern_nodes, kern_rows)

    if np.isscalar(hazard) or isinstance(hazard, (int, float)):
        lam_lo = lam_hi = float(hazard)
        haz_fn = lambda x: np.full(np.shape(x), float(hazard))
    else:
        haz_nodes = np.asarray([row[0] for row in hazard], dtype=float)
        haz_vals = np.asarray([row[1] for row in hazard], dtype=float)
        if np.any(np.diff(haz_nodes) <= 0) or np.any(haz_vals <= 0):
            raise ModelValidationError("hazard table needs increasing breakpoints and positive rates")
        lam_lo, lam_hi = float(haz_vals.min()), float(haz_vals.max())
        haz_fn = _pw_linear(haz_nodes, haz_vals)

    noise = NoiseModel(
        offsets=np.asarray(noise_offsets, dtype=float).reshape(-1, 1),
        weights=np.asarray(noise_weights, dtype=float),
    )
    box = np.asarray(action_box, dtype=float).reshape(-1, 2)

    return PopdmpModel(
        post_jump_states=states,
        drift=velocity_flow(),
        hazard=lambda pts, a: np.asarray(haz_fn(pts[:, 0]), dtype=float),
        hazard_bounds=(lam_lo, lam_hi),
        jump_kernel=lambda pts, a: np.asarray(kern_fn(pts[:, 0]), dtype=float).reshape(-1, d),
        noise=noise,
        cost_rate=lambda pts, a: np.asarray(cost_fn(pts[:, 0]), dtype=float),
        cost_max=float(cost_vals.max()),
        discount=float(discount),
        initial_kernel=_q0_rule(states, noise, q0),
        action_box=box,
        hazard_controlled=False,
        name=name,
    )


def particle_steering_model(q0="bayes") -> PopdmpModel:
    """The particle-steering benchmark on the real line.

    Post-jump states {-2, 0, 2}; speed control in [-1, 1]; unit hazard and
    unit discount; jump kernel piecewise linear between the Dirac plateaus at
    the three states; cost 10 outside [-2, 2], zero on [-1.5, 1.5], linear in
    between; observation noise uniform on {-1, 0, 1}.
    """
    return table_model(
        states=[-2.0, 0.0, 2.0],
        cost_table=[(-2.0, 10.0), (-1.5, 0.0), (1.5, 0.0), (2.0, 10.0)],
        kernel_table=[
            (-2.0, 1.0, 0.0, 0.0),
            (-1.5, 0.0, 1.0, 0.0),
            (1.5, 0.0, 1.0, 0.0),
            (2.0, 0.0, 0.0, 1.0),
        ],
        hazard=1.0,
        noise_offsets=[-1.0, 0.0, 1.0],
        noise_weights=[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        discount=1.0,
        q0=q0,
        action_box=(-1.0, 1.0),
        name="particle-steering",
    )


BUILTIN_MODELS = {"particle-steering": particle_steering_model}


def build_builtin(name: str) -> PopdmpModel:
    try:
        builder = BUILTIN_MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown built-in model {name!r}; available: {sorted(BUILTIN_MODELS)}"
        ) from None
    return builder()
