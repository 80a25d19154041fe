"""Triangulated grid on the probability simplex with barycentric interpolation.

Beliefs are mapped to cumulative coordinates xi_c = K * (rho_1 + ... + rho_c),
where the simplex becomes the order cone 0 <= xi_1 <= ... <= xi_{d-1} <= K.
The Kuhn (Freudenthal) triangulation of the integer cubes conforms to that
cone, so every belief lands in a simplex whose vertices are grid beliefs and
interpolation is exact on affine functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["SimplexGrid", "ValueGrid", "build_simplex_grid", "interpolate", "interpolate_batch"]

_MAX_POINTS = 10**7


def _compositions(K: int, d: int) -> np.ndarray:
    """All length-d nonnegative integer vectors summing to K, lexicographic."""
    if d == 1:
        return np.array([[K]], dtype=np.int64)
    combos = np.array(list(itertools.combinations(range(K + d - 1), d - 1)), dtype=np.int64)
    first = combos[:, :1]
    mids = np.diff(combos, axis=1) - 1
    last = K + d - 2 - combos[:, -1:]
    return np.hstack([first, mids, last])


@dataclass(frozen=True, eq=False)
class SimplexGrid:
    """Beliefs with coordinates in {0, 1/K, ..., 1} and their triangulation."""

    dim: int
    subdivisions: int
    points: np.ndarray          # (n, d) float beliefs
    _sorted_codes: np.ndarray = field(repr=False, default=None)
    _code_order: np.ndarray = field(repr=False, default=None)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    # -- vertex indexing ------------------------------------------------------

    def _code_base(self) -> np.ndarray:
        K = self.subdivisions
        return (K + 1) ** np.arange(max(self.dim - 1, 1), dtype=np.int64)

    def _codes_of_xi(self, xi: np.ndarray) -> np.ndarray:
        return xi @ self._code_base()

    @cached_property
    def _dense_lookup(self) -> np.ndarray | None:
        """code -> point index table; None when the code space is too large."""
        if self.dim == 1:
            return None
        size = (self.subdivisions + 1) ** (self.dim - 1)
        if size > 4 * 10**6:
            return None
        table = np.full(size, -1, dtype=np.int64)
        table[self._sorted_codes] = self._code_order
        return table

    def _lookup(self, codes: np.ndarray) -> np.ndarray:
        table = self._dense_lookup
        if table is not None:
            return table[codes]
        pos = np.searchsorted(self._sorted_codes, codes)
        return self._code_order[pos]

    def vertex_index(self, composition) -> int:
        comp = np.asarray(composition, dtype=np.int64)
        xi = np.cumsum(comp[:-1]) if self.dim > 1 else np.zeros(1, dtype=np.int64)
        code = int(self._codes_of_xi(xi.reshape(1, -1))[0])
        pos = np.searchsorted(self._sorted_codes, code)
        if pos >= self._sorted_codes.size or self._sorted_codes[pos] != code:
            raise KeyError(f"{composition} is not a grid vertex")
        return int(self._code_order[pos])

    # -- barycentric interpolation data ---------------------------------------

    def barycentric_batch(self, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vertex indices and barycentric weights for a batch of beliefs.

        ``probs`` is (N, d) with rows summing to one; returns ``(idx, w)``
        both (N, d).  Coordinates within a few ulp of a lattice plane are
        snapped so grid points reproduce their own vertex exactly.
        """
        probs = np.asarray(probs, dtype=float)
        n = probs.shape[0]
        d, K = self.dim, self.subdivisions
        if d == 1:
            return np.zeros((n, 1), dtype=np.int64), np.ones((n, 1))
        snap = 256.0 * np.finfo(float).eps * max(1.0, K)
        if d == 3:
            return self._barycentric_3(probs, n, K, snap)
        xi = np.cumsum(probs[:, :-1], axis=1) * K
        r = np.rint(xi)
        near = np.abs(xi - r) <= snap
        xi = np.where(near, r, xi)
        u = np.clip(np.floor(xi), 0.0, K - 1).astype(np.int64)
        f = xi - u
        if d == 2:
            order = np.zeros((n, 1), dtype=np.int64)
        else:
            # descending fractional parts; ties go to the higher coordinate
            # so the vertex chain stays inside the order cone
            rev = f[:, ::-1]
            ordrev = np.argsort(-rev, axis=1, kind="stable")
            order = (d - 2) - ordrev
        f_sorted = np.take_along_axis(f, order, axis=1)
        w = np.empty((n, d))
        w[:, 0] = 1.0 - f_sorted[:, 0]
        if d > 2:
            w[:, 1:-1] = f_sorted[:, :-1] - f_sorted[:, 1:]
        w[:, -1] = f_sorted[:, -1]
        eye = np.eye(d - 1, dtype=np.int64)
        chain = np.cumsum(eye[order], axis=1)
        verts = np.empty((n, d, d - 1), dtype=np.int64)
        verts[:, 0, :] = u
        verts[:, 1:, :] = u[:, None, :] + chain
        codes = verts.reshape(-1, d - 1) @ self._code_base()
        idx = self._lookup(codes).reshape(n, d)
        return idx, np.maximum(w, 0.0)

    def _barycentric_3(self, probs, n, K, snap):
        base = np.int64(K + 1)
        xi0 = probs[:, 0] * K
        xi1 = (probs[:, 0] + probs[:, 1]) * K
        r0 = np.rint(xi0)
        r1 = np.rint(xi1)
        xi0 = np.where(np.abs(xi0 - r0) <= snap, r0, xi0)
        xi1 = np.where(np.abs(xi1 - r1) <= snap, r1, xi1)
        u0 = np.clip(np.floor(xi0), 0.0, K - 1)
        u1 = np.clip(np.floor(xi1), 0.0, K - 1)
        f0 = xi0 - u0
        f1 = xi1 - u1
        lead0 = f0 > f1  # ties go to the higher coordinate
        fmax = np.where(lead0, f0, f1)
        fmin = np.where(lead0, f1, f0)
        w = np.empty((n, 3))
        w[:, 0] = 1.0 - fmax
        w[:, 1] = fmax - fmin
        w[:, 2] = fmin
        code0 = u0.astype(np.int64) + u1.astype(np.int64) * base
        idx = np.empty((n, 3), dtype=np.int64)
        step1 = np.where(lead0, np.int64(1), base)
        idx[:, 0] = code0
        idx[:, 1] = code0 + step1
        idx[:, 2] = code0 + 1 + base
        flat = self._lookup(idx.reshape(-1)).reshape(n, 3)
        return flat, np.maximum(w, 0.0)

    def nearest_vertex_batch(self, probs: np.ndarray) -> np.ndarray:
        idx, w = self.barycentric_batch(np.asarray(probs, dtype=float))
        return idx[np.arange(idx.shape[0]), np.argmax(w, axis=1)]


def build_simplex_grid(d: int, K: int) -> SimplexGrid:
    """Grid of all beliefs with coordinates in {0, 1/K, ..., 1}."""
    if d < 1 or K < 1:
        raise ValueError("need d >= 1 and K >= 1")
    n = math.comb(K + d - 1, d - 1)
    if n > _MAX_POINTS:
        raise ValueError(f"grid would hold {n} points, above the {_MAX_POINTS} guard")
    lattice = _compositions(K, d)
    points = lattice.astype(float) / K
    if d > 1:
        xi = np.cumsum(lattice[:, :-1], axis=1)
        base = (K + 1) ** np.arange(d - 1, dtype=np.int64)
        codes = xi @ base
    else:
        codes = np.zeros(1, dtype=np.int64)
    order = np.argsort(codes)
    grid = SimplexGrid(
        dim=d,
        subdivisions=K,
        points=points,
        _sorted_codes=codes[order],
        _code_order=order,
    )
    return grid


@dataclass(eq=False)
class ValueGrid:
    """Value function samples on a simplex grid, with the minimizing
    candidate index per point when produced by the solver."""

    grid: SimplexGrid
    values: np.ndarray
    argmins: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.size != self.grid.n_points:
            raise ValueError("values must hold one number per grid point")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        if np.any(v < -1e-9):
            raise ValueError("values must be nonnegative")
        self.values = v
        if self.argmins is not None:
            a = np.asarray(self.argmins, dtype=np.int64).reshape(-1)
            if a.size != v.size:
                raise ValueError("argmins must hold one index per grid point")
            self.argmins = a

    @staticmethod
    def constant(grid: SimplexGrid, value: float) -> "ValueGrid":
        return ValueGrid(grid, np.full(grid.n_points, float(value)))


def interpolate_batch(vg: ValueGrid, probs: np.ndarray) -> np.ndarray:
    """Barycentric interpolation of the value function at a belief batch."""
    idx, w = vg.grid.barycentric_batch(np.asarray(probs, dtype=float))
    return np.einsum("nk,nk->n", w, vg.values[idx])


def interpolate(vg: ValueGrid, belief) -> float:
    """Barycentric interpolation at one belief; exact at grid points."""
    probs = np.asarray(getattr(belief, "probs", belief), dtype=float).reshape(1, -1)
    return float(interpolate_batch(vg, probs)[0])
