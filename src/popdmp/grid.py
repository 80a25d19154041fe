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


def _code_base(d: int, K: int) -> np.ndarray:
    """Digit weights of a vertex code: xi_1 is the most significant digit,
    so codes order vertices as their compositions order lexicographically."""
    return (K + 1) ** np.arange(d - 2, -1, -1, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class SimplexGrid:
    """Beliefs with coordinates in {0, 1/K, ..., 1} and their triangulation."""

    dim: int
    subdivisions: int
    points: np.ndarray          # (n, d) float beliefs
    _codes: np.ndarray = field(repr=False, default=None)  # (n,) increasing vertex codes

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    # -- vertex indexing ------------------------------------------------------

    @cached_property
    def _dense_lookup(self) -> np.ndarray | None:
        """code -> point index table; None when the code space is too large."""
        if self.dim == 1:
            return None
        size = (self.subdivisions + 1) ** (self.dim - 1)
        if size > 4 * 10**6:
            return None
        table = np.full(size, -1, dtype=np.int64)
        table[self._codes] = np.arange(self.n_points)
        return table

    def _lookup(self, codes: np.ndarray) -> np.ndarray:
        table = self._dense_lookup
        if table is not None:
            return table[codes]
        return np.searchsorted(self._codes, codes)

    @cached_property
    def _faces(self) -> dict:
        return {}

    def face(self, support) -> tuple["SimplexGrid", np.ndarray]:
        """The grid on the face of the simplex spanned by the states
        ``support`` (strictly increasing indices) and the index here of each
        of its points.

        A belief that is zero off ``support`` has the same cumulative
        coordinates on the face as here, repeated where the skipped zeros
        would be summed in, since adding +0.0 changes no sum.  Repeated
        coordinates have tied fractional parts, so the vertices the face
        leaves out get weight ``f - f = 0`` here: the face locator returns
        this grid's nonzero vertices and weights bit for bit.  Each support
        is built on first use and cached; the full support is this grid
        with the identity map.
        """
        states = np.asarray(support)
        key = tuple(states.tolist())
        hit = self._faces.get(key)
        if hit is None:
            if not (states.ndim == 1 and states.size and states.dtype.kind in "iu"
                    and states[0] >= 0 and states[-1] < self.dim
                    and np.all(np.diff(states) > 0)):
                raise ValueError(f"support {key} is not a strictly increasing list of states")
            if len(key) == self.dim:
                hit = (self, np.arange(self.n_points))
            else:
                sub = build_simplex_grid(len(key), self.subdivisions)
                lattice = np.zeros((sub.n_points, self.dim), dtype=np.int64)
                lattice[:, key] = _compositions(self.subdivisions, len(key))
                codes = np.cumsum(lattice[:, :-1], axis=1) @ _code_base(self.dim, self.subdivisions)
                hit = (sub, self._lookup(codes))
            self._faces[key] = hit
        return hit

    def vertex_index(self, composition) -> int:
        xi = np.cumsum(np.asarray(composition, dtype=np.int64)[:-1])
        code = xi @ _code_base(self.dim, self.subdivisions)
        pos = int(np.searchsorted(self._codes, code))
        if pos == self._codes.size or self._codes[pos] != code:
            raise KeyError(f"{composition} is not a grid vertex")
        return pos

    # -- barycentric interpolation data ---------------------------------------

    def barycentric_batch(self, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vertex indices and barycentric weights for a batch of beliefs.

        ``probs`` is (N, d) with rows summing to one; returns ``(idx, w)``
        both (N, d).  Coordinates within a few ulp of a lattice plane are
        snapped so grid points reproduce their own vertex exactly.  The
        fractional parts are sorted in descending order by a stable
        insertion network listed from the highest coordinate down, so ties
        go to the higher coordinate and the vertex chain stays inside the
        order cone.
        """
        probs = np.asarray(probs, dtype=float)
        n = probs.shape[0]
        d, K = self.dim, self.subdivisions
        if d == 1:
            return np.zeros((n, 1), dtype=np.int64), np.ones((n, 1))
        snap = 256.0 * np.finfo(float).eps * max(1.0, K)
        base = _code_base(d, K)
        code, frac, step = 0, [], []
        total = probs[:, 0]
        for c in range(d - 1):
            if c:
                total = total + probs[:, c]
            xi = total * K
            r = np.rint(xi)
            xi = np.where(np.abs(xi - r) <= snap, r, xi)
            u = np.clip(np.floor(xi), 0.0, K - 1)
            code = code * (K + 1) + u.astype(np.int64)  # Horner form of u @ base
            frac.insert(0, xi - u)
            step.insert(0, base[c])
        for i in range(1, d - 1):
            for j in range(i, 0, -1):
                up = frac[j] > frac[j - 1]
                frac[j - 1], frac[j] = (np.where(up, frac[j], frac[j - 1]),
                                        np.where(up, frac[j - 1], frac[j]))
                step[j - 1], step[j] = (np.where(up, step[j], step[j - 1]),
                                        np.where(up, step[j - 1], step[j]))
        w = np.empty((n, d))
        w[:, 0] = 1.0 - frac[0]
        for k in range(d - 1):
            w[:, k + 1] = frac[k] - frac[k + 1] if k < d - 2 else frac[k]
        idx = np.empty((n, d), dtype=np.int64)
        idx[:, 0] = self._lookup(code)
        for k in range(d - 1):
            code = code + step[k]
            idx[:, k + 1] = self._lookup(code)
        return idx, np.maximum(w, 0.0)

    def nearest_vertex_batch(self, probs: np.ndarray) -> np.ndarray:
        idx, w = self.barycentric_batch(np.asarray(probs, dtype=float))
        return idx[np.arange(idx.shape[0]), np.argmax(w, axis=1)]


def build_simplex_grid(d: int, K: int) -> SimplexGrid:
    """Grid of all beliefs with coordinates in {0, 1/K, ..., 1}.

    Points are compositions in lexicographic order, which is the order of
    their cumulative coordinates, so their codes are increasing.
    """
    if d < 1 or K < 1:
        raise ValueError("need d >= 1 and K >= 1")
    n = math.comb(K + d - 1, d - 1)
    if n > _MAX_POINTS:
        raise ValueError(f"grid would hold {n} points, above the {_MAX_POINTS} guard")
    lattice = _compositions(K, d)
    codes = np.cumsum(lattice[:, :-1], axis=1) @ _code_base(d, K)
    return SimplexGrid(dim=d, subdivisions=K, points=lattice.astype(float) / K, _codes=codes)


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
