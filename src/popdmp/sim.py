"""Monte Carlo simulation of the controlled process and policy evaluation.

Jump times are sampled by thinning against the global hazard bound: propose
exponential increments at the bound's rate, draw an action atom from the
mixture active at the proposal time, and accept with probability
hazard(position, action) / bound.  Drawing the atom before the acceptance
test makes the accepted (time, action) pair follow the hazard-weighted law
that the transition density prescribes, and reduces to plain thinning when
the hazard ignores the action.  A proposal whose hazard exceeds the bound
raises ModelValidationError, because thinning would silently clip it.

Reproducibility contract: trajectory ``i`` of a run with master seed ``s``
consumes uniforms from ``PCG64(SeedSequence((s, i)))`` in a fixed order
(initial state draw when the initial distribution is sampled; per proposal
the increment, the atom and the acceptance check, where a proposal reaching
the horizon consumes just the increment; per accepted jump the next state
and the noise offset).  Results are therefore bit-identical however the
batch is chunked or scheduled.

The batch engine does not build a numpy generator per trajectory: its
stream bank holds the PCG64 states of a whole chunk as uint64 arrays,
seeded by replaying SeedSequence's pool hashing on uint32 columns and
stepped as 128-bit integers, and draws for every ``(s, i)`` exactly the
doubles that ``RngStream(s, i).generator().random()`` draws, for every
non-negative seed and index, including those of 2**32 and above.
``RngStream.generator`` stays the single-stream interface and the reference
the tests compare the bank with.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np
from scipy.integrate import cumulative_simpson

from .filtering import Belief, ImpossibleObservationError, initial_belief
from .grid import ValueGrid, interpolate
from .model import (_BOUND_TOL, ClosedFormFlow, ControlPath, ModelValidationError, PopdmpModel,
                    RelaxedControl, _index_groups, flow_path)
from .solver import BellmanSweep, GridPolicy

__all__ = [
    "RngStream",
    "Trajectory",
    "CrossCheckRow",
    "CrossCheckReport",
    "default_horizon",
    "sample_jump",
    "sample_first_jumps",
    "simulate_trajectory",
    "evaluate_policy_mc",
    "cross_check",
]

# step of the simulator's path tables
_SIM_STEP = 1e-3
# discounted cost neglected past the default horizon
TRUNCATION_TOL = 1e-6


@dataclass(frozen=True)
class RngStream:
    """Addresses one reproducible uniform stream: (master seed, stream index)."""

    seed: int
    index: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((int(self.seed), int(self.index))))
        )


@dataclass
class Trajectory:
    """Marked-point-process record of one simulated run.

    ``times[n]``, ``states[n]`` and ``observations[n]`` hold (T_n, Y_n, X_n)
    including the initial entries; ``controls[n]`` is the control used on
    [T_n, T_{n+1}) and ``segment_costs[n]`` its discounted-to-zero cost
    contribution.  When the run is truncated at the horizon the last segment
    has no closing jump.
    """

    times: list[float]
    states: list[int]
    observations: list[np.ndarray]
    controls: list[RelaxedControl]
    segment_costs: list[float]
    total_cost: float
    truncated: bool


def default_horizon(model: PopdmpModel) -> float:
    """Horizon H with e^(-beta H) * c_max / beta below ``TRUNCATION_TOL``
    (with a factor-two margin)."""
    beta = model.discount
    scale = max(model.cost_max, beta * TRUNCATION_TOL)
    return math.log(2.0 * scale / (beta * TRUNCATION_TOL)) / beta


# ---------------------------------------------------------------------------
# per-control path tables


@dataclass(eq=False)
class _ControlTables:
    control: RelaxedControl
    atom_cums: list[np.ndarray]
    atom_actions: np.ndarray      # (n_atoms, A): the atoms of all pieces, piece by piece
    atom_first: np.ndarray        # (n_pieces,): id of each piece's first atom
    positions: np.ndarray | None  # (d, n, D); None when the flow is closed-form
    lam_int: np.ndarray           # (d, n)
    cum_cost: np.ndarray          # (d, n): integral of exp(-beta u) c_mix(u)


class SimTables:
    """Flow, hazard-integral and discounted-cost paths per control on a fine
    shared grid covering ``[0, horizon]``, the reach of every engine run, and
    the observation likelihoods of every (next state, noise offset) pair.
    The horizon defaults to ``default_horizon(model)``.

    Moving the horizon out, between runs only, extends the grid (old nodes
    are a prefix of the new ones, and values at old interior nodes are
    unchanged) and rebuilds every entry.  A lock keeps concurrent chunks
    from building the same entry twice.
    """

    def __init__(self, model: PopdmpModel, horizon: float | None = None):
        self.model = model
        self.horizon = default_horizon(model) if horizon is None else float(horizon)
        if not 0.0 <= self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and non-negative, got {horizon}")
        self._n = max(2, math.ceil(self.horizon / _SIM_STEP)) + 1
        # the observation emitted from next state y with noise offset e, and
        # its likelihood at every state, likelihood[y, e]: one table for all
        # of a run's chunks and jumps
        states = model.post_jump_states
        self.emitted = states[:, None, :] + model.noise.offsets[None, :, :]
        self.likelihood = model.noise.density(self.emitted[:, :, None, :]
                                              - states[None, None, :, :])
        self._entries: dict[RelaxedControl, _ControlTables] = {}
        self._lock = threading.Lock()

    @property
    def span(self) -> float:
        return (self._n - 1) * _SIM_STEP

    def ensure(self, control: RelaxedControl) -> _ControlTables:
        tb = self._entries.get(control)
        if tb is None:
            with self._lock:
                tb = self._entries.get(control)
                if tb is None:
                    tb = self._build(control)
                    self._entries[control] = tb
        return tb

    def ensure_span(self, horizon: float) -> None:
        with self._lock:
            self.horizon = max(self.horizon, float(horizon))
            if self.horizon <= self.span:
                return
            while self.span < self.horizon:
                self._n = int(self._n * 1.6) + 2
            for control in list(self._entries):
                self._entries[control] = self._build(control)

    def _build(self, control: RelaxedControl) -> _ControlTables:
        model = self.model
        ts = np.arange(self._n) * _SIM_STEP
        closed = isinstance(model.drift, ClosedFormFlow)
        path = ControlPath.from_post_jump_states(model, control, ts)
        lam_int = cumulative_simpson(path.hazard, dx=_SIM_STEP, axis=1, initial=0.0)
        cum_cost = cumulative_simpson(
            np.exp(-model.discount * ts)[None, :] * path.cost, dx=_SIM_STEP, axis=1, initial=0.0
        )
        return _ControlTables(
            control=control,
            atom_cums=[np.cumsum(p.weights) for p in control.pieces],
            atom_actions=np.array([a for p in control.pieces for a in p.actions], dtype=float),
            atom_first=np.cumsum([0] + [len(p.actions) for p in control.pieces[:-1]]),
            positions=None if closed else path.points,
            lam_int=lam_int,
            cum_cost=cum_cost,
        )

    # -- lookups ---------------------------------------------------------------

    def lerp(self, table: np.ndarray, s: np.ndarray, y_idx=None) -> np.ndarray:
        """A (d, n, ...) table at times ``s`` by linear interpolation on the
        grid: in rows ``y_idx``, (m, ...), or in every state row, (m, d, ...)."""
        j = np.clip(np.floor(s / _SIM_STEP).astype(np.int64), 0, self._n - 2)
        w = s / _SIM_STEP - j
        if y_idx is None:
            y_idx, j, w = np.arange(table.shape[0]), j[:, None], w[:, None]
        w = w.reshape(w.shape + (1,) * (table.ndim - 2))
        return table[y_idx, j] * (1.0 - w) + table[y_idx, j + 1] * w

    def position(self, tb: _ControlTables, s: np.ndarray) -> np.ndarray:
        """Flow positions from every post-jump state at times ``s``, shape
        (m, d, D); exact for a closed-form flow."""
        if tb.positions is not None:
            return self.lerp(tb.positions, s)
        return np.stack([self.model.drift.path(y, tb.control, s)
                         for y in self.model.post_jump_states], axis=1)


# ---------------------------------------------------------------------------
# per-trajectory uniform streams


# numpy's SeedSequence (hash and mix constants, pool of four uint32 words)
# and PCG64 (128-bit LCG multiplier) constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_XSHIFT = 16
_POOL_SIZE = 4
_MULT_HI, _MULT_LO = 2549297995355413924, 4865540595714422341
_MULT_LO0, _MULT_LO1 = _MULT_LO & _MASK32, _MULT_LO >> 32


def _uint32_words(values: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """SeedSequence's coercion of non-negative integers to little-endian
    uint32 words, elementwise: the word columns (zero past an element's last
    word) and each element's word count (zero has one word)."""
    if np.any(values < 0):
        raise ValueError("expected non-negative integer")
    cols = [np.asarray(values & _MASK32).astype(np.uint32)]
    count = np.ones(values.shape, dtype=np.int64)
    rest = values >> 32
    while np.any(rest != 0):
        count += np.asarray(rest != 0)
        cols.append(np.asarray(rest & _MASK32).astype(np.uint32))
        rest = rest >> 32
    return cols, count


def _hasher(init: int, mult: int):
    """SeedSequence's hash on uint32 columns; its constant starts at
    ``init`` and is multiplied by ``mult`` at every call, the same way in
    every row, so it stays a scalar."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = (const * mult) & _MASK32
        value = value * const
        return value ^ (value >> _XSHIFT)

    return hashmix


def _generate_state(seed: int, indices) -> list[np.ndarray]:
    """``SeedSequence((seed, i)).generate_state(8)`` for every i in
    ``indices``, as eight uint32 columns.

    The pool hashes the first four entropy words (zero-padded), mixes every
    pool word into every other, then mixes every further entropy word into
    each pool word, masked per row because rows may carry different word
    counts.
    """
    seed_cols, seed_count = _uint32_words(np.array([int(seed)], dtype=object))
    idx_cols, idx_count = _uint32_words(np.asarray(indices))
    n = idx_count.size
    words = [np.full(n, c[0], dtype=np.uint32) for c in seed_cols] + idx_cols
    n_words = int(seed_count[0]) + idx_count
    words += [np.zeros(n, dtype=np.uint32)] * (_POOL_SIZE - len(words))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = _MIX_MULT_L * x - _MIX_MULT_R * y
        return r ^ (r >> _XSHIFT)

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for k in range(_POOL_SIZE, len(words)):
        more = k < n_words
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(more, mix(pool[dst], hashmix(words[k])), pool[dst])
    out_hash = _hasher(_INIT_B, _MULT_B)
    return [out_hash(pool[k % _POOL_SIZE]) for k in range(8)]


def _pcg64_step(lo: np.ndarray, hi: np.ndarray, inc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LCG step, ``state * MULT + inc`` modulo 2**128, on the (lo, hi)
    uint64 halves of the states.  uint64 products wrap modulo 2**64, which
    gives every term but the high half of ``lo * MULT_LO``; that one is
    summed from 32-bit limb products, each exact in 64 bits."""
    a0, a1 = lo & _MASK32, lo >> 32
    p00, p01, p10 = a0 * _MULT_LO0, a0 * _MULT_LO1, a1 * _MULT_LO0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = a1 * _MULT_LO1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_lo = lo * _MULT_LO + inc[0]
    return new_lo, hi * _MULT_LO + lo * _MULT_HI + carry + inc[1] + (new_lo < inc[0])


def _pcg64_seed(seed: int, indices) -> tuple[np.ndarray, np.ndarray]:
    """The (lo, hi) halves, (2, n) uint64 each, of the state and increment
    that ``PCG64(SeedSequence((seed, i)))`` starts from, for every i in
    ``indices``.

    ``generate_state(4, uint64)`` gives the initial state (words 0 and 1,
    high first) and the stream selector (words 2 and 3); PCG64's set-up is
    state 0, increment ``selector << 1 | 1``, a step, the initial state
    added, and another step.
    """
    w = [v.astype(np.uint64) for v in _generate_state(seed, indices)]
    init_lo, init_hi = w[2] | (w[3] << 32), w[0] | (w[1] << 32)
    sel_lo, sel_hi = w[6] | (w[7] << 32), w[4] | (w[5] << 32)
    inc = np.array([(sel_lo << 1) | 1, (sel_hi << 1) | (sel_lo >> 63)])
    lo = inc[0] + init_lo
    hi = inc[1] + init_hi + (lo < init_lo)
    return np.array(_pcg64_step(lo, hi, inc)), inc


class _StreamBank:
    """The uniform streams ``RngStream(seed, i)`` of a chunk of trajectories,
    held as arrays and consumed strictly in order.

    Row r draws exactly the doubles that
    ``RngStream(seed, indices[r]).generator().random()`` draws: its PCG64
    state is seeded by ``_pcg64_seed``, stepped by ``_pcg64_step`` and output
    by XSL-RR (the halves xor-ed, rotated right by the top six state bits),
    and a double is the output's top 53 bits times 2**-53.  A take refills
    only the rows with fewer unread draws than it takes, up to ``block``
    draws each, one step across those rows at a time, so temporaries stay
    row-sized.
    """

    def __init__(self, seed: int, indices, block: int = 16):
        self._state, self._inc = _pcg64_seed(seed, indices)
        self.n = n = self._state.shape[1]
        self._block = block
        # draw j of row r sits at [j, r]: rows mostly move in step, so a take
        # reads one contiguous stretch of the buffer rather than one cache
        # line per row
        self._buf = np.empty((block, n))
        self._pos = np.full(n, block, dtype=np.int64)

    def take(self, rows: np.ndarray, k: int = 1) -> np.ndarray:
        """The next ``k`` (at most the block) draws of each of the distinct
        ``rows``, (k, m)."""
        pos = self._pos[rows]
        short = pos + k > self._block
        if short.any():
            self._refill(rows[short])
            pos[short] = 0
        self._pos[rows] = pos + k
        width = self._buf.shape[1]
        return self._buf.ravel()[pos * width + rows + (np.arange(k) * width)[:, None]]

    def _refill(self, rows: np.ndarray) -> None:
        """Move each row's unread draws to the front of its buffer and fill
        the rest with the draws that follow them."""
        for left, g in _index_groups(self._block - self._pos[rows]):
            r = rows[g]
            self._buf[:left, r] = self._buf[self._block - left:, r]
            (lo, hi), inc = self._state[:, r], self._inc[:, r]
            for j in range(left, self._block):
                lo, hi = _pcg64_step(lo, hi, inc)
                rot = hi >> 58
                x = lo ^ hi
                x = (x >> rot) | (x << ((64 - rot) & 63))
                self._buf[j, r] = (x >> 11) * 2.0 ** -53
            self._state[:, r] = lo, hi
            self._pos[r] = 0


# ---------------------------------------------------------------------------
# policies and initial beliefs


def _policy_rule(policy) -> tuple[list[RelaxedControl], Callable[[np.ndarray], np.ndarray]]:
    """A policy as ``(controls, assign)``: its candidate controls, and the
    rule that maps an (m, d) belief array to the candidate id of each row.

    A grid policy's candidates are its family, and a fixed control is the
    one candidate.  A generic belief -> control rule (a callable, or an
    object with a ``control`` method) gets ids in order of appearance, so
    its list grows during a run: it is not thread-safe and runs in one chunk.
    """
    if isinstance(policy, GridPolicy):
        return list(policy.family), policy.candidate_indices
    if isinstance(policy, RelaxedControl):
        return [policy], lambda beliefs: np.zeros(beliefs.shape[0], dtype=np.int64)
    rule = policy.control if hasattr(policy, "control") else policy
    if not callable(rule):
        raise TypeError(f"cannot drive simulation with policy of type {type(policy)!r}")
    controls: list[RelaxedControl] = []
    ids: dict[RelaxedControl, int] = {}

    def assign(beliefs: np.ndarray) -> np.ndarray:
        ks = [ids.setdefault(rule(probs), len(ids)) for probs in beliefs]
        controls.extend(list(ids)[len(controls):])
        return np.array(ks, dtype=np.int64)

    return controls, assign


def _start_belief(model: PopdmpModel, x0, y0: int | None) -> Belief:
    """The point mass at a forced hidden state ``y0``, else Q_0(.|x0)."""
    if y0 is None:
        return initial_belief(model, x0)
    return Belief(np.eye(model.n_states)[int(y0)])


# ---------------------------------------------------------------------------
# the batch engine


@dataclass
class _BatchResult:
    costs: np.ndarray
    truncated: np.ndarray
    n_jumps: np.ndarray
    beliefs: np.ndarray
    initial_hidden: np.ndarray
    # arrays of the trajectory, time, next state (-1 marks a horizon-truncated
    # final segment), observation, candidate and segment cost of each event
    events: dict | None


def _inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(cum, u, side="right")
    return np.minimum(idx, cum.size - 1)


def _rowwise_inverse_cdf(cums: np.ndarray, u: np.ndarray) -> np.ndarray:
    idx = (cums <= u[:, None]).sum(axis=1)
    return np.minimum(idx, cums.shape[1] - 1)


def _check_hazard_bound(model: PopdmpModel, rate) -> None:
    """Thinning against the declared upper bound is exact only below it."""
    if np.any(np.asarray(rate) > model.hazard_bounds[1] + _BOUND_TOL):
        raise ModelValidationError(
            f"hazard {np.max(rate)!r} at a thinning proposal exceeds its declared upper bound")


def _simulate_batch(policy, tables: SimTables, bank: _StreamBank, mu0: Belief,
                    y0: int | None = None, max_jumps: int | None = None,
                    record: bool = False) -> _BatchResult:
    """Run one trajectory per row of ``bank`` under ``policy``, a
    ``_policy_rule`` pair, from time 0 to ``tables.horizon`` (or to its
    ``max_jumps``-th jump), drawing row r's uniforms from bank row r.

    Every row starts from belief ``mu0``, in hidden state ``y0`` or, without
    it, in one drawn from ``mu0`` with the row's first uniform.
    """
    controls, assign = policy
    model = tables.model
    n = bank.n
    d = model.n_states
    horizon = tables.horizon
    beta = model.discount
    lam_bar = model.hazard_bounds[1]
    noise_cum = np.cumsum(model.noise.weights)

    if y0 is not None:
        y = np.full(n, int(y0), dtype=np.int64)
    else:
        u, = bank.take(np.arange(n))
        y = _inverse_cdf(np.cumsum(mu0.probs), u)
    initial_hidden = y.copy()
    beliefs = np.tile(mu0.probs, (n, 1))
    T = np.zeros(n)
    cost = np.zeros(n)
    active = np.ones(n, dtype=bool)
    truncated = np.zeros(n, dtype=bool)
    n_jumps = np.zeros(n, dtype=np.int64)
    parts = []  # one tuple of event arrays per recorded group

    while active.any():
        rows = np.flatnonzero(active)
        ks = assign(beliefs[rows])
        for k, members in _index_groups(ks):
            sub = rows[members]
            control = controls[k]
            tb = tables.ensure(control)
            m = sub.size
            elapsed = np.zeros(m)
            pend = np.ones(m, dtype=bool)
            accepted = np.zeros(m, dtype=bool)
            atom_acc = np.zeros(m, dtype=np.int64)
            pos_acc = np.zeros((m, d, model.space_dim))
            while pend.any():
                p = np.flatnonzero(pend)
                u1, = bank.take(sub[p])
                elapsed[p] -= np.log1p(-u1) / lam_bar
                over = T[sub[p]] + elapsed[p] >= horizon
                pend[p[over]] = False
                live = p[~over]
                if live.size == 0:
                    continue
                u2, u3 = bank.take(sub[live], 2)
                s_prop = elapsed[live]
                pos_all = tables.position(tb, s_prop)
                pos = pos_all[np.arange(live.size), y[sub[live]]]
                piece = control.piece_index_at(s_prop)
                atom = np.empty(live.size, dtype=np.int64)
                for pc, g in _index_groups(piece):
                    atom[g] = tb.atom_first[pc] + _inverse_cdf(tb.atom_cums[pc], u2[g])
                rate = np.empty(live.size)
                for a, asel in _index_groups(atom):
                    rate[asel] = np.asarray(model.hazard(pos[asel], tb.atom_actions[a]), dtype=float)
                _check_hazard_bound(model, rate)
                ok = u3 * lam_bar <= rate
                hit = live[ok]
                pend[hit] = False
                accepted[hit] = True
                atom_acc[hit] = atom[ok]
                pos_acc[hit] = pos_all[ok]

            # horizon-truncated members of this group
            cut = sub[~accepted]
            if cut.size:
                seg = np.exp(-beta * T[cut]) * tables.lerp(tb.cum_cost, horizon - T[cut], y[cut])
                cost[cut] += seg
                active[cut] = False
                truncated[cut] = True
                if record:
                    parts.append((cut, np.full(cut.size, horizon), np.full(cut.size, -1),
                                  np.full((cut.size, model.space_dim), np.nan),
                                  np.full(cut.size, k), seg))

            jumped = sub[accepted]
            if jumped.size == 0:
                continue
            s = elapsed[accepted]  # an accepted row's elapsed time stops at its jump
            seg = np.exp(-beta * T[jumped]) * tables.lerp(tb.cum_cost, s, y[jumped])
            cost[jumped] += seg
            pos_all = pos_acc[accepted]
            pos_j = pos_all[np.arange(jumped.size), y[jumped]]
            u4, u5 = bank.take(jumped, 2)
            y_next = np.empty(jumped.size, dtype=np.int64)
            atoms = atom_acc[accepted]
            for a, g in _index_groups(atoms):
                rows_k = np.asarray(model.jump_kernel(pos_j[g], tb.atom_actions[a]), dtype=float)
                y_next[g] = _rowwise_inverse_cdf(np.cumsum(rows_k, axis=1), u4[g])
            eps_idx = _inverse_cdf(noise_cum, u5)
            x = tables.emitted[y_next, eps_idx]

            # exact Bayes update of the beliefs, using the full mixture at s;
            # kernel rows are needed only where the belief is positive, and
            # the zeros elsewhere meet zero weights in the same einsum
            prior = beliefs[jumped]
            weights = prior * np.exp(-tables.lerp(tb.lam_int, s))
            live_pairs = prior > 0
            hk = np.zeros((jumped.size, d, d))
            piece = np.broadcast_to(control.piece_index_at(s)[:, None], live_pairs.shape)
            hk[live_pairs] = ControlPath(model, control, pos_all[live_pairs],
                                         piece[live_pairs]).kernel_rows
            # the products and order of einsum("gi,gi,giu->gu", ...), about 5x faster
            numer = np.einsum("gi,giu->gu", weights, hk) * tables.likelihood[y_next, eps_idx]
            den = numer.sum(axis=1)
            if np.any(den <= 0):
                b = int(np.argmax(den <= 0))
                raise ImpossibleObservationError(f"trajectory {jumped[b]}: observation {x[b].tolist()} "
                                                 f"at s={s[b]} has zero likelihood")
            beliefs[jumped] = numer / den[:, None]

            T[jumped] += s
            y[jumped] = y_next
            n_jumps[jumped] += 1
            if record:
                parts.append((jumped, T[jumped], y_next, x, np.full(jumped.size, k), seg))
            if max_jumps is not None:
                done = jumped[n_jumps[jumped] >= max_jumps]
                active[done] = False

    events = None
    if record:
        parts = parts or [(np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64),
                           np.empty((0, model.space_dim)), np.empty(0, np.int64), np.empty(0))]
        events = dict(zip(("traj", "t", "y", "x", "cand", "seg"), map(np.concatenate, zip(*parts))))
    return _BatchResult(
        costs=cost, truncated=truncated, n_jumps=n_jumps, beliefs=beliefs,
        initial_hidden=initial_hidden, events=events,
    )


# ---------------------------------------------------------------------------
# public entry points


def _stream_address(rng) -> tuple[int, int]:
    """(seed, index) of an RngStream, an integer seed (index 0) or a pair."""
    if isinstance(rng, RngStream):
        return rng.seed, rng.index
    if isinstance(rng, (int, np.integer)):
        return int(rng), 0
    if isinstance(rng, tuple) and len(rng) == 2:
        return int(rng[0]), int(rng[1])
    raise TypeError("rng must be an RngStream, an integer seed or a (seed, index) pair")


def sample_jump(model: PopdmpModel, y, control: RelaxedControl, rng):
    """One inter-jump sample: returns (s, next-state index, observation).

    ``y`` is the current post-jump state (index or point).  Thinning against
    the hazard upper bound; rejected proposals advance time.
    """
    gen = (rng if isinstance(rng, np.random.Generator)
           else RngStream(*_stream_address(rng)).generator())
    model.check_control(control)
    if isinstance(y, (int, np.integer)):
        y_pt = model.post_jump_states[int(y)]
    else:
        y_pt = np.atleast_1d(np.asarray(y, dtype=float))
    lam_bar = model.hazard_bounds[1]
    t = 0.0
    while True:
        t -= math.log1p(-gen.random()) / lam_bar
        mix = control.mixture_at(t)
        aidx = int(_inverse_cdf(np.cumsum(mix.weights), np.array([gen.random()]))[0])
        av = np.asarray(mix.actions[aidx], dtype=float)
        pos = flow_path(model, y_pt, control, np.array([t]))[0]
        lam = float(np.asarray(model.hazard(pos[None, :], av), dtype=float)[0])
        _check_hazard_bound(model, lam)
        if gen.random() * lam_bar <= lam:
            break
    rows = np.asarray(model.jump_kernel(pos[None, :], av), dtype=float)[0]
    y_next = int(_inverse_cdf(np.cumsum(rows), np.array([gen.random()]))[0])
    eps = model.noise.offsets[int(_inverse_cdf(np.cumsum(model.noise.weights),
                                               np.array([gen.random()]))[0])]
    x = model.post_jump_states[y_next] + eps
    return float(t), y_next, x


def sample_first_jumps(model: PopdmpModel, control: RelaxedControl, n: int, seed: int,
                       y0: int | None = None, x0=None):
    """Vectorized first-jump sampler.

    The initial hidden state is either forced (``y0``) or drawn from the
    initial kernel at ``x0``.  Returns arrays (s, next-state index,
    observation, posterior belief) of the first jump of n independent
    trajectories (streams seed/0 .. seed/n-1); the posterior is the exact
    one-step Bayes update computed alongside the draw.

    The engine runs to ``4 / lambda_lo``; rows still waiting there rerun
    from the start of their own streams with the horizon doubled.  A row's
    draws up to a horizon do not depend on it, nor does its first jump.
    """
    if (y0 is None) == (x0 is None):
        raise ValueError("give exactly one of y0 (forced state) or x0 (observation)")
    rule = _policy_rule(control)
    mu0 = _start_belief(model, x0, y0)
    tables = SimTables(model, 4.0 / model.hazard_bounds[0])
    s = np.empty(n)
    y_next = np.empty(n, dtype=np.int64)
    x = np.empty((n, model.space_dim))
    beliefs = np.empty((n, model.n_states))
    rows = np.arange(n)
    while True:
        res = _simulate_batch(rule, tables, _StreamBank(seed, rows), mu0, y0=y0, max_jumps=1,
                              record=True)
        ev = res.events
        hit = ev["y"] >= 0
        at = rows[ev["traj"][hit]]
        s[at], y_next[at], x[at] = ev["t"][hit], ev["y"][hit], ev["x"][hit]
        beliefs[rows] = res.beliefs
        rows = rows[res.truncated]
        if rows.size == 0:
            return s, y_next, x, beliefs
        tables.ensure_span(2.0 * tables.horizon)


def simulate_trajectory(model: PopdmpModel, x0, policy, rng,
                        cost_horizon: float | None = None,
                        y0: int | None = None) -> Trajectory:
    """Simulate one trajectory under a stationary belief policy.

    The initial hidden state is drawn from the initial kernel at ``x0``
    unless ``y0`` forces it; the belief filter runs online to feed the
    policy; cost accrues by quadrature along each inter-jump segment and the
    run truncates at the cost horizon (flagged).
    """
    seed, index = _stream_address(rng)
    controls, _ = rule = _policy_rule(policy)
    bank = _StreamBank(seed, np.array([index]))
    res = _simulate_batch(rule, SimTables(model, cost_horizon), bank, _start_belief(model, x0, y0),
                          y0=y0, record=True)
    # the events are the jumps, then the truncated segment if there is one
    ev = res.events
    jumps = slice(int(res.n_jumps[0]))
    return Trajectory(
        times=[0.0] + ev["t"][jumps].tolist(),
        states=[int(res.initial_hidden[0])] + ev["y"][jumps].tolist(),
        observations=[np.atleast_1d(np.asarray(x0, dtype=float))] + list(ev["x"][jumps]),
        controls=[controls[k] for k in ev["cand"].tolist()],
        segment_costs=ev["seg"].tolist(),
        total_cost=float(res.costs[0]),
        truncated=bool(res.truncated[0]),
    )


# rows per chunk in the default layout: two chunks of 12.5k rows on two cores
# is the only multi-core layout measured to pay.  The per-jump loop holds the
# interpreter lock between numpy calls, so smaller chunks may lose more to
# contention than another core gains.
_AUTO_CHUNK_ROWS = 12_500


def _auto_workers(n_traj: int) -> int:
    """One worker per usable core, but at most one per ``_AUTO_CHUNK_ROWS``
    trajectories (and at least one)."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(cores, max(1, n_traj // _AUTO_CHUNK_ROWS))


def evaluate_policy_mc(model: PopdmpModel, x0, policy, n_traj: int, seed: int,
                       horizon: float | None = None, workers: int | None = None):
    """Sample mean and standard error of the discounted cost under a policy.

    The trajectories are split into one contiguous chunk per worker thread
    (never more chunks than trajectories); ``workers=None`` means one per
    usable core, capped at one per ``_AUTO_CHUNK_ROWS`` (12,500)
    trajectories.  The calling thread runs the first chunk and a pool of
    ``workers - 1`` threads the rest.  Trajectory ``i`` always uses stream
    (seed, i), so the result is independent of chunking and worker count.
    A callable policy assigns control ids as it meets them and runs in one
    chunk, so an explicit ``workers > 1`` then warns and runs single-threaded.
    """
    if n_traj < 1:
        raise ValueError("need at least one trajectory")
    if workers is not None and not workers >= 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    rule = _policy_rule(policy)
    tables = SimTables(model, horizon)
    mu0 = initial_belief(model, x0)

    def run_chunk(lo: int, hi: int) -> np.ndarray:
        return _simulate_batch(rule, tables, _StreamBank(seed, np.arange(lo, hi)), mu0).costs

    if not isinstance(policy, (GridPolicy, RelaxedControl)):
        if workers is not None and workers > 1:
            warnings.warn(f"workers={workers} ignored: a callable policy runs single-threaded",
                          RuntimeWarning, stacklevel=2)
        workers = 1
    elif workers is None:
        workers = _auto_workers(n_traj)
    bounds = np.linspace(0, n_traj, min(int(workers), n_traj) + 1).astype(int)
    chunks = list(zip(bounds[:-1], bounds[1:]))
    # a pool starts its threads on submit, so one chunk starts none
    with ThreadPoolExecutor(max_workers=max(1, len(chunks) - 1)) as pool:
        rest = [pool.submit(run_chunk, lo, hi) for lo, hi in chunks[1:]]
        costs = np.concatenate([run_chunk(*chunks[0])] + [f.result() for f in rest])
    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1) / math.sqrt(n_traj)) if n_traj > 1 else 0.0
    return mean, stderr


@dataclass
class CrossCheckRow:
    x0: float
    mc_mean: float
    stderr: float
    mdp_value: float
    z: float


@dataclass
class CrossCheckReport:
    rows: list[CrossCheckRow]

    @property
    def max_abs_z(self) -> float:
        return max((abs(r.z) for r in self.rows), default=0.0)


def cross_check(model: PopdmpModel, policy: GridPolicy, observations, n_traj: int,
                seed: int = 0, horizon: float | None = None,
                workers: int | None = None, sweep: BellmanSweep | None = None) -> CrossCheckReport:
    """Compare Monte Carlo continuous-time cost against the filtered-MDP
    policy value (the T_f fixed point) at each initial observation.

    The MDP side uses ``sweep`` (default: the plain filter's), which must
    be built for the policy's grid and family and brings its regularization
    kernel and stage quadrature.  The simulator always filters with the
    exact Bayes update, so with a regularized sweep the z-scores also carry
    the gap between the two filters, which shrinks with the bandwidth.

    The z denominator combines the Monte Carlo standard error with a fixed
    numerical-accuracy allowance of ``1e-3 * (1 + |value|)`` covering
    quadrature and path-interpolation bias on both sides; without it,
    policies with (near-)deterministic cost would turn microscopic quadrature
    bias into arbitrarily large z-scores.
    """
    if sweep is None:
        sweep = BellmanSweep(model, policy.grid, policy.family)
    sweep.require_built_for(policy.grid, policy.family)
    v_policy = sweep.policy_fixed_point(policy.argmins)
    vg = ValueGrid(policy.grid, v_policy)
    rows = []
    for k, x0 in enumerate(observations):
        v_mdp = interpolate(vg, initial_belief(model, x0))
        mc, se = evaluate_policy_mc(model, x0, policy, n_traj, seed + k,
                                    horizon=horizon, workers=workers)
        diff = mc - v_mdp
        z = diff / math.hypot(se, 1e-3 * (1.0 + abs(v_mdp)))
        rows.append(CrossCheckRow(x0=float(np.atleast_1d(x0)[0]), mc_mean=mc, stderr=se,
                                  mdp_value=v_mdp, z=z))
    return CrossCheckReport(rows=rows)
