"""Random-walk oracle for capacities.

A walk starts at an interior vertex o and steps to neighbors with
probability proportional to the edge weights. A trial succeeds when it
hits the Dirichlet mask before returning to o. The electrical identity

    cap(o) = pi(o) * P(escape),    pi(o) = sum_y b(o, y)

ties the estimated escape probability to the equilibrium capacity, which
gives an independent cross-check of the linear-algebra route.

Each step draws the next vertex in O(1) from alias tables, whatever the
degree or the weights: one uniform u per trial, the integer part of
u * deg(v) picks one of v's slots, and its fractional part picks between
the slot's neighbor and its alias. A step is a few flat gathers over the
live trials. On a row of equal weights every slot keeps its neighbor,
and the draw is the neighbor floor(u * deg(v)) in CSR order.

Randomness is counter-based: the uniform consumed by trial i at step k
is a hash of (seed, i, k). Trials therefore own disjoint streams and the
estimate is a pure function of (section, o, trials, seed), bit-identical
under any chunking or thread count.

Once at most _TAIL trials are live, or after _LONG steps, each live
trial is walked on to its end alone, in python scalars on the same
uniforms, where a step costs a fraction of a microsecond instead of the
tens that a vectorised step costs at any width.

A trial still walking after _STEP_LIMIT steps raises RoydenError. The
limit only bounds the time a walk may take. A weight trap, an edge far
heavier than every edge around it, holds a trial for about its weight
ratio in steps, and the walk fails once that trial, walked alone,
reaches the limit. A gambler's-ruin trial in a one-dimensional box of
radius r needs about r^2 steps, a few million at r = 2000, well inside
the limit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, KillingUnsupported, RoydenError, UnmaskedSection
from .graph import Section

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STEP_LIMIT = 50_000_000
_CHUNK = 65536  # trials per chunk, the unit of work a thread takes
_TAIL = 64  # live trials at or below which each is finished on its own
_LONG = 1 << 18  # steps after which every live trial is finished on its own


def _mix64(z):
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _trial_keys(seed: int, trial_ids: np.ndarray) -> np.ndarray:
    base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    return _mix64(base + _GOLDEN * (trial_ids.astype(np.uint64) + np.uint64(1)))


def _uniforms(keys: np.ndarray, step: int) -> np.ndarray:
    # counter-mode: uniforms depend only on (seed, trial, step); uint64
    # wraparound is part of the mixing, computed in python ints to keep
    # numpy from warning on intended overflow
    offset = np.uint64((int(_GOLDEN) * (step + 1)) & 0xFFFFFFFFFFFFFFFF)
    u64 = _mix64(keys + offset)
    return (u64 >> np.uint64(11)) * 2.0**-53


def _trial_uniforms(key: np.uint64, start: int, stop: int) -> list[float]:
    # the uniforms _uniforms gives one trial at steps start .. stop - 1;
    # uint64 array arithmetic wraps silently
    offsets = _GOLDEN * (np.arange(start, stop, dtype=np.uint64) + np.uint64(1))
    return ((_mix64(key + offsets) >> np.uint64(11)) * 2.0**-53).tolist()


@dataclass(frozen=True)
class WalkEstimate:
    estimate: float
    stderr: float
    successes: int
    trials: int
    seed: int


class _Transitions:
    """Alias tables (Walker 1977, Vose 1991) over padded CSR slots.

    Vertex v owns the maxdeg slots v*maxdeg .. v*maxdeg + maxdeg - 1. The
    first deg(v) hold its neighbors in CSR order; the rest are padding
    that no draw reaches. Slot j of v keeps accept[j] of its 1/deg(v)
    share for nbr[j] and lends the rest to alias[j], so that

        P(v -> y) = sum_j [accept_j 1{nbr_j = y} + (1 - accept_j) 1{alias_j = y}] / deg(v)
                  = b(v, y) / pi(v).

    The tables come from Vose's pairing on the scaled masses
    q_j = deg(v) b(v, nbr_j) / pi(v), which average 1 over a row: each
    round closes one slot with q < 1 per row, lending its deficit to an
    open slot with q >= 1. A row with d slots is done within d - 1
    rounds. On a row of equal weights q is 1 up to rounding, and exactly
    1 for the unit weights of lattices and trees, so every accept is 1.
    """

    def __init__(self, s: Section):
        adj = s.adj
        n = s.n
        deg = np.diff(adj.indptr)
        maxdeg = int(deg.max()) if n else 0
        # row-major boolean indexing fills each row's real slots in CSR order
        is_open = np.arange(maxdeg) < deg[:, None]
        nbr = np.zeros((n, maxdeg), dtype=np.int64)
        nbr[is_open] = adj.indices
        pi = s.weighted_degree
        q = np.zeros((n, maxdeg))
        q[is_open] = adj.data * np.repeat(deg / np.where(pi > 0, pi, 1.0), deg)
        accept = np.ones((n, maxdeg))
        alias = nbr.copy()

        rows = np.flatnonzero((is_open & (q < 1.0)).any(axis=1))
        while len(rows):
            qr, opr = q[rows], is_open[rows]
            small, large = opr & (qr < 1.0), opr & (qr >= 1.0)
            paired = small.any(axis=1) & large.any(axis=1)
            rows = rows[paired]
            lo, hi = small[paired].argmax(axis=1), large[paired].argmax(axis=1)
            q_lo = q[rows, lo]
            accept[rows, lo] = q_lo
            alias[rows, lo] = nbr[rows, hi]
            is_open[rows, lo] = False
            q[rows, hi] = (q[rows, hi] + q_lo) - 1.0
        # slots still open carry q = 1 up to rounding and keep accept = 1

        self.maxdeg = maxdeg
        self.deg = deg.astype(float)
        self.nbr = nbr.ravel()
        self.accept = accept.ravel()
        self.alias = alias.ravel()

    def step(self, pos: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next vertex of each walker at pos, one uniform u in [0, 1) each."""
        x = u * self.deg.take(pos)
        col = x.astype(np.int64)
        slot = pos * self.maxdeg + col
        nxt = self.nbr.take(slot)
        lend = np.flatnonzero(x - col >= self.accept.take(slot))
        if len(lend):
            nxt[lend] = self.alias.take(slot[lend])
        return nxt


def _finish(trans: _Transitions, mask: np.ndarray, o: int, v: int, key: np.uint64, step: int) -> int:
    """Walk one trial on from vertex v after step steps; 1 if it escapes.

    The same draw as _Transitions.step in python scalars, on the same
    uniforms, in blocks of steps that double up to _CHUNK.
    """
    deg, nbr, accept, alias = map(memoryview, (trans.deg, trans.nbr, trans.accept, trans.alias))
    hit, maxdeg, block = memoryview(mask), trans.maxdeg, 64
    while step < _STEP_LIMIT:
        stop = min(step + block, _STEP_LIMIT)
        for u in _trial_uniforms(key, step, stop):
            x = u * deg[v]
            col = int(x)
            slot = v * maxdeg + col
            v = nbr[slot] if x - col < accept[slot] else alias[slot]
            if hit[v]:
                return 1
            if v == o:
                return 0
        step, block = stop, min(2 * block, _CHUNK)
    raise RoydenError(f"walk failed to absorb within {_STEP_LIMIT} steps")


def _run_chunk(
    trans: _Transitions,
    mask: np.ndarray,
    o: int,
    seed: int,
    start: int,
    stop: int,
) -> int:
    ids = np.arange(start, stop, dtype=np.uint64)
    keys = _trial_keys(seed, ids)
    pos = np.full(len(ids), o, dtype=np.int64)
    successes = 0
    step = 0
    # a numpy step costs tens of microseconds however few trials are live,
    # as much as a hundred python steps; past _LONG steps the live trials
    # are a slow tail or held by a weight trap, and a trapped trial walked
    # on its own reaches _STEP_LIMIT in seconds rather than hours
    while len(pos) > _TAIL and step < _LONG:
        pos = trans.step(pos, _uniforms(keys, step))
        hit = mask[pos]
        successes += int(np.count_nonzero(hit))
        alive = ~hit & (pos != o)
        pos = pos[alive]
        keys = keys[alive]
        step += 1
        if step > _STEP_LIMIT:
            raise RoydenError(f"walk failed to absorb within {_STEP_LIMIT} steps")
    return successes + sum(_finish(trans, mask, o, v, k, step) for v, k in zip(pos.tolist(), keys))


def escape_probability(
    s: Section,
    o,
    trials: int,
    seed: int,
    threads: int = 1,
) -> WalkEstimate:
    """Estimate P(hit the mask before returning to o) for the b-walk from o.

    Requires identically zero killing (the walk has no death mechanism)
    and a mask reachable from o. The estimate is deterministic in
    (section, o, trials, seed) for any thread count.
    """
    if trials < 1:
        raise InvalidParameter(f"trials must be >= 1, got {trials}")
    if np.any(s.c > 0):
        raise KillingUnsupported("escape sampling needs c identically zero")
    oi = s.index_of(o)
    if s.dirichlet[oi]:
        raise InvalidParameter(f"start vertex {o!r} is masked")
    if len(s.mask) == 0:
        raise UnmaskedSection("no Dirichlet mask to escape to")
    comp = s.full_components
    if not np.any(s.dirichlet & (comp == comp[oi])):
        raise UnmaskedSection("no masked vertex reachable from the start")
    if s.weighted_degree[oi] == 0:
        raise InvalidParameter("start vertex has no edges")

    trans = _Transitions(s)
    mask = np.asarray(s.dirichlet, dtype=bool)
    ranges = [(a, min(a + _CHUNK, trials)) for a in range(0, trials, _CHUNK)]
    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(
                pool.map(lambda r: _run_chunk(trans, mask, oi, seed, r[0], r[1]), ranges)
            )
        successes = int(sum(parts))
    else:
        successes = sum(_run_chunk(trans, mask, oi, seed, a, b) for a, b in ranges)

    p = successes / trials
    stderr = float(np.sqrt(p * (1.0 - p) / trials))
    return WalkEstimate(
        estimate=float(p), stderr=stderr, successes=successes, trials=trials, seed=seed
    )
