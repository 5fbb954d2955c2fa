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
and the draw is the neighbor floor(u * deg(v)) in CSR order; when no
slot of the section lends, as on lattices and trees, the step skips the
alias pass altogether.

Randomness is counter-based: the uniform consumed by trial i at step k
is a hash of (seed, i, k). Trials therefore own disjoint streams and the
estimate is a pure function of (section, o, trials, seed), bit-identical
under any chunking or thread count. Each chunk of trials hashes in three
buffers of its own, and one gather of a per-vertex state (walking on,
masked, origin) tells which trials absorbed and how.

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

import heapq
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
# slots above which a row's alias table pairs alone in heaps rather than
# in the vectorised rounds: on k weighted stars of d leaves each the two
# cost the same near d = 128 (k = 100) to 180 (k = 1000)
_WIDE = 128


def _mix64(z, tmp=None):
    """The splitmix64 finaliser, in place on the uint64 array z; tmp is
    scratch of z's shape."""
    tmp = np.empty_like(z) if tmp is None else tmp
    for shift, mul in (30, _MIX1), (27, _MIX2):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= mul
    np.right_shift(z, 31, out=tmp)
    z ^= tmp
    return z


def _trial_keys(seed: int, trial_ids: np.ndarray) -> np.ndarray:
    base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    return _mix64(base + _GOLDEN * (trial_ids.astype(np.uint64) + np.uint64(1)))


def _uniforms(keys: np.ndarray, step: int, out) -> np.ndarray:
    """The uniform of each trial key at this step, in [0, 1).

    Counter-mode: uniforms depend only on (seed, trial, step). out is
    three buffers at least len(keys) long, two uint64 and one float64;
    the hash runs in them and the result is a view of the third.
    """
    n = len(keys)
    z, tmp, u = (b[:n] for b in out)
    # the offset's uint64 wraparound computed in python ints, to keep
    # numpy from warning on intended scalar overflow
    np.add(keys, np.uint64((int(_GOLDEN) * (step + 1)) & 0xFFFFFFFFFFFFFFFF), out=z)
    _mix64(z, tmp)
    z >>= 11
    return np.multiply(z, 2.0**-53, out=u)


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
    """Alias tables (Walker 1977, Vose 1991) over the section's CSR slots.

    Vertex v owns the slots indptr[v] .. indptr[v + 1] - 1 of s.adj, and
    nbr is adj.indices, so the tables take O(edges) memory. Slot j of v
    keeps accept[j] of its 1/deg(v) share for nbr[j] and lends the rest
    to alias[j], so that

        P(v -> y) = sum_j [accept_j 1{nbr_j = y} + (1 - accept_j) 1{alias_j = y}] / deg(v)
                  = b(v, y) / pi(v).

    The tables come from Vose's pairing on the scaled masses
    q_j = deg(v) b(v, nbr_j) / pi(v), which average 1 over a row: each
    round closes the first slot with q < 1 of each row, lending its
    deficit to the row's first slot with q >= 1, and touches only the
    slots of rows that still pair. A row with d slots is done within
    d - 1 rounds, so a row of more than _WIDE slots, such as a hub,
    pairs alone in _pair_row in O(d log d) instead, with the same pairs
    and the same arithmetic. On a row of equal weights q is 1 up to rounding,
    and exactly 1 for the unit weights of lattices and trees, so every
    accept is 1; a table with no accept below 1 has _lends False, and
    step skips the alias pass, which could not change a draw.
    """

    def __init__(self, s: Section):
        adj = s.adj
        deg = np.diff(adj.indptr)
        pi = s.weighted_degree
        q = adj.data * np.repeat(deg / np.where(pi > 0, pi, 1.0), deg)
        nbr = adj.indices
        accept = np.ones(len(nbr))
        alias = nbr.copy()

        rows = np.unique(np.searchsorted(adj.indptr, np.flatnonzero(q < 1.0), side="right") - 1)
        wide = deg[rows] > _WIDE
        # a row of d slots takes up to d - 1 rounds over all its slots: a
        # wide row pairs alone in O(d log d)
        for v in rows[wide].tolist():
            slots = np.arange(adj.indptr[v], adj.indptr[v + 1])
            lo, hi, q_lo = _pair_row(q[slots].tolist())
            accept[slots[lo]] = q_lo
            alias[slots[lo]] = nbr[slots[hi]]
        rows = rows[~wide]
        while len(rows):
            # the slots of rows, row after row; a row's first small (large)
            # slot is the least index among them where the flag holds, and
            # a closed slot's q is nan, neither small nor large
            lens = deg[rows]
            starts = np.cumsum(lens) - lens
            slots = np.arange(lens.sum()) + np.repeat(adj.indptr[rows] - starts, lens)
            qs, none = q[slots], len(slots)
            lo = np.minimum.reduceat(np.where(qs < 1.0, np.arange(none), none), starts)
            hi = np.minimum.reduceat(np.where(qs >= 1.0, np.arange(none), none), starts)
            paired = (lo < none) & (hi < none)
            rows = rows[paired]
            lo, hi = slots[lo[paired]], slots[hi[paired]]
            accept[lo] = q[lo]
            alias[lo] = nbr[hi]
            q[hi] = (q[hi] + q[lo]) - 1.0
            q[lo] = np.nan
        # slots still open carry q = 1 up to rounding and keep accept = 1

        self.start, self.deg = adj.indptr[:-1], deg.astype(float)
        self.nbr, self.accept, self.alias = nbr, accept, alias
        # with no accept below 1 no fractional part reaches one: no slot lends
        self._lends = bool((accept < 1.0).any())

    def step(self, pos: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next vertex of each walker at pos, one uniform u in [0, 1) each."""
        x = u * self.deg.take(pos)
        slot = x.astype(np.intp)
        if self._lends:
            x -= slot  # the fractional part picks the neighbor or the alias
        slot += self.start.take(pos)
        # positions in intp: numpy casts a narrower index array at every gather
        nxt = self.nbr.take(slot).astype(np.intp)
        if self._lends:
            lend = np.flatnonzero(x >= self.accept.take(slot))
            if len(lend):
                nxt[lend] = self.alias.take(slot[lend])
        return nxt


def _pair_row(q: list[float]) -> tuple[list[int], list[int], list[float]]:
    """Vose's pairing on one row's scaled masses, a closed slot's q nan.

    The same pairs in the same order as the vectorised rounds: the least
    open slot with q < 1 lends its deficit to the least open slot with
    q >= 1, both kept in heaps, in O(d log d) for d slots. Returns the
    closed slots, their partners and their accepts.
    """
    small = [j for j, x in enumerate(q) if x < 1.0]  # sorted lists are heaps
    large = [j for j, x in enumerate(q) if x >= 1.0]
    lo, hi, q_lo = [], [], []
    while small and large:
        j, k = heapq.heappop(small), large[0]
        lo.append(j)
        hi.append(k)
        q_lo.append(q[j])
        q[k] = (q[k] + q[j]) - 1.0
        if q[k] < 1.0:
            heapq.heappush(small, heapq.heappop(large))
    return lo, hi, q_lo


def _finish(trans: _Transitions, mask: np.ndarray, o: int, v: int, key: np.uint64, step: int) -> int:
    """Walk one trial on from vertex v after step steps; 1 if it escapes.

    The same draw as _Transitions.step in python scalars, on the same
    uniforms, in blocks of steps that double up to _CHUNK.
    """
    deg, start, nbr, accept, alias = map(
        memoryview, (trans.deg, trans.start, trans.nbr, trans.accept, trans.alias)
    )
    hit, block = memoryview(mask), 64
    while step < _STEP_LIMIT:
        stop = min(step + block, _STEP_LIMIT)
        for u in _trial_uniforms(key, step, stop):
            x = u * deg[v]
            col = int(x)
            slot = start[v] + col
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
    # each call owns its hash buffers: threads share trans
    bufs = np.empty(len(ids), np.uint64), np.empty(len(ids), np.uint64), np.empty(len(ids))
    # one gather tells each trial's fate: 0 walks on, 1 escaped, 2 returned
    state = mask.astype(np.int8)
    state[o] = 2
    successes = 0
    step = 0
    # a numpy step costs tens of microseconds however few trials are live,
    # as much as a hundred python steps; past _LONG steps the live trials
    # are a slow tail or held by a weight trap, and a trapped trial walked
    # on its own reaches _STEP_LIMIT in seconds rather than hours
    while len(pos) > _TAIL and step < _LONG:
        pos = trans.step(pos, _uniforms(keys, step, bufs))
        fate = state.take(pos)
        successes += int(np.count_nonzero(fate == 1))
        alive = fate == 0
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
    and a mask reachable from o. trials, seed and threads are integers,
    not bools. Chunks of _CHUNK trials run threads at a time
    (threads >= 1), and the estimate is deterministic in
    (section, o, trials, seed) for any thread count.
    """
    for name, value in ("trials", trials), ("seed", seed), ("threads", threads):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    trials, seed, threads = int(trials), int(seed), int(threads)
    if trials < 1:
        raise InvalidParameter(f"trials must be >= 1, got {trials}")
    if threads < 1:
        raise InvalidParameter(f"threads must be >= 1, got {threads}")
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
    with ThreadPoolExecutor(max_workers=threads) as pool:
        successes = sum(pool.map(lambda r: _run_chunk(trans, mask, oi, seed, *r), ranges))

    p = successes / trials
    stderr = float(np.sqrt(p * (1.0 - p) / trials))
    return WalkEstimate(
        estimate=float(p), stderr=stderr, successes=successes, trials=trials, seed=seed
    )
