"""Random-walk oracle for capacities.

A walk starts at an interior vertex o and steps to neighbors with
probability proportional to the edge weights. A trial succeeds when it
hits the Dirichlet mask before returning to o. The electrical identity

    cap(o) = pi(o) * P(escape),    pi(o) = sum_y b(o, y)

ties the estimated escape probability to the equilibrium capacity, which
gives an independent cross-check of the linear-algebra route.

Randomness is counter-based: the uniform consumed by trial i at step k
is a hash of (seed, i, k). Trials therefore own disjoint streams and the
estimate is a pure function of (section, o, trials, seed), bit-identical
under any chunking or thread count.
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


@dataclass(frozen=True)
class WalkEstimate:
    estimate: float
    stderr: float
    successes: int
    trials: int
    seed: int


class _Transitions:
    """Padded per-vertex neighbor table for vectorized stepping."""

    def __init__(self, s: Section):
        adj = s.adj
        n = s.n
        indptr, indices, data = adj.indptr, adj.indices, adj.data
        deg = np.diff(indptr)
        maxdeg = int(deg.max()) if n else 0
        rows = np.repeat(np.arange(n), deg)
        pos = np.arange(len(indices)) - np.repeat(indptr[:-1], deg)
        nbr = np.zeros((n, maxdeg), dtype=np.int64)
        nbr[rows, pos] = indices
        prob = np.zeros((n, maxdeg))
        rowsum = s.weighted_degree
        safe = np.where(rowsum > 0, rowsum, 1.0)
        prob[rows, pos] = data / safe[rows]
        self.nbr = nbr
        self.cum = np.cumsum(prob, axis=1)
        self.last = np.maximum(deg - 1, 0)


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
    while len(pos):
        u = _uniforms(keys, step)
        choice = (u[:, None] >= trans.cum[pos]).sum(axis=1)
        choice = np.minimum(choice, trans.last[pos])
        pos = trans.nbr[pos, choice]
        hit = mask[pos]
        successes += int(np.count_nonzero(hit))
        alive = ~hit & (pos != o)
        pos = pos[alive]
        keys = keys[alive]
        step += 1
        if step > _STEP_LIMIT:
            raise RoydenError("walk failed to absorb within the step limit")
    return successes


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
