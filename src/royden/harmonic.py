"""Dirichlet problems, harmonic decomposition and boundary structure probes.

solve_dirichlet realizes the wired boundary: masked vertices carry
prescribed values, interior vertices satisfy the pointwise equation
sum_y b(x,y)(f(x) - f(y)) + c(x) f(x) = 0. The decomposition splits any
function into an energy-minimizing part vanishing on the mask plus the
harmonic extension of its mask values; the two are orthogonal in energy
and the harmonic part never overshoots the bounds of the input.

The probes work on exhaustions. harmonic_boundary_empty combines
summability of the killing term with recurrence of the killing-free
graph. liouville_probe solves a sequence of Dirichlet problems with
sign data that is coherent within direction sectors and watches whether
the solutions still oscillate near the origin as the boundary recedes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .energy import energy, energy_inner, formal_laplacian
from .errors import (
    InvalidParameter,
    MissingBoundaryValue,
    MonotonicityViolation,
    NotHarmonic,
)
from .graph import ExhaustionGenerator, Section, VertexFn, check_bound, format_label
from .potential import TransienceVerdict, UTReport, _extend, classify_transience, default_profile_levels

HARMONIC_TOL = 1e-8


def solve_dirichlet(
    s: Section, boundary_values: Mapping, rel_tol: float = 1e-10
) -> VertexFn:
    """Solve the Dirichlet problem with the given values on the mask.

    boundary_values maps every masked vertex (index or label) to a real;
    entries for interior vertices are rejected. Requires every interior
    component to be grounded, else the solution is not unique.
    """
    values = np.zeros(s.n)
    given = np.zeros(s.n, dtype=bool)
    for k, val in boundary_values.items():
        v = s.index_of(k)
        if not s.dirichlet[v]:
            raise InvalidParameter(f"vertex {k!r} is interior; only mask values may be prescribed")
        values[v] = float(val)
        given[v] = True
    missing = np.flatnonzero(s.dirichlet & ~given)
    if len(missing):
        raise MissingBoundaryValue(f"no value for masked vertices {missing.tolist()}")
    s.ensure_grounded()
    _extend(s, s.interior, values, rel_tol)
    return VertexFn(s, values)


def _harmonic_residual(s: Section, f: VertexFn) -> float:
    lap = formal_laplacian(s, f)
    inter = s.interior
    if len(inter) == 0:
        return 0.0
    return float(np.max(np.abs(lap.values[inter])))


def _harmonic_scale(s: Section, f: VertexFn) -> float:
    scale = 1.0 + f.sup_norm
    return scale * (1.0 + float(np.max(s.weighted_degree + s.c, initial=0.0)))


def require_harmonic(s: Section, f: VertexFn, tol: float = HARMONIC_TOL) -> None:
    check_bound(s, f)
    res = _harmonic_residual(s, f)
    bound = tol * _harmonic_scale(s, f)
    if res > bound:
        raise NotHarmonic(f"interior residual {res:g} exceeds {bound:g}")


@dataclass(frozen=True)
class Decomposition:
    """f = f0 + fh with f0 vanishing on the mask and fh harmonic inside."""

    f0: VertexFn
    fh: VertexFn
    orthogonality_residual: float
    bounds_preserved: bool


def royden_decompose(s: Section, f: VertexFn, rel_tol: float = 1e-10) -> Decomposition:
    """Split f into the harmonic extension of its mask values plus a rest.

    The rest f0 vanishes on the mask, the parts are energy-orthogonal, and
    with a = max(0, -min f), b = max(0, max f) the harmonic part stays
    inside [-a, b] (checked and reported, not assumed).
    """
    check_bound(s, f)
    fh = solve_dirichlet(s, {s.labels[v]: float(f.values[v]) for v in s.mask}, rel_tol=rel_tol)
    f0 = VertexFn(s, f.values - fh.values)
    resid = abs(energy_inner(s, f0, fh))
    lo = min(0.0, float(np.min(f.values)))
    hi = max(0.0, float(np.max(f.values)))
    slack = 1e-10 * (1.0 + f.sup_norm)
    preserved = bool(
        np.all(fh.values >= lo - slack) and np.all(fh.values <= hi + slack)
    )
    return Decomposition(
        f0=f0, fh=fh, orthogonality_residual=resid, bounds_preserved=preserved
    )


@dataclass(frozen=True)
class MaxPrincipleReport:
    max_abs_all: float
    max_abs_mask: float
    gap: float
    passed: bool
    strict_ok: bool  # non-constant solutions peak only on the mask
    constant: bool


def max_principle_check(s: Section, f: VertexFn, slack: float = 1e-10) -> MaxPrincipleReport:
    """Verify sup |f| = sup |f on mask| for a function harmonic inside.

    Raises NotHarmonic first if f fails the interior equation. Constant
    functions pass trivially (the maximum is attained everywhere).
    """
    require_harmonic(s, f)
    sup_all = f.sup_norm
    mask = s.mask
    sup_mask = float(np.max(np.abs(f.values[mask]), initial=0.0)) if len(mask) else 0.0
    spread = float(np.max(f.values) - np.min(f.values)) if s.n else 0.0
    constant = spread <= slack * (1.0 + sup_all)
    gap = sup_all - sup_mask
    tol = slack * (1.0 + sup_all)
    passed = constant or gap <= tol
    strict_ok = True
    if not constant and len(s.interior):
        interior_sup = float(np.max(np.abs(f.values[s.interior])))
        strict_ok = interior_sup < sup_mask
    return MaxPrincipleReport(
        max_abs_all=sup_all,
        max_abs_mask=sup_mask,
        gap=gap,
        passed=bool(passed),
        strict_ok=bool(strict_ok),
        constant=bool(constant),
    )


# ---------------------------------------------------------------------------
# harmonic boundary


@dataclass(frozen=True)
class HarmonicBoundaryReport:
    status: str  # "empty" | "nonempty" | "inconclusive"
    c_tail: float
    c_tails: tuple
    c_partial_sums: tuple
    zero_c: TransienceVerdict | None
    levels: tuple
    tol: float


def harmonic_boundary_empty(
    gen: ExhaustionGenerator,
    tol: float = 1e-3,
    levels=None,
    rel_tol: float = 1e-10,
) -> HarmonicBoundaryReport:
    """Probe whether every bounded harmonic behavior collapses to a point.

    The harmonic boundary is empty exactly when the killing term is
    summable and the killing-free graph is recurrent. Summability is
    judged by the Cauchy tail of the per-level partial sums; recurrence
    by the capacity-profile classifier on the derived killing-free
    generator.
    """
    if levels is None:
        levels = default_profile_levels(gen)
    levels = tuple(int(v) for v in levels)
    # the classifier builds each level once, as an orbit section where the
    # family has one (summing c over orbits keeps its total); its
    # killing-free builder records the killing term's partial sum on the way
    c_sums = {}

    def drop_c(level: int, sec: Section) -> Section:
        with np.errstate(over="ignore"):  # a sum past the float range is inf
            c_sums[level] = float(np.sum(sec.c))
        return replace(sec, c=np.zeros(sec.n))

    zero_c = classify_transience(
        gen._derived("+zero-c", drop_c), None, tol=tol, levels=levels, rel_tol=rel_tol
    )
    sums = tuple(c_sums[lv] for lv in levels)
    tails = tuple(b - a for a, b in zip(sums, sums[1:]))
    tail = tails[-1] if tails else 0.0
    c_converges = tail < tol
    c_diverges = tail > tol and (len(tails) < 2 or tails[-1] >= tails[-2] - tol)

    if c_converges and zero_c.verdict == "recurrent":
        status = "empty"
    elif c_diverges or zero_c.verdict == "transient":
        status = "nonempty"
    else:
        status = "inconclusive"
    return HarmonicBoundaryReport(
        status=status,
        c_tail=float(tail),
        c_tails=tails,
        c_partial_sums=sums,
        zero_c=zero_c,
        levels=levels,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# truncation


@dataclass(frozen=True)
class TruncationResult:
    fn: VertexFn
    decomposition: Decomposition
    fh_nonconstant: bool
    energy_input: float
    energy_truncated: float


def truncate_harmonic(s: Section, f: VertexFn, bound: float, rel_tol: float = 1e-10) -> TruncationResult:
    """Clamp a harmonic f to [-bound, bound] and redecompose.

    Clamping is a normal contraction, so the truncated function cannot
    gain energy; its harmonic part is the bounded-harmonic witness when
    it stays non-constant.
    """
    if not (math.isfinite(bound) and bound >= 0):
        raise InvalidParameter(f"bound must be finite and >= 0, got {bound}")
    require_harmonic(s, f)
    fn = f.clamp(-bound, bound)
    e_in = energy(s, f).value
    e_tr = energy(s, fn).value
    if e_tr > e_in + 1e-9 * (1.0 + e_in):
        raise MonotonicityViolation(
            f"clamping raised the energy from {e_in} to {e_tr}"
        )
    dec = royden_decompose(s, fn, rel_tol=rel_tol)
    spread = float(np.max(dec.fh.values) - np.min(dec.fh.values))
    nonconstant = spread > 1e-8 * (1.0 + fn.sup_norm)
    return TruncationResult(
        fn=fn,
        decomposition=dec,
        fh_nonconstant=bool(nonconstant),
        energy_input=e_in,
        energy_truncated=e_tr,
    )


# ---------------------------------------------------------------------------
# Liouville probe


@dataclass(frozen=True)
class LiouvilleReport:
    trend: str  # "liouville-trend" | "non-liouville-trend" | "inconclusive"
    levels: tuple
    oscillations: tuple
    seed: int
    sector_signs: tuple


def _sectors(sec: Section, anchors, origin_idx: int) -> np.ndarray:
    """Nearest level-1 anchor (hop metric) per vertex, origin excluded.

    Ties break by anchor order, so the assignment is deterministic.
    """
    anchor_idx = np.array([a for a in anchors if a != origin_idx], dtype=int)
    dist = dijkstra(sec.adj, directed=False, unweighted=True, indices=anchor_idx)
    return anchor_idx[np.argmin(dist, axis=0)], anchor_idx


def liouville_probe(
    gen: ExhaustionGenerator,
    levels,
    seed: int,
    rel_tol: float = 1e-10,
) -> LiouvilleReport:
    """Watch the oscillation of Dirichlet solutions near the origin.

    Boundary data at each level is +-1 on the wired shell, constant
    within each direction sector (shell vertices grouped by their nearest
    level-1 vertex) with seeded signs; a constant draw is repaired by
    flipping the last sector. If every bounded harmonic limit is
    constant the oscillation over the level-1 ball must die out; a
    persistent floor witnesses a non-constant bounded harmonic function.
    """
    levels = tuple(int(v) for v in levels)
    if len(levels) < 3:
        raise InvalidParameter("need at least three levels")
    if any(b <= a for a, b in zip(levels, levels[1:])) or levels[0] < 2:
        raise InvalidParameter("levels must be strictly increasing and start at >= 2")

    ball = gen.section(1)
    ball_labels = list(ball.labels)
    origin_label = gen.origin

    rng = np.random.default_rng(seed)
    non_origin = sorted(
        (lab for lab in ball_labels if lab != origin_label), key=str
    )
    signs = rng.choice(np.array([-1.0, 1.0]), size=len(non_origin))
    if len(set(signs.tolist())) == 1:
        signs[-1] = -signs[-1]  # boundary data must not be constant
    sign_of = dict(zip(non_origin, signs.tolist()))

    oscillations = []
    for level in levels:
        sec = gen.section(level)
        origin_idx = sec.index_of(origin_label)
        anchors = [sec.index_of(lab) for lab in ball_labels]
        sector, anchor_idx = _sectors(sec, anchors, origin_idx)
        label_of = {int(i): sec.labels[i] for i in anchor_idx}
        data = {}
        for v in sec.mask:
            data[sec.labels[v]] = sign_of[label_of[int(sector[v])]]
        f = solve_dirichlet(sec, data, rel_tol=rel_tol)
        ball_vals = np.array([f.values[sec.index_of(lab)] for lab in ball_labels])
        oscillations.append(float(ball_vals.max() - ball_vals.min()))

    osc = np.array(oscillations)
    first, last = osc[0], osc[-1]
    tail = osc[-3:]
    monotone_tail = tail[2] <= tail[1] * 1.05 and tail[1] <= tail[0] * 1.05
    spread = (tail.max() - tail.min()) / max(tail.max(), 1e-300)
    if last < 0.1 * first and monotone_tail:
        trend = "liouville-trend"
    elif last >= 0.3 * first and spread <= 0.25:
        trend = "non-liouville-trend"
    else:
        trend = "inconclusive"
    return LiouvilleReport(
        trend=trend,
        levels=levels,
        oscillations=tuple(oscillations),
        seed=seed,
        sector_signs=tuple((format_label(lab), s) for lab, s in sign_of.items()),
    )


def one_point_summary(probe: LiouvilleReport, ut: UTReport) -> str:
    """Combine the oscillation trend with a uniform-transience verdict."""
    if probe.trend == "liouville-trend" and ut.verdict == "certified-UT":
        return "consistent with one-point Royden compactification"
    if probe.trend == "non-liouville-trend":
        return "bounded harmonic oscillation persists; compactification not one-point"
    return "one-point compactification not established"
