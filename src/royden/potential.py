"""Capacities, intrinsic metrics and transience classification.

The capacity of a vertex x is the least energy among functions that are 1
at x and vanish on the Dirichlet mask. Along an exhaustion the per-level
capacities decrease; whether they level off at a positive value or decay
to zero separates transient graphs from recurrent ones, and a positive
uniform lower bound over all vertices is what makes transience uniform:
it yields the sup-norm bound  ||f||_inf <= C * energy(f)^(1/2)  with
C = (inf cap)^(-1/2).

Two metrics are computed through the dual quadratic form of the energy
matrix A:

    gamma(x, y)   = sup { |f(x) - f(y)| : energy(f) <= 1 }
                  = ((chi_x - chi_y)^T A^(-1) (chi_x - chi_y))^(1/2)
    gamma_o(x, y) = same with the norm energy(f) + f(o)^2

where chi_v is the unit vector at v for interior v and zero for masked v
(the mask is wired to a single ground point, so masked endpoints sit at
the ground).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .energy import energy, energy_matrix
from .errors import (
    DisconnectedPair,
    InvalidParameter,
    MonotonicityViolation,
    SameVertex,
)
from .graph import ExhaustionGenerator, Section, VertexFn, tree_depth_fits
from .numerics import DENSE_CAP, Sectors, SymOperator, inverse_diagonal, solve_rank_one

MONOTONE_SLACK = 1e-10


# ---------------------------------------------------------------------------
# capacity


def _extend(s: Section, free: np.ndarray, values: np.ndarray, rel_tol: float) -> None:
    """Overwrite values on free with the harmonic extension of the rest.

    Solves A[free] u = (adj @ values)[free], so values must be zero on
    free on entry; the other entries are the prescribed data.
    """
    if len(free):
        rhs = s.adj.dot(values)[free]
        values[free] = energy_matrix(s, free).solve(rhs, rel_tol=rel_tol).x


@dataclass(frozen=True)
class EquilibriumPotential:
    u: VertexFn
    cap: float
    degenerate: bool  # ungrounded component: infimum 0, u constant 1 there


def _equilibria(s: Section, xs, rel_tol: float) -> list:
    """equilibrium_potential(s, x) for every x in xs.

    On a grounded interior component with operator A, held by the
    section (the one gamma and interior_capacities use), the potential
    is u = g / g(x) with g = A^(-1) e_x. It is solved as v = A^(-1) w_x
    for the weights w_x from x into the component: A e_x = A_xx e_x - w_x
    gives g = (e_x + v) / A_xx, so u = (e_x + v) / (1 + v(x)) and u(x) = 1
    exactly. That CG starts from g = e_x / A_xx, and its residual bound
    ||A v - w_x|| <= rel_tol ||w_x|| bounds ||A g - e_x|| by rel_tol. cap
    is the energy of u (not g^T A g / g(x)^2, whose g(x)^2 underflows once
    the killing term nears the float range). The x of one component are
    the columns of one solve.
    """
    idx = np.array([s.index_of(x) for x in xs], dtype=int)
    for x, xi in zip(xs, idx):
        if s.dirichlet[xi]:
            raise InvalidParameter(f"vertex {x!r} is masked; capacity needs an interior vertex")
    cids = s.interior_components[idx]
    got = [None] * len(idx)
    for cid in np.unique(cids):
        at = np.flatnonzero(cids == cid)
        if not s.grounded[cid]:
            values = np.zeros(s.n)
            values[s.interior_members[cid]] = 1.0
            for k in at:
                u = VertexFn(s, values.copy())
                got[k] = EquilibriumPotential(u=u, cap=0.0, degenerate=True)
            continue
        sup = _support(s, ("interior", int(cid)))
        weights = s.adj[idx[at]][:, sup.members].toarray().T
        v = sup.op.solve(weights, rel_tol=rel_tol).x
        for j, (k, row) in enumerate(zip(at, np.searchsorted(sup.members, idx[at]))):
            w = v[:, j]
            w[row] += 1.0
            values = np.zeros(s.n)
            values[sup.members] = w / w[row]
            u = VertexFn(s, values)
            got[k] = EquilibriumPotential(u=u, cap=energy(s, u).value, degenerate=False)
    return got


def equilibrium_potential(s: Section, x, rel_tol: float = 1e-10) -> EquilibriumPotential:
    """Energy minimizer among functions with u(x) = 1 vanishing on the mask.

    cap is its energy. If the component of x carries no killing term and
    never touches the mask, the infimum is 0 and the constant function 1
    on the component is returned with the degenerate flag set.
    """
    return _equilibria(s, [x], rel_tol)[0]


def interior_capacities(s: Section, rel_tol: float = 1e-10) -> np.ndarray:
    """Capacity of every interior vertex, aligned with s.interior.

    Per interior component: an ungrounded one has capacity 0 throughout
    (the degenerate case of equilibrium_potential). On a grounded one
    cap(x) = 1 / G(x, x) with G the inverse of its energy matrix (the
    equilibrium potential is G e_x / G(x, x), whose energy is 1 / G(x, x)).
    Up to DENSE_CAP vertices the diagonal of G comes from one dense
    factorization per block of s.sectors (one reflection sector of one
    orbit of interior components), exact to rounding. Above it, from one
    solve G e_x per vertex against the component's operator held by the
    section (the one gamma and gamma_o use): CG answers the first, the
    operator's sparse factor the rest; rel_tol applies to those solves
    only.
    """
    inter = s.interior
    members = s.interior_members
    caps = np.zeros(len(inter))
    small = np.array([len(comp) <= DENSE_CAP for comp in members])
    if small.any():
        # the blocks of s.sectors, from the energy matrix of the rows on
        # small components; the components of an orbit share size and
        # grounding, read off the component of each block's first row
        Q, bounds = s.sectors
        row_cid = s.interior_components[inter]
        block_cid = row_cid[Q.indices[Q.indptr[bounds[:-1]]]]
        rows = np.flatnonzero(small[row_cid])
        Q = Q[rows]
        # diag(G) adds up over the blocks as Q[x, .]^2 diag(C^-1). G is
        # infinite on an ungrounded component, whose capacities are 0
        green = np.full(Q.shape[1], np.inf)
        blocks = Sectors(Q, bounds).blocks(energy_matrix(s, inter[rows]).matrix)
        for C, a, b, cid in zip(blocks, bounds[:-1], bounds[1:], block_cid):
            if small[cid] and s.grounded[cid]:
                green[a:b] = inverse_diagonal(C.toarray(order="F"))
        caps[rows] = 1.0 / (Q.multiply(Q) @ green)
    for cid, comp in enumerate(members):
        if len(comp) > DENSE_CAP and s.grounded[cid]:
            op = _support(s, ("interior", cid)).op
            unit = np.zeros(len(comp))
            for i, p in enumerate(np.searchsorted(inter, comp)):
                unit[i] = 1.0
                caps[p] = 1.0 / op.solve(unit, rel_tol=rel_tol).x[i]
                unit[i] = 0.0
    return caps


@dataclass(frozen=True)
class SupNormConstant:
    """C with ||f||_inf <= C * energy(f)^(1/2) for admissible f; exact on a
    finite section via the minimum interior capacity."""

    C: float
    min_cap: float
    argmin_vertex: int


def sup_norm_constant(s: Section, rel_tol: float = 1e-10) -> SupNormConstant:
    """C = (min cap)^(-1/2) over the interior, from interior_capacities."""
    caps = interior_capacities(s, rel_tol=rel_tol)
    if len(caps) == 0:
        raise InvalidParameter("section has no interior vertices")
    k = int(np.argmin(caps))
    min_cap = float(caps[k])
    C = math.inf if min_cap <= 0 else min_cap**-0.5
    return SupNormConstant(C=C, min_cap=min_cap, argmin_vertex=int(s.interior[k]))


# ---------------------------------------------------------------------------
# capacity profiles along exhaustions


@dataclass(frozen=True)
class Extrapolation:
    limit: float
    model: str  # "plateau" | "log-decay" | "none"
    plateau_value: float
    decay_coefficient: float
    plateau_sse: float
    decay_sse: float


@dataclass(frozen=True)
class CapacityProfile:
    x: object  # label
    levels: tuple
    values: tuple
    extrapolation: Extrapolation

    def residual_rows(self):
        """Per level: (level, cap, plateau residual, decay residual)."""
        ex = self.extrapolation
        rows = []
        for lev, val in zip(self.levels, self.values):
            pr = val - ex.plateau_value
            dr = val - ex.decay_coefficient / math.log(max(lev, 2))
            rows.append((lev, val, pr, dr))
        return rows


def _fit_extrapolation(levels, values) -> Extrapolation:
    # fit the values scaled by a power of two to a peak in [0.5, 1): exact,
    # and sums and squares of capacities near the float range cannot overflow
    shift = math.frexp(float(np.max(np.abs(values))))[1]
    scaled = np.ldexp(np.asarray(values, dtype=float), -shift)
    if len(values) < 3:
        return Extrapolation(
            limit=float(values[-1]),
            model="none",
            plateau_value=math.ldexp(float(np.mean(scaled)), shift),
            decay_coefficient=0.0,
            plateau_sse=float("nan"),
            decay_sse=float("nan"),
        )
    k = len(values) // 2  # fit on the last half of the levels
    win_l = np.asarray(levels[k:], dtype=float)
    win_v = scaled[k:]
    plateau = float(np.mean(win_v))
    plateau_sse = float(np.sum((win_v - plateau) ** 2))
    u = 1.0 / np.log(np.maximum(win_l, 2.0))
    coeff = float(np.dot(win_v, u) / np.dot(u, u))
    decay_sse = float(np.sum((win_v - coeff * u) ** 2))
    plateau_wins = plateau_sse <= decay_sse  # compared scaled
    with np.errstate(over="ignore"):  # a coefficient or SSE past the float range is inf
        plateau, coeff, plateau_sse, decay_sse = np.ldexp(
            [plateau, coeff, plateau_sse, decay_sse], [shift, shift, 2 * shift, 2 * shift]
        ).tolist()
    if plateau_wins:
        return Extrapolation(
            limit=plateau,
            model="plateau",
            plateau_value=plateau,
            decay_coefficient=coeff,
            plateau_sse=plateau_sse,
            decay_sse=decay_sse,
        )
    return Extrapolation(
        limit=0.0,  # the log-decay model has no positive floor
        model="log-decay",
        plateau_value=plateau,
        decay_coefficient=coeff,
        plateau_sse=plateau_sse,
        decay_sse=decay_sse,
    )


def _check_levels(levels) -> tuple:
    levels = tuple(int(v) for v in levels)
    if len(levels) == 0:
        raise InvalidParameter("need at least one level")
    if any(b <= a for a, b in zip(levels, levels[1:])) or levels[0] < 1:
        raise InvalidParameter(f"levels must be strictly increasing and >= 1, got {levels}")
    return levels


def default_profile_levels(gen: ExhaustionGenerator) -> tuple:
    if gen.family.startswith("tree"):
        return (3, 4, 5, 6, 7, 8)
    if gen.family.startswith("lattice"):
        return (4, 6, 8, 12, 16, 24, 32)
    raise InvalidParameter(f"no default levels for family {gen.family!r}; pass levels")


def _check_monotone(levels, values) -> None:
    for (la, va), (lb, vb) in zip(zip(levels, values), zip(levels[1:], values[1:])):
        if vb > va + MONOTONE_SLACK:
            raise MonotonicityViolation(
                f"cap at level {lb} ({vb}) exceeds cap at level {la} ({va})"
            )


def _profile(gen: ExhaustionGenerator, x, levels: tuple, rel_tol: float):
    """capacity_profile, plus the section of levels[-1] it solved on.

    At the generator's origin each level is its orbit section, on which
    the origin's capacity is that of the full level; any other x is
    solved on the full level. Each level is built once, and no earlier
    level is alive while the next one builds.
    """
    build = (lambda level: gen.orbits(level).section) if x == gen.origin else gen.section
    values = []
    for level in levels:
        sec = None  # release the previous level before building this one
        sec = build(level)
        values.append(equilibrium_potential(sec, x, rel_tol=rel_tol).cap)
    values = tuple(values)
    _check_monotone(levels, values)
    profile = CapacityProfile(
        x=x, levels=levels, values=values, extrapolation=_fit_extrapolation(levels, values)
    )
    return profile, sec


def capacity_profile(
    gen: ExhaustionGenerator,
    x=None,
    levels=None,
    rel_tol: float = 1e-10,
) -> CapacityProfile:
    """cap(x) per level, with a plateau / log-decay extrapolation fit.

    Monotonicity (capacities never increase along the exhaustion) is
    asserted within solver slack.
    """
    if x is None:
        x = gen.origin
    levels = _check_levels(levels if levels is not None else default_profile_levels(gen))
    return _profile(gen, x, levels, rel_tol)[0]


@dataclass(frozen=True)
class TransienceVerdict:
    verdict: str  # "transient" | "recurrent" | "inconclusive"
    reason: str
    profile: CapacityProfile
    tol: float


def classify_transience(
    gen: ExhaustionGenerator,
    x=None,
    tol: float = 1e-3,
    levels=None,
    rel_tol: float = 1e-10,
) -> TransienceVerdict:
    """Transient / recurrent / inconclusive from the capacity profile.

    A killing term anywhere on the component of x forces transience
    outright. Otherwise: plateau with a limit above tol means transient;
    a winning log-decay fit whose floor (or last value) sits below tol
    means recurrent.
    """
    if x is None:
        x = gen.origin
    levels = _check_levels(levels if levels is not None else default_profile_levels(gen))
    profile, deepest = _profile(gen, x, levels, rel_tol)
    xi = deepest.index_of(x)
    comp = deepest.full_components == deepest.full_components[xi]
    if np.any(deepest.c[comp] > 0):
        return TransienceVerdict(
            verdict="transient",
            reason="killing term present on the component",
            profile=profile,
            tol=tol,
        )
    ex = profile.extrapolation
    if ex.model == "plateau" and ex.limit > tol:
        return TransienceVerdict(
            verdict="transient",
            reason=f"capacity plateau at {ex.limit:.6g}",
            profile=profile,
            tol=tol,
        )
    if ex.model == "log-decay" and (profile.values[-1] < tol or ex.limit < tol / 10):
        return TransienceVerdict(
            verdict="recurrent",
            reason="capacity decays with the log of the level",
            profile=profile,
            tol=tol,
        )
    return TransienceVerdict(
        verdict="inconclusive",
        reason=f"no decisive fit (model {ex.model}, limit {ex.limit:.6g})",
        profile=profile,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class GammaValue:
    value: float
    regime: str  # "wired" | "free-fallback" | "recurrent-section"

    def __float__(self) -> float:
        return self.value


class _Support(NamedTuple):
    """A grounded energy operator and the ascending vertices of its rows."""

    members: np.ndarray
    op: SymOperator


def _support(s: Section, key: tuple) -> _Support:
    """The operator of one component, from the section's cache.

    ("interior", cid) is interior component cid under the mask.
    ("free", fid) is full component fid with the mask ignored, grounded
    at its lowest vertex unless it carries killing: the dual form of
    e_x - e_y does not depend on the ground (the pseudo-inverse identity
    of effective resistance), so one operator serves every pair.
    """
    got = s.operators.get(key)
    if got is None:
        kind, cid = key
        if kind == "interior":
            members = s.interior_members[cid]
        else:
            members = np.flatnonzero(s.full_components == cid)
            if not np.any(s.c[members] > 0):
                members = members[1:]
        got = s.operators[key] = _Support(members, energy_matrix(s, members))
    return got


def _position(members: np.ndarray, v: int):
    """Row of vertex v in an operator over members, or None."""
    i = int(np.searchsorted(members, v))
    return i if i < len(members) and members[i] == v else None


def _dual_form(sup: _Support, xi: int, yi: int, rel_tol: float, pin=None) -> float:
    """max(chi^T A^(-1) chi, 0) for the operator A of sup.

    chi is +1 at xi and -1 at yi, each only where that vertex is a row
    of A, so endpoints outside it sit at the ground. A pin among the rows
    adds f(pin)^2 to the form; one outside them cannot bind.
    """
    chi = np.zeros(len(sup.members))
    for v, sign in ((xi, 1.0), (yi, -1.0)):
        i = _position(sup.members, v)
        if i is not None:
            chi[i] += sign
    o = None if pin is None else _position(sup.members, pin)
    if o is None:
        sol = sup.op.solve(chi, rel_tol=rel_tol)
    else:
        sol = solve_rank_one(sup.op, o, chi, rel_tol=rel_tol)
    return float(max(chi @ sol.x, 0.0))


def _resistance(s: Section, xi: int, yi: int, rel_tol: float) -> float:
    """Free effective resistance between two vertices of one connected component."""
    return _dual_form(_support(s, ("free", int(s.full_components[xi]))), xi, yi, rel_tol)


def _endpoint_components(s: Section, xi: int, yi: int) -> list:
    """Interior component ids of the interior endpoints, ascending."""
    return sorted({int(s.interior_components[v]) for v in (xi, yi) if not s.dirichlet[v]})


def _gamma_squared(s: Section, xi: int, yi: int, rel_tol: float, pin=None) -> tuple:
    """(value squared, regime) of gamma, or of gamma_o pinned at pin."""
    if s.dirichlet[xi] and s.dirichlet[yi]:
        return 0.0, "wired"
    cids = _endpoint_components(s, xi, yi)
    if s.grounded[cids].all():
        value = sum(_dual_form(_support(s, ("interior", c)), xi, yi, rel_tol, pin) for c in cids)
        return value, "wired"
    if s.interior_components[xi] == s.interior_components[yi]:
        # ungrounded shared component: it is a whole connected component
        return _resistance(s, xi, yi, rel_tol), "free-fallback"
    return math.inf, "recurrent-section"


def gamma(s: Section, x, y, rel_tol: float = 1e-10) -> GammaValue:
    """Energy metric between two vertices under wired boundary semantics.

    Masked endpoints sit at the common ground. When every involved
    component is grounded the dual form of the restricted energy matrix
    gives the value ("wired"); interior components are decoupled blocks
    of it, so the form is summed over theirs. An ungrounded component
    still yields a finite value when x and y share it (the kernel
    constant cancels in differences): the free effective resistance,
    reported as "free-fallback". Otherwise additive constants blow the
    supremum up and the value is +inf ("recurrent-section").
    """
    xi, yi = s.index_of(x), s.index_of(y)
    if xi == yi:
        raise SameVertex(f"gamma needs two distinct vertices, got {x!r} twice")
    value, regime = _gamma_squared(s, xi, yi, rel_tol)
    return GammaValue(float(np.sqrt(value)), regime)


def gamma_o(s: Section, o, x, y, rel_tol: float = 1e-10) -> float:
    """Metric of the norm energy(f) + f(o)^2; finite on connected sections.

    A masked pin adds nothing (admissible functions already vanish
    there), so the value coincides with gamma; a pin on a grounded
    component is a rank-one update of that component's operator. On an
    ungrounded component (which then holds x, y and o) subtracting the
    constant f(o) leaves energy and differences alone, so the value is
    the free effective resistance; +inf never arises.
    """
    xi, yi, oi = s.index_of(x), s.index_of(y), s.index_of(o)
    if xi == yi:
        raise SameVertex(f"gamma_o needs two distinct vertices, got {x!r} twice")
    full = s.full_components
    if not (full[xi] == full[yi] == full[oi]):
        raise DisconnectedPair("x, y and o must share a connected component")
    return float(np.sqrt(_gamma_squared(s, xi, yi, rel_tol, pin=oi)[0]))


def free_resistance(s: Section, x, y, rel_tol: float = 1e-10) -> float:
    """Effective resistance between x and y with the mask ignored.

    With a killing term on the component the quadratic form is definite
    and the dual form applies directly; otherwise the component is
    grounded at its lowest vertex, which realizes the pseudo-inverse
    value exactly.
    """
    xi, yi = s.index_of(x), s.index_of(y)
    if xi == yi:
        raise SameVertex(f"resistance needs two distinct vertices, got {x!r} twice")
    full = s.full_components
    if full[xi] != full[yi]:
        raise DisconnectedPair(f"{x!r} and {y!r} lie in different components")
    return _resistance(s, xi, yi, rel_tol)


# ---------------------------------------------------------------------------
# uniform transience


@dataclass(frozen=True)
class UTReport:
    verdict: str  # "certified-UT" | "heuristic-UT" | "refuted" | "inconclusive"
    inf_cap_estimate: float
    C: float
    gamma_diameter_bound: float
    evidence: str  # "transitivity" | "spectral-gap" | "window-scan"
    window_inf_cap: float
    details: dict


def default_gap_levels(gen: ExhaustionGenerator) -> tuple:
    # deep enough that a genuine positive gap has stopped drifting, while a
    # vanishing one (lattice without killing) still drops >10% per step
    if gen.family.startswith("tree"):
        degree = dict(gen.params).get("k")
        if degree is None:
            return (10, 12, 14)
        # the deepest even depth up to 14 whose full level fits the vertex
        # cap (k=3: 14, k=4: 12); if not even depth 6 fits, building it
        # raises SizeOverflow
        deepest = next((D for D in range(14, 4, -2) if tree_depth_fits(degree, D)), 6)
        return (deepest - 4, deepest - 2, deepest)
    if gen.family.startswith("lattice"):
        return (6, 9, 12)
    return (2, 3, 4)


def _caps(s: Section, xs, rel_tol: float) -> list:
    """cap(x) on s for every x in xs, from one solve per interior component:
    its columns run CG on the operator's first call, so no sparse factor is
    built for a handful of vertices that CG answers."""
    return [e.cap for e in _equilibria(s, xs, rel_tol)]


def _window_scan(gen: ExhaustionGenerator, window_level: int, rel_tol: float):
    """Scan levels, one window interior label per orbit (the first in
    window order), and one column of capacities per scan level, aligned
    with those labels.

    Automorphisms fixing the origin map every level onto itself, so each
    window vertex has the capacity of its orbit's label at every level.
    """
    window = gen.section(window_level)
    scan_levels = (window_level, 2 * window_level, 4 * window_level)
    first = {}  # orbit label -> the first window label in that orbit
    for v in window.interior:
        x = window.labels[v]
        first.setdefault(gen.orbit_label(x), x)
    reps = list(first.values())
    # the window serves the first scan level, and is released before the
    # next one builds; each deeper level is built once for all of reps
    columns = [_caps(window, reps, rel_tol)]
    del window
    if reps:
        columns += [_caps(gen.section(lev), reps, rel_tol) for lev in scan_levels[1:]]
    return scan_levels, reps, columns


def uniform_transience_report(
    gen: ExhaustionGenerator,
    window_level: int = 2,
    tol: float = 1e-3,
    profile_levels=None,
    gap_levels=None,
    rel_tol: float = 1e-10,
) -> UTReport:
    """Decide whether the exhausted graph looks uniformly transient.

    Certification routes, in order: (a) a vertex-transitive family whose
    anchor is transient has one capacity orbit, so inf cap equals the
    anchor's limit; (b) a Dirichlet spectral bottom that stabilizes at a
    positive value together with inf m > 0 bounds every capacity below by
    delta * lambda0. A recurrent classification refutes uniform
    transience. Otherwise a finite window scan of per-vertex capacity
    estimates gives a heuristic answer only.

    The window scan builds each of its three levels once, and solves,
    checks and fits one window vertex per orbit there. The profile and
    the gap scan solve on orbit sections (see ExhaustionGenerator.orbits).
    """
    if window_level < 1:
        raise InvalidParameter("window level must be >= 1")
    scan_levels, _, columns = _window_scan(gen, window_level, rel_tol)
    estimates = []  # one per orbit of window vertices
    for values in zip(*columns):
        _check_monotone(scan_levels, values)
        ex = _fit_extrapolation(scan_levels, values)
        estimates.append(ex.limit if ex.model == "plateau" else values[-1])
    window_inf = float(min(estimates)) if estimates else math.nan

    cls = classify_transience(gen, None, tol=tol, levels=profile_levels, rel_tol=rel_tol)
    details: dict = {
        "transience": cls.verdict,
        "transience_reason": cls.reason,
        "profile_model": cls.profile.extrapolation.model,
        "profile_limit": cls.profile.extrapolation.limit,
        "window_level": window_level,
        "window_scan_levels": list(scan_levels),
    }

    verdict = evidence = None
    inf_cap = window_inf
    if gen.is_vertex_transitive and cls.verdict == "transient":
        ex = cls.profile.extrapolation
        inf_cap = ex.limit if ex.model == "plateau" else cls.profile.values[-1]
        verdict, evidence = "certified-UT", "transitivity"
    else:
        from .spectral import pencil_bottom  # spectral imports this module

        glv = _check_levels(gap_levels if gap_levels is not None else default_gap_levels(gen))
        # the Dirichlet ground state of a connected interior is simple and
        # positive, so constant on orbits: the orbit pencil has the same bottom
        lams = [pencil_bottom(gen.orbits(lv).section) for lv in glv[:-1]]
        deepest, size = gen.orbits(glv[-1])
        lams.append(pencil_bottom(deepest))
        inter = deepest.interior
        delta = float(np.min(deepest.m[inter] / size[inter]))  # per vertex, not per orbit
        stabilized = (
            len(lams) >= 2
            and lams[-1] > tol
            and lams[-2] - lams[-1] <= 0.1 * lams[-1]
            and all(b <= a * 1.001 for a, b in zip(lams, lams[1:]))
        )
        details["gap_levels"] = list(glv)
        details["gap_lambdas"] = [float(v) for v in lams]
        details["gap_delta"] = delta
        if stabilized and delta > 0:
            inf_cap = delta * lams[-1]
            verdict, evidence = "certified-UT", "spectral-gap"
        elif cls.verdict == "recurrent":
            verdict, evidence = "refuted", "window-scan"
        elif window_inf > tol:
            verdict, evidence = "heuristic-UT", "window-scan"
        else:
            verdict, evidence = "inconclusive", "window-scan"

    C = math.inf if inf_cap <= 0 else inf_cap**-0.5
    return UTReport(
        verdict=verdict,
        inf_cap_estimate=float(inf_cap),
        C=C,
        gamma_diameter_bound=2 * C,
        evidence=evidence,
        window_inf_cap=window_inf,
        details=details,
    )
