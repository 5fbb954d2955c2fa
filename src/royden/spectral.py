"""Dirichlet pencil, spectra, heat semigroup and the capacity-eigenvalue link.

The quadratic form restricted to interior-supported functions has matrix
A (weighted degrees plus killing on the diagonal, minus the weights);
together with the diagonal mass matrix M = diag(m) it forms the pencil
A v = lambda M v. Everything else here is spectral calculus on that
pencil: its bottom, the heat semigroup exp(-t M^(-1) A), its trace, and
two checks that tie the spectrum to capacities. The dense route solves
the pencil per block of Section.sectors (one reflection sector of one
orbit of interior components) and merges the block spectra; trees and
sections without integer coordinate labels have one sector. The checks:

  * a spectral gap lambda0 > 0 with delta = min m > 0 bounds every
    capacity below by delta * lambda0;
  * the sup-norm constant C = (min cap)^(-1/2) bounds the n-th
    eigenvalue below by 1 / (C^2 * m(remaining vertices)) once n
    vertices are struck from the section, and makes the semigroup
    ultracontractive with constant C (2 e t)^(-1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, eigsh

from .energy import energy, energy_matrix
from .errors import (
    DimensionCap,
    EmptyInterior,
    InvalidParameter,
    NegativeTime,
    NoConvergence,
)
from .graph import Section, VertexFn, check_bound
from .numerics import DENSE_CAP, dense_eigh
from .potential import sup_norm_constant

DENSE_SHORTCUT = 512  # below this size the dense path beats Lanczos outright


@dataclass(frozen=True)
class SpectralResult:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray | None  # columns, M-orthonormal, rows follow interior
    interior: np.ndarray
    section: Section
    measure_total: float
    method: str  # "dense" | "lanczos"

    def eigenfunction(self, i: int) -> VertexFn:
        if self.eigenvectors is None:
            raise InvalidParameter("eigenvectors were not computed (vectors=False)")
        values = np.zeros(self.section.n)
        values[self.interior] = self.eigenvectors[:, i]
        return VertexFn(self.section, values)


def spectrum(s: Section, k: int | None = None, vectors: bool = True) -> SpectralResult:
    """Eigenvalues of the Dirichlet pencil, ascending.

    This is the one dispatch between the dense and the Lanczos route.
    Without k the full dense solve runs, one dense_eigh per block of
    s.sectors (one reflection sector of one orbit of interior
    components), merged in ascending order; the eigenvectors are Q times
    each block's, M-orthonormal since m is constant on orbits. With k,
    the dense solve runs when the interior has at most DENSE_SHORTCUT
    vertices or k >= interior size - 1, and returns the k smallest pairs;
    whenever it is chosen for an interior above DENSE_CAP, DimensionCap
    is raised.
    Otherwise a shift-invert Lanczos run at sigma = 0 from a seeded random
    start finds them (an ARPACK failure raises NoConvergence), which
    needs every interior component grounded (else UngroundedComponent).
    With vectors=False neither route computes eigenvectors, and the
    result's eigenvectors is None.
    """
    inter = s.interior
    ni = len(inter)
    if ni == 0:
        raise EmptyInterior("every vertex is masked")
    A = energy_matrix(s, inter)
    mass = s.m[inter]
    total = float(np.sum(mass))

    if k is not None:
        if not 1 <= k <= ni:
            raise InvalidParameter(f"k must be in 1..{ni}, got {k}")
    dense_wanted = k is None or ni <= DENSE_SHORTCUT or k >= ni - 1
    if dense_wanted:
        if ni > DENSE_CAP:
            raise DimensionCap(
                f"dense spectrum of size {ni} above cap {DENSE_CAP}; "
                f"pass k < {ni - 1} for a partial solve"
            )
        # one block per sector and orbit of components; m is constant on
        # orbits, so each basis column carries the mass of its first row
        Q, bounds = s.sectors
        column_mass = mass[Q.indices[Q.indptr[:-1]]]
        sols = [
            dense_eigh(block, column_mass[a:b], vectors=vectors)
            for block, a, b in zip(s.sectors.blocks(A.matrix), bounds[:-1], bounds[1:])
        ]
        merged = np.concatenate([sol.eigenvalues for sol in sols])
        order = np.argsort(merged, kind="stable")[:k]
        w, V = merged[order], None
        if vectors:
            # the stable sort keeps a prefix of each block's ascending
            # spectrum; those columns go through Q one at a time, and each
            # block's vectors are let go once placed
            V = np.empty((ni, len(order)), order="F")
            dest = np.empty(len(merged), dtype=np.intp)  # column of V per kept vector
            dest[order] = np.arange(len(order))
            wanted = np.diff(np.searchsorted(np.sort(order), bounds))
            for e, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
                Qe, Ve = Q[:, a:b], sols[e].eigenvectors
                sols[e] = None
                for j in range(wanted[e]):
                    V[:, dest[a + j]] = Qe @ Ve[:, j]
        return SpectralResult(
            eigenvalues=w,
            eigenvectors=V,
            interior=inter,
            section=s,
            measure_total=total,
            method="dense",
        )
    s.ensure_grounded()  # the shift-invert factorization at 0 needs it
    # seeded random start: every automorphism fixes a constant vector, whose
    # Krylov space misses the eigenvalues with non-symmetric eigenvectors
    v0 = np.random.default_rng(0).standard_normal(ni)
    # the run sees A scaled by a power of two to a largest diagonal entry
    # in [0.5, 1), which is exact: with entries near the float range the
    # shift-invert iterate A^(-1) v would underflow to the zero vector
    shift = math.frexp(float(np.max(A.diagonal())))[1]
    try:
        out = eigsh(
            A.matrix * math.ldexp(1.0, -shift), k=k, M=sp.diags(mass).tocsc(), sigma=0, v0=v0,
            return_eigenvectors=vectors,
        )
    except ArpackError as failure:  # ArpackNoConvergence included
        raise NoConvergence(f"Lanczos run for {k} eigenvalues failed: {failure}") from None
    w, V = out if vectors else (out, None)
    w = np.ldexp(w, shift)
    order = np.argsort(w)
    return SpectralResult(
        eigenvalues=w[order],
        eigenvectors=None if V is None else V[:, order],
        interior=inter,
        section=s,
        measure_total=total,
        method="lanczos",
    )


def pencil_bottom(s: Section) -> float:
    """lambda0: exactly 0.0 when some interior component is ungrounded,
    else the smallest eigenvalue spectrum(s, k=1) finds, without vectors."""
    if not s.grounded.all():
        return 0.0
    return float(spectrum(s, k=1, vectors=False).eigenvalues[0])


# ---------------------------------------------------------------------------
# capacity -> eigenvalue bounds


@dataclass(frozen=True)
class BoundRow:
    n: int
    removed_vertex: int | None
    remaining_mass: float
    bound: float
    eigenvalue: float
    slack: float


@dataclass(frozen=True, eq=False)
class EigenvalueBoundsReport:
    """One entry per removal count n = 0 .. interior size - 1, held as
    arrays; rows and enumeration rebuild the per-row view on each read."""

    order: np.ndarray  # interior vertex indices in removal order
    remaining_mass: np.ndarray  # m(X minus the first n removed vertices)
    bound: np.ndarray  # 1 / (C^2 remaining_mass)
    eigenvalue: np.ndarray  # lambda_(n+1)
    passed: bool
    C: float
    min_cap: float

    @property
    def rows(self) -> tuple:
        removed = [None] + self.order[:-1].tolist()
        columns = (self.remaining_mass.tolist(), self.bound.tolist(), self.eigenvalue.tolist())
        return tuple(
            BoundRow(n, v, rm, b, lam, lam - b)
            for n, (v, rm, b, lam) in enumerate(zip(removed, *columns))
        )

    @property
    def enumeration(self) -> tuple:
        return tuple(self.order.tolist())


def eigenvalue_bounds_check(
    s: Section, enumeration="measure-decreasing", rel_tol: float = 1e-10
) -> EigenvalueBoundsReport:
    """Check 1/(C^2 m(X minus first n vertices)) <= lambda_(n+1) for all n.

    enumeration is either "measure-decreasing" (greedy removal of heavy
    vertices first, the order that sharpens the bound fastest) or an
    explicit permutation of the interior vertices. Only the eigenvalues
    are computed.
    """
    spec = spectrum(s, vectors=False)
    inter = spec.interior
    order_pos = _resolve_enumeration(s, inter, enumeration)
    masses = s.m[inter][order_pos]

    const = sup_norm_constant(s, rel_tol=rel_tol)
    C2 = const.C**2

    # remaining mass before each removal: the sum of the masses not yet
    # removed, added from the last removed up, so light masses removed
    # late are never lost against heavy ones subtracted from a total
    remaining = np.cumsum(masses[::-1])[::-1]
    bound = 1.0 / (C2 * remaining)
    lam = spec.eigenvalues
    slack = lam - bound
    passed = not bool(np.any(slack < -1e-9 * np.maximum(1.0, np.abs(lam))))
    return EigenvalueBoundsReport(
        order=inter[order_pos],
        remaining_mass=remaining,
        bound=bound,
        eigenvalue=lam,
        passed=passed,
        C=const.C,
        min_cap=const.min_cap,
    )


def _resolve_enumeration(s: Section, inter: np.ndarray, enumeration) -> np.ndarray:
    if isinstance(enumeration, str):
        if enumeration != "measure-decreasing":
            raise InvalidParameter(f"unknown enumeration {enumeration!r}")
        return np.argsort(-s.m[inter], kind="stable")
    order = [s.index_of(v) for v in enumeration]
    if sorted(order) != sorted(int(v) for v in inter):
        raise InvalidParameter("enumeration must be a permutation of the interior vertices")
    pos_of = {int(v): i for i, v in enumerate(inter)}
    return np.array([pos_of[v] for v in order], dtype=int)


# ---------------------------------------------------------------------------
# heat semigroup


def _full_spectrum(s: Section, spec: SpectralResult | None) -> SpectralResult:
    """spec, checked to be the full spectrum of s with vectors, or that spectrum."""
    if spec is None:
        return spectrum(s)
    full = spec.section is s and len(spec.eigenvalues) == len(spec.interior)
    if not full or spec.eigenvectors is None:
        raise InvalidParameter("spec must be the full spectrum of the section, with vectors")
    return spec


def heat_apply(s: Section, t: float, f: VertexFn, spec: SpectralResult | None = None) -> VertexFn:
    """exp(-t L) f through the dense eigendecomposition, L = M^(-1) A.

    The semigroup acts on interior values; the result vanishes on the
    mask. t = 0 returns f unchanged. spec is spectrum(s) when the caller
    already has it.
    """
    check_bound(s, f)
    if t < 0:
        raise NegativeTime(f"t must be >= 0, got {t}")
    if t == 0:
        return VertexFn(s, f.values.copy())
    spec = _full_spectrum(s, spec)
    inter = spec.interior
    coeff = spec.eigenvectors.T @ (s.m[inter] * f.values[inter])
    out = np.zeros(s.n)
    out[inter] = spec.eigenvectors @ (np.exp(-t * spec.eigenvalues) * coeff)
    return VertexFn(s, out)


def heat_trace(s: Section, t):
    """Sum of exp(-t lambda_i) over the Dirichlet spectrum, or the list of
    sums over a sequence of times from one eigensolve; a negative time
    raises NegativeTime, naming the first, before any eigensolve."""
    times = np.ravel(t)
    if (times < 0).any():
        raise NegativeTime(f"t must be >= 0, got {times[times < 0][0]}")
    w = spectrum(s, vectors=False).eigenvalues
    traces = [float(np.sum(np.exp(-u * w))) for u in times]
    return traces if np.ndim(t) else traces[0]


@dataclass(frozen=True)
class UltracontractivityReport:
    t: float
    C: float
    prefactor: float  # C * (2 e t)^(-1/2)
    max_ratio: float
    passed: bool
    trials: int
    seed: int


def ultracontractivity_check(
    s: Section,
    t: float,
    trials: int = 50,
    seed: int = 0,
    rel_tol: float = 1e-10,
    spec: SpectralResult | None = None,
) -> UltracontractivityReport:
    """Verify ||exp(-t L) f||_inf <= C (2 e t)^(-1/2) ||f||_M on random f.

    C is the sup-norm constant of the section; the prefactor comes from
    sup_lambda lambda exp(-2 t lambda) = 1/(2 e t). spec is spectrum(s)
    when the caller already has it.
    """
    if t < 0:
        raise NegativeTime(f"t must be >= 0, got {t}")
    if t == 0:
        raise InvalidParameter("the bound degenerates at t = 0; use t > 0")
    if trials < 1:
        raise InvalidParameter("trials must be >= 1")
    spec = _full_spectrum(s, spec)
    inter = spec.interior
    mass = s.m[inter]
    const = sup_norm_constant(s, rel_tol=rel_tol)
    prefactor = const.C / math.sqrt(2.0 * math.e * t)
    decay = np.exp(-t * spec.eigenvalues)
    # the trials as the columns of a draw (the same values as one draw per
    # trial), heated by two matrix products; at most n trials at a time, so
    # a draw never outgrows the eigenvectors
    V = spec.eigenvectors
    n = len(inter)
    rng = np.random.default_rng(seed)
    max_ratio = 0.0
    for done in range(0, trials, n):
        F = rng.standard_normal((min(n, trials - done), n)).T
        norm_m = np.sqrt(mass @ (F * F))
        heated = V @ (decay[:, None] * (V.T @ (mass[:, None] * F)))
        drawn = norm_m > 0.0
        ratios = np.max(np.abs(heated[:, drawn]), axis=0) / (prefactor * norm_m[drawn])
        max_ratio = max(max_ratio, float(np.max(ratios, initial=0.0)))
    return UltracontractivityReport(
        t=t,
        C=const.C,
        prefactor=prefactor,
        max_ratio=max_ratio,
        passed=bool(max_ratio <= 1.0 + 1e-9),
        trials=trials,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# spectral gap criterion


@dataclass(frozen=True)
class SpectralGapReport:
    applicable: bool
    lambda0: float
    delta: float  # min interior mass
    sup_bound_constant: float  # 1/(delta * lambda0), for ||f||_inf^2 <= const * energy
    cap_lower_bound: float  # delta * lambda0
    verified: bool
    max_ratio: float
    trials: int
    seed: int


def spectral_gap_criterion(s: Section, trials: int = 32, seed: int = 0) -> SpectralGapReport:
    """Certify ||f||_inf^2 <= (delta lambda0)^(-1) energy(f) from a gap.

    Needs lambda0 > 0 (automatic with a mask or killing term; a section
    with an interior component that has neither has lambda0 = 0 exactly
    and the criterion does not apply) and delta = min interior m > 0.
    Exports the capacity bound cap(x) >= delta * lambda0 for every
    interior x.
    """
    if trials < 1:
        raise InvalidParameter("trials must be >= 1")
    lam0 = pencil_bottom(s)
    inter = s.interior
    delta = float(np.min(s.m[inter]))
    scale = float(np.max(s.weighted_degree + s.c, initial=1.0))
    applicable = lam0 > 1e-10 * max(scale, 1.0) and delta > 0
    if not applicable:
        return SpectralGapReport(
            applicable=False,
            lambda0=lam0,
            delta=delta,
            sup_bound_constant=math.inf,
            cap_lower_bound=0.0,
            verified=False,
            max_ratio=math.nan,
            trials=trials,
            seed=seed,
        )
    const = 1.0 / (delta * lam0)
    rng = np.random.default_rng(seed)
    max_ratio = 0.0
    for _ in range(trials):
        vec = np.zeros(s.n)
        vec[inter] = rng.standard_normal(len(inter))
        f = VertexFn(s, vec)
        q = energy(s, f).value
        if q == 0.0:
            continue
        ratio = f.sup_norm**2 / (const * q)
        max_ratio = max(max_ratio, ratio)
    return SpectralGapReport(
        applicable=True,
        lambda0=lam0,
        delta=delta,
        sup_bound_constant=const,
        cap_lower_bound=delta * lam0,
        verified=bool(max_ratio <= 1.0 + 1e-9),
        max_ratio=max_ratio,
        trials=trials,
        seed=seed,
    )
