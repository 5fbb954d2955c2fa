"""Deterministic linear algebra kernels.

SymOperator.solve is the one solve against a grounded energy operator.
An operator's first solve runs conjugate gradients with diagonal
preconditioning on the Schur complement of its red-black split: the
rows of colour 1 that touch no other row of colour 1 are eliminated
exactly, CG runs on the rest, and the eliminated unknowns are recovered
from its answer. On the bipartite lattices, trees and orbit sections
that is half the rows, and CG takes half the iterations over the same
nonzeros (Reid 1972; Hageman & Young 1981); without a colour nothing is
eliminated and CG runs on the operator itself. CG reports its iteration
count and final residual. From the second solve on, or as soon as CG
stalls or runs out of iterations, a SuperLU factor answers; it is built
once, on first need, and kept with the operator, when the operator's
reverse Cuthill-McKee envelope (an estimate of the factor's fill) is at
most DIRECT_CAP entries. An operator built from parts (energy_matrix
builds every one that way) forms its CSR only for the factor, apply or
a dense copy, and its red-black blocks only for CG. Every answer, on
either route, is accepted only when its true residual over all rows
meets the relative tolerance. solve_rank_one adds a pin e_o e_o^T by a
Sherman-Morrison update, two solves against the held operator. Interior
capacities need the diagonal of an operator's inverse: up to DENSE_CAP
unknowns dense Cholesky (LAPACK dpotrf and dpotri, in place on one dense
copy) gives it, above it one solve per unit vector against the held
operator, so its one factor answers all but the first. Dense eigensolves
reduce the pencil (A, M) with diagonal M to an ordinary symmetric
problem through the M^(-1/2) similarity; LAPACK reads one triangle of
that copy, so it is never symmetrized.

dense_eigh and inverse_diagonal are the only dense kernels, and callers
hand them one block at a time. reflection_sectors turns commuting
involutions (Section.reflections: the coordinate reflections a
section's labels name, each kept only when it is an exact automorphism
of the weights, c, m and the mask) into sparse orthonormal bases Q_e of
signed orbit indicators, one per sign character e; an operator the
involutions preserve is the orthogonal sum of its blocks Q_e^T A Q_e
(Fassler & Stiefel, Group Theoretical Methods and Their Applications,
1992), which Sectors.blocks yields as sparse matrices. Section.sectors
splits the sectors by orbit of interior components. Trees, orbit
sections and graphs without integer coordinate labels have no
reflection: their one sector is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import lapack

from .errors import DimensionCap, InvalidParameter, NoConvergence, SingularOperator

DENSE_CAP = 4000
# envelope entries of the largest operator the direct route factors:
# about 1 s to factor on a 2-vCPU machine (Z^3 r=15 interior, 11.4 M
# entries, 0.86 s; a random 4-regular graph on 8,000 vertices, 13.1 M,
# 1.05 s); on those the factor held fewer entries than the envelope
DIRECT_CAP = 12_000_000
# CG stalls when its smallest residual has not fallen to STALL_DROP of its
# value STALL_WINDOW of the iteration budget earlier. Chosen from residual
# traces of CG on the red-black Schur complement: over a fifth of the
# budget the best residual of every converging solve fell below 0.06 of
# its value (the solves of the benchmark's exhaust, cli and sweep
# workloads, and Z^2 and Z^3 sections with weights up to 10^+-3), while
# on Z^2 sections at 10^+-6, which exhaust the budget, it stayed above
# 0.28, so they stall after a fifth of it. Over a tenth, converging
# solves at 10^+-3 kept up to 0.55 and would have stalled
STALL_WINDOW = 0.2
STALL_DROP = 0.25


class SymOperator:
    """A symmetric positive semidefinite operator A.

    It is given as a sparse matrix, or, with diagonal given, as the
    matrix of its off-diagonal part: A = diag(diagonal) + matrix. The CSR
    of that sum is built on first need (apply, dense, .matrix, the
    factor), and the red-black split CG runs on (see _Split) on the first
    CG, so an operator only ever solved by CG never forms it. colour
    optionally marks each row 0 or 1; rows of colour 1 are the ones CG
    may eliminate. apply() uses scipy's fixed-order matvec, so repeated
    runs are bit-identical on the same inputs. solve() answers A x = rhs
    for a grounded (positive definite) operator and keeps the sparse
    factor it builds, so an operator held by its caller is factored at
    most once.
    """

    def __init__(self, matrix: sp.spmatrix, colour=None, diagonal=None):
        self._rows = sp.csr_matrix(matrix)
        n = self._rows.shape[0]
        if self._rows.shape[1] != n:
            raise InvalidParameter("operator matrix must be square")
        if diagonal is None:
            self._matrix, self._diag = self._rows, self._rows.diagonal()
        else:
            self._matrix, self._diag = None, np.asarray(diagonal, dtype=float)
        self._colour = None if colour is None else np.asarray(colour)
        for part in (self._diag, self._colour):
            if part is not None and part.shape != (n,):
                raise InvalidParameter(f"operator parts must have {n} entries")
        self._split = None
        self._solves = 0
        self._lu = None  # the SuperLU factor; False once it cannot be built

    @property
    def dimension(self) -> int:
        return self._rows.shape[0]

    @property
    def matrix(self) -> sp.csr_matrix:
        if self._matrix is None:
            self._matrix = (self._rows + sp.diags(self._diag)).tocsr()
        return self._matrix

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix.dot(x)

    def diagonal(self) -> np.ndarray:
        return self._diag

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def red_black(self) -> _Split:
        """The red-black split of this operator, built on first call."""
        if self._split is None:
            self._split = _Split.of(self._rows, self._diag, self._colour)
        return self._split

    def solve(self, rhs: np.ndarray, rel_tol: float = 1e-10) -> CGResult:
        """Solve A x = rhs, choosing the route.

        rhs is one vector, or an (n, k) array of k right-hand sides: then
        x has k columns, iterations sums theirs and residual is the
        largest. On the operator's first call each right-hand side runs
        CG until a factor exists: CG hands over to the factor once it
        stalls (see cg_solve) or runs out of iterations, the result then
        carrying the CG iterations spent, and the columns after it use
        that factor. Later calls use the factor first. A factor answer
        that misses rel_tol gives way to CG with its whole budget, which
        still stops early once a refused true residual is not below 0.5
        of the one refused before it (see cg_solve); when neither route
        meets rel_tol, CG's NoConvergence is raised.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self.dimension:
            raise InvalidParameter(
                f"rhs has shape {rhs.shape}, expected ({self.dimension},) or ({self.dimension}, k)"
            )
        first = self._solves == 0
        self._solves += 1
        if rhs.ndim == 1:
            return self._solve(rhs, rel_tol, first)
        got = [self._solve(b, rel_tol, first and self._lu is None) for b in rhs.T]
        return CGResult(
            np.column_stack([g.x for g in got]) if got else np.zeros(rhs.shape),
            sum(g.iterations for g in got),
            max((g.residual for g in got), default=0.0),
        )

    def _solve(self, rhs: np.ndarray, rel_tol: float, first: bool) -> CGResult:
        if not first:
            got = self._direct(rhs, rel_tol)
            return got if got is not None else cg_solve(self, rhs, rel_tol=rel_tol)
        try:
            return cg_solve(self, rhs, rel_tol=rel_tol, stall_exit=self._factorable)
        except NoConvergence as failure:
            got = self._direct(rhs, rel_tol, failure.iterations)
            if got is not None:
                return got
            if failure.iterations == default_max_iter(self.dimension):
                raise
            return cg_solve(self, rhs, rel_tol=rel_tol)  # stalled, and the factor missed

    def _factorable(self) -> bool:
        return self._factor() is not None

    def _factor(self):
        """The SuperLU factor, built on first call; None when it cannot be.

        It is refused above DIRECT_CAP envelope entries, and when SuperLU
        finds the matrix singular or a pivot is not positive (with
        symmetric diagonal pivots that means the matrix is not positive
        definite).
        """
        if self._lu is None:
            self._lu = False
            if _envelope(self.matrix) <= DIRECT_CAP:
                from scipy.sparse.linalg import splu

                try:
                    lu = splu(
                        self.matrix.tocsc(),
                        permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True},
                    )
                except RuntimeError:  # exactly singular
                    return None
                if np.array_equal(lu.perm_r, lu.perm_c) and (lu.U.diagonal() > 0).all():
                    self._lu = lu
        return self._lu if self._lu is not False else None

    def _direct(self, rhs: np.ndarray, rel_tol: float, iterations: int = 0) -> CGResult | None:
        """The factor's answer, or None when there is no factor or its
        true residual misses rel_tol. Like cg_solve it works on rhs
        scaled by a power of two, so the residual norm neither underflows
        nor overflows."""
        lu = self._factor()
        if lu is None:
            return None
        shift = math.frexp(float(np.max(np.abs(rhs), initial=0.0)))[1]
        b = np.ldexp(rhs, -shift)
        x = lu.solve(b)
        residual = float(np.linalg.norm(b - self.apply(x)))
        if not residual <= rel_tol * float(np.linalg.norm(b)):
            return None
        return CGResult(np.ldexp(x, shift), iterations, math.ldexp(residual, shift))


def _block(rows: np.ndarray, cols: np.ndarray, data: np.ndarray, shape, dtype) -> sp.csr_matrix:
    """CSR matrix of entries given in row order, indices kept in dtype:
    scipy takes that without scanning them."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=shape[0]))])
    return sp.csr_matrix((data, cols.astype(dtype), indptr.astype(dtype)), shape=shape)


class _Split(NamedTuple):
    """The red-black split of a symmetric A (Reid 1972; Hageman & Young,
    Applied Iterative Methods, 1981, ch. 8-9).

    The black rows B are the rows of colour 1 with a positive diagonal
    and no off-diagonal entry in a column of colour 1, so A_BB is the
    diagonal D_B; the others are red, R. Eliminating x_B = D_B^(-1) (b_B -
    A_BR x_R) leaves the Schur complement S = A_RR - A_RB D_B^(-1) A_BR,
    with A_BR = A_RB^T. On a bipartite graph coloured by parity A_RR is
    diagonal too, and Jacobi-preconditioned CG on S takes half the
    iterations CG takes on A, over the same nonzeros. Without colour B is
    empty and S is A. A_BR is kept beside A_RB: a transposed view costs
    more to make than a small product.
    """

    red: np.ndarray  # row indices of R, ascending
    black: np.ndarray  # row indices of B, ascending
    d_red: np.ndarray  # diagonal of A on R
    d_black: np.ndarray  # D_B
    off_red: sp.csr_matrix | None  # off-diagonal part of A_RR; None when it is empty
    a_rb: sp.csr_matrix
    a_br: sp.csr_matrix

    @classmethod
    def of(cls, rows: sp.csr_matrix, diag: np.ndarray, colour) -> _Split:
        """The split of A, given as the CSR rows (its off-diagonal entries
        are read, diagonal entries skipped) and its diagonal."""
        n = len(diag)
        row = np.repeat(np.arange(n), np.diff(rows.indptr))
        col = rows.indices
        off = col != row
        black = np.zeros(n, dtype=bool)
        if colour is not None:
            odd = colour == 1
            touched = np.bincount(row[off & odd[col]], minlength=n) > 0
            black = odd & ~touched & (diag > 0)
        red, blk = np.flatnonzero(~black), np.flatnonzero(black)
        pos = np.empty(n, dtype=np.intp)
        pos[red] = np.arange(len(red))
        pos[blk] = np.arange(len(blk))
        from_red = off & ~black[row]
        rr, rb, br = from_red & ~black[col], from_red & black[col], off & black[row]
        dtype = rows.indices.dtype
        return cls(
            red=red,
            black=blk,
            d_red=diag[red],
            d_black=diag[blk],
            off_red=_block(pos[row[rr]], pos[col[rr]], rows.data[rr], (len(red),) * 2, dtype)
            if rr.any() else None,
            a_rb=_block(pos[row[rb]], pos[col[rb]], rows.data[rb], (len(red), len(blk)), dtype),
            a_br=_block(pos[row[br]], pos[col[br]], rows.data[br], (len(blk), len(red)), dtype),
        )

    def schur(self, p: np.ndarray) -> np.ndarray:
        """S p."""
        out = self.d_red * p
        if self.off_red is not None:
            out += self.off_red @ p
        if len(self.black):
            out -= self.a_rb @ ((self.a_br @ p) / self.d_black)
        return out

    def recover(self, b: np.ndarray, x_red: np.ndarray):
        """x on every row from x_R, with the true residual b - A x on the
        red rows and its norm over all rows."""
        b_black = b[self.black]
        x = np.empty(len(b))
        x[self.red] = x_red
        x[self.black] = x_black = (b_black - self.a_br @ x_red) / self.d_black
        r_red = b[self.red] - self.d_red * x_red - self.a_rb @ x_black
        if self.off_red is not None:
            r_red -= self.off_red @ x_red
        r_black = b_black - self.a_br @ x_red - self.d_black * x_black
        return x, r_red, math.hypot(float(np.linalg.norm(r_red)), float(np.linalg.norm(r_black)))


def _envelope(a: sp.csr_matrix) -> int:
    """Entries of the lower envelope of a, diagonal included, in reverse
    Cuthill-McKee order: a factor's fill estimated in O(nnz)."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    n = a.shape[0]
    p = reverse_cuthill_mckee(a, symmetric_mode=True)
    b = a[p][:, p].tocoo()
    first = np.arange(n)
    np.minimum.at(first, b.row, b.col)
    return int(np.sum(np.arange(n) - first)) + n


@dataclass(frozen=True)
class CGResult:
    x: np.ndarray
    iterations: int
    residual: float


def default_max_iter(dimension: int) -> int:
    return int(20 * math.isqrt(max(dimension, 1)) + 200)


def cg_solve(
    A: SymOperator,
    rhs: np.ndarray,
    rel_tol: float = 1e-10,
    stall_exit: Callable[[], bool] | None = None,
) -> CGResult:
    """Solve A x = rhs by preconditioned conjugate gradients.

    CG runs on the Schur complement S of A's red-black split (see
    _Split), preconditioned by A's diagonal on the red rows, and x on
    the black rows is recovered from the red ones; iterations counts
    CG's steps on S. Convergence means ||A x - rhs|| <= rel_tol * ||rhs||
    in the Euclidean norm over all rows, checked on the true residual,
    not the recurrence; when the recurrence meets the target and the
    true residual does not, CG goes on with the true residual in its
    place. Raises NoConvergence past default_max_iter(n) iterations,
    once r^T z is 0, once the curvature p^T S p underflows to 0 (it is
    positive with p scaled by a power of two), and once a refused true
    residual is not below 0.5 of the one refused before it (the rounding
    floor lies above the target); raises SingularOperator when the
    curvature is truly <= 0. The iteration runs on rhs scaled by a power
    of two to a peak in [0.5, 1), which is exact, so tiny or huge data
    cannot underflow or overflow in its inner products.

    With stall_exit given, CG may also stop early: once its smallest
    residual so far has not fallen to STALL_DROP of what it was a
    STALL_WINDOW share of the budget earlier, stall_exit() is asked (the
    first time only), and if it says True, NoConvergence is raised with
    the iterations spent. A caller with another route hands over there.
    """
    n = A.dimension
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n,):
        raise InvalidParameter(f"rhs has shape {rhs.shape}, expected ({n},)")
    max_iter = default_max_iter(n)
    window = int(STALL_WINDOW * max_iter)

    peak = float(np.max(np.abs(rhs), initial=0.0))
    if peak == 0.0:
        return CGResult(x=np.zeros(n), iterations=0, residual=0.0)
    shift = math.frexp(peak)[1]
    rhs = np.ldexp(rhs, -shift)
    target = rel_tol * float(np.linalg.norm(rhs))

    if np.any(A.diagonal() < 0):
        raise SingularOperator("negative diagonal entry")
    split = A.red_black()
    # x_R = 0 with x_B recovered from it, and its true residual
    x, r, r_norm = split.recover(rhs, np.zeros(len(split.red)))
    if r_norm <= target:  # the right-hand side lives on rows that recovery answers
        return CGResult(np.ldexp(x, shift), 0, math.ldexp(r_norm, shift))
    diag = split.d_red
    # zero diagonal rows are acceptable only where rhs is zero
    dead = diag == 0
    if np.any(dead & (r != 0)):
        raise SingularOperator("zero diagonal row with nonzero right-hand side")
    inv_diag = np.where(dead, 0.0, 1.0 / np.where(dead, 1.0, diag))

    x_red = np.zeros(len(split.red))
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    lowest = [r_norm]  # lowest[k]: the smallest residual after k iterations
    missed = math.inf  # the true residual of the last answer refused

    for it in range(1, max_iter + 1):
        if rz == 0.0:  # r is not 0 here: r^T z underflowed (huge diagonal)
            r_norm = math.ldexp(r_norm, shift)
            raise NoConvergence(
                f"breakdown after {it - 1} iterations: r^T z is 0 (residual {r_norm:g})",
                iterations=it - 1,
                residual=r_norm,
            )
        Sp = split.schur(p)
        pSp = float(p @ Sp)
        if pSp <= 0.0:
            if pSp == 0.0 and _curvature_underflows(split.schur, p):
                r_norm = math.ldexp(r_norm, shift)
                raise NoConvergence(
                    f"breakdown after {it - 1} iterations: the curvature underflowed "
                    f"(residual {r_norm:g})",
                    iterations=it - 1,
                    residual=r_norm,
                )
            raise SingularOperator(
                f"curvature {pSp:g} along a search direction after {it - 1} iterations"
            )
        alpha = rz / pSp
        x_red += alpha * p
        r -= alpha * Sp
        r_norm = math.sqrt(float(r @ r))  # np.linalg.norm's own sum, without its overhead
        if r_norm <= target:
            # confirm on the true residual over all rows before accepting
            x, r, r_norm = split.recover(rhs, x_red)
            if r_norm <= target:
                return CGResult(np.ldexp(x, shift), it, math.ldexp(r_norm, shift))
            if r_norm > 0.5 * missed:
                # CG went on from the true residual and did not halve it:
                # its rounding floor lies above the target
                r_norm = math.ldexp(r_norm, shift)
                raise NoConvergence(
                    f"true residual stuck at {r_norm:g} after {it} iterations "
                    f"(target {math.ldexp(target, shift):g})",
                    iterations=it,
                    residual=r_norm,
                )
            missed = r_norm
        if stall_exit is not None:
            lowest.append(min(lowest[-1], r_norm))
            if 0 < window <= it and lowest[it] > STALL_DROP * lowest[it - window]:
                if stall_exit():
                    raise NoConvergence(
                        f"stalled after {it} iterations (residual "
                        f"{math.ldexp(r_norm, shift):g}, target {math.ldexp(target, shift):g})",
                        iterations=it,
                        residual=math.ldexp(r_norm, shift),
                    )
                stall_exit = None
        z = inv_diag * r
        rz_next = float(r @ z)
        p *= rz_next / rz
        p += z
        rz = rz_next

    r_norm, target = math.ldexp(r_norm, shift), math.ldexp(target, shift)
    raise NoConvergence(
        f"no convergence within {max_iter} iterations (residual {r_norm:g}, target {target:g})",
        iterations=max_iter,
        residual=r_norm,
    )


def _curvature_underflows(apply: Callable[[np.ndarray], np.ndarray], p: np.ndarray) -> bool:
    """True when p^T A p is positive once p is scaled by a power of two to
    a peak in [0.5, 1): a curvature of 0 was then an underflow (tiny p
    against a huge diagonal), not a null direction of A."""
    peak = float(np.max(np.abs(p), initial=0.0))
    if peak == 0.0:
        return False
    q = np.ldexp(p, -math.frexp(peak)[1])
    with np.errstate(over="ignore"):  # an overflow to inf is still positive
        return float(q @ apply(q)) > 0.0


def inverse_diagonal(a: np.ndarray) -> np.ndarray:
    """diag(a^(-1)) for the dense positive definite a, worked in a.

    a is in Fortran order, so LAPACK dpotrf factors it in place and
    dpotri turns the factor into the inverse in place: no n x n array is
    allocated. Sizes above DENSE_CAP are refused, and SingularOperator is
    raised when a is not numerically positive definite.
    """
    n = a.shape[0]
    if n > DENSE_CAP:
        raise DimensionCap(f"dense factorization of size {n} above cap {DENSE_CAP}")
    if not np.isfinite(a).all():
        raise InvalidParameter("operator has non-finite entries")
    factor, info = lapack.dpotrf(a, overwrite_a=1, clean=0)
    if info > 0:
        raise SingularOperator(f"leading minor of order {info} is not positive definite")
    inverse, info = lapack.dpotri(factor, overwrite_c=1)
    if info > 0:
        raise SingularOperator(f"factor has a zero pivot at {info}")
    return inverse.diagonal().copy()


class Sectors(NamedTuple):
    """Orthonormal sector bases side by side: block i is the columns
    bounds[i]:bounds[i + 1] of basis."""

    basis: sp.csc_matrix
    bounds: np.ndarray

    def blocks(self, A):
        """Yield the diagonal blocks Q_i^T A Q_i as CSR matrices, from one
        sparse triple product Q^T A Q. Its entries between two blocks are
        rounding residue of exact zeros and are dropped."""
        B = (self.basis.T @ A @ self.basis).tocsr()
        block = np.repeat(np.arange(len(self.bounds) - 1), np.diff(self.bounds))
        rows = np.repeat(np.arange(B.shape[0]), np.diff(B.indptr))
        inside = block[rows] == block[B.indices]
        data, cols = B.data[inside], B.indices[inside]
        # indices local to each block, kept in B's index dtype: scipy takes
        # that without scanning them, which halves the cost of a tiny block
        cols = (cols - self.bounds[block[cols]]).astype(B.indices.dtype)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[inside], minlength=len(block)))])
        for a, b in zip(self.bounds[:-1], self.bounds[1:]):
            lo, hi = indptr[a], indptr[b]
            local = (indptr[a : b + 1] - lo).astype(B.indices.dtype)
            yield sp.csr_matrix((data[lo:hi], cols[lo:hi], local), shape=(b - a, b - a))


def reflection_sectors(involutions, n: int) -> Sectors:
    """Sparse orthonormal bases Q_e of the joint eigenspaces of involutions.

    involutions are commuting permutations p of 0..n-1 with p[p] the
    identity; one acts on a vector f as f[p]. Each basis column is a
    signed orbit indicator scaled to unit length, and the columns of one
    basis lie on disjoint orbits, in the order of their first rows. For
    a character e (each involution acting as +1 or -1) the basis spans
    the vectors on which every involution acts by its sign, and an orbit
    is dropped from it when its stabiliser's character is -1. Together
    the bases hold n columns, so any symmetric A that every involution
    maps to itself is the orthogonal sum of the blocks Q_e^T A Q_e. Only
    non-empty bases are kept, the first involution's +1 sectors before
    its -1 sectors, and so on down; with no involution the one basis is
    the identity.

    The 2^k elements g of the group the k involutions generate are
    enumerated as permutations. An orbit is named by its least vertex x,
    and its column in sector e is sum_g e(g) 1_{g(x)}: an integer sum
    that cancels to exactly 0 when the stabiliser's character is -1.
    """
    ident = np.arange(n)
    gens = [np.asarray(p) for p in involutions]
    for i, p in enumerate(gens):
        if not (
            np.array_equal(p[p], ident) and all(np.array_equal(p[q], q[p]) for q in gens[:i])
        ):
            raise InvalidParameter("permutations are not commuting involutions")
    k = len(gens)
    group = ident[None, :]  # row j composes the involutions at the set bits of j
    for p in gens:
        group = np.concatenate([group, p[group]])
    # bits[j, i]: element j holds involution i; character c sends
    # involution i to -1 at bit k - 1 - i of c, so the first one is coarsest
    bits = (np.arange(2**k)[:, None] >> np.arange(k)) & 1
    character = 1.0 - 2.0 * ((bits[:, ::-1] @ bits.T) % 2)  # [c, j]
    least = np.flatnonzero(group.min(axis=0) == ident)
    shape = (2**k, 2**k, len(least))  # (character, element, orbit)
    cols = np.arange(2**k)[:, None, None] * len(least) + np.arange(len(least))
    Q = sp.csc_matrix(
        (
            np.broadcast_to(character[:, :, None], shape).ravel(),
            (
                np.broadcast_to(group[:, least], shape).ravel(),
                np.broadcast_to(cols, shape).ravel(),
            ),
        ),
        shape=(n, 2**k * len(least)),
    )
    Q.sum_duplicates()
    Q.eliminate_zeros()
    size = np.diff(Q.indptr)
    kept = size > 0
    basis = sp.csc_matrix(
        (np.sign(Q.data) / np.sqrt(np.repeat(size, size)), Q.indices,
         np.concatenate([[0], Q.indptr[1:][kept]])),
        shape=(n, int(kept.sum())),
    )
    count = kept.reshape(2**k, len(least)).sum(axis=1)
    return Sectors(basis, np.concatenate([[0], np.cumsum(count[count > 0])]))


def solve_rank_one(A: SymOperator, o: int, rhs: np.ndarray, rel_tol: float = 1e-10) -> CGResult:
    """Solve (A + e_o e_o^T) x = rhs for positive definite A.

    Sherman-Morrison first: two solves against A itself, u = A^(-1) rhs
    and w = A^(-1) e_o, give x = u - w u_o / (1 + w_o), so a held
    operator's factor serves every pin; iterations sums both solves.
    When either solve fails or x's true residual misses rel_tol, the
    corrected operator is assembled and solved instead.
    """
    n = A.dimension
    if not 0 <= o < n:
        raise InvalidParameter(f"pin vertex {o} out of range 0..{n - 1}")
    rhs = np.asarray(rhs, dtype=float)
    unit = np.zeros(n)
    unit[o] = 1.0
    try:
        u = A.solve(rhs, rel_tol=rel_tol)
        w = A.solve(unit, rel_tol=rel_tol)
    except (NoConvergence, SingularOperator):
        pass
    else:
        x = u.x - w.x * (u.x[o] / (1.0 + w.x[o]))
        r = rhs - A.apply(x)
        r[o] -= x[o]
        residual = float(np.linalg.norm(r))
        if residual <= rel_tol * float(np.linalg.norm(rhs)):
            return CGResult(x=x, iterations=u.iterations + w.iterations, residual=residual)
    bump = sp.csr_matrix(([1.0], ([o], [o])), shape=(n, n))
    return SymOperator(A.matrix + bump).solve(rhs, rel_tol=rel_tol)


@dataclass(frozen=True)
class DenseEigh:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray | None  # columns, M-orthonormal; None without vectors


def dense_eigh(A, M: np.ndarray, vectors: bool = True) -> DenseEigh:
    """Full solution of A v = lambda M v for symmetric A, positive diagonal M.

    A is a dense array or a scipy sparse matrix; a sparse A is densified
    straight into the working copy, so no second n x n array is held. M
    is given as the diagonal vector. Eigenvectors come back M-orthonormal
    (V^T diag(M) V = I). With vectors=False only the eigenvalues are
    computed (LAPACK dsyevr without vectors reduces to dsterf, far
    cheaper on degenerate spectra) and eigenvectors is None. Sizes above
    DENSE_CAP are refused, and a scaled copy M^(-1/2) A M^(-1/2) with an
    overflowing entry raises InvalidParameter.
    """
    if not sp.issparse(A):
        A = np.asarray(A, dtype=float)
    M = np.asarray(M, dtype=float)
    n = A.shape[0]
    if n > DENSE_CAP:
        raise DimensionCap(f"dense eigensolve of size {n} above cap {DENSE_CAP}")
    if A.shape != (n, n) or M.shape != (n,):
        raise InvalidParameter("shape mismatch between pencil parts")
    if np.any(M <= 0):
        raise InvalidParameter("mass diagonal must be strictly positive")
    # scale and solve in one working copy; dsyevr reads only the lower
    # triangle of the Fortran-order view B.T, so B is not symmetrized
    s = 1.0 / np.sqrt(M)
    B = A.toarray() if sp.issparse(A) else A.copy()
    with np.errstate(over="ignore"):  # an overflow is refused just below
        B *= s[:, None]
        B *= s[None, :]
    if not np.isfinite(B).all():  # then lambda_max is not representable either
        raise InvalidParameter("pencil entries overflow once scaled by the masses")
    if not vectors:
        w = scipy.linalg.eigh(B.T, overwrite_a=True, check_finite=False, eigvals_only=True)
        return DenseEigh(eigenvalues=w, eigenvectors=None)
    w, V = scipy.linalg.eigh(B.T, overwrite_a=True, check_finite=False)
    V *= s[:, None]
    return DenseEigh(eigenvalues=w, eigenvectors=V)
