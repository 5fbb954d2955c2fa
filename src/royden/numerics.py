"""Deterministic linear algebra kernels.

Conjugate gradients with diagonal preconditioning is the solver behind
every metric and Dirichlet computation; it reports its iteration count
and final residual so callers can surface them. Dense Cholesky
(LAPACK dpotrf, worked in place on one dense copy) is the one dense
route for grounded operators up to DENSE_CAP: it gives the diagonal of
the inverse for interior capacities and takes over a grounded solve
that CG gave up on. Dense eigensolves reduce the generalized pencil
(A, M) with diagonal M to an ordinary symmetric problem through the
M^(-1/2) similarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import lapack

from .errors import DimensionCap, InvalidParameter, NoConvergence, SingularOperator

DENSE_CAP = 4000


class SymOperator:
    """A symmetric positive semidefinite operator backed by a CSR matrix.

    apply() uses scipy's fixed-order matvec, so repeated runs are
    bit-identical on the same inputs.
    """

    def __init__(self, matrix: sp.spmatrix):
        self._matrix = sp.csr_matrix(matrix)
        if self._matrix.shape[0] != self._matrix.shape[1]:
            raise InvalidParameter("operator matrix must be square")

    @property
    def dimension(self) -> int:
        return self._matrix.shape[0]

    @property
    def matrix(self) -> sp.csr_matrix:
        return self._matrix

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._matrix.dot(x)

    def diagonal(self) -> np.ndarray:
        return self._matrix.diagonal()

    def dense(self) -> np.ndarray:
        return self._matrix.toarray()


@dataclass(frozen=True)
class CGResult:
    x: np.ndarray
    iterations: int
    residual: float


def default_max_iter(dimension: int) -> int:
    return int(20 * math.isqrt(max(dimension, 1)) + 200)


def cg_solve(A: SymOperator, rhs: np.ndarray, rel_tol: float = 1e-10) -> CGResult:
    """Solve A x = rhs by preconditioned conjugate gradients.

    Convergence means ||A x - rhs|| <= rel_tol * ||rhs|| in the Euclidean
    norm (checked on the true residual, not the recurrence). Raises
    NoConvergence past default_max_iter(n) iterations and
    SingularOperator on a zero-curvature breakdown. The iteration runs on
    rhs scaled by a power of two to a peak in [0.5, 1), which is exact,
    so tiny or huge data cannot underflow or overflow in its inner
    products.
    """
    n = A.dimension
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n,):
        raise InvalidParameter(f"rhs has shape {rhs.shape}, expected ({n},)")
    max_iter = default_max_iter(n)

    peak = float(np.max(np.abs(rhs), initial=0.0))
    if peak == 0.0:
        return CGResult(x=np.zeros(n), iterations=0, residual=0.0)
    shift = math.frexp(peak)[1]
    rhs = np.ldexp(rhs, -shift)
    b_norm = float(np.linalg.norm(rhs))
    target = rel_tol * b_norm

    diag = A.diagonal()
    if np.any(diag < 0):
        raise SingularOperator("negative diagonal entry")
    # zero diagonal rows are acceptable only where rhs is zero
    dead = diag == 0
    if np.any(dead & (rhs != 0)):
        raise SingularOperator("zero diagonal row with nonzero right-hand side")
    inv_diag = np.where(dead, 0.0, 1.0 / np.where(dead, 1.0, diag))

    x = np.zeros(n)
    r = rhs.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    r_norm = b_norm

    for it in range(1, max_iter + 1):
        Ap = A.apply(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            if r_norm <= target:
                return CGResult(np.ldexp(x, shift), it - 1, math.ldexp(r_norm, shift))
            raise SingularOperator(
                f"curvature {pAp:g} along a search direction after {it - 1} iterations"
            )
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        r_norm = float(np.linalg.norm(r))
        if r_norm <= target:
            # confirm on the true residual before accepting
            true_r = rhs - A.apply(x)
            true_norm = float(np.linalg.norm(true_r))
            if true_norm <= target:
                return CGResult(np.ldexp(x, shift), it, math.ldexp(true_norm, shift))
            r = true_r
            r_norm = true_norm
        z = inv_diag * r
        rz_next = float(r @ z)
        beta = rz_next / rz
        rz = rz_next
        p = z + beta * p

    r_norm, target = math.ldexp(r_norm, shift), math.ldexp(target, shift)
    raise NoConvergence(
        f"no convergence within {max_iter} iterations (residual {r_norm:g}, target {target:g})",
        iterations=max_iter,
        residual=r_norm,
    )


def cholesky(a: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of the dense symmetric a, written over a.

    a is in Fortran order so LAPACK dpotrf factors it in place; the
    strict lower triangle keeps a's entries. Sizes above DENSE_CAP are
    refused, and SingularOperator is raised when a is not numerically
    positive definite.
    """
    n = a.shape[0]
    if n > DENSE_CAP:
        raise DimensionCap(f"dense factorization of size {n} above cap {DENSE_CAP}")
    if not np.isfinite(a).all():
        raise InvalidParameter("operator has non-finite entries")
    factor, info = lapack.dpotrf(a, overwrite_a=1, clean=0)
    if info > 0:
        raise SingularOperator(f"leading minor of order {info} is not positive definite")
    return factor


def inverse_diagonal(a: np.ndarray) -> np.ndarray:
    """diag(a^(-1)) for the dense positive definite a, through cholesky().

    LAPACK dpotri turns the factor into the inverse in place, so the
    whole computation works in a and allocates no n x n array.
    """
    inverse, info = lapack.dpotri(cholesky(a), overwrite_c=1)
    if info > 0:
        raise SingularOperator(f"factor has a zero pivot at {info}")
    return inverse.diagonal().copy()


def grounded_solve(A: SymOperator, rhs: np.ndarray, rel_tol: float = 1e-10) -> CGResult:
    """Solve A x = rhs for a grounded (positive definite) energy operator.

    CG first. If CG runs out of iterations on at most DENSE_CAP
    unknowns, the system is solved again through cholesky(); that answer
    is accepted only when its true residual meets rel_tol, otherwise the
    original NoConvergence is raised. The result then carries the CG
    iterations spent and the dense residual.
    """
    try:
        return cg_solve(A, rhs, rel_tol=rel_tol)
    except NoConvergence as failure:
        if A.dimension > DENSE_CAP:
            raise
        try:
            x, _ = lapack.dpotrs(cholesky(A.matrix.toarray(order="F")), rhs)
        except SingularOperator:
            raise failure from None
        residual = float(np.linalg.norm(rhs - A.apply(x)))
        if not residual <= rel_tol * float(np.linalg.norm(rhs)):
            raise
        return CGResult(x=x, iterations=failure.iterations, residual=residual)


def solve_rank_one(A: SymOperator, o: int, rhs: np.ndarray, rel_tol: float = 1e-10) -> CGResult:
    """Solve (A + e_o e_o^T) x = rhs by grounded_solve on the corrected operator."""
    n = A.dimension
    if not 0 <= o < n:
        raise InvalidParameter(f"pin vertex {o} out of range 0..{n - 1}")
    bump = sp.csr_matrix(([1.0], ([o], [o])), shape=(n, n))
    return grounded_solve(SymOperator(A.matrix + bump), rhs, rel_tol=rel_tol)


@dataclass(frozen=True)
class DenseEigh:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray | None  # columns, M-orthonormal; None without vectors


def dense_eigh(A: np.ndarray, M: np.ndarray, vectors: bool = True) -> DenseEigh:
    """Full solution of A v = lambda M v for symmetric A, positive diagonal M.

    M is given as the diagonal vector. Eigenvectors come back M-orthonormal
    (V^T diag(M) V = I). With vectors=False only the eigenvalues are
    computed (LAPACK dsyevr without vectors reduces to dsterf, far
    cheaper on degenerate spectra) and eigenvectors is None. Sizes above
    DENSE_CAP are refused.
    """
    A = np.asarray(A, dtype=float)
    M = np.asarray(M, dtype=float)
    n = A.shape[0]
    if n > DENSE_CAP:
        raise DimensionCap(f"dense eigensolve of size {n} above cap {DENSE_CAP}")
    if A.shape != (n, n) or M.shape != (n,):
        raise InvalidParameter("shape mismatch between pencil parts")
    if np.any(M <= 0):
        raise InvalidParameter("mass diagonal must be strictly positive")
    # scale, symmetrize and solve in one working copy; B is exactly
    # symmetric, so its Fortran-order view B.T lets eigh overwrite it
    s = 1.0 / np.sqrt(M)
    B = s[:, None] * A
    B *= s[None, :]
    B += B.T
    B *= 0.5
    if not vectors:
        w = scipy.linalg.eigh(B.T, overwrite_a=True, eigvals_only=True)
        return DenseEigh(eigenvalues=w, eigenvectors=None)
    w, V = scipy.linalg.eigh(B.T, overwrite_a=True)
    V *= s[:, None]
    return DenseEigh(eigenvalues=w, eigenvectors=V)
