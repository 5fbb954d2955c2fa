"""Deterministic linear algebra kernels.

Conjugate gradients with diagonal preconditioning is the single solver
behind every capacity, metric and Dirichlet computation; it reports its
iteration count and final residual so callers can surface them. Dense
eigensolves reduce the generalized pencil (A, M) with diagonal M to an
ordinary symmetric problem through the M^(-1/2) similarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

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


def cg_solve(
    A: SymOperator,
    rhs: np.ndarray,
    rel_tol: float = 1e-10,
    max_iter: int | None = None,
) -> CGResult:
    """Solve A x = rhs by preconditioned conjugate gradients.

    Convergence means ||A x - rhs|| <= rel_tol * ||rhs|| in the Euclidean
    norm (checked on the true residual, not the recurrence). Raises
    NoConvergence past the iteration budget and SingularOperator on a
    zero-curvature breakdown.
    """
    n = A.dimension
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n,):
        raise InvalidParameter(f"rhs has shape {rhs.shape}, expected ({n},)")
    if max_iter is None:
        max_iter = default_max_iter(n)

    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return CGResult(x=np.zeros(n), iterations=0, residual=0.0)
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
                return CGResult(x=x, iterations=it - 1, residual=r_norm)
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
                return CGResult(x=x, iterations=it, residual=true_norm)
            r = true_r
            r_norm = true_norm
        z = inv_diag * r
        rz_next = float(r @ z)
        beta = rz_next / rz
        rz = rz_next
        p = z + beta * p

    raise NoConvergence(
        f"no convergence within {max_iter} iterations (residual {r_norm:g}, target {target:g})",
        iterations=max_iter,
        residual=r_norm,
    )


def solve_rank_one(
    A: SymOperator,
    o: int,
    rhs: np.ndarray,
    rel_tol: float = 1e-10,
    max_iter: int | None = None,
) -> CGResult:
    """Solve (A + e_o e_o^T) x = rhs by CG on the corrected operator."""
    n = A.dimension
    if not 0 <= o < n:
        raise InvalidParameter(f"pin vertex {o} out of range 0..{n - 1}")
    bump = sp.csr_matrix(([1.0], ([o], [o])), shape=(n, n))
    return cg_solve(SymOperator(A.matrix + bump), rhs, rel_tol=rel_tol, max_iter=max_iter)


@dataclass(frozen=True)
class DenseEigh:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # columns, M-orthonormal


def dense_eigh(A: np.ndarray, M: np.ndarray) -> DenseEigh:
    """Full solution of A v = lambda M v for symmetric A, positive diagonal M.

    M is given as the diagonal vector. Eigenvectors come back M-orthonormal
    (V^T diag(M) V = I). Sizes above DENSE_CAP are refused.
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
    s = 1.0 / np.sqrt(M)
    B = s[:, None] * A * s[None, :]
    B = 0.5 * (B + B.T)
    w, U = scipy.linalg.eigh(B)
    V = s[:, None] * U
    return DenseEigh(eigenvalues=w, eigenvectors=V)
