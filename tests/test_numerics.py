import numpy as np
import pytest
import scipy.sparse as sp

import royden.numerics as numerics
from royden.errors import DimensionCap, InvalidParameter, NoConvergence, SingularOperator
from royden.numerics import (
    SymOperator,
    cg_solve,
    dense_eigh,
    inverse_diagonal,
    reflection_sectors,
    solve_rank_one,
)


def op(dense):
    return SymOperator(sp.csr_matrix(np.asarray(dense, dtype=float)))


def cg_budget(monkeypatch, iterations):
    """Give every CG run the same small iteration budget."""
    monkeypatch.setattr(numerics, "default_max_iter", lambda dimension: iterations)


def test_cg_exact_small():
    A = op([[2.0, -1.0], [-1.0, 2.0]])
    res = cg_solve(A, np.array([1.0, 0.0]))
    np.testing.assert_allclose(res.x, [2 / 3, 1 / 3], atol=1e-12)
    assert res.residual <= 1e-10


def test_cg_zero_rhs_shortcut():
    A = op([[2.0, -1.0], [-1.0, 2.0]])
    res = cg_solve(A, np.zeros(2))
    assert res.iterations == 0
    np.testing.assert_array_equal(res.x, np.zeros(2))


def test_cg_random_spd():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        B = rng.normal(size=(n, n))
        A = B @ B.T + n * np.eye(n)
        rhs = rng.normal(size=n)
        res = cg_solve(op(A), rhs, rel_tol=1e-12)
        np.testing.assert_allclose(A @ res.x, rhs, atol=1e-8 * max(1, np.abs(rhs).max()))


@pytest.mark.parametrize("exponent", [-600, -540, 540, 600])
def test_cg_scales_exactly_with_tiny_or_huge_data(exponent):
    # at 2^-540 the inner products of an unscaled run underflow to zero,
    # and at 2^540 they overflow; a power of two scales the answer exactly
    A = op([[2.0, -1.0, 0.0], [-1.0, 3.0, -1.0], [0.0, -1.0, 2.5]])
    rhs = np.array([1.0, -0.25, 0.5])
    unit = cg_solve(A, rhs)
    scaled = cg_solve(A, np.ldexp(rhs, exponent))
    np.testing.assert_array_equal(scaled.x, np.ldexp(unit.x, exponent))
    assert scaled.iterations == unit.iterations
    assert scaled.residual == np.ldexp(unit.residual, exponent)


def test_cg_on_a_coloured_matrix_with_its_diagonal_stored():
    # a path 0-1-2-3-4 with a chord 2-4 (odd cycle 2-3-4) and killing at 0:
    # rows 1 and 3 are eliminated, the colour-1 row 4 touches row 3 and stays
    A = np.array([
        [2.5, -1.0, 0.0, 0.0, 0.0],
        [-1.0, 2.0, -1.0, 0.0, 0.0],
        [0.0, -1.0, 3.0, -1.0, -1.0],
        [0.0, 0.0, -1.0, 2.0, -1.0],
        [0.0, 0.0, -1.0, -1.0, 2.5],
    ])
    op = SymOperator(sp.csr_matrix(A), colour=[0, 1, 0, 1, 1])
    assert op.red_black().black.tolist() == [1]
    rhs = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    res = cg_solve(op, rhs, rel_tol=1e-12)
    np.testing.assert_allclose(res.x, np.linalg.solve(A, rhs), rtol=1e-11)
    assert res.residual <= 1e-12 * np.linalg.norm(rhs)


def test_cg_detects_singular():
    # zero row with nonzero rhs cannot be solved
    A = op([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SingularOperator):
        cg_solve(A, np.array([1.0, 1.0]))


def test_cg_budget_exhaustion(monkeypatch):
    rng = np.random.default_rng(11)
    B = rng.normal(size=(30, 30))
    A = B @ B.T + 0.01 * np.eye(30)
    cg_budget(monkeypatch, 2)
    with pytest.raises(NoConvergence) as err:
        cg_solve(op(A), rng.normal(size=30), rel_tol=1e-14)
    assert err.value.iterations == 2


def test_cg_breakdown_hands_over_to_the_factor():
    # a 2D grid Laplacian scaled by 2^1015: once the residual is near 1e-8,
    # r^T z underflows to 0 before CG converges
    T = sp.diags([np.full(9, -1.0), np.full(10, 2.0), np.full(9, -1.0)], [-1, 0, 1])
    L = (sp.kron(T, sp.identity(10)) + sp.kron(sp.identity(10), T)).tocsr()
    rhs = np.random.default_rng(1).standard_normal(100)
    with pytest.raises(NoConvergence) as err:
        cg_solve(SymOperator(L * 2.0**1015), rhs)
    assert 0 < err.value.iterations < numerics.default_max_iter(100)
    res = SymOperator(L * 2.0**1015).solve(rhs)
    assert res.iterations == err.value.iterations
    np.testing.assert_allclose(np.ldexp(res.x, 1015), np.linalg.solve(L.toarray(), rhs), rtol=1e-10)


@pytest.mark.parametrize("exponent, seed", [(1021, 1), (1020, 3), (1020, 4)])
def test_cg_curvature_underflow_hands_over_to_the_factor(exponent, seed):
    # a 20x20 grid Laplacian scaled near the float range: p^T A p underflows
    # to 0 with p subnormal, which is no null direction of A
    T = sp.diags([np.full(19, -1.0), np.full(20, 2.0), np.full(19, -1.0)], [-1, 0, 1])
    L = (sp.kron(T, sp.identity(20)) + sp.kron(sp.identity(20), T)).tocsr()
    rhs = np.random.default_rng(seed).standard_normal(400)
    with pytest.raises(NoConvergence) as err:
        cg_solve(SymOperator(L * 2.0**exponent), rhs)
    assert "curvature underflowed" in str(err.value)
    res = SymOperator(L * 2.0**exponent).solve(rhs)
    assert res.iterations == err.value.iterations
    want = np.linalg.solve(L.toarray(), rhs)
    np.testing.assert_allclose(np.ldexp(res.x, exponent), want, rtol=1e-10, atol=1e-12)


def test_cg_stops_when_the_true_residual_stays_above_the_target():
    # a path with weights 1 and 1000 and killing 0.001: the rounding floor
    # of the true relative residual, about 1.16e-10, lies above 1e-10, so
    # a refused answer is not halved by going on from the true residual
    A = op([[1.001, -1.0, 0.0], [-1.0, 1001.0, -1000.0], [0.0, -1000.0, 1000.0]])
    rhs = np.array([0.0, 1.0, 0.0])
    with pytest.raises(NoConvergence) as err:
        cg_solve(A, rhs)
    assert "true residual stuck" in str(err.value)
    assert err.value.iterations == 4
    assert 1e-10 < err.value.residual < 2e-10
    # the factor's answer misses the target too, so solve raises
    with pytest.raises(NoConvergence):
        A.solve(rhs)


def test_cg_zero_curvature_on_a_null_direction_is_singular():
    # a path Laplacian without grounding: the constant vector is a true null
    # direction, so a zero curvature stays SingularOperator
    T = sp.diags([np.full(4, -1.0), np.array([1.0, 2.0, 2.0, 2.0, 1.0]), np.full(4, -1.0)], [-1, 0, 1])
    with pytest.raises(SingularOperator):
        cg_solve(SymOperator(T), np.ones(5))


def test_rank_one_routes_agree():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        B = rng.normal(size=(n, n))
        A = B @ B.T + n * np.eye(n)
        rhs = rng.normal(size=n)
        o = int(rng.integers(0, n))
        got = solve_rank_one(op(A), o, rhs)
        bumped = A.copy()
        bumped[o, o] += 1.0
        exact = np.linalg.solve(bumped, rhs)
        np.testing.assert_allclose(got.x, exact, atol=1e-7)


def test_rank_one_on_a_singular_operator():
    # a path Laplacian has no inverse, so Sherman-Morrison cannot start;
    # the pin makes the corrected operator definite, and that is solved
    A = [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
    rhs = np.array([1.0, 0.0, -1.0])
    got = solve_rank_one(op(A), 1, rhs)
    bumped = np.array(A)
    bumped[1, 1] += 1.0
    np.testing.assert_allclose(got.x, np.linalg.solve(bumped, rhs), atol=1e-10)


def test_dense_eigh_pencil():
    # A v = lambda M v with M = diag(1, 4): exact pencil eigenvalues
    A = np.array([[2.0, -1.0], [-1.0, 2.0]])
    M = np.array([1.0, 4.0])
    out = dense_eigh(A, M)
    lams = out.eigenvalues
    # det(A - lam M) = (2-lam)(2-4lam) - 1 = 0
    expected = np.sort(np.roots([4.0, -10.0, 3.0]))
    np.testing.assert_allclose(lams, expected, atol=1e-12)
    # M-orthonormality of eigenvectors
    V = out.eigenvectors
    G = V.T @ (M[:, None] * V)
    np.testing.assert_allclose(G, np.eye(2), atol=1e-12)
    values_only = dense_eigh(A, M, vectors=False)
    assert values_only.eigenvectors is None
    np.testing.assert_allclose(values_only.eigenvalues, expected, atol=1e-12)


def test_dense_eigh_reads_one_triangle_and_refuses_overflow():
    # entries near the top of the float range: no (B + B^T) pass to overflow
    A = np.array([[1e308, -1.0], [-1.0, 1e308]])
    np.testing.assert_allclose(dense_eigh(A, np.ones(2)).eigenvalues, [1e308, 1e308])
    # only the upper triangle of the scaled copy is read
    lopsided = np.array([[2.0, -1.0], [7.0, 2.0]])
    np.testing.assert_allclose(
        dense_eigh(lopsided, np.ones(2), vectors=False).eigenvalues, [1.0, 3.0], rtol=1e-15
    )
    # a tiny mass under a huge weight scales an entry past the float range
    with pytest.raises(InvalidParameter):
        dense_eigh(np.array([[1e300, -1e300], [-1e300, 1e300]]), np.array([1e-300, 1.0]))


def test_dense_eigh_dimension_cap(monkeypatch):
    monkeypatch.setattr(numerics, "DENSE_CAP", 5)
    with pytest.raises(DimensionCap):
        dense_eigh(np.eye(10), np.ones(10))


def test_inverse_diagonal_matches_dense_inverse():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(1, 40))
        B = rng.normal(size=(n, n))
        A = B @ B.T + n * np.eye(n)
        got = inverse_diagonal(np.array(A, order="F"))  # overwritten
        np.testing.assert_allclose(got, np.diag(np.linalg.inv(A)), rtol=1e-12)


def test_inverse_diagonal_refuses_singular_and_non_finite(monkeypatch):
    with pytest.raises(SingularOperator):
        inverse_diagonal(np.asfortranarray([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(InvalidParameter):
        inverse_diagonal(np.asfortranarray([[1.0, np.nan], [np.nan, 1.0]]))
    monkeypatch.setattr(numerics, "DENSE_CAP", 5)
    with pytest.raises(DimensionCap):
        inverse_diagonal(np.eye(10, order="F"))


def _hard_system():
    rng = np.random.default_rng(11)
    B = rng.normal(size=(30, 30))
    return op(B @ B.T + 0.01 * np.eye(30)), rng.normal(size=30)


def test_solve_direct_fallback_after_cg_budget(monkeypatch):
    A, rhs = _hard_system()
    cg_budget(monkeypatch, 2)
    res = A.solve(rhs, rel_tol=1e-10)
    assert res.iterations == 2
    assert res.residual <= 1e-10 * np.linalg.norm(rhs)
    np.testing.assert_allclose(res.x, np.linalg.solve(A.dense(), rhs), rtol=1e-8)


def test_solve_columns_after_the_factor_use_it(monkeypatch):
    # the first column runs out of CG budget and builds the factor; the
    # other columns of the same call go to it without running CG
    A, rhs = _hard_system()
    cg_budget(monkeypatch, 2)
    cols = np.column_stack([rhs, 2.0 * rhs, -rhs])
    res = A.solve(cols, rel_tol=1e-10)
    assert res.iterations == 2
    np.testing.assert_allclose(res.x, np.linalg.solve(A.dense(), cols), rtol=1e-8)


def test_solve_reraises_cg_failure(monkeypatch):
    A, rhs = _hard_system()
    cg_budget(monkeypatch, 2)
    # the direct answer cannot meet a tolerance below rounding
    with pytest.raises(NoConvergence) as err:
        A.solve(rhs, rel_tol=1e-300)
    assert err.value.iterations == 2
    # an indefinite operator has no factor with positive pivots
    cg_budget(monkeypatch, 1)
    with pytest.raises(NoConvergence):
        op([[1.0, 2.0], [2.0, 1.0]]).solve(np.array([1.0, 0.0]))
    # above DIRECT_CAP there is no direct route
    cg_budget(monkeypatch, 2)
    monkeypatch.setattr(numerics, "DIRECT_CAP", 10)
    with pytest.raises(NoConvergence):
        _hard_system()[0].solve(rhs, rel_tol=1e-10)


def test_reflection_sectors_without_involutions_is_the_identity():
    sectors = reflection_sectors([], 5)
    np.testing.assert_array_equal(sectors.bounds, [0, 5])
    np.testing.assert_array_equal(sectors.basis.toarray(), np.eye(5))
    A = sp.random(5, 5, density=0.6, random_state=1)
    A = (A + A.T).tocsr()
    (block,) = sectors.blocks(A)
    np.testing.assert_array_equal(block.toarray(), A.toarray())


def test_reflection_sectors_split_space_and_block_diagonalise():
    # the 5 x 3 grid with its two mirrors: 2 orbits of size 1, 4 of size 2, 2 of size 4
    side = (5, 3)
    idx = np.arange(15).reshape(side)
    mirrors = [idx[::-1, :].ravel(), idx[:, ::-1].ravel()]
    T = [sp.diags([np.ones(k - 1), np.ones(k - 1)], [-1, 1]) for k in side]
    A = (sp.kron(T[0], sp.identity(3)) + sp.kron(sp.identity(5), T[1])).tocsr()
    sectors = reflection_sectors(mirrors, 15)
    Q = sectors.basis.toarray()
    np.testing.assert_allclose(Q.T @ Q, np.eye(15), atol=1e-15)
    assert np.diff(sectors.bounds).tolist() == [6, 3, 4, 2]
    full = Q.T @ A.toarray() @ Q
    for (a, b), block in zip(zip(sectors.bounds[:-1], sectors.bounds[1:]), sectors.blocks(A)):
        np.testing.assert_allclose(block.toarray(), full[a:b, a:b], atol=1e-15)
        full[a:b, a:b] = 0.0
        # every mirror acts on the whole sector by one sign
        for p in mirrors:
            sign = np.sign(Q[p, a] @ Q[:, a])
            assert sign in (1.0, -1.0)
            np.testing.assert_array_equal(Q[p, a:b], sign * Q[:, a:b])
        # each column a signed orbit indicator of unit length
        for q in Q[:, a:b].T:
            on = np.flatnonzero(q)
            np.testing.assert_allclose(np.abs(q[on]), len(on) ** -0.5, rtol=1e-15)
    np.testing.assert_allclose(full, 0.0, atol=1e-15)


def test_reflection_sectors_refuse_permutations_that_do_not_commute():
    with pytest.raises(InvalidParameter):
        reflection_sectors([np.array([1, 0, 2]), np.array([0, 2, 1])], 3)
