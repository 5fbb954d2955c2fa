import math

import numpy as np
import pytest
import scipy.linalg

import royden as R
from royden.errors import (
    DisconnectedPair,
    InvalidParameter,
    MonotonicityViolation,
    NoConvergence,
    SameVertex,
)

from conftest import CountingGenerator, random_section


def brute_cap(s, x):
    """Independent oracle: solve the constrained quadratic by dense algebra."""
    from royden.energy import energy_matrix

    xi = s.index_of(x)
    inter = [v for v in s.interior if v != xi]
    A = energy_matrix(s, np.array(inter + [xi], dtype=int)).dense()
    k = len(inter)
    if k == 0:
        return float(A[-1, -1])
    Ab = A[:k, :k]
    rhs = -A[:k, -1]
    u = np.linalg.solve(Ab, rhs)
    full = np.concatenate([u, [1.0]])
    return float(full @ A @ full)


def test_equilibrium_p3(p3_end_masked):
    res = R.equilibrium_potential(p3_end_masked, 0)
    assert res.cap == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(res.u.values, [1.0, 0.5, 0.0], atol=1e-12)
    assert not res.degenerate
    # minimizer is harmonic off x and the mask
    lap = R.formal_laplacian(p3_end_masked, res.u)
    assert abs(lap.values[1]) < 1e-10


def test_equilibrium_star_and_killing(star, killed_point):
    assert R.equilibrium_potential(star, 0).cap == pytest.approx(3.0, abs=1e-12)
    assert R.equilibrium_potential(killed_point, 0).cap == pytest.approx(2.0, abs=1e-12)


def test_equilibrium_degenerate_without_ground():
    s = R.build_section(2, [(0, 1, 1.0)])  # no mask, no killing
    res = R.equilibrium_potential(s, 0)
    assert res.degenerate
    assert res.cap == 0.0
    np.testing.assert_array_equal(res.u.values, [1.0, 1.0])


def test_equilibrium_matches_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(25):
        s = random_section(rng, n_max=20, with_killing=bool(rng.integers(0, 2)))
        x = s.labels[int(rng.choice(s.interior))]
        assert R.equilibrium_potential(s, x).cap == pytest.approx(
            brute_cap(s, x), abs=1e-8
        )


def test_capacity_monotone_in_mask():
    # enlarging the graph (pushing the mask out) can only lower the capacity
    gen = R.lattice_generator(2)
    caps = [R.equilibrium_potential(gen.section(r), gen.origin).cap for r in (2, 3, 4, 6)]
    assert all(a >= b - 1e-12 for a, b in zip(caps, caps[1:]))


def test_profile_and_extrapolation_models():
    prof = R.capacity_profile(R.lattice_generator(3), levels=(4, 6, 8, 12))
    assert prof.extrapolation.model == "plateau"
    assert prof.extrapolation.limit > 3.5
    prof = R.capacity_profile(R.lattice_generator(2), levels=(4, 8, 16, 32))
    assert prof.extrapolation.model == "log-decay"
    assert prof.extrapolation.limit == 0.0


def test_profile_rejects_bad_levels():
    with pytest.raises(InvalidParameter):
        R.capacity_profile(R.lattice_generator(2), levels=(4, 4, 8))
    with pytest.raises(InvalidParameter):
        R.capacity_profile(R.lattice_generator(2), levels=(0, 2))


def test_classify_all_families():
    assert R.classify_transience(R.lattice_generator(1)).verdict == "recurrent"
    assert R.classify_transience(R.lattice_generator(3)).verdict == "transient"
    assert R.classify_transience(R.tree_generator(3)).verdict == "transient"
    v = R.classify_transience(R.lattice_generator(2, c_const=0.1))
    assert v.verdict == "transient"
    assert "killing" in v.reason


def test_gamma_small_oracles(p3_end_masked):
    assert float(R.gamma(p3_end_masked, 0, 1)) == pytest.approx(1.0, abs=1e-10)
    assert float(R.gamma(p3_end_masked, 0, 2)) == pytest.approx(
        math.sqrt(2.0), abs=1e-10
    )
    assert R.gamma(p3_end_masked, 0, 2).regime == "wired"
    with pytest.raises(SameVertex):
        R.gamma(p3_end_masked, 1, 1)


def test_gamma_both_endpoints_masked(p3_both_masked):
    # every admissible f vanishes at both ends
    g = R.gamma(p3_both_masked, 0, 2)
    assert (g.value, g.regime) == (0.0, "wired")
    for o in (0, 1, 2):  # a masked pin, and one between the endpoints
        assert R.gamma_o(p3_both_masked, o, 0, 2) == 0.0


def test_gamma_free_fallback_and_infinite():
    # ungrounded single edge: kernel is the constants, differences see the
    # pseudo-inverse, so gamma equals the free resistance root
    s = R.build_section(2, [(0, 1, 1.0)])
    g = R.gamma(s, 0, 1)
    assert float(g) == pytest.approx(1.0, abs=1e-10)
    assert g.regime == "free-fallback"
    # vertices separated by the kernel: supremum is infinite
    two = R.build_section(4, [(0, 1, 1.0), (2, 3, 1.0)])
    g = R.gamma(two, 0, 2)
    assert math.isinf(float(g))
    assert g.regime == "recurrent-section"


def test_gamma_o_single_edge():
    s = R.build_section(2, [(0, 1, 1.0)])
    assert R.gamma_o(s, 0, 0, 1) == pytest.approx(1.0, abs=1e-10)


def test_gamma_brute_force_dual_norm():
    # gamma(x,y)^2 must equal the dual norm chi^T A^{-1} chi computed densely
    from royden.energy import energy_matrix

    rng = np.random.default_rng(10)
    for _ in range(20):
        s = random_section(rng, n_max=18, with_killing=True)
        inter = list(s.interior)
        if len(inter) < 2:
            continue
        a, b = rng.choice(inter, size=2, replace=False)
        A = energy_matrix(s, s.interior).dense()
        chi = np.zeros(len(inter))
        chi[inter.index(a)] = 1.0
        chi[inter.index(b)] = -1.0
        expected = math.sqrt(float(chi @ np.linalg.solve(A, chi)))
        got = float(R.gamma(s, s.labels[int(a)], s.labels[int(b)]))
        assert got == pytest.approx(expected, abs=1e-8)


def test_free_resistance_oracles():
    tri = R.build_section(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    assert R.free_resistance(tri, 0, 1) == pytest.approx(2.0 / 3.0, abs=1e-10)
    dbl = R.build_section(2, [(0, 1, 2.0)])
    assert R.free_resistance(dbl, 0, 1) == pytest.approx(0.5, abs=1e-10)
    two = R.build_section(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(DisconnectedPair):
        R.free_resistance(two, 0, 2)


def test_sup_norm_constant_certifies_bound():
    rng = np.random.default_rng(12)
    for _ in range(10):
        s = random_section(rng, n_max=15)
        c = R.sup_norm_constant(s)
        # check the certified inequality on random admissible functions
        for _ in range(10):
            vals = rng.normal(size=s.n)
            vals[s.mask] = 0.0
            f = s.fn(vals)
            q = R.energy(s, f).value
            assert f.sup_norm <= c.C * math.sqrt(q) + 1e-9


def test_ut_report_verdicts():
    assert R.uniform_transience_report(R.lattice_generator(1)).verdict == "refuted"
    rep = R.uniform_transience_report(R.lattice_generator(3))
    assert rep.verdict == "certified-UT" and rep.evidence == "transitivity"
    rep = R.uniform_transience_report(R.tree_generator(3))
    assert rep.verdict == "certified-UT" and rep.evidence == "spectral-gap"
    assert rep.gamma_diameter_bound == pytest.approx(2.0 * rep.C)


def test_profile_monotonicity_guard():
    # a generator whose capacity increases with the level violates exhaustion
    calls = {}

    def build(level):
        # growing killing term: capacity grows with the level
        calls[level] = True
        return R.build_section(1, [], c={0: float(level)})

    gen = R.custom_generator(build, origin=0, family="custom")
    with pytest.raises(MonotonicityViolation):
        R.capacity_profile(gen, levels=(1, 2, 3))


def test_window_scan_monotonicity_guard():
    gen = R.custom_generator(lambda level: R.build_section(1, [], c={0: float(level)}), origin=0)
    with pytest.raises(MonotonicityViolation, match=r"cap at level 2 \(2.0\) exceeds cap at level 1 \(1.0\)"):
        R.uniform_transience_report(gen, window_level=1, profile_levels=(1, 2, 3))


def test_ut_report_builds_each_level_once_per_phase():
    # transitive lattice-backed family: window scan, then the profile
    lat = R.lattice_generator(3)
    counted = CountingGenerator(lat.section, lat.origin, transitive=True)
    rep = R.uniform_transience_report(counted.gen, window_level=2, profile_levels=(3, 4, 6, 8))
    assert counted.levels == [2, 4, 8] + [3, 4, 6, 8]
    assert counted.held == [0] * len(counted.levels)
    ref = R.uniform_transience_report(
        R.custom_generator(lat.section, lat.origin, is_vertex_transitive=True),
        window_level=2,
        profile_levels=(3, 4, 6, 8),
    )
    assert repr(rep) == repr(ref)
    assert rep.evidence == "transitivity"

    # tree-backed family: window scan, profile, then the gap scan
    tree = R.tree_generator(3)
    counted = CountingGenerator(tree.section, tree.origin)
    rep = R.uniform_transience_report(
        counted.gen, window_level=2, profile_levels=(3, 4, 5), gap_levels=(5, 6, 7)
    )
    assert counted.levels == [2, 4, 8] + [3, 4, 5] + [5, 6, 7]
    assert counted.held == [0] * len(counted.levels)
    assert rep.details["gap_levels"] == [5, 6, 7]


def test_classify_builds_each_level_once():
    gen = R.lattice_generator(2, c_origin=1.0)
    counted = CountingGenerator(gen.section, gen.origin)
    v = R.classify_transience(counted.gen, levels=(2, 4, 8))
    assert counted.levels == [2, 4, 8]
    assert counted.held == [0, 0, 0]
    # the killing check reads the deepest profile section
    assert v.verdict == "transient" and "killing" in v.reason


def _dense_laplacian(s):
    """Energy matrix on all vertices, assembled densely from the weights."""
    W = s.adj.toarray()
    return np.diag(W.sum(axis=1) + s.c) - W


def _unit(n, *signed):
    v = np.zeros(n)
    for i, sign in signed:
        v[i] += sign
    return v


def _tree_edges(rng, lo, hi):
    """Random spanning tree on lo..hi-1, weights in [0.2, 2]."""
    return {(int(rng.integers(lo, i)), i): float(rng.uniform(0.2, 2.0)) for i in range(lo + 1, hi)}


def _edge_list(edges):
    return [(a, b, w) for (a, b), w in edges.items()]


def _free_section(rng, with_killing):
    """Connected random section with one cycle and no mask."""
    n = int(rng.integers(4, 21))
    edges = _tree_edges(rng, 0, n)
    edges.setdefault((0, n - 1), 1.0)
    c = None
    if with_killing:
        c = {int(v): float(rng.uniform(0.1, 1.0)) for v in rng.choice(n, size=2, replace=False)}
    return R.build_section(n, _edge_list(edges), c=c)


def _two_blobs(rng):
    """Two random trees joined only through one masked hub vertex."""
    k, n = int(rng.integers(3, 9)), int(rng.integers(12, 18))
    hub = n - 1
    edges = {**_tree_edges(rng, 0, k), **_tree_edges(rng, k, hub), (0, hub): 1.0, (k, hub): 1.0}
    return R.build_section(n, _edge_list(edges), dirichlet=[hub]), k


def _route_case(case, rng):
    """(value from the library, value from a dense inv/pinv oracle)."""
    if case == "pin-other-component":
        s, k = _two_blobs(rng)
        x, y = rng.choice(k, size=2, replace=False)
        o = int(rng.integers(k, s.n - 1))
        inter = s.interior
        A = _dense_laplacian(s)[np.ix_(inter, inter)]
        chi = _unit(len(inter), (int(x), 1.0), (int(y), -1.0))
        return R.gamma_o(s, o, int(x), int(y)), math.sqrt(chi @ np.linalg.inv(A) @ chi)
    if case in ("free-fallback", "resistance-free", "resistance-killing"):
        s = _free_section(rng, with_killing=case == "resistance-killing")
        x, y = (int(v) for v in rng.choice(s.n, size=2, replace=False))
        L = _dense_laplacian(s)
        inv = np.linalg.pinv(L) if case != "resistance-killing" else np.linalg.inv(L)
        chi = _unit(s.n, (x, 1.0), (y, -1.0))
        exact = float(chi @ inv @ chi)
        if case == "free-fallback":
            g = R.gamma(s, x, y)
            assert g.regime == "free-fallback"
            return float(g), math.sqrt(exact)
        return R.free_resistance(s, x, y), exact

    s = random_section(rng, n_max=20, with_killing=bool(rng.integers(0, 2)))
    inter = [int(v) for v in s.interior]
    pos = {v: i for i, v in enumerate(inter)}
    L = _dense_laplacian(s)
    A = L[np.ix_(inter, inter)]
    if case == "capacity":
        return R.interior_capacities(s), 1.0 / np.diag(np.linalg.inv(A))
    if case == "dirichlet":
        mask = [int(v) for v in s.mask]
        g = rng.normal(size=len(mask))
        u = np.zeros(s.n)
        u[mask] = g
        u[inter] = np.linalg.solve(A, -L[np.ix_(inter, mask)] @ g)
        return R.solve_dirichlet(s, dict(zip(mask, g))).values, u
    x, y = (int(v) for v in rng.choice(inter, size=2, replace=False))
    if case == "masked-endpoint":
        x = int(rng.choice(s.mask))
    chi = _unit(len(inter), *[(pos[v], sign) for v, sign in ((x, 1.0), (y, -1.0)) if v in pos])
    if case in ("wired", "masked-endpoint"):
        g = R.gamma(s, x, y)
        assert g.regime == "wired"
        return float(g), math.sqrt(chi @ np.linalg.inv(A) @ chi)
    if case == "pin-inside":
        o = int(rng.choice(inter))
        A = A + np.diag(_unit(len(inter), (pos[o], 1.0)))
    else:  # "pin-masked": a masked pin adds nothing
        o = int(rng.choice(s.mask))
    return R.gamma_o(s, o, x, y), math.sqrt(chi @ np.linalg.inv(A) @ chi)


@pytest.mark.parametrize(
    "case",
    [
        "wired",
        "masked-endpoint",
        "free-fallback",
        "pin-inside",
        "pin-other-component",
        "pin-masked",
        "resistance-killing",
        "resistance-free",
        "capacity",
        "dirichlet",
    ],
)
def test_grounded_solve_routes_match_dense_oracle(case):
    rng = np.random.default_rng(sum(map(ord, case)))
    for _ in range(8):
        got, expected = _route_case(case, rng)
        np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-10)


def _edges_of(s):
    coo = s.adj.tocoo()
    up = coo.row < coo.col
    return list(zip(coo.row[up].tolist(), coo.col[up].tolist(), coo.data[up].tolist()))


def _weighted_path():
    # weights 10^-3 .. 10^3 along a path with both ends masked
    return R.build_section(8, [(i, i + 1, 10.0 ** (i - 3)) for i in range(7)], dirichlet=[0, 7])


def _grounded_and_ungrounded():
    # {0, 1, 2} reaches the mask at 3; {4, 5, 6} touches neither mask nor killing
    edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (4, 5, 1.0), (5, 6, 3.0)]
    return R.build_section(7, edges, dirichlet=[3])


@pytest.mark.parametrize(
    "make",
    [
        lambda: R.generate_tree(3, 6),
        lambda: R.generate_lattice(2, 8),
        _weighted_path,
        _grounded_and_ungrounded,
    ],
    ids=["tree-k3-depth6", "z2-r8", "weighted-path", "grounded-and-ungrounded"],
)
def test_interior_capacities_match_equilibrium_potentials(make):
    s = make()
    caps = R.interior_capacities(s)
    per_vertex = np.array([R.equilibrium_potential(s, s.labels[int(v)]).cap for v in s.interior])
    # atol=0: capacities on an ungrounded component must be exactly 0
    np.testing.assert_allclose(caps, per_vertex, rtol=1e-12, atol=0.0)


def _count_operator_calls(monkeypatch):
    """The arguments of every energy_matrix, splu and cg_solve call, by name."""
    import scipy.sparse.linalg

    import royden.numerics as numerics
    import royden.potential as potential

    calls = {}

    def count(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count(potential, "energy_matrix")
    count(scipy.sparse.linalg, "splu")
    count(numerics, "cg_solve")
    return calls


def test_interior_capacities_above_dense_cap(monkeypatch):
    import royden.potential as potential

    # the 9-vertex interior of Z^2 r=2 exceeds the cap, the 3-vertex
    # grounded path stays dense, the ungrounded pair stays at 0
    z = R.generate_lattice(2, 2)
    edges = _edges_of(z) + [(25, 26, 1.0), (26, 27, 2.0), (27, 28, 1.0), (29, 30, 1.0)]
    s = R.build_section(31, edges, dirichlet=list(z.mask) + [28])
    monkeypatch.setattr(potential, "DENSE_CAP", 4)
    calls = _count_operator_calls(monkeypatch)
    caps = R.interior_capacities(s)
    # one matrix for the dense blocks (path and pair), one operator for the
    # large component, kept by the section: CG solves once, one factor the rest
    assert [len(args[1]) for args in calls["energy_matrix"]] == [5, 9]
    (key, held), = s.operators.items()
    assert key == ("interior", int(s.interior_components[s.interior[0]]))
    assert held.op.dimension == 9
    assert len(calls["splu"]) == 1
    assert len(calls["cg_solve"]) == 1
    inter = s.interior
    grounded = inter[inter < 29]
    A = _dense_laplacian(s)[np.ix_(grounded, grounded)]
    want = np.zeros(len(inter))
    want[: len(grounded)] = 1.0 / np.diag(np.linalg.inv(A))
    np.testing.assert_allclose(caps, want, rtol=1e-12, atol=0.0)


def _log_uniform_lattice(d, radius, decades, seed):
    """Z^d ball with edge weights log-uniform over 10^-decades..10^decades."""
    z = R.generate_lattice(d, radius)
    rng = np.random.default_rng(seed)
    edges = [(a, b, 10.0 ** rng.uniform(-decades, decades)) for a, b, _ in _edges_of(z)]
    return R.build_section(z.n, edges, dirichlet=z.mask, labels=z.labels)


def test_wide_weight_capacity_matches_dense_inverse(monkeypatch):
    import royden.numerics as numerics

    # at 10^+-3 CG on the red-black reduced operator converges; at 10^+-4
    # it runs out of iterations, and the sparse factor answers
    for decades in (3, 4):
        s = _log_uniform_lattice(2, 20, decades, seed=0)
        inter = s.interior
        G = np.linalg.inv(_dense_laplacian(s)[np.ix_(inter, inter)])
        xi = int(np.searchsorted(inter, s.index_of((0, 0))))
        cap = R.equilibrium_potential(s, (0, 0)).cap
        assert cap == pytest.approx(1.0 / G[xi, xi], rel=1e-8)
        np.testing.assert_allclose(R.interior_capacities(s), 1.0 / np.diag(G), rtol=1e-8)
    # without the direct route CG alone answers at 10^+-3, and its failure
    # at 10^+-4 surfaces unchanged
    monkeypatch.setattr(numerics, "DIRECT_CAP", 100)
    R.equilibrium_potential(_log_uniform_lattice(2, 20, 3, seed=0), (0, 0))
    with pytest.raises(NoConvergence):
        R.equilibrium_potential(_log_uniform_lattice(2, 20, 4, seed=0), (0, 0))


def test_capacity_with_killing_near_the_float_range_stays_quiet():
    import warnings

    # g = A^-1 e_x is about 1e-308 here, so g(x)^2 underflows: cap is the
    # energy of u = g / g(x), and u(x) is 1 exactly
    s = R.lattice_generator(2, c_const=1e308).section(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = R.equilibrium_potential(s, (0, 0))
    assert got.u[(0, 0)] == 1.0
    assert got.cap == pytest.approx(1e308, rel=1e-12)


def test_held_operators_do_not_keep_their_section_alive():
    import gc
    import weakref

    s = R.generate_lattice(2, 6)
    R.equilibrium_potential(s, (0, 0))
    R.gamma(s, (0, 0), (1, 2))
    assert s.operators
    ref = weakref.ref(s)
    gc.disable()
    try:
        del s  # reference counting alone frees it: no cycle through an operator
        assert ref() is None
    finally:
        gc.enable()


def test_interior_capacities_assemble_one_energy_matrix(monkeypatch):
    import royden.potential as potential

    # 40 paths 3i - 3i+1 - 3i+2 with 3i+2 masked; every tenth left ungrounded
    edges, mask = [], []
    for i in range(40):
        a = 3 * i
        edges.append((a, a + 1, 1.0 + i))
        if i % 10:
            edges.append((a + 1, a + 2, 2.0))
            mask.append(a + 2)
    s = R.build_section(120, edges, dirichlet=mask)
    calls = []
    real = potential.energy_matrix

    def counting(sec, subset):
        calls.append(len(subset))
        return real(sec, subset)

    monkeypatch.setattr(potential, "energy_matrix", counting)
    caps = R.interior_capacities(s)
    assert calls == [len(s.interior)]
    A = _dense_laplacian(s)
    want = np.zeros(s.n)
    for i in range(40):
        if i % 10:
            comp = [3 * i, 3 * i + 1]
            want[comp] = 1.0 / np.diag(np.linalg.inv(A[np.ix_(comp, comp)]))
    np.testing.assert_allclose(caps, want[s.interior], rtol=1e-12, atol=0.0)


def test_metric_ops_share_one_factored_operator(monkeypatch):
    import random

    s = R.generate_lattice(3, 6)
    calls = _count_operator_calls(monkeypatch)
    labels = [s.labels[v] for v in s.interior]
    rng = random.Random(3)
    G = np.linalg.inv(_dense_laplacian(s)[np.ix_(s.interior, s.interior)])
    for i in range(20):
        x, y, o = rng.sample(labels, 3)
        xi, yi, oi = (int(np.searchsorted(s.interior, s.index_of(v))) for v in (x, y, o))
        chi = _unit(len(s.interior), (xi, 1.0), (yi, -1.0))
        if i % 2:
            got, Q = R.gamma_o(s, o, x, y), G - np.outer(G[:, oi], G[:, oi]) / (1.0 + G[oi, oi])
        else:
            got, Q = R.gamma(s, x, y).value, G
        assert got == pytest.approx(math.sqrt(chi @ Q @ chi), rel=1e-10)
    # one interior operator for all 20 queries, CG on its first solve only
    assert [args[1].shape[0] for args in calls["energy_matrix"]] == [len(s.interior)]
    assert len(calls["splu"]) == 1
    assert len(calls["cg_solve"]) == 1


def test_direct_route_above_dense_cap():
    import royden.numerics as numerics

    # 6,241 interior vertices: above DENSE_CAP, inside DIRECT_CAP
    s = _log_uniform_lattice(2, 40, 3, seed=0)
    assert len(s.interior) > numerics.DENSE_CAP
    res = R.equilibrium_potential(s, (0, 0))
    # cap(x) = 1 / G(x, x) and gamma(x, masked)^2 = G(x, x): the two come
    # from different operators (the interior without x, and with it)
    masked = s.labels[int(s.mask[0])]
    g = R.gamma(s, (0, 0), masked).value
    assert res.cap == pytest.approx(1.0 / g**2, rel=1e-9)
    # harmonic off x and the mask
    lap = R.formal_laplacian(s, res.u).values
    free = s.interior[s.interior != s.index_of((0, 0))]
    assert np.abs(lap[free]).max() <= 1e-9 * np.abs(lap).max()
    # at 10^+-6 the factor's residual for the unit right-hand side of
    # G(x, x) stays above the default tolerance (6.5e-10 here) and CG's
    # budget runs out, so that is refused; a looser tolerance is met
    wide = _log_uniform_lattice(2, 40, 6, seed=0)
    with pytest.raises(NoConvergence):
        R.gamma(wide, (0, 0), masked)
    assert R.gamma(wide, (0, 0), masked, rel_tol=1e-8).value > 0


def test_interior_capacities_of_components_a_reflection_swaps():
    # two weighted paths at labels -4..-1 and 1..4, mirror images with a
    # killed end each, plus a masked vertex 0 joined to neither: x -> -x
    # swaps the paths, so each block of the sector route spans both
    labels = [-4, -3, -2, -1, 0, 1, 2, 3, 4]
    edges = [(0, 1, 1.0), (1, 2, 3.0), (2, 3, 0.5), (5, 6, 0.5), (6, 7, 3.0), (7, 8, 1.0)]
    c = {0: 2.0, 8: 2.0, 3: 0.25, 5: 0.25}
    s = R.build_section(9, edges, c=c, m={1: 2.0, 7: 2.0}, dirichlet=[4], labels=labels)
    assert len(s.reflections) == 1
    inter = s.interior
    A = _dense_laplacian(s)[np.ix_(inter, inter)]
    want = 1.0 / np.diag(np.linalg.inv(A))
    np.testing.assert_allclose(R.interior_capacities(s), want, rtol=1e-13, atol=0.0)
    lam = scipy.linalg.eigh(A, np.diag(s.m[inter]), eigvals_only=True)
    np.testing.assert_allclose(R.spectrum(s).eigenvalues, lam, rtol=0.0, atol=1e-13 * lam.max())


def test_ut_report_reads_an_ungrounded_gap_level_as_lambda0_zero():
    # Z^2 boxes plus one isolated vertex, neither masked nor killed: the
    # bottom of every gap level is exactly 0, whether its interior is
    # solved dense (122 vertices at r=6) or past the Lanczos shortcut
    # (530 at r=12)
    def build(level):
        box = R.generate_lattice(2, level)
        edges = [(u, v, 1.0) for u, v in zip(*np.nonzero(np.triu(box.adj.toarray())))]
        return R.build_section(box.n + 1, edges, dirichlet=box.mask,
                               labels=box.labels + ("isolated",))

    gen = R.custom_generator(build, (0, 0))
    reports = [
        R.uniform_transience_report(gen, profile_levels=(4, 5, 6), gap_levels=levels)
        for levels in ((4, 5, 6), (10, 11, 12))
    ]
    for rep in reports:
        assert rep.details["gap_lambdas"] == [0.0, 0.0, 0.0]
    assert len({(rep.verdict, rep.evidence) for rep in reports}) == 1
