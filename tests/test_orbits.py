"""Orbit sections against the full levels they stand for.

An orbit section merges each orbit of the automorphisms fixing the
origin, the mask and c into one vertex. These tests check the quotient
itself against the full level, and every anchored quantity solved on it
(the origin's capacity, the bottom of the Dirichlet spectrum, the window
scan) against the same quantity solved on the full level.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import royden as R
import royden.potential as potential
from royden.errors import SizeOverflow
from royden.potential import _window_scan, equilibrium_potential
from royden.spectral import spectrum

RTOL = 1e-12
FULL_MAX = 5000  # largest full level compared, in vertices
KILLING = [(0.0, 0.0), (1.0, 0.0), (0.0, 0.05), (0.5, 0.2)]  # (c_origin, c_const)


def _levels(gen):
    """Every level whose full section has at most FULL_MAX vertices."""
    levels, level = [], 1
    while gen.orbits(level).size.sum() <= FULL_MAX:
        levels.append(level)
        level += 1
    return levels


CASES = (
    # d = 1 has a level per two vertices: every level up to 40, then one
    # whose full solve still converges within the CG budget
    [(f"lattice:d=1,c0={a},c={b}", R.lattice_generator(1, a, b), lv)
     for a, b in KILLING for lv in list(range(1, 41)) + [1000]]
    + [(f"lattice:d={d},c0={a},c={b}", R.lattice_generator(d, a, b), lv)
       for d in (2, 3) for a, b in KILLING for lv in _levels(R.lattice_generator(d))]
    + [(f"tree:k={k},c0={a},c={b}", R.tree_generator(k, a, b), lv)
       for k in (3, 4) for a, b in KILLING for lv in _levels(R.tree_generator(k))]
)


def _rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize(
    "gen, level", [case[1:] for case in CASES], ids=[f"{c[0]}-{c[2]}" for c in CASES]
)
def test_orbit_section_is_the_quotient_of_the_full_level(gen, level):
    full = gen.section(level)
    orb, size = gen.orbits(level)
    # every full label maps to an orbit label, and every orbit label is a full label
    assert set(orb.labels) <= set(full.labels)
    of = np.array([orb.label_index[gen.orbit_label(lab)] for lab in full.labels])
    P = sp.csr_matrix((np.ones(full.n), (np.arange(full.n), of)), shape=(full.n, orb.n))

    np.testing.assert_array_equal(np.bincount(of, minlength=orb.n), size)
    assert (orb.adj != orb.adj.T).nnz == 0
    assert orb.adj.diagonal().max() == 0.0
    summed = (P.T @ full.adj @ P).toarray()
    np.fill_diagonal(summed, 0.0)  # edges inside an orbit are dropped
    np.testing.assert_array_equal(orb.adj.toarray(), summed)
    assert orb.m.sum() == full.n
    np.testing.assert_array_equal(orb.m, P.T @ full.m)
    np.testing.assert_allclose(orb.c, P.T @ full.c, rtol=RTOL, atol=0)
    assert orb.c.sum() == pytest.approx(full.c.sum(), rel=RTOL, abs=0)
    np.testing.assert_array_equal(orb.dirichlet[of], full.dirichlet)

    # the origin is an orbit of its own, and the anchored quantities agree
    assert size[orb.index_of(gen.origin)] == 1
    cap = equilibrium_potential(orb, gen.origin).cap
    assert _rel(cap, equilibrium_potential(full, gen.origin).cap) <= RTOL
    # a dense eigensolve is exact to a few ulps of the spectral radius, not
    # of lambda0: on Z^1 from level 28 on that is above 1e-12 relative, and
    # the full route errs as much as the orbit route
    lam, want = spectrum(orb, k=1).eigenvalues[0], spectrum(full, k=1).eigenvalues[0]
    radius = 2 * np.max((full.weighted_degree + full.c) / full.m)  # Gershgorin
    assert abs(lam - want) <= RTOL * want + 16 * np.finfo(float).eps * radius


@pytest.mark.parametrize(
    "gen, window_level",
    [(R.lattice_generator(1, 1.0), 3), (R.lattice_generator(2), 2),
     (R.lattice_generator(2, 0.5, 0.2), 1), (R.lattice_generator(3), 2),
     (R.lattice_generator(3, 0.0, 0.05), 1), (R.tree_generator(3), 2),
     (R.tree_generator(4, 1.0, 0.05), 2)],
    ids=["lattice:d=1,c0=1-3", "lattice:d=2-2", "lattice:d=2,c0=0.5,c=0.2-1", "lattice:d=3-2",
         "lattice:d=3,c=0.05-1", "tree:k=3-2", "tree:k=4,c0=1,c=0.05-2"],
)
def test_window_scan_copies_equal_each_vertex_own_solve(gen, window_level):
    scan_levels, reps, columns = _window_scan(gen, window_level, 1e-10)
    window = gen.section(window_level)
    xs = [window.labels[v] for v in window.interior]
    first = {}  # the first window label of each orbit, in window order
    for x in xs:
        first.setdefault(gen.orbit_label(x), x)
    assert reps == list(first.values())
    slot = {orbit: i for i, orbit in enumerate(first)}
    for level, column in zip(scan_levels, columns):
        assert len(column) == len(reps)
        sec = gen.section(level)
        own = [equilibrium_potential(sec, x).cap for x in xs]
        orbit_value = [column[slot[gen.orbit_label(x)]] for x in xs]
        np.testing.assert_allclose(orbit_value, own, rtol=RTOL, atol=0)


def test_window_scan_solves_once_per_orbit(monkeypatch):
    import royden.numerics as numerics

    solved = []
    real = numerics.cg_solve

    def record(A, rhs, **kwargs):
        solved.append(A.dimension)
        return real(A, rhs, **kwargs)

    monkeypatch.setattr(numerics, "cg_solve", record)
    monkeypatch.setattr(numerics, "DIRECT_CAP", 0)  # no factor to fall back on
    gen = R.lattice_generator(3)
    _, reps, _ = _window_scan(gen, 2, 1e-10)
    # 27 window vertices fall into 4 orbits: one CG solve each at each of 3
    # levels, all against the interior operator of that level
    assert len(gen.section(2).interior) == 27
    assert len(reps) == 4
    assert sorted(gen.orbit_label(x) for x in reps) == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    assert solved == [3**3] * 4 + [7**3] * 4 + [15**3] * 4


def _full_builds(gen):
    """gen with its full-level builder counted: (generator, built levels)."""
    built = []
    build = gen._build

    def counted(level):
        built.append(level)
        return build(level)

    return replace(gen, _build=counted), built


def test_anchored_quantities_build_no_full_level():
    gen, built = _full_builds(R.lattice_generator(3))
    R.capacity_profile(gen)
    R.classify_transience(gen, levels=(2, 4))
    assert built == []
    killed, killed_built = _full_builds(R.lattice_generator(2, c_origin=1.0))
    assert R.harmonic_boundary_empty(killed).status == "empty"
    assert killed_built == []
    rep = R.uniform_transience_report(gen)
    assert built == [2, 4, 8]  # the window scan alone
    assert rep.verdict == "certified-UT"

    # off the origin, the full level
    R.capacity_profile(gen, x=(1, 0, 0), levels=(2, 3))
    assert built == [2, 4, 8, 2, 3]

    tree, tree_built = _full_builds(R.tree_generator(3))
    rep = R.uniform_transience_report(tree)
    assert tree_built == [2, 4, 8]  # the gap levels are orbit sections too
    assert rep.details["gap_delta"] == 1.0  # per vertex, not per orbit


@pytest.mark.parametrize("make", [R.lattice_generator, R.tree_generator])
def test_built_in_reports_match_full_route(make):
    """The same reports from orbit sections and from full levels."""
    arg = 3 if make is R.tree_generator else 2
    for a, b in KILLING:
        gen = make(arg, a, b)
        full = R.custom_generator(gen.section, gen.origin, family=gen.family,
                                  is_vertex_transitive=gen.is_vertex_transitive)
        levels, gap_levels = (2, 3, 4, 6), (4, 5, 6)
        got = R.uniform_transience_report(gen, profile_levels=levels, gap_levels=gap_levels)
        want = R.uniform_transience_report(full, profile_levels=levels, gap_levels=gap_levels)
        assert (got.verdict, got.evidence) == (want.verdict, want.evidence)
        assert got.details.keys() == want.details.keys()
        for key in ("gap_lambdas", "gap_delta", "profile_limit"):
            if key in want.details:
                assert got.details[key] == pytest.approx(want.details[key], rel=RTOL, abs=0)
        assert got.inf_cap_estimate == pytest.approx(want.inf_cap_estimate, rel=RTOL, abs=0)
        assert got.window_inf_cap == pytest.approx(want.window_inf_cap, rel=RTOL, abs=0)
        hb = R.harmonic_boundary_empty(gen, levels=levels)
        hb_full = R.harmonic_boundary_empty(full, levels=levels)
        assert hb.status == hb_full.status
        assert hb.c_partial_sums == pytest.approx(hb_full.c_partial_sums, rel=RTOL, abs=0)
        assert hb.zero_c.profile.values == pytest.approx(hb_full.zero_c.profile.values, rel=RTOL, abs=0)


def test_gap_delta_is_the_least_mass_of_one_vertex():
    # a heavier root keeps the symmetry; its orbit's summed mass (5) then
    # exceeds the lightest orbit's (3 at depth 1), whose vertices weigh 1 each
    def heavy_root(level, sec):
        m = sec.m.copy()
        m[sec.index_of("r")] = 5.0
        return replace(sec, m=m)

    gen = R.tree_generator(3)._derived("", heavy_root)
    full = R.custom_generator(gen.section, gen.origin, family="tree")
    got = R.uniform_transience_report(gen, profile_levels=(3, 4, 5), gap_levels=(4, 5, 6))
    want = R.uniform_transience_report(full, profile_levels=(3, 4, 5), gap_levels=(4, 5, 6))
    assert got.details["gap_delta"] == want.details["gap_delta"] == 1.0
    assert got.details["gap_lambdas"] == pytest.approx(want.details["gap_lambdas"], rel=RTOL, abs=0)


def test_orbit_builds_keep_the_full_size_cap(monkeypatch):
    monkeypatch.setenv("ROYDEN_VERTEX_CAP", "1000")
    cases = [(R.lattice_generator(3), 5), (R.lattice_generator(1), 500), (R.tree_generator(3), 9)]
    for gen, level in cases:
        with pytest.raises(SizeOverflow):
            gen.section(level)
        with pytest.raises(SizeOverflow):
            gen.orbits(level)
        gen.orbits(level - 1)


def test_derived_and_custom_generators():
    gen = R.tree_generator(3, c_origin=1.0, c_const=0.5)
    zero = gen.with_zero_c()
    orb, size = zero.orbits(4)
    assert orb.labels == gen.orbits(4).section.labels
    assert np.all(orb.c == 0.0)
    np.testing.assert_array_equal(size, gen.orbits(4).size)
    assert zero.orbit_label("r.2.1") == "r.0.0"

    custom = R.custom_generator(lambda level: R.generate_lattice(2, level), (0, 0))
    orb, size = custom.orbits(3)
    assert orb.n == 49 and np.all(size == 1.0)
    assert custom.orbit_label((2, -1)) == (2, -1)
    assert R.lattice_generator(3).orbit_label((-2, 0, 1)) == (0, 1, 2)
    assert R.lattice_generator(1).orbit_label(-4) == 4
