import numpy as np
import pytest

import royden as R
from royden.errors import (
    InvalidParameter,
    MissingBoundaryValue,
    NotHarmonic,
    UngroundedComponent,
)
from royden.harmonic import require_harmonic

from conftest import CountingGenerator, random_fn, random_section


def test_dirichlet_path_oracle(path4):
    f = R.solve_dirichlet(path4, {0: 0.0, 3: 1.0})
    np.testing.assert_allclose(f.values, [0.0, 1 / 3, 2 / 3, 1.0], atol=1e-12)


def test_dirichlet_errors(path4):
    with pytest.raises(MissingBoundaryValue):
        R.solve_dirichlet(path4, {0: 0.0})
    with pytest.raises(InvalidParameter):
        R.solve_dirichlet(path4, {0: 0.0, 3: 1.0, 1: 0.5})
    free = R.build_section(2, [(0, 1, 1.0)])
    with pytest.raises(UngroundedComponent):
        R.solve_dirichlet(free, {})


def test_dirichlet_solution_is_harmonic():
    rng = np.random.default_rng(21)
    for _ in range(25):
        s = random_section(rng, n_max=30, with_killing=bool(rng.integers(0, 2)))
        data = {s.labels[int(v)]: float(rng.normal()) for v in s.mask}
        f = R.solve_dirichlet(s, data)
        require_harmonic(s, f)  # raises NotHarmonic on failure


def test_require_harmonic_rejects():
    s = R.build_section(3, [(0, 1, 1.0), (1, 2, 1.0)], dirichlet=[0, 2])
    with pytest.raises(NotHarmonic):
        require_harmonic(s, s.fn([0.0, 5.0, 0.0]))


def test_decomposition_oracle(p3_both_masked):
    f = p3_both_masked.fn([1.0, 3.0, 0.0])
    dec = R.royden_decompose(p3_both_masked, f)
    np.testing.assert_allclose(dec.fh.values, [1.0, 0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(dec.f0.values, [0.0, 2.5, 0.0], atol=1e-12)
    e0 = R.energy(p3_both_masked, dec.f0).value
    eh = R.energy(p3_both_masked, dec.fh).value
    assert e0 == pytest.approx(12.5, abs=1e-12)
    assert eh == pytest.approx(0.5, abs=1e-12)
    assert e0 + eh == pytest.approx(13.0, abs=1e-12)


def test_decomposition_properties_random():
    rng = np.random.default_rng(22)
    for _ in range(40):
        s = random_section(rng, n_max=30, with_killing=bool(rng.integers(0, 2)))
        f = random_fn(rng, s)
        dec = R.royden_decompose(s, f)
        # exact pointwise split
        np.testing.assert_allclose(dec.f0.values + dec.fh.values, f.values, atol=1e-12)
        # f0 vanishes on the mask
        assert dec.f0.vanishes_on_mask(1e-12)
        # orthogonality and additive energies
        q = R.energy(s, f).value
        assert dec.orthogonality_residual <= 1e-9 * max(1.0, q)
        q0 = R.energy(s, dec.f0).value
        qh = R.energy(s, dec.fh).value
        assert q0 + qh == pytest.approx(q, rel=1e-9, abs=1e-9)
        # bound preservation
        assert dec.bounds_preserved
        # idempotence: decomposing fh returns (0, fh)
        again = R.royden_decompose(s, dec.fh)
        np.testing.assert_allclose(again.f0.values, 0.0, atol=1e-8 * max(1, abs(f.values).max()))
        np.testing.assert_allclose(again.fh.values, dec.fh.values, atol=1e-8 * max(1, abs(f.values).max()))


def test_max_principle_on_dirichlet_solutions():
    rng = np.random.default_rng(23)
    for _ in range(30):
        s = random_section(rng, n_max=30)
        data = {s.labels[int(v)]: float(rng.normal()) for v in s.mask}
        f = R.solve_dirichlet(s, data)
        rep = R.max_principle_check(s, f)
        assert rep.passed
        assert rep.max_abs_all <= rep.max_abs_mask + 1e-9


def test_truncation_lowers_energy_keeps_harmonic_part():
    s = R.generate_lattice(1, 3)
    f = R.solve_dirichlet(s, {-3: -3.0, 3: 3.0})
    res = R.truncate_harmonic(s, f, 1.5)
    assert res.energy_truncated <= res.energy_input + 1e-12
    assert res.fn.sup_norm <= 1.5 + 1e-12
    assert res.fh_nonconstant
    assert res.decomposition.fh.sup_norm <= 1.5 + 1e-9


def test_truncation_rejects_nonharmonic(p3_both_masked):
    with pytest.raises(NotHarmonic):
        R.truncate_harmonic(p3_both_masked, p3_both_masked.fn([0.0, 9.0, 0.0]), 1.0)
    s = R.generate_lattice(1, 2)
    f = R.solve_dirichlet(s, {-2: 0.0, 2: 1.0})
    for bound in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidParameter):
            R.truncate_harmonic(s, f, bound)


def test_harmonic_boundary_probe():
    # killing at one vertex only: summable; underlying graph recurrent
    rep = R.harmonic_boundary_empty(R.lattice_generator(2, c_origin=1.0))
    assert rep.status == "empty"
    rep = R.harmonic_boundary_empty(R.lattice_generator(3))
    assert rep.status == "nonempty"
    rep = R.harmonic_boundary_empty(R.lattice_generator(1, c_const=0.5))
    assert rep.status == "nonempty"


def test_harmonic_boundary_probe_builds_each_level_once():
    gen = R.tree_generator(3, c_origin=1.0, c_const=0.01)
    counted = CountingGenerator(gen.section, gen.origin)
    rep = R.harmonic_boundary_empty(counted.gen, levels=(2, 3, 5))
    assert counted.levels == [2, 3, 5]
    assert counted.held == [0, 0, 0]
    assert rep.c_partial_sums == tuple(gen.c_partial_sum(lv) for lv in (2, 3, 5))
    assert rep.c_tails == tuple(b - a for a, b in zip(rep.c_partial_sums, rep.c_partial_sums[1:]))
    # the counted generator is a custom one, so both solve on full levels
    ref = R.classify_transience(
        R.custom_generator(gen.with_zero_c().section, gen.origin), levels=(2, 3, 5)
    )
    assert repr(rep.zero_c) == repr(ref)
    # the built-in generator solves on orbit sections
    orbit = R.classify_transience(gen.with_zero_c(), levels=(2, 3, 5))
    assert orbit.profile.values == pytest.approx(ref.profile.values, rel=1e-12, abs=0)


def test_liouville_trends():
    rep = R.liouville_probe(R.tree_generator(3), (3, 4, 5, 6, 7), seed=0)
    assert rep.trend == "non-liouville-trend"
    rep2 = R.liouville_probe(R.lattice_generator(3), (2, 4, 8, 16, 32), seed=0)
    assert rep2.trend == "liouville-trend"
    assert all(a >= b for a, b in zip(rep2.oscillations, rep2.oscillations[1:]))


def test_one_point_summary_lines():
    ut = R.uniform_transience_report(R.lattice_generator(3))
    probe = R.liouville_probe(R.lattice_generator(3), (2, 4, 8, 16, 32), seed=0)
    line = R.one_point_summary(probe, ut)
    assert line == "consistent with one-point Royden compactification"
    tree_probe = R.liouville_probe(R.tree_generator(3), (3, 4, 5), seed=0)
    tree_ut = R.uniform_transience_report(R.tree_generator(3))
    line = R.one_point_summary(tree_probe, tree_ut)
    assert "not one-point" in line
