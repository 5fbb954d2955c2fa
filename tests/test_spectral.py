import json
import math
import tracemalloc

import numpy as np
import pytest

import royden as R
import royden.graph as graph
import royden.spectral as spectral
from royden.cli import main
from royden.energy import energy_matrix
from royden.numerics import dense_eigh, reflection_sectors
from royden.spectral import BoundRow
from royden.errors import EmptyInterior, InvalidParameter, NegativeTime, UngroundedComponent

from conftest import random_fn, random_section


def test_spectrum_path_oracle(path4):
    out = R.spectrum(path4)
    np.testing.assert_allclose(out.eigenvalues, [1.0, 3.0], atol=1e-10)
    # eigenfunction extends by zero onto the mask
    phi = out.eigenfunction(0)
    assert phi.values[0] == 0.0 and phi.values[3] == 0.0
    with pytest.raises(InvalidParameter):
        R.spectrum(path4, vectors=False).eigenfunction(0)


def test_spectrum_respects_measure(path4):
    heavy = R.with_measure(path4, [1.0, 4.0, 4.0, 1.0])
    lam = R.spectrum(heavy).eigenvalues
    assert lam[0] == pytest.approx(0.25, abs=1e-10)  # (A - lam M) with M=4I inside
    assert lam[1] == pytest.approx(0.75, abs=1e-10)


def test_spectrum_k_selection(path4):
    out = R.spectrum(path4, k=1)
    np.testing.assert_allclose(out.eigenvalues, [1.0], atol=1e-10)
    with pytest.raises(InvalidParameter):
        R.spectrum(path4, k=0)
    with pytest.raises(InvalidParameter):
        R.spectrum(path4, k=5)


def test_spectrum_dense_route_above_cap_refused(monkeypatch):
    from royden import spectral
    from royden.errors import DimensionCap

    # the 9-vertex interior of Z^2 r=2 over a cap of 5: k = None, n and
    # n - 1 want the dense route and are refused before any Lanczos run
    s = R.generate_lattice(2, 2)
    want = R.spectrum(s).eigenvalues
    monkeypatch.setattr(spectral, "DENSE_CAP", 5)
    monkeypatch.setattr(spectral, "DENSE_SHORTCUT", 2)
    runs = []
    real = spectral.eigsh

    def counted(*args, **kwargs):
        runs.append(kwargs["k"])
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigsh", counted)
    for k in (None, 9, 8):
        with pytest.raises(DimensionCap):
            R.spectrum(s, k=k)
    assert runs == []
    out = R.spectrum(s, k=3)
    assert (out.method, runs) == ("lanczos", [3])
    np.testing.assert_allclose(out.eigenvalues, want[:3], rtol=1e-10)


def test_spectrum_empty_interior():
    s = R.build_section(2, [(0, 1, 1.0)], dirichlet=[0, 1])
    for k in (None, 1):
        with pytest.raises(EmptyInterior):
            R.spectrum(s, k=k)


def test_lanczos_agrees_with_dense():
    # force the sparse path by monkeypatching the shortcut
    import royden.spectral as spectral

    gen = R.lattice_generator(2)
    s = gen.section(6)
    dense = R.spectrum(s).eigenvalues[:4]
    old = spectral.DENSE_SHORTCUT
    spectral.DENSE_SHORTCUT = 1
    try:
        sparse = R.spectrum(s, k=4).eigenvalues
    finally:
        spectral.DENSE_SHORTCUT = old
    np.testing.assert_allclose(sparse, dense, atol=1e-8)


@pytest.mark.parametrize(
    "make, k",
    [
        (lambda: R.generate_tree(3, 10), 8),
        (lambda: R.generate_tree(3, 10), 20),
        (lambda: R.generate_lattice(2, 20), 8),
        (lambda: R.generate_lattice(3, 7), 8),
    ],
    ids=["tree-depth10-k8", "tree-depth10-k20", "z2-r20-k8", "z3-r7-k8"],
)
def test_lanczos_finds_every_eigenvalue_on_symmetric_sections(make, k):
    # every automorphism fixes a constant start vector, so its Krylov space
    # misses the eigenvalues whose eigenvectors are not symmetric (on the
    # tree, 0.3100 and 0.3421 come in pairs and triples)
    s = make()
    dense = R.spectrum(s, vectors=False).eigenvalues
    sparse = R.spectrum(s, k=k, vectors=False)
    assert sparse.method == "lanczos"
    np.testing.assert_allclose(sparse.eigenvalues, dense[:k], rtol=0, atol=1e-10 * dense[-1])


def test_lanczos_failure_is_no_convergence(monkeypatch):
    from scipy.sparse.linalg import ArpackNoConvergence

    from royden import spectral
    from royden.errors import NoConvergence

    def fails(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(spectral, "eigsh", fails)
    with pytest.raises(NoConvergence):
        R.spectrum(R.generate_tree(3, 10), k=8)


def test_heat_apply_oracles(p3_both_masked):
    # single interior vertex, lambda = 2: e^{-2t} decay of the middle value
    f = p3_both_masked.fn([0.0, 1.0, 0.0])
    for t in (0.0, 0.1, 1.0):
        out = R.heat_apply(p3_both_masked, t, f)
        assert out.values[1] == pytest.approx(math.exp(-2.0 * t), abs=1e-12)
        assert out.values[0] == 0.0 and out.values[2] == 0.0
    with pytest.raises(NegativeTime):
        R.heat_apply(p3_both_masked, -0.1, f)


def test_heat_semigroup_markov_positivity():
    rng = np.random.default_rng(31)
    for _ in range(15):
        s = random_section(rng, n_max=25, with_measure=True)
        f = random_fn(rng, s, vanish_on_mask=True)
        one = R.heat_apply(s, 0.7, f)
        two = R.heat_apply(s, 0.3, R.heat_apply(s, 0.4, f))
        np.testing.assert_allclose(one.values, two.values, atol=1e-9)
        assert one.sup_norm <= f.sup_norm + 1e-9
        g = s.fn(np.abs(f.values))
        assert R.heat_apply(s, 0.5, g).values.min() >= -1e-10


def test_heat_trace(path4):
    assert R.heat_trace(path4, 1.0) == pytest.approx(
        math.exp(-1.0) + math.exp(-3.0), abs=1e-12
    )


def test_bounds_path_oracle(path4):
    rep = R.eigenvalue_bounds_check(path4)
    assert rep.passed
    assert rep.C == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-10)
    assert [row.bound for row in rep.rows] == pytest.approx([0.75, 1.5], abs=1e-10)


def test_bounds_one_by_one_equality(p3_both_masked):
    rep = R.eigenvalue_bounds_check(p3_both_masked)
    assert rep.passed
    # cap = 2, C^2 = 1/2, bound = 1/(C^2 * m) = 2 = lambda exactly
    assert rep.rows[0].bound == pytest.approx(2.0, abs=1e-10)
    assert rep.rows[0].eigenvalue == pytest.approx(2.0, abs=1e-10)
    assert rep.rows[0].slack == pytest.approx(0.0, abs=1e-10)


def test_bounds_explicit_enumeration(path4):
    rep = R.eigenvalue_bounds_check(path4, enumeration=[2, 1])
    assert rep.passed
    assert list(rep.enumeration) == [2, 1]


def test_ultracontractivity_fixture_equality(p3_both_masked):
    rep = R.ultracontractivity_check(p3_both_masked, 0.25, trials=20, seed=0)
    assert rep.passed
    # equality case: ratio reaches the bound at t = 1/4
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(InvalidParameter):
        R.ultracontractivity_check(p3_both_masked, 0.0, trials=5, seed=0)


def test_spectral_gap_criterion(p3_both_masked):
    rep = R.spectral_gap_criterion(p3_both_masked, trials=16, seed=1)
    assert rep.applicable and rep.verified
    assert rep.lambda0 == pytest.approx(2.0, abs=1e-10)
    assert rep.cap_lower_bound == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("n", [600, 5000])
def test_ungrounded_section_has_exact_zero_gap(n):
    # unmasked, killing-free path: the constants make lambda0 = 0, and the
    # shift-invert factorization at 0 would be singular
    s = R.build_section(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    with pytest.raises(UngroundedComponent):
        R.spectrum(s, k=1)
    rep = R.spectral_gap_criterion(s, trials=2)
    assert not rep.applicable
    assert rep.lambda0 == 0.0


def _per_row_reference(s, order, eigenvalues, C):
    """Rows and verdict of the bounds check built one row at a time, the
    way the report was built before it held arrays. The remaining masses
    are suffix sums in removal order, added from the last removed up."""
    remaining = [0.0] * len(order)
    acc = 0.0
    for n in reversed(range(len(order))):
        acc += float(s.m[order[n]])
        remaining[n] = acc
    rows, passed = [], True
    for n in range(len(order)):
        lam = float(eigenvalues[n])
        bound = 1.0 / (C**2 * remaining[n])
        slack = lam - bound
        if slack < -1e-9 * max(1.0, abs(lam)):
            passed = False
        removed = int(order[n - 1]) if n > 0 else None
        rows.append(BoundRow(n, removed, remaining[n], bound, lam, slack))
    return tuple(rows), passed


@pytest.mark.parametrize("seed", range(8))
def test_bounds_report_matches_the_per_row_loop(seed):
    rng = np.random.default_rng(seed)
    s = random_section(rng, n_max=60, with_killing=bool(seed % 2), with_measure=True)
    inter = s.interior
    shuffled = rng.permutation(inter)
    cases = [
        ("measure-decreasing", inter[np.argsort(-s.m[inter], kind="stable")]),
        ([s.labels[v] for v in shuffled], shuffled),
    ]
    for enumeration, order in cases:
        rep = R.eigenvalue_bounds_check(s, enumeration)
        # the same eigenvalues and constant feed both
        rows, passed = _per_row_reference(s, order, rep.eigenvalue, rep.C)
        assert rep.rows == rows
        assert rep.passed is passed
        assert rep.enumeration == tuple(int(v) for v in order)
        for got, want in zip(rep.rows, rows):  # bit for bit, signed zeros included
            assert got.remaining_mass.hex() == want.remaining_mass.hex()
            assert got.bound.hex() == want.bound.hex()


def test_bounds_refuses_a_remaining_mass_that_rounds_away():
    # 1e20 + light rounds to 1e20 or 1e20 + 16384, yet once the heavy
    # vertex is removed the light vertex's own mass remains, not the
    # 0 or 16384 a running difference from the total leaves
    for light in (1.0, 1e4):
        s = R.build_section(3, [(0, 1, 1.0), (1, 2, 1.0)], m={0: 1e20, 1: light}, dirichlet=[2])
        rep = R.eigenvalue_bounds_check(s)
        assert rep.remaining_mass.tolist() == [1e20 + light, light]


def test_bounds_report_fields_are_python_scalars(path4):
    rep = R.eigenvalue_bounds_check(path4)
    assert type(rep.passed) is bool and type(rep.C) is float and type(rep.min_cap) is float
    assert all(type(v) is int for v in rep.enumeration)
    for row in rep.rows:
        assert type(row.n) is int
        assert row.removed_vertex is None if row.n == 0 else type(row.removed_vertex) is int
        for value in (row.remaining_mass, row.bound, row.eigenvalue, row.slack):
            assert type(value) is float


def test_bounds_command_keeps_its_keys_and_types(capsys, tmp_path):
    path = tmp_path / "z1r3.graph"
    path.write_text(R.serialize_graph_file(R.generate_lattice(1, 3)))
    assert main(["bounds", "--graph", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == ["C", "command", "enumeration", "min_cap", "passed", "rows"]
    assert payload["passed"] is True
    assert all(type(v) is str for v in payload["enumeration"])
    assert [row["n"] for row in payload["rows"]] == list(range(5))
    for row in payload["rows"]:
        assert sorted(row) == ["bound", "eigenvalue", "n", "remaining_mass", "slack"]
        assert all(type(row[key]) is float for key in ("bound", "eigenvalue", "remaining_mass", "slack"))


def test_bounds_report_retains_arrays_not_row_objects():
    s = R.generate_lattice(3, 6)  # 1,331 interior vertices
    R.eigenvalue_bounds_check(s)  # fill the section's own caches first
    tracemalloc.start()
    try:
        rep = R.eigenvalue_bounds_check(s)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rep.eigenvalue) == 1331
    assert retained < 0.3 * 2**20


def test_dense_spectrum_solves_one_block_per_reflection_sector(monkeypatch):
    sizes = []

    def counted(A, M, **options):
        sizes.append(A.shape[0])
        return dense_eigh(A, M, **options)

    monkeypatch.setattr(spectral, "dense_eigh", counted)
    R.spectrum(R.generate_lattice(3, 3), vectors=False)
    assert sorted(sizes) == [8, 12, 12, 12, 18, 18, 18, 27]  # 5^3 interior, 8 sectors
    # no reflection: the one sector is the whole interior, solved as before
    tree = R.generate_tree(3, 5)
    sizes.clear()
    got = R.spectrum(tree)
    assert sizes == [len(tree.interior)]
    want = dense_eigh(energy_matrix(tree, tree.interior).matrix, tree.m[tree.interior])
    np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
    np.testing.assert_array_equal(got.eigenvectors, want.eigenvectors)


def test_sector_bases_are_built_once_per_section(monkeypatch):
    built = []

    def counted(involutions, n):
        built.append(n)
        return reflection_sectors(involutions, n)

    monkeypatch.setattr(graph, "reflection_sectors", counted)
    s = R.generate_lattice(2, 4)
    R.eigenvalue_bounds_check(s)
    R.spectrum(s, k=5)
    assert built == [len(s.interior)]


def test_dense_spectrum_keeps_the_k_lowest_pairs_across_sectors():
    s = R.generate_lattice(2, 4)  # 49 interior vertices, 4 sectors
    A = energy_matrix(s, s.interior).matrix.toarray()
    mass = s.m[s.interior]
    full = R.spectrum(s)
    for k in (1, 6, 30):
        got = R.spectrum(s, k=k)
        np.testing.assert_array_equal(got.eigenvalues, full.eigenvalues[:k])
        V = got.eigenvectors
        assert V.shape == (49, k)
        np.testing.assert_allclose(A @ V, (mass[:, None] * V) * got.eigenvalues, atol=1e-12)
        np.testing.assert_allclose(V.T @ (mass[:, None] * V), np.eye(k), atol=1e-12)


def test_dense_spectrum_with_vectors_holds_two_square_arrays_at_peak():
    # the working copy and LAPACK's eigenvectors on one sector; the 8
    # sectors of Z^3 r=5 hold less
    for s, bound in ((R.generate_tree(3, 9), 2.2), (R.generate_lattice(3, 5), 1.3)):
        R.spectrum(s)  # fill the section's own caches first
        n = len(s.interior)
        tracemalloc.start()
        try:
            R.spectrum(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * 8 * n * n


def test_ultracontractivity_trials_match_one_draw_per_trial():
    for s, t, trials in ((R.generate_tree(3, 4), 0.5, 50), (R.generate_lattice(2, 3), 0.2, 60)):
        rep = R.ultracontractivity_check(s, t, trials=trials, seed=3)
        spec = R.spectrum(s)
        mass = s.m[spec.interior]
        rng = np.random.default_rng(3)
        want = 0.0
        for _ in range(trials):  # more trials than the 25-vertex interior of Z^2 r=3
            f = rng.standard_normal(len(mass))
            heated = spec.eigenvectors @ (np.exp(-t * spec.eigenvalues) * (spec.eigenvectors.T @ (mass * f)))
            want = max(want, np.abs(heated).max() / (rep.prefactor * math.sqrt(mass @ (f * f))))
        assert rep.max_ratio == pytest.approx(want, rel=1e-12)
        assert rep.passed


def test_heat_trace_answers_a_time_grid_from_one_eigensolve(monkeypatch):
    s = R.generate_lattice(2, 5)
    times = [0.0, 0.1, 1.0, 10.0]
    want = [R.heat_trace(s, t) for t in times]
    calls = []
    real = spectral.spectrum

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "spectrum", counted)
    assert R.heat_trace(s, times) == want  # bit for bit
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(NegativeTime, match="got -2.0"):
        R.heat_trace(s, [0.5, -2.0, -3.0])
    assert calls == []
