import numpy as np
import pytest

import royden as R
from royden.energy import energy_matrix
from royden.errors import SectionMismatch

from conftest import random_fn, random_section


def test_energy_by_hand():
    s = R.build_section(3, [(0, 1, 2.0), (1, 2, 1.0)], c={0: 0.5})
    f = s.fn([1.0, 0.0, -1.0])
    e = R.energy(s, f)
    # edges: 2*(1-0)^2/1 ... energy = sum over unordered pairs
    assert e.edge_part == pytest.approx(2.0 * 1.0 + 1.0 * 1.0)
    assert e.killing_part == pytest.approx(0.5)
    assert float(e) == pytest.approx(3.5)


def test_energy_inner_polarization():
    rng = np.random.default_rng(1)
    for _ in range(25):
        s = random_section(rng, n_max=25, with_killing=True)
        f, g = random_fn(rng, s), random_fn(rng, s)
        lhs = R.energy_inner(s, f, g)
        quad = 0.25 * (
            R.energy(s, s.fn(f.values + g.values)).value
            - R.energy(s, s.fn(f.values - g.values)).value
        )
        assert lhs == pytest.approx(quad, abs=1e-9 * max(1, abs(lhs)))


def test_energy_markov_contraction():
    # normal contraction never raises the energy
    rng = np.random.default_rng(2)
    for _ in range(25):
        s = random_section(rng, n_max=25, with_killing=True)
        f = random_fn(rng, s)
        g = f.clamp(-0.5, 0.7)
        assert R.energy(s, g).value <= R.energy(s, f).value + 1e-12


def test_o_norm():
    s = R.build_section(2, [(0, 1, 1.0)])
    f = s.fn([2.0, 1.0])
    assert R.o_norm(s, f, 0) == pytest.approx(np.sqrt(1.0 + 4.0))


def test_formal_laplacian_and_greens_formula():
    rng = np.random.default_rng(3)
    for _ in range(25):
        s = random_section(rng, n_max=25, with_killing=True)
        f, g = random_fn(rng, s), random_fn(rng, s)
        Lf = R.formal_laplacian(s, f)
        # Green: <Lf, g> over all vertices equals the energy pairing
        assert float(Lf.values @ g.values) == pytest.approx(
            R.energy_inner(s, f, g), abs=1e-9
        )


def test_energy_matrix_is_wired_restriction():
    s = R.build_section(3, [(0, 1, 1.0), (1, 2, 1.0)], dirichlet=[2])
    A = energy_matrix(s, s.interior).dense()
    # diagonal keeps the full weighted degree (mask short-circuited)
    np.testing.assert_allclose(A, [[1.0, -1.0], [-1.0, 2.0]])


def test_energy_matrix_assembles_its_csr_only_when_asked():
    import scipy.sparse as sp

    s = R.generate_lattice(3, 4)
    sub = s.interior[::2]
    op = energy_matrix(s, sub)
    b = np.random.default_rng(0).standard_normal(len(sub))
    x = op.solve(b).x  # CG on the red-black split
    assert op._matrix is None
    # the CSR, once asked for, holds exactly the entries of the wired restriction
    want = (sp.diags(s.weighted_degree + s.c) - s.adj).tocsr()[sub][:, sub]
    assert op.matrix.nnz == want.nnz
    assert (op.matrix != want).nnz == 0
    assert np.linalg.norm(b - op.apply(x)) <= 1e-10 * np.linalg.norm(b)


def test_colours_are_a_2_colouring_on_bipartite_sections():
    # builders give coordinate-sum and depth parity; any other section
    # gets BFS depth parity per component
    built = [
        R.generate_lattice(2, 3),
        R.generate_tree(3, 3),
        R.lattice_generator(3).orbits(3).section,
        R.tree_generator(3).orbits(4).section,
    ]
    for s in built + [R.parse_graph_file(R.serialize_graph_file(t)) for t in built]:
        coo = s.adj.tocoo()
        assert set(np.unique(s.colour)) <= {0, 1}
        assert np.all(s.colour[coo.row] != s.colour[coo.col])
    # an odd cycle cannot be 2-coloured; an isolated vertex has colour 0
    s = R.build_section(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    assert s.colour.tolist() == [0, 1, 1, 0]


def test_energy_quadratic_vs_matrix():
    rng = np.random.default_rng(4)
    for _ in range(25):
        s = random_section(rng, n_max=25, with_killing=True)
        f = random_fn(rng, s, vanish_on_mask=True)
        A = energy_matrix(s, s.interior)
        v = f.values[s.interior]
        assert float(v @ A.apply(v)) == pytest.approx(R.energy(s, f).value, abs=1e-9)


def test_section_mismatch_guard():
    a = R.build_section(2, [(0, 1, 1.0)])
    b = R.build_section(2, [(0, 1, 1.0)])
    f = a.fn([1.0, 0.0])
    with pytest.raises(SectionMismatch):
        R.energy(b, f)
