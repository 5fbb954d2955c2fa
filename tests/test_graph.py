import os
from dataclasses import replace

import numpy as np
import pytest

import royden as R
from royden.errors import (
    DuplicateEdgeConflict,
    GraphSyntaxError,
    InvalidParameter,
    NegativeWeight,
    NonPositiveMeasure,
    SelfLoop,
    SizeOverflow,
    UnknownVertex,
)

from conftest import random_section


def test_build_basic_counts():
    s = R.build_section(4, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0)], dirichlet=[3])
    assert s.n == 4
    assert s.adj.nnz == 6  # symmetric storage
    assert list(s.interior) == [0, 1, 2]
    assert list(s.mask) == [3]
    np.testing.assert_allclose(s.weighted_degree, [1.0, 1.5, 2.5, 2.0])


def test_build_rejects_bad_input():
    with pytest.raises(SelfLoop):
        R.build_section(2, [(0, 0, 1.0)])
    with pytest.raises(NegativeWeight):
        R.build_section(2, [(0, 1, -1.0)])
    with pytest.raises(NegativeWeight):
        R.build_section(2, [(0, 1, 0.0)])
    with pytest.raises(DuplicateEdgeConflict):
        R.build_section(2, [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(NonPositiveMeasure):
        R.build_section(2, [(0, 1, 1.0)], m={0: 0.0})
    with pytest.raises(UnknownVertex):
        R.build_section(2, [(0, 5, 1.0)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(InvalidParameter):
        R.build_section(2, [(0, 1, bad)])
    with pytest.raises(InvalidParameter):
        R.build_section(2, [(0, 1, 1.0)], c={0: bad})
    with pytest.raises(InvalidParameter):
        R.build_section(2, [(0, 1, 1.0)], m=[1.0, bad])
    with pytest.raises(InvalidParameter):
        R.with_measure(R.build_section(2, [(0, 1, 1.0)]), {1: bad})
    for record in (f"E 0 1 {bad}", f"C 0 {bad}", f"M 1 {bad}"):
        with pytest.raises(GraphSyntaxError) as err:
            R.parse_graph_file(f"V 2\nE 0 1 1.0\n{record}\n")
        assert err.value.line == 3
    if bad > 0:
        with pytest.raises(InvalidParameter):
            R.lattice_generator(2, c_origin=bad)
    with pytest.raises(InvalidParameter):
        R.tree_generator(3, c_const=bad)


def test_validate_flags_non_finite_entries():
    from dataclasses import replace

    s = R.build_section(3, [(0, 1, 1.0), (1, 2, 1.0)], dirichlet=[2])
    rep = replace(s, c=np.array([np.nan, 0.0, 0.0])).validate()
    assert not rep.ok and "non-finite killing term" in rep.issues
    rep = replace(s, m=np.array([1.0, np.inf, 1.0])).validate()
    assert not rep.ok and "non-finite measure" in rep.issues
    adj = s.adj.copy()
    adj.data[:] = np.nan
    rep = replace(s, adj=adj).validate()
    assert not rep.ok and "non-finite edge weight stored" in rep.issues


def test_duplicate_edge_same_weight_allowed():
    s = R.build_section(2, [(0, 1, 1.5), (1, 0, 1.5)])
    assert s.adj[0, 1] == 1.5


def test_vertex_cap_env(monkeypatch):
    monkeypatch.setenv("ROYDEN_VERTEX_CAP", "10")
    with pytest.raises(SizeOverflow):
        R.generate_lattice(2, 2)  # 25 vertices
    monkeypatch.delenv("ROYDEN_VERTEX_CAP")
    assert R.generate_lattice(2, 2).n == 25


@pytest.mark.parametrize(
    "build",
    [
        lambda: R.tree_generator(3).section(400_000),
        lambda: R.lattice_generator(10_000).section(1),
        lambda: R.lattice_generator(100_000_000),
        lambda: R.tree_generator(10**5000).section(1),
        lambda: R.lattice_generator(10**5000),
    ],
    ids=["tree-depth-400000", "lattice-d-10000", "lattice-d-1e8", "tree-k-1e5000", "lattice-d-1e5000"],
)
def test_size_checks_stop_at_the_cap(build):
    # the vertex count is never carried far past the cap, and the
    # message names the cap and the family, never a count or a parameter
    # that may be too long for str()
    with pytest.raises(SizeOverflow, match=f"needs more than the cap of {R.vertex_cap()} vertices$"):
        build()


def test_index_of_prefers_labels():
    s = R.generate_lattice(1, 3)  # labels are coordinates -3..3
    assert s.labels[s.index_of(0)] == 0
    assert s.index_of(-3) == 0
    assert s.index_of(3) == 6
    with pytest.raises(UnknownVertex):
        s.index_of(99)


def test_validation_report():
    s = R.build_section(5, [(0, 1, 1.0), (2, 3, 1.0)], dirichlet=[1], c={2: 1.0})
    rep = s.validate()
    assert rep.ok and not rep.issues
    assert rep.full_component_count == 3
    # {0} grounded via mask, {2,3} via killing, {4} isolated ungrounded
    assert sorted(rep.interior_component_sizes) == [1, 1, 2]
    assert sum(rep.interior_component_grounded) == 2


def test_lattice_structure():
    s = R.generate_lattice(2, 2)
    assert s.n == 25
    assert len(s.mask) == 16  # sup-norm shell
    assert len(s.interior) == 9
    origin = s.index_of((0, 0))
    row = s.adj.getrow(origin)
    assert row.nnz == 4 and np.allclose(row.data, 1.0)


def test_tree_structure():
    s = R.generate_tree(3, 3)
    # 1 + 3 + 6 + 12 vertices, leaves at depth 3 masked
    assert s.n == 22
    assert len(s.mask) == 12
    root = s.index_of("r")
    assert s.adj.getrow(root).nnz == 3
    for v in s.interior:
        if v != root:
            assert s.adj.getrow(v).nnz == 3  # parent + 2 children


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lattice_labels_are_coordinates(d):
    radius = 2
    side = 2 * radius + 1
    s = R.lattice_generator(d).section(radius)

    def coords(i):
        # mixed radix, last axis fastest
        return tuple(i // side ** (d - 1 - a) % side - radius for a in range(d))

    want = tuple(coords(i)[0] if d == 1 else coords(i) for i in range(s.n))
    assert s.labels == want
    parts = s.labels if d == 1 else [x for lab in s.labels for x in lab]
    assert all(type(x) is int for x in parts)


def _tree_reference(degree, depth, c_origin, c_const):
    """The tree section built edge by edge through build_section."""
    labels, edges, prev = ["r"], [], [(0, "r")]
    for level in range(1, depth + 1):
        cur = []
        for parent, plab in prev:
            for k in range(degree if level == 1 else degree - 1):
                cur.append((len(labels), f"{plab}.{k}"))
                edges.append((parent, len(labels), 1.0))
                labels.append(cur[-1][1])
        prev = cur
    c = {0: c_origin} if c_origin else None
    sec = R.build_section(len(labels), edges, c=c, dirichlet=[i for i, _ in prev], labels=labels)
    return replace(sec, c=sec.c + float(c_const)) if c_const else sec


@pytest.mark.parametrize("degree", [3, 4])
@pytest.mark.parametrize("c_origin,c_const", [(0.0, 0.0), (1.5, 0.0), (0.0, 0.25), (2.0, 0.5)])
def test_tree_section_matches_edge_reference(degree, c_origin, c_const):
    gen = R.tree_generator(degree, c_origin=c_origin, c_const=c_const)
    for depth in range(1, 9):
        got, want = gen.section(depth), _tree_reference(degree, depth, c_origin, c_const)
        for a, b in [
            (got.adj.indptr, want.adj.indptr),
            (got.adj.indices, want.adj.indices),
            (got.adj.data, want.adj.data),
            (got.c, want.c),
            (got.m, want.m),
            (got.dirichlet, want.dirichlet),
        ]:
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert got.labels == want.labels


def test_exhaust_nested_and_monotone():
    gen = R.lattice_generator(2)
    s3, s5 = R.exhaust(gen, 3), R.exhaust(gen, 5)
    assert s3.n < s5.n
    # interior of the smaller level embeds in the larger interior
    inner3 = {s3.labels[v] for v in s3.interior}
    inner5 = {s5.labels[v] for v in s5.interior}
    assert inner3 <= inner5


def test_generator_killing_variants():
    gen = R.tree_generator(3, c_origin=1.0, c_const=0.5)
    s = gen.section(2)
    root = s.index_of("r")
    assert s.c[root] == 1.5
    assert np.all(s.c[np.arange(s.n) != root] == 0.5)
    z = gen.with_zero_c().section(2)
    assert np.all(z.c == 0.0)
    assert gen.c_partial_sum(2) == pytest.approx(1.0 + 0.5 * s.n)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphSyntaxError) as err:
        R.parse_graph_file("V 2\nE 0 1 1.0\nE 0 x 1.0\n")
    assert err.value.line == 3


def test_graph_file_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = random_section(rng, n_max=30, with_killing=True, with_measure=True)
        s2 = R.parse_graph_file(R.serialize_graph_file(s))
        assert R.sections_equal(s, s2)


def test_vertex_fn_round_trip():
    s = R.generate_lattice(1, 2)
    f = s.fn([0.0, 1.5, 0.0, -2.0, 0.25])
    f2 = R.parse_vertex_fn(R.serialize_vertex_fn(f), s)
    np.testing.assert_array_equal(f.values, f2.values)


def test_with_measure_replaces_only_m():
    s = R.generate_lattice(1, 2)
    s2 = R.with_measure(s, np.full(s.n, 2.0))
    assert np.all(s2.m == 2.0)
    assert s2.adj is s.adj or (s2.adj != s.adj).nnz == 0
    np.testing.assert_array_equal(s2.c, s.c)


def test_clamp_and_sup_norm():
    s = R.generate_lattice(1, 2)
    f = s.fn([-3.0, -1.0, 0.5, 1.0, 3.0])
    assert f.sup_norm == 3.0
    g = f.clamp(-1.0, 1.0)
    np.testing.assert_array_equal(g.values, [-1.0, -1.0, 0.5, 1.0, 1.0])


def test_reflections_of_lattice_boxes_negate_one_coordinate():
    for d, r in ((1, 4), (2, 3), (3, 2)):
        s = R.generate_lattice(d, r)
        inter = s.interior
        coords = np.array([s.labels[v] for v in inter]).reshape(len(inter), d)
        assert len(s.reflections) == d
        for a, perm in enumerate(s.reflections):
            mirrored = coords.copy()
            mirrored[:, a] *= -1
            np.testing.assert_array_equal(coords[perm], mirrored)
            np.testing.assert_array_equal(perm[perm], np.arange(len(inter)))


def test_reflections_are_kept_only_when_exact():
    box = R.generate_lattice(2, 3)
    # a mass that breaks the x-mirror but not the y-mirror
    m = np.array([2.0 if lab[0] > 0 else 1.0 for lab in box.labels])
    (kept,) = R.with_measure(box, m).reflections
    coords = np.array([box.labels[v] for v in box.interior])
    np.testing.assert_array_equal(coords[kept], coords * [1, -1])
    # one edge weight changed: both mirrors move that edge
    coo = box.adj.tocoo()
    up = coo.row < coo.col
    edges = [(u, v, 2.0 if {u, v} == {box.index_of((1, 1)), box.index_of((2, 1))} else 1.0)
             for u, v in zip(coo.row[up].tolist(), coo.col[up].tolist())]
    bent = R.build_section(box.n, edges, dirichlet=box.mask, labels=box.labels)
    assert bent.reflections == ()
    assert replace(box, c=np.where(np.arange(box.n) == box.index_of((1, 2)), 1.0, 0.0)).reflections == ()


def test_reflections_refuse_other_labels():
    assert R.generate_tree(3, 4).reflections == ()
    assert R.lattice_generator(3).orbits(4).section.reflections == ()
    path = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]
    assert R.build_section(5, path, dirichlet=[0, 4]).reflections == ()  # labels 0..4
    centred = R.build_section(5, path, dirichlet=[0, 4], labels=[-2, -1, 0, 1, 2])
    assert len(centred.reflections) == 1
    for labels in ([-2, -1, 0, 1, "x"], [(-2,), -1, 0, 1, 2], [True, -1, 0, 5, 2], [-2, -1, 0, 1, 10**30]):
        assert R.build_section(5, path, dirichlet=[0, 4], labels=labels).reflections == ()
