"""Property tests: interior components, their grounding, and the
capacities, metrics, Dirichlet solves and spectra built on them, against
brute-force references and dense inverse, pseudo-inverse or generalized
eigenvalue oracles on random sections; CG on the red-black Schur
complement against dense solves and against CG on the whole operator;
and the walker's alias tables against the transition probabilities
b(v, y) / pi(v) and, bit for bit, against Vose's pairing on rows padded
to the largest degree, on random sections and on weighted stars whose
hubs pair alone.

Sections have several interior components, some touching the mask, some
carrying killing and some with neither; weights span 10^-3..10^3 (10^-6..
10^6 for the alias tables) and vertex indices are shuffled so components
interleave.
"""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import royden as R
from royden import potential, spectral, walker
from royden.numerics import dense_eigh
from royden.errors import UngroundedComponent

from conftest import walk_routes

WEIGHT = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
WIDE_WEIGHT = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
# narrow enough that no edge traps a walk for long
WALK_WEIGHT = st.floats(-1.0, 1.0).map(lambda e: 10.0**e)
MASS = st.floats(-1.0, 1.0).map(lambda e: 10.0**e)


@st.composite
def sections(draw, weight=WEIGHT, masses=False, every_kind=False):
    blocks = draw(
        st.lists(
            st.tuples(st.integers(1, 6), st.sampled_from(["mask", "killing", "none"])),
            min_size=1,
            max_size=6,
        )
    )
    if every_kind:  # a block of at least two vertices per kind of grounding
        blocks += [(draw(st.integers(2, 6)), kind) for kind in ("mask", "killing", "none")]
    edges, c, mask = {}, {}, []
    n = 0
    for size, ground in blocks:
        base = n
        n += size
        for i in range(1, size):  # a random tree keeps the block connected
            edges[(base + draw(st.integers(0, i - 1)), base + i)] = draw(weight)
        for _ in range(draw(st.integers(0, size - 1))):  # extra edges close cycles
            a, b = sorted(draw(st.lists(st.integers(base, n - 1), min_size=2, max_size=2, unique=True)))
            edges.setdefault((a, b), draw(weight))
        if ground == "mask":
            # a new masked vertex, or the previous one shared with another block
            if not mask or draw(st.booleans()):
                mask.append(n)
                n += 1
            edges[(base + draw(st.integers(0, size - 1)), mask[-1])] = draw(weight)
        elif ground == "killing":
            c[base + draw(st.integers(0, size - 1))] = draw(weight)
    perm = draw(st.permutations(range(n)))
    return R.build_section(
        n,
        [(perm[a], perm[b], w) for (a, b), w in edges.items()],
        c={perm[v]: x for v, x in c.items()},
        m=draw(st.lists(MASS, min_size=n, max_size=n)) if masses else None,
        dirichlet=[perm[v] for v in mask],
    )


def _reference_components(s):
    """Interior components by depth-first search over the stored edges,
    each with its ascending members and whether it is grounded."""
    adj = s.adj
    seen = set()
    found = []
    for start in s.interior.tolist():
        if start in seen:
            continue
        seen.add(start)
        stack, members, grounded = [start], [], False
        while stack:
            v = stack.pop()
            members.append(v)
            grounded |= s.c[v] > 0
            for k in range(adj.indptr[v], adj.indptr[v + 1]):
                u = int(adj.indices[k])
                if s.dirichlet[u]:
                    grounded |= adj.data[k] > 0
                elif u not in seen:
                    seen.add(u)
                    stack.append(u)
        found.append((sorted(members), bool(grounded)))
    return found


def _full_component(s, v):
    """Vertices connected to v by the stored edges, the mask ignored, ascending."""
    adj = s.adj
    seen, stack = {v}, [v]
    while stack:
        u = stack.pop()
        for w in adj.indices[adj.indptr[u]:adj.indptr[u + 1]].tolist():
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return sorted(seen)


def _laplacian(s):
    """Dense energy matrix on all vertices: weighted degree plus killing, minus weights."""
    W = s.adj.toarray()
    return np.diag(W.sum(axis=1) + s.c) - W


def _dual(M, block, x, y):
    """chi^T M chi with chi = e_x - e_y restricted to block (M indexed like block)."""
    chi = (np.asarray(block) == x).astype(float) - (np.asarray(block) == y)
    return float(chi @ M @ chi)


def _by_component_id(s, found):
    """The reference components ordered by the section's component ids."""
    return sorted(found, key=lambda comp: s.interior_components[comp[0][0]])


PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=80)


@PROPERTY_SETTINGS
@given(sections())
def test_members_and_grounding_match_reference(s):
    ref = _by_component_id(s, _reference_components(s))
    assert [m.tolist() for m in s.interior_members] == [members for members, _ in ref]
    assert s.grounded.tolist() == [grounded for _, grounded in ref]
    for cid, members in enumerate(s.interior_members):
        assert (s.interior_components[members] == cid).all()


@PROPERTY_SETTINGS
@given(sections())
def test_validate_reports_reference_layout(s):
    ref = _by_component_id(s, _reference_components(s))
    rep = s.validate()
    assert rep.ok
    assert rep.interior_component_sizes == tuple(len(members) for members, _ in ref)
    assert rep.interior_component_grounded == tuple(grounded for _, grounded in ref)


@PROPERTY_SETTINGS
@given(sections())
def test_ensure_grounded_raises_exactly_on_an_ungrounded_component(s):
    if all(grounded for _, grounded in _reference_components(s)):
        s.ensure_grounded()
    else:
        with pytest.raises(UngroundedComponent):
            s.ensure_grounded()


@PROPERTY_SETTINGS
@given(sections())
def test_interior_capacities_match_dense_inverse(s):
    A = _laplacian(s)
    dense = R.interior_capacities(s)
    # with the cap at 1 every component of two or more vertices takes the
    # sparse route
    with mock.patch.object(potential, "DENSE_CAP", 1):
        sparse = R.interior_capacities(s)
    inter = s.interior
    for caps in (dense, sparse):
        for members, grounded in _reference_components(s):
            pos = np.searchsorted(inter, members)
            if grounded:
                want = 1.0 / np.diag(np.linalg.inv(A[np.ix_(members, members)]))
                np.testing.assert_allclose(caps[pos], want, rtol=1e-8, atol=0.0)
            else:
                assert (caps[pos] == 0.0).all()


def _two_vertices(s, data):
    """x, then y != x from the full component of x (which must hold two vertices)."""
    x = data.draw(st.integers(0, s.n - 1), label="x")
    full = _full_component(s, x)
    assume(len(full) >= 2)
    y = data.draw(st.sampled_from([v for v in full if v != x]), label="y")
    return x, y, full


def _gamma_oracle(s, x, y):
    """(regime, value) of gamma(x, y) from a dense inverse or pseudo-inverse."""
    comps = [(members, grounded) for members, grounded in _reference_components(s)
             if x in members or y in members]
    if all(grounded for _, grounded in comps):
        regime = "wired"
    elif len(comps) == 1 and x in comps[0][0] and y in comps[0][0]:
        regime = "free-fallback"
    else:
        # a pair across components is infinite unless both sit on
        # grounded components
        return "recurrent-section", math.inf
    block = sorted(v for members, _ in comps for v in members)
    if not block:  # both endpoints masked: both sit at the ground
        return regime, 0.0
    # components are decoupled blocks of the interior energy matrix, and
    # on a shared ungrounded one chi is orthogonal to the constants
    return regime, math.sqrt(_dual(np.linalg.pinv(_laplacian(s)[np.ix_(block, block)]), block, x, y))


def _gamma_o_oracle(s, o, x, y):
    """gamma_o(x, y) pinned at o, from a dense inverse."""
    support = [v for members, _ in _reference_components(s) if x in members or y in members
               for v in members]
    block = sorted(set(support) | ({o} if not s.dirichlet[o] else set()))
    if not block:
        return 0.0
    # f(o)^2 joins the energy; a masked pin adds nothing since f(o) = 0
    Q = _laplacian(s)[np.ix_(block, block)]
    if not s.dirichlet[o]:
        Q[block.index(o), block.index(o)] += 1.0
    return math.sqrt(_dual(np.linalg.inv(Q), block, x, y))


def _resistance_oracle(s, x, y):
    """Free effective resistance from the pseudo-inverse of the full component of x."""
    # the mask is ignored; without killing the constants span the kernel
    # and chi is orthogonal to them
    full = _full_component(s, x)
    return _dual(np.linalg.pinv(_laplacian(s)[np.ix_(full, full)]), full, x, y)


@PROPERTY_SETTINGS
@given(sections(), st.data())
def test_gamma_matches_dense_pseudo_inverse(s, data):
    # any two vertices, not only connected ones
    assume(s.n >= 2)
    x, y = data.draw(st.lists(st.integers(0, s.n - 1), min_size=2, max_size=2, unique=True))
    regime, want = _gamma_oracle(s, x, y)
    got = R.gamma(s, x, y)
    assert got.regime == regime
    assert got.value == pytest.approx(want, rel=1e-8, abs=0.0)


@PROPERTY_SETTINGS
@given(sections(), st.data())
def test_gamma_o_matches_dense_inverse(s, data):
    x, y, full = _two_vertices(s, data)
    found = _reference_components(s)
    support = [v for members, _ in found if x in members or y in members for v in members]
    # the pin lies on another interior component of the same connected
    # component, on the mask, or inside the support of the metric; the
    # rarest kind is listed first, since sampled_from leans toward it
    pins = {
        "outside": [v for v in full if v not in support and not s.dirichlet[v]],
        "masked": [v for v in full if s.dirichlet[v]],
        "inside": [v for v in full if v in support],
    }
    where = data.draw(st.sampled_from([k for k, vs in pins.items() if vs]), label="pin")
    o = data.draw(st.sampled_from(pins[where]), label="o")
    assert R.gamma_o(s, o, x, y) == pytest.approx(_gamma_o_oracle(s, o, x, y), rel=1e-8, abs=0.0)


@PROPERTY_SETTINGS
@given(sections(), st.data())
def test_free_resistance_matches_dense_pseudo_inverse(s, data):
    x, y, _ = _two_vertices(s, data)
    assert R.free_resistance(s, x, y) == pytest.approx(_resistance_oracle(s, x, y), rel=1e-8, abs=0.0)


@PROPERTY_SETTINGS
@given(sections(every_kind=True), st.data())
def test_metrics_on_reused_operators_match_dense_oracles(s, data):
    # gamma, gamma_o and free_resistance interleaved, every query asked
    # twice, so each operator the section keeps is solved again once its
    # sparse factor exists. Per connected component: an endpoint at the
    # resistance ground (its lowest vertex), pins at that ground and on
    # the mask, and a whole component that is ungrounded (free-fallback)
    queries = []
    for full in {tuple(_full_component(s, v)) for v in range(s.n)}:
        if len(full) < 2:
            continue
        ground = full[0]
        for _ in range(2):
            x, y = data.draw(st.lists(st.sampled_from(full), min_size=2, max_size=2, unique=True))
            o = data.draw(st.sampled_from(full), label="o")
            queries += [("gamma", None, x, y), ("gamma_o", o, x, y), ("resistance", None, x, y)]
        other = y if y != ground else x
        queries += [("resistance", None, ground, other), ("gamma", None, other, ground)]
        queries += [("gamma_o", ground, x, y)]
        queries += [("gamma_o", int(m), x, y) for m in full if s.dirichlet[m]][:1]
    for kind, o, x, y in data.draw(st.permutations(queries), label="order") * 2:
        if kind == "gamma":
            regime, want = _gamma_oracle(s, x, y)
            got = R.gamma(s, x, y)
            assert got.regime == regime
            got = got.value
        elif kind == "gamma_o":
            got, want = R.gamma_o(s, o, x, y), _gamma_o_oracle(s, o, x, y)
        else:
            got, want = R.free_resistance(s, x, y), _resistance_oracle(s, x, y)
        assert got == pytest.approx(want, rel=1e-8, abs=0.0), (kind, o, x, y)


@PROPERTY_SETTINGS
@given(sections(), st.data())
def test_solve_dirichlet_matches_dense_inverse(s, data):
    # tiny data are drawn on purpose; subnormals are not, since they carry
    # too few bits for any 1e-8 relative check
    values = st.floats(-1.0, 1.0, allow_subnormal=False)
    g = {int(v): data.draw(values, label=f"g({v})") for v in s.mask}
    if not all(grounded for _, grounded in _reference_components(s)):
        with pytest.raises(UngroundedComponent):
            R.solve_dirichlet(s, g)
        return
    f = R.solve_dirichlet(s, g).values
    inter, mask = s.interior, s.mask
    L = _laplacian(s)
    want = np.zeros(s.n)
    want[mask] = [g[int(v)] for v in mask]
    want[inter] = np.linalg.inv(L[np.ix_(inter, inter)]) @ (-L[np.ix_(inter, mask)] @ want[mask])
    np.testing.assert_allclose(f, want, rtol=0.0, atol=1e-8 * np.abs(want).max())


def _padded_alias_tables(s):
    """Vose's pairing over rows padded to the largest degree, the layout
    the walker used before its tables moved onto the CSR slots: accept
    and alias per real slot, in CSR order."""
    adj = s.adj
    deg = np.diff(adj.indptr)
    maxdeg = int(deg.max()) if s.n else 0
    is_open = np.arange(maxdeg) < deg[:, None]
    real = is_open.copy()
    nbr = np.zeros((s.n, maxdeg), dtype=np.int64)
    nbr[is_open] = adj.indices
    pi = s.weighted_degree
    q = np.zeros((s.n, maxdeg))
    q[is_open] = adj.data * np.repeat(deg / np.where(pi > 0, pi, 1.0), deg)
    accept = np.ones((s.n, maxdeg))
    alias = nbr.copy()
    rows = np.flatnonzero((is_open & (q < 1.0)).any(axis=1))
    while len(rows):
        qr, opr = q[rows], is_open[rows]
        small, large = opr & (qr < 1.0), opr & (qr >= 1.0)
        paired = small.any(axis=1) & large.any(axis=1)
        rows = rows[paired]
        lo, hi = small[paired].argmax(axis=1), large[paired].argmax(axis=1)
        q_lo = q[rows, lo]
        accept[rows, lo] = q_lo
        alias[rows, lo] = nbr[rows, hi]
        is_open[rows, lo] = False
        q[rows, hi] = (q[rows, hi] + q_lo) - 1.0
    return accept[real], alias[real]


@PROPERTY_SETTINGS
@given(sections(weight=WIDE_WEIGHT))
def test_alias_tables_match_the_padded_pairing(s):
    # the same pairs in the same rounds: every accept bit and every alias,
    # whether the rows pair in the vectorised rounds or alone in heaps
    accept, alias = _padded_alias_tables(s)
    rounds = walker._Transitions(s)
    with mock.patch.object(walker, "_WIDE", 0):
        heaps = walker._Transitions(s)
    for trans in rounds, heaps:
        assert trans.nbr.tolist() == s.adj.indices.tolist()
        assert trans.accept.tobytes() == accept.tobytes()
        assert trans.alias.tolist() == alias.tolist()


@PROPERTY_SETTINGS
@given(
    st.lists(st.integers(1, 1000), min_size=1, max_size=3),
    st.sampled_from([3.0, 6.0]),
    st.integers(0, 2**32 - 1),
)
def test_hub_rows_paired_alone_match_the_padded_pairing(hubs, decades, seed):
    # weighted stars, hub h at vertex h: rows wider than _WIDE pair alone
    rng = np.random.default_rng(seed)
    edges, n = [], len(hubs)
    for h, leaves in enumerate(hubs):
        w = 10.0 ** rng.uniform(-decades, decades, leaves)
        edges += [(h, v, x) for v, x in enumerate(w.tolist(), n)]
        n += leaves
    s = R.build_section(n, edges, dirichlet=[n - 1])
    alone = []
    pair_row = walker._pair_row
    with mock.patch.object(walker, "_pair_row", lambda q: alone.append(len(q)) or pair_row(q)):
        trans = walker._Transitions(s)
    assert sorted(d for d in hubs if d > walker._WIDE) == sorted(alone)
    accept, alias = _padded_alias_tables(s)
    assert trans.accept.tobytes() == accept.tobytes()
    assert trans.alias.tolist() == alias.tolist()


@PROPERTY_SETTINGS
@given(sections(weight=WIDE_WEIGHT))
def test_alias_tables_rebuild_the_transition_probabilities(s):
    deg = np.diff(s.adj.indptr)
    # leaves and rows shorter than the widest one in every example
    assume((deg == 1).any() and (deg < deg.max()).any())
    trans = walker._Transitions(s)
    assert ((trans.accept >= 0.0) & (trans.accept <= 1.0)).all()
    W = s.adj.toarray()
    for v in np.flatnonzero(deg):
        slots = np.arange(s.adj.indptr[v], s.adj.indptr[v + 1])
        accept = trans.accept[slots]
        P = np.zeros(s.n)
        np.add.at(P, trans.nbr[slots], accept)
        np.add.at(P, trans.alias[slots], 1.0 - accept)
        np.testing.assert_allclose(P / deg[v], W[v] / W[v].sum(), rtol=0.0, atol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(sections(weight=WALK_WEIGHT), st.data())
def test_vectorised_walk_draws_as_trials_walked_alone(s, data):
    # the killing dropped, since the walk has no death; any start with
    # edges whose component reaches the mask
    coo = s.adj.tocoo()
    up = coo.row < coo.col
    edges = zip(coo.row[up].tolist(), coo.col[up].tolist(), coo.data[up].tolist())
    s = R.build_section(s.n, edges, dirichlet=s.mask)
    comp = s.full_components
    reach = s.dirichlet & (comp[:, None] == comp)
    starts = [v for v in s.interior.tolist() if s.weighted_degree[v] > 0 and reach[v].any()]
    assume(starts and walker._Transitions(s)._lends)
    o = s.labels[data.draw(st.sampled_from(starts))]
    vectorised, alone = walk_routes(s, o, trials=200, seed=data.draw(st.integers(0, 2**32 - 1)))
    assert vectorised == alone


def _pencil_eigenvalues(s):
    """Dense generalized eigenvalues of (A, M) on the interior, ascending."""
    inter = s.interior
    A = _laplacian(s)[np.ix_(inter, inter)]
    return scipy.linalg.eigh(A, np.diag(s.m[inter]), eigvals_only=True)


@PROPERTY_SETTINGS
@given(sections(masses=True))
def test_dense_spectrum_matches_generalized_eigh(s):
    assume(len(s.interior) >= 1)
    want = _pencil_eigenvalues(s)
    atol = 1e-8 * np.abs(want).max()
    np.testing.assert_allclose(R.spectrum(s).eigenvalues, want, rtol=0.0, atol=atol)
    np.testing.assert_allclose(R.spectrum(s, k=1).eigenvalues, want[:1], rtol=0.0, atol=atol)


@PROPERTY_SETTINGS
@given(sections(masses=True), st.data())
def test_lanczos_spectrum_matches_generalized_eigh(s, data):
    # Lanczos runs when k < interior size - 1 and the interior is above
    # DENSE_SHORTCUT; shift-invert at 0 needs every component grounded
    ni = len(s.interior)
    assume(ni >= 3 and all(grounded for _, grounded in _reference_components(s)))
    k = data.draw(st.integers(1, ni - 2), label="k")
    want = _pencil_eigenvalues(s)
    with mock.patch.object(spectral, "DENSE_SHORTCUT", 0):
        got = R.spectrum(s, k=k)
    assert got.method == "lanczos"
    np.testing.assert_allclose(got.eigenvalues, want[:k], rtol=0.0, atol=1e-8 * np.abs(want).max())


@PROPERTY_SETTINGS
@given(sections(masses=True))
def test_dense_eigenvalues_only_match_the_vectors_route(s):
    assume(len(s.interior) >= 1)
    want = R.spectrum(s)
    atol = 1e-12 * np.abs(want.eigenvalues).max()
    for k in (None, 1):
        got = R.spectrum(s, k=k, vectors=False)
        assert got.method == "dense" and got.eigenvectors is None
        np.testing.assert_allclose(got.eigenvalues, want.eigenvalues[:k], rtol=0.0, atol=atol)


@PROPERTY_SETTINGS
@given(sections(masses=True), st.data())
def test_lanczos_eigenvalues_only_match_the_vectors_route(s, data):
    ni = len(s.interior)
    assume(ni >= 3 and all(grounded for _, grounded in _reference_components(s)))
    k = data.draw(st.integers(1, ni - 2), label="k")
    radius = np.abs(_pencil_eigenvalues(s)).max()
    with mock.patch.object(spectral, "DENSE_SHORTCUT", 0):
        want = R.spectrum(s, k=k)
        got = R.spectrum(s, k=k, vectors=False)
    assert got.method == "lanczos" and got.eigenvectors is None
    np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=0.0, atol=1e-12 * radius)


@st.composite
def mirror_boxes(draw):
    """(section, perturbed) for a box of Z^d, d = 1..3: weights, killing and
    masses depend only on |coordinates|, so every coordinate reflection is an
    automorphism; the perturbed copy scales the edge (0, 1, .., 1)-(1, 1, .., 1),
    which every reflection moves, so none verifies."""
    d = draw(st.integers(1, 3), label="d")
    r = draw(st.integers(1, (8, 5, 3)[d - 1]), label="r")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    box = R.generate_lattice(d, r)
    side = r + 1  # |coordinate| in 0..r, one mixed-radix key per |coordinates|
    key = np.abs(np.array(box.labels).reshape(box.n, d)) @ side ** np.arange(d)
    coo = box.adj.tocoo()
    up = coo.row < coo.col
    u, v = coo.row[up], coo.col[up]
    lo, hi = np.minimum(key[u], key[v]), np.maximum(key[u], key[v])
    weight = 10.0 ** rng.uniform(-1.0, 1.0, (side**d, side**d))[lo, hi]
    mass = 10.0 ** rng.uniform(-1.0, 1.0, side**d)[key]
    killing = np.where(rng.random(side**d) < 0.3, 10.0 ** rng.uniform(-1.0, 1.0, side**d), 0.0)[key]

    def build(w):
        return R.build_section(box.n, zip(u.tolist(), v.tolist(), w.tolist()), c=killing,
                               m=mass, dirichlet=box.mask, labels=box.labels)

    a = box.index_of((0,) + (1,) * (d - 1) if d > 1 else 0)
    b = box.index_of((1,) * d if d > 1 else 1)
    bumped = weight.copy()
    bumped[(np.minimum(u, v) == min(a, b)) & (np.maximum(u, v) == max(a, b))] *= 1.5
    return build(weight), build(bumped)


@PROPERTY_SETTINGS
@given(mirror_boxes())
def test_reflection_sectors_match_dense_oracles(pair):
    section, perturbed = pair
    d = len(np.atleast_1d(section.labels[0]))
    assert len(section.reflections) == (d if len(section.interior) > 1 else 0)
    assert perturbed.reflections == ()
    for s in (section, perturbed):
        inter = s.interior
        A = _laplacian(s)[np.ix_(inter, inter)]
        m = s.m[inter]
        want = scipy.linalg.eigh(A, np.diag(m), eigvals_only=True)
        radius = np.abs(want).max()
        got = R.spectrum(s)
        np.testing.assert_allclose(got.eigenvalues, want, rtol=0.0, atol=1e-10 * radius)
        np.testing.assert_allclose(R.spectrum(s, vectors=False).eigenvalues, want,
                                   rtol=0.0, atol=1e-10 * radius)
        V = got.eigenvectors
        residual = A @ V - (m[:, None] * V) * got.eigenvalues
        assert np.abs(residual).max() <= 1e-10 * radius * m.max() / math.sqrt(m.min())
        np.testing.assert_allclose(V.T @ (m[:, None] * V), np.eye(len(inter)), rtol=0.0, atol=1e-10)
        k = min(3, len(inter))
        np.testing.assert_allclose(R.spectrum(s, k=k).eigenvectors, V[:, :k], rtol=0.0, atol=0.0)
        caps = R.interior_capacities(s)
        np.testing.assert_allclose(caps, 1.0 / np.diag(np.linalg.inv(A)), rtol=1e-12, atol=0.0)


@st.composite
def boxes_with_components(draw):
    """A box of Z^2 whose weights, killing and masses depend only on
    |coordinates| (as in mirror_boxes), plus components labelled outside it:
    a pair of killed paths at x = +-(r + 2) that the first reflection swaps,
    an ungrounded pair at (0, +-(r + 3)) that the second one swaps, killed
    singletons at (+-a, +-a), and, when drawn, a killed path at y = 0,
    x = r + 4 .. r + 6 that has no mirror image under the first reflection.
    Returns the section and the number of reflections it keeps."""
    r = draw(st.integers(1, 3), label="r")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))

    def drawn(*shape):  # log-uniform over 10^-1..10^1
        return 10.0 ** rng.uniform(-1.0, 1.0, shape)

    box = R.generate_lattice(2, r)
    side = r + 1
    key = np.abs(np.array(box.labels)) @ np.array([side, 1])
    coo = box.adj.tocoo()
    up = coo.row < coo.col
    u, v = coo.row[up], coo.col[up]
    weight = drawn(side**2, side**2)[np.minimum(key[u], key[v]), np.maximum(key[u], key[v])]
    edges = list(zip(u.tolist(), v.tolist(), weight.tolist()))
    labels = list(box.labels)
    mass = drawn(side**2)[key].tolist()
    kill = np.where(rng.random(side**2) < 0.3, drawn(side**2), 0.0)[key].tolist()

    def add(label, c, m):
        labels.append(label)
        kill.append(c)
        mass.append(m)
        return len(labels) - 1

    h = draw(st.integers(0, 2), label="path half-length")
    pw, pc, pm = drawn(h + 1), drawn(h + 1), drawn(h + 1)  # by |y|
    for x in (r + 2, -r - 2):
        path = [add((x, y), pc[abs(y)], pm[abs(y)]) for y in range(-h, h + 1)]
        edges += [(a, b, pw[max(abs(y), abs(y + 1))])
                  for y, a, b in zip(range(-h, h), path, path[1:])]
    pair_mass, pair_weight = drawn(2)
    edges.append((add((0, r + 3), 0.0, pair_mass), add((0, -r - 3), 0.0, pair_mass), pair_weight))
    for a in range(r + 4, r + 4 + draw(st.integers(1, 2), label="singleton rings")):
        c, m = drawn(2)
        for label in ((a, a), (a, -a), (-a, a), (-a, -a)):
            add(label, c, m)
    asymmetric = draw(st.booleans(), label="asymmetric path")
    if asymmetric:
        killing = [drawn(1)[0], 0.0, 0.0]
        path = [add((x, 0), c, m) for x, c, m in zip(range(r + 4, r + 7), killing, drawn(3))]
        edges += [(a, b, w) for a, b, w in zip(path, path[1:], drawn(2))]
    s = R.build_section(len(labels), edges, c=np.array(kill), m=np.array(mass),
                        dirichlet=box.mask, labels=labels)
    return s, 1 if asymmetric else 2


def _block_sizes(s):
    """Sizes of the (sign character, orbit of interior components) blocks by
    the character formula: the part of sign character e on an orbit O of
    components has dimension |G|^-1 sum_g e(g) #{x in O : g(x) = x}, over
    the group G that s.reflections generate."""
    inter = s.interior.tolist()
    group = [np.arange(len(inter))]
    for p in s.reflections:
        group += [p[g] for g in group]  # element j composes the reflections at the set bits of j
    components = _reference_components(s)
    component = np.empty(len(inter), dtype=int)
    for cid, (members, _) in enumerate(components):
        component[np.searchsorted(inter, members)] = cid
    orbit = np.arange(len(components))  # the least component id of each orbit
    for g in group:
        np.minimum.at(orbit, component, component[g])
    orbit = orbit[component]
    sizes = []
    for e in range(len(group)):
        sign = np.array([(-1) ** bin(e & j).count("1") for j in range(len(group))])
        for o in np.unique(orbit):
            fixed = [np.count_nonzero((g == np.arange(len(inter))) & (orbit == o)) for g in group]
            dim = int(sign @ fixed) // len(group)
            if dim:
                sizes.append(dim)
    return sorted(sizes)


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(boxes_with_components())
def test_blocks_of_sectors_and_component_orbits_match_dense_oracles(drawn):
    s, reflections = drawn
    assert len(s.reflections) == reflections
    inter = s.interior
    A = _laplacian(s)[np.ix_(inter, inter)]
    m = s.m[inter]
    want = scipy.linalg.eigh(A, np.diag(m), eigvals_only=True)
    radius = np.abs(want).max()
    sizes = []

    def counted(block, mass, **options):
        sizes.append(block.shape[0])
        return dense_eigh(block, mass, **options)

    with mock.patch.object(spectral, "dense_eigh", counted):
        got = R.spectrum(s)
    assert sorted(sizes) == _block_sizes(s)
    np.testing.assert_allclose(got.eigenvalues, want, rtol=0.0, atol=1e-12 * radius)
    V = got.eigenvectors
    residual = A @ V - (m[:, None] * V) * got.eigenvalues
    assert np.abs(residual).max() <= 1e-12 * radius * m.max() / math.sqrt(m.min())
    np.testing.assert_allclose(V.T @ (m[:, None] * V), np.eye(len(inter)), rtol=0.0, atol=1e-12)
    caps = R.interior_capacities(s)
    for members, grounded in _reference_components(s):
        rows = np.searchsorted(inter, members)
        if grounded:
            oracle = 1.0 / np.diag(np.linalg.inv(A[np.ix_(rows, rows)]))
            np.testing.assert_allclose(caps[rows], oracle, rtol=1e-12, atol=0.0)
        else:
            assert (caps[rows] == 0.0).all()


@st.composite
def weighted_graphs(draw):
    """(section, bipartite): a Z^2 box, a tree or a graph with an odd cycle,
    reweighted over 10^-3..10^3, with killing on some vertices and a few
    isolated killed vertices; every interior component is grounded."""
    kind = draw(st.sampled_from(["box", "tree", "odd"]))
    if kind == "box":
        base = R.generate_lattice(2, draw(st.integers(2, 5)))
    elif kind == "tree":
        base = R.generate_tree(3, draw(st.integers(2, 4)))
    if kind == "odd":
        cycle = 2 * draw(st.integers(1, 4)) + 1
        n = cycle + draw(st.integers(0, 8))
        pairs = {(i, (i + 1) % cycle) for i in range(cycle)}
        pairs |= {(draw(st.integers(0, v - 1)), v) for v in range(cycle, n)}
        mask = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    else:
        n = base.n
        pairs = set(zip(*(a.tolist() for a in base.upper_edges[:2])))
        mask = base.mask.tolist()
    isolated = draw(st.integers(0, 3))
    edges = [(a, b, draw(WEIGHT)) for a, b in sorted(pairs)]
    c = {v: draw(WEIGHT) for v in draw(st.lists(st.integers(0, n - 1), max_size=3))}
    c.update({v: draw(WEIGHT) for v in range(n, n + isolated)})
    s = R.build_section(n + isolated, edges, c=c, dirichlet=mask)
    ungrounded = [members[0] for members, g in zip(s.interior_members, s.grounded) if not g]
    c.update({int(v): draw(WEIGHT) for v in ungrounded})
    return R.build_section(n + isolated, edges, c=c, dirichlet=mask), kind != "odd"


@PROPERTY_SETTINGS
@given(weighted_graphs(), st.data())
def test_red_black_cg_matches_dense_solve_in_half_the_iterations(drawn, data):
    from royden.energy import energy_matrix
    from royden.numerics import SymOperator, cg_solve

    s, bipartite = drawn
    rel_tol = 1e-8
    op = energy_matrix(s, s.interior)
    A = op.dense()
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
    b = np.array(data.draw(st.lists(entry, min_size=len(A), max_size=len(A))))
    assume(np.any(b != 0))
    got = cg_solve(op, b, rel_tol=rel_tol)
    # the full residual, and the dense answer to within the conditioning
    assert np.linalg.norm(b - A @ got.x) <= 1.01 * rel_tol * np.linalg.norm(b)
    want = np.linalg.solve(A, b)
    err = np.linalg.norm(got.x - want) / np.linalg.norm(want)
    assert err <= 2 * np.linalg.cond(A) * rel_tol
    if bipartite:
        # the same matrix without colour: nothing is eliminated. In exact
        # arithmetic CG on S from the recovered start matches every second
        # iterate of CG on A; at 10^+-3 rounding parts the two sequences,
        # and about one graph in 200 takes one iteration more than half
        k = cg_solve(SymOperator(op.matrix), b, rel_tol=rel_tol).iterations
        assert got.iterations <= math.ceil(k / 2) + 2
