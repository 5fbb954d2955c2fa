"""Property tests: interior components, their grounding and the capacities
read from them, against brute-force references on random sections.

Sections have several interior components, some touching the mask, some
carrying killing and some with neither; weights span 10^-3..10^3 and
vertex indices are shuffled so components interleave.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import royden as R
from royden.errors import UngroundedComponent

WEIGHT = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


@st.composite
def sections(draw):
    blocks = draw(
        st.lists(
            st.tuples(st.integers(1, 6), st.sampled_from(["mask", "killing", "none"])),
            min_size=1,
            max_size=6,
        )
    )
    edges, c, mask = {}, {}, []
    n = 0
    for size, ground in blocks:
        base = n
        n += size
        for i in range(1, size):  # a random tree keeps the block connected
            edges[(base + draw(st.integers(0, i - 1)), base + i)] = draw(WEIGHT)
        for _ in range(draw(st.integers(0, size - 1))):  # extra edges close cycles
            a, b = sorted(draw(st.lists(st.integers(base, n - 1), min_size=2, max_size=2, unique=True)))
            edges.setdefault((a, b), draw(WEIGHT))
        if ground == "mask":
            # a new masked vertex, or the previous one shared with another block
            if not mask or draw(st.booleans()):
                mask.append(n)
                n += 1
            edges[(base + draw(st.integers(0, size - 1)), mask[-1])] = draw(WEIGHT)
        elif ground == "killing":
            c[base + draw(st.integers(0, size - 1))] = draw(WEIGHT)
    perm = draw(st.permutations(range(n)))
    return R.build_section(
        n,
        [(perm[a], perm[b], w) for (a, b), w in edges.items()],
        c={perm[v]: x for v, x in c.items()},
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
    W = s.adj.toarray()
    A = np.diag(W.sum(axis=1) + s.c) - W
    caps = R.interior_capacities(s)
    inter = s.interior
    for members, grounded in _reference_components(s):
        pos = np.searchsorted(inter, members)
        if grounded:
            want = 1.0 / np.diag(np.linalg.inv(A[np.ix_(members, members)]))
            np.testing.assert_allclose(caps[pos], want, rtol=1e-8, atol=0.0)
        else:
            assert (caps[pos] == 0.0).all()
