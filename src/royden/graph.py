"""Finite sections of weighted graphs and their exhaustions.

A Section is a finite piece of a (possibly infinite) weighted graph: a
symmetric nonnegative edge weight matrix b with zero diagonal, a killing
term c >= 0, a measure m > 0 of full support, and a Dirichlet mask marking
the vertices that are wired to the boundary (functions are pinned to zero
there). Exhaustion generators produce growing, label-consistent sections
of a fixed infinite graph so that quantities computed at one level can be
compared with the next.

Vertices are indexed 0..n-1. Each vertex also carries a hashable label
(coordinates for lattices, path strings for trees) that stays stable
across exhaustion levels.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import (
    DuplicateEdgeConflict,
    GraphSyntaxError,
    InvalidParameter,
    NegativeWeight,
    NonPositiveMeasure,
    SectionMismatch,
    SelfLoop,
    SizeOverflow,
    UngroundedComponent,
    UnknownVertex,
)
from .numerics import Sectors, reflection_sectors

DEFAULT_VERTEX_CAP = 2_000_000
VERTEX_CAP_ENV = "ROYDEN_VERTEX_CAP"


def vertex_cap() -> int:
    """Maximum vertex count a constructor may allocate.

    Overridable through the ROYDEN_VERTEX_CAP environment variable.
    """
    raw = os.environ.get(VERTEX_CAP_ENV)
    if raw is None:
        return DEFAULT_VERTEX_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InvalidParameter(f"{VERTEX_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise InvalidParameter(f"{VERTEX_CAP_ENV} must be positive, got {cap}")
    return cap


def _check_cap(n: int, what: str) -> None:
    # name the cap, not n: a huge n need not even convert to a string
    cap = vertex_cap()
    if n > cap:
        raise SizeOverflow(f"{what} needs more than the cap of {cap} vertices")


# ---------------------------------------------------------------------------
# Section


@dataclass(frozen=True, eq=False)
class Section:
    """A finite weighted graph piece with killing term, measure and mask.

    Fields
    ------
    adj : scipy.sparse.csr_matrix
        Symmetric edge weights, zero diagonal. Entry (x, y) is b(x, y).
    c : ndarray
        Killing term per vertex, nonnegative.
    m : ndarray
        Vertex measure, strictly positive.
    dirichlet : ndarray of bool
        True where the vertex belongs to the Dirichlet mask (wired to the
        boundary; admissible functions vanish there).
    labels : tuple
        Hashable per-vertex labels, unique.
    parity : ndarray or None
        Optional 0/1 per vertex from a builder that knows a 2-colouring
        (coordinate sums, depths), which spares colour its search.
    """

    adj: sp.csr_matrix
    c: np.ndarray
    m: np.ndarray
    dirichlet: np.ndarray
    labels: tuple
    parity: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @cached_property
    def label_index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def interior(self) -> np.ndarray:
        """Indices of non-masked vertices, ascending."""
        return np.flatnonzero(~self.dirichlet)

    @cached_property
    def mask(self) -> np.ndarray:
        """Indices of masked vertices, ascending."""
        return np.flatnonzero(self.dirichlet)

    @cached_property
    def weighted_degree(self) -> np.ndarray:
        """Sum of incident edge weights per vertex."""
        return np.asarray(self.adj.sum(axis=1)).ravel()

    @cached_property
    def upper_edges(self) -> tuple:
        """(row, col, weight) of every edge once, row < col, in CSR order."""
        adj = self.adj
        row = np.repeat(np.arange(self.n, dtype=adj.indices.dtype), np.diff(adj.indptr))
        upper = adj.indices > row
        return row[upper], adj.indices[upper], adj.data[upper]

    @cached_property
    def colour(self) -> np.ndarray:
        """0 or 1 per vertex: parity when the builder gave it, else the
        parity of the BFS depth from the lowest vertex of each connected
        component. On a bipartite graph no edge joins two vertices of one
        colour; energy operators eliminate the rows of colour 1 that
        have no neighbour of that colour (see numerics._Split)."""
        if self.parity is not None:
            return self.parity
        if self.n == 0:
            return np.zeros(0, dtype=np.int8)
        # one search from an extra vertex joined to each component's lowest vertex
        roots = np.unique(self.full_components, return_index=True)[1]
        coo = self.adj.tocoo()
        hub = np.full(len(roots), self.n)
        links = sp.csr_matrix(
            (np.ones(coo.nnz + len(roots)),
             (np.concatenate([coo.row, hub]), np.concatenate([coo.col, roots]))),
            shape=(self.n + 1, self.n + 1),
        )
        depth = dijkstra(links, directed=False, unweighted=True, indices=self.n)[: self.n]
        return ((depth.astype(np.int64) - 1) % 2).astype(np.int8)

    def index_of(self, vertex) -> int:
        """Resolve a vertex given as a label, or as an index when no label matches."""
        if vertex in self.label_index:
            return self.label_index[vertex]
        if isinstance(vertex, (int, np.integer)) and not isinstance(vertex, bool):
            v = int(vertex)
            if 0 <= v < self.n:
                return v
        raise UnknownVertex(f"no vertex {vertex!r} in section of size {self.n}")

    def fn(self, values) -> "VertexFn":
        """Wrap values (array, scalar, or {vertex: value} mapping) as a VertexFn."""
        if isinstance(values, Mapping):
            arr = np.zeros(self.n)
            for k, val in values.items():
                arr[self.index_of(k)] = float(val)
        elif np.isscalar(values):
            arr = np.full(self.n, float(values))
        else:
            arr = np.asarray(values, dtype=float)
            if arr.shape != (self.n,):
                raise SectionMismatch(
                    f"expected {self.n} values, got shape {arr.shape}"
                )
            arr = arr.copy()
        return VertexFn(self, arr)

    @cached_property
    def full_components(self) -> np.ndarray:
        """Component id per vertex, mask treated as ordinary vertices."""
        if self.n == 0:
            return np.zeros(0, dtype=int)
        _, comp = connected_components(self.adj, directed=False)
        return comp

    @cached_property
    def interior_components(self) -> np.ndarray:
        """Component id per vertex in the graph induced on the interior.

        Masked vertices get id -1.
        """
        comp = np.full(self.n, -1, dtype=int)
        inter = self.interior
        if len(inter) == 0:
            return comp
        sub = self.adj[inter][:, inter]
        _, sub_comp = connected_components(sub, directed=False)
        comp[inter] = sub_comp
        return comp

    @cached_property
    def interior_members(self) -> tuple:
        """Interior vertex indices of each interior component, by component id.

        Entry cid holds the ascending indices of component cid; one stable
        argsort of the component ids splits the whole interior.
        """
        inter = self.interior
        if len(inter) == 0:
            return ()
        cids = self.interior_components[inter]
        order = np.argsort(cids, kind="stable")
        return tuple(np.split(inter[order], np.flatnonzero(np.diff(cids[order])) + 1))

    @cached_property
    def grounded(self) -> np.ndarray:
        """One bool per interior component id: True when the component
        touches the mask or carries a nonzero killing term (the quadratic
        form is then positive definite on it).

        Stored edge weights are positive, so a vertex touches the mask
        exactly when its total weight into the mask is positive.
        """
        inter = self.interior
        grounding = (self.adj @ self.dirichlet > 0) | (self.c > 0)
        cids = self.interior_components[inter]
        return np.bincount(cids, weights=grounding[inter], minlength=len(self.interior_members)) > 0

    @cached_property
    def reflections(self) -> tuple:
        """Coordinate reflections that are automorphisms, as interior permutations.

        Labels must be integer tuples of one length d (integers when
        d = 1); any other first label ends the search. For each axis, the
        permutation sending a vertex to the one whose label negates that
        coordinate is kept when every label has its mirror and the
        permutation moves some interior vertex and maps adj, c, m and the
        mask onto themselves entry for entry. Entry i of a kept array is
        the interior position of the image of interior vertex i. The
        reflections commute, and each is its own inverse.
        """
        first = self.labels[0] if self.n else None
        parts = first if isinstance(first, tuple) else (first,)
        if not parts or not all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in parts
        ):
            return ()
        try:
            coords = np.asarray(self.labels)
        except (ValueError, OverflowError):  # ragged or mixed labels
            return ()
        shape = (self.n, len(parts)) if isinstance(first, tuple) else (self.n,)
        if coords.dtype.kind != "i" or coords.shape != shape:
            return ()
        coords = coords.reshape(self.n, -1)
        order = np.lexsort(coords.T[::-1])
        inter = self.interior
        found = []
        for a in range(coords.shape[1]):
            mirrored = coords.copy()
            mirrored[:, a] = -mirrored[:, a]
            mirror_order = np.lexsort(mirrored.T[::-1])
            if not np.array_equal(mirrored[mirror_order], coords[order]):
                continue
            perm = np.empty(self.n, dtype=np.intp)
            perm[mirror_order] = order  # mirrored[v] is the label of vertex perm[v]
            if np.array_equal(perm[inter], inter):
                continue
            if (
                np.array_equal(self.c[perm], self.c)
                and np.array_equal(self.m[perm], self.m)
                and np.array_equal(self.dirichlet[perm], self.dirichlet)
                and (self.adj[perm][:, perm] != self.adj).nnz == 0
            ):
                found.append(np.searchsorted(inter, perm[inter]))
        return tuple(found)

    @cached_property
    def sectors(self) -> Sectors:
        """The block layout of every dense solve: the reflection_sectors
        columns over the interior, grouped into one block per sector and
        orbit of interior components (the orbit named by the least
        component id its columns meet; each column lies on one orbit)."""
        Q, bounds = reflection_sectors(self.reflections, len(self.interior))
        row_cid = self.interior_components[self.interior]
        sector = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        block = sector * len(self.interior_members) + np.minimum.reduceat(
            row_cid[Q.indices], Q.indptr[:-1]
        )
        order = np.argsort(block, kind="stable")
        starts = np.flatnonzero(np.diff(block[order], prepend=-1))
        return Sectors(Q[:, order], np.append(starts, len(order)))

    @cached_property
    def operators(self) -> dict:
        """Energy operators of this section's components, kept by
        royden.potential so repeated metric queries share one operator
        and its factor."""
        return {}

    def ensure_grounded(self) -> None:
        """Raise UngroundedComponent unless every interior component is
        grounded, i.e. the interior energy matrix is positive definite."""
        bad = np.flatnonzero(~self.grounded)
        if len(bad):
            raise UngroundedComponent(
                f"interior component of size {len(self.interior_members[bad[0]])} "
                "touches no mask and has no killing term"
            )

    def validate(self) -> "ValidationReport":
        """Check structural invariants and report the component layout."""
        issues = []
        n = self.n
        adj = self.adj
        if adj.shape != (n, n):
            issues.append("adjacency matrix is not square")
        if adj.nnz:
            if adj.diagonal().any():
                issues.append("nonzero diagonal (self loop)")
            if not np.isfinite(adj.data).all():
                issues.append("non-finite edge weight stored")
            if (adj.data <= 0).any():
                issues.append("nonpositive edge weight stored")
            asym = abs(adj - adj.T)
            if asym.nnz and asym.max() > 0:
                issues.append("edge weights not symmetric")
        if len(self.c) != n or (np.asarray(self.c) < 0).any():
            issues.append("killing term missing entries or negative")
        if not np.isfinite(self.c).all():
            issues.append("non-finite killing term")
        if len(self.m) != n or (np.asarray(self.m) <= 0).any():
            issues.append("measure missing entries or not strictly positive")
        if not np.isfinite(self.m).all():
            issues.append("non-finite measure")
        if len(self.labels) != n or len(set(self.labels)) != n:
            issues.append("labels missing or not unique")
        if len(self.dirichlet) != n:
            issues.append("dirichlet mask has wrong length")

        comp_sizes = grounded = ()
        full_count = 0
        if not issues:
            comp_sizes = tuple(len(members) for members in self.interior_members)
            grounded = tuple(self.grounded.tolist())
            full_count = int(self.full_components.max()) + 1 if n else 0
        return ValidationReport(
            ok=not issues,
            issues=tuple(issues),
            n=n,
            edge_count=int(adj.nnz // 2),
            interior_count=int(len(self.interior)),
            mask_count=int(len(self.mask)),
            full_component_count=full_count,
            interior_component_sizes=comp_sizes,
            interior_component_grounded=grounded,
        )


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple
    n: int
    edge_count: int
    interior_count: int
    mask_count: int
    full_component_count: int
    interior_component_sizes: tuple
    interior_component_grounded: tuple


@dataclass(frozen=True, eq=False)
class VertexFn:
    """A real-valued function on the vertices of a specific Section."""

    section: Section
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.section.n,):
            raise SectionMismatch(
                f"function has {self.values.shape} values for a section of size {self.section.n}"
            )

    def __getitem__(self, vertex) -> float:
        return float(self.values[self.section.index_of(vertex)])

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if len(self.values) else 0.0

    def vanishes_on_mask(self, tol: float = 0.0) -> bool:
        mask = self.section.mask
        if len(mask) == 0:
            return True
        return bool(np.max(np.abs(self.values[mask]), initial=0.0) <= tol)

    def clamp(self, lo: float, hi: float) -> "VertexFn":
        return VertexFn(self.section, np.clip(self.values, lo, hi))


def check_bound(s: Section, f: VertexFn) -> None:
    """Raise SectionMismatch unless f is bound to s."""
    if f.section is not s:
        raise SectionMismatch("vertex function is bound to a different section")


# ---------------------------------------------------------------------------
# construction


def build_section(
    n: int,
    edges: Iterable[tuple] = (),
    c=None,
    m=None,
    dirichlet: Iterable = (),
    labels: Sequence | None = None,
) -> Section:
    """Build a Section from a raw description.

    edges is an iterable of (u, v, weight) with 0-based indices; each
    unordered pair may appear once (repeats must carry the same weight).
    c and m may be dicts keyed by vertex or full arrays; c defaults to 0,
    m to 1. dirichlet lists masked vertex indices. Weights, c and m must
    be finite.
    """
    if n < 1:
        raise InvalidParameter(f"need at least one vertex, got {n}")
    _check_cap(n, "section")

    seen: dict = {}
    rows, cols, data = [], [], []
    for u, v, w in edges:
        u, v, w = int(u), int(v), float(w)
        if u == v:
            raise SelfLoop(f"self loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise UnknownVertex(f"edge ({u}, {v}) leaves vertex range 0..{n - 1}")
        if not math.isfinite(w):
            raise InvalidParameter(f"edge ({u}, {v}) has weight {w}, must be finite")
        if w <= 0:
            raise NegativeWeight(f"edge ({u}, {v}) has weight {w}, must be > 0")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            if seen[key] != w:
                raise DuplicateEdgeConflict(
                    f"edge {key} given twice with weights {seen[key]} and {w}"
                )
            continue
        seen[key] = w
        rows += [key[0], key[1]]
        cols += [key[1], key[0]]
        data += [w, w]

    adj = sp.csr_matrix((data, (rows, cols)), shape=(n, n))

    def _vec(spec, default, name, strict_positive):
        arr = np.full(n, float(default))
        if spec is None:
            return arr
        if isinstance(spec, Mapping):
            for k, val in spec.items():
                k = int(k)
                if not 0 <= k < n:
                    raise UnknownVertex(f"{name} entry for unknown vertex {k}")
                arr[k] = float(val)
        else:
            given = np.asarray(spec, dtype=float)
            if given.shape != (n,):
                raise InvalidParameter(f"{name} must have {n} entries")
            arr = given.copy()
        if not np.isfinite(arr).all():
            raise InvalidParameter(f"{name} must be finite everywhere")
        if strict_positive and (arr <= 0).any():
            raise NonPositiveMeasure(f"{name} must be strictly positive everywhere")
        if not strict_positive and (arr < 0).any():
            raise InvalidParameter(f"{name} must be nonnegative")
        return arr

    c_arr = _vec(c, 0.0, "killing term", strict_positive=False)
    m_arr = _vec(m, 1.0, "measure", strict_positive=True)

    mask = np.zeros(n, dtype=bool)
    for v in dirichlet:
        v = int(v)
        if not 0 <= v < n:
            raise UnknownVertex(f"dirichlet entry for unknown vertex {v}")
        mask[v] = True

    if labels is None:
        label_tuple = tuple(range(n))
    else:
        label_tuple = tuple(labels)
        if len(label_tuple) != n or len(set(label_tuple)) != n:
            raise InvalidParameter("labels must be unique and cover every vertex")

    return Section(adj=adj, c=c_arr, m=m_arr, dirichlet=mask, labels=label_tuple)


def with_measure(s: Section, m) -> Section:
    """Copy of s with a replaced measure."""
    if isinstance(m, Mapping):
        arr = s.m.copy()
        for k, val in m.items():
            arr[s.index_of(k)] = float(val)
    else:
        arr = np.asarray(m, dtype=float)
        if arr.shape != (s.n,):
            raise InvalidParameter(f"measure must have {s.n} entries")
        arr = arr.copy()
    if not np.isfinite(arr).all():
        raise InvalidParameter("measure must be finite everywhere")
    if (arr <= 0).any():
        raise NonPositiveMeasure("measure must be strictly positive everywhere")
    return replace(s, m=arr)


def sections_equal(a: Section, b: Section, tol: float = 0.0) -> bool:
    """Equality up to reindexing vertices by label."""
    if a.n != b.n or set(a.labels) != set(b.labels):
        return False
    perm = np.array([b.label_index[lab] for lab in a.labels])
    if np.any(np.abs(a.c - b.c[perm]) > tol):
        return False
    if np.any(np.abs(a.m - b.m[perm]) > tol):
        return False
    if np.any(a.dirichlet != b.dirichlet[perm]):
        return False
    pa = a.adj
    pb = b.adj[perm][:, perm]
    diff = abs(pa - pb)
    return not (diff.nnz and diff.max() > tol)


# ---------------------------------------------------------------------------
# generators


class Orbits(NamedTuple):
    """The orbit section of a level and the member count of each orbit."""

    section: Section
    size: np.ndarray


@dataclass(frozen=True)
class ExhaustionGenerator:
    """A family of growing sections of one infinite graph.

    section(level) builds the finite section at the given level; labels
    at level n reappear at level n+1 with identical b and c entries, so
    per-vertex quantities can be tracked across levels.

    orbits(level) builds the level's orbit section: one vertex per orbit
    of the automorphisms that fix the origin, the mask and c. The built-in
    families build it directly, without the full level.
    """

    family: str
    params: tuple  # sorted (key, value) pairs, hashable
    origin: object  # label of the anchor vertex (profile base point)
    is_vertex_transitive: bool
    _build: Callable[[int], Section]
    _build_orbits: Callable[[int], Orbits] | None = None
    _orbit_label: Callable[[object], object] | None = None

    def section(self, level: int) -> Section:
        if level < 1:
            raise InvalidParameter(f"exhaustion level must be >= 1, got {level}")
        return self._build(level)

    def orbits(self, level: int) -> Orbits:
        """Orbit section of a level, with its orbit sizes.

        Each orbit becomes one vertex, labelled by one of its members.
        Weights between orbits, c and m are summed, an orbit is masked
        when its members are, and edges inside an orbit are dropped. The
        origin is its own orbit. The origin's equilibrium potential and
        the Dirichlet ground state are unique, hence constant on orbits,
        and a function constant on orbits has the same energy and mass
        on both sections; so the origin's capacity and the bottom of the
        Dirichlet spectrum are those of the full level. A family without
        a quotient builder, or a level whose killing summed over an orbit
        passes the float range, returns the full section with unit sizes.
        """
        if self._build_orbits is not None:
            if level < 1:
                raise InvalidParameter(f"exhaustion level must be >= 1, got {level}")
            with np.errstate(over="ignore"):  # an orbit sum past the float range is caught below
                orb = self._build_orbits(level)
            if np.isfinite(orb.section.c).all():
                return orb
        sec = self.section(level)
        return Orbits(sec, np.ones(sec.n))

    def orbit_label(self, label):
        """Label of the orbit-section vertex whose orbit holds a full-section label."""
        return label if self._orbit_label is None else self._orbit_label(label)

    def c_partial_sum(self, level: int) -> float:
        """Sum of the killing term over the level section."""
        return float(np.sum(self.section(level).c))

    def _derived(self, suffix: str, fn: Callable[[int, Section], Section]) -> "ExhaustionGenerator":
        """Generator whose full and orbit sections pass through fn(level, section)."""
        build, build_orbits = self._build, self._build_orbits

        def orbits(level: int) -> Orbits:
            orb = build_orbits(level)
            return orb._replace(section=fn(level, orb.section))

        return replace(
            self,
            family=self.family + suffix,
            _build=lambda level: fn(level, build(level)),
            _build_orbits=None if build_orbits is None else orbits,
        )

    def with_zero_c(self) -> "ExhaustionGenerator":
        """Derived generator over the same graph with the killing term dropped."""
        return self._derived("+zero-c", lambda level, sec: replace(sec, c=np.zeros(sec.n)))


def exhaust(gen: ExhaustionGenerator, n: int) -> Section:
    """Section of gen at level n (n >= 1)."""
    return gen.section(n)


def _lattice_size(d: int, radius: int) -> int:
    """(2 radius + 1)^d, one factor at a time, stopping once it passes the cap."""
    n = 1
    for _ in range(d):
        n *= 2 * radius + 1
        _check_cap(n, "lattice")
    return n


def _lattice_section(d: int, radius: int, c_origin: float, c_const: float) -> Section:
    side = 2 * radius + 1
    n = _lattice_size(d, radius)

    # coordinates in the box {-radius..radius}^d, index = mixed radix
    idx = np.arange(n)
    coords = np.empty((n, d), dtype=np.int64)
    rem = idx
    for a in range(d - 1, -1, -1):
        coords[:, a] = rem % side - radius
        rem = rem // side

    strides = np.array([side ** (d - 1 - a) for a in range(d)])
    rows, cols = [], []
    for a in range(d):
        keep = coords[:, a] < radius  # neighbor in +e_a stays in the box
        u = idx[keep]
        rows.append(u)
        cols.append(u + strides[a])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.ones(len(rows))
    adj = sp.csr_matrix(
        (np.concatenate([data, data]), (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n, n),
    )

    mask = (np.abs(coords) == radius).any(axis=1)
    c = np.full(n, float(c_const))
    if c_origin:
        origin_idx = (n - 1) // 2
        c[origin_idx] += float(c_origin)
    # mixed-radix order is the lexicographic order of the coordinates
    axis = range(-radius, radius + 1)
    labels = tuple(axis) if d == 1 else tuple(itertools.product(axis, repeat=d))
    return Section(
        adj=adj, c=c, m=np.ones(n), dirichlet=mask, labels=labels,
        parity=(coords.sum(axis=1) % 2).astype(np.int8),
    )


def _lattice_orbits(d: int, radius: int, c_origin: float, c_const: float) -> Orbits:
    """Box section of Z^d modulo the signed coordinate permutations.

    An orbit is labelled by its member with ascending nonnegative
    coordinates. A member's neighbours raise or lower one |coordinate| by
    1 (0 goes to 1 both ways), which changes the coordinate sum, so no
    edge stays inside an orbit.
    """
    _lattice_size(d, radius)  # the cap applies to the full level
    side = radius + 1
    if d == 1:
        labels = tuple(range(side))
    else:
        labels = tuple(itertools.combinations_with_replacement(range(side), d))
    a = np.array(labels, dtype=np.int64).reshape(len(labels), d)
    k = len(a)

    # members: d! / prod(multiplicity!) orderings times 2 signs per nonzero coordinate
    ties = np.ones(k)
    run = np.ones(k)
    for j in range(1, d):
        run = np.where(a[:, j] == a[:, j - 1], run + 1, 1)
        ties *= run
    size = math.factorial(d) / ties * 2.0 ** np.count_nonzero(a, axis=1)

    # labels ascend lexicographically, so their mixed-radix keys ascend
    radix = side ** np.arange(d - 1, -1, -1, dtype=np.int64)
    keys = a @ radix
    rows, cols = [], []
    for j in range(d):
        for step in (1, -1):
            b = a.copy()
            b[:, j] = np.abs(b[:, j] + step)
            keep = b[:, j] <= radius
            rows.append(np.flatnonzero(keep))
            cols.append(np.searchsorted(keys, np.sort(b[keep], axis=1) @ radix))
    rows = np.concatenate(rows)
    # each member has one edge per step into the target orbit; duplicates sum
    adj = sp.csr_matrix((size[rows], (rows, np.concatenate(cols))), shape=(k, k))

    c = float(c_const) * size
    c[0] += float(c_origin)
    sec = Section(
        adj=adj, c=c, m=size.copy(), dirichlet=a[:, -1] == radius, labels=labels,
        parity=(a.sum(axis=1) % 2).astype(np.int8),
    )
    return Orbits(sec, size)



def _check_killing(*terms: float) -> None:
    if not all(math.isfinite(c) and c >= 0 for c in terms):
        raise InvalidParameter("killing terms must be finite and nonnegative")


def lattice_generator(d: int, c_origin: float = 0.0, c_const: float = 0.0) -> ExhaustionGenerator:
    """Integer lattice Z^d exhausted by sup-norm balls.

    Level n is the box {-n..n}^d with unit nearest-neighbor weights; the
    Dirichlet mask is the outermost shell (every vertex with some
    coordinate of absolute value n), which is exactly the set adjacent to
    the complement. Optional killing: c_origin adds mass at the origin,
    c_const everywhere.
    """
    if d < 1:
        raise InvalidParameter(f"lattice dimension must be >= 1, got {d}")
    _check_killing(c_origin, c_const)
    _lattice_size(d, 1)  # before the d-tuple origin: no level fits when level 1 does not
    origin = 0 if d == 1 else tuple([0] * d)
    return ExhaustionGenerator(
        family="lattice",
        params=(("c", c_const), ("c0", c_origin), ("d", d)),
        origin=origin,
        is_vertex_transitive=(c_origin == 0 and c_const == 0),
        _build=lambda level: _lattice_section(d, level, c_origin, c_const),
        _build_orbits=lambda level: _lattice_orbits(d, level, c_origin, c_const),
        _orbit_label=lambda label: abs(label) if d == 1 else tuple(sorted(abs(v) for v in label)),
    )


def generate_lattice(d: int, radius: int) -> Section:
    """Box section of Z^d, wired shell masked. Equals lattice_generator(d).section(radius)."""
    return lattice_generator(d).section(radius)


def _tree_widths(degree: int, depth: int) -> list:
    """Vertices per depth: the root, its `degree` children, then `degree - 1`
    children per vertex of each further depth."""
    widths = [1]
    for level in range(1, depth + 1):
        widths.append(degree if level == 1 else widths[-1] * (degree - 1))
        _check_cap(sum(widths), "tree")
    return widths


def tree_depth_fits(degree: int, depth: int) -> bool:
    """Whether the depth ball passes the vertex cap, counted as building it counts."""
    try:
        _tree_widths(degree, depth)
    except SizeOverflow:
        return False
    return True


def _tree_section(degree: int, depth: int, c_origin: float, c_const: float) -> Section:
    # vertices in BFS order, one depth after the other
    widths = _tree_widths(degree, depth)
    n = sum(widths)

    labels = ["r"]
    prev = labels
    for level in range(1, depth + 1):
        ks = range(degree if level == 1 else degree - 1)
        prev = [f"{p}.{k}" for p in prev for k in ks]
        labels += prev

    # parent of every non-root vertex: the root's children, then runs of
    # degree - 1 siblings under vertices 1, 2, ...
    parent = np.zeros(n - 1, dtype=np.int32)
    parent[degree:] = 1 + np.arange(n - 1 - degree, dtype=np.int32) // (degree - 1)
    deg = np.bincount(parent, minlength=n).astype(np.int32)
    deg[1:] += 1
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(deg, out=indptr[1:])
    # each row holds its parent first, then its children; children of
    # consecutive rows are consecutive vertices
    indices = np.empty(indptr[-1], dtype=np.int32)
    is_child = np.ones(len(indices), dtype=bool)
    is_child[indptr[1:n]] = False
    indices[indptr[1:n]] = parent
    indices[is_child] = np.arange(1, n, dtype=np.int32)
    adj = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))

    mask = np.zeros(n, dtype=bool)
    mask[n - widths[-1]:] = True  # depth-level leaves: adjacent to the rest of the tree
    c = np.zeros(n)
    if c_origin:
        c[0] = float(c_origin)
    if c_const:
        c = c + float(c_const)
    depth_parity = np.repeat(np.arange(depth + 1) % 2, widths).astype(np.int8)
    return Section(
        adj=adj, c=c, m=np.ones(n), dirichlet=mask, labels=tuple(labels), parity=depth_parity
    )


def _tree_orbits(degree: int, depth: int, c_origin: float, c_const: float) -> Orbits:
    """Depth ball modulo the automorphisms fixing the root: one orbit per
    depth, labelled by its first member, so the section is a weighted path
    whose edge into a depth carries one unit per member of that depth."""
    size = np.array(_tree_widths(degree, depth), dtype=float)
    i = np.arange(depth)
    w = size[1:]
    adj = sp.csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([i, i + 1]), np.concatenate([i + 1, i]))),
        shape=(depth + 1, depth + 1),
    )
    mask = np.zeros(depth + 1, dtype=bool)
    mask[-1] = True
    c = float(c_const) * size
    c[0] += float(c_origin)
    labels = tuple("r" + ".0" * j for j in range(depth + 1))
    sec = Section(
        adj=adj, c=c, m=size.copy(), dirichlet=mask, labels=labels,
        parity=(np.arange(depth + 1) % 2).astype(np.int8),
    )
    return Orbits(sec, size)


def tree_generator(degree: int, c_origin: float = 0.0, c_const: float = 0.0) -> ExhaustionGenerator:
    """Rooted regular tree exhausted by depth balls.

    The root has `degree` children and every deeper internal vertex has
    total degree `degree`. Level n is the depth-n ball with the depth-n
    leaves masked (they are the vertices adjacent to the rest of the
    infinite tree). Sections are rooted, so no transitivity is claimed.
    """
    if degree < 3:
        raise InvalidParameter(f"tree degree must be >= 3, got {degree}")
    _check_killing(c_origin, c_const)
    return ExhaustionGenerator(
        family="tree",
        params=(("c", c_const), ("c0", c_origin), ("k", degree)),
        origin="r",
        is_vertex_transitive=False,
        _build=lambda level: _tree_section(degree, level, c_origin, c_const),
        _build_orbits=lambda level: _tree_orbits(degree, level, c_origin, c_const),
        _orbit_label=lambda label: "r" + ".0" * label.count("."),
    )


def generate_tree(degree: int, depth: int) -> Section:
    """Depth ball of the regular tree, leaves masked. Equals tree_generator(degree).section(depth)."""
    return tree_generator(degree).section(depth)


def custom_generator(
    build: Callable[[int], Section],
    origin,
    family: str = "custom",
    is_vertex_transitive: bool = False,
) -> ExhaustionGenerator:
    """Wrap a user level -> Section rule as an exhaustion generator."""
    return ExhaustionGenerator(
        family=family,
        params=(),
        origin=origin,
        is_vertex_transitive=is_vertex_transitive,
        _build=build,
    )


# ---------------------------------------------------------------------------
# file format
#
# One record per line, '#' starts a comment:
#   V <n>            vertex count (required, first record)
#   L <v> <label>    label override (default: the index itself)
#   E <u> <v> <w>    undirected edge, weight w > 0
#   C <v> <value>    killing term entry (default 0)
#   M <v> <value>    measure entry (default 1)
#   D <v>            Dirichlet mask membership


def format_label(label) -> str:
    if isinstance(label, tuple):
        return ",".join(str(part) for part in label)
    return str(label)


def parse_label(token: str):
    if "," in token:
        return tuple(_label_part(p) for p in token.split(","))
    return _label_part(token)


def _label_part(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def parse_graph_file(text: str) -> Section:
    """Parse the graph file format into a Section."""
    n = None
    labels: dict = {}
    edges = []
    c_entries: dict = {}
    m_entries: dict = {}
    mask = []

    def want_vertex(token, lineno):
        try:
            v = int(token)
        except ValueError:
            raise GraphSyntaxError(f"expected vertex index, got {token!r}", lineno)
        if n is None or not 0 <= v < n:
            raise GraphSyntaxError(f"vertex {v} out of range", lineno)
        return v

    def want_number(token, what, lineno):
        try:
            x = float(token)
        except ValueError:
            raise GraphSyntaxError(f"bad {what} {token!r}", lineno)
        if not math.isfinite(x):
            raise GraphSyntaxError(f"{what} {token!r} is not finite", lineno)
        return x

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "V":
            if n is not None:
                raise GraphSyntaxError("duplicate V record", lineno)
            if len(parts) != 2:
                raise GraphSyntaxError("V takes exactly one argument", lineno)
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphSyntaxError(f"bad vertex count {parts[1]!r}", lineno)
            if n < 1:
                raise GraphSyntaxError(f"vertex count must be >= 1, got {n}", lineno)
            continue
        if n is None:
            raise GraphSyntaxError("V record must come first", lineno)
        if kind == "L":
            if len(parts) != 3:
                raise GraphSyntaxError("L takes vertex and label", lineno)
            v = want_vertex(parts[1], lineno)
            labels[v] = parse_label(parts[2])
        elif kind == "E":
            if len(parts) != 4:
                raise GraphSyntaxError("E takes two vertices and a weight", lineno)
            u = want_vertex(parts[1], lineno)
            v = want_vertex(parts[2], lineno)
            edges.append((u, v, want_number(parts[3], "weight", lineno)))
        elif kind == "C":
            if len(parts) != 3:
                raise GraphSyntaxError("C takes vertex and value", lineno)
            v = want_vertex(parts[1], lineno)
            c_entries[v] = want_number(parts[2], "value", lineno)
        elif kind == "M":
            if len(parts) != 3:
                raise GraphSyntaxError("M takes vertex and value", lineno)
            v = want_vertex(parts[1], lineno)
            m_entries[v] = want_number(parts[2], "value", lineno)
        elif kind == "D":
            if len(parts) != 2:
                raise GraphSyntaxError("D takes exactly one vertex", lineno)
            mask.append(want_vertex(parts[1], lineno))
        else:
            raise GraphSyntaxError(f"unknown record type {kind!r}", lineno)

    if n is None:
        raise GraphSyntaxError("missing V record")

    label_list = None
    if labels:
        label_list = [labels.get(i, i) for i in range(n)]
    return build_section(
        n, edges, c=c_entries or None, m=m_entries or None, dirichlet=mask, labels=label_list
    )


def serialize_graph_file(s: Section) -> str:
    """Canonical text form; parse(serialize(s)) == s up to label reindexing."""
    lines = [f"V {s.n}"]
    for i, lab in enumerate(s.labels):
        if lab != i:
            token = format_label(lab)
            if not token or any(ch.isspace() for ch in token) or token.startswith("#"):
                raise InvalidParameter(f"label {lab!r} cannot be serialized")
            lines.append(f"L {i} {token}")
    coo = sp.triu(s.adj, k=1).tocoo()
    order = np.lexsort((coo.col, coo.row))
    for k in order:
        lines.append(f"E {coo.row[k]} {coo.col[k]} {repr(float(coo.data[k]))}")
    for v in np.flatnonzero(s.c):
        lines.append(f"C {v} {repr(float(s.c[v]))}")
    for v in np.flatnonzero(s.m != 1.0):
        lines.append(f"M {v} {repr(float(s.m[v]))}")
    for v in s.mask:
        lines.append(f"D {v}")
    return "\n".join(lines) + "\n"


# vertex function files: lines "<vertex> <value>", missing vertices default 0


def parse_vertex_fn(text: str, s: Section) -> VertexFn:
    values = np.zeros(s.n)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphSyntaxError("expected '<vertex> <value>'", lineno)
        try:
            v = int(parts[0])
        except ValueError:
            raise GraphSyntaxError(f"bad vertex index {parts[0]!r}", lineno)
        if not 0 <= v < s.n:
            raise GraphSyntaxError(f"vertex {v} out of range", lineno)
        try:
            values[v] = float(parts[1])
        except ValueError:
            raise GraphSyntaxError(f"bad value {parts[1]!r}", lineno)
    return VertexFn(s, values)


def serialize_vertex_fn(f: VertexFn) -> str:
    lines = [f"{v} {repr(float(x))}" for v, x in enumerate(f.values) if x != 0.0]
    return "\n".join(lines) + "\n" if lines else ""
