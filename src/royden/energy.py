"""The quadratic energy form and its operator.

For a section with weights b, killing term c and a function f:

    energy(f)       = 0.5 * sum_{x,y} b(x,y) (f(x) - f(y))^2  +  sum_x c(x) f(x)^2
    laplacian f (x) = sum_y b(x,y) (f(x) - f(y)) + c(x) f(x)

The edge sum iterates every unordered pair exactly once, in the fixed
CSR order, so results are reproducible bit for bit. energy accepts any
function on the section (including nonzero mask values); admissibility
is the caller's concern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Section, VertexFn, check_bound
from .numerics import SymOperator


@dataclass(frozen=True)
class EnergyValue:
    value: float
    edge_part: float
    killing_part: float

    def __float__(self) -> float:
        return self.value


def energy(s: Section, f: VertexFn) -> EnergyValue:
    """Value of the energy form at f, split into edge and killing parts."""
    check_bound(s, f)
    row, col, w = s.upper_edges
    diffs = f.values[row] - f.values[col]
    edge = float(np.dot(w, diffs * diffs))
    kill = float(np.dot(s.c, f.values * f.values))
    return EnergyValue(value=edge + kill, edge_part=edge, killing_part=kill)


def energy_inner(s: Section, f: VertexFn, g: VertexFn) -> float:
    """Polarized form: 0.5 sum b (f(x)-f(y))(g(x)-g(y)) + sum c f g."""
    check_bound(s, f)
    check_bound(s, g)
    row, col, w = s.upper_edges
    edge = float(np.dot(w, (f.values[row] - f.values[col]) * (g.values[row] - g.values[col])))
    kill = float(np.dot(s.c, f.values * g.values))
    return edge + kill


def o_norm(s: Section, f: VertexFn, o) -> float:
    """(energy(f) + f(o)^2)^(1/2), the norm anchored at vertex o."""
    check_bound(s, f)
    v = s.index_of(o)
    e = energy(s, f).value
    return float(np.sqrt(e + f.values[v] ** 2))


def formal_laplacian(s: Section, f: VertexFn) -> VertexFn:
    """Pointwise operator sum_y b(x,y)(f(x)-f(y)) + c(x) f(x), every vertex."""
    check_bound(s, f)
    out = (s.weighted_degree + s.c) * f.values - s.adj.dot(f.values)
    return VertexFn(s, out)


def energy_matrix(s: Section, subset: np.ndarray) -> SymOperator:
    """Matrix of the energy form restricted to functions supported on subset.

    Rows and columns outside subset are dropped; the diagonal keeps the
    full weighted degree plus killing term, which realizes the wired
    (Dirichlet) restriction: edges leaving the subset act as grounding.
    The operator gets the weights among subset and the diagonal as parts,
    with the section's colour, and holds no reference to the section.
    """
    subset = np.asarray(subset, dtype=int)
    off = s.adj[subset][:, subset]
    np.negative(off.data, out=off.data)
    return SymOperator(off, colour=s.colour[subset], diagonal=(s.weighted_degree + s.c)[subset])
