"""Potential theory on finite sections of weighted graphs.

A section is a finite weighted graph with a killing term, a vertex
measure and a Dirichlet mask; exhaustion generators produce growing
families of sections. On top of that the package computes energies,
equilibrium potentials and capacities, intrinsic (energy) metrics,
Royden-type decompositions of functions, Dirichlet spectra with heat
semigroup bounds, and Monte Carlo escape probabilities, and combines
them into transience / uniform-transience verdicts.
"""

from .energy import EnergyValue, energy, energy_inner, energy_matrix, formal_laplacian, o_norm
from .errors import (
    DimensionCap,
    DisconnectedPair,
    DuplicateEdgeConflict,
    EmptyInterior,
    GraphSyntaxError,
    InvalidParameter,
    KillingUnsupported,
    MissingBoundaryValue,
    MonotonicityViolation,
    NegativeTime,
    NegativeWeight,
    NoConvergence,
    NonPositiveMeasure,
    NotHarmonic,
    RoydenError,
    SameVertex,
    SectionMismatch,
    SelfLoop,
    SingularOperator,
    SizeOverflow,
    UngroundedComponent,
    UnknownVertex,
    UnmaskedSection,
)
from .graph import (
    ExhaustionGenerator,
    Section,
    ValidationReport,
    VertexFn,
    build_section,
    custom_generator,
    exhaust,
    format_label,
    generate_lattice,
    generate_tree,
    lattice_generator,
    parse_graph_file,
    parse_label,
    parse_vertex_fn,
    sections_equal,
    serialize_graph_file,
    serialize_vertex_fn,
    tree_generator,
    vertex_cap,
    with_measure,
)
from .harmonic import (
    Decomposition,
    HarmonicBoundaryReport,
    LiouvilleReport,
    MaxPrincipleReport,
    TruncationResult,
    harmonic_boundary_empty,
    liouville_probe,
    max_principle_check,
    one_point_summary,
    royden_decompose,
    solve_dirichlet,
    truncate_harmonic,
)
from .numerics import CGResult, SymOperator, cg_solve, dense_eigh, solve_rank_one
from .potential import (
    CapacityProfile,
    EquilibriumPotential,
    GammaValue,
    SupNormConstant,
    TransienceVerdict,
    UTReport,
    capacity_profile,
    classify_transience,
    equilibrium_potential,
    free_resistance,
    gamma,
    gamma_o,
    interior_capacities,
    sup_norm_constant,
    uniform_transience_report,
)
from .spectral import (
    EigenvalueBoundsReport,
    SpectralGapReport,
    SpectralResult,
    UltracontractivityReport,
    eigenvalue_bounds_check,
    heat_apply,
    heat_trace,
    spectral_gap_criterion,
    spectrum,
    ultracontractivity_check,
)
from .walker import WalkEstimate, escape_probability

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
