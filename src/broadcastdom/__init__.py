"""Exact toolkit for (t, r) broadcast domination.

A broadcast of strength t at a vertex v gives reception t - d to every vertex
at distance d < t. A set of broadcasts dominates when every vertex accumulates
reception at least r. This package counts and enumerates the L1 shells and
balls behind the coverage arithmetic, computes exact lower bounds for grids,
searches periodic broadcast patterns on the infinite grid, and solves small
finite graphs exactly. All arithmetic is integer-exact; nothing is random.
"""

from .coverage_bounds import (
    GridDims,
    Params,
    coverage,
    coverage_closed_form,
    domination_lower_bound,
    max_potential_d,
)
from .graph_domination import (
    CycleLemmaReport,
    FiniteGraph,
    GammaResult,
    GraphExprError,
    TorusReport,
    VizingPairReport,
    gamma_exact,
    is_dominating_set,
    parse_graph_expr,
    reception_map,
    verify_cycle_lemma,
    verify_torus_counterexample,
    vizing_scan,
)
from .lattice_geometry import (
    DEFAULT_ENUMERATION_CAP,
    GENFUNC_KINDS,
    CapExceeded,
    LatticePoint,
    SignedTuple,
    TupleSequence,
    ball_bijection,
    ball_size,
    delannoy,
    genfunc_coefficients,
    shell_enumerate,
    shell_size,
    tuple_decode,
    tuple_encode,
)
from .pattern_engine import (
    DEFAULT_INDEX_CAP,
    ReceptionProfile,
    SublatticePattern,
    TowerPattern,
    hermite_normal_form,
    is_dominating_lattice,
    is_dominating_tower,
    lattice_receptions,
    lattice_search_3d,
    min_density_search,
    reception_table,
    tower_reception,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_INDEX_CAP",
    "GENFUNC_KINDS",
    "CapExceeded",
    "CycleLemmaReport",
    "FiniteGraph",
    "GammaResult",
    "GraphExprError",
    "GridDims",
    "LatticePoint",
    "Params",
    "ReceptionProfile",
    "SignedTuple",
    "SublatticePattern",
    "TorusReport",
    "TowerPattern",
    "TupleSequence",
    "VizingPairReport",
    "ball_bijection",
    "ball_size",
    "coverage",
    "coverage_closed_form",
    "delannoy",
    "domination_lower_bound",
    "gamma_exact",
    "genfunc_coefficients",
    "hermite_normal_form",
    "is_dominating_lattice",
    "is_dominating_set",
    "is_dominating_tower",
    "lattice_receptions",
    "lattice_search_3d",
    "max_potential_d",
    "min_density_search",
    "parse_graph_expr",
    "reception_map",
    "reception_table",
    "shell_enumerate",
    "shell_size",
    "tower_reception",
    "tuple_decode",
    "tuple_encode",
    "verify_cycle_lemma",
    "verify_torus_counterexample",
    "vizing_scan",
]
