"""Exact toolkit for (t, r) broadcast domination.

A broadcast of strength t at a vertex v gives reception t - d to every vertex
at distance d < t. A set of broadcasts dominates when every vertex accumulates
reception at least r. This package counts and enumerates the L1 shells and
balls behind the coverage arithmetic, computes exact lower bounds for grids,
searches periodic broadcast patterns on the infinite grid, and solves small
finite graphs exactly. All arithmetic is integer-exact; nothing is random.
"""

from . import coverage_bounds, graph_domination, lattice_geometry, pattern_engine
from .coverage_bounds import *
from .graph_domination import *
from .lattice_geometry import *
from .pattern_engine import *

__version__ = "0.1.0"

__all__ = [
    *coverage_bounds.__all__, *graph_domination.__all__,
    *lattice_geometry.__all__, *pattern_engine.__all__,
]
