"""Coverage of a single broadcast and the resulting grid lower bounds.

A broadcast of strength t at a point of Z^n delivers reception t - d to every
point at L1 distance d < t, but any one receiver only counts up to r of it.
The coverage C_{t,r}(Z^n) is the total capped reception a single broadcast
can deliver; dividing it into the demand r * |V| of a finite grid gives a
lower bound on how many broadcasts a dominating set needs. coverage() sums
ball sizes; coverage_closed_form() gives the same count in any dimension from
one binomial identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lattice_geometry import ball_size

__all__ = [
    "GridDims", "Params", "coverage", "coverage_closed_form",
    "domination_lower_bound", "max_potential_d",
]


@dataclass(frozen=True)
class Params:
    """Broadcast strength t and reception demand r, with t >= r >= 1."""

    t: int
    r: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("r must be at least 1")
        if self.t < self.r:
            raise ValueError("t must be at least r")


@dataclass(frozen=True)
class GridDims:
    """Side lengths of a finite grid graph, each at least 1."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise ValueError("grid needs at least one dimension")
        if any(m < 1 for m in self.dims):
            raise ValueError("grid dimensions must be at least 1")

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def volume(self) -> int:
        return math.prod(self.dims)


def coverage(n: int, params: Params) -> int:
    """Capped reception a single broadcast delivers over all of Z^n.

    A point at distance d < t counts min(t - d, r), which is the number of
    j < r with d <= t - 1 - j; so the coverage is the sum over j < r of the
    ball sizes B_n(t - 1 - j). The center counts r, not t.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return sum(ball_size(n, params.t - 1 - j) for j in range(params.r))


def coverage_closed_form(n: int, params: Params) -> int:
    """Coverage by one binomial identity, for every dimension n >= 1.

    coverage(n, (t, r)) = sum over i <= min(n, t - 1) of
    C(n, i) * 2^i * (C(t, i + 1) - C(t - r, i + 1)). Each ball B_n(d) is the
    Delannoy sum of C(n, i) * C(d, i) * 2^i, and the hockey-stick identity
    sums C(d, i) over the r radii d = t - r .. t - 1 that coverage() adds up.
    On the plane this is r * (6t^2 - 6tr + 2r^2 + 1) / 3. It reads only
    math.comb and shares no code with coverage(), so each checks the other.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    t, r = params.t, params.r
    return sum(
        math.comb(n, i) * 2**i * (math.comb(t, i + 1) - math.comb(t - r, i + 1))
        for i in range(min(n, t - 1) + 1)
    )


def domination_lower_bound(grid: GridDims, params: Params) -> int:
    """Least possible size of a dominating broadcast set on the grid.

    Every vertex needs reception r and one broadcast supplies at most the
    full-lattice coverage, so ceil(r * volume / coverage) broadcasts are
    required. Grid boundary effects only make the true need larger.
    """
    c = coverage(grid.n, params)
    demand = params.r * grid.volume
    return -((-demand) // c)


def max_potential_d(n: int, params: Params) -> int:
    """Largest plausible period d for a pattern with one broadcast per d cells.

    A pattern placing one broadcast in every d lattice cells delivers average
    reception coverage / d, which must reach r; hence d <= coverage / r.
    """
    return coverage(n, params) // params.r
