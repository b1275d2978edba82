"""Coverage of a single broadcast and the resulting grid lower bounds.

A broadcast of strength t at a point of Z^n delivers reception t - d to every
point at L1 distance d < t, but any one receiver only counts up to r of it.
The coverage C_{t,r}(Z^n) is the total capped reception a single broadcast
can deliver; dividing it into the demand r * |V| of a finite grid gives a
lower bound on how many broadcasts a dominating set needs.
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


# Closed forms of coverage(n, (t, r)) for small n, as polynomials in t and r.
# Keyed by n; each entry maps (t_power, r_power) to an integer numerator over
# the common denominator _CLOSED_FORM_DENOMINATOR, so that 2/15 is stored as
# 2 and 4/3 as 20, and the sum stays in exact integers.
_CLOSED_FORM_DENOMINATOR = 15
_CLOSED_FORMS: dict[int, dict[tuple[int, int], int]] = {
    1: {
        (1, 1): 30,
        (0, 2): -15,
    },
    2: {
        (0, 3): 10,
        (1, 2): -30,
        (2, 1): 30,
        (0, 1): 5,
    },
    3: {
        (0, 4): -5,
        (1, 3): 20,
        (2, 2): -30,
        (0, 2): -10,
        (3, 1): 20,
        (1, 1): 20,
    },
    4: {
        (0, 5): 2,
        (1, 4): -10,
        (2, 3): 20,
        (0, 3): 10,
        (3, 2): -20,
        (1, 2): -30,
        (4, 1): 10,
        (2, 1): 30,
        (0, 1): 3,
    },
}


def coverage_closed_form(n: int, params: Params) -> int:
    """Coverage via the closed-form polynomial, available for n in 1..4.

    Agrees with coverage(n, params) on every valid input; the polynomial is
    exact, so the numerator total is always divisible by the denominator.
    """
    if n not in _CLOSED_FORMS:
        raise ValueError(f"no closed form for dimension {n}; use coverage()")
    t, r = params.t, params.r
    total = sum(
        coeff * t**tp * r**rp for (tp, rp), coeff in _CLOSED_FORMS[n].items()
    )
    value, remainder = divmod(total, _CLOSED_FORM_DENOMINATOR)
    assert remainder == 0
    return value


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
