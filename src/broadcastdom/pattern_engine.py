"""Periodic broadcast patterns on the integer lattice.

A pattern places a broadcast at every point of a full-rank sublattice of Z^n
and dominates when every point still accumulates reception r; reception is
constant on cosets. T(d,e) is the SublatticePattern with basis ((d,0),(e,1)).
Towers of Z^n, broadcasts at (m*d + y.e, y) for y in Z^(n-1), are searched
in Z^2 and Z^3 by _tower_search, from the coverage ceiling (lowered to a
caller's cap) down; _check_profiles refuses a top before any work. The
tent t - |y|_1 - |x| is summed in three places. The row profiles, indexed
by |y|_1 and stepped in place from one d to the next, hold it per row of
broadcasts. For each prefix e[:-1] of the shift vector e, a scatter of the
ball (_column) sums it for every row with d not dividing y_last (the others
read their profile) and gives one column's reception for every last entry
of e at once: column d // 2, then the column that rejected the last e; each
e below r at either is dropped, and the rest are walked over the other
columns of the profiles, rotated for each e, as are reception_table's rows.
The coset histogram, a dict from reached box representatives to receptions,
sums it for every other, single-pattern reception. All share the cap of
DEFAULT_INDEX_CAP cosets; the t row profiles of d slots each also share the
cap of _PROFILE_SLOT_CAP slots. Every cap refuses through _check_cap with
the one CapExceeded.
"""

from __future__ import annotations

import itertools
import math
from operator import getitem, sub
from typing import Callable, Sequence

from .coverage_bounds import Params, max_potential_d
from .lattice_geometry import LatticePoint, _ball_walk, _check_cap, _Record

__all__ = [
    "DEFAULT_INDEX_CAP", "ReceptionProfile", "SublatticePattern", "TowerPattern",
    "hermite_normal_form", "is_dominating_lattice", "is_dominating_tower",
    "lattice_receptions", "lattice_search_3d", "min_density_search",
    "reception_table", "tower_reception",
]

DEFAULT_INDEX_CAP = 10**6
_PROFILE_SLOT_CAP = 10**7  # ints held by the t row profiles of d slots each


class ReceptionProfile(_Record):
    """Reception of one period of columns, split by source row.

    rows holds (y, contributions) pairs with y descending; receptions is the
    column-wise total over all rows.
    """

    pattern: str
    receptions: tuple[int, ...]
    rows: tuple[tuple[int, tuple[int, ...]], ...]


def _check_index(index: int, cap: int) -> None:
    if cap < 1:
        raise ValueError("index_cap must be at least 1")
    _check_cap("pattern has {} cosets", index, cap)


def _check_profiles(t: int, d: int) -> None:
    """Refuse the row profiles of (t, d) before they are built.

    First d against DEFAULT_INDEX_CAP cosets, then their t * d slots against
    _PROFILE_SLOT_CAP.
    """
    _check_index(d, DEFAULT_INDEX_CAP)
    _check_cap("row profiles have {} slots", t * d, _PROFILE_SLOT_CAP)


def _reduce(basis: tuple[tuple[int, ...], ...], residue: list[int]) -> list[int]:
    """Reduce residue in place to the box representative of its coset.

    For i from n-1 down to 0, subtract the multiple of Hermite column i that
    brings coordinate i into [0, basis[i][i]); zero exactly on the lattice.
    """
    for i in range(len(residue) - 1, -1, -1):
        q = residue[i] // basis[i][i]
        if q:
            for k in range(i + 1):
                residue[k] -= q * basis[i][k]
    return residue


def _coset_histogram(
    t: int, basis: tuple[tuple[int, ...], ...]
) -> dict[tuple[int, ...], int]:
    """Reception of each reached coset, keyed by its box representative.

    Point p receives t - |off| from the broadcast at p - off, so offset off
    adds to its own coset. Each y in B_(n-1)(t-1) is a row of offsets (x, *y)
    with |x| < reach = t - |y|_1, each adding reach - |x| at ((shift + x) mod
    d, *rest), where d = basis[0][0] and (shift, *rest) is (0, *y) reduced.
    The walk lists y reversed, so rows that share y[1:] come in one run:
    (0, 0, *y[1:]) is reduced once per run, then coordinate 1 alone per row.
    Unreached cosets have no key.
    """
    d, hist, tail = basis[0][0], {}, None
    for z, left in _ball_walk(len(basis) - 1, t - 1):  # z is y reversed
        shift, rest, reach = 0, (), left + 1
        if z:
            if z[:-1] != tail:
                tail = z[:-1]
                base = _reduce(basis, [0, 0, *tail[::-1]])
            q, m = divmod(base[1] + z[-1], basis[1][1])
            shift, rest = base[0] - q * basis[1][0], (m, *base[2:])
        for x in range(-left, reach):
            key = ((shift + x) % d,) + rest
            hist[key] = hist.get(key, 0) + reach - abs(x)
    return hist


def _row_profiles(t: int, d: int) -> list[list[int]]:
    """What one row of broadcasts at x = 0 (mod d) sends to each column.

    Profile a, for 0 <= a < t, is that row at transverse distance a: column
    k gets t - a - |x| from every offset x = k (mod d) with |x| < t - a. A
    tower receives the sum over its rows y of profile |y|_1 at column
    i - y.e (mod d). Refused by _check_profiles before anything is allocated.
    """
    _check_profiles(t, d)
    return [_profile(reach, d) for reach in range(t, 0, -1)]


def _profile(reach: int, d: int) -> list[int]:
    """Profile t - reach of _row_profiles(t, d), for any t >= reach."""
    row = [0] * d
    for x in range(1 - reach, reach):
        row[x % d] += reach - abs(x)
    return row


def tower_reception(params: Params, pattern: TowerPattern, i: int) -> int:
    """Total reception at column i of row 0, one value per residue class.

    The tower's coset histogram at (i, 0); refuses d > DEFAULT_INDEX_CAP.
    """
    if not 0 <= i < pattern.d:
        raise ValueError(f"column must satisfy 0 <= i < {pattern.d}")
    _check_index(pattern.d, DEFAULT_INDEX_CAP)
    return _coset_histogram(params.t, pattern.basis).get((i, 0), 0)


def reception_table(params: Params, pattern: TowerPattern) -> ReceptionProfile:
    """Per-row reception breakdown across one period of columns.

    Row y, for y = t-1 down to 1-t, is profile |y| rotated right by y*e
    (mod d), cut with slices; the column-wise sum is the receptions field.
    """
    t, d, e = params.t, pattern.d, pattern.e
    profiles, rows = _row_profiles(t, d), []
    for y in range(t - 1, -t, -1):
        row, cut = profiles[abs(y)], d - y * e % d
        rows.append((y, tuple(row[cut:] + row[:cut])))
    totals = tuple(map(sum, zip(*(vec for _, vec in rows))))
    return ReceptionProfile(str(pattern), totals, tuple(rows))


def _least_in_orbit(e: tuple[int, ...], d: int, canon: Sequence[int]) -> bool:
    """Whether T(d; e) of Z^(len(e) + 1) is not an image of one tried earlier.

    Flipping the sign of axis y_j maps e_j to d - e_j and permuting the y
    axes permutes e, so the least vector of each orbit is nondecreasing with
    every e_j <= d // 2, as the search lists them. When gcd(e_j, d) = 1,
    swapping x with y_j gives e_j^-1 at j and -e_j^-1 * e_i at i != j
    (mod d); e fails when that image's least vector, sorted canon[v] with
    canon[v] = min(v, d - v), comes first (surely when its entry at j is
    below e_0, the whole test for one coordinate). So a prefix whose first
    entry fails alone fails every e it starts.
    """
    for j, v in enumerate(e):
        if v > 1 and math.gcd(v, d) == 1:
            w = pow(v, -1, d)
            c = canon[w]
            if c < e[0] or len(e) > 1 and sorted(
                c if k == j else canon[w * u % d] for k, u in enumerate(e)
            ) < list(e):
                return False
    return True


def _column(
    d: int, ball: Sequence[tuple[LatticePoint, int]], rows: Sequence[list[int]]
) -> Callable[[Sequence[int], int], list[int]]:
    """Column i's reception in T(d; *prefix, l) for every l <= d // 2.

    Returns it as a function of base and i: ball lists each y of
    B_(n-1)(t-1) with t - 1 - |y|_1, as _ball_walk does, rows the level's
    row profile of each y, and base y[:-1].prefix for each y. Offset (x, y)
    reaches column i exactly when y_last * l = off - x (mod d), where
    off = i - y[:-1].prefix. With g = gcd(y_last, d), that needs x = off
    (mod g), and then l = q * (y_last / g)^-1 (mod d / g) with
    q = (off - x) / g; each solution l gets t - |y|_1 - |x|. A row with
    d | y_last adds the same to every l: its profile at off, read once.
    """
    half = d // 2 + 1
    fixed, scattered = [], []
    for k, (((*_, last), left), row) in enumerate(zip(ball, rows)):
        g = math.gcd(last, d)
        if g == d:
            fixed.append((k, row))
        else:
            scattered.append((k, left, g, d // g, pow(last // g, -1, d // g)))

    def column(base: Sequence[int], i: int) -> list[int]:
        received = [sum(row[(i - base[k]) % d] for k, row in fixed)] * half
        for k, left, g, m, inv in scattered:
            off = (i - base[k]) % d
            # the least x >= -left with x = off (mod g), then every g-th one
            for x in range(off - (off + left) // g * g, left + 1, g):
                l = (off - x) // g * inv % m
                while l < half:
                    received[l] += left + 1 - abs(x)
                    l += m
        return received

    return column


def _step_profiles(profiles: list[list[int]], d: int) -> None:
    """Step the row profiles of level d to those of level d - 1, in place.

    A profile of reach t - a that does not wrap (2(t - a) - 1 < d) holds
    zeros from index t - a to d - t + a, so it loses the one at t - a. Only
    the profiles that wrap are rebuilt, by _profile at d - 1. Lists that
    alias a profile stay valid.
    """
    t = len(profiles)
    for a, row in enumerate(profiles):
        if 2 * (t - a) - 1 < d:
            del row[t - a]
        else:
            row[:] = _profile(t - a, d - 1)


def _tower_search(
    n: int, params: Params, cap: int | None = None
) -> tuple[int, tuple[int, ...]]:
    """Sparsest dominating tower T(d; e) of Z^n: largest d <= top, then least e.

    top is the coverage ceiling max_potential_d(n, params), lowered to cap
    when one is given. The row profiles are built at top first, so a top
    that _check_profiles refuses is refused before anything else is allocated.
    Offset y sends row profile |y|_1 to column i - y.e (mod d). Every coset
    meets the x-axis, so T(d; e) dominates when every column reaches r, and
    negation fixes it, so column d - i receives what column i does: only
    columns 0..d // 2 are walked. The e come one prefix e[:-1] at a time,
    skipped whole when its first entry fails _least_in_orbit. A prefix sets
    base, y[:-1].e for every y, once; _column scatters it at column d // 2,
    the farthest from row 0's broadcasts, for every last entry l at once.
    The walk starts at the killer k, the column that rejected the last e:
    k, k - 1, k + 1, ... (mod d // 2 + 1), as its neighbours tend to reject
    the next. When k is not d // 2, a second scatter at k drops more l
    before _least_in_orbit, and the walk skips both scattered columns.
    Each d starts at k = d // 2; _step_profiles steps the profiles down.
    """
    t, r = params.t, params.r
    top = max_potential_d(n, params)
    if cap is not None:
        top = min(top, cap)
    profiles = _row_profiles(t, top)
    ball = list(_ball_walk(n - 1, t - 1))
    rows = [profiles[t - 1 - left] for _, left in ball]
    *axes, lasts = zip(*(y for y, _ in ball))
    # offsets from the killer in walking order: 0, -1, 1, -2, 2, ...
    steps = [(k + 1) // 2 * (-1) ** k for k in range(top // 2 + 1)]
    for d in range(top, 0, -1):
        half = d // 2 + 1
        mid = killer = d // 2
        outward = steps[:half]
        canon = [*range(half), *range((d - 1) // 2, 0, -1)]  # min(v, d - v)
        column = _column(d, ball, rows)
        for prefix in itertools.combinations_with_replacement(range(half), n - 2):
            if not _least_in_orbit(prefix[:1], d, canon):
                continue
            base = [0] * len(ball)
            for axis, v in zip(axes, prefix):
                base = [b + y * v for b, y in zip(base, axis)]
            received, low = column(base, mid), max(prefix, default=0)
            kept = list(itertools.compress(
                range(low, half), map(r.__le__, received[low:])))
            passed = killer
            if kept and killer != mid:
                received = column(base, killer)
                kept = [l for l in kept if received[l] >= r]
            for l in kept:
                if not _least_in_orbit((*prefix, l), d, canon):
                    continue
                # i - shift lies in (-d, d), so negative indexing wraps it mod d
                shifts = [(b + y * l) % d for b, y in zip(base, lasts)]
                for step in outward:
                    i = (killer + step) % half
                    if i != mid and i != passed and sum(
                        map(getitem, rows, map(sub, itertools.repeat(i), shifts))
                    ) < r:
                        killer = i
                        break
                else:
                    return d, (*prefix, l)
        _step_profiles(profiles, d)
    raise AssertionError("unreachable: d = 1 always dominates")


def min_density_search(params: Params) -> TowerPattern:
    """Sparsest dominating tower of Z^2: largest d, then smallest e."""
    d, (e,) = _tower_search(2, params)
    return TowerPattern(d, e)


def hermite_normal_form(
    columns: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], ...]:
    """Column Hermite normal form of a square integer basis.

    Returns the unique basis of the same lattice that is upper triangular
    with positive diagonal and, in each row, off-diagonal entries reduced
    into [0, diagonal). Raises ValueError when the columns are dependent.
    """
    cols = [list(c) for c in columns]
    n = len(cols)
    if n == 0:
        raise ValueError("basis must have at least one column")
    if any(len(c) != n for c in cols):
        raise ValueError("basis must be square")
    for i in range(n - 1, -1, -1):
        # Euclidean elimination of row i across columns 0..i, pivot to col i.
        while True:
            nonzero = [j for j in range(i + 1) if cols[j][i] != 0]
            if not nonzero:
                raise ValueError("basis is singular")
            pivot = min(nonzero, key=lambda j: abs(cols[j][i]))
            cols[pivot], cols[i] = cols[i], cols[pivot]
            if len(nonzero) == 1:
                break
            for j in range(i):
                q = cols[j][i] // cols[i][i]
                if q:
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[i])]
        if cols[i][i] < 0:
            cols[i] = [-a for a in cols[i]]
    # Upper triangular now: reduce each column's entries above the diagonal.
    for j in range(n):
        cols[j][:j] = _reduce(cols, cols[j][:j])
    return tuple(tuple(c) for c in cols)


class SublatticePattern(_Record):
    """Broadcasts at every point of a full-rank sublattice of Z^n.

    The basis is stored as columns and normalized to Hermite form on
    construction, so two descriptions of the same lattice compare equal.
    """

    basis: tuple[tuple[int, ...], ...]
    __hash__ = _Record.__hash__  # which the __eq__ below would otherwise unset

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", hermite_normal_form(self.basis))

    def __eq__(self, other: object) -> bool:
        # By basis alone, so a TowerPattern equals the lattice it is.
        if not isinstance(other, SublatticePattern):
            return NotImplemented
        return self.basis == other.basis

    @property
    def n(self) -> int:
        return len(self.basis)

    @property
    def index(self) -> int:
        """Number of cosets: the determinant of the basis."""
        return math.prod(self.basis[i][i] for i in range(self.n))

    def contains(self, point: LatticePoint) -> bool:
        """Whether the point lies on the sublattice."""
        if len(point) != self.n:
            raise ValueError(f"point must have {self.n} coordinates")
        return not any(_reduce(self.basis, list(point)))

    def coset_representatives(self) -> tuple[LatticePoint, ...]:
        """One point per coset: the box spanned by the basis diagonals."""
        ranges = [range(self.basis[i][i]) for i in range(self.n)]
        return tuple(itertools.product(*ranges))

    def __str__(self) -> str:
        if self.n == 2 and self.basis[1][1] == 1:
            return f"T({self.basis[0][0]},{self.basis[1][0]})"
        return "L(" + "; ".join(",".join(map(str, col)) for col in self.basis) + ")"


class TowerPattern(SublatticePattern):
    """T(d,e), broadcasts at (m*d + k*e, k): the basis ((d,0),(e,1)), 0 <= e < d."""

    def __init__(self, d: int, e: int) -> None:
        if d < 1:
            raise ValueError("period d must be at least 1")
        if not 0 <= e < d:
            raise ValueError("shift e must satisfy 0 <= e < d")
        super().__init__(((d, 0), (e, 1)))

    d = property(lambda self: self.basis[0][0])
    e = property(lambda self: self.basis[1][0])

    def __repr__(self) -> str:
        return f"TowerPattern(d={self.d}, e={self.e})"


def lattice_receptions(
    params: Params,
    pattern: SublatticePattern,
    index_cap: int = DEFAULT_INDEX_CAP,
) -> dict[LatticePoint, int]:
    """Reception at one representative of every coset of the pattern.

    Reception is constant on cosets, so this is the complete profile: the
    coset histogram read at every box representative, 0 where no offset
    reaches. Refuses patterns with more than index_cap cosets.
    """
    _check_index(pattern.index, index_cap)
    hist = _coset_histogram(params.t, pattern.basis)
    return {rep: hist.get(rep, 0) for rep in pattern.coset_representatives()}


def is_dominating_lattice(
    params: Params,
    pattern: SublatticePattern,
    index_cap: int = DEFAULT_INDEX_CAP,
) -> bool:
    """Whether every point of Z^n receives at least r from the pattern.

    Every coset must be reached and receive at least r. Refuses patterns
    with more than index_cap cosets.
    """
    _check_index(pattern.index, index_cap)
    hist = _coset_histogram(params.t, pattern.basis)
    return len(hist) == pattern.index and min(hist.values()) >= params.r


is_dominating_tower = is_dominating_lattice  # a TowerPattern is a SublatticePattern


def lattice_search_3d(
    params: Params, index_cap: int = DEFAULT_INDEX_CAP
) -> SublatticePattern:
    """Sparsest dominating pattern of tower form in Z^3.

    Bases searched are ((d,0,0), (e1,1,0), (e2,0,1)): one broadcast per line
    of the last two coordinates, so the index is d <= index_cap. Largest d
    wins, with (e1, e2) in ascending order breaking ties. A ceiling, lowered
    to index_cap, that is above DEFAULT_INDEX_CAP, or whose t row profiles
    need more than _PROFILE_SLOT_CAP slots, is refused whatever index_cap says.
    """
    if index_cap < 1:
        raise ValueError("index_cap must be at least 1")
    d, (e1, e2) = _tower_search(3, params, index_cap)
    return SublatticePattern(((d, 0, 0), (e1, 1, 0), (e2, 0, 1)))
