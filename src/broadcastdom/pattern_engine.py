"""Periodic broadcast patterns on the integer lattice.

A pattern places a broadcast at every point of a full-rank sublattice of Z^n
and dominates when every point still accumulates reception r; reception is
constant on cosets. Towers, broadcasts at (m*d + y.e, y) for y in Z^(n-1),
are searched in Z^2 and Z^3 by _tower_search from per-d row profiles indexed
by |y|_1, which every shift vector e reuses rotated. Other sublattices read
reception from one coset histogram, a single pass over the ball. All share
the cap of DEFAULT_INDEX_CAP cosets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import getitem, sub
from typing import Iterator, Optional, Sequence

from .coverage_bounds import Params, max_potential_d
from .lattice_geometry import LatticePoint

DEFAULT_INDEX_CAP = 10**6


class IndexCapExceeded(RuntimeError):
    """Raised when a sublattice has more cosets than the caller allowed."""


@dataclass(frozen=True)
class TowerPattern:
    """Broadcasts at {(m*d + k*e, k) : m, k integers}, with 0 <= e < d."""

    d: int
    e: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("period d must be at least 1")
        if not 0 <= self.e < self.d:
            raise ValueError("shift e must satisfy 0 <= e < d")

    def __str__(self) -> str:
        return f"T({self.d},{self.e})"


@dataclass(frozen=True)
class ReceptionProfile:
    """Reception of one period of columns, optionally split by source row.

    rows holds (y, contributions) pairs with y descending; receptions is the
    column-wise total over all rows.
    """

    pattern: str
    receptions: tuple[int, ...]
    rows: Optional[tuple[tuple[int, tuple[int, ...]], ...]] = None


def _check_index(index: int, cap: int) -> None:
    if index > cap:
        raise IndexCapExceeded(f"pattern has {index} cosets, above the cap of {cap}")


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
) -> dict[tuple[int, ...], list[int]]:
    """Reception of every coset of the lattice, from one pass over B_n(t-1).

    Offset off delivers t - |off| to each point of the coset of -off. The
    offsets are walked coordinate n-1 down to 1, carrying their reduction,
    and each row of coordinate 0 goes whole into a list of basis[0][0]
    buckets keyed by the reduced coordinates 1..n-1: the reception at p is
    hist[key][k] for the reduction (k, *key) of -p, and a coset no offset
    reaches has no list.
    """
    n, d = len(basis), basis[0][0]
    hist: dict[tuple[int, ...], list[int]] = {}

    def walk(level: int, reach: int, residue: list[int]) -> None:
        if level == 0:
            key, shift = tuple(residue[1:]), residue[0]
            row = hist.get(key) or hist.setdefault(key, [0] * d)
            for x in range(1 - reach, reach):
                row[(shift + x) % d] += reach - abs(x)
            return
        for x in range(1 - reach, reach):
            partial = residue.copy()
            partial[level] += x
            walk(level - 1, reach - abs(x), _reduce(basis, partial))

    walk(n - 1, t, [0] * n)
    return hist


def _row_profiles(t: int, d: int) -> list[list[int]]:
    """What one row of broadcasts at x = 0 (mod d) sends to each column.

    Profile a, for 0 <= a < t, is that row at transverse distance a: column
    k gets t - a - |x| from every offset x = k (mod d) with |x| < t - a. A
    tower receives the sum over its rows y of profile |y|_1 at column
    i - y.e (mod d). Refuses d > DEFAULT_INDEX_CAP before allocating.
    """
    _check_index(d, DEFAULT_INDEX_CAP)
    profiles = []
    for reach in range(t, 0, -1):
        row = [0] * d
        for x in range(1 - reach, reach):
            row[x % d] += reach - abs(x)
        profiles.append(row)
    return profiles


def tower_reception(params: Params, pattern: TowerPattern, i: int) -> int:
    """Total reception at column i of row 0, one value per residue class.

    Row y contributes through its broadcasts at x = y*e (mod d); each one
    within horizontal reach t - |y| adds its remaining strength. The offsets
    are summed directly, O(t^2) time and no list of d entries. Like
    reception_table and is_dominating_tower, refuses d > DEFAULT_INDEX_CAP.
    """
    if not 0 <= i < pattern.d:
        raise ValueError(f"column must satisfy 0 <= i < {pattern.d}")
    t, d, e = params.t, pattern.d, pattern.e
    _check_index(d, DEFAULT_INDEX_CAP)
    return sum(
        t - abs(y) - abs(x)
        for y in range(1 - t, t)
        for x in range(abs(y) + 1 - t, t - abs(y))
        if (x + y * e - i) % d == 0
    )


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


def is_dominating_tower(params: Params, pattern: TowerPattern) -> bool:
    """Whether the tower dominates: is_dominating_lattice on the basis ((d,0),(e,1))."""
    lattice = SublatticePattern(((pattern.d, 0), (pattern.e, 1)))
    return is_dominating_lattice(params, lattice)


def _shift_vectors(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """Shift vectors e of the towers T(d; e) of Z^n worth trying, ascending.

    Flipping the sign of axis y_j maps e_j to d - e_j and permuting the y
    axes permutes e, so the least vector of each orbit is nondecreasing with
    every e_j <= d // 2, as combinations_with_replacement yields them. When
    gcd(e_j, d) = 1, swapping x with y_j gives e_j^-1 at j and -e_j^-1 * e_i
    at i != j (mod d); e is dropped when that image's least vector,
    sorted(min(v, d - v)), comes first (surely when its entry at j is below
    e_0), as it was tried already.
    """
    canon = [*range(d // 2 + 1), *range((d - 1) // 2, 0, -1)]  # min(v, d - v)
    for e in itertools.combinations_with_replacement(range(d // 2 + 1), n - 1):
        for j, v in enumerate(e):
            if v > 1 and math.gcd(v, d) == 1:
                w = pow(v, -1, d)
                c = canon[w]
                image = (c if k == j else canon[w * u % d] for k, u in enumerate(e))
                if c < e[0] or sorted(image) < list(e):
                    break
        else:
            yield e


def _tower_search(n: int, params: Params, top: int) -> tuple[int, tuple[int, ...]]:
    """Sparsest dominating tower T(d; e) of Z^n: largest d <= top, then least e.

    Offset y sends row profile |y|_1 to column i - y.e (mod d). Every coset
    meets the x-axis, so T(d; e) dominates when every column reaches r, and
    negation fixes it, so column d - i receives what column i does: columns
    0..d // 2 are walked, cyclically from the one that rejected the last e.
    """
    t, r = params.t, params.r
    box = itertools.product(range(1 - t, t), repeat=n - 1)
    norms, offsets = zip(*((a, y) for y in box if (a := sum(map(abs, y))) < t))
    first, *rest = zip(*offsets)
    for d in range(top, 0, -1):
        profiles = _row_profiles(t, d)
        rows = [profiles[a] for a in norms]
        half, killer = d // 2 + 1, 0
        for e in _shift_vectors(n, d):
            # i - shift lies in (-d, d), so negative indexing wraps it mod d
            lead = e[0]
            shifts = [y * lead % d for y in first]
            for j, axis in enumerate(rest, 1):
                shifts = [(s + y * e[j]) % d for s, y in zip(shifts, axis)]
            for i in itertools.chain(range(killer, half), range(killer)):
                if sum(map(getitem, rows, map(sub, itertools.repeat(i), shifts))) < r:
                    killer = i
                    break
            else:
                return d, e
    raise AssertionError("unreachable: d = 1 always dominates")


def min_density_search(params: Params) -> TowerPattern:
    """Sparsest dominating tower of Z^2: largest d, then smallest e."""
    d, (e,) = _tower_search(2, params, max_potential_d(2, params))
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
            if pivot != i:
                cols[pivot], cols[i] = cols[i], cols[pivot]
            done = True
            for j in range(i):
                if cols[j][i] != 0:
                    q = cols[j][i] // cols[i][i]
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[i])]
                    if cols[j][i] != 0:
                        done = False
            if done:
                break
        if cols[i][i] < 0:
            cols[i] = [-a for a in cols[i]]
        for j in range(i + 1, n):
            q = cols[j][i] // cols[i][i]
            if q:
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[i])]
    return tuple(tuple(c) for c in cols)


@dataclass(frozen=True)
class SublatticePattern:
    """Broadcasts at every point of a full-rank sublattice of Z^n.

    The basis is stored as columns and normalized to Hermite form on
    construction, so two descriptions of the same lattice compare equal.
    """

    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", hermite_normal_form(self.basis))

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


def lattice_receptions(
    params: Params,
    pattern: SublatticePattern,
    index_cap: int = DEFAULT_INDEX_CAP,
) -> dict[LatticePoint, int]:
    """Reception at one representative of every coset of the pattern.

    Reception is constant on cosets, so this is the complete profile.
    Refuses patterns with more than index_cap cosets.
    """
    _check_index(pattern.index, index_cap)
    hist = _coset_histogram(params.t, pattern.basis)
    out: dict[LatticePoint, int] = {}
    for rep in pattern.coset_representatives():
        k, *key = _reduce(pattern.basis, [-x for x in rep])
        row = hist.get(tuple(key))
        out[rep] = row[k] if row else 0
    return out


def is_dominating_lattice(
    params: Params,
    pattern: SublatticePattern,
    index_cap: int = DEFAULT_INDEX_CAP,
) -> bool:
    """Whether every point of Z^n receives at least r from the pattern.

    Every coset's bucket must exist and hold at least r. Refuses patterns
    with more than index_cap cosets.
    """
    _check_index(pattern.index, index_cap)
    hist = _coset_histogram(params.t, pattern.basis)
    return len(hist) * pattern.basis[0][0] == pattern.index and all(
        min(row) >= params.r for row in hist.values()
    )


def lattice_search_3d(
    params: Params, index_cap: int = DEFAULT_INDEX_CAP
) -> SublatticePattern:
    """Sparsest dominating pattern of tower form in Z^3.

    Bases searched are ((d,0,0), (e1,1,0), (e2,0,1)): one broadcast per line
    of the last two coordinates, so the index is d <= index_cap. Largest d
    wins, with (e1, e2) in ascending order breaking ties.
    """
    if index_cap < 1:
        raise ValueError("index_cap must be at least 1")
    d, (e1, e2) = _tower_search(3, params, min(index_cap, max_potential_d(3, params)))
    return SublatticePattern(((d, 0, 0), (e1, 1, 0), (e2, 0, 1)))
