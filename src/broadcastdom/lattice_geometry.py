"""Counting, enumeration, and generating functions for L1 shells and balls.

The shell S_n(d) is the set of points of Z^n at L1 distance exactly d from
the origin; the ball B_n(d) collects shells 0 through d. Everything here is
exact integer arithmetic. A ball size is a Delannoy sum, stepped from term to
term by an exact ratio, and a shell size is the difference of two consecutive
balls. The Delannoy numbers, the univariate generating functions and the
enumeration cap's size check read one series, (1 + x)^p / (1 - x)^q, stepped
by an exact three-term recurrence; the bivariate tables walk the rows of the
Delannoy recursion. The shell <-> box bijection uses an explicit tuple
encoding. Every cap of the package, here and in pattern_engine, refuses
through _check_cap with the one CapExceeded.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, count, islice
from operator import add
from typing import Iterator

__all__ = [
    "DEFAULT_ENUMERATION_CAP", "GENFUNC_KINDS", "CapExceeded", "LatticePoint",
    "SignedTuple", "TupleSequence", "ball_bijection", "ball_size", "delannoy",
    "genfunc_coefficients", "shell_enumerate", "shell_size", "tuple_decode",
    "tuple_encode",
]

LatticePoint = tuple[int, ...]

DEFAULT_ENUMERATION_CAP = 10**7

GENFUNC_KINDS = (
    "B_bivariate",
    "S_bivariate",
    "B_fixed_d",
    "B_fixed_n",
    "S_fixed_d",
    "S_fixed_n",
)


class CapExceeded(RuntimeError):
    """Raised when a computation would need more than its cap allows."""


def _check_cap(what: str, needed: int, cap: int) -> None:
    # what names the count with a {} for it: "pattern has {} cosets".
    if needed > cap:
        raise CapExceeded(f"{what.format(needed)}, above the cap of {cap}")


def shell_size(n: int, d: int) -> int:
    """Number of points of Z^n at L1 distance exactly d from the origin.

    The ball of radius d less the ball of radius d - 1, and 1 at d = 0.
    """
    size = ball_size(n, d)
    return size - ball_size(n, d - 1) if d else size


def _check_ball(n: int, d: int) -> None:
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if d < 0:
        raise ValueError("distance must be nonnegative")


def ball_size(n: int, d: int) -> int:
    """Number of points of Z^n at L1 distance at most d from the origin.

    The Delannoy sum of C(n, i) C(d, i) 2^i: choose the i nonzero coordinates,
    sign them, and fix their magnitudes by their partial sums, i distinct
    values in 1..d. Term i + 1 is term i times 2(n - i)(d - i) / (i + 1)^2.
    """
    _check_ball(n, d)
    total = term = 1
    for i in range(min(n, d)):
        term = term * 2 * (n - i) * (d - i) // (i + 1) ** 2
        total += term
    return total


def _delannoy_row(row: list[int]) -> list[int]:
    # The next row of a Delannoy table: each entry is left + up + diagonal.
    return list(accumulate(map(add, row, chain((0,), row))))


def _series(p: int, q: int) -> Iterator[int]:
    """The coefficients of (1 + x)^p / (1 - x)^q, constant term first, unending.

    The series G solves (1 - x^2) G' = (p + q + (q - p) x) G, so
    (k + 1) c[k+1] = (p + q) c[k] + (k - 1 + q - p) c[k-1], exactly.
    """
    before, term = 0, 1
    for k in count():
        yield term
        before, term = term, ((p + q) * term + (k - 1 + q - p) * before) // (k + 1)


def delannoy(m: int, k: int) -> int:
    """Delannoy number D(m, k): lattice paths with steps east, north, northeast.

    Satisfies the same recursion as ball sizes, D(m, k) = D(m-1, k)
    + D(m, k-1) + D(m-1, k-1), so ball_size(n, d) == delannoy(n, d). D is
    symmetric, and D(p, k) is coefficient k of (1 + x)^p / (1 - x)^(p+1):
    this is term min(m, k) of that series with p = max(m, k). It never
    calls ball_size, so the tests can hold one against the other.
    """
    if m < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    p = max(m, k)
    return next(islice(_series(p, p + 1), min(m, k), None))


def _ball_walk(n: int, d: int) -> Iterator[tuple[LatticePoint, int]]:
    """Each point y of B_n(d) with d - |y|_1, in lexicographic order.

    A stack of (prefix, what it leaves), least on top; a prefix that leaves
    0 closes with zeros at once, not with a node per remaining coordinate.
    """
    stack = [((), d)]
    while stack:
        head, left = stack.pop()
        if not left or len(head) == n:
            yield head + (0,) * (n - len(head)), left
        elif len(head) == n - 1:
            for x in range(-left, left + 1):
                yield (*head, x), left - abs(x)
        else:
            stack += (((*head, x), left - abs(x)) for x in range(left, -left - 1, -1))


def shell_enumerate(
    n: int, d: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[LatticePoint]:
    """All points of Z^n at L1 distance exactly d, in lexicographic order.

    Each point y of B_(n-1)(d) closes with -left, then +left. Refuses up
    front when the enclosing ball holds more than cap points: |B_n(d)| is
    term min(n, d) of the ball series with p = max(n, d), which rises
    strictly once p > 0, so the refusal stops at its first term past cap.
    """
    _check_ball(n, d)
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    p = max(n, d)
    for size in islice(_series(p, p + 1), min(n, d) + 1):
        _check_cap(f"ball ({n}, {d}) has at least {{}} points", size, cap)
    if n == 0:
        return [()] if d == 0 else []
    return [(*y, x) for y, left in _ball_walk(n - 1, d)
            for x in ((-left, left) if left else (0,))]


def genfunc_coefficients(
    kind: str, max_index: int, fixed: int | None = None
) -> list[int] | list[list[int]]:
    """Coefficients of a shell or ball generating function.

    Bivariate kinds return the square table with entry (i, j) holding the
    count for dimension i and distance j, both running 0..max_index:

    * ``B_bivariate``: sum over n, d of ball_size(n, d) x^n y^d,
      equal to 1 / (1 - x - y - xy).
    * ``S_bivariate``: same with shell sizes, (1 - y) / (1 - x - y - xy).

    Univariate kinds need ``fixed`` and return coefficients 0..max_index:

    * ``B_fixed_d``: coefficient k is ball_size(k, d) with d = fixed,
      from (1 + x)^d / (1 - x)^(d+1).
    * ``S_fixed_d``: coefficient k is shell_size(k, d), from
      2x (1 + x)^(d-1) / (1 - x)^(d+1) for d >= 1 and 1 / (1 - x) for d = 0.
    * ``B_fixed_n``: coefficient k is ball_size(n, k) with n = fixed,
      from (1 + x)^n / (1 - x)^(n+1).
    * ``S_fixed_n``: coefficient k is shell_size(n, k), from
      (1 + x)^n / (1 - x)^n.

    Each is a slice of one series (1 + x)^p / (1 - x)^q, read term by term,
    so a univariate kind takes max_index + 1 steps whatever fixed is.
    """
    if kind not in GENFUNC_KINDS:
        raise ValueError(f"unknown generating function kind: {kind!r}")
    if max_index < 0:
        raise ValueError("max_index must be nonnegative")

    if kind in ("B_bivariate", "S_bivariate"):
        if fixed is not None:
            raise ValueError(f"{kind} takes no fixed parameter")
        # Both satisfy the Delannoy recursion; row 0 is Z^0 at each distance.
        row = [1] * (max_index + 1)
        if kind == "S_bivariate":
            row = [1] + [0] * max_index
        table = [row]
        for _ in range(max_index):
            table.append(_delannoy_row(table[-1]))
        return table

    if fixed is None:
        raise ValueError(f"{kind} requires a fixed parameter")
    if fixed < 0:
        raise ValueError("fixed parameter must be nonnegative")
    if kind == "S_fixed_d" and fixed:
        return [0, *(2 * c for c in islice(_series(fixed - 1, fixed + 1), max_index))]
    q = fixed if kind == "S_fixed_n" else fixed + 1
    return list(islice(_series(fixed, q), max_index + 1))


@dataclass(frozen=True)
class SignedTuple:
    """One nonzero coordinate of a lattice point in encoded form.

    sign is +1 or -1, gap is the index distance from the previous nonzero
    coordinate (from position 0 for the first), magnitude is the absolute
    value. Both gap and magnitude are at least 1.
    """

    sign: int
    gap: int
    magnitude: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.gap < 1:
            raise ValueError("gap must be at least 1")
        if self.magnitude < 1:
            raise ValueError("magnitude must be at least 1")

    def flipped(self) -> "SignedTuple":
        """Same sign with gap and magnitude exchanged."""
        return SignedTuple(self.sign, self.magnitude, self.gap)


@dataclass(frozen=True)
class TupleSequence:
    """Encoded form of a lattice point: one SignedTuple per nonzero coordinate."""

    tuples: tuple[SignedTuple, ...]

    @property
    def dimension_sum(self) -> int:
        """Sum of gaps: the index of the last nonzero coordinate (1-based)."""
        return sum(s.gap for s in self.tuples)

    @property
    def distance_sum(self) -> int:
        """Sum of magnitudes: the L1 norm of the decoded point."""
        return sum(s.magnitude for s in self.tuples)


def tuple_encode(point: LatticePoint) -> TupleSequence:
    """Encode a lattice point as its sequence of signed (gap, magnitude) pairs."""
    tuples = []
    prev = 0
    for pos, value in enumerate(point, start=1):
        if value == 0:
            continue
        sign = 1 if value > 0 else -1
        tuples.append(SignedTuple(sign, pos - prev, abs(value)))
        prev = pos
    return TupleSequence(tuple(tuples))


def tuple_decode(seq: TupleSequence, n: int) -> LatticePoint:
    """Rebuild the point of Z^n encoded by seq.

    The gaps must fit: their sum cannot exceed n.
    """
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if seq.dimension_sum > n:
        raise ValueError(
            f"encoded gaps need dimension {seq.dimension_sum}, got {n}"
        )
    coords = [0] * n
    pos = 0
    for s in seq.tuples:
        pos += s.gap
        coords[pos - 1] = s.sign * s.magnitude
    return tuple(coords)


def ball_bijection(point: LatticePoint, n: int, d: int) -> LatticePoint:
    """Image of a point of B_n(d) under the bijection onto B_d(n).

    Encodes the point, swaps each pair's gap with its magnitude, and decodes
    in dimension d. Applying the map with n and d exchanged inverts it, so
    it is an involution between the two balls.
    """
    if len(point) != n:
        raise ValueError(f"point has {len(point)} coordinates, expected {n}")
    norm = sum(abs(x) for x in point)
    if norm > d:
        raise ValueError(f"point has L1 norm {norm}, outside the ball of radius {d}")
    seq = tuple_encode(point)
    swapped = TupleSequence(tuple(s.flipped() for s in seq.tuples))
    return tuple_decode(swapped, d)
