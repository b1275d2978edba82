"""Shared brute-force oracles and frozen fixtures.

Everything here stays independent of the library internals: oracles
enumerate points directly and count receptions the slow way, so a bug in
the package cannot hide inside its own test harness. Frozen values were
computed once with these oracles (or cross-checked against them) and are
asserted exactly.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction


def digits_value(text: str) -> int:
    """The value of a decimal string, read in chunks under the digit limit."""
    value = 0
    for start in range(0, len(text), 1000):
        chunk = text[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def brute_shell(n: int, d: int) -> list[tuple[int, ...]]:
    """All points of Z^n at L1 norm exactly d, by direct product scan."""
    if n == 0:
        return [()] if d == 0 else []
    return [
        p
        for p in itertools.product(range(-d, d + 1), repeat=n)
        if sum(abs(x) for x in p) == d
    ]


def brute_ball(n: int, d: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    return [
        p
        for p in itertools.product(range(-d, d + 1), repeat=n)
        if sum(abs(x) for x in p) <= d
    ]


def delannoy_reference(m: int, k: int, _memo: dict = {}) -> int:
    # top-down recursion, written independently of the iterative table
    if m == 0 or k == 0:
        return 1
    if (m, k) not in _memo:
        _memo[(m, k)] = (
            delannoy_reference(m - 1, k)
            + delannoy_reference(m, k - 1)
            + delannoy_reference(m - 1, k - 1)
        )
    return _memo[(m, k)]


# Closed-form shell sizes for dimensions 1..7, valid for d >= 1.
SHELL_POLYNOMIALS = {
    1: lambda d: Fraction(2),
    2: lambda d: Fraction(4 * d),
    3: lambda d: Fraction(4 * d * d + 2),
    4: lambda d: Fraction(8, 3) * (d**3 + 2 * d),
    5: lambda d: Fraction(2, 3) * (2 * d**4 + 10 * d**2 + 3),
    6: lambda d: Fraction(4, 15) * (2 * d**5 + 20 * d**3 + 23 * d),
    7: lambda d: Fraction(2, 45) * (4 * d**6 + 70 * d**4 + 196 * d**2 + 45),
}


def window_tower_receptions(t: int, r: int, d: int, e: int) -> list[int]:
    """Reception at (i, 0) for 0 <= i < d by explicit broadcast enumeration.

    Broadcasts sit at (m*d + n*e, n). Only rows |n| < t can reach row 0,
    and within a row only points with |x - i| < t contribute, so scanning
    m over a range that covers x in [i - t, i + t] catches every
    contributor.
    """
    out = []
    for i in range(d):
        total = 0
        for n in range(-(t - 1), t):
            lo = (i - t - n * e) // d - 1
            hi = (i + t - n * e) // d + 2
            for m in range(lo, hi):
                dist = abs(m * d + n * e - i) + abs(n)
                if dist < t:
                    total += t - dist
        out.append(total)
    return out


def window_tower_rows(t: int, d: int, e: int) -> list[tuple[int, tuple[int, ...]]]:
    """What each row y of T(d, e) delivers to (i, 0), for 0 <= i < d.

    Rows run y = t-1 down to -(t-1), the only ones within reach of row 0.
    Row y holds the broadcasts x = m*d + y*e; each one within L1 distance
    t - 1 of (i, 0) adds t minus that distance.
    """
    rows = []
    for y in range(t - 1, -t, -1):
        vec = []
        for i in range(d):
            lo = (i - t - y * e) // d - 1
            hi = (i + t - y * e) // d + 2
            dists = (abs(m * d + y * e - i) + abs(y) for m in range(lo, hi))
            vec.append(sum(t - dist for dist in dists if dist < t))
        rows.append((y, tuple(vec)))
    return rows


def brute_min_tower(t: int, r: int) -> tuple[int, int]:
    """Sparsest dominating tower (d, e) by trying every candidate in order.

    d runs down from the coverage bound, the unwasted reception of one
    broadcast summed point by point and divided by r, and e runs up from 0,
    so the first tower whose window receptions all reach r has the largest
    d and, for it, the smallest e. No candidate is skipped.
    """
    for d in range(window_coverage(2, t, r) // r, 0, -1):
        for e in range(d):
            if min(window_tower_receptions(t, r, d, e)) >= r:
                return d, e
    raise AssertionError("T(1, 0) always dominates")


def brute_min_tower_3d(t: int, r: int, cap=None) -> tuple[int, int, int]:
    """Sparsest dominating tower-form lattice of Z^3 by trying every candidate.

    The basis ((d,0,0), (e1,1,0), (e2,0,1)) has index d. d runs down from
    the coverage bound (or cap, when smaller) and (e1, e2) over range(d)^2
    in lexicographic order, so the first basis whose box receptions all
    reach r has the largest d and, for it, the least (e1, e2). No candidate
    is skipped; each is read one box point at a time, up to its first
    point below r.
    """
    top = window_coverage(3, t, r) // r
    for d in range(top if cap is None else min(cap, top), 0, -1):
        for e1, e2 in itertools.product(range(d), repeat=2):
            basis = ((d, 0, 0), (e1, 1, 0), (e2, 0, 1))
            if all(
                brute_lattice_receptions(t, basis, [(x, 0, 0)])[(x, 0, 0)] >= r
                for x in range(d)
            ):
                return d, e1, e2
    raise AssertionError("the identity basis always dominates")


def brute_lattice_receptions(t: int, basis, points=None) -> dict:
    """Reception at each point of the box prod(range(basis[j][j])), or of points.

    basis lists the columns of an upper-triangular integer basis with a
    positive diagonal (column j is zero below row j), as a Hermite normal
    form is. For each box point p the lattice points m.B in the window
    |x_j - p_j| < t are listed coordinate by coordinate from the last:
    coordinate j of m.B is m_j * basis[j][j] plus a part already fixed by
    m_{j+1}, .., so m_j runs over the integers that keep it in the window.
    Every listed point within L1 distance t - 1 of p adds its strength.
    """
    n = len(basis)
    out = {}
    box = itertools.product(*(range(basis[j][j]) for j in range(n)))
    for p in box if points is None else points:
        tails = [()]
        for j in range(n - 1, -1, -1):
            grown = []
            for tail in tails:
                fixed = sum(m * basis[j + 1 + k][j] for k, m in enumerate(tail))
                lo = -((fixed - p[j] + t - 1) // basis[j][j])
                hi = (p[j] + t - 1 - fixed) // basis[j][j]
                grown.extend((m, *tail) for m in range(lo, hi + 1))
            tails = grown
        total = 0
        for m in tails:
            x = [sum(m[k] * basis[k][i] for k in range(n)) for i in range(n)]
            dist = sum(abs(a - b) for a, b in zip(x, p))
            if dist < t:
                total += t - dist
        out[p] = total
    return out


def window_coverage(n: int, t: int, r: int) -> int:
    """Unwasted reception of one broadcast, summed point by point."""
    total = 0
    for p in brute_ball(n, t - 1):
        total += min(t - sum(abs(x) for x in p), r)
    return total


# 10 parameter pairs x 5 tower shapes = 50 fixed verifier-vs-oracle cases.
TOWER_PARAMS = [
    (1, 1), (2, 1), (2, 2), (3, 1), (3, 2),
    (4, 2), (4, 4), (5, 3), (6, 2), (9, 9),
]
TOWER_SHAPES = [(1, 0), (2, 1), (3, 2), (5, 2), (18, 5)]
TOWER_CASES = [
    (t, r, d, e) for (t, r) in TOWER_PARAMS for (d, e) in TOWER_SHAPES
]

# Sparsest dominating tower (d, e) for 1 <= r <= t <= 13, keyed (t, r).
# Frozen from a full search run; d was cross-checked against the windowed
# oracle for t <= 9 and (d, e) agrees with brute_min_tower for t <= 7. The
# r = 1 column equals the ball size |B_2(t-1)|, which is the coverage
# ceiling, so those periods are provably optimal.
MIN_TOWERS = {
    (1, 1): (1, 0),
    (2, 1): (5, 2), (2, 2): (3, 1),
    (3, 1): (13, 5), (3, 2): (8, 3), (3, 3): (5, 1),
    (4, 1): (25, 7), (4, 2): (18, 5), (4, 3): (13, 5), (4, 4): (10, 3),
    (5, 1): (41, 9), (5, 2): (32, 7), (5, 3): (25, 7), (5, 4): (18, 4),
    (5, 5): (14, 4),
    (6, 1): (61, 11), (6, 2): (50, 9), (6, 3): (41, 9), (6, 4): (34, 13),
    (6, 5): (26, 10), (6, 6): (22, 5),
    (7, 1): (85, 13), (7, 2): (72, 11), (7, 3): (61, 11), (7, 4): (50, 9),
    (7, 5): (42, 16), (7, 6): (36, 15), (7, 7): (29, 12),
    (8, 1): (113, 15), (8, 2): (98, 13), (8, 3): (85, 13), (8, 4): (74, 31),
    (8, 5): (62, 26), (8, 6): (54, 15), (8, 7): (43, 12), (8, 8): (39, 16),
    (9, 1): (145, 17), (9, 2): (128, 15), (9, 3): (113, 15), (9, 4): (98, 13),
    (9, 5): (86, 36), (9, 6): (76, 21), (9, 7): (65, 18), (9, 8): (58, 17),
    (9, 9): (49, 18),
    (10, 1): (181, 19), (10, 2): (162, 17), (10, 3): (145, 17),
    (10, 4): (130, 57), (10, 5): (114, 50), (10, 6): (102, 39),
    (10, 7): (89, 34), (10, 8): (78, 17), (10, 9): (68, 20),
    (10, 10): (62, 23),
    (11, 1): (221, 21), (11, 2): (200, 19), (11, 3): (181, 19),
    (11, 4): (162, 17), (11, 5): (146, 64), (11, 6): (132, 39),
    (11, 7): (115, 34), (11, 8): (106, 23), (11, 9): (92, 20),
    (11, 10): (84, 19), (11, 11): (73, 27),
    (12, 1): (265, 23), (12, 2): (242, 21), (12, 3): (221, 21),
    (12, 4): (202, 91), (12, 5): (182, 82), (12, 6): (166, 49),
    (12, 7): (149, 44), (12, 8): (134, 29), (12, 9): (120, 26),
    (12, 10): (110, 25), (12, 11): (97, 22), (12, 12): (89, 24),
    (13, 1): (313, 25), (13, 2): (288, 23), (13, 3): (265, 23),
    (13, 4): (242, 21), (13, 5): (222, 100), (13, 6): (204, 75),
    (13, 7): (185, 68), (13, 8): (170, 47), (13, 9): (152, 42),
    (13, 10): (140, 25), (13, 11): (123, 22), (13, 12): (114, 21),
    (13, 13): (104, 28),
}

# The periods alone for t <= 9, the acceptance gate's table.
MIN_TOWER_PERIODS = {k: d for k, (d, _) in MIN_TOWERS.items() if k[0] <= 9}

# The tower search of Z^3 and Z^4, frozen as (d, *e) from a full search run
# that scattered column d // 2 alone; each uncapped answer dominates by
# brute_lattice_receptions.
# TOWER_SEARCH_3D_BY_TOP[t, r] lists the answers met as the top falls from
# the coverage ceiling: the first answers every top from the ceiling down to
# its own d, the next every top below that down to its d, and so on to
# d = 1. TOWER_SEARCH_3D and TOWER_SEARCH_4D are the uncapped answers.
TOWER_SEARCH_3D_BY_TOP = {
    (1, 1): [(1, 0, 0)],
    (2, 1): [
        (7, 2, 3), (6, 2, 3), (5, 0, 2), (4, 0, 2), (3, 0, 0), (2, 0, 0),
        (1, 0, 0),
    ],
    (2, 2): [(4, 1, 2), (3, 0, 1), (2, 0, 0), (1, 0, 0)],
    (3, 1): [
        (21, 2, 8), (20, 5, 8), (19, 2, 7), (18, 2, 7), (17, 2, 6), (16, 2, 6),
        (15, 2, 4), (14, 2, 5), (13, 0, 5), (12, 2, 3), (11, 0, 3), (10, 0, 4),
        (9, 0, 2), (8, 0, 2), (7, 0, 2), (6, 0, 2), (5, 0, 0), (4, 0, 0),
        (3, 0, 0), (2, 0, 0), (1, 0, 0),
    ],
    (3, 2): [
        (15, 4, 6), (13, 2, 5), (12, 2, 5), (11, 1, 4), (10, 1, 4), (9, 1, 3),
        (8, 0, 3), (7, 0, 2), (6, 0, 2), (5, 0, 1), (4, 0, 0), (3, 0, 0),
        (2, 0, 0), (1, 0, 0),
    ],
    (3, 3): [
        (10, 2, 5), (9, 2, 3), (8, 1, 4), (7, 1, 2), (6, 0, 3), (5, 0, 1),
        (4, 0, 1), (3, 0, 0), (2, 0, 0), (1, 0, 0),
    ],
    (4, 1): [
        (55, 5, 21), (50, 8, 12), (49, 3, 19), (48, 7, 18), (47, 3, 13),
        (46, 4, 18), (45, 3, 17), (44, 4, 17), (43, 2, 12), (42, 4, 16),
        (41, 2, 16), (40, 2, 11), (39, 2, 11), (38, 2, 15), (37, 2, 8),
        (36, 2, 10), (35, 2, 10), (34, 2, 9), (33, 2, 7), (32, 2, 7),
        (31, 2, 7), (30, 2, 7), (29, 2, 6), (28, 2, 6), (27, 2, 6), (26, 2, 6),
        (25, 0, 7), (24, 2, 5), (23, 0, 5), (22, 0, 6), (21, 0, 6), (20, 0, 8),
        (19, 0, 4), (18, 0, 4), (17, 0, 3), (16, 0, 4), (15, 0, 3), (14, 0, 3),
        (13, 0, 2), (12, 0, 2), (11, 0, 2), (10, 0, 2), (9, 0, 2), (8, 0, 2),
        (7, 0, 0), (6, 0, 0), (5, 0, 0), (4, 0, 0), (3, 0, 0), (2, 0, 0),
        (1, 0, 0),
    ],
    (4, 2): [
        (38, 7, 11), (36, 4, 15), (35, 4, 14), (34, 3, 13), (33, 4, 9),
        (32, 3, 12), (31, 2, 12), (30, 3, 11), (29, 2, 8), (28, 2, 11),
        (27, 2, 10), (26, 2, 7), (25, 2, 7), (24, 2, 7), (23, 1, 9),
        (22, 1, 6), (21, 1, 6), (20, 1, 8), (19, 1, 4), (18, 0, 5), (17, 1, 4),
        (16, 0, 6), (15, 0, 4), (14, 0, 3), (13, 0, 3), (12, 0, 3), (11, 0, 2),
        (10, 0, 2), (9, 0, 2), (8, 0, 2), (7, 0, 1), (6, 0, 0), (5, 0, 0),
        (4, 0, 0), (3, 0, 0), (2, 0, 0), (1, 0, 0),
    ],
    (4, 3): [
        (27, 4, 10), (26, 6, 11), (25, 3, 10), (24, 3, 10), (23, 2, 9),
        (22, 2, 9), (21, 2, 6), (20, 2, 5), (19, 2, 5), (18, 2, 5), (17, 1, 6),
        (16, 1, 4), (15, 1, 4), (14, 1, 4), (13, 0, 5), (12, 0, 3), (11, 0, 3),
        (10, 0, 3), (9, 0, 2), (8, 0, 2), (7, 0, 1), (6, 0, 1), (5, 0, 0),
        (4, 0, 0), (3, 0, 0), (2, 0, 0), (1, 0, 0),
    ],
    (4, 4): [
        (22, 5, 8), (21, 3, 8), (20, 3, 8), (19, 2, 7), (18, 2, 5), (17, 2, 5),
        (16, 1, 6), (15, 1, 4), (14, 1, 4), (13, 0, 5), (12, 0, 5), (11, 0, 3),
        (10, 0, 3), (9, 0, 2), (8, 0, 2), (7, 0, 1), (6, 0, 1), (5, 0, 0),
        (4, 0, 0), (3, 0, 0), (2, 0, 0), (1, 0, 0),
    ],
}
TOWER_SEARCH_3D = {
    (1, 1): (1, 0, 0), (2, 1): (7, 2, 3), (2, 2): (4, 1, 2),
    (3, 1): (21, 2, 8), (3, 2): (15, 4, 6), (3, 3): (10, 2, 5),
    (4, 1): (55, 5, 21), (4, 2): (38, 7, 11), (4, 3): (27, 4, 10),
    (4, 4): (22, 5, 8), (5, 1): (117, 16, 22), (5, 2): (80, 5, 31),
    (5, 3): (60, 9, 22), (5, 4): (48, 4, 19), (5, 5): (40, 6, 15),
}
TOWER_SEARCH_4D = {
    (1, 1): (1, 0, 0, 0), (2, 1): (9, 2, 3, 4), (2, 2): (5, 1, 2, 2),
    (3, 1): (35, 6, 7, 10), (3, 2): (21, 4, 5, 7), (3, 3): (16, 4, 6, 7),
}

# Per-row contributions of T(18, 5) under (4, 2), rows y = 3 down to -3.
# Each row lists the reception that row's broadcasts deliver to (i, 0)
# for i = 0..17; the Sum row is the columnwise total.
TOWER_18_5_ROWS = (
    (3, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0)),
    (2, (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1, 0, 0, 0, 0, 0, 0)),
    (1, (0, 0, 0, 1, 2, 3, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    (0, (4, 3, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3)),
    (-1, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 2, 1, 0, 0)),
    (-2, (0, 0, 0, 0, 0, 0, 0, 1, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0)),
    (-3, (0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
)
TOWER_18_5_SUM = (4, 3, 2, 3, 2, 3, 2, 2, 2, 2, 2, 2, 2, 3, 2, 3, 2, 3)


# Two reference broadcast sets on the 5x5 grid graph P5*P5 under t = 3.
# The diamond set dominates for r = 2; the corner set does not. The
# reception maps are complete and frozen.
DIAMOND_BROADCASTS = ((1, 3), (3, 1), (3, 5), (5, 3))
DIAMOND_RECEPTIONS = {
    (1, 1): 2, (1, 2): 2, (1, 3): 3, (1, 4): 2, (1, 5): 2,
    (2, 1): 2, (2, 2): 2, (2, 3): 2, (2, 4): 2, (2, 5): 2,
    (3, 1): 3, (3, 2): 2, (3, 3): 4, (3, 4): 2, (3, 5): 3,
    (4, 1): 2, (4, 2): 2, (4, 3): 2, (4, 4): 2, (4, 5): 2,
    (5, 1): 2, (5, 2): 2, (5, 3): 3, (5, 4): 2, (5, 5): 2,
}
CORNER_BROADCASTS = ((1, 1), (1, 5), (5, 1), (5, 5))
CORNER_RECEPTIONS = {
    (1, 1): 3, (1, 2): 2, (1, 3): 2, (1, 4): 2, (1, 5): 3,
    (2, 1): 2, (2, 2): 1, (2, 3): 0, (2, 4): 1, (2, 5): 2,
    (3, 1): 2, (3, 2): 0, (3, 3): 0, (3, 4): 0, (3, 5): 2,
    (4, 1): 2, (4, 2): 1, (4, 3): 0, (4, 4): 1, (4, 5): 2,
    (5, 1): 3, (5, 2): 2, (5, 3): 2, (5, 4): 2, (5, 5): 3,
}


def brute_distances(graph) -> list[list]:
    """All-pairs distances by Floyd-Warshall; None between components."""
    labels = graph.labels
    n = len(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    # No shortest path has n edges, so n stands for "unreachable".
    dist = [[0 if i == j else n for j in range(n)] for i in range(n)]
    for i, lab in enumerate(labels):
        for nb in graph.neighbors(lab):
            dist[i][index[nb]] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return [[d if d < n else None for d in row] for row in dist]


def brute_receptions(graph, broadcasts, t: int) -> dict:
    """Accumulated reception per vertex, with a fresh BFS per broadcast."""
    totals = {lab: 0 for lab in graph.labels}
    for b in broadcasts:
        seen = {b: 0}
        queue = deque([b])
        while queue:
            u = queue.popleft()
            du = seen[u]
            if du >= t - 1:
                continue
            for v in graph.neighbors(u):
                if v not in seen:
                    seen[v] = du + 1
                    queue.append(v)
        for v, dv in seen.items():
            totals[v] += t - dv
    return totals


def brute_gamma(graph, t: int, r: int, max_size=None):
    """Smallest dominating set by exhaustive lexicographic combinations.

    Returns (size, witness). itertools.combinations over the label tuple
    yields subsets in lexicographic index order, so the witness is the
    lexicographically least one of minimum size.
    """
    labels = graph.labels
    cap = len(labels) if max_size is None else max_size
    for k in range(1, cap + 1):
        for combo in itertools.combinations(labels, k):
            rec = brute_receptions(graph, combo, t)
            if all(v >= r for v in rec.values()):
                return k, combo
    return None, None


def brute_min_cover(rows, r: int):
    """Smallest set of row indices that brings every column to r.

    Row u holds (v, c) pairs: taking u adds c to column v. Returns (size,
    indices); itertools.combinations yields index subsets in lexicographic
    order, so the indices are the lexicographically least of minimum size.
    """
    columns = {v for row in rows for v, _ in row}
    for k in range(len(rows) + 1):
        for combo in itertools.combinations(range(len(rows)), k):
            totals = dict.fromkeys(columns, 0)
            for u in combo:
                for v, c in rows[u]:
                    totals[v] += c
            if all(total >= r for total in totals.values()):
                return k, list(combo)
    return None, None


def naive_greedy(rows, r: int) -> list[int]:
    """Greedy cover by full rescan: each step takes the untaken row that
    removes the most deficit, lowest index on ties, until none is left.

    Row u holds (v, c) pairs: taking u adds c to column v.
    """
    deficits = [r] * len(rows)
    chosen: list[int] = []
    while any(deficits):
        best_u, best_gain = -1, 0
        for u, row in enumerate(rows):
            gain = sum(min(c, deficits[v]) for v, c in row)
            if gain > best_gain and u not in chosen:
                best_u, best_gain = u, gain
        chosen.append(best_u)
        for v, c in rows[best_u]:
            deficits[v] -= min(c, deficits[v])
    return chosen


# 20 fixed instances for the monotonicity property: each entry is checked
# both ways, gamma never rises when t grows and never falls when r grows.
MONOTONE_INSTANCES = [
    (expr, t, r)
    for expr in [
        "P3", "P4", "P5", "C3", "C4", "C5", "C6", "P2*P3", "P3*P3", "P2*C4",
    ]
    for (t, r) in [(2, 1), (3, 2)]
]
