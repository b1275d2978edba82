"""Exact broadcast domination on small finite graphs.

A FiniteGraph holds its labels, an index of them and one ascending tuple of
neighbour indices per vertex. Its constructor checks labels and edges that
come from outside; paths, cycles and parsed atoms share one check for each
atom rule, and a box product is read from its factors' neighbour tuples.

Reception works as on the lattice: a broadcast at u delivers t - d(u, v) to
every vertex v within distance t, and a vertex set dominates when every
vertex accumulates at least r. All reception is read from one BFS ball of
radius t - 1 per broadcast, as sparse rows (v, t - d) in the order the BFS
finds them. gamma_exact finds a minimum dominating set by iterative
deepening over lexicographically ordered vertex subsets, so its witness is
the lexicographically least of minimum size. The search keeps the deficits
as r bit-planes, one bit per vertex in the order of the last vertex whose
ball reaches it (see _min_cover). The verification helpers package
small-graph facts: the two-broadcast cycle, the torus pair that beats the
product bound, and product scans over graph pairs.

The search meets the same subtree many times, within a deepening level and
across levels: P7 x P7 at (2, 1) pushes 52,012 nodes over 4,737 distinct
states. A subtree is fixed by its first candidate row, its deficits and the
rows still to choose, so _min_cover keeps, for the whole call, the node
count of every subtree that failed, dead ends that pushed no node included,
and adds that count instead of walking the subtree again. Only failed
subtrees are kept because one that finds a set ends the search. The memo
takes no entries once it holds _MEMO_CAP, which bounds its memory where
states rarely repeat. The tree, its visiting order, the witness and the
node count are those of the full walk; a node budget that runs out inside a
skipped subtree reports node_budget + 1 nodes, as the walk would have.
"""

from __future__ import annotations

import heapq
from functools import reduce
from itertools import islice
from typing import Hashable, Iterable, Optional, Sequence

from .coverage_bounds import Params
from .lattice_geometry import _Record

__all__ = [
    "CycleLemmaReport", "FiniteGraph", "GammaResult", "GraphExprError",
    "TorusReport", "VizingPairReport", "gamma_exact", "is_dominating_set",
    "parse_graph_expr", "reception_map", "verify_cycle_lemma",
    "verify_torus_counterexample", "vizing_scan",
]

DEFAULT_NODE_BUDGET = 5_000_000
# Most entries _min_cover keeps in its memo of failed subtrees; full, the
# memo adds about 3.1 MB to the search on C10 x C10 at (3, 2). P8 x P8 at
# (2, 1) stores 20,040 frames, dead ends included; a cap of 1 << 14 fills
# before it, and that search then takes 1.4 to 1.6 times as long.
_MEMO_CAP = 1 << 15
# Most vertices of any graph the library builds, parsed or constructed. The
# search's memory grows with the square of the vertex count (P100000 at
# (1, 1) peaks at 5.2 GB), so no graph above this bound can be solved.
_MAX_EXPR_VERTICES = 10**6

Label = Hashable


class GraphExprError(ValueError):
    """Malformed graph expression; position is the offset of the problem."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at offset {position}")
        self.position = position


def _check_size(vertices: int) -> None:
    if vertices > _MAX_EXPR_VERTICES:
        raise ValueError(f"graph has more than {_MAX_EXPR_VERTICES} vertices")


def _check_atom(kind: str, k: int, vertices: int = 1) -> None:
    # The rules of the atom P<k> or C<k>, for the constructors and the parser
    # alike; vertices counts the graph the atom multiplies.
    if kind == "P" and k < 1:
        raise ValueError("path needs at least 1 vertex")
    if kind == "C" and k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    _check_size(vertices * k)


def _flat(label: Label) -> tuple:
    return label if isinstance(label, tuple) else (label,)


def _indexed(labels: tuple[Label, ...]) -> dict[Label, int]:
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("duplicate vertex label")
    return index


class FiniteGraph:
    """Undirected graph over hashable vertex labels."""

    def __init__(
        self, labels: Sequence[Label], edges: Iterable[tuple[Label, Label]]
    ) -> None:
        # At most one label past the bound is read before the refusal.
        self._labels = tuple(islice(labels, _MAX_EXPR_VERTICES + 1))
        _check_size(len(self._labels))
        self._index = _indexed(self._labels)
        adj: list[set[int]] = [set() for _ in self._labels]
        for a, b in edges:
            i, j = self._index.get(a), self._index.get(b)
            if i is None or j is None:
                missing = a if i is None else b
                raise ValueError(f"edge endpoint {missing!r} is not a vertex")
            if i == j:
                raise ValueError(f"self-loop at {a!r}")
            adj[i].add(j)
            adj[j].add(i)
        self._adj = tuple(tuple(sorted(s)) for s in adj)

    @property
    def labels(self) -> tuple[Label, ...]:
        return self._labels

    @property
    def vertex_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj) // 2

    def index_of(self, label: Label) -> int:
        if label not in self._index:
            raise ValueError(f"{label!r} is not a vertex")
        return self._index[label]

    def neighbors(self, label: Label) -> tuple[Label, ...]:
        return tuple(self._labels[j] for j in self._adj[self.index_of(label)])

    @staticmethod
    def path(k: int) -> "FiniteGraph":
        """Path on vertices 1..k."""
        _check_atom("P", k)
        return FiniteGraph(range(1, k + 1), ((i, i + 1) for i in range(1, k)))

    @staticmethod
    def cycle(k: int) -> "FiniteGraph":
        """Cycle on vertices 0..k-1; k must be at least 3."""
        _check_atom("C", k)
        return FiniteGraph(range(k), ((i, (i + 1) % k) for i in range(k)))

    def box_product(self, other: "FiniteGraph") -> "FiniteGraph":
        """Box product; tuple labels from both factors flatten into one tuple.

        Vertices are ordered row-major: all of other's labels under the first
        label of self, then the second, and so on. With m = other.vertex_count,
        vertex i * m + k neighbours j * m + k for each neighbour j of i, and
        i * m + l for each neighbour l of k. The factors' neighbour tuples are
        ascending and hold no self-loop, so listing the j below i, then the l,
        then the j above i gives ascending tuples with none of __init__'s edge
        checks. The labels keep their duplicate check: flattening makes (1, 2)
        with 3 and 1 with (2, 3) alike.
        """
        m = other.vertex_count
        _check_size(self.vertex_count * m)
        product = FiniteGraph.__new__(FiniteGraph)
        tails = [_flat(b) for b in other._labels]
        product._labels = tuple(_flat(a) + b for a in self._labels for b in tails)
        product._index = _indexed(product._labels)
        split = [([j * m for j in js if j < i], i * m, [j * m for j in js if j > i])
                 for i, js in enumerate(self._adj)]
        product._adj = tuple([
            tuple([j + k for j in lo] + [row + l for l in ls] + [j + k for j in hi])
            for lo, row, hi in split for k, ls in enumerate(other._adj)
        ])
        return product

    def _ball(self, src: int, radius: int) -> dict[int, int]:
        """BFS distance from vertex index src to each vertex within radius."""
        ball = {src: 0}
        frontier = [src]
        for d in range(1, radius + 1):
            if not frontier:
                break
            level = []
            for u in frontier:
                for v in self._adj[u]:
                    if v not in ball:
                        ball[v] = d
                        level.append(v)
            frontier = level
        return ball

    def distances(self) -> tuple[tuple[Optional[int], ...], ...]:
        """All-pairs distances by BFS; None between different components."""
        n = len(self._labels)
        return tuple(
            tuple(map(self._ball(src, n).get, range(n))) for src in range(n)
        )

    @property
    def component_count(self) -> int:
        seen: set[int] = set()
        count = 0
        for src in range(len(self._labels)):
            if src not in seen:
                count += 1
                seen.update(self._ball(src, len(self._labels)))
        return count


def _graph_atoms(text: str) -> list[tuple[str, int]]:
    # The atoms (kind, k) of an expression, in order. One loop alternates
    # between wanting a term and having read one; the box product is
    # associative, so a count of open parentheses is all grouping needs.
    atoms, pos, depth, vertices, term = [], 0, 0, 1, True
    while True:
        while text[pos : pos + 1].isspace():
            pos += 1
        start, ch = pos, text[pos : pos + 1]
        pos += 1
        if term and ch == "(":
            depth += 1
        elif term and ch in ("P", "C"):
            while text[pos : pos + 1].isdecimal():  # what int() accepts
                pos += 1
            if pos == start + 1:
                raise GraphExprError("expected a number", pos)
            k = int(text[start + 1 : pos])
            try:
                # Every factor and product divides the product of all atoms.
                _check_atom(ch, k, vertices)
            except ValueError as exc:
                raise GraphExprError(str(exc), start) from None
            vertices *= k
            atoms.append((ch, k))
            term = False
        elif term and ch:
            raise GraphExprError(f"unexpected character {ch!r}", start)
        elif term:
            raise GraphExprError("unexpected end of expression", start)
        elif ch == "*":
            term = True
        elif ch == ")" and depth:
            depth -= 1
        elif depth or ch:
            raise GraphExprError("expected ')'" if depth else "trailing input", start)
        else:
            return atoms


def parse_graph_expr(text: str) -> FiniteGraph:
    """Build a graph from an expression like ``P5*C4`` or ``(P2*P3)*C5``.

    Atoms are P<k> for the path on k vertices and C<k> for the cycle on k;
    ``*`` is the box product, which is associative, so parentheses only
    group. An expression of more than 10^6 vertices is refused before any
    graph is built.
    """
    graphs = (FiniteGraph.path(k) if kind == "P" else FiniteGraph.cycle(k)
              for kind, k in _graph_atoms(text))
    return reduce(FiniteGraph.box_product, graphs)


def reception_map(
    graph: FiniteGraph, broadcasts: Iterable[Label], t: int
) -> dict[Label, int]:
    """Reception every vertex accumulates from broadcasts of strength t."""
    if t < 1:
        raise ValueError("t must be at least 1")
    totals = [0] * graph.vertex_count
    seen = set()
    for b in broadcasts:
        i = graph.index_of(b)
        if i in seen:
            raise ValueError(f"duplicate broadcast at {b!r}")
        seen.add(i)
        for v, d in graph._ball(i, t - 1).items():
            totals[v] += t - d
    return dict(zip(graph.labels, totals))


def is_dominating_set(
    graph: FiniteGraph, broadcasts: Iterable[Label], params: Params
) -> bool:
    """Whether every vertex accumulates reception at least r."""
    receptions = reception_map(graph, broadcasts, params.t)
    return all(value >= params.r for value in receptions.values())


class GammaResult(_Record):
    """Outcome of a minimum dominating set search.

    status is "exact" when gamma and witness are proven minimal, or
    "cap-exceeded" when the size cap or node budget ran out first; then only
    upper_bound (from a greedy pass) is meaningful. nodes counts search tree
    nodes across all deepening levels.
    """

    status: str
    gamma: Optional[int]
    witness: Optional[tuple[Label, ...]]
    upper_bound: int
    nodes: int
    components: int


def _greedy_witness(rows: Sequence[Sequence[tuple[int, int]]], r: int) -> list[int]:
    # Upper bound: repeatedly take the untaken row that removes the most
    # deficit, lowest index on ties. Gains only fall as deficits do, so a
    # heap of stale gains is exact: a popped row whose gain has not fallen
    # beats every other.
    deficits, total = [r] * len(rows), len(rows) * r
    heap = [(-sum(min(c, r) for _, c in row), u) for u, row in enumerate(rows)]
    heapq.heapify(heap)
    chosen: list[int] = []
    while total > 0:
        stale, u = heapq.heappop(heap)
        gain = sum(min(c, deficits[v]) for v, c in rows[u])
        if gain == -stale:
            chosen.append(u)
            for v, c in rows[u]:
                deficits[v] -= min(c, deficits[v])
            total -= gain
        elif gain:
            heapq.heappush(heap, (-gain, u))
    return chosen


def _min_cover(
    rows: Sequence[Sequence[tuple[int, int]]],
    r: int,
    size_cap: Optional[int],
    node_budget: int,
) -> tuple[Optional[int], Optional[list[int]], int, int]:
    """Lexicographically least minimum set of rows that brings every column to r.

    Row u holds (v, c) pairs, each column v at most once and in any order:
    choosing u adds c > 0 to column v. A row is read only column by column
    (last_helper, the given masks, the column classes, the gain sums and the
    greedy's sums), so the order within a row changes no result.
    Returns (size, row indices, greedy upper bound, nodes); size and indices
    are None when size_cap or node_budget ran out first.

    The deficits are r bit-planes of n bits, packed into one int with plane j
    at bits w + j*n to w + j*n + n - 1; the w low bits stay clear for the
    memo below. Plane j has a column's bit while its deficit exceeds j, so
    the popcount is the total deficit and every set bit has its copy in
    plane 0. Bit p of a plane is the column with the p-th smallest last
    helper (the last row that reaches it), so the lowest set bit names the
    deficient column whose last helper bounds the rows worth trying.
    Choosing a row clears the columns it reaches and moves those it gives
    c < r down c planes; the ints are immutable, so a stack frame keeps its
    node's deficits and nothing is undone.

    A node of the search is (u, hi, planes, m, mask): the next candidate
    row, the last candidate worth trying, the deficits, the rows still to
    choose after a candidate, and the column prune for min(m, r) of them.
    Choosing u pushes the node as one frame and descends, so a candidate
    does only its own work, read from tables indexed by u alone: one AND
    with stay[u], which clears planes 0 .. min(c, r) - 1 of each column u
    gives c, so a deficit d keeps max(0, d - c) bits, as in the child. The
    AND tells whether u changes the deficits, completes the cover and
    passes the gain prune; only then is the child built (at r = 1 it is
    the AND) for the column prune and the memo.

    The child's subtree depends on u, child and m alone (its first
    candidate is u + 1, hi and mask follow from child and m - 1), so the
    memo failed maps the key child | (u * n + m), with u * n + m < n * n in
    the w clear bits, to the nodes pushed below the child. Every frame is
    stored when it pops, since every pop is a subtree that failed (a set
    found below it returns at once). A dead end that pushed nothing is
    stored with count 0, which spares the scan of its candidates when its
    key comes back; a hit then adds 1 + 0, as the push would have. A
    candidate that passes the prunes costs one lookup; on a hit it adds 1
    plus the stored count to nodes and moves on, and a total over
    node_budget returns node_budget + 1, the count at which the walk would
    have stopped inside the subtree. The memo is shared by every deepening
    level and takes no entries once it holds _MEMO_CAP.
    """
    n = len(rows)
    if not n:
        return 0, [], 0, 0
    last_helper = {v: u for u, row in enumerate(rows) for v, _ in row}
    by_last_helper = sorted(range(n), key=last_helper.__getitem__)
    # The planes start at bit width (w above), so a memo key is one int,
    # half the memory of a (u, child, m) tuple.
    width = (n * n).bit_length()
    hi_of_bit = [0] * width + [last_helper[v] for v in by_last_helper]
    bit = {v: 1 << (width + p) for p, v in enumerate(by_last_helper)}
    full = ((1 << n) - 1) << width
    # spread[c] repeats a plane mask over planes 0 .. c - 1, and spread[0]
    # = tile over all r. At r >= 2, keep[u] clears the columns row u reaches
    # and shifts[u] lists (c * n, the columns given c < r), masks repeated
    # per plane by tile.
    spread = [sum(1 << (j * n) for j in range(c or r)) for c in range(r)]
    tile = spread[0]
    multi = r > 1  # at r = 1 every shift list is empty and keep is stay
    stay, keep, shifts = [], [], []
    for row in rows:
        given = [0] * r  # given[0] gathers the columns that receive c >= r
        for v, c in row:
            given[c if c < r else 0] |= bit[v]
        stay.append(full * tile ^ sum(g * s for g, s in zip(given, spread)))
        if multi:
            keep.append((full ^ sum(given)) * tile)
            shifts.append([(c * n, g * tile) for c, g in enumerate(given) if c and g])
    # Column prune: m more rows cannot cover a column whose best single-row
    # contribution from the rows left is c < r once its deficit exceeds
    # m * c. cls[c] holds the columns of class c over the rows seen so far
    # (from the last); prune(m) puts them in plane m * c, and prune(r)
    # serves every m >= r. masks[j][u] is prune(j) and gain_after[u] the
    # largest row total over the rows after u; masks[0] stays empty, as
    # with no row left only child == 0 counts. No table is built per m: m
    # runs up to the limit, which is n at t = 1, so it would be quadratic.
    best = [0] * n
    cls = [full] + [0] * (r - 1)

    def prune(m: int) -> int:
        return sum(cls[c] << (m * c * n) for c in range((r - 1) // m + 1))

    masks: list[list[int]] = [[] for _ in range(r + 1)]
    gain_after, gain = [], 0
    for row in reversed(rows):
        for j in range(1, r + 1):
            masks[j].append(prune(j))
        gain_after.append(gain)
        for v, c in row:
            if c > best[v]:
                if best[v] < r:
                    cls[best[v]] ^= bit[v]
                if c < r:
                    cls[c] |= bit[v]
                best[v] = c
        gain = max(gain, sum(c for _, c in row))
    for column in masks:
        column.reverse()
    gain_after.reverse()

    upper = len(_greedy_witness(rows, r))
    limit = upper if size_cap is None else min(size_cap, upper)
    root = full * tile
    nodes = 0
    failed: dict[int, int] = {}
    for k in range(1, limit + 1):
        if root & prune(min(k, r)) or n * r > k * gain:
            continue
        nodes += 1
        if nodes > node_budget:
            break
        # The frames' u are the rows chosen above the current node; a frame
        # also keeps its child's memo key and the node count at the push.
        stack: list[tuple[int, int, int, int, list[int], int, int]] = []
        u, hi, planes, m = 0, hi_of_bit[width], root, k - 1
        mask = masks[min(m, r)]
        while True:
            if u > hi:
                if not stack:
                    break
                u, hi, planes, m, mask, key, start = stack.pop()
                if len(failed) < _MEMO_CAP:
                    failed[key] = nodes - start
                u += 1
                continue
            child = planes & stay[u]
            if child == planes:
                # Every set bit has its copy in plane 0, so a row that
                # reaches a deficient column lowers the popcount. This u
                # reaches none, now or later; a minimum set cannot hold it.
                u += 1
                continue
            if not child:
                # Frames hold increasing indices, so this is sorted.
                return k, [frame[0] for frame in stack] + [u], upper, nodes
            # The gain prune rejects most candidates, so it runs first, and
            # only a candidate that passes it builds its child.
            if m and child.bit_count() <= m * gain_after[u]:
                if multi:
                    child = planes & keep[u]
                    for shift, given in shifts[u]:
                        child |= (planes >> shift) & given
                if not child & mask[u]:
                    key = child | (u * n + m)
                    below = failed.get(key)
                    if below is None:
                        nodes += 1
                        if nodes > node_budget:
                            return None, None, upper, nodes
                        stack.append((u, hi, planes, m, mask, key, nodes))
                        low = (child & -child).bit_length() - 1
                        u, hi, planes, m = u + 1, hi_of_bit[low], child, m - 1
                        mask = masks[min(m, r)]
                        continue
                    nodes += 1 + below
                    if nodes > node_budget:
                        # The walk would have stopped inside the subtree, at
                        # the first node over the budget.
                        return None, None, upper, node_budget + 1
            u += 1
    return None, None, upper, nodes


def gamma_exact(
    graph: FiniteGraph,
    params: Params,
    size_cap: Optional[int] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> GammaResult:
    """Minimum size of a dominating broadcast set, with a witness.

    Iterative deepening over subset size; within a size, subsets are tried
    in lexicographic index order and every prune only discards subsets that
    cannot be completed, so the first set found is the lexicographically
    least minimum witness. Every vertex supplies itself t >= r, so a
    dominating set always exists and the search always terminates; size_cap
    and node_budget bound the effort and yield a cap-exceeded result when
    hit. The search keeps its path on an explicit stack, so its depth is not
    bounded by Python's recursion limit. A negative size_cap or node_budget
    raises ValueError.
    """
    if node_budget < 0:
        raise ValueError("node_budget must be nonnegative")
    if size_cap is not None and size_cap < 0:
        raise ValueError("size_cap must be nonnegative")
    t = params.t
    rows = [
        tuple((v, t - d) for v, d in graph._ball(u, t - 1).items())
        for u in range(graph.vertex_count)
    ]
    gamma, chosen, upper, nodes = _min_cover(rows, params.r, size_cap, node_budget)
    status = "cap-exceeded" if chosen is None else "exact"
    witness = None if chosen is None else tuple(graph.labels[i] for i in chosen)
    return GammaResult(status, gamma, witness, upper, nodes, graph.component_count)


def _gammas(graphs, params: Params, node_budget: int) -> tuple[Optional[int], ...]:
    # gamma of each graph in turn, None where its search ran out of budget
    return tuple(gamma_exact(g, params, node_budget=node_budget).gamma for g in graphs)


class CycleLemmaReport(_Record):
    """Check that the cycle of length 2(t - r + 1) is dominated by 2 broadcasts.

    status is "passed", "failed", or "not-applicable" when t = r: the length
    would be 2, not a cycle.
    """

    t: int
    r: int
    n: int
    status: str
    gamma: Optional[int]
    witness: Optional[tuple[Label, ...]]
    canonical_witness: Optional[tuple[Label, ...]]
    canonical_receptions: Optional[tuple[int, ...]]
    note: str


def verify_cycle_lemma(params: Params) -> CycleLemmaReport:
    """Exact gamma of the cycle of length 2(t - r + 1), checked against 2."""
    t, r = params.t, params.r
    n = 2 * (t - r + 1)
    if n < 3:
        return CycleLemmaReport(
            t, r, n, "not-applicable", None, None, None, None,
            "length 2(t-r+1) = 2 is not a cycle; needs t > r",
        )
    graph = FiniteGraph.cycle(n)
    result = gamma_exact(graph, params)
    canonical = (0, n // 2)
    receptions = reception_map(graph, canonical, t)
    canonical_ok = all(value >= r for value in receptions.values())
    passed = result.status == "exact" and result.gamma == 2 and canonical_ok
    return CycleLemmaReport(
        t, r, n, "passed" if passed else "failed", result.gamma, result.witness,
        canonical, tuple(receptions[v] for v in range(n)), ""
    )


class TorusReport(_Record):
    """The torus C_n x C_n at n = 2(t - r + 1) needs only 2 broadcasts.

    Two antipodal broadcasts dominate the whole torus even though each cycle
    factor alone needs 2, so the product bound gamma(G)*gamma(H) = 4 fails.
    min_reception is the worst reception under the canonical witness; it
    always equals 2r - 2, which is why r >= 2 is required.
    """

    t: int
    r: int
    n: int
    gamma_torus: Optional[int]
    gamma_cycle: Optional[int]
    squared_bound: Optional[int]
    violates_product_bound: Optional[bool]
    canonical_witness: tuple[Label, ...]
    canonical_dominates: bool
    min_reception: int
    expected_min_reception: int
    min_reception_vertices: tuple[Label, ...]
    passed: bool


def verify_torus_counterexample(
    params: Params, node_budget: int = DEFAULT_NODE_BUDGET
) -> TorusReport:
    """Check the torus values for the given parameters; needs r >= 2 and t > r."""
    t, r = params.t, params.r
    if r < 2:
        raise ValueError("the torus argument needs r >= 2")
    n = 2 * (t - r + 1)
    if n < 3:
        raise ValueError("the torus argument needs t > r")
    cycle = FiniteGraph.cycle(n)
    torus = cycle.box_product(cycle)
    canonical = ((0, 0), (n // 2, n // 2))
    receptions = reception_map(torus, canonical, t)
    min_reception = min(receptions.values())
    min_vertices = tuple(
        lab for lab in torus.labels if receptions[lab] == min_reception
    )
    canonical_ok = min_reception >= r

    gamma_torus, gamma_cycle = _gammas((torus, cycle), params, node_budget)
    if gamma_torus is None or gamma_cycle is None:
        squared, violates, passed = None, None, False
    else:
        squared = gamma_cycle**2
        violates = gamma_torus < squared
        passed = (
            gamma_torus == 2 and violates and canonical_ok
            and min_reception == 2 * r - 2
        )
    return TorusReport(
        t, r, n, gamma_torus, gamma_cycle, squared, violates, canonical,
        canonical_ok, min_reception, 2 * r - 2, min_vertices, passed,
    )


class VizingPairReport(_Record):
    """Product inequalities for the graph expressions g and h at the scan's (t, r).

    halved_product_holds_gh: 2 * gamma_{t,r}(G box H) >= gamma_{t,r}(G) *
    gamma_{t,1}(H); _hg swaps the roles. distance_product_holds:
    gamma_{t,1}(G box H) >= gamma_{t,1}(G) * gamma_{t,1}(H). All three are
    None when any underlying search hit its cap.
    """

    g: str
    h: str
    status: str
    gamma_g: Optional[int]
    gamma_h: Optional[int]
    gamma_product: Optional[int]
    gamma_g_t1: Optional[int]
    gamma_h_t1: Optional[int]
    gamma_product_t1: Optional[int]
    halved_product_holds_gh: Optional[bool]
    halved_product_holds_hg: Optional[bool]
    distance_product_holds: Optional[bool]


def vizing_scan(
    pairs: Iterable[tuple[str, str]],
    params: Params,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[VizingPairReport]:
    """Evaluate the product inequalities over pairs of graph expressions."""
    t, r = params.t, params.r
    reports = []
    for expr_g, expr_h in pairs:
        g = parse_graph_expr(expr_g)
        h = parse_graph_expr(expr_h)
        graphs = (g, h, g.box_product(h))
        at_r = _gammas(graphs, params, node_budget)
        # At r = 1 the (t, 1) searches are the ones just run.
        at_1 = at_r if r == 1 else _gammas(graphs, Params(t, 1), node_budget)
        (g_r, h_r, gh_r), (g_1, h_1, gh_1) = at_r, at_1
        if None in at_r + at_1:
            status, holds = "cap-exceeded", (None, None, None)
        else:
            status = "exact"
            holds = (2 * gh_r >= g_r * h_1, 2 * gh_r >= h_r * g_1, gh_1 >= g_1 * h_1)
        reports.append(
            VizingPairReport(expr_g, expr_h, status, *at_r, *at_1, *holds)
        )
    return reports
