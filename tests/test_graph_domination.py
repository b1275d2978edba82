"""Finite graphs: construction, parsing, exact gamma, and the verifiers."""

import itertools
import random
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broadcastdom import (
    FiniteGraph,
    GraphExprError,
    Params,
    gamma_exact,
    is_dominating_set,
    parse_graph_expr,
    reception_map,
    verify_cycle_lemma,
    verify_torus_counterexample,
    vizing_scan,
)
import broadcastdom.graph_domination as graph_domination
from broadcastdom.graph_domination import (
    DEFAULT_NODE_BUDGET,
    _greedy_witness,
    _min_cover,
)

from _cases import (
    CORNER_BROADCASTS,
    CORNER_RECEPTIONS,
    DIAMOND_BROADCASTS,
    DIAMOND_RECEPTIONS,
    MONOTONE_INSTANCES,
    brute_distances,
    brute_gamma,
    brute_min_cover,
    brute_receptions,
    naive_greedy,
)

# Property tests draw the same examples on every run and keep no database.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def test_finite_graph_validation():
    with pytest.raises(ValueError):
        FiniteGraph((1, 1, 2), ())
    with pytest.raises(ValueError):
        FiniteGraph((1, 2), ((1, 3),))
    with pytest.raises(ValueError):
        FiniteGraph((1, 2), ((1, 1),))


def test_self_loop_is_found_by_index():
    # nan != nan, so a check that compares the labels lets this loop through.
    nan = float("nan")
    with pytest.raises(ValueError, match="^self-loop at nan$"):
        FiniteGraph([nan], [(nan, nan)])


def test_path_and_cycle_shapes():
    p1 = FiniteGraph.path(1)
    assert p1.labels == (1,) and p1.edge_count == 0
    p4 = FiniteGraph.path(4)
    assert p4.labels == (1, 2, 3, 4)
    assert p4.edge_count == 3
    c5 = FiniteGraph.cycle(5)
    assert c5.labels == (0, 1, 2, 3, 4)
    assert c5.edge_count == 5
    with pytest.raises(ValueError):
        FiniteGraph.path(0)
    with pytest.raises(ValueError):
        FiniteGraph.cycle(2)


def test_box_product_labels_and_edges():
    g = parse_graph_expr("P2*P2")
    assert g.labels == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert g.edge_count == 4
    cube = parse_graph_expr("P2*P2*P2")
    assert cube.vertex_count == 8
    assert cube.edge_count == 12
    assert all(len(lab) == 3 for lab in cube.labels)


STAR = FiniteGraph((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3)))
# Two components and an isolated vertex, with labels out of order.
SCATTERED = FiniteGraph(("c", "a", "d", "b", "e"), (("a", "c"), ("d", "b")))
FACTORS = {
    "star": STAR, "scattered": SCATTERED, "single": FiniteGraph(("x",), ()),
    "P1": FiniteGraph.path(1), "P3": FiniteGraph.path(3),
    "C4": FiniteGraph.cycle(4), "P2*C3": parse_graph_expr("P2*C3"),
}


def product_oracle(g, h):
    """g box h through the label-edge constructor, read from g's and h's neighbours."""
    def flat(label):
        return label if isinstance(label, tuple) else (label,)

    labels = [flat(a) + flat(b) for a in g.labels for b in h.labels]
    edges = [(flat(a) + flat(b), flat(c) + flat(b))
             for a in g.labels for c in g.neighbors(a) for b in h.labels]
    edges += [(flat(a) + flat(b), flat(a) + flat(c))
              for a in g.labels for b in h.labels for c in h.neighbors(b)]
    return FiniteGraph(labels, edges)


@pytest.mark.parametrize("g, h", itertools.product(FACTORS, repeat=2))
def test_box_product_matches_the_label_edge_oracle(g, h):
    product = FACTORS[g].box_product(FACTORS[h])
    oracle = product_oracle(FACTORS[g], FACTORS[h])
    assert product.labels == oracle.labels
    for label in oracle.labels:
        assert product.index_of(label) == oracle.index_of(label)
        assert product.neighbors(label) == oracle.neighbors(label)


def test_box_product_refuses_labels_that_flatten_alike():
    # (1, 2) x 3 and 1 x (2, 3) both flatten to (1, 2, 3).
    g, h = FiniteGraph(((1, 2), 1), ()), FiniteGraph((3, (2, 3)), ())
    with pytest.raises(ValueError, match="^duplicate vertex label$"):
        g.box_product(h)


def test_distances():
    p5 = FiniteGraph.path(5)
    d = p5.distances()
    for i in range(5):
        for j in range(5):
            assert d[i][j] == abs(i - j)
    c6 = FiniteGraph.cycle(6)
    d = c6.distances()
    for i in range(6):
        for j in range(6):
            gap = abs(i - j)
            assert d[i][j] == min(gap, 6 - gap)


def test_distances_disconnected():
    g = FiniteGraph(("a", "b", "c"), (("a", "b"),))
    d = g.distances()
    assert d[0][2] is None
    assert g.component_count == 2


def test_parse_graph_expr():
    assert parse_graph_expr("P5").labels == (1, 2, 3, 4, 5)
    assert parse_graph_expr(" P2 * P3 ").vertex_count == 6
    assert parse_graph_expr("(P2*P2)*C3").vertex_count == 12
    # Numbers are read in the digits int() accepts (str.isdecimal): Arabic-
    # Indic digits are numbers, a superscript two (an isdigit digit) is not.
    assert parse_graph_expr("P\u0663").labels == (1, 2, 3)
    assert parse_graph_expr("C\u0661\u0660").labels == tuple(range(10))
    for text, pos in [("", 0), ("X3", 0), ("P", 1), ("P0", 0), ("P\u00b2", 1),
                      ("C2", 0), ("(P2", 3), ("P2)", 2), ("P2*", 3)]:
        with pytest.raises(GraphExprError) as err:
            parse_graph_expr(text)
        assert err.value.position == pos, text


P, C = FiniteGraph.path, FiniteGraph.cycle


@pytest.mark.parametrize("expr, build", [
    ("P0", lambda: P(0)),
    ("C2", lambda: C(2)),
    ("C1", lambda: C(1)),
    ("P1000001", lambda: P(1000001)),
    ("P1000*P1001", lambda: P(1000).box_product(P(1001))),
])
def test_parser_and_constructors_refuse_with_one_message(expr, build):
    with pytest.raises(GraphExprError) as parsed:
        parse_graph_expr(expr)
    with pytest.raises(ValueError) as built:
        build()
    assert str(parsed.value).rpartition(" at offset")[0] == str(built.value)


@pytest.mark.parametrize("expr, nested", [
    ("P2*(P3*C4)", lambda: P(2).box_product(P(3).box_product(C(4)))),
    ("(P2*P3)*C4", lambda: P(2).box_product(P(3)).box_product(C(4))),
    ("C3*(P2*(P2*P3))",
     lambda: C(3).box_product(P(2).box_product(P(2).box_product(P(3))))),
    ("((P3))", lambda: P(3)),
])
def test_parentheses_only_group(expr, nested):
    # The box product is associative, so the expression, its flat form and
    # the grouping built factor by factor have the same vertices in the
    # same order, with the same neighbours.
    flat = expr.replace("(", "").replace(")", "")
    graphs = (parse_graph_expr(expr), parse_graph_expr(flat), nested())
    shapes = [[(v, g.neighbors(v)) for v in g.labels] for g in graphs]
    assert shapes[0] == shapes[1] == shapes[2]


def test_parentheses_nest_beyond_the_recursion_limit():
    # A depth count, not a frame per parenthesis, so 1,000 pairs parse.
    assert sys.getrecursionlimit() <= 1000
    deep = "(" * 1000 + "P2" + ")" * 1000
    assert parse_graph_expr(deep).labels == (1, 2)
    assert gamma_exact(parse_graph_expr(deep), Params(1, 1)).gamma == 2
    for text, message in [
        (deep[:-1], "expected ')' at offset 2001"),
        (deep + ")", "trailing input at offset 2002"),
        ("(" * 1000 + "P2*)" + ")" * 999, "unexpected character ')' at offset 1003"),
    ]:
        with pytest.raises(GraphExprError) as err:
            parse_graph_expr(text)
        assert str(err.value) == message


@pytest.mark.parametrize("build", [
    lambda: FiniteGraph.path(13),
    lambda: FiniteGraph.cycle(13),
    lambda: P(3).box_product(C(5)),
    lambda: parse_graph_expr("P3").box_product(parse_graph_expr("P2*P3")),
    lambda: FiniteGraph(range(13), []),
], ids=["path", "cycle", "box-product", "box-of-products", "constructor"])
def test_constructors_refuse_graphs_above_the_bound(build):
    # Every graph the library builds is bounded, not only parsed expressions:
    # at a bound of 12, P12, P3 x P4 and 12 bare labels are built and anything
    # larger is not.
    with mock.patch.object(graph_domination, "_MAX_EXPR_VERTICES", 12):
        assert FiniteGraph.path(12).vertex_count == 12
        assert FiniteGraph(range(12), []).vertex_count == 12
        assert C(12).vertex_count == P(3).box_product(P(4)).vertex_count == 12
        with pytest.raises(ValueError) as err:
            build()
    assert str(err.value) == "graph has more than 12 vertices"


def test_constructors_refuse_before_allocating():
    # The real bound: refused with a plain ValueError (not a GraphExprError,
    # which carries an offset), in far less memory than the graph would take.
    tracemalloc.start()
    try:
        for build in (lambda: P(10**6 + 1), lambda: C(6 * 10**6),
                      lambda: P(1000).box_product(P(1001))):
            with pytest.raises(ValueError) as err:
                build()
            assert type(err.value) is ValueError
            assert str(err.value) == "graph has more than 1000000 vertices"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_constructor_reads_one_label_past_the_bound():
    # FiniteGraph(range(5 * 10**6), []) would otherwise hold five million
    # labels before it refused them.
    read = []
    labels = (read.append(i) or i for i in range(100))
    with mock.patch.object(graph_domination, "_MAX_EXPR_VERTICES", 12):
        with pytest.raises(ValueError, match="^graph has more than 12 vertices$"):
            FiniteGraph(labels, [])
    assert read == list(range(13))


@pytest.mark.parametrize("fn, args, message", [
    (reception_map, (P(3), [], 0), "t must be at least 1"),
    (FiniteGraph, ([1], [(1, 2)]), "edge endpoint 2 is not a vertex"),
    (FiniteGraph, ([1], [(2, 1)]), "edge endpoint 2 is not a vertex"),
])
def test_validation_raises(fn, args, message):
    with pytest.raises(ValueError) as err:
        fn(*args)
    assert str(err.value) == message


def test_reception_map_on_path():
    p5 = FiniteGraph.path(5)
    assert reception_map(p5, (3,), 3) == {1: 1, 2: 2, 3: 3, 4: 2, 5: 1}
    assert reception_map(p5, (1, 5), 2) == {1: 2, 2: 1, 3: 0, 4: 1, 5: 2}
    with pytest.raises(ValueError):
        reception_map(p5, (3, 3), 3)
    with pytest.raises(ValueError):
        reception_map(p5, (9,), 3)


def test_reference_grid_receptions():
    grid = parse_graph_expr("P5*P5")
    params = Params(3, 2)
    assert reception_map(grid, DIAMOND_BROADCASTS, 3) == DIAMOND_RECEPTIONS
    assert reception_map(grid, CORNER_BROADCASTS, 3) == CORNER_RECEPTIONS
    assert is_dominating_set(grid, DIAMOND_BROADCASTS, params)
    assert not is_dominating_set(grid, CORNER_BROADCASTS, params)


def test_reception_map_matches_bfs_oracle():
    for expr, broadcasts, t in [
        ("P4", (1, 4), 2),
        ("C5", (0, 2), 3),
        ("P3*P3", ((1, 1), (3, 3)), 2),
        ("P2*C4", ((1, 0), (2, 2)), 3),
    ]:
        g = parse_graph_expr(expr)
        assert reception_map(g, broadcasts, t) == brute_receptions(
            g, broadcasts, t
        ), expr


GAMMA_CASES = [
    (expr, t, r)
    for expr in ["P2", "P3", "P4", "P5", "C3", "C4", "C5", "C6",
                 "P2*P3", "P3*P3", "P2*C4"]
    for (t, r) in [(1, 1), (2, 1), (2, 2), (3, 2)]
]


def test_gamma_exact_matches_brute_force():
    for expr, t, r in GAMMA_CASES:
        g = parse_graph_expr(expr)
        size, witness = brute_gamma(g, t, r)
        result = gamma_exact(g, Params(t, r))
        assert result.status == "exact", (expr, t, r)
        assert result.gamma == size, (expr, t, r)
        # both searches scan subsets in lexicographic label order
        assert result.witness == witness, (expr, t, r)
        assert is_dominating_set(g, result.witness, Params(t, r))
        assert result.gamma <= result.upper_bound


def test_gamma_frozen_values():
    cases = [
        ("P3", 2, 1, 1),
        ("C4", 3, 1, 1),
        ("P2*P2", 1, 1, 4),
        ("P3*P3", 2, 1, 3),
        ("P3*C4", 1, 1, 12),
        ("P5*P5", 2, 1, 7),
        ("P5*P5", 3, 2, 4),
        ("C4*C4", 3, 2, 2),
    ]
    for expr, t, r, expected in cases:
        result = gamma_exact(parse_graph_expr(expr), Params(t, r))
        assert result.status == "exact"
        assert result.gamma == expected, (expr, t, r)


# (expr, t, r) -> (gamma, nodes). The node count depends on the visiting
# order and every prune, so it pins the search itself.
GAMMA_NODE_COUNTS = {
    ("P5*P5", 2, 1): (7, 508),
    ("P5*P5", 3, 2): (4, 84),
    ("C6*C6", 3, 2): (5, 253),
    ("P6*P6", 3, 3): (9, 18793),
    ("C8*C8", 4, 2): (4, 64),
    ("P7*P7", 2, 1): (12, 52012),
    ("P7*P7", 3, 2): (8, 9046),
    ("C8*C8", 3, 2): (8, 9592),
    ("C7*C7", 3, 2): (7, 14945),
    ("P6*P8", 2, 1): (12, 101716),
    ("P8*P8", 2, 1): (16, 1075215),
    # Three and four deficit planes, where rows give c below r in two or
    # three shift classes.
    ("C7*C7", 4, 3): (5, 3374),
    ("C8*C8", 4, 3): (6, 16394),
    ("P6*P6", 4, 4): (6, 2801),
    ("C7*C7", 4, 4): (6, 14249),
}


def test_gamma_frozen_node_counts():
    # Each search takes under 10 s, P8 x P8 at (2, 1) with its million nodes too.
    for (expr, t, r), (gamma, nodes) in GAMMA_NODE_COUNTS.items():
        start = time.perf_counter()
        result = gamma_exact(parse_graph_expr(expr), Params(t, r))
        assert time.perf_counter() - start < 10, (expr, t, r)
        assert result.status == "exact", (expr, t, r)
        assert (result.gamma, result.nodes) == (gamma, nodes), (expr, t, r)


def gamma_without_memo(*args, **kwargs):
    """gamma_exact with the memo of failed subtrees taking no entries."""
    with mock.patch.object(graph_domination, "_MEMO_CAP", 0):
        return gamma_exact(*args, **kwargs)


# (expr, t, r) -> greedy upper bound of tori whose search outruns a budget
# of TORUS_BUDGET nodes.
TORUS_UPPER_BOUNDS = {("C10*C10", 3, 2): 17, ("C8*C8", 2, 1): 17}
TORUS_BUDGET = 20000


def test_memo_keeps_every_result():
    # The memo only skips subtrees whose node count it already knows, so
    # the status, gamma, witness, bound and node count all stay the same.
    for expr, t, r in GAMMA_NODE_COUNTS:
        g, params = parse_graph_expr(expr), Params(t, r)
        assert gamma_exact(g, params) == gamma_without_memo(g, params), (expr, t, r)
    # Also where the budget runs out, on tori whose states rarely repeat.
    for expr, t, r in TORUS_UPPER_BOUNDS:
        g, params = parse_graph_expr(expr), Params(t, r)
        with_memo = gamma_exact(g, params, node_budget=TORUS_BUDGET)
        without = gamma_without_memo(g, params, node_budget=TORUS_BUDGET)
        assert with_memo == without, (expr, t, r)


def budget_run(g, params, budget):
    """gamma_exact, and whether the budget ran out inside a skipped subtree.

    The search returns node_budget + 1 either way; only its local count,
    read when _min_cover returns, shows the jump that crossed the budget.
    """
    counts = []

    def on_return(frame, event, arg):
        if event == "return":
            counts.append(frame.f_locals["nodes"])
        return on_return

    def on_call(frame, event, arg):
        if frame.f_code is not graph_domination._min_cover.__code__:
            return None
        frame.f_trace_lines = False
        return on_return

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = gamma_exact(g, params, node_budget=budget)
    finally:
        sys.settrace(previous)
    return result, counts[0] > budget + 1


def test_gamma_node_budget_sweep():
    # Every budget below the node count stops the search at budget + 1
    # nodes, also where the budget runs out inside a subtree the memo skips.
    jumps = 0
    for expr, t, r in [("P5*P5", 2, 1), ("C6*C6", 3, 2)]:
        g, params = parse_graph_expr(expr), Params(t, r)
        full = gamma_exact(g, params)
        assert full.nodes == GAMMA_NODE_COUNTS[(expr, t, r)][1]
        for budget in range(full.nodes + 1):
            result, jumped = budget_run(g, params, budget)
            jumps += jumped
            if budget == full.nodes:
                assert result == full and not jumped
                continue
            assert result.status == "cap-exceeded", (expr, budget)
            assert result.gamma is None and result.witness is None
            assert result.nodes == budget + 1, (expr, budget)
            assert result.upper_bound == full.upper_bound, (expr, budget)
    assert jumps


def test_memo_memory_is_capped(monkeypatch):
    # C10 x C10 at (3, 2) rarely meets a state twice, so without the cap
    # the memo grows with the search. A smaller cap makes the bound bite
    # within a budget that tracemalloc can afford.
    g, params = parse_graph_expr("C10*C10"), Params(3, 2)
    gamma_exact(g, params, node_budget=1000)  # fill the free lists first

    def peak(cap):
        monkeypatch.setattr(graph_domination, "_MEMO_CAP", cap)
        tracemalloc.start()
        try:
            result = gamma_exact(g, params, node_budget=5000)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (result.status, result.nodes) == ("cap-exceeded", 5001)
        return top

    assert peak(1 << 8) < 150_000 < peak(1 << 30)


def test_rows_that_reach_no_deficit_are_not_chosen():
    # On C3 x C7 at (2, 1) the column prunes alone would choose two rows
    # that reach no deficient column (1,701 nodes); the search skips them.
    result = gamma_exact(parse_graph_expr("C3*C7"), Params(2, 1))
    assert (result.status, result.gamma, result.nodes) == ("exact", 6, 1699)


def test_gamma_node_budget_edge():
    # One, three, two and three deficit planes: the budget is checked where
    # the search pushes a frame, on every plane count.
    cases = [("P5*P5", 2, 1), ("P6*P6", 3, 3), ("C7*C7", 3, 2), ("C7*C7", 4, 3)]
    for expr, t, r in cases:
        g, params = parse_graph_expr(expr), Params(t, r)
        gamma, nodes = GAMMA_NODE_COUNTS[(expr, t, r)]
        enough = gamma_exact(g, params, node_budget=nodes)
        assert enough == gamma_exact(g, params), (expr, t, r)
        assert (enough.status, enough.gamma, enough.nodes) == ("exact", gamma, nodes)
        short = gamma_exact(g, params, node_budget=nodes - 1)
        assert short.status == "cap-exceeded", (expr, t, r)
        assert short.gamma is None and short.witness is None
        assert short.nodes == nodes
        assert short.upper_bound == enough.upper_bound


def test_gamma_node_budget_edge_on_tori():
    for (expr, t, r), upper in TORUS_UPPER_BOUNDS.items():
        result = gamma_exact(
            parse_graph_expr(expr), Params(t, r), node_budget=TORUS_BUDGET
        )
        assert result.status == "cap-exceeded", (expr, t, r)
        assert (result.nodes, result.upper_bound) == (20001, upper), (expr, t, r)
        assert result.gamma is None and result.witness is None


def test_gamma_deep_search_is_not_recursion_bound():
    # At t = 1 every vertex must broadcast to itself, so the search is one
    # path of 1225 chosen vertices, deeper than the default recursion limit.
    g = parse_graph_expr("P35*P35")
    result = gamma_exact(g, Params(1, 1))
    assert result.status == "exact"
    assert result.gamma == 1225
    assert result.witness == g.labels
    assert result.nodes == 1225


def test_gamma_deep_search_memory_stays_linear():
    # 1225 levels deep over 1225 rows: any table with one entry per level
    # and row would hold 1.5 million entries.
    g = parse_graph_expr("P35*P35")
    tracemalloc.start()
    try:
        result = gamma_exact(g, Params(1, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.gamma, result.nodes) == (1225, 1225)
    assert peak < 10_000_000


@pytest.mark.parametrize("expr, t, r", [("P6*P6", 3, 3), ("P7*P7", 2, 1)])
def test_gamma_size_cap_sweep(expr, t, r):
    g, params = parse_graph_expr(expr), Params(t, r)
    full = gamma_exact(g, params)
    assert full.status == "exact"
    for cap in range(full.gamma + 2):
        result = gamma_exact(g, params, size_cap=cap)
        if cap < full.gamma:
            assert result.status == "cap-exceeded", cap
            assert result.gamma is None and result.witness is None, cap
            assert result.upper_bound == full.upper_bound, cap
        else:
            assert result == full, cap


@st.composite
def graph_exprs(draw, max_vertices=10, max_atoms=None):
    """A product of P/C atoms with at most max_vertices vertices.

    With max_atoms, the product has at most that many atoms.
    """
    factors = []
    size = 1
    while not factors or (
        len(factors) != max_atoms
        and size * 2 <= max_vertices
        and draw(st.booleans())
    ):
        kind = draw(st.sampled_from("PC"))
        low = 1 if kind == "P" else 3
        if low * size > max_vertices:
            kind, low = "P", 1
        k = draw(st.integers(low, max_vertices // size))
        factors.append(f"{kind}{k}")
        size *= k
    expr = factors[0]
    for factor in factors[1:]:
        expr = f"({expr})*{factor}" if draw(st.booleans()) else f"{expr}*{factor}"
    return expr


@PROPERTY
@given(graph_exprs(), st.integers(1, 3), st.data())
def test_gamma_exact_matches_brute_force_on_random_products(expr, t, data):
    r = data.draw(st.integers(1, t))
    g = parse_graph_expr(expr)
    size, witness = brute_gamma(g, t, r)
    result = gamma_exact(g, Params(t, r))
    assert result.status == "exact"
    assert (result.gamma, result.witness) == (size, witness)


@PROPERTY
@given(
    graph_exprs(max_vertices=24),
    st.integers(1, 4),
    st.one_of(st.none(), st.integers(0, 12)),
    st.integers(0, 3000),
    st.data(),
)
def test_memo_keeps_every_result_on_random_products(
    expr, t, size_cap, budget, data
):
    r = data.draw(st.integers(1, t))
    g, params = parse_graph_expr(expr), Params(t, r)
    assert gamma_exact(g, params, size_cap, budget) == gamma_without_memo(
        g, params, size_cap, budget
    )


@PROPERTY
@given(graph_exprs(max_vertices=36, max_atoms=2), st.integers(1, 3), st.data())
def test_dead_ends_in_the_memo_keep_every_result(expr, t, data):
    # Dead ends go in the memo with count 0, so a hit adds 1 + 0 nodes, as
    # the push of a child that pushes nothing would. Every field agrees with
    # the walk without the memo, also when a budget below the full count
    # runs out on such a hit.
    r = data.draw(st.integers(1, t))
    g, params = parse_graph_expr(expr), Params(t, r)
    full = gamma_exact(g, params)
    assert full == gamma_without_memo(g, params)
    budgets = st.integers(0, full.nodes - 1)
    for budget in data.draw(st.lists(budgets, min_size=1, max_size=4)):
        short = gamma_exact(g, params, node_budget=budget)
        assert short == gamma_without_memo(g, params, node_budget=budget)
        assert (short.status, short.nodes) == ("cap-exceeded", budget + 1)


@st.composite
def edge_subset_graphs(draw, max_vertices=9):
    """Labels 0..n-1, n <= max_vertices, with a random subset of the edges."""
    n = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return FiniteGraph(range(n), edges)


@PROPERTY
@given(edge_subset_graphs(), st.integers(1, 3), st.data())
def test_graphs_with_isolated_parts_match_oracles(g, t, data):
    dist = brute_distances(g)
    assert [list(row) for row in g.distances()] == dist
    reachable = {
        frozenset(j for j, d in enumerate(row) if d is not None) for row in dist
    }
    assert g.component_count == len(reachable)
    broadcasts = data.draw(st.lists(st.sampled_from(g.labels), unique=True))
    assert reception_map(g, broadcasts, t) == brute_receptions(g, broadcasts, t)
    r = data.draw(st.integers(1, t))
    size, witness = brute_gamma(g, t, r)
    result = gamma_exact(g, Params(t, r))
    assert result.status == "exact"
    assert (result.gamma, result.witness) == (size, witness)
    assert result.gamma <= result.upper_bound
    assert result.components == len(reachable)


@PROPERTY
@given(edge_subset_graphs(max_vertices=7), st.integers(1, 5), st.data())
def test_gamma_exact_matches_brute_force_up_to_five_planes(g, t, data):
    # A row moves a deficit down c >= 3 bit-planes only when r >= 4, beyond
    # the t <= 3 of the property tests above.
    r = data.draw(st.integers(1, t))
    size, witness = brute_gamma(g, t, r)
    result = gamma_exact(g, Params(t, r))
    assert result.status == "exact"
    assert (result.gamma, result.witness) == (size, witness)
    assert result.gamma <= result.upper_bound


@st.composite
def irregular_rows(draw, max_columns=9, max_r=4):
    """(rows, r) for _min_cover with rows that are no BFS balls.

    Row u gives c in 1..r + 1 to a random subset of the columns, and column
    u the value r, so the rows together always cover every column.
    """
    n = draw(st.integers(1, max_columns))
    r = draw(st.integers(1, max_r))
    rows = []
    for u in range(n):
        given = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, r + 1)))
        given[u] = r
        rows.append(tuple(sorted(given.items())))
    return rows, r


@PROPERTY
@given(irregular_rows())
def test_min_cover_matches_brute_force_on_irregular_rows(case):
    # A column may get several values of c below r from different rows,
    # and a row may reach columns in any pattern, unlike a ball in a grid.
    rows, r = case
    size, chosen, upper, nodes = _min_cover(rows, r, None, DEFAULT_NODE_BUDGET)
    assert (size, chosen) == brute_min_cover(rows, r)
    assert size <= upper
    with mock.patch.object(graph_domination, "_MEMO_CAP", 0):
        assert _min_cover(rows, r, None, DEFAULT_NODE_BUDGET)[3] == nodes
    assert _min_cover(rows, r, None, nodes - 1)[0] is None


ORDER_SEEDS = (0, 1, 2)


def assert_rows_are_order_free(orders, r):
    # orders[0] is the reference. The short budget stops the search one node
    # before its end.
    full = _min_cover(orders[0], r, None, DEFAULT_NODE_BUDGET)
    short = _min_cover(orders[0], r, None, full[3] - 1)
    assert short[0] is None
    for rows in orders[1:]:
        assert _min_cover(rows, r, None, DEFAULT_NODE_BUDGET) == full
        assert _min_cover(rows, r, None, full[3] - 1) == short


def shuffled_rows(rows):
    """rows with the pairs inside each row permuted, once per seed."""
    orders = []
    for seed in ORDER_SEEDS:
        rng = random.Random(seed)
        orders.append([tuple(rng.sample(row, len(row))) for row in rows])
    return orders


@PROPERTY
@given(irregular_rows())
def test_min_cover_reads_irregular_rows_in_any_order(case):
    rows, r = case
    assert_rows_are_order_free([rows] + shuffled_rows(rows), r)


@pytest.mark.parametrize("expr", [
    "P7", "C9", "P3*P4", "C4*C5", "C6*C6", "P2*P3*C4", "C3*C3*C3", "P3*P3*P2",
])
def test_min_cover_reads_bfs_rows_in_any_order(expr):
    # Sorted rows against the BFS order gamma_exact passes and seeded shuffles.
    g = parse_graph_expr(expr)
    for t in range(1, 5):
        bfs = [g._ball(u, t - 1).items() for u in range(g.vertex_count)]
        found = [tuple((v, t - d) for v, d in ball) for ball in bfs]
        ordered = [tuple(sorted(row)) for row in found]
        for r in range(1, t + 1):
            assert_rows_are_order_free([ordered, found] + shuffled_rows(ordered), r)


@PROPERTY
@given(
    st.one_of(
        graph_exprs(max_vertices=30).map(parse_graph_expr), edge_subset_graphs()
    ),
    st.integers(1, 5),
    st.data(),
)
def test_lazy_greedy_picks_what_a_full_rescan_picks(g, t, data):
    r = data.draw(st.integers(1, t))
    rows = [
        [(v, t - d) for v, d in enumerate(dist) if d is not None and d < t]
        for dist in brute_distances(g)
    ]
    assert _greedy_witness(rows, r) == naive_greedy(rows, r)


def test_greedy_bound_takes_each_vertex_once():
    # Taking the centre twice would remove the most deficit at every step,
    # but a broadcast set holds each vertex once, so the bound is 4 > gamma.
    star = FiniteGraph((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3)))
    result = gamma_exact(star, Params(2, 2))
    assert (result.status, result.gamma, result.witness) == ("exact", 3, (1, 2, 3))
    assert result.upper_bound == 4


def test_gamma_of_the_empty_graph_is_zero():
    # No vertex needs reception, so the empty set dominates.
    empty, params = FiniteGraph((), ()), Params(2, 1)
    result = gamma_exact(empty, params)
    assert (result.status, result.gamma, result.witness) == ("exact", 0, ())
    assert (result.upper_bound, result.nodes) == (0, 0)
    assert is_dominating_set(empty, (), params)


@PROPERTY
@given(st.integers(3, 7), st.integers(3, 7), st.integers(1, 4), st.data())
def test_torus_translation_shifts_the_reception_map(a, b, t, data):
    # Rotating both cycles maps C_a*C_b onto itself, so moving every
    # broadcast by (p, q) moves the whole reception map by (p, q).
    torus = parse_graph_expr(f"C{a}*C{b}")
    broadcasts = data.draw(
        st.lists(st.sampled_from(torus.labels), max_size=4, unique=True),
        label="broadcasts",
    )
    p = data.draw(st.integers(0, a - 1), label="p")
    q = data.draw(st.integers(0, b - 1), label="q")

    def move(v):
        return (v[0] + p) % a, (v[1] + q) % b

    before = reception_map(torus, broadcasts, t)
    after = reception_map(torus, [move(v) for v in broadcasts], t)
    assert after == {move(v): value for v, value in before.items()}


def test_solvers_do_not_read_the_distance_table(monkeypatch):
    def refuse(self):
        raise AssertionError("the all-pairs distance table was requested")

    monkeypatch.setattr(FiniteGraph, "distances", refuse)
    grid = parse_graph_expr("P5*P5")
    assert reception_map(grid, DIAMOND_BROADCASTS, 3) == DIAMOND_RECEPTIONS
    result = gamma_exact(grid, Params(3, 2))
    assert (result.gamma, result.nodes, result.components) == (4, 84, 1)
    assert result.witness == ((1, 3), (3, 1), (3, 5), (5, 3))
    cycle = verify_cycle_lemma(Params(4, 2))
    assert (cycle.n, cycle.gamma, cycle.witness) == (6, 2, (0, 1))
    assert cycle.canonical_receptions == (5,) * 6 and cycle.status == "passed"
    torus = verify_torus_counterexample(Params(3, 2))
    assert (torus.gamma_torus, torus.gamma_cycle, torus.min_reception) == (2, 2, 2)
    assert torus.passed


def test_gamma_diamond_witness_is_minimum():
    result = gamma_exact(parse_graph_expr("P5*P5"), Params(3, 2))
    assert result.gamma == 4
    assert result.witness == ((1, 3), (3, 1), (3, 5), (5, 3))


def test_gamma_additive_over_components():
    labels = ("a1", "a2", "a3", "b1", "b2", "b3")
    edges = (("a1", "a2"), ("a2", "a3"), ("b1", "b2"), ("b2", "b3"))
    g = FiniteGraph(labels, edges)
    result = gamma_exact(g, Params(2, 1))
    assert result.components == 2
    assert result.gamma == 2
    assert result.witness == ("a2", "b2")


def test_gamma_monotone_in_t_and_r():
    for expr, t, r in MONOTONE_INSTANCES:
        g = parse_graph_expr(expr)
        base = gamma_exact(g, Params(t, r)).gamma
        assert gamma_exact(g, Params(t + 1, r)).gamma <= base, (expr, t, r)
        assert gamma_exact(g, Params(t + 1, r + 1)).gamma >= gamma_exact(
            g, Params(t + 1, r)
        ).gamma, (expr, t, r)


def test_gamma_caps():
    g = parse_graph_expr("P5*P5")
    capped = gamma_exact(g, Params(2, 1), node_budget=3)
    assert capped.status == "cap-exceeded"
    assert capped.gamma is None and capped.witness is None
    assert capped.upper_bound >= 7
    small = gamma_exact(g, Params(2, 1), size_cap=2)
    assert small.status == "cap-exceeded"
    assert small.upper_bound >= 7


def test_gamma_rejects_negative_budgets():
    g, params = parse_graph_expr("P3"), Params(2, 1)
    with pytest.raises(ValueError, match="node_budget must be nonnegative"):
        gamma_exact(g, params, node_budget=-1)
    with pytest.raises(ValueError, match="size_cap must be nonnegative"):
        gamma_exact(g, params, size_cap=-1)
    # A budget of 0 is a search that stops at once, not an error.
    assert gamma_exact(g, params, node_budget=0, size_cap=0).status == "cap-exceeded"


def test_verify_cycle_lemma_frozen():
    expected = {
        (3, 2): (4, (4, 4, 4, 4)),
        (4, 3): (4, (6, 6, 6, 6)),
        (4, 2): (6, (5, 5, 5, 5, 5, 5)),
        (5, 3): (6, (7, 7, 7, 7, 7, 7)),
    }
    for (t, r), (n, receptions) in expected.items():
        report = verify_cycle_lemma(Params(t, r))
        assert report.status == "passed"
        assert report.n == n
        assert report.gamma == 2
        assert report.canonical_witness == (0, n // 2)
        assert report.canonical_receptions == receptions


def test_verify_cycle_lemma_not_applicable():
    for t in (1, 2, 5):
        report = verify_cycle_lemma(Params(t, t))
        assert report.status == "not-applicable"
        assert report.gamma is None


def test_verify_cycle_lemma_over_a_range():
    # Lemma 2 for every 1 <= r <= t <= 8: cycles of at most 16 vertices.
    for t in range(1, 9):
        for r in range(1, t + 1):
            expected = "not-applicable" if t == r else "passed"
            assert verify_cycle_lemma(Params(t, r)).status == expected, (t, r)


def test_verify_torus_frozen():
    expected = {
        (3, 2): (4, 2),
        (4, 3): (4, 4),
        (4, 2): (6, 2),
        (5, 3): (6, 4),
    }
    for (t, r), (n, min_rec) in expected.items():
        report = verify_torus_counterexample(Params(t, r))
        assert report.n == n
        assert report.gamma_torus == 2
        assert report.gamma_cycle == 2
        assert report.squared_bound == 4
        assert report.violates_product_bound
        assert report.canonical_witness == ((0, 0), (n // 2, n // 2))
        assert report.canonical_dominates
        assert report.min_reception == min_rec == 2 * r - 2
        assert report.expected_min_reception == min_rec
        assert report.passed


def test_verify_torus_requires_surplus_and_reuse():
    with pytest.raises(ValueError):
        verify_torus_counterexample(Params(3, 1))
    with pytest.raises(ValueError):
        verify_torus_counterexample(Params(2, 2))


def test_vizing_scan_small_pairs():
    reports = vizing_scan([("P2", "P2"), ("P3", "C4")], Params(1, 1))
    assert [r.status for r in reports] == ["exact", "exact"]
    first = reports[0]
    assert (first.gamma_g, first.gamma_h, first.gamma_product) == (2, 2, 4)
    assert first.halved_product_holds_gh
    assert first.halved_product_holds_hg
    assert first.distance_product_holds
    second = reports[1]
    assert (second.gamma_g, second.gamma_h, second.gamma_product) == (3, 4, 12)
    assert second.gamma_product_t1 == 12


@pytest.mark.parametrize("r, calls", [(1, 3), (2, 6)])
def test_vizing_scan_runs_each_search_once(monkeypatch, r, calls):
    # At r = 1 the (t, r) and (t, 1) searches are the same search.
    seen = []

    def counting(graph, params, **kwargs):
        seen.append(params)
        return gamma_exact(graph, params, **kwargs)

    pairs = [("P3", "C4"), ("P2*P2", "P3")]
    expected = vizing_scan(pairs, Params(3, r))
    monkeypatch.setattr(graph_domination, "gamma_exact", counting)
    assert vizing_scan(pairs, Params(3, r)) == expected
    assert len(seen) == calls * len(pairs)


def test_vizing_scan_cap_exceeded():
    reports = vizing_scan([("P5", "P5")], Params(2, 1), node_budget=2)
    assert reports[0].status == "cap-exceeded"
    assert reports[0].halved_product_holds_gh is None
    assert reports[0].distance_product_holds is None
