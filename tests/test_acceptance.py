"""Acceptance gate: ten criteria, one reported line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line. Each
test prints ``criterion N (label): PASS`` or ``FAIL`` before asserting,
so the report is complete even when a criterion fails.

Criterion 6 pins coverage(2, (4,3)) to 43: by the paper's definition a
broadcast delivers min(t - d, r) to each of the |S_2(d)| = 1, 4, 8, 12
vertices at distance d = 0..3, so 3*1 + 3*4 + 2*8 + 1*12 = 43. The spec's
stated 40 leaves out the broadcast's own vertex; that reading conflicts
with the criterion's pinned coverage(2, (4,2)) = 38 (it would give 36) and
with its closed-form clause, whose n = 2 polynomial also gives 43.
"""

import time

import pytest

from broadcastdom import (
    GridDims,
    Params,
    ball_bijection,
    ball_size,
    coverage,
    coverage_closed_form,
    delannoy,
    domination_lower_bound,
    gamma_exact,
    genfunc_coefficients,
    is_dominating_set,
    is_dominating_tower,
    min_density_search,
    parse_graph_expr,
    reception_map,
    shell_size,
    tower_reception,
    verify_cycle_lemma,
    verify_torus_counterexample,
    TowerPattern,
)
from broadcastdom.cli import main

from _cases import (
    CORNER_BROADCASTS,
    CORNER_RECEPTIONS,
    DIAMOND_BROADCASTS,
    DIAMOND_RECEPTIONS,
    MIN_TOWER_PERIODS,
    MONOTONE_INSTANCES,
    SHELL_POLYNOMIALS,
    TOWER_CASES,
    brute_ball,
    brute_shell,
    window_coverage,
    window_tower_receptions,
)
from test_cli import TOWER_TABLE_4_2_18_5


def _report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}", flush=True)


def test_criterion_01_minimum_tower_table():
    start = time.monotonic()
    got = {
        (t, r): min_density_search(Params(t, r)).d
        for t in range(1, 10)
        for r in range(1, t + 1)
    }
    elapsed = time.monotonic() - start
    ok = got == MIN_TOWER_PERIODS and elapsed <= 60.0
    _report(1, "45 minimum tower periods in 60s", ok)
    assert got == MIN_TOWER_PERIODS
    assert elapsed <= 60.0, f"search took {elapsed:.1f}s"


def test_criterion_02_tower_reception_table(capsys):
    code = main(["tower-table", "4", "2", "18", "5"])
    out = capsys.readouterr().out
    ok = code == 0 and out == TOWER_TABLE_4_2_18_5
    _report(2, "T(18,5) reception table", ok)
    assert code == 0
    assert out == TOWER_TABLE_4_2_18_5


def test_criterion_03_shell_ball_counts():
    enum_ok = all(
        shell_size(n, d) == len(brute_shell(n, d))
        and ball_size(n, d) == len(brute_ball(n, d))
        for n in range(0, 5)
        for d in range(0, 7)
    )
    delannoy_ok = all(
        ball_size(n, d) == delannoy(n, d) == ball_size(d, n)
        for n in range(0, 11)
        for d in range(0, 11)
    )
    ok = enum_ok and delannoy_ok
    _report(3, "shell and ball counts", ok)
    assert enum_ok
    assert delannoy_ok


def test_criterion_04_generating_functions():
    bad = []
    balls = genfunc_coefficients("B_bivariate", 10)
    shells = genfunc_coefficients("S_bivariate", 10)
    for i in range(11):
        for j in range(11):
            if balls[i][j] != ball_size(i, j):
                bad.append(("B_bivariate", i, j))
            if shells[i][j] != shell_size(i, j):
                bad.append(("S_bivariate", i, j))
    for fixed in range(0, 5):
        if genfunc_coefficients("B_fixed_d", 10, fixed=fixed) != [
            ball_size(i, fixed) for i in range(11)
        ]:
            bad.append(("B_fixed_d", fixed))
        if genfunc_coefficients("B_fixed_n", 10, fixed=fixed) != [
            ball_size(fixed, j) for j in range(11)
        ]:
            bad.append(("B_fixed_n", fixed))
        if genfunc_coefficients("S_fixed_d", 10, fixed=fixed) != [
            shell_size(i, fixed) for i in range(11)
        ]:
            bad.append(("S_fixed_d", fixed))
        if genfunc_coefficients("S_fixed_n", 10, fixed=fixed) != [
            shell_size(fixed, j) for j in range(11)
        ]:
            bad.append(("S_fixed_n", fixed))
    poly_ok = all(
        SHELL_POLYNOMIALS[n](d) == shell_size(n, d)
        for n in range(1, 8)
        for d in range(1, 9)
    )
    ok = not bad and poly_ok
    _report(4, "generating function extractors", ok)
    assert not bad, bad
    assert poly_ok


def test_criterion_05_norm_bijection():
    examples_ok = (
        ball_bijection((2, 0, -1, 0), 4, 3) == (0, 1, -2)
        and ball_bijection((-1, 0, 1, -1), 4, 3) == (-1, 2, -1)
        and ball_bijection((0, 0, 0, 0), 4, 3) == (0, 0, 0)
    )
    exhaustive_ok = True
    for n in range(1, 6):
        for d in range(0, 6):
            images = {ball_bijection(p, n, d) for p in brute_ball(n, d)}
            if images != set(brute_ball(d, n)):
                exhaustive_ok = False
    ok = examples_ok and exhaustive_ok
    _report(5, "ball-to-ball bijection", ok)
    assert examples_ok
    assert exhaustive_ok


def test_criterion_06_coverage_values():
    # Independent of the library: the shells |S_2(d)| for d = 0..3, the
    # shell sum min(t - d, r) * |S_2(d)| written out, and the point-by-point
    # window oracle all agree on 43.
    shells = [len(brute_shell(2, d)) for d in range(4)]
    shell_sum = 3 * 1 + 3 * 4 + 2 * 8 + 1 * 12
    oracle_ok = (
        shells == [1, 4, 8, 12]
        and shell_sum == 43
        and window_coverage(2, 4, 3) == shell_sum
        and window_coverage(2, 4, 2) == 38
    )
    got_43 = coverage(2, Params(4, 3))
    value_ok = got_43 == shell_sum and coverage(2, Params(4, 2)) == 38
    closed_ok = all(
        coverage_closed_form(n, Params(t, r)) == coverage(n, Params(t, r))
        for n in range(1, 5)
        for t in range(1, 13)
        for r in range(1, t + 1)
    )
    ok = oracle_ok and value_ok and closed_ok
    _report(6, "coverage reference values", ok)
    assert oracle_ok
    assert closed_ok
    assert coverage(2, Params(4, 2)) == 38
    assert got_43 == 43, (
        f"coverage(2, (4,3)) = {got_43}, expected 43: the unwasted reception "
        "3*1 + 3*4 + 2*8 + 1*12 counts the center; the spec's stated 40 "
        "leaves it out and conflicts with the 38 and closed-form clauses"
    )


def test_criterion_07_counterexample_family():
    ok = True
    for t, r in [(3, 2), (4, 3), (4, 2), (5, 3)]:
        start = time.monotonic()
        cycle_report = verify_cycle_lemma(Params(t, r))
        torus_report = verify_torus_counterexample(Params(t, r))
        elapsed = time.monotonic() - start
        if cycle_report.status != "passed":
            ok = False
        if not torus_report.passed:
            ok = False
        if not (
            torus_report.gamma_torus == 2
            and torus_report.violates_product_bound
        ):
            ok = False
        if elapsed > 5.0:
            ok = False
    _report(7, "cycle and torus counterexamples", ok)
    assert ok


def test_criterion_08_grid_reception_fixtures():
    grid = parse_graph_expr("P5*P5")
    params = Params(3, 2)
    dominating_ok = is_dominating_set(grid, DIAMOND_BROADCASTS, params)
    failing_ok = not is_dominating_set(grid, CORNER_BROADCASTS, params)
    diamond = reception_map(grid, DIAMOND_BROADCASTS, 3)
    corner = reception_map(grid, CORNER_BROADCASTS, 3)
    maps_ok = diamond == DIAMOND_RECEPTIONS and corner == CORNER_RECEPTIONS
    spot_ok = diamond[(3, 3)] == 4 and corner[(2, 2)] == 1
    ok = dominating_ok and failing_ok and maps_ok and spot_ok
    _report(8, "grid reception fixtures", ok)
    assert dominating_ok
    assert failing_ok
    assert maps_ok
    assert spot_ok


def test_criterion_09_property_suite():
    start = time.monotonic()
    recursion_ok = all(
        ball_size(n, d)
        == ball_size(n - 1, d) + ball_size(n, d - 1) + ball_size(n - 1, d - 1)
        for n in range(1, 9)
        for d in range(1, 9)
    )
    monotone_ok = True
    for expr, t, r in MONOTONE_INSTANCES:
        g = parse_graph_expr(expr)
        base = gamma_exact(g, Params(t, r)).gamma
        wider = gamma_exact(g, Params(t + 1, r)).gamma
        stricter = gamma_exact(g, Params(t + 1, r + 1)).gamma
        if wider > base or stricter < wider:
            monotone_ok = False
    oracle_ok = True
    for t, r, d, e in TOWER_CASES:
        params = Params(t, r)
        pattern = TowerPattern(d, e)
        expected = window_tower_receptions(t, r, d, e)
        got = [tower_reception(params, pattern, i) for i in range(d)]
        if got != expected:
            oracle_ok = False
        if is_dominating_tower(params, pattern) != all(
            v >= r for v in expected
        ):
            oracle_ok = False
    elapsed = time.monotonic() - start
    ok = recursion_ok and monotone_ok and oracle_ok and elapsed <= 120.0
    _report(9, "recursion, monotonicity, oracle equivalence", ok)
    assert recursion_ok
    assert monotone_ok
    assert oracle_ok
    assert elapsed <= 120.0, f"suite took {elapsed:.1f}s"


def test_criterion_10_lower_bound_consistency():
    bad = []
    for t, r in [(2, 1), (3, 1), (3, 2)]:
        params = Params(t, r)
        for a in range(1, 6):
            for b in range(1, 6):
                bound = domination_lower_bound(GridDims((a, b)), params)
                result = gamma_exact(parse_graph_expr(f"P{a}*P{b}"), params)
                if result.status != "exact" or bound > result.gamma:
                    bad.append((a, b, t, r, bound, result.gamma))
    ok = not bad
    _report(10, "coverage bound below exact gamma", ok)
    assert not bad, bad
