"""End-to-end checks of the command-line interface.

Commands run in-process through main(argv) so exit codes and both output
streams are observable; subprocess tests confirm the module entry point
works outside the test harness, that a reader closing the pipe early gets
exit 2, and that importing the CLI leaves the standard-library modules it
does not need unloaded.
"""

import csv
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
import tracemalloc
from datetime import datetime
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import broadcastdom.graph_domination as graph_domination
from broadcastdom import (
    CycleLemmaReport,
    GammaResult,
    Params,
    TorusReport,
    VizingPairReport,
    ball_size,
    cli,
    gamma_exact,
    parse_graph_expr,
    reception_map,
    shell_size,
)
from broadcastdom.cli import main

from _cases import digits_value

FIXTURE_DIR = Path(__file__).parent / "data"
SRC_DIR = Path(__file__).parent.parent / "src"

TOWER_TABLE_4_2_18_5 = """\
    |  0  1  2  3  4  5  6  7  8  9 10 11 12 13 14 15 16 17
  3 |  0  0  0  0  0  0  0  0  0  0  0  0  0  0  0  1  0  0
  2 |  0  0  0  0  0  0  0  0  0  1  2  1  0  0  0  0  0  0
  1 |  0  0  0  1  2  3  2  1  0  0  0  0  0  0  0  0  0  0
  0 |  4  3  2  1  0  0  0  0  0  0  0  0  0  0  0  1  2  3
 -1 |  0  0  0  0  0  0  0  0  0  0  0  1  2  3  2  1  0  0
 -2 |  0  0  0  0  0  0  0  1  2  1  0  0  0  0  0  0  0  0
 -3 |  0  0  0  1  0  0  0  0  0  0  0  0  0  0  0  0  0  0
Sum |  4  3  2  3  2  3  2  2  2  2  2  2  2  3  2  3  2  3
"""

GAMMA_GRID_5X5 = """\
gamma(P5*P5, t=3, r=2) = 4
witness: (1, 3) (3, 1) (3, 5) (5, 3)
 2  2 3*  2  2
 2  2  2  2  2
3*  2  4  2 3*
 2  2  2  2  2
 2  2 3*  2  2
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_within(seconds, capsys, *argv):
    # run, and fail if main took `seconds` or more.
    start = time.perf_counter()
    result = run(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, (argv, elapsed)
    return result


def test_shell_text(capsys):
    code, out, _ = run(capsys, "shell", "2", "3")
    assert code == 0
    assert out == "12\n"


def test_counts_are_decimal_strings(capsys):
    code, out, _ = run(capsys, "ball", "30", "30", "--format", "json",
                       "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "ball"
    assert isinstance(doc["size"], str)
    assert doc["size"] == str(int(doc["size"]))


def test_counts_beyond_the_digit_limit(capsys):
    # B_6000(6000) has 4,592 digits and S_6000(6000) 4,591, above CPython's
    # default limit of 4,300 for converting an int to a string.
    # A shell is the difference of two balls, so it prints within 10 s.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    for command, size, digits, seconds in (
        ("ball", ball_size(6000, 6000), 4592, 60),
        ("shell", shell_size(6000, 6000), 4591, 10),
    ):
        code, out, err = run_within(seconds, capsys, command, "6000", "6000")
        assert (code, err) == (0, "")
        assert len(out) == digits + 1 and digits_value(out.strip()) == size
        code, out, err = run(capsys, command, "6000", "6000", "--format", "json",
                             "--no-timestamp")
        assert (code, err) == (0, "")
        assert digits_value(json.loads(out)["size"]) == size
    # main gives the limit back to the process that called it.
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="the interpreter has no digit limit for int conversion",
)
def test_positional_ints_keep_the_digit_limit(capsys):
    code, out, err = run(capsys, "ball", "3", "9" * 4301)
    assert code == 2 and out == ""
    assert "invalid int value" in err


def test_tower_check_memory_does_not_grow_with_rows(capsys):
    # The d totals come from the coset histogram, without the 2t - 1 rows of
    # d entries that tower-table prints.
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "tower-check", "30", "10", "200000", "5",
                           "--format", "csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == "t,r,d,e,dominating,min_reception\n30,10,200000,5,False,0\n"
    assert peak < 64_000_000


def test_json_timestamp_toggle(capsys):
    code, out, _ = run(capsys, "shell", "2", "3", "--format", "json")
    assert code == 0
    stamp = json.loads(out)["generated_at"]
    datetime.fromisoformat(stamp)
    assert stamp.endswith("+00:00")
    code, out2, _ = run(capsys, "shell", "2", "3", "--format", "json",
                        "--no-timestamp")
    assert code == 0
    assert "generated_at" not in json.loads(out2)


def test_json_deterministic_when_untimed(capsys):
    args = ("table3", "--tmax", "3", "--format", "json", "--no-timestamp")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second
    assert first[0] == 0


def test_shell_enumerate(capsys):
    code, out, _ = run(capsys, "shell", "1", "2", "--enumerate")
    assert code == 0
    assert out == "(-2)\n(2)\n"
    code, _, err = run(capsys, "shell", "3", "3", "--enumerate", "--cap", "10")
    assert code == 2
    assert err.startswith("error:")


def test_genfunc_text_and_errors(capsys):
    code, out, _ = run(capsys, "genfunc", "B_fixed_n", "--fixed", "2",
                       "--max", "4")
    assert code == 0
    assert out == "1 5 13 25 41\n"
    code, _, err = run(capsys, "genfunc", "B_fixed_n", "--max", "4")
    assert code == 2
    assert "fixed" in err
    code, _, _ = run(capsys, "genfunc", "nope", "--max", "4")
    assert code == 2


def test_bijection_text(capsys):
    code, out, _ = run(capsys, "bijection", "--point", "2,0,-1,0",
                       "--n", "4", "--d", "3")
    assert code == 0
    assert out == "(2, 0, -1, 0) -> (0, 1, -2)\n"


def test_coverage_and_bounds(capsys):
    assert run(capsys, "coverage", "2", "4", "3")[1] == "43\n"
    assert run(capsys, "coverage", "2", "4", "2", "--closed-form")[1] == "38\n"
    assert run(capsys, "max-d", "2", "4", "2")[1] == "19\n"
    assert run(capsys, "lower-bound", "--dims", "18,18", "4", "2")[1] == "18\n"
    code, _, err = run(capsys, "coverage", "2", "2", "4")
    assert code == 2 and err.startswith("error:")
    assert run(capsys, "coverage", "6", "5", "3")[1] == "1751\n"
    assert run(capsys, "coverage", "6", "5", "3", "--closed-form")[1] == "1751\n"
    code, out, _ = run(capsys, "coverage", "6", "5", "3", "--closed-form",
                       "--format", "json", "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert report["coverage"] == "1751" and report["method"] == "closed-form"


def test_tower_check_exit_codes(capsys):
    code, out, _ = run(capsys, "tower-check", "4", "2", "18", "5")
    assert code == 0
    assert "dominates" in out
    code, out, _ = run(capsys, "tower-check", "2", "1", "6", "2")
    assert code == 1
    assert "does not dominate" in out


def test_tower_commands_respect_index_cap(capsys):
    for command in ("tower-check", "tower-table"):
        code, out, err = run(capsys, command, "4", "2", "1000001", "5")
        assert code == 2 and out == ""
        assert err == "error: pattern has 1000001 cosets, above the cap of 1000000\n"


def test_tower_table_layout(capsys):
    code, out, _ = run(capsys, "tower-table", "4", "2", "18", "5")
    assert code == 0
    assert out == TOWER_TABLE_4_2_18_5


def test_tower_search_csv(capsys):
    code, out, _ = run(capsys, "tower-search", "4", "2", "--format", "csv")
    assert code == 0
    assert out == "t,r,d,e,max_potential_d\n4,2,18,5,19\n"


def test_table3_matches_fixture(capsys):
    code, out, err = run(capsys, "table3", "--tmax", "9")
    assert code == 0
    assert out == (FIXTURE_DIR / "table3.txt").read_text()
    assert "t=9 r=9" in err  # progress goes to stderr only


def test_table3_parallel_equals_sequential(capsys):
    seq = run(capsys, "table3", "--tmax", "4", "--threads", "1")
    par = run(capsys, "table3", "--tmax", "4", "--threads", "2")
    assert seq[0] == par[0] == 0
    assert seq[1] == par[1]
    assert seq[2] == par[2]  # progress lines arrive in cell order either way
    per_cpu = run(capsys, "table3", "--tmax", "4", "--threads", "0")
    assert per_cpu == seq


def test_table3_pool_is_no_larger_than_the_table(capsys, monkeypatch):
    # A recording stand-in for the pool maps in this process: no worker starts.
    import multiprocessing

    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        imap = staticmethod(map)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    pooled = run(capsys, "table3", "--tmax", "2", "--threads", "1000")
    assert sizes == [3]
    assert pooled == run(capsys, "table3", "--tmax", "2", "--threads", "1")


@pytest.mark.parametrize("tmax, message", [
    ("172", "row profiles have 10117900 slots, above the cap of 10000000"),
    ("708", "pattern has 1001113 cosets, above the cap of 1000000"),
])
def test_table3_sizes_its_largest_cell_before_any_search(
    capsys, monkeypatch, tmax, message
):
    # Cell (tmax, 1) is refused before the first cell is searched, so no
    # progress line is printed, and before a worker pool could start.
    import multiprocessing

    pools = []
    monkeypatch.setattr(multiprocessing, "Pool", pools.append)
    for threads in ("1", "2"):
        result = run_within(5, capsys, "table3", "--tmax", tmax, "--threads", threads)
        assert result == (2, "", f"error: {message}\n")
    assert pools == []


def test_table3_csv_rows(capsys):
    code, out, _ = run(capsys, "table3", "--tmax", "2", "--format", "csv")
    assert code == 0
    assert out == "t,r,d,e\n1,1,1,0\n2,1,5,2\n2,2,3,1\n"


def test_lattice_check(capsys):
    code, out, _ = run(capsys, "lattice-check", "4", "2",
                       "--basis", "18,0;5,1")
    assert code == 0
    assert out.splitlines()[0].startswith("T(18,5) (index 18) dominates")
    code, _, _ = run(capsys, "lattice-check", "2", "1", "--basis", "6,0;2,1")
    assert code == 1
    code, _, err = run(capsys, "lattice-check", "2", "1", "--basis", "2,4;1,2")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "lattice-check", "4", "2",
                       "--basis", "18,0;5,1", "--index-cap", "17")
    assert code == 2


def test_lattice_search3d(capsys):
    code, out, _ = run(capsys, "lattice-search3d", "2", "1", "--cap", "10",
                       "--format", "json", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == [[7, 0, 0], [2, 1, 0], [3, 0, 1]]
    assert doc["d"] == 7 and doc["e1"] == 2 and doc["e2"] == 3


def test_gamma_grid_text(capsys):
    code, out, _ = run(capsys, "gamma", "P5*P5", "3", "2")
    assert code == 0
    assert out == GAMMA_GRID_5X5
    # Any two factors print a grid, rebuilt here from the sorted x and y labels.
    for expr in ["P1*P1", "C3*P2", "P2*(P3)", "((P2))*P3"]:
        code, out, _ = run(capsys, "gamma", expr, "2", "1")
        assert code == 0, expr
        graph = parse_graph_expr(expr)
        witness = gamma_exact(graph, Params(2, 1)).witness
        receptions = reception_map(graph, witness, 2)
        xs = sorted({x for x, _ in graph.labels})
        ys = sorted({y for _, y in graph.labels})
        cells = {
            (x, y): str(receptions[(x, y)]) + ("*" if (x, y) in witness else "")
            for x in xs for y in ys
        }
        width = max(map(len, cells.values()))
        grid = [" ".join(cells[(x, y)].rjust(width) for y in ys) for x in xs]
        assert out.splitlines()[2:] == grid, expr
        assert len(cells) == graph.vertex_count, expr
    # One factor or three print only the two header lines.
    for expr in ["C6", "P2*P2*P2", "(P2*P3)*C4"]:
        code, out, _ = run(capsys, "gamma", expr, "2", "1")
        assert code == 0, expr
        header, witness_line = out.splitlines()
        assert header.startswith(f"gamma({expr}, t=2, r=1) = "), expr
        assert witness_line.startswith("witness: "), expr


def test_out_of_memory_exits_2(capsys, monkeypatch):
    # str(MemoryError()) is empty, so the message names the error itself.
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "gamma_exact", exhausted)
    assert run(capsys, "gamma", "P5", "1", "1") == (2, "", "error: out of memory\n")


def test_gamma_json_and_cap(capsys):
    code, out, _ = run(capsys, "gamma", "C6", "2", "2", "--format", "json",
                       "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "exact"
    assert doc["gamma"] == 3
    code, _, _ = run(capsys, "gamma", "P5*P5", "2", "1", "--node-budget", "3")
    assert code == 2


def test_gamma_deep_search_exits_zero(capsys):
    code, out, _ = run(capsys, "gamma", "P35*P35", "1", "1", "--format",
                       "json", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "exact"
    assert doc["gamma"] == 1225


def test_inputs_beyond_the_recursion_limit(capsys):
    # Each of these took one Python frame per dimension or parenthesis.
    assert sys.getrecursionlimit() <= 1000
    code, out, _ = run_within(60, capsys, "shell", "1200", "1", "--enumerate",
                              "--format", "csv")
    assert (code, len(out.splitlines())) == (0, 2401)
    deep = "(" * 1000 + "P2" + ")" * 1000
    code, out, _ = run_within(60, capsys, "gamma", deep, "1", "1", "--format",
                              "json", "--no-timestamp")
    assert (code, json.loads(out)["gamma"]) == (0, 2)
    n = 1100
    basis = ";".join(",".join(str(int(i == j)) for i in range(n)) for j in range(n))
    code, out, _ = run(capsys, "lattice-check", "1", "1", "--basis", basis)
    lines = out.splitlines()
    assert (code, len(lines)) == (0, 2)
    assert lines[0].endswith(" (index 1) dominates under (1,1)")
    assert lines[1] == "(" + ", ".join(["0"] * n) + "): 1"


def test_gamma_parse_error(capsys):
    code, _, err = run(capsys, "gamma", "P5*Q5", "2", "1")
    assert code == 2
    assert "offset" in err
    # A superscript two passes str.isdigit but not int(): a parse error,
    # not int()'s own message. Arabic-Indic three is P3.
    assert run(capsys, "gamma", "P\u00b2", "1", "1") == (
        2, "", "error: expected a number at offset 1\n"
    )
    _, plain, _ = run(capsys, "gamma", "P3", "1", "1")
    assert run(capsys, "gamma", "P\u0663", "1", "1") == (
        0, plain.replace("P3", "P\u0663"), ""
    )


@pytest.mark.parametrize("expr, offset", [
    ("P99999999999", 0),
    ("P100000*P100000", 8),
    ("P1000*(P1000*P2)", 13),
    ("(P1000*P1000)*P2", 14),
])
def test_gamma_refuses_huge_graphs_before_building_them(capsys, expr, offset):
    # The search's memory grows with the square of the vertex count, so
    # expressions above 10^6 vertices are refused while parsing; one P100000
    # alone would take about 40 MB.
    tracemalloc.start()
    try:
        code, out, err = run_within(1, capsys, "gamma", expr, "1", "1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == f"error: graph has more than 1000000 vertices at offset {offset}\n"
    assert peak < 4_000_000


def test_verify_lemma2(capsys):
    code, out, _ = run(capsys, "verify-lemma2", "3", "2")
    assert code == 0
    assert "passed" in out
    code, out, _ = run(capsys, "verify-lemma2", "2", "2")
    assert code == 0
    assert "not applicable" in out


# No (t, r) fails the lemma, so tests inject this failed report.
FAILED_LEMMA = CycleLemmaReport(
    t=3, r=2, n=4, status="failed", gamma=3, witness=(0, 1, 2),
    canonical_witness=(0, 2), canonical_receptions=(3, 1, 3, 1), note="",
)


def test_verify_lemma2_failed_report(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_cycle_lemma", lambda params: FAILED_LEMMA)
    argv = ("verify-lemma2", "3", "2")
    assert run(capsys, *argv) == (1, "C_4 under (3,2): failed\n", "")
    code, out, _ = run(capsys, *argv, "--format", "json", "--no-timestamp")
    doc = json.loads(out)
    assert (code, doc["status"], doc["gamma"]) == (1, "failed", 3)
    assert "applicable" not in doc and "passed" not in doc
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert (code, out) == (1, "t,r,n,status,gamma\n3,2,4,failed,3\n")


@pytest.mark.parametrize("argv, where", [
    (("vizing-scan", "2", "1", "--pairs", "{pairs}"), "{pairs}:1: "),
    (("verify-torus", "1000", "2"), ""),
    (("verify-lemma2", "3000000", "1"), ""),
], ids=["vizing-scan", "verify-torus", "verify-lemma2"])
def test_built_graphs_above_the_bound_exit_2(tmp_path, capsys, argv, where):
    # P1000 x P1001 has 1,001,000 vertices, C1998 x C1998 3,992,004 and the
    # cycle C_6000000 six million: each is refused before it is allocated.
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("P1000,P1001\n")
    result = run_within(1, capsys, *(arg.format(pairs=pairs) for arg in argv))
    message = where.format(pairs=pairs) + "graph has more than 1000000 vertices"
    assert result == (2, "", f"error: {message}\n")


def test_verify_torus(capsys):
    code, out, _ = run(capsys, "verify-torus", "3", "2")
    assert code == 0
    assert "passed" in out
    code, _, err = run(capsys, "verify-torus", "3", "1")
    assert code == 2
    assert err.startswith("error:")


TORUS_PASSED = (
    "C4xC4 under (3,2): gamma = 2 < 4 = gamma(C4)^2; "
    "min reception 2 (expected 2): passed\n"
)


@pytest.mark.parametrize("budget, code, text, gammas, row", [
    # Both searches run out of budget.
    ("0", 2, "C4xC4 under (3,2): cap exceeded\n", (None, None), "3,2,4,,,2,False"),
    # The torus search finds gamma = 2; the C4 search runs out.
    ("2", 2, "C4xC4 under (3,2): cap exceeded\n", (2, None), "3,2,4,2,,2,False"),
    ("3", 0, TORUS_PASSED, (2, 2), "3,2,4,2,2,2,True"),
], ids=["both-capped", "cycle-capped", "uncapped"])
def test_verify_torus_node_budget(capsys, budget, code, text, gammas, row):
    argv = ("verify-torus", "3", "2", "--node-budget", budget)
    assert run_within(30, capsys, *argv) == (code, text, "")
    status, out, _ = run(capsys, *argv, "--format", "json", "--no-timestamp")
    doc = json.loads(out)
    assert status == code
    assert (doc["gamma_torus"], doc["gamma_cycle"]) == gammas
    assert doc["passed"] == (code == 0)
    status, out, _ = run(capsys, *argv, "--format", "csv")
    assert status == code
    assert out.splitlines()[1] == row


@pytest.mark.parametrize("content", ["# only a comment\n", "\n  \n", "# a\n\n# b\n"])
def test_vizing_scan_without_pairs_is_an_error(tmp_path, capsys, content):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(content)
    code, out, err = run(capsys, "vizing-scan", "--pairs", str(pairs), "1", "1")
    assert (code, out, err) == (2, "", f"error: {pairs}: no graph pairs found\n")


@pytest.mark.parametrize("line, message", [
    ("P2,Q3", "unexpected character 'Q' at offset 0"),
    ("( P2 ,P3", "expected ')' at offset 4"),
    ("P2, P\u00b2", "expected a number at offset 1"),
    ("P1000,P1001", "graph has more than 1000000 vertices"),
])
def test_vizing_scan_reads_every_pair_before_searching(
    tmp_path, capsys, monkeypatch, line, message
):
    # The bad pair is on line 3, after a good pair: no search runs, and the
    # error names the file and the line. Each side of P1000 x P1001 is
    # below the vertex bound; their product is above it.
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(f"P2,P3\n# a comment\n{line}\n")
    calls = []
    monkeypatch.setattr(graph_domination, "gamma_exact",
                        lambda *args, **kwargs: calls.append(args))
    result = run(capsys, "vizing-scan", "--pairs", str(pairs), "2", "1")
    assert result == (2, "", f"error: {pairs}:3: {message}\n")
    assert calls == []


def test_vizing_scan(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("P2,P2\n# comment\n\nP3,C4\n")
    code, out, _ = run(capsys, "vizing-scan", "--pairs", str(pairs), "1", "1",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["g", "h", "status"]
    assert len(rows) == 3
    assert rows[1][:3] == ["P2", "P2", "exact"]
    code, _, err = run(capsys, "vizing-scan", "--pairs",
                       str(tmp_path / "absent.txt"), "1", "1")
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("P2\n")
    code, _, err = run(capsys, "vizing-scan", "--pairs", str(bad), "1", "1")
    assert code == 2
    assert "EXPR" in err


PAIRS = str(FIXTURE_DIR / "vizing_pairs.txt")


@pytest.mark.parametrize("argv, name", [
    (["gamma", "P3", "2", "1", "--node-budget", "-1"], "node_budget"),
    (["gamma", "P3", "2", "1", "--size-cap", "-1"], "size_cap"),
    (["verify-torus", "3", "2", "--node-budget", "-1"], "node_budget"),
    (["vizing-scan", "--pairs", PAIRS, "2", "1", "--node-budget", "-1"],
     "node_budget"),
])
def test_negative_budgets_are_errors(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {name} must be nonnegative\n")


@pytest.mark.parametrize("argv, message", [
    (["shell", "2", "3", "--enumerate", "--cap", "-1"], "cap must be nonnegative"),
    (["lattice-check", "4", "2", "--basis", "18,0;5,1", "--index-cap", "-1"],
     "index_cap must be at least 1"),
    (["lattice-check", "4", "2", "--basis", "18,0;5,1", "--index-cap", "0"],
     "index_cap must be at least 1"),
    (["lattice-search3d", "4", "2", "--cap", "0"], "index_cap must be at least 1"),
])
def test_caps_out_of_range_are_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, solver", [
    (["gamma", "C6", "2", "2"], "gamma_exact"),
    (["verify-lemma2", "3", "2"], "verify_cycle_lemma"),
    (["verify-torus", "3", "2"], "verify_torus_counterexample"),
    (["vizing-scan", "--pairs", PAIRS, "2", "1"], "vizing_scan"),
])
def test_json_carries_every_record_field(capsys, monkeypatch, argv, solver):
    # Grow the solver's record by one field: the json must show it with no
    # change to the command.
    def grown(record):
        class Grown(type(record)):
            stats: dict

        return Grown(**vars(record), stats={"levels": 3})

    real = getattr(cli, solver)

    def solve(*args, **kwargs):
        result = real(*args, **kwargs)
        if isinstance(result, list):
            return [grown(rec) for rec in result]
        return grown(result)

    monkeypatch.setattr(cli, solver, solve)
    code, out, _ = run(capsys, *argv, "--format", "json", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    for record in doc.get("pairs", [doc]):
        assert record["stats"] == {"levels": 3}


@pytest.mark.parametrize("argv, record, head, injected", [
    (["gamma", "C6", "2", "2"], GammaResult, ["expr", "t", "r"], None),
    (["verify-lemma2", "3", "2"], CycleLemmaReport, [], None),
    (["verify-lemma2", "2", "2"], CycleLemmaReport, [], None),
    (["verify-lemma2", "3", "2"], CycleLemmaReport, [], FAILED_LEMMA),
    (["verify-torus", "3", "2"], TorusReport, [], None),
    (["vizing-scan", "--pairs", PAIRS, "2", "1"], VizingPairReport,
     ["t", "r", "pairs"], None),
], ids=["gamma", "verify-lemma2-passed", "verify-lemma2-not-applicable",
        "verify-lemma2-failed", "verify-torus", "vizing-scan"])
def test_report_is_its_record(capsys, monkeypatch, argv, record, head, injected):
    # After the command's own head, the json keys are the record's fields in
    # order; vizing-scan has one record per pair, and its csv header too.
    if injected is not None:
        monkeypatch.setattr(cli, "verify_cycle_lemma", lambda params: injected)
    names = list(record._fields)
    _, out, _ = run(capsys, *argv, "--format", "json", "--no-timestamp")
    doc = json.loads(out)
    if record is not VizingPairReport:
        assert list(doc) == ["command", *head, *names]
        return
    assert list(doc) == ["command", *head]
    assert [list(pair) for pair in doc["pairs"]] == [names] * len(doc["pairs"])
    _, out, _ = run(capsys, *argv, "--format", "csv")
    assert next(csv.reader(io.StringIO(out))) == names


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "shell", "2", "3", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "12\n"
    # The verdict and cap exit codes survive a report written to a file.
    for argv, expected in [
        (["tower-check", "2", "1", "6", "2"], 1),
        (["gamma", "P5*P5", "2", "1", "--node-budget", "3"], 2),
    ]:
        code, printed, _ = run(capsys, *argv)
        assert code == expected
        assert run(capsys, *argv, "--output", str(target)) == (expected, "", "")
        assert target.read_text() == printed


def test_lattice_search3d_help_reads_both_caps(capsys):
    # The help text is built from the constants, not copied from them.
    from broadcastdom.pattern_engine import DEFAULT_INDEX_CAP, _PROFILE_SLOT_CAP

    with mock.patch.dict(os.environ, {"COLUMNS": "200"}):
        assert main(["lattice-search3d", "--help"]) == 0
    out = capsys.readouterr().out
    assert (f"more than {DEFAULT_INDEX_CAP} cosets or holds more than "
            f"{_PROFILE_SLOT_CAP} profile slots") in out


def test_unknown_subcommand_and_seedless(capsys):
    code = main(["no-such-command"])
    capsys.readouterr()
    assert code == 2
    code, out, _ = run(capsys, "delannoy", "2", "2", "--seedless")
    assert code == 0
    assert out == "13\n"


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(st.characters(exclude_categories=())),  # quotes, controls, surrogates
)
JSON_VALUES = st.recursive(
    JSON_SCALARS | st.lists(st.integers()) | st.lists(st.integers() | st.booleans()),
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.text(), children)
    ),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES)
@example({"a": [], "b": {}, "c": [[], {}, (), [[{}]]], "d": {"e": {"f": []}}})
@example([True, 1, False, 0])
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300])
@example({"\u00e9\"\n\x00": "\ud800\u2028", "": None})
def test_dumps_matches_indented_json(value):
    # Chunk sizes of 0, 1 and 3 pieces put a chunk boundary at every place
    # the writer can flush.
    expected = json.dumps(value, indent=2)
    for chunk in (0, 1, 3, cli._CHUNK):
        with mock.patch.object(cli, "_CHUNK", chunk):
            assert "".join(cli._dumps(value)) == expected


def test_main_reuses_one_parser():
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_json_and_csv_skip_the_text_table(capsys, monkeypatch):
    def refuse(profile):
        raise AssertionError("text table built for a json or csv report")

    monkeypatch.setattr(cli, "_table_text", refuse)
    for fmt in ("json", "csv"):
        code, out, _ = run(capsys, "tower-table", "4", "2", "18", "5",
                           "--format", fmt, "--no-timestamp")
        assert code == 0 and out


@pytest.mark.parametrize("argv", [
    ["tower-table", "4", "2", "18", "5"],
    ["lattice-check", "2", "1", "--basis", "6,0;2,1"],
])
def test_csv_and_text_never_build_the_json_payload(capsys, monkeypatch, argv):
    # The large reports hand _emit their payload as a callable, and only
    # json calls it.
    expected = {fmt: run(capsys, *argv, "--format", fmt) for fmt in ("csv", "text")}
    emit = cli._emit

    def spy(args, payload, *rest, **kwargs):
        assert callable(payload)

        def refuse():
            raise AssertionError("json payload built for a csv or text report")
        return emit(args, refuse, *rest, **kwargs)

    monkeypatch.setattr(cli, "_emit", spy)
    for fmt, report in expected.items():
        assert run(capsys, *argv, "--format", fmt) == report


def test_report_out_of_memory_leaves_no_output_file(tmp_path, capsys, monkeypatch):
    # The body is built before --output is opened.
    def exhausted(profile):
        raise MemoryError

    monkeypatch.setattr(cli, "_table_text", exhausted)
    target = tmp_path / "table.txt"
    code, out, err = run(capsys, "tower-table", "4", "2", "18", "5",
                         "--output", str(target))
    assert (code, out, err) == (2, "", "error: out of memory\n")
    assert not target.exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "broadcastdom", "shell", "2", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "12\n"


def readme_commands():
    # The fenced block of README lines that each run one subcommand.
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = readme.split("```")[1::2]
    block = next(b for b in blocks if b.strip().startswith("broadcastdom shell"))
    return block.strip().splitlines()


def test_readme_commands_run_as_written(tmp_path):
    # Each line runs in a shell as written, so a ';' in an unquoted argument
    # would end the command. A comment that gives a value, "# 43" or
    # "# |S_2(3)| = 12", names a token the command prints.
    shutil.copy(Path(__file__).parent / "data" / "vizing_pairs.txt",
                tmp_path / "pairs.txt")
    module = f"{shlex.quote(sys.executable)} -m broadcastdom"
    values = {}
    for line in readme_commands():
        command, _, comment = line.partition("#")
        assert command.startswith("broadcastdom "), line
        proc = subprocess.run(
            ["bash", "-c", module + command.removeprefix("broadcastdom")],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR.resolve())},
        )
        assert proc.returncode == 0, (line, proc.stderr)
        value = re.fullmatch(r"(?:.* = )?(\d+|T\(\d+,\d+\))", comment.strip())
        if value:
            values[value[1]] = proc.stdout
    assert sorted(values) == ["12", "13", "25", "43", "T(18,5)"]
    for value, out in values.items():
        assert value in re.findall(r"[\w(),]+", out), (value, out)


@pytest.mark.parametrize("stderr, message", [
    (subprocess.STDOUT, None),
    (subprocess.PIPE, b"error: [Errno 32] Broken pipe\n"),
], ids=["stderr-joined", "stderr-own-pipe"])
def test_closed_pipe_exits_2(stderr, message):
    # `shell 3 60 --enumerate 2>&1 | head -1`: the reader closes the pipe after
    # one line of a report larger than the pipe's buffer. The exit is 2 even
    # when the error line shares that closed pipe, never the 1 of a verdict.
    with subprocess.Popen(
        [sys.executable, "-m", "broadcastdom", "shell", "3", "60", "--enumerate"],
        stdout=subprocess.PIPE, stderr=stderr,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
    ) as proc:
        assert proc.stdout.readline() == b"(-60, 0, 0)\n"
        proc.stdout.close()
        err = proc.stderr.read() if proc.stderr else None
        assert proc.wait(timeout=60) == 2
    assert err == message


def test_cli_import_skips_unused_stdlib_modules():
    # A fresh interpreter: the test process itself may already hold these,
    # and -S keeps out what site would import. The records are built without
    # dataclasses, whose import would pull in inspect.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import broadcastdom.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
    )
    loaded = set(proc.stdout.split())
    assert "broadcastdom.cli" in loaded
    for name in ("multiprocessing", "datetime", "fractions", "decimal", "dataclasses",
                 "inspect"):
        assert name not in loaded, name


PACKAGE_MODULES = ("coverage_bounds", "graph_domination", "lattice_geometry",
                   "pattern_engine")
PUBLIC_NAMES = sorted("""
    DEFAULT_ENUMERATION_CAP DEFAULT_INDEX_CAP GENFUNC_KINDS CapExceeded
    CycleLemmaReport FiniteGraph GammaResult GraphExprError GridDims LatticePoint
    Params ReceptionProfile SignedTuple SublatticePattern TorusReport TowerPattern
    TupleSequence VizingPairReport ball_bijection ball_size coverage
    coverage_closed_form delannoy domination_lower_bound gamma_exact
    genfunc_coefficients hermite_normal_form is_dominating_lattice
    is_dominating_set is_dominating_tower lattice_receptions lattice_search_3d
    max_potential_d min_density_search parse_graph_expr reception_map
    reception_table shell_enumerate shell_size tower_reception tuple_decode
    tuple_encode verify_cycle_lemma verify_torus_counterexample vizing_scan
""".split())


def test_each_module_declares_its_exports():
    # The package exports the 45 names, every public name it binds that is
    # not a module, and each is defined in the module whose __all__ lists it.
    import ast
    import importlib
    import types

    import broadcastdom

    assert sorted(broadcastdom.__all__) == PUBLIC_NAMES
    public = {name for name, value in vars(broadcastdom).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(PUBLIC_NAMES)
    for module in PACKAGE_MODULES:
        tree = ast.parse((SRC_DIR / "broadcastdom" / f"{module}.py").read_text(encoding="utf-8"))
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        exported = importlib.import_module(f"broadcastdom.{module}").__all__
        assert set(exported) <= defined, module


def test_one_cap_exception_and_no_stale_export():
    # __all__ joins the library modules' own lists, and every cap refuses
    # with CapExceeded, the one RuntimeError subclass, raised only by
    # _check_cap: a new search cannot bring a limit type of its own.
    import ast
    import importlib

    import broadcastdom

    package = SRC_DIR / "broadcastdom"
    assert broadcastdom.__all__ == [
        name for module in PACKAGE_MODULES
        for name in importlib.import_module(f"broadcastdom.{module}").__all__
    ]
    nodes = [node for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))]
    bases = {node.name: {ast.unparse(base).split(".")[-1] for base in node.bases}
             for node in nodes if isinstance(node, ast.ClassDef)}
    builtin = {"RuntimeError", "NotImplementedError", "RecursionError"}
    runtime = set(builtin)
    while grown := {name for name in bases if bases[name] & runtime} - runtime:
        runtime |= grown
    assert runtime - builtin == {"CapExceeded"}
    raisers = {
        node.name for node in nodes if isinstance(node, ast.FunctionDef)
        and any(isinstance(call, ast.Call) and ast.unparse(call.func) == "CapExceeded"
                for call in ast.walk(node))
    }
    assert raisers == {"_check_cap"}
    assert issubclass(broadcastdom.CapExceeded, RuntimeError)


def test_no_function_calls_itself():
    # Recursion depth would bound the input, so no function of the library
    # reaches itself through calls. Calls resolve by name, which can only
    # over-report; super().__init__ is the parent's method, not a cycle.
    import ast

    def name(call):
        func = call.func
        if isinstance(func, ast.Name):
            return func.id
        parent = getattr(func, "value", None)
        if isinstance(parent, ast.Call) and ast.unparse(parent.func) == "super":
            return None
        return getattr(func, "attr", None)

    callees: dict[str, set] = {}
    for path in sorted((SRC_DIR / "broadcastdom").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                callees.setdefault(node.name, set()).update(
                    name(call) for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                )
    recursive = set()
    for start in callees:
        seen, todo = set(), [start]
        while todo:
            for callee in callees.get(todo.pop(), set()) - seen:
                seen.add(callee)
                todo.append(callee)
        if start in seen:
            recursive.add(start)
    assert recursive == set()
    # json nested past the recursion limit, which the standard library's
    # indented encoder needs raised.
    deep = [1, True]
    for _ in range(1500):
        deep = [deep]
    limit = sys.getrecursionlimit()
    assert limit < 1500
    sys.setrecursionlimit(10_000)
    try:
        expected = json.dumps(deep, indent=2)
    finally:
        sys.setrecursionlimit(limit)
    assert "".join(cli._dumps(deep)) == expected
