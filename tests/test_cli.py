"""End-to-end checks of the command-line interface.

Commands run in-process through main(argv) so exit codes and both output
streams are observable; subprocess tests confirm the module entry point
works outside the test harness and that importing the CLI leaves the
standard-library modules it does not need unloaded.
"""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from broadcastdom import cli
from broadcastdom.cli import main

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


def test_gamma_parse_error(capsys):
    code, _, err = run(capsys, "gamma", "P5*Q5", "2", "1")
    assert code == 2
    assert "offset" in err


def test_verify_lemma2(capsys):
    code, out, _ = run(capsys, "verify-lemma2", "3", "2")
    assert code == 0
    assert "passed" in out
    code, out, _ = run(capsys, "verify-lemma2", "2", "2")
    assert code == 0
    assert "not applicable" in out


def test_verify_torus(capsys):
    code, out, _ = run(capsys, "verify-torus", "3", "2")
    assert code == 0
    assert "passed" in out
    code, _, err = run(capsys, "verify-torus", "3", "1")
    assert code == 2
    assert err.startswith("error:")


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
        cls = dataclasses.make_dataclass(
            "Grown", [("stats", dict)], bases=(type(record),), frozen=True
        )
        return cls(**vars(record), stats={"levels": 3})

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


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "shell", "2", "3", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "12\n"


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
    assert cli._dumps(value) == json.dumps(value, indent=2)


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "broadcastdom", "shell", "2", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "12\n"


def test_cli_import_skips_unused_stdlib_modules():
    # A fresh interpreter: the test process itself may already hold these.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import broadcastdom.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
    )
    loaded = set(proc.stdout.split())
    assert "broadcastdom.cli" in loaded
    for name in ("multiprocessing", "datetime", "fractions", "decimal"):
        assert name not in loaded, name
