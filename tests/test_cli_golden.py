"""Golden snapshots of every command-line report.

Each case in data/cli_golden.json pins the exit code, stdout and stderr of
one main(argv) call. Every subcommand runs in text, untimed json and csv;
the verdict (exit 1) and error (exit 2) paths run in text. Commands run
from tests/data, so file arguments and the messages that quote them stay
relative. Usage errors that argparse raises pin only the exit code, since
their text depends on the terminal width and the Python version.

Regenerate the fixture only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import json
import os
import runpy
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from broadcastdom.cli import main

FIXTURE_DIR = Path(__file__).parent / "data"
GOLDEN = FIXTURE_DIR / "cli_golden.json"
BENCH_DIR = Path(__file__).parent.parent / "bench"

FORMATS = ([], ["--format", "json", "--no-timestamp"], ["--format", "csv"])

REPORTS = [
    ["shell", "2", "3"],
    ["shell", "2", "3", "--enumerate"],
    ["ball", "3", "4"],
    ["genfunc", "B_fixed_n", "--fixed", "2", "--max", "4"],
    ["genfunc", "S_bivariate", "--max", "3"],
    ["bijection", "--point", "2,0,-1,0", "--n", "4", "--d", "3"],
    ["delannoy", "3", "4"],
    ["coverage", "2", "4", "3"],
    ["coverage", "3", "4", "2", "--closed-form"],
    ["lower-bound", "--dims", "18,18", "4", "2"],
    ["max-d", "2", "4", "2"],
    ["tower-check", "4", "2", "18", "5"],
    ["tower-check", "2", "1", "6", "2"],
    ["tower-table", "4", "2", "18", "5"],
    ["tower-search", "4", "2"],
    ["table3", "--tmax", "4"],
    ["table3", "--tmax", "3", "--threads", "2"],
    ["lattice-check", "4", "2", "--basis", "18,0;5,1"],
    ["lattice-check", "2", "1", "--basis", "6,0;2,1"],
    ["lattice-search3d", "2", "1", "--cap", "10"],
    ["gamma", "P5*P5", "3", "2"],
    ["gamma", "C6", "2", "2"],
    ["gamma", "P5*P5", "2", "1", "--node-budget", "3"],
    ["verify-lemma2", "3", "2"],
    ["verify-lemma2", "2", "2"],
    ["verify-torus", "3", "2"],
    ["vizing-scan", "--pairs", "vizing_pairs.txt", "2", "1"],
    ["vizing-scan", "--pairs", "vizing_pairs.txt", "3", "2"],
    ["vizing-scan", "--pairs", "vizing_pairs.txt", "2", "1",
     "--node-budget", "5"],
]

ERRORS = [
    ["shell", "3", "3", "--enumerate", "--cap", "10"],
    ["genfunc", "B_fixed_n", "--max", "4"],
    ["bijection", "--point", "1,a", "--n", "2", "--d", "2"],
    ["coverage", "2", "2", "4"],
    ["tower-check", "4", "2", "1000001", "5"],
    ["tower-table", "4", "2", "1000001", "5"],
    ["table3", "--tmax", "0"],
    ["table3", "--tmax", "3", "--threads", "-1"],
    ["lattice-check", "4", "2", "--basis", "18,0;5,1", "--index-cap", "17"],
    ["lattice-check", "2", "1", "--basis", "2,4;1,2"],
    ["lattice-check", "2", "1", "--basis", "1,x"],
    ["gamma", "P5*Q5", "2", "1"],
    ["verify-torus", "3", "1"],
    ["vizing-scan", "--pairs", "absent.txt", "1", "1"],
    ["vizing-scan", "--pairs", "vizing_pairs_bad.txt", "1", "1"],
]

USAGE_ERRORS = [
    [],
    ["no-such-command"],
    ["shell", "2"],
    ["shell", "2", "x"],
    ["shell", "2", "3", "--format", "xml"],
    ["shell", "2", "3", "--threads", "-1"],
    ["genfunc", "nope", "--max", "4"],
]

CASES = [argv + fmt for argv in REPORTS for fmt in FORMATS] + ERRORS


def capture(argv: list[str], cwd: Path = FIXTURE_DIR) -> dict:
    """Run main(argv) from cwd (the fixture directory); return exit and output."""
    out, err = StringIO(), StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(here)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_fixture_lists_every_case(golden):
    assert [entry["argv"] for entry in golden] == CASES + USAGE_ERRORS


@pytest.mark.parametrize("index, argv", [
    pytest.param(index, argv, id=" ".join(argv) or "(no arguments)")
    for index, argv in enumerate(CASES + USAGE_ERRORS)
])
def test_cli_matches_golden(golden, index, argv):
    expected = golden[index]
    got = capture(argv)
    if "stdout" not in expected:
        got = {"argv": got["argv"], "exit": got["exit"]}
    assert got == expected


def test_reused_parser_keeps_golden_bytes(golden, tmp_path):
    # main parses with one parser per process: no run may leak into the next.
    expected = {tuple(entry["argv"]): entry for entry in golden}
    plain = ["shell", "2", "3"]
    for before in (["shell", "2", "x"],  # SystemExit inside parse_args
                   ["shell", "2", "3", "--enumerate", "--format", "csv"],
                   ["lattice-check", "4", "2", "--basis", "18,0;5,1"]):
        capture(before)
        assert capture(plain) == expected[tuple(plain)]
    report = ["tower-table", "4", "2", "18", "5", "--format", "json",
              "--no-timestamp"]
    target = tmp_path / "report.json"
    got = capture(report + ["--output", str(target)])
    assert (got["exit"], got["stdout"]) == (expected[tuple(report)]["exit"], "")
    assert target.read_text(encoding="utf-8") == expected[tuple(report)]["stdout"]
    assert capture(report) == expected[tuple(report)]


def test_benchmark_workloads_match_their_golden_digests():
    # Every invocation of the benchmark's workloads, run from the repository
    # root as the benchmark runs them, keeps its exit code and the sha256 of
    # its stdout pinned in bench/golden.json. Both files are only read here.
    workloads = runpy.run_path(str(BENCH_DIR / "workloads.py"))["WORKLOADS"]
    digests = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
    invocations = [inv for invs in workloads.values() for inv in invs]
    assert len(invocations) == len(digests) == 29
    for inv in invocations:
        got = capture(list(inv.argv), cwd=BENCH_DIR.parent)
        digest = hashlib.sha256(got["stdout"].encode("utf-8")).hexdigest()
        assert (inv.key, got["exit"], digest) == (
            inv.key, inv.exit_code, digests[inv.key]["sha256"]
        )


if __name__ == "__main__":
    entries = [capture(argv) for argv in CASES]
    entries += [{"argv": argv, "exit": capture(argv)["exit"]}
                for argv in USAGE_ERRORS]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} cases to {GOLDEN}", file=sys.stderr)
