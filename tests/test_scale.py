"""The command-line interface at scale, in a real process.

Each row runs `python -m broadcastdom ARGV` as a child process under a
timeout, and pins its exit code and its output. Some rows also pin what only
a separate process shows: its own peak resident memory, or its behaviour
under an address-space limit. test_cli.py runs the same commands in-process
at sizes that take milliseconds.
"""

import csv
import io
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from broadcastdom import ball_size

from _cases import digits_value

SRC_DIR = Path(__file__).parent.parent / "src"


# On Linux a child's ru_maxrss starts at the high-water mark of the process
# that forked it, which here would be the whole test session. So a fresh
# interpreter forks the command, reaps it with os.wait4 and writes its peak
# to the file descriptor named by its first argument.
LAUNCHER = """\
import os, sys
pid = os.fork()
if not pid:
    os.execv(sys.executable, [sys.executable, "-m", "broadcastdom", *sys.argv[2:]])
_, status, usage = os.wait4(pid, 0)
os.write(int(sys.argv[1]), str(usage.ru_maxrss).encode())
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run_module(argv, timeout, address_space_kb=None):
    """Run `python -m broadcastdom *argv` within `timeout` seconds.

    peak_mb is the command's own peak resident memory, as LAUNCHER reads it.
    Its output goes to files, so no pipe fills while the child is awaited.
    """
    def limit():
        size = address_space_kb * 1024
        resource.setrlimit(resource.RLIMIT_AS, (size, size))

    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err, \
            tempfile.TemporaryFile() as peak:
        proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER, str(peak.fileno()), *argv],
            stdout=out, stderr=err, pass_fds=(peak.fileno(),),
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
            preexec_fn=limit if address_space_kb else None,
            start_new_session=True,
        )
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the launcher and the command
            proc.wait()
            pytest.fail(f"{argv} ran for more than {timeout} s")
        for stream in (out, err, peak):
            stream.seek(0)
        return SimpleNamespace(
            code=proc.returncode,
            out=out.read().decode(),
            err=err.read().decode(),
            peak_mb=int(peak.read()) / 1024,
        )


def cap_exceeded_at_a_million_nodes(child):
    # States rarely repeat on tori at r = 2. The witness field holds commas
    # inside quotes, so the row is read as csv.
    row = next(csv.DictReader(io.StringIO(child.out)))
    assert (row["status"], row["nodes"], row["upper_bound"]) == (
        "cap-exceeded", "1000001", "17"
    )


def totals_without_a_row_table(child):
    # A million cosets: the totals are read without a row table.
    assert child.out.splitlines()[1] == "30,10,1000000,5,False,0"
    assert child.peak_mb < 400


def cosets_under(bound_mb, first, last):
    # 250,000 cosets, one line each: the report is written from the library's
    # reception dict, with no json payload built beside it.
    def check(child):
        lines = child.out.splitlines()
        assert (len(lines), lines[:2], lines[-1]) == (250_001, first, last)
        assert child.peak_mb < bound_mb
    return check


def json_cosets_under_135_mb(child):
    # The same 250,000 cosets as indented json, eight lines each. The body is
    # written as chunks, never joined into one string.
    lines = child.out.splitlines()
    assert (len(lines), lines[0], lines[-1]) == (2_000_027, "{", "}")
    assert lines[22:25] == [
        '  "index": 250000,', '  "dominating": false,', '  "receptions": [',
    ]
    assert lines[-10:-2] == [
        "    {", '      "coset": [', "        499,", "        499,", "        0",
        "      ],", '      "reception": 1', "    }",
    ]
    assert child.peak_mb < 135


def tower_rows_under_80_mb(child):
    # 2t - 1 = 59 rows and the sum row over a header of 50,000 columns.
    lines = child.out.splitlines()
    assert len(lines) == 61 and lines[-1].startswith("Sum,150,150,150,")
    assert all(line.count(",") == 50_000 for line in lines)
    assert child.peak_mb < 80


def tower_text_under_75_mb(child):
    # The same table as text: one line per row, written without joining
    # the 61 lines into one string.
    lines = child.out.splitlines()
    assert len(lines) == 61 and lines[-1].startswith("Sum |   150   150   150 ")
    assert all(line.count(" | ") == 1 for line in lines)
    assert child.peak_mb < 75


TABLE3_T18 = {(18, 1): (613, 35), (18, 9): (372, 100), (18, 18): (205, 85)}


def table3_to_t18(child):
    cells = json.loads(child.out)["cells"]
    assert len(cells) == 171
    towers = {(cell["t"], cell["r"]): (cell["d"], cell["e"]) for cell in cells}
    assert {key: towers[key] for key in TABLE3_T18} == TABLE3_T18


def lattice_search_5_1(child):
    assert child.out == "L(117,0,0; 16,1,0; 22,0,1)\n"


def lattice_search_6_2(child):
    assert child.out == "L(154,0,0; 7,1,0; 43,0,1)\n"


def lattice_search_7_2(child):
    assert child.out == "L(268,0,0; 29,1,0; 37,0,1)\n"


def genfunc_three_terms(child):
    # ball_size(k, 16000) for k = 0, 1, 2, from three terms of one series.
    assert child.out == "1 32001 512032001\n"


def delannoy_20000(child):
    # Term 20,000 of one series, where the 20,000-row walk ran past 20 s.
    # Its 15,309 digits pass the interpreter's limit for int <-> str.
    assert child.out.endswith("\n") and "\n" not in child.out[:-1]
    assert digits_value(child.out.strip()) == ball_size(20000, 20000)


def one_short_line(child):
    # The refusal stops at the first ball-series term past the cap, so the
    # line is short and the command never counts the whole ball.
    assert child.out == "" and child.err.startswith("error: ball (1000000, ")
    assert child.err.count("\n") == 1 and len(child.err) < 120


def out_of_memory(child):
    assert child.err == "error: out of memory\n"


def refused(message):
    # A cap refuses the command before it builds anything: one line on
    # stderr, nothing on stdout.
    def check(child):
        assert (child.out, child.err) == ("", f"error: {message}\n")
    return check


NEEDS_RLIMIT_AS = pytest.mark.skipif(
    not hasattr(resource, "RLIMIT_AS"),
    reason="no address-space limit on this platform",
)


def indented_json(child):
    # _dumps writes the bytes of the standard library's indented json. Lines
    # are compared, so that a failure names the first differing line instead
    # of diffing the whole payload.
    expected = json.dumps(json.loads(child.out), indent=2) + "\n"
    assert child.out.splitlines(True) == expected.splitlines(True)


@pytest.mark.parametrize("argv, timeout, code, check, address_space_kb", [
    pytest.param(
        ["gamma", "C10*C10", "3", "2", "--node-budget", "1000000", "--format", "csv"],
        60, 2, cap_exceeded_at_a_million_nodes, None, id="gamma-node-budget",
    ),
    pytest.param(
        ["tower-check", "30", "10", "1000000", "5", "--format", "csv"],
        60, 1, totals_without_a_row_table, None, id="tower-check-memory",
    ),
    pytest.param(
        ["lattice-check", "3", "1", "--basis", "500,0,0;0,500,0;0,0,1",
         "--format", "csv"],
        10, 1, cosets_under(100, ["coset,reception", '"(0, 0, 0)",9'],
                            '"(499, 499, 0)",1'),
        None, id="lattice-check-csv-memory",
    ),
    pytest.param(
        ["lattice-check", "3", "1", "--basis", "500,0,0;0,500,0;0,0,1"],
        10, 1, cosets_under(100, [
            "L(500,0,0; 0,500,0; 0,0,1) (index 250000) does not dominate under (3,1)",
            "(0, 0, 0): 9",
        ], "(499, 499, 0): 1"),
        None, id="lattice-check-text-memory",
    ),
    pytest.param(
        ["lattice-check", "3", "1", "--basis", "500,0,0;0,500,0;0,0,1",
         "--format", "json", "--no-timestamp"],
        30, 1, json_cosets_under_135_mb, None, id="lattice-check-json-memory",
    ),
    pytest.param(
        ["tower-table", "30", "10", "50000", "5", "--format", "csv"],
        10, 0, tower_rows_under_80_mb, None, id="tower-table-csv-memory",
    ),
    pytest.param(
        ["tower-table", "30", "10", "50000", "5"],
        10, 0, tower_text_under_75_mb, None, id="tower-table-text-memory",
    ),
    pytest.param(
        ["table3", "--tmax", "18", "--format", "json", "--no-timestamp"],
        10, 0, table3_to_t18, None, id="table3-z2",
    ),
    # P40000 at (1, 1) needs more than 300,000 KB of address space.
    pytest.param(
        ["gamma", "P40000", "1", "1"], 60, 2, out_of_memory, 300_000,
        id="gamma-out-of-memory", marks=NEEDS_RLIMIT_AS,
    ),
    # The ceiling of (30000, 1) is 1,799,940,001 cosets; the search is
    # refused with it, under the same limit, before it allocates.
    pytest.param(
        ["tower-search", "30000", "1"], 10, 2,
        refused("pattern has 1799940001 cosets, above the cap of 1000000"),
        300_000, id="tower-search-cap-before-memory", marks=NEEDS_RLIMIT_AS,
    ),
    # Below the coset cap, t row profiles of d slots each are sized first:
    # top 978,601 at t = 700, the clamped top 10^6 at t = 95 in Z^3, and
    # d = 999,999 at t = 1000 would each need gigabytes of list slots.
    pytest.param(
        ["tower-search", "700", "1"], 10, 2,
        refused("row profiles have 685020700 slots, above the cap of 10000000"),
        400_000, id="tower-search-slots-before-memory", marks=NEEDS_RLIMIT_AS,
    ),
    pytest.param(
        ["lattice-search3d", "95", "1"], 10, 2,
        refused("row profiles have 95000000 slots, above the cap of 10000000"),
        400_000, id="lattice-search3d-slots-before-memory", marks=NEEDS_RLIMIT_AS,
    ),
    pytest.param(
        ["tower-table", "1000", "1", "999999", "0"], 10, 2,
        refused("row profiles have 999999000 slots, above the cap of 10000000"),
        400_000, id="tower-table-slots-before-memory", marks=NEEDS_RLIMIT_AS,
    ),
    # table3 sizes its largest cell, (708, 1), before it searches (1, 1).
    pytest.param(
        ["table3", "--tmax", "708"], 10, 2,
        refused("pattern has 1001113 cosets, above the cap of 1000000"),
        400_000, id="table3-cap-before-any-cell", marks=NEEDS_RLIMIT_AS,
    ),
    pytest.param(
        ["genfunc", "B_fixed_d", "--fixed", "16000", "--max", "2"], 10, 0,
        genfunc_three_terms, None, id="genfunc-large-fixed",
    ),
    pytest.param(
        ["delannoy", "20000", "20000"], 10, 0, delannoy_20000, None,
        id="delannoy-large",
    ),
    pytest.param(
        ["shell", "1000000", "1000000", "--enumerate"], 5, 2, one_short_line,
        None, id="shell-enumerate-refused-early",
    ),
    pytest.param(
        ["lattice-search3d", "5", "1"], 10, 0, lattice_search_5_1, None,
        id="lattice-search3d-z3",
    ),
    pytest.param(
        ["lattice-search3d", "6", "2"], 10, 0, lattice_search_6_2, None,
        id="lattice-search3d-z3-6-2",
    ),
    pytest.param(
        ["lattice-search3d", "7", "2"], 10, 0, lattice_search_7_2, None,
        id="lattice-search3d-z3-7-2",
    ),
    pytest.param(
        ["tower-table", "30", "10", "1262", "495", "--format", "json",
         "--no-timestamp"],
        30, 0, indented_json, None, id="tower-table-json",
    ),
    pytest.param(
        ["lattice-check", "4", "2", "--basis", "6,0,0,0;1,5,0,0;2,3,4,0;1,1,2,5",
         "--format", "json", "--no-timestamp"],
        30, 1, indented_json, None, id="lattice-check-4d-json",
    ),
])
def test_scale(argv, timeout, code, check, address_space_kb):
    child = run_module(argv, timeout, address_space_kb)
    assert child.code == code, child.err
    check(child)
