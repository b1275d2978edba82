"""Independent checks of the answers the benchmark's invocations print.

Nothing here calls the library's search or reception code; graphs are
built with its FiniteGraph, as the repository's own tests do. Towers are
checked with `window_tower_receptions` and Table 3 against its fixture,
both from the repository's tests; 3-D tower-form patterns by a direct
point-by-point count over one period box; general sublattice patterns by
an adjugate residue count over the ball; graph witnesses with
`brute_receptions`. Each check returns a list of problems, empty when the
output is right.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import re
from pathlib import Path
from typing import Callable

from workloads import Invocation

TUPLE = re.compile(r"\((-?\d+(?:, -?\d+)*)\)")


def load_cases(root: Path):
    """Import the repository's test oracles from tests/_cases.py."""
    spec = importlib.util.spec_from_file_location("_cases", root / "tests" / "_cases.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def table3_fixture(root: Path) -> tuple[str, dict[tuple[int, int], int]]:
    """Text of tests/data/table3.txt and its periods keyed (t, r)."""
    text = (root / "tests" / "data" / "table3.txt").read_text(encoding="utf-8")
    periods = {}
    for line in text.splitlines()[1:]:
        t, *ds = (int(x) for x in line.split())
        periods.update({(t, r): d for r, d in enumerate(ds, start=1)})
    return text, periods


def _fmt(argv) -> str:
    return "json" if "json" in argv else "csv" if "csv" in argv else "text"


def _csv_rows(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


def _tuples(text: str) -> list[tuple[int, ...]]:
    return [tuple(int(x) for x in m.split(", ")) for m in TUPLE.findall(text)]


class Oracles:
    """Checks keyed by subcommand; `check` dispatches on argv[0]."""

    def __init__(self, root: Path) -> None:
        self.cases = load_cases(root)
        self.fixture_text, self.fixture = table3_fixture(root)
        self.checks: dict[str, Callable[[Invocation, str], list[str]]] = {
            "table3": self.table3,
            "tower-search": self.tower_search,
            "tower-table": self.tower_table,
            "tower-check": self.tower_check,
            "lattice-search3d": self.lattice_search3d,
            "lattice-check": self.lattice_check,
            "gamma": self.gamma,
            "verify-torus": self.verify_torus,
            "vizing-scan": self.vizing_scan,
        }

    def check(self, inv: Invocation, out: str) -> list[str]:
        try:
            return self.checks[inv.argv[0]](inv, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unparseable output: {exc!r}"]

    # Towers --------------------------------------------------------------

    def _tower(self, t: int, r: int, d: int, e: int) -> list[str]:
        problems = []
        if (t, r) in self.fixture and self.fixture[(t, r)] != d:
            problems.append(f"({t},{r}): d={d}, fixture says {self.fixture[(t, r)]}")
        low = min(self.cases.window_tower_receptions(t, r, d, e))
        if low < r:
            problems.append(f"({t},{r}): T({d},{e}) leaves reception {low} < {r}")
        return problems

    def table3(self, inv: Invocation, out: str) -> list[str]:
        tmax = int(inv.argv[inv.argv.index("--tmax") + 1])
        if _fmt(inv.argv) == "text":
            if tmax == 9 and out != self.fixture_text:
                return ["table3 text differs from tests/data/table3.txt"]
            return []
        cells = json.loads(out)["cells"]
        problems = []
        if [(c["t"], c["r"]) for c in cells] != [
            (t, r) for t in range(1, tmax + 1) for r in range(1, t + 1)
        ]:
            problems.append("table3 cells are not every 1 <= r <= t <= tmax")
        for c in cells:
            problems += self._tower(c["t"], c["r"], c["d"], c["e"])
        return problems

    def tower_search(self, inv: Invocation, out: str) -> list[str]:
        (row,) = _csv_rows(out)
        return self._tower(*(int(row[k]) for k in ("t", "r", "d", "e")))

    def tower_table(self, inv: Invocation, out: str) -> list[str]:
        t, r, d, e = (int(x) for x in inv.argv[1:5])
        if _fmt(inv.argv) == "json":
            doc = json.loads(out)
            rows = [row["contributions"] for row in doc["rows"]]
            total = doc["receptions"]
        else:
            lines = list(csv.reader(io.StringIO(out)))[1:]
            rows = [[int(x) for x in line[1:]] for line in lines[:-1]]
            total = [int(x) for x in lines[-1][1:]]
        problems = []
        if len(rows) != 2 * t - 1:
            problems.append(f"{len(rows)} rows, expected {2 * t - 1}")
        if [sum(col) for col in zip(*rows)] != total:
            problems.append("row contributions do not add up to the Sum row")
        if total != self.cases.window_tower_receptions(t, r, d, e):
            problems.append("Sum row differs from the window oracle")
        return problems

    def tower_check(self, inv: Invocation, out: str) -> list[str]:
        t, r, d, e = (int(x) for x in inv.argv[1:5])
        expected = self.cases.window_tower_receptions(t, r, d, e)
        if _fmt(inv.argv) == "json":
            doc = json.loads(out)
            got_min, dominating = doc["min_reception"], doc["dominating"]
            if doc["receptions"] != expected:
                return ["receptions differ from the window oracle"]
        else:
            (row,) = _csv_rows(out)
            got_min, dominating = int(row["min_reception"]), row["dominating"] == "True"
        if got_min != min(expected) or dominating != (min(expected) >= r):
            return [f"min reception {got_min}, oracle {min(expected)}"]
        return []

    # Sublattices ---------------------------------------------------------

    def lattice_search3d(self, inv: Invocation, out: str) -> list[str]:
        t, r = int(inv.argv[1]), int(inv.argv[2])
        d, z1, z2, e1, one1, z3, e2, z4, one2 = (int(x) for x in re.findall(r"-?\d+", out))
        if (z1, z2, one1, z3, z4, one2) != (0, 0, 1, 0, 0, 1):
            return [f"{out.strip()} is not a tower-form basis"]
        low = min(box_receptions_3d(t, d, e1, e2))
        if low < r:
            return [f"L({d},{e1},{e2}) leaves reception {low} < {r}"]
        return []

    def lattice_check(self, inv: Invocation, out: str) -> list[str]:
        t, r = int(inv.argv[1]), int(inv.argv[2])
        basis = inv.argv[inv.argv.index("--basis") + 1]
        columns = [[int(x) for x in col.split(",")] for col in basis.split(";")]
        if _fmt(inv.argv) == "json":
            got = {tuple(c["coset"]): c["reception"] for c in json.loads(out)["receptions"]}
        else:
            got = {_tuples(row["coset"])[0]: int(row["reception"]) for row in _csv_rows(out)}
        expected = residue_receptions(self.cases.brute_ball, columns, t, list(got))
        problems = []
        if expected is None:
            problems.append("coset representatives are not one per coset")
        elif expected != got:
            bad = [p for p in got if got[p] != expected[p]]
            problems.append(f"{len(bad)} coset receptions differ, first at {bad[:1]}")
        if (min(got.values()) >= r) != (inv.exit_code == 0):
            problems.append("domination verdict disagrees with the receptions")
        return problems

    # Graphs ----------------------------------------------------------------

    def gamma(self, inv: Invocation, out: str) -> list[str]:
        from broadcastdom.graph_domination import parse_graph_expr

        expr, t, r = inv.argv[1], int(inv.argv[2]), int(inv.argv[3])
        fmt = _fmt(inv.argv)
        if fmt == "json":
            doc = json.loads(out)
            gamma, witness = doc["gamma"], [tuple(w) for w in doc["witness"]]
        elif fmt == "csv":
            (row,) = _csv_rows(out)
            gamma, witness = int(row["gamma"]), _tuples(row["witness"])
        else:
            first, second = out.splitlines()[:2]
            gamma, witness = int(first.rsplit("= ", 1)[1]), _tuples(second)
        receptions = self.cases.brute_receptions(parse_graph_expr(expr), witness, t)
        if len(witness) != gamma or min(receptions.values()) < r:
            return [f"witness of size {len(witness)} does not dominate at gamma={gamma}"]
        return []

    def verify_torus(self, inv: Invocation, out: str) -> list[str]:
        from broadcastdom.graph_domination import FiniteGraph

        doc = json.loads(out)
        t, r, n = doc["t"], doc["r"], doc["n"]
        cycle = FiniteGraph.cycle(n)
        torus = cycle.box_product(cycle)
        receptions = self.cases.brute_receptions(torus, ((0, 0), (n // 2, n // 2)), t)
        low = min(receptions.values())
        if not (doc["passed"] and doc["gamma_torus"] == 2 and low == doc["min_reception"] == 2 * r - 2):
            return [f"torus C{n}xC{n}: min reception {low}, report {doc}"]
        return []

    def vizing_scan(self, inv: Invocation, out: str) -> list[str]:
        problems = []
        for p in json.loads(out)["pairs"]:
            holds = (
                2 * p["gamma_product"] >= p["gamma_g"] * p["gamma_h_t1"],
                2 * p["gamma_product"] >= p["gamma_h"] * p["gamma_g_t1"],
                p["gamma_product_t1"] >= p["gamma_g_t1"] * p["gamma_h_t1"],
            )
            reported = (
                p["halved_product_holds_gh"],
                p["halved_product_holds_hg"],
                p["distance_product_holds"],
            )
            if p["status"] != "exact" or holds != reported:
                problems.append(f"pair {p['g']},{p['h']}: verdicts {reported}, recomputed {holds}")
        return problems


def box_receptions_3d(t: int, d: int, e1: int, e2: int) -> list[int]:
    """Reception at (i, 0, 0), 0 <= i < d, from broadcasts at
    (m*d + y*e1 + z*e2, y, z), counted broadcast by broadcast.

    The lattice holds (e1, 1, 0) and (e2, 0, 1), so every point of Z^3 is a
    translate of one of these d points: they form one period box.
    """
    out = []
    for i in range(d):
        total = 0
        for y in range(-(t - 1), t):
            for z in range(-(t - 1 - abs(y)), t - abs(y)):
                reach = t - abs(y) - abs(z)
                base = y * e1 + z * e2
                for m in range((i - reach - base) // d - 1, (i + reach - base) // d + 2):
                    dist = abs(m * d + base - i) + abs(y) + abs(z)
                    if dist < t:
                        total += t - dist
        out.append(total)
    return out


def _det(m: list[list[int]]) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def residue_receptions(brute_ball, columns, t, reps):
    """Reception at each rep from broadcasts on the lattice the columns span.

    With B the basis matrix, x lies on the lattice exactly when
    adj(B) x = 0 (mod det B), so adj(B) x mod det names the coset of x. One
    pass over the ball buckets the weight t - |o| of each offset o by its
    coset; the reception at p is then the bucket of -p. Returns None when
    the reps are not exactly one per coset.
    """
    n = len(columns)
    rows = [[columns[j][i] for j in range(n)] for i in range(n)]
    det = abs(_det(rows))
    minor = lambda i, j: [r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i]  # noqa: E731
    adj = [[(-1) ** (i + j) * _det(minor(j, i)) for j in range(n)] for i in range(n)]

    def coset(x) -> tuple[int, ...]:
        return tuple(sum(a * b for a, b in zip(row, x)) % det for row in adj)

    buckets: dict[tuple[int, ...], int] = {}
    for off in brute_ball(n, t - 1):
        key = coset(off)
        buckets[key] = buckets.get(key, 0) + t - sum(abs(x) for x in off)
    if len(reps) != det or len({coset(p) for p in reps}) != det:
        return None
    return {p: buckets.get(coset([-x for x in p]), 0) for p in reps}
