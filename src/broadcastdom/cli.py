"""Command-line interface exposing every operation of the toolkit.

One subcommand per operation, three output formats (text, json, csv), and
scripting-friendly exit codes: 0 for success or a true verdict, 1 for a
false domination verdict, 2 for errors. All output is deterministic; json
carries a timestamp that --no-timestamp suppresses, making reruns
byte-identical. Unbounded counts are serialized as decimal strings so no
consumer is tempted to push them through floating point. Progress chatter
goes to stderr only.

Each command hands one json payload and one text block to `_emit`; csv
carries the payload's scalar fields under a header of their names (one row
per table3 cell or vizing-scan pair). The payloads of gamma, verify-torus,
verify-lemma2 and vizing-scan are read from the library's result records, so
a new record field reaches the json without an edit here. shell --enumerate,
genfunc, bijection, tower-table and lattice-check write their own csv rows,
because their csv lays the data out differently from their json; lower-bound
and gamma write theirs to flatten dims and witness into one cell. The text
block and the rows may be zero-argument callables, and `_emit` calls only
the one the chosen format prints: the large bodies of tower-table,
lattice-check, shell --enumerate and genfunc are built on demand. json comes
from `_dumps`, which writes the bytes of `json.dumps(..., indent=2)` without
the standard library's pure-Python encoder. `main` parses with one parser
per process. The worker pool of `table3 --threads` and the json timestamp
import their standard-library modules on the path that uses them, so other
commands do not pay for those imports at start-up.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import nullcontext
from io import StringIO
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .coverage_bounds import (
    GridDims,
    Params,
    coverage,
    coverage_closed_form,
    domination_lower_bound,
    max_potential_d,
)
from .graph_domination import (
    DEFAULT_NODE_BUDGET,
    FiniteGraph,
    gamma_exact,
    parse_graph_expr,
    reception_map,
    verify_cycle_lemma,
    verify_torus_counterexample,
    vizing_scan,
)
from .lattice_geometry import (
    DEFAULT_ENUMERATION_CAP,
    GENFUNC_KINDS,
    ball_bijection,
    ball_size,
    delannoy,
    genfunc_coefficients,
    shell_enumerate,
    shell_size,
    tuple_encode,
)
from .pattern_engine import (
    DEFAULT_INDEX_CAP,
    SublatticePattern,
    TowerPattern,
    lattice_receptions,
    lattice_search_3d,
    min_density_search,
    reception_table,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_ERROR = 2


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}")


def _parse_basis(text: str) -> tuple[tuple[int, ...], ...]:
    # Columns separated by ';', entries by ',': "18,0;5,1".
    cols = []
    for part in text.split(";"):
        cols.append(tuple(_parse_int_list(part, "--basis")))
    return tuple(cols)


def _dumps(obj, pad: str = "\n") -> str:
    """The bytes of json.dumps(obj, indent=2), with `pad` opening each line.

    With an indent, the standard library falls back to its pure-Python
    encoder. Here containers are joined directly and lists of plain ints
    (not bools) in one join; every other scalar still goes through
    json.dumps. Dict keys must be str.
    """
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = (
            encode_basestring_ascii(key) + ": " + _dumps(value, inner)
            for key, value in obj.items()
        )
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if all(type(x) is int for x in obj):
            items = map(int.__repr__, obj)
        else:
            items = (_dumps(x, inner) for x in obj)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(obj)


def _emit(args, payload: dict, text, columns=None, rows=None) -> None:
    """Write the report in the chosen format to stdout or --output.

    json is the payload under the subcommand name; csv is the `columns`
    header, by default the payload's keys, over `rows`, which default to the
    payload's own values of those columns as one row. `text` and `rows` may
    be zero-argument callables, called only when their format is the one
    chosen.
    """
    if args.format == "json":
        envelope = {"command": args.command, **payload}
        if not args.no_timestamp:
            from datetime import datetime, timezone

            envelope["generated_at"] = datetime.now(timezone.utc).isoformat()
        body = _dumps(envelope) + "\n"
    elif args.format == "csv":
        import csv as _csv

        if callable(rows):
            rows = rows()
        if columns is None:
            columns = list(payload)
        buf = StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([[payload[col] for col in columns]] if rows is None else rows)
        body = buf.getvalue()
    else:
        if callable(text):
            text = text()
        body = text if text.endswith("\n") else text + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _point_str(point) -> str:
    return "(" + ", ".join(str(x) for x in point) + ")"


def _cmd_shell(args) -> int:
    size = shell_size(args.n, args.d)
    payload: dict = {"n": args.n, "d": args.d, "size": str(size)}
    columns = rows = None
    text = str(size)
    if args.enumerate:
        points = shell_enumerate(args.n, args.d, cap=args.cap)
        columns = [*payload, "point"]
        payload["points"] = [list(p) for p in points]
        rows = lambda: [[args.n, args.d, str(size), _point_str(p)] for p in points]
        text = lambda: "\n".join(_point_str(p) for p in points) or "(no points)"
    _emit(args, payload, text, columns, rows)
    return EXIT_OK


def _cmd_ball(args) -> int:
    size = ball_size(args.n, args.d)
    payload = {"n": args.n, "d": args.d, "size": str(size)}
    _emit(args, payload, str(size))
    return EXIT_OK


def _cmd_genfunc(args) -> int:
    coeffs = genfunc_coefficients(args.kind, args.max_index, fixed=args.fixed)
    payload: dict = {"kind": args.kind, "max_index": args.max_index}
    if args.fixed is not None:
        payload["fixed"] = args.fixed
    if args.kind in ("B_bivariate", "S_bivariate"):
        payload["coefficients"] = [[str(c) for c in row] for row in coeffs]
        header = ["i", "j", "coefficient"]
        rows = lambda: [
            [i, j, str(c)] for i, row in enumerate(coeffs) for j, c in enumerate(row)
        ]

        def text() -> str:
            width = max(len(str(c)) for row in coeffs for c in row)
            return "\n".join(
                " ".join(str(c).rjust(width) for c in row) for row in coeffs
            )
    else:
        payload["coefficients"] = [str(c) for c in coeffs]
        header = ["index", "coefficient"]
        rows = lambda: [[i, str(c)] for i, c in enumerate(coeffs)]
        text = lambda: " ".join(str(c) for c in coeffs)
    _emit(args, payload, text, header, rows)
    return EXIT_OK


def _cmd_bijection(args) -> int:
    point = tuple(_parse_int_list(args.point, "--point"))
    image = ball_bijection(point, args.n, args.d)
    encoding = tuple_encode(point)
    enc_str = " ".join(
        f"{'+' if s.sign > 0 else '-'}({s.gap},{s.magnitude})"
        for s in encoding.tuples
    )
    payload = {
        "point": list(point),
        "n": args.n,
        "d": args.d,
        "encoding": enc_str,
        "image": list(image),
    }
    text = f"{_point_str(point)} -> {_point_str(image)}"
    _emit(
        args, payload, text, ["point", "n", "d", "image"],
        [[_point_str(point), args.n, args.d, _point_str(image)]],
    )
    return EXIT_OK


def _cmd_delannoy(args) -> int:
    value = delannoy(args.m, args.k)
    payload = {"m": args.m, "k": args.k, "value": str(value)}
    _emit(args, payload, str(value))
    return EXIT_OK


def _cmd_coverage(args) -> int:
    params = Params(args.t, args.r)
    if args.closed_form:
        value = coverage_closed_form(args.n, params)
        method = "closed-form"
    else:
        value = coverage(args.n, params)
        method = "sum"
    payload = {
        "n": args.n, "t": args.t, "r": args.r,
        "coverage": str(value), "method": method,
    }
    _emit(args, payload, str(value))
    return EXIT_OK


def _cmd_lower_bound(args) -> int:
    grid = GridDims(tuple(_parse_int_list(args.dims, "--dims")))
    params = Params(args.t, args.r)
    cov = coverage(grid.n, params)
    bound = domination_lower_bound(grid, params)
    payload = {
        "dims": list(grid.dims), "t": args.t, "r": args.r,
        "volume": str(grid.volume), "coverage": str(cov),
        "lower_bound": str(bound),
    }
    flat = {**payload, "dims": "x".join(map(str, grid.dims))}
    _emit(args, payload, str(bound), rows=[list(flat.values())])
    return EXIT_OK


def _cmd_max_d(args) -> int:
    params = Params(args.t, args.r)
    value = max_potential_d(args.n, params)
    payload = {"n": args.n, "t": args.t, "r": args.r, "max_d": str(value)}
    _emit(args, payload, str(value))
    return EXIT_OK


def _cmd_tower_check(args) -> int:
    params = Params(args.t, args.r)
    pattern = TowerPattern(args.d, args.e)
    receptions = list(reception_table(params, pattern).receptions)
    dominating = min(receptions) >= args.r
    payload = {
        "t": args.t, "r": args.r, "pattern": str(pattern),
        "d": args.d, "e": args.e, "dominating": dominating,
        "receptions": receptions, "min_reception": min(receptions),
    }
    verdict = "dominates" if dominating else "does not dominate"
    text = (
        f"{pattern} {verdict} under ({args.t},{args.r})\n"
        f"receptions: {' '.join(map(str, receptions))}"
    )
    _emit(args, payload, text, ["t", "r", "d", "e", "dominating", "min_reception"])
    return EXIT_OK if dominating else EXIT_FALSE


def _table_text(profile) -> str:
    width = max(
        2,
        max(len(str(v)) for _, vec in profile.rows for v in vec),
        max(len(str(v)) for v in profile.receptions),
        len(str(len(profile.receptions) - 1)),
    )
    label_w = max(len("Sum"), max(len(str(y)) for y, _ in profile.rows))
    header = ("", range(len(profile.receptions)))
    return "\n".join(
        str(label).rjust(label_w) + " | " + " ".join(str(v).rjust(width) for v in vec)
        for label, vec in (header, *profile.rows, ("Sum", profile.receptions))
    )


def _cmd_tower_table(args) -> int:
    params = Params(args.t, args.r)
    pattern = TowerPattern(args.d, args.e)
    profile = reception_table(params, pattern)
    dominating = min(profile.receptions) >= args.r
    payload = {
        "t": args.t, "r": args.r, "pattern": str(pattern),
        "rows": [{"y": y, "contributions": list(vec)} for y, vec in profile.rows],
        "receptions": list(profile.receptions),
        "dominating": dominating,
    }
    header = ["y"] + [str(i) for i in range(args.d)]
    rows = lambda: [
        [y, *vec] for y, vec in (*profile.rows, ("Sum", profile.receptions))
    ]
    _emit(args, payload, lambda: _table_text(profile), header, rows)
    return EXIT_OK


def _cmd_tower_search(args) -> int:
    params = Params(args.t, args.r)
    pattern = min_density_search(params)
    ceiling = max_potential_d(2, params)
    payload = {
        "t": args.t, "r": args.r, "pattern": str(pattern),
        "d": pattern.d, "e": pattern.e, "max_potential_d": str(ceiling),
    }
    _emit(args, payload, str(pattern), ["t", "r", "d", "e", "max_potential_d"])
    return EXIT_OK


def _table3_cell(cell: tuple[int, int]) -> dict[str, int]:
    t, r = cell
    pattern = min_density_search(Params(t, r))
    return {"t": t, "r": r, "d": pattern.d, "e": pattern.e}


def _cmd_table3(args) -> int:
    if args.tmax < 1:
        raise ValueError("--tmax must be at least 1")
    cells = [(t, r) for t in range(1, args.tmax + 1) for r in range(1, t + 1)]
    threads = args.threads if args.threads > 0 else (os.cpu_count() or 1)
    parallel = threads > 1 and len(cells) > 1
    if parallel:
        import multiprocessing
    results = []
    with multiprocessing.Pool(processes=threads) if parallel else nullcontext() as pool:
        for cell in (pool.imap if parallel else map)(_table3_cell, cells):
            print(f"t={cell['t']} r={cell['r']} d={cell['d']}", file=sys.stderr)
            results.append(cell)
    width = 5
    lines = [
        "t/r".ljust(4) + "".join(str(r).rjust(width) for r in range(1, args.tmax + 1))
    ]
    for cell in results:  # row t holds the cells r = 1..t, in that order
        if cell["r"] == 1:
            lines.append(str(cell["t"]).ljust(4))
        lines[-1] += str(cell["d"]).rjust(width)
    payload = {"t_max": args.tmax, "cells": results}
    rows = [list(cell.values()) for cell in results]
    _emit(args, payload, "\n".join(lines), list(results[0]), rows)
    return EXIT_OK


def _cmd_lattice_check(args) -> int:
    params = Params(args.t, args.r)
    pattern = SublatticePattern(_parse_basis(args.basis))
    receptions = lattice_receptions(params, pattern, args.index_cap)
    # A coset that no offset reaches reads 0 < r.
    dominating = all(v >= args.r for v in receptions.values())
    payload = {
        "t": args.t, "r": args.r,
        "basis": [list(col) for col in pattern.basis],
        "pattern": str(pattern),
        "index": pattern.index,
        "dominating": dominating,
        "receptions": [
            {"coset": list(rep), "reception": val}
            for rep, val in receptions.items()
        ],
    }
    rows = lambda: [[_point_str(rep), val] for rep, val in receptions.items()]
    verdict = "dominates" if dominating else "does not dominate"
    text = lambda: "\n".join([
        f"{pattern} (index {pattern.index}) {verdict} under ({args.t},{args.r})",
        *(f"{_point_str(rep)}: {val}" for rep, val in receptions.items()),
    ])
    _emit(args, payload, text, ["coset", "reception"], rows)
    return EXIT_OK if dominating else EXIT_FALSE


def _cmd_lattice_search3d(args) -> int:
    params = Params(args.t, args.r)
    pattern = lattice_search_3d(params, index_cap=args.cap)
    payload = {
        "t": args.t, "r": args.r, "index_cap": args.cap,
        "pattern": str(pattern),
        "basis": [list(col) for col in pattern.basis],
        "d": pattern.basis[0][0],
        "e1": pattern.basis[1][0],
        "e2": pattern.basis[2][0],
    }
    _emit(args, payload, str(pattern), ["t", "r", "d", "e1", "e2"])
    return EXIT_OK


def _grid_text(graph: FiniteGraph, receptions: dict, witness) -> Optional[str]:
    # ASCII reception grid for graphs whose labels form a complete 2D grid
    # of integer pairs; broadcast vertices are marked with '*'.
    labels = graph.labels
    if not all(
        isinstance(lab, tuple) and len(lab) == 2
        and all(isinstance(c, int) for c in lab)
        for lab in labels
    ):
        return None
    xs = sorted({lab[0] for lab in labels})
    ys = sorted({lab[1] for lab in labels})
    if len(xs) * len(ys) != len(labels):
        return None
    marked = set(witness or ())
    cells = {
        lab: str(receptions[lab]) + ("*" if lab in marked else "")
        for lab in labels
    }
    width = max(len(v) for v in cells.values())
    lines = []
    for x in xs:
        lines.append(" ".join(cells[(x, y)].rjust(width) for y in ys))
    return "\n".join(lines)


def _cmd_gamma(args) -> int:
    params = Params(args.t, args.r)
    graph = parse_graph_expr(args.expr)
    result = gamma_exact(
        graph, params, size_cap=args.size_cap, node_budget=args.node_budget
    )
    # json writes the witness's label tuples as arrays.
    payload = {"expr": args.expr, "t": args.t, "r": args.r, **vars(result)}
    exact = result.status == "exact"
    if exact:
        lines = [
            f"gamma({args.expr}, t={args.t}, r={args.r}) = {result.gamma}",
            "witness: " + " ".join(map(str, result.witness)),
        ]
        receptions = reception_map(graph, result.witness, args.t)
        grid = _grid_text(graph, receptions, result.witness)
        if grid is not None:
            lines.append(grid)
        text = "\n".join(lines)
    else:
        text = (
            f"cap exceeded after {result.nodes} nodes; "
            f"best known upper bound {result.upper_bound}"
        )
    flat = {**payload, "witness": " ".join(map(str, result.witness or ()))}
    _emit(args, payload, text, rows=[list(flat.values())])
    return EXIT_OK if exact else EXIT_ERROR


def _cmd_verify_lemma2(args) -> int:
    params = Params(args.t, args.r)
    report = verify_cycle_lemma(params)
    status = (
        "not-applicable" if not report.applicable
        else ("passed" if report.passed else "failed")
    )
    # status takes the place of the applicable and passed flags.
    payload = {}
    for key, value in vars(report).items():
        if key == "applicable":
            payload["status"] = status
        elif key != "passed":
            payload[key] = value
    if not report.applicable:
        text = f"not applicable: {report.note}"
        code = EXIT_OK
    elif report.passed:
        text = (
            f"C_{report.n} under ({report.t},{report.r}): gamma = {report.gamma}, "
            f"canonical witness {report.canonical_witness} dominates: passed"
        )
        code = EXIT_OK
    else:
        text = f"C_{report.n} under ({report.t},{report.r}): failed"
        code = EXIT_FALSE
    _emit(args, payload, text, ["t", "r", "n", "status", "gamma"])
    return code


def _cmd_verify_torus(args) -> int:
    params = Params(args.t, args.r)
    report = verify_torus_counterexample(params, node_budget=args.node_budget)
    text = (
        f"C{report.n}xC{report.n} under ({report.t},{report.r}): "
        f"gamma = {report.gamma_torus} < {report.squared_bound} = gamma(C{report.n})^2; "
        f"min reception {report.min_reception} "
        f"(expected {report.expected_min_reception}): "
        + ("passed" if report.passed else "failed")
    )
    columns = ["t", "r", "n", "gamma_torus", "gamma_cycle", "min_reception", "passed"]
    _emit(args, vars(report), text, columns)
    return EXIT_OK if report.passed else EXIT_FALSE


def _cmd_vizing_scan(args) -> int:
    params = Params(args.t, args.r)
    pairs = []
    with open(args.pairs, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "," not in line:
                raise ValueError(
                    f"{args.pairs}:{lineno}: expected 'EXPR,EXPR', got {line!r}"
                )
            left, right = line.split(",", 1)
            pairs.append((left.strip(), right.strip()))
    if not pairs:
        raise ValueError(f"{args.pairs}: no graph pairs found")
    reports = vizing_scan(pairs, params, node_budget=args.node_budget)
    # Each pair: g and h, then the record's fields after expr_g, expr_h, t, r.
    records = [
        {"g": rep.expr_g, "h": rep.expr_h, **dict(list(vars(rep).items())[4:])}
        for rep in reports
    ]
    payload = {"t": args.t, "r": args.r, "pairs": records}
    lines = []
    for rep in reports:
        if rep.status != "exact":
            lines.append(f"{rep.expr_g} x {rep.expr_h}: cap exceeded")
            continue
        lines.append(
            f"{rep.expr_g} x {rep.expr_h}: "
            f"gamma_t,r(GxH)={rep.gamma_product} "
            f"halved(G,H)={'holds' if rep.halved_product_holds_gh else 'FAILS'} "
            f"halved(H,G)={'holds' if rep.halved_product_holds_hg else 'FAILS'} "
            f"distance={'holds' if rep.distance_product_holds else 'FAILS'}"
        )
    rows = [list(record.values()) for record in records]
    _emit(args, payload, "\n".join(lines), list(records[0]), rows)
    if any(rep.status != "exact" for rep in reports):
        return EXIT_ERROR
    holds = all(
        rep.halved_product_holds_gh and rep.halved_product_holds_hg
        and rep.distance_product_holds for rep in reports
    )
    return EXIT_OK if holds else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="text",
        help="output format (default: text)",
    )
    common.add_argument(
        "--output", default=None, help="write output to a file instead of stdout"
    )
    common.add_argument(
        "--threads", type=int, default=1,
        help="worker processes for long searches; 0 = one per CPU (default: 1)",
    )
    common.add_argument(
        "--no-timestamp", action="store_true",
        help="omit the generated_at field from json output",
    )
    common.add_argument(
        "--seedless", action="store_true",
        help="assert the run uses no randomness (always true; accepted for scripting)",
    )

    parser = argparse.ArgumentParser(
        prog="broadcastdom",
        description="Exact toolkit for (t, r) broadcast domination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, ints=""):
        # One subcommand with the shared flags and the int positionals `ints`.
        p = sub.add_parser(name, parents=[common], help=help)
        for dest in ints.split():
            p.add_argument(dest, type=int)
        p.set_defaults(func=func)
        return p

    p = command("shell", _cmd_shell, "size of the L1 shell S_n(d)", "n d")
    p.add_argument("--enumerate", action="store_true", help="list the points too")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)

    command("ball", _cmd_ball, "size of the L1 ball B_n(d)", "n d")

    p = command("genfunc", _cmd_genfunc,
                "generating function coefficients for shells and balls")
    p.add_argument("kind", choices=GENFUNC_KINDS)
    p.add_argument("--fixed", type=int, default=None,
                   help="the fixed d or n for univariate kinds")
    p.add_argument("--max", dest="max_index", type=int, required=True,
                   help="largest coefficient index")

    p = command("bijection", _cmd_bijection,
                "image of a point under the B_n(d) -> B_d(n) bijection")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    command("delannoy", _cmd_delannoy, "Delannoy number D(m, k)", "m k")

    p = command("coverage", _cmd_coverage,
                "unwasted reception of one broadcast over Z^n", "n t r")
    p.add_argument("--closed-form", action="store_true",
                   help="evaluate the closed-form polynomial (n <= 4)")

    p = command("lower-bound", _cmd_lower_bound,
                "coverage lower bound on gamma for a finite grid", "t r")
    p.add_argument("--dims", required=True, help="side lengths, e.g. 5,5")

    command("max-d", _cmd_max_d,
            "largest candidate pattern period per the coverage bound", "n t r")
    command("tower-check", _cmd_tower_check,
            "verify whether the tower T(d,e) dominates under (t,r)", "t r d e")
    command("tower-table", _cmd_tower_table,
            "per-row reception table of a tower pattern", "t r d e")
    command("tower-search", _cmd_tower_search,
            "sparsest dominating tower pattern for (t,r)", "t r")

    p = command("table3", _cmd_table3,
                "minimum tower densities for all 1 <= r <= t <= tmax")
    p.add_argument("--tmax", type=int, default=9)

    p = command("lattice-check", _cmd_lattice_check,
                "verify whether a sublattice pattern dominates under (t,r)", "t r")
    p.add_argument("--basis", required=True, help="basis columns, e.g. 18,0;5,1")
    p.add_argument("--index-cap", type=int, default=DEFAULT_INDEX_CAP)

    p = command("lattice-search3d", _cmd_lattice_search3d,
                "sparsest dominating tower-form pattern in Z^3", "t r")
    p.add_argument("--cap", type=int, default=DEFAULT_INDEX_CAP,
                   help="largest pattern index to try")

    p = command("gamma", _cmd_gamma, "exact minimum dominating set of a small graph")
    p.add_argument("expr", help="graph expression, e.g. P5*P5 or C4*C4")
    p.add_argument("t", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--size-cap", type=int, default=None)
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)

    command("verify-lemma2", _cmd_verify_lemma2,
            "check the two-broadcast domination of the cycle C_{2(t-r+1)}", "t r")

    p = command("verify-torus", _cmd_verify_torus,
                "check the torus product-bound violation for (t,r)", "t r")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)

    p = command("vizing-scan", _cmd_vizing_scan,
                "evaluate product inequalities over graph pairs from a file", "t r")
    p.add_argument("--pairs", required=True,
                   help="file with one 'EXPR,EXPR' pair per line")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser as it was and every default is immutable,
    # so one parser serves every main() call in the process.
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.threads < 0:
        print("error: --threads must be nonnegative", file=sys.stderr)
        return EXIT_ERROR
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
