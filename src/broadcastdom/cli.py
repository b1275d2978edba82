"""Command-line interface exposing every operation of the toolkit.

One subcommand per operation, three output formats (text, json, csv), and
scripting-friendly exit codes: 0 for success or a true verdict, 1 for a
false domination verdict, 2 for errors, out of memory included. All output
is deterministic; json carries a timestamp that --no-timestamp suppresses,
making reruns byte-identical. Unbounded counts are serialized as decimal
strings so no consumer is tempted to push them through floating point.
Progress chatter goes to stderr only.

Each command returns `_emit(...)`: one json payload and one text block in, the
exit code out. csv carries the payload's scalar fields under a header of their
names (one row per table3 cell or vizing-scan pair). The payloads of gamma,
verify-torus, verify-lemma2 and vizing-scan are `vars(record)` of the result
records (gamma's after expr, t and r), so a new field reaches the json. shell
--enumerate, genfunc, bijection, tower-table and lattice-check write their own
csv rows, because their csv lays the data out differently from their json;
lower-bound and gamma write theirs to flatten dims and witness into one cell.
The payload, the text block and the rows may each be a zero-argument callable,
and `_emit` calls only what the chosen format prints, so the large reports of
tower-table, lattice-check, shell --enumerate and genfunc build one body each.
Payloads hold the library's own tuples, which json writes as arrays. A json
body is a list of chunks and a text body one string, or a list of lines for
tower-table and lattice-check; either is built before --output is opened and
then written straight to it; csv rows stream onto it through `csv.writer`.
json comes from `_dumps`, one loop with no recursion that builds the bytes of
`json.dumps(..., indent=2)` as a list of chunks, without the standard
library's pure-Python encoder. `main` parses with one parser per process,
builds `args.params` for every subcommand with an r, and sends every error
through one handler. The worker pool of `table3 --threads` and the json
timestamp import their standard-library modules on the path that uses them,
so other commands do not pay for those imports at start-up.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import nullcontext, suppress
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
    _check_size,
    _graph_atoms,
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
    _check_profiles,
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


_CHUNK = 4096  # pieces joined into each chunk of a json body


def _dumps(obj) -> list[str]:
    """The text of json.dumps(obj, indent=2), as a list of chunks.

    The standard library's indented encoder is pure Python and recursive.
    Here one loop keeps a stack of open containers (items, pad, closing
    text), appends each piece once and joins every _CHUNK pieces into a
    chunk. A list of plain ints (not bools) is one % format, ints and strs
    are written directly, and other scalars go through json.dumps. Dict keys
    must be str.
    """
    chunks, parts, stack, pad = [], [], [], "\n"
    while True:
        if len(parts) > _CHUNK:
            chunks.append("".join(parts))
            parts.clear()
        sep = ","
        if type(obj) is int:
            parts.append(int.__repr__(obj))
        elif type(obj) is str:
            parts.append(encode_basestring_ascii(obj))
        elif not obj or not isinstance(obj, (dict, list, tuple)):
            parts.append(json.dumps(obj))
        elif isinstance(obj, dict):
            stack.append((iter(obj.items()), pad + "  ", pad + "}"))
            sep = "{"
        elif set(map(type, obj)) == {int}:
            inner = pad + "  "
            row = "[" + inner + ("%d," + inner) * (len(obj) - 1) + "%d" + pad + "]"
            parts.append(row % tuple(obj))
        else:
            stack.append((iter(obj), pad + "  ", pad + "]"))
            sep = "["
        # Close the containers this value finished, then open the next item.
        while stack:
            items, pad, close = stack[-1]
            obj = next(items, stack)  # the stack marks the end of the items
            if obj is not stack:
                break
            parts.append(close)
            stack.pop()
        else:
            chunks.append("".join(parts))
            return chunks
        if close[-1] == "}":
            key, obj = obj
            parts.append(sep + pad + encode_basestring_ascii(key) + ": ")
        else:
            parts.append(sep + pad)


def _emit(args, payload, text, columns=None, rows=None, code=EXIT_OK) -> int:
    """Write the report in the chosen format to stdout or --output; return code.

    json is the payload under the subcommand name; csv is the `columns`
    header, by default the payload's keys, over `rows`, any iterable of rows,
    which default to the payload's own values of those columns as one row.
    `payload`, `text` and `rows` may each be a zero-argument callable; only
    those the chosen format reads are called. A text body is one str or a
    list of lines, each ending in a newline. A json body (a list of chunks)
    or a text body is built before --output is opened, then written to the
    destination with writelines; csv rows stream onto it.
    """
    build = lambda body: body() if callable(body) else body
    if args.format == "csv":
        import csv

        rows = build(rows)
        if columns is None or rows is None:
            payload = build(payload)
            columns = list(payload) if columns is None else columns
            rows = [[payload[col] for col in columns]] if rows is None else rows
    elif args.format == "json":
        body = {"command": args.command, **build(payload)}
        if not args.no_timestamp:
            from datetime import datetime, timezone

            body["generated_at"] = datetime.now(timezone.utc).isoformat()
        body = [*_dumps(body), "\n"]
    else:
        body = build(text)
        if isinstance(body, str):
            body = [body] if body.endswith("\n") else [body, "\n"]
    dest = open(args.output, "w", encoding="utf-8") if args.output else None
    with dest or nullcontext(sys.stdout) as fh:
        if args.format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)
        else:
            fh.writelines(body)
    return code


def _point_str(point) -> str:
    return "(" + ", ".join(str(x) for x in point) + ")"


def _count(key: str, fn, *inputs, **fields):
    # A count command: its int positionals, then fn(*inputs or positionals) under
    # key, then the constant fields.
    def cmd(args) -> int:
        payload = {name: getattr(args, name) for name in args.ints}
        payload[key] = str(fn(*(getattr(args, name) for name in inputs or args.ints)))
        return _emit(args, {**payload, **fields}, payload[key])
    return cmd


def _cmd_shell(args) -> int:
    if not args.enumerate:
        return _count("size", shell_size)(args)
    points = shell_enumerate(args.n, args.d, cap=args.cap)
    size = str(len(points))
    payload = lambda: {"n": args.n, "d": args.d, "size": size, "points": points}
    rows = ([args.n, args.d, size, _point_str(p)] for p in points)
    text = lambda: "\n".join(_point_str(p) for p in points) or "(no points)"
    return _emit(args, payload, text, ["n", "d", "size", "point"], rows)


def _cmd_genfunc(args) -> int:
    coeffs = genfunc_coefficients(args.kind, args.max_index, fixed=args.fixed)
    head: dict = {"kind": args.kind, "max_index": args.max_index}
    if args.fixed is not None:
        head["fixed"] = args.fixed
    if args.kind in ("B_bivariate", "S_bivariate"):
        coefficients = lambda: [[str(c) for c in row] for row in coeffs]
        header = ["i", "j", "coefficient"]
        rows = (
            [i, j, str(c)] for i, row in enumerate(coeffs) for j, c in enumerate(row)
        )

        def text() -> str:
            width = max(len(str(c)) for row in coeffs for c in row)
            return "\n".join(
                " ".join(str(c).rjust(width) for c in row) for row in coeffs
            )
    else:
        coefficients = lambda: [str(c) for c in coeffs]
        header = ["index", "coefficient"]
        rows = ([i, str(c)] for i, c in enumerate(coeffs))
        text = lambda: " ".join(str(c) for c in coeffs)
    payload = lambda: {**head, "coefficients": coefficients()}
    return _emit(args, payload, text, header, rows)


def _cmd_bijection(args) -> int:
    point = tuple(_parse_int_list(args.point, "--point"))
    image = ball_bijection(point, args.n, args.d)
    encoding = tuple_encode(point)
    enc_str = " ".join(
        f"{'+' if s.sign > 0 else '-'}({s.gap},{s.magnitude})"
        for s in encoding.tuples
    )
    payload = {
        "point": point,
        "n": args.n,
        "d": args.d,
        "encoding": enc_str,
        "image": image,
    }
    text = f"{_point_str(point)} -> {_point_str(image)}"
    return _emit(
        args, payload, text, ["point", "n", "d", "image"],
        [[_point_str(point), args.n, args.d, _point_str(image)]],
    )


def _cmd_coverage(args) -> int:
    fn, method = (
        (coverage_closed_form, "closed-form") if args.closed_form else (coverage, "sum")
    )
    return _count("coverage", fn, "n", "params", method=method)(args)


def _cmd_lower_bound(args) -> int:
    grid = GridDims(tuple(_parse_int_list(args.dims, "--dims")))
    cov = coverage(grid.n, args.params)
    bound = domination_lower_bound(grid, args.params)
    payload = {
        "dims": grid.dims, "t": args.t, "r": args.r,
        "volume": str(grid.volume), "coverage": str(cov),
        "lower_bound": str(bound),
    }
    flat = {**payload, "dims": "x".join(map(str, grid.dims))}
    return _emit(args, payload, str(bound), rows=[flat.values()])


def _cmd_tower_check(args) -> int:
    pattern = TowerPattern(args.d, args.e)
    receptions = list(lattice_receptions(args.params, pattern).values())
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
    columns = ["t", "r", "d", "e", "dominating", "min_reception"]
    code = EXIT_OK if dominating else EXIT_FALSE
    return _emit(args, payload, text, columns, code=code)


def _table_text(profile) -> list[str]:
    width = max(
        2,
        max(len(str(v)) for _, vec in profile.rows for v in vec),
        max(len(str(v)) for v in profile.receptions),
        len(str(len(profile.receptions) - 1)),
    )
    label_w = max(len("Sum"), max(len(str(y)) for y, _ in profile.rows))
    header = ("", range(len(profile.receptions)))
    return [
        str(label).rjust(label_w) + " | "
        + " ".join(str(v).rjust(width) for v in vec) + "\n"
        for label, vec in (header, *profile.rows, ("Sum", profile.receptions))
    ]


def _cmd_tower_table(args) -> int:
    pattern = TowerPattern(args.d, args.e)
    profile = reception_table(args.params, pattern)
    dominating = min(profile.receptions) >= args.r
    payload = lambda: {
        "t": args.t, "r": args.r, "pattern": str(pattern),
        "rows": [{"y": y, "contributions": vec} for y, vec in profile.rows],
        "receptions": profile.receptions,
        "dominating": dominating,
    }
    header = ["y"] + [str(i) for i in range(args.d)]
    rows = ([y, *vec] for y, vec in (*profile.rows, ("Sum", profile.receptions)))
    return _emit(args, payload, lambda: _table_text(profile), header, rows)


def _cmd_tower_search(args) -> int:
    pattern = min_density_search(args.params)
    ceiling = max_potential_d(2, args.params)
    payload = {
        "t": args.t, "r": args.r, "pattern": str(pattern),
        "d": pattern.d, "e": pattern.e, "max_potential_d": str(ceiling),
    }
    return _emit(args, payload, str(pattern), ["t", "r", "d", "e", "max_potential_d"])


def _table3_cell(cell: tuple[int, int]) -> dict[str, int]:
    t, r = cell
    pattern = min_density_search(Params(t, r))
    return {"t": t, "r": r, "d": pattern.d, "e": pattern.e}


def _cmd_table3(args) -> int:
    if args.threads < 0:
        raise ValueError("--threads must be nonnegative")
    if args.tmax < 1:
        raise ValueError("--tmax must be at least 1")
    # Cell (tmax, 1) has the largest t and ceiling: sized before any search.
    _check_profiles(args.tmax, max_potential_d(2, Params(args.tmax, 1)))
    cells = [(t, r) for t in range(1, args.tmax + 1) for r in range(1, t + 1)]
    threads = args.threads if args.threads > 0 else (os.cpu_count() or 1)
    workers = min(threads, len(cells))
    parallel = workers > 1
    if parallel:
        import multiprocessing
    results = []
    with multiprocessing.Pool(processes=workers) if parallel else nullcontext() as pool:
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
    rows = (cell.values() for cell in results)
    return _emit(args, payload, "\n".join(lines), list(results[0]), rows)


def _cmd_lattice_check(args) -> int:
    cols = args.basis.split(";")  # columns by ';', entries by ',': "18,0;5,1"
    pattern = SublatticePattern([_parse_int_list(col, "--basis") for col in cols])
    receptions = lattice_receptions(args.params, pattern, args.index_cap)
    # A coset that no offset reaches reads 0 < r.
    dominating = all(v >= args.r for v in receptions.values())
    payload = lambda: {
        "t": args.t, "r": args.r,
        "basis": pattern.basis,
        "pattern": str(pattern),
        "index": pattern.index,
        "dominating": dominating,
        "receptions": [
            {"coset": rep, "reception": val} for rep, val in receptions.items()
        ],
    }
    rows = ([_point_str(rep), val] for rep, val in receptions.items())
    verdict = "dominates" if dominating else "does not dominate"
    text = lambda: [
        f"{pattern} (index {pattern.index}) {verdict} under ({args.t},{args.r})\n",
        *(f"{_point_str(rep)}: {val}\n" for rep, val in receptions.items()),
    ]
    code = EXIT_OK if dominating else EXIT_FALSE
    return _emit(args, payload, text, ["coset", "reception"], rows, code=code)


def _cmd_lattice_search3d(args) -> int:
    pattern = lattice_search_3d(args.params, index_cap=args.cap)
    payload = {
        "t": args.t, "r": args.r, "index_cap": args.cap,
        "pattern": str(pattern),
        "basis": pattern.basis,
        "d": pattern.basis[0][0],
        "e1": pattern.basis[1][0],
        "e2": pattern.basis[2][0],
    }
    return _emit(args, payload, str(pattern), ["t", "r", "d", "e1", "e2"])


def _grid_text(graph: FiniteGraph, receptions: dict, witness) -> Optional[str]:
    # ASCII reception grid for graphs with 2-tuple labels, which parse_graph_expr
    # gives only to the full grid of two factors; broadcasts are marked '*'.
    labels = graph.labels
    if not all(isinstance(lab, tuple) and len(lab) == 2 for lab in labels):
        return None
    xs = sorted({lab[0] for lab in labels})
    ys = sorted({lab[1] for lab in labels})
    marked = set(witness or ())
    cells = {
        lab: str(receptions[lab]) + ("*" if lab in marked else "")
        for lab in labels
    }
    width = max(len(v) for v in cells.values())
    rows = (" ".join(cells[(x, y)].rjust(width) for y in ys) for x in xs)
    return "\n".join(rows)


def _cmd_gamma(args) -> int:
    graph = parse_graph_expr(args.expr)
    result = gamma_exact(
        graph, args.params, size_cap=args.size_cap, node_budget=args.node_budget
    )
    # json writes the witness's label tuples as arrays.
    payload = {"expr": args.expr, "t": args.t, "r": args.r, **vars(result)}
    exact = result.status == "exact"
    if exact:
        def text() -> str:
            receptions = reception_map(graph, result.witness, args.t)
            grid = _grid_text(graph, receptions, result.witness)
            return "\n".join([
                f"gamma({args.expr}, t={args.t}, r={args.r}) = {result.gamma}",
                "witness: " + " ".join(map(str, result.witness)),
                *([] if grid is None else [grid]),
            ])
    else:
        text = (
            f"cap exceeded after {result.nodes} nodes; "
            f"best known upper bound {result.upper_bound}"
        )
    flat = {**payload, "witness": " ".join(map(str, result.witness or ()))}
    code = EXIT_OK if exact else EXIT_ERROR
    return _emit(args, payload, text, rows=[flat.values()], code=code)


def _cmd_verify_lemma2(args) -> int:
    report = verify_cycle_lemma(args.params)
    if report.status == "not-applicable":
        text = f"not applicable: {report.note}"
    elif report.status == "passed":
        text = (
            f"C_{report.n} under ({report.t},{report.r}): gamma = {report.gamma}, "
            f"canonical witness {report.canonical_witness} dominates: passed"
        )
    else:
        text = f"C_{report.n} under ({report.t},{report.r}): failed"
    code = EXIT_FALSE if report.status == "failed" else EXIT_OK
    columns = ["t", "r", "n", "status", "gamma"]
    return _emit(args, vars(report), text, columns, code=code)


def _cmd_verify_torus(args) -> int:
    report = verify_torus_counterexample(args.params, node_budget=args.node_budget)
    n = report.n
    capped = None in (report.gamma_torus, report.gamma_cycle)
    text = f"C{n}xC{n} under ({report.t},{report.r}): " + (
        "cap exceeded" if capped else
        f"gamma = {report.gamma_torus} < {report.squared_bound} = gamma(C{n})^2; "
        f"min reception {report.min_reception} "
        f"(expected {report.expected_min_reception}): "
        + ("passed" if report.passed else "failed")
    )
    columns = ["t", "r", "n", "gamma_torus", "gamma_cycle", "min_reception", "passed"]
    code = EXIT_ERROR if capped else EXIT_OK if report.passed else EXIT_FALSE
    return _emit(args, vars(report), text, columns, code=code)


def _cmd_vizing_scan(args) -> int:
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
            pair = tuple(expr.strip() for expr in line.split(",", 1))
            # Every pair is read, and its product sized, before the first search.
            try:
                atoms = [atom for expr in pair for atom in _graph_atoms(expr)]
                _check_size(math.prod(k for _, k in atoms))
            except ValueError as exc:
                raise ValueError(f"{args.pairs}:{lineno}: {exc}") from None
            pairs.append(pair)
    if not pairs:
        raise ValueError(f"{args.pairs}: no graph pairs found")
    reports = vizing_scan(pairs, args.params, node_budget=args.node_budget)
    records = [vars(rep) for rep in reports]
    payload = {"t": args.t, "r": args.r, "pairs": records}
    lines = []
    for rep in reports:
        if rep.status != "exact":
            lines.append(f"{rep.g} x {rep.h}: cap exceeded")
            continue
        lines.append(
            f"{rep.g} x {rep.h}: "
            f"gamma_t,r(GxH)={rep.gamma_product} "
            f"halved(G,H)={'holds' if rep.halved_product_holds_gh else 'FAILS'} "
            f"halved(H,G)={'holds' if rep.halved_product_holds_hg else 'FAILS'} "
            f"distance={'holds' if rep.distance_product_holds else 'FAILS'}"
        )
    rows = (record.values() for record in records)
    holds = all(
        rep.halved_product_holds_gh and rep.halved_product_holds_hg
        and rep.distance_product_holds for rep in reports
    )
    capped = any(rep.status != "exact" for rep in reports)
    code = EXIT_ERROR if capped else EXIT_OK if holds else EXIT_FALSE
    return _emit(args, payload, "\n".join(lines), list(records[0]), rows, code=code)


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
        p.set_defaults(func=func, ints=ints.split())
        return p

    p = command("shell", _cmd_shell, "size of the L1 shell S_n(d)", "n d")
    p.add_argument("--enumerate", action="store_true", help="list the points too")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)

    command("ball", _count("size", ball_size), "size of the L1 ball B_n(d)", "n d")

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

    command("delannoy", _count("value", delannoy), "Delannoy number D(m, k)", "m k")

    p = command("coverage", _cmd_coverage,
                "unwasted reception of one broadcast over Z^n", "n t r")
    p.add_argument("--closed-form", action="store_true",
                   help="evaluate the closed-form polynomial (n <= 4)")

    p = command("lower-bound", _cmd_lower_bound,
                "coverage lower bound on gamma for a finite grid", "t r")
    p.add_argument("--dims", required=True, help="side lengths, e.g. 5,5")

    command("max-d", _count("max_d", max_potential_d, "n", "params"),
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
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes; 0 = one per CPU (default: 1)")

    p = command("lattice-check", _cmd_lattice_check,
                "verify whether a sublattice pattern dominates under (t,r)", "t r")
    p.add_argument("--basis", required=True, help="basis columns, e.g. 18,0;5,1")
    p.add_argument("--index-cap", type=int, default=DEFAULT_INDEX_CAP)

    p = command("lattice-search3d", _cmd_lattice_search3d,
                "sparsest dominating tower-form pattern in Z^3", "t r")
    p.add_argument("--cap", type=int, default=DEFAULT_INDEX_CAP,
                   help="largest pattern index to try; no tower search tries more "
                   f"than {DEFAULT_INDEX_CAP} cosets or holds more than 10**7 profile "
                   "slots (t * index), whatever --cap says")

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
    # Counts print in full; argv ints were parsed under the digit limit, restored after.
    set_digits = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    try:
        if hasattr(args, "r"):
            args.params = Params(args.t, args.r)
        set_digits(0)
        return args.func(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError, MemoryError) as exc:
        # str(MemoryError()) is empty
        message = "out of memory" if isinstance(exc, MemoryError) else exc
        with suppress(OSError):  # stderr may be the pipe that closed on stdout
            print(f"error: {message}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        set_digits(limit)
