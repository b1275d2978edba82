"""broadcastdom benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The runner measures for S seconds, one pass
per fresh process: with --trace 0 it runs untraced passes and reports the
end-to-end metrics, each time rescaled by how fast the machine ran while it
was taken, as medians over the passes; with --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics. Every pass
checks each output against its golden digest and exit code after its timed
region; the first pass also runs the independent oracles. Human-readable
lines come first; the last line of stdout is one json object with
`correct`, `attempted`, `failed` and `metrics`. The full result, with run
metadata and every pass, is also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, invocations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
BASELINE_COUNTS = HERE / "baseline_counts.json"
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
# A run must end within 180 s whatever the passes do.
RUN_LIMIT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_norm_s", "s"),
    ("cpu_norm_s", "s"),
    ("items_per_norm_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# Times are rescaled to a machine on which one_pass.reference_loop takes
# this long. The constant only sets the scale.
REF_S = 0.0012
PER_LAYER = (
    "pattern_engine.tower_reception.calls",
    "pattern_engine.tower_reception.self_s",
    "pattern_engine.is_dominating_tower.calls",
    "pattern_engine.is_dominating_tower.accepted",
    "pattern_engine.is_dominating_tower.accept_ratio",
    "pattern_engine.min_density_search.calls",
    "pattern_engine.min_density_search.s",
    "pattern_engine.reception_table.calls",
    "pattern_engine.reception_table.self_s",
    "pattern_engine.SublatticePattern.contains.calls",
    "pattern_engine.SublatticePattern.contains.self_s",
    "pattern_engine.hermite_normal_form.calls",
    "pattern_engine.hermite_normal_form.self_s",
    "pattern_engine.is_dominating_lattice.calls",
    "pattern_engine.is_dominating_lattice.accepted",
    "pattern_engine.is_dominating_lattice.accept_ratio",
    "pattern_engine.is_dominating_lattice.self_s",
    "pattern_engine.lattice_receptions.calls",
    "pattern_engine.lattice_receptions.cosets",
    "pattern_engine.lattice_receptions.self_s",
    "pattern_engine.lattice_search_3d.calls",
    "pattern_engine.lattice_search_3d.s",
    "pattern_engine.self_s",
    "lattice_geometry.shell_enumerate.calls",
    "lattice_geometry.shell_enumerate.points",
    "lattice_geometry.shell_enumerate.self_s",
    "lattice_geometry.shell_size.calls",
    "lattice_geometry.shell_size.self_s",
    "lattice_geometry.self_s",
    "coverage_bounds.coverage.calls",
    "coverage_bounds.coverage.self_s",
    "coverage_bounds.max_potential_d.calls",
    "coverage_bounds.self_s",
    "graph_domination.gamma_exact.calls",
    "graph_domination.gamma_exact.nodes",
    "graph_domination.gamma_exact.nodes_per_s",
    "graph_domination.gamma_exact.self_s",
    "graph_domination.FiniteGraph.distances.calls",
    "graph_domination.FiniteGraph.distances.self_s",
    "graph_domination.reception_map.calls",
    "graph_domination.reception_map.self_s",
    "graph_domination.parse_graph_expr.self_s",
    "graph_domination.self_s",
    "cli.main.calls",
    "cli.main.s",
    "cli.self_s",
    "cli.output_bytes",
    "trace_overhead_s",
)
# Stats that count work; they must repeat exactly between traced passes.
COUNT_STATS = ("calls", "accepted", "cosets", "points", "nodes", "output_bytes")
UNITS = {"s": "s", "self_s": "s", "accept_ratio": "ratio", "nodes_per_s": "1/s"}


class BenchError(RuntimeError):
    """A pass could not run; the benchmark prints no result."""


def unit_of(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    if stat == "output_bytes":
        return "bytes"
    return UNITS.get(stat, "s" if name == "trace_overhead_s" else "count")


def run_pass(
    workload: str, seed: int, *, trace: bool = False, check: bool = False,
    spans: Path | None = None, timeout: float = RUN_LIMIT_S,
) -> dict:
    """Run one pass in a fresh interpreter and return its json record."""
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if check:
        cmd.append("--check")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass of {workload} did not end within the run's {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"a pass of {workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def normalized(seconds: float, refs: list[float]) -> float:
    """A time rescaled by the median reference loop time taken in it."""
    return seconds * REF_S / statistics.median(refs)


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """End-to-end metrics of the untraced passes.

    Each invocation's wall and cpu time is rescaled by the median of the
    reference loop times taken just before, during and just after it; the
    median is taken over the passes, and the medians are summed over the
    invocation list. setup_s is the median of the set-up times, rescaled
    the same way.
    """
    keys = passes[0]["invocations"]

    def total(stat: str) -> float:
        return sum(
            statistics.median(
                normalized(p["invocations"][key][stat], p["invocations"][key]["ref_s"]) for p in passes
            )
            for key in keys
        )

    wall = total("wall_s")
    return {
        "setup_s": statistics.median(normalized(p["setup"]["wall_s"], p["setup"]["ref_s"]) for p in passes),
        "wall_norm_s": wall,
        "cpu_norm_s": total("cpu_s"),
        "items_per_norm_s": passes[0]["items"] / wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def layer_value(p: dict, name: str) -> float:
    """One per-layer metric of one traced pass record."""
    if name == "cli.output_bytes":
        return p["output_bytes"]
    parts = name.split(".")
    if len(parts) == 2:  # <layer>.self_s
        return p["layer_self_s"][parts[0]]
    stat = p["stats"][".".join(parts[:-1])]
    if parts[-1] == "accept_ratio":
        return stat["accepted"] / stat["calls"] if stat["calls"] else 0.0
    if parts[-1] == "nodes_per_s":
        return stat["nodes"] / stat["self_s"] if stat["self_s"] else 0.0
    return stat[parts[-1]]


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics: counts of the first traced pass, medians otherwise.

    trace_overhead_s is the traced median wall time minus the untraced one.
    """
    out = {
        name: layer_value(traced[0], name)
        if name.rsplit(".", 1)[-1] in COUNT_STATS
        else statistics.median(layer_value(p, name) for p in traced)
        for name in PER_LAYER
        if name != "trace_overhead_s"
    }
    out["trace_overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in untraced
    )
    return out


def count_mismatches(traced: list[dict]) -> list[str]:
    """Count metrics that differ between the traced passes of one run."""
    return [
        name
        for name in PER_LAYER
        if name.rsplit(".", 1)[-1] in COUNT_STATS
        and len({layer_value(p, name) for p in traced}) > 1
    ]


def metadata(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "invocations": [inv.key for inv in invocations(workload, seed)],
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Passes until the measuring window is used up.

    The first pass also runs the oracles, after its timed region. With
    tracing, every untraced pass is followed by a traced one.
    """
    untraced, traced = [], []
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    start = time.perf_counter()
    def left() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - start)

    while True:
        untraced.append(run_pass(workload, seed, check=not untraced, timeout=left()))
        if trace:
            traced.append(run_pass(workload, seed, trace=True, spans=spans, timeout=left()))
        rounds = len(untraced)
        elapsed = time.perf_counter() - start
        enough = rounds >= (MIN_TRACED_PAIRS if trace else MIN_PASSES)
        if enough and elapsed + elapsed / rounds > seconds:
            break
    return {"untraced": untraced, "traced": traced}


def report(meta: dict, runs: dict) -> dict:
    passes = [*runs["untraced"], *runs["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["problems"]) for p in passes)
    for p in passes:
        for key, faults in p["problems"].items():
            for fault in faults:
                print(f"FAIL {key}: {fault}")
    mismatches = count_mismatches(runs["traced"]) if runs["traced"] else []
    for name in mismatches:
        print(f"FAIL count {name} differs between traced passes")
    if meta["trace"]:
        metrics = per_layer(runs["traced"], runs["untraced"])
        units = {name: unit_of(name) for name in metrics}
        baseline = {}
        if BASELINE_COUNTS.exists():
            baseline = json.loads(BASELINE_COUNTS.read_text(encoding="utf-8")).get(meta["workload"], {})
        print(f"{'metric':<50} {'value':>16} {'unit':<6} baseline count")
        for name, value in metrics.items():
            recorded = baseline.get(name, "")
            mark = "" if recorded in ("", value) else "  (differs)"
            print(f"{name:<50} {value:>16.6g} {units[name]:<6} {recorded}{mark}")
    else:
        metrics = end_to_end(runs["untraced"])
        units = dict(END_TO_END)
        for name, unit in END_TO_END:
            print(f"{name:<12} {metrics[name]:>14.6g} {unit}")
    print(f"{'error_rate':<12} {failed / attempted:>14.6g} share ({failed} of {attempted} invocations)")
    print(f"passes: {len(runs['untraced'])} untraced, the first also checked; {len(runs['traced'])} traced")
    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"result-{meta['workload']}-seed{meta['seed']}-trace{int(meta['trace'])}.json"
    out_file.write_text(json.dumps({"meta": meta, "result": result, "passes": runs}, indent=1) + "\n", encoding="utf-8")
    print("meta: " + json.dumps(meta))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="broadcastdom benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "broadcastdom" / "cli.py").is_file():
        print(f"error: no broadcastdom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    meta = metadata(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = report(meta, runs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
