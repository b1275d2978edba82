"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import one_pass
import run
from oracles import Oracles
from tracer import LAYERS, METHODS, Tracer
from workloads import CSV, JSON, WORKLOADS, Invocation, invocations

ROOT = Path(__file__).resolve().parent.parent
SMALL = [
    Invocation(("tower-search", "5", "2", *CSV)),
    Invocation(("tower-table", "4", "2", "18", "5", *JSON)),
    Invocation(("lattice-search3d", "2", "1")),
    Invocation(("lattice-check", "3", "2", "--basis", "7,0,0;2,1,0;3,0,1", *JSON)),
    Invocation(("gamma", "P3*P4", "2", "1", *JSON)),
    Invocation(("table3", "--tmax", "4")),
]


@pytest.fixture(scope="module")
def cli():
    return one_pass.set_up()


def _traced(cli, invs):
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        results = one_pass.run_invocations(cli, invs, tracer)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, results, wall


def _counts(tracer):
    return {
        (name, stat): value
        for name, stats in tracer.stats.items()
        for stat, value in stats.items()
        if stat in run.COUNT_STATS
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(workload):
    assert invocations(workload, 7) == invocations(workload, 7)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seeds_permute_one_multiset(workload):
    orders = [invocations(workload, seed) for seed in range(10)]
    reference = sorted(inv.key for inv in WORKLOADS[workload])
    assert all(sorted(inv.key for inv in order) == reference for order in orders)
    assert len({tuple(inv.key for inv in order) for order in orders}) > 1


def test_every_invocation_has_a_golden_output():
    golden = json.loads(one_pass.GOLDEN.read_text(encoding="utf-8"))
    keys = {inv.key for invs in WORKLOADS.values() for inv in invs}
    assert keys == set(golden)


def test_wrappers_keep_outputs_and_restore_originals(cli):
    holders = [importlib.import_module("broadcastdom")]
    holders += [importlib.import_module(f"broadcastdom.{layer}") for layer in LAYERS]
    holders += [
        getattr(importlib.import_module(f"broadcastdom.{layer}"), cls) for layer, cls, _ in METHODS
    ]
    before = [dict(vars(h)) for h in holders]
    plain = one_pass.run_invocations(cli, SMALL)
    tracer, traced, _ = _traced(cli, SMALL)
    assert traced == plain
    assert tracer.stats["cli.main"]["calls"] == len(SMALL)
    assert tracer.stats["pattern_engine.SublatticePattern.contains"]["calls"] > 0
    assert [dict(vars(h)) for h in holders] == before


def test_self_times_fit_in_traced_wall(cli):
    tracer, _, wall = _traced(cli, SMALL)
    layers = tracer.layer_self_s()
    assert set(layers) == set(LAYERS)
    assert all(value >= 0 for value in layers.values())
    assert sum(layers.values()) <= wall
    assert sum(s["self_s"] for s in tracer.stats.values()) <= wall


def test_spans_nest_and_hot_functions_are_aggregated(cli):
    tracer, _, _ = _traced(cli, SMALL)
    spans = tracer.spans
    assert [s["id"] for s in spans] == list(range(1, len(spans) + 1))
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main"] * len(SMALL)
    by_id = {s["id"]: s for s in spans}
    for span in spans:
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            assert parent["invocation"] == span["invocation"]
    assert not any(s["name"] == "pattern_engine.tower_reception" for s in spans)


def test_counts_repeat_across_runs_and_orders(cli):
    first, _, _ = _traced(cli, SMALL)
    again, _, _ = _traced(cli, SMALL)
    reordered, _, _ = _traced(cli, SMALL[::-1])
    assert _counts(first) == _counts(again) == _counts(reordered)
    assert first.stats["graph_domination.gamma_exact"]["nodes"] > 0


def test_oracles_reject_wrong_answers(cli):
    oracles = Oracles(ROOT)
    invs = [
        Invocation(("table3", "--tmax", "5", *JSON)),
        Invocation(("lattice-check", "3", "2", "--basis", "7,0,0;2,1,0;3,0,1", *JSON)),
        Invocation(("gamma", "P3*P4", "2", "1", *JSON)),
        Invocation(("tower-check", "4", "2", "18", "5", *CSV)),
    ]
    outputs = [out for _, out, _ in one_pass.run_invocations(cli, invs)]
    assert [oracles.check(inv, out) for inv, out in zip(invs, outputs)] == [[]] * len(invs)
    table3 = json.loads(outputs[0])
    table3["cells"][-1]["d"] += 1
    lattice = json.loads(outputs[1])
    lattice["receptions"][0]["reception"] += 1
    gamma = json.loads(outputs[2])
    gamma["witness"] = gamma["witness"][:-1]
    wrong = [
        json.dumps(table3),
        json.dumps(lattice),
        json.dumps(gamma),
        outputs[3].replace("True", "False"),
    ]
    assert all(oracles.check(inv, out) for inv, out in zip(invs, wrong))


def test_probe_samples_within_a_span_and_takes_out_its_own_time():
    def work():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass

    with one_pass.SpeedProbe() as probe:
        start = time.perf_counter()
        _, timing = probe.measure(work)
        outer = time.perf_counter() - start
    # One sample before, one after and at least two from the timer between.
    assert len(timing["ref_s"]) >= 4
    assert timing["wall_s"] < 0.3 + 1e-3
    assert outer - timing["wall_s"] >= sum(timing["ref_s"]) * 0.9
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_end_to_end_metrics_do_not_move_when_the_machine_slows_evenly():
    def record(scale):
        timing = lambda s: {"wall_s": s * scale, "cpu_s": s * scale, "ref_s": [0.002 * scale] * 3}
        return {
            "setup": timing(0.05),
            "invocations": {"a": timing(1.0), "b": timing(0.25)},
            "items": 5,
            "peak_rss_mb": 24.0,
        }

    fast = run.end_to_end([record(1.0)] * 3)
    mixed = run.end_to_end([record(1.0), record(1.7), record(1.3)])
    assert fast == pytest.approx(mixed)
    assert fast["wall_norm_s"] == pytest.approx(1.25 * run.REF_S / 0.002)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.unit_of(name)) for name in run.PER_LAYER
    ]


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tower-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
