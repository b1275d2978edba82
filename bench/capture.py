"""Capture the golden outputs and baseline counts the benchmark compares with.

    python3 bench/capture.py

Run from the repository root, only at a commit whose outputs are known to
be right: it overwrites golden.json (sha256 and length of every
invocation's output bytes) and baseline_counts.json (the traced work counts
of each workload). It refuses to write when an invocation returns another
exit code than its workload declares or fails an oracle check.
"""

from __future__ import annotations

import hashlib
import json
import sys

import one_pass
import run
from oracles import Oracles
from workloads import WORKLOADS


def main() -> int:
    cli = one_pass.set_up()
    oracles = Oracles(one_pass.ROOT)
    golden = {}
    for invs in WORKLOADS.values():
        results = one_pass.run_invocations(cli, list(invs))
        found = one_pass.problems(list(invs), results, None, oracles)
        if found:
            print(json.dumps(found, indent=1), file=sys.stderr)
            return 1
        for inv, (_, out, _) in zip(invs, results):
            data = out.encode("utf-8")
            golden[inv.key] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    one_pass.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    counts = {}
    for name in WORKLOADS:
        record = run.run_pass(name, 0, trace=True)
        counts[name] = {
            metric: run.layer_value(record, metric)
            for metric in run.PER_LAYER
            if metric.rsplit(".", 1)[-1] in run.COUNT_STATS
        }
    run.BASELINE_COUNTS.write_text(json.dumps(counts, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
