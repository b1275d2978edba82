"""The CLI invocations each benchmark workload runs.

Every workload is a fixed list of `broadcastdom` command lines, each with
the exit code it must return and the number of items it completes (a table
cell, a search, a checked pattern or a graph instance). The seed only
permutes the order of a list, so the total work of a workload never
depends on the seed while any cache that depends on call order still
shows. README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

JSON = ("--format", "json", "--no-timestamp")
CSV = ("--format", "csv")
PAIRS_FILE = "bench/data/vizing_pairs.txt"


@dataclass(frozen=True)
class Invocation:
    """One command line, its expected exit code and its item count."""

    argv: tuple[str, ...]
    exit_code: int = 0
    items: int = 1

    @property
    def key(self) -> str:
        """Stable name of the invocation, used to look up its golden output."""
        return " ".join(self.argv)


def _cells(tmax: int) -> int:
    return tmax * (tmax + 1) // 2


WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    "tower-sweep": (
        Invocation(("table3", "--tmax", "12", *JSON), items=_cells(12)),
        Invocation(("table3", "--tmax", "9"), items=_cells(9)),
        *(
            Invocation(("tower-search", "13", str(r), *CSV))
            for r in (1, 4, 7, 10, 13)
        ),
    ),
    "lattice-sweep": tuple(
        Invocation(("lattice-search3d", str(t), str(r)))
        for t, r in ((3, 1), (3, 2), (3, 3), (4, 3), (4, 4))
    ),
    "pattern-verify": (
        Invocation(
            ("lattice-check", "10", "5", "--basis", "300,0,0;7,1,0;11,0,1", *JSON),
            exit_code=1,
        ),
        Invocation(
            ("lattice-check", "10", "5", "--basis", "228,0,0;185,1,0;7,0,1", *CSV)
        ),
        Invocation(
            ("lattice-check", "6", "3", "--basis", "12,0,0;5,5,0;3,2,5", *JSON),
            exit_code=1,
        ),
        Invocation(
            ("lattice-check", "5", "3", "--basis",
             "200,0,0,0;3,1,0,0;7,0,1,0;11,0,0,1", *CSV),
            exit_code=1,
        ),
        Invocation(
            ("lattice-check", "4", "2", "--basis",
             "6,0,0,0;1,5,0,0;2,3,4,0;1,1,2,5", *JSON),
            exit_code=1,
        ),
        Invocation(("tower-table", "24", "12", "660", "125", *CSV)),
        Invocation(("tower-table", "30", "10", "1262", "495", *JSON)),
        Invocation(("tower-check", "24", "12", "660", "125", *JSON)),
        Invocation(("tower-check", "30", "10", "1262", "495", *CSV)),
    ),
    "gamma-exact": (
        Invocation(("gamma", "P7*P7", "2", "1", *JSON)),
        Invocation(("gamma", "P6*P8", "2", "1", *JSON)),
        Invocation(("gamma", "P7*P7", "3", "2")),
        Invocation(("gamma", "C8*C8", "3", "2", *JSON)),
        Invocation(("gamma", "P6*P6", "3", "3", *CSV)),
        # One item per graph: the torus and its cycle factor.
        Invocation(("verify-torus", "3", "2", *JSON), items=2),
        Invocation(("verify-torus", "4", "2", *JSON), items=2),
        # Six gamma instances per pair: G, H and G x H at (t, r) and (t, 1).
        Invocation(("vizing-scan", "--pairs", PAIRS_FILE, "2", "1", *JSON), items=30),
    ),
}


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The workload's invocation list in the order the seed selects."""
    order = list(WORKLOADS[workload])
    random.Random(seed).shuffle(order)
    return order
