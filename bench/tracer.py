"""Per-layer tracing of broadcastdom from outside the library.

The tracer wraps every public function of each layer module, plus the two
hot methods `SublatticePattern.contains` and `FiniteGraph.distances`. The
package binds names with `from .x import y`, so a function is patched under
every module attribute that refers to it; `uninstall` puts the originals
back. Each call adds to per-function totals: calls, inclusive seconds,
self seconds (inclusive minus the time of wrapped callees) and, for a few
functions, a count read off the result. Calls of functions outside HOT also
leave a span (id, parent, invocation, start, end, self time) in memory;
HOT functions run once per candidate pattern or per shell, so they are
only aggregated and the trace stays bounded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path
from typing import Any, Callable, Optional

LAYERS = (
    "cli",
    "pattern_engine",
    "lattice_geometry",
    "coverage_bounds",
    "graph_domination",
)
METHODS = (
    ("pattern_engine", "SublatticePattern", "contains"),
    ("graph_domination", "FiniteGraph", "distances"),
)
HOT = frozenset(
    {
        "pattern_engine.tower_reception",
        "pattern_engine.is_dominating_tower",
        "pattern_engine.is_dominating_lattice",
        "pattern_engine.hermite_normal_form",
        "pattern_engine.SublatticePattern.contains",
        "lattice_geometry.shell_enumerate",
        "lattice_geometry.shell_size",
        "lattice_geometry.ball_size",
        "coverage_bounds.coverage",
        "coverage_bounds.max_potential_d",
    }
)
# Counts read off a function's result: stat name and how to count it.
RESULT_COUNTS: dict[str, tuple[str, Callable[[Any], int]]] = {
    "pattern_engine.is_dominating_tower": ("accepted", bool),
    "pattern_engine.is_dominating_lattice": ("accepted", bool),
    "pattern_engine.lattice_receptions": ("cosets", len),
    "lattice_geometry.shell_enumerate": ("points", len),
    "graph_domination.gamma_exact": ("nodes", lambda res: res.nodes),
}


class Tracer:
    """Records per-function totals and spans while installed."""

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = {}
        self.spans: list[dict] = []
        self.invocation: Optional[int] = None
        # One frame per active wrapped call: [child seconds, span id that
        # children should name as their parent].
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stat = {"calls": 0, "s": 0.0, "self_s": 0.0}
        counter = RESULT_COUNTS.get(name)
        if counter:
            stat[counter[0]] = 0
        self.stats[name] = stat
        keep_span = name not in HOT
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span_id = len(spans) + 1 if keep_span else None
            if keep_span:
                spans.append({})  # reserve the id; filled in on return
            frame = [0.0, span_id if keep_span else parent]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_s = elapsed - frame[0]
                stat["calls"] += 1
                stat["s"] += elapsed
                stat["self_s"] += self_s
                if stack:
                    stack[-1][0] += elapsed
                if keep_span:
                    spans[span_id - 1] = {
                        "id": span_id,
                        "parent": parent,
                        "name": name,
                        "invocation": self.invocation,
                        "start": start,
                        "end": end,
                        "self_s": self_s,
                    }
            if counter:
                stat[counter[0]] += counter[1](result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every traced function wherever the package refers to it."""
        package = importlib.import_module("broadcastdom")
        modules = {layer: importlib.import_module(f"broadcastdom.{layer}") for layer in LAYERS}
        holders = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped = self._wrap(f"{layer}.{attr}", fn)
                    for holder in holders:
                        for ref, value in list(vars(holder).items()):
                            if value is fn:
                                self._patches.append((holder, ref, fn))
                                setattr(holder, ref, wrapped)
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = vars(cls)[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", original))

    def uninstall(self) -> None:
        """Restore every original function and method."""
        while self._patches:
            holder, ref, original = self._patches.pop()
            setattr(holder, ref, original)

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds summed over the traced functions of each layer."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            out[name.split(".", 1)[0]] += stat["self_s"]
        return out

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as one json document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n", encoding="utf-8")
