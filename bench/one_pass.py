"""One pass of a workload in a fresh process; prints its measurements as json.

    python3 bench/one_pass.py --workload NAME --seed N [--trace] [--check]
                              [--spans PATH]

run.py starts one such process per pass, so nothing carries over from one
pass to the next, just as for a user running the CLI. The pass times the
package import, `build_parser` and one trivial call (set-up), then the
workload's invocation list through `broadcastdom.cli.main`, each with its
output captured in memory and its own wall and cpu time. A fixed reference
loop is timed around and during the set-up and each invocation (SpeedProbe),
so that run.py can rescale each time by the speed of the machine at that
moment. After the timed region it compares every output
with its golden digest and exit code and, with --check, runs the
independent oracles too. With --trace the invocation list runs under the
per-layer tracer.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import WORKLOADS, Invocation, invocations

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
PROBE_INTERVAL_S = 0.05


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def set_up():
    """Import the CLI, build its parser and make one trivial call."""
    sys.path.insert(0, str(SRC))
    from broadcastdom import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"broadcastdom imported from {cli.__file__}, not from {SRC}")
    cli.build_parser()
    with redirect_stdout(io.StringIO()):
        if cli.main(["shell", "2", "3"]) != 0:
            raise SystemExit("set-up call `shell 2 3` failed")
    return cli


# The graph the reference loop covers: 14 vertices on a circle, each
# dominating itself, its two neighbours and the vertex three steps on.
REF_N = 14
REF_BALLS = tuple(tuple(sorted({(v + d) % REF_N for d in (0, 1, -1, 3)})) for v in range(REF_N))


def reference_loop() -> None:
    """A fixed piece of pure-Python work that does not use the package.

    It mixes the kinds of work the program does: integer arithmetic and
    tuple-keyed dict stores, then an iterative-deepening search for a small
    dominating set by recursion with closures, generators, min and list
    building, then a sort with a key function.
    """
    table, acc = {}, 0
    for i in range(4000):
        key = (i * 7919) % 1009
        acc = (acc + key * key) % 1000003
        table[key, i & 7] = acc

    need = [1] * REF_N

    def cover(lo: int, k: int) -> bool:
        if not any(need):
            return True
        if k == 0:
            return False
        first = min(v for v in range(REF_N) if need[v])
        for u in range(lo, REF_N):
            if u > first + 3:
                break
            cut = [v for v in REF_BALLS[u] if need[v]]
            if not cut:
                continue
            for v in cut:
                need[v] = 0
            if cover(u + 1, k - 1):
                return True
            for v in cut:
                need[v] = 1
        return False

    for k in range(1, REF_N):
        if cover(0, k):
            break
    sorted(((i, j) for i in range(20) for j in range(i)), key=lambda t: (t[1], -t[0]))


class SpeedProbe:
    """Samples how fast the machine runs while a pass is timed.

    On a shared host the same code runs up to about 1.7 times slower while
    other tenants are busy, in spells of a fraction of a second to many
    seconds. With `sampling`, the probe times reference_loop just before and
    after each span it measures and, from a SIGALRM handler, every
    PROBE_INTERVAL_S of wall time within it. The handler's own time is taken
    out of the span's times. No change to the program can change the loop,
    so run.py rescales each span by the loop times taken in it.
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.samples: list[float] = []
        self.timings: list[dict] = []
        self._handler_wall = 0.0
        self._handler_cpu = 0.0
        self._busy = False

    def _sample(self) -> tuple[float, float]:
        self._busy = True
        wall0, cpu0 = time.perf_counter(), time.process_time()
        reference_loop()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.samples.append(wall)
        self._busy = False
        return wall, cpu

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            wall, cpu = self._sample()
            self._handler_wall += wall
            self._handler_cpu += cpu

    def __enter__(self) -> SpeedProbe:
        if self.sampling:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, fn):
        """fn() and its timing: wall and cpu seconds, and the loop times."""
        first = len(self.samples)
        if self.sampling:
            self._sample()
        handler_wall, handler_cpu = self._handler_wall, self._handler_cpu
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        value = fn()
        wall = time.perf_counter() - wall0 - (self._handler_wall - handler_wall)
        cpu = cpu_seconds() - cpu0 - (self._handler_cpu - handler_cpu)
        if self.sampling:
            self._sample()
        timing = {"wall_s": wall, "cpu_s": cpu, "ref_s": self.samples[first:]}
        self.timings.append(timing)
        return value, timing


def run_invocations(cli, invs: list[Invocation], tracer=None, probe: SpeedProbe | None = None) -> list[tuple]:
    """Run each invocation through cli.main; (exit code, stdout, stderr) each.

    An exception escaping main becomes the exit code field as text, which
    never equals an expected code, so it counts as a failure. With a probe,
    each invocation's timing is added to probe.timings.
    """
    def call(argv: list[str]):
        try:
            return cli.main(argv)
        except Exception as exc:  # a crash is that invocation's failure
            return f"raised {exc!r}"

    results = []
    for index, inv in enumerate(invs):
        if tracer is not None:
            tracer.invocation = index
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            if probe is None:
                code = call(list(inv.argv))
            else:
                code, _ = probe.measure(lambda: call(list(inv.argv)))
        results.append((code, out.getvalue(), err.getvalue()))
    return results


def problems(invs: list[Invocation], results: list[tuple], golden: dict | None, oracles=None) -> dict[str, list[str]]:
    """Problems per invocation key: exit code, golden bytes and oracle checks.

    golden=None skips the byte comparison, as when the golden file is made.
    """
    found: dict[str, list[str]] = {}
    for inv, (code, out, err) in zip(invs, results):
        faults = []
        if code != inv.exit_code:
            faults.append(f"exit {code}, expected {inv.exit_code}; stderr {err[-300:]!r}")
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if golden is not None and digest != golden.get(inv.key, {}).get("sha256"):
            faults.append(f"output bytes differ from golden (sha256 {digest})")
        if oracles is not None and isinstance(code, int):
            faults += oracles.check(inv, out)
        if faults:
            found[inv.key] = faults
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    # The handler would add its time to the traced functions' self times.
    with SpeedProbe(sampling=not args.trace) as probe:
        cli, setup = probe.measure(set_up)
        invs = invocations(args.workload, args.seed)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            results = run_invocations(cli, invs, tracer, probe)
        finally:
            if tracer is not None:
                tracer.uninstall()
    times = probe.timings[1:]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    oracles = None
    if args.check:
        from oracles import Oracles

        oracles = Oracles(ROOT)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    record = {
        "setup": setup,
        "wall_s": sum(t["wall_s"] for t in times),
        "cpu_s": sum(t["cpu_s"] for t in times),
        "invocations": dict(zip((inv.key for inv in invs), times)),
        "peak_rss_mb": peak_rss_mb,
        "items": sum(inv.items for inv in invs),
        "attempted": len(invs),
        "problems": problems(invs, results, golden, oracles),
        "output_bytes": sum(len(out.encode("utf-8")) for _, out, _ in results),
    }
    if tracer is not None:
        record["stats"] = tracer.stats
        record["layer_self_s"] = tracer.layer_self_s()
        if args.spans is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
