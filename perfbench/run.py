"""Benchmark of the npcuboid command line: sweeps and inversions.

Run from the repository root, which must hold ``src/npcuboid``:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 55 --trace 0

The workloads are described in ``workloads.py``. A run sets up over and
over for a twentieth of ``--seconds``, and at least once: a fresh import of the
package plus input generation, with ``setup_s`` their median. It keeps the
last set-up, then acts as one closed-loop client calling
``npcuboid.cli.main`` in-process, repeating passes over the inputs until
``--seconds`` have passed; the first pass is whole, the last is cut short at
the deadline. A pass is a fixed list of short CLI calls:
one ``search`` per unit of a sweep's job, or one ``invert`` per cuboid.
``search`` writes its JSONL to a temporary file inside the checkout;
``invert`` prints to captured stdout. Every output is checked, and a failed
check or a raised error counts as a failed operation without stopping the
run.

The timings are taken from each call's best time over its repeats. The
program is deterministic, so a call's repeats differ only by what the host
does meanwhile. On a shared two-vCPU virtual machine that noise is one-sided
and comes in spells of seconds to minutes that slow every call by up to a
third. Over 10 minutes of the deep sweep calls in one such period, a pass
timed as the sum of its calls' medians over a window spread by 0.17 between
windows (quartile distance over median), whatever the window's length;
timed as the sum of their best times it spread by 0.12 over 25 s windows and
0.08 over 55 s ones.

The metrics printed are those BENCHMARK.json lists. End-to-end metrics
(``--trace 0``):
  setup_s          median set-up time
  ops_per_s        operations of one pass over the sum of its calls' best
                   times; an operation is one JSONL record or one inversion
  latency_p50_ms   nearest-rank median over a pass's calls of each call's
                   best time
  latency_tail_ms  the highest percentile of the same best times with at
                   least ten calls beyond it, or the slowest call when a pass
                   has ten calls or fewer; the percentile and counts are
                   printed
  cpu_s            sum over a pass's calls of each call's least user plus
                   system CPU, of this process and its children
  peak_rss_mib     high-water resident memory of this process plus that of
                   its largest child; children of whatever launched it (a
                   version manager's shim runs some before it starts Python)
                   are left out
The notes beside ops_per_s and latency_p50_ms give the same figures over all
calls, repeats included, for reference.
``failed_ratio`` is printed with them; the JSON carries it as
``failed``/``attempted`` because it is 0 when nothing fails.

Sweeps run at one worker: on a shared two-core virtual machine a two-worker
search over the wide set took anywhere from 2.0 to 5.3 s, following
hypervisor steal.

``--trace 1`` runs one untraced and one traced pass over the same inputs and
prints the per-layer metrics, from spans that ``tracing.py`` records around
the package's entry points, plus the tracing overhead. A sweep adds an
untraced pass at two workers: its ``getrusage`` split gives the parent and
child CPU, its streams are checked against the same pinned digests, and
``search.pool_speedup`` compares its call time with the one-worker pass.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. ``--tiny`` runs reduced inputs for the self-check.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracing import Tracer, instrument

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SHARE = 0.05  # of --seconds, spent repeating the set-up for setup_s
MODULES = ("cli", "curve", "cuboids", "errors", "factoring", "inverse", "rationals", "search")

def load_package() -> SimpleNamespace:
    """Import a fresh copy of the package; return its modules by name."""
    for name in [m for m in sys.modules if m == "npcuboid" or m.startswith("npcuboid.")]:
        del sys.modules[name]
    importlib.import_module("npcuboid.cli")
    return SimpleNamespace(**{m: sys.modules[f"npcuboid.{m}"] for m in MODULES})


def metric_tables() -> tuple[list, list]:
    """(name, unit) of the end-to-end and the per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [[(m["name"], m["unit"]) for m in spec[key]] for key in ("end_to_end", "per_layer")]


def set_up(name: str, seed: int, tmp: Path, tiny: bool, budget: float):
    """Time imports plus input generations for budget seconds, at least
    once; return the last set-up and every time."""
    times = []
    begin = time.perf_counter()
    while not times or time.perf_counter() - begin < budget:
        # Free the last set-up's package copy first, so that peak memory does
        # not grow with the number of set-ups.
        gc.collect()
        start = time.perf_counter()
        api = load_package()
        workload = workloads.build(name, seed, api, tmp, tiny)
        times.append(time.perf_counter() - start)
    return api, workload, times


def cpu_seconds() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


class Tally:
    """Totals over the calls of one or more passes."""

    def __init__(self):
        self.passes = self.attempted = self.failed = self.wrong = 0
        self.latencies: list[float] = []  # per call, in call order
        self.cpu: list[float] = []  # per call, this process and its children
        self.position: list[int] = []  # per call, its place in the pass
        self.parent_cpu = self.child_cpu = 0.0
        self.stats = None

    @property
    def call_time(self) -> float:
        return sum(self.latencies)

    def run_pass(self, api, calls, tracer: Tracer | None = None,
                 deadline: float | None = None) -> None:
        """Run the calls in turn, stopping early once the deadline has passed."""
        stats = Counter()
        for position, call in enumerate(calls):
            if deadline is not None and time.perf_counter() >= deadline:
                return
            out = io.StringIO()
            before = cpu_seconds()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    if tracer:
                        tracer.active = True
                    try:
                        code = api.cli.main(call.argv)
                    finally:
                        if tracer:
                            tracer.active = False
            except Exception:  # a crash fails this call, not the run
                traceback.print_exc()
                code = None
            self.latencies.append(time.perf_counter() - start)
            after = cpu_seconds()
            self.parent_cpu += after[0] - before[0]
            self.child_cpu += after[1] - before[1]
            self.cpu.append(sum(after) - sum(before))
            self.position.append(position)
            result = call.check(code, out.getvalue())
            self.attempted += result.attempted
            self.failed += result.failed
            self.wrong += result.wrong
            for key, value in result.stats.items():
                stats[key] = max(stats[key], value) if key == "max_digits" else stats[key] + value
        if stats:
            self.stats = stats
        self.passes += 1

    def best(self, values: list[float]) -> list[float]:
        """Each call's least value over its repeats, in call order."""
        least = {}
        for position, value in zip(self.position, values):
            least[position] = min(value, least.get(position, value))
        return [least[position] for position in sorted(least)]


def tail_percentile(calls_per_pass: int) -> int:
    """Highest whole percentile with at least ten calls of one pass beyond it."""
    if calls_per_pass <= 10:
        return 100
    return 100 * (calls_per_pass - 10) // calls_per_pass


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)), 1) - 1]


# Children's peak memory that this process inherited across exec, at import.
INHERITED_CHILD_RSS = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if children <= INHERITED_CHILD_RSS:
        children = 0  # no child of this process used more than the launcher's
    return (own + children) / 1024  # ru_maxrss is in KiB on Linux


def measure(api, workload, seconds: float, setup_times: list[float]):
    tally = Tally()
    calls = workload.calls()
    deadline = time.perf_counter() + seconds
    tally.run_pass(api, calls)  # every call at least once
    while time.perf_counter() < deadline:
        tally.run_pass(api, calls, deadline=deadline)
    best = tally.best(tally.latencies)
    n = len(best)
    p = tail_percentile(n)
    beyond = n - max(math.ceil(p / 100 * n), 1)
    repeats = f"{tally.passes}-{tally.passes + 1}" if len(tally.latencies) % n else tally.passes
    ops = tally.attempted - tally.failed
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": workload.ops_per_pass * ops / tally.attempted / sum(best),
        "latency_p50_ms": percentile(best, 50) * 1000,
        "latency_tail_ms": percentile(best, p) * 1000,
        "cpu_s": sum(tally.best(tally.cpu)),
        "peak_rss_mib": peak_rss_mib(),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "ops_per_s": f"{n} calls' best of {repeats} repeats;"
                     f" over all calls {ops / tally.call_time:.6g}",
        "latency_p50_ms": f"{n} calls' best of {repeats} repeats;"
                          f" over all calls {percentile(tally.latencies, 50) * 1000:.6g}",
        "latency_tail_ms": f"p{p} of {n} calls' best, {beyond} beyond",
        "cpu_s": f"{n} calls' least of {repeats} repeats, this process and its children",
        "peak_rss_mib": "this process plus its largest child",
    }
    return tally, metrics, notes


def trace(api, workload, table):
    untraced = Tally()
    untraced.run_pass(api, workload.calls())
    tracer = Tracer()
    instrument(tracer, api)
    traced = Tally()
    try:
        traced.run_pass(api, workload.calls(), tracer)
    finally:
        tracer.uninstall()
    is_sweep = workload.kind == "sweep"
    pool = untraced
    if is_sweep and workload.pool_workers > 1:
        pool = Tally()
        pool.run_pass(api, workload.calls(workers=workload.pool_workers))
    spans = tracer.summary()

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    metrics = {}
    for name, _ in table:
        prefix, _, key = name.rpartition(".")
        if key in ("calls", "self_s", "failed"):
            metrics[name] = span(prefix, key)
    primes = span("factoring.is_probable_prime", "calls")
    inversions = sum(span(f"inverse.recover_{f}", "calls") for f in workloads.FAMILIES)
    stats = traced.stats or {}
    records = stats.get("records", 0)
    metrics.update({
        "factoring.is_probable_prime.true_ratio":
            span("factoring.is_probable_prime", "true") / primes if primes else 0,
        "inverse.kernels_per_inversion":
            span("factoring.squarefree_kernel", "calls") / inversions if inversions else 0,
        "search.records": records,
        "search.skipped_ratio": stats.get("skipped", 0) / records if records else 0,
        "search.truncated_ratio": stats.get("truncated", 0) / records if records else 0,
        "search.bytes_written": stats.get("bytes", 0),
        "search.run_search.wait_s": span("search.run_search", "total_s"),
        "search.parent_cpu_s": pool.parent_cpu if is_sweep else 0,
        "search.child_cpu_s": pool.child_cpu if is_sweep else 0,
        "search.pool_speedup": untraced.call_time / pool.call_time if pool is not untraced else 0,
        "trace.overhead_s": traced.call_time - untraced.call_time,
    })
    total = Tally()
    for part in [untraced, traced] + ([pool] if pool is not untraced else []):
        total.attempted += part.attempted
        total.failed += part.failed
        total.wrong += part.wrong
    total.stats = traced.stats
    notes = {
        "trace.overhead_s": f"traced {traced.call_time:.3f} s minus untraced"
                            f" {untraced.call_time:.3f} s",
    }
    if is_sweep:
        notes["search.parent_cpu_s"] = f"untraced pass at {workload.pool_workers} workers"
        notes["search.pool_speedup"] = "one-worker call time over pool call time"
    return total, metrics, notes


def describe(workload, stats) -> str:
    if workload.kind == "invert":
        return f"{workload.ops_per_pass} inversions per pass, largest entry {workload.max_digits} digits"
    records = stats.get("records", 0) or 1
    return (f"{workload.ops_per_pass} records per pass in {len(workload.units)} calls,"
            f" largest entry {stats.get('max_digits', 0)}"
            f" digits, skipped {stats.get('skipped', 0) / records:.1%},"
            f" truncated {stats.get('truncated', 0) / records:.1%}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="reduced inputs, for the self-check")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "npcuboid" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'npcuboid'}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    table = metric_tables()[args.trace]
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        api, workload, setup_times = set_up(args.workload, args.seed, tmp, args.tiny,
                                            SETUP_SHARE * args.seconds)
        if args.trace:
            tally, metrics, notes = trace(api, workload, table)
        else:
            tally, metrics, notes = measure(api, workload, args.seconds, setup_times)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} tiny={args.tiny}"
          f" python={platform.python_version()} nproc={os.cpu_count()}")
    print(f"  {describe(workload, tally.stats or {})}")
    for name, unit in table:
        note = notes.get(name, "")
        print(f"  {name:<44} {metrics[name]:>16.6g} {unit:<6} {note}".rstrip())
    ratio = tally.failed / tally.attempted if tally.attempted else 0
    print(f"  {'failed_ratio':<44} {ratio:>16.6g} {'ratio':<6}"
          f" {tally.failed} of {tally.attempted} attempted, {tally.wrong} failed checks")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
