"""Run the benchmark over sets of seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads sweep invert --seeds 10
        [--sets 2] [--first-seed 0] [--seconds N] [--trace 0] [--out results.json]

Set s of a workload runs the seeds first-seed + s * seeds + i for i below
--seeds. The runs interleave: for each i, every workload runs once per set,
and the order of the sets alternates with i, so a change in the host's speed
falls on every set alike. Each run has its own interpreter. --seconds
defaults to run_seconds from BENCHMARK.json.

The spread of a set is the distance between the first and the third quartile
of its runs, as ``statistics.quantiles(values, n=4)`` gives them, as a share
of the median. The move of a later set is how much worse its median is than
that of the first set, as a share of the first (negative when better). Both
are printed next to the metric's bound from BENCHMARK.json. Each run also
records the host's steal time during it, from /proc/stat where that exists.
With --out, everything is written to that JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to others so far, summed over CPUs."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    before = steal_seconds()
    done = subprocess.run(command, capture_output=True, text=True, timeout=600, check=True)
    after = steal_seconds()
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["steal_s"] = None if before is None else round(after - before, 2)
    result["report"] = [line.strip() for line in lines[:-1]]
    return result


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": first["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return summary


def move(name: str, first: float, later: float) -> float | None:
    """How much worse later is than first, as a share of first."""
    if not first:
        return None
    worse = later - first if BOUNDS[name]["better"] == "lower" else first - later
    return worse / first


def report(workload: str, sets: list[dict]) -> None:
    print(f"{workload}:")
    for name, entry in sets[0]["summary"].items():
        bound = BOUNDS.get(name, {}).get("bound")
        cells = []
        for index, one in enumerate(sets):
            this = one["summary"][name]
            spread = "n/a" if this["spread"] is None else f"{this['spread']:.3f}"
            cell = f"median {this['median']:.6g} spread {spread}"
            if index and bound is not None:
                shift = move(name, entry["median"], this["median"])
                cell += " move n/a" if shift is None else f" move {shift:+.3f}"
            cells.append(cell)
        limit = "" if bound is None else f"  (bound {bound})"
        print(f"  {name:<44} {entry['unit']:<6} " + " | ".join(cells) + limit)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    for i in range(args.seeds):
        order = list(range(args.sets))[::1 if i % 2 == 0 else -1]
        for workload in args.workloads:
            for s in order:
                seed = args.first_seed + s * args.seeds + i
                result = run_once(workload, seed, args.seconds, args.trace)
                runs[workload][s].append(result)
                print(f"{workload} set {s + 1} seed {seed}: correct={result['correct']}"
                      f" failed={result['failed']}/{result['attempted']}"
                      f" steal={result['steal_s']}s " + " ".join(
                          f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                          if "." not in k), flush=True)
    out = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload, sets in runs.items():
        out["workloads"][workload] = [{"summary": summarize(r), "runs": r} for r in sets]
        report(workload, out["workloads"][workload])
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
