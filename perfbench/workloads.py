"""Seeded inputs and output checks for the benchmark's two workloads.

Each workload's pass holds two input sets that stress the same layers in
different ways; the traced run's per-layer metrics tell them apart.

sweep   ``search`` at one worker, in 25 calls per pass:
        deep  the four packaged seeds, max_multiple 17, all five
              parametrizations, no record truncated: long point chains, so
              the group law and ``build_npc`` do the work. One call per seed
              and parametrization.
        wide  100 curves from primitive Pythagorean triangles (u < 60),
              max_multiple 5, default height limit: many short chains, so
              per-task work weighs more, with skip and truncated records.
              One call per parametrization over all 100 curves.
        The traced run adds a pass at two workers for the process pool's
        cost.
invert  ``invert``, one call per cuboid, 97 per pass:
        seed  cuboids of 90-600 digits (invariant family: 90-260) built
              from the packaged seeds: Miller-Rabin on large cofactors.
        bigN  (k, m) = (1, 3), first and second families, on curves from
              triangles with 5000 <= u < 20000 whose N has a prime factor
              between 10^4 and 10^6: every kernel extraction passes the 10^4
              trial stage and the perfect-power loop and trial-divides to
              10^6. The invariant family is left out: its eight extractions
              take 1.2-3.6 s per inversion here, and it runs on the seed set.

The seed shapes the inputs without changing their cost. Every input set is
a fixed set of curves or cuboids in an order the seed shuffles: one
inversion can cost ten times another of the same size, and one sweep chain
ten times another, so a subset drawn by the seed would move throughput
across seeds by more than any useful bound. The wide set takes 100 curves
evenly spaced along the triangle list. A sweep canonicalises the order of
its job, so each call's record stream is the same for every seed and is
checked against a SHA-256 per unit and size, pinned in ``digests.json``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

NAMES = ("sweep", "invert")
FAMILIES = ("invariant", "first", "second")
PINNED_DIGESTS = Path(__file__).with_name("digests.json")

# Full size, then the reduced size the harness self-check runs.
DEEP_MAX_MULTIPLE = (17, 5)
WIDE_CURVES = ((100, 60, 5), (5, 12, 3))  # curves, u bound, max_multiple
SEED_DIGITS = (
    {"invariant": (90, 260), "first": (90, 600), "second": (90, 600)},
    {"invariant": (20, 60), "first": (20, 80), "second": (20, 80)},
)
BIGN_CASES = ((10, 5000, 20000), (2, 5000, 6000))  # cases, u range
BIGN_FAMILIES = ("first", "second")
SWEEP_POOL_WORKERS = 2  # of the traced run's extra pass
SMALL_TRIAL_BOUND = 10**4  # the package's first trial-division stage
# The invert_bigN curves are one fixed draw; the run seed only orders them.
BIGN_DRAW = 20121211


@dataclass
class Result:
    """Outcome of one call: operations attempted, failed, failed checks."""

    attempted: int
    failed: int = 0
    wrong: int = 0
    stats: Counter = field(default_factory=Counter)


@dataclass
class Call:
    argv: list[str]
    check: Callable[[int, str], Result]  # (exit code, captured stdout)


def squarefree_part(n: int) -> int:
    """Squarefree part of a small positive integer, by trial division."""
    out, p = 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            out *= p
        p += 1
    return out * n


def largest_prime_factor(n: int) -> int:
    p, largest = 2, 1
    while p * p <= n:
        while n % p == 0:
            n //= p
            largest = p
        p += 1
    return max(largest, n)


def max_digits(cuboid) -> int:
    return max(len(str(int(v))) for v in cuboid.rational_entries())


def triangle_point(api, u: int, v: int):
    """Point (c^2/4, c(b^2 - a^2)/8) on the curve N = ab/2 of the triangle
    with legs a = u^2 - v^2, b = 2uv and hypotenuse c."""
    a, b, c = u * u - v * v, 2 * u * v, u * u + v * v
    point = api.curve.CongruentCurve(a * b // 2).point(
        Fraction(c * c, 4), Fraction(c * (b * b - a * a), 8)
    )
    if not point.on_curve():
        raise AssertionError(f"triangle ({u}, {v}) gave no curve point")
    return point


def triangle_kernel(u: int, v: int) -> int:
    # N = uv(u - v)(u + v) with pairwise coprime factors for a primitive triangle.
    return (
        squarefree_part(u) * squarefree_part(v)
        * squarefree_part(u - v) * squarefree_part(u + v)
    )


def primitive_triangles(u_bound: int) -> list[tuple[int, int]]:
    """(u, v) of primitive triangles with u < u_bound, one per curve N."""
    seen, out = set(), []
    for u in range(2, u_bound):
        for v in range(1, u):
            n = u * v * (u * u - v * v)
            if (u - v) % 2 and gcd(u, v) == 1 and n not in seen:
                seen.add(n)
                out.append((u, v))
    return out


@dataclass
class SweepSet:
    """One input set of a sweep: a job, cut into calls."""

    label: str
    seeds: list
    max_multiple: int
    height_limit: int | None
    split_seeds: bool  # one call per seed and parametrization, else per parametrization


class Sweep:
    """One ``search`` call per unit of a job; an operation is one JSONL record.

    A unit is one parametrization over every seed of a set, or over a single
    seed with ``split_seeds``. Tasks are independent, so the units of a set
    do the work of one whole-job call. Short calls let each unit's best time
    over a run miss more of the host's slow spells.
    """

    kind = "sweep"

    def __init__(self, api, sets: list[SweepSet], tmp, rng, pins):
        self.api, self.pins = api, pins
        self.pool_workers = SWEEP_POOL_WORKERS
        self.out_path = tmp / "sweep.out.jsonl"
        params = list(api.cuboids.PARAMETRIZATIONS)
        units = []
        for one in sets:
            # Seeds and units come in a seeded order, which the sweep must
            # canonicalise: a unit's record stream may not depend on it.
            seeds = list(one.seeds)
            rng.shuffle(seeds)
            groups = [[s] for s in seeds] if one.split_seeds else [seeds]
            units += [(one, group, param) for group in groups for param in params]
        rng.shuffle(units)
        self.units = []  # (key, job path, records per call)
        for one, group, param in units:
            key = f"{one.label}.N{group[0].curve.N}.{param}" if one.split_seeds \
                else f"{one.label}.{param}"
            job = {
                "seeds": [api.curve.point_to_json(p) for p in group],
                "max_multiple": one.max_multiple,
                "parametrizations": [param],
            }
            if one.height_limit:
                job["height_limit"] = one.height_limit
            job_path = tmp / f"{key}.job.json"
            job_path.write_text(json.dumps(job))
            pairs = one.max_multiple * (one.max_multiple - 1) // 2
            self.units.append((key, job_path, len(group) * pairs))
        self.ops_per_pass = sum(records for _, _, records in self.units)

    def calls(self, workers: int = 1) -> list[Call]:
        return [
            Call(["search", str(job_path), "--out", str(self.out_path), "--workers", str(workers)],
                 functools.partial(self.check, key, records))
            for key, job_path, records in self.units
        ]

    def unit_digests(self) -> dict[str, str]:
        """Digest of each unit's record stream from a one-worker library run, to pin."""
        search, digests = self.api.search, {}
        for key, job_path, _ in self.units:
            job = search.job_from_json(json.loads(job_path.read_text()))
            digest = hashlib.sha256()
            search.write_records(search.run_search(job, workers=1), _HashingStream(digest))
            digests[key] = digest.hexdigest()
        return digests

    def check(self, key: str, records: int, code: int, _stdout: str) -> Result:
        result = Result(records)
        if code != 0:
            result.failed = records
            return result
        digest = hashlib.sha256()
        with open(self.out_path, "rb") as stream:
            for line in stream:
                digest.update(line)
                result.stats["records"] += 1
                result.wrong += not self._record_ok(line, result.stats)
        result.stats["bytes"] = self.out_path.stat().st_size
        if result.stats["records"] != records or digest.hexdigest() != self.pins.get(key):
            result.wrong = records  # the stream as a whole is wrong
        result.failed = result.wrong
        return result

    def _record_ok(self, line: bytes, stats: Counter) -> bool:
        cuboids = self.api.cuboids
        try:
            record = json.loads(line)
            stats["max_digits"] = max(stats["max_digits"], record.get("digits", 0))
            if "skipped" in record:
                stats["skipped"] += 1
                return True
            if record.get("truncated"):
                stats["truncated"] += 1
                return True
            cuboid = cuboids.cuboid_from_json(record["cuboid"])
            return not cuboids.verify_npc(cuboid) and record["pc"] == cuboids.pc_condition(cuboid)
        except (ValueError, KeyError, TypeError, AttributeError):
            return False


class _HashingStream:
    def __init__(self, digest):
        self.digest = digest

    def write(self, text: str) -> None:
        self.digest.update(text.encode())


@dataclass(frozen=True)
class Case:
    family: str
    cuboid: object
    kernel: int  # the squarefree kernel of the source curve's N
    argv: tuple[str, ...]


def invert_case(api, family: str, cuboid, kernel: int) -> Case:
    values = {"a": cuboid.a, "b": cuboid.b, "c": cuboid.c,
              "dac": cuboid.d_ac, "dbc": cuboid.d_bc, "ds": cuboid.d_s}
    argv = ["invert", "--family", family]
    for flag, value in values.items():
        argv += [f"--{flag}", api.rationals.format_rational(value)]
    return Case(family, cuboid, kernel, tuple(argv))


class Invert:
    """One ``invert`` call per cuboid; an operation is one inversion."""

    kind = "invert"

    def __init__(self, api, cases: list[Case], rng):
        self.api = api
        by_family = [[c for c in cases if c.family == f] for f in FAMILIES]
        for group in by_family:
            rng.shuffle(group)
        # Rotate through the families in a seeded order within each family.
        self.cases = [
            group[i] for i in range(max(map(len, by_family)))
            for group in by_family if i < len(group)
        ]
        self.ops_per_pass = len(self.cases)
        self.max_digits = max(max_digits(c.cuboid) for c in self.cases)

    def calls(self) -> list[Call]:
        return [Call(list(c.argv), functools.partial(self.check, c)) for c in self.cases]

    def check(self, case: Case, code: int, stdout: str) -> Result:
        result = Result(1)
        if code != 0:
            result.failed = 1
            return result
        try:
            payload = json.loads(stdout)
            ok = payload["N"] == case.kernel and self._rebuilt(payload, case.family) == case.cuboid
        except (ValueError, KeyError, TypeError, StopIteration, self.api.errors.NpcuboidError):
            ok = False
        result.failed = result.wrong = int(not ok)
        return result

    def _rebuilt(self, payload: dict, family: str):
        """Pair I of the output pushed back through the family's construction."""
        api = self.api
        curve = api.curve.CongruentCurve(payload["N"])
        entry = next(e for e in payload["pairs"] if e["which"] == "I")
        points = []
        for key in ("X", "Z"):
            x = api.rationals.parse_rational(entry[key])
            points.append(curve.point(x, api.rationals.sqrt_exact(curve.rhs(x))))
        return api.cuboids.build_npc(api.curve.SolutionPair(*points), family)


def _seed_cases(api, digit_ranges) -> list[Case]:
    """Cuboids of the pairs (kP, (k+2)P) on each packaged seed, in range."""
    cases = []
    for point in api.curve.load_seeds():
        kernel = squarefree_part(point.curve.N)
        open_families, k = set(FAMILIES), 1
        while open_families:
            pair = api.curve.same_parity_pair(point, k, k + 2)
            for family in FAMILIES:
                if family not in open_families:
                    continue
                cuboid = api.cuboids.build_npc(pair, family)
                low, high = digit_ranges[family]
                digits = max_digits(cuboid)
                if digits > high:
                    open_families.discard(family)
                elif digits >= low:
                    cases.append(invert_case(api, family, cuboid, kernel))
            k += 1
    return cases


def _big_n_cases(api, count, u_low, u_high) -> list[Case]:
    draw, seen, cases = random.Random(BIGN_DRAW), set(), []
    while len(cases) < count:
        u = draw.randrange(u_low, u_high)
        v = draw.randrange(1, u)
        if (u - v) % 2 == 0 or gcd(u, v) != 1 or u * v * (u * u - v * v) in seen:
            continue
        kernel = triangle_kernel(u, v)
        if largest_prime_factor(kernel) <= SMALL_TRIAL_BOUND:
            continue
        seen.add(u * v * (u * u - v * v))
        family = BIGN_FAMILIES[len(cases) % len(BIGN_FAMILIES)]
        pair = api.curve.same_parity_pair(triangle_point(api, u, v), 1, 3)
        cases.append(invert_case(api, family, api.cuboids.build_npc(pair, family), kernel))
    return cases


def pinned_digests(name: str, tiny: bool) -> dict[str, str]:
    """The sweep's pinned stream digest of each unit; empty if never pinned."""
    pins = json.loads(PINNED_DIGESTS.read_text()).get(name, {})
    return pins.get("tiny" if tiny else "full", {})


def build(name: str, seed: int, api, tmp: Path, tiny: bool = False):
    """The workload's inputs for one seed, written under tmp where needed."""
    rng = random.Random(seed)
    size = 1 if tiny else 0
    if name == "sweep":
        curves, u_bound, max_multiple = WIDE_CURVES[size]
        triangles = primitive_triangles(u_bound)
        width = len(triangles) / curves
        sets = [
            SweepSet("deep", api.curve.load_seeds(), DEEP_MAX_MULTIPLE[size],
                     height_limit=10**6, split_seeds=True),
            SweepSet("wide", [triangle_point(api, *triangles[int(i * width)])
                              for i in range(curves)],
                     max_multiple, height_limit=None, split_seeds=False),
        ]
        return Sweep(api, sets, tmp, rng, pinned_digests(name, tiny))
    if name == "invert":
        cases = _seed_cases(api, SEED_DIGITS[size]) + _big_n_cases(api, *BIGN_CASES[size])
        return Invert(api, cases, rng)
    raise ValueError(f"unknown workload {name!r}")
