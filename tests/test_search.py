import concurrent.futures
import dataclasses
import hashlib
import io
import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import npcuboid.cuboids as cuboids_module
import npcuboid.curve as curve_module
import npcuboid.search as search
from npcuboid import (
    PARAMETRIZATIONS,
    CongruentCurve,
    CurvePoint,
    DegeneratePair,
    InvalidSeed,
    SquareCheckFailed,
    build_npc,
    cuboid_from_json,
    cuboid_to_json,
    load_seeds,
    pc_condition,
    recover_first,
    recover_invariant,
    recover_second,
    same_parity_pair,
    squarefree_kernel,
    verify_npc,
)
from npcuboid.rationals import is_square_int
from npcuboid.search import (
    SearchJob,
    drop_torn_tail,
    job_from_json,
    last_record_key,
    run_search,
    task_key,
    write_records,
)

from helpers import point_above, reference_chain, reference_elements, triangle_seeds


def render(job, workers=1, skip_through=None):
    buffer = io.StringIO()
    write_records(run_search(job, workers=workers, skip_through=skip_through), buffer)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def small_job():
    seeds = tuple(s for s in load_seeds() if s.curve.N in (5, 6))
    return SearchJob(
        seeds=seeds,
        max_multiple=4,
        parity="both",
        parametrizations=("invariant", "first"),
        height_limit=1000,
    )


class TestDeterminism:
    def test_single_and_multi_worker_outputs_are_byte_identical(self, small_job):
        assert render(small_job, workers=1) == render(small_job, workers=4)

    def test_repeated_runs_are_byte_identical(self, small_job):
        assert render(small_job) == render(small_job)

    def test_records_are_sorted_by_task_key(self, small_job):
        records = [json.loads(line) for line in render(small_job).splitlines()]
        keys = [task_key(r) for r in records]
        assert keys == sorted(keys)


@pytest.fixture(scope="module")
def nine_seed_job():
    """The packaged seeds plus points of triangle curves: more seeds than the 8 CPUs faked below."""
    seeds = load_seeds()
    for u, v in ((3, 2), (4, 1), (4, 3), (5, 2), (5, 4)):
        a, b, c = u * u - v * v, 2 * u * v, u * u + v * v
        seeds.append(point_above(CongruentCurve(a * b // 2), Fraction(c * c, 4)))
    return SearchJob(seeds=tuple(seeds), max_multiple=2)


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace the process pool by one that maps in this process.

    Returns the pool sizes asked for and the pickled size of each mapped unit.
    """
    log = {"sizes": [], "unit_bytes": []}

    class SerialPool:
        def __init__(self, max_workers, **options):
            log["sizes"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            log["unit_bytes"].append(len(pickle.dumps(fn)))
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return log


class TestWorkerCap:
    @pytest.mark.parametrize("cpus, expected", [(8, [8]), (2, [2]), (None, [])])
    def test_pool_size_is_capped_at_cpu_count(
        self, nine_seed_job, serial_pool, monkeypatch, cpus, expected
    ):
        serial = render(nine_seed_job)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert render(nine_seed_job, workers=64) == serial
        assert serial_pool["sizes"] == expected

    def test_seed_units_do_not_grow_with_the_seed_count(
        self, nine_seed_job, serial_pool, monkeypatch
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        two_seed_job = dataclasses.replace(nine_seed_job, seeds=nine_seed_job.seeds[:2])
        render(two_seed_job, workers=2)
        render(nine_seed_job, workers=2)
        assert serial_pool["sizes"] == [2, 2]
        two_seeds, nine_seeds = serial_pool["unit_bytes"]
        assert nine_seeds == two_seeds

    def test_one_seed_job_runs_in_one_process(self, monkeypatch):
        seeds = tuple(s for s in load_seeds() if s.curve.N == 5)
        job = SearchJob(seeds=seeds, max_multiple=3, parametrizations=("invariant",))

        def no_pool(max_workers):
            raise AssertionError("a one-seed job must not start a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert render(job, workers=4) == render(job)

    def test_cli_import_loads_no_process_pool(self):
        # Only a sweep at two or more workers needs multiprocessing; every
        # other command would pay its import time and memory.
        env = {**os.environ, "PYTHONPATH": str(Path(search.__file__).parents[1])}
        probe = "import sys, npcuboid.cli; print('multiprocessing' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits")
        or "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="needs the int <-> str digit limit and the forkserver start method",
    )
    def test_forkserver_workers_keep_the_callers_digit_limit(self, monkeypatch):
        # At max_multiple 66 the N = 34 seed has abscissae past the default
        # 4300-digit limit, which the emitted records' sources write as text
        # (the digit counts need none). Forkserver workers do not inherit a
        # lifted limit from the parent's memory; the pool must hand it over.
        seeds = tuple(s for s in load_seeds() if s.curve.N in (6, 34))
        job = SearchJob(
            seeds=seeds, max_multiple=66, parity="even", parametrizations=("invariant",),
            height_limit=10**6,
        )
        forkserver = partial(
            concurrent.futures.ProcessPoolExecutor,
            mp_context=multiprocessing.get_context("forkserver"),
        )
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forkserver)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            records = list(run_search(job, workers=2))
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(records) == 2 * 528
        abscissae = (r["cuboid"]["source"]["Z"] for r in records if "cuboid" in r)
        assert max(len(text.partition("/")[0]) for text in abscissae) > 4300


class TestSeedChain:
    def test_chain_entries_match_mul(self, seeds):
        # The elements of P, ..., 17P and of their second reflections against
        # the Fraction chain that successive additions built, and against mul.
        for seed in seeds:
            n, chain = seed.curve.N, reference_chain(seed, 17)
            assert chain == [seed.mul(k) for k in range(1, 18)]
            multiples = curve_module._multiples(seed, 17)
            assert multiples == reference_elements(chain)
            images = [
                curve_module._secant_element(n, n, e, j) for j, e in enumerate(multiples, 1)
            ]
            assert images == reference_elements(p.reflect_second() for p in chain)

    @pytest.mark.parametrize("j", [2, 3])
    def test_chains_of_multiple_seeds_match_the_reference(self, seeds, j):
        # Seeds jP have larger denominators d than the packaged seeds (d = 1).
        for seed in seeds:
            base = seed.mul(j)
            assert curve_module._multiples(base, 8) == reference_elements(
                reference_chain(base, 8)
            )

    @pytest.mark.parametrize("parity", ["both", "odd", "even"])
    def test_each_seed_chain_is_built_once(self, seeds, monkeypatch, parity):
        adds, muls, chains = [], [], []
        add, mul, multiples = CurvePoint.add, CurvePoint.mul, search._multiples

        def counting_add(self, other):
            adds.append(self.curve.N)
            return add(self, other)

        def counting_mul(self, k):
            muls.append(k)
            return mul(self, k)

        def counting_multiples(seed, length):
            chains.append(seed.curve.N)
            return multiples(seed, length)

        monkeypatch.setattr(CurvePoint, "add", counting_add)
        monkeypatch.setattr(CurvePoint, "mul", counting_mul)
        monkeypatch.setattr(search, "_multiples", counting_multiples)
        job = SearchJob(seeds=tuple(seeds), max_multiple=7, parity=parity)
        records = list(run_search(job))
        assert records and any("cuboid" in r for r in records)
        # The chain is integer elements only: no point is added or multiplied.
        assert muls == [] and adds == []
        assert chains == [seed.curve.N for seed in seeds]

    @pytest.mark.parametrize(
        "parametrizations, reflections",
        [(("invariant", "first_reflected", "second_reflected"), 7), (("first", "second"), 0)],
    )
    def test_each_chain_element_is_reflected_once(
        self, seeds, monkeypatch, parametrizations, reflections
    ):
        calls, points = [], []
        secant_element, reflect_second = search._secant_element, CurvePoint.reflect_second

        def counting_secant_element(n, e, element, j=0):
            calls.append((n, e))
            return secant_element(n, e, element, j)

        def counting_reflect_second(self):
            points.append(self.curve.N)
            return reflect_second(self)

        monkeypatch.setattr(search, "_secant_element", counting_secant_element)
        monkeypatch.setattr(CurvePoint, "reflect_second", counting_reflect_second)
        job = SearchJob(seeds=tuple(seeds), max_multiple=7, parametrizations=parametrizations)
        records = list(run_search(job))
        assert sum("cuboid" in r for r in records) >= 8 * len(seeds)
        assert points == []
        for seed in seeds:
            assert calls.count((seed.curve.N, seed.curve.N)) == reflections

    @pytest.mark.parametrize("j", [2, 3])
    def test_multiple_seed_emits_the_cuboids_of_the_multiplied_pair(self, seeds, j):
        # An oracle independent of the chain: the seed jP at (k, m) is the
        # pair (jkP, jmP), so each of its cuboids is the seed P's at
        # (jk, jm), source included. The two chains share no element after
        # the first. No record is truncated at this height limit.
        for seed in seeds:
            multiple = SearchJob(seeds=(seed.mul(j),), max_multiple=5, height_limit=2000)
            base = SearchJob(seeds=(seed,), max_multiple=5 * j, height_limit=2000)
            of_base = {(r["k"], r["m"], r["parametrization"]): r for r in run_search(base)}
            emitted = [r for r in run_search(multiple) if "cuboid" in r]
            # The four same-parity pairs of 1..5 in each parametrization.
            assert len(emitted) == 4 * len(PARAMETRIZATIONS)
            for record in emitted:
                expected = of_base[(j * record["k"], j * record["m"], record["parametrization"])]
                for field in ("digits", "pc", "cuboid"):
                    assert record[field] == expected[field], record


class TestTranslateChains:
    """The chain the sweep builds for a 2-torsion translate T = (tN, 0): the
    elements of -(jP + T), each with its class root. T = (N, 0) is the one the
    reflected parametrizations name today; (0, 0) and (-N, 0) multiply the
    square class of x by -1 and -N as (N, 0) multiplies it by N."""

    @pytest.mark.parametrize("t", [0, 1, -1], ids=["T=(0,0)", "T=(N,0)", "T=(-N,0)"])
    def test_chain_of_translates_against_the_group_law(self, seeds, t):
        for seed in list(seeds) + list(triangle_seeds(8)):
            n = seed.curve.N
            # _chain_elements raises SquareCheckFailed on an element outside
            # the square class of the first translate of its parity.
            chain = search._translate_chain(n, curve_module._multiples(seed, 12), t)
            assert len(chain) == 12
            for a, d, b, r, c in chain:
                assert r * r == a * c and r >= 0
            translate = seed.curve.point(t * n, 0)
            for j in (1, 2, 5):
                expected = seed.mul(j).add(translate).neg()
                assert chain[j - 1][:3] == curve_module._integer_coordinates(expected), (seed, j)
                assert chain[j - 1][4] == chain[(j - 1) % 2][0]


class TestRecordsMatchThePublicBuild:
    """The sweep builds each record from the integer core of build_npc and
    the payload builder of cuboid_to_json: every record must equal what the
    public calls give for its pair."""

    @pytest.mark.parametrize(
        "seeds, max_multiple",
        [(tuple(load_seeds()), 9), (triangle_seeds(20), 5)],
        ids=["packaged-seeds", "triangle-curves"],
    )
    def test_every_record_equals_the_public_build(self, seeds, max_multiple):
        job = SearchJob(seeds=seeds, max_multiple=max_multiple)
        assert job.parametrizations == PARAMETRIZATIONS
        seed_of = {seed.curve.N: seed for seed in seeds}
        emitted = 0
        for record in run_search(job):
            try:
                pair = same_parity_pair(seed_of[record["N"]], record["k"], record["m"])
                cuboid = build_npc(pair, record["parametrization"])
            except DegeneratePair as exc:
                assert record["skipped"] == str(exc)
                continue
            assert "skipped" not in record
            digits = max(len(str(int(v))) for v in cuboid.rational_entries())
            assert record["digits"] == digits
            if digits > job.height_limit:
                assert record["truncated"] is True and "cuboid" not in record
                continue
            payload = cuboid_to_json(cuboid)
            assert record["cuboid"] == payload and list(record["cuboid"]) == list(payload)
            assert record["pc"] is pc_condition(cuboid)
            emitted += 1
        assert emitted > 0


class TestOnlyParitySkips:
    @pytest.mark.parametrize(
        "seeds, max_multiple",
        [(tuple(load_seeds()), 17), (triangle_seeds(20), 6)],
        ids=["packaged-seeds", "triangle-curves"],
    )
    def test_a_sweep_skips_only_mixed_parity(self, seeds, max_multiple):
        # Every equal-parity pair of a nontrivial seed's multiples is a
        # solution pair, so no build of the sweep fails: a record is skipped
        # for mixed parity and for nothing else.
        records = list(run_search(SearchJob(seeds=seeds, max_multiple=max_multiple)))
        for record in records:
            k, m = record["k"], record["m"]
            if (k - m) % 2:
                assert record["skipped"] == f"multipliers {k} and {m} have different parity"
            else:
                assert "skipped" not in record and record["digits"] > 0
        assert any("skipped" in record for record in records)


class TestRecordContents:
    def test_emitted_cuboids_verify_and_are_not_perfect(self, small_job):
        records = [json.loads(line) for line in render(small_job).splitlines()]
        emitted = [r for r in records if "cuboid" in r]
        assert len(emitted) >= 8
        for record in emitted:
            cuboid = cuboid_from_json(record["cuboid"])
            assert verify_npc(cuboid) == []
            assert record["pc"] == pc_condition(cuboid)
            assert record["digits"] == max(
                len(str(int(v))) for v in cuboid.rational_entries()
            )

    def test_mixed_parity_combos_become_skip_records(self, small_job):
        records = [json.loads(line) for line in render(small_job).splitlines()]
        skips = [r for r in records if "skipped" in r]
        assert skips and all((r["k"] - r["m"]) % 2 == 1 for r in skips)

    def test_max_multiple_two_gives_only_skip_records(self):
        seeds = tuple(s for s in load_seeds() if s.curve.N == 5)
        job = SearchJob(seeds=seeds, max_multiple=2, parametrizations=("invariant",))
        records = [json.loads(line) for line in render(job).splitlines()]
        assert records and all("skipped" in r for r in records)

    def test_height_limit_truncates(self):
        seeds = tuple(s for s in load_seeds() if s.curve.N == 5)
        job = SearchJob(
            seeds=seeds, max_multiple=3, parametrizations=("invariant",), height_limit=1
        )
        records = [json.loads(line) for line in render(job).splitlines()]
        truncated = [r for r in records if r.get("truncated")]
        assert truncated
        for record in truncated:
            assert "cuboid" not in record and "pc" not in record
            assert record["digits"] > 1

    def test_library_run_needs_no_raised_digit_limit(self):
        # At max_multiple 80 the N = 34 seed's entries reach 13,625 digits
        # and its abscissae 6,985, past the default limit of 4300 digits on
        # int <-> str conversion. Records beyond the height limit carry only
        # their digit count, so run_search as a library completes at that
        # limit, and each count is d_s's length, checked against powers of
        # ten with no str.
        seed = next(s for s in load_seeds() if s.curve.N == 34)
        job = SearchJob(
            seeds=(seed,), max_multiple=80, parametrizations=("invariant",), height_limit=200
        )
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            records = list(run_search(job))
        finally:
            sys.set_int_max_str_digits(limit)
        built = [r for r in records if "digits" in r]
        assert len(records) == 3160 and len(built) == 1560
        truncated = [r for r in built if r.get("truncated")]
        assert truncated == [r for r in built if r["digits"] > 200]
        assert all("cuboid" in r for r in built if r["digits"] <= 200)
        deepest = max(truncated, key=lambda r: r["digits"])
        assert deepest["digits"] > 4300
        elements = curve_module._chain_elements(curve_module._multiples(seed, 80))
        for record in truncated[::50] + [deepest]:
            first, second = elements[record["k"] - 1], elements[record["m"] - 1]
            d_s = search._npc_entries(34, first, second, "third")[5]
            assert 10 ** (record["digits"] - 1) <= d_s < 10 ** record["digits"]

    def test_parity_classes_restrict_enumeration(self):
        seeds = tuple(s for s in load_seeds() if s.curve.N == 5)
        for parity, keep in (("odd", {1, 3, 5}), ("even", {2, 4})):
            job = SearchJob(
                seeds=seeds, max_multiple=5, parity=parity, parametrizations=("invariant",)
            )
            records = [json.loads(line) for line in render(job).splitlines()]
            assert records
            for record in records:
                assert {record["k"], record["m"]} <= keep

    def test_height_growth_telemetry(self, small_job):
        # Digit counts look monotone in m for fixed (N, k), but nothing
        # guarantees it; log exceptions instead of failing on them.
        records = [json.loads(line) for line in render(small_job).splitlines()]
        by_base = {}
        for record in records:
            if record.get("parametrization") == "invariant" and "digits" in record:
                by_base.setdefault((record["N"], record["k"]), []).append(
                    (record["m"], record["digits"])
                )
        assert by_base
        for (n, k), entries in sorted(by_base.items()):
            digit_run = [d for _, d in sorted(entries)]
            if digit_run != sorted(digit_run):
                print(f"note: non-monotone height growth on N={n}, k={k}: {digit_run}")


class TestResume:
    # small_job has 12 records per seed: cut 12 lands on the seed boundary,
    # the others inside a seed.
    @pytest.mark.parametrize("cut", [1, 5, 12, 13, 19, 23])
    def test_resume_completes_an_interrupted_run(self, small_job, tmp_path, cut):
        full = render(small_job)
        lines = full.splitlines(keepends=True)
        partial_path = tmp_path / "out.jsonl"
        partial_path.write_text("".join(lines[:cut]))

        key = last_record_key(partial_path)
        assert key == task_key(json.loads(lines[cut - 1]))
        with open(partial_path, "a") as stream:
            write_records(run_search(small_job, skip_through=key), stream)
        assert partial_path.read_text() == full

    def test_torn_final_line_is_ignored(self, small_job, tmp_path):
        full = render(small_job).splitlines(keepends=True)
        path = tmp_path / "out.jsonl"
        path.write_text("".join(full[:3]) + '{"N":5,"k":2,"m"')
        assert last_record_key(path) == task_key(json.loads(full[2]))

    def test_tail_reads_are_bounded_by_the_last_line(self, small_job, tmp_path):
        # Over 10 MB of records: resuming reads back from the end of the
        # file, so memory does not grow with the output.
        lines = render(small_job).splitlines(keepends=True)
        block = "".join(lines).encode()
        path = tmp_path / "big.jsonl"
        with open(path, "wb") as stream:
            for _ in range(10 * 2**20 // len(block) + 1):
                stream.write(block)
            stream.write(b'{"N":5,"k":2,"m"')
        assert path.stat().st_size >= 10 * 2**20
        tracemalloc.start()
        try:
            key = last_record_key(path)
            drop_torn_tail(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert key == task_key(json.loads(lines[-1]))
        assert peak < 2**20
        assert path.stat().st_size % len(block) == 0

    def test_file_without_a_complete_line_has_no_key(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text('{"N":5,"k"')
        assert last_record_key(path) is None
        drop_torn_tail(path)
        assert path.read_bytes() == b""
        assert last_record_key(path) is None

    @pytest.mark.parametrize(
        "line",
        [
            "[1]",
            '{"N":5,"k":1,"m":3,"parametrization":"fourth"}',
            '{"N":"5","k":1,"m":3,"parametrization":"first"}',
            "not json",
            "",
        ],
    )
    def test_last_line_that_is_not_a_record_is_rejected(self, small_job, tmp_path, line):
        path = tmp_path / "out.jsonl"
        path.write_text(render(small_job) + line + "\n")
        with pytest.raises(ValueError, match="not a sweep record"):
            last_record_key(path)


def packaged_pin_job():
    return SearchJob(seeds=tuple(load_seeds()), max_multiple=9)


def triangle_pin_job():
    return SearchJob(seeds=triangle_seeds(20), max_multiple=5)


class TestStreamPins:
    """SHA-256 of whole record streams, pinned when cuboids were still built
    with Fraction arithmetic: any change to the construction, the record
    schema or the enumeration order shows here."""

    def test_packaged_seeds_every_parametrization(self):
        job = packaged_pin_job()
        text = render(job)
        assert len(text.splitlines()) == 4 * 36 * 5
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "693ff3163c78b7baeba6887fe220e0dc83728d6d71910f8b590b1ed3c48006f9"
        )

    def test_triangle_curves_with_skip_and_truncated_records(self):
        job = triangle_pin_job()
        text = render(job)
        records = [json.loads(line) for line in text.splitlines()]
        assert len(records) == 20 * 10 * 5
        assert any("skipped" in r for r in records)
        assert any(r.get("truncated") for r in records)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "208562cc3e8c3d52e30bc02b58c55a01e30d5ef445e0e3596f38d049ab9ebae0"
        )


def compact_line(record):
    return json.dumps(record, separators=(",", ":")) + "\n"


def written_lines(records):
    buffer = io.StringIO()
    count = write_records(records, buffer)
    lines = buffer.getvalue().splitlines(keepends=True)
    assert count == len(lines)
    return lines


# Texts that JSON escapes: quotes, backslashes, control characters and
# non-ASCII, which ensure_ascii writes as \uXXXX escapes (surrogate pairs
# beyond the BMP).
json_texts = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u2028", "é", "\U0001f600"])
json_ints = st.integers() | st.integers(min_value=-(2**2000), max_value=2**2000)


@st.composite
def sweep_records(draw):
    """A record of one of the three shapes run_search yields, with any
    integers and texts in its fields."""
    record = {
        "N": draw(json_ints), "k": draw(json_ints), "m": draw(json_ints),
        "parametrization": draw(json_texts),
    }
    shape = draw(st.sampled_from(["skipped", "truncated", "cuboid"]))
    if shape == "skipped":
        record["skipped"] = draw(json_texts)
        return record
    record["digits"] = draw(json_ints)
    if shape == "truncated":
        record["truncated"] = True
        return record
    record["pc"] = draw(st.booleans())
    entries = {name: draw(json_ints) for name in ("a", "b", "c", "d_ac", "d_bc", "d_s", "d_ab_sq")}
    source = {
        "N": draw(json_ints), "X": draw(json_texts), "Z": draw(json_texts),
        "parametrization": draw(json_texts),
    }
    record["cuboid"] = {**entries, "pc": draw(st.booleans()), "source": source}
    return record


SKIPPED = {"N": 5, "k": 1, "m": 2, "parametrization": "first", "skipped": "why"}
TRUNCATED = {"N": 5, "k": 1, "m": 5, "parametrization": "first", "digits": 42, "truncated": True}
EMITTED = {
    "N": 5, "k": 1, "m": 3, "parametrization": "invariant", "digits": 5, "pc": False,
    "cuboid": {
        "a": 9840, "b": 4557, "c": 3124, "d_ac": 10324, "d_bc": 5525, "d_s": 11285,
        "d_ab_sq": 117591849, "pc": False,
        "source": {"N": 5, "X": "25/4", "Z": "1681/144", "parametrization": "invariant"},
    },
}


def with_cuboid(**fields):
    return {**EMITTED, "cuboid": {**EMITTED["cuboid"], **fields}}


def with_source(**fields):
    return with_cuboid(source={**EMITTED["cuboid"]["source"], **fields})


class TestRecordLines:
    """write_records builds each line from the record's shape; the bytes must
    stay those of json.dumps with compact separators."""

    @pytest.mark.parametrize("make_job", [packaged_pin_job, triangle_pin_job])
    def test_every_pin_record_is_written_as_json_dumps(self, make_job):
        records = list(run_search(make_job()))
        assert written_lines(records) == [compact_line(record) for record in records]

    @given(st.lists(sweep_records(), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_any_texts_and_integers_are_written_as_json_dumps(self, records):
        assert written_lines(records) == [compact_line(record) for record in records]

    @pytest.mark.parametrize("record", [SKIPPED, TRUNCATED, EMITTED])
    def test_each_shape_round_trips(self, record):
        (line,) = written_lines([record])
        assert json.loads(line) == record

    @pytest.mark.parametrize(
        "record",
        [
            {},
            {"N": 5, "k": 1, "m": 2, "parametrization": "first"},
            {**SKIPPED, "extra": 1},
            {"k": 1, "N": 5, "m": 2, "parametrization": "first", "skipped": "why"},
            {**SKIPPED, "N": True},
            {**SKIPPED, "k": 1.0},
            {**SKIPPED, "m": "2"},
            {**SKIPPED, "parametrization": None},
            {**SKIPPED, "skipped": 3},
            {**TRUNCATED, "truncated": False},
            {**TRUNCATED, "digits": Fraction(42)},
            {**EMITTED, "pc": 0},
            {**EMITTED, "cuboid": None},
            with_cuboid(a=Fraction(1, 2)),
            with_cuboid(pc=None),
            {**EMITTED, "cuboid": dict(reversed(EMITTED["cuboid"].items()))},
            with_source(X=Fraction(25, 4)),
            with_source(N="5"),
            with_cuboid(source={"X": "25/4", "Z": "1681/144", "parametrization": "invariant"}),
        ],
    )
    def test_a_foreign_record_raises_value_error_naming_its_keys(self, record):
        stream = io.StringIO()
        with pytest.raises(ValueError, match="not a run_search record") as raised:
            write_records([SKIPPED, record], stream)
        assert all(repr(key)[1:-1] in str(raised.value) for key in record)
        assert stream.getvalue() == compact_line(SKIPPED)

    @pytest.mark.parametrize("make_job", [packaged_pin_job, triangle_pin_job])
    def test_square_test_agrees_with_isqrt_on_every_pin_cuboid(self, make_job):
        emitted = [r for r in run_search(make_job()) if "cuboid" in r]
        assert emitted
        for record in emitted:
            d_ab_sq = record["cuboid"]["d_ab_sq"]
            assert is_square_int(d_ab_sq) is (math.isqrt(d_ab_sq) ** 2 == d_ab_sq)
            assert record["pc"] is is_square_int(d_ab_sq)


RECOVER = {"invariant": recover_invariant, "first": recover_first, "second": recover_second}


class TestInversionCertifiesTheSweep:
    """Every emitted cuboid inverts, by a different code path, to the curve
    and the pair it came from: N' = squarefree_kernel(N), pair I rebuilds
    a, b and c, and the source pair scaled by N'/N is among the recovered
    pairs. A reflected cuboid is built from the second-reflected image of
    the source pair, so that image is the one recovered."""

    @pytest.mark.parametrize("make_job", [packaged_pin_job, triangle_pin_job])
    def test_every_emitted_record_inverts_to_its_source(self, make_job):
        emitted = [r for r in run_search(make_job()) if "cuboid" in r]
        assert emitted
        for record in emitted:
            cuboid = cuboid_from_json(record["cuboid"])
            param = cuboid.source.parametrization
            family = param.removesuffix("_reflected")
            result = RECOVER[family](cuboid)
            n = cuboid.source.N
            assert result.N == squarefree_kernel(n)
            rebuilt = build_npc(result.pair("I"), family)
            assert (rebuilt.a, rebuilt.b, rebuilt.c) == (cuboid.a, cuboid.b, cuboid.c)
            curve = CongruentCurve(n)
            source = [point_above(curve, x) for x in (cuboid.source.X, cuboid.source.Z)]
            if param != family:
                source = [point.reflect_second() for point in source]
            # In either order: a recovered pair may hold (Z, X).
            scale = Fraction(result.N, n)
            recovered = {frozenset((e.pair.P.x, e.pair.Q.x)) for e in result.pairs}
            assert frozenset(p.x * scale for p in source) in recovered, record


class TestOneRootPerChainElement:
    """A sweep takes one x-product root per chain element, and one per
    element of the chain's second-reflected image when a reflected
    parametrization is asked for, and none per pair: every pair reads
    sqrt(XZ) off the class roots of its two elements. Apart from those,
    each element but the seed's takes one root of its content when it is
    reduced."""

    @pytest.mark.parametrize(
        "parametrizations, chains",
        [(("invariant", "first", "second"), 1), (PARAMETRIZATIONS, 2)],
        ids=["unreflected", "with-reflected-images"],
    )
    def test_roots_per_element(self, monkeypatch, parametrizations, chains):
        roots, content_roots, reducing = [], [], []
        reduced = curve_module._reduced

        def counting_isqrt(n):
            (content_roots if reducing else roots).append(n)
            return math.isqrt(n)

        def counting_reduced(*args):
            reducing.append(True)
            try:
                return reduced(*args)
            finally:
                reducing.pop()

        def no_pair_root(*args):
            raise AssertionError("the sweep checked a pair or took its root")

        monkeypatch.setattr(curve_module, "isqrt", counting_isqrt)
        monkeypatch.setattr(curve_module, "_reduced", counting_reduced)
        monkeypatch.setattr(cuboids_module, "_pair_elements", no_pair_root)
        monkeypatch.setattr(curve_module, "_check_pair", no_pair_root)
        job = SearchJob(
            seeds=tuple(load_seeds()), max_multiple=7, parametrizations=parametrizations
        )
        records = list(run_search(job))
        assert sum("cuboid" in r for r in records) > 0
        # 4 seeds of 7 elements per chain, the first two of a chain with r = |a|.
        assert len(roots) == 4 * chains * (7 - 2)
        # 2P, ..., 7P of each seed, and all 7 images when they are asked for.
        assert len(content_roots) == 4 * (6 + 7 * (chains - 1))

    def test_planted_bad_chain_element_fails_the_class_check(self, monkeypatch):
        # (45, 300) is on the N = 5 curve but is not 3P: its x is not in the
        # square class of P's, so the element of 3P fails r^2 = a c.
        real_multiples = search._multiples

        def planted(seed, length):
            multiples = real_multiples(seed, length)
            if seed.curve.N == 5:
                multiples[2] = (45, 1, 300)
            return multiples

        monkeypatch.setattr(search, "_multiples", planted)
        job = SearchJob(seeds=tuple(load_seeds()), max_multiple=5)
        with pytest.raises(SquareCheckFailed, match="chain point 3 .* point 1;"):
            list(run_search(job))


class TestJobConstruction:
    def test_from_json_with_inline_seeds(self):
        job = job_from_json(
            {
                "seeds": [{"N": 5, "x": "-4", "y": "6"}],
                "max_multiple": 4,
                "parametrizations": ["first", "invariant"],
            }
        )
        assert job.seeds[0].curve.N == 5
        assert job.parity == "both"
        # Canonical ordering regardless of how the job file lists them.
        assert job.parametrizations == ("invariant", "first")

    def test_from_json_defaults_to_packaged_seeds(self):
        job = job_from_json({"max_multiple": 3})
        assert [s.curve.N for s in job.seeds] == [5, 6, 7, 34]
        assert job.parametrizations == (
            "invariant", "first", "first_reflected", "second", "second_reflected",
        )

    def test_rejects_duplicate_curves(self):
        seed = load_seeds()[0]
        with pytest.raises(InvalidSeed):
            SearchJob(seeds=(seed, seed), max_multiple=4)

    def test_rejects_off_curve_seed(self):
        bad = CongruentCurve(5).point(1, 1)
        with pytest.raises(InvalidSeed):
            SearchJob(seeds=(bad,), max_multiple=4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_multiple": 1},
            {"max_multiple": 4, "height_limit": 0},
            {"max_multiple": 4, "parity": "mixed"},
            {"max_multiple": 4, "parametrizations": ("third",)},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        seeds = tuple(load_seeds()[:1])
        with pytest.raises(ValueError):
            SearchJob(seeds=seeds, **kwargs)
