"""Bounded deterministic sweep over seed curves, multiples and parametrizations.

The unit of work is one seed. Its multiples P, 2P, ..., MP are computed once,
as a chain of integer elements (a, d, b) with x = a/d^2 and y = b/d^3, by the
tangent and chord laws on integer triples (see curve), and so is the chain of
their translates -(jP + T) by each 2-torsion point T that the job's
parametrizations name (see cuboids). Every (k, m, parametrization) record of
the seed is built from its parametrization's chain, whose elements each took
one class root r (see curve._chain_elements), so no pair takes a square root
of its own. The pair checks and the source abscissae a/d^2 of the records
read the multiples' elements. A seed is a nontrivial curve point, of infinite
order, so two of its distinct multiples of equal parity form a solution pair
and their builds cannot fail: a record is skipped only for mixed parity.
Seed units are pure functions of the job, so they can run on any number of
worker processes, but never on more processes than there are seeds: a
one-seed job runs in one process whatever the worker count. Records come
back in the enumeration order (N, k, m, parametrization index), and two runs
of one job are byte-identical regardless of the worker count. Output is
append-only JSONL, which makes interrupted sweeps resumable from the last
completed record; each line is written from its record's shape, as the
bytes json.dumps would give.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import chain, combinations
from json.encoder import encode_basestring_ascii as _json_text
from pathlib import Path
from typing import IO, Iterator

from .cuboids import PARAMETRIZATIONS, _FAMILY_AND_TRANSLATE, _cuboid_payload, _npc_entries
from .curve import (
    CurvePoint,
    _chain_elements,
    _multiples,
    _same_parity_elements,
    _secant_element,
    load_seeds,
    point_from_json,
)
from .errors import InvalidSeed
from .rationals import _integer_field, decimal_digits, is_square_int

# Every emitted record equals
# cuboid_to_json(build_npc(same_parity_pair(seed, k, m), parametrization)); the
# sweep runs their preconditions, integer core and payload builder instead.
# All three stay importable here, where perfbench/tracing.py wraps them.
from .cuboids import build_npc, cuboid_to_json  # noqa: F401
from .curve import same_parity_pair  # noqa: F401

DEFAULT_HEIGHT_LIMIT = 200

_PARAM_INDEX = {name: i for i, name in enumerate(PARAMETRIZATIONS)}


@dataclass(frozen=True)
class SearchJob:
    """A sweep description: which seeds, how far, which parametrizations.

    height_limit caps the decimal digits of any cuboid entry; records beyond
    it are emitted truncated (the exact values are cheap to regenerate, the
    JSONL bloat is not).
    """

    seeds: tuple[CurvePoint, ...]
    max_multiple: int
    parity: str = "both"
    parametrizations: tuple[str, ...] = PARAMETRIZATIONS
    height_limit: int = DEFAULT_HEIGHT_LIMIT

    def __post_init__(self):
        if self.max_multiple < 2:
            raise ValueError("max_multiple must be at least 2")
        if self.height_limit < 1:
            raise ValueError("height_limit must be at least 1")
        if self.parity not in ("odd", "even", "both"):
            raise ValueError(f"unknown parity class {self.parity!r}")
        unknown = [p for p in self.parametrizations if p not in _PARAM_INDEX]
        if unknown:
            raise ValueError(f"unknown parametrizations: {unknown}")
        # Normalize to canonical order so record order never depends on how
        # the job file happened to list them.
        object.__setattr__(
            self,
            "parametrizations",
            tuple(sorted(set(self.parametrizations), key=_PARAM_INDEX.__getitem__)),
        )
        seen = set()
        for seed in self.seeds:
            if seed.is_trivial or not seed.on_curve():
                raise InvalidSeed(f"seed {seed} is not a nontrivial curve point")
            if seed.curve.N in seen:
                raise InvalidSeed(f"duplicate seed curve N={seed.curve.N}")
            seen.add(seed.curve.N)


_JOB_KEYS = ("seeds", "max_multiple", "parity", "parametrizations", "height_limit")


def job_from_json(record: dict, seed_path: str | None = None) -> SearchJob:
    """Build a job from its JSON form; seeds default to the packaged file.

    A record that is no JSON object, a key that is none of _JOB_KEYS (as an
    unexpected keyword argument would) or a field of the wrong JSON type
    raises TypeError."""
    if type(record) is not dict:
        raise TypeError(f"a job must be a JSON object, got {record!r}")
    unknown = [key for key in record if key not in _JOB_KEYS]
    if unknown:
        raise TypeError(f"unknown job keys {unknown}; a job has {', '.join(_JOB_KEYS)}")
    if "seeds" in record:
        seeds = record["seeds"]
        if not isinstance(seeds, list):
            raise TypeError(f"seeds must be a list, got {seeds!r}")
        seeds = tuple(point_from_json(entry) for entry in seeds)
    else:
        seeds = tuple(load_seeds(seed_path))
    max_multiple = _integer_field(record, "max_multiple")
    parametrizations = record.get("parametrizations", list(PARAMETRIZATIONS))
    if not isinstance(parametrizations, list):
        raise TypeError(f"parametrizations must be a list, got {parametrizations!r}")
    if not all(isinstance(name, str) for name in parametrizations):
        raise TypeError(f"parametrizations must be strings, got {parametrizations!r}")
    parity = record.get("parity", "both")
    if not isinstance(parity, str):
        raise TypeError(f"parity must be a string, got {parity!r}")
    return SearchJob(
        seeds=seeds,
        max_multiple=max_multiple,
        parity=parity,
        parametrizations=tuple(parametrizations),
        height_limit=_integer_field(record, "height_limit", DEFAULT_HEIGHT_LIMIT),
    )


def _multiple_pairs(job: SearchJob) -> Iterator[tuple[int, int]]:
    remainders = {"odd": (1,), "even": (0,), "both": (0, 1)}[job.parity]
    multiples = (j for j in range(1, job.max_multiple + 1) if j % 2 in remainders)
    return combinations(multiples, 2)


def task_key(record: dict) -> tuple[int, int, int, int]:
    return record["N"], record["k"], record["m"], _PARAM_INDEX[record["parametrization"]]


def _translate_chain(n: int, multiples: list, t: int | None) -> list[tuple]:
    """The chain elements of jP (see curve._chain_elements), or of -(jP + (tN, 0))."""
    if t is not None:
        multiples = [_secant_element(n, t * n, point, j) for j, point in enumerate(multiples, 1)]
    return _chain_elements(multiples)


def _seed_records(job: SearchJob, skip_through: tuple | None, seed: CurvePoint) -> list[dict]:
    """Every record of one seed after skip_through, in task_key order."""
    n = seed.curve.N
    multiples = _multiples(seed, job.max_multiple)
    chain = cache(partial(_translate_chain, n, multiples))  # built once per translate
    builds = {param: (family, chain(t)) for param, (family, t) in _FAMILY_AND_TRANSLATE.items()
              if param in job.parametrizations}

    @cache
    def abscissa(j: int) -> str:
        """jP's abscissa a/d^2 as source text, in lowest terms, formatted
        only for an emitted record: a truncated record's points can run
        past the int <-> str digit limit."""
        a, d, _ = multiples[j - 1]
        return str(a) if d == 1 else f"{a}/{d * d}"

    def multiple(j: int) -> tuple:
        return multiples[j - 1]

    records = []
    for k, m in _multiple_pairs(job):
        pending = [
            {"N": n, "k": k, "m": m, "parametrization": param} for param in job.parametrizations
        ]
        if skip_through is not None:
            pending = [record for record in pending if task_key(record) > skip_through]
        if not pending:
            continue
        records += pending
        defect = _same_parity_elements(seed, k, m, multiple)
        if defect is not None:
            for record in pending:
                record["skipped"] = defect
            continue
        for record in pending:
            param = record["parametrization"]
            family, built = builds[param]
            entries = _npc_entries(n, built[k - 1], built[m - 1], family)
            digits = decimal_digits(entries[5])  # d_s, the largest entry
            record["digits"] = digits
            if digits > job.height_limit:
                record["truncated"] = True
                continue
            a, b = entries[0], entries[1]
            d_ab_sq = a * a + b * b
            pc = is_square_int(d_ab_sq)
            source = {
                "N": n, "X": abscissa(k), "Z": abscissa(m), "parametrization": param
            }
            record["pc"] = pc
            record["cuboid"] = _cuboid_payload(*entries, d_ab_sq, pc, source)
    return records


def run_search(
    job: SearchJob, workers: int = 1, skip_through: tuple | None = None
) -> Iterator[dict]:
    """Yield one record per (seed, k, m, parametrization) in sorted order.

    skip_through drops every record up to and including that (N, k, m,
    parametrization-index) key; pass the key of the last completed record to
    resume an interrupted sweep. Each worker process runs whole seeds.
    """
    seeds = sorted(job.seeds, key=lambda p: p.curve.N)
    if skip_through is not None:
        seeds = [s for s in seeds if s.curve.N >= skip_through[0]]
    # Units ship the job without its seeds, so what each worker is sent does
    # not grow with the seed count.
    unit = partial(_seed_records, replace(job, seeds=()), skip_through)
    workers = min(workers, len(seeds), os.cpu_count() or 1)
    if workers <= 1:
        yield from chain.from_iterable(map(unit, seeds))
        return
    from concurrent.futures import ProcessPoolExecutor  # only a pool loads multiprocessing

    # Unless forked, workers start at the interpreter's default int <-> str
    # digit limit, so they are given the caller's.
    limit = (sys.get_int_max_str_digits(),)
    with ProcessPoolExecutor(workers, initializer=sys.set_int_max_str_digits,
                             initargs=limit) as pool:
        yield from chain.from_iterable(pool.map(unit, seeds))


# The keys, in order, of the three record shapes _seed_records writes: a
# skipped pair, a truncated one and an emitted cuboid, with its payload and
# the payload's source.
_KEY_FIELDS = ("N", "k", "m", "parametrization")
_SKIPPED = _KEY_FIELDS + ("skipped",)
_TRUNCATED = _KEY_FIELDS + ("digits", "truncated")
_EMITTED = _KEY_FIELDS + ("digits", "pc", "cuboid")
_CUBOID = ("a", "b", "c", "d_ac", "d_bc", "d_s", "d_ab_sq", "pc", "source")
_SOURCE = ("N", "X", "Z", "parametrization")


def _shape(value) -> str:
    """The keys of a dict, each with the shape of its value, or the type
    name of anything else."""
    if type(value) is not dict:
        return type(value).__name__
    return "{" + ", ".join(f"{key}: {_shape(item)}" for key, item in value.items()) + "}"


def _record_line(record: dict) -> str:
    """json.dumps(record, separators=(",", ":")) + "\n" for a record of one
    of the three shapes, keys in order and integers of type int: one f-string
    over str of the integers and encode_basestring_ascii of the texts, the
    escaping json.dumps applies under ensure_ascii. Any other dict raises
    ValueError."""
    fields = tuple(record)
    if fields == _EMITTED:
        n, k, m, param, digits, pc, cuboid = record.values()
        if type(cuboid) is dict and tuple(cuboid) == _CUBOID:
            a, b, c, d_ac, d_bc, d_s, d_ab_sq, cuboid_pc, source = cuboid.values()
            if type(source) is dict and tuple(source) == _SOURCE:
                source_n, x, z, source_param = source.values()
                if (type(n) is type(k) is type(m) is type(digits) is type(a) is type(b)
                        is type(c) is type(d_ac) is type(d_bc) is type(d_s) is type(d_ab_sq)
                        is type(source_n) is int and type(pc) is type(cuboid_pc) is bool
                        and type(param) is type(x) is type(z) is type(source_param) is str):
                    return (
                        f'{{"N":{n},"k":{k},"m":{m},"parametrization":{_json_text(param)},'
                        f'"digits":{digits},"pc":{"true" if pc else "false"},"cuboid":{{'
                        f'"a":{a},"b":{b},"c":{c},"d_ac":{d_ac},"d_bc":{d_bc},"d_s":{d_s},'
                        f'"d_ab_sq":{d_ab_sq},"pc":{"true" if cuboid_pc else "false"},'
                        f'"source":{{"N":{source_n},"X":{_json_text(x)},"Z":{_json_text(z)},'
                        f'"parametrization":{_json_text(source_param)}}}}}}}\n'
                    )
    elif fields == _SKIPPED:
        n, k, m, param, skipped = record.values()
        if type(n) is type(k) is type(m) is int and type(param) is type(skipped) is str:
            return (
                f'{{"N":{n},"k":{k},"m":{m},"parametrization":{_json_text(param)},'
                f'"skipped":{_json_text(skipped)}}}\n'
            )
    elif fields == _TRUNCATED:
        n, k, m, param, digits, truncated = record.values()
        if (type(n) is type(k) is type(m) is type(digits) is int and type(param) is str
                and truncated is True):
            return (
                f'{{"N":{n},"k":{k},"m":{m},"parametrization":{_json_text(param)},'
                f'"digits":{digits},"truncated":true}}\n'
            )
    raise ValueError(f"not a run_search record: {_shape(record)}")


def write_records(records: Iterator[dict], stream: IO[str]) -> int:
    """Append run_search records as one compact JSON object per line;
    returns the count. Each line is the bytes of json.dumps(record,
    separators=(",", ":")), written from the record's shape (see
    _record_line); a record of any other shape raises ValueError, after
    the lines before it are written."""
    write = stream.write
    count = 0
    for record in records:
        write(_record_line(record))
        count += 1
    return count


# Bytes read at a time when scanning an output file back from its end.
_TAIL_BLOCK = 1 << 16


def _last_newline(stream: IO[bytes], end: int) -> int:
    """Offset of the last newline before offset end, or -1 if there is none,
    read backwards in blocks."""
    while end > 0:
        start = max(end - _TAIL_BLOCK, 0)
        stream.seek(start)
        found = stream.read(end - start).rfind(b"\n")
        if found >= 0:
            return start + found
        end = start
    return -1


def drop_torn_tail(path: str | Path) -> None:
    """Cut an output file back to its last newline.

    An interrupted run can leave a partial final line; appending after it
    would glue the next record onto the fragment. Only the tail is read.
    """
    with open(path, "rb+") as stream:
        stream.truncate(_last_newline(stream, stream.seek(0, os.SEEK_END)) + 1)


def last_record_key(path: str | Path) -> tuple | None:
    """Key of the last complete record in an existing JSONL output file.

    An unterminated final fragment is a torn line from an interrupted run
    and is ignored; with no complete line there is no key. The last complete
    line must be a sweep record, else ValueError. Only that line is read,
    so memory does not grow with the file.
    """
    with open(path, "rb") as stream:
        end = _last_newline(stream, stream.seek(0, os.SEEK_END))
        if end < 0:
            return None
        start = _last_newline(stream, end) + 1
        stream.seek(start)
        line = stream.read(end - start)
    try:
        key = task_key(json.loads(line))
        if not all(type(value) is int for value in key):
            raise TypeError("N, k and m must be integers")
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"the last line of {path} is not a sweep record: {exc!r}") from exc
    return key
