"""Command line surface: exact point arithmetic, NPC construction and
verification, inversion, the Kummer map, and batch searches.

All numeric I/O is exact "p/q" text (pass negative values as --x=-4/3).
Exit codes: 0 success, 1 domain error, 2 usage error, 3 resource exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from .cuboids import (
    PARAMETRIZATIONS,
    Cuboid,
    build_npc,
    cuboid_from_json,
    cuboid_to_json,
    pc_condition,
    verify_npc,
)
from .curve import (
    CongruentCurve,
    SolutionPair,
    kummer_map,
    point_to_json,
    secant_y_intercept,
)
from .errors import InvalidSeed, NpcuboidError, ResourceExhausted
from .factoring import DEFAULT_RHO_BUDGET
from .inverse import (
    classify_labeling,
    recover_first,
    recover_invariant,
    recover_second,
    recovery_to_json,
)
from .rationals import format_rational, parse_rational, sqrt_exact
from .search import drop_torn_tail, job_from_json, last_record_key, run_search, write_records

_FACTOR_BUDGET_ENV = "CUBOID_FACTOR_BUDGET"


def _rho_budget() -> int:
    raw = os.environ.get(_FACTOR_BUDGET_ENV)
    if not raw:
        return DEFAULT_RHO_BUDGET
    message = f"{_FACTOR_BUDGET_ENV} must be a non-negative integer, got {raw!r}"
    try:
        budget = int(raw)
    except ValueError as exc:
        raise _Usage(message) from exc
    if budget < 0:
        raise _Usage(message)
    return budget


def _decimal_str(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _approximate(payload):
    """Parallel structure with every exact entry rendered as a decimal."""
    if isinstance(payload, dict):
        out = {}
        for key, value in payload.items():
            approx = _approximate(value)
            if approx is not None:
                out[key] = approx
        return out or None
    if isinstance(payload, list):
        out = [_approximate(v) for v in payload]
        return [v for v in out if v is not None] or None
    if isinstance(payload, bool):
        return None
    if isinstance(payload, int):
        return _decimal_str(Fraction(payload))
    if isinstance(payload, str):
        try:
            return _decimal_str(parse_rational(payload))
        except ValueError:
            return None
    return None


def _pretty_lines(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                yield f"{pad}{key}:"
                yield from _pretty_lines(value, indent + 1)
            else:
                yield f"{pad}{key}: {value}"
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                yield f"{pad}-"
                yield from _pretty_lines(value, indent + 1)
            else:
                yield f"{pad}- {value}"
    else:
        yield f"{pad}{payload}"


def _emit(payload: dict, args) -> None:
    if getattr(args, "approx", False):
        approx = _approximate(payload)
        if approx:
            payload = {**payload, "approx": approx}
    if getattr(args, "pretty", False):
        print("\n".join(_pretty_lines(payload)))
    else:
        print(json.dumps(payload, separators=(",", ":")))


def _curve_point(n: int, x: str, y: str):
    """The point (x, y) of the curve N; a point off the curve is a domain error."""
    point = CongruentCurve(n).point(parse_rational(x), parse_rational(y))
    if not point.on_curve():
        raise NpcuboidError(f"({x}, {y}) is not on the curve N={n}")
    return point


def _cmd_point(args) -> tuple[dict, int]:
    if args.sub == "check":
        point = CongruentCurve(args.N).point(parse_rational(args.x), parse_rational(args.y))
        ok = point.on_curve()
        return {**point_to_json(point), "on_curve": ok}, 0 if ok else 1
    point = _curve_point(args.N, args.x, args.y)
    if args.sub == "add":
        result = point.add(_curve_point(args.N, args.x2, args.y2))
    elif args.sub == "double":
        result = point.double()
    elif args.sub == "mul":
        result = point.mul(args.k)
    elif args.sub == "reflect1":
        result = point.reflect_first()
    elif args.sub == "reflect2":
        result = point.reflect_second()
    else:
        result = point.reflect_third()
    return point_to_json(result), 0


def _pair_from_abscissae(n: int, x: Fraction, z: Fraction) -> SolutionPair:
    curve = CongruentCurve(n)
    return SolutionPair(
        curve.point(x, sqrt_exact(curve.rhs(x))),
        curve.point(z, sqrt_exact(curve.rhs(z))),
    )


def _cmd_npc(args) -> tuple[dict, int]:
    if args.sub == "generate":
        pair = _pair_from_abscissae(args.N, parse_rational(args.X), parse_rational(args.Z))
        return cuboid_to_json(build_npc(pair, args.param)), 0
    cuboid = _cuboid_from_args(args)
    violations = verify_npc(cuboid)
    payload = {
        "violations": violations,
        "pc": pc_condition(cuboid),
        "cuboid": cuboid_to_json(cuboid),
    }
    return payload, 0 if not violations else 1


# Each cuboid flag and the record field it fills.
_CUBOID_FLAGS = {
    "a": "a", "b": "b", "c": "c", "dac": "d_ac", "dbc": "d_bc", "ds": "d_s", "dabsq": "d_ab_sq",
}


def _cuboid_from_args(args) -> Cuboid:
    """The cuboid of the --in file, or of the value flags, read as one record."""
    given = [flag for flag in _CUBOID_FLAGS if getattr(args, flag) is not None]
    if getattr(args, "infile", None):
        if given:
            flags = " ".join(f"--{flag}" for flag in given)
            raise _Usage(f"give the cuboid by --in {args.infile} or by {flags}, not both")
        record = json.loads(Path(args.infile).read_text())
    else:
        missing = [
            f"--{flag}" for flag in ("a", "b", "c", "dac", "dbc", "ds") if flag not in given
        ]
        if missing:
            hint = " (or use --in FILE)" if hasattr(args, "infile") else ""
            raise _Usage(f"missing cuboid values: {' '.join(missing)}{hint}")
        record = {_CUBOID_FLAGS[flag]: getattr(args, flag) for flag in given}
    return _read_record(cuboid_from_json, record, "cuboid record")


def _read_record(reader, record, what: str):
    """reader(record), where a missing field or a record of the wrong shape,
    such as a JSON list, is a usage error, in the record or in a seed line of
    --seeds, which may also be no JSON at all."""
    try:
        return reader(record)
    except KeyError as exc:
        raise _Usage(f"{what} lacks field {exc}") from exc
    except TypeError as exc:
        raise _Usage(f"{what} is malformed: {exc}") from exc
    except InvalidSeed as exc:
        if isinstance(exc.__cause__, (KeyError, TypeError, json.JSONDecodeError)):
            raise _Usage(str(exc)) from exc
        raise


def _cmd_invert(args) -> tuple[dict, int]:
    cuboid = _cuboid_from_args(args)
    if args.classify:
        cuboid = classify_labeling(
            cuboid.a, cuboid.b, cuboid.c, cuboid.d_ac, cuboid.d_bc, cuboid.d_s,
            d_ab_sq=None if args.dabsq is None else cuboid.d_ab_sq,
        )
    budget = _rho_budget()
    if args.family == "invariant":
        result = recover_invariant(cuboid, rho_budget=budget)
    elif args.family == "first":
        result = recover_first(cuboid, rho_budget=budget)
    else:
        result = recover_second(cuboid, rho_budget=budget)
    payload = recovery_to_json(result)
    if args.classify:
        payload["cuboid"] = cuboid_to_json(cuboid)
    return payload, 0


def _cmd_kummer(args) -> tuple[dict, int]:
    p = _curve_point(args.N, args.X, args.Y)
    q = _curve_point(args.N, args.Z, args.W)
    xi, zeta, eta = kummer_map(SolutionPair(p, q))
    holds = eta * eta == xi * zeta * (xi * xi - 1) * (zeta * zeta - 1)
    payload = {
        "xi": format_rational(xi),
        "zeta": format_rational(zeta),
        "eta": format_rational(eta),
        "identity_holds": holds,
    }
    return payload, 0 if holds else 1


def _cmd_secant(args) -> tuple[dict, int]:
    point = _curve_point(args.N, args.x, args.y)
    other = _curve_point(args.N, args.x2, args.y2)
    return {"d": format_rational(secant_y_intercept(point, other))}, 0


def _cmd_search(args) -> tuple[dict | None, int]:
    job_path = Path(args.job)
    if not job_path.is_file():
        raise _Usage(f"job file not found: {args.job}")
    try:
        record = json.loads(job_path.read_text())
    except json.JSONDecodeError as exc:
        raise _Usage(f"job file is not valid JSON: {exc}") from exc
    if args.seeds is not None and isinstance(record, dict) and "seeds" in record:
        raise _Usage(f'give the seeds by the job\'s "seeds" or by --seeds {args.seeds}, not both')
    job = _read_record(lambda r: job_from_json(r, seed_path=args.seeds), record, "job record")

    skip_through = None
    if args.resume:
        if not args.out:
            raise _Usage("--resume requires --out")
        if Path(args.out).is_file():
            # The key ignores a torn fragment, so a refused file is left as it was.
            try:
                skip_through = last_record_key(args.out)
            except ValueError as exc:
                raise _Usage(f"cannot resume: {exc}") from exc
            drop_torn_tail(args.out)
    records = run_search(job, workers=args.workers, skip_through=skip_through)
    if args.out:
        mode = "a" if args.resume else "w"
        with open(args.out, mode) as stream:
            count = write_records(records, stream)
        print(json.dumps({"records_written": count, "out": args.out}), file=sys.stderr)
    else:
        write_records(records, sys.stdout)
    return None, 0


class _Usage(Exception):
    pass


def _add_output_flags(parser):
    parser.add_argument("--pretty", action="store_true", help="human-readable output")
    parser.add_argument(
        "--approx", action="store_true", help="append decimal renderings of exact values"
    )


def _point_arguments(parser, second_point=False):
    parser.add_argument("--N", type=int, required=True)
    parser.add_argument("--x", required=True)
    parser.add_argument("--y", required=True)
    if second_point:
        parser.add_argument("--x2", required=True)
        parser.add_argument("--y2", required=True)


def _cuboid_arguments(parser):
    for name in ("a", "b", "c", "dac", "dbc", "ds"):
        parser.add_argument(f"--{name}")
    parser.add_argument("--dabsq", help="exact square of the a-b diagonal (default a^2+b^2)")


def _worker_count(text: str) -> int:
    """A --workers value: an integer of at least 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="npcuboid", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    point = commands.add_parser("point", help="exact curve point arithmetic")
    subs = point.add_subparsers(dest="sub", required=True)
    for name in ("add", "double", "mul", "reflect1", "reflect2", "reflect3", "check"):
        sub = subs.add_parser(name)
        _point_arguments(sub, second_point=(name == "add"))
        if name == "mul":
            sub.add_argument("-k", type=int, required=True)
        _add_output_flags(sub)
        sub.set_defaults(handler=_cmd_point)

    secant = commands.add_parser("secant", help="y-intercept of the secant through two points")
    _point_arguments(secant, second_point=True)
    _add_output_flags(secant)
    secant.set_defaults(handler=_cmd_secant)

    npc = commands.add_parser("npc", help="construct or verify nearly-perfect cuboids")
    subs = npc.add_subparsers(dest="sub", required=True)
    generate = subs.add_parser("generate")
    generate.add_argument("--N", type=int, required=True)
    generate.add_argument("--X", required=True)
    generate.add_argument("--Z", required=True)
    generate.add_argument("--param", choices=PARAMETRIZATIONS, default="invariant")
    _add_output_flags(generate)
    generate.set_defaults(handler=_cmd_npc)
    verify = subs.add_parser("verify")
    _cuboid_arguments(verify)
    verify.add_argument("--in", dest="infile", help="cuboid JSON file")
    _add_output_flags(verify)
    verify.set_defaults(handler=_cmd_npc)

    invert = commands.add_parser("invert", help="recover N and solution pairs from an NPC")
    _cuboid_arguments(invert)
    invert.add_argument("--family", choices=("invariant", "first", "second"), default="invariant")
    invert.add_argument(
        "--classify",
        action="store_true",
        help="try all labelings of sides/diagonals and use the one that verifies",
    )
    _add_output_flags(invert)
    invert.set_defaults(handler=_cmd_invert)

    kummer = commands.add_parser("kummer", help="Kummer-surface image of a solution pair")
    kummer.add_argument("--N", type=int, required=True)
    for name in ("X", "Y", "Z", "W"):
        kummer.add_argument(f"--{name}", required=True)
    _add_output_flags(kummer)
    kummer.set_defaults(handler=_cmd_kummer)

    search = commands.add_parser("search", help="run a sweep job, emitting JSONL records")
    search.add_argument("job", help="job description JSON file")
    search.add_argument("--workers", type=_worker_count, default=1,
                        help="worker processes, at least 1 (default 1)")
    search.add_argument("--out", help="output JSONL path (default stdout)")
    search.add_argument("--resume", action="store_true", help="append after the last completed record")
    search.add_argument("--seeds", help="seed file for jobs without inline seeds")
    search.set_defaults(handler=_cmd_search)

    return parser


def main(argv=None) -> int:
    # Cuboid entries and abscissae can pass the interpreter's default limit
    # of 4300 digits on int <-> str conversion, and exact I/O needs them whole.
    # The limit is lifted for the call only, so in-process callers keep theirs.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload, code = args.handler(args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NpcuboidError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if payload is not None:
        _emit(payload, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
