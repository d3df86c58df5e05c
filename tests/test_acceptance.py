"""Acceptance suite: every exit criterion, each printing one PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to watch the lines as they print;
without -s pytest shows them for failing criteria only. Every assertion is
exact: no tolerances apply anywhere in this package.
"""

import functools
import io
from fractions import Fraction

from npcuboid import (
    SolutionPair,
    build_npc,
    is_square,
    kummer_map,
    pc_equation_residual,
    recover_first,
    recover_invariant,
    recover_second,
    same_parity_pair,
    second_parameter_from_third,
    secant_y_intercept,
    verify_npc,
)
from npcuboid.cuboids import PARAMETRIZATIONS, cuboid_from_json
from npcuboid.search import SearchJob, run_search, write_records

from helpers import generated_pairs


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {number:02d}: {label}")
                raise
            print(f"PASS  criterion {number:02d}: {label}")

        return wrapper

    return decorate


GOLDEN_CUBOIDS = {
    "invariant": (9840, 4557, 3124, 5525, 10324, 11285),
    "first": (5079408, 1762717, 2242044, 2852005, 5552220, 5825317),
    "first_reflected": (5035485, 7050868, 8968176, 11408020, 10285149, 12469925),
    "second": (863005, 2242044, 1537008, 2718300, 1762717, 2852005),
    "second_reflected": (8063044, 11210220, 3559017, 11761617, 8813585, 14260025),
}


@criterion(1, "golden cuboids: all five parametrizations of the N=5 pair")
def test_golden_cuboid_reproduction(curve5):
    for w_sign in (1, -1):
        pair = SolutionPair(
            curve5.point(Fraction(25, 4), Fraction(75, 8)),
            curve5.point(Fraction(1681, 144), w_sign * Fraction(62279, 1728)),
        )
        for parametrization, expected in GOLDEN_CUBOIDS.items():
            cuboid = build_npc(pair, parametrization)
            assert tuple(int(v) for v in cuboid.rational_entries()) == expected


@criterion(2, "golden inversion of the 672/153/104 cuboid, all three families")
def test_golden_inversion(golden_npc):
    result = recover_invariant(golden_npc)
    assert result.N == 34
    expected = {
        "I": (Fraction(833, 16), Fraction(153, 4)),
        "II": (Fraction(-1088, 49), Fraction(-272, 9)),
        "III": (Fraction(162), Fraction(578)),
        "IV": (Fraction(-578, 81), Fraction(-2)),
    }
    assert {
        entry.which: (entry.pair.P.x, entry.pair.Q.x) for entry in result.pairs
    } == expected

    first = recover_first(golden_npc)
    assert first.N == 4305
    assert (first.pair("I").P.x, first.pair("I").Q.x) == (
        Fraction(452025, 64),
        Fraction(18081, 4),
    )
    assert (first.pair("II").P.x, first.pair("II").Q.x) == (Fraction(-2624), Fraction(-4100))

    second = recover_second(golden_npc)
    assert second.N == 1717170
    assert (second.pair("I").P.x, second.pair("I").Q.x) == (
        Fraction(165191754),
        Fraction(3016650),
    )
    assert (second.pair("II").P.x, second.pair("II").Q.x) == (
        Fraction(-17850),
        Fraction(-977466),
    )


@criterion(3, "same-parity multiples of (-4, 6) on N=5 have square x-products")
def test_same_parity_products(curve5):
    base = curve5.point(-4, 6)
    exercised = 0
    for k in range(1, 8):
        for m in range(k + 2, 9, 2):
            pair = same_parity_pair(base, k, m)
            assert is_square(pair.P.x * pair.Q.x)
            exercised += 1
    assert exercised >= 6


@criterion(4, "Kummer-surface identity over at least 50 generated pairs")
def test_kummer_identity_suite(seeds):
    count = 0
    for seed in seeds:
        for k in range(1, 9):
            for m in range(k + 2, 10, 2):
                pair = same_parity_pair(seed, k, m)
                xi, zeta, eta = kummer_map(pair)
                assert eta * eta == xi * zeta * (xi * xi - 1) * (zeta * zeta - 1)
                count += 1
    assert count >= 50


@criterion(5, "reflected x-products are squares for every generated pair")
def test_reflected_products_are_squares(seeds):
    checked = 0
    for pair in generated_pairs(seeds, max_multiple=6):
        n = pair.curve.N
        x, z = pair.P.x, pair.Q.x
        if x in (n, -n) or z in (n, -n):
            continue
        assert is_square((-(n * n) / x) * (-(n * n) / z))
        second_product = (n * (x + n) / (x - n)) * (n * (z + n) / (z - n))
        assert is_square(second_product)
        # Closed form of the second product in terms of the ordinates.
        y, w = pair.P.y, pair.Q.y
        assert second_product == n * n * y * y * w * w / (
            (x - n) ** 2 * (z - n) ** 2 * x * z
        )
        checked += 1
    assert checked >= 20


@criterion(6, "secant-intercept identity on at least 10 nontrivial points")
def test_secant_identity_suite(seeds):
    checked = 0
    for seed in seeds:
        for k in (1, 2, 3):
            p = seed.mul(k)
            q = p.double()
            d = secant_y_intercept(p, q)
            assert p.x * q.x * p.add(q).x == d * d
            checked += 1
    assert checked >= 10


@criterion(7, "soundness sweep: all emitted cuboids verify; none is a perfect cuboid")
def test_search_soundness_sweep(seeds):
    job = SearchJob(
        seeds=tuple(s for s in seeds if s.curve.N in (5, 6, 7)),
        max_multiple=6,
        parity="both",
        parametrizations=PARAMETRIZATIONS,
        height_limit=4000,
    )
    emitted = 0
    for record in run_search(job):
        if "cuboid" not in record:
            continue
        emitted += 1
        cuboid = cuboid_from_json(record["cuboid"])
        assert verify_npc(cuboid) == []
        if record["pc"]:
            # Would settle a centuries-old question; report loudly, never
            # assert it away.
            print(f"HEADLINE: perfect cuboid candidate found: {record}")
    assert emitted >= 3 * len(PARAMETRIZATIONS)


@criterion(8, "round-trip closure on at least 20 generated cuboids")
def test_round_trip_closure(seeds):
    count = 0
    for pair in generated_pairs(seeds, max_multiple=6):
        cuboid = build_npc(pair, "invariant")
        recovered = recover_invariant(cuboid)
        assert build_npc(recovered.pair("I"), "invariant") == cuboid
        count += 1
    assert count >= 20


@criterion(9, "reflection invariances of the parametrization outputs")
def test_reflection_invariances(seeds):
    pairs = generated_pairs(seeds, max_multiple=5)
    assert len(pairs) >= 10
    for pair in pairs:
        first_image = SolutionPair(pair.P.reflect_first(), pair.Q.reflect_first())
        for parametrization in PARAMETRIZATIONS:
            assert build_npc(first_image, parametrization) == build_npc(
                pair, parametrization
            )
        second_image = SolutionPair(pair.P.reflect_second(), pair.Q.reflect_second())
        original = build_npc(pair, "invariant")
        swapped = build_npc(second_image, "invariant")
        assert (swapped.a, swapped.b, swapped.c) == (original.b, original.a, original.c)


@criterion(10, "birational map carries third-family zeros to second-family zeros")
def test_birational_zero_transport():
    zero_triples = [
        (Fraction(2), Fraction(1), Fraction(2)),
        (Fraction(5, 3), Fraction(1), Fraction(5, 3)),
        (Fraction(7, 2), Fraction(-2, 7), Fraction(1)),
        (Fraction(9, 4), Fraction(1), Fraction(9, 4)),
    ]
    for triple in zero_triples:
        assert pc_equation_residual("third", *triple) == 0
        image = tuple(second_parameter_from_third(t) for t in triple)
        assert pc_equation_residual("second", *image) == 0


@criterion(11, "search determinism: 1 worker and 3 workers agree byte for byte")
def test_search_determinism(seeds):
    job = SearchJob(
        seeds=tuple(s for s in seeds if s.curve.N in (5, 6)),
        max_multiple=5,
        parametrizations=("invariant", "first"),
        height_limit=2000,
    )
    serial, parallel = io.StringIO(), io.StringIO()
    write_records(run_search(job, workers=1), serial)
    write_records(run_search(job, workers=3), parallel)
    assert serial.getvalue() == parallel.getvalue()
    assert serial.getvalue()  # the sweep actually produced records
