from fractions import Fraction

import pytest

import npcuboid.cuboids as cuboids
import npcuboid.inverse as inverse
import npcuboid.rationals as rationals
from npcuboid import (
    CongruentCurve,
    Cuboid,
    CurvePoint,
    InconsistentKernel,
    NotAnNPC,
    build_npc,
    classify_labeling,
    is_square,
    recover_first,
    recover_invariant,
    recover_second,
    recovery_to_json,
    same_parity_pair,
    verify_npc,
)

from helpers import generated_pairs, reference_recover, triangle_seeds


class TestRecoverInvariant:
    def test_golden_pairs(self, golden_npc):
        result = recover_invariant(golden_npc)
        assert result.N == 34
        assert not result.pc_input
        expected = {
            "I": (Fraction(833, 16), Fraction(153, 4)),
            "II": (Fraction(-1088, 49), Fraction(-272, 9)),
            "III": (Fraction(162), Fraction(578)),
            "IV": (Fraction(-578, 81), Fraction(-2)),
        }
        assert [entry.which for entry in result.pairs] == ["I", "II", "III", "IV"]
        for entry in result.pairs:
            assert (entry.pair.P.x, entry.pair.Q.x) == expected[entry.which]

    def test_pairs_lie_on_curve_with_square_products(self, golden_npc):
        result = recover_invariant(golden_npc)
        for entry in result.pairs:
            for point in (entry.pair.P, entry.pair.Q):
                assert point.on_curve()
                assert point.y >= 0
            assert is_square(entry.pair.P.x * entry.pair.Q.x)

    def test_reflection_relations_between_pairs(self, golden_npc):
        result = recover_invariant(golden_npc)
        one, two = result.pair("I"), result.pair("II")
        three, four = result.pair("III"), result.pair("IV")
        # I <-> II and III <-> IV by the first reflection,
        # I <-> III and II <-> IV by the second.
        assert (two.P.x, two.Q.x) == (one.P.reflect_first().x, one.Q.reflect_first().x)
        assert (four.P.x, four.Q.x) == (
            three.P.reflect_first().x,
            three.Q.reflect_first().x,
        )
        assert (three.P.x, three.Q.x) == (
            one.P.reflect_second().x,
            one.Q.reflect_second().x,
        )
        assert (four.P.x, four.Q.x) == (
            two.P.reflect_second().x,
            two.Q.reflect_second().x,
        )

    def test_round_trip_reproduces_cuboid(self, golden_npc):
        result = recover_invariant(golden_npc)
        assert build_npc(result.pair("I"), "invariant") == golden_npc
        assert build_npc(result.pair("II"), "invariant") == golden_npc

    def test_swapped_side_pairs_swap_a_and_b(self, golden_npc):
        result = recover_invariant(golden_npc)
        for which in ("III", "IV"):
            image = build_npc(result.pair(which), "invariant")
            assert (image.a, image.b, image.c) == (
                golden_npc.b,
                golden_npc.a,
                golden_npc.c,
            )

    def test_golden_invariant_cuboid_recovers_base_pair(self, golden_pair):
        cuboid = build_npc(golden_pair, "invariant")
        result = recover_invariant(cuboid)
        assert result.N == 5
        abscissae = {result.pair("I").P.x, result.pair("I").Q.x}
        assert abscissae == {Fraction(25, 4), Fraction(1681, 144)}

    def test_junk_rejected(self):
        junk = Cuboid(*(Fraction(v) for v in (3, 4, 5, 1, 1, 1, 1)))
        with pytest.raises(NotAnNPC):
            recover_invariant(junk)

    def test_round_trip_over_generated_cuboids(self, seeds):
        count = 0
        for pair in generated_pairs(seeds, max_multiple=6):
            cuboid = build_npc(pair, "invariant")
            result = recover_invariant(cuboid)
            assert build_npc(result.pair("I"), "invariant") == cuboid
            count += 1
        assert count >= 20

    def test_pairs_match_explicit_ratio_formulas(self, seeds):
        # The paper's closed forms for the abscissa ratios X/N, Z/N of each
        # pair, independent of the reflections that derive pairs II-IV.
        for pair in generated_pairs(seeds, max_multiple=5):
            cuboid = build_npc(pair, "invariant")
            a, b, c = cuboid.a, cuboid.b, cuboid.c
            d_bc, d_ac, d_s = cuboid.d_bc, cuboid.d_ac, cuboid.d_s
            expected = {
                "I": ((d_ac + c) * (d_s + d_bc) / (a * a), (d_s + d_bc) / (d_ac + c)),
                "II": (-(d_ac - c) * (d_s - d_bc) / (a * a), -(d_s - d_bc) / (d_ac - c)),
                "III": ((d_s + d_ac) / (d_bc + c), (d_bc + c) * (d_s + d_ac) / (b * b)),
                "IV": (-(d_s - d_ac) / (d_bc - c), -(d_bc - c) * (d_s - d_ac) / (b * b)),
            }
            result = recover_invariant(cuboid)
            assert result.N == pair.curve.N
            assert {
                entry.which: (entry.pair.P.x / result.N, entry.pair.Q.x / result.N)
                for entry in result.pairs
            } == expected


@pytest.mark.parametrize(
    "family, recover",
    [
        ("invariant", recover_invariant),
        ("first", recover_first),
        ("second", recover_second),
    ],
)
def test_one_kernel_extraction_per_inversion(seeds, monkeypatch, family, recover):
    calls = []
    original = inverse.squarefree_kernel

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(inverse, "squarefree_kernel", counting)
    for pair in generated_pairs(seeds, max_multiple=4):
        cuboid = build_npc(pair, family)
        before = len(calls)
        result = recover(cuboid)
        assert len(calls) - before == 1
        assert build_npc(result.pair("I"), family) == cuboid


class TestInconsistentKernel:
    def test_ratio_off_the_curve_of_the_recovered_kernel(self, golden_npc):
        # Both ratios exceed 1; the kernel of 5/4 is 5, that of 2 is 6.
        with pytest.raises(
            InconsistentKernel, match=r"^recovered abscissa 10 is not a curve point of N=5$"
        ):
            inverse._recover(
                golden_npc, Fraction(5, 4), Fraction(2), "invariant", inverse.DEFAULT_RHO_BUDGET
            )

    def test_ratio_failing_the_curve_inequality(self, golden_npc):
        # 0 < 1/2 < 1, so rhs(N/2) = N^3 (1/2)(1/4 - 1) < 0 has no root.
        with pytest.raises(
            InconsistentKernel, match=r"^recovered abscissa 3 is not a curve point of N=6$"
        ):
            inverse._recover(
                golden_npc, Fraction(1, 2), Fraction(2), "first", inverse.DEFAULT_RHO_BUDGET
            )

    @pytest.mark.parametrize(
        "parametrization, recover",
        [
            ("invariant", recover_invariant),
            ("first", recover_first),
            ("first_reflected", recover_first),
            ("second", recover_second),
            ("second_reflected", recover_second),
        ],
    )
    def test_ratios_of_verified_cuboids_exceed_one(
        self, seeds, monkeypatch, parametrization, recover
    ):
        # So they meet the curve inequality, which _recover leaves unchecked.
        ratios = []
        original = inverse._recover

        def recording(cuboid, x_ratio, z_ratio, *args):
            ratios.extend((x_ratio, z_ratio))
            return original(cuboid, x_ratio, z_ratio, *args)

        monkeypatch.setattr(inverse, "_recover", recording)
        for pair in generated_pairs(seeds, max_multiple=4):
            recover(build_npc(pair, parametrization))
        assert ratios and min(ratios) > 1


class TestRecoverFamilies:
    def test_first_family_golden(self, golden_npc):
        result = recover_first(golden_npc)
        assert result.N == 4305
        assert (result.pair("I").P.x, result.pair("I").Q.x) == (
            Fraction(452025, 64),
            Fraction(18081, 4),
        )
        assert (result.pair("II").P.x, result.pair("II").Q.x) == (
            Fraction(-2624),
            Fraction(-4100),
        )

    def test_second_family_golden(self, golden_npc):
        result = recover_second(golden_npc)
        assert result.N == 1717170
        assert (result.pair("I").P.x, result.pair("I").Q.x) == (
            Fraction(165191754),
            Fraction(3016650),
        )
        assert (result.pair("II").P.x, result.pair("II").Q.x) == (
            Fraction(-17850),
            Fraction(-977466),
        )

    def test_recovered_points_validate(self, golden_npc):
        for result in (recover_first(golden_npc), recover_second(golden_npc)):
            for pair in (result.pair("I"), result.pair("II")):
                for point in (pair.P, pair.Q):
                    assert point.on_curve()
                    assert point.y >= 0

    def test_round_trips_on_golden_cuboids(self, golden_pair):
        first_cuboid = build_npc(golden_pair, "first")
        recovered = recover_first(first_cuboid)
        assert build_npc(recovered.pair("I"), "first") == first_cuboid
        assert build_npc(recovered.pair("II"), "first") == first_cuboid

        second_cuboid = build_npc(golden_pair, "second")
        recovered = recover_second(second_cuboid)
        assert build_npc(recovered.pair("I"), "second") == second_cuboid
        assert build_npc(recovered.pair("II"), "second") == second_cuboid

    def test_round_trips_on_generated_cuboids(self, seeds):
        for pair in generated_pairs(seeds, max_multiple=4):
            for family, build_name, recover in (
                ("first", "first", recover_first),
                ("second", "second", recover_second),
            ):
                cuboid = build_npc(pair, build_name)
                result = recover(cuboid)
                assert result.family == family
                assert build_npc(result.pair("I"), build_name) == cuboid

    def test_junk_rejected(self):
        junk = Cuboid(*(Fraction(v) for v in (3, 4, 5, 1, 1, 1, 1)))
        with pytest.raises(NotAnNPC):
            recover_first(junk)
        with pytest.raises(NotAnNPC):
            recover_second(junk)


class TestClassifyLabeling:
    def test_accepts_correct_labeling(self, golden_npc):
        cuboid = classify_labeling(
            Fraction(672), Fraction(153), Fraction(104),
            Fraction(185), Fraction(680), Fraction(697),
        )
        assert verify_npc(cuboid) == []
        assert cuboid == golden_npc

    def test_relabels_shuffled_sides(self, golden_npc):
        # Sides supplied in the wrong order: c first, then a, then b.
        cuboid = classify_labeling(
            Fraction(104), Fraction(672), Fraction(153),
            Fraction(680), Fraction(185), Fraction(697),
        )
        assert verify_npc(cuboid) == []
        assert {cuboid.a, cuboid.b} == {672, 153}
        assert cuboid.c == 104

    def test_rejects_impossible_values(self):
        with pytest.raises(NotAnNPC):
            classify_labeling(
                Fraction(3), Fraction(4), Fraction(5),
                Fraction(6), Fraction(7), Fraction(8),
            )


class TestWireFormat:
    def test_invariant_payload(self, golden_npc):
        payload = recovery_to_json(recover_invariant(golden_npc))
        assert payload["N"] == 34
        assert payload["family"] == "invariant"
        assert payload["pairs"][0] == {"X": "833/16", "Z": "153/4", "which": "I"}
        assert [p["which"] for p in payload["pairs"]] == ["I", "II", "III", "IV"]

    def test_family_payload(self, golden_npc):
        payload = recovery_to_json(recover_first(golden_npc))
        assert payload["N"] == 4305
        assert payload["family"] == "first"
        assert payload["pairs"][0] == {"X": "452025/64", "Z": "18081/4", "which": "I"}
        assert payload["pairs"][1] == {"X": "-2624", "Z": "-4100", "which": "II"}


RECOVER = {
    "invariant": recover_invariant,
    "first": recover_first,
    "first_reflected": recover_first,
    "second": recover_second,
    "second_reflected": recover_second,
}


def rescaled(cuboid, factor):
    """The cuboid with each entry times factor: its ratios, so its inversion,
    stay the same."""
    return Cuboid(
        *(v * factor for v in cuboid.rational_entries()), d_ab_sq=cuboid.d_ab_sq * factor ** 2
    )


class TestAgainstFractionReference:
    """The inversion on integer elements against the Fraction point stage it
    replaced, on the ratios each cuboid gives."""

    @pytest.mark.parametrize("parametrization", sorted(RECOVER))
    def test_recovery_matches_reference(self, seeds, monkeypatch, parametrization):
        ratios = []
        original = inverse._recover

        def recording(*args):
            ratios.append(args)
            return original(*args)

        monkeypatch.setattr(inverse, "_recover", recording)
        recover = RECOVER[parametrization]
        checked = 0
        for seed in list(seeds) + list(triangle_seeds(8)):
            for k in range(1, 9):
                cuboid = build_npc(same_parity_pair(seed, k, k + 2), parametrization)
                result = recover(cuboid)
                expected = reference_recover(*ratios[-1])
                assert result == expected
                assert recovery_to_json(result) == recovery_to_json(expected)
                assert recover(rescaled(cuboid, Fraction(3, 7))) == expected
                checked += 1
        assert checked == 8 * 12

    def test_inversion_takes_no_fraction_point_work(self, seeds, monkeypatch):
        cases = [
            (RECOVER[parametrization], build_npc(pair, parametrization))
            for pair in generated_pairs(seeds, max_multiple=5)
            for parametrization in RECOVER
        ]

        def forbidden(*args):
            raise AssertionError("the inversion took Fraction point work")

        monkeypatch.setattr(CurvePoint, "_secant_image", forbidden)
        monkeypatch.setattr(CongruentCurve, "rhs", forbidden)
        for module in (rationals, cuboids, inverse):
            monkeypatch.setattr(module, "sqrt_exact", forbidden)
        for recover, cuboid in cases:
            assert recover(cuboid).pairs
