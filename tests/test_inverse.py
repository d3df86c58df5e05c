import hashlib
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import npcuboid.cuboids as cuboids
import npcuboid.inverse as inverse
import npcuboid.rationals as rationals
from npcuboid import (
    CongruentCurve,
    Cuboid,
    CurvePoint,
    FactorizationExceeded,
    InconsistentKernel,
    NotAnNPC,
    build_npc,
    classify_labeling,
    format_rational,
    is_square,
    load_seeds,
    recover_first,
    recover_invariant,
    recover_second,
    recovery_to_json,
    same_parity_pair,
    verify_npc,
)
from npcuboid.cli import main

from helpers import (
    generated_pairs,
    point_above,
    reference_ratios,
    reference_recover,
    triangle_seeds,
)


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
            inverse._recover(golden_npc, (5, 4), (2, 1), "invariant", inverse.DEFAULT_RHO_BUDGET)

    def test_ratio_failing_the_curve_inequality(self, golden_npc):
        # 0 < 1/2 < 1, so rhs(N/2) = N^3 (1/2)(1/4 - 1) < 0 has no root.
        with pytest.raises(
            InconsistentKernel, match=r"^recovered abscissa 3 is not a curve point of N=6$"
        ):
            inverse._recover(golden_npc, (1, 2), (2, 1), "first", inverse.DEFAULT_RHO_BUDGET)

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
        # Each arrives as a reduced pair (p, q), q > 0.
        ratios = []
        original = inverse._recover

        def recording(cuboid, x_ratio, z_ratio, *args):
            ratios.extend((x_ratio, z_ratio))
            return original(cuboid, x_ratio, z_ratio, *args)

        monkeypatch.setattr(inverse, "_recover", recording)
        for pair in generated_pairs(seeds, max_multiple=4):
            recover(build_npc(pair, parametrization))
        assert ratios and all(p > q > 0 and gcd(p, q) == 1 for p, q in ratios)


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


def as_fractions(args):
    """Arguments of inverse._recover with the ratios (p, q) as Fractions, as
    reference_recover takes them."""
    cuboid, x_ratio, z_ratio, *rest = args
    return (cuboid, Fraction(*x_ratio), Fraction(*z_ratio), *rest)


def pieces(ratio):
    """The factors p, q and p^2 - q^2 that the kernel of r (r^2 - 1) is taken
    from, for the ratio r = p/q."""
    p, q = ratio
    return p, q, p * p - q * q


RATIO_SEEDS = tuple(load_seeds()) + triangle_seeds(8)


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
                expected = reference_recover(*as_fractions(ratios[-1]))
                assert result == expected
                assert recovery_to_json(result) == recovery_to_json(expected)
                assert recover(rescaled(cuboid, Fraction(3, 7))) == expected
                checked += 1
        assert checked == 8 * 12

    @given(
        st.integers(0, len(RATIO_SEEDS) - 1),
        st.integers(1, 8),
        st.sampled_from(sorted(RECOVER)),
        st.sampled_from([1, Fraction(3, 7)]),
    )
    @settings(max_examples=150, deadline=None)
    def test_integer_ratios_match_the_fraction_formulas(self, seed, k, parametrization, factor):
        # The ratios of the integer entries, each reduced by one gcd, are the
        # family's Fraction ratios, numerator and denominator alike.
        cuboid = build_npc(same_parity_pair(RATIO_SEEDS[seed], k, k + 2), parametrization)
        cuboid = rescaled(cuboid, factor)
        ratios = []
        original = inverse._recover

        def recording(*args):
            ratios.append(args[1:3])
            return original(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inverse, "_recover", recording)
            RECOVER[parametrization](cuboid)
        expected = reference_ratios(cuboid, parametrization.removesuffix("_reflected"))
        assert ratios == [tuple((r.numerator, r.denominator) for r in expected)]

    def test_inversion_constructs_no_fraction(self, seeds, monkeypatch):
        # The three inversions and the JSON of their results, on cuboids built
        # beforehand: every ratio, kernel piece, point and abscissa text is
        # formed from integers.
        cases = [
            (RECOVER[parametrization], build_npc(pair, parametrization))
            for pair in generated_pairs(list(seeds) + list(triangle_seeds(4)), max_multiple=5)
            for parametrization in RECOVER
        ]
        made = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        payloads = [recovery_to_json(recover(cuboid)) for recover, cuboid in cases]
        monkeypatch.undo()
        assert len(payloads) == len(cases) == 5 * 32
        assert made == []
        # The count sees a Fraction that the package builds.
        monkeypatch.setattr(Fraction, "__new__", counting)
        rationals.format_rational(2)
        assert made == [(2,)]

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


def _lower_height_cases(seeds):
    """(parametrization, cuboid) on the curve of the triangle (u, v) = (10010,
    1), whose N has the prime u - v = 10009, at (P, 3P), and on the packaged
    seeds at (kP, (k + 2)P), k <= 8."""
    u, v = 10010, 1
    big = point_above(CongruentCurve(u * v * (u * u - v * v)), Fraction((u * u + v * v) ** 2, 4))
    pairs = [same_parity_pair(big, 1, 3)]
    pairs += [same_parity_pair(seed, k, k + 2) for seed in seeds for k in range(1, 9)]
    return [(name, build_npc(pair, name)) for pair in pairs for name in sorted(RECOVER)]


class TestLowerHeightRatio:
    """The kernel is taken from whichever pair-I ratio has the lower height,
    numerator and denominator bit lengths summed, x_ratio on a tie."""

    @staticmethod
    def _spies(monkeypatch):
        ratios, kernels = [], []
        recover, kernel = inverse._recover, inverse.squarefree_kernel

        def recording_recover(*args):
            ratios.append(args)
            return recover(*args)

        def recording_kernel(factors, rho_budget):
            kernels.append((factors, rho_budget))
            return kernel(factors, rho_budget)

        monkeypatch.setattr(inverse, "_recover", recording_recover)
        monkeypatch.setattr(inverse, "squarefree_kernel", recording_kernel)
        return ratios, kernels

    @staticmethod
    def _lower(x_ratio, z_ratio):
        height = [p.bit_length() + q.bit_length() for p, q in (x_ratio, z_ratio)]
        return z_ratio if height[1] < height[0] else x_ratio

    def test_one_kernel_of_the_lower_height_ratio(self, seeds, monkeypatch):
        ratios, kernels = self._spies(monkeypatch)
        factored = set()
        for name, cuboid in _lower_height_cases(seeds):
            before = len(kernels)
            RECOVER[name](cuboid)
            assert len(kernels) == before + 1
            _, x_ratio, z_ratio, _, budget = ratios[-1]
            lower = self._lower(x_ratio, z_ratio)
            assert kernels[-1] == (pieces(lower), budget)
            factored.add(lower is z_ratio)
        assert factored == {False, True}

    def test_z_ratio_kernel_matches_reference(self, seeds, monkeypatch):
        ratios, _ = self._spies(monkeypatch)
        checked = set()
        for name, cuboid in _lower_height_cases(seeds):
            result = RECOVER[name](cuboid)
            _, x_ratio, z_ratio, _, _ = ratios[-1]
            if self._lower(x_ratio, z_ratio) is z_ratio:
                expected = reference_recover(*as_fractions(ratios[-1]))
                assert result == expected
                assert recovery_to_json(result) == recovery_to_json(expected)
                checked.add(name)
        assert checked == set(RECOVER)

    def test_fallback_after_the_lower_ratio_exceeds_the_budget(self, seeds, monkeypatch):
        ratios, kernels = self._spies(monkeypatch)
        recording = inverse.squarefree_kernel

        def first_call_exceeds(factors, rho_budget):
            if not kernels:
                kernels.append((factors, rho_budget))
                raise FactorizationExceeded("rho iteration budget exhausted")
            return recording(factors, rho_budget)

        monkeypatch.setattr(inverse, "squarefree_kernel", first_call_exceeds)
        fell_back = 0
        for name, cuboid in _lower_height_cases(seeds):
            kernels.clear()
            try:
                result = RECOVER[name](cuboid)
            except FactorizationExceeded:
                # The lower ratio was x_ratio: there is nothing to fall back to.
                _, x_ratio, z_ratio, _, _ = ratios[-1]
                assert self._lower(x_ratio, z_ratio) is x_ratio
                assert len(kernels) == 1
                continue
            _, x_ratio, z_ratio, _, budget = ratios[-1]
            assert self._lower(x_ratio, z_ratio) is z_ratio
            assert kernels[1:] == [(pieces(x_ratio), budget)]
            expected = reference_recover(*as_fractions(ratios[-1]))
            assert result == expected
            assert recovery_to_json(result) == recovery_to_json(expected)
            fell_back += 1
        assert fell_back


GOLDEN_FLAGS = ["--a", "672", "--b", "153", "--c", "104", "--dac", "680", "--dbc", "185",
                "--ds", "697"]


def invert_argvs(seeds):
    """The invert call of each cuboid of TestAgainstFractionReference, by its
    own family, then README's golden cuboid with its sides shuffled under
    --classify and as it is under --pretty --approx."""
    flags = ("a", "b", "c", "dbc", "dac", "ds", "dabsq")
    argvs = []
    for parametrization in sorted(RECOVER):
        for seed in list(seeds) + list(triangle_seeds(8)):
            for k in range(1, 9):
                cuboid = build_npc(same_parity_pair(seed, k, k + 2), parametrization)
                entries = cuboid.rational_entries() + (cuboid.d_ab_sq,)
                argvs.append(
                    ["invert", "--family", parametrization.removesuffix("_reflected")]
                    + [f"--{flag}={format_rational(v)}" for flag, v in zip(flags, entries)]
                )
    argvs.append(["invert", "--classify", "--a", "104", "--b", "672", "--c", "153",
                  "--dac", "680", "--dbc", "185", "--ds", "697"])
    argvs.append(["invert", "--pretty", "--approx"] + GOLDEN_FLAGS)
    return argvs


class TestInversionPins:
    """SHA-256 of the CLI's stdout and exit code for every call of
    invert_argvs, pinned while the inversion still built each point's
    Fractions: any change to an inverted N, a pair or its text shows here."""

    def test_invert_output_digest(self, seeds, capsys):
        argvs = invert_argvs(seeds)
        assert len(argvs) == 5 * 96 + 2
        digest, codes = hashlib.sha256(), set()
        for argv in argvs:
            code = main(argv)
            codes.add(code)
            digest.update(f"{' '.join(argv)}\n{code}\n{capsys.readouterr().out}".encode())
        assert codes == {0}
        assert digest.hexdigest() == (
            "34416d68e6e4d2407271b0612c0cb0f106b24ed36675765a934b8fa04e96a702"
        )
