import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npcuboid import FactorizationExceeded, is_probable_prime, is_square, squarefree_kernel
from npcuboid import factoring
from npcuboid.factoring import _prime_blocks, _strip_trial, squarefree_part

# Primes on either side of the trial stages' bounds 10**4 and 10**6.
_EDGE_PRIMES = (9973, 10007, 999983, 1000003)
_BIG_SQUARE = (1000000007 * 1000000009) ** 2
# Two primes that rho cannot split apart within 10**4 iterations once
# multiplied, and a prime past the deterministic Miller-Rabin range.
_P1, _P2 = 10**20 + 39, 10**20 + 129
_P25 = 10**25 + 13
# F. Arnault's composites of 337 digits (1993) and 397 digits (1995), strong
# pseudoprimes to every prime base below 200 and below 307.
_ARNAULT_1993 = int(
    "803837457453639491257079614341942108138837688287558145837488917522297"
    "427376533365218650233616396004545791504202360320876656996676098728404"
    "396540823292873879185086916685732826776177102938969773947016708230428"
    "687109997439976544144845341155872450633409279022275296229414984230688"
    "1685404326457534018329786111298960644845216191652872597534901"
)
_ARNAULT_1995 = int(
    "288714823805077121267142959713039399197760945927972270092651602419743"
    "230379915273311632898314463922594197780311092934965557841894944174093"
    "380561511397999942154241693397290542371100275104208013496673175515285"
    "922696291677532547504444585610194940420003990443211677661994962953925"
    "045269871932907037356403227370127845389912612030924484149472897688540"
    "6024976768122077071687938121709811322297802059565867"
)


def _planted(e):
    """Inputs with every stage's primes at exponent about e, whose cofactor
    past the trial stages is 1, a prime, a square or an odd prime power."""
    a, b, c, d = _EDGE_PRIMES
    return [
        *(p**e for p in _EDGE_PRIMES),
        a**e * b ** (e + 1) * c ** (e + 2) * d**e,
        2**200 * a**e * _BIG_SQUARE,
        3 * c**e * _BIG_SQUARE,
        2 ** (200 + e) * b**e * d ** (2 * e),
    ]


class TestSquarefreeKernel:
    def test_half_seventeen(self):
        # 17/2 is square after multiplying by 34.
        assert squarefree_kernel(Fraction(17, 2)) == 34

    def test_already_square(self):
        assert squarefree_kernel(Fraction(1)) == 1

    def test_recovered_ratio_expression(self):
        # The abscissa ratio 49/32 of the 672/153/104 cuboid: the kernel of
        # r(r^2 - 1) is the congruent number 34.
        r = Fraction(49, 32)
        assert squarefree_kernel(r * (r * r - 1)) == 34

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            squarefree_kernel(Fraction(0))

    def test_sign_ignored(self):
        assert squarefree_kernel(Fraction(-17, 2)) == 34

    def test_rejects_zero_factor(self):
        with pytest.raises(ValueError):
            squarefree_kernel((Fraction(3, 2), 0))

    def test_factor_tuple_is_their_product(self):
        r = Fraction(49, 32)
        assert squarefree_kernel((r, r * r - 1)) == 34
        # Shared primes: 12/5 * 18/25 = 2^3 3^3 / 5^3.
        assert squarefree_kernel((Fraction(12, 5), Fraction(18, 25))) == 30
        assert squarefree_kernel((6, Fraction(-6, 49))) == 1

    def test_prime_pieces_need_no_rho(self):
        # Numerator and denominator are primes on their own; multiplied, they
        # make a semiprime that 10**4 rho iterations cannot split.
        assert squarefree_kernel(Fraction(_P1, _P2), 10**4) == _P1 * _P2
        with pytest.raises(FactorizationExceeded):
            squarefree_part(_P1 * _P2, 10**4)

    def test_pieces_share_one_rho_budget(self):
        a, b = 1000000007 * 1000000009, 100000007 * 100000037
        budget = 60_000
        # Each piece fits the budget alone ...
        assert squarefree_kernel(a, budget) == a
        assert squarefree_kernel(Fraction(1, b), budget) == b
        # ... but the two together do not.
        with pytest.raises(FactorizationExceeded):
            squarefree_kernel(Fraction(a, b), budget)
        with pytest.raises(FactorizationExceeded):
            squarefree_kernel((a, b), budget)

    def test_each_piece_is_one_squarefree_part_call(self, monkeypatch):
        pieces = []
        original = factoring.squarefree_part

        def recording(n, *args):
            pieces.append(n)
            return original(n, *args)

        monkeypatch.setattr(factoring, "squarefree_part", recording)
        r = Fraction(49, 32)
        assert squarefree_kernel((r, r * r - 1)) == 34
        # 49, 32, 49^2 - 32^2 and 32^2; no piece of 1 is factored.
        assert pieces == [49, 32, 49**2 - 32**2, 32**2]

    @given(
        st.fractions(min_value=-5000, max_value=5000, max_denominator=300).filter(
            lambda r: r != 0
        )
    )
    @settings(max_examples=80)
    def test_kernel_times_value_is_square(self, r):
        kernel = squarefree_kernel(r)
        assert is_square(kernel * abs(r))
        # Squarefree: no prime square divides the kernel.
        for p in (2, 3, 5, 7, 11, 13):
            assert kernel % (p * p) != 0


class TestSquarefreePart:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, 1),
            (34, 34),
            (49, 1),
            (50, 2),
            (12, 3),
            (2 ** 9 * 3 ** 4 * 17, 2 * 17),
            (720 ** 3, 5),
        ],
    )
    def test_known_values(self, n, expected):
        assert squarefree_part(n) == expected

    def test_huge_square_cofactor_is_cheap(self):
        # A square with no small factors must resolve without factoring it.
        p = 1000000007
        assert squarefree_part(34 * p ** 2, rho_budget=0) == 34

    @pytest.mark.parametrize("n", [32**2, 2**200 * _BIG_SQUARE, (2 * 3 * 9973) ** 6])
    def test_square_piece_is_stripped_by_no_gcd(self, monkeypatch, n):
        # The q^2 piece of r^2 - 1 in every inversion is a square: its part
        # is 1 before any block of trial primes is stripped.
        def no_strip(*args):
            raise AssertionError("a square piece went through trial division")

        monkeypatch.setattr(factoring, "_strip", no_strip)
        assert squarefree_part(n, rho_budget=0) == 1

    def test_cofactor_below_10_to_the_8_is_prime(self):
        # 10009 is left after the 10**4 stage; no prime block past 10**4 is built.
        _prime_blocks.cache_clear()
        assert squarefree_part(2 * 3**2 * 10009, rho_budget=0) == 2 * 10009
        assert _prime_blocks.cache_info().currsize == 1
        assert _prime_blocks(1, 10**4) and _prime_blocks.cache_info().misses == 1

    def test_odd_power_cofactor(self):
        p = 1000003
        assert squarefree_part(p ** 3, rho_budget=0) == p

    def test_rho_splits_large_semiprime(self):
        p, q = 1000003, 1000033
        assert squarefree_part(p * q) == p * q
        assert squarefree_part(p * p * q) == q

    def test_budget_exhaustion_raises(self):
        p, q = 1000000007, 1000000009
        with pytest.raises(FactorizationExceeded):
            squarefree_part(p * q, rho_budget=1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            squarefree_part(0)

    def test_trial_stage_covers_candidates_just_past_its_lower_bound(self):
        # 10009 is prime and congruent to 1 mod 6; a stage starting at 10008
        # must not skip it when aligning onto the 6k+-1 lattice.
        assert _strip_trial(10009 ** 2 * 3, 10008, 20000, 1) == (3, 1)
        assert _strip_trial(10009 ** 3, 10008, 20000, 1) == (1, 10009)

    @pytest.mark.parametrize("lo", [1, 4, 5, 6, 7, 8, 9, 10, 11, 12])
    def test_trial_stage_alignment_from_any_bound(self, lo):
        # Product of every prime in (lo, 60]; one full stage must strip all.
        primes = [p for p in range(2, 61) if is_probable_prime(p) and p > lo]
        n = 1
        for p in primes:
            n *= p
        remaining, odd_part = _strip_trial(n * 61 ** 2, lo, 60, 1)
        assert remaining == 61 ** 2 and odd_part == n


def _sympy_kernel(sympy, factors):
    """The squarefree kernel of the product of factors, from factorint."""
    product = prod(Fraction(f) for f in factors)
    exponents = Counter(sympy.factorint(abs(product.numerator)))
    exponents.update(sympy.factorint(product.denominator))
    return prod(p for p, k in exponents.items() if k % 2)


class TestAgainstSympy:
    @pytest.mark.parametrize("e", range(1, 8))
    def test_planted_inputs_match_factorint(self, e):
        sympy = pytest.importorskip("sympy")
        for n in _planted(e):
            odd = prod(p for p, k in sympy.factorint(n).items() if k % 2)
            assert squarefree_part(n, rho_budget=0) == odd

    @pytest.mark.parametrize(
        "factors",
        [
            (Fraction(49, 32), Fraction(49, 32) ** 2 - 1),
            # Factors sharing primes, small and large.
            (Fraction(12, 5), Fraction(18, 25)),
            (_P1 * 1000003, Fraction(_P1, 10007)),
            (Fraction(999983**3, 10**4), 999983 * 10**3),
            # Squares and negative factors.
            (Fraction(49, 4), Fraction(1000003**2, 9)),
            (_P1**2, 3, Fraction(-1, 4)),
            (Fraction(-3, 7), -5, Fraction(-1000003, 10007**3)),
            # Cofactors above 3.3e24 made of two primes, alone and shared.
            (1000003 * _P25,),
            (Fraction(7, 1000033 * _P25),),
            (Fraction(10000019 * _P25, 7), 3 * _P25),
            (Fraction(-(999983**2) * 1000003 * _P25, 2**5), _P25**2),
        ],
    )
    def test_factor_tuples_match_factorint_of_their_product(self, factors):
        sympy = pytest.importorskip("sympy")
        assert squarefree_kernel(factors) == _sympy_kernel(sympy, factors)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_factor_tuples_match_factorint(self, seed):
        sympy = pytest.importorskip("sympy")
        draw = random.Random(seed)
        pool = (2, 3, 5, 7, *_EDGE_PRIMES, 1000037, 10000019)
        for _ in range(10):
            # At most one prime past 10**8 per tuple keeps factorint fast.
            big = draw.choice((1, _P1, _P25))
            factors = []
            for _ in range(draw.randint(1, 3)):
                num, den = (
                    prod(draw.choice(pool) ** draw.randint(1, 3) for _ in range(draw.randint(0, 3)))
                    * big ** draw.randint(0, 2)
                    for _ in range(2)
                )
                factors.append(Fraction(draw.choice((1, -1)) * num, den))
            factors = tuple(factors)
            assert squarefree_kernel(factors) == _sympy_kernel(sympy, factors), factors

    @pytest.mark.parametrize("lo, hi", [(1, 10**4), (10**4, 10**6), (4, 60), (10008, 20000)])
    def test_prime_blocks_are_products_of_consecutive_primes(self, lo, hi):
        sympy = pytest.importorskip("sympy")
        primes = list(sympy.primerange(lo + 1, hi + 1))
        size = factoring._BLOCK_PRIMES
        blocks = tuple(prod(primes[i : i + size]) for i in range(0, len(primes), size))
        assert _prime_blocks(lo, hi) == blocks


def test_import_builds_no_prime_table():
    env = {**os.environ, "PYTHONPATH": str(Path(factoring.__file__).parents[1])}
    probe = (
        "import npcuboid.cli\n"
        "from npcuboid.factoring import _prime_blocks\n"
        "print(_prime_blocks.cache_info().currsize)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "0"


class TestPrimality:
    def test_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
        for n in range(2, 43):
            assert is_probable_prime(n) == (n in primes)

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_probable_prime(n)

    def test_large_prime(self):
        assert is_probable_prime(2 ** 61 - 1)
        assert not is_probable_prime((2 ** 61 - 1) * (2 ** 31 - 1))

    @pytest.mark.parametrize("n", [_ARNAULT_1993, _ARNAULT_1995])
    def test_strong_pseudoprimes_to_many_bases_rejected(self, n):
        assert n > factoring._MR_DETERMINISTIC_LIMIT
        assert not is_probable_prime(n)

    def test_primes_past_the_deterministic_range(self):
        for n in (_P25, 2**89 - 1, 2**127 - 1, 2**521 - 1):
            assert is_probable_prime(n)
        for n in (_P25 * _P1, (2**89 - 1) ** 2, (2**61 - 1) ** 3):
            assert not is_probable_prime(n)


class TestPrimalityAgainstSympy:
    def test_strong_lucas_matches_sympy(self):
        primetest = pytest.importorskip("sympy.ntheory.primetest")
        # Includes the strong Lucas pseudoprimes 5459, 5777, 10877, 16109 and 18971.
        for n in range(3, 20000, 2):
            expected = primetest.is_strong_lucas_prp(n)
            assert factoring._is_strong_lucas_probable_prime(n) == expected, n

    @pytest.mark.parametrize("seed", range(2))
    def test_bpsw_matches_sympy_past_the_deterministic_range(self, seed):
        sympy = pytest.importorskip("sympy")
        primetest = pytest.importorskip("sympy.ntheory.primetest")
        draw = random.Random(seed)
        limit = factoring._MR_DETERMINISTIC_LIMIT
        odd = [draw.randrange(limit, limit << draw.randrange(1, 400)) | 1 for _ in range(100)]
        primes = [sympy.nextprime(n) for n in odd[:12]]
        candidates = [_ARNAULT_1993, _ARNAULT_1995, *odd, *(n * n for n in odd), *primes]
        # Products of primes, which pass the trial divisions of both tests.
        candidates += [p * q for p, q in zip(primes, primes[1:])]
        for n in candidates:
            assert is_probable_prime(n) == primetest.is_strong_bpsw_prp(n), n
