"""Squarefree-kernel extraction with a bounded factoring effort.

The kernel of a nonzero rational r is the unique squarefree positive integer
s such that s*|r| is the square of a rational. It is computed from the
squarefree part of numerator*denominator by staged trial division, cheap
perfect-power and primality shortcuts, and a deterministic Brent-cycle rho
split. When the rho iteration budget runs out the computation fails loudly
with FactorizationExceeded; a silently wrong kernel would corrupt every
congruent number recovered downstream.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .errors import FactorizationExceeded

DEFAULT_TRIAL_BOUND = 1_000_000
DEFAULT_RHO_BUDGET = 1_000_000

# Cheap first trial stage; most inputs resolve here via the shortcuts.
_SMALL_TRIAL_BOUND = 10_000

# Witnesses proving primality for every n < 3317044064679887385961981.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3317044064679887385961981
# Beyond the deterministic range these extra fixed bases make a composite
# surviving all rounds astronomically unlikely (but not impossible).
_MR_EXTRA_BASES = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below ~3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_BASES
    if n >= _MR_DETERMINISTIC_LIMIT:
        bases = _MR_BASES + _MR_EXTRA_BASES
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _RhoBudget:
    """Shared iteration allowance across all rho splits of one kernel call."""

    def __init__(self, iterations: int):
        self.remaining = iterations

    def spend(self, amount: int) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise FactorizationExceeded(
                "rho iteration budget exhausted before the factorization finished"
            )


def _brent_rho(n: int, budget: _RhoBudget) -> int:
    """Return a nontrivial divisor of odd composite n (Brent's cycle rho).

    Fully deterministic: the polynomial offset walks 1, 2, 3, ... instead of
    being drawn at random, so repeated runs factor identically.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            budget.spend(r)
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(128, r - k)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget.spend(batch)
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # Backtrack one step at a time to recover the lost factor.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                budget.spend(1)
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        # Cycle collapsed onto n itself; retry with the next offset.
    raise FactorizationExceeded(f"rho failed to split {n}")


def _find_prime_factor(n: int, budget: _RhoBudget) -> int:
    while not is_probable_prime(n):
        n = min(d := _brent_rho(n, budget), n // d)
    return n


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 1."""
    if n < (1 << k):
        return 1
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _strip_trial(n: int, lo: int, hi: int, odd_part: int) -> tuple[int, int]:
    """Divide out all primes in (lo, hi] tracking exponent parity.

    Returns (remaining cofactor, updated product of odd-exponent primes).
    Candidates run over 2, 3 and 6k+-1; composites never divide what small
    primes already stripped.
    """
    if lo < 2 <= hi:
        e = 0
        while n % 2 == 0:
            n //= 2
            e += 1
        if e & 1:
            odd_part *= 2
    if lo < 3 <= hi:
        e = 0
        while n % 3 == 0:
            n //= 3
            e += 1
        if e & 1:
            odd_part *= 3
    d = max(5, lo + 1)
    rem = d % 6
    if rem == 5:
        step = 2
    elif rem == 1:
        step = 4
    elif rem == 0:
        d += 1
        step = 4
    else:  # 2, 3, 4: advance to the next 6k+5
        d += 5 - rem
        step = 2
    while d <= hi and d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e & 1:
                odd_part *= d
        d += step
        step = 6 - step
    return n, odd_part


def squarefree_part(n: int, rho_budget: int = DEFAULT_RHO_BUDGET) -> int:
    """Squarefree part of a positive integer: the product of the primes
    occurring in n with odd exponent."""
    if n <= 0:
        raise ValueError("squarefree part requires a positive integer")
    budget = _RhoBudget(rho_budget)
    n, result = _strip_trial(n, 1, _SMALL_TRIAL_BOUND, 1)
    tried_full = False
    while n > 1:
        root = isqrt(n)
        if root * root == n:
            # Every exponent in n is even regardless of how root factors.
            return result
        if is_probable_prime(n):
            return result * n
        # Odd perfect powers preserve exponent parity of the base.
        reduced = False
        for k in range(3, n.bit_length() + 1, 2):
            r = _iroot(n, k)
            if r ** k == n:
                n = r
                reduced = True
                break
        if reduced:
            continue
        if not tried_full:
            n, result = _strip_trial(n, _SMALL_TRIAL_BOUND, DEFAULT_TRIAL_BOUND, result)
            tried_full = True
            continue
        p = _find_prime_factor(n, budget)
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e & 1:
            result *= p
    return result


def squarefree_kernel(r: Fraction | int, rho_budget: int = DEFAULT_RHO_BUDGET) -> int:
    """The squarefree positive integer s with s*|r| a rational square.

    Since r is stored reduced, s is the squarefree part of
    |numerator*denominator|.
    """
    r = Fraction(r)
    if r == 0:
        raise ValueError("zero has no squarefree kernel")
    return squarefree_part(abs(r.numerator * r.denominator), rho_budget)
