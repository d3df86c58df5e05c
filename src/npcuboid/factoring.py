"""Squarefree-kernel extraction with a bounded factoring effort.

The kernel of a nonzero rational r is the unique squarefree positive integer
s such that s*|r| is the square of a rational. It is the squarefree part of
numerator*denominator. A product of rationals is never multiplied out: each
factor's |numerator| and denominator is a piece of its own, and the pieces'
squarefree parts combine into the kernel. An inversion passes r and r^2 - 1
with r = p/q in lowest terms: the pieces p, q, p^2 - q^2 and q^2, of which
p, q and p^2 - q^2 are pairwise coprime. By the 2-descent map each piece is
a square times a divisor of 2N, so a piece without N's large primes ends as
a square after the cheap first trial stage, and only the pieces that carry
them are trial-divided further.

Each piece goes through the same stages. A square piece ends at once. Trial
division strips the primes up to 10**4; a cofactor below 10**8 is then 1 or
a prime, and a larger one is stripped of the primes up to
DEFAULT_TRIAL_BOUND, by gcds with cached products of blocks of primes;
square, primality and odd-power shortcuts and a deterministic Brent-cycle
rho split finish the cofactor. Primality is proven by fixed Miller-Rabin
bases below about 3.3e24 and tested by Baillie-PSW above. All the pieces of
one kernel spend from one rho iteration budget. When it runs out the
computation fails loudly with FactorizationExceeded; a silently wrong
kernel would corrupt every congruent number recovered downstream.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import compress, islice
from math import gcd, isqrt, prod
from typing import Iterator

from .errors import FactorizationExceeded
from .rationals import is_square_int

DEFAULT_TRIAL_BOUND = 1_000_000
DEFAULT_RHO_BUDGET = 1_000_000

# Cheap first trial stage; most inputs resolve here via the square test.
_SMALL_TRIAL_BOUND = 10_000
# Trial primes are stripped 512 to a gcd, sieved 2**16 numbers at a time.
_BLOCK_PRIMES = 512
_SIEVE_SEGMENT = 1 << 16

# Witnesses proving primality for every n < 3317044064679887385961981.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3317044064679887385961981


def _is_strong_probable_prime(n: int, base: int, d: int, s: int) -> bool:
    """The strong (Miller-Rabin) test of odd n to one base, n - 1 = d 2^s."""
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of odd n > 1 with Selfridge's parameters: D the
    first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and Q = (1 - D)/4
    (Baillie and Wagstaff, "Lucas pseudoprimes", 1980).

    With n + 1 = k 2^s, k odd, n passes if U_k = 0 or V_(k 2^r) = 0 for some
    0 <= r < s, all mod n. U_k, V_k and Q^k are built along the bits of k by
    U_2j = U_j V_j, V_2j = V_j^2 - 2 Q^j, and by U_(j+1) = (U_j + V_j)/2,
    V_(j+1) = (D U_j + V_j)/2 for a set bit. A square n has (D/n) = -1 for
    no D, so it is refused first."""
    if is_square_int(n):
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and D % n:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    k = (n + 1) >> s
    u, v, qk = 1, 1, Q % n
    for i in range(k.bit_length() - 2, -1, -1):
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if k >> i & 1:
            u, v = (u + v) % n, (D * u + v) % n
            u, v = (u + n * (u & 1)) // 2, (v + n * (v & 1)) // 2
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_probable_prime(n: int) -> bool:
    """Primality test: Miller-Rabin to the bases _MR_BASES, a proof below
    ~3.3e24; above, Baillie-PSW, the strong test to base 2 and the strong
    Lucas test, which no composite is known to pass. Fixed bases would not
    do there: F. Arnault built composites that pass the strong test to
    every prime base below 200 (1993) and below 307 (1995)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_DETERMINISTIC_LIMIT:
        return all(_is_strong_probable_prime(n, a, d, s) for a in _MR_BASES)
    return _is_strong_probable_prime(n, 2, d, s) and _is_strong_lucas_probable_prime(n)


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


def _primes(lo: int, hi: int) -> Iterator[int]:
    """The primes in (lo, hi], sieved _SIEVE_SEGMENT numbers at a time by the
    primes up to sqrt(hi); no full-range sieve is held."""
    base = list(_primes(1, isqrt(hi))) if hi > 3 else []
    for start in range(max(lo + 1, 2), hi + 1, _SIEVE_SEGMENT):
        stop = min(start + _SIEVE_SEGMENT, hi + 1)
        segment = bytearray([1]) * (stop - start)
        for p in base:
            first = max(p * p, -(-start // p) * p)
            segment[first - start :: p] = bytes(len(range(first, stop, p)))
        yield from compress(range(start, stop), segment)


@cache
def _prime_blocks(lo: int, hi: int) -> tuple[int, ...]:
    """Products of _BLOCK_PRIMES consecutive primes in (lo, hi], built on first use."""
    primes, blocks = _primes(lo, hi), []
    while block := list(islice(primes, _BLOCK_PRIMES)):
        blocks.append(prod(block))
    return tuple(blocks)


def _strip(n: int, block: int, odd_part: int) -> tuple[int, int]:
    """Divide out every prime of the squarefree block, tracking exponent parity.

    Returns (cofactor, odd_part times the block's primes of odd exponent). g
    is the product of the block's primes dividing n; after round i, g // h is
    the product of those of exponent exactly i."""
    g, i = gcd(n, block), 1
    while g > 1:
        n //= g
        h = gcd(n, g)
        if i & 1:
            odd_part *= g // h
        g, i = h, i + 1
    return n, odd_part


def _strip_trial(n: int, lo: int, hi: int, odd_part: int) -> tuple[int, int]:
    """Divide out all primes in (lo, hi], one gcd per block of primes."""
    for block in _prime_blocks(lo, hi):
        n, odd_part = _strip(n, block, odd_part)
    return n, odd_part


def _odd_power_root(n: int) -> int:
    """r if n = r**k for an odd k >= 3 (the least such k), else n. Every prime
    of n exceeds DEFAULT_TRIAL_BOUND, so n = r**k needs DEFAULT_TRIAL_BOUND**k
    < n; Newton's iteration from above the k-th root descends to its floor."""
    k = 3
    while DEFAULT_TRIAL_BOUND**k < n:
        r = 1 << (n.bit_length() // k + 1)
        while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = s
        if r**k == n:
            return r
        k += 2
    return n


def squarefree_part(n: int, rho_budget: int | _RhoBudget = DEFAULT_RHO_BUDGET) -> int:
    """Squarefree part of a positive integer: the product of the primes
    occurring in n with odd exponent.

    rho_budget is an iteration count, or the _RhoBudget that the pieces of
    one squarefree_kernel call spend from together.
    """
    if n <= 0:
        raise ValueError("squarefree part requires a positive integer")
    # Every exponent of a square is even regardless of how its root factors,
    # so a square piece, such as the q^2 of every inversion, costs no gcd.
    if is_square_int(n):
        return 1
    n, result = _strip_trial(n, 1, _SMALL_TRIAL_BOUND, 1)
    if is_square_int(n):
        return result
    # n has no prime factor up to 10**4, and a composite n has one up to
    # sqrt(n); so 1 < n < 10**8 is prime.
    if n < _SMALL_TRIAL_BOUND**2:
        return result * n
    n, result = _strip_trial(n, _SMALL_TRIAL_BOUND, DEFAULT_TRIAL_BOUND, result)
    budget = rho_budget if isinstance(rho_budget, _RhoBudget) else _RhoBudget(rho_budget)
    while n > 1:
        if is_square_int(n):
            return result
        if is_probable_prime(n):
            return result * n
        # Odd perfect powers preserve exponent parity of the base.
        if (root := _odd_power_root(n)) != n:
            n = root
            continue
        n, result = _strip(n, _find_prime_factor(n, budget), result)
    return result


def squarefree_kernel(
    r: Fraction | int | tuple[Fraction | int, ...], rho_budget: int = DEFAULT_RHO_BUDGET
) -> int:
    """The squarefree positive integer s with s*|r| a rational square, where
    r is one rational or a tuple of rationals standing for their product.

    Each factor is stored reduced, so its kernel is the squarefree part of
    |numerator*denominator|. The |numerator| and the denominator of every
    factor go through squarefree_part separately, all spending from one rho
    budget of rho_budget iterations, and two kernels s and k combine as
    s*k/gcd(s, k)**2. That rule holds for any squarefree s and k, coprime or
    not, so factors that share primes still give the kernel of the product.
    """
    factors = [Fraction(f) for f in (r if isinstance(r, tuple) else (r,))]
    if not all(factors):
        raise ValueError("zero has no squarefree kernel")
    budget = _RhoBudget(rho_budget)
    kernel = 1
    for factor in factors:
        for piece in (abs(factor.numerator), factor.denominator):
            if piece > 1:
                part = squarefree_part(piece, budget)
                g = gcd(kernel, part)
                kernel = kernel // g * (part // g)
    return kernel
