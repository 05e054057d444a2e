"""Exact integer arithmetic: prime sieving, primality tests, factorization
of a value with a prime factor up to FACTOR_BOUND into such primes times at
most one larger prime, integer roots, integer bitsets, Chinese remaindering,
and cube roots to moduli of the form 6n with n a squarefree product of
primes congruent to 5 mod 6.

Everything operates on plain Python ints (arbitrary precision).  Integers
serialize as decimal strings with no separators.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from typing import Iterable, Sequence

__all__ = [
    "FACTOR_BOUND",
    "TRIAL_DIVISION_BOUND",
    "TRIAL_LOOP_PRIMES",
    "TRIAL_PRIMES_5_MOD_6",
    "TRIAL_PRODUCT_1_MOD_6",
    "TRIAL_PRODUCT_5_MOD_6",
    "clear_bits",
    "crt",
    "cube_root_mod_6n",
    "factorize",
    "has_small_factor",
    "integer_cbrt",
    "is_perfect_square",
    "is_prime",
    "jacobi",
    "prime_sieve",
    "primes_upto",
]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_k, the smallest strong pseudoprime to the first k of _MR_BASES
# (Jaeschke 1993 for k <= 8, Jiang and Deng 2014 for k = 9..11, Sorenson and
# Webster 2015 for k = 12, 13): an n that passes the first k bases and is
# below psi_k is prime, so is_prime stops there.  psi_13 (about 3.3e24) bounds
# the range where the 13 bases decide primality; is_prime refuses n from it.
_MR_PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)

# modulus.admissible_factors trial-divides by the primes up to this bound, by a
# loop and two gcds (see TRIAL_LOOP_PRIMES); factorize takes only the
# cofactors that have none of them
TRIAL_DIVISION_BOUND = 10_000

# factorize splits off the primes in (TRIAL_DIVISION_BOUND, FACTOR_BOUND] by
# one gcd with their product and accepts at most one prime above the bound;
# past that it gives up, and the direct scan skips the candidate.  Chosen from
# the measured curve on 1720 construct-workload targets (seed 71, CPU time of
# three passes): 0.62-0.72 s at 2*10**4, 0.64-0.75 s at 3*10**4, 0.71-0.88 s
# at 5*10**4 and 0.80-0.85 s at 10**5.  A larger bound skips fewer admissible
# candidates but makes the gcd dearer.
FACTOR_BOUND = 30_000

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# squares mod 256, as a 0/1 table for a cheap pre-filter
_SQUARES_MOD_256 = frozenset(j * j & 255 for j in range(256))
_SQ256 = bytes(i in _SQUARES_MOD_256 for i in range(256))


@lru_cache(maxsize=2)
def prime_sieve(n: int) -> bytes:
    """Byte sieve of Eratosthenes for n >= 1: sieve[i] == 1 exactly when
    i <= n is prime.  Cached, so certify reads every residue class of one
    bound out of a single sieve."""
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start::p] = bytes((n - start) // p + 1)
    return bytes(sieve)


def primes_upto(n: int) -> list[int]:
    """All primes <= n, read out of prime_sieve(n)."""
    if n < 2:
        return []
    return list(compress(range(n + 1), prime_sieve(n)))


def clear_bits(bits: int, n: int) -> list[int]:
    """The i <= n whose bit is clear in the integer bitset `bits`."""
    # bin() gives the bits highest first; the set bit n + 1 pads it to n + 2
    # digits, and [:2:-1] reverses them without "0b" and that bit
    digits = bin(bits & ((1 << (n + 1)) - 1) | 1 << (n + 1))[:2:-1]
    return [i for i, bit in enumerate(digits) if bit == "0"]


# has_small_factor rejects a composite with a prime factor up to
# _GCD_SIEVE_BOUND before any modular exponentiation.  The composite modulus
# scan runs it on each l before is_prime, and construct._binary_part on each
# fibre before Cornacchia.  Its gcd with the product of those primes costs
# more as the bound grows: timed on the values decompose then passed to
# is_prime, 3000 matched 1000 on ~90-bit values, where 10**4 was 13% slower,
# and came within 7% of 10**4 on ~700-bit values.
_GCD_SIEVE_BOUND = 3000
_GCD_SIEVE_PRODUCT = math.prod(primes_upto(_GCD_SIEVE_BOUND))
# 111 546 435, below 2**30, so n % _GCD_SIEVE_WORD divides by a single digit
# of CPython's ints.  It alone settled 67% of the calls on the fibres of the
# construct benchmark workload and 56% on huge (seed 7), each a gcd with the
# 4330-bit product saved.  Both callers pass odd values; 2 is left to the gcd.
_GCD_SIEVE_WORD = math.prod((3, 5, 7, 11, 13, 17, 19, 23))


def has_small_factor(n: int) -> bool:
    """True when n > 3000 has a prime factor up to 3000: n is composite.

    No modular exponentiation: a machine-word remainder finds a factor from
    3 to 23, and only when it finds none does one gcd with the product of
    the primes up to 3000 run.  False says nothing about n; at or below the
    bound a common factor may be n itself, so nothing is rejected.
    """
    return n > _GCD_SIEVE_BOUND and (
        math.gcd(n % _GCD_SIEVE_WORD, _GCD_SIEVE_WORD) != 1
        or math.gcd(n, _GCD_SIEVE_PRODUCT) != 1
    )


def _mr_witness(n: int, a: int, d: int, s: int) -> bool:
    """True if base a certifies n composite."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a | n) for odd positive n."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below psi_13 (about 3.3e24).

    Miller-Rabin stops after the first k bases once n is below psi_k, the
    smallest strong pseudoprime to them, so a prime below 2.5e7 takes 3 bases
    and one below 2**64 at most 12.  Raises ValueError for n >= psi_13, where
    the 13 bases prove nothing.  Only primes up to 47 are divided out first;
    callers remove larger small factors (has_small_factor, trial division).
    """
    if n >= _MR_PSI[-1]:
        raise ValueError(f"is_prime requires n < psi_13 = {_MR_PSI[-1]}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a, psi in zip(_MR_BASES, _MR_PSI):
        if _mr_witness(n, a, d, s):
            return False
        if n < psi:
            break
    return True


# The trial primes as modulus.admissible_factors takes them: a loop over those
# below 200, then one gcd with the product of the rest that are 1 (mod 6) and
# one with the product of those that are 5 (mod 6); 2 and 3 are in the loop.
# The three together make the product that checks factorize's precondition.
_trial_primes = primes_upto(TRIAL_DIVISION_BOUND)
TRIAL_LOOP_PRIMES = tuple(p for p in _trial_primes if p < 200)
TRIAL_PRIMES_5_MOD_6 = tuple(p for p in _trial_primes if p >= 200 and p % 6 == 5)
TRIAL_PRODUCT_5_MOD_6 = math.prod(TRIAL_PRIMES_5_MOD_6)
TRIAL_PRODUCT_1_MOD_6 = math.prod(p for p in _trial_primes if p >= 200 and p % 6 == 1)
_TRIAL_PRODUCT = math.prod(TRIAL_LOOP_PRIMES) * TRIAL_PRODUCT_1_MOD_6 * TRIAL_PRODUCT_5_MOD_6
del _trial_primes


@lru_cache(maxsize=1)
def _factor_table() -> tuple[tuple[int, ...], int]:
    """The primes in (TRIAL_DIVISION_BOUND, FACTOR_BOUND] and their product,
    built on factorize's first call (2016 primes, 28 644 bits)."""
    primes = tuple(p for p in primes_upto(FACTOR_BOUND) if p > TRIAL_DIVISION_BOUND)
    return primes, math.prod(primes)


def factorize(n: int) -> list[tuple[int, int]] | None:
    """Full factorization of n as a sorted list of (prime, exponent), or
    None when n has no prime factor up to FACTOR_BOUND and n > 1, or two or
    more prime factors above FACTOR_BOUND, counted with multiplicity.

    Precondition: n >= 1 has no prime factor up to TRIAL_DIVISION_BOUND, as
    the cofactor modulus.admissible_factors leaves after its trial division,
    and n < psi_13, so is_prime proves the part that is left.  One gcd with
    the product of the primes up to FACTOR_BOUND collects the factors up to
    the bound.  When it is 1, n is a prime above the bound or has two or
    more prime factors above it, and the answer is None with no primality
    test: admissible_factors proves a prime cofactor itself, and only when
    it is 5 (mod 6).  Otherwise a loop over those primes, which ends once
    the rest of the gcd is 1 or a prime, splits it in at most
    pi(FACTOR_BOUND) - pi(10**4) = 2016 steps.  Once their powers are
    divided out, what is left must be 1 or a prime that is_prime proves.
    The modulus scan built on it thus takes the smallest candidate whose
    cofactor splits by trial division up to FACTOR_BOUND, times at most one
    prime.  Raises ValueError on an input that breaks the precondition.
    """
    if n < 1 or n >= _MR_PSI[-1] or math.gcd(n, _TRIAL_PRODUCT) != 1:
        raise ValueError(
            f"factorize requires 1 <= n < psi_13 with no prime factor up to"
            f" {TRIAL_DIVISION_BOUND}"
        )
    primes, product = _factor_table()
    g = math.gcd(n, product)
    if g == 1 and n > 1:
        return None
    found = []
    for p in primes:
        if p * p > g:
            break  # g is 1 or a prime: every smaller prime is divided out
        if g % p == 0:
            found.append(p)
            g //= p
    if g > 1:
        found.append(g)
    factors = []
    for p in found:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        factors.append((p, e))
    # n has no prime factor up to FACTOR_BOUND, so up to FACTOR_BOUND**2 it
    # is 1 or a prime
    if n > 1:
        if n > FACTOR_BOUND**2 and not is_prime(n):
            return None
        factors.append((n, 1))
    return factors


def integer_cbrt(n: int) -> int:
    """floor(n ** (1/3)), exact for any nonnegative int.

    Below 2**53, n converts to a float exactly, and the rounded float cube
    root is within one of the answer; above, Newton's iteration from a power
    of two above the root takes its place.  Either start is corrected by the
    same exact integer steps.
    """
    if n < 0:
        raise ValueError("integer_cbrt requires n >= 0")
    if n < 1 << 53:
        x = round(n ** (1 / 3))
    else:
        x = 1 << ((n.bit_length() + 2) // 3)  # x**3 >= n
        while True:
            y = (2 * x + n // (x * x)) // 3
            if y >= x:
                break
            x = y
    while x * x * x > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


def is_perfect_square(n: int) -> int | None:
    """sqrt(n) when n is a perfect square, else None."""
    if n < 0:
        return None
    if not _SQ256[n & 255]:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def crt(pairs: Iterable[tuple[int, int]]) -> int:
    """The unique x mod prod(m_i) with x = r_i (mod m_i) for each pair
    (r_i, m_i); the moduli must be pairwise coprime."""
    x, m = 0, 1
    for r, mod in pairs:
        if mod < 1:
            raise ValueError("moduli must be positive")
        try:
            inv = pow(m % mod, -1, mod) if mod > 1 else 0
        except ValueError as exc:
            raise ValueError("moduli are not pairwise coprime") from exc
        x += (r - x) * inv % mod * m
        m *= mod
        x %= m
    return x


def cube_root_mod_6n(a: int, primes: Sequence[int]) -> int:
    """The unique x in [0, 6n) with x**3 = a (mod 6n), where n is the
    product of `primes`: distinct primes all congruent to 5 mod 6.

    Cubing is a bijection mod 2 and mod 3 (x**3 = x there) and mod every
    prime p = 5 (mod 6), where the inverse map is c -> c**((2p-1)/3): note
    3 | 2p - 1 and (c**((2p-1)/3))**3 = c**(2(p-1)) * c = c (mod p).
    """
    n = 1
    prev = 0
    for p in primes:
        if p % 6 != 5:
            raise ValueError(f"{p} is not congruent to 5 mod 6")
        if p <= prev:
            raise ValueError("primes must be strictly increasing")
        prev = p
        n *= p
    a %= 6 * n
    pairs = [(a % 2, 2), (a % 3, 3)]
    for p in primes:
        pairs.append((pow(a % p, (2 * p - 1) // 3, p), p))
    return crt(pairs)
