"""Exact integer arithmetic: prime sieving, primality tests, factorization
of a value with a prime factor up to FACTOR_BOUND into such primes times at
most one larger prime, integer roots, integer bitsets and Chinese
remaindering.  Cube roots modulo 6 times an admissible modulus are
modulus.AuxModulus.cube_root, and the split of the trial primes that the
direct modulus scan divides by lives in modulus too.

Everything operates on plain Python ints (arbitrary precision).  Integers
serialize as decimal strings with no separators.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from typing import Iterable

__all__ = [
    "FACTOR_BOUND",
    "TRIAL_DIVISION_BOUND",
    "bin_digits",
    "clear_bits",
    "crt",
    "factorize",
    "has_small_factor",
    "integer_cbrt",
    "is_perfect_square",
    "is_prime",
    "jacobi",
    "prime_sieve",
    "primes_upto",
    "split_squarefree",
    "sumset",
]


_MR_BASES = (2, 3, 5, 7, 11)

# psi_k, the smallest strong pseudoprime to the first k of _MR_BASES
# (Jaeschke 1993): an n that passes the first k bases and is below psi_k is
# prime, so is_prime stops there.  psi_5 (about 2.15e12) bounds the range
# where the five bases decide primality; is_prime refuses n from it.  No
# caller comes near it: direct-scan windows end below 1.91e8 and the
# composite route's large prime l below 1.72e11.
_MR_PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
)

# modulus.admissible_factors trial-divides by the primes up to this bound, by a
# loop and two gcds; factorize takes only the cofactors that have none of them
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


def bin_digits(bits: int, n: int) -> str:
    """Bits 0 to n of the integer bitset `bits` as n + 1 digits "0" or "1",
    bit 0 first."""
    # bin() gives the bits highest first; the set bit n + 1 pads it to n + 2
    # digits, and [:2:-1] reverses them without "0b" and that bit
    return bin(bits & ((1 << (n + 1)) - 1) | 1 << (n + 1))[:2:-1]


def sumset(bits: int, shifts: Iterable[int], n: int) -> int:
    """The OR of bits << s over `shifts`, cut to bits 0 to n: a bitset sumset."""
    out = 0
    for s in shifts:
        out |= bits << s
    return out & ((1 << (n + 1)) - 1)


def clear_bits(bits: int, n: int) -> list[int]:
    """The i <= n whose bit is clear in the integer bitset `bits`."""
    return [i for i, bit in enumerate(bin_digits(bits, n)) if bit == "0"]


# has_small_factor rejects a composite with a prime factor up to
# _GCD_SIEVE_BOUND before any modular exponentiation; the composite modulus
# scan runs it on each l before is_prime.  construct._binary_part takes the
# same bound and product to read off the small part of each ternary fibre.
# The gcd with the product costs more as the bound grows: timed on the values
# decompose then passed to is_prime, 3000 matched 1000 on ~90-bit values,
# where 10**4 was 13% slower, and came within 7% of 10**4 on ~700-bit values.
_GCD_SIEVE_BOUND = 3000
_GCD_SIEVE_PRODUCT = math.prod(primes_upto(_GCD_SIEVE_BOUND))
# 111 546 435, below 2**30, so n % _GCD_SIEVE_WORD divides by a single digit
# of CPython's ints.  It alone settled 35% of the calls on the composite
# scan's l on the construct benchmark workload and 37% on huge (seed 7), each
# a gcd with the 4330-bit product saved.  Those l are odd; 2 is left to the
# gcd.
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
    """Deterministic primality test for n below psi_5 (about 2.15e12).

    Miller-Rabin stops after the first k bases once n is below psi_k, the
    smallest strong pseudoprime to them, so a prime below 2.5e7 takes 3
    bases.  Raises ValueError for n >= psi_5, where the five bases prove
    nothing.  Only primes up to 47 are divided out first; callers remove
    larger small factors (has_small_factor, trial division).
    """
    if n >= _MR_PSI[-1]:
        raise ValueError(f"is_prime requires n < psi_5 = {_MR_PSI[-1]}")
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


def split_squarefree(g: int, primes: Iterable[int]) -> list[int]:
    """The prime factors of a squarefree g >= 1, ascending, where `primes`
    ascends through every prime factor of g but the largest.

    Walks `primes` until p * p exceeds what is left of g, dividing out each
    one that divides it; a remainder above 1 is then a prime, the largest
    factor.  Splits a gcd with a product of known primes, which holds each
    of them at most once.
    """
    found = []
    for p in primes:
        if p * p > g:
            break
        if g % p == 0:
            found.append(p)
            g //= p
    if g > 1:
        found.append(g)
    return found


# checks factorize's precondition: no prime factor up to TRIAL_DIVISION_BOUND
_TRIAL_PRODUCT = math.prod(primes_upto(TRIAL_DIVISION_BOUND))


@lru_cache(maxsize=1)
def _factor_table() -> tuple[tuple[int, ...], int]:
    """The primes in (TRIAL_DIVISION_BOUND, FACTOR_BOUND] and their product,
    built on factorize's first call (2016 primes, 28 644 bits)."""
    primes = tuple(p for p in primes_upto(FACTOR_BOUND) if p > TRIAL_DIVISION_BOUND)
    return primes, math.prod(primes)


def factorize(n: int) -> list[tuple[int, int]] | None:
    """Full factorization of n as a sorted list of (prime, exponent), or
    None when n > 1 has no prime factor up to FACTOR_BOUND.

    Precondition: n >= 1 has no prime factor up to TRIAL_DIVISION_BOUND, as
    the cofactor modulus.admissible_factors leaves after its trial division,
    and n < psi_5.  One gcd with the product of the primes up to
    FACTOR_BOUND collects the factors up to the bound.  When it is 1, n is
    a prime above the bound or has two or more prime factors above it, and
    the answer is None: admissible_factors proves a prime cofactor itself,
    and only when it is 5 (mod 6).  Otherwise split_squarefree splits the
    gcd over those primes in at most pi(FACTOR_BOUND) - pi(10**4) = 2016
    steps.  Once their powers are divided out, what is left is below
    psi_5 / 10007 < FACTOR_BOUND**2 with no prime factor up to the bound:
    1 or a prime, so no primality test runs.  The modulus scan built on it
    thus takes the smallest candidate whose cofactor splits by trial
    division up to FACTOR_BOUND, times at most one prime.  Raises
    ValueError on an input that breaks the precondition.
    """
    if n < 1 or n >= _MR_PSI[-1] or math.gcd(n, _TRIAL_PRODUCT) != 1:
        raise ValueError(
            f"factorize requires 1 <= n < psi_5 with no prime factor up to"
            f" {TRIAL_DIVISION_BOUND}"
        )
    primes, product = _factor_table()
    g = math.gcd(n, product)
    if g == 1 and n > 1:
        return None
    factors = []
    for p in split_squarefree(g, primes):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        factors.append((p, e))
    if n > 1:
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

