"""Exact integer arithmetic: prime sieving, primality tests, factorization,
integer roots, integer bitsets, Chinese remaindering, and cube roots to
moduli of the form 6n with n a squarefree product of primes congruent to
5 mod 6.

Everything operates on plain Python ints (arbitrary precision).  Integers
serialize as decimal strings with no separators.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress, count
from typing import Iterable, Sequence

__all__ = [
    "PROBABLE_PRIME_THRESHOLD",
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


# The first 13 prime bases decide primality for everything below this bound
# (the smallest composite passing all of them is the bound itself).  Above it
# a "prime" verdict is a strong probable-prime result, not a deterministic
# one; callers surface such primes with a "probable" flag.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PROBABLE_PRIME_THRESHOLD = 3_317_044_064_679_887_385_961_981

# psi_k, the smallest strong pseudoprime to the first k of _MR_BASES
# (Jaeschke 1993 for k <= 8, Jiang and Deng 2014 for k = 9..11, Sorenson and
# Webster 2015 for k = 12, 13): an n that passes the first k bases and is
# below psi_k is prime, so is_prime stops there.  psi_13 is
# PROBABLE_PRIME_THRESHOLD.
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
    PROBABLE_PRIME_THRESHOLD,
)

# modulus.admissible_factors trial-divides by the primes up to this bound, by a
# loop and two gcds (see TRIAL_LOOP_PRIMES); factorize takes only the
# cofactors that have none of them
TRIAL_DIVISION_BOUND = 10_000

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


# One gcd with the product of the primes up to _GCD_SIEVE_BOUND rejects a
# composite with such a factor before any modular exponentiation; about half
# of the composites that pass is_prime's small-prime loop have one.  The gcd
# costs more as the bound grows: timed on the inputs decompose passes to
# is_prime, 3000 matched 1000 on ~90-bit values, where 10**4 was 13% slower,
# and came within 7% of 10**4 on ~700-bit values.
_GCD_SIEVE_BOUND = 3000
_GCD_SIEVE_PRODUCT = math.prod(primes_upto(_GCD_SIEVE_BOUND))


def has_small_factor(n: int) -> bool:
    """True when n > 3000 has a prime factor up to 3000: n is composite.

    One gcd, no modular exponentiation.  False says nothing about n; at or
    below the bound a common factor may be n itself, so nothing is rejected.
    """
    return n > _GCD_SIEVE_BOUND and math.gcd(n, _GCD_SIEVE_PRODUCT) != 1


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


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with the standard parameter search
    D = 5, -7, 9, -11, ... until (D|n) = -1, P = 1, Q = (1-D)/4."""
    r = math.isqrt(n)
    if r * r == n:
        return False
    d = 5
    while True:
        j = jacobi(d % n, n)
        if j == -1:
            break
        if j == 0 and abs(d) % n != 0:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    q = (1 - d) // 4

    # n + 1 = k * 2**s with k odd
    k = n + 1
    s = (k & -k).bit_length() - 1
    k >>= s

    inv2 = (n + 1) >> 1
    u, v, qm = 1, 1, q % n  # U_1, V_1, Q^1
    for bit in bin(k)[3:]:
        # index doubling: U_2m = U V, V_2m = V^2 - 2 Q^m
        u, v = u * v % n, (v * v - 2 * qm) % n
        qm = qm * qm % n
        if bit == "1":
            # index +1: U' = (U + V)/2, V' = (D U + V)/2
            u, v = (u + v) * inv2 % n, (d * u + v) * inv2 % n
            qm = qm * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qm) % n
        if v == 0:
            return True
        qm = qm * qm % n
    return False


def is_prime(n: int) -> bool:
    """Primality test.

    Deterministic for n below PROBABLE_PRIME_THRESHOLD, the thirteen-base
    Miller-Rabin bound (about 3.3e24): Miller-Rabin stops after the first k
    bases once n is below psi_k, the smallest strong pseudoprime to them, so
    a prime below 2.5e7 takes 3 bases and one below 2**64 at most 12.  Above
    the threshold this is a strong probable-prime test (Miller-Rabin on all
    13 bases plus a strong Lucas test).  No known composite passes.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if has_small_factor(n):
        return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a, psi in zip(_MR_BASES, _MR_PSI):
        if _mr_witness(n, a, d, s):
            return False
        if n < psi:
            return True
    return _strong_lucas_prp(n)


def _brent_cycle(n: int, c: int) -> int:
    """One Pollard-rho round (Brent's cycle finding) with increment c.
    Returns a nontrivial factor, or 0 if this increment fails."""
    y, r, q, g = 2, 1, 1, 1
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += 128
        r <<= 1
    if g == n:
        g = 1
        y = ys
        while g == 1:
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
    return 0 if g == n else g


def _pollard_brent(n: int) -> int:
    # n odd, composite, with no factors below the trial-division bound;
    # increments are tried in a fixed order so results are reproducible
    for c in count(1):
        g = _brent_cycle(n, c)
        if g:
            return g
    raise AssertionError("unreachable")


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


def factorize(n: int) -> list[tuple[int, int]]:
    """Full factorization of n as a sorted list of (prime, exponent).

    Precondition: n >= 1 has no prime factor up to TRIAL_DIVISION_BOUND, as
    the cofactor modulus.admissible_factors leaves after its trial division.
    Pollard rho splits n until every part passes is_prime.  Raises
    ValueError on an input that breaks the precondition.
    """
    if n < 1 or math.gcd(n, _TRIAL_PRODUCT) != 1:
        raise ValueError(
            f"factorize requires n >= 1 with no prime factor up to {TRIAL_DIVISION_BOUND}"
        )
    counts: dict[int, int] = {}
    stack = [n] if n > 1 else []
    while stack:
        v = stack.pop()
        if is_prime(v):
            counts[v] = counts.get(v, 0) + 1
            continue
        g = _pollard_brent(v)
        stack.append(g)
        stack.append(v // g)
    factors = sorted(counts.items())
    check = 1
    for p, e in factors:
        check *= p**e
    assert check == n, "factorization failed to multiply back"
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
