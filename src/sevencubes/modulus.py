"""Selection of the auxiliary modulus m used by the seven-cube construction.

Admissible moduli are squarefree products of primes congruent to 5 mod 6
(including the empty product 1); cubing is then a bijection mod 6m.  For an
input n = 2 (mod 4) the construction needs

    1618 * m**3 < n < 1786 * m**3        (so the residual quotient q
                                          satisfies 0 < q < 16 m**2)
    m = n/2 (mod 4)                      (so the quotient is an integer)
    m = b  (mod 25) for a steering
      residue b                          (so q dodges the classes the
                                          ternary form cannot represent)

This module picks steering residues (for 5 not dividing n, from a table
keyed on n mod 25) and offers the two scans construct chooses between by
size, one per target.  Up to COMPOSITE_ROUTE_MIN (about 1.1e28) the direct
scan walks the valid interval, whose values then stay at or below
190 727 607, and takes the smallest admissible candidate: so small a
cofactor splits by trial division up to arith.FACTOR_BOUND, times at most
one prime, and none is skipped.  Above the gate the direct scan refuses to
run.  There the composite scan builds m = S * l: S is a product of small
primes from the trial-division table and l one prime below 2**38,
so nothing large is factored or tested.
Every prime factor of every modulus is proven: all lie below psi_5 (about
2.15e12), where is_prime's Miller-Rabin bases are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import count
from math import gcd, prod

from .arith import (
    TRIAL_DIVISION_BOUND,
    crt,
    factorize,
    has_small_factor,
    integer_cbrt,
    is_prime,
    primes_upto,
    split_squarefree,
)

__all__ = [
    "COMPOSITE_ROUTE_MIN",
    "DIRECT_SCAN_LIMIT",
    "IDENTITY_CONSTANT",
    "LARGE_PRIME_FLOOR",
    "PRIME_SCAN_LIMIT",
    "VALID_LO",
    "VALID_HI",
    "AuxModulus",
    "admissible_factors",
    "iter_moduli_composite",
    "iter_moduli_direct",
    "modulus_interval",
    "modulus_valid",
    "residual_class",
    "steering_residues",
]

# Bounds on n / m**3 for a usable modulus: the quotient
# q = (n - x0**3 - 1402 m**3) / (24 m) is positive when n > (1402 + 6**3) m**3
# (worst case x0 = 6m) and below 16 m**2 when n < (1402 + 24*16) m**3.
VALID_LO = 1618
VALID_HI = 1786

# The large prime l of a composite-route modulus S * l is at least this: above
# every trial prime, so the factors of S * l are distinct, and small enough
# that is_prime proves l (the walk stays below 2**38, far below psi_5).
LARGE_PRIME_FLOOR = 1 << 24

# The size gate between the two modulus scans, and the direct scan's only
# size bound: above it only the composite route runs, since every window
# lies above 11 * LARGE_PRIME_FLOOR and each steering residue gets a smooth
# part; at or below it only the direct scan runs, on a window below 1.91e8,
# and steering_residues is never called.
COMPOSITE_ROUTE_MIN = VALID_HI * (11 * LARGE_PRIME_FLOOR) ** 3

# 2 * (4**3 + 5**3 + 8**3): the cube-free part of the six-term identity
# (see construct.py).
IDENTITY_CONSTANT = 1402

# The trial primes as admissible_factors takes them: a loop over those below
# 200, then one gcd with the product of the rest that are 1 (mod 6) and one
# with the product of those that are 5 (mod 6); 2 and 3 are in the loop.
_TRIAL_PRIMES = primes_upto(TRIAL_DIVISION_BOUND)
TRIAL_LOOP_PRIMES = tuple(p for p in _TRIAL_PRIMES if p < 200)
TRIAL_PRIMES_5_MOD_6 = tuple(p for p in _TRIAL_PRIMES if p >= 200 and p % 6 == 5)
TRIAL_PRODUCT_5_MOD_6 = prod(TRIAL_PRIMES_5_MOD_6)
TRIAL_PRODUCT_1_MOD_6 = prod(p for p in _TRIAL_PRIMES if p >= 200 and p % 6 == 1)

# The smallest composite with no prime factor up to TRIAL_DIVISION_BOUND is
# the square of the first prime past it (10007**2): a cofactor left by the
# trial division below this square is 1 or a prime.
_UNTRIED_SQUARE = next(p for p in count(TRIAL_DIVISION_BOUND + 1) if is_prime(p)) ** 2

# candidate values iter_moduli_direct examines per scan
DIRECT_SCAN_LIMIT = 500_000
# values of the large prime l iter_moduli_composite examines per scan
PRIME_SCAN_LIMIT = 200_000


@dataclass(frozen=True)
class AuxModulus:
    """An admissible modulus together with its prime factors.

    The scans that build one prove every factor prime (all lie below
    psi_5); the constructor checks only order, residue and product, and is
    the one place that checks them.
    """

    value: int
    primes: tuple[int, ...]

    def __post_init__(self) -> None:
        prev = 0
        for p in self.primes:
            if p <= prev:
                raise ValueError("prime factors must be strictly increasing")
            if p % 6 != 5:
                raise ValueError(f"factor {p} is not congruent to 5 mod 6")
            prev = p
        if prod(self.primes) != self.value:
            raise ValueError("value does not match its factorization")

    def cube_root(self, a: int) -> int:
        """The unique x in [0, 6p) with x**3 = a (mod 6p), p = value.

        Cubing is a bijection mod 2 and mod 3 (x**3 = x there) and mod every
        factor p = 5 (mod 6), where the inverse map is c -> c**((2p-1)/3):
        note 3 | 2p - 1 and (c**((2p-1)/3))**3 = c**(2(p-1)) * c = c (mod p).
        """
        roots = [(pow(a, (2 * p - 1) // 3, p), p) for p in self.primes]
        return crt([(a % 2, 2), (a % 3, 3), *roots])


def admissible_factors(n: int) -> tuple[int, ...] | None:
    """The prime factors of n if n is an admissible modulus that trial
    division up to arith.FACTOR_BOUND splits, times at most one prime, else
    None.

    Admissible: squarefree with every prime factor congruent to 5 mod 6.
    The empty product n = 1 is admissible.  Raises ValueError for n < 1,
    and, through is_prime or factorize, for a cofactor left by the trial
    division at or above psi_5 (about 2.15e12), where no test is a proof.

    Trial division by the primes up to TRIAL_DIVISION_BOUND comes first: a
    loop over the primes below 200, which ends once p * p exceeds what is
    left, then one gcd with the product of the remaining trial primes that
    are 1 (mod 6), which rejects n, and one with the product of those that
    are 5 (mod 6), which collects them.  A small factor that is 2, 3,
    1 (mod 6) or repeated rejects n.  The cofactor left has no trial prime
    factor; below 10007**2 it is 1 or a prime.  Above it, one primality
    test accepts a prime cofactor = 5 (mod 6), the only admissible kind,
    and factorize takes every other one; a prime = 1 (mod 6) stops at its
    first gcd.  When the cofactor has two or more prime factors above
    arith.FACTOR_BOUND, n is not certified and the answer is None,
    admissible or not.
    """
    if n < 1:
        raise ValueError("modulus candidates must be positive")
    primes: list[int] = []
    m = n
    for p in TRIAL_LOOP_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            m //= p
            if p % 6 != 5 or m % p == 0:
                return None
            primes.append(p)
    else:
        # m has no prime factor below 200; the gcds take the trial primes above
        if gcd(m, TRIAL_PRODUCT_1_MOD_6) != 1:
            return None
        g = gcd(m, TRIAL_PRODUCT_5_MOD_6)
        if g > 1:
            m //= g
            if gcd(m, g) != 1:
                return None  # a factor of g is repeated
            primes += split_squarefree(g, TRIAL_PRIMES_5_MOD_6)
        # only a prime = 5 (mod 6) is admissible; factorize takes the rest
        if m >= _UNTRIED_SQUARE and not (m % 6 == 5 and is_prime(m)):
            fac = factorize(m)
            if fac is not None and all(e == 1 and p % 6 == 5 for p, e in fac):
                return tuple(primes) + tuple(p for p, _ in fac)
            return None
    # m is 1 or a prime above every trial factor
    if m == 1:
        return tuple(primes)
    return tuple(primes) + (m,) if m % 6 == 5 else None


def residual_class(n: int, b: int) -> int:
    """The class of the residual (n - 1402*b**3) / (24*b) mod 25 for a modulus
    == b (mod 25), b a unit mod 5."""
    return (n - IDENTITY_CONSTANT * b**3) * pow(24 * b, -1, 25) % 25


def steering_residues(n: int) -> tuple[int, ...]:
    """The residues b mod 25, ascending, such that steering the modulus into
    b keeps the residual quotient q out of the classes 0, 10, 15 (mod 25)
    that the ternary form misses.

    For 5 not dividing n there are exactly two such units b, one for each
    sign in q = +-5 (mod 25); for 5 | n the viable residues are multiples
    of 5, split by n mod 125.  Requires 125 not dividing n.
    """
    if n % 125 == 0:
        raise ValueError("reduce factors of 125 out of n first")
    if n % 5:
        return _unit_steering(n % 25)
    if n % 25:
        return (5, 10, 15, 20)
    return (5, 20) if n % 125 in (25, 100) else (10, 15)


@cache
def _unit_steering(r: int) -> tuple[int, ...]:
    """steering_residues for n == r (mod 25), 5 not dividing r: residual_class
    depends on n only mod 25, so the 20 classes form a table, each entry
    built on first use."""
    # 24*b is a unit mod 25, so the class is a multiple of 5 exactly when
    # 5 divides n - 1402*b**3
    cands = tuple(b for b in range(1, 25) if b % 5 and residual_class(r, b) in (5, 20))
    if len(cands) != 2:
        raise AssertionError(f"steering residues for {r} mod 25: {list(cands)}")
    return cands


def modulus_valid(n: int, m: int) -> bool:
    """True iff 1618 * m**3 < n < 1786 * m**3 (exact integer comparisons)."""
    m3 = m**3
    return VALID_LO * m3 < n < VALID_HI * m3


def modulus_interval(n: int) -> tuple[int, int]:
    """Inclusive range [lo, hi] of integers m with modulus_valid(n, m);
    lo > hi when the range is empty (n = 0 gives (1, 0)).

    Both bounds are strict and m**3 is an integer, so
    VALID_LO * m**3 < n <=> m**3 <= (n - 1) // VALID_LO <=> m <= hi, and
    n < VALID_HI * m**3 <=> n // VALID_HI < m**3 <=> m >= lo.
    """
    hi = integer_cbrt((n - 1) // VALID_LO) if n else 0
    return integer_cbrt(n // VALID_HI) + 1, hi


def iter_moduli_direct(n: int):
    """Admissible moduli for n in ascending order, scanned directly: every
    admissible candidate, so the first is the smallest.

    Candidates obey the size interval and m = n/2 (mod 4).  The only size
    bound is the gate: raises ValueError for n above COMPOSITE_ROUTE_MIN, so
    every candidate is at most 190 727 607, far under psi_5, and every
    factor is proven.  Such a cofactor without trial prime factors is 1, a
    prime, or has its least prime factor below isqrt(190 727 607) = 13 810
    <= arith.FACTOR_BOUND, so admissible_factors decides every candidate.
    At most DIRECT_SCAN_LIMIT candidates are examined.
    """
    if n % 4 != 2:
        raise ValueError("the construction applies to n = 2 (mod 4)")
    if n > COMPOSITE_ROUTE_MIN:
        raise ValueError("the direct scan runs only up to COMPOSITE_ROUTE_MIN")
    lo, hi = modulus_interval(n)
    first = lo + ((n // 2) - lo) % 4
    for cand in range(first, hi + 1, 4)[:DIRECT_SCAN_LIMIT]:
        fac = admissible_factors(cand)
        if fac is not None:
            yield AuxModulus(cand, fac)


# -- the smooth composite route ---------------------------------------------

# the primes = 5 (mod 6) from 11 up to TRIAL_DIVISION_BOUND, ascending
_SMOOTH_PRIMES = tuple(p for p in _TRIAL_PRIMES if p % 6 == 5 and p > 5)


def iter_moduli_composite(n: int, residue_mod25: int):
    """Moduli m = S * l with m = b (mod 25), scanned by ascending prime l.
    Needs no factorization and no big primality test.

    S is the product of the least primes = 5 (mod 6) from 11 upward, with 5
    first when 5 | b, taken while S * p * LARGE_PRIME_FLOOR <= lo for the
    size interval [lo, hi] of n.  l runs through [lo / S, hi / S] in the
    one class mod 300 (mod 60 when 5 | b) with l = 5 (mod 6),
    S * l = n/2 (mod 4) and S * l = b (mod 25), and counts when is_prime
    accepts it.  Every l lies in [2**24, 2**38): above every prime of S, and
    below psi_5, where is_prime is deterministic, so every factor is proven.

    Yields nothing when the first prime of S does not fit (lo below
    p * 2**24, p = 11, or 5 when 5 | b) and, the declared edge, when the
    primes up to TRIAL_DIVISION_BOUND run out before l gets that small
    (n above about 10**6500).  At most PRIME_SCAN_LIMIT values of l are
    examined.
    """
    if n % 4 != 2:
        raise ValueError("the construction applies to n = 2 (mod 4)")
    b = residue_mod25 % 25
    if b == 0:
        raise ValueError("steering residue must be nonzero mod 25")
    lo, hi = modulus_interval(n)
    five = b % 5 == 0
    primes: list[int] = []
    s = 1
    for p in ((5,) if five else ()) + _SMOOTH_PRIMES:
        if s * p * LARGE_PRIME_FLOOR > lo:
            break
        primes.append(p)
        s *= p
    else:
        return  # every trial prime fits: nothing bounds l below 2**38
    if not primes:
        return
    if five:
        step, r5 = 60, (b // 5 * pow(s // 5, -1, 5), 5)
    else:
        step, r5 = 300, (b * pow(s, -1, 25), 25)
    start = crt([(2, 3), ((n // 2) * s % 4, 4), r5])  # s is its own inverse mod 4
    l_lo = -(-lo // s)
    first = l_lo + (start - l_lo) % step
    factors = tuple(primes)
    for ell in range(first, hi // s + 1, step)[:PRIME_SCAN_LIMIT]:
        if not has_small_factor(ell) and is_prime(ell):
            yield AuxModulus(s * ell, factors + (ell,))
