"""Residue planner tests.

The steering oracle is a from-scratch reimplementation of the selection
rule, and admissibility is checked against plain trial division; the module
under test must reproduce both exactly.
"""

import random
from itertools import count, islice
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevencubes import decompose, modulus
from sevencubes.arith import _MR_PSI, factorize, is_prime, primes_upto
from sevencubes.modulus import (
    LARGE_PRIME_FLOOR,
    VALID_HI,
    VALID_LO,
    AuxModulus,
    admissible_factors,
    iter_moduli_composite,
    iter_moduli_direct,
    modulus_interval,
    modulus_valid,
    steering_residues,
)


def naive_admissible_factors(n):
    """Trial-division reimplementation of the admissibility predicate."""
    if n < 1:
        return None
    factors = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1
    if m > 1:
        factors.append((m, 1))
    if any(e > 1 for _, e in factors):
        return None
    if any(p % 6 != 5 for p, _ in factors):
        return None
    return tuple(p for p, _ in factors)


# -- admissibility ------------------------------------------------------------


def test_admissible_factors_spot():
    assert admissible_factors(1) == ()
    assert admissible_factors(5) == (5,)
    assert admissible_factors(55) == (5, 11)
    assert admissible_factors(26477) == (11, 29, 83)
    assert admissible_factors(35) is None  # 7 == 1 (mod 6)
    assert admissible_factors(121) is None  # square
    assert admissible_factors(10) is None  # even
    assert admissible_factors(15) is None  # divisible by 3


def test_admissible_factors_exhaustive_small():
    for n in range(1, 5000):
        assert admissible_factors(n) == naive_admissible_factors(n), n


def test_admissible_factors_each_exit_matches_naive(monkeypatch):
    # 10007, 10037 = 5 and 10009 = 1 (mod 6) are the first primes past the
    # trial-division bound; 10**9 + 7 = 5 and 10**9 + 9 = 1 (mod 6) are
    # primes past the square of the last trial prime
    cases = {
        5 * 13 * 10007: None,  # small factor = 1 (mod 6)
        11**2 * 17: None,  # square of a small prime
        5 * 11 * 10007: (5, 11, 10007),  # prime cofactor, = 5 (mod 6)
        5 * 11 * 10009: None,  # prime cofactor, = 1 (mod 6)
        11 * (10**9 + 7): (11, 10**9 + 7),  # prime cofactor past the trial loop
        11 * (10**9 + 9): None,
        10007 * 10037: (10007, 10037),  # composite cofactor, admissible
        5 * 10007 * 10037: (5, 10007, 10037),
        10007 * 10009: None,  # composite cofactor with a factor = 1 (mod 6)
        10007**2: None,  # square of a prime past the trial bound
        11 * 10037**2: None,
        # past the loop over the primes below 200, a gcd with the product of
        # the trial primes = 1 (mod 6) rejects and one with those = 5 (mod 6)
        # collects; 211 = 1 and 233, 9941 = 5 (mod 6)
        5 * 211 * 10007: None,  # a bad trial prime above the loop
        11 * 233**2: None,  # the square of a good trial prime above the loop
        5 * 233 * 9941: (5, 233, 9941),  # two good trial primes above the loop
        # a cofactor in [9973**2, 10007**2) is prime without a test
        11 * 99460841: (11, 99460841),  # = 5 (mod 6)
        11 * 99460747: None,  # = 1 (mod 6)
    }
    factorized = []

    def counting_factorize(m):
        factorized.append(m)
        return factorize(m)

    monkeypatch.setattr(modulus, "factorize", counting_factorize)
    for n, expected in cases.items():
        assert admissible_factors(n) == naive_admissible_factors(n) == expected, n
    # factorize takes every cofactor past 10007**2 free of trial-division
    # factors except a prime = 5 (mod 6): first the prime 10**9 + 9 = 1 (mod 6),
    # which stops at factorize's gcd, then the composite ones
    assert factorized == [
        10**9 + 9, 10007 * 10037, 10007 * 10037, 10007 * 10009, 10007**2, 10037**2
    ]


def test_admissible_factors_tests_only_cofactors_past_the_untried_square(monkeypatch):
    # no composite below 10007**2 is free of trial primes, so a cofactor
    # below it gets no primality test; above it, only one = 5 (mod 6) gets
    # one, since only such a prime is admissible (10007**2 = 1 (mod 6) goes
    # to factorize untested)
    tested = []

    def counting_is_prime(m):
        tested.append(m)
        return is_prime(m)

    monkeypatch.setattr(modulus, "is_prime", counting_is_prime)
    assert admissible_factors(11 * 99460841) == (11, 99460841)  # 9973**2 < 99460841
    assert admissible_factors(5 * 9941 * 10007) == (5, 9941, 10007)
    assert admissible_factors(11 * 100140049) is None  # = 10007**2
    assert admissible_factors(11 * 100140059) == (11, 100140059)  # the next prime, = 5 (mod 6)
    assert tested == [100140059]


def test_direct_scan_proves_no_cofactor_1_mod_6(monkeypatch):
    # a prime cofactor = 1 (mod 6) can never be admissible, so the scan runs
    # no primality test on one: over seeded 19-61 digit targets of the
    # identity route, every cofactor is_prime sees is = 5 (mod 6)
    tested = []

    def recording_is_prime(m):
        tested.append(m)
        return is_prime(m)

    monkeypatch.setattr(modulus, "is_prime", recording_is_prime)
    rng = random.Random(22)
    for digits in range(19, 62):
        for _ in range(2):
            n = 4 * rng.randrange(10 ** (digits - 1) // 4, 10**digits // 4) + 2
            assert decompose(n).verified
    assert tested and all(m % 6 == 5 for m in tested)


def test_admissible_factors_gives_up_past_the_factor_bound(monkeypatch):
    # two primes = 5 (mod 6) near 2**35: an admissible modulus, but both lie
    # above arith.FACTOR_BOUND, so one factorize call gives up and the value
    # is not certified
    p, q = islice((m for m in count(2**35 - 3, -6) if naive_admissible_factors(m) == (m,)), 2)
    calls = []

    def counting_factorize(m):
        calls.append(m)
        return factorize(m)

    monkeypatch.setattr(modulus, "factorize", counting_factorize)
    assert admissible_factors(p * q) is None
    assert calls == [p * q]


def test_admissible_factors_matches_naive_seeded():
    # values of 20 to DIRECT_SCAN_BITS bits built from primes on both sides
    # of every bound in admissible_factors (200, the trial bound 10**4,
    # 10007**2), repeats allowed, with at most one prime above 2 * 10**4 so
    # that the naive reference stays fast
    rng = random.Random(1618)
    pool = primes_upto(2 * 10**4)
    small = [p for p in pool if p < 200]
    trial = [p for p in pool if 200 <= p <= 10**4]
    past = [p for p in pool if p > 10**4]
    big = []
    while len(big) < 20:
        cand = 6 * rng.randrange(10**8 // 6, 10**9 // 6) + 5
        if all(cand % p for p in small) and naive_admissible_factors(cand) == (cand,):
            big.append(cand)  # a prime = 5 (mod 6)
    checked = admitted = 0
    while checked < 1000:
        n = rng.choice(big) if rng.random() < 0.3 else 1
        while n.bit_length() < 20 or rng.random() < 0.6:
            source = rng.choice((small, trial, trial, past))
            p = rng.choice(source)
            if p % 6 != 5 and rng.random() < 0.8:
                continue  # mostly good primes, so that many values get far
            n *= p
        if n.bit_length() > modulus.DIRECT_SCAN_BITS:
            continue
        expected = naive_admissible_factors(n)
        assert admissible_factors(n) == expected, n
        checked += 1
        admitted += expected is not None
    assert admitted > 200
    # and uniformly random values of 20-34 bits
    for _ in range(500):
        n = rng.getrandbits(rng.randrange(20, 35)) | 1 << 19
        assert admissible_factors(n) == naive_admissible_factors(n), n


def test_aux_modulus_validation():
    assert AuxModulus(55, (5, 11)).primes == (5, 11)
    with pytest.raises(ValueError):
        AuxModulus(35, (5, 7))
    with pytest.raises(ValueError):
        AuxModulus(55, (11, 5))
    with pytest.raises(ValueError):
        AuxModulus(56, (5, 11))
    assert admissible_factors(26669) == (26669,) and admissible_factors(26670) is None


# -- steering -----------------------------------------------------------------


def oracle_steering(n):
    if n % 125 == 0:
        raise ValueError
    if n % 5:
        candidates = []
        for b in range(1, 25):
            if b % 5 == 0 or (1402 * b**3 - n) % 5:
                continue
            if (n - 1402 * b**3) * pow(24 * b, -1, 25) % 25 in (5, 20):
                candidates.append(b)
        return "unit", tuple(candidates)
    if n % 25:
        return "five", (5, 10, 15, 20)
    return "twentyfive", (5, 20) if n % 125 in (25, 100) else (10, 15)


def test_steering_spot_values():
    choice = steering_residues(202258)
    assert (choice.branch, choice.candidates) == ("unit", (4, 14))
    assert steering_residues(10).candidates == (5, 10, 15, 20)
    assert steering_residues(50).candidates == (10, 15)
    assert steering_residues(75).candidates == (10, 15)
    assert steering_residues(25).candidates == (5, 20)
    assert steering_residues(100).candidates == (5, 20)
    with pytest.raises(ValueError):
        steering_residues(125)
    with pytest.raises(ValueError):
        steering_residues(2750 * 125)


def test_steering_matches_oracle_exhaustive():
    for n in range(1, 2000):
        if n % 125 == 0:
            continue
        choice = steering_residues(n)
        branch, candidates = oracle_steering(n)
        assert (choice.branch, choice.candidates) == (branch, candidates), n
        if branch == "unit":
            assert len(candidates) == 2


# -- size interval --------------------------------------------------------


def test_modulus_interval_spot():
    assert modulus_interval(202258) == (5, 5)
    lo, hi = modulus_interval(10**6 + 2)
    assert lo > hi  # genuinely empty window
    assert VALID_LO == 1618 and VALID_HI == 1786


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=10**24))
def test_modulus_interval_is_exact(n):
    lo, hi = modulus_interval(n)
    for p in range(max(1, lo - 2), hi + 3):
        inside = VALID_LO * p**3 < n < VALID_HI * p**3
        assert inside == (lo <= p <= hi), (n, p)


def test_modulus_valid():
    assert modulus_valid(202258, 5)
    assert not modulus_valid(202258, 4)  # in window but not admissible
    assert not modulus_valid(10**20, 26141)  # admissible but outside window


# -- direct scans -------------------------------------------------------------


def test_find_modulus_direct_worked_example():
    m = next(iter_moduli_direct(202258), None)
    assert m is not None and m.value == 5 and m.primes == (5,)
    assert next(iter_moduli_direct(10**6 + 2), None) is None


def test_iter_moduli_direct_properties():
    n = 10**18 + 2
    values = [m.value for m in iter_moduli_direct(n)]
    assert values == sorted(values) and values
    lo, hi = modulus_interval(n)
    for m in iter_moduli_direct(n):
        assert lo <= m.value <= hi
        assert m.value % 4 == (n // 2) % 4
        assert admissible_factors(m.value) == m.primes
    with pytest.raises(ValueError):
        next(iter_moduli_direct(10**6))  # n == 0 (mod 4)


def test_iter_moduli_direct_scan_limit(monkeypatch):
    n = 10**18 + 2
    lo, hi = modulus_interval(n)
    assert (hi - lo) // 4 + 1 < modulus.DIRECT_SCAN_LIMIT  # the whole window
    whole = [m.value for m in iter_moduli_direct(n)]
    # the bound is read at call time: 10 candidates are first, first + 4, ...
    monkeypatch.setattr(modulus, "DIRECT_SCAN_LIMIT", 10)
    first = lo + ((n // 2) - lo) % 4
    limited = [m.value for m in iter_moduli_direct(n)]
    assert limited == [v for v in whole if v < first + 40]
    assert 0 < len(limited) < len(whole)


def test_direct_scan_cap(monkeypatch):
    # lower the cap to 20 bits and take n whose interval straddles 2**20
    n = 1700 * 2**60 + 2
    lo, hi = modulus_interval(n)
    assert lo < 2**20 < hi
    unclipped = [m.value for m in iter_moduli_direct(n)]
    below = [v for v in unclipped if v < 2**20]
    assert below and len(below) < len(unclipped)

    seen_admissible, seen_factorize = [], []

    def recording_admissible(m):
        seen_admissible.append(m)
        return admissible_factors(m)

    def recording_factorize(m):
        seen_factorize.append(m)
        return factorize(m)

    monkeypatch.setattr(modulus, "DIRECT_SCAN_BITS", 20)
    monkeypatch.setattr(modulus, "admissible_factors", recording_admissible)
    monkeypatch.setattr(modulus, "factorize", recording_factorize)
    assert [m.value for m in iter_moduli_direct(n)] == below
    assert seen_admissible and max(seen_admissible) < 2**20
    # below 2**20 no cofactor reaches factorize (10007**2 > 2**20); the check
    # guards a lower trial bound or a higher test cap
    assert all(m < 2**20 for m in seen_factorize)
    # past the cap the scan yields nothing and examines nothing
    seen_admissible.clear()
    assert list(iter_moduli_direct(4 * 2**60 * 1786 + 2)) == []
    assert seen_admissible == []


def test_admissible_factors_refuses_values_over_the_cap():
    n = 999999999999999989 * (10**18 + 9)  # 120 bits
    with pytest.raises(ValueError):
        admissible_factors(n)
    with pytest.raises(ValueError):
        admissible_factors(2**modulus.DIRECT_SCAN_BITS + 1)
    assert admissible_factors(2**modulus.DIRECT_SCAN_BITS - 1) is None  # 7 | 2**81 - 1


def test_direct_scan_cap_lies_below_psi_13():
    # 2**DIRECT_SCAN_BITS is the largest power of two below psi_13, so every
    # candidate, cofactor and factorize part is in is_prime's proven range
    bits = modulus.DIRECT_SCAN_BITS
    assert 2**bits < _MR_PSI[-1] < 2 ** (bits + 1)


# -- composite route ----------------------------------------------------------


def test_find_modulus_composite_all_residues():
    n = 10**30 + 2
    for b in range(1, 25):
        m = next(iter_moduli_composite(n, b))
        assert m.value % 25 == b
        assert modulus_valid(n, m.value)
        assert m.value % 4 == (n // 2) % 4
        assert m.primes[-1] > 26669


def test_iter_moduli_composite_structure():
    # S = 11, as 11 * 17 * 2**24 is above lo, and l the least prime of its
    # class in [lo / 11, hi / 11]
    first = next(iter_moduli_composite(10**30 + 2, 4))
    assert first == AuxModulus(824253529, (11, 74932139))


def _five_adic(n: int, v: int) -> int:
    """The least n' >= n with n' = 2 (mod 4) and 5-adic valuation exactly v:
    v = 0, 1, 2 are the unit, five and twentyfive steering branches."""
    n += (2 - n) % 4
    while n % 5**v or n % 5 ** (v + 1) == 0:
        n += 4
    return n


_SMOOTH = [p for p in primes_upto(10_000) if p % 6 == 5 and p > 5]


@pytest.mark.parametrize(
    "n",
    [10**29 + 2, 10**120 + 2, 10**200 + 6, 10**299 + 6, 10**1999 + 2],
    ids=["1e29+2", "1e120+2", "1e200+6", "1e299+6", "2000-digit"],
)
def test_iter_moduli_composite_smooth_modulus(n):
    for v in (0, 1, 2):
        target = _five_adic(n, v)
        assert steering_residues(target).branch == ("unit", "five", "twentyfive")[v]
        lo, hi = modulus_interval(target)
        half = (target // 2) % 4
        for b in range(1, 25):
            m = next(iter_moduli_composite(target, b))
            assert lo <= m.value <= hi and modulus_valid(target, m.value)
            assert m.value % 25 == b and m.value % 4 == half
            assert m.value == prod(m.primes)
            *smooth, ell = m.primes
            # the least primes = 5 (mod 6) from 11, 5 first iff 5 | b, as many
            # as leave room for l >= 2**24
            least = ([5] if b % 5 == 0 else []) + _SMOOTH
            k = len(smooth)
            assert smooth == least[:k]
            assert prod(smooth) * LARGE_PRIME_FLOOR <= lo
            assert prod(smooth) * least[k] * LARGE_PRIME_FLOOR > lo
            assert 2**24 <= ell < 2**38 and is_prime(ell)
            # l is the least prime that completes the congruences, walked by 1
            s = prod(smooth)
            assert ell == next(
                x
                for x in count(-(-lo // s))
                if x % 6 == 5 and s * x % 4 == half and s * x % 25 == b and is_prime(x)
            ), (v, b)


def test_iter_moduli_composite_skips_an_uncertified_prime(monkeypatch):
    n = 10**120 + 2
    first = next(iter_moduli_composite(n, 1))
    ell = first.primes[-1]
    prove = modulus.is_prime
    monkeypatch.setattr(modulus, "is_prime", lambda x: x != ell and prove(x))
    second = next(iter_moduli_composite(n, 1))
    # the same smooth part, and the next prime of the class mod 300
    assert second.primes[:-1] == first.primes[:-1]
    assert second.primes[-1] == next(x for x in count(ell + 300, 300) if prove(x))


def _two_mod_four_at_least(n: int) -> int:
    return n + (2 - n) % 4


def test_iter_moduli_composite_yields_nothing_past_its_edges():
    # above the edge, even the product of every smooth prime leaves l above
    # 2**24 times the last of them
    top = _two_mod_four_at_least(1786 * (5 * prod(_SMOOTH) * LARGE_PRIME_FLOOR * 2) ** 3)
    # below 5 * 2**24 no smooth prime fits
    bottom = _two_mod_four_at_least(1618 * (5 * LARGE_PRIME_FLOOR) ** 3)
    for n in (top, bottom):
        assert all(next(iter_moduli_composite(n, b), None) is None for b in range(1, 25))
    # below 11 * 2**24 only 5 fits: 5 | b gets S = 5, a unit b nothing
    n = _two_mod_four_at_least(1618 * (11 * LARGE_PRIME_FLOOR) ** 3)
    for b in range(1, 25):
        m = next(iter_moduli_composite(n, b), None)
        assert (m is None) if b % 5 else (m.primes[0] == 5 and len(m.primes) == 2)

