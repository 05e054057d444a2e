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
from sevencubes.arith import (
    _MR_PSI,
    FACTOR_BOUND,
    factorize,
    integer_cbrt,
    is_prime,
    primes_upto,
)
from sevencubes.modulus import (
    COMPOSITE_ROUTE_MIN,
    LARGE_PRIME_FLOOR,
    VALID_HI,
    VALID_LO,
    AuxModulus,
    admissible_factors,
    iter_moduli_composite,
    iter_moduli_direct,
    modulus_interval,
    modulus_valid,
    residual_class,
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
    # two primes = 5 (mod 6) near 2**20: an admissible modulus below psi_5,
    # but both lie above arith.FACTOR_BOUND, so one factorize call gives up
    # and the value is not certified
    p, q = islice((m for m in count(2**20 - 5, -6) if naive_admissible_factors(m) == (m,)), 2)
    assert p * q < _MR_PSI[-1]
    calls = []

    def counting_factorize(m):
        calls.append(m)
        return factorize(m)

    monkeypatch.setattr(modulus, "factorize", counting_factorize)
    assert admissible_factors(p * q) is None
    assert calls == [p * q]


def test_admissible_factors_matches_naive_seeded():
    # values of 20 bits and up built from primes on both sides of every
    # bound in admissible_factors (200, the trial bound 10**4, 10007**2),
    # repeats allowed, with at most one prime above 2 * 10**4 so that the
    # naive reference stays fast, and the part past the trial bound below
    # psi_5
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
        n = cofactor = rng.choice(big) if rng.random() < 0.3 else 1
        while n.bit_length() < 20 or rng.random() < 0.6:
            source = rng.choice((small, trial, trial, past))
            p = rng.choice(source)
            if p % 6 != 5 and rng.random() < 0.8:
                continue  # mostly good primes, so that many values get far
            n *= p
            if source is past:
                cofactor *= p
        if cofactor >= _MR_PSI[-1]:
            continue
        expected = naive_admissible_factors(n)
        assert admissible_factors(n) == expected, n
        checked += 1
        admitted += expected is not None
    assert admitted > 200
    # and uniformly random values of 20-34 bits; one with two prime factors
    # above FACTOR_BOUND is not certified, admissible or not
    for _ in range(500):
        n = rng.getrandbits(rng.randrange(20, 35)) | 1 << 19
        expected = naive_admissible_factors(n)
        if expected and sum(p > FACTOR_BOUND for p in expected) > 1:
            expected = None
        assert admissible_factors(n) == expected, n


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
    assert steering_residues(202258) == (4, 14)
    assert steering_residues(10) == (5, 10, 15, 20)
    assert steering_residues(50) == (10, 15)
    assert steering_residues(75) == (10, 15)
    assert steering_residues(25) == (5, 20)
    assert steering_residues(100) == (5, 20)
    with pytest.raises(ValueError):
        steering_residues(125)
    with pytest.raises(ValueError):
        steering_residues(2750 * 125)


def test_steering_matches_oracle_exhaustive():
    for n in range(1, 2000):
        if n % 125 == 0:
            continue
        branch, candidates = oracle_steering(n)
        assert steering_residues(n) == candidates, n
        if branch == "unit":
            assert len(candidates) == 2


def test_steering_table_matches_the_rule_at_every_size():
    # for 5 not dividing n the answer comes from a table keyed on n mod 25;
    # the rule it tabulates, applied to the whole n, agrees at every size
    for r in range(1, 25):
        if r % 5 == 0:
            continue
        for n in (r, 10**12 * 25 + r, 10**300 * 25 + r):
            rule = tuple(b for b in range(1, 25) if b % 5 and residual_class(n, b) in (5, 20))
            assert len(rule) == 2
            assert steering_residues(n) == rule, n
            assert oracle_steering(n) == ("unit", rule)


def test_steering_table_keeps_its_guard(monkeypatch):
    # a class without exactly two steering residues is an AssertionError, not
    # a table entry
    monkeypatch.setattr(modulus, "residual_class", lambda n, b: 5)
    modulus._unit_steering.cache_clear()
    try:
        with pytest.raises(AssertionError, match="steering residues for 1 mod 25"):
            steering_residues(25 * 10**40 + 1)
    finally:
        modulus._unit_steering.cache_clear()


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


def test_iter_moduli_direct_stops_at_the_gate():
    # the size gate is the direct scan's only bound: the last n = 2 (mod 4)
    # at or below it still gets a modulus, and every n above it is refused
    last = COMPOSITE_ROUTE_MIN - (COMPOSITE_ROUTE_MIN - 2) % 4
    assert last == 11225849042617303034060865534
    m = next(iter_moduli_direct(last))
    assert m == AuxModulus(184549399, (17, 10855847))
    assert modulus_valid(last, m.value) and m.value < 1.91e8
    assert naive_admissible_factors(m.value) == m.primes
    for n in (last + 4, COMPOSITE_ROUTE_MIN + 2, 10**82 + 2):
        with pytest.raises(ValueError, match="COMPOSITE_ROUTE_MIN"):
            next(iter_moduli_direct(n))


def test_admissible_factors_raises_on_a_cofactor_past_psi_5():
    # no answer rests on an unproven test: past the trial division, a
    # cofactor at or above psi_5 raises, from is_prime when it is = 5 (mod 6)
    # and from factorize otherwise; a small factor that rejects n comes first
    q = 2**61 - 1  # prime, = 1 (mod 6)
    admissible = 10007 * 10037 * 30011  # three primes = 5 (mod 6)
    assert q % 6 == 1 and admissible % 6 == 5 and admissible > _MR_PSI[-1]
    with pytest.raises(ValueError, match="is_prime"):
        admissible_factors(11 * admissible)
    with pytest.raises(ValueError, match="factorize"):
        admissible_factors(11 * q)
    assert admissible_factors(7 * q) is None


def test_every_modulus_bound_lies_below_psi_5():
    # the largest l the composite route reaches, below
    # max(_SMOOTH_PRIMES) * 2**24 * (1786/1618)**(1/3), and the top of the
    # largest direct window both lie below psi_5, so is_prime proves every
    # factor of every modulus
    psi5 = _MR_PSI[-1]
    top = max(modulus._SMOOTH_PRIMES) * LARGE_PRIME_FLOOR
    assert VALID_HI * top**3 < VALID_LO * psi5**3
    assert VALID_HI * top**3 < VALID_LO * (2**38) ** 3
    assert integer_cbrt(COMPOSITE_ROUTE_MIN // VALID_LO) < 1.91e8 < psi5


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
        branch, candidates = oracle_steering(target)
        assert branch == ("unit", "five", "twentyfive")[v]
        assert steering_residues(target) == candidates
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

