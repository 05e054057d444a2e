"""Residue planner tests.

The covering table below is frozen from an independent computation and the
steering oracle is a from-scratch reimplementation of the selection rule;
the module under test must reproduce both exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevencubes import modulus
from sevencubes.arith import factorize
from sevencubes.modulus import (
    VALID_HI,
    VALID_LO,
    WINDOW_RATIO_CAP,
    WINDOW_RESIDUE_MOD4,
    AuxModulus,
    NoWindowError,
    admissible_factors,
    base_window_table,
    composite_prime_bounds,
    find_covering_window,
    iter_moduli_composite,
    iter_moduli_direct,
    modulus_interval,
    modulus_valid,
    steering_residues,
    table2_text,
    window_bounds,
)

# Frozen covering table: residue mod 25 -> ((value, factors), ...) for the
# window [26141, 26669]; 38 entries, every value == 1 (mod 4).
FROZEN_TABLE2 = {
    1: ((26401, (17, 1553)), (26501, (26501,))),
    2: ((26177, (26177,)), (26477, (11, 29, 83))),
    3: ((26153, (26153,)), (26653, (11, 2423))),
    4: ((26329, (113, 233)),),
    5: ((26305, (5, 5261)),),
    6: ((26281, (41, 641)),),
    7: ((26357, (26357,)),),
    8: ((26633, (26633,)),),
    9: ((26309, (26309,)), (26609, (11, 41, 59))),
    10: ((26185, (5, 5237)), (26485, (5, 5297))),
    11: ((26261, (26261,)), (26461, (47, 563)), (26561, (26561,))),
    12: ((26237, (26237,)),),
    13: ((26513, (26513,)),),
    14: ((26189, (26189,)), (26389, (11, 2399)), (26489, (26489,))),
    15: ((26365, (5, 5273)), (26665, (5, 5333))),
    16: ((26141, (26141,)),),
    17: ((26417, (26417,)),),
    18: ((26393, (26393,)),),
    19: ((26669, (26669,)),),
    20: ((26345, (5, 11, 479)), (26545, (5, 5309))),
    21: ((26321, (26321,)), (26521, (11, 2411))),
    22: ((26297, (26297,)), (26597, (26597,))),
    23: ((26473, (23, 1151)), (26573, (26573,))),
    24: ((26249, (26249,)),),
}


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
    }
    factorized = []

    def counting_factorize(m, **kwargs):
        factorized.append(m)
        return factorize(m, **kwargs)

    monkeypatch.setattr(modulus, "factorize", counting_factorize)
    uncached = admissible_factors.__wrapped__
    for n, expected in cases.items():
        assert uncached(n) == naive_admissible_factors(n) == expected, n
    # only composite cofactors free of trial-division factors are factorized
    assert factorized == [10007 * 10037, 10007 * 10037, 10007 * 10009, 10007**2, 10037**2]


def test_aux_modulus_validation():
    m = AuxModulus.from_value(55)
    assert m.primes == (5, 11)
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


def test_iter_moduli_direct_scan_limit():
    n = 10**18 + 2
    unlimited = [m.value for m in iter_moduli_direct(n)]
    assert [m.value for m in iter_moduli_direct(n, scan_limit=10**6)] == unlimited
    assert len([m for m in iter_moduli_direct(n, scan_limit=10)]) <= len(unlimited)


# -- covering window ----------------------------------------------------------


def test_find_covering_window_frozen():
    assert find_covering_window(1, Fraction(1021, 1000)) == (26141, 26669)
    assert WINDOW_RESIDUE_MOD4 == 1
    assert WINDOW_RATIO_CAP == Fraction(1021, 1000)


def test_find_covering_window_rejects_floats():
    with pytest.raises(TypeError):
        find_covering_window(1, 1.021)


def test_find_covering_window_unreachable_cap():
    with pytest.raises(NoWindowError):
        find_covering_window(1, Fraction(1021, 1000), ceiling=26000)


def test_base_window_table_matches_frozen():
    table = dict(base_window_table())
    assert set(table) == set(range(1, 25))
    for residue, entries in FROZEN_TABLE2.items():
        assert table[residue] == entries, residue
    assert sum(len(v) for v in table.values()) == 38
    assert window_bounds() == (26141, 26669)
    flat = [value for entries in table.values() for value, _ in entries]
    assert all(v % 4 == 1 for v in flat)
    assert all(26141 <= v <= 26669 for v in flat)


def test_table2_text_layout():
    lines = table2_text().strip().splitlines()
    assert lines[0].startswith("#") and len(lines) == 39
    assert lines[1].split() == ["1", "26401", "17*1553"]
    assert lines[-1].split() == ["24", "26249", "26249"]


# -- composite route ----------------------------------------------------------


def test_composite_prime_bounds_conservative():
    n = 10**30 + 2
    p_lo, p_hi = composite_prime_bounds(n)
    assert p_lo > 26669
    w_lo, w_hi = window_bounds()
    for p in (p_lo, p_hi):
        assert VALID_HI * (w_lo * p) ** 3 > n
        assert VALID_LO * (w_hi * p) ** 3 < n
    # one step outside fails at least one side for some window element
    assert VALID_LO * (w_hi * (p_hi + 1)) ** 3 >= n
    assert VALID_HI * (w_lo * (p_lo - 1)) ** 3 <= n


def test_find_modulus_composite_all_residues():
    n = 10**30 + 2
    for b in range(1, 25):
        m = next(iter_moduli_composite(n, b))
        assert m.value % 25 == b
        assert modulus_valid(n, m.value)
        assert m.value % 4 == (n // 2) % 4
        assert m.primes[-1] > 26669


def test_iter_moduli_composite_structure():
    n = 10**30 + 2
    first = next(iter_moduli_composite(n, 4))
    tail = first.primes[-1]
    base = first.value // tail
    assert base * tail == first.value
    assert 26141 <= base <= 26669
