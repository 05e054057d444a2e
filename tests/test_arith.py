"""Arithmetic kernel tests.

Expected values come from naive in-test reimplementations (trial division,
brute-force roots) or from well-known frozen constants (prime counts,
pseudoprime landmarks), never from the functions under test.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sevencubes import arith
from sevencubes.arith import (
    _GCD_SIEVE_BOUND,
    _MR_PSI,
    FACTOR_BOUND,
    TRIAL_DIVISION_BOUND,
    bin_digits,
    clear_bits,
    crt,
    factorize,
    has_small_factor,
    integer_cbrt,
    is_perfect_square,
    is_prime,
    jacobi,
    prime_sieve,
    primes_upto,
    sumset,
)
from sevencubes.modulus import AuxModulus


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- primality ----------------------------------------------------------------


def test_primes_upto_known_counts():
    ps = primes_upto(10**4)
    assert len(ps) == 1229  # classic prime-counting value
    assert ps[0] == 2 and ps[-1] == 9973
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    sieve = prime_sieve(10**4)
    assert len(sieve) == 10**4 + 1
    assert [i for i, flag in enumerate(sieve) if flag] == ps
    assert prime_sieve(1) == b"\x00\x00"


def test_clear_bits():
    assert clear_bits(0b1011, 5) == [2, 4, 5]
    assert clear_bits(0b110000, 3) == [0, 1, 2, 3]  # bits above n are ignored
    assert clear_bits((1 << 64) - 1, 63) == []
    assert clear_bits(0, 0) == [0]


@given(st.integers(min_value=0, max_value=2**200), st.integers(min_value=0, max_value=240))
def test_bin_digits_reads_each_bit(bits, n):
    assert bin_digits(bits, n) == "".join(str(bits >> i & 1) for i in range(n + 1))


@given(
    st.integers(min_value=0, max_value=2**80),
    st.lists(st.integers(min_value=0, max_value=100), max_size=8),
    st.integers(min_value=0, max_value=90),
)
@example(0b1011, [], 5)  # no shifts: the empty set
@example(0b1011, [0, 95], 90)  # a shift past n adds nothing
@example(0b1011, [3, 3], 2)  # every sum lies past n
def test_sumset_matches_set_reference(bits, shifts, n):
    members = [a for a in range(bits.bit_length()) if bits >> a & 1]
    sums = {a + s for a in members for s in shifts if a + s <= n}
    assert sumset(bits, shifts, n) == sum(1 << i for i in sums)


def test_is_prime_exhaustive_small():
    assert [n for n in range(100) if is_prime(n)] == [
        n for n in range(100) if naive_is_prime(n)
    ]
    for n in range(5000):
        assert is_prime(n) == naive_is_prime(n), n


# Frozen landmark composites: Carmichael numbers, psi_3 and psi_4, and
# strong pseudoprimes below psi_5 to the first two prime bases
# (1122004669633) and to the first four (118670087467, 1871186716981),
# which the next base rejects.
LANDMARK_COMPOSITES = [
    341,
    561,
    1105,
    1729,
    25326001,
    3215031751,
    118670087467,
    1122004669633,
    1871186716981,
]

LANDMARK_PRIMES = [
    2,
    3,
    1009,
    104729,
    2**31 - 1,
    999999999989,
    10**12 + 39,
    2152302898729,  # the largest prime below psi_5
]

# At or above psi_5, the smallest composite passing the first 5 prime
# bases, the bases prove nothing and is_prime refuses: psi_5 itself, three
# Mersenne primes and the square of a fourth.
LANDMARKS_PAST_PSI_5 = [
    2152302898747,
    2**61 - 1,
    2**89 - 1,
    2**127 - 1,
    (2**31 - 1) ** 2,
]


def test_is_prime_landmarks():
    for n in LANDMARK_COMPOSITES:
        assert not is_prime(n), n
    for n in LANDMARK_PRIMES:
        assert is_prime(n), n
    for n in LANDMARKS_PAST_PSI_5:
        with pytest.raises(ValueError):
            is_prime(n)


def test_is_prime_square_of_prime_rejected():
    # squares of primes have no small factor, yet are composite: below psi_2,
    # psi_4 and psi_5, the last the square of the largest prime whose square
    # lies below psi_5
    for p in (1009, 10007, 1000003, 1467061):
        assert not is_prime(p * p)
    assert 1467061**2 < _MR_PSI[-1] < 1467091**2
    assert _next_prime(1467062) == 1467091


def _next_prime(n: int) -> int:
    while not naive_is_prime(n):
        n += 1
    return n


def test_is_prime_gcd_prefilter_edges():
    # is_prime runs no gcd sieve of its own: past the small-prime loop,
    # Miller-Rabin alone must reject products of the primes around
    # _GCD_SIEVE_BOUND and report those primes themselves prime
    bound = _GCD_SIEVE_BOUND
    factors = [p for p in primes_upto(bound) if p > 47]
    assert all(is_prime(p) for p in factors)
    at = _prev_prime(bound)
    below = _prev_prime(at - 1)
    above = _next_prime(bound + 1)
    assert at == factors[-1] and above not in factors and is_prime(above)
    for n in range(bound - 200, bound + 200):
        assert is_prime(n) == naive_is_prime(n), n
    # large primes whose products with the ones above stay below psi_5
    large = (10**6 + 3, 10**8 + 7, 717195229)
    assert above * large[-1] < _MR_PSI[-1]
    for p in (53, below, at, above):
        for q in (below, at, above) + large:
            assert not is_prime(p * q), (p, q)
    assert all(is_prime(q) for q in large)


def test_has_small_factor_edges():
    bound = _GCD_SIEVE_BOUND
    small_primes = primes_upto(bound)
    for n in range(bound + 1):
        assert not has_small_factor(n), n  # nothing at or below the bound
    for n in range(bound + 1, bound + 3000):
        small = any(n % p == 0 for p in small_primes)
        assert has_small_factor(n) == small, n
    big = 2**89 - 1  # prime
    assert not has_small_factor(big)
    # every prime up to the bound: 3..23 divide the one-word screen's
    # 3 * 5 * ... * 23, and 2 and those from 29 up are left to the gcd
    assert all(has_small_factor(p * big) for p in small_primes)
    assert all(has_small_factor(p * q * big) for p, q in ((3, 23), (29, 2999), (23, 2999)))
    assert not has_small_factor(_next_prime(bound + 1) * big)


def test_jacobi_matches_euler_criterion():
    for p in primes_upto(400)[1:]:
        for a in range(2 * p):
            euler = pow(a, (p - 1) // 2, p)
            assert jacobi(a, p) == (-1 if euler == p - 1 else euler), (a, p)
    assert jacobi(2, 15) == 1 and jacobi(7, 15) == -1 and jacobi(5, 15) == 0


# -- factorization ------------------------------------------------------------


# factorize takes only values with no prime factor up to the trial bound;
# 10007, 10009 and 10037 are the first primes past it
def test_factorize_spot_values():
    assert factorize(1) == []
    assert factorize(10007) == [(10007, 1)]
    assert factorize(10007 * 10037) == [(10007, 1), (10037, 1)]
    assert factorize(10007**2) == [(10007, 2)]
    assert factorize(10009**3) == [(10009, 3)]
    assert factorize(10009**2 * 10037) == [(10009, 2), (10037, 1)]
    # the gcd with the primes up to FACTOR_BOUND is the composite
    # 12 007 * 12 211, which split_squarefree splits, and the powers are
    # divided out
    assert factorize(12007 * 12211) == [(12007, 1), (12211, 1)]
    assert factorize(12007**2 * 12211) == [(12007, 2), (12211, 1)]
    # what is left once they are divided out is 1 or a prime, here one
    # near 10**8, above FACTOR_BOUND: with no prime factor up to the bound
    # and below psi_5 / 10007 < FACTOR_BOUND**2, it needs no primality test
    assert _MR_PSI[-1] < 10007 * FACTOR_BOUND**2
    r = 99_999_989
    assert naive_is_prime(r)
    assert factorize(12007 * r) == [(12007, 1), (r, 1)]


def test_factorize_rejects_bad_input():
    # below 1, with a prime factor up to the trial bound, or at or above
    # psi_5, where the precondition no longer holds
    for n in (0, -12, 2, 4, 360, 9973, 10007 * 9973, 2**100, 10007 * 10009 * 30011):
        with pytest.raises(ValueError):
            factorize(n)


def _prev_prime(n: int) -> int:
    while not naive_is_prime(n):
        n -= 1
    return n


def test_factorize_semiprime_beyond_trial_division():
    # two primes near 10**6, both above FACTOR_BOUND: the gcd finds neither,
    # so factorize gives up
    p = _prev_prime(10**6)
    q = _prev_prime(p - 1)
    assert p * q < _MR_PSI[-1]
    assert factorize(p * q) is None


def _next_prime(n: int) -> int:
    while not naive_is_prime(n):
        n += 1
    return n


def test_factorize_splits_at_the_factor_bound():
    # the largest prime up to FACTOR_BOUND is split off by the gcd and leaves
    # a prime near 7 * 10**7; the first prime past the bound leaves a
    # composite
    p = _prev_prime(FACTOR_BOUND)
    q = _prev_prime(7 * 10**7)
    assert _next_prime(FACTOR_BOUND + 1) * q < _MR_PSI[-1]
    assert factorize(p * q) == [(p, 1), (q, 1)]
    assert factorize(_next_prime(FACTOR_BOUND + 1) * q) is None


def test_factorize_answers_none_past_the_bound_without_a_primality_test(monkeypatch):
    # with no prime factor up to FACTOR_BOUND, n is a prime above the bound
    # or has two or more prime factors above it; the gcd is 1 and no
    # primality test runs
    def no_test(n):
        raise AssertionError(f"is_prime({n}) was called")

    monkeypatch.setattr(arith, "is_prime", no_test)
    p = _next_prime(FACTOR_BOUND + 1)
    q = _prev_prime(10**9)  # above FACTOR_BOUND**2
    r = _prev_prime(10**6)
    s = _prev_prime(r - 1)
    for n in (p, q, p * r, r * s, p**2):
        assert factorize(n) is None, n
    # n = 1, and a prime up to the bound, still need no test
    assert factorize(1) == []
    assert factorize(_prev_prime(FACTOR_BOUND)) == [(_prev_prime(FACTOR_BOUND), 1)]


# The primes past the trial bound up to FACTOR_BOUND: every product of up to
# three of them, repeats allowed, splits exactly when it lies below psi_5,
# and is refused at or above it.
_PRIMES_PAST_TRIAL_BOUND = [p for p in primes_upto(FACTOR_BOUND) if p > TRIAL_DIVISION_BOUND]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_PRIMES_PAST_TRIAL_BOUND), min_size=1, max_size=3))
def test_factorize_roundtrip(primes):
    n = math.prod(primes)
    if n >= _MR_PSI[-1]:
        with pytest.raises(ValueError):
            factorize(n)
        return
    fac = factorize(n)
    assert fac == sorted({p: primes.count(p) for p in primes}.items())
    assert all(is_prime(p) for p, _ in fac)


# -- integer roots ------------------------------------------------------------


def test_integer_cbrt_small_exhaustive():
    r = 0
    for n in range(0, 20000):
        if (r + 1) ** 3 <= n:
            r += 1
        assert integer_cbrt(n) == r, n


def _cbrt_neighbours(bases):
    """x**3 - 1, x**3 and x**3 + 1 for each base x >= 1."""
    for x in bases:
        assert integer_cbrt(x**3 - 1) == x - 1, x
        assert integer_cbrt(x**3) == x, x
        assert integer_cbrt(x**3 + 1) == x, x


def test_integer_cbrt_at_cubes_below_float_limit():
    # every cube up to 2**54, where the float seed is used
    _cbrt_neighbours(range(1, 2**18 + 1))


def test_integer_cbrt_at_cubes_across_float_limit():
    # 208063**3 < 2**53 < 208064**3: the float seed and Newton meet here
    assert 208063**3 < 2**53 < 208064**3
    _cbrt_neighbours(range(208000, 208101))


def test_integer_cbrt_at_large_cubes():
    rng = random.Random(300)
    _cbrt_neighbours(rng.randrange(10**299, 10**300) for _ in range(200))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**36))
def test_integer_cbrt_bracketing(n):
    r = integer_cbrt(n)
    assert r**3 <= n < (r + 1) ** 3


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**18))
def test_is_perfect_square_roundtrip(n):
    assert is_perfect_square(n * n) == n
    if n > 1:
        assert is_perfect_square(n * n + 1) in (None,) if n > 1 else True


def test_is_perfect_square_small_exhaustive():
    squares = {k * k: k for k in range(200)}
    for n in range(200 * 200):
        assert is_perfect_square(n) == squares.get(n), n
    assert is_perfect_square(-4) is None


# -- CRT ----------------------------------------------------------------------


def test_crt_basic():
    assert crt([(0, 2), (2, 3), (2, 5)]) == 2  # the worked-example anchor
    assert crt([(1, 4), (2, 25)]) == 77
    with pytest.raises(ValueError):
        crt([(0, 4), (1, 6)])  # moduli share a factor


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 * 3 * 5 * 7 * 11 - 1))
def test_crt_reconstructs(x):
    mods = (2, 3, 5, 7, 11)
    assert crt([(x % m, m) for m in mods]) == x


def test_cube_root_rejects_bad_prime_lists():
    # cube roots mod 6p are AuxModulus.cube_root; a prime list that is not an
    # increasing run of primes = 5 (mod 6) yields no modulus to take them in
    with pytest.raises(ValueError):
        AuxModulus(7, (7,)).cube_root(8)  # 7 != 5 (mod 6)
    with pytest.raises(ValueError):
        AuxModulus(55, (11, 5)).cube_root(8)  # not increasing


def test_is_prime_refuses_from_the_5_base_bound():
    # psi_5, the smallest composite passing Miller-Rabin on the first 5
    # prime bases, is where is_prime stops being a proof, and so refuses
    psi5 = _MR_PSI[-1]
    assert psi5 == 2152302898747
    assert is_prime(psi5 - 18) is True  # below the bound: answered
    assert is_prime(psi5 - 1) is False
    for n in (psi5, psi5 + 1, 2**41, 2**82):
        with pytest.raises(ValueError):
            is_prime(n)


# -- the Miller-Rabin cut-offs --------------------------------------------------

_FIRST_5_PRIMES = (2, 3, 5, 7, 11)

# psi_k, k = 1..5, with a factorization of each (Jaeschke 1993)
PSI_FACTORS = (
    (2047, (23, 89)),
    (1373653, (829, 1657)),
    (25326001, (2251, 11251)),
    (3215031751, (151, 751, 28351)),
    (2152302898747, (6763, 10627, 29947)),
)


def strong_probable_prime(n: int, a: int) -> bool:
    """n passes the strong Fermat test to base a (odd n > 2)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime_all_bases(n: int) -> bool:
    """The primality test without cut-offs, for n below psi_5: every number
    that gets past the small primes runs all 5 Miller-Rabin bases."""
    if n < 2:
        return False
    for p in _FIRST_5_PRIMES:
        if n % p == 0:
            return n == p
    return all(strong_probable_prime(n, a) for a in _FIRST_5_PRIMES)


def matches_all_bases(n: int) -> bool:
    """is_prime(n) agrees with is_prime_all_bases below psi_5 and raises
    ValueError at or above it; True when n was answered."""
    if n >= _MR_PSI[-1]:
        with pytest.raises(ValueError):
            is_prime(n)
        return False
    assert is_prime(n) == is_prime_all_bases(n), n
    return True


def test_mr_psi_table():
    assert _MR_PSI == tuple(psi for psi, _ in PSI_FACTORS)
    assert list(_MR_PSI) == sorted(_MR_PSI)
    for k, (psi, factors) in enumerate(PSI_FACTORS, start=1):
        # composite, and a strong probable prime to the first k bases
        assert len(factors) > 1 and all(f > 1 for f in factors)
        assert psi == math.prod(factors)
        assert all(strong_probable_prime(psi, a) for a in _FIRST_5_PRIMES[:k]), k
        assert k == 5 or not is_prime(psi)  # is_prime refuses psi_5
        # psi_k fails base k + 1
        if k < 5:
            assert not strong_probable_prime(psi, _FIRST_5_PRIMES[k]), k


def test_mr_psi_smallest_for_one_and_two_bases():
    # no odd composite below psi_1 passes base 2, none below psi_2 bases 2, 3
    sieve = prime_sieve(_MR_PSI[1])
    for n in range(9, _MR_PSI[1], 2):
        if sieve[n] or not strong_probable_prime(n, 2):
            continue
        assert n >= _MR_PSI[0], n
        assert not strong_probable_prime(n, 3), n


def test_is_prime_matches_all_bases_near_psi():
    for psi in _MR_PSI:
        for n in range(psi - 4, psi + 5):
            matches_all_bases(n)


def test_is_prime_matches_all_bases_seeded():
    rng = random.Random(20240613)
    primes = refused = 0
    for _ in range(100_000):
        n = rng.getrandbits(rng.randrange(11, 47))
        if matches_all_bases(n):
            primes += is_prime(n)
        else:
            refused += 1
    assert primes > 1000  # the early exits were taken
    assert refused > 1000  # draws at or above psi_5 raise
