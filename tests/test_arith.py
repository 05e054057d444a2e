"""Arithmetic kernel tests.

Expected values come from naive in-test reimplementations (trial division,
brute-force roots) or from well-known frozen constants (prime counts,
pseudoprime landmarks), never from the functions under test.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevencubes.arith import (
    _GCD_SIEVE_BOUND,
    PROBABLE_PRIME_THRESHOLD,
    FactorBudgetError,
    crt,
    cube_root_mod_6n,
    factorize,
    has_small_factor,
    integer_cbrt,
    is_perfect_square,
    is_prime,
    jacobi,
    primes_upto,
)


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


def test_is_prime_exhaustive_small():
    assert [n for n in range(100) if is_prime(n)] == [
        n for n in range(100) if naive_is_prime(n)
    ]
    for n in range(5000):
        assert is_prime(n) == naive_is_prime(n), n


# Frozen landmark composites: Carmichael numbers, strong pseudoprimes to
# many bases, and the two smallest composites passing the first 12 / 13
# prime Miller-Rabin bases.
LANDMARK_COMPOSITES = [
    341,
    561,
    1105,
    1729,
    25326001,
    3215031751,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
]

LANDMARK_PRIMES = [
    2,
    3,
    1009,
    104729,
    2**31 - 1,
    2**61 - 1,
    2**89 - 1,
    2**127 - 1,
    10**18 + 9,
    999999999999999989,
    10**24 + 7,
]


def test_is_prime_landmarks():
    for n in LANDMARK_COMPOSITES:
        assert not is_prime(n), n
    for n in LANDMARK_PRIMES:
        assert is_prime(n), n


def test_is_prime_square_of_prime_rejected():
    # squares of primes trip up sloppy Lucas implementations
    for p in (1000003, 10**9 + 7, 2**61 - 1):
        assert not is_prime(p * p)


def _next_prime(n: int) -> int:
    while not naive_is_prime(n):
        n += 1
    return n


def test_is_prime_gcd_prefilter_edges():
    # past the small-prime loop, one gcd with the product of the primes up to
    # _GCD_SIEVE_BOUND rejects n; at or below the bound n may be one of
    # those primes, which must still be reported prime
    bound = _GCD_SIEVE_BOUND
    factors = [p for p in primes_upto(bound) if p > 47]
    assert all(is_prime(p) for p in factors)
    at = _prev_prime(bound)
    below = _prev_prime(at - 1)
    above = _next_prime(bound + 1)
    assert at == factors[-1] and above not in factors and is_prime(above)
    for n in range(bound - 200, bound + 200):
        assert is_prime(n) == naive_is_prime(n), n
    large = (10**9 + 7, 2**61 - 1, 2**89 - 1)  # 2**89 - 1 takes the Lucas test
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
    assert all(has_small_factor(p * big) for p in (2, 47, 53, _prev_prime(bound)))
    assert not has_small_factor(_next_prime(bound + 1) * big)


def test_jacobi_matches_euler_criterion():
    for p in primes_upto(400)[1:]:
        for a in range(2 * p):
            euler = pow(a, (p - 1) // 2, p)
            assert jacobi(a, p) == (-1 if euler == p - 1 else euler), (a, p)
    assert jacobi(2, 15) == 1 and jacobi(7, 15) == -1 and jacobi(5, 15) == 0


# -- factorization ------------------------------------------------------------


def test_factorize_spot_values():
    assert factorize(2) == [(2, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(26477) == [(11, 1), (29, 1), (83, 1)]
    assert factorize(2**10 * 3**5) == [(2, 10), (3, 5)]


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-12)


def _prev_prime(n: int) -> int:
    while not naive_is_prime(n):
        n -= 1
    return n


def test_factorize_budget():
    n = 999999999999999989 * (10**18 + 9)  # 120 bits
    with pytest.raises(FactorBudgetError):
        factorize(n)  # default budget is 96 bits
    with pytest.raises(FactorBudgetError):
        factorize(2**100)
    assert factorize(2**100, bit_budget=128) == [(2, 100)]


def test_factorize_semiprime_beyond_trial_division():
    p = _prev_prime(10**8)
    q = _prev_prime(p - 1)
    assert factorize(p * q) == [(q, 1), (p, 1)]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=10**12))
def test_factorize_roundtrip(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac:
        assert is_prime(p) and e >= 1
        prod *= p**e
    assert prod == n
    assert [p for p, _ in fac] == sorted({p for p, _ in fac})


# -- integer roots ------------------------------------------------------------


def test_integer_cbrt_small_exhaustive():
    r = 0
    for n in range(0, 20000):
        if (r + 1) ** 3 <= n:
            r += 1
        assert integer_cbrt(n) == r, n


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


# -- cube roots modulo 6p -----------------------------------------------------


def test_cube_root_worked_anchor():
    # hand-derived: 202258 - 1402 * 125 = 27008; its cube root mod 30 is 2
    assert cube_root_mod_6n(27008, (5,)) == 2


@pytest.mark.parametrize("primes", [(), (5,), (11,), (5, 11), (17,)])
def test_cube_root_is_bijection(primes):
    modulus = 6
    for p in primes:
        modulus *= p
    seen = set()
    for a in range(modulus):
        r = cube_root_mod_6n(a, primes)
        assert 0 <= r < modulus
        assert pow(r, 3, modulus) == a % modulus
        seen.add(r)
    assert len(seen) == modulus  # cubing is a bijection on Z/6p


def test_cube_root_rejects_bad_prime_lists():
    with pytest.raises(ValueError):
        cube_root_mod_6n(8, (7,))  # 7 != 5 (mod 6)
    with pytest.raises(ValueError):
        cube_root_mod_6n(8, (11, 5))  # not increasing


def test_probable_prime_threshold_is_13_base_bound():
    # the smallest composite passing Miller-Rabin on the first 13 prime bases
    assert PROBABLE_PRIME_THRESHOLD == 3317044064679887385961981
