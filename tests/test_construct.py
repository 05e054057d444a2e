"""Cube engine tests.

The worked decomposition of 202258 (modulus 5, anchor 2, residual 225) is
frozen end to end, and the ternary-form exclusion predicate is checked
against a brute-force three-square scan.
"""

import hashlib
import json
import random
import sys
import time
from dataclasses import fields, replace
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevencubes import arith, construct
from sevencubes.construct import (
    IDENTITY_CONSTANT,
    ConstructionError,
    NotRepresentableError,
    OutOfScopeError,
    TernaryRep,
    Trace,
    _binary_part,
    _cornacchia_two,
    _sqrt_minus_two,
    anchor_root,
    assemble_cubes,
    decompose,
    dickson_excluded,
    reduce_125,
    represent_ternary,
    residual_quotient,
    verify,
)
from sevencubes.modulus import (
    VALID_LO,
    AuxModulus,
    iter_moduli_direct,
    modulus_interval,
    steering_residues,
)
from sevencubes.arith import integer_cbrt, is_perfect_square, primes_upto
from sevencubes.search import EXCEPTIONS

P5 = AuxModulus(5, (5,))
P1 = AuxModulus(1, ())


# -- identity -----------------------------------------------------------------


def test_identity_constant():
    assert IDENTITY_CONSTANT == 1402 == 2 * (4**3 + 5**3 + 8**3)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=-(10**6), max_value=10**6),
)
def test_six_cube_identity(p, a, b, c):
    total = sum(
        base**3
        for base in (4 * p + a, 4 * p - a, 5 * p + b, 5 * p - b, 8 * p + c, 8 * p - c)
    )
    assert total == IDENTITY_CONSTANT * p**3 + 6 * p * (4 * a * a + 5 * b * b + 8 * c * c)


# -- reduction ----------------------------------------------------------------


def test_reduce_125():
    assert reduce_125(202258) == (202258, 0)
    assert reduce_125(2750) == (22, 1)
    assert reduce_125(125**3 * 6) == (6, 3)
    with pytest.raises(ValueError):
        reduce_125(0)
    with pytest.raises(ValueError):
        reduce_125(-125)


# -- anchor -------------------------------------------------------------------


def test_anchor_root_worked_examples():
    assert anchor_root(202258, P5) == 2
    assert anchor_root(1626, P1) == 2


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**12))
def test_anchor_root_properties(k):
    n = 4 * k + 2
    for modulus in (P1, P5, AuxModulus(55, (5, 11))):
        p = modulus.value
        x0 = anchor_root(n, modulus)
        assert 0 < x0 <= 6 * p
        assert x0 % 2 == 0
        assert (x0**3 - (n - IDENTITY_CONSTANT * p**3)) % (6 * p) == 0


def test_anchor_root_divisibility_in_window():
    # inside the validity window the full 24*p divisibility must hold
    n = 202258
    lo, hi = modulus_interval(n)
    assert (lo, hi) == (5, 5)
    x0 = anchor_root(n, P5)
    assert (n - x0**3 - IDENTITY_CONSTANT * 125) % (24 * 5) == 0


# -- residual -----------------------------------------------------------------


def test_residual_quotient_worked_example():
    assert residual_quotient(202258, 5, 2) == 225


def test_residual_quotient_rejects_bad_anchor():
    # the anchor for 202262 (mod 30) is 18, but 24*5 does not divide the rest
    with pytest.raises(ConstructionError):
        residual_quotient(202262, 5, 18)


def test_residual_quotient_rejects_negative():
    with pytest.raises(ConstructionError):
        residual_quotient(1500, 1, 2)


# -- exclusion predicate -------------------------------------------------------


def smallest_ternary(q):
    """The witness of q = x1**2 + 2*x3**2 + 5*y**2 with the smallest (y, x3),
    or None, by brute force."""
    y = 0
    while 5 * y * y <= q:
        x3 = 0
        while 5 * y * y + 2 * x3 * x3 <= q:
            r = q - 5 * y * y - 2 * x3 * x3
            if isqrt(r) ** 2 == r:
                return TernaryRep(isqrt(r), x3, y)
            x3 += 1
        y += 1
    return None


def test_dickson_excluded_matches_brute_force():
    for q in range(0, 4000):
        assert dickson_excluded(q) == (smallest_ternary(q) is None), q


def test_dickson_excluded_spot():
    assert dickson_excluded(10) and dickson_excluded(15)
    assert dickson_excluded(25 * 10) and dickson_excluded(625 * 15)
    assert not dickson_excluded(0)
    assert not dickson_excluded(225)
    assert not dickson_excluded(-10)


# -- ternary representation ----------------------------------------------------


def test_represent_ternary_frozen():
    assert represent_ternary(6) == TernaryRep(2, 1, 0)
    assert represent_ternary(225) == TernaryRep(15, 0, 0)
    assert represent_ternary(0) == TernaryRep(0, 0, 0)


def test_represent_ternary_rejects_excluded():
    for q in (10, 15, 250, 375):
        with pytest.raises(ConstructionError):
            represent_ternary(q)


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=0, max_value=10**7))
def test_represent_ternary_roundtrip(q):
    if dickson_excluded(q):
        return
    rep = represent_ternary(q)
    assert rep.q() == q
    assert rep.x1 >= 0 and rep.x3 >= 0 and rep.y >= 0


def test_represent_ternary_smallest_witness():
    # small q are solved completely on every fiber: the witness is the one
    # with the smallest (y, x3), as a plain scan of the whole form finds it
    for q in range(20_001):
        if not dickson_excluded(q):
            assert represent_ternary(q) == smallest_ternary(q), q


def test_represent_ternary_deterministic():
    q = 10**9 + 7  # above COMPLETE_FIBER_LIMIT: certified fibers only
    assert q > construct.COMPLETE_FIBER_LIMIT and not dickson_excluded(q)
    reps = {represent_ternary(q) for _ in range(3)}
    assert len(reps) == 1
    assert reps.pop().q() == q


def test_represent_ternary_fiber_budget(monkeypatch):
    q = 10**16 + 1  # the walk starts at y = 44721359; the 4th fiber certifies
    real = construct._binary_part
    fibers = []
    monkeypatch.setattr(construct, "_binary_part", lambda m: fibers.append(m) or real(m))
    monkeypatch.setattr(construct, "FIBER_BUDGET", 1)
    with pytest.raises(OutOfScopeError):
        represent_ternary(q)
    assert len(fibers) == 1


def test_decompose_skips_modulus_over_fiber_budget(monkeypatch):
    n = 10**18 + 18
    default = decompose(n)
    monkeypatch.setattr(construct, "FIBER_BUDGET", 1)
    tr = decompose(n)  # the first moduli's residuals need more than one fiber
    assert tr.branch == "construction" and tr.verified
    assert tr.p_value > default.p_value


def test_represent_ternary_large_fiber():
    # too large for the complete scan: exercises the prime-fiber route
    q = 10**16 + 1
    assert not dickson_excluded(q)
    rep = represent_ternary(q)
    assert rep.q() == q


def test_represent_ternary_large_five_adic():
    # v5(q) == 1 forces x1 and x3 to multiples of 5: the fiber must peel the
    # 5-adic part or every remainder stays divisible by 5 and nothing certifies
    for q in (587535151394650, 5 * (10**14 + 1), 25 * (10**14 + 2)):
        rep = represent_ternary(q)
        assert rep.q() == q


def test_represent_ternary_large_even_classes():
    # q == 2 (mod 8) admits no odd-prime fiber; needs the 2*prime shape
    q = 10**15 + 2
    assert q % 8 == 2
    rep = represent_ternary(q)
    assert rep.q() == q


# (x1, x3) of represent_ternary(q) above COMPLETE_FIBER_LIMIT; with q they fix y
CERTIFIED_WITNESSES = {
    10**9 + 7: (1305, 79),
    10**39 + 3: (21202496886, 11400638659),
    10**199 + 9: (
        249970729268769548480630045391874968284508867527946,
        553439099776530010095247014921804306548046568603478,
    ),
    5 * (10**40 + 1): (164415789540, 31364375890),  # 5 exactly divides q
    10**20 + 2: (694612, 68667),  # q == 2 (mod 8)
    25**3 * (10**30 + 1): (16992885250, 17541403250),
}
# the witnesses of the same walk when a fiber counts only if its odd part has
# no prime factor up to 3000 and Cornacchia solves it (_cornacchia_only_pair);
# _binary_part accepts every fiber that rule accepts, so on the downward walk
# its witness sits on the same fiber y or a higher one
CORNACCHIA_ONLY_WITNESSES = {
    10**9 + 7: (1305, 79),
    10**39 + 3: (21202496886, 11400638659),
    5 * (10**40 + 1): (9762577480, 213195558210),
    10**20 + 2: (543620, 738519),
    25**3 * (10**30 + 1): (17165145750, 19355513750),
}


def _cornacchia_only_pair(m):
    """_binary_part's shapes, with an odd part t == 1, 3 (mod 8) solved only
    when it has no prime factor up to 3000 and Cornacchia finds its pair."""
    if m == 0:
        return (0, 0)
    s = arith.is_perfect_square(m)
    if s is not None:
        return (s, 0)
    t, scale = m, 1
    while t % 4 == 0:
        t, scale = t // 4, 2 * scale
    if t == 2:
        return (0, scale)
    swap = t % 2 == 0
    if swap:
        t //= 2
    if t % 8 not in (1, 3) or arith.has_small_factor(t):
        return None
    pair = _cornacchia_two(t)
    if pair is None:
        return None
    a, b = pair
    return (2 * b * scale, a * scale) if swap else (a * scale, b * scale)


def test_represent_ternary_certified_witnesses_pinned(monkeypatch):
    # the fiber walk order and the certificate decide these witnesses; a change
    # to either shows here (the selftest records no witness above 10**8)
    reps = {}
    for q, (x1, x3) in CERTIFIED_WITNESSES.items():
        assert q > construct.COMPLETE_FIBER_LIMIT
        reps[q] = rep = represent_ternary(q)
        assert (rep.x1, rep.x3) == (x1, x3), q
        assert rep.q() == q
    monkeypatch.setattr(construct, "_binary_part", _cornacchia_only_pair)
    for q, (x1, x3) in CORNACCHIA_ONLY_WITNESSES.items():
        old = represent_ternary(q)
        assert (old.x1, old.x3) == (x1, x3), q
        assert reps[q].y >= old.y, q


def test_represent_ternary_spends_no_primality_test(monkeypatch):
    # the certified fibers are decided by the exact identity alone
    def forbidden(n):
        raise AssertionError(f"is_prime({n}) called in the ternary step")

    monkeypatch.setattr(construct, "is_prime", forbidden)
    monkeypatch.setattr(arith, "is_prime", forbidden)
    for q, (x1, x3) in CERTIFIED_WITNESSES.items():
        rep = represent_ternary(q)
        assert (rep.x1, rep.x3) == (x1, x3), q


def test_decompose_moduli_pinned():
    # the ternary certificate may move the witness (x1, x2, x3) but never the
    # modulus, the anchor or the residual: seeded targets of 19 to 349 digits
    rng = random.Random(2425)
    digest = hashlib.sha256()
    for d in range(19, 351, 3):
        n = rng.randrange(10 ** (d - 1), 10**d) // 4 * 4 + 2
        if n % 125 == 0:
            n += 4
        tr = decompose(n)
        assert tr.branch == "construction", n
        digest.update(json.dumps([n, tr.p_value, list(tr.p_factors), tr.x0, tr.q]).encode())
    assert digest.hexdigest() == (
        "16063cd7437b5a3f15d628bb0ac6ae0df7e3312554de1dd7332c35b8b56bdf2c"
    )


def test_decompose_300_digit_record_pinned():
    tr = decompose(10**299 + 6)
    record = tr.to_record()
    assert record["branch"] == "construction" and record["verified"] is True
    # the composite route's modulus S * l: S the least primes = 5 (mod 6)
    # from 11 that leave l >= 2**24, l the least prime of its class mod 300
    *smooth, ell = record["p_factors"]
    assert smooth == [p for p in primes_upto(431) if p % 6 == 5 and p > 5]
    assert ell == 6874720877
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    assert digest == "b39bfaaba36118a572e7ba8a283a29191b048ba32d2d5bda22bd62114003f905"


# an 89-digit target whose window (about 2**95) is full of candidates with
# composite cofactors, which factorize would have to split; it lies above
# construct.COMPOSITE_ROUTE_MIN, so none is factored
_PAST_THE_DIRECT_SCAN = int(
    "45224311216458038292176761525003882559427873509426807136010701777482448052627681566897482"
)


def test_every_modulus_factor_is_below_psi_5():
    # every factor lies where is_prime is a proof: l < 2**38 on the composite
    # route, which every target here takes, being above COMPOSITE_ROUTE_MIN;
    # test_modulus pins that l and the largest direct window lie below psi_5
    psi5 = arith._MR_PSI[-1]
    n = 1786 * 26141**3 * (psi5 - 50) ** 3 - 1
    n -= (n - 2) % 4
    for target in (10**299 + 6, n, 10**30 + 2):
        tr = decompose(target)
        assert tr.branch == "construction" and tr.verified
        assert max(tr.p_factors) < psi5, target
    # windows above the largest direct window, like every window above the
    # gate, go to the composite route, whose S starts at 11 for a unit
    # steering residue
    direct_top = integer_cbrt(construct.COMPOSITE_ROUTE_MIN // VALID_LO)
    for target in (10**82 + 2, _PAST_THE_DIRECT_SCAN):
        tr = decompose(target)
        assert tr.branch == "construction" and tr.verified
        assert tr.p_value > direct_top and tr.p_factors[0] == 11
        assert max(tr.p_factors) < 2**38, target


def test_decompose_keeps_its_modulus_past_uncertified_candidates(monkeypatch):
    # a 29-digit target just below COMPOSITE_ROUTE_MIN whose direct scan
    # meets four candidates free of trial-division factors before its first
    # modulus.  Three are primes = 1 (mod 6), never admissible: none gets a
    # primality test, and factorize's gcd finds no factor and answers None.
    # factorize splits the fourth, 10253 * 17881 = 5 (mod 6), after its one
    # failed primality test, and 17881 = 1 (mod 6) rejects it.  The scan,
    # and decompose, reach the modulus 5 * 4013 * 9137
    n = 11005493439253152148481806762
    results, tested = [], []

    def recording_factorize(m):
        results.append(arith.factorize(m))
        return results[-1]

    def recording_is_prime(m):
        tested.append(m)
        return arith.is_prime(m)

    monkeypatch.setattr("sevencubes.modulus.factorize", recording_factorize)
    monkeypatch.setattr("sevencubes.modulus.is_prime", recording_is_prime)
    first = AuxModulus(183333905, (5, 4013, 9137))
    assert next(iter_moduli_direct(n)) == first
    assert results == [None, None, [(10253, 1), (17881, 1)], None]
    assert tested == [10253 * 17881]
    tr = decompose(n)
    assert tr.branch == "construction" and tr.verified
    assert (tr.p_value, tr.p_factors) == (first.value, first.primes)
    # a 75-digit target, above the gate, runs only the composite route: the
    # direct scan refuses it, so factorize sees no call
    results.clear()
    n = 958696032065439417300228502276629969866955385103362688738432078633236126958
    with pytest.raises(ValueError):
        next(iter_moduli_direct(n))
    tr = decompose(n)
    assert tr.branch == "construction" and tr.verified
    assert tr.p_factors[0] == 11 and max(tr.p_factors) < 2**38
    assert results == []


@pytest.mark.parametrize("v", [0, 1, 2], ids=["unit", "five", "twentyfive"])
def test_decompose_composite_route_every_branch(v):
    n = 10**299 + 6
    while n % 5**v or n % 5 ** (v + 1) == 0:
        n += 4
    tr = decompose(n)
    assert tr.branch == "construction" and tr.p_value > 2**96
    assert tr.b in steering_residues(n)
    assert (tr.p_factors[0] == 5) == (v > 0)
    assert tr.verified and tr.recheck()


def test_decompose_2000_digits():
    n = 4 * random.Random(2000).randrange(10**1999 // 4, 10**2000 // 4) + 2
    tr = decompose(n)
    assert tr.branch == "construction" and max(tr.p_factors) < 2**38
    assert tr.verified and tr.recheck()


def test_decompose_above_the_composite_edge_is_out_of_scope():
    # past the product of the primes = 5 (mod 6) up to 10**4 times 2**24 the
    # composite route yields nothing, and no route is left; nothing converts
    # n to str, which the interpreter refuses past 4300 digits by default
    n = 10**6999 + 2
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        saved = sys.get_int_max_str_digits()  # the CLI lifts it to 0
        sys.set_int_max_str_digits(4300)
    try:
        start = time.perf_counter()
        with pytest.raises(OutOfScopeError, match="no constructive route"):
            decompose(n)
        assert time.perf_counter() - start < 10
    finally:
        if limited:
            sys.set_int_max_str_digits(saved)


def _refuse(name):
    def refuse(*args):
        raise AssertionError(f"{name} called")

    return refuse


def test_composite_route_gated_by_size(monkeypatch):
    gate = construct.COMPOSITE_ROUTE_MIN
    assert 1.1e28 < gate < 1.2e28
    monkeypatch.setattr(construct, "steering_residues", _refuse("steering_residues"))
    # just below the gate a target decomposes or falls to the search, which
    # refuses it: both without steering
    below = [gate - (gate - 2) % 4 - 4 * k for k in range(40)]
    for n in below:
        try:
            assert decompose(n).verified
        except OutOfScopeError:
            pass
    # with the direct scan emptied, the gate alone decides
    monkeypatch.setattr(construct, "iter_moduli_direct", lambda n: iter(()))
    with pytest.raises(OutOfScopeError):
        decompose(below[0])
    above = gate + 2 - gate % 4 + 4
    with pytest.raises(AssertionError, match="steering_residues called"):
        decompose(above)


def test_direct_scan_never_runs_above_the_gate(monkeypatch):
    # above the gate the composite route alone answers, with no fallback
    monkeypatch.setattr(construct, "iter_moduli_direct", _refuse("iter_moduli_direct"))
    gate = construct.COMPOSITE_ROUTE_MIN
    first = gate + 2 - gate % 4
    for n in range(first, first + 4 * 40, 4):
        tr = decompose(n)
        assert tr.branch == "construction" and tr.verified, n
        assert tr.p_factors[0] == (5 if n % 5 == 0 else 11), n
        assert max(tr.p_factors) < 2**38
    with pytest.raises(AssertionError, match="iter_moduli_direct called"):
        decompose(first - 4)


def test_composite_route_covers_seeded_targets():
    # 294 targets n = 2 (mod 4), 125 not dividing n, spread over each decade
    # of (C, 10**3 * C] and of [10**29, 10**77]: each decomposes on the
    # construction branch
    rng = random.Random(2323)
    gate = construct.COMPOSITE_ROUTE_MIN
    bands = [(gate * 10**j, gate * 10 ** (j + 1)) for j in range(3)] * 50
    bands += [(10**k, 10 ** (k + 1)) for k in range(29, 77)] * 3
    for lo, hi in bands:
        n = rng.randrange(lo, hi) // 4 * 4 + 2
        if n % 125 == 0:
            n += 4
        tr = decompose(n)
        assert tr.branch == "construction" and tr.verified and tr.recheck(), n


def test_binary_part_shapes():
    assert _binary_part(0) == (0, 0)
    assert _binary_part(49) == (7, 0)
    assert _binary_part(2) == (0, 1)
    assert _binary_part(8) == (0, 2)
    for m in range(0, 3000):
        got = _binary_part(m)
        if got is not None:
            a, b = got
            assert a * a + 2 * b * b == m, m
    # odd primes == 5, 7 (mod 8) have no such form
    assert _binary_part(5) is None
    assert _binary_part(7) is None


def _representable_by_trial_division(m):
    """m == a*a + 2*b*b exactly when every prime == 5, 7 (mod 8) divides m
    to an even power; m is factored by trial division."""
    if m == 0:
        return True
    while m % 2 == 0:
        m //= 2
    p = 3
    while p * p <= m:
        e = 0
        while m % p == 0:
            m, e = m // p, e + 1
        if e % 2 and p % 8 in (5, 7):
            return False
        p += 2
    return m % 8 not in (5, 7)  # what is left is 1 or a prime


def test_binary_part_complete_below_3000_squared():
    # every m < 2*10**5 by a scan of the whole form, and seeded m below 3000**2
    # by the prime criterion: there every prime factor but at most one is up
    # to 3000, so the stored pairs and the gcds factor m completely
    limit = 2 * 10**5
    form = bytearray(limit)
    for b in range(isqrt(limit // 2) + 1):
        for a in range(isqrt(limit - 1 - 2 * b * b) + 1):
            form[a * a + 2 * b * b] = 1
    rng = random.Random(3000)
    seeded = [rng.randrange(limit, 3000**2) for _ in range(2000)]
    for m in list(range(limit)) + seeded:
        expected = form[m] if m < limit else _representable_by_trial_division(m)
        got = _binary_part(m)
        assert (got is not None) == expected, m
        assert got is None or got[0] ** 2 + 2 * got[1] ** 2 == m, m


def test_binary_part_accepts_what_cornacchia_alone_accepts():
    # the odd part splits into stored pairs of its primes up to 3000 and the
    # cofactor, so no fiber the Cornacchia-only rule certified is lost
    rng = random.Random(2**200)
    accepted = 0
    for _ in range(3000):
        m = rng.getrandbits(rng.randint(1, 200))
        got = _binary_part(m)
        assert got is None or (got[0] ** 2 + 2 * got[1] ** 2 == m and min(got) >= 0), m
        if _cornacchia_only_pair(m) is not None:
            accepted += 1
            assert got is not None, m
    assert accepted > 100


def test_cornacchia_two_exhaustive():
    for p in primes_upto(4000):
        if p % 8 not in (1, 3):
            continue
        a, b = _cornacchia_two(p)
        assert a * a + 2 * b * b == p, p


def _cornacchia_from_both_roots(t):
    """Cornacchia for x*x + 2*y*y == t run from each square root of -2 in
    turn, the first exact pair winning."""
    root = _sqrt_minus_two(t)
    if root is None:
        return None
    for r in (root, t - root):
        a, b = t, r
        while b * b > t:
            a, b = b, a % b
        y2, rem = divmod(t - b * b, 2)
        if rem == 0 and is_perfect_square(y2) is not None:
            return b, is_perfect_square(y2)
    return None


def test_cornacchia_two_one_root_matches_both():
    # Euclid from (t, t - r), for r < t/2, steps to (t - r, r) and then on as
    # from (t, r); t - r > sqrt(t) does not stop it, so one root suffices,
    # composite t included
    rng = random.Random(29)
    odd = [t for t in range(1, 100_000, 2) if t % 8 in (1, 3)]
    large = [8 * rng.randrange(10**29, 10**30) + rng.choice((1, 3)) for _ in range(3000)]
    for t in odd + large:
        assert _cornacchia_two(t) == _cornacchia_from_both_roots(t), t


def test_sqrt_minus_two_every_prime():
    for p in primes_upto(20_000):
        if p % 8 in (1, 3):
            r = _sqrt_minus_two(p)
            assert r is not None and (r * r + 2) % p == 0, p


CARMICHAEL = (561, 1105, 1729, 2465, 6601)


def test_composite_remainders_give_exact_pairs_or_none():
    # no primality proof guards Cornacchia: every composite t == 1, 3 (mod 8)
    # must end with None or a pair that satisfies the identity exactly
    primes = set(primes_upto(300_000))
    composites = [t for t in range(9, 300_000, 2) if t % 8 in (1, 3) and t not in primes]
    for t in composites + list(CARMICHAEL):
        r = _sqrt_minus_two(t)
        assert r is None or (r * r + 2) % t == 0, t
        for m, got in ((t, _cornacchia_two(t)), (t, _binary_part(t)), (2 * t, _binary_part(2 * t))):
            assert got is None or got[0] ** 2 + 2 * got[1] ** 2 == m, m
    # odd squares that pass Euler's criterion for -2 (1093 and 3511 are the
    # base-2 Wieferich primes): no z has Jacobi symbol -1, and only the cap
    # on the non-residue search ends the call
    for t in (1093**2, 3511**2):
        assert pow(t - 2, (t - 1) // 2, t) == 1
        assert _sqrt_minus_two(t) is None


def test_strong_pseudoprime_remainder_certified_by_identity():
    # strong probable prime to bases 2..23, yet composite: the pair found is
    # certified by the identity, not by any claim that t is prime
    t = 3825123056546413051
    assert t == 149491 * 747451 * 34233211
    d, s = (t - 1) >> 1, 1
    while d % 2 == 0:
        d, s = d >> 1, s + 1
    assert not any(arith._mr_witness(t, a, d, s) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23))
    assert _cornacchia_two(t) == (948921301, 1209270735)
    assert _binary_part(t) == (948921301, 1209270735)
    assert 948921301**2 + 2 * 1209270735**2 == t


# -- assembly -----------------------------------------------------------------


def test_assemble_cubes_worked_example():
    cubes = assemble_cubes(202258, 5, 2, TernaryRep(15, 0, 0))
    assert cubes == (2, 35, 5, 25, 25, 40, 40)
    assert verify(cubes, 202258)


def test_assemble_cubes_rejects_mismatch():
    with pytest.raises(ConstructionError):
        assemble_cubes(202258, 5, 2, TernaryRep(15, 1, 0))
    with pytest.raises(ConstructionError):
        assemble_cubes(202258, 5, 3, TernaryRep(15, 0, 0))


def test_verify_shape_checks():
    assert verify((2, 35, 5, 25, 25, 40, 40), 202258)
    assert not verify((2, 35, 5, 25, 25, 40), 202258 - 64000)
    assert not verify((2, 35, 5, 25, 25, 40, -40), 202258 - 2 * 64000)
    assert not verify((2.0, 35, 5, 25, 25, 40, 40), 202258)
    # bools are not ints here, as for decompose
    assert not verify((True,) * 7, 7)
    assert not verify([True, False, 0, 0, 0, 0, 0], 1)
    assert not verify((1, 0, 0, 0, 0, 0, 0), True)
    assert verify((1, 0, 0, 0, 0, 0, 0), 1)
    # nor are floats, even integral ones
    assert not verify((1,) * 7, 7.0)


# -- decompose ----------------------------------------------------------------


def test_decompose_worked_example_full_pin():
    tr = decompose(202258)
    assert tr.branch == "construction"
    assert tr.p_value == 5 and tr.p_factors == (5,)
    assert tr.x0 == 2 and tr.q == 225
    assert (tr.x1, tr.x2, tr.x3) == (15, 0, 0)
    assert tr.cubes == (2, 35, 5, 25, 25, 40, 40)
    assert tr.verified and tr.recheck()


def test_decompose_smallest_window():
    tr = decompose(1626)
    assert tr.branch == "construction" and tr.p_value == 1
    assert tr.cubes == (2, 7, 1, 5, 5, 8, 8)
    assert tr.verified


def test_decompose_exceptions_raise():
    for n in (15, 22, 23, 50, 239, 454):
        with pytest.raises(NotRepresentableError):
            decompose(n)
    # only a finished descent proves an exception: a search budget below it
    # leaves it out of scope, and the budget at it proves it
    for n in EXCEPTIONS:
        with pytest.raises(OutOfScopeError):
            decompose(n, search_max_n=n - 1)
        with pytest.raises(NotRepresentableError):
            decompose(n, search_max_n=n)


def test_decompose_exceptional_scaled():
    tr = decompose(2750)  # 125 * 22: five positive cubes exist at this scale
    assert tr.branch == "fallback" and tr.e == 1 and tr.n0 == 22
    # the stored table answers whatever the search budget
    assert decompose(2750, search_max_n=0) == tr
    assert tr.verified and min(tr.cubes) >= 0

    tr2 = decompose(125 * 125 * 22)
    assert tr2.branch == "scaled" and tr2.e == 2
    assert tr2.verified
    assert tuple(c // 5 for c in tr2.cubes) == tr.cubes


def test_decompose_midrange_fallback():
    tr = decompose(10**6 + 2)
    assert tr.branch == "fallback"
    assert tr.p_value is None
    assert tr.verified


def test_decompose_records_across_the_memo_edge_pinned():
    # 209**3 = 9 129 329 lies inside: below it the search answers from its
    # 6-slot memo, above it the root's remainders leave the memo window
    digest = hashlib.sha256()
    for n in range(9_000_001, 9_200_001, 7):
        digest.update(json.dumps(decompose(n).to_record()).encode())
    assert digest.hexdigest() == (
        "16be14767e32301931adced8967394e50de19bf3db77647cf925b964b16f768d"
    )


# one target per route of decompose, each unscaled and scaled where it can be:
# zero, the search, the identity route, the 125 * exception table at e = 1 and
# e = 2, and a raised search cap; every record must stay byte-identical
_ROUTING_TARGETS = (
    0, 3, 1626, 2750, 343750, 202258, 25282250, 999999, 125 * 999999, 10**6 + 2,
    10**18 + 2, 125 * (10**18 + 2), 10**24 + 6, 10**299 + 6,
)


def test_decompose_records_of_every_route_pinned():
    digest = hashlib.sha256()
    for n in _ROUTING_TARGETS:
        digest.update(json.dumps(decompose(n).to_record()).encode())
    digest.update(json.dumps(decompose(3308360150, search_max_n=10**10).to_record()).encode())
    assert digest.hexdigest() == (
        "835702da17353c6f99ea19bcaeeb806a9dc2425b112be171353d874aae03f192"
    )


def test_decompose_out_of_scope():
    # window between direct and composite coverage, beyond search budget
    with pytest.raises(OutOfScopeError):
        decompose(10**12 + 2)


def test_decompose_trivial_and_invalid():
    assert decompose(0).cubes == (0,) * 7
    assert decompose(3).cubes == (1, 1, 1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        decompose(-8)
    with pytest.raises(TypeError):
        decompose(2.0)
    with pytest.raises(TypeError):
        decompose(True)


def test_decompose_large_construction():
    tr = decompose(10**18 + 2)
    assert tr.branch == "construction"
    lo, hi = modulus_interval(10**18 + 2)
    assert lo <= tr.p_value <= hi
    assert tr.verified and tr.recheck()
    assert tr.b == tr.p_value % 25


def test_decompose_scaled_construction():
    n = 125 * (10**18 + 2)
    tr = decompose(n)
    assert tr.branch == "scaled" and tr.e == 1
    assert tr.cubes == tuple(5 * c for c in decompose(10**18 + 2).cubes)
    assert tr.verified


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=10**18 // 4, max_value=10**19 // 4))
def test_decompose_large_random(k):
    n = 4 * k + 2
    tr = decompose(n)
    assert tr.verified
    assert sum(c**3 for c in tr.cubes) == n
    if tr.branch == "construction":
        assert tr.q == tr.x1**2 + 2 * tr.x3**2 + 5 * (tr.x2 // 2) ** 2
        assert not dickson_excluded(tr.q)


def test_decompose_respects_config():
    with pytest.raises(OutOfScopeError, match="exceeds the search budget 100$"):
        decompose(1004, search_max_n=100)  # even, == 0 mod 4, search capped below it
    # no constructive route, and above the default cap: only a raised cap
    # lets the descent answer
    with pytest.raises(OutOfScopeError, match="exceeds the search budget 100000000$"):
        decompose(3308360150)
    tr = decompose(3308360150, search_max_n=10**10)
    assert tr.branch == "fallback" and tr.verified
    assert tr.cubes == (1490, 74, 14, 11, 11, 8, 2)


# -- trace serialisation -------------------------------------------------------


def test_trace_record_layout():
    record = decompose(202258).to_record()
    assert list(record) == [
        "n",
        "n0",
        "e",
        "branch",
        "p_value",
        "p_factors",
        "b",
        "x0",
        "q",
        "x1",
        "x2",
        "x3",
        "cubes",
        "verified",
    ]
    assert list(record) == [f.name for f in fields(Trace)]
    assert json.loads(json.dumps(record)) == record
    assert record["cubes"] == [2, 35, 5, 25, 25, 40, 40]
    assert record["verified"] is True


def _identity_trace(p, factors, x0, x1, x2, x3, e=0):
    """A trace whose fields satisfy the six-cube identity exactly, whatever
    p, its factors and x0 are."""
    q = x1 * x1 + 2 * x3 * x3 + 5 * (x2 // 2) ** 2
    n0 = x0**3 + IDENTITY_CONSTANT * p**3 + 24 * p * q
    bases = (x0, 4 * p + x1, 4 * p - x1, 5 * p + x2, 5 * p - x2, 8 * p + x3, 8 * p - x3)
    return Trace(
        n=n0 * 125**e, n0=n0, e=e, branch="scaled" if e else "construction",
        cubes=tuple(5**e * c for c in bases), p_value=p, p_factors=factors,
        b=p % 25, x0=x0, q=q, x1=x1, x2=x2, x3=x3,
    )


def test_trace_recheck_accepts_identity_traces():
    worked = _identity_trace(5, (5,), 2, 15, 0, 0)
    assert worked.recheck() and worked == decompose(202258)
    assert _identity_trace(5, (5,), 2, 15, 0, 0, e=2).recheck()
    # every route, also rebuilt from its JSON record: construction, scaled
    # construction, a three-prime modulus, the composite route, the descent
    # and the tables of 125 * 23 and 125 * 22
    for n in (1626, 202258, 125**2 * 202258, 10**18 + 2, 10**24 + 6, 10**299 + 6,
              999999, 125 * 23, 2750):
        tr = decompose(n)
        record = json.loads(json.dumps(tr.to_record()))
        rebuilt = Trace(**record)
        assert tr.recheck() and rebuilt.recheck() and rebuilt.to_record() == record, n


def test_decompose_raises_when_its_trace_fails_recheck(monkeypatch):
    monkeypatch.setattr(Trace, "_route_holds", lambda self: False)
    with pytest.raises(ConstructionError, match="fails recheck"):
        decompose(202258)
    # the fallback route, with the real _route_holds: seven bases whose
    # cubes sum to n - 1
    monkeypatch.undo()
    search_seven = construct.search_seven
    monkeypatch.setattr(construct, "search_seven", lambda n, max_n: search_seven(n - 1, max_n))
    with pytest.raises(ConstructionError, match="fails recheck"):
        decompose(999_999)


# the least value == 5 (mod 6) at or above psi_5
PAST_PSI_5 = 2_152_302_898_751


def test_trace_recheck_detects_tampering():
    tr = decompose(1626)
    tr.cubes = (2, 7, 1, 5, 5, 8, 9)
    assert not tr.recheck() and not tr.verified
    assert PAST_PSI_5 >= arith._MR_PSI[-1]

    real = decompose(10**18 + 2)  # p = 82445 = 5 * 11 * 1499
    assert real.p_factors == (5, 11, 1499)
    fallback = decompose(999999)
    assert fallback.branch == "fallback"
    scaled = decompose(125 * 202258)
    tampered = {
        "n0 * 125**e != n (fallback)": replace(fallback, n0=fallback.n0 + 1),
        "n0 * 125**e != n (scaled)": replace(scaled, e=2),
        # 875 * 125**-1 is the float 7.0, which compares equal to n = 7
        "negative e": replace(decompose(7), n0=875, e=-1),
        "float n0": replace(decompose(7), n0=7.0),
        "p below its window": _identity_trace(5, (5,), 2, 0, 0, 0),
        "repeated factor": _identity_trace(25, (5, 5), 152, 0, 0, 0),
        "factor 1 (mod 6)": _identity_trace(7, (7,), 44, 0, 0, 0),
        "factors multiply to 55": replace(real, p_factors=(5, 11)),
        "factors out of order": replace(real, p_factors=(11, 5, 1499)),
        "odd anchor": _identity_trace(5, (5,), 3, 15, 0, 0),
        "zero anchor": _identity_trace(5, (5,), 0, 15, 0, 1),
        "missing anchor": replace(real, x0=None),
        "residual off by one": replace(real, q=real.q + 1),
        "odd x2": replace(real, x2=real.x2 + 1),
        "witness does not give q": replace(real, x3=real.x3 + 1),
        "bases reordered": replace(real, cubes=real.cubes[::-1]),
        "construction branch without a modulus": replace(decompose(7), branch="construction"),
        "scaled branch for the table of 125 * 22": replace(decompose(2750), branch="scaled"),
        "fallback branch with a modulus": replace(real, branch="fallback"),
        "b is not p mod 25": replace(real, b=real.b + 1),
        # p = 8242223 = 11 * 191 * 3923 is == 5 (mod 6) but not prime
        "composite factor": replace(decompose(10**24 + 6), p_factors=(8242223,)),
        # psi_5 <= P == 5 (mod 6): is_prime proves nothing there
        "factor past psi_5": _identity_trace(PAST_PSI_5, (PAST_PSI_5,), 6 * PAST_PSI_5, 1, 0, 0),
        # the float product 5.0 * 11 * 1499 equals p, yet a float is no proof
        "float factor": replace(real, p_factors=(5.0, 11, 1499)),
        "float p": replace(real, p_value=float(real.p_value)),
        "string anchor": replace(real, x0=str(real.x0)),
        "bool witness": replace(decompose(202258), x2=False),  # x2 == 0 there
        "factors not a sequence": replace(real, p_factors=5 * 11 * 1499),
    }
    for why, tr in tampered.items():
        assert verify(tr.cubes, tr.n), why  # the cube sum alone misses each one
        assert not tr.recheck() and not tr.verified, why
