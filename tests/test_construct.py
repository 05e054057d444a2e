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
from dataclasses import replace
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
from sevencubes.modulus import DIRECT_SCAN_BITS, AuxModulus, modulus_interval, steering_residues
from sevencubes.arith import primes_upto

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
    q = 10**16 + 1  # the walk starts at y = 44721359; the 96th fiber certifies
    real = construct._binary_part
    fibers = []
    monkeypatch.setattr(construct, "_binary_part", lambda m: fibers.append(m) or real(m))
    monkeypatch.setattr(construct, "FIBER_BUDGET", 1)
    with pytest.raises(OutOfScopeError):
        represent_ternary(q)
    assert len(fibers) == 1


def test_decompose_skips_modulus_over_fiber_budget(monkeypatch):
    n = 10**18 + 6
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
    5 * (10**40 + 1): (9762577480, 213195558210),  # 5 exactly divides q
    10**20 + 2: (543620, 738519),  # q == 2 (mod 8)
    25**3 * (10**30 + 1): (17165145750, 19355513750),
}


def test_represent_ternary_certified_witnesses_pinned():
    # the fiber walk order and the certificate decide these witnesses; a change
    # to either shows here (the selftest records no witness above 10**8)
    for q, (x1, x3) in CERTIFIED_WITNESSES.items():
        assert q > construct.COMPLETE_FIBER_LIMIT
        rep = represent_ternary(q)
        assert (rep.x1, rep.x3) == (x1, x3), q
        assert rep.q() == q


def test_represent_ternary_spends_no_primality_test(monkeypatch):
    # the certified fibers are decided by the exact identity alone
    def forbidden(n):
        raise AssertionError(f"is_prime({n}) called in the ternary step")

    monkeypatch.setattr(construct, "is_prime", forbidden)
    monkeypatch.setattr(arith, "is_prime", forbidden)
    for q, (x1, x3) in CERTIFIED_WITNESSES.items():
        rep = represent_ternary(q)
        assert (rep.x1, rep.x3) == (x1, x3), q


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
# composite cofactors, which factorize would have to split; it lies past
# 2**DIRECT_SCAN_BITS, so none is factored
_PAST_THE_DIRECT_SCAN = int(
    "45224311216458038292176761525003882559427873509426807136010701777482448052627681566897482"
)


def test_every_modulus_factor_is_below_psi_13():
    # every factor lies where is_prime is a proof: l < 2**38 on the composite
    # route, and below 2**DIRECT_SCAN_BITS < psi_13 on the direct scan
    psi13 = arith._MR_PSI[-1]
    n = 1786 * 26141**3 * (psi13 - 50) ** 3 - 1
    n -= (n - 2) % 4
    for target in (10**299 + 6, n, 10**30 + 2):
        tr = decompose(target)
        assert tr.branch == "construction" and tr.verified
        assert max(tr.p_factors) < psi13, target
    # windows above 2**DIRECT_SCAN_BITS go to the composite route, whose S
    # starts at 11 for a unit steering residue
    for target in (10**82 + 2, _PAST_THE_DIRECT_SCAN):
        tr = decompose(target)
        assert tr.branch == "construction" and tr.verified
        assert tr.p_value >= 2**DIRECT_SCAN_BITS and tr.p_factors[0] == 11
        assert max(tr.p_factors) < 2**38, target


def test_decompose_keeps_its_modulus_past_uncertified_candidates(monkeypatch):
    # a 75-digit target whose direct scan meets two candidates with composite
    # cofactors (75 and 80 bits) before its modulus; splitting them fully
    # takes 0.7-1 s, only to reject both.  Each has two prime factors above
    # arith.FACTOR_BOUND, so factorize gives up on each.  Between them lies
    # the prime candidate 812705424367182519257083 = 1 (mod 6), never
    # admissible: it gets no primality test, and factorize's gcd finds no
    # factor and answers None.  The scan reaches the same modulus,
    # 167 * 4866499547108877360821
    n = 958696032065439417300228502276629969866955385103362688738432078633236126958
    results = []

    def recording_factorize(m):
        results.append(arith.factorize(m))
        return results[-1]

    monkeypatch.setattr("sevencubes.modulus.factorize", recording_factorize)
    tr = decompose(n)
    assert tr.branch == "construction" and tr.verified
    assert tr.p_value == 812705424367182519257107
    assert tr.p_factors == (167, 4866499547108877360821)
    assert results == [None, None, None]


@pytest.mark.parametrize("v", [0, 1, 2], ids=["unit", "five", "twentyfive"])
def test_decompose_composite_route_every_branch(v):
    n = 10**299 + 6
    while n % 5**v or n % 5 ** (v + 1) == 0:
        n += 4
    tr = decompose(n)
    assert tr.branch == "construction" and tr.p_value > 2**96
    assert tr.b in steering_residues(n).candidates
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


def test_composite_route_gated_by_size(monkeypatch):
    def refuse(n):
        raise AssertionError("steering_residues called")

    gate = construct.COMPOSITE_ROUTE_MIN
    assert 1.1e28 < gate < 1.2e28
    monkeypatch.setattr(construct, "steering_residues", refuse)
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


def test_cornacchia_two_exhaustive():
    for p in primes_upto(4000):
        if p % 8 not in (1, 3):
            continue
        a, b = _cornacchia_two(p)
        assert a * a + 2 * b * b == p, p


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


def test_decompose_exceptional_scaled():
    tr = decompose(2750)  # 125 * 22: five positive cubes exist at this scale
    assert tr.branch == "fallback" and tr.e == 1 and tr.n0 == 22
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
        "7d5437922e7865ccc98c9927c9f3b4110bda1a631ccbc64eb64ff5fefc899e58"
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
    for n in (1626, 202258, 125**2 * 202258, 10**18 + 2, 10**299 + 6, 999999, 125 * 23):
        assert decompose(n).recheck(), n


def test_trace_recheck_detects_tampering():
    tr = decompose(1626)
    tr.cubes = (2, 7, 1, 5, 5, 8, 9)
    assert not tr.recheck() and not tr.verified

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
    }
    for why, tr in tampered.items():
        assert verify(tr.cubes, tr.n), why  # the cube sum alone misses each one
        assert not tr.recheck() and not tr.verified, why
