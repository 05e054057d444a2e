"""Exhaustive cube-search tests.

A tiny recursive oracle re-derives representability for small targets, and
the frozen exception list is cross-checked against both the searcher and
the independent sieve scan.
"""

import gc
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevencubes import search
from sevencubes.arith import integer_cbrt
from sevencubes.certify import exceptional_table_text
from sevencubes.search import (
    EXCEPTIONS,
    EXCEPTIONS_EVEN,
    SearchLimitError,
    exception_scan,
    exceptional_cube_tables,
    _Tables,
    _tables,
    search_cubes,
    search_seven,
)


def oracle_exists(n, k, lo=0, hi=None):
    """True when n is a sum of k cubes of integers >= lo (each <= hi)."""
    if k == 0:
        return n == 0
    a = lo
    while a**3 <= n and (hi is None or a <= hi):
        if oracle_exists(n - a**3, k - 1, lo, a):
            return True
        a += 1
    return False


def test_exception_constants():
    assert sorted(EXCEPTIONS) == [
        15, 22, 23, 50, 114, 167, 175, 186, 212, 231, 238, 239,
        303, 364, 420, 428, 454,
    ]
    assert EXCEPTIONS_EVEN == frozenset(
        {22, 50, 114, 186, 212, 238, 364, 420, 428, 454}
    )
    assert EXCEPTIONS_EVEN < EXCEPTIONS


def test_search_frozen_values():
    assert search_seven(23) is None
    assert search_seven(454) is None
    assert search_cubes(24, 7) == (2, 2, 2, 0, 0, 0, 0)
    assert search_cubes(1729, 2) == (12, 1)
    assert search_cubes(0, 3) == (0, 0, 0)
    assert search_cubes(16, 2, min_base=2) == (2, 2)
    assert search_cubes(2, 2, min_base=2) is None
    assert search_cubes(2, 2) == (1, 1)


def test_search_matches_oracle_small():
    for n in range(0, 300):
        got = search_seven(n)
        assert (got is not None) == oracle_exists(n, 7), n
        if got is not None:
            assert sum(c**3 for c in got) == n


def test_search_agrees_with_exceptions_to_2000():
    missing = [n for n in range(2001) if search_seven(n) is None]
    assert missing == sorted(EXCEPTIONS)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=50000), st.integers(min_value=1, max_value=7))
def test_search_output_shape(n, k):
    got = search_cubes(n, k)
    if got is None:
        return
    assert len(got) == k
    assert list(got) == sorted(got, reverse=True)
    assert sum(c**3 for c in got) == n
    assert all(c >= 0 for c in got)


def test_search_min_base_respected():
    got = search_cubes(125 * 22, 7, min_base=1)
    assert got is not None and min(got) >= 1
    assert sum(c**3 for c in got) == 2750


@pytest.fixture
def fresh_tables():
    """A cold memo for the test, and none of its tables left behind."""
    _tables.cache_clear()
    yield
    _tables.cache_clear()


def test_search_cap(fresh_tables, monkeypatch):
    with pytest.raises(SearchLimitError):
        search_seven(10**9)
    with pytest.raises(SearchLimitError):
        search_cubes(5000, 7, max_n=1000)
    # a tighter table window must not change answers, only speed
    sample = [*range(0, 2000), *range(2000, 4 * 10**6, 3989)]
    full = [search_seven(n) for n in sample]
    monkeypatch.setattr(search, "_WINDOW", 10**4)
    _tables.cache_clear()
    assert _tables().window == 10**4
    assert [search_seven(n) for n in sample] == full
    assert search_seven(454) is None
    assert search_seven(456) is not None


def test_search_limit_error_for_values_past_the_digit_limit():
    # past 4300 digits a value may not convert to str: the messages leave it out
    with pytest.raises(SearchLimitError, match="bits exceeds"):
        search_seven(10**5000)
    with pytest.raises(SearchLimitError, match="bits exceeds"):
        exception_scan(10**5000)


# -- the memo ----------------------------------------------------------------

REF_WINDOW = 10**6


@pytest.fixture(scope="module")
def ref_small():
    return _Tables(REF_WINDOW).small


def reference_descent(n, k, small):
    """search_cubes(n, k) without the memo: the lexicographically largest
    nonincreasing k-tuple of cube bases summing to n, or None.  small[s]
    holds the sums of at most s cubes up to REF_WINDOW, as in _Tables."""

    def fits(v, s):  # False only where v is no sum of s cubes
        if s == 0:
            return v == 0
        if s >= 4 or v > REF_WINDOW:
            return True
        return v in small[1] if s == 1 else bool(small[s][v])

    bases = []

    def rec(rem, slots, hi):
        if rem == 0:
            return True
        x = min(hi, integer_cbrt(rem))
        while x >= 1 and slots * x**3 >= rem:
            nrem = rem - x**3
            if fits(nrem, slots - 1) and rec(nrem, slots - 1, x):
                bases.append(x)
                return True
            x -= 1
        return False

    if not rec(n, k, integer_cbrt(n)):
        return None
    return tuple(reversed(bases)) + (0,) * (k - len(bases))


def test_memo_matches_reference_descent_cold_and_warm(fresh_tables, ref_small):
    rng = random.Random(13)
    targets = [rng.randint(2 * 10**5 + 1, 10**8) for _ in range(3000)]
    # below 209**3 the root's first remainder lies in the memo window, above
    # it need not: targets on both sides of that edge, for k = 6 and 7
    edge = 209**3
    near = [rng.randint(edge - 2 * 10**5, edge + 2 * 10**5) for _ in range(1000)]
    want = {k: [reference_descent(n, k, ref_small) for n in targets] for k in (5, 6, 7)}
    want_near = {k: [reference_descent(n, k, ref_small) for n in near] for k in (6, 7)}
    for _ in ("cold", "warm"):
        for k in (5, 6, 7):
            assert [search_cubes(n, k) for n in targets] == want[k], k
        for k in (6, 7):
            assert [search_cubes(n, k) for n in near] == want_near[k], k
    memo = _tables().memo
    for slots in search._MEMO_SLOTS:  # both kinds of entry were stored
        firsts = set(memo[slots][::slots])
        assert search._NO_SUM in firsts and firsts - {0, search._NO_SUM}


def test_memo_entry_above_the_cap_yields_the_loops_answer(fresh_tables, ref_small):
    # the descent never enters a node whose uncapped maximum starts above
    # its cap, so the entry is planted: the root of search_cubes(n, slots)
    # has the cap integer_cbrt(n), and the entry claims a larger first base
    n = 2522
    for slots, want in ((5, (12, 9, 4, 1, 0)), (6, (13, 5, 4, 4, 4, 2))):
        table = _tables().memo[slots]
        table[slots * n : slots * (n + 1)] = bytes([integer_cbrt(n) + 1] + [0] * (slots - 1))
        assert search_cubes(n, slots) == reference_descent(n, slots, ref_small) == want


def test_memo_storage_is_bounded(fresh_tables):
    tables = _tables()
    search_seven(999_999)
    sizes = [len(t) for t in tables.memo if t is not None]
    assert sizes == [s * (search._WINDOW + 1) for s in (4, 5, 6)]
    rng = random.Random(29)
    for _ in range(10_000):
        assert search_seven(rng.randint(455, 10**8)) is not None
    assert _tables() is tables
    assert [len(t) for t in tables.memo if t is not None] == sizes
    # no per-entry objects: nothing in the memo is tracked by the collector
    assert not any(gc.is_tracked(t) for t in tables.memo)


@pytest.mark.parametrize("window", [1, 7, 8, 9, 1000, 12345])
def test_small_sum_tables_match_loops(window):
    cubes = [x**3 for x in range(30) if x**3 <= window]
    two = {a + b for a in cubes for b in cubes}
    three = {v + c for v in two for c in cubes}
    small = _Tables(window).small
    assert small[1] == set(cubes)
    for table, sums in ((small[2], two), (small[3], three)):
        assert len(table) - (window + 1) in range(8)
        assert [i for i, bit in enumerate(table) if bit] == sorted(
            v for v in sums if v <= window
        )


def test_small_sum_tables_are_golden():
    # pinned bytes: a faster builder must give exactly these tables
    small = _Tables(10**6).small
    assert small[1] == {x**3 for x in range(101)}
    assert hashlib.sha256(small[2][: 10**6 + 1]).hexdigest() == (
        "1a1eaeb184494ada8ff0e1c7010f5ac2b4a3d86af25f375a07b7df18afdb8da1"
    )
    assert hashlib.sha256(small[3][: 10**6 + 1]).hexdigest() == (
        "b8a3cf6b7c986eca4f7c9a038f999662da0a1ef6c019209d77c13a10011c67f9"
    )


def test_search_seven_is_golden():
    # every tuple for n <= 2 * 10**5 is pinned, so pruning and visiting
    # order cannot change an answer unnoticed
    text = "".join(f"{search_seven(n)!r}\n" for n in range(2 * 10**5 + 1))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f0416d57893c4f89c2c9fbcd6130de09b34cbe33583a3405c774689c68641676"
    )


def test_exception_scan_matches_frozen():
    assert exception_scan(500) == sorted(EXCEPTIONS)
    assert exception_scan(2000) == sorted(EXCEPTIONS)


def test_exceptional_cube_tables():
    tables = exceptional_cube_tables()
    assert set(tables) == EXCEPTIONS
    for n0, (five, seven_pos) in tables.items():
        assert sum(c**3 for c in five) == 125 * n0
        assert len(five) == 5 and min(five) >= 0
        assert sum(c**3 for c in seven_pos) == 125 * n0
        assert len(seven_pos) == 7 and min(seven_pos) >= 1


def test_exceptional_table_text_is_golden():
    from importlib import resources

    packaged = (
        resources.files("sevencubes").joinpath("data/exceptional.txt").read_text()
    )
    assert exceptional_table_text() == packaged
