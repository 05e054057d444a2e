"""Exhaustive cube-search tests.

A tiny recursive oracle re-derives representability for small targets, and
the frozen exception list is cross-checked against both the searcher and
the independent sieve scan.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevencubes.search import (
    EXCEPTIONS,
    EXCEPTIONS_EVEN,
    SearchBudget,
    SearchLimitError,
    exception_scan,
    exceptional_cube_tables,
    exceptional_table_text,
    _Tables,
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


def test_search_budget():
    with pytest.raises(SearchLimitError):
        search_seven(10**9)
    with pytest.raises(SearchLimitError):
        search_cubes(5000, 7, budget=SearchBudget(max_n=1000))
    # a tighter bitset window must not change answers, only speed
    tight = SearchBudget(max_n=10**8, window=10**4)
    assert search_cubes(454, 7, budget=tight) is None
    assert search_cubes(456, 7, budget=tight) is not None


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
