"""Exhaustive search for sums of k nonnegative (or strictly positive) cubes,
plus the frozen exception set for seven cubes and its stored decompositions.

Two independent code paths answer "which n have no seven-cube sum":
`exception_scan` layers a vectorized reachability sieve, while `search_seven`
runs a complete backtracking descent pruned by pure-Python bitsets of sums of
at most 1, 2, 3 cubes.  A None from `search_seven` is a proof of
non-representability within the budget, not a timeout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import integer_cbrt

__all__ = [
    "EXCEPTIONS",
    "EXCEPTIONS_EVEN",
    "SearchBudget",
    "SearchLimitError",
    "exception_scan",
    "exceptional_cube_tables",
    "exceptional_table_text",
    "search_cubes",
    "search_seven",
]

# Every positive integer outside this set is a sum of seven nonnegative
# cubes; verified exhaustively by exception_scan and search_seven below.
EXCEPTIONS = frozenset(
    (15, 22, 23, 50, 114, 167, 175, 186, 212, 231, 238, 239, 303, 364, 420, 428, 454)
)
EXCEPTIONS_EVEN = frozenset(n for n in EXCEPTIONS if n % 2 == 0)


class SearchLimitError(Exception):
    """The request exceeds the configured exhaustive-search budget."""


@dataclass(frozen=True)
class SearchBudget:
    max_n: int = 10**8  # largest n the descent will accept
    window: int = 10**6  # size of the small-sum bitsets


class _Tables:
    """Bitsets of sums of at most 1, 2, 3 cubes up to `window`."""

    def __init__(self, window: int) -> None:
        self.window = window
        top = integer_cbrt(window)
        self.cubes = [x**3 for x in range(top + 1)]
        s1 = bytearray(window + 1)
        for c in self.cubes:
            s1[c] = 1
        s2 = bytearray(window + 1)
        for i, ci in enumerate(self.cubes):
            for cj in self.cubes[i:]:
                v = ci + cj
                if v > window:
                    break
                s2[v] = 1
        two_sums = [v for v in range(window + 1) if s2[v]]
        s3 = bytearray(window + 1)
        for v in two_sums:
            for c in self.cubes:
                w = v + c
                if w > window:
                    break
                s3[w] = 1
        self.small = (None, s1, s2, s3)


@lru_cache(maxsize=4)
def _tables(window: int) -> _Tables:
    return _Tables(window)


def search_cubes(
    n: int,
    k: int,
    *,
    min_base: int = 0,
    budget: SearchBudget | None = None,
) -> tuple[int, ...] | None:
    """A representation of n as x1**3 + ... + xk**3 with xi >= min_base,
    as a nonincreasing tuple, or None if no such representation exists.

    The descent is complete: it enumerates nonincreasing base tuples and
    prunes with exact bitsets, so None is a proof within the budget.
    """
    bud = budget or SearchBudget()
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n > bud.max_n:
        raise SearchLimitError(f"{n} exceeds the search budget {bud.max_n}")
    tables = _tables(bud.window)
    small = tables.small
    window = bud.window
    positive = min_base > 0
    out: list[int] = []

    def rec(rem: int, slots: int, hi: int) -> bool:
        if rem == 0:
            return not positive or slots == 0
        if slots == 1:
            x = integer_cbrt(rem)
            if x**3 == rem and min_base <= x <= hi:
                out.append(x)
                return True
            return False
        if not positive and slots <= 3 and rem <= window and not small[slots][rem]:
            return False
        x = min(hi, integer_cbrt(rem))
        while x >= max(min_base, 1):
            cube = x**3
            if cube * slots < rem:
                break
            nrem = rem - cube
            prune = (
                not positive
                and slots - 1 <= 3
                and nrem <= window
                and not small[slots - 1][nrem]
            )
            if not prune:
                out.append(x)
                if rec(nrem, slots - 1, x):
                    return True
                out.pop()
            x -= 1
        return False

    if not rec(n, k, integer_cbrt(n) if n else 0):
        return None
    result = tuple(out) + (0,) * (k - len(out))
    assert sum(c**3 for c in result) == n
    return result


def search_seven(n: int, budget: SearchBudget | None = None) -> tuple[int, ...] | None:
    """A sum of seven nonnegative cubes equal to n, or None (definitive)."""
    return search_cubes(n, 7, budget=budget)


def exception_scan(limit: int, budget: SearchBudget | None = None) -> list[int]:
    """All n <= limit with no representation as seven nonnegative cubes.

    Uses a layered reachability sieve (seven rounds of 'add one cube'),
    independent of the backtracking path in search_seven.
    """
    import numpy as np

    bud = budget or SearchBudget()
    if limit > bud.max_n:
        raise SearchLimitError(f"{limit} exceeds the search budget {bud.max_n}")
    reach = np.zeros(limit + 1, dtype=bool)
    reach[0] = True
    cubes = [x**3 for x in range(1, integer_cbrt(limit) + 1)]
    for _ in range(7):
        nxt = reach.copy()
        for c in cubes:
            nxt[c:] |= reach[: limit + 1 - c]
        reach = nxt
    return [int(i) for i in np.nonzero(~reach)[0]]


@lru_cache(maxsize=1)
def exceptional_cube_tables() -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """For each exceptional n0: verified cube representations of 125 * n0,
    once with five nonnegative bases and once with seven strictly positive
    bases.  Computed by the exhaustive search and cached."""
    out: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for n0 in sorted(EXCEPTIONS):
        m = 125 * n0
        five = search_cubes(m, 5)
        seven_pos = search_cubes(m, 7, min_base=1)
        if five is None or seven_pos is None:
            raise AssertionError(f"no stored representation for 125*{n0}")
        out[n0] = (five, seven_pos)
    return out


def exceptional_table_text() -> str:
    """Render the stored decompositions as lines
    'n0 125*n0 five_bases seven_positive_bases' (comma-separated bases)."""
    lines = ["# exceptional n0: five-cube and seven-positive-cube forms of 125*n0"]
    for n0, (five, seven_pos) in exceptional_cube_tables().items():
        lines.append(
            f"{n0} {125 * n0} "
            f"{','.join(str(c) for c in five)} "
            f"{','.join(str(c) for c in seven_pos)}"
        )
    return "\n".join(lines) + "\n"
