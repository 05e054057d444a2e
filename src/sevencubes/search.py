"""Exhaustive search for sums of k nonnegative (or strictly positive) cubes,
plus the frozen exception set for seven cubes and its stored decompositions.

Two independent code paths answer "which n have no seven-cube sum":
`exception_scan` builds the sums of seven cubes as a sumset on one integer
bitset, while `search_seven` runs a complete backtracking descent pruned by
exact tables of the sums of at most 1, 2, 3 cubes.  A None from
`search_seven` is a proof of non-representability within the budget, not a
timeout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import clear_bits, integer_cbrt

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


# _BIT_PLANES[j] maps a byte to its bit j, so one translate() reads bit j of
# every byte of a bitset at once
_BIT_PLANES = tuple(bytes((v >> j) & 1 for v in range(256)) for j in range(8))


def _byte_per_value(bits: int, n: int) -> bytearray:
    """Byte j of the result is 1 exactly when bit j of `bits` is set, for
    j <= n; at most seven padding bytes follow."""
    packed = bits.to_bytes(n // 8 + 1, "little")
    out = bytearray(8 * len(packed))
    for j, plane in enumerate(_BIT_PLANES):
        out[j::8] = packed.translate(plane)
    return out


class _Tables:
    """Sums of at most 1, 2, 3 cubes up to `window`: small[1] is the
    frozenset of the cubes, small[2] and small[3] hold one byte per value.
    The sums are built as integer bitsets, one shift per cube."""

    def __init__(self, window: int) -> None:
        self.window = window
        cubes = [x * x * x for x in range(integer_cbrt(window) + 1)]
        mask = (1 << (window + 1)) - 1
        one = sum(1 << c for c in cubes)
        two = 0
        for c in cubes:
            two |= one << c
        two &= mask
        three = 0
        for c in cubes:
            three |= two << c
        three &= mask
        self.small = (
            None,
            frozenset(cubes),
            _byte_per_value(two, window),
            _byte_per_value(three, window),
        )


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
    prunes with exact tables, so None is a proof within the budget.
    """
    bud = budget or SearchBudget()
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n > bud.max_n:
        raise SearchLimitError(f"{n} exceeds the search budget {bud.max_n}")
    window = bud.window
    positive = min_base > 0
    lowest = max(min_base, 1)
    # prune[s]: the sums of at most s cubes up to window (a set for s = 1,
    # one byte per value for s = 2, 3), tested on the children of a node
    # with s + 1 slots; None where the tables cannot prune (they allow zero
    # bases, so they do not apply when min_base > 0)
    prune = (None,) * (k + 1)
    if not positive:
        prune = (_tables(window).small + prune)[: k + 1]
    out: list[int] = []

    def rec(rem: int, slots: int, hi: int) -> bool:
        if rem == 0:
            return not positive or slots == 0
        if slots == 1:
            x = integer_cbrt(rem)
            if x * x * x == rem and min_base <= x <= hi:
                out.append(x)
                return True
            return False
        below = prune[slots - 1]
        x = min(hi, integer_cbrt(rem))
        while x >= lowest:
            cube = x * x * x
            if cube * slots < rem:
                break
            nrem = rem - cube
            if below is None or nrem > window or (
                nrem in below if slots == 2 else below[nrem]
            ):
                out.append(x)
                if rec(nrem, slots - 1, x):
                    return True
                out.pop()
            x -= 1
        return False

    if not rec(n, k, integer_cbrt(n)):
        return None
    result = tuple(out) + (0,) * (k - len(out))
    assert sum(c**3 for c in result) == n
    return result


def search_seven(n: int, budget: SearchBudget | None = None) -> tuple[int, ...] | None:
    """A sum of seven nonnegative cubes equal to n, or None (definitive)."""
    return search_cubes(n, 7, budget=budget)


def exception_scan(limit: int, budget: SearchBudget | None = None) -> list[int]:
    """All n <= limit with no representation as seven nonnegative cubes.

    Uses a layered reachability bitset (seven rounds of 'add one cube'),
    independent of the backtracking path in search_seven.
    """
    bud = budget or SearchBudget()
    if limit > bud.max_n:
        raise SearchLimitError(f"{limit} exceeds the search budget {bud.max_n}")
    mask = (1 << (limit + 1)) - 1
    cubes = [x**3 for x in range(1, integer_cbrt(limit) + 1)]
    reach = 1  # after round r, bit i: i is a sum of at most r positive cubes
    for _ in range(7):
        nxt = reach
        for c in cubes:
            nxt |= reach << c
        reach = nxt & mask
    return clear_bits(reach, limit)


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
