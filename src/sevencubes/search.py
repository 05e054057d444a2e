"""Exhaustive search for sums of k nonnegative (or strictly positive) cubes,
plus the frozen exception set for seven cubes and its stored decompositions.

Two independent code paths, sharing only arith primitives, answer "which n
have no seven-cube sum": `exception_scan` adds a cube seven times to one
integer bitset by arith.sumset, while `search_seven` runs a complete
backtracking descent pruned by exact tables of the sums of at most 1, 2, 3
cubes up to 2**17, with a byte-packed memo of the answers of its nodes with
4, 5 and 6 slots below that window.  The descent is two module functions and
builds no closure; a loop reads each child's memo entry before making any
call.  search_seven, the seven-cube entry, runs the same descent from the
cached context and checks its answer once, by one unrolled sum of the seven
cubes.  Below 209**3 the remainder left by the root's first base lies
inside the window, so a warm seven-cube search is one cube root, one memo
probe and one slice, and then that one check.  A None from `search_seven`
is a proof of non-representability, not a timeout: each memo entry is the
result of a complete descent from that node.  Both paths refuse values
above a size cap, SEARCH_MAX_N by default.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import bin_digits, clear_bits, integer_cbrt, sumset

__all__ = [
    "EXCEPTIONS",
    "EXCEPTIONS_EVEN",
    "SEARCH_MAX_N",
    "SearchLimitError",
    "exception_scan",
    "exceptional_cube_tables",
    "search_cubes",
    "search_seven",
]

# Every positive integer outside this set is a sum of seven nonnegative
# cubes; verified exhaustively by exception_scan and search_seven below.
EXCEPTIONS = frozenset(
    (15, 22, 23, 50, 114, 167, 175, 186, 212, 231, 238, 239, 303, 364, 420, 428, 454)
)
EXCEPTIONS_EVEN = frozenset(n for n in EXCEPTIONS if n % 2 == 0)


# The largest n the descent accepts by default, and the largest limit of the
# exception scan, which builds a bitset of that many bits.
SEARCH_MAX_N = 10**8


class SearchLimitError(Exception):
    """The request exceeds the exhaustive search's size cap."""


# The pruning tables and the memo cover remainders up to this.  Over 5 000
# descent targets below 4 * 10**6 the remainders entering nodes with 5 and
# 4 slots never exceeded 13 037 and 8 301, and search_seven on [10**7,
# 10**8] runs no slower than with a window of 10**6, whose tables took
# 12 ms to build instead of 1.  search_cubes(n, 5) near 10**8 is slower:
# the remainders of its 3-slot nodes lie above the window.
_WINDOW = 2**17

# Nodes with this many slots are memoized (for min_base == 0): over 200 000
# descent targets, 12 465 distinct remainders at 4 and 5 slots answered
# 304 970 node visits.  The 6-slot memo takes the root's children: it held
# 32.5k, 47.0k and 63.9k entries after 50k, 100k and 300k descent targets
# below 4 * 10**6, for 6 * (2**17 + 1) bytes.
_MEMO_SLOTS = (4, 5, 6)
_NO_SUM = 255  # memo byte: the remainder is no sum of that many cubes

# prune and memo of a search padded with None past their last table: the
# descent indexes them up to k, so a search with k < 8 builds no tuple
_PAD = (None,) * 8


def _byte_per_value(bits: int, n: int) -> bytes:
    """n + 1 bytes: byte j is 1 exactly when bit j of `bits` is set."""
    return bin_digits(bits, n).encode().translate(bytes.maketrans(b"01", b"\x00\x01"))


class _Tables:
    """Sums of at most 1, 2, 3 cubes up to `window`: small[1] is the
    frozenset of the cubes, small[2] and small[3] hold one byte per value.
    The sums are three chained arith.sumset calls over the cubes.

    memo[s], for s in _MEMO_SLOTS (None below), is a bytearray of s bytes
    per remainder r <= window, filled by search_cubes as it goes: bytes
    s*r .. s*r + s - 1 hold the lexicographically largest nonincreasing
    bases of s cubes summing to r, zero-padded; a first byte of 0 means not
    yet known and _NO_SUM means r is no sum of s cubes.  Every base is at
    most the cube root of window, below 255.  Both are padded to _PAD's
    length; context is the search context for min_base <= 0 and k < 8."""

    def __init__(self, window: int) -> None:
        assert integer_cbrt(window) < _NO_SUM, "a memoized base must fit a byte"
        self.window = window
        cubes = [x * x * x for x in range(integer_cbrt(window) + 1)]
        one = sumset(1, cubes, window)
        two = sumset(one, cubes, window)
        three = sumset(two, cubes, window)
        self.small = (
            None,
            frozenset(cubes),
            _byte_per_value(two, window),
            _byte_per_value(three, window),
        ) + _PAD[4:]
        self.memo = tuple(
            bytearray(s * (window + 1)) if s in _MEMO_SLOTS else None
            for s in range(len(_PAD))
        )
        self.context = (self.small, self.memo, window, 0)


@lru_cache(maxsize=1)
def _tables() -> _Tables:
    return _Tables(_WINDOW)


def _rec(out: list[int], ctx: tuple, rem: int, slots: int, hi: int) -> bool:
    """Append to out the largest bases of `slots` cubes <= hi summing to rem.
    ctx is the search's (prune, memo, window, min_base): prune[s] is small[s]
    of _Tables, tested on the children of a node with s + 1 slots, memo[s]
    the memo of nodes with s slots; None where they do not apply, as they
    allow zero bases."""
    if rem == 0:
        return ctx[3] <= 0 or slots == 0
    if slots == 1:
        x = integer_cbrt(rem)
        if x * x * x == rem and ctx[3] <= x <= hi:
            out.append(x)
            return True
        return False
    table = ctx[1][slots]
    if table is None or rem > ctx[2]:
        return _descend(out, ctx, rem, slots, hi)
    at = rem * slots
    first = table[at]
    if not first:  # first visit: store the uncapped descent's answer
        start = len(out)
        if not _descend(out, ctx, rem, slots, integer_cbrt(rem)):
            table[at] = _NO_SUM
            return False
        first = out[start]
        table[at : at + len(out) - start] = bytes(out[start:])
        del out[start:]
    if first == _NO_SUM:
        return False
    if first > hi:
        # not reached from the root: a visited node's uncapped maximum
        # never starts above its cap, since the parent would have taken
        # that base first; should it, the loop searches under the cap
        return _descend(out, ctx, rem, slots, hi)
    # the uncapped maximum is feasible, so it is the maximum under hi
    out.extend(table[at : at + slots])
    return True


def _descend(out: list[int], ctx: tuple, rem: int, slots: int, hi: int) -> bool:
    """_rec's loop over the first base, for rem > 0 (at search_seven's root
    rem == 0 takes the base 0).  It reads a child in the memo window without
    a call: a _NO_SUM entry skips the base, one under the base is the
    answer, and the rest go through _rec's fill and cap."""
    prune, memo, window, min_base = ctx
    below = prune[slots - 1]
    table = memo[slots - 1]
    # min(hi, integer_cbrt(rem)), with no cube root where hi binds: at
    # the root, hi is the cube root
    top = hi if hi * hi * hi <= rem else integer_cbrt(rem)
    for x in range(top, min_base - 1, -1):  # for min_base <= 0, the break ends it
        cube = x * x * x
        if cube * slots < rem:
            break
        nrem = rem - cube
        if 0 < nrem <= window:
            if table is not None:
                at = nrem * (slots - 1)
                first = table[at]
                if first == _NO_SUM:
                    continue
                if 0 < first <= x:
                    out.append(x)
                    out.extend(table[at : at + slots - 1])
                    return True
            elif below is not None and not (nrem in below if slots == 2 else below[nrem]):
                continue
        out.append(x)
        if _rec(out, ctx, nrem, slots - 1, x):
            return True
        out.pop()
    return False


def _check_size(n: int, max_n: int) -> None:
    """Refuse a negative n, and one above the size cap max_n."""
    if n < 0:
        raise ValueError("need n >= 0")
    if n > max_n:
        # n is left out: past 4300 digits it may not convert to str
        raise SearchLimitError(
            f"n of {n.bit_length()} bits exceeds the search budget {max_n}"
        )


def search_cubes(
    n: int,
    k: int,
    *,
    min_base: int = 0,
    max_n: int = SEARCH_MAX_N,
) -> tuple[int, ...] | None:
    """A representation of n as x1**3 + ... + xk**3 with xi >= min_base,
    as a nonincreasing tuple, or None if no such representation exists.

    The descent is complete: it enumerates nonincreasing base tuples and
    prunes with exact tables, so None is a proof.  The answer is the
    lexicographically largest such tuple.  With min_base == 0 a node with 4,
    5 or 6 slots and a small remainder is answered from a memo of earlier
    nodes, read in its parent's loop; each entry is the result of a complete
    descent from that node, so the answer and the proof are the same as
    without it.  A call with min_base == 0 and k < 8 builds no closure and
    no tuple: its context is the cached tables'.  n above max_n raises
    SearchLimitError.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    _check_size(n, max_n)
    ctx = _tables().context if min_base <= 0 else (_PAD, _PAD, 0, min_base)
    if k >= len(_PAD):
        more = (None,) * (k + 1 - len(_PAD))
        ctx = (ctx[0] + more, ctx[1] + more, ctx[2], ctx[3])
    out: list[int] = []
    if not _rec(out, ctx, n, k, integer_cbrt(n)):
        return None
    assert sum(c * c * c for c in out) == n
    return tuple(out) + (0,) * (k - len(out))


def search_seven(n: int, max_n: int = SEARCH_MAX_N) -> tuple[int, ...] | None:
    """A sum of seven nonnegative cubes equal to n, or None (definitive):
    search_cubes(n, 7), by the same descent from the cached context, with
    its answer checked once by an unrolled sum of the seven cubes."""
    _check_size(n, max_n)
    out: list[int] = []
    if not _descend(out, _tables().context, n, 7, integer_cbrt(n)):
        return None
    out += (0,) * (7 - len(out))
    a, b, c, d, e, f, g = out
    assert a*a*a + b*b*b + c*c*c + d*d*d + e*e*e + f*f*f + g*g*g == n
    return tuple(out)


def exception_scan(limit: int) -> list[int]:
    """All n <= limit with no representation as seven nonnegative cubes,
    for limit up to SEARCH_MAX_N.

    Seven rounds of 'add one cube from 0' on one bitset (arith.sumset),
    independent of the backtracking path in search_seven.
    """
    if limit > SEARCH_MAX_N:
        raise SearchLimitError(
            f"a limit of {limit.bit_length()} bits exceeds the search budget {SEARCH_MAX_N}"
        )
    cubes = [x**3 for x in range(integer_cbrt(limit) + 1)]
    reach = 1  # after round r, bit i: i is a sum of r nonnegative cubes
    for _ in range(7):
        reach = sumset(reach, cubes, limit)
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

