"""Seeded target generators for the three workloads.

Every workload yields *rounds*: fixed-shape lists of targets.  A run attempts
whole rounds only, so each run covers the same mix of input shapes whatever
its length, and the share of any per-shape behaviour is the same in every run.
All targets of one seed are distinct and differ from the workload's fixed
warm-up target, so no operation is answered from a per-target cache
(`modulus.admissible_factors` is an lru_cache keyed on candidate moduli).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

DESCENT_LO = 455
# 4 * 10**6, not 10**6: a 30 s run on a fast host decomposed every target
# of [455, 10**6] in about 22 s and would have ended early.
DESCENT_HI = 4 * 10**6
DESCENT_ROUND = 100

CONSTRUCT_EXPONENTS = range(18, 61)  # one target per decimal exponent per round

HUGE_STRATA = tuple(range(250, 350, 10))  # ten digit-count strata of width 10
HUGE_LAST = 350  # the last stratum also admits 350 digits


class _Permutation:
    """A seeded bijection of range(size), by a 4-round Feistel network on
    the smallest even bit width that covers size, with cycle walking."""

    def __init__(self, size: int, rng: random.Random) -> None:
        bits = max(2, (size - 1).bit_length())
        bits += bits % 2
        self.size = size
        self.half = bits // 2
        self.mask = (1 << self.half) - 1
        self.keys = [rng.getrandbits(32) for _ in range(4)]

    def _feistel(self, x: int) -> int:
        left, right = x >> self.half, x & self.mask
        for key in self.keys:
            mixed = ((right * 0x9E3779B1) ^ key) * 0x85EBCA6B
            left, right = right, left ^ ((mixed >> 13) & self.mask)
        return (left << self.half) | right

    def __call__(self, i: int) -> int:
        x = self._feistel(i)
        while x >= self.size:
            x = self._feistel(x)
        return x


def _descent_rounds(seed: int, warmup: tuple[int, ...]) -> Iterator[list[int]]:
    size = DESCENT_HI - DESCENT_LO + 1
    perm = _Permutation(size, random.Random(f"descent-{seed}"))
    i = 0
    while True:
        batch = []
        while len(batch) < DESCENT_ROUND:
            if i >= size:
                return  # range exhausted; the run ends at the last whole round
            n = DESCENT_LO + perm(i)
            i += 1
            if n not in warmup:
                batch.append(n)
        yield batch


def _mod4_two(rng: random.Random, lo: int, hi: int) -> int:
    """Uniform n == 2 (mod 4) with lo <= n < hi."""
    return 4 * rng.randrange((lo + 1) // 4, (hi - 2) // 4 + 1) + 2


def _distinct_rounds(shape: Callable[[random.Random], list[int]], seed: int, tag: str,
                     warmup: tuple[int, ...]) -> Iterator[list[int]]:
    rng = random.Random(f"{tag}-{seed}")
    seen = set(warmup)
    while True:
        batch = shape(rng)
        if seen.isdisjoint(batch) and len(set(batch)) == len(batch):
            seen.update(batch)
            yield batch


def _construct_round(rng: random.Random) -> list[int]:
    return [_mod4_two(rng, 10**d, 10 ** (d + 1)) for d in CONSTRUCT_EXPONENTS]


def _huge_round(rng: random.Random) -> list[int]:
    out = []
    for lo in HUGE_STRATA:
        top = lo + 9 if lo + 10 < HUGE_LAST else HUGE_LAST
        digits = rng.randint(lo, top)
        out.append(_mod4_two(rng, 10 ** (digits - 1), 10**digits))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: tuple[int, ...]  # fixed warm-up targets, never drawn as measured ones
    rounds: Callable[[int], Iterator[list[int]]]
    tail_percentile: float  # fixed, so every run reports the same statistic
    traced_rounds: int  # fixed traced batch, so per-layer counts repeat
    rss_rounds: int  # peak RSS is read after this many rounds, reached even at half speed


# Warm-up targets; the first is the one the CLI cold start decomposes.
# 999999 is odd, so it takes the exhaustive descent and builds the search
# bitsets; 202258 (the worked example) takes the identity route and builds
# the base window table, as the first target of the other two workloads does.
_DESCENT_WARMUP = (999_999, 202_258)
_CONSTRUCT_WARMUP = (10**39 + 2,)
_HUGE_WARMUP = (10**299 + 6,)

WORKLOADS = {
    "descent": Workload(
        "descent", _DESCENT_WARMUP,
        lambda seed: _descent_rounds(seed, _DESCENT_WARMUP),
        tail_percentile=99.9, traced_rounds=50, rss_rounds=2000,
    ),
    "construct": Workload(
        "construct", _CONSTRUCT_WARMUP,
        lambda seed: _distinct_rounds(_construct_round, seed, "construct", _CONSTRUCT_WARMUP),
        tail_percentile=99.0, traced_rounds=10, rss_rounds=60,
    ),
    "huge": Workload(
        "huge", _HUGE_WARMUP,
        lambda seed: _distinct_rounds(_huge_round, seed, "huge", _HUGE_WARMUP),
        tail_percentile=90.0, traced_rounds=3, rss_rounds=8,
    ),
}
