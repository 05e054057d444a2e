"""Desk-scale certificates for every constant, table and bound the
constructive route relies on.

Each report recomputes its claim from scratch (mostly with exact integer
or rational arithmetic) and returns a JSON-serialisable dict whose "ok"
key is the verdict.  Nothing here is needed to *run* the decomposition;
this module exists so the numerical backbone can be re-audited at will:

* steering_table_report / steering_uniqueness_report - the 20-column table
  of residue pairs mod 25 and the exactly-two-lifts uniqueness check behind it;
* constants_report - the handful of frozen rational inequalities;
* window_report - the 38-entry table of admissible moduli covering all
  nonzero residues mod 25 inside a window of ratio < 1.021;
* prime_gap_certificate / admissible_gap_certificate - maximal consecutive
  ratios in arithmetic-progression prime lists and admissible-value lists;
* dickson_report - the excluded set of x**2 + 2*z**2 + 5*y**2 versus a
  bitset sumset of the form's values;
* identity_report - randomised exact checks of the six-cube identity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import isqrt

from .arith import clear_bits, prime_sieve, primes_upto
from .construct import IDENTITY_CONSTANT, dickson_excluded
from .modulus import (
    VALID_HI,
    VALID_LO,
    WINDOW_RATIO_CAP,
    base_window_table,
    steering_residues,
    window_bounds,
)

__all__ = [
    "GapCertificate",
    "SparseClassError",
    "admissible_gap_certificate",
    "constants_report",
    "dickson_report",
    "identity_report",
    "prime_gap_certificate",
    "steering_table_report",
    "steering_table_text",
    "steering_uniqueness_report",
    "window_report",
]

# Steering pairs per unit residue mod 25: the two residue classes for the
# auxiliary modulus that pin the residual q to -5 resp. +5 modulo 25.
_TABLE1_COLUMNS = (1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14, 16, 17, 18, 19, 21, 22, 23, 24)
_TABLE1_PLUS = (2, 21, 9, 18, 22, 1, 14, 13, 17, 6, 19, 8, 12, 11, 24, 3, 7, 16, 4, 23)
_TABLE1_MINUS = (7, 6, 24, 13, 2, 11, 4, 8, 22, 16, 9, 3, 17, 21, 14, 23, 12, 1, 19, 18)


def _q0(n_residue: int, b: int) -> int:
    """Residual class (n - 1402*b**3) / (24*b) mod 25 for a unit class b."""
    return (n_residue - IDENTITY_CONSTANT * b**3) * pow(24 * b, -1, 25) % 25


def steering_table_report() -> dict:
    """Recompute the 20 steering columns and compare with the frozen table.

    For every unit residue r mod 25 the planner must find exactly two unit
    classes b with 1402*b**3 == r (mod 5) and residual class +-5 (mod 25);
    the frozen table additionally asserts which of the two realises -5
    (the "plus" entry, residual 20) and which +5 (the "minus" entry).
    """
    columns = []
    all_ok = True
    for r, b_plus, b_minus in zip(_TABLE1_COLUMNS, _TABLE1_PLUS, _TABLE1_MINUS):
        choice = steering_residues(r)
        q_plus = _q0(r, b_plus)
        q_minus = _q0(r, b_minus)
        ok = (
            choice.branch == "unit"
            and set(choice.candidates) == {b_plus, b_minus}
            and q_plus == 20
            and q_minus == 5
        )
        all_ok &= ok
        columns.append(
            {
                "residue": r,
                "b_plus": b_plus,
                "b_minus": b_minus,
                "q0_plus": q_plus,
                "q0_minus": q_minus,
                "computed": list(choice.candidates),
                "ok": ok,
            }
        )
    return {"columns": columns, "ok": bool(all_ok)}


def steering_table_text() -> str:
    """The frozen steering table as 'residue b_plus b_minus' lines."""
    lines = ["# steering pairs mod 25: residue b_plus b_minus"]
    for r, bp, bm in zip(_TABLE1_COLUMNS, _TABLE1_PLUS, _TABLE1_MINUS):
        lines.append(f"{r} {bp} {bm}")
    return "\n".join(lines) + "\n"


def steering_uniqueness_report() -> dict:
    """Why each steering column has *exactly* two candidates.

    Fix a unit residue r mod 25 and the unique unit b0 mod 5 with
    1402*b0**3 == r (mod 5).  Along the five lifts b0 + 5*t the residual
    class moves linearly: q0(b0 + 5t) == q0(b0) + 5*t*d (mod 25) with
    d == b0 (mod 5) nonzero, so the lift values sweep {0,5,10,15,20} once
    each and exactly one lift lands on 5 and one on 20.
    """
    columns = []
    all_ok = True
    for r in _TABLE1_COLUMNS:
        b0 = next(
            b for b in range(1, 5) if (IDENTITY_CONSTANT * b**3 - r) % 5 == 0
        )
        derivative = (
            (-r - 2 * IDENTITY_CONSTANT * b0**3) * pow(24 * b0 * b0, -1, 25) % 25
        )
        lifts = [b0 + 5 * t for t in range(5)]
        values = [_q0(r, b) for b in lifts]
        linear_ok = all(
            values[t] == (values[0] + 5 * t * derivative) % 25 for t in range(5)
        )
        sweep_ok = sorted(values) == [0, 5, 10, 15, 20]
        selected = [b for b, v in zip(lifts, values) if v in (5, 20)]
        choice = steering_residues(r)
        ok = (
            derivative % 5 == b0 % 5
            and derivative % 5 != 0
            and linear_ok
            and sweep_ok
            and len(selected) == 2
            and set(selected) == set(choice.candidates)
        )
        all_ok &= ok
        columns.append(
            {
                "residue": r,
                "base_unit": b0,
                "derivative": derivative,
                "lift_values": values,
                "selected": sorted(selected),
                "ok": ok,
            }
        )
    return {"columns": columns, "ok": bool(all_ok)}


def constants_report() -> dict:
    """Exact recomputation of the frozen numerical inequalities.

    All comparisons run in integer / rational arithmetic; the two digit
    checks pin the decimal size of the first window fully covered by the
    paper's two-factor route m0 * p and of a representative scaled-up window
    bound.
    """
    n30 = 1786 * 26669**6
    n47 = 1786 * (10**10 * 26669) ** 3
    epsilon = Fraction(528, 26141)
    window_ratio = Fraction(26669, 26141)
    composite_margin = Fraction(1033, 1000) / window_ratio
    checks = {
        "identity_constant": IDENTITY_CONSTANT == 2 * (4**3 + 5**3 + 8**3),
        "window_low_constant": VALID_LO == IDENTITY_CONSTANT + 6**3,
        "window_high_constant": VALID_HI == IDENTITY_CONSTANT + 24 * 16,
        "window_ratio_is_one_plus_epsilon": window_ratio == 1 + epsilon,
        "epsilon_below_202e-4": epsilon < Fraction(202, 10**4),
        "window_ratio_below_cap": window_ratio < WINDOW_RATIO_CAP,
        "cube_window_fits": 893 * 10**9 > 809 * 1033**3,
        "composite_margin_above_10125e-4": composite_margin > Fraction(10125, 10**4),
        "combined_margin": Fraction(893, 809)
        > (Fraction(10125, 10**4) * window_ratio) ** 3,
        "covered_window_30_digits": len(str(n30)) == 30,
        "covered_window_leading_642572": str(n30).startswith("642572"),
        "scaled_window_47_digits": len(str(n47)) == 47,
        "scaled_window_leading_338767": str(n47).startswith("338767"),
    }
    return {
        "checks": checks,
        "values": {
            "epsilon": "528/26141",
            "window_ratio": "26669/26141",
            "covered_window_bound": str(n30),
            "scaled_window_bound": str(n47),
        },
        "ok": all(checks.values()),
    }


def window_report() -> dict:
    """Structural audit of the covering table of admissible moduli.

    The table must contain 38 entries, all == 1 (mod 4), all inside the
    [26141, 26669] window (ratio < 1021/1000), jointly covering every
    nonzero residue mod 25.
    """
    table = base_window_table()
    lo, hi = window_bounds()
    entries = []
    count = 0
    residues_ok = True
    for residue, values in table:
        for value, factors in values:
            count += 1
            entries.append([residue, value, list(factors)])
        residues_ok &= len(values) > 0
    values_flat = [e[1] for e in entries]
    checks = {
        "count_is_38": count == 38,
        "bounds": (lo, hi) == (26141, 26669),
        "all_in_window": all(lo <= v <= hi for v in values_flat),
        "all_one_mod_4": all(v % 4 == 1 for v in values_flat),
        "all_residues_covered": residues_ok and len(table) == 24,
        "ratio_below_cap": Fraction(hi, lo) < WINDOW_RATIO_CAP,
    }
    return {
        "lo": lo,
        "hi": hi,
        "count": count,
        "entries": entries,
        "checks": checks,
        "ok": all(checks.values()),
    }


@dataclass(frozen=True)
class GapCertificate:
    """Largest consecutive ratio in a sorted residue-class list.

    `witness` is the first consecutive pair attaining the maximum ratio
    witness[1]/witness[0] among all elements of the class in [lo, hi].
    When a bound (num, den) is supplied, `satisfied` records whether the
    maximum stays strictly below it.
    """

    kind: str
    modulus: int
    residue: int
    lo: int
    hi: int
    count: int
    witness: tuple[int, int]
    bound: tuple[int, int] | None = None
    satisfied: bool | None = None

    @property
    def max_ratio(self) -> Fraction:
        return Fraction(self.witness[1], self.witness[0])

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "modulus": self.modulus,
            "residue": self.residue,
            "lo": self.lo,
            "hi": self.hi,
            "count": self.count,
            "witness": list(self.witness),
            "max_ratio": [self.witness[1], self.witness[0]],
            "bound": list(self.bound) if self.bound else None,
            "satisfied": self.satisfied,
        }


class SparseClassError(ValueError):
    """The class holds fewer than two elements in the range: no gap to measure."""


def _max_consecutive_ratio(elements: list[int], what: str = "the class") -> tuple[int, int]:
    """First consecutive pair (a, b) maximising b/a; exact arithmetic."""
    if len(elements) < 2:
        raise SparseClassError(
            f"{what} holds {len(elements)} element(s); a gap needs at least two"
        )
    best_a, best_b = elements[0], elements[1]
    for a, b in zip(elements, elements[1:]):
        if b * best_a > best_b * a:
            best_a, best_b = a, b
    return best_a, best_b


def prime_gap_certificate(
    residue: int,
    modulus: int,
    lo: int,
    hi: int,
    *,
    bound: Fraction | None = None,
) -> GapCertificate:
    """Certificate for primes == residue (mod modulus) in [lo, hi].

    The class is read straight out of the byte sieve; the ratio scan is exact.
    """
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    if not (0 <= residue < modulus):
        raise ValueError("need 0 <= residue < modulus")
    first = lo + (residue - lo) % modulus
    el = list(compress(range(first, hi + 1, modulus), prime_sieve(hi)[first::modulus]))
    a, b = _max_consecutive_ratio(el, f"primes == {residue} (mod {modulus}) in [{lo}, {hi}]")
    satisfied = None if bound is None else Fraction(b, a) < bound
    return GapCertificate(
        kind="primes",
        modulus=modulus,
        residue=residue,
        lo=lo,
        hi=hi,
        count=len(el),
        witness=(a, b),
        bound=None if bound is None else (bound.numerator, bound.denominator),
        satisfied=satisfied,
    )


@lru_cache(maxsize=4)
def _admissible_elements(lo: int, hi: int) -> tuple[int, ...]:
    """All admissible values (squarefree, prime factors == 5 mod 6) in [lo, hi].

    Sieved: a multiple of 2, 3 or a prime == 1 (mod 6) is not admissible,
    and neither is a multiple of p**2 for a prime p == 5 (mod 6).
    """
    admissible = bytearray(b"\x01") * (hi + 1)
    for p in primes_upto(hi):
        step = p * p if p % 6 == 5 else p
        if step <= hi:
            admissible[step::step] = bytes(hi // step)
    lo = max(lo, 1)
    return tuple(compress(range(lo, hi + 1), admissible[lo:]))


def admissible_gap_certificate(
    class_mod_100: int,
    lo: int,
    hi: int,
    *,
    bound: Fraction | None = None,
) -> GapCertificate:
    """Certificate for admissible values == class_mod_100 (mod 100) in [lo, hi]."""
    elements = [
        m for m in _admissible_elements(lo, hi) if m % 100 == class_mod_100
    ]
    a, b = _max_consecutive_ratio(
        elements, f"admissible values == {class_mod_100} (mod 100) in [{lo}, {hi}]"
    )
    satisfied = None if bound is None else Fraction(b, a) < bound
    return GapCertificate(
        kind="admissible",
        modulus=100,
        residue=class_mod_100,
        lo=lo,
        hi=hi,
        count=len(elements),
        witness=(a, b),
        bound=None if bound is None else (bound.numerator, bound.denominator),
        satisfied=satisfied,
    )


def dickson_report(limit: int) -> dict:
    """Audit of the excluded set of x**2 + 2*z**2 + 5*y**2 up to `limit`.

    Recomputes the representable set as a sumset on an integer bitset,
    derives the missing values, and checks they are exactly the direct
    enumeration 25**k * (25*m + 10 or 15) as well as exactly where
    dickson_excluded() says True.
    """
    if limit < 25:
        raise ValueError("limit too small to say anything")
    squares = sum(1 << (x * x) for x in range(isqrt(limit) + 1))
    binary = 0  # the values x**2 + 2*z**2
    for z in range(isqrt(limit // 2) + 1):
        binary |= squares << (2 * z * z)
    reach = 0
    for y in range(isqrt(limit // 5) + 1):
        reach |= binary << (5 * y * y)
    missing = clear_bits(reach, limit)
    direct = bytearray(limit + 1)
    scale = 1
    while scale * 10 <= limit:
        for r in (10, 15):
            start, step = scale * r, scale * 25
            direct[start::step] = b"\x01" * len(range(start, limit + 1, step))
        scale *= 25
    excluded = list(compress(range(limit + 1), direct))
    complement_ok = missing == excluded
    scalar_ok = all(
        dickson_excluded(i) == bool(direct[i]) for i in range(limit + 1)
    )
    return {
        "limit": limit,
        "excluded_count": len(excluded),
        "first_excluded": excluded[:12],
        "complement_ok": complement_ok,
        "scalar_ok": scalar_ok,
        "ok": complement_ok and scalar_ok,
    }


def identity_report(samples: int, seed: int = 0) -> dict:
    """Randomised exact check of the six-cube identity.

    For random p >= 1 and arbitrary-sign offsets the two sides must agree
    exactly as integers; a single failure would falsify the whole route.
    """
    rng = random.Random(seed)
    failures = 0
    for _ in range(samples):
        p = rng.randint(1, 10**6)
        a = rng.randint(-(10**6), 10**6)
        b = rng.randint(-(10**6), 10**6)
        c = rng.randint(-(10**6), 10**6)
        lhs = (
            (4 * p + a) ** 3
            + (4 * p - a) ** 3
            + (5 * p + b) ** 3
            + (5 * p - b) ** 3
            + (8 * p + c) ** 3
            + (8 * p - c) ** 3
        )
        rhs = IDENTITY_CONSTANT * p**3 + 6 * p * (4 * a * a + 5 * b * b + 8 * c * c)
        if lhs != rhs:
            failures += 1
    return {"samples": samples, "seed": seed, "failures": failures, "ok": failures == 0}
