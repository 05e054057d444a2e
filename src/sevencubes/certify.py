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
  vectorised reachability computation;
* identity_report - randomised exact checks of the six-cube identity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

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
    composite route and of a representative scaled-up window bound.
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


def _max_consecutive_ratio(elements) -> tuple[int, int]:
    """First consecutive pair (a, b) maximising b/a; exact arithmetic."""
    if len(elements) < 2:
        raise ValueError("need at least two elements to measure a gap")
    if int(max(elements)) ** 2 < 2**63:
        import numpy as np

        # vectorised prefilter; int64 cross products cannot overflow here
        el = np.asarray(elements, dtype=np.int64)
        cur, nxt = el[:-1], el[1:]
        approx = nxt.astype(np.float64) / cur.astype(np.float64)
        candidates = np.nonzero(approx >= approx.max() - 1e-9)[0]
        best_i = None
        best = None
        for j in sorted(int(c) for c in candidates):
            ratio = Fraction(int(nxt[j]), int(cur[j]))
            if best is None or ratio > best:
                best, best_i = ratio, j
        # exact global confirmation: no pair beats the winner
        assert not bool(
            (nxt * int(cur[best_i]) > int(nxt[best_i]) * cur).any()
        ), "float prefilter missed the true maximum"
        return int(cur[best_i]), int(nxt[best_i])
    # arbitrary-precision fallback for elements too large for int64 products
    best_a, best_b = elements[0], elements[1]
    for a, b in zip(elements, elements[1:]):
        if b * best_a > best_b * a:
            best_a, best_b = a, b
    return int(best_a), int(best_b)


@lru_cache(maxsize=4)
def _prime_mask(limit: int):
    """Boolean numpy array, True exactly at the primes up to limit."""
    import numpy as np

    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return sieve


def prime_gap_certificate(
    residue: int,
    modulus: int,
    lo: int,
    hi: int,
    *,
    bound: Fraction | None = None,
) -> GapCertificate:
    """Certificate for primes == residue (mod modulus) in [lo, hi].

    The sieve and the ratio scan are exact.
    """
    import numpy as np

    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    mask = _prime_mask(hi)
    primes = np.nonzero(mask)[0]
    el = primes[(primes >= lo) & (primes % modulus == residue)]
    a, b = _max_consecutive_ratio(el)
    satisfied = None if bound is None else Fraction(b, a) < bound
    return GapCertificate(
        kind="primes",
        modulus=modulus,
        residue=residue,
        lo=lo,
        hi=hi,
        count=int(el.size),
        witness=(a, b),
        bound=None if bound is None else (bound.numerator, bound.denominator),
        satisfied=satisfied,
    )


@lru_cache(maxsize=4)
def _admissible_elements(lo: int, hi: int) -> tuple[int, ...]:
    """All admissible values (squarefree, prime factors == 5 mod 6) in [lo, hi]."""
    import numpy as np

    spf = np.arange(hi + 1, dtype=np.int64)
    for p in range(2, isqrt(hi) + 1):
        if spf[p] == p:
            seg = spf[p * p :: p]
            np.minimum(seg, p, out=seg)
    out = []
    for m in range(max(lo, 1), hi + 1):
        if m == 1:
            out.append(m)
            continue
        if m % 2 == 0 or m % 3 == 0:
            continue
        v = m
        admissible = True
        while v > 1:
            p = int(spf[v])
            if p % 6 != 5:
                admissible = False
                break
            v //= p
            if v % p == 0:
                admissible = False
                break
        if admissible:
            out.append(m)
    return tuple(out)


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
    a, b = _max_consecutive_ratio(elements)
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

    Recomputes the representable set by vectorised enumeration, derives
    the missing values, and checks they are exactly the direct enumeration
    25**k * (25*m + 10 or 15) as well as exactly where dickson_excluded()
    says True.
    """
    import numpy as np

    if limit < 25:
        raise ValueError("limit too small to say anything")
    reachable = np.zeros(limit + 1, dtype=bool)
    x1 = 0
    while x1 * x1 <= limit:
        base1 = x1 * x1
        x3 = 0
        while base1 + 2 * x3 * x3 <= limit:
            base2 = base1 + 2 * x3 * x3
            ys = np.arange(isqrt((limit - base2) // 5) + 1, dtype=np.int64)
            reachable[base2 + 5 * ys * ys] = True
            x3 += 1
        x1 += 1
    direct = np.zeros(limit + 1, dtype=bool)
    scale = 1
    while scale * 10 <= limit:
        for r in (10, 15):
            direct[np.arange(scale * r, limit + 1, scale * 25, dtype=np.int64)] = True
        scale *= 25
    missing = ~reachable
    complement_ok = bool(np.array_equal(missing, direct))
    scalar_ok = all(
        dickson_excluded(i) == bool(direct[i]) for i in range(limit + 1)
    )
    excluded = np.nonzero(direct)[0]
    return {
        "limit": limit,
        "excluded_count": int(excluded.size),
        "first_excluded": [int(v) for v in excluded[:12]],
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
