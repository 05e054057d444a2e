"""Acceptance battery.

Eleven end-to-end criteria, each printing exactly one [PASS]/[FAIL] line
(visible even under pytest capture) and asserting both correctness and its
wall-clock budget.  Budgets are generous; typical runtimes are far lower.
"""

import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction
from random import Random

import pytest

from sevencubes.certify import (
    admissible_gap_certificate,
    base_window_table,
    constants_report,
    dickson_report,
    find_covering_window,
    identity_report,
    prime_gap_certificate,
    steering_table_report,
    steering_uniqueness_report,
    window_report,
)
from sevencubes.cli import main
from sevencubes.construct import (
    IDENTITY_CONSTANT,
    NotRepresentableError,
    decompose,
    dickson_excluded,
)
from sevencubes.modulus import modulus_interval
from sevencubes.search import EXCEPTIONS, EXCEPTIONS_EVEN, exception_scan

EXPECTED_EXCEPTIONS = [
    15, 22, 23, 50, 114, 167, 175, 186, 212, 231, 238, 239,
    303, 364, 420, 428, 454,
]

STEERING_COLUMNS = (1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14, 16, 17, 18, 19, 21, 22, 23, 24)
STEERING_PLUS = (2, 21, 9, 18, 22, 1, 14, 13, 17, 6, 19, 8, 12, 11, 24, 3, 7, 16, 4, 23)
STEERING_MINUS = (7, 6, 24, 13, 2, 11, 4, 8, 22, 16, 9, 3, 17, 21, 14, 23, 12, 1, 19, 18)


def report(capsys, name, ok, elapsed, budget, detail):
    with capsys.disabled():
        print(
            f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} "
            f"[{elapsed:.2f}s / budget {budget:.0f}s]"
        )
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded budget: {elapsed:.2f}s >= {budget}s"


def test_c01_identity_sampling(capsys):
    t0 = time.perf_counter()
    rep = identity_report(100_000, 20110213)
    dt = time.perf_counter() - t0
    ok = rep["ok"] and rep["failures"] == 0 and rep["samples"] == 100_000
    report(capsys, "C01 six-square-pair identity, 100000 samples", ok, dt, 10,
           f"failures={rep['failures']}")


def test_c02_worked_example(capsys):
    t0 = time.perf_counter()
    tr = decompose(202258)
    dt = time.perf_counter() - t0
    ok = (
        tr.branch == "construction"
        and tr.p_value == 5
        and tr.x0 == 2
        and tr.q == 225
        and tr.cubes == (2, 35, 5, 25, 25, 40, 40)
        and tr.verified
    )
    report(capsys, "C02 worked example 202258", ok, dt, 1,
           f"p={tr.p_value} x0={tr.x0} q={tr.q} cubes={tr.cubes}")


def test_c03_small_range_completeness(capsys):
    t0 = time.perf_counter()
    failures = []
    unexpected = []
    for n in range(2, 10**6 + 1, 2):
        try:
            tr = decompose(n)
        except NotRepresentableError:
            if n not in EXCEPTIONS_EVEN:
                unexpected.append(n)
            continue
        if n in EXCEPTIONS_EVEN or not tr.verified:
            failures.append(n)
    census = exception_scan(100_000)
    dt = time.perf_counter() - t0
    ok = (
        not failures
        and not unexpected
        and census == EXPECTED_EXCEPTIONS
        and sorted(EXCEPTIONS) == EXPECTED_EXCEPTIONS
        and len(EXCEPTIONS_EVEN) == 10
    )
    report(capsys, "C03 every even n <= 10^6 (10 even exceptions)", ok, dt, 600,
           f"failures={failures[:3]} unexpected={unexpected[:3]} census={len(census)} values")


def test_c04_large_random_targets(capsys):
    t0 = time.perf_counter()
    rng = Random(20110213)
    bad = []
    for _ in range(200):
        n = 4 * rng.randrange(10**18 // 4, 10**24 // 4) + 2
        tr = decompose(n)
        lo, hi = modulus_interval(tr.n0)
        # multiples of 125 are reduced first; the construction then runs on
        # n0 and the trace reports the scaled result
        invariants = (
            tr.branch == ("construction" if n % 125 else "scaled")
            and tr.verified
            and tr.p_value is not None
            and lo <= tr.p_value <= hi
            and tr.b == tr.p_value % 25
            and tr.n0 == tr.x0**3 + IDENTITY_CONSTANT * tr.p_value**3 + 24 * tr.p_value * tr.q
            and tr.q == tr.x1**2 + 2 * tr.x3**2 + 5 * (tr.x2 // 2) ** 2
            and not dickson_excluded(tr.q)
            and sum(c**3 for c in tr.cubes) == n
            and min(tr.cubes) >= 0
        )
        if not invariants:
            bad.append(n)
    dt = time.perf_counter() - t0
    report(capsys, "C04 200 random targets in [10^18, 10^24]", not bad, dt, 300,
           f"all construction-branch, bad={bad[:2]}")


def test_c05_steering_table(capsys):
    t0 = time.perf_counter()
    table = steering_table_report()
    uniqueness = steering_uniqueness_report()
    triples = [(c["residue"], c["b_plus"], c["b_minus"]) for c in table["columns"]]
    expected = list(zip(STEERING_COLUMNS, STEERING_PLUS, STEERING_MINUS))
    dt = time.perf_counter() - t0
    ok = table["ok"] and uniqueness["ok"] and triples == expected
    report(capsys, "C05 steering table (20 residue columns)", ok, dt, 10,
           f"columns={len(triples)} uniqueness_ok={uniqueness['ok']}")


def test_c06_covering_window(capsys):
    t0 = time.perf_counter()
    window = find_covering_window(1, Fraction(1021, 1000))
    table = dict(base_window_table())
    count = sum(len(v) for v in table.values())
    wrep = window_report()
    epsilon = Fraction(26669, 26141) - 1
    dt = time.perf_counter() - t0
    ok = (
        window == (26141, 26669)
        and count == 38
        and set(table) == set(range(1, 25))
        and wrep["ok"]
        and epsilon == Fraction(528, 26141)
        and epsilon < Fraction(202, 10**4)
    )
    report(capsys, "C06 covering window of admissible moduli", ok, dt, 60,
           f"window={window} entries={count} epsilon={epsilon}")


def test_c07_constants(capsys):
    t0 = time.perf_counter()
    rep = constants_report()
    dt = time.perf_counter() - t0
    ok = rep["ok"] and len(rep["checks"]) == 13 and all(rep["checks"].values())
    report(capsys, "C07 arithmetic constants (13 exact checks)", ok, dt, 10,
           f"checks={sum(rep['checks'].values())}/13")


def test_c08_exclusion_census(capsys):
    t0 = time.perf_counter()
    rep = dickson_report(100_000)
    expected = set()
    scale = 1
    while scale * 10 <= 100_000:
        for base in (10, 15):
            q = scale * base
            while q <= 100_000:
                expected.add(q)
                q += 25 * scale
        scale *= 25
    dt = time.perf_counter() - t0
    ok = (
        rep["ok"]
        and rep["complement_ok"]
        and rep["scalar_ok"]
        and rep["excluded_count"] == len(expected)
        and all(dickson_excluded(q) for q in sorted(expected)[:500])
    )
    report(capsys, "C08 ternary-form exclusion census to 10^5", ok, dt, 120,
           f"excluded={rep['excluded_count']} (closed form {len(expected)})")


def test_c09_gap_certificates(capsys):
    t0 = time.perf_counter()
    bound = Fraction(1006, 1000)
    c5 = prime_gap_certificate(5, 12, 26669, 10**7, bound=bound)
    c11 = prime_gap_certificate(11, 12, 26669, 10**7, bound=bound)
    demo = admissible_gap_certificate(37, 90_000, 100_000)
    class_bound = Fraction(26669, 26141)
    classes = [c for c in range(1, 100, 2) if c not in (25, 75)]
    batch = [
        admissible_gap_certificate(cls, 382_670, 10**6, bound=class_bound)
        for cls in classes
    ]
    worst = max(batch, key=lambda cert: cert.max_ratio)
    dt = time.perf_counter() - t0
    ok = (
        c5.satisfied and c5.witness == (35201, 35381)
        and c11.satisfied and c11.witness == (45263, 45491)
        and demo.witness == (92437, 96037)
        and demo.max_ratio > Fraction(10389, 10000)
        and len(batch) == 48
        and all(cert.satisfied for cert in batch)
        and worst.witness == (448769, 453269)
    )
    report(capsys, "C09 gap certificates (primes to 10^7, 48 classes to 10^6)", ok, dt, 900,
           f"prime witnesses {c5.witness}/{c11.witness}, worst class ratio {float(worst.max_ratio):.7f}")


def test_c10_exceptional_tables(capsys):
    from sevencubes.search import exceptional_cube_tables

    t0 = time.perf_counter()
    tables = exceptional_cube_tables()
    checks = all(
        sum(c**3 for c in five) == 125 * n0
        and len(five) == 5
        and min(five) >= 0
        and sum(c**3 for c in seven) == 125 * n0
        and len(seven) == 7
        and min(seven) >= 1
        for n0, (five, seven) in tables.items()
    )
    dt = time.perf_counter() - t0
    ok = checks and sorted(tables) == EXPECTED_EXCEPTIONS
    report(capsys, "C10 exceptional-target cube tables (17 rows)", ok, dt, 60,
           f"rows={len(tables)}")


def test_c11_selftest_determinism(capsys):
    t0 = time.perf_counter()
    outputs = []
    codes = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            codes.append(main(["selftest"]))
        outputs.append(buf.getvalue())
    dt = time.perf_counter() - t0
    payload = json.loads(outputs[0])
    ok = (
        codes == [0, 0]
        and outputs[0] == outputs[1]
        and payload["ok"] is True
        and payload["worked_example"]["p_value"] == 5
    )
    report(capsys, "C11 selftest byte-identical across runs", ok, dt, 120,
           f"bytes={len(outputs[0])}")
