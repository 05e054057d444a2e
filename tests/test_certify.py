"""Certifier tests.

Every report is checked for internal `ok` flags plus at least one value
frozen from an independent computation: the steering pair for residue 1,
the closed-form count of excluded ternary targets, the exact gap witnesses
below 10**5, and the two window bound constants recomputed from scratch.
"""

import json
from fractions import Fraction

import pytest

from sevencubes.certify import (
    GapCertificate,
    _max_consecutive_ratio,
    admissible_gap_certificate,
    constants_report,
    dickson_report,
    identity_report,
    prime_gap_certificate,
    steering_table_report,
    steering_table_text,
    steering_uniqueness_report,
    window_report,
)
from sevencubes.modulus import admissible_factors


# -- steering table -------------------------------------------------------


def test_steering_table_report():
    report = steering_table_report()
    assert report["ok"] is True
    assert len(report["columns"]) == 20
    assert {c["residue"] for c in report["columns"]} == {
        r for r in range(1, 25) if r % 5
    }
    assert report["columns"][0] == {
        "residue": 1,
        "b_plus": 2,
        "b_minus": 7,
        "q0_plus": 20,
        "q0_minus": 5,
        "computed": [2, 7],
        "ok": True,
    }
    for column in report["columns"]:
        assert column["q0_plus"] == 20 and column["q0_minus"] == 5
        assert sorted(column["computed"]) == sorted((column["b_plus"], column["b_minus"]))


def test_steering_table_text():
    lines = steering_table_text().strip().splitlines()
    assert lines[0].startswith("#") and len(lines) == 21
    assert lines[1].split() == ["1", "2", "7"]


def test_steering_uniqueness_report():
    report = steering_uniqueness_report()
    assert report["ok"] is True
    assert len(report["columns"]) == 20
    first = report["columns"][0]
    assert first["residue"] == 1 and first["selected"] == [2, 7]
    for column in report["columns"]:
        assert column["derivative"] % 5 != 0
        assert sorted(column["lift_values"]) == [0, 5, 10, 15, 20]
        assert len(column["selected"]) == 2


# -- constants ------------------------------------------------------------


def test_constants_report():
    report = constants_report()
    assert report["ok"] is True
    assert len(report["checks"]) == 13
    assert all(report["checks"].values())
    values = report["values"]
    assert values["epsilon"] == "528/26141"
    assert values["window_ratio"] == "26669/26141"
    assert int(values["covered_window_bound"]) == 1786 * 26669**6
    assert int(values["scaled_window_bound"]) == 1786 * (10**10 * 26669) ** 3
    assert len(values["covered_window_bound"]) == 30
    assert len(values["scaled_window_bound"]) == 47


# -- covering window ------------------------------------------------------


def test_window_report():
    report = window_report()
    assert report["ok"] is True
    assert (report["lo"], report["hi"], report["count"]) == (26141, 26669, 38)
    assert all(report["checks"].values())


# -- identity sampling ----------------------------------------------------


def test_identity_report():
    report = identity_report(500, 7)
    assert report == {"samples": 500, "seed": 7, "failures": 0, "ok": True}
    assert identity_report(500, 7) == report  # deterministic


# -- exclusion census -----------------------------------------------------


def test_dickson_report_counts():
    report = dickson_report(20000)
    assert report["ok"] is True
    assert report["complement_ok"] and report["scalar_ok"]
    # closed form: 25**k * (25m + 10 or 15) up to the limit
    expected = set()
    scale = 1
    while scale * 10 <= 20000:
        for base in (10, 15):
            q = scale * base
            while q <= 20000:
                expected.add(q)
                q += 25 * scale
        scale *= 25
    assert report["excluded_count"] == len(expected) == 1666
    assert report["first_excluded"] == sorted(expected)[: len(report["first_excluded"])]


# -- gap certificates -----------------------------------------------------


def test_prime_gap_certificate_frozen_witnesses():
    cert = prime_gap_certificate(5, 12, 26669, 10**5)
    assert cert.witness == (35201, 35381)
    assert cert.count == 1667
    assert cert.max_ratio == Fraction(35381, 35201)
    assert cert.satisfied is None  # no bound requested

    cert11 = prime_gap_certificate(11, 12, 26669, 10**5)
    assert cert11.witness == (45263, 45491)
    assert cert11.max_ratio == Fraction(45491, 45263)


def test_prime_gap_certificate_bounds():
    passing = prime_gap_certificate(5, 12, 26669, 10**5, bound=Fraction(1006, 1000))
    assert passing.satisfied is True
    failing = prime_gap_certificate(5, 12, 26669, 10**5, bound=Fraction(10051, 10000))
    assert failing.satisfied is False


def test_gap_certificate_record():
    cert = prime_gap_certificate(5, 12, 26669, 10**5, bound=Fraction(1006, 1000))
    record = json.loads(json.dumps(cert.to_record()))
    assert record["kind"] == "primes"
    assert record["witness"] == [35201, 35381]
    assert record["satisfied"] is True
    assert isinstance(cert, GapCertificate)


def test_admissible_gap_certificate_demo():
    cert = admissible_gap_certificate(37, 90000, 100000)
    assert cert.witness == (92437, 96037)
    assert cert.count == 16
    assert cert.max_ratio > Fraction(10389, 10000)
    # witness endpoints really are admissible and consecutive in the class
    assert admissible_factors(92437) == (23, 4019)
    assert admissible_factors(96037) == (137, 701)
    between = [
        m
        for m in range(92437 + 100, 96037, 100)
        if admissible_factors(m) is not None
    ]
    assert between == []


def test_admissible_gap_certificate_bound_direction():
    # the demo class exceeds the tight bound but stays under a loose one
    tight = admissible_gap_certificate(37, 90000, 100000, bound=Fraction(10389, 10000))
    assert tight.satisfied is False
    loose = admissible_gap_certificate(37, 90000, 100000, bound=Fraction(1040, 1000))
    assert loose.satisfied is True


def test_max_consecutive_ratio_exact_tie_break():
    # gaps of ratio 1.03 at both ends, everything between strictly smaller
    els = [100, 103, *range(106, 200, 3), 200, 206]
    assert max(b / a for a, b in zip(els, els[1:])) == pytest.approx(1.03)
    # exact tie: the earlier pair must win
    assert _max_consecutive_ratio(els) == (100, 103)
    # strictly larger gap at the end wins
    assert _max_consecutive_ratio(els[:-1] + [207]) == (200, 207)
    # same answers on the arbitrary-precision path (ratios are scale-invariant)
    scaled = [e * 10**15 for e in els]
    assert _max_consecutive_ratio(scaled) == (100 * 10**15, 103 * 10**15)


def test_max_consecutive_ratio_requires_two():
    with pytest.raises(ValueError):
        _max_consecutive_ratio([7])
