"""Certifier tests.

Every report is checked for internal `ok` flags plus at least one value
frozen from an independent computation: the steering pair for residue 1,
the covering table of base moduli (Table 2), the closed-form count of
excluded ternary targets, the exact gap witnesses below 10**5, and the two
window bound constants recomputed from scratch.
"""

import json
from fractions import Fraction

import pytest

from sevencubes import certify
from sevencubes.arith import primes_upto
from sevencubes.certify import (
    WINDOW_RATIO_CAP,
    WINDOW_RESIDUE_MOD4,
    GapCertificate,
    NoWindowError,
    _admissible_elements,
    _max_consecutive_ratio,
    admissible_gap_certificate,
    base_window_table,
    constants_report,
    dickson_report,
    find_covering_window,
    identity_report,
    prime_gap_certificate,
    steering_table_report,
    steering_table_text,
    steering_uniqueness_report,
    table2_text,
    window_report,
)
from sevencubes.modulus import admissible_factors

# Frozen covering table: residue mod 25 -> ((value, factors), ...) for the
# window [26141, 26669]; 38 entries, every value == 1 (mod 4).
FROZEN_TABLE2 = {
    1: ((26401, (17, 1553)), (26501, (26501,))),
    2: ((26177, (26177,)), (26477, (11, 29, 83))),
    3: ((26153, (26153,)), (26653, (11, 2423))),
    4: ((26329, (113, 233)),),
    5: ((26305, (5, 5261)),),
    6: ((26281, (41, 641)),),
    7: ((26357, (26357,)),),
    8: ((26633, (26633,)),),
    9: ((26309, (26309,)), (26609, (11, 41, 59))),
    10: ((26185, (5, 5237)), (26485, (5, 5297))),
    11: ((26261, (26261,)), (26461, (47, 563)), (26561, (26561,))),
    12: ((26237, (26237,)),),
    13: ((26513, (26513,)),),
    14: ((26189, (26189,)), (26389, (11, 2399)), (26489, (26489,))),
    15: ((26365, (5, 5273)), (26665, (5, 5333))),
    16: ((26141, (26141,)),),
    17: ((26417, (26417,)),),
    18: ((26393, (26393,)),),
    19: ((26669, (26669,)),),
    20: ((26345, (5, 11, 479)), (26545, (5, 5309))),
    21: ((26321, (26321,)), (26521, (11, 2411))),
    22: ((26297, (26297,)), (26597, (26597,))),
    23: ((26473, (23, 1151)), (26573, (26573,))),
    24: ((26249, (26249,)),),
}


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


def test_steering_table_report_reads_the_packaged_pairs(monkeypatch):
    real = certify.packaged_table("table1.txt")
    assert real == steering_table_text()
    swapped = real.replace("\n1 2 7\n", "\n1 7 2\n")  # residue 1's plus and minus
    dropped = real.replace("24 23 18\n", "")  # the last column
    assert steering_table_report()["ok"] is True
    for text in (swapped, dropped):
        assert text != real
        monkeypatch.setattr(certify, "packaged_table", {"table1.txt": text}.__getitem__)
        assert steering_table_report()["ok"] is False
    monkeypatch.setattr(certify, "packaged_table", {"table1.txt": swapped}.__getitem__)
    columns = steering_table_report()["columns"]
    assert [c["residue"] for c in columns if not c["ok"]] == [1]


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


def test_window_report(monkeypatch):
    # one report, with the table and the window cold, scans for the
    # covering window once
    scans = []
    scan = certify.find_covering_window
    monkeypatch.setattr(
        certify, "find_covering_window", lambda *args: scans.append(args) or scan(*args)
    )
    base_window_table.cache_clear()
    certify._covering_window.cache_clear()
    report = window_report()
    assert len(scans) == 1
    assert report["ok"] is True
    assert (report["lo"], report["hi"], report["count"]) == (26141, 26669, 38)
    assert all(report["checks"].values())


def test_find_covering_window_frozen():
    assert find_covering_window(1, Fraction(1021, 1000)) == (26141, 26669)
    assert WINDOW_RESIDUE_MOD4 == 1
    assert WINDOW_RATIO_CAP == Fraction(1021, 1000)


def test_find_covering_window_rejects_floats():
    with pytest.raises(TypeError):
        find_covering_window(1, 1.021)


def test_find_covering_window_unreachable_cap():
    with pytest.raises(NoWindowError):
        find_covering_window(1, Fraction(1021, 1000), ceiling=26000)


def test_base_window_table_matches_frozen():
    table = dict(base_window_table())
    assert set(table) == set(range(1, 25))
    for residue, entries in FROZEN_TABLE2.items():
        assert table[residue] == entries, residue
    assert sum(len(v) for v in table.values()) == 38
    flat = [value for entries in table.values() for value, _ in entries]
    assert all(v % 4 == 1 for v in flat)
    assert all(26141 <= v <= 26669 for v in flat)


def test_table2_text_layout():
    lines = table2_text().strip().splitlines()
    assert lines[0].startswith("#") and len(lines) == 39
    assert lines[1].split() == ["1", "26401", "17*1553"]
    assert lines[-1].split() == ["24", "26249", "26249"]


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


def test_prime_gap_certificate_matches_filtered_primes():
    # the class read out of the sieve from its first element >= lo
    primes = primes_upto(5000)
    cases = ((12, 5, 26), (12, 11, 29), (4, 3, 3), (30, 7, 8), (100, 37, 1000))
    for modulus, residue, lo in cases:
        el = [p for p in primes if p >= lo and p % modulus == residue]
        cert = prime_gap_certificate(residue, modulus, lo, 5000)
        assert cert.count == len(el)
        assert cert.witness == max(zip(el, el[1:]), key=lambda ab: Fraction(ab[1], ab[0]))
    for residue in (-1, 12, 17):  # no residue class mod 12
        with pytest.raises(ValueError):
            prime_gap_certificate(residue, 12, 26, 5000)


def test_prime_gap_certificate_bounds():
    passing = prime_gap_certificate(5, 12, 26669, 10**5, bound=Fraction(1006, 1000))
    assert passing.satisfied is True
    failing = prime_gap_certificate(5, 12, 26669, 10**5, bound=Fraction(10051, 10000))
    assert failing.satisfied is False


def test_gap_certificate_record():
    cert = prime_gap_certificate(5, 12, 26669, 10**5, bound=Fraction(1006, 1000))
    record = json.loads(json.dumps(cert.to_record()))
    assert cert.to_record() == record  # lists, not tuples, before the round trip
    assert set(record) == {
        "kind", "modulus", "residue", "lo", "hi", "count", "witness", "bound",
        "satisfied", "max_ratio",
    }
    assert record["kind"] == "primes"
    assert record["witness"] == [35201, 35381]
    assert record["max_ratio"] == [35381, 35201]
    assert record["bound"] == [503, 500]
    assert record["satisfied"] is True
    assert isinstance(cert, GapCertificate)
    unbounded = prime_gap_certificate(5, 12, 26669, 10**5).to_record()
    assert unbounded["bound"] is None and unbounded["satisfied"] is None
    assert unbounded["max_ratio"] == record["max_ratio"]


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


def test_admissible_elements_match_admissible_factors():
    # the sieve against trial division, from the empty product 1 up
    assert _admissible_elements(1, 30000) == tuple(
        m for m in range(1, 30001) if admissible_factors(m) is not None
    )


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
    # products beyond 64 bits, same answers (ratios are scale-invariant)
    scaled = [e * 10**15 for e in els]
    assert _max_consecutive_ratio(scaled) == (100 * 10**15, 103 * 10**15)


def test_max_consecutive_ratio_requires_two():
    with pytest.raises(ValueError):
        _max_consecutive_ratio([7])
