"""Command-line interface tests.

Exit-code contract: 0 success, 1 negative result or failed certificate,
2 usage error (argparse), 3 exhausted budget.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sevencubes
from sevencubes.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- decompose ----------------------------------------------------------------


def test_decompose_text(capsys):
    code, out, _ = run(capsys, "decompose", "202258")
    assert code == 0
    assert out.strip() == "202258 = 2^3 + 35^3 + 5^3 + 25^3 + 25^3 + 40^3 + 40^3"


def test_decompose_structured(capsys):
    code, out, _ = run(capsys, "decompose", "202258", "--format", "structured")
    assert code == 0
    record = json.loads(out)
    assert list(record) == [
        "n", "n0", "e", "branch", "p_value", "p_factors", "b",
        "x0", "q", "x1", "x2", "x3", "cubes", "verified",
    ]
    assert record["cubes"] == [2, 35, 5, 25, 25, 40, 40]
    assert record["branch"] == "construction" and record["verified"] is True


def test_decompose_trace_lines(capsys):
    code, out, _ = run(capsys, "decompose", "202258", "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].endswith("40^3")
    fields = dict(line.strip().split(" = ", 1) for line in lines[1:])
    assert fields["p_value"] == "5" and fields["q"] == "225"


def test_decompose_not_representable(capsys):
    code, _, err = run(capsys, "decompose", "454")
    assert code == 1
    assert "454" in err


def test_decompose_budget_exhausted(capsys):
    code, _, err = run(capsys, "decompose", str(10**12 + 2))
    assert code == 3
    assert err  # reason goes to stderr


def test_decompose_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "-5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "twelve"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_decompose_large_structured(capsys):
    code, out, _ = run(
        capsys, "decompose", str(10**18 + 2), "--format", "structured"
    )
    assert code == 0
    record = json.loads(out)
    assert record["branch"] == "construction"
    assert sum(c**3 for c in record["cubes"]) == 10**18 + 2


# -- verify -------------------------------------------------------------------


def test_verify_roundtrip(capsys):
    code, out, _ = run(capsys, "verify", "202258", "2", "35", "5", "25", "25", "40", "40")
    assert code == 0 and out.strip() == "ok"
    code, _, err = run(capsys, "verify", "202258", "2", "35", "5", "25", "25", "40", "41")
    assert code == 1 and "mismatch" in err


# -- tables -------------------------------------------------------------------


def test_tables_check_all(capsys):
    code, out, _ = run(capsys, "tables", "all", "--check")
    assert code == 0
    assert out.count("OK") == 3


def test_tables_print_matches_packaged(capsys):
    from importlib import resources

    code, out, _ = run(capsys, "tables", "table2")
    assert code == 0
    packaged = resources.files("sevencubes").joinpath("data/table2.txt").read_text()
    assert out == packaged


# -- exceptions ---------------------------------------------------------------


def test_exceptions_listing(capsys):
    code, out, _ = run(capsys, "exceptions", "--limit", "500")
    assert code == 0
    assert [int(x) for x in out.split()] == [
        15, 22, 23, 50, 114, 167, 175, 186, 212, 231, 238, 239,
        303, 364, 420, 428, 454,
    ]


# -- certify ------------------------------------------------------------------


def test_certify_constants(capsys):
    code, out, _ = run(capsys, "certify", "constants")
    assert code == 0
    payload = json.loads(out)
    assert payload["constants"]["ok"] is True


def test_certify_steering_and_uniqueness(capsys):
    for what in ("steering", "uniqueness", "windows"):
        code, out, _ = run(capsys, "certify", what)
        assert code == 0, what
        assert json.loads(out)


def test_certify_identity_sampled(capsys):
    code, out, _ = run(capsys, "certify", "identity", "--samples", "500", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["identity"]["failures"] == 0


def test_certify_dickson(capsys):
    code, out, _ = run(capsys, "certify", "dickson", "--limit", "5000")
    assert code == 0
    assert json.loads(out)["dickson"]["ok"] is True


def test_certify_gap_custom_range(capsys):
    code, out, _ = run(
        capsys, "certify", "gaps", "--set", "primes", "--mod", "12", "--res", "5",
        "--lo", "26669", "--hi", "100000", "--max-ratio", "1006/1000",
    )
    assert code == 0
    payload = json.loads(out)
    (cert,) = payload["gaps"]
    assert cert["witness"] == [35201, 35381]
    assert cert["satisfied"] is True


def test_certify_gap_failing_bound(capsys):
    code, out, _ = run(
        capsys, "certify", "gaps", "--set", "primes", "--mod", "12", "--res", "5",
        "--lo", "26669", "--hi", "100000", "--max-ratio", "10051/10000",
    )
    assert code == 1
    (cert,) = json.loads(out)["gaps"]
    assert cert["satisfied"] is False


def test_certify_admissible_demo(capsys):
    # large-gap demonstration: ratio 96037/92437 sits between the two bounds
    code, out, _ = run(
        capsys, "certify", "gaps", "--set", "admissible", "--res", "37",
        "--lo", "90000", "--hi", "100000", "--max-ratio", "10390/10000",
    )
    assert code == 0
    (cert,) = json.loads(out)["gaps"]
    assert cert["witness"] == [92437, 96037]
    assert cert["satisfied"] is True

    code, out, _ = run(
        capsys, "certify", "gaps", "--set", "admissible", "--res", "37",
        "--lo", "90000", "--hi", "100000", "--max-ratio", "10389/10000",
    )
    assert code == 1
    assert json.loads(out)["gaps"][0]["satisfied"] is False


def test_certify_ratio_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "gaps", "--max-ratio", "1.006"])
    assert exc.value.code == 2
    capsys.readouterr()


# -- selftest -----------------------------------------------------------------


def test_selftest_deterministic(capsys):
    code1, out1, _ = run(capsys, "selftest")
    code2, out2, _ = run(capsys, "selftest")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["ok"] is True
    assert payload["worked_example"]["p_value"] == 5
    assert payload["worked_example"]["q"] == 225


# sha256 of the selftest output; a change to anything it reports (tables,
# certificates, the worked example, the moduli and anchors of five large
# targets) changes it
SELFTEST_SHA256 = "826fbbd2958f6f686f7bc176c7463366c9bae765b91aebcef173f79d2df1b4e1"


def _python(*args: str) -> bytes:
    """stdout of a fresh interpreter that imports this checkout's package."""
    src = str(Path(sevencubes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, check=True, timeout=120,
    ).stdout


def test_selftest_output_pinned():
    out = _python("-m", "sevencubes", "selftest")
    assert hashlib.sha256(out).hexdigest() == SELFTEST_SHA256


def test_decompose_command_never_imports_numpy():
    # only the certify reports and the exception sieve need numpy; the
    # decompose command should not pay for importing it
    code = (
        "import sys\n"
        "from sevencubes.cli import main\n"
        "for n in ('202258', '999999', str(10**39 + 2)):\n"
        "    main(['decompose', n])\n"
        "print('numpy' in sys.modules)\n"
    )
    assert _python("-c", code).splitlines()[-1] == b"False"
