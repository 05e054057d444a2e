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
    # only a finished descent proves it: a search budget below 454 exits 3
    code, _, err = run(capsys, "decompose", "454", "--budget-search", "453")
    assert code == 3 and "search budget 453" in err


def test_decompose_budget_exhausted(capsys):
    code, _, err = run(capsys, "decompose", str(10**12 + 2))
    assert code == 3
    assert err  # reason goes to stderr


def test_decompose_budget_search_raises_the_cap(capsys):
    code, _, err = run(capsys, "decompose", "3308360150")
    assert code == 3 and "search budget 100000000" in err
    code, out, _ = run(capsys, "decompose", "3308360150", "--budget-search", str(10**10))
    assert code == 0
    assert out.strip() == "3308360150 = 1490^3 + 74^3 + 14^3 + 11^3 + 11^3 + 8^3 + 2^3"


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

    # a zero ratio is a given bound, not the default one: no gap meets it
    code, out, _ = run(
        capsys, "certify", "gaps", "--max-ratio", "0/5", "--lo", "26669", "--hi", "30000",
    )
    assert code == 1
    certs = json.loads(out)["gaps"]
    assert certs and all(c["bound"] == [0, 1] for c in certs)
    assert not any(c["satisfied"] for c in certs)


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


@pytest.mark.parametrize("argv", [
    "certify all --lo 26669 --hi 26680",
    # both prime classes hold primes in [382670, 382800]; no admissible class
    # holds two values there
    "certify gaps --set both --lo 382670 --hi 382800",
    "certify all --set both --lo 382670 --hi 382800",
])
def test_certify_rejects_gap_options_before_any_other_report(argv, capsys, monkeypatch):
    from sevencubes import certify

    called = []
    for name in ("constants_report", "identity_report"):
        monkeypatch.setattr(certify, name, lambda *a, name=name, **k: called.append(name))
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == "" and "usage:" in out.err
    assert called == []


def test_certify_rejects_options_the_report_does_not_read(capsys, monkeypatch):
    from sevencubes import certify

    called = []
    monkeypatch.setattr(certify, "dickson_report", lambda *a: called.append(a))
    for argv, option in (
        ("certify dickson --seed 3", "--seed"),
        ("certify dickson --limit 30 --max-ratio 1/1", "--max-ratio"),
        ("certify identity --set both", "--set"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert f"does not read {option}" in out.err, argv
    assert called == []
    # each report's own options are read
    code, out, _ = run(capsys, "certify", "dickson", "--limit", "30")
    assert code == 0 and called == [(30,)]


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


# sha256 of `sevencubes certify all --set both`: every certificate at its
# default size (primes to 10**7, the 48 admissible classes mod 100)
CERTIFY_ALL_SHA256 = "5b4f9a46b0ec8a4645dea4215910f6d59f08ce9464e11d581292c53462692f93"


def _env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(sevencubes.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def _interpreter(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run that imports this checkout's package."""
    return subprocess.run(
        [sys.executable, *args], env=_env(), capture_output=True, timeout=120,
    )


def _python(*args: str) -> bytes:
    """stdout of a fresh interpreter that imports this checkout's package;
    fails with the interpreter's stderr unless it exits 0."""
    proc = _interpreter(*args)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def _sevencubes_without_numpy(*args: str) -> bytes:
    """stdout of `python -m sevencubes ARGS` where `import numpy` raises
    ImportError: the package has no third-party runtime dependency."""
    code = (
        "import runpy, sys\n"
        "sys.modules['numpy'] = None\n"
        "runpy.run_module('sevencubes', run_name='__main__', alter_sys=True)\n"
    )
    return _python("-c", code, *args)


def test_selftest_output_pinned():
    out = _sevencubes_without_numpy("selftest")
    assert hashlib.sha256(out).hexdigest() == SELFTEST_SHA256


def test_certify_all_output_pinned_without_numpy():
    out = _sevencubes_without_numpy("certify", "all", "--set", "both")
    assert hashlib.sha256(out).hexdigest() == CERTIFY_ALL_SHA256


def test_decompose_command_never_imports_numpy():
    # the package needs no numpy; this also keeps any other module that
    # might bring it in out of the decompose command's cold start
    code = (
        "import sys\n"
        "from sevencubes.cli import main\n"
        "for n in ('202258', '999999', str(10**39 + 2)):\n"
        "    main(['decompose', n])\n"
        "print('numpy' in sys.modules)\n"
    )
    assert _python("-c", code).splitlines()[-1] == b"False"


def test_decompose_command_never_imports_certify():
    # certify is imported only by the commands that use it, and fractions
    # (which brings in decimal) only with certify or a ratio argument
    code = (
        "import sys\n"
        "from sevencubes.cli import main\n"
        "for argv in (['decompose', str(10**39 + 2)], ['verify', '7'] + ['1'] * 7):\n"
        "    main(argv)\n"
        "print([m in sys.modules for m in ('sevencubes.certify', 'fractions', 'decimal')])\n"
    )
    assert _python("-c", code).splitlines()[-1] == b"[False, False, False]"


def test_decompose_into_a_closed_pipe_ends_quietly():
    # the reader takes 100 bytes and closes its end while the writer is still
    # blocked: the pipe holds one page and the trace of a 1000-digit target
    # is about 10 kB, so the write fails however the two processes interleave
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs F_SETPIPE_SZ to shrink the pipe")
    r, w = os.pipe()
    fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
    argv = ["-m", "sevencubes", "decompose", str(10**999 + 2), "--trace"]
    proc = subprocess.Popen([sys.executable, *argv], env=_env(), stdout=w,
                            stderr=subprocess.PIPE)
    os.close(w)
    with os.fdopen(r, "rb") as reader:
        head = reader.read(100)
    _, err = proc.communicate(timeout=120)
    assert len(head) == 100
    assert b"Traceback" not in err and err == b""
    assert proc.returncode == 141


def test_decompose_above_the_composite_edge_exits_3():
    # 7000 digits: past the interpreter's default int <-> str limit, which the
    # CLI lifts, and past the composite route's edge near 10**6500
    proc = _interpreter("-m", "sevencubes", "decompose", "1" + "0" * 6998 + "2")
    assert proc.returncode == 3
    assert proc.stderr.startswith(b"error: no constructive route")


@pytest.mark.parametrize("argv", [
    "exceptions --limit -5",
    "certify gaps --hi 5",
    "certify gaps --mod 0",
    "certify dickson --limit 5",
    "certify gaps --set admissible --res 50 --lo 382670 --hi 400000",
    "certify gaps --res 3",
    "certify gaps --lo 26669 --hi 26680",
    "certify gaps --hi 3_0000",
    "certify gaps --set admissible --lo 382670 --hi 382700",
    "certify gaps --set admissible --mod 7",
    # an option the chosen report does not read
    "certify constants --mod 7",
    "certify constants --mod 7 --lo 5 --max-ratio 1/1",
    "certify windows --samples 3",
    "certify windows --samples 3 --set admissible",
    "certify gaps --limit 30 --lo 26669 --hi 30000",
    "certify identity --samples -5",
    "decompose 999999 --budget-search -5",
    "decompose 202258 --format structured --trace",
])
def test_out_of_range_arguments_are_usage_errors(argv):
    proc = _interpreter("-m", "sevencubes", *argv.split())
    assert proc.returncode == 2
    assert b"usage:" in proc.stderr
    assert b"Traceback" not in proc.stderr
