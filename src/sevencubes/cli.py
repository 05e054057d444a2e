"""Command-line interface.

Exit codes: 0 success; 1 non-representable input, failed certificate or
table mismatch; 2 usage errors (malformed arguments); 3 requests that
exceed a configured budget.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction
from importlib import resources

from .arith import FactorBudgetError
from .certify import (
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
from .construct import (
    DecomposeConfig,
    NotRepresentableError,
    OutOfScopeError,
    decompose,
    verify,
)
from .modulus import table2_text
from .search import (
    EXCEPTIONS,
    SearchLimitError,
    exception_scan,
    exceptional_cube_tables,
    exceptional_table_text,
)

_DEFAULTS = DecomposeConfig()
_SELFTEST_SEED = 20110213

_TABLES = {
    "table1": ("table1.txt", steering_table_text),
    "table2": ("table2.txt", table2_text),
    "exceptional": ("exceptional.txt", exceptional_table_text),
}


def _decimal(text: str) -> int:
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative decimal integer")
    return int(text)


def _ratio(text: str) -> Fraction:
    m = re.fullmatch(r"([0-9]+)/([0-9]+)", text)
    if not m or int(m.group(2)) == 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a ratio of the form num/den")
    return Fraction(int(m.group(1)), int(m.group(2)))


def _packaged_table(filename: str) -> str:
    return (resources.files("sevencubes") / "data" / filename).read_text()


def _cmd_decompose(args: argparse.Namespace) -> int:
    config = DecomposeConfig(
        scan_limit=args.budget_scan,
        factor_bits=args.budget_factor_bits,
        search_max_n=args.budget_search,
    )
    try:
        trace = decompose(args.n, config)
    except NotRepresentableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OutOfScopeError, SearchLimitError, FactorBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    record = trace.to_record()
    if args.format == "structured":
        print(json.dumps(record))
    else:
        print(f"{trace.n} = " + " + ".join(f"{c}^3" for c in trace.cubes))
        if args.trace:
            for key, value in record.items():
                print(f"  {key} = {value}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if verify(args.cubes, args.n):
        print("ok")
        return 0
    total = sum(c**3 for c in args.cubes)
    print(f"mismatch: cubes sum to {total}, not {args.n}", file=sys.stderr)
    return 1


def _cmd_tables(args: argparse.Namespace) -> int:
    names = list(_TABLES) if args.name == "all" else [args.name]
    status = 0
    for name in names:
        filename, generate = _TABLES[name]
        text = generate()
        if args.check:
            if _packaged_table(filename) == text:
                print(f"{name}: OK (regenerated table matches data/{filename})")
            else:
                print(f"{name}: MISMATCH against data/{filename}", file=sys.stderr)
                status = 1
        else:
            sys.stdout.write(text)
    return status


def _cmd_exceptions(args: argparse.Namespace) -> int:
    try:
        values = exception_scan(args.limit)
    except SearchLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for value in values:
        print(value)
    if args.limit >= 454 and set(values) != EXCEPTIONS:
        print("error: scan disagrees with the frozen exception set", file=sys.stderr)
        return 1
    return 0


def _gap_reports(args: argparse.Namespace) -> list[dict]:
    records = []
    which = args.which_set
    if which in ("primes", "both"):
        bound = args.max_ratio or Fraction(1006, 1000)
        lo = args.lo if args.lo is not None else 26669
        hi = args.hi if args.hi is not None else 10**7
        modulus = args.mod if args.mod is not None else 12
        residues = [args.res] if args.res is not None else [5, 11]
        for residue in residues:
            cert = prime_gap_certificate(residue, modulus, lo, hi, bound=bound)
            records.append(cert.to_record())
    if which in ("admissible", "both"):
        bound = args.max_ratio or Fraction(26669, 26141)
        lo = args.lo if args.lo is not None else 382670
        hi = args.hi if args.hi is not None else 10**6
        classes = (
            [args.res]
            if args.res is not None
            else [c for c in range(1, 100, 2) if c % 25 != 0]
        )
        for cls in classes:
            cert = admissible_gap_certificate(cls, lo, hi, bound=bound)
            records.append(cert.to_record())
    return records


def _all_ok(obj) -> bool:
    if isinstance(obj, dict):
        if obj.get("ok") is False or obj.get("satisfied") is False:
            return False
        return all(_all_ok(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_ok(v) for v in obj)
    return True


def _cmd_certify(args: argparse.Namespace) -> int:
    what = args.what
    reports: dict = {}
    if what in ("constants", "all"):
        reports["constants"] = constants_report()
    if what in ("identity", "all"):
        reports["identity"] = identity_report(args.samples, args.seed)
    if what in ("steering", "all"):
        reports["steering"] = steering_table_report()
    if what in ("uniqueness", "all"):
        reports["uniqueness"] = steering_uniqueness_report()
    if what in ("windows", "all"):
        reports["windows"] = window_report()
    if what in ("dickson", "all"):
        reports["dickson"] = dickson_report(args.limit)
    if what in ("gaps", "all"):
        reports["gaps"] = _gap_reports(args)
    print(json.dumps(reports, sort_keys=True, indent=2))
    return 0 if _all_ok(reports) else 1


def _selftest_payload() -> dict:
    payload: dict = {
        "constants": constants_report(),
        "steering_table": steering_table_report(),
        "steering_uniqueness": steering_uniqueness_report(),
        "windows": window_report(),
        "identity": identity_report(20_000, seed=_SELFTEST_SEED),
        "dickson": dickson_report(20_000),
    }

    trace = decompose(202258)
    payload["worked_example"] = trace.to_record()
    payload["worked_example_ok"] = (
        trace.p_value == 5 and trace.x0 == 2 and trace.q == 225 and trace.verified
    )

    scanned = exception_scan(500)
    payload["exceptions"] = {
        "scanned": scanned,
        "ok": scanned == sorted(EXCEPTIONS),
    }

    tables_ok = True
    for n0, (five, seven_pos) in exceptional_cube_tables().items():
        target = 125 * n0
        tables_ok &= sum(c**3 for c in five) == target and len(five) == 5
        tables_ok &= (
            sum(c**3 for c in seven_pos) == target
            and len(seven_pos) == 7
            and min(seven_pos) >= 1
        )
    payload["exceptional_tables"] = {"count": len(EXCEPTIONS), "ok": bool(tables_ok)}

    payload["tables_match"] = {
        name: _packaged_table(filename) == generate()
        for name, (filename, generate) in _TABLES.items()
    }

    rng = random.Random(_SELFTEST_SEED)
    cases = []
    large_ok = True
    for _ in range(5):
        n = 4 * rng.randrange(10**17 // 4, 10**19 // 4) + 2
        tr = decompose(n)
        cases.append(
            {
                "n": n,
                "branch": tr.branch,
                "p_value": tr.p_value,
                "x0": tr.x0,
                "verified": tr.verified,
            }
        )
        # targets divisible by 125 are reduced first and reported as "scaled"
        large_ok &= tr.verified and tr.p_value is not None
    payload["large_targets"] = {"cases": cases, "ok": bool(large_ok)}

    payload["ok"] = (
        all(
            payload[key]["ok"]
            for key in (
                "constants",
                "steering_table",
                "steering_uniqueness",
                "windows",
                "identity",
                "dickson",
                "exceptions",
                "exceptional_tables",
                "large_targets",
            )
        )
        and payload["worked_example_ok"]
        and all(payload["tables_match"].values())
    )
    return payload


def _cmd_selftest(args: argparse.Namespace) -> int:
    payload = _selftest_payload()
    print(json.dumps(payload, sort_keys=True))
    return 0 if payload["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sevencubes",
        description="Decompose integers into seven nonnegative cubes and "
        "certify the constants behind the constructive route.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="decompose N into seven nonnegative cubes")
    d.add_argument("n", type=_decimal, metavar="N")
    d.add_argument("--trace", action="store_true", help="print the full audit record")
    d.add_argument("--format", choices=("text", "structured"), default="text")
    d.add_argument("--budget-search", type=int, default=_DEFAULTS.search_max_n,
                   help="largest value the exhaustive search will accept")
    d.add_argument("--budget-scan", type=int, default=_DEFAULTS.scan_limit,
                   help="candidate values examined per modulus scan")
    d.add_argument("--budget-factor-bits", type=int, default=_DEFAULTS.factor_bits,
                   help="bit-size cap for exact candidate factorisation")
    d.set_defaults(func=_cmd_decompose)

    v = sub.add_parser("verify", help="check that seven cubes sum to N")
    v.add_argument("n", type=_decimal, metavar="N")
    v.add_argument("cubes", type=_decimal, nargs=7, metavar="CUBE")
    v.set_defaults(func=_cmd_verify)

    t = sub.add_parser("tables", help="print or check the built-in tables")
    t.add_argument("name", choices=("table1", "table2", "exceptional", "all"))
    t.add_argument("--check", action="store_true",
                   help="diff regenerated tables against the packaged copies")
    t.set_defaults(func=_cmd_tables)

    e = sub.add_parser("exceptions", help="exhaustively list non-representable values")
    e.add_argument("--limit", type=int, default=500)
    e.set_defaults(func=_cmd_exceptions)

    c = sub.add_parser("certify", help="recompute a certificate and report ok/failed")
    c.add_argument(
        "what",
        choices=("constants", "identity", "steering", "uniqueness", "windows",
                 "dickson", "gaps", "all"),
    )
    c.add_argument("--samples", type=int, default=100_000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--limit", type=int, default=20_000)
    c.add_argument("--set", dest="which_set", choices=("primes", "admissible", "both"),
                   default="primes", help="which gap certificates to compute")
    c.add_argument("--mod", type=int, default=None)
    c.add_argument("--res", type=int, default=None)
    c.add_argument("--lo", type=int, default=None)
    c.add_argument("--hi", type=int, default=None)
    c.add_argument("--max-ratio", type=_ratio, default=None,
                   help="bound as num/den, e.g. 1006/1000")
    c.set_defaults(func=_cmd_certify)

    s = sub.add_parser("selftest", help="deterministic end-to-end battery")
    s.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
