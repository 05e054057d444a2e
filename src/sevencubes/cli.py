"""Command-line interface.

Exit codes: 0 success; 1 non-representable input, failed certificate or
table mismatch; 2 usage errors (malformed arguments); 3 requests that
exceed a configured budget; 141 (128 + SIGPIPE, as for a process that
SIGPIPE ends) when the reader closes standard output early.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys

from .construct import (
    NotRepresentableError,
    OutOfScopeError,
    decompose,
    verify,
)
from .search import (
    EXCEPTIONS,
    SEARCH_MAX_N,
    SearchLimitError,
    exception_scan,
    exceptional_cube_tables,
)

_SELFTEST_SEED = 20110213

# `certify` (with `fractions` and the packaged tables' reader) is imported
# only by the commands that use it: certify, selftest and tables.  `decompose`
# never needs it, and importing it took about 5% of a `decompose` cold start.


def _integer(low: int | None = None):
    """An argparse type: a plain decimal integer (ASCII digits, an optional
    minus sign, no underscores), >= low when low is given."""
    bound = "" if low is None else f" >= {low}"

    def parse(text: str) -> int:
        value = int(text) if re.fullmatch(r"-?[0-9]+", text) else None
        if value is None or low is not None and value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not a decimal integer{bound}")
        return value

    return parse


def _ratio(text: str):
    """An argparse type: num/den as an exact Fraction."""
    from fractions import Fraction

    m = re.fullmatch(r"([0-9]+)/([0-9]+)", text)
    if not m or int(m.group(2)) == 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a ratio of the form num/den")
    return Fraction(int(m.group(1)), int(m.group(2)))


def _cmd_decompose(args: argparse.Namespace) -> int:
    try:
        trace = decompose(args.n, search_max_n=args.budget_search)
    except NotRepresentableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OutOfScopeError as exc:
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
    from .certify import TABLES, packaged_table

    names = list(TABLES) if args.name == "all" else [args.name]
    status = 0
    for name in names:
        filename, generate = TABLES[name]
        text = generate()
        if args.check:
            if packaged_table(filename) == text:
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


def _given(value, default):
    return default if value is None else value


def _gap_reports(certify, args: argparse.Namespace) -> list[dict]:
    """The gap certificates the options name; ValueError when they name none."""
    from fractions import Fraction

    records = []
    which = _given(args.set, "primes")
    if which == "admissible" and args.mod is not None:
        raise ValueError("--mod applies to the prime classes; admissible ones are mod 100")
    if which in ("primes", "both"):
        bound = _given(args.max_ratio, Fraction(1006, 1000))
        lo, hi = _given(args.lo, 26669), _given(args.hi, 10**7)
        for residue in [args.res] if args.res is not None else [5, 11]:
            cert = certify.prime_gap_certificate(residue, _given(args.mod, 12), lo, hi,
                                                 bound=bound)
            records.append(cert.to_record())
    if which in ("admissible", "both"):
        bound = _given(args.max_ratio, Fraction(26669, 26141))
        lo, hi = _given(args.lo, 382670), _given(args.hi, 10**6)
        classes = [c for c in range(1, 100, 2) if c % 25 != 0]
        for cls in [args.res] if args.res is not None else classes:
            cert = certify.admissible_gap_certificate(cls, lo, hi, bound=bound)
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


# certify's reports: name -> (the options it reads, builder(certify module,
# options)).  Every option defaults to None, so one given to a report that
# does not read it is a usage error; `all` reads every option.
_REPORTS = {
    "constants": ((), lambda certify, args: certify.constants_report()),
    "identity": (("samples", "seed"), lambda certify, args: certify.identity_report(
        _given(args.samples, 100_000), _given(args.seed, 0))),
    "steering": ((), lambda certify, args: certify.steering_table_report()),
    "uniqueness": ((), lambda certify, args: certify.steering_uniqueness_report()),
    "windows": ((), lambda certify, args: certify.window_report()),
    "dickson": (("limit",), lambda certify, args: certify.dickson_report(
        _given(args.limit, 20_000))),
    "gaps": (("set", "mod", "res", "lo", "hi", "max_ratio"), _gap_reports),
}


def _cmd_certify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import certify

    names = list(_REPORTS) if args.what == "all" else [args.what]
    for name, (options, _) in _REPORTS.items():
        for option in options:
            if name not in names and getattr(args, option) is not None:
                parser.error(f"certify {args.what} does not read --{option.replace('_', '-')}")
    reports: dict = {}
    # gaps first: options that name no certificate stop before any report runs
    if "gaps" in names:
        try:
            reports["gaps"] = _gap_reports(certify, args)
        except ValueError as exc:
            parser.error(str(exc))
    for name in names:
        if name not in reports:
            reports[name] = _REPORTS[name][1](certify, args)
    print(json.dumps(reports, sort_keys=True, indent=2))
    return 0 if _all_ok(reports) else 1


def _selftest_payload() -> dict:
    from . import certify

    payload: dict = {
        "constants": certify.constants_report(),
        "steering_table": certify.steering_table_report(),
        "steering_uniqueness": certify.steering_uniqueness_report(),
        "windows": certify.window_report(),
        "identity": certify.identity_report(20_000, seed=_SELFTEST_SEED),
        "dickson": certify.dickson_report(20_000),
    }

    trace = decompose(202258)
    payload["worked_example"] = trace.to_record()
    payload["worked_example_ok"] = (
        trace.p_value == 5 and trace.x0 == 2 and trace.q == 225
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
        name: certify.packaged_table(filename) == generate()
        for name, (filename, generate) in certify.TABLES.items()
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
        large_ok &= tr.p_value is not None
    payload["large_targets"] = {"cases": cases, "ok": bool(large_ok)}

    payload["ok"] = (
        _all_ok(payload)
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
    d.add_argument("n", type=_integer(0), metavar="N")
    d.add_argument("--trace", action="store_true", help="print the full audit record")
    d.add_argument("--format", choices=("text", "structured"), default="text")
    d.add_argument("--budget-search", type=_integer(0), default=SEARCH_MAX_N,
                   help="largest value the exhaustive search will accept")
    d.set_defaults(func=_cmd_decompose)

    v = sub.add_parser("verify", help="check that seven cubes sum to N")
    v.add_argument("n", type=_integer(0), metavar="N")
    v.add_argument("cubes", type=_integer(0), nargs=7, metavar="CUBE")
    v.set_defaults(func=_cmd_verify)

    t = sub.add_parser("tables", help="print or check the built-in tables")
    t.add_argument("name", choices=("table1", "table2", "exceptional", "all"))
    t.add_argument("--check", action="store_true",
                   help="diff regenerated tables against the packaged copies")
    t.set_defaults(func=_cmd_tables)

    e = sub.add_parser("exceptions", help="exhaustively list non-representable values")
    e.add_argument("--limit", type=_integer(0), default=500)
    e.set_defaults(func=_cmd_exceptions)

    c = sub.add_parser("certify", help="recompute a certificate and report ok/failed")
    c.add_argument("what", choices=(*_REPORTS, "all"))
    c.add_argument("--samples", type=_integer(1))
    c.add_argument("--seed", type=_integer())
    c.add_argument("--limit", type=_integer(25))
    c.add_argument("--set", choices=("primes", "admissible", "both"),
                   help="which gap certificates to compute")
    c.add_argument("--mod", type=_integer(1))
    c.add_argument("--res", type=_integer())
    c.add_argument("--lo", type=_integer(1))
    c.add_argument("--hi", type=_integer())
    c.add_argument("--max-ratio", type=_ratio, help="bound as num/den, e.g. 1006/1000")
    c.set_defaults(func=lambda args: _cmd_certify(args, c))

    s = sub.add_parser("selftest", help="deterministic end-to-end battery")
    s.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    # N may have any number of digits, also past the interpreter's default
    # limit on int <-> str conversion
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        status = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`): stop quietly, with stdout on
        # devnull so that the flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return status


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "decompose" and args.trace and args.format == "structured":
        parser.error("decompose: --trace applies to text output; --format structured "
                     "already prints the full record")
    return args.func(args)
