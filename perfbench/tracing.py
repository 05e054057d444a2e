"""Spans around the public functions at each layer boundary of `decompose`.

The wrappers live here, not in the program: each one replaces a name in the
module that looks it up at call time.  A name brought in by `from ... import`
is wrapped in the importing module (`construct`, `modulus`), because that is
where the call resolves it.  Spans are kept in memory as
[name, start_ns, end_ns, parent_index, op] and aggregated when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# (modules holding the name, attribute, span name); arith.is_prime is looked
# up in arith (by factorize), modulus (composite scan) and construct (fibres).
_SPANS = (
    (("construct",), "search_seven", "search.descent"),
    (("search",), "_Tables", "search.tables"),
    (("modulus",), "factorize", "arith.factorize"),
    (("arith", "modulus", "construct"), "is_prime", "arith.is_prime"),
    (("construct",), "represent_ternary", "construct.ternary"),
    (("construct",), "anchor_root", "construct.anchor"),
    (("construct",), "residual_quotient", "construct.residual"),
    (("construct",), "assemble_cubes", "construct.assemble"),
)
_SCANS = ("iter_moduli_direct", "iter_moduli_composite")

ROOT = "decompose"
SCAN = "modulus.scan"

# parent span -> metric infix for the is_prime split
_PRIME_PARENTS = {
    "construct.ternary": "in_ternary",
    SCAN: "in_scan",
    "arith.factorize": "in_factorize",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None  # index of the measured operation, None in warm-up
        self.counts: Counter = Counter()  # (op, name) -> events

    def call(self, name, fn, *args, **kwargs):
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter_ns()
            self.stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def count(self, name: str) -> None:
        self.counts[(self.op, name)] += 1

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _wrap_scan(self, gen_fn):
        """Times each next() of a modulus generator as one scan span."""

        def wrapper(*args, **kwargs):
            it = gen_fn(*args, **kwargs)
            while True:
                try:
                    modulus = self.call(SCAN, next, it)
                except StopIteration:
                    return
                self.count("modulus.candidates")
                yield modulus

        return wrapper

    def _wrap_dickson(self, fn):
        """Counts yielded moduli whose residual q is excluded: the check made
        directly by the routing, not the one inside represent_ternary."""

        def wrapper(q):
            excluded = fn(q)
            if excluded and self.parent_name() == ROOT:
                self.count("modulus.rejected_q")
            return excluded

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the layer boundaries of the imported package; restore on exit."""
        from sevencubes import arith, construct, modulus, search

        mods = {"arith": arith, "construct": construct, "modulus": modulus, "search": search}
        saved = []

        def replace(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            for owners, attr, name in _SPANS:
                wrapper = self._wrap(name, getattr(mods[owners[0]], attr))
                for owner in owners:
                    replace(mods[owner], attr, wrapper)
            for attr in _SCANS:
                replace(construct, attr, self._wrap_scan(getattr(construct, attr)))
            replace(construct, "dickson_excluded", self._wrap_dickson(construct.dickson_excluded))
            replace(construct.Trace, "recheck",
                    self._wrap("construct.recheck", construct.Trace.recheck))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def per_op(self) -> dict[int, Counter]:
        """op -> Counter of span names (and event counts) inside that op."""
        out: dict[int, Counter] = {}
        for name, _s, _e, _p, op in self.spans:
            if op is not None:
                out.setdefault(op, Counter())[name] += 1
        for (op, name), k in self.counts.items():
            if op is not None:
                out.setdefault(op, Counter())[name] += k
        return out

    def metrics(self, ok: int) -> dict[str, float]:
        """Per-layer totals over the measured operations; search.tables.s also
        covers warm-up, where its first-use build happens."""
        calls: Counter = Counter()
        secs: Counter = Counter()
        covered: Counter = Counter()
        tables_s = 0.0
        for name, start, end, parent, op in self.spans:
            dur = (end - start) / 1e9
            if name == "search.tables":
                tables_s += dur
            if op is None:
                continue
            calls[name] += 1
            secs[name] += dur
            pname = self.spans[parent][0] if parent >= 0 else None
            if pname == ROOT:
                covered[ROOT] += dur
            if name == "arith.is_prime" and pname in _PRIME_PARENTS:
                key = f"arith.is_prime.{_PRIME_PARENTS[pname]}"
                calls[key] += 1
                secs[key] += dur
        events: Counter = Counter()
        for (op, name), k in self.counts.items():
            if op is not None:
                events[name] += k
        out = {
            "search.descent.calls": calls["search.descent"],
            "search.descent.s": secs["search.descent"],
            "search.tables.s": tables_s,
            "arith.factorize.calls": calls["arith.factorize"],
            "arith.factorize.s": secs["arith.factorize"],
            "arith.is_prime.calls": calls["arith.is_prime"],
            "arith.is_prime.s": secs["arith.is_prime"],
        }
        for infix in _PRIME_PARENTS.values():
            key = f"arith.is_prime.{infix}"
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.s"] = secs[key]
        out.update({
            "modulus.scan.s": secs[SCAN],
            "modulus.candidates": events["modulus.candidates"],
            "modulus.rejected_q": events["modulus.rejected_q"],
            "modulus.candidates_per_ok": events["modulus.candidates"] / ok if ok else 0.0,
            "construct.ternary.calls": calls["construct.ternary"],
            "construct.ternary.s": secs["construct.ternary"],
            "construct.anchor.s": secs["construct.anchor"],
            "construct.residual.s": secs["construct.residual"],
            "construct.assemble.s": secs["construct.assemble"],
            "construct.recheck.s": secs["construct.recheck"],
            "decompose.s": secs[ROOT],
            "decompose.self.s": secs[ROOT] - covered[ROOT],
        })
        return out

    def write(self, path) -> None:
        """One JSON line per span: name, start/end in ns, parent index, op."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
