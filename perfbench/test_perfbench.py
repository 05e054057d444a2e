"""Self-checks of the benchmark: run with `python3 -m pytest perfbench`.

They pin what the per-layer figures mean: the traced counts repeat exactly
for a seed, the layers predicted idle on a workload are idle, and the
independent checker rejects traces that are wrong in each checked way.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from checks import check_trace  # noqa: E402
from inputs import WORKLOADS, _Permutation  # noqa: E402
from tracing import ROOT as ROOT_SPAN, Tracer  # noqa: E402

from sevencubes import decompose  # noqa: E402

COUNTS = ("modulus.candidates", "modulus.rejected_q")


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["descent", "construct", "huge"])
def test_traced_counts_repeat_and_predicted_zeros(workload):
    first, second = _traced(workload, 7), _traced(workload, 7)
    counts = [k for k in first if k.endswith(".calls") or k in COUNTS]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    if workload == "descent":
        assert first["search.descent.calls"] > 0
    else:
        assert first["search.descent.calls"] == 0
        assert first["construct.ternary.calls"] > 0
    if workload == "huge":
        assert first["arith.factorize.calls"] == 0
    if workload == "construct":
        assert first["arith.factorize.calls"] > 0


def _n0(n: int) -> int:
    while n % 125 == 0:
        n //= 125
    return n


def test_descent_factors_and_fibres_only_on_identity_route():
    workload = WORKLOADS["descent"]
    tracer = Tracer()
    targets = []
    with tracer.installed():
        rounds = workload.rounds(3)
        for _ in range(50):
            for n in next(rounds):
                tracer.op = len(targets)
                targets.append((n, tracer.call(ROOT_SPAN, decompose, n)))
                tracer.op = None
    per_op = tracer.per_op()
    identity_ops = 0
    for op, (n, trace) in enumerate(targets):
        spans = per_op[op]
        if spans["arith.factorize"] or spans["construct.ternary"]:
            assert _n0(n) % 4 == 2, n
        if spans["construct.ternary"]:
            assert trace.p_value is not None, n
            identity_ops += 1
    assert identity_ops > 0


def test_checker_rejects_each_kind_of_wrong_trace():
    good = decompose(202258)  # p = 5, x0 = 2, q = 225
    assert check_trace(202258, good) is None
    p, x0 = good.p_value, good.x0
    bad = {
        "cube sum": dataclasses.replace(good, cubes=(good.cubes[0] + 1,) + good.cubes[1:]),
        "n0, e": dataclasses.replace(good, e=1),
        "window": dataclasses.replace(good, p_value=p + 4),
        "factor": dataclasses.replace(good, p_factors=(5, 5)),
        "anchor": dataclasses.replace(good, x0=x0 + 6 * p + 1),
        "witness": dataclasses.replace(good, x1=good.x1 + 1),
    }
    for what, trace in bad.items():
        assert check_trace(202258, trace) is not None, what
    # p = 11 * 191 * 3923; the product alone is == 5 (mod 6) but not prime
    n = 10**24 + 6
    three = decompose(n)
    assert three.p_factors == (11, 191, 3923) and check_trace(n, three) is None
    merged = dataclasses.replace(three, p_factors=(three.p_value,))
    assert "not a prime" in check_trace(n, merged)


@pytest.mark.parametrize("workload", ["descent", "construct", "huge"])
def test_inputs_are_seeded_distinct_and_avoid_warmup(workload):
    w = WORKLOADS[workload]

    def first(seed, k=3):
        rounds = w.rounds(seed)
        return [n for _ in range(k) for n in next(rounds)]

    a = first(1)
    assert a == first(1) and a != first(2)
    assert len(set(a)) == len(a) and not set(a) & set(w.warmup)


def test_permutation_is_a_bijection():
    import random

    perm = _Permutation(1000, random.Random(0))
    assert sorted(perm(i) for i in range(1000)) == list(range(1000))
