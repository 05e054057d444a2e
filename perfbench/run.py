"""Benchmark for `sevencubes.decompose`, driven from one process and one thread.

    python3 perfbench/run.py --workload descent --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
With `--trace 0` the run measures end-to-end metrics for `--seconds` seconds
of whole rounds of targets; with `--trace 1` it decomposes a fixed traced
batch with spans at every layer boundary and reports per-layer totals.  The
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_LAUNCHES = 15  # timed CLI cold starts per run, spread over it; setup_s is their median
COLDSTART_LAUNCHES = 3  # per-stage cold starts per traced run
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "ok_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop.  Printed with each run so a
    slow host can be told apart from a slow program; it is not a metric."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        x = 0
        for i in range(200_000):
            x = (x * 31 + i) & 0xFFFFF
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _launch(args: list[str]) -> tuple[float, str]:
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{args} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, proc.stdout


def cli_setup_s(target: int) -> float:
    """Wall time of one `python -m sevencubes decompose target`, from start
    to exit, in a fresh interpreter; the printed decomposition is checked."""
    elapsed, out = _launch(["-m", "sevencubes", "decompose", str(target)])
    lhs, _, rhs = out.strip().partition(" = ")
    bases = [int(term.removesuffix("^3")) for term in rhs.split(" + ")]
    if int(lhs) != target or len(bases) != 7 or sum(b**3 for b in bases) != target:
        raise RuntimeError(f"CLI printed a wrong decomposition: {out!r}")
    return elapsed


def coldstart_stages(target: int) -> dict[str, float]:
    """Per-stage medians of coldstart.py over COLDSTART_LAUNCHES launches."""
    script = str(HERE / "coldstart.py")
    runs = [json.loads(_launch([script, str(target)])[1]) for _ in range(COLDSTART_LAUNCHES)]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def nearest_rank(sorted_values, percentile: float) -> tuple[float, int]:
    """The nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Outcome:
    """Counts of attempted, failed and wrong operations, with examples."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.examples: list[str] = []

    def fail(self, n: int, why: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.examples) < 5:
            self.examples.append(f"{n}: {why}")


def decompose_round(decompose, batch) -> list[tuple[int, object, float]]:
    """Decompose the targets of one round back to back: (n, trace or the
    exception raised, seconds spent inside `decompose`) for each."""
    results = []
    for n in batch:
        t0 = perf_counter()
        try:
            trace = decompose(n)
        except Exception as exc:  # any exception is a failed operation
            results.append((n, exc, perf_counter() - t0))
        else:
            results.append((n, trace, perf_counter() - t0))
    return results


def check_round(check_trace, results, outcome: Outcome) -> list[float]:
    """Count a round's results into outcome; the seconds of the verified ones."""
    ok = []
    for n, trace, dt in results:
        outcome.attempted += 1
        if isinstance(trace, Exception):
            outcome.fail(n, f"{type(trace).__name__}: {trace}", wrong=False)
        elif why := check_trace(n, trace):
            outcome.fail(n, why, wrong=True)
        else:
            ok.append(dt)
    return ok


def warm_up(workload, decompose, check_trace) -> None:
    """Decompose the warm-up targets, so lazy tables are built before timing,
    then move every live object out of the collector's scans: the checker's
    and the harness's objects would otherwise be rescanned by full GC passes."""
    warm = Outcome()
    check_round(check_trace, decompose_round(decompose, workload.warmup), warm)
    if warm.failed:
        raise RuntimeError(f"warm-up failed: {warm.examples}")
    gc.collect()
    gc.freeze()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(workload, seed: int, seconds: float, decompose, check_trace):
    """Whole rounds of targets until `seconds` have been spent on rounds.

    Each round is decomposed back to back and checked afterwards, so the
    checker does not run between timed calls.  The SETUP_LAUNCHES cold starts
    of setup_s are made between rounds, one every `seconds / SETUP_LAUNCHES`
    of round time, so that they sample the host's speed across the whole run;
    their time does not count towards `seconds`.  ok_per_s is the number of
    verified decompositions over the time spent inside decompose.
    peak_rss_mb is taken after a fixed number of rounds, because the
    program's caches grow with every target: at the end of the run it would
    grow with the host's speed."""
    outcome = Outcome()
    latencies = array("d")
    launches: list[float] = []
    peak_rss_mb = None
    spent = 0.0
    for done, batch in enumerate(workload.rounds(seed), 1):
        if len(launches) < SETUP_LAUNCHES and spent >= len(launches) * seconds / SETUP_LAUNCHES:
            launches.append(cli_setup_s(workload.warmup[0]))
        t0 = perf_counter()
        latencies.extend(check_round(check_trace, decompose_round(decompose, batch), outcome))
        spent += perf_counter() - t0
        if done == workload.rss_rounds:
            peak_rss_mb = _peak_rss_mb()
        if spent >= seconds:
            break
    while len(launches) < SETUP_LAUNCHES:  # a round longer than a launch interval
        launches.append(cli_setup_s(workload.warmup[0]))
    if peak_rss_mb is None:  # a run too short to reach rss_rounds
        peak_rss_mb = _peak_rss_mb()
    lat = sorted(latencies)
    tail, beyond = nearest_rank(lat, workload.tail_percentile)
    metrics = {
        "ok_per_s": len(lat) / math.fsum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "setup_s": statistics.median(launches),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "ok": len(lat),
        "tail_percentile": workload.tail_percentile,
        "tail_samples_beyond": beyond,
        "max_ms": lat[-1] * 1e3,
        "setup_launches_s": [round(t, 4) for t in launches],
    }
    return outcome, metrics, info


def traced_run(workload, seed: int, decompose, check_trace):
    """The fixed traced batch (the first `traced_rounds` rounds of the seed)
    with spans at every layer boundary; warm-up runs under the same spans so
    that first-use table builds are seen."""
    from tracing import ROOT as ROOT_SPAN, Tracer

    tracer = Tracer()
    outcome = Outcome()
    rounds = workload.rounds(seed)

    def traced(n):
        return tracer.call(ROOT_SPAN, decompose, n)

    with tracer.installed():
        warm_up(workload, traced, check_trace)
        t0 = perf_counter()
        for _ in range(workload.traced_rounds):
            for n in next(rounds):
                tracer.op = outcome.attempted
                check_round(check_trace, decompose_round(traced, [n]), outcome)
                tracer.op = None
        elapsed = perf_counter() - t0
    ok = outcome.attempted - outcome.failed
    metrics = tracer.metrics(ok)
    metrics.update(coldstart_stages(workload.warmup[0]))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    info = {"traced_ok_per_s": ok / elapsed if elapsed else 0.0, "spans": str(spans_path)}
    return outcome, metrics, info


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".calls") or name in ("modulus.candidates", "modulus.rejected_q"):
        return "count"
    if name.endswith("_per_ok"):
        return "ratio"
    return "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("descent", "construct", "huge"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sevencubes" / "__init__.py").is_file():
        print(f"error: no sevencubes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from checks import check_trace
    from inputs import WORKLOADS
    from sevencubes import decompose

    workload = WORKLOADS[args.workload]
    probe_before = host_probe_ms()
    if args.trace:
        outcome, metrics, info = traced_run(workload, args.seed, decompose, check_trace)
    else:
        warm_up(workload, decompose, check_trace)
        outcome, metrics, info = timed_run(workload, args.seed, args.seconds,
                                           decompose, check_trace)
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "host_probe_ms": [round(probe_before, 3), round(host_probe_ms(), 3)],
        "failures": outcome.examples,
    })
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
