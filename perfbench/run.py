"""Benchmark of the bwcmdp toolkit: one command per workload.

    python3 perfbench/run.py --workload corpus-decide --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout; the package is imported from
``src/`` without being installed.  Set-up (import, input generation,
fixture files, one warm-up) is timed apart from the passes.  Passes run
back to back in rounds (a round is one pass, or four for corpus-decide),
at least one, while the next round is expected to end within
``--seconds``.  Correctness checks run after the timed passes.  Times are
process CPU times scaled to the reference speed of ``speed.py``.  The
last line of standard output is the JSON result; the line before it is
a human-readable summary.  With ``--trace 1`` the run makes one untraced
and one traced round and reports per-layer metrics instead, plus the
tracing overhead; the spans are written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# One thread for any BLAS behind NumPy; this must precede the first import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3


class Pass:
    """One timed pass: its tally, and its CPU times scaled by the pass's
    speed factor (kernel bursts excluded); decide latencies come scaled by
    the local factor from the tally."""

    def __init__(self, workload, tally, part):
        wall, cpu = time.perf_counter(), time.process_time()
        self.results = workload.run_pass(tally, part)
        self.wall_s = time.perf_counter() - wall
        raw = time.process_time() - cpu - tally.speed.busy
        self.factor = tally.speed.factor()
        self.tally = tally
        self.cpu_s = raw * self.factor
        self.decide_s = tally.decide_s

    def verb_s(self, kind: str) -> float:
        return self.tally.verb_s.get(kind, 0.0) * self.factor


def verb_rates(passes: list[Pass]) -> dict[str, tuple[float, str]]:
    """Per-verb rates over some passes: 0 for a verb the workload does not
    run, and for the 99th percentile when fewer than 1000 decides ran."""
    def per_s(kind, amount):
        busy = sum(p.verb_s(kind) for p in passes)
        return amount / busy if busy else 0.0

    def count(kind):
        return sum(p.tally.verb_n.get(kind, 0) for p in passes)

    def steps(kind):
        return sum(p.tally.steps.get(kind, 0) for p in passes)

    decides = sorted(x for p in passes for x in p.decide_s)
    p99 = decides[int(0.99 * len(decides))] if len(decides) >= 1000 else 0.0
    return {
        "decide_p99_ms": (1e3 * p99, "ms"),
        "synth_per_s": (per_s("synthesize", count("synthesize")), "1/s"),
        "verify_per_s": (per_s("verify", count("verify")), "1/s"),
        "sim_chain_steps_per_s": (per_s("simulate-chain", steps("simulate-chain")), "steps/s"),
        "sim_monitor_steps_per_s": (per_s("simulate-monitor", steps("simulate-monitor")),
                                    "steps/s"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "bwcmdp" / "__init__.py").is_file():
        print(f"error: no bwcmdp sources under {src}", file=sys.stderr)
        return 2

    t0 = time.process_time()
    sys.path[:0] = [str(src), str(HERE)]
    import bwcmdp.cli  # noqa: F401  (every module the workloads touch)
    import bwcmdp.synthesis  # noqa: F401
    import spans
    from speed import Speed
    from workloads import WORKLOADS, Tally
    import_s = time.process_time() - t0

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = OUT / f"work-{args.workload}"
    work.mkdir(parents=True, exist_ok=True)

    # Each repetition is scaled by the speed measured just before and after it.
    setups, speed = [], Speed()
    speed.bursts(5)
    before = speed.local()
    for _ in range(SETUP_REPEATS):
        t = time.process_time()
        workload = WORKLOADS[args.workload](args.seed, work)
        workload.warm_up()
        raw = time.process_time() - t
        speed.bursts(5)
        after = speed.local()
        setups.append(raw * (before + after) / 2)
        before = after
    setup_s = import_s * speed.factor() + statistics.median(setups)

    def run_round() -> list[Pass]:
        return [Pass(workload, Tally(), part) for part in range(workload.PASSES)]

    def answers(round_: list[Pass]) -> list:
        return [workload.answers(q.results) for q in round_]

    rounds: list[list[Pass]] = [run_round()]
    mismatch = False
    if args.trace:
        rec = spans.Recorder()
        undo = spans.install(rec)
        try:
            rounds.append(run_round())
        finally:
            undo()
    else:
        def wall(round_):
            return sum(q.wall_s for q in round_)

        while sum(map(wall, rounds)) + wall(rounds[-1]) <= args.seconds:
            rounds.append(run_round())
            mismatch |= answers(rounds[-1]) != answers(rounds[0])
    passes = [q for round_ in rounds for q in round_]

    problems = workload.check([q.results for q in rounds[0]])
    if mismatch:
        problems.append("a later pass gave different answers from the first")
    errors = [e for q in passes for e in q.tally.errors]
    for line in errors[:5] + problems[:20]:
        print(line, file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    decides = [x for q in passes for x in q.decide_s]
    summary = {
        "passes": len(passes),
        "pass_s": [round(q.cpu_s, 4) for q in passes],
        "pass_wall_s": [round(q.wall_s, 4) for q in passes],
        "speed_factor": [round(q.factor, 4) for q in passes],
        "decides": len(decides),
        **{name: value for name, (value, _) in verb_rates(passes).items()},
        "problems": len(problems),
    }
    if args.trace:
        untraced, traced = rounds
        traced_s = sum(q.cpu_s for q in traced)
        factor = traced_s / sum(q.cpu_s / q.factor for q in traced)
        # Verb rates from the untraced round; layer times scaled like the rest.
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in verb_rates(untraced).items()}
        for name, (value, unit) in spans.layer_metrics(rec).items():
            metrics[name] = {"value": value * factor if unit == "s" else value,
                             "unit": unit}
        probe = Speed()
        probe.bursts(25)
        overhead = spans.overhead_s(rec)
        probe.bursts(25)
        overhead *= probe.factor()
        summary["traced_over_untraced"] = traced_s / sum(q.cpu_s for q in untraced)
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead / (traced_s - overhead),
                                         "unit": "%"}
        rec.write(stem.with_name(stem.name + "-spans.json"))
    else:
        rates = [len(q.decide_s) / sum(q.decide_s) for q in passes]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "pass_s": {"value": statistics.median(q.cpu_s for q in passes), "unit": "s"},
            "decide_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "decide_p50_ms": {"value": 1e3 * statistics.median(decides), "unit": "ms"},
        }
    result = {"correct": not problems,
              "attempted": sum(q.tally.attempted for q in passes),
              "failed": sum(q.tally.failed for q in passes),
              "metrics": metrics}
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump({"summary": summary, **result}, fh, indent=1)
    print("summary: " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
