"""The three workloads: set-up, one timed pass, and correctness checks.

A workload object is built from the seed and a scratch directory (its
inputs and files), warmed up once untimed, then run in rounds of
``PASSES`` passes; ``run_pass(tally, part)`` returns one pass's results,
and ``check`` tests the first round's (later rounds must repeat
``answers`` exactly).  Every operation is recorded in the pass's
``Tally``.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from collections import defaultdict
from fractions import Fraction

# Called as cli.main and systems.decide, so that a traced run's patches apply.
from bwcmdp import cli, systems
from bwcmdp.jsonio import save_mdp
from bwcmdp.model import ThresholdQuery, fixture, negate_weights
from bwcmdp.rationals import format_vector

import checks
import gen
from speed import Speed


class Tally:
    """Operations attempted and failed in one pass, and their CPU time per
    kind of operation; ``speed`` times the reference kernel in between."""

    def __init__(self):
        self.speed = Speed()
        self.attempted = 0
        self.failed = 0
        self.decide_s: list[float] = []  # latencies, scaled by the local speed
        self.verb_s: dict[str, float] = defaultdict(float)
        self.verb_n: dict[str, int] = defaultdict(int)
        self.steps: dict[str, int] = defaultdict(int)
        self.errors: list[str] = []

    def op(self, kind: str, fn, *args):
        """Run one operation, timing it (CPU time) under ``kind``; failures
        return None."""
        self.speed.tick()
        local = self.speed.local()
        self.attempted += 1
        t0 = time.process_time()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation, counted and reported
            self.failed += 1
            self.errors.append(f"{kind}: {exc!r}")
            return None
        elapsed = time.process_time() - t0
        if kind == "decide":
            self.decide_s.append(elapsed * local)
        self.verb_s[kind] += elapsed
        self.verb_n[kind] += 1
        return result


def _answers(results: list) -> list:
    """The yes/no answers of a decide pass, the part later passes repeat."""
    return [{m: None if d is None else d.answer for m, d in row.items()} for row in results]


# ---------------------------------------------------------------------------
# corpus-decide


class CorpusDecide:
    """672 seeded corpus instances (16 of each corpus shape), each decided in
    the bwc-fin, exp and wc modes: 2016 decides a round, in four passes of
    168 instances (4 of each shape).  The median over the four passes
    keeps the few instances that take a hundred times the median decide
    from swinging the pass time with the seed.

    The bas and bwc-inf modes are left out: on some seeds they answer no
    where the implication chain demands yes (see CHANGES.md), so a pass
    could not be checked correct on every seed.
    """

    PASSES = 4
    SIZE = PASSES * 4 * len(gen.CORPUS_SHAPES)
    MODES = ("bwc-fin", "exp", "wc")

    def __init__(self, seed: int, work):
        self.instances = gen.corpus(seed, self.SIZE)

    def warm_up(self) -> None:
        run = fixture("RUN_EX")
        for mode in self.MODES:
            systems.decide(run, ThresholdQuery.build(mode, "s", [0, 0], [0, 9]))

    def run_pass(self, tally: Tally, part: int) -> list:
        size = self.SIZE // self.PASSES
        out = []
        for mdp, q in self.instances[part * size:(part + 1) * size]:
            row = {}
            for mode in self.MODES:
                row[mode] = tally.op("decide", systems.decide, mdp,
                                     ThresholdQuery(mode, q.start, q.mu, q.nu))
            out.append(row)
        return out

    answers = staticmethod(_answers)

    def check(self, parts: list) -> list[str]:
        problems = []
        results = [row for part in parts for row in part]
        for k, ((mdp, q), row) in enumerate(zip(self.instances, results)):
            if any(d is None for d in row.values()):
                continue
            label = f"instance {k}"
            answers = {m: d.answer for m, d in row.items()}
            problems += checks.implications(label, answers)
            for mode, d in row.items():
                if d.answer and mode != "wc":
                    problems += checks.witness(label, mode, d)
            if mdp.dimension == 1 and answers["wc"] != checks.unidim_wc(mdp, q.start, q.mu[0]):
                problems.append(f"{label}: wc answer {answers['wc']} disagrees with max-min")
        return problems


# ---------------------------------------------------------------------------
# wc-games


class WcGames:
    """Game-shaped MDPs with 64 memoryless spoilers each, decided in wc and
    bwc-fin."""

    PASSES = 1
    SIZE = 12
    MODES = ("wc", "bwc-fin")

    def __init__(self, seed: int, work):
        self.instances = gen.games(seed, self.SIZE)

    def warm_up(self) -> None:
        mdp, q = self.instances[0]
        systems.decide(mdp, ThresholdQuery("wc", q.start, q.mu, q.nu))

    def run_pass(self, tally: Tally, part: int) -> list:
        out = []
        for mdp, q in self.instances:
            out.append({mode: tally.op("decide", systems.decide, mdp,
                                       ThresholdQuery(mode, q.start, q.mu, q.nu))
                        for mode in self.MODES})
        return out

    answers = staticmethod(_answers)

    def check(self, parts: list) -> list[str]:
        problems = []
        results, = parts
        for k, ((mdp, q), row) in enumerate(zip(self.instances, results)):
            if any(d is None for d in row.values()):
                continue
            label = f"game {k}"
            wc, fin = row["wc"], row["bwc-fin"]
            if wc.answer != checks.game_wc(mdp, q.start, q.mu):
                problems.append(f"{label}: wc answer {wc.answer} disagrees with spoiler enumeration")
            if fin.answer and not wc.answer:
                problems.append(f"{label}: bwc-fin yes but wc no")
            if fin.answer:
                problems += checks.witness(label, "bwc-fin", fin)
            for mode, d in row.items():
                # A stored spoiler must beat the start state (the normalized
                # MDP keeps state ids and edge ids).
                if d.certificate is not None and not checks.spoiler_wins(
                        mdp, q.start, q.mu, d.certificate.as_dict()):
                    problems.append(f"{label} {mode}: certificate does not spoil")
        return problems


# ---------------------------------------------------------------------------
# synth-sim


def _cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call; returns (exit code, stdout).  Exit code 2
    counts as a failed operation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc == 2:
        raise RuntimeError(f"exit 2: {err.getvalue().strip()}")
    return rc, out.getvalue()


class SynthSim:
    """The CLI verbs on the paper's fixtures and on corpus yes-instances:
    decide (the paper's decision tables), synthesize, verify, simulate."""

    PASSES = 1
    CANDIDATES = 48       # corpus instances decided in set-up
    # The candidates come from a fixed corpus seed: with the workload seed,
    # set-up took 1.8 to 4.2 s depending on the seed.  The workload seed
    # drives the simulations.
    CANDIDATE_SEED = 1504_08211
    PER_MODE = 4          # corpus yes-instances synthesized per mode
    CHAIN_RUNS, CHAIN_HORIZON = 1000, 2000
    MONITOR_RUNS, MONITOR_HORIZON = 1000, 4000

    # The paper's decision tables on RUN_EX and RUN_EX_BAS, all from s with
    # mu = (0, 0): (fixture, mode, nu, expected exit code).
    TABLE = (("run", "bwc-fin", "0,9", 0), ("run", "bwc-fin", "9,9", 1),
             ("run", "bwc-inf", "99/10,99/10", 0), ("run", "bwc-inf", "10,10", 1),
             ("bas", "bas", "99/10,99/10", 0), ("bas", "bwc-inf", "6,6", 1),
             ("bas", "bwc-inf", "4,14", 0))

    def __init__(self, seed: int, work):
        self.seed = seed
        self.work = work
        self.paths = {}
        # Items: (label, mdp path, max |weight|, mode, start, mu, nu).
        self.items = []

        def add(label, name, mdp, mode, start, mu, nu):
            if name not in self.paths:
                self.paths[name] = str(work / f"{name}.json")
                save_mdp(self.paths[name], mdp)
            self.items.append((label, self.paths[name], mdp.max_abs_weight, mode, start, mu, nu))

        run, bas = fixture("RUN_EX"), fixture("RUN_EX_BAS")
        add("RUN_EX", "run", run, "bwc-fin", "s", "0,0", "0,9")
        add("RUN_EX", "run", run, "bwc-inf", "s", "0,0", "99/10,99/10")
        add("RUN_EX_BAS", "bas", bas, "bas", "s", "0,0", "99/10,99/10")
        add("TASK_EX", "task", negate_weights(fixture("TASK_EX"), halve=True), "bwc-fin", "0",
            "-49/8,-64", "-49/8,-29/8")
        found = {"bas": 0, "bwc-fin": 0, "bwc-inf": 0}
        for k, (mdp, q) in enumerate(gen.corpus(self.CANDIDATE_SEED, self.CANDIDATES)):
            for mode in found:
                if systems.decide(mdp, ThresholdQuery(mode, q.start, q.mu, q.nu)).answer \
                        and found[mode] < self.PER_MODE:
                    found[mode] += 1
                    add(f"corpus {k}", f"corpus{k}", mdp, mode, q.start,
                        format_vector(q.mu), format_vector(q.nu))

    def warm_up(self) -> None:
        _cli(self._decide_argv(*self.TABLE[0][:3]))

    def _decide_argv(self, name: str, mode: str, nu: str) -> list[str]:
        return ["decide", "--mdp", self.paths[name], "--mode", mode, "--from", "s",
                "--mu=0,0", f"--nu={nu}"]

    def _decide_table(self, tally: Tally, out: dict) -> None:
        for name, mode, nu, _ in self.TABLE:
            out["decide"].append(tally.op("decide", _cli, self._decide_argv(name, mode, nu)))

    def _strategy(self, k: int) -> str:
        return str(self.work / f"strategy{k}.json")

    def _sim_argv(self, k: int) -> list[str]:
        _, path, _, mode, start, mu, _ = self.items[k]
        runs, horizon = ((self.MONITOR_RUNS, self.MONITOR_HORIZON) if mode == "bwc-inf"
                         else (self.CHAIN_RUNS, self.CHAIN_HORIZON))
        argv = ["simulate", "--mdp", path, "--strategy", self._strategy(k), "--from", start,
                "--runs", str(runs), "--horizon", str(horizon), "--seed", str(self.seed)]
        return argv + ([f"--mu={mu}"] if mode == "bwc-inf" else [])

    def _simulated(self, k: int) -> bool:
        # Monitor strategies are simulated for RUN_EX only: loading one that
        # was synthesized on another MDP fails (see CHANGES.md).
        label, _, _, mode, _, _, _ = self.items[k]
        return mode != "bwc-inf" or label == "RUN_EX"

    def run_pass(self, tally: Tally, part: int) -> dict:
        # The decision tables run three times, spread over the pass, so that
        # the decide latencies sample more than one stretch of time.
        out = {"decide": [], "synthesize": [], "verify": [], "simulate": []}
        self._decide_table(tally, out)
        for k, (_, path, _, mode, start, mu, nu) in enumerate(self.items):
            out["synthesize"].append(tally.op("synthesize", _cli, [
                "synthesize", "--mdp", path, "--mode", mode, "--from", start,
                f"--mu={mu}", f"--nu={nu}", "--out", self._strategy(k)]))
        self._decide_table(tally, out)
        for k, (_, path, _, mode, start, mu, nu) in enumerate(self.items):
            if mode == "bwc-inf":
                continue  # simulate-only strategies
            for check in ("wc" if mode == "bwc-fin" else "as", "exp"):
                threshold = f"--nu={nu}" if check == "exp" else f"--mu={mu}"
                out["verify"].append((k, check, tally.op("verify", _cli, [
                    "verify", "--mdp", path, "--strategy", self._strategy(k), "--from", start,
                    "--check", check, threshold])))
        self._decide_table(tally, out)
        for k, (_, _, _, mode, _, _, _) in enumerate(self.items):
            if not self._simulated(k):
                continue
            kind = "simulate-monitor" if mode == "bwc-inf" else "simulate-chain"
            result = tally.op(kind, _cli, self._sim_argv(k))
            out["simulate"].append((k, result))
            if result is not None:
                tally.steps[kind] += (self.MONITOR_RUNS * self.MONITOR_HORIZON
                                      if mode == "bwc-inf"
                                      else self.CHAIN_RUNS * self.CHAIN_HORIZON)
        return out

    @staticmethod
    def answers(results) -> dict:
        return results

    def check(self, parts: list) -> list[str]:
        problems = []
        results, = parts
        codes = [None if r is None else r[0] for r in results["decide"]]
        if codes != [want for _, _, _, want in self.TABLE] * 3:
            problems.append(f"decision table exit codes {codes}")
        for k, r in enumerate(results["synthesize"]):
            if r is not None and r[0] != 0:
                problems.append(f"{self.items[k][0]} {self.items[k][3]}: synthesize exit {r[0]}")
        expectation = {}
        for k, check, r in results["verify"]:
            if r is None:
                continue
            rc, text = r
            report = json.loads(text)
            if rc != 0 or not report["ok"]:
                problems.append(f"{self.items[k][0]} {self.items[k][3]}: verify {check} fails")
            if check == "exp":
                expectation[k] = [float(Fraction(x)) for x in report["expectation"]]
        for k, r in results["simulate"]:
            if r is None:
                continue
            label, _, weight, mode, _, _, _ = self.items[k]
            report = json.loads(r[1])
            if mode == "bwc-inf":
                if report["monitor_violations"] != 0 or report["exceed_fraction"] != 1.0:
                    problems.append(f"{label} monitor: {report['monitor_violations']} violations, "
                                    f"exceed fraction {report['exceed_fraction']}")
                if any(abs(m - 10.0) > 1.0 for m in report["mean"]):
                    problems.append(f"{label} monitor: means {report['mean']} not within 1 of 10")
                continue
            if k not in expectation:
                continue
            for mean, sd, exact in zip(report["mean"], report["stddev"], expectation[k]):
                tol = checks.mc_tolerance(sd, report["runs"], report["horizon"], weight)
                if abs(mean - exact) > tol:
                    problems.append(f"{label} {mode}: simulated mean {mean} vs exact {exact} "
                                    f"(tolerance {tol:.4f})")
        # Seeded simulation is reproducible: repeat the first chain and the
        # monitor with the same seed.
        done = {k: r for k, r in results["simulate"] if r is not None}
        chains = [k for k in done if self.items[k][3] != "bwc-inf"]
        monitors = [k for k in done if self.items[k][3] == "bwc-inf"]
        for k in chains[:1] + monitors[:1]:
            if _cli(self._sim_argv(k)) != done[k]:
                problems.append(f"{self.items[k][0]} {self.items[k][3]}: repeated simulate differs")
        return problems


WORKLOADS = {
    "corpus-decide": CorpusDecide,
    "wc-games": WcGames,
    "synth-sim": SynthSim,
}
