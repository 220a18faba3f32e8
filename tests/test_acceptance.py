"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Stated runtime budgets are asserted.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from bwcmdp import linsolve
from bwcmdp.decomposition import mecs
from bwcmdp.machines import induced_chain
from bwcmdp.model import ThresholdQuery, fixture, negate_weights, normalize
from bwcmdp.synthesis import (PHASE_CAP_LIMIT, AdaptedMachine, CyclingMachine, bas_strategy,
                              bwc_finite_strategy, bwc_infinite_strategy, local_strategies,
                              memoryless_wc_search)
from bwcmdp.systems import decide, ec_expectation_system
from bwcmdp.verification import (bscc_analysis, expected_mp, simulate,
                                 verify_almost_sure, verify_worstcase)
from conftest import random_game, random_mdp, random_query
from oracles import brute_game_value, vertex_feasible, wc_value_unidim


@contextmanager
def criterion(number: int, description: str):
    # Written to the real stdout so the line survives pytest's capture.
    import sys

    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL — {description} ({time.time() - start:.1f}s)",
              file=sys.__stdout__)
        raise
    print(f"\nACCEPTANCE {number}: PASS — {description} ({time.time() - start:.1f}s)",
          file=sys.__stdout__)


def _q(mode, start, mu, nu):
    return ThresholdQuery.build(mode, start, mu, nu)


# ---------------------------------------------------------------------------


def test_criterion_1_decision_table():
    with criterion(1, "four-state fixture decision table, exact, < 1 s"):
        run = fixture("RUN_EX")
        t0 = time.time()
        assert decide(run, _q("bwc-fin", "s", [0, 0], [0, 9])).answer is True
        assert decide(run, _q("bwc-fin", "s", [0, 0], [9, 9])).answer is False
        assert decide(run, _q("bwc-inf", "s", [0, 0], [F(99, 10), F(99, 10)])).answer is True
        assert decide(run, _q("bwc-inf", "s", [0, 0], [10, 10])).answer is False
        assert time.time() - t0 < 1.0


def test_criterion_2_bas_variant():
    with criterion(2, "almost-sure variant decision table, exact, < 1 s"):
        bas = fixture("RUN_EX_BAS")
        t0 = time.time()
        assert decide(bas, _q("bas", "s", [0, 0], [F(99, 10), F(99, 10)])).answer is True
        assert decide(bas, _q("bwc-inf", "s", [0, 0], [6, 6])).answer is False
        assert decide(bas, _q("bwc-inf", "s", [0, 0], [4, 14])).answer is True
        assert time.time() - t0 < 1.0


def test_criterion_3_task_system():
    # Thresholds are stated in per-edge units of the halved cost table
    # (every task is one zero-weight arrival edge plus one weighted serve
    # edge, and all table entries are even): worst-case mean time below
    # 24.5 per task and expected mean energy below 14.5 per task.
    with criterion(3, "task-system query with synthesis round trip, < 5 s"):
        t0 = time.time()
        task = negate_weights(fixture("TASK_EX"), halve=True)
        query = _q("bwc-fin", "0", [F(-49, 8), F(-64)], [F(-49, 8), F(-29, 8)])
        decision = decide(task, query)
        assert decision.answer is True
        machine, prepared, pstart, cap = bwc_finite_strategy(task, query, decision=decision)
        adapted = AdaptedMachine(machine, prepared, task, pstart)
        assert verify_worstcase(task, adapted, query.mu, adapted.start).ok
        exp = expected_mp(induced_chain(task, adapted, adapted.start))
        assert all(e > n for e, n in zip(exp, query.nu))
        assert time.time() - t0 < 5.0

        # The same figures in unhalved weights: thresholds quarter to /4.
        task_full = negate_weights(fixture("TASK_EX"))
        q_full = _q("bwc-fin", "0", [F(-49, 4), F(-64)], [F(-49, 4), F(-29, 4)])
        assert decide(task_full, q_full).answer is True


def test_criterion_4_approximation_closed_form():
    with criterion(4, "cycling combiner closed form a/(2a+2), exact"):
        approx = fixture("APPROX_EX")
        ec = mecs(approx)[0]
        out = linsolve.solve(ec_expectation_system(approx, ec, [F(1, 2), F(1, 2)]))
        locs = local_strategies(approx, ec, out.assignment)
        for a in (1, 3, 10):
            chain = induced_chain(approx, CyclingMachine(approx, ec, locs, a), "s")
            assert expected_mp(chain) == (F(a, 2 * a + 2), F(a, 2 * a + 2))
        for a in range(2, 13):
            chain = induced_chain(approx, CyclingMachine(approx, ec, locs, a), "s")
            assert len(bscc_analysis(chain)) == 1


# ---------------------------------------------------------------------------
# Shared random corpus for criteria 5 and 7.

CORPUS_SEED = 20260810
CORPUS_SIZE = 200


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    out = []
    for _ in range(CORPUS_SIZE):
        mdp = random_mdp(rng)
        q = random_query(rng, mdp, "bwc-fin")
        out.append((mdp, q, rng.randrange(1 << 30)))
    return out


_DECISION_CACHE: dict = {}


def corpus_decisions(corpus):
    cached = _DECISION_CACHE.get(id(corpus))
    if cached is not None:
        return cached
    out = []
    for mdp, q, _ in corpus:
        answers = {}
        decisions = {}
        for mode in ("bwc-fin", "bwc-inf", "bas", "exp", "wc"):
            dec = decide(mdp, ThresholdQuery(mode, q.start, q.mu, q.nu))
            answers[mode] = dec.answer
            decisions[mode] = dec
        out.append((answers, decisions))
    _DECISION_CACHE[id(corpus)] = out
    return out


def test_criterion_5_property_suite(corpus):
    with criterion(5, f"implication chain, monotonicity, normalize-invariance "
                      f"on {CORPUS_SIZE} random instances, < 2 min"):
        t0 = time.time()
        for (mdp, q, _), (answers, _) in zip(corpus, corpus_decisions(corpus)):
            assert not (answers["bwc-fin"] and not answers["bwc-inf"])
            assert not (answers["bwc-inf"] and not answers["bas"])
            assert not (answers["bas"] and not answers["exp"])
            assert not (answers["bwc-inf"] and not answers["wc"])

        rng = random.Random(CORPUS_SEED + 1)
        for (mdp, q, _), (answers, _) in list(zip(corpus, corpus_decisions(corpus)))[:60]:
            # Lowering a component of mu or nu never flips a yes to a no.
            for mode in ("bwc-fin", "bwc-inf", "bas", "exp", "wc"):
                if not answers[mode]:
                    continue
                i = rng.randrange(mdp.dimension)
                drop = F(rng.randint(1, 4), rng.choice([1, 2]))
                mu2 = tuple(m - drop if j == i else m for j, m in enumerate(q.mu))
                nu2 = tuple(n - drop if j == i else n for j, n in enumerate(q.nu))
                assert decide(mdp, ThresholdQuery(mode, q.start, mu2, q.nu)).answer
                assert decide(mdp, ThresholdQuery(mode, q.start, q.mu, nu2)).answer

        for (mdp, q, _), (answers, _) in list(zip(corpus, corpus_decisions(corpus)))[:60]:
            for mode in ("bwc-fin", "bwc-inf", "bas", "exp", "wc"):
                qq = ThresholdQuery(mode, q.start, q.mu, q.nu)
                nmdp, nq = normalize(mdp, qq)
                assert decide(nmdp, nq).answer == answers[mode]
        assert time.time() - t0 < 120


def test_criterion_6_game_oracle_equivalence():
    from bwcmdp.games import wc_winning_region

    with criterion(6, "game values and regions match brute-force max-min on 100 games"):
        rng = random.Random(999)
        for _ in range(100):
            game = random_game(rng)
            want = brute_game_value(game, 0)
            assert wc_value_unidim(game, dim=0) == want
            region = wc_winning_region(game, dims=(0,))
            assert set(region.states) == {s for s, v in want.items() if v > 0}


def test_criterion_7_synthesis_round_trips(corpus):
    with criterion(7, "synthesis round trips verify exactly (fixtures and corpus)"):
        run = fixture("RUN_EX")
        bas_fixture = fixture("RUN_EX_BAS")
        task = negate_weights(fixture("TASK_EX"), halve=True)

        # Finite-memory yes-instances of criteria 1-3: the worst case must
        # hold at every tested phase cap, the expectation at the found one.
        for mdp, query in (
            (run, _q("bwc-fin", "s", [0, 0], [0, 9])),
            (task, _q("bwc-fin", "0", [F(-49, 8), F(-64)], [F(-49, 8), F(-29, 8)])),
        ):
            decision = decide(mdp, query)
            assert decision.answer
            machine, prepared, pstart, cap = bwc_finite_strategy(mdp, query, decision=decision)
            assert cap <= PHASE_CAP_LIMIT
            adapted = AdaptedMachine(machine, prepared, mdp, pstart)
            exp = expected_mp(induced_chain(mdp, adapted, adapted.start))
            assert all(e > n for e, n in zip(exp, query.nu))
            for n in (1, 2, 4, 8, 16):
                m2, p2, s2, _ = bwc_finite_strategy(mdp, query, cap=n, decision=decision)
                a2 = AdaptedMachine(m2, p2, mdp, s2)
                assert verify_worstcase(mdp, a2, query.mu, a2.start).ok

        # General (infinite-memory) yes-instances: the worst-case fallback
        # verifies exactly; the monitored strategy itself is simulate-only.
        for mdp, query in (
            (run, _q("bwc-inf", "s", [0, 0], [F(99, 10), F(99, 10)])),
            (bas_fixture, _q("bwc-inf", "s", [0, 0], [4, 14])),
        ):
            strat = bwc_infinite_strategy(mdp, query, period=256)
            mu0 = [F(0)] * mdp.dimension
            for s in strat.mdp.state_ids:
                assert verify_worstcase(strat.mdp, strat.fwc, mu0, start=s).ok
            rep = simulate(mdp, strat, query.start, horizon=2000, runs=200, seed=1,
                           mu=query.mu)
            assert rep.monitor_violations == 0
            assert rep.exceed_fraction == 1.0

        # Almost-sure yes-instances: fixture plus every corpus hit.
        for mdp, query in ((bas_fixture, _q("bas", "s", [0, 0], [F(99, 10), F(99, 10)])),):
            machine, prepared, start = bas_strategy(mdp, query)
            assert verify_almost_sure(prepared, machine, [F(0), F(0)], start)
            assert expected_mp(induced_chain(prepared, machine, start)) == (F(10), F(10))

        count = 0
        for (mdp, q, _), (answers, decisions) in zip(corpus, corpus_decisions(corpus)):
            if not answers["bas"]:
                continue
            count += 1
            query = ThresholdQuery("bas", q.start, q.mu, q.nu)
            machine, prepared, start = bas_strategy(mdp, query, decision=decisions["bas"])
            witness = decisions["bas"].witness
            exp = expected_mp(induced_chain(prepared, machine, start))
            assert all(e > n for e, n in zip(exp, witness.nu))
            assert verify_almost_sure(prepared, machine, [F(0)] * mdp.dimension, start)
        assert count > 0


def test_criterion_8_infinite_memory_behaviour():
    with criterion(8, "monitored infinite strategy: 1e4 runs at 1e4 horizon, "
                      "means within 1.0 of 10, zero monitor violations, < 1 min"):
        t0 = time.time()
        run = fixture("RUN_EX")
        query = _q("bwc-inf", "s", [0, 0], [F(99, 10), F(99, 10)])
        # Tune the period by pilot simulation: first candidate whose pilot
        # means sit within half the tolerance.
        tuned = None
        for period in (1024, 2048, 4096):
            strat = bwc_infinite_strategy(run, query, period=period)
            pilot = simulate(run, strat, "s", horizon=4000, runs=300, seed=17)
            if all(abs(m - 10.0) <= 0.5 for m in pilot.mean) and pilot.monitor_violations == 0:
                tuned = (period, strat)
                break
        assert tuned is not None, "no period candidate passed the pilot"
        period, strat = tuned
        rep = simulate(run, strat, "s", horizon=10_000, runs=10_000, seed=0,
                       mu=[F(0), F(0)])
        assert rep.monitor_violations == 0
        assert abs(rep.mean[0] - 10.0) <= 1.0 and abs(rep.mean[1] - 10.0) <= 1.0
        assert rep.exceed_fraction == 1.0
        assert time.time() - t0 < 60


def test_criterion_9_lp_exactness():
    with criterion(9, "simplex exactness and vertex-enumeration agreement on 100+ systems"):
        rng = random.Random(4242)
        checked = 0
        for _ in range(140):
            nvars = rng.randint(1, 4)
            system = linsolve.LinearSystem(variables=[f"v{i}" for i in range(nvars)])
            for _ in range(rng.randint(1, 6)):
                coeffs = {f"v{i}": F(rng.randint(-3, 3), rng.choice([1, 2]))
                          for i in range(nvars)}
                system.add(coeffs, rng.choice(["=", ">=", ">="]), F(rng.randint(-4, 4)))
            out = linsolve.solve(system)
            assert (out.status != "infeasible") == vertex_feasible(system)
            if out.assignment is not None:
                assert linsolve.check_assignment(system, out)
            checked += 1
        assert checked >= 100

        # Strict rows re-substitute with margin >= the reported slack.
        for _ in range(60):
            nvars = rng.randint(1, 3)
            system = linsolve.LinearSystem(variables=[f"v{i}" for i in range(nvars)])
            for _ in range(rng.randint(1, 4)):
                coeffs = {f"v{i}": F(rng.randint(-2, 2)) for i in range(nvars)}
                system.add(coeffs, rng.choice(["=", ">=", ">", ">"]), F(rng.randint(-2, 2)))
            out = linsolve.solve(system)
            if out.assignment is not None:
                assert linsolve.check_assignment(system, out)
