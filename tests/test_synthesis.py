"""Strategy synthesis: plans, locals, combiners, round trips, monitors."""

from fractions import Fraction as F

import pytest

from bwcmdp import linsolve
from bwcmdp.decomposition import mecs, restrict
from bwcmdp.machines import MachineError, TableMachine, induced_chain, memoryless
from bwcmdp.model import Mdp, ThresholdQuery, fixture, negate_weights
from bwcmdp.systems import decide, ec_expectation_system
from bwcmdp.synthesis import (CHAIN_LIMIT, DWELL_CAP, ENUM_BUDGET, AdaptedMachine,
                              CyclingMachine, MonitoredMachine, _doubling, _plain_rungs,
                              _wc_candidates, _witness_parts, bas_strategy,
                              bwc_finite_strategy, bwc_infinite_strategy, local_strategies,
                              memoryless_wc_search, phase1_strategy)
from bwcmdp.verification import (bscc_analysis, expected_mp, simulate,
                                 verify_almost_sure, verify_worstcase)
from oracles import TotalPayoffMonitor, recovery_length, wec_combined


def _query(mode, mu, nu, start="s"):
    return ThresholdQuery.build(mode, start, mu, nu)


# -- phase-1 plans -----------------------------------------------------------

def test_phase1_trivial_witness(run_ex):
    dec = decide(run_ex, _query("bwc-fin", [0, 0], [0, 9]))
    plan = phase1_strategy(dec.witness)
    assert plan.continuation["s"] == {0: F(1)}
    assert plan.switch["t"] == 1
    # Zero-inflow states carry an arbitrary fixed edge and stay unreachable.
    assert plan.switch["u"] == 0
    assert len(plan.continuation["u"]) == 1


def test_lean_witness_synthesizes_the_same_file(run_ex, tmp_path, capsys):
    import hashlib

    from bwcmdp import jsonio
    from bwcmdp.cli import main

    # A decision pins no prepared MDP; the witness rebuilds it once, on use.
    w = decide(run_ex, _query("bwc-fin", [0, 0], [0, 9])).witness
    assert w._prepared is None
    assert w.mdp is w.mdp and w.mdp.states == run_ex.states and w.nu == (0, 9)
    # `synthesize` from such a decision writes the file it wrote when the
    # witness kept the prepared MDP that deciding built (its sha256 then).
    mdp, strat = str(tmp_path / "run_ex.json"), str(tmp_path / "strat.json")
    jsonio.save_mdp(mdp, run_ex)
    assert main(["synthesize", "--mdp", mdp, "--mode", "bwc-fin", "--from", "s",
                 "--mu", "0,0", "--nu", "0,9", "--out", strat]) == 0
    capsys.readouterr()
    assert hashlib.sha256(open(strat, "rb").read()).hexdigest() == (
        "e8cff918a3f063b4f7e1e53fb373088d0a898a818518ee9b00b879a097be8409")


def test_phase1_balanced_witness(run_ex):
    dec = decide(run_ex, _query("bwc-inf", [0, 0], [F(99, 10), F(99, 10)]))
    plan = phase1_strategy(dec.witness)
    assert plan.continuation["s"] == {0: F(1, 2), 1: F(1, 2)}
    assert plan.switch["t"] == 1
    assert plan.switch["u"] == 1


# -- local strategies ----------------------------------------------------------

def _ec_solution(mdp, ec, nu):
    out = linsolve.solve(ec_expectation_system(mdp, ec, nu))
    assert out.status == "feasible"
    return out.assignment


def test_local_strategies_uv(run_ex):
    ec = next(ec for ec in mecs(run_ex) if "u" in ec.states)
    locs = local_strategies(run_ex, ec, _ec_solution(run_ex, ec, [F(15), F(5)]))
    assert len(locs) == 1
    (loc,) = locs
    assert loc.frequency == 1 and loc.mean == (F(15), F(5))
    assert loc.choices["u"] == {4: F(1)}


def test_local_strategies_split(approx_ex):
    ec = mecs(approx_ex)[0]
    locs = local_strategies(approx_ex, ec, _ec_solution(approx_ex, ec, [F(1, 2), F(1, 2)]))
    assert len(locs) == 2
    assert sorted(loc.mean for loc in locs) == [(F(0), F(1)), (F(1), F(0))]
    assert all(loc.frequency == F(1, 2) for loc in locs)


def test_local_strategy_is_recurrent_with_exact_mean(run_ex):
    ec = next(ec for ec in mecs(run_ex) if "u" in ec.states)
    locs = local_strategies(run_ex, ec, _ec_solution(run_ex, ec, [F(15), F(5)]))
    sub = restrict(run_ex, ec.states)
    machine = memoryless(sub, {s: d for s, d in locs[0].choices.items()})
    chain = induced_chain(sub, machine, "u")
    (b,) = bscc_analysis(chain)
    assert len(b.nodes) == chain.node_count()  # irreducible
    assert b.mean == locs[0].mean


# -- cycling combiner ---------------------------------------------------------

def test_global_unichain_closed_form(approx_ex):
    ec = mecs(approx_ex)[0]
    locs = local_strategies(approx_ex, ec, _ec_solution(approx_ex, ec, [F(1, 2), F(1, 2)]))
    for a in (1, 3, 10):
        g = CyclingMachine(approx_ex, ec, locs, a)
        chain = induced_chain(approx_ex, g, "s")
        assert expected_mp(chain) == (F(a, 2 * a + 2), F(a, 2 * a + 2))
        assert len(bscc_analysis(chain)) == 1


def test_global_unichain_single_component(run_ex):
    ec = next(ec for ec in mecs(run_ex) if ec.states == frozenset({"t"}))
    locs = local_strategies(run_ex, ec, {"x[2]": F(1)})
    for a in (1, 4):
        g = CyclingMachine(run_ex, ec, locs, a)
        assert expected_mp(induced_chain(run_ex, g, "t")) == (F(5), F(15))


def test_global_unichain_deterministic_variant(approx_ex):
    from bwcmdp.decomposition import EndComponent

    # One local strategy mixing two loops 50/50: its rotation alternates
    # them, a pure machine with the same expectation.
    m = Mdp.build(2, [("a", "controller")], [(0, "a", "a", [2, -1]), (1, "a", "a", [-1, 2])])
    ec = EndComponent(frozenset({"a"}), frozenset({0, 1}))
    (loc,) = local_strategies(m, ec, {"x[0]": F(1, 2), "x[1]": F(1, 2)})
    g = CyclingMachine(m, ec, [loc], 2, deterministic=True)
    chain = induced_chain(m, g, "a")
    assert len(bscc_analysis(chain)) == 1
    assert all(len(row) == 1 for row in chain.transitions)  # pure machine
    assert expected_mp(chain) == loc.mean == (F(1, 2), F(1, 2))
    # Several local strategies take no rotation.
    ec = mecs(approx_ex)[0]
    locs = local_strategies(approx_ex, ec, _ec_solution(approx_ex, ec, [F(1, 2), F(1, 2)]))
    with pytest.raises(ValueError):
        CyclingMachine(approx_ex, ec, locs, 1, deterministic=True)


def test_global_unichain_rejects_bad_dwell(approx_ex):
    ec = mecs(approx_ex)[0]
    locs = local_strategies(approx_ex, ec, _ec_solution(approx_ex, ec, [F(1, 2), F(1, 2)]))
    with pytest.raises(ValueError):
        CyclingMachine(approx_ex, ec, locs, 0)


# -- monitored combiner ---------------------------------------------------------

def test_recovery_length_formula():
    # period 100, delta 1/8, W 1, floor 1/2, machine size m: the closed form.
    K, W, mu, delta = 100, 1, F(1, 2), F(1, 8)
    for m in (2, 5):
        want = -(-(2 * K * (W + mu - delta) + m * (2 * W + 2 * mu - delta)) // delta)
        assert recovery_length(K, W, mu, delta, m) == int(want)


def test_wec_combined_degenerate_loop(run_ex):
    ec = next(ec for ec in mecs(run_ex) if ec.states == frozenset({"t"}))
    locs = local_strategies(run_ex, ec, {"x[2]": F(1)})
    sub = restrict(run_ex, ec.states)
    g = CyclingMachine(sub, ec, locs, 1)
    fwc = memoryless(sub, {"t": 2})
    machine = wec_combined(run_ex, ec, g, fwc, period=3, delta=F(1))
    chain = induced_chain(sub, machine, "t")
    # The monitor never fires: recovery memories stay unreachable.
    assert all(mem[0] == "exp" for _, mem in chain.nodes)
    assert expected_mp(chain) == (F(5), F(15))
    assert verify_worstcase(sub, machine, [F(0), F(0)], "t").ok


def test_wec_combined_parameters(approx_ex):
    ec = mecs(approx_ex)[0]
    locs = local_strategies(approx_ex, ec, _ec_solution(approx_ex, ec, [F(1, 2), F(1, 2)]))
    g = CyclingMachine(approx_ex, ec, locs, 1)
    # Memory 0 plays the state's loop, memory 1 its cross edge: the s and t
    # loops alternate, each once per four steps.
    fwc = TableMachine([0, 1], {0: F(1)},
                       {(s, m): {1 - m: F(1)} for s in "st" for m in (0, 1)},
                       {("s", 0): {0: F(1)}, ("s", 1): {1: F(1)},
                        ("t", 0): {2: F(1)}, ("t", 1): {3: F(1)}})
    machine = wec_combined(approx_ex, ec, g, fwc, period=100, delta=F(1, 8),
                           wc_memory_size=2)
    # The alternation guarantees floor 1/(2+2) per dimension; the
    # recovery length is the closed form at that floor.
    assert machine.period == 100
    assert machine.floor == [F(1, 4), F(1, 4)]
    m = 2 * 2
    want = recovery_length(100, 1, F(1, 4), F(1, 8), m)
    assert machine.recovery == want


def test_wec_combined_rejects_large_delta(run_ex):
    ec = next(ec for ec in mecs(run_ex) if ec.states == frozenset({"t"}))
    locs = local_strategies(run_ex, ec, {"x[2]": F(1)})
    sub = restrict(run_ex, ec.states)
    g = CyclingMachine(sub, ec, locs, 1)
    fwc = memoryless(sub, {"t": 2})
    with pytest.raises(ValueError):
        wec_combined(run_ex, ec, g, fwc, period=2, delta=F(5))  # floor min is 5


def test_monitored_machine_recovers():
    # One controller state, a good loop and a bad loop mixed 50/50: the
    # monitor must fire and route through the worst-case machine.
    m = Mdp.build(1, [("a", "controller")],
                  [(0, "a", "a", [2]), (1, "a", "a", [-2])])
    from bwcmdp.decomposition import EndComponent

    ec = EndComponent(frozenset({"a"}), frozenset({0, 1}))
    locs = local_strategies(m, ec, {"x[0]": F(1, 2), "x[1]": F(1, 2)})
    g = CyclingMachine(m, ec, locs, 1)
    fwc = memoryless(m, {"a": 0})
    machine = MonitoredMachine(m, g, fwc, period=1, recovery=3,
                               floor=[F(2)], delta=F(1), dims=(0,))
    chain = induced_chain(m, machine, "a")
    kinds = {mem[0] for _, mem in chain.nodes}
    assert kinds == {"exp", "rec"}
    assert verify_worstcase(m, machine, [F(0)], "a").ok
    exp = expected_mp(chain)
    assert exp[0] > 0
    # Period structure: expectation memories count strictly below the
    # period, recovery memories strictly below the recovery length, and
    # switches happen only at period boundaries (never mid-period).
    for _, mem in chain.nodes:
        if mem[0] == "exp":
            assert 0 <= mem[2] < machine.period
        else:
            assert 0 <= mem[2] < machine.recovery
    for i, row in enumerate(chain.transitions):
        _, mem = chain.nodes[i]
        for j, p, _, _ in row:
            _, mem2 = chain.nodes[j]
            if mem[0] == "exp" and mem2[0] == "rec":
                assert mem[2] == machine.period - 1 and mem2[2] == 0
            if mem[0] == "rec" and mem2[0] == "exp":
                assert mem[2] == machine.recovery - 1 and mem2[2] == 0


# -- worst-case fallback search ---------------------------------------------

def test_memoryless_search_run_ex(run_ex):
    machine = memoryless_wc_search(run_ex, (0, 1))
    assert machine is not None
    for s in run_ex.state_ids:
        assert verify_worstcase(run_ex, machine, [F(0), F(0)], start=s).ok


def test_unidim_search_uses_positional(run_ex):
    machine = memoryless_wc_search(run_ex, (0,))
    assert machine is not None and len(machine.memory) == 1


def test_two_memory_tier():
    # No pure memoryless strategy wins both dimensions; alternation does.
    m = Mdp.build(2, [("a", "controller")],
                  [(0, "a", "a", [2, -1]), (1, "a", "a", [-1, 2])])
    machine = memoryless_wc_search(m, (0, 1))
    assert machine is not None
    assert len(machine.memory) == 2
    assert verify_worstcase(m, machine, [F(0), F(0)], "a").ok


# -- end-to-end synthesis -----------------------------------------------------

def test_bas_strategy_run_ex_bas(run_ex_bas):
    q = _query("bas", [0, 0], [F(99, 10), F(99, 10)])
    machine, prepared, start = bas_strategy(run_ex_bas, q)
    chain = induced_chain(prepared, machine, start)  # raises MachineError on a bad machine
    assert expected_mp(chain) == (F(10), F(10))
    assert verify_almost_sure(prepared, machine, [F(0), F(0)], start)
    # Two bottom components, the isolated loop and the stochastic cycle.
    bsccs = bscc_analysis(chain)
    assert len(bsccs) == 2
    assert sorted(b.reach for b in bsccs) == [F(1, 2), F(1, 2)]
    projections = {frozenset(chain.nodes[i][0] for i in b.nodes) for b in bsccs}
    assert projections == {frozenset({"t"}), frozenset({"u", "v"})}


def test_bas_strategy_single_component(run_ex):
    q = _query("bas", [0, 0], [0, 9])
    machine, prepared, start = bas_strategy(run_ex, q)
    exp = expected_mp(induced_chain(prepared, machine, start))
    assert all(e > n for e, n in zip(exp, (F(0), F(9))))


def test_bwc_finite_strategy_run_ex(run_ex):
    q = _query("bwc-fin", [0, 0], [0, 9])
    machine, prepared, start, cap = bwc_finite_strategy(run_ex, q)
    exp = expected_mp(induced_chain(prepared, machine, start))
    assert all(e > n for e, n in zip(exp, (F(0), F(9))))
    # Worst case holds at the found cap and at every other tested cap.
    for n in (1, 2, 4, 8):
        m2, p2, s2, _ = bwc_finite_strategy(run_ex, q, cap=n)
        assert verify_worstcase(p2, m2, [F(0), F(0)], s2).ok


def test_bwc_finite_from_random_start(run_ex):
    q = _query("bwc-fin", [0, 0], [0, 9], start="v")
    machine, prepared, start, cap = bwc_finite_strategy(run_ex, q)
    assert verify_worstcase(prepared, machine, [F(0), F(0)], start).ok
    adapted = AdaptedMachine(machine, prepared, run_ex, start)
    assert adapted.start == "v"
    assert verify_worstcase(run_ex, adapted, [F(0), F(0)], "v").ok


# -- rungs of the bwc-fin ladder that some instance needs ------------------------

# gen.corpus seed 2 instance 365: a yes-instance whose one winning
# component (q0-q3, one local strategy) is won by no plain rung and by no
# monitored rung of period 1, 2 or 4.
_PERIOD_8_CASE = (
    Mdp.build(2, [("q0", "controller"), ("q1", "random"), ("q2", "random"),
                  ("q3", "controller"), ("q4", "controller")],
              [(0, "q0", "q1", [2, 1]), (1, "q0", "q3", [-2, 1]), (2, "q0", "q1", [2, 1]),
               (3, "q1", "q0", [-3, 0]), (4, "q1", "q3", [-1, 3]),
               (5, "q2", "q1", [-2, -3]), (6, "q2", "q0", [1, 3]),
               (7, "q3", "q2", [1, -3]), (8, "q3", "q0", [2, 2]), (9, "q3", "q2", [3, 1]),
               (10, "q4", "q1", [-3, 0])],
              {3: F(1, 4), 4: F(3, 4), 5: F(1, 2), 6: F(1, 2)}),
    "q4", "-7/3,1", "-2,-5")


def test_bwc_finite_picks_a_monitored_rung_of_period_8(tmp_path, capsys):
    from bwcmdp import jsonio
    from bwcmdp.cli import main

    mdp, start, mu, nu = _PERIOD_8_CASE
    q = _query("bwc-fin", [F(-7, 3), 1], [-2, -5], start=start)
    machine, _, _, _ = bwc_finite_strategy(mdp, q)
    (rung,) = machine.machines
    assert isinstance(rung, MonitoredMachine) and (rung.period, rung.recovery) == (8, 16)
    path, strat = str(tmp_path / "mdp.json"), str(tmp_path / "strat.json")
    jsonio.save_mdp(path, mdp)
    common = ["--mdp", path, "--from", start]
    assert main(["synthesize", *common, "--mode", "bwc-fin", f"--mu={mu}", f"--nu={nu}",
                 "--out", strat]) == 0
    assert main(["verify", *common, "--strategy", strat, "--check", "wc", f"--mu={mu}"]) == 0
    assert main(["verify", *common, "--strategy", strat, "--check", "exp", f"--nu={nu}"]) == 0
    capsys.readouterr()


def test_bwc_finite_task_ex_picks_monitored_rung():
    # No memoryless table, cycling combiner or rotation wins both the
    # worst case and the shrunk target here: only the combined strategy.
    task = negate_weights(fixture("TASK_EX"), halve=True)
    q = _query("bwc-fin", [F(-49, 8), F(-64)], [F(-49, 8), F(-29, 8)], start="0")
    machine, _, _, _ = bwc_finite_strategy(task, q)
    assert [type(m) for m in machine.machines] == [MonitoredMachine]


# All-controller instance whose one component is won by the dwell-1
# deterministic rotation of its local strategy, no earlier rung.
_ROTATION_CASE = (
    Mdp.build(2, [(f"q{i}", "controller") for i in range(4)],
              [(0, "q0", "q1", [2, 0]), (1, "q0", "q2", [0, 2]), (2, "q0", "q0", [-2, -1]),
               (3, "q1", "q0", [1, -3]), (4, "q1", "q3", [1, 3]), (5, "q1", "q3", [-1, 3]),
               (6, "q2", "q1", [0, 1]), (7, "q3", "q2", [1, 1]), (8, "q3", "q2", [-2, -2]),
               (9, "q3", "q3", [-2, -2])]),
    "q0", "-7/3,-1/3", "0,-5")


def test_bwc_finite_picks_deterministic_rotation():
    m = _ROTATION_CASE[0]
    q = _query("bwc-fin", [F(-7, 3), F(-1, 3)], [0, -5], start="q0")
    machine, prepared, start, _ = bwc_finite_strategy(m, q)
    (rung,) = machine.machines
    assert isinstance(rung, CyclingMachine) and rung.deterministic and rung.dwell == 1
    adapted = AdaptedMachine(machine, prepared, m, start)
    assert verify_worstcase(m, adapted, q.mu, adapted.start).ok


# gen.corpus yes-instances (seed/index) that need the largest value of a
# synthesis search range: the ranges stop there.
_SEARCH_CASES = {
    "16/22": (
        Mdp.build(3, [("q0", "random"), ("q1", "controller"), ("q2", "controller"),
                      ("q3", "controller")],
                  [(0, "q0", "q0", [2, -3, -1]), (1, "q0", "q3", [2, 1, 0]),
                   (2, "q0", "q2", [3, 3, -1]), (3, "q1", "q1", [-1, 1, 3]),
                   (4, "q1", "q0", [-1, -2, -1]), (5, "q1", "q2", [1, 3, -1]),
                   (6, "q2", "q2", [0, 0, 3]), (7, "q2", "q1", [3, -3, -1]),
                   (8, "q2", "q3", [2, 1, -1]), (9, "q3", "q3", [3, 0, -1]),
                   (10, "q3", "q2", [1, -1, -1])],
                  {0: F(1, 4), 1: F(1, 2), 2: F(1, 4)}),
        "q2", "-11/4,-7/4,5/3", "1/2,-12,-1/2"),
    "20/163": (
        Mdp.build(2, [("q0", "random"), *((f"q{i}", "controller") for i in range(1, 6))],
                  [(0, "q0", "q1", [2, 0]), (1, "q0", "q4", [0, -3]), (2, "q0", "q5", [-1, 2]),
                   (3, "q1", "q5", [2, 0]), (4, "q2", "q0", [-2, -2]), (5, "q2", "q5", [3, 1]),
                   (6, "q3", "q2", [3, 0]), (7, "q3", "q3", [-3, -3]), (8, "q4", "q1", [3, -3]),
                   (9, "q4", "q4", [1, 3]), (10, "q5", "q2", [-3, -1]),
                   (11, "q5", "q3", [1, 0]), (12, "q5", "q1", [2, -3])],
                  {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}),
        "q4", "-2/3,5/3", "3/2,-3/2"),
    "9/596": (
        Mdp.build(1, [("q0", "random"), ("q1", "controller"), ("q2", "random")],
                  [(0, "q0", "q0", [2]), (1, "q0", "q2", [3]), (2, "q1", "q1", [-2]),
                   (3, "q1", "q1", [1]), (4, "q2", "q1", [-3]), (5, "q2", "q0", [-3])],
                  {0: F(1, 2), 1: F(1, 2), 4: F(1, 4), 5: F(3, 4)}),
        "q0", "-11/3", "-1"),
    "14/602": (
        Mdp.build(3, [("q0", "controller"), ("q1", "random"), ("q2", "random")],
                  [(0, "q0", "q2", [1, -2, -3]), (1, "q0", "q2", [3, -3, 3]),
                   (2, "q0", "q0", [-2, 2, -1]), (3, "q1", "q1", [3, 2, 0]),
                   (4, "q1", "q2", [2, -1, -3]), (5, "q1", "q0", [3, 1, 2]),
                   (6, "q2", "q2", [3, 3, 2]), (7, "q2", "q0", [1, 3, -2])],
                  {3: F(1, 3), 4: F(1, 3), 5: F(1, 3), 6: F(3, 4), 7: F(1, 4)}),
        "q0", "-4,0,-1/2", "-4,-4/3,-3/4"),
    "11/122": (
        Mdp.build(2, [("q0", "controller"), ("q1", "random"), ("q2", "random"),
                      ("q3", "controller"), ("q4", "controller"), ("q5", "controller")],
                  [(0, "q0", "q4", [-1, 0]), (1, "q1", "q2", [-3, 0]), (2, "q1", "q2", [-1, -1]),
                   (3, "q1", "q3", [3, 3]), (4, "q2", "q4", [-2, -2]), (5, "q2", "q1", [2, -3]),
                   (6, "q2", "q2", [3, 3]), (7, "q3", "q4", [-3, 1]), (8, "q3", "q1", [0, 1]),
                   (9, "q3", "q4", [0, -2]), (10, "q4", "q2", [-1, -3]),
                   (11, "q4", "q4", [0, 0]), (12, "q5", "q5", [2, -3])],
                  {1: F(1, 2), 2: F(1, 4), 3: F(1, 4), 4: F(1, 4), 5: F(1, 4), 6: F(1, 2)}),
        "q2", "-9/2,-7/3", "1/2,-1"),
    "20/639": (
        Mdp.build(2, [(f"q{i}", "controller") for i in range(3)],
                  [(0, "q0", "q1", [3, 2]), (1, "q0", "q0", [-3, 3]), (2, "q1", "q0", [1, -3]),
                   (3, "q1", "q0", [-1, 3]), (4, "q2", "q2", [3, -3]), (5, "q2", "q0", [3, -1])]),
        "q2", "5/4,-1/2", "-1,1"),
    "7/333": (
        Mdp.build(3, [(f"q{i}", "controller") for i in range(6)],
                  [(0, "q0", "q5", [1, 3, 3]), (1, "q0", "q2", [0, -3, -3]),
                   (2, "q0", "q2", [3, 1, 1]), (3, "q1", "q3", [-1, 0, 3]),
                   (4, "q1", "q2", [-2, 1, 0]), (5, "q1", "q4", [-3, 2, 3]),
                   (6, "q2", "q4", [-1, -1, 2]), (7, "q2", "q4", [-3, 1, 0]),
                   (8, "q3", "q4", [1, -3, 0]), (9, "q3", "q3", [2, 1, -2]),
                   (10, "q3", "q1", [2, 3, -2]), (11, "q4", "q2", [1, 1, 3]),
                   (12, "q4", "q1", [-2, 0, -3]), (13, "q4", "q2", [0, -2, -2]),
                   (14, "q5", "q5", [-2, 3, -2]), (15, "q5", "q3", [2, -3, -1]),
                   (16, "q5", "q4", [1, 3, -1])]),
        "q5", "0,-1/3,2", "-3/4,-1,-3"),
}


def _search_case(name, mode):
    mdp, start, mu, nu = _SEARCH_CASES[name]
    return mdp, ThresholdQuery.build(mode, start, mu.split(","), nu.split(","))


def test_cycling_dwell_reaches_32_in_bwc_fin_and_8_in_bas_and_bwc_inf():
    machine, _, _ = bas_strategy(*_search_case("16/22", "bas"))
    assert [g.dwell for g in machine.machines] == [8]
    machine, _, _, cap = bwc_finite_strategy(*_search_case("16/22", "bwc-fin"))
    (rung,) = machine.machines
    assert isinstance(rung, CyclingMachine) and len(rung.locals) == 2
    assert (rung.dwell, rung.deterministic, cap) == (32, False, 1)
    strat = bwc_infinite_strategy(*_search_case("16/22", "bwc-inf"), period=64)
    assert [g.dwell for g in strat.composed.machines] == [8]


def test_bas_dwell_reaches_16():
    machine, _, _ = bas_strategy(*_search_case("20/163", "bas"))
    assert [(g.dwell, len(g.locals)) for g in machine.machines] == [(16, 2)]


def test_bwc_finite_phase_cap_reaches_8():
    _, _, _, cap = bwc_finite_strategy(*_search_case("9/596", "bwc-fin"))
    assert cap == 8


def test_bwc_finite_picks_a_monitored_rung_of_period_1_recovery_16():
    # Both worst-case machines, the monitored rung's and the fallback, need
    # two memories.
    machine, _, _, _ = bwc_finite_strategy(*_search_case("14/602", "bwc-fin"))
    (rung,) = machine.machines
    assert isinstance(rung, MonitoredMachine) and (rung.period, rung.recovery) == (1, 16)
    assert len(rung.fwc.memory) == len(machine.fallback.memory) == 2


def test_bwc_finite_picks_a_monitored_rung_of_period_4_recovery_4():
    machine, _, _, _ = bwc_finite_strategy(*_search_case("11/122", "bwc-fin"))
    (rung,) = machine.machines
    assert isinstance(rung, MonitoredMachine) and (rung.period, rung.recovery) == (4, 4)


def test_fallback_search_reaches_candidate_1551():
    # The worst-case fallback is a 2-memory machine, the search's 1,551st
    # candidate: ENUM_BUDGET stops past it.
    machine, prepared, _, _ = bwc_finite_strategy(*_search_case("20/639", "bwc-fin"))
    assert len(machine.fallback.memory) == 2
    spent = 1 + next(i for i, cand in enumerate(_wc_candidates(prepared))
                     if cand == machine.fallback)
    assert spent == 1551 <= ENUM_BUDGET


@pytest.mark.parametrize("mode", ["bwc-fin", "bwc-inf"])
def test_fallback_search_stops_at_its_budget(tmp_path, capsys, mode):
    # A yes-instance whose fallback search once enumerated a million
    # candidates, for minutes of CPU, before it failed.
    import time

    from bwcmdp import jsonio
    from bwcmdp.cli import main

    mdp, start, mu, nu = _SEARCH_CASES["7/333"]
    path = str(tmp_path / "mdp.json")
    jsonio.save_mdp(path, mdp)
    started = time.process_time()
    assert main(["synthesize", "--mdp", path, "--mode", mode, "--from", start,
                 f"--mu={mu}", f"--nu={nu}", "--out", str(tmp_path / "strat.json")]) == 2
    assert time.process_time() - started < 2
    assert capsys.readouterr().err == (
        f"error: worst-case fallback search exhausted its budget of {ENUM_BUDGET} candidates\n")


# gen.corpus seed 6 instance 76 and seed 11 instance 75: yes-instances
# whose component tables were once checked from the component's first state
# only, so a table whose chain from another state sinks into a poorer bottom
# SCC was accepted, and no step cap cleared the expectation target.
_LADDER_CASES = (
    (Mdp.build(1, [("q0", "controller"), ("q1", "controller"), ("q2", "random"),
                   ("q3", "controller"), ("q4", "controller"), ("q5", "controller")],
               [(0, "q0", "q3", [3]), (1, "q1", "q2", [3]), (2, "q1", "q0", [-3]),
                (3, "q1", "q3", [2]), (4, "q2", "q4", [-3]), (5, "q3", "q3", [1]),
                (6, "q3", "q0", [2]), (7, "q3", "q1", [3]), (8, "q4", "q5", [-3]),
                (9, "q5", "q1", [2]), (10, "q5", "q0", [-3]), (11, "q5", "q2", [0])],
               {4: 1}),
     "q1", "-10", "3/2"),
    (Mdp.build(1, [(f"q{i}", "controller") for i in range(6)],
               [(0, "q0", "q1", [-3]), (1, "q0", "q0", [-1]), (2, "q0", "q0", [3]),
                (3, "q1", "q0", [-3]), (4, "q1", "q3", [-2]), (5, "q2", "q5", [1]),
                (6, "q3", "q4", [-3]), (7, "q3", "q5", [-1]), (8, "q3", "q0", [-3]),
                (9, "q4", "q3", [3]), (10, "q5", "q3", [-1])]),
     "q2", "-5/3", "0"),
)


@pytest.mark.parametrize("case", range(len(_LADDER_CASES)))
def test_bwc_finite_ladder_checks_every_state(case, tmp_path, capsys):
    from bwcmdp import jsonio
    from bwcmdp.cli import main

    mdp, start, mu, nu = _LADDER_CASES[case]
    path, strat = str(tmp_path / "mdp.json"), str(tmp_path / "strat.json")
    jsonio.save_mdp(path, mdp)
    common = ["--mdp", path, "--from", start]
    assert main(["synthesize", *common, "--mode", "bwc-fin", f"--mu={mu}", f"--nu={nu}",
                 "--out", strat]) == 0
    assert main(["verify", *common, "--strategy", strat, "--check", "wc", f"--mu={mu}"]) == 0
    assert main(["verify", *common, "--strategy", strat, "--check", "exp", f"--nu={nu}"]) == 0
    capsys.readouterr()


@pytest.fixture(scope="module")
def ladder_components(run_ex):
    """(mdp, component, local strategies) of the bwc-fin ladders of
    TASK_EX, of RUN_EX and of seeded random yes-instances."""
    import random

    from conftest import random_mdp, random_query

    def components(mdp, q, decision=None):
        w, _, _, entries = _witness_parts(mdp, q, decision)
        return [(w.mdp, comp, locals_) for comp, locals_, _ in entries]

    task = negate_weights(fixture("TASK_EX"), halve=True)
    out = {"task": components(task, _query("bwc-fin", [F(-49, 8), F(-64)],
                                            [F(-49, 8), F(-29, 8)], start="0")),
           "run": components(run_ex, _query("bwc-fin", [0, 0], [0, 9])),
           "random": []}
    rng = random.Random(5)
    for _ in range(350):
        mdp = random_mdp(rng, max_states=8)
        q = random_query(rng, mdp, "bwc-fin")
        decision = decide(mdp, q)
        if decision.answer:
            out["random"] += components(mdp, q, decision)
    return out


def _outgrown_rungs(mdp, comp, locals_, dwells) -> int:
    """Build the component's cycling combiners at ``dwells``; check that
    each one with several local strategies whose counters exceed
    CHAIN_LIMIT, the rungs ``_plain_rungs`` does not build, has a chain
    from every state beyond that limit.  Returns their number."""
    sub = restrict(mdp, comp.states)
    count = 0
    for dwell in dwells:
        g = CyclingMachine(sub, comp, locals_, dwell)
        if len(locals_) > 1 and sum(g.counts) > CHAIN_LIMIT:
            with pytest.raises(MachineError):
                induced_chain(sub, g, sub.state_ids, node_limit=CHAIN_LIMIT)
            count += 1
    return count


def test_cut_cycling_rungs_outgrow_the_chain_limit(ladder_components):
    dwells = list(_doubling(DWELL_CAP))
    cut = {name: sum(_outgrown_rungs(*c, dwells) for c in ladder_components[name])
           for name in ("task", "run")}
    # TASK_EX's two local strategies count [313, 351] steps at dwell 1, so
    # every dwell goes; RUN_EX's one component has a single local strategy
    # and no step counters.
    assert cut == {"task": len(dwells), "run": 0}
    # Random components, also at dwells past DWELL_CAP so that their
    # counters exceed the limit.
    assert sum(_outgrown_rungs(*c, [*dwells, 256, 1024])
               for c in ladder_components["random"]) >= 10


def test_plain_rungs_stop_at_the_first_outgrown_combiner(ladder_components):
    dwells = list(_doubling(DWELL_CAP))
    cuts = []
    for mdp, comp, locals_ in [c for cs in ladder_components.values() for c in cs]:
        sub = restrict(mdp, comp.states)
        kept = [(g.dwell, g.deterministic) for g in _plain_rungs(sub, comp, locals_)
                if isinstance(g, CyclingMachine)]
        if len(locals_) == 1:
            # No step counters: every dwell would play as dwell 1.
            assert kept == [(1, False), (1, True)]
            continue
        fits = [d for d in dwells
                if sum(CyclingMachine(sub, comp, locals_, d).counts) <= CHAIN_LIMIT]
        assert kept == [(d, False) for d in fits]
        cuts.append(len(fits))
    # Cut before the first rung (TASK_EX), inside the ladder, and never.
    assert {0, len(dwells)} < set(cuts)


def _chain_shape(sub, machine):
    """The machine's chain from every state of ``sub`` with its memories
    left out (None past 4 * CHAIN_LIMIT nodes): machines with equal
    shapes have equal exact analyses."""
    try:
        chain = induced_chain(sub, machine, sub.state_ids, node_limit=4 * CHAIN_LIMIT)
    except MachineError:
        return None
    return [(s, row) for (s, _), row in zip(chain.nodes, chain.transitions)]


def test_skipped_rungs_play_as_the_rungs_kept(ladder_components):
    # The ladder builds the cycling combiners of one local strategy at
    # dwell 1 only: every dwell past 1 plays as it.
    compared = 0
    for mdp, comp, locals_ in [c for cs in ladder_components.values() for c in cs]:
        if len(locals_) > 1:
            continue
        sub = restrict(mdp, comp.states)
        for det in (False, True):
            want = _chain_shape(sub, CyclingMachine(sub, comp, locals_, 1, det))
            for dwell in (2, DWELL_CAP):
                assert _chain_shape(sub, CyclingMachine(sub, comp, locals_, dwell, det)) == want
                compared += want is not None
    assert compared >= 300


def test_task_ex_ladder_analyses(monkeypatch):
    # TASK_EX's bwc-fin synthesis (as in the synth-sim benchmark) analyses
    # each rung it reaches once: 16 memoryless tables (its cycling rungs
    # outgrow CHAIN_LIMIT), the 4 monitored machines up to period 4,
    # recovery 16, and 3 worst cases.
    from bwcmdp import synthesis

    calls = {"plain": 0, "monitored": 0, "worst case": 0}
    expectation, worst_case = synthesis._Ladder._expectation, synthesis._Ladder._wins_worstcase

    def counted_expectation(self, machine):
        calls["monitored" if isinstance(machine, MonitoredMachine) else "plain"] += 1
        return expectation(self, machine)

    def counted_worst_case(self, machine):
        calls["worst case"] += 1
        return worst_case(self, machine)

    monkeypatch.setattr(synthesis._Ladder, "_expectation", counted_expectation)
    monkeypatch.setattr(synthesis._Ladder, "_wins_worstcase", counted_worst_case)
    task = negate_weights(fixture("TASK_EX"), halve=True)
    bwc_finite_strategy(task, _query("bwc-fin", [F(-49, 8), F(-64)], [F(-49, 8), F(-29, 8)],
                                     start="0"))
    assert calls == {"plain": 16, "monitored": 4, "worst case": 3}


def _synthesize_digests(tmp_path, capsys):
    """sha256 of the `synthesize` file (or the exit code and error) per
    case, the seeded random yes-instances folded into one digest, and of
    one seeded `simulate` report per mode."""
    import hashlib
    import random

    from bwcmdp import jsonio
    from bwcmdp.cli import main
    from bwcmdp.rationals import format_rational
    from conftest import random_mdp, random_query

    def synthesize(mdp, mode, start, mu, nu, strat, *extra):
        path = str(tmp_path / "mdp.json")
        jsonio.save_mdp(path, mdp)
        code = main(["synthesize", "--mdp", path, "--mode", mode, "--from", start,
                     f"--mu={mu}", f"--nu={nu}", "--out", strat, *extra])
        err = capsys.readouterr().err
        return open(strat, "rb").read() if code == 0 else f"{code} {err}".encode()

    def simulate(mdp, start, strat):
        path = str(tmp_path / "mdp.json")
        jsonio.save_mdp(path, mdp)
        assert main(["simulate", "--mdp", path, "--strategy", strat, "--from", start,
                     "--runs", "30", "--horizon", "400", "--seed", "7", "--mu=0,0"]) == 0
        return capsys.readouterr().out.encode()

    def sha(data):
        return hashlib.sha256(data).hexdigest()

    run, bas = fixture("RUN_EX"), fixture("RUN_EX_BAS")
    task = negate_weights(fixture("TASK_EX"), halve=True)
    strats = {mode: str(tmp_path / f"{mode}.json") for mode in ("bas", "bwc-fin", "bwc-inf")}
    out = {
        "run-bwc-fin-s": synthesize(run, "bwc-fin", "s", "0,0", "0,9", strats["bwc-fin"]),
        "run-bwc-fin-sim": simulate(run, "s", strats["bwc-fin"]),
        "run-bwc-fin-v": synthesize(run, "bwc-fin", "v", "0,0", "0,9", strats["bwc-fin"]),
        "run-bwc-inf": synthesize(run, "bwc-inf", "s", "0,0", "99/10,99/10",
                                  strats["bwc-inf"], "--period", "64"),
        "run-bwc-inf-sim": simulate(run, "s", strats["bwc-inf"]),
        "bas-bas": synthesize(bas, "bas", "s", "0,0", "99/10,99/10", strats["bas"]),
        "bas-bas-sim": simulate(bas, "s", strats["bas"]),
        "task-bwc-fin": synthesize(task, "bwc-fin", "0", "-49/8,-64", "-49/8,-29/8",
                                   strats["bwc-fin"]),
        "rotation": synthesize(*_ROTATION_CASE[:1], "bwc-fin", *_ROTATION_CASE[1:],
                               strats["bwc-fin"]),
    }
    for k, (mdp, start, mu, nu) in enumerate(_LADDER_CASES):
        out[f"ladder-{k}"] = synthesize(mdp, "bwc-fin", start, mu, nu, strats["bwc-fin"])
    rng = random.Random(1515)
    folded, yes = hashlib.sha256(), dict.fromkeys(strats, 0)
    for _ in range(60):
        mdp = random_mdp(rng)
        for mode in strats:
            q = random_query(rng, mdp, mode)
            if not decide(mdp, q).answer:
                continue
            yes[mode] += 1
            folded.update(synthesize(mdp, mode, q.start, ",".join(map(format_rational, q.mu)),
                                     ",".join(map(format_rational, q.nu)), strats[mode],
                                     "--period", "64"))
    return {k: sha(v) for k, v in out.items()} | {"random": folded.hexdigest(), "yes": yes}


def test_synthesize_outputs_are_pinned(tmp_path, capsys):
    # Strategy files and seeded simulate reports hash to what they were
    # before the synthesis module was cut down to what its callers read.
    assert _synthesize_digests(tmp_path, capsys) == {
        "run-bwc-fin-s": "e8cff918a3f063b4f7e1e53fb373088d0a898a818518ee9b00b879a097be8409",
        "run-bwc-fin-sim": "63a79021c5d174f054e80379c6d21b4c924903012f73febd8a412b26e7224c2e",
        "run-bwc-fin-v": "e815322ce7f260ad7ece763f2f92142e9e0a8d5baadfe22e2c38017b188153ef",
        "run-bwc-inf": "f959be97abcd505e84949e802037c88b2f46de0c5cb681a6b4cce1acd3321a43",
        "run-bwc-inf-sim": "ad7d6d89cc1ee45437ce9ff29f9dfd17ff0c2f1f05ef169f0b79042f4ad4f4d1",
        "bas-bas": "4452aa2c46b90121f104a13edb68c76a06e19f5e25e6cb0ecf0ea70735a9c6ec",
        "bas-bas-sim": "fd0717dfdd1768ccb02bf72967372af2c22efa4846bd80b519ab1ab9b4cd1ef6",
        "task-bwc-fin": "1027e84b0038f011ab7d40c69ff87065748c8de10cac72c9ac822a14b86f996d",
        "rotation": "afdc916e4b64fc52e181ec442f2f6de21a3a5d5f2587860eaccb2459bf25a333",
        "ladder-0": "759ee2df76356db4509976bfffa11d5ec77b82242cdcae8ae9b510f565a3afc5",
        "ladder-1": "8fddb1544efe2fc74f0df1d4fdf4ea4066cbd9a6a5add23ef5446756437dc8e3",
        "random": "1250318c712b6177a54cee5715fcd1e4ed3baee0514aa819a4660f144c68b7d6",
        "yes": {"bas": 8, "bwc-fin": 8, "bwc-inf": 12},
    }


def test_adapted_machine_round_trip(run_ex_bas):
    q = _query("bas", [0, 0], [4, 4])
    machine, prepared, start = bas_strategy(run_ex_bas, q)
    adapted = AdaptedMachine(machine, prepared, run_ex_bas, start)
    assert adapted.start == "s"
    exp = expected_mp(induced_chain(run_ex_bas, adapted, "s"))  # raises on a bad machine
    assert all(e > 4 for e in exp)


class _Raises:
    """A machine with no entry at any state."""

    def initial_dist(self):
        return {0: F(1)}

    def output(self, state, mem):
        raise KeyError(state)

    def update(self, state, mem):
        raise KeyError(state)


def test_adapted_machine_surfaces_errors(run_ex):
    # States the prepared MDP kept ask the machine, whose error surfaces;
    # states it dropped get the default move.
    prepared = restrict(run_ex, frozenset({"u", "v"}))
    adapted = AdaptedMachine(_Raises(), prepared, run_ex, "u")
    with pytest.raises(KeyError):
        adapted.output("u", 0)
    with pytest.raises(KeyError):
        adapted.update("u", 0)
    with pytest.raises(KeyError):
        induced_chain(run_ex, adapted, "u")
    assert adapted.output("s", 0) == {run_ex.out_edges["s"][0].eid: F(1)}
    assert adapted.update("s", 0) == {0: F(1)}


# -- the infinite-memory strategy ---------------------------------------------

def test_monitor_floor_formula():
    strat = TotalPayoffMonitor(dimension=2, period=10, monitor=(F(1), F(1)))
    assert strat.floor(3) == (F(15), F(15))
    # The phase-end bound at the end of phase 2 is twice the next floor.
    assert tuple(2 * f for f in strat.floor(3)) == (F(30), F(30))


def test_monitor_semantics_stepwise():
    strat = TotalPayoffMonitor(dimension=2, period=2, monitor=(F(1), F(1)))
    st = strat.fresh()
    # Phase 0 has no running check: a terrible first step does not switch
    # until the phase-end comparison.
    st = strat.observe(st, (-100, -100))
    assert st.mode == "expectation" and st.phase == 0
    st = strat.observe(st, (0, 0))
    assert st.mode == "worst-case"  # phase-end floor missed


def test_monitor_never_fires_on_good_run():
    strat = TotalPayoffMonitor(dimension=2, period=4, monitor=(F(2), F(6)))
    st = strat.fresh()
    for _ in range(400):
        st = strat.observe(st, (5, 15))
        assert st.mode == "expectation"
        if st.phase >= 1:
            assert all(F(t) > f for t, f in zip(st.total, strat.floor(st.phase)))


def test_infinite_strategy_simulation(run_ex):
    q = _query("bwc-inf", [0, 0], [F(99, 10), F(99, 10)])
    strat = bwc_infinite_strategy(run_ex, q, period=512)
    rep = simulate(run_ex, strat, "s", horizon=3000, runs=400, seed=5, mu=[F(0), F(0)])
    assert rep.monitor_violations == 0
    assert rep.exceed_fraction == 1.0
    assert abs(rep.mean[0] - 10.0) < 2.0 and abs(rep.mean[1] - 10.0) < 2.0
