"""Threshold-system builders and the decision procedures."""

import gc
import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from bwcmdp import jsonio, linsolve, systems
from bwcmdp.cli import main
from bwcmdp.decomposition import mecs
from bwcmdp.games import mwecs
from bwcmdp.linsolve import residuals
from bwcmdp.model import MODES, Mdp, ThresholdQuery, fixture
from bwcmdp.systems import (_flow_system, decide, ec_expectation_system,
                            ensure_controller_start, finite_memory_system, general_system, xe,
                            ye, ys)
from conftest import random_mdp, random_query
from oracles import named_ec_expectation_system, named_flow_system


def _satisfies_strictly(system, assignment) -> bool:
    for c, res in zip(system.constraints, residuals(system, assignment)):
        if c.relation == "=" and res != 0:
            return False
        if c.relation == ">=" and res < 0:
            return False
        if c.relation == ">" and res <= 0:
            return False
    return True


def _full(assignment, system):
    out = {v: F(0) for v in system.variables}
    out.update(assignment)
    return out


def test_finite_system_shape_and_hand_solution(run_ex):
    comps = mwecs(run_ex)
    system = finite_memory_system(run_ex, "s", [F(0), F(9)], comps)
    assert len(system.variables) == 4 + 7 + 7
    hand = {v: F(0) for v in system.variables}
    hand[ye(0)] = F(1)   # take s -> t
    hand[ys("t")] = F(1)  # switch at t
    hand[xe(2)] = F(1)   # loop frequency
    assert _satisfies_strictly(system, hand)
    out = linsolve.solve(system)
    assert out.strict_feasible


def test_finite_system_infeasible_at_nine_nine(run_ex):
    comps = mwecs(run_ex)
    system = finite_memory_system(run_ex, "s", [F(9), F(9)], comps)
    out = linsolve.solve(system)
    assert not out.strict_feasible


def test_finite_system_requires_components(run_ex):
    with pytest.raises(ValueError):
        finite_memory_system(run_ex, "s", [F(0), F(0)], [])


def test_finite_system_pins_outside_frequencies(run_ex):
    # Circulation on the non-winning component must not buy expectation.
    comps = mwecs(run_ex)
    system = finite_memory_system(run_ex, "s", [F(0), F(9)], comps)
    out = linsolve.solve(system)
    for eid in (4, 5, 6):
        assert out.assignment[xe(eid)] == 0


def test_general_system_mass_split(run_ex):
    comps = mecs(run_ex)
    system = general_system(run_ex, "s", [F(99, 10), F(99, 10)], comps)
    out = linsolve.solve(system)
    assert out.strict_feasible
    asg = out.assignment
    mass_t = asg[ys("t")]
    mass_uv = asg[ys("u")] + asg[ys("v")]
    assert mass_t == F(1, 2) and mass_uv == F(1, 2)
    # Global expectation is exactly (10, 10) at the balanced split.
    exp = [sum((asg[xe(e.eid)] * e.weight[i] for e in run_ex.edges), F(0)) for i in (0, 1)]
    assert exp == [F(10), F(10)]


def test_general_system_boundary_infeasible(run_ex):
    comps = mecs(run_ex)
    system = general_system(run_ex, "s", [F(10), F(10)], comps)
    assert not linsolve.solve(system).strict_feasible


def test_general_relaxes_finite(run_ex):
    comps = mecs(run_ex)
    system = general_system(run_ex, "s", [F(0), F(9)], comps)
    assert linsolve.solve(system).strict_feasible


def test_ec_expectation_system(run_ex):
    comps = {frozenset(ec.states): ec for ec in mecs(run_ex)}
    t = comps[frozenset({"t"})]
    uv = comps[frozenset({"u", "v"})]

    ok = linsolve.solve(ec_expectation_system(run_ex, t, [F(5), F(15)]))
    assert ok.status == "feasible"
    assert ok.assignment["xs[t]"] == 1 and ok.assignment[xe(2)] == 1

    ok2 = linsolve.solve(ec_expectation_system(run_ex, uv, [F(15), F(5)]))
    assert ok2.status == "feasible"
    asg = ok2.assignment
    assert asg["xs[u]"] == F(1, 2) and asg["xs[v]"] == F(1, 2)
    assert asg[xe(4)] == F(1, 2) and asg[xe(5)] == F(1, 4) and asg[xe(6)] == F(1, 4)

    bad = linsolve.solve(ec_expectation_system(run_ex, t, [F(6), F(0)]))
    assert bad.status == "infeasible"


def test_ensure_controller_start(run_ex):
    same, s = ensure_controller_start(run_ex, "s")
    assert same is run_ex and s == "s"
    aug, pre = ensure_controller_start(run_ex, "v")
    assert pre not in run_ex.owner
    assert aug.owner[pre] == "controller"
    (edge,) = aug.out_edges[pre]
    assert edge.target == "v" and edge.weight == (0, 0)


def test_decide_truth_table(run_ex, run_ex_bas):
    def d(mdp, mode, mu, nu, start="s"):
        return decide(mdp, ThresholdQuery.build(mode, start, mu, nu)).answer

    assert d(run_ex, "bwc-fin", [0, 0], [0, 9]) is True
    assert d(run_ex, "bwc-fin", [0, 0], [9, 9]) is False
    assert d(run_ex, "bwc-inf", [0, 0], [F(99, 10), F(99, 10)]) is True
    assert d(run_ex, "bwc-inf", [0, 0], [10, 10]) is False
    assert d(run_ex_bas, "bas", [0, 0], [F(99, 10), F(99, 10)]) is True
    assert d(run_ex_bas, "bwc-inf", [0, 0], [6, 6]) is False
    assert d(run_ex_bas, "bwc-inf", [0, 0], [4, 14]) is True


def test_decide_prune_failure(run_ex_bas):
    dec = decide(run_ex_bas, ThresholdQuery.build("bwc-fin", "u", [0, 0], [0, 0]))
    assert dec.answer is False and dec.failure == "start state pruned"
    assert dec.certificate is not None


def test_decide_random_start(run_ex):
    dec = decide(run_ex, ThresholdQuery.build("bwc-fin", "v", [0, 0], [0, 9]))
    assert dec.answer is True
    assert dec.witness.start not in run_ex.owner  # synthetic pre-state


def test_decide_no_winning_component():
    # A single losing loop beside a winning one, unreachable: pruning eats it.
    m = Mdp.build(1, [("a", "controller"), ("b", "controller")],
                  [(0, "a", "a", [-1]), (1, "a", "b", [0]), (2, "b", "b", [1])])
    dec = decide(m, ThresholdQuery.build("bwc-fin", "a", [0], [0]))
    assert dec.answer is True  # a escapes to b


def test_decide_validation_error():
    bad = Mdp.build(1, [("a", "controller")], [])
    with pytest.raises(ValueError):
        decide(bad, ThresholdQuery.build("wc", "a", [0], [0]))


def test_decide_dimension_mismatch(run_ex):
    with pytest.raises(ValueError):
        decide(run_ex, ThresholdQuery.build("wc", "s", [0], [0]))


def test_decision_json(run_ex):
    dec = decide(run_ex, ThresholdQuery.build("bwc-fin", "s", [0, 0], [0, 9]))
    data = dec.to_json()
    assert data["answer"] == "yes" and data["mode"] == "bwc-fin"
    assert data["witness"]["decomposition"] == [["t"]]


def test_witness_holds_nonzero_entries_only(run_ex):
    rng = random.Random(88)
    witnesses = 0
    for _ in range(40):
        mdp = random_mdp(rng)
        for mode in ("exp", "bas", "bwc-fin", "bwc-inf"):
            dec = decide(mdp, random_query(rng, mdp, mode))
            if dec.witness is not None:
                witnesses += 1
                assert dec.witness.assignment and all(dec.witness.assignment.values())
                assert set(dec.to_json()["witness"]["assignment"]) == set(dec.witness.assignment)
    assert witnesses >= 20
    # The printed witness is the one the complete assignment gave.
    dec = decide(run_ex, ThresholdQuery.build("exp", "s", [0, 0], [0, 9]))
    assert dec.to_json() == {
        "answer": "yes", "mode": "exp",
        "witness": {"assignment": {"x[2]": "19/20", "x[4]": "1/40", "x[5]": "1/80",
                                   "x[6]": "1/80", "y[t]": "19/20", "y[u]": "1/20",
                                   "ye[0]": "19/20", "ye[1]": "1/20"},
                    "decomposition": [["t"], ["u", "v"]], "slack": "11/2"}}


def test_equal_decisions_are_one_object(run_ex):
    # Equal queries on one MDP object give the decision already alive,
    # whichever query object asks: a yes with its witness, and a no.
    for nu, answer in (([0, 9], True), ([9, 9], False)):
        first = decide(run_ex, ThresholdQuery.build("bwc-fin", "s", [0, 0], nu))
        assert first.answer is answer and (first.witness is not None) is answer
        assert decide(run_ex, ThresholdQuery.build("bwc-fin", "s", [0, 0], nu)) is first


def test_equal_mdps_keep_their_own_witness_source():
    # Two equal MDPs that are distinct objects: each decision's witness
    # refers to the MDP it was decided on.
    a, b = fixture("RUN_EX"), fixture("RUN_EX")
    assert a == b and a is not b
    q = ThresholdQuery.build("bwc-fin", "s", [0, 0], [0, 9])
    da, db = decide(a, q), decide(b, q)
    assert da == db
    assert da.witness.source is a and db.witness.source is b
    assert decide(a, q) is da and decide(b, q) is db


def test_dropped_decision_leaves_the_table():
    mdp = fixture("RUN_EX")
    q = ThresholdQuery.build("exp", "s", [0, 0], [0, 9])
    key = (id(mdp), "exp", "s")
    dec = decide(mdp, q)
    assert systems._decisions[key] is dec
    del dec
    gc.collect()
    assert key not in systems._decisions


def test_cli_decides_do_not_grow_the_table(tmp_path, capsys):
    # Each CLI call loads its own MDP object, and nothing keeps the
    # decision once the call returns.
    path = str(tmp_path / "run.json")
    jsonio.save_mdp(path, fixture("RUN_EX"))
    argv = ["decide", "--mdp", path, "--mode", "bwc-fin", "--from", "s", "--mu=0,0",
            "--nu=0,9"]
    assert main(argv) == 0
    gc.collect()
    size = len(systems._decisions)
    for _ in range(5):
        assert main(argv) == 0
    gc.collect()
    assert len(systems._decisions) == size
    capsys.readouterr()


# Each MEC here whose only positive cycle is a random state's self-loop
# cannot meet its positivity row with proportional frequencies; `bas` and
# `bwc-inf` answered no while `bwc-fin` answered yes.  Given as (states,
# edges, probabilities, start, mu, nu); the last two are `gen.corpus`
# seed 6 instance 395 and seed 8 instance 665.
_CHAIN_BREAKERS = [
    ([("a", "controller"), ("b", "random"), ("c", "controller")],
     [(0, "a", "b", [-2]), (1, "a", "c", [0]), (2, "b", "b", [3]), (3, "b", "a", [-3]),
      (4, "c", "c", [2])],
     {2: F(2, 3), 3: F(1, 3)}, "a", F(1, 3), F(-6)),
    ([("q0", "controller"), ("q1", "random"), ("q2", "controller"), ("q3", "random")],
     [(0, "q0", "q1", [3]), (1, "q0", "q1", [-1]), (2, "q0", "q0", [2]),
      (3, "q1", "q1", [-2]), (4, "q1", "q1", [1]), (5, "q2", "q1", [-3]),
      (6, "q2", "q3", [-2]), (7, "q3", "q3", [-1]), (8, "q3", "q2", [3])],
     {3: F(3, 4), 4: F(1, 4), 7: F(2, 3), 8: F(1, 3)}, "q3", F(-5, 4), F(-3, 4)),
    ([("q0", "controller"), ("q1", "random"), ("q2", "controller"), ("q3", "controller"),
      ("q4", "random"), ("q5", "controller")],
     [(0, "q0", "q3", [1]), (1, "q0", "q1", [1]), (2, "q1", "q4", [2]), (3, "q2", "q0", [-1]),
      (4, "q2", "q3", [3]), (5, "q3", "q0", [-1]), (6, "q3", "q2", [3]), (7, "q3", "q3", [3]),
      (8, "q4", "q1", [-3]), (9, "q4", "q4", [2]), (10, "q4", "q4", [0]),
      (11, "q5", "q5", [-2]), (12, "q5", "q2", [-3])],
     {2: F(1), 8: F(1, 3), 9: F(1, 3), 10: F(1, 3)}, "q3", F(1, 3), F(-7, 2)),
]


@pytest.mark.parametrize("case", range(len(_CHAIN_BREAKERS)))
def test_positivity_respects_probabilities(case):
    # bwc-fin => bwc-inf => bas: all three, and wc, answer yes.
    states, edges, probs, start, mu, nu = _CHAIN_BREAKERS[case]
    mdp = Mdp.build(1, states, edges, probs)
    for mode in ("wc", "bwc-fin", "bwc-inf", "bas"):
        assert decide(mdp, ThresholdQuery.build(mode, start, [mu], [nu])).answer, mode


def test_decide_outputs_are_pinned():
    # 150 seeded random instances in all five modes: the decision JSON,
    # witnesses and spoilers included, hashes to the value it had before
    # the LP rows were built as integers.
    rng = random.Random(1212)
    digest = hashlib.sha256()
    answers = dict.fromkeys(MODES, 0)
    for _ in range(150):
        mdp = random_mdp(rng)
        for mode in MODES:
            dec = decide(mdp, random_query(rng, mdp, mode))
            answers[mode] += dec.answer
            digest.update(json.dumps(dec.to_json(), sort_keys=True).encode())
    assert answers == {"wc": 53, "exp": 59, "bas": 23, "bwc-fin": 20, "bwc-inf": 33}
    assert digest.hexdigest() == (
        "545eef759229ff8b12a99713120e10d76dc7e2e2938a1093cc1918f1a5576666")


def _same_rows(system, reference):
    # Each integer row over its denominator is the reference's named row,
    # in the same order, with no zero entry.
    assert system.variables == reference.variables
    assert len(system.constraints) == len(reference.rows)
    for row, (coeffs, relation, rhs) in zip(system.constraints, reference.rows):
        assert row.den > 0 and all(row.coeffs.values())
        assert {system.variables[j]: F(a, row.den) for j, a in row.coeffs.items()} == coeffs
        assert (row.relation, F(row.rhs, row.den)) == (relation, rhs)


def test_integer_rows_match_named_reference():
    rng = random.Random(1213)
    frequency_systems = 0
    for _ in range(60):
        mdp = random_mdp(rng)
        mdp, start = ensure_controller_start(mdp, rng.choice(mdp.state_ids))
        nu = [F(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(mdp.dimension)]
        comps = mecs(mdp)
        for positivity in (False, True):
            _same_rows(_flow_system(mdp, start, nu, comps, positivity),
                       named_flow_system(mdp, start, nu, comps, positivity, positivity))
        for comp in comps:
            for strict in (False, True):
                _same_rows(ec_expectation_system(mdp, comp, nu, strict),
                           named_ec_expectation_system(mdp, comp, nu, strict))
                frequency_systems += 1
    assert frequency_systems >= 100
