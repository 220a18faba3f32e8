"""SCC, reachability and end-component decomposition tests."""

import os
import random
import subprocess
import sys

import pytest

import bwcmdp
from bwcmdp.decomposition import mecs, reachable, restrict, restrict_states, sccs
from conftest import random_mdp
from oracles import brute_is_ec, brute_mecs, brute_reachable, brute_sccs, is_trivial_scc


def test_sccs_run_ex(run_ex):
    comps = sccs(run_ex)
    as_sets = [frozenset(c) for c in comps]
    assert set(as_sets) == {frozenset({"s"}), frozenset({"t"}), frozenset({"u", "v"})}
    assert is_trivial_scc(run_ex, {"s"})
    assert not is_trivial_scc(run_ex, {"t"})


def test_sccs_reverse_topological(run_ex):
    comps = sccs(run_ex)
    pos = {}
    for i, c in enumerate(comps):
        for s in c:
            pos[s] = i
    for e in run_ex.edges:
        assert pos[e.source] >= pos[e.target]


def test_sccs_single_component(approx_ex):
    assert [set(c) for c in sccs(approx_ex)] == [{"s", "t"}]


def test_sccs_empty_filter(run_ex):
    comps = sccs(run_ex, edge_filter=set())
    assert all(len(c) == 1 for c in comps)
    assert all(is_trivial_scc(run_ex, c, set()) for c in comps)


def test_sccs_match_brute_force():
    rng = random.Random(11)
    for _ in range(80):
        mdp = random_mdp(rng)
        eids = [e.eid for e in mdp.edges]
        for edge_filter in (None, set(), set(rng.sample(eids, rng.randint(1, len(eids))))):
            comps = sccs(mdp, edge_filter)
            assert {frozenset(c) for c in comps} == brute_sccs(mdp, edge_filter)
            assert sum(len(c) for c in comps) == len(mdp.state_ids)
            pos = {s: i for i, c in enumerate(comps) for s in c}
            for e in mdp.edges:
                if edge_filter is None or e.eid in edge_filter:
                    assert pos[e.source] >= pos[e.target]


def test_mecs_fixtures(run_ex, run_ex_bas, task_ex, approx_ex):
    assert {frozenset(ec.states) for ec in mecs(run_ex)} == {frozenset({"t"}), frozenset({"u", "v"})}
    assert {frozenset(ec.states) for ec in mecs(task_ex)} == {
        frozenset({"0", "1", "0,0", "0,1", "1,0", "1,1"})}
    assert {frozenset(ec.states) for ec in mecs(approx_ex)} == {frozenset({"s", "t"})}
    assert {frozenset(ec.states) for ec in mecs(run_ex_bas)} == {
        frozenset({"t"}), frozenset({"u", "v"})}


def test_mecs_match_brute_force():
    rng = random.Random(42)
    for _ in range(60):
        mdp = random_mdp(rng)
        got = {frozenset(ec.states) for ec in mecs(mdp)}
        assert got == brute_mecs(mdp)


def test_mec_invariants(run_ex):
    for ec in mecs(run_ex):
        assert brute_is_ec(run_ex, frozenset(ec.states))


def test_reachable(run_ex, run_ex_bas):
    assert reachable(run_ex, "s") == {"s", "t", "u", "v"}
    assert reachable(run_ex, "t") == {"t"}
    assert reachable(run_ex_bas, "u") == {"u", "v"}
    with pytest.raises(KeyError):
        reachable(run_ex, "zz")


def test_reachable_matches_brute():
    rng = random.Random(7)
    for _ in range(40):
        mdp = random_mdp(rng)
        for s in mdp.state_ids:
            assert reachable(mdp, s) == brute_reachable(mdp, s)


def test_restrict(run_ex):
    sub = restrict(run_ex, {"u", "v"})
    assert set(sub.state_ids) == {"u", "v"}
    assert len(sub.edges) == 3
    single = restrict(run_ex, {"t"})
    assert len(single.edges) == 1 and single.edges[0].weight == (5, 15)
    with pytest.raises(ValueError):
        restrict(run_ex, {"s", "t"})
    # Sub-MDPs share their parent's (state, owner) records.
    for sub in (restrict(run_ex, {"u", "v"}), restrict_states(run_ex, {"s", "t", "u", "v"})):
        parent = dict(zip(run_ex.state_ids, run_ex.states))
        assert sub.states and all(so is parent[so[0]] for so in sub.states)


_COUNT_SCCS = r"""
from bwcmdp import decomposition
from bwcmdp.model import Mdp

calls = 0
inner = decomposition.sccs


def counted(*args, **kwargs):
    global calls
    calls += 1
    return inner(*args, **kwargs)


decomposition.sccs = counted
# A ladder of random states r0 -> ... -> r11 -> z, each also back to c:
# only r11 leaves the component at first, and one refinement round removes
# a run of states that depends on the order the round visits them in.
n = 12
states = [("c", "controller"), ("z", "controller")] + [(f"r{i}", "random") for i in range(n)]
edges, probs = [(0, "c", "r0", [0]), (1, "z", "z", [0])], {}
for i in range(n):
    edges += [(2 * i + 2, f"r{i}", f"r{i + 1}" if i + 1 < n else "z", [0]),
              (2 * i + 3, f"r{i}", "c", [0])]
    probs.update({2 * i + 2: "1/2", 2 * i + 3: "1/2"})
comps = decomposition.mecs(Mdp.build(1, states, edges, probs))
print(calls, [sorted(c.states) for c in comps])
"""


def test_mecs_rounds_independent_of_hash_seed():
    # mecs once visited the random states in set order, so its rounds, and
    # its sccs calls, followed string hashing (8 calls under seed 0, 10
    # under seed 3 on this input).
    src = os.path.dirname(os.path.dirname(bwcmdp.__file__))
    outs = []
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _COUNT_SCCS], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        outs.append(done.stdout)
    assert outs[0] == outs[1] == "14 [['z']]\n"
