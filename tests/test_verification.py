"""Exact chain analysis, Karp cycle means, strategy verification, simulation."""

import random
from fractions import Fraction as F

import pytest

from bwcmdp.machines import (MachineError, TableMachine, induced_chain, memoryless,
                             support_product)
from bwcmdp.model import Mdp
from bwcmdp.verification import (WeightedGraph, _karp_scc, bottom_means, bscc_analysis, expected_mp,
                                 karp_min_mean, simulate, simulate_chain, verify_almost_sure,
                                 verify_worstcase)
from conftest import random_mdp
from oracles import brute_min_cycle_mean, karp_formula, mdp_graph, min_mean_cycle_witness


def t_loop_machine(run_ex):
    return memoryless(run_ex, {"s": 0, "t": 2, "u": 3})


def uv_machine(run_ex):
    return memoryless(run_ex, {"s": 1, "u": 4, "t": 2})


def two_branch_machine(approx_ex):
    """Stay at s or at t forever, an even coin flipped up front."""
    stay_s, stay_t = "stay-s", "stay-t"
    update = {(s, m): {m: F(1)} for s in ("s", "t") for m in (stay_s, stay_t)}
    output = {
        ("s", stay_s): {0: F(1)},
        ("t", stay_t): {2: F(1)},
        ("s", stay_t): {1: F(1)},
        ("t", stay_s): {3: F(1)},
    }
    return TableMachine([stay_s, stay_t], {stay_s: F(1, 2), stay_t: F(1, 2)}, update, output)


# -- BSCC analysis ----------------------------------------------------------

def test_bscc_t_loop(run_ex):
    chain = induced_chain(run_ex, t_loop_machine(run_ex), "t")
    (b,) = bscc_analysis(chain)
    assert b.reach == 1 and list(b.stationary.values()) == [F(1)]
    assert b.mean == (F(5), F(15))


def test_bscc_two_branches(approx_ex):
    chain = induced_chain(approx_ex, two_branch_machine(approx_ex), "s")
    bs = bscc_analysis(chain)
    assert len(bs) == 2
    assert sorted(b.reach for b in bs) == [F(1, 2), F(1, 2)]
    assert sorted(b.mean for b in bs) == [(F(0), F(1)), (F(1), F(0))]
    assert bottom_means(chain) == [b.mean for b in bs]


def test_bscc_cycle_uniform(approx_ex):
    # The 4-node cycle induced by the dwell-1 rotation: uniform stationary mass.
    from bwcmdp.decomposition import mecs
    from bwcmdp.synthesis import CyclingMachine, local_strategies
    from bwcmdp.systems import ec_expectation_system
    from bwcmdp import linsolve

    ec = mecs(approx_ex)[0]
    out = linsolve.solve(ec_expectation_system(approx_ex, ec, [F(1, 2), F(1, 2)]))
    locs = local_strategies(approx_ex, ec, out.assignment)
    chain = induced_chain(approx_ex, CyclingMachine(approx_ex, ec, locs, 1), "s")
    (b,) = bscc_analysis(chain)
    assert len(b.nodes) == 4
    assert set(b.stationary.values()) == {F(1, 4)}


def _random_table_machine(rng: random.Random, mdp: Mdp) -> TableMachine:
    """Up to three memories; half of the updates keep the memory, so chains
    split into several bottom SCCs with transient nodes before them."""
    mems = list(range(rng.randint(1, 3)))

    def dist(keys):
        keys = rng.sample(keys, rng.randint(1, len(keys)))
        weights = [rng.randint(1, 3) for _ in keys]
        return {k: F(x, sum(weights)) for k, x in zip(keys, weights)}

    update, output = {}, {}
    for s in mdp.state_ids:
        for m in mems:
            update[(s, m)] = {m: F(1)} if rng.random() < 0.5 else dist(mems)
            if not mdp.is_random(s):
                output[(s, m)] = dist([e.eid for e in mdp.out_edges[s]])
    return TableMachine(mems, dist(mems), update, output)


def test_sparse_bscc_analysis_matches_dense_reference():
    from oracles import dense_bscc_analysis

    rng = random.Random(23)
    several = transient = 0
    for _ in range(240):
        mdp = random_mdp(rng)
        starts = rng.sample(mdp.state_ids, rng.randint(1, 2))
        chain = induced_chain(mdp, _random_table_machine(rng, mdp), starts)
        ref = dense_bscc_analysis(chain)
        assert bscc_analysis(chain) == ref
        assert bottom_means(chain) == [b.mean for b in ref]
        several += len(ref) > 1
        transient += sum(len(b.nodes) for b in ref) < chain.node_count()
    assert several >= 40 and transient >= 100


def test_expected_mp_examples(run_ex):
    assert expected_mp(induced_chain(run_ex, t_loop_machine(run_ex), "s")) == (F(5), F(15))
    assert expected_mp(induced_chain(run_ex, uv_machine(run_ex), "s")) == (F(15), F(5))


# -- Karp -------------------------------------------------------------------

def test_karp_examples(run_ex, approx_ex):
    t_only = mdp_graph(run_ex, "t")
    assert karp_min_mean(t_only, 0) == 5
    full = mdp_graph(run_ex, "s")
    assert karp_min_mean(full, 1) == -30
    assert karp_min_mean(mdp_graph(approx_ex, "s"), 0) == 0


def test_karp_no_cycle():
    m = Mdp.build(1, [("a", "controller"), ("b", "controller")],
                  [(0, "a", "b", [1]), (1, "b", "b", [2])])
    g = mdp_graph(m, "a")
    assert karp_min_mean(g, 0) == 2
    # Restrict to the acyclic part only.
    from bwcmdp.verification import WeightedGraph

    acyclic = WeightedGraph(("a", "b"), ((0, 1, (1,), 0),), (0,))
    assert karp_min_mean(acyclic, 0) is None


def test_karp_matches_cycle_enumeration():
    rng = random.Random(5)
    for _ in range(50):
        mdp = random_mdp(rng)
        g = mdp_graph(mdp, mdp.state_ids[0])
        # The oracle sees only the part reachable from the start node.
        from oracles import brute_reachable

        reach = brute_reachable(mdp, mdp.state_ids[0])
        ridx = {i for i, s in enumerate(g.nodes) if s in reach}
        edges = [e for e in g.edges if e[0] in ridx and e[1] in ridx]
        for dim in range(mdp.dimension):
            got = karp_min_mean(g, dim)
            want = brute_min_cycle_mean(g.nodes, edges, dim)
            assert got == want


def test_karp_beyond_int64():
    # Path sums of 2**62 and more leave int64: exact Python ints take over.
    big = 2**61
    two_cycle = WeightedGraph((0, 1), ((0, 1, (big,), 0), (1, 0, (big,), 1)), (0,))
    assert karp_min_mean(two_cycle, 0) == big
    cyc = min_mean_cycle_witness(two_cycle, 0, F(big))
    assert sorted(cyc) == [0, 1]


def test_karp_large_weights_match_cycle_enumeration():
    rng = random.Random(9)
    for _ in range(30):
        mdp = random_mdp(rng, max_dim=1)
        scaled = mdp.replace_weights({e.eid: (e.weight[0] * 2**60 + rng.randint(-3, 3),)
                                      for e in mdp.edges})
        g = mdp_graph(scaled)
        g = WeightedGraph(g.nodes, g.edges, tuple(range(len(g.nodes))))
        assert karp_min_mean(g, 0) == brute_min_cycle_mean(g.nodes, g.edges, 0)


def test_karp_matches_the_formula_on_large_sccs():
    # Strongly connected graphs of 20 to 120 nodes: a ring plus random
    # chords.  In every other graph the ring has even length and each
    # chord an odd offset, so every cycle is even and half of the walk
    # table stays empty.
    rng = random.Random(17)
    for trial in range(24):
        bipartite = trial % 2 == 1
        m = rng.randint(10, 60) * 2
        edges = [(i, (i + 1) % m, (rng.randint(-9, 9),), i) for i in range(m)]
        for j in range(m // 2):
            u = rng.randrange(m)
            v = (u + 2 * rng.randrange(m // 2) + 1) % m if bipartite else rng.randrange(m)
            edges.append((u, v, (rng.randint(-9, 9),), m + j))
        comp = list(range(m))
        want = karp_formula(comp, edges, 0)
        assert _karp_scc(comp, edges, 0) == want
        assert karp_min_mean(WeightedGraph(tuple(comp), tuple(edges), (0,)), 0) == want


def test_several_starts_union():
    # One walk from several starts covers exactly the union of the
    # single-start walks, so the worst case holds from all of them at once
    # iff it holds from each, and the minimum cycle mean is the least one.
    rng = random.Random(13)
    for _ in range(40):
        mdp = random_mdp(rng)
        choice = {s: rng.choice(mdp.out_edges[s]).eid for s in mdp.state_ids
                  if not mdp.is_random(s)}
        machine = memoryless(mdp, choice)
        mu = [F(rng.randint(-2, 2)) for _ in range(mdp.dimension)]
        union = verify_worstcase(mdp, machine, mu, start=mdp.state_ids).ok
        assert union == all(verify_worstcase(mdp, machine, mu, start=s).ok
                            for s in mdp.state_ids)
        nodes, edges, init = support_product(mdp, machine, mdp.state_ids)
        assert {s for s, _ in nodes} == set(mdp.state_ids)
        graph = WeightedGraph(tuple(nodes), tuple(edges), tuple(init))
        for dim in range(mdp.dimension):
            per_start = []
            for s in mdp.state_ids:
                n1, e1, i1 = support_product(mdp, machine, s)
                v = karp_min_mean(WeightedGraph(tuple(n1), tuple(e1), tuple(i1)), dim)
                if v is not None:
                    per_start.append(v)
            assert karp_min_mean(graph, dim) == min(per_start, default=None)


def test_witness_cycle_is_closed():
    # The DFS over tight edges starts at node 0, whose tight edge enters
    # the min-mean cycle 1 -> 2 -> 1: that entry edge is not on the cycle.
    g = WeightedGraph((0, 1, 2), ((0, 1, (-1,), "ab"), (1, 2, (-1,), "bc"),
                                  (2, 1, (-1,), "cb"), (2, 0, (5,), "ca")), (0,))
    assert karp_min_mean(g, 0) == -1
    assert min_mean_cycle_witness(g, 0, F(-1)) == ["bc", "cb"]
    rng = random.Random(14)
    for _ in range(40):
        mdp = random_mdp(rng)
        g = mdp_graph(mdp)
        for dim in range(mdp.dimension):
            cyc = min_mean_cycle_witness(g, dim, F(3))
            if cyc is None:
                continue
            edges = [mdp.edge_by_id[eid] for eid in cyc]
            assert all(a.target == b.source for a, b in zip(edges, edges[1:] + edges[:1]))
            assert F(sum(e.weight[dim] for e in edges), len(edges)) == karp_min_mean(g, dim)


def test_witness_cycle_mean_matches(run_ex):
    g = mdp_graph(run_ex, "s")
    cyc = min_mean_cycle_witness(g, 1, F(0))
    assert cyc is not None
    weights = [run_ex.edge_by_id[eid].weight[1] for eid in cyc]
    assert F(sum(weights), len(weights)) <= 0


# -- worst-case / almost-sure verification -----------------------------------

def test_verify_worstcase_examples(run_ex):
    ok = verify_worstcase(run_ex, t_loop_machine(run_ex), [F(0), F(0)], "s")
    assert ok.ok
    bad = verify_worstcase(run_ex, uv_machine(run_ex), [F(0), F(0)], "s")
    assert not bad.ok and bad.dim == 1
    # The witness cycle is a consistent play violating the threshold.
    weights = [run_ex.edge_by_id[eid].weight[1] for eid in bad.witness_cycle]
    assert F(sum(weights), len(weights)) <= 0


def test_verify_worstcase_vacuous(run_ex):
    mu = [F(-81), F(-81)]  # beyond -W: all dimensions trivial
    assert verify_worstcase(run_ex, uv_machine(run_ex), mu, "s").ok


def test_verify_almost_sure_gap(run_ex, run_ex_bas):
    m = uv_machine(run_ex)
    assert verify_almost_sure(run_ex, m, [F(0), F(0)], "s")
    assert not verify_worstcase(run_ex, m, [F(0), F(0)], "s").ok
    assert not verify_almost_sure(run_ex, m, [F(15), F(5)], "s")


# -- simulation ---------------------------------------------------------------

def test_simulate_deterministic_loop(run_ex):
    rep = simulate(run_ex, t_loop_machine(run_ex), "t", horizon=1000, runs=5, seed=0,
                   mu=[F(0), F(0)])
    assert rep.mean == (5.0, 15.0)
    assert rep.min == rep.max == (5.0, 15.0)
    assert rep.exceed_fraction == 1.0


def test_simulate_seed_determinism(run_ex):
    a = simulate(run_ex, uv_machine(run_ex), "s", horizon=500, runs=100, seed=9)
    b = simulate(run_ex, uv_machine(run_ex), "s", horizon=500, runs=100, seed=9)
    assert a == b
    c = simulate(run_ex, uv_machine(run_ex), "s", horizon=500, runs=100, seed=10)
    assert a != c


def test_simulate_chain_overflow():
    # Sixteen steps of weight 2**60 leave int64; the totals used to wrap
    # to a mean of 0.0.
    m = Mdp.build(1, [("a", "controller")], [(0, "a", "a", [2**60])])
    chain = induced_chain(m, memoryless(m, {"a": 0}), "a")
    with pytest.raises(OverflowError):
        simulate_chain(chain, horizon=16, runs=2, seed=0)
    assert simulate_chain(chain, horizon=7, runs=2, seed=0).mean == (float(2**60),)


def test_simulate_argument_validation(run_ex):
    with pytest.raises(ValueError):
        simulate(run_ex, t_loop_machine(run_ex), "t", horizon=0, runs=1, seed=0)


def test_monte_carlo_matches_exact(run_ex):
    """Empirical means stay within 3 standard errors of the exact value.

    A deterministic dimension has zero sample error, so the finite-horizon
    transient bias (at most a few weights out of the whole horizon) is
    allowed on top.
    """
    machine = uv_machine(run_ex)
    chain = induced_chain(run_ex, machine, "s")
    exact = expected_mp(chain)
    horizon = 10_000
    bias = 2 * run_ex.max_abs_weight * chain.node_count() / horizon
    misses = 0
    trials = 30
    for seed in range(trials):
        rep = simulate(run_ex, machine, "s", horizon=horizon, runs=60, seed=seed)
        for i in range(2):
            se = rep.stddev[i] / (rep.runs ** 0.5)
            if abs(rep.mean[i] - float(exact[i])) > 3 * se + bias:
                misses += 1
                break
    assert misses <= 1


def test_check_machine_flags_bad_support(run_ex):
    bad = memoryless(run_ex, {"s": 0, "t": 2, "u": 3})
    bad.output_table[("s", 0)] = {5: F(1)}  # not an outgoing edge of s
    with pytest.raises(MachineError, match="non-outgoing"):
        induced_chain(run_ex, bad, "s")


@pytest.mark.parametrize("dist", [{0: F(1, 2)}, {0: F(3, 2), 1: F(-1, 2)}])
def test_walk_rejects_bad_distributions(run_ex, dist):
    good = memoryless(run_ex, {"s": 0, "t": 2, "u": 3})
    induced_chain(run_ex, good, "s")
    bad = memoryless(run_ex, {"s": 0, "t": 2, "u": 3})
    bad.output_table[("s", 0)] = dist
    with pytest.raises(MachineError):
        induced_chain(run_ex, bad, "s")
    bad = memoryless(run_ex, {"s": 0, "t": 2, "u": 3})
    bad.update_table[("t", 0)] = {0: F(1, 2)}
    with pytest.raises(MachineError, match="sum"):
        induced_chain(run_ex, bad, "s")


def test_solve_linear_solves_random_systems():
    from bwcmdp.verification import solve_linear
    from oracles import fraction_solve_linear

    def sparse(a, b):  # the dense system as solve_linear's rows: A's columns, then b's
        return [{j: v for j, v in enumerate([*row, *r]) if v} for row, r in zip(a, b)]

    rng = random.Random(31)
    solved = 0
    while solved < 60:
        n, k = rng.randint(1, 6), rng.randint(1, 3)
        ints = solved % 2 == 0  # plain ints half of the time
        def entry():
            v = rng.choice([0, 0, rng.randint(-5, 5)])
            return v if ints else F(v, rng.randint(1, 4))
        a = [[entry() for _ in range(n)] for _ in range(n)]
        b = [[entry() for _ in range(k)] for _ in range(n)]
        try:
            x = solve_linear(sparse(a, b), k)
        except ArithmeticError:
            with pytest.raises(ArithmeticError):
                fraction_solve_linear(a, b)
            continue  # singular
        solved += 1
        assert x == fraction_solve_linear(a, b)
        assert all(type(v) is F for row in x for v in row)
        for i in range(n):
            for j in range(k):
                assert sum(a[i][m] * x[m][j] for m in range(n)) == b[i][j]
    with pytest.raises(ArithmeticError):
        solve_linear(sparse([[1, 2], [2, 4]], [[1], [2]]), 1)
