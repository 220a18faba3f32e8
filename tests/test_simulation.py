"""The block-stepped simulation kernel against scalar one-run replays."""

import importlib.util
import json
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bwcmdp import jsonio, rng
from bwcmdp.cli import main
from bwcmdp.machines import induced_chain, memoryless
from bwcmdp.model import Mdp, ThresholdQuery, fixture, negate_weights
from bwcmdp.synthesis import bas_strategy, bwc_finite_strategy, bwc_infinite_strategy
from bwcmdp.systems import decide
from bwcmdp.verification import (BLOCK, RANKS_PER_COLUMN, TABLE_CAP, _chain_arrays,
                                 _cycle_tables, _group_size, _initial_nodes, _rank_levels,
                                 simulate, step_blocks)
from conftest import random_mdp
from oracles import _first_node, _step, scalar_chain_totals, scalar_monitor_totals, uniform

HORIZONS = (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)


def group_size(*chains):
    """Steps per table lookup in ``step_blocks`` over the union of
    ``chains``, None when it steps by comparisons."""
    cols, base, _, _ = _chain_arrays(*chains)
    return _group_size(len(base), len(_rank_levels(cols)[1]) + 1, len(cols))


def kernel_chain_totals(chain, horizon, runs, seed):
    keys = rng.run_keys_array(seed, runs)
    cols, base, target, weight = _chain_arrays(chain)
    return step_blocks((cols, base, target), weight, _initial_nodes(chain, keys), keys,
                       horizon).tolist()


def test_uniform_block_rows_are_the_scalar_draws():
    keys = rng.run_keys_array(3, 7)
    assert keys.tolist() == [rng.run_key(3, r) for r in range(7)]
    block = rng.uniform_block(keys, 5, 2 * BLOCK)
    bits = rng.bits_block(keys, 5, 2 * BLOCK)
    assert block.shape == bits.shape == (2 * BLOCK, 7)
    assert bits.dtype == np.uint64 and int(bits.max()) < 2**53
    for i in range(2 * BLOCK):
        assert np.array_equal(block[i], rng.uniform_array(keys, 5 + i))
        assert block[i].tolist() == [uniform(int(k), 5 + i) for k in keys]
        assert [z * 2.0**-53 for z in bits[i].tolist()] == block[i].tolist()


@given(st.data())
def test_integer_thresholds_match_float_comparison(data):
    # The kernel compares draws z (u = z / 2**53, exact) with ceil(c * 2**53)
    # instead of u with c; the padding threshold 1.0 is beyond every draw.
    col = data.draw(st.one_of(st.floats(0.0, 1.0), st.just(1.0), st.just(0.0),
                              st.integers(0, 2**53).map(lambda k: k / 2**53),
                              st.integers(0, 64).map(lambda k: k / 64)))
    threshold = np.ceil(np.array([col]) * float(1 << 53)).astype(np.uint64)
    near = int(threshold[0]) + data.draw(st.integers(-2, 2))
    z = data.draw(st.one_of(st.integers(0, 2**53 - 1),
                            st.just(min(max(near, 0), 2**53 - 1))))
    assert bool(np.uint64(z) >= threshold[0]) == (z / 2**53 >= col)


def _chains():
    run, bas = fixture("RUN_EX"), fixture("RUN_EX_BAS")
    task = negate_weights(fixture("TASK_EX"), halve=True)
    out = [induced_chain(run, memoryless(run, {"s": 1, "u": 4, "t": 2}), "s")]
    for mdp, mode, start, mu, nu in (
            (run, "bwc-fin", "s", [0, 0], [0, 9]),
            (bas, "bas", "s", [0, 0], [F(99, 10), F(99, 10)]),
            (task, "bwc-fin", "0", [F(-49, 8), F(-64)], [F(-49, 8), F(-29, 8)])):
        strategy = (bas_strategy if mode == "bas" else bwc_finite_strategy)(
            mdp, ThresholdQuery.build(mode, start, mu, nu))
        machine, prepared, pstart = strategy[:3]
        out.append(induced_chain(prepared, machine, pstart))
    gen = random.Random(20150430)
    for dim in (1, 2, 3):
        for _ in range(3):
            mdp = random_mdp(gen, max_dim=dim)
            while mdp.dimension != dim:
                mdp = random_mdp(gen, max_dim=dim)
            choices = {}
            for s in mdp.state_ids:
                if not mdp.is_random(s):
                    parts = [gen.randint(1, 3) for _ in mdp.out_edges[s]]
                    choices[s] = {e.eid: F(p, sum(parts))
                                  for e, p in zip(mdp.out_edges[s], parts)}
            out.append(induced_chain(mdp, memoryless(mdp, choices), mdp.state_ids))
    # Block sums add a block's weights in the least integer type that holds
    # BLOCK times the largest |weight|: weights on either side of each
    # type's edge, on a coin between two loops.
    for w in (7, 8, 2047, 2048, 2**27, 2**28, 2**56):
        for sign in (1, -1):
            mdp = Mdp.build(2, [("r", "random")],
                            [(0, "r", "r", [sign * w, -sign * w]), (1, "r", "r", [sign * w, 0])],
                            {0: F(1, 2), 1: F(1, 2)})
            out.append(induced_chain(mdp, memoryless(mdp, {}), "r"))
    return out


def _absorbing_chains():
    """Chains whose runs end on cycles of single-transition nodes."""
    def chain(states, edges, probs, start):
        mdp = Mdp.build(1, states, edges, probs)
        return induced_chain(mdp, memoryless(mdp, {}), start)

    def cycle(names, weights, first_eid):
        return [(first_eid + i, a, names[(i + 1) % len(names)], [w])
                for i, (a, w) in enumerate(zip(names, weights))]

    # A fair three-way coin into cycles of length 1, 2 and 3, entered after
    # 2, 3 and 6 steps: every run is absorbed, at different steps.
    ctrl = [(s, "controller") for s in ("a", "b1", "b2", "c1", "c2", "c3", "c4", "c5",
                                        "x", "y1", "y2", "z1", "z2", "z3")]
    edges = [(0, "r", "a", [1]), (1, "r", "b1", [-2]), (2, "r", "c1", [3]),
             (3, "b1", "b2", [5]), (4, "b2", "y1", [-1]), (5, "c1", "c2", [2]),
             (6, "c2", "c3", [0]), (7, "c3", "c4", [-7]), (8, "c4", "c5", [4]),
             (9, "c5", "z1", [1]), (10, "a", "x", [2])]
    edges += cycle(["x"], [3], 11) + cycle(["y1", "y2"], [4, -1], 12)
    edges += cycle(["z1", "z2", "z3"], [2, -5, 6], 14)
    absorbed = chain([("r", "random")] + ctrl, edges,
                     {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}, "r")
    # Half the runs stay on a random bottom component, half fall into a
    # deterministic 2-cycle.
    partly = chain([("r", "random"), ("p", "random"), ("q", "random"),
                    ("x1", "controller"), ("x2", "controller")],
                   [(0, "r", "p", [1]), (1, "r", "x1", [-1]), (2, "p", "q", [2]),
                    (3, "p", "p", [-3]), (4, "q", "p", [1]), (5, "q", "q", [0])]
                   + cycle(["x1", "x2"], [5, -2], 6),
                   {0: F(1, 2), 1: F(1, 2), 2: F(1, 3), 3: F(2, 3), 4: F(1, 4), 5: F(3, 4)},
                   "r")
    # No choice anywhere: a path of 2 * BLOCK + 3 steps into a 3-cycle.
    path = [f"t{i}" for i in range(2 * BLOCK + 3)]
    line = chain([(s, "controller") for s in path + ["u0", "u1", "u2"]],
                 [(i, s, (path + ["u0"])[i + 1], [i % 5 - 2]) for i, s in enumerate(path)]
                 + cycle(["u0", "u1", "u2"], [1, 1, -4], len(path)),
                 {}, "t0")
    return [absorbed, partly, line]


def test_chain_kernel_matches_scalar_walk():
    chains = _chains()
    assert max(len(row) for c in chains for row in c.transitions) >= 3
    for k, chain in enumerate(chains):
        for horizon in HORIZONS:
            for runs in (1, 7):
                assert kernel_chain_totals(chain, horizon, runs, seed=k) == \
                    scalar_chain_totals(chain, horizon, runs, seed=k), (k, horizon, runs)
    # Long horizons that are not multiples of the cycle lengths, on chains
    # whose runs finish in closed form (all, some or none absorbed).
    for k, chain in enumerate(_absorbing_chains()):
        for horizon in (2000, 2001):
            assert kernel_chain_totals(chain, horizon, 3, seed=k) == \
                scalar_chain_totals(chain, horizon, 3, seed=k), (k, horizon)


def test_chains_take_the_table_walk():
    # The benchmark's chains and the others above step through the tables,
    # several steps a lookup: the horizons above leave a few steps past the
    # last full group.
    sizes = [group_size(chain) for chain in _chains() + _absorbing_chains()]
    assert None not in sizes and {4, 8, BLOCK} <= set(sizes)


def test_runs_leave_the_walk_at_different_blocks():
    # A coin that stays with odds 31/32, else falls into a 2-cycle: each run
    # is finished in closed form at the first block it starts on the cycle.
    mdp = Mdp.build(1, [("r", "random"), ("x1", "controller"), ("x2", "controller")],
                    [(0, "r", "r", [1]), (1, "r", "x1", [-2]), (2, "x1", "x2", [3]),
                     (3, "x2", "x1", [-1])], {0: F(31, 32), 1: F(1, 32)})
    chain = induced_chain(mdp, memoryless(mdp, {}), "r")
    runs, horizon = 40, 20 * BLOCK + 3
    assert kernel_chain_totals(chain, horizon, runs, seed=5) == \
        scalar_chain_totals(chain, horizon, runs, seed=5)
    # The blocks at whose start the runs first sit on the cycle.
    finished = set()
    for r in range(runs):
        key = rng.run_key(5, r)
        node = _first_node(chain, key)
        for t in range(horizon):
            node, _, _ = _step(chain, node, uniform(key, t + 1))
            if chain.nodes[node][0] == "x1":
                finished.add(-(-(t + 1) // BLOCK))
                break
    assert len(finished) >= 5


def _coin_ring(n):
    """A ring of n nodes, every 8th a fair coin that steps ahead by 1 or 5:
    one distinct threshold."""
    names = [f"c{i}" for i in range(n)]
    states = [(s, "random" if i % 8 == 0 else "controller") for i, s in enumerate(names)]
    edges, probs = [], {}
    for i, s in enumerate(names):
        edges.append((len(edges), s, names[(i + 1) % n], [i % 7 - 3]))
        if i % 8 == 0:
            probs[len(edges) - 1] = probs[len(edges)] = F(1, 2)
            edges.append((len(edges), s, names[(i + 5) % n], [2 - i % 5]))
    mdp = Mdp.build(1, states, edges, probs)
    return induced_chain(mdp, memoryless(mdp, {}), "c0")


def _many_thresholds():
    """A ring of RANKS_PER_COLUMN + 1 two-way coins with distinct odds:
    one threshold column, RANKS_PER_COLUMN + 1 distinct thresholds."""
    n = RANKS_PER_COLUMN + 1
    names = [f"c{i}" for i in range(n)]
    edges, probs = [], {}
    for i, s in enumerate(names):
        probs[2 * i], probs[2 * i + 1] = F(i + 1, n + 2), F(n + 1 - i, n + 2)
        edges += [(2 * i, s, names[(i + 1) % n], [i % 3 - 1]),
                  (2 * i + 1, s, names[(i + 3) % n], [2 - i % 4])]
    mdp = Mdp.build(1, [(s, "random") for s in names], edges, probs)
    return induced_chain(mdp, memoryless(mdp, {}), "c0")


def test_comparison_step_matches_scalar_walk():
    # Chains with too many thresholds or nodes step by comparisons; a ring
    # at the table cap steps through one-step tables.
    assert TABLE_CAP % 2 == 0
    cases = [(_many_thresholds(), None), (_coin_ring(TABLE_CAP // 2 + 1), None),
             (_coin_ring(TABLE_CAP // 2), 1)]
    for k, (chain, size) in enumerate(cases):
        assert group_size(chain) == size
        for horizon in (1, BLOCK + 1, 3 * BLOCK + 5):
            assert kernel_chain_totals(chain, horizon, 7, seed=k) == \
                scalar_chain_totals(chain, horizon, 7, seed=k), (k, horizon)


def test_cycle_tables_are_linear_in_nodes():
    # One cycle through 200,000 nodes: tables of nodes * cycle length
    # entries (4 * 10**10) could not be built; these hold 2 * nodes + 1
    # prefix sums per dimension.
    n = 200_000
    base = np.arange(n, dtype=np.int64)
    target = (base + 1) % n
    weight = np.stack([base % 7 - 3, base % 5 - 1], axis=1)
    length, offset, prefix = _cycle_tables(base, target, weight)
    assert (length == n).all() and prefix.shape == (2, 2 * n + 1)
    cols = np.ones((0, n))
    node = np.array([0, 1, n - 1, 12345], dtype=np.int64)
    horizon = 2 * n + 7
    got = step_blocks((cols, base, target), weight, node, rng.run_keys_array(0, 4), horizon)
    doubled = np.concatenate([weight, weight]).astype(object)
    for v, row in zip(node.tolist(), got.tolist()):
        laps, rest = divmod(horizon, n)
        want = laps * weight.sum(axis=0).astype(object) + doubled[v:v + rest].sum(axis=0)
        assert row == list(want)
    # Nodes with a choice, or off every cycle, get length 0.
    length, _, _ = _cycle_tables(np.array([0, 2]), np.array([0, 1, 1]),
                                 np.zeros((3, 1), dtype=np.int64))
    assert length.tolist() == [0, 1]


def _candidate_corpus():
    """The bwc-inf yes-instances among the benchmark's synth-sim candidates."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    out = []
    for mdp, q in gen.corpus(1504_08211, 48):
        query = ThresholdQuery("bwc-inf", q.start, q.mu, q.nu)
        if len(out) < 4 and decide(mdp, query).answer:
            out.append((mdp, query))
    return out


def test_monitor_kernel_matches_scalar_replay():
    run = fixture("RUN_EX")
    instances = [(run, ThresholdQuery.build("bwc-inf", "s", [0, 0],
                                            [F(99, 10), F(99, 10)]))]
    instances += _candidate_corpus()
    assert len(instances) == 5
    cases = [(mdp, query, (5, BLOCK), k) for k, (mdp, query) in enumerate(instances)]
    # A gamble, +12 or -4 on a fair coin, against a safe loop of 1: its runs
    # also fall to the running floor inside a phase, and land on either
    # floor exactly.
    gamble = Mdp.build(1, [("a", "controller"), ("r", "random")],
                       [(0, "a", "a", [1]), (1, "a", "r", [0]), (2, "r", "a", [12]),
                        (3, "r", "a", [-4])], {2: F(1, 2), 3: F(1, 2)}, initial="a")
    cases.append((gamble, ThresholdQuery.build("bwc-inf", "a", [0], [F(3, 2)]), (8, 16), 3))
    trips = []

    def check(mdp, start, strategy, horizon, runs, seed):
        want, tripped, breaches = scalar_monitor_totals(strategy, mdp, horizon, runs, seed)
        got = strategy.simulate_runs(mdp, start, horizon, runs, seed)
        assert got.tolist() == want, (seed, strategy.period, strategy.monitors, horizon, runs)
        assert breaches == 0
        trips.extend((t, horizon) for t in tripped)

    for mdp, query, periods, seed in cases:
        strategy = bwc_infinite_strategy(mdp, query, period=periods[0])
        # A copy loaded from its file reads branches off ``branch_map``.
        loaded = jsonio.procedural_from_json(
            mdp, json.loads(json.dumps(jsonio.procedural_to_json(mdp, strategy))))
        assert loaded.branch_map
        for period in periods:
            for horizon in HORIZONS:
                for runs in (1, 7):
                    check(mdp, query.start, replace(strategy, period=period), horizon, runs,
                          seed)
        # Periods shorter and longer than a block, and floor rates two and
        # three times the synthesized ones, which trip many runs and at
        # every position in a block.  With periods of two blocks, runs also
        # trip in blocks without a phase end.
        for period in (1, 2, 3, BLOCK - 1, BLOCK + 1, 2 * BLOCK):
            for factor in (1, 2, 3):
                monitors = [tuple(factor * r for r in rates) for rates in loaded.monitors]
                check(mdp, query.start, replace(loaded, period=period, monitors=monitors),
                      max(3 * BLOCK + 5, 3 * period), 33, seed)
    # Trips are exercised mid-block (the rest of the block is walked
    # again) and on a block's last step with steps left.
    assert any(t % BLOCK < BLOCK - 1 for t, _ in trips)
    assert any(t % BLOCK == BLOCK - 1 and t < horizon - 1 for t, horizon in trips)


def test_monitor_trips_at_group_ends_and_on_the_comparison_step():
    # A gamble, +12 or -4 on a fair coin, against a safe loop of 1 steps
    # through the tables; so does a longer one, where coin i of n pays +12
    # back to a with odds (n + 1 + i) / (2n + 2), else -4 on to the next
    # coin, but its n = RANKS_PER_COLUMN + 1 distinct odds are too many
    # thresholds for the tables.  Floor rates up to three times the
    # synthesized ones trip runs at many steps.
    gamble = Mdp.build(1, [("a", "controller"), ("r", "random")],
                       [(0, "a", "a", [1]), (1, "a", "r", [0]), (2, "r", "a", [12]),
                        (3, "r", "a", [-4])], {2: F(1, 2), 3: F(1, 2)}, initial="a")
    n = RANKS_PER_COLUMN + 1
    edges, probs = [(0, "a", "a", [1]), (1, "a", "r0", [0]), (2, "b", "a", [0])], {2: F(1)}
    for i in range(n):
        probs[len(edges)], probs[len(edges) + 1] = F(n + 1 + i, 2 * n + 2), F(n + 1 - i, 2 * n + 2)
        edges += [(len(edges), f"r{i}", "a", [12]),
                  (len(edges) + 1, f"r{i}", f"r{i + 1}" if i + 1 < n else "b", [-4])]
    longer = Mdp.build(1, [("a", "controller"), ("b", "random")]
                       + [(f"r{i}", "random") for i in range(n)], edges, probs, initial="a")
    query = ThresholdQuery.build("bwc-inf", "a", [0], [F(3, 2)])
    trips = []
    for seed, mdp in enumerate((gamble, longer)):
        strategy = bwc_infinite_strategy(mdp, query, period=8)
        m = group_size(induced_chain(strategy.mdp, strategy.composed, strategy.start),
                       induced_chain(strategy.mdp, strategy.fwc, strategy.mdp.state_ids))
        for period in (1, 2, 3, BLOCK - 1, BLOCK + 1, 2 * BLOCK):
            for factor in (1, 2, 3):
                monitors = [tuple(factor * r for r in rates) for rates in strategy.monitors]
                case = replace(strategy, period=period, monitors=monitors)
                horizon = max(3 * BLOCK + 5, 3 * period)
                want, tripped, breaches = scalar_monitor_totals(case, mdp, horizon, 33, seed)
                assert case.simulate_runs(mdp, "a", horizon, 33, seed).tolist() == want
                assert breaches == 0
                trips += [(t, m) for t in tripped]
    # Trips on the last step of a group inside a block: the rest of the
    # block is walked again from a group's start.
    assert any(m is not None and m < BLOCK and t % m == m - 1 and t % BLOCK < BLOCK - 1
               for t, m in trips)
    assert any(m is None for _, m in trips)


def test_monitor_simulation_memory():
    # The benchmark's bwc-inf simulate (RUN_EX, 1,000 runs x 4,000 steps,
    # the strategy loaded from its file): the block monitor replays its
    # candidate runs one step at a time, with temporaries of one row per
    # dimension, so the traced peak stays near the walk's own buffers
    # (0.67 MB with NumPy 2.4 on CPython 3.11).
    run = fixture("RUN_EX")
    query = ThresholdQuery.build("bwc-inf", "s", [0, 0], [F(99, 10), F(99, 10)])
    record = jsonio.procedural_to_json(run, bwc_infinite_strategy(run, query, period=2048))
    strategy = jsonio.procedural_from_json(run, json.loads(json.dumps(record)))
    tracemalloc.start()
    try:
        simulate(run, strategy, "s", horizon=4000, runs=1000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 800_000


def test_monitor_overflow(tmp_path, capsys):
    # Weights of 2**56 with floor rate 2**55: the monitor's int64
    # comparisons fit for 7 steps and not for 64, where simulation refuses
    # instead of wrapping.
    mdp = Mdp.build(1, [("a", "controller")], [(0, "a", "a", [2**56])])
    strategy = bwc_infinite_strategy(mdp, ThresholdQuery.build("bwc-inf", "a", [0], [1]),
                                     period=8)
    assert simulate(mdp, strategy, "a", horizon=7, runs=2, seed=0).mean == (float(2**56),)
    with pytest.raises(OverflowError):
        simulate(mdp, strategy, "a", horizon=64, runs=2, seed=0)
    path, out = str(tmp_path / "mdp.json"), str(tmp_path / "proc.json")
    jsonio.save_mdp(path, mdp)
    assert main(["synthesize", "--mdp", path, "--mode", "bwc-inf", "--from", "a",
                 "--mu", "0", "--nu", "1", "--period", "8", "--out", out]) == 0
    capsys.readouterr()
    code = main(["simulate", "--mdp", path, "--strategy", out, "--from", "a",
                 "--runs", "2", "--horizon", "64"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "int64" in captured.err
