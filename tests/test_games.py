"""Worst-case game solving: multicycle certificates, regions, values, pruning."""

import itertools
import random
from fractions import Fraction as F

import pytest

from bwcmdp import games
from bwcmdp.decomposition import index_sccs, mecs, restrict, sccs
from bwcmdp.games import (AdversaryBudgetExceeded, AdversaryChoice, Unsatisfiable, mwecs,
                          positive_multicycle, prune, revalidate_certificate,
                          wc_positional_strategy_unidim, wc_winning_region)
from bwcmdp.model import Mdp
from conftest import random_game, random_mdp
from oracles import (brute_game_value, brute_wc_region, free_multicycle, lp_positive_component,
                     wc_value_unidim)


def test_multicycle_single_loop(run_ex):
    assert positive_multicycle(run_ex, {"t"}) == 5


def test_multicycle_forced_edge(run_ex):
    # Adversary pinned to the (30,-60) edge: the only cycle mean is (15,-30).
    sub = Mdp(run_ex.dimension,
              tuple((s, o) for s, o in run_ex.states if s in {"u", "v"}),
              tuple(e for e in run_ex.edges if e.eid in (4, 6)), {}, None)
    assert positive_multicycle(sub, {"u", "v"}) == -30


def test_multicycle_two_loops(approx_ex):
    assert positive_multicycle(approx_ex, {"s", "t"}) == F(1, 2)


def test_multicycle_no_edges(run_ex):
    sub = Mdp(2, (("s", "controller"),), (), {}, None)
    assert positive_multicycle(sub, {"s"}) is None


def test_multicycle_matches_free_variable_lp():
    # The LP in z = y + W >= 0 has the optimum of the LP with y free, on
    # random SCCs in every dimension and each single one, on an all-zero
    # component (W = 0), and where the optimum is negative.
    rng = random.Random(1504)
    values = []
    for trial in range(80):
        mdp = random_mdp(rng, max_weight=rng.choice([1, 3, 7]))
        if trial % 10 == 0:
            mdp = mdp.replace_weights({e.eid: (0,) * mdp.dimension for e in mdp.edges})
        for comp in sccs(mdp):
            for dims in [None] + [(i,) for i in range(mdp.dimension)]:
                got = positive_multicycle(mdp, comp, dims)
                assert got == free_multicycle(mdp, comp, dims), (trial, comp, dims)
                values.append((got, mdp.max_abs_weight))
    found = [v for v, _ in values if v is not None]
    assert sum(v < 0 for v in found) >= 50 and sum(v > 0 for v in found) >= 50
    assert sum(v == 0 and W == 0 for v, W in values) >= 10


def _component(mdp, dims, comp, eids):
    """A spoiler kernel on ``mdp`` and the arguments of its component test
    for the SCC ``comp`` with internal edge ids ``eids``."""
    kernel = games._SpoilerKernel(mdp, tuple(dims))
    pos = {e.eid: k for k, e in enumerate(mdp.edges)}
    return kernel, (sorted(kernel.index[s] for s in comp), sorted(pos[eid] for eid in eids))


def test_component_test_matches_lp():
    # The cycle-mean tests with their LP fallback give the LP's verdict on
    # every SCC and every set of tracked dimensions, also with weights past
    # 2**62, where Karp's table leaves int64.
    rng = random.Random(21)
    verdicts = []
    for trial in range(60):
        mdp = random_mdp(rng)
        if trial % 3 == 0:
            mdp = mdp.replace_weights({e.eid: tuple(w * 2**62 + rng.randint(-3, 3)
                                                    for w in e.weight) for e in mdp.edges})
        for comp in sccs(mdp):
            internal = [e for e in mdp.edges if e.source in comp and e.target in comp]
            if not internal:
                continue
            for r in range(1, mdp.dimension + 1):
                for dims in itertools.combinations(range(mdp.dimension), r):
                    kernel, args = _component(mdp, dims, comp, [e.eid for e in internal])
                    got = kernel.positive(*args)
                    assert got == lp_positive_component(mdp, comp, internal, dims), (comp, dims)
                    assert kernel.memo == {tuple(args[1]): got}
                    verdicts.append(got)
    assert verdicts.count(True) > 20 and verdicts.count(False) > 20


def test_component_test_lp_fallback(approx_ex, run_ex, monkeypatch):
    # APPROX_EX {s, t}: each dimension's max-mean cycle is one self-loop,
    # (0,1) or (1,0), and so is the sum's, so neither test settles it; the
    # LP finds the alternation, y = 1/2.  The memo answers the repeat.
    real = positive_multicycle
    values = []
    monkeypatch.setattr(games, "positive_multicycle",
                        lambda *args: values.append(real(*args)) or values[-1])
    kernel, args = _component(approx_ex, (0, 1), {"s", "t"}, [0, 1, 2, 3])
    assert kernel.positive(*args)
    assert kernel.positive(*args)
    assert values == [F(1, 2)]
    # A single positive loop is accepted, and a component without a
    # positive cycle in dimension 1 rejected, without the LP.
    kernel, args = _component(run_ex, (0, 1), {"t"}, [2])
    assert kernel.positive(*args)
    kernel, args = _component(run_ex, (0, 1), {"u", "v"}, [4, 6])
    assert not kernel.positive(*args)
    assert values == [F(1, 2)]


def test_learned_cycles_and_losing_sets_match_lp():
    # One kernel per MDP and set of tracked dimensions is fed, in sequence,
    # the SCCs of random edge subsets, as the spoiler enumeration feeds it
    # one-player graphs.  Every verdict equals the LP's, also the ones a
    # learned positive cycle inside the component, or a learned losing set
    # around it, decides without settling.
    rng = random.Random(23)
    by_memory = {True: 0, False: 0}
    for _ in range(60):
        mdp = random_mdp(rng)
        for r in range(1, mdp.dimension + 1):
            for dims in itertools.combinations(range(mdp.dimension), r):
                kernel = games._SpoilerKernel(mdp, dims)
                for _ in range(12):
                    keep = [k for k in range(len(mdp.edges)) if rng.random() < 0.8]
                    succ = [[] for _ in mdp.state_ids]
                    for k in keep:
                        succ[kernel.arcs[k][0]].append(kernel.target[k])
                    for comp in index_sccs(succ):
                        inner = [k for k in keep
                                 if kernel.arcs[k][0] in comp and kernel.target[k] in comp]
                        if not inner:
                            continue
                        fresh = tuple(inner) not in kernel.memo
                        learned = len(kernel.cycles) + len(kernel.losing)
                        got = kernel.positive(comp, inner)
                        names = {mdp.state_ids[v] for v in comp}
                        assert got == lp_positive_component(
                            mdp, names, [mdp.edges[k] for k in inner], dims), (names, dims)
                        if fresh and len(kernel.cycles) + len(kernel.losing) == learned:
                            by_memory[got] += 1
    assert by_memory[True] > 50 and by_memory[False] > 50, by_memory


def _spoiler_game(rng: random.Random, dim: int, n: int = 7) -> Mdp:
    """n states, 2 to 6 of them random, every state with two out-edges:
    up to 64 memoryless spoilers."""
    n_rand = rng.randint(2, 6)
    owners = ["random"] * n_rand + ["controller"] * (n - n_rand)
    rng.shuffle(owners)
    edges, probs = [], {}
    for i, owner in enumerate(owners):
        for _ in range(2):
            eid = len(edges)
            edges.append((eid, f"q{i}", f"q{rng.randrange(n)}",
                          [rng.randint(-3, 3) for _ in range(dim)]))
            if owner == "random":
                probs[eid] = F(1, 2)
    return Mdp.build(dim, list(zip((f"q{i}" for i in range(n)), owners)), edges, probs)


def _benchmark_game(rng: random.Random, dim: int, n: int, n_random: int) -> Mdp:
    """A game in the benchmark's wc-games shape: ``n`` states, ``n_random``
    of them random, out-degree 2 (one edge to the next state), weights in
    [-4, 4], and the last controller state with an all-ones self-loop that
    wins under every spoiler, so enumeration never stops early."""
    owners = ["controller"] + ["random"] * n_random + ["controller"] * (n - 1 - n_random)
    tail = owners[1:]
    rng.shuffle(tail)
    owners[1:] = tail
    safe = max(i for i, o in enumerate(owners) if o == "controller")
    edges, probs = [], {}
    for i, owner in enumerate(owners):
        for k, target in enumerate(((i + 1) % n, i if i == safe else rng.randrange(n))):
            eid = len(edges)
            weight = [1] * dim if i == safe and k == 1 else [rng.randint(-4, 4)
                                                             for _ in range(dim)]
            edges.append((eid, f"g{i}", f"g{target}", weight))
            if owner == "random":
                probs[eid] = F(1, 2)
    return Mdp.build(dim, list(zip((f"g{i}" for i in range(n)), owners)), edges, probs)


@pytest.mark.parametrize("dim", [1, 2])
def test_wc_region_matches_plain_enumeration(dim):
    # States and first-found certificates equal plain enumeration's, and
    # every certificate re-checks: on small games and on the benchmark's
    # game shape, 12 states with 6 random (and, in two dimensions, 16 with
    # 8 and 16 with 10).  With one dimension the energy game decides the
    # region and the kernel only looks for certificates.
    rng = random.Random(30 + dim)
    mdps = [_spoiler_game(rng, dim) for _ in range(12)]
    mdps += [_benchmark_game(rng, dim, 12, 6) for _ in range(4)]
    if dim == 2:
        mdps += [_benchmark_game(rng, dim, 16, 8) for _ in range(2)]
        mdps += [_benchmark_game(rng, dim, 16, 10) for _ in range(2)]
    mixed = 0
    for k, mdp in enumerate(mdps):
        dims = tuple(range(dim))
        region = wc_winning_region(mdp, dims)
        states, certificates = brute_wc_region(mdp, dims)
        assert region.states == states
        assert {s: c.choice for s, c in region.certificates.items()} == certificates
        for s, cert in region.certificates.items():
            assert revalidate_certificate(mdp, s, cert, dims)
        # Games of the benchmark shape where more than the all-ones loop
        # wins, and some state loses.
        mixed += k >= 12 and len(states) > 1 and bool(certificates)
    assert mixed


def test_learned_cycles_spare_settles(monkeypatch):
    # On the benchmark's game shape (64 spoilers, and the all-ones loop
    # holds its state under every one of them), most distinct components
    # the spoilers leave are decided by a learned positive cycle or losing
    # set, without Karp or the LP.
    kernels, settles = [], []
    init, settle = games._SpoilerKernel.__init__, games._SpoilerKernel._settle
    monkeypatch.setattr(games._SpoilerKernel, "__init__",
                        lambda self, *args: kernels.append(self) or init(self, *args))
    monkeypatch.setattr(games._SpoilerKernel, "_settle",
                        lambda self, *args: settles.append(args) or settle(self, *args))
    rng = random.Random(40)
    for _ in range(3):
        kernels.clear()
        settles.clear()
        mdp = _benchmark_game(rng, 2, 12, 6)
        region = wc_winning_region(mdp, (0, 1))
        kernel, = kernels
        assert region.states
        assert len(settles) < len(kernel.memo) // 4, (len(settles), len(kernel.memo))


def test_budget_checked_before_any_spoiler(monkeypatch):
    mdp = _benchmark_game(random.Random(41), 2, 12, 6)
    monkeypatch.setattr(games._SpoilerKernel, "winning",
                        lambda *args: pytest.fail("a spoiler was evaluated"))
    with pytest.raises(AdversaryBudgetExceeded, match=r"needs 64\+ strategies, budget is 63"):
        wc_winning_region(mdp, (0, 1), budget=63)


def test_budget_unused_when_nothing_is_pending(monkeypatch):
    # One tracked dimension won from every state: the energy game decides
    # the region, so no kernel is built and no budget is needed, although
    # the three random states admit 8 spoilers.
    m = Mdp.build(1, [("a", "random"), ("b", "random"), ("c", "random"), ("d", "controller")],
                  [(0, "a", "b", [1]), (1, "a", "d", [2]), (2, "b", "c", [1]),
                   (3, "b", "d", [1]), (4, "c", "a", [3]), (5, "c", "d", [1]),
                   (6, "d", "a", [1])],
                  {k: F(1, 2) for k in range(6)})
    monkeypatch.setattr(games, "_SpoilerKernel", lambda *args: pytest.fail("kernel built"))
    region = wc_winning_region(m, (0,), budget=1)
    assert region.states == set(m.state_ids) and region.certificates == {}


def test_unidim_certificates_first_in_enumeration_order():
    # Spoilers run (a: e0, b: e2), (a: e0, b: e3), (a: e1, b: e2), ...;
    # the second is the first to beat b (its -1 loop), the third the first
    # to beat a; c's +1 loop always wins.
    m = Mdp.build(1, [("a", "random"), ("b", "random"), ("c", "controller")],
                  [(0, "a", "c", [1]), (1, "a", "a", [-1]), (2, "b", "a", [0]),
                   (3, "b", "b", [-1]), (4, "c", "c", [1])],
                  {0: F(1, 2), 1: F(1, 2), 2: F(1, 2), 3: F(1, 2)})
    region = wc_winning_region(m, dims=(0,))
    assert region.states == {"c"}
    assert region.certificates == {"a": AdversaryChoice((("a", 1), ("b", 2))),
                                   "b": AdversaryChoice((("a", 0), ("b", 3)))}
    for s, cert in region.certificates.items():
        assert revalidate_certificate(m, s, cert, (0,))


def test_wc_region_fixtures(run_ex, run_ex_bas):
    assert set(wc_winning_region(run_ex).states) == {"s", "t", "u", "v"}
    region = wc_winning_region(run_ex_bas)
    assert set(region.states) == {"s", "t"}
    for s in ("u", "v"):
        cert = region.certificates[s]
        assert revalidate_certificate(run_ex_bas, s, cert, (0, 1))


def test_wc_region_all_losing():
    m = Mdp.build(1, [("a", "controller")], [(0, "a", "a", [-1])])
    assert set(wc_winning_region(m).states) == set()


def test_wc_region_monotone(run_ex_bas):
    # Adding the escape edge u->t can only grow the winning region.
    smaller = set(wc_winning_region(run_ex_bas).states)
    from bwcmdp.model import fixture

    bigger = set(wc_winning_region(fixture("RUN_EX")).states)
    assert smaller <= bigger


def test_values_run_ex(run_ex, run_ex_bas):
    # Frozen from the brute-force max-min oracle over memoryless pairs.
    vals0 = wc_value_unidim(run_ex, dim=0)
    assert vals0 == {"s": F(15), "t": F(5), "u": F(15), "v": F(15)}
    assert vals0 == brute_game_value(run_ex, 0)
    vals1 = wc_value_unidim(run_ex_bas, dim=1)
    assert vals1 == {"s": F(15), "t": F(15), "u": F(-30), "v": F(-30)}
    assert vals1 == brute_game_value(run_ex_bas, 1)


def test_values_single_loop():
    m = Mdp.build(1, [("a", "controller")], [(0, "a", "a", [7])])
    assert wc_value_unidim(m) == {"a": F(7)}


def test_values_require_one_dimension(run_ex):
    with pytest.raises(ValueError):
        wc_value_unidim(run_ex)


def test_values_match_oracle_random():
    rng = random.Random(11)
    for _ in range(40):
        game = random_game(rng)
        assert wc_value_unidim(game, dim=0) == brute_game_value(game, 0)


def test_region_matches_values_random():
    # Strict threshold 0 winning iff value > 0, on unidimensional games.
    rng = random.Random(12)
    for _ in range(40):
        game = random_game(rng)
        vals = brute_game_value(game, 0)
        region = wc_winning_region(game, dims=(0,))
        assert set(region.states) == {s for s, v in vals.items() if v > 0}


def test_positional_strategy_strictly_wins():
    rng = random.Random(13)
    found = 0
    from bwcmdp.machines import memoryless
    from bwcmdp.verification import verify_worstcase

    while found < 10:
        game = random_game(rng)
        vals = brute_game_value(game, 0)
        if not all(v > 0 for v in vals.values()):
            continue
        found += 1
        choice = wc_positional_strategy_unidim(game, 0)
        assert choice is not None
        machine = memoryless(game, choice)
        for s in game.state_ids:
            assert verify_worstcase(game, machine, [F(0)], start=s).ok


def test_mwecs_fixtures(run_ex, run_ex_bas):
    assert [sorted(ec.states) for ec in mwecs(run_ex)] == [["t"]]
    assert [sorted(ec.states) for ec in mwecs(run_ex_bas)] == [["t"]]


def test_mwecs_task_after_trivial(task_ex):
    from bwcmdp.model import ThresholdQuery, negate_weights, normalize

    neg = negate_weights(task_ex, halve=True)
    q = ThresholdQuery.build("bwc-fin", "0", [F(-49, 8), F(-64)], [F(-49, 8), F(-29, 8)])
    nmdp, _ = normalize(neg, q)
    comps = mwecs(nmdp, dims=(0,))
    assert [sorted(ec.states) for ec in comps] == [["0", "0,0", "0,1", "1", "1,0", "1,1"]]


def test_mwecs_are_wecs_and_disjoint(run_ex):
    comps = mwecs(run_ex)
    seen = set()
    for ec in comps:
        assert not (set(ec.states) & seen)
        seen |= set(ec.states)
        region = wc_winning_region(restrict(run_ex, ec.states))
        assert region.states == ec.states


def test_prune(run_ex, run_ex_bas):
    assert set(prune(run_ex, "s").state_ids) == {"s", "t", "u", "v"}
    pruned = prune(run_ex_bas, "s")
    assert set(pruned.state_ids) == {"s", "t"}
    assert sorted(e.eid for e in pruned.edges) == [0, 2]
    result = prune(run_ex_bas, "u")
    assert isinstance(result, Unsatisfiable)
    assert isinstance(result.certificate, AdversaryChoice)


def test_prune_unknown_start_solves_nothing(run_ex, monkeypatch):
    # The start is checked before the game is solved.
    monkeypatch.setattr(games, "wc_winning_region", lambda *a, **k: pytest.fail("solved"))
    with pytest.raises(KeyError):
        prune(run_ex, "nowhere")
