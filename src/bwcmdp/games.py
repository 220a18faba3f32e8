"""Worst-case threshold solving: mean-payoff games over the MDP graph.

For the worst-case objective the random states turn adversarial.  A state
wins the strict multidimensional threshold MP > 0 iff for every memoryless
adversary choice the remaining one-player graph has, reachable from the
state, an SCC carrying a positive multi-cycle (a flow whose weight is
strictly positive in every tracked dimension).  Memoryless adversaries
suffice to spoil, so enumerating them is exact; the enumeration is capped
and intended for desk-scale instances.

One integer-indexed kernel (``_SpoilerKernel``) serves every spoiler of a
``wc_winning_region`` call, and is built only when some state is still
undecided.  It indexes the states and edges once, shares the controller
states' successor lists among all spoilers (a spoiler swaps in only its
random states' chosen arcs), and builds each edge's Karp arc once.
``index_sccs`` lists the one-player graph's SCCs in reverse topological
order, so one pass marks the winning ones: an SCC wins if it has an arc
into a winning SCC or carries a positive multi-cycle.

Each one-player SCC is settled once per ``wc_winning_region`` call: its
verdict is memoized by its internal edges, since many spoilers leave
the same component.  The kernel also learns from what it settles: each
positive SCC leaves a positive cycle (the tight cycle that settled it, or
all its internal edges when the LP did) and each losing SCC its internal
edges, all as edge bitmasks.  A component whose internal edges contain a
learned positive cycle is positive, and one whose internal edges lie
inside a learned losing set is losing.  Two exact cycle-mean tests on
Karp's kernel settle most of the rest without an LP: no flow is positive
when some tracked dimension (or their sum) has maximum cycle mean <= 0,
and one is when a maximum-mean cycle of some tracked dimension (or of
their sum) has a positive total in every tracked dimension.  Only the
components no test settles go to the exact LP ``positive_multicycle``.

The unidimensional case gets a pseudo-polynomial fast path: a strict-win
test via an energy-game progress measure in exact integers, which also
yields a positional winning strategy (``energy_win``).  Its losing states
take their spoilers from the same enumeration, stopped once each has one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from bwcmdp import linsolve
from bwcmdp.decomposition import (EndComponent, index_sccs, mecs, reachable, restrict,
                                  restrict_states)
from bwcmdp.linsolve import EQ, GE
from bwcmdp.model import Mdp, ThresholdQuery, shared
from bwcmdp.verification import _karp_scc, _tight_cycle

DEFAULT_ADVERSARY_BUDGET = 1 << 20


class AdversaryBudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True, slots=True)
class AdversaryChoice:
    """One outgoing edge per random state: a memoryless spoiler candidate."""

    choice: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict[str, int]:
        return dict(self.choice)


@dataclass(frozen=True)
class WinningRegion:
    """Worst-case winning states plus one spoiling adversary per losing state."""

    states: frozenset[str]
    dims: tuple[int, ...]
    certificates: dict[str, AdversaryChoice]

    def __contains__(self, state: str) -> bool:
        return state in self.states


def positive_multicycle(mdp: Mdp, component: Iterable[str],
                        dims: Optional[Sequence[int]] = None) -> Optional[Fraction]:
    """Best guaranteed per-dimension mean of a unit flow inside an SCC.

    Maximizes y subject to: per-edge flow x_e >= 0 on internal edges, flow
    conservation at every state, total flow 1, and sum x_e*w_e[i] >= y for
    every tracked dimension.  Returns None when the set has no internal
    edge; y* > 0 certifies a finite-memory controller confined to the set
    achieving MP > 0 in all tracked dimensions, and the test is exact for
    infinite-memory controllers too (cycle-mean hull argument).

    Every unit flow's mean is at least -W, W the largest |w_e[i]| over the
    internal edges and tracked dimensions, so the LP maximizes the
    non-negative z = y + W (rows sum x_e*w_e[i] - z >= -W) and y* = z* - W.
    """
    states = set(component)
    dims = tuple(dims) if dims is not None else tuple(range(mdp.dimension))
    edges = [e for e in mdp.edges if e.source in states and e.target in states]
    if not edges:
        return None
    if not dims:
        # No tracked dimension: any cycle works, slack is vacuously +inf-ish;
        # report 1 to signal a win.
        return Fraction(1)
    # Variables x[k] for the k-th internal edge, then z = variable m.
    m = len(edges)
    W = max(abs(e.weight[i]) for e in edges for i in dims)
    flow: dict[str, dict[int, int]] = {s: {} for s in states}
    for k, e in enumerate(edges):
        flow[e.target][k] = flow[e.target].get(k, 0) + 1
        flow[e.source][k] = flow[e.source].get(k, 0) - 1
    rows = [linsolve.Row(row, EQ) for row in flow.values()]
    rows.append(linsolve.Row(dict.fromkeys(range(m), 1), EQ, 1))
    rows += (linsolve.Row({k: e.weight[i] for k, e in enumerate(edges) if e.weight[i]}
                          | {m: -1}, GE, -W) for i in dims)
    variables = [f"x{e.eid}" for e in edges]
    status, _, value = linsolve.maximize(variables + ["z"], rows, {m: 1})
    if status == "infeasible":
        raise AssertionError("multicycle flow system cannot be infeasible on an SCC with edges")
    if status == "unbounded":
        raise AssertionError("multicycle slack is bounded by the largest weight")
    return value - W


class _SpoilerKernel:
    """One region call's spoiler-independent work and what its SCC
    verdicts have taught it (see the module notes).

    States are indexed in declaration order and edges by their position
    in ``mdp.edges``; edge sets are bitmasks over those positions.
    ``memo`` maps an SCC's sorted internal edge positions to its
    verdict.  ``cycles`` holds the edges of one positive cycle per
    positive SCC settled: its tight cycle, or all its internal edges when
    the LP settled it.  ``losing`` holds the internal edges of each
    losing SCC settled.
    """

    def __init__(self, mdp: Mdp, dims: tuple[int, ...]):
        self.mdp, self.dims = mdp, dims
        self.index = {s: i for i, s in enumerate(mdp.state_ids)}
        index = self.index
        self.target = [index[e.target] for e in mdp.edges]
        # Column c < len(dims) is dimension dims[c] negated; the last is
        # the negated sum of the tracked dimensions.
        self.arcs = [(index[e.source], index[e.target],
                      tuple(-e.weight[i] for i in dims) + (-sum(e.weight[i] for i in dims),), k)
                     for k, e in enumerate(mdp.edges)]
        self.outs: list[Sequence[int]] = [[] for _ in index]
        for k, e in enumerate(mdp.edges):
            self.outs[index[e.source]].append(k)
        self.succ = [[self.target[k] for k in ks] for ks in self.outs]
        self.memo: dict[tuple[int, ...], bool] = {}
        self.cycles: list[int] = []
        self.losing: list[int] = []

    def spoil(self, pending: list[int], budget: int) -> dict[int, AdversaryChoice]:
        """Beat what can be beaten of ``pending`` (state indices).

        Enumerates the memoryless spoilers in ``itertools.product`` order
        over the random states in declaration order; each spoiler swaps
        its chosen arcs into one shared pair of edge and successor lists.
        Every state that loses under a spoiler leaves ``pending`` (changed
        in place) with that spoiler as its certificate.
        """
        mdp, target = self.mdp, self.target
        rand: list[int] = []
        options: list[list[tuple[int, tuple[str, int]]]] = []
        count = 1
        for i, s in enumerate(mdp.state_ids):
            if mdp.is_random(s):
                ks = self.outs[i]
                count *= len(ks)
                if count > budget:
                    raise AdversaryBudgetExceeded(
                        f"adversary enumeration needs {count}+ strategies, budget is {budget}")
                rand.append(i)
                # Spoilers share the (state, edge id) pairs, not copies.
                options.append([(k, shared((s, mdp.edges[k].eid))) for k in ks])
        outs, succ = self.outs[:], self.succ[:]
        certificates: dict[int, AdversaryChoice] = {}
        for combo in itertools.product(*options):
            for i, (k, _) in zip(rand, combo):
                outs[i], succ[i] = (k,), (target[k],)
            sigma = AdversaryChoice(tuple(pair for _, pair in combo))
            won = self.winning(outs, succ)
            for v in pending:
                if not won[v]:
                    certificates[v] = sigma
            pending[:] = [v for v in pending if won[v]]
            if not pending:
                break
        return certificates

    def winning(self, outs: Sequence[Sequence[int]], succ: Sequence[Sequence[int]]) -> list[bool]:
        """Per state index, whether the controller wins the one-player
        graph with these out-edge positions and successor indices.

        Every arc between two SCCs points to an earlier one in
        ``index_sccs``'s order, so a component's successors are marked
        before it is.
        """
        comps = index_sccs(succ)
        comp_of = [0] * len(succ)
        for c, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = c
        target = self.target
        won = [False] * len(comps)
        for c, comp in enumerate(comps):
            if any(won[comp_of[w]] for v in comp for w in succ[v]):
                won[c] = True
                continue
            inner = sorted(k for v in comp for k in outs[v] if comp_of[target[k]] == c)
            if inner:
                won[c] = self.positive(comp, inner)
        return [won[c] for c in comp_of]

    def positive(self, comp: list[int], inner: list[int]) -> bool:
        """Whether one one-player SCC carries a positive multi-cycle.

        ``comp`` holds the SCC's state indices and ``inner`` its internal
        edges' positions, both sorted.  Inner edges that contain a known
        positive cycle are positive (that cycle is a flow of theirs); a
        subset of a known losing set is losing (its flows are the larger
        set's).  Otherwise Karp on the negated weights gives each tracked
        dimension's (and their sum's) maximum cycle mean: one <= 0 bounds
        every flow's value by 0.  A maximum-mean cycle with a positive
        total in every tracked dimension is a positive flow by itself.
        Components that none of these settles go to ``positive_multicycle``.
        """
        key = tuple(inner)
        verdict = self.memo.get(key)
        if verdict is None:
            edges = 0
            for k in inner:
                edges |= 1 << k
            if any(cycle & edges == cycle for cycle in self.cycles):
                verdict = True
            elif any(edges & lost == edges for lost in self.losing):
                verdict = False
            else:
                witness = self._settle(comp, inner)
                verdict = witness is not None
                if verdict:
                    cycle = 0
                    for k in witness:
                        cycle |= 1 << k
                    self.cycles.append(cycle)
                else:
                    self.losing.append(edges)
            self.memo[key] = verdict
        return verdict

    def _settle(self, comp: list[int], inner: list[int]) -> Optional[list[int]]:
        """A positive witness's edge positions, or None when losing."""
        mdp, dims = self.mdp, self.dims
        arcs = [self.arcs[k] for k in inner]
        for col in range(len(dims) + 1):
            mean = _karp_scc(comp, arcs, col)
            if mean >= 0:
                return None
            cycle = _tight_cycle(comp, arcs, col, mean)
            if all(sum(mdp.edges[k].weight[i] for k in cycle) > 0 for i in dims):
                return cycle
        sub = Mdp(mdp.dimension, tuple(mdp.states[v] for v in comp),
                  tuple(mdp.edges[k] for k in inner), {}, None)
        positive = positive_multicycle(sub, {mdp.state_ids[v] for v in comp}, dims) > 0
        return inner if positive else None


def wc_winning_region(mdp: Mdp, dims: Optional[Sequence[int]] = None,
                      budget: int = DEFAULT_ADVERSARY_BUDGET) -> WinningRegion:
    """States satisfying the strict worst-case threshold MP > 0 on tracked dims.

    Expects a valid normalized MDP (mu = 0) with trivial dimensions
    already dropped from ``dims``.  Each losing state carries as its certificate
    the first spoiler, in enumeration order, that beats it.  With one
    tracked dimension the energy game decides the region, and spoilers
    are enumerated only until every losing state has its certificate.
    """
    dims = tuple(dims) if dims is not None else tuple(range(mdp.dimension))
    if not dims:
        return WinningRegion(frozenset(mdp.state_ids), dims, {})
    one_dim = len(dims) == 1
    win = energy_win(mdp, dims[0])[0] if one_dim else set()
    ids = mdp.state_ids
    pending = [v for v, s in enumerate(ids) if s not in win]
    # Nothing pending (a 1-D game won everywhere): no kernel, no budget.
    beaten = _SpoilerKernel(mdp, dims).spoil(pending, budget) if pending else {}
    if one_dim and pending:
        raise AssertionError(f"no spoiler found for losing states {[ids[v] for v in pending]}")
    return WinningRegion(frozenset(win if one_dim else (ids[v] for v in pending)), dims,
                         {ids[v]: sigma for v, sigma in beaten.items()})


def revalidate_certificate(mdp: Mdp, state: str, sigma: AdversaryChoice,
                           dims: Sequence[int]) -> bool:
    """Re-check that a stored spoiler indeed beats the state."""
    kernel = _SpoilerKernel(mdp, tuple(dims))
    outs, succ = kernel.outs[:], kernel.succ[:]
    position = {(e.source, e.eid): k for k, e in enumerate(mdp.edges)}
    for pair in sigma.choice:
        k = position[pair]
        i = kernel.index[pair[0]]
        outs[i], succ[i] = (k,), (kernel.target[k],)
    return not kernel.winning(outs, succ)[kernel.index[state]]


# ---------------------------------------------------------------------------
# Unidimensional machinery: energy progress measures.


def energy_win(mdp: Mdp, dim: int) -> tuple[set[str], dict[str, int]]:
    """Strict-threshold win set for MP > 0 on one dimension, and a
    positional strategy on it, from the least energy progress measure on
    the weights n*w - 1.

    Game values are rationals with denominator at most n (the number of
    states), so value > 0 on the chosen dimension is equivalent to value
    >= 1/n, i.e. to MP >= 0 on the weights n*w - 1.  The controller
    (minimizer of required credit) wins that from states with a finite
    measure; the strategy picks, at each winning controller state in
    declaration order, its first edge witnessing the measure.  Standard
    lifting with top n*W; exact integers throughout.
    """
    n = len(mdp.state_ids)
    weights = {e.eid: e.weight[dim] * n - 1 for e in mdp.edges}
    maxabs = max((abs(v) for v in weights.values()), default=0)
    top = n * maxabs
    INF = top + 1

    f = {s: 0 for s in mdp.state_ids}

    def lift_val(target_val: int, w: int) -> int:
        if target_val >= INF:
            return INF
        v = target_val - w
        if v <= 0:
            return 0
        if v > top:
            return INF
        return v

    def recompute(s: str) -> int:
        vals = [lift_val(f[e.target], weights[e.eid]) for e in mdp.out_edges[s]]
        return max(vals) if mdp.is_random(s) else min(vals)

    pred: dict[str, list[str]] = {s: [] for s in mdp.state_ids}
    for e in mdp.edges:
        pred[e.target].append(e.source)

    dirty = set(mdp.state_ids)
    queue = list(mdp.state_ids)
    while queue:
        s = queue.pop()
        dirty.discard(s)
        new = recompute(s)
        if new > f[s]:
            f[s] = new
            for p in pred[s]:
                if p not in dirty:
                    dirty.add(p)
                    queue.append(p)

    win = {s for s in mdp.state_ids if f[s] < INF}
    strategy: dict[str, int] = {}
    for s in mdp.state_ids:
        if s in win and not mdp.is_random(s):
            strategy[s] = next(e.eid for e in mdp.out_edges[s]
                               if lift_val(f[e.target], weights[e.eid]) <= f[s])
    return win, strategy


def wc_positional_strategy_unidim(mdp: Mdp, dim: int) -> Optional[dict[str, int]]:
    """Positional controller strategy with MP > 0 on ``dim`` from every state.

    Returns None unless every state wins the strict threshold.
    """
    win, strategy = energy_win(mdp, dim)
    return strategy if len(win) == len(mdp.state_ids) else None


# ---------------------------------------------------------------------------
# Trivial dimensions, MWEC decomposition, pruning.


def nontrivial_dims(query: ThresholdQuery, W: int) -> tuple[int, ...]:
    from bwcmdp.model import detect_trivial

    trivial = detect_trivial(query, W)
    return shared(tuple(i for i in range(len(query.mu)) if i not in trivial))


def mwecs(mdp: Mdp, dims: Optional[Sequence[int]] = None,
          budget: int = DEFAULT_ADVERSARY_BUDGET) -> list[EndComponent]:
    """Maximal winning end components of a normalized MDP.

    Recursion per MEC: solve the game confined to the component; a fully
    winning MEC is an MWEC, otherwise recurse on the MECs of the sub-MDP
    induced by the winning part (random-closed by game safety).
    """
    dims = tuple(dims) if dims is not None else tuple(range(mdp.dimension))
    out: list[EndComponent] = []

    def go(sub: Mdp):
        for m in mecs(sub):
            inner = restrict(sub, m.states)
            region = wc_winning_region(inner, dims, budget)
            if region.states == m.states:
                out.append(m)
            elif region.states:
                go(restrict_states(inner, region.states))

    go(mdp)
    order = {s: i for i, s in enumerate(mdp.state_ids)}
    out.sort(key=lambda ec: min(order[s] for s in ec.states))
    return out


@dataclass(frozen=True)
class Unsatisfiable:
    """Pruning removed the start state: the worst-case objective fails there."""

    start: str
    certificate: Optional[AdversaryChoice]


def prune(mdp: Mdp, start: str, dims: Optional[Sequence[int]] = None,
          budget: int = DEFAULT_ADVERSARY_BUDGET):
    """Restrict to worst-case-winning states reachable from ``start``.

    Returns the pruned sub-MDP, or Unsatisfiable when the start state
    itself is losing.  Game safety keeps random states closed, so the
    restriction always validates.
    """
    if start not in mdp.owner:
        raise KeyError(f"unknown state {start!r}")
    dims = tuple(dims) if dims is not None else tuple(range(mdp.dimension))
    return prune_to_region(mdp, start, wc_winning_region(mdp, dims, budget))


def prune_to_region(mdp: Mdp, start: str, region: WinningRegion):
    """``prune`` with the worst-case winning region already solved."""
    if start not in mdp.owner:
        raise KeyError(f"unknown state {start!r}")
    if start not in region:
        return Unsatisfiable(start, region.certificates.get(start))
    sub = restrict_states(mdp, region.states)
    keep = reachable(sub, start)
    if keep != region.states:
        sub = restrict_states(sub, keep)
    return sub
