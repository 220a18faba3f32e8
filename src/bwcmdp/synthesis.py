"""Witness-strategy construction from feasible threshold systems.

The recurrent building blocks:

  * Phase-1 plan: per-state switch probabilities and transient edge
    distributions read off the y-part of a solution.
  * Local strategies: the positive-frequency part of a component solution
    splits into strongly connected sub-components, each with a randomized
    memoryless strategy realizing its local expectation exactly.
  * Cycling combiner: a finite machine rotating through the
    sub-components (reach stage, then play the local strategy for a
    number of steps proportional to its target frequency), whose induced
    chain is unichain and whose expectation converges to the component
    target as the dwell parameter grows.
  * Recovery combiner: alternates an expectation machine with a
    worst-case machine under a running weight-sum monitor, for components
    where the expectation machine alone does not win the worst case.
  * Infinite-memory strategy: per-component expectation machines, each
    under a total-payoff monitor that is nothing but its per-dimension
    floor rates, and a permanent switch to a worst-case machine on a
    monitor trip; it is simulated, never materialized.

Moore timing note: the update function fires when leaving a state and
cannot see the edge just chosen, so "switch upon visiting t" is realized
by pre-drawing, when leaving s, one lock decision per possible successor
(a small vector of independent coins); only the realized successor's coin
is ever consulted.  This implements the per-visit switch probabilities
exactly.  Running weight sums are tracked one step behind through a
previous-state tag, with parallel edges and the final step of a period
resolved pessimistically (minimum weight), which can only make recovery
more eager.

Parameters (dwell A, phase cap N, period K, recovery length L) are found
by verified search: synthesize, verify exactly, grow.  Existence is
guaranteed by the feasibility of the threshold system; the searches are
budgeted and report failure rather than returning unverified strategies.
Rotations and monitored rungs are those a seeded instance (pinned by a
test) wins, and every search range stops at the largest value one of
them wins: ENUM_BUDGET, DWELL_CAP and PHASE_CAP_LIMIT.  The bwc-inf
monitor's period is the caller's, not searched.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from bwcmdp import games, rng
from bwcmdp.decomposition import EndComponent, restrict, sccs
from bwcmdp.machines import MachineError, TableMachine, induced_chain, memoryless, support_product
from bwcmdp.model import Mdp, ThresholdQuery
from bwcmdp.systems import Decision, Witness, decide, xe, ye, ys
from bwcmdp.verification import (WeightedGraph, bottom_means, bscc_analysis, expected_mp,
                                 karp_min_mean, verify_worstcase)

if TYPE_CHECKING:
    import numpy as np

ENUM_BUDGET = 1 << 11  # memoryless_wc_search candidates
DWELL_CAP = 32  # largest dwell of every cycling combiner: bas, the bwc-fin ladder, bwc-inf
PHASE_CAP_LIMIT = 8  # largest bwc-fin step cap
MONITORED_RUNGS = ((1, 4), (1, 16), (4, 4), (4, 16), (8, 16))  # (period, recovery), in order
CHAIN_LIMIT = 600  # product nodes a bwc-fin rung's expectation may take


class SynthesisError(RuntimeError):
    pass


class FallbackUnavailable(SynthesisError):
    """Decision is yes but no constructive fallback passed verification."""


# ---------------------------------------------------------------------------
# Phase 1: switch probabilities and transient flow.


@dataclass(frozen=True)
class Phase1Plan:
    """Per-state switch probabilities and transient edge distributions.

    At a state s with transient inflow I(s), the strategy switches to the
    recurrent phase with probability y[s]/I(s) and otherwise follows the
    transient flow.  Zero-inflow states get an arbitrary fixed edge; they
    are unreachable in the transient phase.
    """

    start: str
    switch: dict[str, Fraction]  # every state
    continuation: dict[str, dict[int, Fraction]]  # every state


def phase1_strategy(witness: Witness) -> Phase1Plan:
    mdp = witness.mdp
    asg = witness.assignment
    switch: dict[str, Fraction] = {}
    continuation: dict[str, dict[int, Fraction]] = {}
    for s in mdp.state_ids:
        i = Fraction(1 if s == witness.start else 0)
        for e in mdp.in_edges[s]:
            i += asg.get(ye(e.eid), Fraction(0))
        leak = asg.get(ys(s), Fraction(0))
        out = sum((asg.get(ye(e.eid), Fraction(0)) for e in mdp.out_edges[s]), Fraction(0))
        if i != leak + out:
            raise SynthesisError(f"flow violated at {s}: inflow {i} != {leak} + {out}")
        switch[s] = leak / i if i > 0 else Fraction(0)
        rest = i - leak
        if rest > 0:
            continuation[s] = {e.eid: asg.get(ye(e.eid), Fraction(0)) / rest
                               for e in mdp.out_edges[s]
                               if asg.get(ye(e.eid), Fraction(0)) > 0}
        else:
            continuation[s] = {mdp.out_edges[s][0].eid: Fraction(1)}
    return Phase1Plan(witness.start, switch, continuation)


# ---------------------------------------------------------------------------
# Local strategies inside a component.


@dataclass(frozen=True)
class LocalStrategy:
    """One positive-frequency sub-component with its memoryless strategy."""

    states: frozenset[str]
    frequency: Fraction  # long-run fraction of time spent here
    mean: tuple[Fraction, ...]  # exact expected mean payoff of the strategy
    choices: dict[str, dict[int, Fraction]]  # controller state -> edge dist


def local_strategies(mdp: Mdp, ec: EndComponent,
                     assignment: dict[str, Fraction]) -> list[LocalStrategy]:
    """Split a component solution into strongly connected local strategies.

    ``assignment`` maps the component's edge variables x[e] (frequencies
    summing to 1 over the component).  The positive-frequency edges split
    into SCCs; each is an end component, and the edge-proportional
    memoryless strategy there is irreducible with expectation exactly the
    local frequency-weighted mean.
    """
    pos_edges = {eid for eid in ec.edges if assignment.get(xe(eid), Fraction(0)) > 0}
    if not pos_edges:
        raise SynthesisError("component carries no positive frequency")
    pos_states = set()
    for eid in pos_edges:
        pos_states.add(mdp.edge_by_id[eid].source)
        pos_states.add(mdp.edge_by_id[eid].target)

    out: list[LocalStrategy] = []
    for comp in sccs(mdp, pos_edges):
        comp = comp & pos_states
        internal = {eid for eid in pos_edges
                    if mdp.edge_by_id[eid].source in comp and mdp.edge_by_id[eid].target in comp}
        if not internal:
            continue
        freq = sum((assignment[xe(eid)] for eid in internal), Fraction(0))
        mean = [Fraction(0)] * mdp.dimension
        for eid in internal:
            w = mdp.edge_by_id[eid].weight
            for i in range(mdp.dimension):
                if w[i]:
                    mean[i] += assignment[xe(eid)] * w[i]
        mean = [m / freq for m in mean]
        choices: dict[str, dict[int, Fraction]] = {}
        for s in comp:
            if mdp.is_random(s):
                continue
            mass = {eid: assignment[xe(eid)] for eid in internal
                    if mdp.edge_by_id[eid].source == s}
            total = sum(mass.values(), Fraction(0))
            choices[s] = {eid: v / total for eid, v in mass.items()}
        out.append(LocalStrategy(frozenset(comp), freq, tuple(mean), choices))
    order = {s: i for i, s in enumerate(mdp.state_ids)}
    out.sort(key=lambda loc: min(order[s] for s in loc.states))
    return out


# ---------------------------------------------------------------------------
# The cycling combiner (unichain expectation machine for one component).


class CyclingMachine:
    """The paper's global unichain combiner g_A: rotate through local
    strategies, reaching each sub-component, then playing its local
    strategy for dwell * c_i steps (c_i proportional to its target
    frequency).  The induced chain is unichain for dwell >= |EC|; smaller
    dwells often are too, and callers verify exactly.

    Memory: ("reach", i) heading to sub-component i, locking on entry;
    ("play", i, k) with k plays remaining.  With deterministic=True, for
    one local strategy only, its randomization is replaced by per-state
    weighted round-robin rotations, giving a pure machine with memories
    ("reach", 0, ()) and ("play", 0, positions, 0).
    """

    def __init__(self, mdp: Mdp, ec: EndComponent, locals_: Sequence[LocalStrategy],
                 dwell: int, deterministic: bool = False):
        if dwell < 1:
            raise ValueError("dwell must be >= 1")
        self.mdp = mdp
        self.ec = ec
        self.locals = list(locals_)
        self.dwell = dwell
        self.deterministic = deterministic
        denom_lcm = 1
        for loc in self.locals:
            denom_lcm = math.lcm(denom_lcm, loc.frequency.denominator)
        self.counts = [int(loc.frequency * denom_lcm) * dwell for loc in self.locals]
        self._reach_edge = [self._reach_table(loc) for loc in self.locals]
        if deterministic:
            if len(self.locals) > 1:
                raise ValueError("a deterministic rotation plays one local strategy")
            self._rotation = self._rotation_table(self.locals[0])

    def _reach_table(self, loc: LocalStrategy) -> dict[str, int]:
        # Shortest-path-to-target edge per controller state of the EC.
        dist = {s: None for s in self.ec.states}
        for s in loc.states:
            dist[s] = 0
        frontier = list(loc.states)
        edges = [self.mdp.edge_by_id[eid] for eid in self.ec.edges]
        while frontier:
            nxt = []
            for e in edges:
                if dist[e.target] is not None and dist[e.source] is None:
                    dist[e.source] = dist[e.target] + 1
                    nxt.append(e.source)
            if not nxt:
                break
            frontier = nxt
        table = {}
        for s in self.ec.states:
            if self.mdp.is_random(s) or s in loc.states:
                continue
            best = None
            for e in self.mdp.out_edges[s]:
                if e.eid in self.ec.edges and dist[e.target] is not None:
                    if best is None or dist[e.target] < dist[self.mdp.edge_by_id[best].target]:
                        best = e.eid
            if best is None:
                raise SynthesisError(f"{s} cannot reach sub-component {sorted(loc.states)}")
            table[s] = best
        return table

    def _rotation_table(self, loc: LocalStrategy) -> dict[str, tuple[int, ...]]:
        # Largest-remainder interleaving of the support edges per state.
        table = {}
        for s, dist in loc.choices.items():
            if len(dist) == 1:
                table[s] = (next(iter(dist)),)
                continue
            denom = 1
            for p in dist.values():
                denom = math.lcm(denom, p.denominator)
            counts = {eid: int(p * denom) for eid, p in dist.items()}
            seq = []
            acc = {eid: Fraction(0) for eid in counts}
            total = sum(counts.values())
            for _ in range(total):
                for eid in counts:
                    acc[eid] += Fraction(counts[eid], total)
                pick = max(acc, key=lambda k: (acc[k], -k))
                acc[pick] -= 1
                seq.append(pick)
            table[s] = tuple(seq)
        return table

    # Moore interface -------------------------------------------------

    def initial_dist(self):
        return {("reach", 0, ()) if self.deterministic else ("reach", 0): Fraction(1)}

    def _rot_lookup(self, pos: tuple, state: str) -> tuple[int, tuple]:
        seq = self._rotation[state]
        cur = dict(pos).get(state, 0)
        nxt = tuple(sorted((dict(pos) | {state: (cur + 1) % len(seq)}).items())) \
            if len(seq) > 1 else pos
        return seq[cur], nxt

    def output(self, state: str, mem) -> dict[int, Fraction]:
        kind, i = mem[0], mem[1]
        loc = self.locals[i]
        if kind == "reach" and state not in loc.states:
            return {self._reach_edge[i][state]: Fraction(1)}
        if self.deterministic:
            return {self._rot_lookup(mem[2], state)[0]: Fraction(1)}
        return dict(loc.choices[state])

    def update(self, state: str, mem) -> dict:
        kind, i = mem[0], mem[1]
        loc = self.locals[i]
        if kind == "reach" and state not in loc.states:
            return {mem: Fraction(1)}
        if self.deterministic:
            pos = self._rot_lookup(mem[2], state)[1] if state in loc.choices else mem[2]
            return {("play", 0, pos, 0): Fraction(1)}
        if len(self.locals) == 1:  # no stage switching, hence no step counters
            return {("play", 0, 0): Fraction(1)}
        remaining = (self.counts[i] if kind == "reach" else mem[2]) - 1
        if remaining <= 0:
            return {("reach", (i + 1) % len(self.locals)): Fraction(1)}
        return {("play", i, remaining): Fraction(1)}


# ---------------------------------------------------------------------------
# Worst-case fallback machines.


def memoryless_wc_search(mdp: Mdp, dims: Optional[Sequence[int]] = None):
    """Search for a finite machine winning the worst case everywhere.

    Unidimensional inputs use the positional strategy extracted from the
    energy progress measure (always succeeds on a pruned MDP).  Otherwise
    pure memoryless strategies are enumerated, then pure 2-memory ones,
    within ENUM_BUDGET candidates; each candidate is checked exactly.
    Raises FallbackUnavailable when none wins, saying whether the budget
    or the candidates ran out and how many were checked.
    """
    dims = tuple(dims) if dims is not None else tuple(range(mdp.dimension))
    mu = _check_vector(mdp, dims)
    if len(dims) == 1:
        win, choice = games.energy_win(mdp, dims[0])
        if len(win) == len(mdp.state_ids):
            return memoryless(mdp, choice)
        reason = "found no positional strategy winning from every state"
    else:
        spent = 0
        for cand in _wc_candidates(mdp):
            if spent == ENUM_BUDGET:
                reason = f"exhausted its budget of {ENUM_BUDGET} candidates"
                break
            spent += 1
            if verify_worstcase(mdp, cand, mu, start=mdp.state_ids).ok:
                return cand
        else:
            reason = (f"checked all {spent} memoryless and pure 2-memory machines, "
                      f"and none wins from every state")
    raise FallbackUnavailable(f"worst-case fallback search {reason}")


def _options(mdp: Mdp, memories: Sequence = (0,)):
    """(state, memory) pairs of the controller states and each one's
    out-edge ids."""
    keys = [(s, m) for s in mdp.state_ids if not mdp.is_random(s) for m in memories]
    return keys, [[e.eid for e in mdp.out_edges[s]] for s, _ in keys]


def _memoryless_tables(mdp: Mdp):
    """Every pure memoryless machine, in product order of the out-edges."""
    keys, options = _options(mdp)
    for combo in itertools.product(*options):
        yield memoryless(mdp, {s: eid for (s, _), eid in zip(keys, combo)})


def _wc_candidates(mdp: Mdp):
    """Pure memoryless machines, then pure 2-memory machines starting in
    memory 0; memoryless_wc_search stops after ENUM_BUDGET of them."""
    yield from _memoryless_tables(mdp)
    mems = (0, 1)
    keys, options = _options(mdp, mems)
    every = [(s, m) for s in mdp.state_ids for m in mems]
    for upd in itertools.product(mems, repeat=len(every)):
        update = {key: {u: Fraction(1)} for key, u in zip(every, upd)}
        for outs in itertools.product(*options):
            output = {key: {eid: Fraction(1)} for key, eid in zip(keys, outs)}
            yield TableMachine([0, 1], {0: Fraction(1)}, update, output)


def _check_vector(mdp: Mdp, dims: Sequence[int]) -> list[Fraction]:
    """mu-vector enforcing MP > 0 on ``dims`` and nothing elsewhere."""
    W = mdp.max_abs_weight
    return [Fraction(0) if i in dims else Fraction(-W - 1) for i in range(mdp.dimension)]


# ---------------------------------------------------------------------------
# The recovery combiner (monitored alternation inside a winning component).


class MonitoredMachine:
    """Alternate an expectation machine with a worst-case machine.

    Periods of ``period`` steps play the expectation machine while a
    running weight sum is tracked one step behind (previous-state tag;
    parallel edges resolved by the per-dimension minimum).  At the end of
    a period the sum, plus a pessimistic bound for the in-flight step, is
    compared against (floor - delta) * period on the monitored
    dimensions; on failure the worst-case machine runs for ``recovery``
    steps.  Sub-machine memory resets at period boundaries.
    """

    def __init__(self, mdp: Mdp, expectation_machine, worstcase_machine,
                 period: int, recovery: int, floor: Sequence[Fraction],
                 delta: Fraction, dims: Sequence[int]):
        self.mdp = mdp
        self.g = expectation_machine
        self.fwc = worstcase_machine
        self.period = period
        self.recovery = recovery
        self.floor = [Fraction(x) for x in floor]
        self.delta = Fraction(delta)
        self.dims = tuple(dims)
        self._minw: dict[tuple[str, str], tuple[int, ...]] = {}
        for e in mdp.edges:
            key = (e.source, e.target)
            cur = self._minw.get(key)
            self._minw[key] = e.weight if cur is None else tuple(
                min(a, b) for a, b in zip(cur, e.weight))

    def initial_dist(self):
        return {("exp", gm, 0, (0,) * self.mdp.dimension, None): p
                for gm, p in self.g.initial_dist().items()}

    def output(self, state, mem):
        if mem[0] == "exp":
            return self.g.output(state, mem[1])
        return self.fwc.output(state, mem[1])

    def _support_min(self, state, gmem) -> tuple[int, ...]:
        if self.mdp.is_random(state):
            edges = [e.eid for e in self.mdp.out_edges[state]]
        else:
            edges = [eid for eid, p in self.g.output(state, gmem).items() if p > 0]
        ws = [self.mdp.edge_by_id[eid].weight for eid in edges]
        return tuple(min(w[i] for w in ws) for i in range(self.mdp.dimension))

    def _passes(self, total: tuple[int, ...]) -> bool:
        for i in self.dims:
            if Fraction(total[i]) < (self.floor[i] - self.delta) * self.period:
                return False
        return True

    def update(self, state, mem):
        if mem[0] == "rec":
            _, fm, steps = mem
            nxt = self.fwc.update(state, fm)
            if steps + 1 < self.recovery:
                return {("rec", m2, steps + 1): p for m2, p in nxt.items()}
            return self.initial_dist()

        _, gm, taken, sums, prev = mem
        if prev is not None:
            w = self._minw[(prev, state)]
            sums = tuple(a + w[i] for i, a in enumerate(sums))
        nxt = self.g.update(state, gm)
        if taken + 1 < self.period:
            return {("exp", m2, taken + 1, sums, state): p for m2, p in nxt.items()}
        look = self._support_min(state, gm)
        total = tuple(a + look[i] for i, a in enumerate(sums))
        if self._passes(total):
            return self.initial_dist()
        return {("rec", fm, 0): p for fm, p in self.fwc.initial_dist().items()}


def _guaranteed_floor(mdp: Mdp, machine, dims) -> list[Fraction]:
    nodes, edges, init = support_product(mdp, machine, mdp.state_ids)
    graph = WeightedGraph(tuple(nodes), tuple(edges), tuple(init))
    floor = [Fraction(0)] * mdp.dimension
    for i in dims:
        v = karp_min_mean(graph, i)
        if v is not None:
            floor[i] = v
    return floor


# ---------------------------------------------------------------------------
# Per-component recurrent-phase ladder.


def _dwells(several: bool):
    """Dwells doubling up to DWELL_CAP when ``several`` local strategies
    take turns, else dwell 1 alone: a combiner of one keeps no step
    counters, so it plays every dwell as dwell 1."""
    return _doubling(DWELL_CAP if several else 1)


def _plain_rungs(sub: Mdp, ec: EndComponent, locals_: list[LocalStrategy]):
    """Memoryless tables (small components only), then cycling combiners
    (``_dwells``); with one local strategy, dwell 1 is followed by its
    deterministic rotation.  With several, a combiner's chain reaches all
    its ``sum(counts)`` memories, which grow with the dwell: the rungs stop
    at the first whose counters exceed CHAIN_LIMIT."""
    if math.prod(map(len, _options(sub)[1])) <= 256:
        yield from _memoryless_tables(sub)
    for dwell in _dwells(len(locals_) > 1):
        g = CyclingMachine(sub, ec, locals_, dwell)
        if len(locals_) > 1 and sum(g.counts) > CHAIN_LIMIT:
            return
        yield g
    if len(locals_) == 1:
        yield CyclingMachine(sub, ec, locals_, 1, deterministic=True)


def _monitored_rungs(sub: Mdp, ec: EndComponent, locals_: list[LocalStrategy], dims):
    """The paper's combined strategy: the dwell-1 cycling combiner
    alternating with a worst-case machine under a payoff monitor, at the
    (period, recovery length) pairs of MONITORED_RUNGS."""
    try:
        fwc = memoryless_wc_search(sub, dims)
    except FallbackUnavailable:
        return
    floor = _guaranteed_floor(sub, fwc, dims)
    floor_min = min((floor[i] for i in dims), default=Fraction(1))
    if floor_min <= 0:
        return
    g = CyclingMachine(sub, ec, locals_, 1)
    for period, rec in MONITORED_RUNGS:
        yield MonitoredMachine(sub, g, fwc, period, rec, floor, floor_min / 2, dims)


def _least_bottom_mean(sub: Mdp, machine, node_limit: int = 200_000) -> tuple[Fraction, ...]:
    """Per dimension, the least mean payoff over the bottom SCCs of the
    machine's chain from every state of the component ``sub``: the
    expectation the machine guarantees from whichever state a play hands
    over to it."""
    means = bottom_means(induced_chain(sub, machine, sub.state_ids, node_limit=node_limit))
    return tuple(map(min, zip(*means)))


class _Ladder:
    """One winning component's candidate machines, cheapest first.

    Rungs are built lazily and analysed once: each one's exact expectation
    on the restricted component (the least bottom-SCC mean from every
    state, ``_least_bottom_mean``) when first reached, its worst case (from
    every state, each start under its own node limit) when some target
    first admits that expectation.  Rungs whose product outgrows the
    limits never win; a cycling rung whose counters alone exceed
    CHAIN_LIMIT is never built (``_plain_rungs``).
    """

    def __init__(self, mdp: Mdp, comp: EndComponent, locals_: list[LocalStrategy], dims):
        self.sub = restrict(mdp, comp.states)
        self.mu = _check_vector(self.sub, dims)
        self._sources = (_plain_rungs(self.sub, comp, locals_),
                         _monitored_rungs(self.sub, comp, locals_, dims))
        self._rungs = ([], [])  # per source: [machine, expectation or None, wins wc or None]

    def first(self, target: Sequence[Fraction], monitored: bool):
        """The first rung whose expectation dominates ``target`` in every
        dimension and which wins the worst case; monitored rungs only when
        ``monitored``.  None when no rung qualifies."""
        for k in ((0, 1) if monitored else (0,)):
            for rung in self._walk(k):
                machine, exp = rung[0], rung[1]
                if exp is None or any(e < t for e, t in zip(exp, target)):
                    continue
                if rung[2] is None:
                    rung[2] = self._wins_worstcase(machine)
                if rung[2]:
                    return machine
        return None

    def _walk(self, k: int):
        rungs = self._rungs[k]
        i = 0
        while True:
            if i == len(rungs):
                machine = next(self._sources[k], None)
                if machine is None:
                    return
                rungs.append([machine, self._expectation(machine), None])
            yield rungs[i]
            i += 1

    def _expectation(self, machine):
        try:
            return _least_bottom_mean(self.sub, machine, CHAIN_LIMIT)
        except MachineError:
            return None

    def _wins_worstcase(self, machine) -> bool:
        try:
            return all(verify_worstcase(self.sub, machine, self.mu, start=s,
                                        node_limit=4 * CHAIN_LIMIT).ok
                       for s in self.sub.state_ids)
        except MachineError:
            return False


# ---------------------------------------------------------------------------
# The composed machine: pre-drawn lock coins, then local machines.


class ComposedStrategy:
    """Phase-1 flow with per-visit locking into component machines.

    Memory in the transient phase is ("p1", locks) where ``locks`` is the
    set of successor states whose pre-drawn coin came up "lock"; when the
    play arrives at a locked state t, the component machine owning t takes
    over (its memory is tagged ("in", index, ...)).  An optional step cap
    switches every surviving run at step ``cap``: runs inside a designated
    component hand over to its machine, all others to the fallback.
    """

    def __init__(self, mdp: Mdp, plan: Phase1Plan,
                 component_of: dict[str, int], machines: list,
                 cap: Optional[int] = None, fallback=None):
        self.mdp = mdp
        self.plan = plan
        self.component_of = component_of
        self.machines = machines
        self.cap = cap
        self.fallback = fallback
        if cap is not None and fallback is None:
            raise ValueError("a step cap needs a fallback machine")

    # -- helpers ------------------------------------------------------

    def _lock_prob(self, state: str) -> Fraction:
        if state not in self.component_of:
            return Fraction(0)
        return self.plan.switch[state]

    def _draw_locks(self, state: str) -> dict[frozenset, Fraction]:
        """Joint distribution of lock coins for the successors of state."""
        succs = sorted({e.target for e in self.mdp.out_edges[state]})
        dists: dict[frozenset, Fraction] = {frozenset(): Fraction(1)}
        for t in succs:
            q = self._lock_prob(t)
            if q == 0:
                continue
            nxt: dict[frozenset, Fraction] = {}
            for locks, p in dists.items():
                if q < 1:
                    nxt[locks] = nxt.get(locks, Fraction(0)) + p * (1 - q)
                locked = locks | {t}
                nxt[locked] = nxt.get(locked, Fraction(0)) + p * q
            dists = nxt
        return dists

    def _enter(self, idx: int):
        machine = self.machines[idx]
        return {("in", idx, m): p for m, p in machine.initial_dist().items()}

    def _p1_mem(self, locks: frozenset, step: int):
        if self.cap is None:
            return ("p1", locks)
        return ("p1", locks, step)

    # -- Moore interface -----------------------------------------------

    def initial_dist(self):
        # The coin for the start state itself is drawn here; coins for its
        # successors are drawn when leaving it, in update().
        start = self.plan.start
        q = self._lock_prob(start)
        out: dict = {}
        if q > 0:
            for m, p in self._enter(self.component_of[start]).items():
                out[m] = out.get(m, Fraction(0)) + q * p
        if q < 1:
            key = self._p1_mem(frozenset(), 0)
            out[key] = out.get(key, Fraction(0)) + (1 - q)
        return out

    def _handover(self, state, mem):
        """(tag, machine, machine memory) of the machine that plays at
        ``state``: the running one, or the one a locked state or the step
        cap hands the run to (from its initial memory).  None while the
        phase-1 flow plays."""
        tag = mem[0]
        if tag == "in":
            return mem[:2], self.machines[mem[1]], mem[2]
        if tag == "wc":
            return ("wc",), self.fallback, mem[1]
        if state in mem[1] or (self.cap is not None and mem[2] >= self.cap):
            idx = self.component_of.get(state)
            if idx is None:
                return ("wc",), self.fallback, _single_initial(self.fallback)
            return ("in", idx), self.machines[idx], _single_initial(self.machines[idx])
        return None

    def output(self, state, mem):
        hand = self._handover(state, mem)
        if hand is None:
            return dict(self.plan.continuation[state])
        _, machine, m = hand
        return machine.output(state, m)

    def update(self, state, mem):
        hand = self._handover(state, mem)
        if hand is None:
            step = mem[2] + 1 if self.cap is not None else None
            return {self._p1_mem(locks, step): p for locks, p in self._draw_locks(state).items()}
        tag, machine, m = hand
        return {(*tag, m2): p for m2, p in machine.update(state, m).items()}


def _single_initial(machine):
    init = machine.initial_dist()
    if len(init) != 1:
        raise SynthesisError("component machines must have a deterministic initial memory")
    return next(iter(init))


# ---------------------------------------------------------------------------
# Top-level synthesis entry points.


def _witness_parts(mdp: Mdp, query: ThresholdQuery, decision: Optional[Decision]):
    """The witness of a yes decision (``decision``, or one made here), its
    phase-1 plan, the component index of each state, and (component,
    locals, target) for every positive-mass component."""
    if decision is None:
        decision = decide(mdp, query)
    if not decision.answer or decision.witness is None:
        raise SynthesisError(f"no witness: decision is {decision.answer} ({decision.failure})")
    witness = decision.witness
    plan = phase1_strategy(witness)
    mdp = witness.mdp  # the prepared MDP the witness lives on
    asg = witness.assignment
    entries = []
    for comp in witness.components:
        mass = sum((asg.get(ys(s), Fraction(0)) for s in comp.states), Fraction(0))
        if mass <= 0:
            continue
        local_asg = {}
        for eid in comp.edges:
            v = asg.get(xe(eid), Fraction(0))
            if v:
                local_asg[xe(eid)] = v / mass
        locals_ = local_strategies(mdp, comp, local_asg)
        target = [Fraction(0)] * mdp.dimension
        for loc in locals_:
            for i in range(mdp.dimension):
                target[i] += loc.frequency * loc.mean[i]
        entries.append((comp, locals_, target))
    component_of = {s: idx for idx, (comp, _, _) in enumerate(entries) for s in comp.states}
    return witness, plan, component_of, entries


def bas_strategy(mdp: Mdp, query: ThresholdQuery,
                 decision: Optional[Decision] = None):
    """Finite machine for a yes beyond-almost-sure decision.

    Composes the phase-1 plan with one cycling machine per positive-mass
    component; the dwell parameter (``_dwells``, doubling when some
    component has several local strategies) is grown until the machine
    verifies, both read off one bottom-SCC analysis of its chain: exact
    expectation above the (normalized) target, and every reachable bottom
    component above the (normalized) worst-case threshold, zero.  Returns
    (machine, prepared mdp, prepared start).
    """
    w, plan, component_of, entries = _witness_parts(mdp, query, decision)

    for dwell in _dwells(any(len(locals_) > 1 for _, locals_, _ in entries)):
        machines = [CyclingMachine(restrict(w.mdp, comp.states), comp, locals_, dwell)
                    for comp, locals_, _ in entries]
        composed = ComposedStrategy(w.mdp, plan, component_of, machines)
        bsccs = bscc_analysis(induced_chain(w.mdp, composed, w.start))
        exp = [sum(b.reach * b.mean[i] for b in bsccs) for i in range(w.mdp.dimension)]
        if all(e > n for e, n in zip(exp, w.nu)) and all(m > 0 for b in bsccs for m in b.mean):
            return composed, w.mdp, w.start
    raise FallbackUnavailable(f"no dwell parameter up to {DWELL_CAP} verified")


def bwc_finite_strategy(mdp: Mdp, query: ThresholdQuery,
                        cap: Optional[int] = None,
                        decision: Optional[Decision] = None):
    """Finite machine for a yes finite-memory beyond-worst-case decision.

    Shape: play the phase-1 flow with per-visit locking into per-component
    machines; at the step cap, runs inside a winning component switch to
    its machine and all others to the worst-case fallback.  The worst case
    then holds for every cap (prefix independence); the cap is grown until
    the exact expectation clears the target, up to PHASE_CAP_LIMIT.  Each
    component's machine is the first rung of its ladder (see ``_Ladder``)
    that meets the component's target, shrunk by growing fractions of the
    slack; the monitored rungs join at the last fraction.  Returns
    (machine, prepared mdp, prepared start, cap used).
    """
    w, plan, component_of, entries = _witness_parts(mdp, query, decision)

    fallback = memoryless_wc_search(w.mdp, w.dims)

    # Per-component targets are the witnessed expectations shrunk by a
    # fraction of the slack; any total shrink below the slack keeps the
    # global sum strictly above nu, so the ladder trades per-component
    # ambition for cheaper machines that win the worst case.  The exact
    # global check below stays authoritative either way.
    slack = w.slack if w.slack else Fraction(1, 1000)
    thetas = (Fraction(1, 1000), Fraction(1, 4), Fraction(1, 2),
              Fraction(3, 4), Fraction(1023, 1024))
    ladders = [_Ladder(w.mdp, comp, locals_, w.dims) for comp, locals_, _ in entries]
    for theta in thetas:
        machines = []
        for ladder, (_, _, target) in zip(ladders, entries):
            cand = ladder.first([t - slack * theta for t in target],
                                monitored=theta == thetas[-1])
            if cand is None:
                break
            machines.append(cand)
        else:
            break
    else:
        raise FallbackUnavailable("no verified machine for some winning component")

    caps = [cap] if cap is not None else _doubling(PHASE_CAP_LIMIT)
    for n in caps:
        composed = ComposedStrategy(w.mdp, plan, component_of, machines,
                                    cap=n, fallback=fallback)
        exp = expected_mp(induced_chain(w.mdp, composed, w.start))
        if cap is not None or all(exp[i] > w.nu[i] for i in range(w.mdp.dimension)):
            return composed, w.mdp, w.start, n
    raise FallbackUnavailable(f"no step cap up to {PHASE_CAP_LIMIT} cleared the expectation target")


def _doubling(limit: int):
    n = 1
    while n <= limit:
        yield n
        n *= 2


# ---------------------------------------------------------------------------
# The infinite-memory strategy: total-payoff monitor over two modes.


@dataclass
class BranchedInfiniteStrategy:
    """Phase-1 locking into per-component machines under total-payoff
    monitors, with a permanent switch to the worst-case machine.

    The finite part (transient flow plus per-component expectation
    machines) is a ComposedStrategy.  After locking into component b, the
    monitor of that branch tracks the exact total payoff since the lock,
    in phases of ``period`` (K) steps, against its per-dimension floor
    rates ``monitors[b]``: during phase i >= 1 the total must stay
    strictly above floor_i = rate * i * K / 2 (checked every step), and
    at the end of phase i it must strictly exceed 2 * floor_{i+1}.
    Either failure switches the run permanently to ``fwc``.  Memory is
    genuinely unbounded (the integer total), so the strategy is
    simulate-only (``simulate_runs``) and serializes as a parameter record
    only; a copy loaded from one has a table machine as ``composed`` and
    maps its memories to branches through ``branch_map``.
    """

    mdp: Mdp
    start: str
    composed: ComposedStrategy
    monitors: list[tuple[Fraction, ...]]  # floor rates per branch
    fwc: object
    period: int
    branch_map: Optional[dict] = None

    def simulate_runs(self, mdp: Mdp, start: str, horizon: int, runs: int, seed: int):
        """Seeded simulation; returns the total payoffs, one row per run.

        ``mdp`` is the instance the query was posed on and ``start`` the
        state the strategy was synthesized from.  The monitors run on the
        prepared (normalized) weights; the reported totals are on
        ``mdp``'s weights.  Runs walk one union chain with
        ``step_blocks``: the composed chain's nodes, then the fallback
        chain's; a monitor trip jumps to the fallback node of the same
        state.  The monitor runs once per block, on the transitions
        taken: runs that cannot trip in the block add its weight sum,
        the others replay its steps under the per-step rule, one step at
        a time for all of them at once.  Draw
        layout matches the chain simulator.  Monitor comparisons run in
        int64; magnitudes are bounded and checked on entry.
        """
        import numpy as np

        from bwcmdp.verification import BLOCK, _chain_arrays, _initial_nodes, step_blocks

        origin = self.start
        if origin not in mdp.owner:  # a pre-state stands for its one target
            origin = self.mdp.out_edges[origin][0].target
        if start != origin:
            raise ValueError(f"the strategy plays from {origin!r}, not from {start!r}")

        chain = induced_chain(self.mdp, self.composed, self.start, node_limit=100_000)
        fchain = induced_chain(self.mdp, self.fwc, self.mdp.state_ids)
        cols, base, target, weight = _chain_arrays(chain, fchain)
        reported = _reported_weights(mdp, chain, fchain)
        n1 = chain.node_count()
        # Branch id per union node: -1 off the components and on the fallback.
        branch = np.full(n1 + fchain.node_count(), -1, dtype=np.int64)
        for i, (s, mem) in enumerate(chain.nodes):
            if self.branch_map is not None:
                b = self.branch_map.get(mem)
                if b is not None:
                    branch[i] = int(b)
            elif isinstance(mem, tuple) and mem and mem[0] == "in":
                branch[i] = mem[1]
        # A trip jumps to the fallback's node of the same state; the
        # fallback's own nodes stay put.
        f0 = _single_initial(self.fwc)
        jump = np.arange(len(branch), dtype=np.int64)
        jump[:n1] = [n1 + fchain.index[(s, f0)] for s, _ in chain.nodes]

        d = self.mdp.dimension
        K = self.period
        mon_num = np.array([[rates[i].numerator for i in range(d)]
                            for rates in self.monitors], dtype=np.int64)
        mon_den = np.array([[rates[i].denominator for i in range(d)]
                            for rates in self.monitors], dtype=np.int64)
        wmax = max(self.mdp.max_abs_weight, mdp.max_abs_weight)
        bound = (horizon * wmax + 1) * 2 * int(mon_den.max())
        bound = max(bound, max(abs(int(v)) for v in mon_num.flat) * (horizon + K))
        if bound >= 2**62:
            raise OverflowError("monitor arithmetic exceeds int64 range")

        # Per run and dimension (dimension-major), in phase i of its
        # monitor: x = 2*den*(payoff since the lock), which must stay above
        # floor = num*i*K (MIN in phase 0), and end = the step count t+1
        # that closes the phase.  Before the lock and after a trip, den2 =
        # 0 (so x is 0 at the lock), floor = MIN and end = NEVER: neither
        # test can fail.  No step of a block lowers x by more than
        # den2 * drop, so a run with x > floor - den2*drop, no phase end
        # and no lock in a block cannot trip in it.
        MIN, NEVER = np.iinfo(np.int64).min, horizon + 1
        x = np.zeros((d, runs), dtype=np.int64)
        den2 = np.zeros((d, runs), dtype=np.int64)
        rate = np.zeros((d, runs), dtype=np.int64)
        floor = np.full((d, runs), MIN, dtype=np.int64)
        t_lock = np.zeros(runs, dtype=np.int64)
        end = np.full(runs, NEVER, dtype=np.int64)
        waiting = np.ones(runs, dtype=bool)  # not locked yet
        drop = np.minimum(weight.min(axis=0), 0)[:, None] * min(BLOCK, horizon)
        # The branch each transition enters, -1 off the components.
        enters = branch.take(target).astype(np.min_scalar_type(-len(self.monitors)))
        prepared = np.ascontiguousarray(weight.T)  # one row per dimension

        def lock(r, b, t):
            # Runs r arrive at branches b after t steps.
            den2[:, r] = 2 * mon_den[b].T
            rate[:, r] = mon_num[b].T
            t_lock[r] = t
            end[r] = t + K
            waiting[r] = False

        def replay(t0, taken, r):
            # The exact per-step rule for runs r over the block, one step
            # at a time; returns the trips.
            trips = []
            for i, row in enumerate(taken):
                t = t0 + i + 1
                e = row.take(r)
                x[:, r] += den2[:, r] * prepared.take(e, axis=1)
                low = (x[:, r] <= floor[:, r]).any(axis=0)
                ending = np.flatnonzero(end.take(r) == t)
                if len(ending):
                    q = r[ending]
                    closed = rate[:, q] * (t - t_lock.take(q))
                    low[ending] |= (x[:, q] <= 2 * closed).any(axis=0)
                    floor[:, q] = closed
                    end[q] += K
                if low.any():
                    gone = r[low]
                    den2[:, gone] = 0
                    floor[:, gone] = MIN
                    end[gone] = NEVER
                    trips.append((gone, np.full(len(gone), i), jump.take(target.take(e[low]))))
                    r, e = r[~low], e[~low]
                new = np.flatnonzero(waiting.take(r) & (enters.take(e) >= 0))
                lock(r[new], enters.take(e[new]), t)
            return trips

        def on_block(t0, taken, sums):
            cand = (x <= floor - den2 * drop).any(axis=0)
            cand |= end <= t0 + len(taken)
            if waiting.any():
                cand |= waiting & (enters.take(taken) >= 0).any(axis=0)
            x[:] += den2 * sums[:, :d].T * ~cand  # candidates replay the block instead
            if not cand.any():
                return None
            trips = replay(t0, taken, np.flatnonzero(cand))
            if not trips:
                return None
            return tuple(np.concatenate(parts) for parts in zip(*trips))

        keys = rng.run_keys_array(seed, runs)
        node = _initial_nodes(chain, keys)
        first = branch.take(node)
        r = np.flatnonzero(first >= 0)
        lock(r, first[r], 0)
        tp = step_blocks((cols, base, target), np.concatenate([weight, reported], axis=1),
                         node, keys, horizon, on_block)
        return np.ascontiguousarray(tp[:, d:])


def _reported_weights(mdp: Mdp, *chains) -> np.ndarray:
    """``mdp``'s weight of every transition of ``chains``, laid out as in
    ``_chain_arrays``; the edge out of a pre-state weighs 0."""
    import numpy as np

    zero = (0,) * mdp.dimension
    out = [mdp.edge_by_id[eid].weight if s in mdp.owner else zero
           for chain in chains for (s, _), row in zip(chain.nodes, chain.transitions)
           for _, _, _, eid in row]
    return np.array(out, dtype=np.int64).reshape(len(out), mdp.dimension)


class AdaptedMachine:
    """A machine built on a prepared sub-MDP, re-homed on the original.

    Folds away the controller pre-state (its single forced edge is the
    first transition; the initial distribution absorbs its update) and
    gives harmless defaults at states the prepared instance dropped;
    those are unreachable when playing from the designated start.  At the
    prepared instance's states the wrapped machine answers, and its
    errors propagate.
    """

    def __init__(self, machine, prepared: Mdp, original: Mdp, start: str):
        self.machine = machine
        self.prepared = prepared
        self.original = original
        self.start = start
        self._pre = None
        if start not in original.owner:
            # start is a synthetic pre-state: fold it.
            self._pre = start
            (edge,) = prepared.out_edges[start]
            self.start = edge.target

    def initial_dist(self):
        init = self.machine.initial_dist()
        if self._pre is None:
            return init
        out: dict = {}
        for m, p in init.items():
            for m2, p2 in self.machine.update(self._pre, m).items():
                out[m2] = out.get(m2, Fraction(0)) + p * p2
        return out

    def output(self, state, mem):
        if state in self.prepared.owner:
            return self.machine.output(state, mem)
        return {self.original.out_edges[state][0].eid: Fraction(1)}

    def update(self, state, mem):
        if state in self.prepared.owner:
            return self.machine.update(state, mem)
        return {mem: Fraction(1)}


def bwc_infinite_strategy(mdp: Mdp, query: ThresholdQuery, period: int,
                          decision: Optional[Decision] = None) -> BranchedInfiniteStrategy:
    """Infinite-memory strategy for a yes general beyond-worst-case decision.

    Each positive-mass component runs its expectation machine (the first
    cycling combiner, over ``_dwells``, with a positive expectation from
    every component state, ``_least_bottom_mean``) under
    a total-payoff monitor whose per-dimension floor
    rates are half that expectation; on a monitor trip the strategy
    switches permanently to the worst-case fallback.
    """
    w, plan, component_of, entries = _witness_parts(mdp, query, decision)

    fallback = memoryless_wc_search(w.mdp, w.dims)

    machines = []
    monitors = []
    for comp, locals_, _ in entries:
        sub = restrict(w.mdp, comp.states)
        for dwell in _dwells(len(locals_) > 1):
            g = CyclingMachine(sub, comp, locals_, dwell)
            exp = _least_bottom_mean(sub, g)
            if all(e > 0 for e in exp):
                break
        else:
            raise FallbackUnavailable(
                f"no positive-expectation machine for component {sorted(comp.states)}")
        machines.append(g)
        monitors.append(tuple(e / 2 for e in exp))

    composed = ComposedStrategy(w.mdp, plan, component_of, machines)
    return BranchedInfiniteStrategy(w.mdp, w.start, composed, monitors, fallback, period)
