"""Stochastic Moore machines and induced Markov chains.

A strategy is a memory set M, an initial distribution over M, a stochastic
update f_u(state, memory) -> distribution over M, and a stochastic output
f_o(controller state, memory) -> distribution over outgoing edge ids.  The
update is applied when leaving a state: in the induced chain, the move
from (s, m) draws the edge from f_o(s, m) (or the MDP's distribution at a
random s) and the next memory from f_u(s, m), independently.

Machines are duck-typed: anything with initial_dist/update/output works.
Memory values must be hashable; machines built by synthesis use structured
tuples and are materialized into explicit tables only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Optional

from bwcmdp.model import Mdp

Mem = Hashable
MATERIALIZE_LIMIT = 50_000  # (state, memory) pairs a frozen table may have


class MachineError(ValueError):
    pass


@dataclass
class TableMachine:
    """Explicit-table stochastic Moore machine."""

    memory: list[Mem]
    initial: dict[Mem, Fraction]
    update_table: dict[tuple[str, Mem], dict[Mem, Fraction]]
    output_table: dict[tuple[str, Mem], dict[int, Fraction]]

    def initial_dist(self) -> dict[Mem, Fraction]:
        return self.initial

    def update(self, state: str, mem: Mem) -> dict[Mem, Fraction]:
        return self.update_table[(state, mem)]

    def output(self, state: str, mem: Mem) -> dict[int, Fraction]:
        return self.output_table[(state, mem)]


def memoryless(mdp: Mdp, choices: dict[str, int | dict[int, Fraction]]) -> TableMachine:
    """Single-memory machine from per-state edge choices or distributions."""
    m0 = 0
    update = {}
    output = {}
    for s in mdp.state_ids:
        update[(s, m0)] = {m0: Fraction(1)}
        if mdp.is_random(s):
            continue
        c = choices.get(s)
        if c is None:
            c = mdp.out_edges[s][0].eid
        dist = {c: Fraction(1)} if isinstance(c, int) else {
            int(e): Fraction(p) for e, p in c.items()}
        output[(s, m0)] = dist
    return TableMachine([m0], {m0: Fraction(1)}, update, output)


@dataclass
class InducedChain:
    """Finite Markov chain of MDP x strategy, with exact probabilities.

    nodes are (state, memory) pairs restricted to what is reachable from
    the initial distribution; transitions[i] lists
    (target index, probability, weight vector, edge id).
    """

    mdp: Mdp
    nodes: list[tuple[str, Mem]]
    index: dict[tuple[str, Mem], int]
    transitions: list[list[tuple[int, Fraction, tuple[int, ...], int]]]
    initial: dict[int, Fraction]

    def node_count(self) -> int:
        return len(self.nodes)


def _positive_part(dist: dict, what: str) -> dict:
    """The positive entries of ``dist``, once it is checked to be a
    distribution: non-negative entries summing to exactly 1."""
    if len(dist) == 1 and next(iter(dist.values())) == 1:
        return dist
    for k, p in dist.items():
        if p < 0:
            raise MachineError(f"{what}: negative probability at {k!r}")
    total = sum(dist.values())
    if total != 1:
        raise MachineError(f"{what}: probabilities sum to {total}")
    return {k: p for k, p in dist.items() if p > 0}


def _walk(mdp: Mdp, machine, start, node_limit: int):
    """The product walk over the (state, memory) pairs reachable from the starts.

    ``start`` is one state or a collection of states (None: the MDP's
    initial state); with several, the initial distribution spreads
    uniformly over them.  Each node's update and output is read once and
    checked: non-negative entries summing to exactly 1, outputs supported
    on the state's outgoing edges; a bad one raises MachineError.  Returns
    the induced chain plus, per node, the positive parts of its update
    and output (None at random states).
    """
    if start is None:
        start = mdp.initial
    starts = [start] if isinstance(start, str) else list(start or ())
    if not starts:
        raise MachineError("no start state: pass one or set mdp.initial")

    nodes: list[tuple[str, Mem]] = []
    index: dict[tuple[str, Mem], int] = {}

    def intern(node) -> int:
        i = index.get(node)
        if i is None:
            if len(nodes) >= node_limit:
                raise MachineError(f"product walk exceeds {node_limit} (state, memory) pairs")
            i = len(nodes)
            index[node] = i
            nodes.append(node)
        return i

    init_dist = _positive_part(machine.initial_dist(), "initial distribution")
    share = Fraction(1, len(starts))
    init: dict[int, Fraction] = {}
    for s0 in starts:
        for m, p in init_dist.items():
            i = intern((s0, m))
            init[i] = init.get(i, 0) + p * share

    edge_by_id = mdp.edge_by_id
    random_dist: dict[str, dict[int, Fraction]] = {}
    transitions: list[list[tuple[int, Fraction, tuple[int, ...], int]]] = []
    updates: list[dict[Mem, Fraction]] = []
    outputs: list[Optional[dict[int, Fraction]]] = []
    cursor = 0
    while cursor < len(nodes):
        s, m = nodes[cursor]
        up = _positive_part(machine.update(s, m), f"update at ({s}, {m!r})")
        if mdp.is_random(s):
            out = None
            edge_dist = random_dist.get(s)
            if edge_dist is None:
                edge_dist = random_dist[s] = {e.eid: mdp.prob(e.eid) for e in mdp.out_edges[s]}
        else:
            out = machine.output(s, m)
            bad = [e for e in out if e not in edge_by_id or edge_by_id[e].source != s]
            if bad:
                raise MachineError(f"output at ({s}, {m!r}) uses non-outgoing edges {sorted(bad)}")
            out = edge_dist = _positive_part(out, f"output at ({s}, {m!r})")
        row: list[tuple[int, Fraction, tuple[int, ...], int]] = []
        sure = len(up) == 1  # its one memory has probability 1 (_positive_part)
        for eid, pe in sorted(edge_dist.items()):
            edge = edge_by_id[eid]
            for m2, pm in up.items():
                row.append((intern((edge.target, m2)), pe if sure else pe * pm, edge.weight, eid))
        transitions.append(row)
        updates.append(up)
        outputs.append(out)
        cursor += 1
    return InducedChain(mdp, nodes, index, transitions, init), updates, outputs


def induced_chain(mdp: Mdp, machine, start=None,
                  node_limit: int = 200_000) -> InducedChain:
    """Product chain over reachable (state, memory) pairs.

    Transition probability from (s, m) through edge e with next memory m'
    is output(e) * update(m') at controller states and P(e) * update(m')
    at random states; the weight is the edge's weight vector.  ``start``
    is one state or a collection of states.
    """
    return _walk(mdp, machine, start, node_limit)[0]


def support_product(mdp: Mdp, machine, start=None,
                    node_limit: int = 500_000):
    """Support graph of the induced chain: every positive-probability move.

    Worst-case verification quantifies over all consistent plays, which is
    exactly the set of paths of this graph (the strategy's own
    randomization included).  Returns (nodes, edges) with edges as
    (source index, target index, weight vector, edge id).
    """
    chain = induced_chain(mdp, machine, start, node_limit)
    edges = []
    for i, row in enumerate(chain.transitions):
        seen = set()
        for j, _, w, eid in row:
            key = (j, eid)
            if key not in seen:
                seen.add(key)
                edges.append((i, j, w, eid))
    return chain.nodes, edges, sorted(chain.initial)


def materialize(mdp: Mdp, machine, start) -> TableMachine:
    """Freeze a lazy machine into explicit tables over its reachable part
    (from one state or from a collection of states), of at most
    MATERIALIZE_LIMIT (state, memory) pairs."""
    chain, updates, outputs = _walk(mdp, machine, start, MATERIALIZE_LIMIT)
    init = {m: p for m, p in machine.initial_dist().items() if p > 0}
    mems = list(dict.fromkeys(m for _, m in chain.nodes))
    update = dict(zip(chain.nodes, updates))
    output = {node: out for node, out in zip(chain.nodes, outputs) if out is not None}
    return TableMachine(mems, init, update, output)
