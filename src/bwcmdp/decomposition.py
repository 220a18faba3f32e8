"""Reachability, strongly connected components, and end-component decomposition."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from bwcmdp.model import Mdp


@dataclass(frozen=True, slots=True)
class EndComponent:
    """A set of states together with the internal edge ids connecting them.

    Invariants: the induced subgraph is strongly connected, and every
    random state in the set keeps all its outgoing edges inside the set.
    """

    states: frozenset[str]
    edges: frozenset[int]

    def __contains__(self, state: str) -> bool:
        return state in self.states


def index_sccs(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components of the graph ``i -> succ[i]`` on 0..n-1.

    The one SCC routine of the package: iterative Tarjan (deep graphs do
    not hit the recursion limit), roots and successors taken in index
    order.  Returns a partition into sorted node lists, in reverse
    topological order of the condensation: every edge between distinct
    components points from a later component to an earlier one.
    """
    n = len(succ)
    index = [0] * n  # visit number, 0 while unvisited
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 1
    out: list[list[int]] = []
    for root in range(n):
        if index[root]:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if not index[w]:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comp.sort()
                    out.append(comp)
    return out


def index_reachable(succ: Sequence[Sequence[int]], roots: Iterable[int]) -> set[int]:
    """Nodes of the graph ``i -> succ[i]`` reachable from ``roots``."""
    seen = set(roots)
    frontier = list(seen)
    while frontier:
        for w in succ[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def sccs(mdp: Mdp, edge_filter: Optional[Iterable[int]] = None) -> list[set[str]]:
    """Strongly connected components of the (optionally filtered) edge relation.

    ``index_sccs`` over the states in declaration order: a partition of
    all states in reverse topological order of the condensation.
    """
    ids = mdp.state_ids
    pos = {s: i for i, s in enumerate(ids)}
    allowed = None if edge_filter is None else set(edge_filter)
    succ: list[list[int]] = [[] for _ in ids]
    for e in mdp.edges:
        if allowed is None or e.eid in allowed:
            succ[pos[e.source]].append(pos[e.target])
    return [{ids[i] for i in comp} for comp in index_sccs(succ)]


def reachable(mdp: Mdp, start: str) -> set[str]:
    """States graph-reachable from ``start``.

    Because every random edge has positive probability, this coincides
    with "reachable with positive probability under some strategy".
    """
    if start not in mdp.owner:
        raise KeyError(f"unknown state {start!r}")
    ids = mdp.state_ids
    pos = {s: i for i, s in enumerate(ids)}
    succ = [[pos[e.target] for e in mdp.out_edges[s]] for s in ids]
    return {ids[i] for i in index_reachable(succ, [pos[start]])}


def _internal_edges(mdp: Mdp, states: set[str]) -> set[int]:
    return {e.eid for e in mdp.edges if e.source in states and e.target in states}


def mecs(mdp: Mdp) -> list[EndComponent]:
    """Maximal end components, by iterated SCC refinement.

    Repeatedly: compute SCCs of the remaining subgraph, delete random
    states with a successor outside their SCC (with all incident edges),
    and drop controller edges that leave an SCC, until stable.  Surviving
    non-trivial components are the MECs.  Output order follows the first
    state of each component in declaration order.
    """
    alive_states = set(mdp.state_ids)
    alive_edges = {e.eid for e in mdp.edges}

    changed = True
    while changed:
        changed = False
        comps = sccs(mdp, alive_edges)
        comp_of = {}
        for comp in comps:
            for s in comp:
                comp_of[s] = id(comp)
        # Declaration order: which removals one round sees, and so how
        # many rounds run, must not depend on string hashing.
        for s in [s for s in mdp.state_ids if s in alive_states]:
            if not mdp.is_random(s):
                continue
            # A random state must keep every original edge, inside its SCC:
            # losing any of them disqualifies it from every end component.
            bad = any(e.eid not in alive_edges
                      or e.target not in alive_states
                      or comp_of.get(e.target) != comp_of.get(s)
                      for e in mdp.out_edges[s])
            if bad:
                alive_states.discard(s)
                for e in mdp.out_edges[s]:
                    alive_edges.discard(e.eid)
                for e in mdp.in_edges[s]:
                    alive_edges.discard(e.eid)
                changed = True
        for e in mdp.edges:
            if e.eid in alive_edges:
                if e.source not in alive_states or e.target not in alive_states:
                    alive_edges.discard(e.eid)
                    changed = True
                elif not mdp.is_random(e.source) and comp_of.get(e.source) != comp_of.get(e.target):
                    alive_edges.discard(e.eid)
                    changed = True

    result = []
    for comp in sccs(mdp, alive_edges):
        comp &= alive_states
        if not comp:
            continue
        internal = {eid for eid in alive_edges
                    if mdp.edge_by_id[eid].source in comp and mdp.edge_by_id[eid].target in comp}
        if not internal:
            continue
        if all(any(mdp.edge_by_id[eid].source == s for eid in internal) for s in comp):
            result.append(EndComponent(frozenset(comp), frozenset(internal)))

    order = {s: i for i, s in enumerate(mdp.state_ids)}
    result.sort(key=lambda ec: min(order[s] for s in ec.states))
    return result


def restrict(mdp: Mdp, states: Iterable[str]) -> Mdp:
    """Sub-MDP on an end component: internal edges only, probabilities kept.

    Rejects sets that are not ECs, naming the violated closure condition.
    """
    sset = set(states)
    for s in sset:
        if s not in mdp.owner:
            raise KeyError(f"unknown state {s!r}")
        if mdp.is_random(s):
            for e in mdp.out_edges[s]:
                if e.target not in sset:
                    raise ValueError(
                        f"not an end component: random state {s} has edge {e.eid} leaving the set")
    internal = _internal_edges(mdp, sset)
    comps = sccs(mdp, internal)
    if not any(sset <= comp for comp in comps):
        raise ValueError("not an end component: the induced subgraph is not strongly connected")
    for s in sset:
        if not any(mdp.edge_by_id[eid].source == s for eid in internal):
            raise ValueError(f"not an end component: {s} has no internal successor")
    return restrict_states(mdp, sset)


def restrict_states(mdp: Mdp, states: Iterable[str]) -> Mdp:
    """Sub-MDP on an arbitrary random-closed state set (no EC requirement).

    Controller edges leaving the set are dropped; random states must keep
    all their edges inside, and every surviving state keeps a successor.
    Used for pruning and for winning-region recursion.
    """
    sset = set(states)
    for s in sset:
        if mdp.is_random(s):
            for e in mdp.out_edges[s]:
                if e.target not in sset:
                    raise ValueError(f"random state {s} has a successor outside the set")
    keep = {e.eid for e in mdp.edges if e.source in sset and e.target in sset}
    sub_states = tuple(so for so in mdp.states if so[0] in sset)
    sub_edges = tuple(e for e in mdp.edges if e.eid in keep)
    for s in sset:
        if not any(e.source == s for e in sub_edges):
            raise ValueError(f"state {s} loses all successors under restriction")
    probs = {e.eid: mdp.probabilities[e.eid] for e in sub_edges if e.eid in mdp.probabilities}
    init = mdp.initial if mdp.initial in sset else None
    return Mdp(mdp.dimension, sub_states, sub_edges, probs, init)
