"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the production algorithms: reachability by path
closure, end components by subset enumeration, game values by exhaustive
memoryless strategy pairs, cycle means by simple-cycle enumeration, and
linear feasibility by vertex enumeration.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from bwcmdp.decomposition import EndComponent, restrict
from bwcmdp.linsolve import EQ, GE, GT, LinearSystem
from bwcmdp.model import Mdp
from bwcmdp.synthesis import MonitoredMachine, _guaranteed_floor


def brute_reachable(mdp: Mdp, start: str) -> set[str]:
    reach = {start}
    changed = True
    while changed:
        changed = False
        for e in mdp.edges:
            if e.source in reach and e.target not in reach:
                reach.add(e.target)
                changed = True
    return reach


def brute_sccs(mdp: Mdp, edge_filter=None) -> set[frozenset[str]]:
    """SCCs as the classes of mutual reachability over the allowed edges."""
    edges = [e for e in mdp.edges if edge_filter is None or e.eid in edge_filter]
    reach = {}
    for s in mdp.state_ids:
        seen = {s}
        changed = True
        while changed:
            changed = False
            for e in edges:
                if e.source in seen and e.target not in seen:
                    seen.add(e.target)
                    changed = True
        reach[s] = seen
    return {frozenset(t for t in mdp.state_ids if t in reach[s] and s in reach[t])
            for s in mdp.state_ids}


def is_trivial_scc(mdp: Mdp, component: set[str], edge_filter=None) -> bool:
    """True for a singleton component with no (allowed) self-loop."""
    if len(component) != 1:
        return False
    (s,) = tuple(component)
    return not any(e.source == s and e.target == s
                   and (edge_filter is None or e.eid in edge_filter)
                   for e in mdp.edges)


def brute_is_ec(mdp: Mdp, subset: frozenset[str]) -> bool:
    if not subset:
        return False
    internal = [e for e in mdp.edges if e.source in subset and e.target in subset]
    for s in subset:
        if mdp.is_random(s):
            if any(e.target not in subset for e in mdp.out_edges[s]):
                return False
        if not any(e.source == s for e in internal):
            return False
    # Pairwise connectivity through internal edges only.
    for s in subset:
        reach = {s}
        changed = True
        while changed:
            changed = False
            for e in internal:
                if e.source in reach and e.target not in reach:
                    reach.add(e.target)
                    changed = True
        if not subset <= reach:
            return False
    return True


def brute_ecs(mdp: Mdp) -> list[frozenset[str]]:
    states = list(mdp.state_ids)
    out = []
    for r in range(1, len(states) + 1):
        for combo in itertools.combinations(states, r):
            if brute_is_ec(mdp, frozenset(combo)):
                out.append(frozenset(combo))
    return out


def brute_mecs(mdp: Mdp) -> set[frozenset[str]]:
    ecs = brute_ecs(mdp)
    return {ec for ec in ecs if not any(ec < other for other in ecs)}


def _cycle_mean_from(mdp: Mdp, start: str, choice: dict[str, int], dim: int) -> Fraction:
    """Mean of the unique cycle reached from start in a functional graph."""
    seen = {}
    path = []
    s = start
    step = 0
    while s not in seen:
        seen[s] = step
        e = mdp.edge_by_id[choice[s]]
        path.append(e)
        s = e.target
        step += 1
    k = seen[s]
    cyc = path[k:]
    total = sum(e.weight[dim] for e in cyc)
    return Fraction(total, len(cyc))


def brute_game_value(mdp: Mdp, dim: int = 0) -> dict[str, Fraction]:
    """Exact values by max-min over memoryless strategy pairs.

    Valid because unidimensional mean-payoff games are positionally
    determined for both players.
    """
    ctrl = [s for s in mdp.state_ids if not mdp.is_random(s)]
    rand = [s for s in mdp.state_ids if mdp.is_random(s)]
    copts = [[e.eid for e in mdp.out_edges[s]] for s in ctrl]
    ropts = [[e.eid for e in mdp.out_edges[s]] for s in rand]
    values = {s: None for s in mdp.state_ids}
    for cc in itertools.product(*copts):
        cmap = dict(zip(ctrl, cc))
        worst = {s: None for s in mdp.state_ids}
        for rr in itertools.product(*ropts):
            choice = cmap | dict(zip(rand, rr))
            for s in mdp.state_ids:
                v = _cycle_mean_from(mdp, s, choice, dim)
                if worst[s] is None or v < worst[s]:
                    worst[s] = v
        for s in mdp.state_ids:
            if values[s] is None or worst[s] > values[s]:
                values[s] = worst[s]
    return values


def lp_positive_component(mdp: Mdp, comp, internal, dims: Sequence[int]) -> bool:
    """The exact LP alone on one SCC given with its internal edges."""
    from bwcmdp.games import positive_multicycle

    sub = Mdp(mdp.dimension, tuple((s, o) for s, o in mdp.states if s in comp),
              tuple(internal), {}, None)
    return positive_multicycle(sub, comp, dims) > 0


def brute_wc_region(mdp: Mdp, dims: Sequence[int]):
    """Worst-case winning states and first spoilers by plain enumeration.

    Every memoryless spoiler, in the order random states appear and their
    edges are listed; under each, every SCC of the one-player graph gets
    the exact LP ``positive_multicycle`` (no memo, no pre-filter), and a
    state holds when it reaches a positive SCC.  Returns the states no
    spoiler beats and, for every other state, the first spoiler's choice.
    """
    rand = [s for s in mdp.state_ids if mdp.is_random(s)]
    options = [[e.eid for e in mdp.out_edges[s]] for s in rand]
    certificates: dict[str, tuple] = {}
    for combo in itertools.product(*options):
        chosen = dict(zip(rand, combo))
        allowed = [e for e in mdp.edges
                   if not mdp.is_random(e.source) or chosen[e.source] == e.eid]
        good: set[str] = set()
        for comp in brute_sccs(mdp, {e.eid for e in allowed}):
            internal = [e for e in allowed if e.source in comp and e.target in comp]
            if internal and lp_positive_component(mdp, comp, internal, dims):
                good |= comp
        one_player = Mdp(mdp.dimension, mdp.states, tuple(allowed), {}, None)
        held = {s for s in mdp.state_ids if brute_reachable(one_player, s) & good}
        for s in mdp.state_ids:
            if s not in held and s not in certificates:
                certificates[s] = tuple(chosen.items())
    return frozenset(mdp.state_ids) - set(certificates), certificates


def brute_min_cycle_mean(nodes, edges, dim: int):
    """Exact minimum simple-cycle mean by DFS enumeration of simple cycles."""
    best = None
    n = len(nodes)
    adj = {i: [] for i in range(n)}
    for (u, v, w, _) in edges:
        adj[u].append((v, w[dim]))

    def walk(start, u, weight, length, visited):
        nonlocal best
        for v, w in adj[u]:
            if v == start:
                mean = Fraction(weight + w, length + 1)
                if best is None or mean < best:
                    best = mean
            elif v > start and v not in visited:
                walk(start, v, weight + w, length + 1, visited | {v})

    for s in range(n):
        walk(s, s, 0, 0, {s})
    return best


def vertex_feasible(system: LinearSystem) -> bool:
    """Feasibility by vertex enumeration (weak relaxation of strict rows).

    Exact for systems with all variables >= 0: the feasible region is
    pointed, so it is nonempty iff some basic solution satisfies all
    constraints.
    """
    assert system.nonneg
    nvars = len(system.variables)
    idx = {v: i for i, v in enumerate(system.variables)}
    rows = []
    for c in system.constraints:
        vec = [Fraction(0)] * nvars
        for v, a in c.coeffs.items():
            vec[idx[v]] = Fraction(a)
        rows.append((vec, c.relation, Fraction(c.rhs)))
    for i in range(nvars):
        vec = [Fraction(0)] * nvars
        vec[i] = Fraction(1)
        rows.append((vec, GE, Fraction(0)))

    def solve_square(subset):
        a = [list(rows[i][0]) + [rows[i][2]] for i in subset]
        m = len(subset)
        cols = list(range(nvars))
        piv_cols = []
        r = 0
        for c in cols:
            piv = next((k for k in range(r, m) if a[k][c] != 0), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            inv = Fraction(1) / a[r][c]
            a[r] = [x * inv for x in a[r]]
            for k in range(m):
                if k != r and a[k][c] != 0:
                    f = a[k][c]
                    a[k] = [x - f * y for x, y in zip(a[k], a[r])]
            piv_cols.append(c)
            r += 1
            if r == m:
                break
        for k in range(r, m):
            if a[k][nvars] != 0:
                return None
        x = [Fraction(0)] * nvars
        for k, c in enumerate(piv_cols):
            x[c] = a[k][nvars]
        return x

    def satisfies(x):
        for vec, rel, rhs in rows:
            lhs = sum((a * b for a, b in zip(vec, x)), Fraction(0))
            if rel == EQ and lhs != rhs:
                return False
            if rel in (GE, GT) and lhs < rhs:
                return False
        return True

    m = len(rows)
    for subset in itertools.combinations(range(m), min(nvars, m)):
        x = solve_square(subset)
        if x is not None and satisfies(x):
            return True
    if nvars > m:
        x = [Fraction(0)] * nvars
        if satisfies(x):
            return True
    return False


# Monitored alternation with the closed-form recovery length (the
# synthesis ladder searches a small grid of its parameters instead).


def recovery_length(period: int, max_weight: int, floor_min: Fraction,
                    delta: Fraction, machine_size: int) -> int:
    """Recovery length making monitored alternation safe.

    ceil((2*period*(W + floor - delta) + size*(2W + 2*floor - delta)) / delta)
    with ``size`` the worst-case machine's memory count times the number
    of states.
    """
    num = 2 * period * (max_weight + floor_min - delta) \
        + machine_size * (2 * max_weight + 2 * floor_min - delta)
    return max(1, math.ceil(num / delta))


def wec_combined(mdp: Mdp, wec: EndComponent, expectation_machine,
                 worstcase_machine, period: int, delta: Fraction,
                 dims: Optional[Sequence[int]] = None,
                 wc_memory_size: int = 1,
                 recovery: Optional[int] = None) -> MonitoredMachine:
    """Monitored combination for a winning component.

    The floor is the worst-case machine's guaranteed per-dimension cycle
    mean inside the component; ``delta`` must stay below its smallest
    monitored entry.  The recovery length defaults to the closed form of
    ``recovery_length``; callers doing verified search may pass a shorter
    one, the exact checks stay authoritative either way.
    """
    dims = tuple(dims) if dims is not None else tuple(range(mdp.dimension))
    sub = restrict(mdp, wec.states)
    floor = _guaranteed_floor(sub, worstcase_machine, dims)
    floor_min = min(floor[i] for i in dims)
    if not (0 < delta < floor_min):
        raise ValueError(f"delta must lie in (0, {floor_min}), got {delta}")
    if recovery is None:
        m = wc_memory_size * len(sub.state_ids)
        recovery = recovery_length(period, sub.max_abs_weight, floor_min, delta, m)
    return MonitoredMachine(sub, expectation_machine, worstcase_machine,
                            period, recovery, floor, delta, dims)
