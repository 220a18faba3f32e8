"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the production algorithms: reachability by path
closure, end components by subset enumeration, game values by exhaustive
memoryless strategy pairs, cycle means by simple-cycle enumeration, and
linear feasibility by vertex enumeration.  It also holds the helpers that
only tests use: game values by value iteration, the dense simplex and the
sparse Fraction-row simplex and Gauss-Jordan that the integer-row kernel
must reproduce, the dense-matrix bottom-SCC analysis that the sparse one
must reproduce, the named Fraction-row system builders that the integer
row builders must reproduce, and scalar simulators, one run and one step at a time,
that the block-stepped simulation kernel must reproduce.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from bwcmdp.decomposition import EndComponent, index_sccs, restrict
from bwcmdp.linsolve import EQ, GE, GT, LinearSystem
from bwcmdp.machines import InducedChain, induced_chain
from bwcmdp.model import Mdp, require_valid
from bwcmdp.rng import _M1, _MASK, run_key, splitmix64
from bwcmdp.synthesis import MonitoredMachine, _guaranteed_floor
from bwcmdp.verification import Bscc, WeightedGraph, _cycle_sccs, _min_mean_cycle


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


def free_multicycle(mdp: Mdp, comp, dims: Optional[Sequence[int]] = None) -> Optional[Fraction]:
    """``positive_multicycle``'s optimum as the LP with a free variable y:
    maximize y over unit circulations x >= 0 on the internal edges of
    ``comp`` with sum x_e*w_e[i] >= y in every tracked dimension, solved
    by ``fraction_simplex``, which splits y into two non-negative parts."""
    dims = range(mdp.dimension) if dims is None else dims
    edges = [e for e in mdp.edges if e.source in comp and e.target in comp]
    if not edges:
        return None
    xs = [f"x{e.eid}" for e in edges]
    rows = []
    for s in sorted(comp):
        coeffs = {}
        for x, e in zip(xs, edges):
            coeffs[x] = coeffs.get(x, 0) + (e.target == s) - (e.source == s)
        rows.append((coeffs, "=", 0))
    rows.append((dict.fromkeys(xs, 1), "=", 1))
    rows += [({x: e.weight[i] for x, e in zip(xs, edges)} | {"y": -1}, ">=", 0) for i in dims]
    status, _, value = fraction_simplex(xs + ["y"], set(xs), rows, {"y": 1})
    assert status == "optimal"
    return value


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


def karp_formula(comp, edges, dim: int) -> Fraction:
    """Karp's theorem as written: min over v of max over k of
    (D_m(v) - D_k(v)) / (m - k), every term a Fraction, nothing pruned."""
    m = len(comp)
    pos = {v: i for i, v in enumerate(comp)}
    D = [[None] * m for _ in range(m + 1)]
    D[0][0] = 0
    for k in range(1, m + 1):
        for u, v, w, _ in edges:
            u, v = pos[u], pos[v]
            if D[k - 1][u] is not None:
                x = D[k - 1][u] + w[dim]
                if D[k][v] is None or x < D[k][v]:
                    D[k][v] = x
    return min(max(Fraction(D[m][v] - D[k][v], m - k) for k in range(m) if D[k][v] is not None)
               for v in range(m) if D[m][v] is not None)


def mdp_graph(mdp: Mdp, start: Optional[str] = None) -> WeightedGraph:
    """The MDP's edges as a weighted graph, from ``start`` (else the
    initial state, else every state)."""
    idx = {s: i for i, s in enumerate(mdp.state_ids)}
    edges = tuple((idx[e.source], idx[e.target], e.weight, e.eid) for e in mdp.edges)
    init = (idx[start],) if start is not None else (
        (idx[mdp.initial],) if mdp.initial else tuple(range(len(mdp.state_ids))))
    return WeightedGraph(tuple(mdp.state_ids), edges, init)


def min_mean_cycle_witness(graph: WeightedGraph, dim: int,
                           bound: Fraction) -> Optional[list]:
    """A reachable cycle with mean <= bound in the given dimension, or None.

    Finds the exact minimum mean first, then extracts a cycle achieving it
    (see ``verification._tight_cycle``).  Returns the cycle as a list of
    edge labels.
    """
    return _min_mean_cycle(_cycle_sccs(graph), dim, bound)


def vertex_feasible(system: LinearSystem) -> bool:
    """Feasibility by vertex enumeration (weak relaxation of strict rows).

    Exact for systems with all variables >= 0: the feasible region is
    pointed, so it is nonempty iff some basic solution satisfies all
    constraints.
    """
    nvars = len(system.variables)
    rows = []
    for c in system.constraints:
        vec = [Fraction(0)] * nvars
        for j, a in c.coeffs.items():
            vec[j] = Fraction(a, c.den)
        rows.append((vec, c.relation, Fraction(c.rhs, c.den)))
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


# ---------------------------------------------------------------------------
# Exact unidimensional game values by finite-horizon value iteration.


def _graph_arrays(mdp: Mdp, dim: int, scale: int = 1, shift: int = 0):
    idx = {s: i for i, s in enumerate(mdp.state_ids)}
    src = np.array([idx[e.source] for e in mdp.edges], dtype=np.int64)
    dst = np.array([idx[e.target] for e in mdp.edges], dtype=np.int64)
    w = np.array([e.weight[dim] * scale - shift for e in mdp.edges], dtype=np.int64)
    is_ctrl = np.array([not mdp.is_random(s) for s in mdp.state_ids], dtype=bool)
    return idx, src, dst, w, is_ctrl


def wc_value_unidim(mdp: Mdp, dim: Optional[int] = None,
                    dims: Optional[Sequence[int]] = None) -> dict[str, Fraction]:
    """Exact mean-payoff game values, one non-trivial dimension.

    Finite-horizon value iteration: after k = 4*n^3*W steps the averaged
    k-step optimum is within 1/(2n^2) of the game value, which is the
    unique rational with denominator <= n in that window.  Iteration runs
    in int64 (bounds checked), rounding is exact via limit_denominator.
    """
    require_valid(mdp)
    if dim is None:
        active = list(dims) if dims is not None else list(range(mdp.dimension))
        if len(active) != 1:
            raise ValueError(f"need exactly one non-trivial dimension, got {active}")
        dim = active[0]

    n = len(mdp.state_ids)
    idx, src, dst, w, is_ctrl = _graph_arrays(mdp, dim)
    W = int(np.max(np.abs(w))) if len(w) else 0
    if W == 0:
        return {s: Fraction(0) for s in mdp.state_ids}
    k = 4 * n * n * n * W
    if (k + 1) * W >= 2**62:
        raise OverflowError("value-iteration horizon exceeds int64 range")

    NEG = np.int64(-(2**62))
    POS = np.int64(2**62)
    v = np.zeros(n, dtype=np.int64)
    order = np.argsort(src, kind="stable")
    src_s, dst_s, w_s = src[order], dst[order], w[order]
    ctrl_mask = is_ctrl[src_s]
    for _ in range(k):
        cand = v[dst_s] + w_s
        up = np.full(n, NEG, dtype=np.int64)
        np.maximum.at(up, src_s[ctrl_mask], cand[ctrl_mask])
        down = np.full(n, POS, dtype=np.int64)
        np.minimum.at(down, src_s[~ctrl_mask], cand[~ctrl_mask])
        v = np.where(is_ctrl, up, down)
    values = {}
    for s, i in idx.items():
        approx = Fraction(int(v[i]), k)
        values[s] = approx.limit_denominator(n)
    return values


# ---------------------------------------------------------------------------
# The dense Fraction tableau simplex that ``linsolve._simplex`` replaced,
# kept verbatim as the reference its sparse rows must reproduce pivot for
# pivot.


def dense_simplex(variables, nonneg, rows, objective):
    """Two-phase primal simplex on named variables.

    Free variables are split into positive and negative parts; weak
    inequalities get surplus variables.  Bland's anti-cycling rule is used
    in both phases, so termination is guaranteed.
    """
    cols: list[str] = []
    col_of: dict[str, int] = {}

    def add_col(name):
        col_of[name] = len(cols)
        cols.append(name)

    split: dict[str, tuple[str, str]] = {}
    for v in variables:
        if v in nonneg:
            add_col(v)
        else:
            split[v] = (v + "⁺", v + "⁻")
            add_col(split[v][0])
            add_col(split[v][1])

    def expand(coeffs):
        out: dict[int, Fraction] = {}
        for v, a in coeffs.items():
            a = Fraction(a)
            if a == 0:
                continue
            if v in split:
                p, n = split[v]
                out[col_of[p]] = out.get(col_of[p], Fraction(0)) + a
                out[col_of[n]] = out.get(col_of[n], Fraction(0)) - a
            else:
                out[col_of[v]] = out.get(col_of[v], Fraction(0)) + a
        return out

    matrix: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for i, (coeffs, rel, b) in enumerate(rows):
        row = expand(coeffs)
        if rel == GE:
            name = f"__s{i}"
            add_col(name)
            row[col_of[name]] = Fraction(-1)
        elif rel != EQ:
            raise ValueError(f"unsupported relation {rel!r} at simplex level")
        matrix.append(row)
        rhs.append(Fraction(b))

    ncols = len(cols)
    nrows = len(matrix)
    tab = [[Fraction(0)] * ncols + [Fraction(0)] for _ in range(nrows)]
    for i, row in enumerate(matrix):
        sign = 1 if rhs[i] >= 0 else -1
        for j, a in row.items():
            tab[i][j] = a * sign
        tab[i][ncols] = rhs[i] * sign

    # Phase 1: artificial basis, minimize artificial mass.
    art0 = ncols
    for i in range(nrows):
        for r in range(nrows):
            tab[r].insert(ncols + i, Fraction(1) if r == i else Fraction(0))
    total = ncols + nrows
    basis = [art0 + i for i in range(nrows)]

    obj1 = [Fraction(0)] * (total + 1)
    for j in range(art0, total):
        obj1[j] = Fraction(-1)
    _price_out(tab, obj1, basis)
    _iterate(tab, obj1, basis, total, blocked=())
    if obj1[total] != 0:
        return "infeasible", None, None

    _evict_artificials(tab, basis, art0, total)
    live = [i for i in range(len(tab)) if basis[i] < art0 or any(tab[i][j] != 0 for j in range(art0))]
    keep = []
    basis2 = []
    for i, row in enumerate(tab):
        if basis[i] >= art0:
            # Redundant all-zero row (after eviction attempts): drop it.
            continue
        keep.append(row)
        basis2.append(basis[i])
    tab = keep
    basis = basis2
    del live

    obj_expanded = expand(objective)
    obj2 = [Fraction(0)] * (total + 1)
    for j, a in obj_expanded.items():
        obj2[j] = a
    _price_out(tab, obj2, basis)
    status = _iterate(tab, obj2, basis, total, blocked=tuple(range(art0, total)))

    assignment = {v: Fraction(0) for v in cols}
    for i, bvar in enumerate(basis):
        if bvar < art0:
            assignment[cols[bvar]] = tab[i][total]
    merged: dict[str, Fraction] = {}
    for v in variables:
        if v in split:
            p, n = split[v]
            merged[v] = assignment[p] - assignment[n]
        else:
            merged[v] = assignment[v]
    value = sum((Fraction(a) * merged[v] for v, a in objective.items()), Fraction(0))
    if status == "unbounded":
        return "unbounded", merged, None
    return "optimal", merged, value


def _price_out(tab, obj, basis):
    total = len(obj) - 1
    for i, bvar in enumerate(basis):
        c = obj[bvar]
        if c != 0:
            row = tab[i]
            for j in range(total + 1):
                if row[j] != 0:
                    obj[j] -= c * row[j]


def _evict_artificials(tab, basis, art0, total):
    for i in range(len(tab)):
        if basis[i] < art0:
            continue
        row = tab[i]
        pivot_col = next((j for j in range(art0) if row[j] != 0), None)
        if pivot_col is not None:
            _pivot(tab, None, basis, i, pivot_col)


def _iterate(tab, obj, basis, total, blocked):
    blocked_set = set(blocked)
    while True:
        enter = None
        for j in range(total):
            if j in blocked_set:
                continue
            if obj[j] > 0:
                enter = j
                break
        if enter is None:
            return "optimal"
        leave = None
        best = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                ratio = row[total] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return "unbounded"
        _pivot(tab, obj, basis, leave, enter)


def _pivot(tab, obj, basis, r, c):
    total = len(tab[r]) - 1
    row = tab[r]
    p = row[c]
    if p != 1:
        inv = Fraction(1) / p
        tab[r] = row = [x * inv for x in row]
    for i, other in enumerate(tab):
        if i == r:
            continue
        f = other[c]
        if f != 0:
            tab[i] = [x - f * y for x, y in zip(other, row)]
    if obj is not None:
        f = obj[c]
        if f != 0:
            for j in range(total + 1):
                obj[j] -= f * row[j]
    basis[r] = c


# ---------------------------------------------------------------------------
# The flow and frequency system builders as they were before they emitted
# integer rows: named variables and ``Fraction`` coefficients, kept
# verbatim (``LinearSystem.add`` replaced by ``NamedSystem.add``, which
# holds rows the way ``linsolve.Constraint.build`` did) as the reference
# the integer rows must equal.


@dataclass
class NamedSystem:
    variables: list[str]
    rows: list = field(default_factory=list)

    def add(self, coeffs: dict, relation: str, rhs) -> None:
        self.rows.append(({str(k): Fraction(v) for k, v in coeffs.items() if Fraction(v) != 0},
                          relation, Fraction(rhs)))


def named_flow_system(mdp: Mdp, start: str, nu: Sequence[Fraction],
                      components: Sequence[EndComponent],
                      local_positivity: bool,
                      pin_outside: bool) -> NamedSystem:
    from bwcmdp.systems import xe, ye, ys

    d = mdp.dimension
    sys = NamedSystem(variables=(
        [ys(s) for s in mdp.state_ids]
        + [ye(e.eid) for e in mdp.edges]
        + [xe(e.eid) for e in mdp.edges]))

    # (A1) inflow = outflow + leak, with a unit source at the start state.
    for s in mdp.state_ids:
        coeffs: dict[str, Fraction] = {ys(s): Fraction(-1)}
        for e in mdp.in_edges[s]:
            coeffs[ye(e.eid)] = coeffs.get(ye(e.eid), Fraction(0)) + 1
        for e in mdp.out_edges[s]:
            coeffs[ye(e.eid)] = coeffs.get(ye(e.eid), Fraction(0)) - 1
        sys.add(coeffs, "=", Fraction(-1) if s == start else Fraction(0))

    # (A1') per-edge proportionality at random states:
    # ye[e] = P(e) * (1_start(s) + inflow(s) - y[s]).
    for s in mdp.state_ids:
        if not mdp.is_random(s):
            continue
        for e in mdp.out_edges[s]:
            p = mdp.prob(e.eid)
            coeffs = {ye(e.eid): Fraction(1), ys(s): p}
            for e2 in mdp.in_edges[s]:
                coeffs[ye(e2.eid)] = coeffs.get(ye(e2.eid), Fraction(0)) - p
            sys.add(coeffs, "=", p if s == start else Fraction(0))

    # (A2) total leak mass one inside the designated components.
    mass = {}
    for comp in components:
        for s in comp.states:
            mass[ys(s)] = Fraction(1)
    sys.add(mass, "=", Fraction(1))

    # (B) per component: leak mass equals internal frequency mass.
    for comp in components:
        coeffs = {ys(s): Fraction(1) for s in comp.states}
        for eid in comp.edges:
            coeffs[xe(eid)] = coeffs.get(xe(eid), Fraction(0)) - 1
        sys.add(coeffs, "=", Fraction(0))

    # (C1) frequency conservation.
    for s in mdp.state_ids:
        coeffs = {}
        for e in mdp.in_edges[s]:
            coeffs[xe(e.eid)] = coeffs.get(xe(e.eid), Fraction(0)) + 1
        for e in mdp.out_edges[s]:
            coeffs[xe(e.eid)] = coeffs.get(xe(e.eid), Fraction(0)) - 1
        sys.add(coeffs, "=", Fraction(0))

    # (C1') frequency proportionality at random states.
    for s in mdp.state_ids:
        if not mdp.is_random(s):
            continue
        for e in mdp.out_edges[s]:
            p = mdp.prob(e.eid)
            coeffs = {xe(e.eid): Fraction(1)}
            for e2 in mdp.in_edges[s]:
                coeffs[xe(e2.eid)] = coeffs.get(xe(e2.eid), Fraction(0)) - p
            sys.add(coeffs, "=", Fraction(0))

    # (C2) strict global expectation rows.
    for i in range(d):
        coeffs = {xe(e.eid): Fraction(e.weight[i]) for e in mdp.edges if e.weight[i] != 0}
        sys.add(coeffs, ">", nu[i])

    # (C3) strict per-component positivity rows.
    if local_positivity:
        for comp in components:
            for i in range(d):
                coeffs = {}
                for eid in comp.edges:
                    w = mdp.edge_by_id[eid].weight[i]
                    if w != 0:
                        coeffs[xe(eid)] = coeffs.get(xe(eid), Fraction(0)) + w
                sys.add(coeffs, ">", Fraction(0))

    if pin_outside:
        inside = set()
        for comp in components:
            inside |= comp.edges
        for e in mdp.edges:
            if e.eid not in inside:
                sys.add({xe(e.eid): Fraction(1)}, "=", Fraction(0))
    return sys


def named_ec_expectation_system(mdp: Mdp, ec: EndComponent, nu: Sequence[Fraction],
                                strict: bool = False) -> NamedSystem:
    from bwcmdp.systems import xe

    states = sorted(ec.states, key=mdp.state_ids.index)
    edges = [mdp.edge_by_id[eid] for eid in sorted(ec.edges)]
    xs = {s: f"xs[{s}]" for s in states}
    sys = NamedSystem(variables=[xs[s] for s in states] + [xe(e.eid) for e in edges])

    sys.add({xs[s]: Fraction(1) for s in states}, "=", Fraction(1))
    for s in states:
        coeffs = {xs[s]: Fraction(-1)}
        for e in edges:
            if e.target == s:
                coeffs[xe(e.eid)] = coeffs.get(xe(e.eid), Fraction(0)) + 1
        sys.add(coeffs, "=", Fraction(0))
        coeffs = {xs[s]: Fraction(-1)}
        for e in edges:
            if e.source == s:
                coeffs[xe(e.eid)] = coeffs.get(xe(e.eid), Fraction(0)) + 1
        sys.add(coeffs, "=", Fraction(0))
    for e in edges:
        if mdp.is_random(e.source):
            sys.add({xe(e.eid): Fraction(1), xs[e.source]: -mdp.prob(e.eid)}, "=", Fraction(0))
    for i in range(mdp.dimension):
        coeffs = {xe(e.eid): Fraction(e.weight[i]) for e in edges if e.weight[i] != 0}
        sys.add(coeffs, ">" if strict else ">=", nu[i])
    return sys


# ---------------------------------------------------------------------------
# The sparse Fraction-row simplex and Gauss-Jordan that the integer-row
# kernel of ``linsolve`` replaced, kept verbatim (helpers renamed) as the
# reference its pivots must reproduce, basis for basis.


def entry(v: Fraction) -> Union[int, Fraction]:
    """An exact row entry: integral values as plain ``int``, which multiply
    and add many times faster than ``Fraction`` and compare equal to it."""
    return v.numerator if v.denominator == 1 else v


def sub_row(target: dict, f, row: dict) -> None:
    """``target -= f * row`` on sparse rows of exact entries (nonzero
    ``int``/``Fraction`` values), deleting the entries that cancel."""
    nf = -f
    for j, a in row.items():
        v = target.get(j)
        if v is None:
            v = nf * a
        else:
            v += nf * a
            if not v:
                del target[j]
                continue
        target[j] = v.numerator if v.denominator == 1 else v


def fraction_simplex(variables, nonneg, rows, objective):
    """Two-phase primal simplex on named variables.

    Free variables are split into positive and negative parts; weak
    inequalities get surplus variables.  Bland's anti-cycling rule is used
    in both phases, so termination is guaranteed.

    The tableau rows, and the objective rows, are sparse ``{column:
    entry}`` dicts (see ``entry``) holding their nonzero entries only,
    with the rhs (and the objective value) under key ``total``; column
    ``ncols + i`` is row i's phase-1 artificial.
    """
    cols: list[str] = []
    col_of: dict[str, int] = {}

    def add_col(name):
        col_of[name] = len(cols)
        cols.append(name)

    split: dict[str, tuple[str, str]] = {}
    for v in variables:
        if v in nonneg:
            add_col(v)
        else:
            split[v] = (v + "⁺", v + "⁻")
            add_col(split[v][0])
            add_col(split[v][1])

    def expand(coeffs):
        out: dict[int, Fraction] = {}
        for v, a in coeffs.items():
            a = Fraction(a)
            if a == 0:
                continue
            if v in split:
                p, n = split[v]
                out[col_of[p]] = out.get(col_of[p], Fraction(0)) + a
                out[col_of[n]] = out.get(col_of[n], Fraction(0)) - a
            else:
                out[col_of[v]] = out.get(col_of[v], Fraction(0)) + a
        return out

    matrix: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for i, (coeffs, rel, b) in enumerate(rows):
        row = expand(coeffs)
        if rel == GE:
            name = f"__s{i}"
            add_col(name)
            row[col_of[name]] = Fraction(-1)
        elif rel != EQ:
            raise ValueError(f"unsupported relation {rel!r} at simplex level")
        matrix.append(row)
        rhs.append(Fraction(b))

    ncols = len(cols)
    nrows = len(matrix)
    art0 = ncols
    total = ncols + nrows
    tab: list[dict] = []
    for i, row in enumerate(matrix):
        sign = 1 if rhs[i] >= 0 else -1
        t = {j: entry(a * sign) for j, a in row.items() if a}
        t[art0 + i] = 1
        if rhs[i]:
            t[total] = entry(rhs[i] * sign)
        tab.append(t)

    # Phase 1: artificial basis, minimize artificial mass.
    basis = [art0 + i for i in range(nrows)]
    obj1 = {j: -1 for j in range(art0, total)}
    _fraction_price_out(tab, obj1, basis)
    _fraction_iterate(tab, obj1, basis, total)
    if obj1.get(total):
        return "infeasible", None, None

    # Evict what artificials can leave the basis, drop the rows whose
    # artificial cannot (redundant all-zero rows), and the artificial
    # columns, which phase 2 never enters.
    for i in range(len(tab)):
        if basis[i] >= art0:
            pivot_col = min((j for j in tab[i] if j < art0), default=None)
            if pivot_col is not None:
                fraction_pivot(tab, None, basis, i, pivot_col)
    kept = [i for i in range(len(tab)) if basis[i] < art0]
    tab = [{j: a for j, a in tab[i].items() if not art0 <= j < total} for i in kept]
    basis = [basis[i] for i in kept]

    obj2 = {j: entry(a) for j, a in expand(objective).items()}
    _fraction_price_out(tab, obj2, basis)
    status = _fraction_iterate(tab, obj2, basis, total)

    assignment = {v: Fraction(0) for v in cols}
    for i, bvar in enumerate(basis):
        assignment[cols[bvar]] = Fraction(tab[i].get(total, 0))
    merged: dict[str, Fraction] = {}
    for v in variables:
        if v in split:
            p, n = split[v]
            merged[v] = assignment[p] - assignment[n]
        else:
            merged[v] = assignment[v]
    value = sum((Fraction(a) * merged[v] for v, a in objective.items()), Fraction(0))
    if status == "unbounded":
        return "unbounded", merged, None
    return "optimal", merged, value


def _fraction_price_out(tab, obj, basis):
    for i, bvar in enumerate(basis):
        c = obj.get(bvar)
        if c:
            sub_row(obj, c, tab[i])


def _fraction_iterate(tab, obj, basis, total):
    """Bland's rule: the lowest column with positive reduced cost enters;
    ratio ties leave by the lowest basis index."""
    while True:
        enter = min((j for j, c in obj.items() if c > 0 and j != total), default=None)
        if enter is None:
            return "optimal"
        leave = None
        best = None
        for i, row in enumerate(tab):
            a = row.get(enter)
            if a is not None and a > 0:
                ratio = Fraction(row.get(total, 0), a)
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return "unbounded"
        fraction_pivot(tab, obj, basis, leave, enter)


def fraction_pivot(tab, obj, basis, r, c):
    """Pivot sparse rows on entry (r, c): scale row r to a 1 in column c,
    clear column c from the other rows and from the objective row ``obj``
    (if any) with ``sub_row``, and record c as row r's basic column."""
    row = tab[r]
    p = row[c]
    if p != 1:
        inv = entry(Fraction(1) / p)
        tab[r] = row = {j: entry(a * inv) for j, a in row.items()}
    for i, other in enumerate(tab):
        if i != r and c in other:
            sub_row(other, other[c], row)
    if obj is not None and c in obj:
        sub_row(obj, obj[c], row)
    basis[r] = c


def fraction_solve_linear(matrix: list[list[Fraction]], rhs: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve ``matrix @ X = rhs`` exactly; rhs holds the columns to solve for.

    Gauss-Jordan with ``fraction_pivot`` on sparse rows of exact entries
    (``entry``), the rhs columns after the matrix's.
    """
    n = len(matrix)
    k = len(rhs[0]) if rhs else 0
    rows = [{j: entry(Fraction(v)) for j, v in enumerate([*row, *r]) if v}
            for row, r in zip(matrix, rhs)]
    basis = list(range(n))
    for col in range(n):
        piv = next((r for r in range(col, n) if col in rows[r]), None)
        if piv is None:
            raise ArithmeticError("singular matrix in exact solve")
        rows[col], rows[piv] = rows[piv], rows[col]
        fraction_pivot(rows, None, basis, col, col)
    return [[Fraction(row.get(j, 0)) for j in range(n, n + k)] for row in rows]


def dense_bscc_analysis(chain: InducedChain) -> list[Bscc]:
    """Bottom SCCs with reach probabilities, stationary distributions and
    means, on dense Fraction matrices solved by ``fraction_solve_linear``:
    absorption (I - Q) X = R over the transient nodes, solved for every
    number of bottom SCCs, and per bottom SCC the columns of P^T - I with
    the last row replaced by ones."""
    comps = index_sccs([[t[0] for t in row] for row in chain.transitions])
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    bsccs = [comp for ci, comp in enumerate(comps)
             if all(comp_of[j] == ci for v in comp for j, _, _, _ in chain.transitions[v])]
    bscc_index = {v: bi for bi, comp in enumerate(bsccs) for v in comp}
    transient = [v for v in range(chain.node_count()) if v not in bscc_index]
    tpos = {v: i for i, v in enumerate(transient)}
    nb, m = len(bsccs), len(transient)
    mat = [[Fraction(int(i == k)) for k in range(m)] for i in range(m)]
    rhs = [[Fraction(0)] * nb for _ in range(m)]
    for i, v in enumerate(transient):
        for j, p, _, _ in chain.transitions[v]:
            if j in tpos:
                mat[i][tpos[j]] -= p
            else:
                rhs[i][bscc_index[j]] += p
    absorb = fraction_solve_linear(mat, rhs) if m else []
    reach = [Fraction(0)] * nb
    for v, p0 in chain.initial.items():
        if v in bscc_index:
            reach[bscc_index[v]] += p0
        else:
            for bi in range(nb):
                reach[bi] += p0 * absorb[tpos[v]][bi]
    out = []
    for bi, comp in enumerate(bsccs):
        pos = {v: i for i, v in enumerate(comp)}
        k = len(comp)
        mat = [[Fraction(0)] * k for _ in range(k)]
        for v in comp:
            for j, p, _, _ in chain.transitions[v]:
                mat[pos[j]][pos[v]] += p
            mat[pos[v]][pos[v]] -= 1
        mat[k - 1] = [Fraction(1)] * k
        rhs = [[Fraction(int(i == k - 1))] for i in range(k)]
        pi = fraction_solve_linear(mat, rhs)
        stationary = {v: pi[pos[v]][0] for v in comp}
        mean = tuple(sum((stationary[v] * p * w[i] for v in comp
                          for _, p, w, _ in chain.transitions[v]), Fraction(0))
                     for i in range(chain.mdp.dimension))
        out.append(Bscc(tuple(comp), reach[bi], stationary, mean))
    return out


# ---------------------------------------------------------------------------
# Scalar simulation: one run and one step at a time, with scalar draws.


def draw(key: int, counter: int) -> int:
    """64-bit draw number `counter` of a stream."""
    return splitmix64(key ^ ((counter + 1) * _M1 & _MASK))


def uniform(key: int, counter: int) -> float:
    """Uniform in [0, 1) with 53-bit resolution."""
    return (draw(key, counter) >> 11) / float(1 << 53)


def _pick(probs, u: float) -> int:
    """Index of the choice a draw u selects: the number of running float
    sums of ``probs`` at or below u, the last sum counted as 1.0."""
    acc, k = 0.0, 0
    for p in probs[:-1]:
        acc += float(p)
        k += u >= acc
    return k


def _first_node(chain: InducedChain, key: int) -> int:
    nodes = sorted(chain.initial)
    return nodes[_pick([chain.initial[v] for v in nodes], uniform(key, 0))]


def _step(chain: InducedChain, node: int, u: float):
    """(target, prepared weight, edge id) of the transition u selects."""
    row = chain.transitions[node]
    j, _, w, eid = row[_pick([p for _, p, _, _ in row], u)]
    return j, w, eid


def scalar_chain_totals(chain: InducedChain, horizon: int, runs: int, seed: int) -> list:
    """Total payoff of every run: draw 0 picks the first node, draw t+1
    drives step t."""
    out = []
    for r in range(runs):
        key = run_key(seed, r)
        node = _first_node(chain, key)
        total = [0] * chain.mdp.dimension
        for t in range(horizon):
            node, w, _ = _step(chain, node, uniform(key, t + 1))
            total = [a + b for a, b in zip(total, w)]
        out.append(total)
    return out


@dataclass
class MonitorState:
    mode: str  # "expectation" | "worst-case"
    phase: int
    step_in_phase: int
    total: tuple[int, ...]


@dataclass(frozen=True)
class TotalPayoffMonitor:
    """One branch's total-payoff monitor (floor rates ``monitor``, phases
    of ``period`` steps; see ``BranchedInfiniteStrategy``) with its
    one-step semantics, ``observe``."""

    dimension: int
    period: int
    monitor: tuple[Fraction, ...]

    def floor(self, phase: int) -> tuple[Fraction, ...]:
        return tuple(m * phase * self.period / 2 for m in self.monitor)

    def fresh(self) -> MonitorState:
        return MonitorState("expectation", 0, 0, (0,) * self.dimension)

    def observe(self, state: MonitorState, weight: tuple[int, ...]) -> MonitorState:
        """Advance the monitor by one traversed edge; may switch modes."""
        total = tuple(a + b for a, b in zip(state.total, weight))
        if state.mode == "worst-case":
            return MonitorState("worst-case", state.phase, state.step_in_phase + 1, total)
        step = state.step_in_phase + 1
        phase = state.phase
        mode = "expectation"
        if phase >= 1 and not self._above(total, self.floor(phase)):
            mode = "worst-case"
        if step == self.period:
            if mode == "expectation" and not self._above(total, tuple(2 * f for f in self.floor(phase + 1))):
                mode = "worst-case"
            phase += 1
            step = 0
        return MonitorState(mode, phase, step, total)

    def _above(self, total, floor) -> bool:
        return all(Fraction(t) > f for t, f in zip(total, floor))


def scalar_monitor_totals(strategy, mdp: Mdp, horizon: int, runs: int, seed: int):
    """Replay a ``BranchedInfiniteStrategy`` run by run with ``observe``.

    Returns the total payoffs on ``mdp``'s weights, the step of every
    monitor trip (one per tripped run), and the number of steps after
    which a run stayed in expectation mode at or below the floor of the
    phase it was in.
    """
    chain = induced_chain(strategy.mdp, strategy.composed, strategy.start, node_limit=100_000)
    fchain = induced_chain(strategy.mdp, strategy.fwc, strategy.mdp.state_ids)
    (f0,) = strategy.fwc.initial_dist()
    monitors = [TotalPayoffMonitor(strategy.mdp.dimension, strategy.period, rates)
                for rates in strategy.monitors]

    def branch(node):
        mem = chain.nodes[node][1]
        if strategy.branch_map is not None:
            return strategy.branch_map.get(mem)
        return mem[1] if isinstance(mem, tuple) and mem and mem[0] == "in" else None

    totals, trips, breaches = [], [], 0
    for r in range(runs):
        key = run_key(seed, r)
        cur, node = chain, _first_node(chain, key)
        b = branch(node)
        monitor = None if b is None else monitors[b]
        st = None if monitor is None else monitor.fresh()
        total = [0] * mdp.dimension
        for t in range(horizon):
            state = cur.nodes[node][0]
            node, w, eid = _step(cur, node, uniform(key, t + 1))
            if state in mdp.owner:
                total = [a + b for a, b in zip(total, mdp.edge_by_id[eid].weight)]
            if st is None:
                b = branch(node)
                if b is not None:
                    monitor = monitors[b]
                    st = monitor.fresh()
            elif st.mode == "expectation":
                phase = st.phase
                st = monitor.observe(st, w)
                if st.mode == "worst-case":
                    trips.append(t)
                    cur, node = fchain, fchain.index[(chain.nodes[node][0], f0)]
                elif phase >= 1 and not monitor._above(st.total, monitor.floor(phase)):
                    breaches += 1
        totals.append(total)
    return totals, trips, breaches
