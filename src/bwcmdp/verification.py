"""Exact verification of finite-memory strategies, plus seeded simulation.

Exact side: bottom-SCC analysis of induced chains with rational reach
probabilities and stationary distributions (Gauss-Jordan on the
simplex's sparse integer rows, built straight from the chain's
transitions; no dense matrix); minimum cycle means by Karp's algorithm in
Python integers on support products (worst case); BSCC expectations
(almost sure / expectation).  Every verdict is computed in exact
arithmetic.

Simulation side: seeded Monte Carlo over the induced chain with one
deterministic stream per run, stepped by one loop (``step_blocks``) that
is vectorized across runs in NumPy, draws a block of steps at a time and
finishes runs on deterministic cycles in closed form; only the
simulation functions import NumPy.  Floating point appears only
in reported statistics, never in verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from bwcmdp import rng
from bwcmdp.decomposition import index_reachable, index_sccs
from bwcmdp.linsolve import int_row, pivot
from bwcmdp.machines import InducedChain, induced_chain, support_product
from bwcmdp.model import Mdp

if TYPE_CHECKING:
    import numpy as np


# ---------------------------------------------------------------------------
# Exact linear algebra: Gauss-Jordan on the simplex's sparse rows.


def solve_linear(rows: list[dict[int, Fraction]], k: int) -> list[list[Fraction]]:
    """Solve ``A @ X = B`` exactly for the k columns of B.

    Row i is ``{column: rational}``: row i of A in columns 0..n-1 (n the
    number of rows), of B in columns n..n+k-1, zero entries left out.
    Gauss-Jordan with ``linsolve.pivot`` on the simplex's sparse integer
    rows (``linsolve.int_row``); returns X as n rows of k values.
    """
    n = len(rows)
    pairs = [int_row(row) for row in rows]
    rows, dens = [t for t, _ in pairs], [den for _, den in pairs]
    basis = list(range(n))
    for col in range(n):
        piv = next((r for r in range(col, n) if col in rows[r]), None)
        if piv is None:
            raise ArithmeticError("singular matrix in exact solve")
        rows[col], rows[piv] = rows[piv], rows[col]
        dens[col], dens[piv] = dens[piv], dens[col]
        pivot(rows, dens, basis, col, col)
    return [[Fraction(row.get(j, 0), den) for j in range(n, n + k)] for row, den in zip(rows, dens)]


# ---------------------------------------------------------------------------
# BSCC analysis and chain expectations.


@dataclass(frozen=True)
class Bscc:
    nodes: tuple[int, ...]
    reach: Fraction
    stationary: dict[int, Fraction]
    mean: tuple[Fraction, ...]


def _bottom_sccs(chain: InducedChain) -> list[list[int]]:
    """The chain's bottom SCCs, in ``index_sccs`` order."""
    comps = index_sccs([[t[0] for t in row] for row in chain.transitions])
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    is_bottom = [True] * len(comps)
    for i, row in enumerate(chain.transitions):
        for j, _, _, _ in row:
            if comp_of[j] != comp_of[i]:
                is_bottom[comp_of[i]] = False
    return [comp for ci, comp in enumerate(comps) if is_bottom[ci]]


def _stationary_mean(chain: InducedChain, comp: list[int]):
    """A bottom SCC's stationary distribution and its mean payoff vector."""
    pos = {v: i for i, v in enumerate(comp)}
    m = len(comp)
    # Stationary distribution: pi (P - I) = 0 with sum pi = 1, solved as
    # the rows of (P^T - I), the last one replaced by ones with rhs 1.
    rows: list[dict[int, Fraction]] = [{} for _ in range(m)]
    for v in comp:
        c = pos[v]
        rows[c][c] = -1
        for j, p, _, _ in chain.transitions[v]:
            row = rows[pos[j]]
            row[c] = row.get(c, 0) + p
    rows[m - 1] = dict.fromkeys(range(m + 1), 1)
    pi = solve_linear(rows, 1)
    stationary = {v: pi[pos[v]][0] for v in comp}
    d = chain.mdp.dimension
    mean = [Fraction(0)] * d
    for v in comp:
        for j, p, w, _ in chain.transitions[v]:
            q = stationary[v] * p
            for i in range(d):
                if w[i]:
                    mean[i] += q * w[i]
    return stationary, tuple(mean)


def bottom_means(chain: InducedChain) -> list[tuple[Fraction, ...]]:
    """The exact mean payoff vector of every bottom SCC, without the reach
    probabilities that ``bscc_analysis`` also solves for."""
    return [_stationary_mean(chain, comp)[1] for comp in _bottom_sccs(chain)]


def bscc_analysis(chain: InducedChain) -> list[Bscc]:
    """Bottom SCCs with exact reach probabilities and stationary distributions."""
    bsccs = _bottom_sccs(chain)
    bscc_index = {v: bi for bi, comp in enumerate(bsccs) for v in comp}

    transient = [v for v in range(chain.node_count()) if v not in bscc_index]
    tpos = {v: i for i, v in enumerate(transient)}
    nb = len(bsccs)

    # Absorption probabilities: (I - Q) X = R over transient nodes.  With
    # a single bottom component all mass reaches it; skip the solve.
    if nb == 1:
        absorb = [[Fraction(1)] for _ in transient]
    else:
        m = len(transient)
        rows = []
        for v in transient:
            row = {tpos[v]: 1}
            for j, p, _, _ in chain.transitions[v]:
                if j in tpos:
                    c, p = tpos[j], -p
                else:
                    c = m + bscc_index[j]
                row[c] = row.get(c, 0) + p
            rows.append(row)
        absorb = solve_linear(rows, nb)

    reach = [Fraction(0)] * nb
    for v, p0 in chain.initial.items():
        if v in bscc_index:
            reach[bscc_index[v]] += p0
        else:
            row = absorb[tpos[v]]
            for bi in range(nb):
                reach[bi] += p0 * row[bi]

    return [Bscc(tuple(comp), reach[bi], *_stationary_mean(chain, comp))
            for bi, comp in enumerate(bsccs)]


def expected_mp(chain: InducedChain) -> tuple[Fraction, ...]:
    """Exact expected mean payoff: reach-weighted BSCC stationary means."""
    d = chain.mdp.dimension
    total = [Fraction(0)] * d
    for b in bscc_analysis(chain):
        for i in range(d):
            total[i] += b.reach * b.mean[i]
    return tuple(total)


# ---------------------------------------------------------------------------
# Karp minimum cycle means and worst-case verification.


@dataclass(frozen=True)
class WeightedGraph:
    """Plain weighted digraph for cycle-mean analysis."""

    nodes: tuple
    edges: tuple  # (source index, target index, weight vector, label)
    initial: tuple  # indices


def _cycle_sccs(graph: WeightedGraph) -> list[tuple[list[int], list]]:
    """SCCs reachable from the graph's initial nodes that carry an edge,
    each with its internal edges, in ``index_sccs`` order."""
    succ: list[list[int]] = [[] for _ in graph.nodes]
    for u, v, _, _ in graph.edges:
        succ[u].append(v)
    reach = index_reachable(succ, graph.initial)
    comp_of = {}
    comps = []
    for comp in index_sccs(succ):
        if comp[0] in reach:
            for v in comp:
                comp_of[v] = len(comps)
            comps.append((comp, []))
    for e in graph.edges:
        c = comp_of.get(e[0])
        if c is not None and comp_of.get(e[1]) == c:
            comps[c][1].append(e)
    return [(comp, internal) for comp, internal in comps if internal]


def _karp_scc(comp: list[int], edges, dim: int) -> Fraction:
    """Minimum cycle mean of one SCC (assumed to contain an edge cycle)."""
    pos = {v: i for i, v in enumerate(comp)}
    m = len(comp)
    arcs = [(pos[u], pos[v], w[dim]) for u, v, w, _ in edges]
    # D[k][v]: least weight of a k-edge walk from node 0 to v, None if none.
    D: list[list[Optional[int]]] = [[None] * m for _ in range(m + 1)]
    D[0][0] = 0
    for k in range(1, m + 1):
        prev, cur = D[k - 1], D[k]
        for u, v, w in arcs:
            if prev[u] is not None:
                x = prev[u] + w
                if cur[v] is None or x < cur[v]:
                    cur[v] = x
    # Means as (numerator, length) pairs, compared by cross-multiplication.
    # A node stops being scanned once its running maximum reaches the best
    # minimum so far: it can no longer lower it.
    best: Optional[tuple[int, int]] = None
    for v in range(m):
        if D[m][v] is None:
            continue
        worst: Optional[tuple[int, int]] = None
        for k in range(m):
            if D[k][v] is None:
                continue
            val = (D[m][v] - D[k][v], m - k)
            if worst is None or val[0] * worst[1] > worst[0] * val[1]:
                worst = val
                if best is not None and worst[0] * best[1] >= best[0] * worst[1]:
                    break
        else:
            if worst is not None:
                best = worst
    if best is None:
        raise AssertionError("SCC with edges must contain a cycle")
    return Fraction(*best)


def karp_min_mean(graph: WeightedGraph, dim: int) -> Optional[Fraction]:
    """Minimum cycle mean in one dimension over SCCs reachable from the start.

    Returns None when no reachable cycle exists.
    """
    return min((_karp_scc(comp, internal, dim) for comp, internal in _cycle_sccs(graph)),
               default=None)


def _min_mean_cycle(comps, dim: int, bound: Fraction) -> Optional[list]:
    """A cycle with mean <= bound in the given dimension over the SCCs
    ``comps`` (see ``_cycle_sccs``), or None: the exact minimum mean
    first, then a cycle achieving it (see ``_tight_cycle``), as a list of
    edge labels."""
    target = None
    target_val: Optional[Fraction] = None
    for comp, internal in comps:
        val = _karp_scc(comp, internal, dim)
        if val <= bound and (target_val is None or val < target_val):
            target_val = val
            target = (comp, internal)
    if target is None:
        return None
    return _tight_cycle(*target, dim, target_val)


def _tight_cycle(comp: list[int], internal, dim: int, val: Fraction) -> list:
    """A cycle of mean ``val``, the SCC's minimum, through shortest-path
    potentials: with weights q*w - p (mean p/q), the tight edges after
    Bellman-Ford contain a zero-mean cycle."""
    p, q = val.numerator, val.denominator
    pos = {v: i for i, v in enumerate(comp)}
    m = len(comp)
    dist = [0] * m
    for _ in range(m):
        changed = False
        for u, v, w, _ in internal:
            cand = dist[pos[u]] + (w[dim] * q - p)
            if cand < dist[pos[v]]:
                dist[pos[v]] = cand
                changed = True
        if not changed:
            break
    tight: dict[int, list[tuple[int, object]]] = {i: [] for i in range(m)}
    for u, v, w, label in internal:
        if dist[pos[u]] + (w[dim] * q - p) == dist[pos[v]]:
            tight[pos[u]].append((pos[v], label))
    color = [0] * m  # 0 unseen, 1 on the DFS stack, 2 done
    for root in range(m):
        if color[root]:
            continue
        color[root] = 1
        stack = [(root, None, iter(tight[root]))]  # node, edge into it, successors
        while stack:
            v, _, succ = stack[-1]
            for w2, label in succ:
                if color[w2] == 1:
                    # A back edge closes a cycle: the stack's edges after w2, then it.
                    at = next(i for i, entry in enumerate(stack) if entry[0] == w2)
                    return [entry[1] for entry in stack[at + 1:]] + [label]
                if color[w2] == 0:
                    color[w2] = 1
                    stack.append((w2, label, iter(tight[w2])))
                    break
            else:
                color[v] = 2
                stack.pop()
    raise AssertionError("tight subgraph of a min-mean SCC must contain a cycle")


@dataclass(frozen=True)
class WorstCaseVerdict:
    ok: bool
    dim: Optional[int] = None
    witness_cycle: Optional[tuple] = None  # edge ids of a violating cycle

    def __bool__(self) -> bool:
        return self.ok


def verify_worstcase(mdp: Mdp, machine, mu: Sequence[Fraction],
                     start: Optional[str] = None,
                     node_limit: int = 500_000) -> WorstCaseVerdict:
    """Exact worst-case check: MP > mu on every consistent play.

    Builds the support product (controller randomization is adversarial:
    consistency only requires staying in the strategy's support) and
    requires, per reachable SCC and non-trivial dimension, minimum cycle
    mean strictly above mu.  On failure returns a concrete violating
    cycle: looping it forever is a consistent play with MP <= mu there.
    """
    mu = [Fraction(x) for x in mu]
    W = mdp.max_abs_weight
    dims = [i for i, m in enumerate(mu) if m > -W]
    if not dims:
        return WorstCaseVerdict(True)
    nodes, edges, init = support_product(mdp, machine, start, node_limit)
    comps = _cycle_sccs(WeightedGraph(tuple(nodes), tuple(edges), tuple(init)))
    for i in dims:
        cyc = _min_mean_cycle(comps, i, mu[i])
        if cyc is not None:
            return WorstCaseVerdict(False, i, tuple(cyc) if cyc else None)
    return WorstCaseVerdict(True)


def verify_almost_sure(mdp: Mdp, machine, mu: Sequence[Fraction],
                       start: Optional[str] = None) -> bool:
    """Exact almost-sure check: Prob(MP > mu) = 1.

    Within a BSCC the mean payoff equals its expectation almost surely, so
    the condition is that every positively-reached BSCC has expected mean
    payoff strictly above mu in all dimensions.  Every node of the chain is
    reached with positive probability, as every transition has one, so
    every BSCC counts and no reach probability is solved for
    (``bottom_means``).
    """
    mu = [Fraction(x) for x in mu]
    chain = induced_chain(mdp, machine, start)
    return all(m > u for mean in bottom_means(chain) for m, u in zip(mean, mu))


# ---------------------------------------------------------------------------
# Seeded Monte Carlo simulation.

# Steps per block of draws and of buffered transitions; runs are also
# checked for the closed-form finish, or by the bwc-inf monitor, once a
# block.  On the benchmark's
# chains and monitor (1,000 runs; 2 vCPUs, Python 3.11), blocks of 16 and
# 32 steps simulate equally fast and 8 or 64 up to 15% slower; the block
# buffers, a few BLOCK * runs arrays of 8-byte numbers, grow with it.
BLOCK = 16


@dataclass(frozen=True)
class SimReport:
    """Per-dimension empirical statistics of MP at the simulation horizon.

    All floating-point fields are approximate by construction and never
    feed decisions; `exceed_fraction` is computed from exact integer
    total payoffs against the rational threshold.  `monitor_violations`
    counts monitored runs left in expectation mode at or below their
    floor; the monitor switches at the first step where a floor would be
    breached, so it is 0.
    """

    runs: int
    horizon: int
    seed: int
    mean: tuple[float, ...]
    min: tuple[float, ...]
    max: tuple[float, ...]
    stddev: tuple[float, ...]
    exceed_fraction: Optional[float]
    monitor_violations: int

    def to_json(self) -> dict:
        return {
            "runs": self.runs,
            "horizon": self.horizon,
            "seed": self.seed,
            "mean": list(self.mean),
            "min": list(self.min),
            "max": list(self.max),
            "stddev": list(self.stddev),
            "exceed_fraction": self.exceed_fraction,
            "monitor_violations": self.monitor_violations,
        }


def _chain_arrays(*chains: InducedChain):
    """Flat step tables of the disjoint union of ``chains``; the node ids
    of each chain come after those of the chains before it.

    Returns ``(cols, base, target, weight)``.  ``cols[k, v]`` is node v's
    cumulative probability of its choices 0..k, for every choice but the
    last (1.0 past them); ``base[v]`` is the flat index of v's first
    transition; ``target[e]`` and ``weight[e]`` are flat transition e's
    node and weight vector.  With draw u, node v takes transition
    ``base[v] + #{k : u >= cols[k, v]}``.
    """
    import numpy as np

    rows = []
    for chain in chains:
        off = len(rows)
        rows += [[(j + off, p, w) for j, p, w, _ in row] for row in chain.transitions]
    cols = np.ones((max(map(len, rows)) - 1, len(rows)), dtype=np.float64)
    base = np.zeros(len(rows), dtype=np.int64)
    target, weight = [], []
    for v, row in enumerate(rows):
        base[v] = len(target)
        acc = 0.0
        for k, (j, p, w) in enumerate(row[:-1]):
            acc += float(p)
            cols[k, v] = acc
        target += [j for j, _, _ in row]
        weight += [w for _, _, w in row]
    weight = np.array(weight, dtype=np.int64).reshape(len(target), chains[0].mdp.dimension)
    return cols, base, np.array(target, dtype=np.int64), weight


def _initial_nodes(chain: InducedChain, keys: np.ndarray) -> np.ndarray:
    """Every run's first node, picked by draw 0 of its stream."""
    import numpy as np

    init_nodes = sorted(chain.initial)
    init_cum = np.cumsum([float(chain.initial[i]) for i in init_nodes])
    init_cum[-1] = 1.0
    pick = (rng.uniform_array(keys, 0)[:, None] >= init_cum[None, :]).sum(axis=1)
    return np.array(init_nodes, dtype=np.int64)[pick]


def _cycle_tables(base: np.ndarray, target: np.ndarray, weight: np.ndarray):
    """Closed-form tables for the nodes on cycles of single-transition nodes,
    or None when the chain has no such cycle.

    Returns ``(length, offset, prefix)``.  ``length[v]`` is the length L of
    node v's cycle, 0 off such cycles.  Each cycle is laid out twice in a
    row, from its first node found; ``offset[v]`` is v's first place in
    that layout and ``prefix[k, j]`` the sum of dimension k's weights over
    its first j transitions, so the r < L steps from v weigh
    ``prefix[k, offset[v] + r] - prefix[k, offset[v]]``.  Time and memory
    are linear in the chain's nodes.
    """
    import numpy as np

    single = np.diff(base, append=len(target)) == 1
    succ = np.where(single, target.take(base, mode="clip"), -1).tolist()
    state = bytearray(len(base))  # 0 unseen, 1 on the current path, 2 done
    layout: list[int] = []
    length = np.zeros(len(base), dtype=np.int64)
    offset = np.zeros(len(base), dtype=np.int64)
    for v in np.flatnonzero(single).tolist():
        path = []
        u = v
        while u >= 0 and not state[u]:
            state[u] = 1
            path.append(u)
            u = succ[u]
        if u >= 0 and state[u] == 1:
            cycle = path[path.index(u):]
            length[cycle] = len(cycle)
            offset[cycle] = np.arange(len(layout), len(layout) + len(cycle))
            layout += cycle + cycle
        for u in path:
            state[u] = 2
    if not layout:
        return None
    prefix = np.zeros((weight.shape[1], len(layout) + 1), dtype=np.int64)
    # int64 sums wrap modulo 2**64, so each difference of two prefixes is
    # exact whenever the total it stands for fits, as the caller's guard
    # on horizon * max |weight| ensures.
    np.cumsum(weight.take(base.take(layout), axis=0).T, axis=1, out=prefix[:, 1:])
    return length, offset, prefix


def step_blocks(tables, weight: np.ndarray, node: np.ndarray, keys: np.ndarray,
                horizon: int, on_block=None) -> np.ndarray:
    """The simulation loop: every run walks ``horizon`` steps from ``node``.

    ``tables`` are ``_chain_arrays``' first three.  Step t of run r uses
    draw t + 1 of r's stream.  The draws of BLOCK steps are made at once,
    as 53-bit integers z compared with the thresholds ``ceil(cols * 2**53)``
    (the uniform ``z / 2**53 >= c`` exactly when ``z >= ceil(c * 2**53)``;
    the padding threshold 1.0 is above every draw).  Each step
    starts from the transition taken before (a run's position): the
    position tables, built once, hold the base and thresholds of the
    transition's target node.  The transitions taken are buffered, and at
    the end of each block the flat table ``weight`` is summed over them
    with one gather of its rows.  Returns those per-run sums, exact in
    int64.

    ``on_block(t0, taken, sums)``, if given, is called after each block's
    walk: ``taken[i]`` holds every run's transition at step t0 + i and
    ``sums[r]`` run r's weight sums over the block (exact, in a narrow
    integer type).  It
    may return ``(runs, steps, nodes)`` to redirect run ``runs[j]`` to
    node ``nodes[j]`` after step ``t0 + steps[j]`` (at most once per run
    and block): the run walks the rest of the block again from there,
    with its own draws, and its sums and ``taken`` column are rewritten
    before they count.  Without it, once every run is on a cycle of
    single-transition nodes at the end of a block, the rest of the walk
    is summed in closed form.
    """
    import numpy as np

    cols, base, target = tables
    n_edges = len(target)
    # Position p is transition p, or node p - n_edges before any step and
    # after a jump; ``at[p]`` is the node a run at p is on.
    at = np.concatenate([target, np.arange(len(base), dtype=np.int64)])
    pos_base = base.take(at)
    pos_thresholds = np.ceil(cols * float(1 << 53)).astype(np.uint64).take(at, axis=1)

    def walk(pos, bits, out):
        # out[i] = the transitions of the step driven by bits[i].
        for z, e in zip(bits, out):
            # Indices are in range by construction; "clip" skips the check
            # and the output buffer that "raise" needs.
            pos_base.take(pos, out=e, mode="clip")
            for row in pos_thresholds:
                e += z >= row.take(pos, mode="clip")
            pos = e

    cycles = None if on_block is not None else _cycle_tables(base, target, weight)
    # A block's sums gather whole rows of ``weight`` and add them in the
    # least integer type that holds any sum of a block's weights: 1 or 2
    # bytes an entry for small weights, not 8.
    narrow = np.min_scalar_type(-min(BLOCK, horizon) * int(np.abs(weight).max()) - 1)
    weight_rows = weight.astype(narrow)
    total = np.zeros((len(node), weight.shape[1]), dtype=np.int64)
    taken = np.empty((BLOCK, len(node)), dtype=np.int64)
    pos = node + n_edges
    for t0 in range(0, horizon, BLOCK):
        if cycles is not None:
            if t0:
                node = at.take(pos)
            length = cycles[0].take(node)
            if length.all():
                _finish_on_cycles(total, cycles, node, length, horizon - t0)
                return total
        b = min(BLOCK, horizon - t0)
        bits = rng.bits_block(keys, t0 + 1, b)
        block = taken[:b]
        walk(pos, bits, block)
        sums = weight_rows.take(block, axis=0).sum(axis=0, dtype=narrow)
        pos = block[-1]
        jumps = None if on_block is None else on_block(t0, block, sums)
        if jumps is not None:
            runs, steps, nodes = jumps
            for i in sorted(set(steps.tolist())):  # np.unique would import numpy.ma
                sel = steps == i
                r = runs[sel]
                if i == b - 1:
                    pos = pos.copy()  # pos is the buffer's last row
                    pos[r] = nodes[sel] + n_edges
                    continue
                out = np.empty((b - i - 1, len(r)), dtype=np.int64)
                walk(nodes[sel] + n_edges, bits[i + 1:, r], out)
                block[i + 1:, r] = out
            sums[runs] = weight_rows.take(block[:, runs], axis=0).sum(axis=0, dtype=narrow)
        total += sums
    return total


def _finish_on_cycles(total: np.ndarray, cycles, node: np.ndarray, length: np.ndarray,
                      steps: int) -> None:
    """Add the weight of ``steps`` more steps of runs that all sit on
    cycles of single-transition nodes (see ``_cycle_tables``)."""
    import numpy as np

    _, offset, prefix = cycles
    start = offset.take(node)
    laps, rest = np.divmod(steps, length)
    for k, row in enumerate(prefix):
        at_start = row.take(start)
        lap = row.take(start + length) - at_start
        total[:, k] += laps * lap + row.take(start + rest) - at_start


def simulate_chain(chain: InducedChain, horizon: int, runs: int, seed: int,
                   mu: Optional[Sequence[Fraction]] = None) -> SimReport:
    """Chain simulation with one stream per run.

    Draw layout: counter 0 picks the initial node, counter t+1 drives
    step t.  Total payoffs are exact int64 sums; a horizon whose totals
    could leave that range raises OverflowError.
    """
    if horizon * chain.mdp.max_abs_weight >= 2**63:
        raise OverflowError("simulated totals exceed int64 range")
    keys = rng.run_keys_array(seed, runs)
    cols, base, target, weight = _chain_arrays(chain)
    tp = step_blocks((cols, base, target), weight, _initial_nodes(chain, keys), keys, horizon)
    return _report_from_tp(tp, horizon, runs, seed, mu)


def _report_from_tp(tp: np.ndarray, horizon: int, runs: int, seed: int, mu) -> SimReport:
    import numpy as np

    mp = tp / float(horizon)
    exceed = None
    if mu is not None:
        ok = np.ones(runs, dtype=bool)
        for i, m in enumerate(mu):
            f = Fraction(m)
            # exact: tp[i]/horizon > p/q  <=>  tp[i]*q > p*horizon
            ok &= tp[:, i].astype(object) * f.denominator > f.numerator * horizon
        exceed = float(np.count_nonzero(ok)) / runs
    return SimReport(
        runs=runs, horizon=horizon, seed=seed,
        mean=tuple(float(x) for x in mp.mean(axis=0)),
        min=tuple(float(x) for x in mp.min(axis=0)),
        max=tuple(float(x) for x in mp.max(axis=0)),
        stddev=tuple(float(x) for x in mp.std(axis=0, ddof=1)) if runs > 1 else tuple(0.0 for _ in range(mp.shape[1])),
        exceed_fraction=exceed,
        monitor_violations=0,
    )


def simulate(mdp: Mdp, strategy, start: str, horizon: int, runs: int, seed: int,
             mu: Optional[Sequence[Fraction]] = None) -> SimReport:
    """Simulate a finite machine or a procedural strategy.

    Finite machines are compiled to their induced chain; procedural
    strategies return their total payoffs through the `simulate_runs`
    hook.  Both walk their chains with ``step_blocks``.
    """
    if horizon < 1 or runs < 1:
        raise ValueError("horizon and runs must be >= 1")
    if hasattr(strategy, "simulate_runs"):
        tp = strategy.simulate_runs(mdp, start, horizon, runs, seed)
        return _report_from_tp(tp, horizon, runs, seed, mu)
    chain = induced_chain(mdp, strategy, start)
    return simulate_chain(chain, horizon, runs, seed, mu)
