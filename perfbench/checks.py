"""Correctness checks made outside the timed section.

Each check tests a property or an independent computation written here,
never a saved output.  Every function returns a list of problem strings;
an empty list means the check passed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from bwcmdp.model import Mdp

# bwc-fin => bwc-inf => bas => exp and bwc-inf => wc, closed transitively.
IMPLICATIONS = (("bwc-fin", "bwc-inf"), ("bwc-fin", "bas"), ("bwc-fin", "exp"),
                ("bwc-fin", "wc"), ("bwc-inf", "bas"), ("bwc-inf", "exp"),
                ("bwc-inf", "wc"), ("bas", "exp"))


def implications(label: str, answers: dict[str, bool]) -> list[str]:
    """Violations of the implication chain among the modes decided."""
    return [f"{label}: {a} yes but {b} no" for a, b in IMPLICATIONS
            if a in answers and b in answers and answers[a] and not answers[b]]


# ---------------------------------------------------------------------------
# Witness re-checks on the prepared MDP a decision refers to.


def witness(label: str, mode: str, decision) -> list[str]:
    """Re-check a yes-decision's flow assignment with plain arithmetic.

    x is a non-negative circulation, proportional at random states; the y
    mass on the designated components is one; the long-run weight beats
    the (normalized) expectation threshold in every dimension; for the
    bwc and bas modes every designated component's flow is positive in
    every dimension.
    """
    w = decision.witness
    if w is None:
        return [f"{label} {mode}: yes-decision without a witness"]
    mdp, asg = w.mdp, w.assignment
    zero = Fraction(0)
    x = {e.eid: asg.get(f"x[{e.eid}]", zero) for e in mdp.edges}
    problems = []
    negative = [k for k, v in asg.items() if v < 0]
    if negative:
        problems.append(f"negative variables {negative[:3]}")
    for s in mdp.state_ids:
        inflow = sum((x[e.eid] for e in mdp.in_edges[s]), zero)
        outflow = sum((x[e.eid] for e in mdp.out_edges[s]), zero)
        if inflow != outflow:
            problems.append(f"x not conserved at {s}")
        if mdp.is_random(s):
            for e in mdp.out_edges[s]:
                if x[e.eid] != mdp.prob(e.eid) * outflow:
                    problems.append(f"x not proportional on edge {e.eid}")
    designated = set().union(*(c.states for c in w.components)) if w.components else set()
    mass = sum((asg.get(f"y[{s}]", zero) for s in designated), zero)
    if mass != 1:
        problems.append(f"y mass on designated components is {mass}")
    for i in range(mdp.dimension):
        total = sum((x[e.eid] * e.weight[i] for e in mdp.edges), zero)
        if not total > w.nu[i]:
            problems.append(f"expectation {total} <= {w.nu[i]} in dimension {i}")
    if mode in ("bas", "bwc-fin", "bwc-inf"):
        for comp in w.components:
            for i in range(mdp.dimension):
                flow = sum((x[eid] * mdp.edge_by_id[eid].weight[i] for eid in comp.edges), zero)
                if not flow > 0:
                    problems.append(f"component {sorted(comp.states)} flow {flow} in dimension {i}")
    return [f"{label} {mode}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# One-dimensional worst case: exhaustive max-min over memoryless pairs.


def _lasso_mean(mdp: Mdp, start: str, choice: dict[str, int]) -> Fraction:
    """Mean weight of the cycle a functional graph reaches from ``start``."""
    seen: dict[str, int] = {}
    weights: list[int] = []
    s = start
    while s not in seen:
        seen[s] = len(weights)
        edge = mdp.edge_by_id[choice[s]]
        weights.append(edge.weight[0])
        s = edge.target
    cycle = weights[seen[s]:]
    return Fraction(sum(cycle), len(cycle))


def unidim_wc(mdp: Mdp, start: str, mu: Fraction) -> bool:
    """Whether the controller forces mean payoff > mu from ``start`` on a
    one-dimensional MDP whose random states are adversarial.

    Mean-payoff games are positionally determined, so the value is the
    max over controller choices of the min over adversary choices of the
    reached cycle's mean.  A threshold at or below -W is trivially met:
    that is the package's documented reading of the boundary mu = -W.
    """
    if mu <= -mdp.max_abs_weight:
        return True
    ctrl = [s for s in mdp.state_ids if not mdp.is_random(s)]
    rand = [s for s in mdp.state_ids if mdp.is_random(s)]
    ctrl_opts = [[e.eid for e in mdp.out_edges[s]] for s in ctrl]
    rand_opts = [[e.eid for e in mdp.out_edges[s]] for s in rand]
    rand_choices = [dict(zip(rand, pick)) for pick in itertools.product(*rand_opts)]
    for pick in itertools.product(*ctrl_opts):
        mine = dict(zip(ctrl, pick))
        if all(_lasso_mean(mdp, start, mine | theirs) > mu for theirs in rand_choices):
            return True
    return False


# ---------------------------------------------------------------------------
# Multidimensional worst case on two-dimensional games: spoiler enumeration.


def _sccs(nodes: list[str], succ: dict[str, list[str]]) -> list[set[str]]:
    """Strongly connected components (iterative Tarjan)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    out = []
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            for t in it:
                if t not in index:
                    index[t] = low[t] = len(index)
                    stack.append(t)
                    on_stack.add(t)
                    work.append((t, iter(succ[t])))
                    break
                if t in on_stack:
                    low[v] = min(low[v], index[t])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    comp = set()
                    while True:
                        t = stack.pop()
                        on_stack.discard(t)
                        comp.add(t)
                        if t == v:
                            break
                    out.append(comp)
    return out


def _cycle_vectors(comp: set[str], edges) -> list[tuple[Fraction, Fraction]]:
    """Shifted weight sums (sum of w - mu over the cycle) of every simple
    cycle inside ``comp``; ``edges`` are (source, target, shifted weight)."""
    order = sorted(comp)
    rank = {s: i for i, s in enumerate(order)}
    out_of: dict[str, list] = {s: [] for s in order}
    for src, dst, w in edges:
        if src in comp and dst in comp:
            out_of[src].append((dst, w))
    vectors = []
    for root in order:
        # Cycles whose lowest-ranked state is ``root``.
        path = {root}
        work = [(root, iter(out_of[root]), (Fraction(0), Fraction(0)))]
        while work:
            v, it, acc = work[-1]
            for dst, w in it:
                total = (acc[0] + w[0], acc[1] + w[1])
                if dst == root:
                    vectors.append(total)
                elif rank[dst] > rank[root] and dst not in path:
                    path.add(dst)
                    work.append((dst, iter(out_of[dst]), total))
                    break
            else:
                work.pop()
                path.discard(v)
    return vectors


def cone_meets_open_quadrant(vectors) -> bool:
    """Whether some non-negative combination of 2-vectors is > 0 in both
    components.  In the plane that holds iff one vector already is, or a
    vector with positive first component and one with positive second
    component span it (positive determinant)."""
    right = [v for v in vectors if v[0] > 0]
    up = [v for v in vectors if v[1] > 0]
    if any(v[1] > 0 for v in right):
        return True
    return any(a * e - b * c > 0 for a, b in right for c, e in up)


def spoiler_wins(mdp: Mdp, start: str, mu, spoiler: dict[str, int]) -> bool:
    """Whether the fixed memoryless spoiler keeps ``start`` from reaching an
    SCC that carries a multicycle with mean payoff > mu in both dimensions.

    A dimension with mu <= -W is met by every play; its shifted weight is
    set to 1 so that it never blocks a cycle.
    """
    W = mdp.max_abs_weight

    def shifted(w, i):
        return Fraction(1) if mu[i] <= -W else Fraction(w) - mu[i]

    edges = [(e.source, e.target, (shifted(e.weight[0], 0), shifted(e.weight[1], 1)))
             for e in mdp.edges
             if not mdp.is_random(e.source) or spoiler[e.source] == e.eid]
    succ: dict[str, list[str]] = {s: [] for s in mdp.state_ids}
    for src, dst, _ in edges:
        succ[src].append(dst)
    reach, frontier = {start}, [start]
    while frontier:
        for t in succ[frontier.pop()]:
            if t not in reach:
                reach.add(t)
                frontier.append(t)
    for comp in _sccs(sorted(reach), succ):
        if cone_meets_open_quadrant(_cycle_vectors(comp, edges)):
            return False
    return True


def game_wc(mdp: Mdp, start: str, mu) -> bool:
    """Worst-case answer on a two-dimensional game by trying every memoryless
    spoiler (memoryless spoilers suffice against conjunctive mean payoff)."""
    rand = [s for s in mdp.state_ids if mdp.is_random(s)]
    options = [[e.eid for e in mdp.out_edges[s]] for s in rand]
    return not any(spoiler_wins(mdp, start, mu, dict(zip(rand, pick)))
                   for pick in itertools.product(*options))


# ---------------------------------------------------------------------------
# Simulation against exact expectations.


def mc_tolerance(stddev: float, runs: int, horizon: int, max_weight: int) -> float:
    """Six standard errors plus a ten-step prefix at full weight swing."""
    return 6.0 * stddev / runs ** 0.5 + 20.0 * max_weight / horizon
