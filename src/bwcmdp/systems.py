"""The decision procedures: linear systems over flows and switch probabilities.

Shared shape of the systems (variables are all non-negative):

    y[s]   probability of switching to the recurrent phase upon visiting s
    ye[e]  transient flow along edge e before the switch
    x[e]   long-run frequency of edge e after the switch

Rows: unit inflow at the start state with conservation `in = out + leak`
(per-edge proportionality at random states), total leak mass one inside
the designated components, per-component linking of leak mass to long-run
frequency mass, frequency conservation (again proportional at random
states), the strict global expectation rows, and strict per-component
positivity rows.  The finite-memory problem designates maximal winning
end components; the general problem designates maximal end components.
The expectation-only problem is the general system without the
per-component positivity rows.

Two deliberate strengthenings over the plainest reading:

  * Designated components must be able to meet their positivity rows.
    The rows are unsatisfiable for any component that cannot, so
    quantifying them over all components wrongly rejects queries whose
    strategies simply avoid such components.  The general problem keeps
    the MECs with a long-run frequency vector, proportional at random
    states, strictly positive in every dimension (``positively_winnable``);
    the finite-memory problem keeps the maximal winning ECs that carry a
    positive multi-cycle, which they do away from trivial-threshold
    boundaries.
  * Frequencies are pinned to zero outside the designated components
    whenever positivity rows are present.  Without the pinning,
    circulation on undesignated components could inflate the global
    expectation rows and accept queries no strategy achieves; the
    leak/frequency link only constrains designated components, and the
    correctness argument reads the frequencies as supported inside them.

The expectation-only system keeps every maximal end component and needs
neither device.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from bwcmdp import games, linsolve
from bwcmdp.decomposition import EndComponent, mecs, reachable, restrict_states
from bwcmdp.linsolve import EQ, GE, GT, LinearSystem, Row
from bwcmdp.model import Edge, Mdp, ThresholdQuery, normalize, require_valid, shared
from bwcmdp.rationals import format_rational
from bwcmdp.verification import _karp_scc


# Variable names go through the bounded ``shared`` cache: the witnesses
# that decisions keep share them.
def ys(s: str) -> str:
    return shared(f"y[{s}]")


def ye(eid: int) -> str:
    return shared(f"ye[{eid}]")


def xe(eid: int) -> str:
    return shared(f"x[{eid}]")


def ensure_controller_start(mdp: Mdp, start: str) -> tuple[Mdp, str]:
    """Insert a fresh controller pre-state when the start state is random.

    The pre-state has a single zero-weight edge to the original start, so
    every objective value is unchanged (mean payoff is prefix
    independent).  Returns the possibly augmented MDP and its start state.
    """
    if not mdp.is_random(start):
        return mdp, start
    name = f"_pre_{start}"
    while name in mdp.owner:
        name += "'"
    eid = max((e.eid for e in mdp.edges), default=-1) + 1
    states = mdp.states + ((name, "controller"),)
    edges = mdp.edges + (Edge(eid, name, start, tuple(0 for _ in range(mdp.dimension))),)
    return Mdp(mdp.dimension, states, edges, mdp.probabilities, mdp.initial), name


def _flow_system(mdp: Mdp, start: str, nu: Sequence[Fraction],
                 components: Sequence[EndComponent],
                 local_positivity: bool) -> LinearSystem:
    """The rows listed in the module notes, as integer ``linsolve.Row``s
    over the columns y[s] (state order), ye[e] and x[e] (edge order)."""
    ids, edges = mdp.state_ids, mdp.edges
    n, m = len(ids), len(edges)
    y = {s: i for i, s in enumerate(ids)}
    yk = {e.eid: n + k for k, e in enumerate(edges)}
    xk = {e.eid: n + m + k for k, e in enumerate(edges)}

    def conservation(col, s, extra):
        # inflow - outflow (a self-loop cancels), plus ``extra``.
        row = {col[e.eid]: 1 for e in mdp.in_edges[s]} | extra
        for e in mdp.out_edges[s]:
            if row.pop(col[e.eid], None) is None:
                row[col[e.eid]] = -1
        return row

    def proportional(col, s, extra):
        # Per out-edge e of random s, over the denominator of P(e):
        # x[e] - P(e) * (inflow(s) - extra); a self-loop's entries add up.
        for e in mdp.out_edges[s]:
            p = mdp.prob(e.eid)
            row = {col[e2.eid]: -p.numerator for e2 in mdp.in_edges[s]}
            row.update((j, p.numerator * c) for j, c in extra.items())
            j = col[e.eid]
            row[j] = row.get(j, 0) + p.denominator
            if not row[j]:
                del row[j]
            yield row, p

    randoms = [s for s in ids if mdp.is_random(s)]
    # (A1) inflow = outflow + leak, with a unit source at the start state.
    rows = [Row(conservation(yk, s, {y[s]: -1}), EQ, -1 if s == start else 0) for s in ids]
    # (A1') per-edge proportionality at random states:
    # ye[e] = P(e) * (1_start(s) + inflow(s) - y[s]).
    rows += (Row(row, EQ, p.numerator if s == start else 0, p.denominator)
             for s in randoms for row, p in proportional(yk, s, {y[s]: 1}))
    # (A2) total leak mass one inside the designated components.
    rows.append(Row({y[s]: 1 for comp in components for s in comp.states}, EQ, 1))
    # (B) per component: leak mass equals internal frequency mass.
    rows += (Row({y[s]: 1 for s in comp.states} | {xk[eid]: -1 for eid in comp.edges}, EQ)
             for comp in components)
    # (C1) frequency conservation.
    rows += (Row(conservation(xk, s, {}), EQ) for s in ids)
    # (C1') frequency proportionality at random states.
    rows += (Row(row, EQ, 0, p.denominator) for s in randoms for row, p in proportional(xk, s, {}))
    # (C2) strict global expectation rows.
    rows += (Row({xk[e.eid]: b.denominator * e.weight[i] for e in edges if e.weight[i]},
                 GT, b.numerator, b.denominator) for i, b in enumerate(nu))
    # (C3) strict per-component positivity rows, and frequencies pinned to
    # zero outside the designated components.
    if local_positivity:
        weight = mdp.edge_by_id
        rows += (Row({xk[eid]: weight[eid].weight[i] for eid in comp.edges
                      if weight[eid].weight[i]}, GT)
                 for comp in components for i in range(mdp.dimension))
        inside = set().union(*(comp.edges for comp in components))
        rows += (Row({xk[e.eid]: 1}, EQ) for e in edges if e.eid not in inside)
    variables = [ys(s) for s in ids] + [ye(e.eid) for e in edges] + [xe(e.eid) for e in edges]
    return LinearSystem(variables, rows)


def finite_memory_system(mdp: Mdp, start: str, nu: Sequence[Fraction],
                         winning_components: Sequence[EndComponent]) -> LinearSystem:
    """System for the finite-memory problem, over maximal winning ECs.

    Requires a pruned MDP restricted to states reachable from ``start``,
    a controller-owned ``start`` (insert a pre-state otherwise), and
    nu >= 0 after normalization.
    """
    if not winning_components:
        raise ValueError("no maximal winning end component: the system cannot be satisfied")
    if mdp.is_random(start):
        raise ValueError("start state must be controller-owned; insert a pre-state first")
    return _flow_system(mdp, start, nu, winning_components, local_positivity=True)


def general_system(mdp: Mdp, start: str, nu: Sequence[Fraction],
                   components: Sequence[EndComponent],
                   local_positivity: bool = True) -> LinearSystem:
    """System for the general (infinite-memory / almost-sure) problem.

    With positivity rows the components must be the positively winnable
    MECs (see ``positively_winnable``) and outside frequencies are pinned.
    Passing local_positivity=False yields the expectation-only system over
    all MECs, where conservation plus proportionality already confine the
    frequency support and no pinning is needed.
    """
    if not components:
        raise ValueError("no designated end component: the system cannot be satisfied")
    if mdp.is_random(start):
        raise ValueError("start state must be controller-owned; insert a pre-state first")
    return _flow_system(mdp, start, nu, components, local_positivity=local_positivity)


def positively_winnable(mdp: Mdp, comp: EndComponent) -> bool:
    """Whether the component's positivity rows can be met: some long-run
    frequency vector inside it, proportional at random states, has a
    strictly positive mean payoff in every dimension.

    A frequency vector is a mix of the component's cycles, so a dimension
    whose maximum cycle mean (Karp on the negated weights) is <= 0 rules
    the component out without the LP."""
    arcs = [(e.source, e.target, tuple(-w for w in e.weight), e.eid)
            for e in map(mdp.edge_by_id.__getitem__, comp.edges)]
    if any(_karp_scc(list(comp.states), arcs, i) >= 0 for i in range(mdp.dimension)):
        return False
    zeros = (Fraction(0),) * mdp.dimension
    return linsolve.solve(ec_expectation_system(mdp, comp, zeros, strict=True)).strict_feasible


def ec_expectation_system(mdp: Mdp, ec: EndComponent, nu: Sequence[Fraction],
                          strict: bool = False) -> LinearSystem:
    """Expectation system inside one end component.

    Variables x[s] (long-run state probability, states in declaration
    order) and x[e] (edge frequency, edges by id); rows: total state mass
    one, in/out flow matching per state, random proportionality, and the
    per-dimension mean-payoff rows (weak by default, strict when deciding
    the strict achievable set).
    """
    order = {s: i for i, s in enumerate(mdp.state_ids)}
    states = sorted(ec.states, key=order.__getitem__)
    edges = [mdp.edge_by_id[eid] for eid in sorted(ec.edges)]
    xs = {s: i for i, s in enumerate(states)}
    xk = {e.eid: len(states) + k for k, e in enumerate(edges)}
    ins = {s: {j: -1} for s, j in xs.items()}
    outs = {s: {j: -1} for s, j in xs.items()}
    for e in edges:
        ins[e.target][xk[e.eid]] = 1
        outs[e.source][xk[e.eid]] = 1
    rows = [Row(dict.fromkeys(range(len(states)), 1), EQ, 1)]
    for s in states:
        rows += (Row(ins[s], EQ), Row(outs[s], EQ))
    for e in edges:
        if mdp.is_random(e.source):
            p = mdp.prob(e.eid)
            rows.append(Row({xk[e.eid]: p.denominator, xs[e.source]: -p.numerator}, EQ,
                            0, p.denominator))
    for i, b in enumerate(nu):
        q = b.denominator
        rows.append(Row({xk[e.eid]: q * e.weight[i] for e in edges if e.weight[i]},
                        GT if strict else GE, b.numerator, q))
    return LinearSystem([f"xs[{s}]" for s in states] + [xe(e.eid) for e in edges], rows)


# ---------------------------------------------------------------------------
# Decisions.


@dataclass(frozen=True, slots=True)
class Witness:
    """Everything synthesis needs from a yes-decision.

    ``mdp`` is the prepared instance the assignment refers to: normalized,
    pruned (bwc modes), restricted to the reachable part (the states
    ``kept``, None when that is every state), and with a controller
    pre-state inserted when the start state was random; ``nu`` is the
    normalized expectation threshold.
    Both are rebuilt on first use from the decided ``source`` and
    ``query``, so a kept Decision pins no prepared edge or index.
    ``components`` hold their states and edges as tuples, in the order of
    the sets that deciding found.  ``values`` holds the nonzero variables
    only, as ``(name, value)`` pairs in name order (the rest are 0): a
    tuple costs less to keep than a dict, and ``assignment`` rebuilds the
    dict for the callers that look values up.
    """

    source: Mdp
    query: ThresholdQuery
    kept: Optional[tuple[str, ...]]
    start: str
    dims: tuple[int, ...]
    components: tuple[EndComponent, ...]
    values: tuple[tuple[str, Fraction], ...]
    slack: Optional[Fraction]
    _prepared: Optional[tuple] = field(default=None, compare=False, repr=False)

    @property
    def assignment(self) -> dict[str, Fraction]:
        return dict(self.values)

    @property
    def mdp(self) -> Mdp:
        return self._prepare()[0]

    @property
    def nu(self) -> tuple[Fraction, ...]:
        return self._prepare()[1]

    def _prepare(self) -> tuple[Mdp, tuple[Fraction, ...]]:
        if self._prepared is None:
            nmdp, nquery = normalize(self.source, self.query)
            if self.kept is not None:
                nmdp = restrict_states(nmdp, self.kept)
            object.__setattr__(self, "_prepared", (
                ensure_controller_start(nmdp, nquery.start)[0], tuple(nquery.nu)))
        return self._prepared


@dataclass(frozen=True)
class Decision:
    """The answer to one query, with its witness (a yes in every mode but
    ``wc``) or its failure and, when a spoiler beat the start state, that
    spoiler.

    Equal decisions on the same MDP object that are alive at the same
    time are one object (see ``_kept``), so a caller that keeps many
    rounds of decisions keeps each once.  The table that finds them holds
    them weakly, so it keeps no decision, and through its witness no MDP,
    alive by itself.  The class has no ``__slots__``: a slotted dataclass
    takes a ``__weakref__`` slot only from Python 3.11 on.
    """

    answer: bool
    mode: str
    witness: Optional[Witness] = None
    failure: Optional[str] = None
    certificate: Optional[games.AdversaryChoice] = None

    def to_json(self) -> dict:
        out = {"answer": "yes" if self.answer else "no", "mode": self.mode}
        if self.witness is not None:
            out["witness"] = {
                "assignment": {k: format_rational(v) for k, v in self.witness.values},
                "decomposition": [sorted(c.states) for c in self.witness.components],
                "slack": format_rational(self.witness.slack) if self.witness.slack is not None else None,
            }
        if self.failure is not None:
            out["failure"] = self.failure
        if self.certificate is not None:
            out["spoiler"] = {s: e for s, e in self.certificate.choice}
        return out


# The latest decision alive per (id of the decided MDP, mode, start
# state).  The table holds them weakly: a strong one would pin every MDP
# decided (and each CLI call loads a new one) for the life of the process.
_decisions: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _kept(mdp: Mdp, query: ThresholdQuery, decision: Decision) -> Decision:
    """``decision``, or an equal one that is still alive for the same MDP
    object, mode and start state.

    Looked up only once the decision is made, so it saves memory, not
    work.  Equality decides a hit, so the key leaves the thresholds out:
    hashing their Fractions cost more than the rest of the lookup.
    """
    key = (id(mdp), query.mode, query.start)
    hit = _decisions.get(key)
    if hit is not None and hit == decision:
        return hit
    _decisions[key] = decision
    return decision


def decide(mdp: Mdp, query: ThresholdQuery,
           budget: int = games.DEFAULT_ADVERSARY_BUDGET,
           dump_lp=None) -> Decision:
    """Decide a threshold query exactly.

    Pipeline: normalize; for bwc modes prune against the worst-case
    objective (answering no when the start state is pruned); restrict to
    the reachable part; decompose (winning components for bwc-fin, MECs
    otherwise); build and solve the matching system.  The almost-sure and
    expectation modes skip pruning entirely.  Equal decisions alive at
    the same time for the same MDP object are one object (``_kept``).
    """
    return _kept(mdp, query, _decide(mdp, query, budget, dump_lp))


def _decide(mdp: Mdp, query: ThresholdQuery, budget: int, dump_lp) -> Decision:
    require_valid(mdp)
    if query.mode not in ("wc", "exp", "bas", "bwc-fin", "bwc-inf"):
        raise ValueError(f"unknown mode {query.mode!r}")
    if len(query.mu) != mdp.dimension or len(query.nu) != mdp.dimension:
        raise ValueError("query dimension mismatch")
    if query.start not in mdp.owner:
        raise KeyError(f"unknown start state {query.start!r}")

    dims = games.nontrivial_dims(query, mdp.max_abs_weight)
    nmdp, nquery = normalize(mdp, query)
    start = nquery.start

    if query.mode == "wc":
        if not dims:
            return Decision(True, "wc")
        region = games.wc_winning_region(nmdp, dims, budget)
        if start in region:
            return Decision(True, "wc")
        return Decision(False, "wc", failure="worst-case objective fails at the start state",
                        certificate=region.certificates.get(start))

    if query.mode in ("bwc-fin", "bwc-inf"):
        pruned = games.prune(nmdp, start, dims, budget)
        if isinstance(pruned, games.Unsatisfiable):
            return Decision(False, query.mode, failure="start state pruned",
                            certificate=pruned.certificate)
        base = pruned
    else:
        keep = reachable(nmdp, start)
        base = restrict_states(nmdp, keep) if keep != set(nmdp.state_ids) else nmdp

    kept = None if len(base.states) == len(mdp.states) else shared(base.state_ids)
    base, start2 = ensure_controller_start(base, start)

    if query.mode == "bwc-fin":
        comps = [c for c in games.mwecs(base, dims, budget)
                 if games.positive_multicycle(base, c.states) > 0]
        if not comps:
            return Decision(False, query.mode, failure="no maximal winning end component")
        system = finite_memory_system(base, start2, nquery.nu, comps)
    elif query.mode == "exp":
        comps = mecs(base)
        if not comps:
            return Decision(False, query.mode, failure="no maximal end component")
        system = general_system(base, start2, nquery.nu, comps, local_positivity=False)
    else:
        comps = [c for c in mecs(base) if positively_winnable(base, c)]
        if not comps:
            return Decision(False, query.mode, failure="no positively winnable end component")
        system = general_system(base, start2, nquery.nu, comps)

    if dump_lp is not None:
        dump_lp(system)
    outcome = linsolve.solve(system)
    if not outcome.strict_feasible:
        return Decision(False, query.mode, failure="threshold system infeasible")
    witness = Witness(source=mdp, query=shared(query), kept=kept, start=start2, dims=dims,
                      components=shared(tuple(EndComponent(shared(tuple(c.states)),
                                                           shared(tuple(c.edges)))
                                              for c in comps)),
                      values=tuple(sorted((k, v) for k, v in outcome.assignment.items() if v)),
                      slack=outcome.slack)
    return Decision(True, query.mode, witness=witness)
