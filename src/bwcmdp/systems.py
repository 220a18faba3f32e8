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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from sys import intern
from typing import Optional, Sequence

from bwcmdp import games, linsolve
from bwcmdp.decomposition import EndComponent, mecs, reachable, restrict_states
from bwcmdp.linsolve import LinearSystem, LpOutcome
from bwcmdp.model import Edge, Mdp, ThresholdQuery, normalize, require_valid
from bwcmdp.rationals import format_rational


# Variable names are interned: the witnesses that decisions keep share them.
def ys(s: str) -> str:
    return intern(f"y[{s}]")


def ye(eid: int) -> str:
    return intern(f"ye[{eid}]")


def xe(eid: int) -> str:
    return intern(f"x[{eid}]")


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
                 local_positivity: bool,
                 pin_outside: bool) -> LinearSystem:
    d = mdp.dimension
    sys = LinearSystem(variables=(
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
    return _flow_system(mdp, start, nu, winning_components,
                        local_positivity=True, pin_outside=True)


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
    return _flow_system(mdp, start, nu, components,
                        local_positivity=local_positivity, pin_outside=local_positivity)


def positively_winnable(mdp: Mdp, comp: EndComponent) -> bool:
    """Whether the component's positivity rows can be met: some long-run
    frequency vector inside it, proportional at random states, has a
    strictly positive mean payoff in every dimension."""
    zeros = (Fraction(0),) * mdp.dimension
    return linsolve.solve(ec_expectation_system(mdp, comp, zeros, strict=True)).strict_feasible


def ec_expectation_system(mdp: Mdp, ec: EndComponent, nu: Sequence[Fraction],
                          strict: bool = False) -> LinearSystem:
    """Expectation system inside one end component.

    Variables x[s] (long-run state probability) and x[e] (edge frequency);
    rows: total state mass one, in/out flow matching per state, random
    proportionality, and the per-dimension mean-payoff rows (weak by
    default, strict when deciding the strict achievable set).
    """
    states = sorted(ec.states, key=mdp.state_ids.index)
    edges = [mdp.edge_by_id[eid] for eid in sorted(ec.edges)]
    xs = {s: f"xs[{s}]" for s in states}
    sys = LinearSystem(variables=[xs[s] for s in states] + [xe(e.eid) for e in edges])

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
# Decisions.


@dataclass(frozen=True, slots=True)
class Witness:
    """Everything synthesis needs from a yes-decision.

    ``mdp`` is the prepared instance the assignment refers to: normalized,
    pruned (bwc modes), restricted to the reachable part (the states
    ``kept``), and with a controller pre-state inserted when the start
    state was random; ``nu`` is the normalized expectation threshold.
    Both are rebuilt on first use from the decided ``source`` and
    ``query``, so a kept Decision pins no prepared edge or index.
    ``components`` hold their states and edges as tuples, in the order of
    the sets that deciding found.  ``assignment`` holds the nonzero
    variables only; the rest are 0.
    """

    source: Mdp
    query: ThresholdQuery
    kept: tuple[str, ...]
    start: str
    dims: tuple[int, ...]
    components: tuple[EndComponent, ...]
    assignment: dict[str, Fraction]
    slack: Optional[Fraction]
    _prepared: Optional[tuple] = field(default=None, compare=False, repr=False)

    @property
    def mdp(self) -> Mdp:
        return self._prepare()[0]

    @property
    def nu(self) -> tuple[Fraction, ...]:
        return self._prepare()[1]

    def _prepare(self) -> tuple[Mdp, tuple[Fraction, ...]]:
        if self._prepared is None:
            nmdp, nquery = normalize(self.source, self.query)
            object.__setattr__(self, "_prepared", (ensure_controller_start(
                restrict_states(nmdp, self.kept), nquery.start)[0], tuple(nquery.nu)))
        return self._prepared


@dataclass(frozen=True, slots=True)
class Decision:
    answer: bool
    mode: str
    witness: Optional[Witness] = None
    failure: Optional[str] = None
    certificate: Optional[games.AdversaryChoice] = None

    def to_json(self) -> dict:
        out = {"answer": "yes" if self.answer else "no", "mode": self.mode}
        if self.witness is not None:
            out["witness"] = {
                "assignment": {k: format_rational(v)
                               for k, v in sorted(self.witness.assignment.items()) if v},
                "decomposition": [sorted(c.states) for c in self.witness.components],
                "slack": format_rational(self.witness.slack) if self.witness.slack is not None else None,
            }
        if self.failure is not None:
            out["failure"] = self.failure
        if self.certificate is not None:
            out["spoiler"] = {s: e for s, e in self.certificate.choice}
        return out


@cache
def _verdict(answer: bool, mode: str, failure: Optional[str] = None) -> Decision:
    """A Decision without witness or certificate; immutable, so shared."""
    return Decision(answer, mode, failure=failure)


def decide(mdp: Mdp, query: ThresholdQuery,
           budget: int = games.DEFAULT_ADVERSARY_BUDGET,
           dump_lp=None) -> Decision:
    """Decide a threshold query exactly.

    Pipeline: normalize; for bwc modes prune against the worst-case
    objective (answering no when the start state is pruned); restrict to
    the reachable part; decompose (winning components for bwc-fin, MECs
    otherwise); build and solve the matching system.  The almost-sure and
    expectation modes skip pruning entirely.
    """
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
            return _verdict(True, "wc")
        region = games.wc_winning_region(nmdp, dims, budget)
        if start in region:
            return _verdict(True, "wc")
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

    kept = base.state_ids
    base, start2 = ensure_controller_start(base, start)

    if query.mode == "bwc-fin":
        comps = [c for c in games.mwecs(base, dims, budget)
                 if games.positive_multicycle(base, c.states) > 0]
        if not comps:
            return _verdict(False, query.mode, "no maximal winning end component")
        system = finite_memory_system(base, start2, nquery.nu, comps)
    elif query.mode == "exp":
        comps = mecs(base)
        if not comps:
            return _verdict(False, query.mode, "no maximal end component")
        system = general_system(base, start2, nquery.nu, comps, local_positivity=False)
    else:
        comps = [c for c in mecs(base) if positively_winnable(base, c)]
        if not comps:
            return _verdict(False, query.mode, "no positively winnable end component")
        system = general_system(base, start2, nquery.nu, comps)

    if dump_lp is not None:
        dump_lp(system)
    outcome = linsolve.solve(system)
    if not outcome.strict_feasible:
        return _verdict(False, query.mode, "threshold system infeasible")
    witness = Witness(source=mdp, query=query, kept=kept, start=start2, dims=dims,
                      components=tuple(EndComponent(tuple(c.states), tuple(c.edges))
                                       for c in comps),
                      assignment={k: v for k, v in outcome.assignment.items() if v},
                      slack=outcome.slack)
    return Decision(True, query.mode, witness=witness)
