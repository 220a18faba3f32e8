"""Multi-weighted MDP data model, validation and threshold normalization.

An MDP here is a finite two-kind game graph: controller states choose an
outgoing edge, random states draw one from a fixed positive distribution.
Edges carry integer weight vectors of a shared dimension.  Parallel edges
between the same pair of states are first class (everything is keyed by
edge id), and probabilities are per edge, summing to one per random state.

Values are immutable after construction; derived indexes are cached.

Strictness.  Thresholds are strict (MP > mu), but a worst-case component
at the boundary mu[i] = -W, W the largest absolute weight, is read as
trivially met, like every mu[i] < -W (``detect_trivial``): a play whose
mean is exactly -W there still counts as a win.  ``decide --mode wc``,
``prune``, ``decompose --kind mwec`` and ``verify --check wc`` use that
reading, and the benchmark's reference checks (``perfbench/checks.py``)
mirror it.  The positivity tests drop no dimension: ``verify --check
as``, ``systems.positively_winnable`` (the bas and bwc-inf component
test) and ``games.positive_multicycle`` as bwc-fin calls it on each
winning end component test every one.  So the modes can disagree on the
boundary: a one-state MDP with a 0 self-loop answers wc with mu = 0 yes,
but bas and bwc-fin no.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

CONTROLLER = "controller"
RANDOM = "random"

MODES = ("wc", "exp", "bas", "bwc-fin", "bwc-inf")

# Modes whose side objective (sure or almost-sure mean payoff > mu) makes
# "expectation > mu" automatic, so nu may be clamped up to mu when shifting.
_CLAMPING_MODES = frozenset({"bas", "bwc-fin", "bwc-inf"})


# ``shared(value)`` is ``value`` or an equal value passed before and still in
# a bounded cache: the small tuples that kept decisions hold are shared.
shared = lru_cache(maxsize=4096)(lambda value: value)


@dataclass(frozen=True, slots=True)
class Edge:
    eid: int
    source: str
    target: str
    weight: tuple[int, ...]


@dataclass(frozen=True)
class Mdp:
    """Immutable multi-weighted MDP.

    Fields:
        dimension: number of weight components d >= 1.
        states: ordered mapping state id -> owner ("controller" | "random").
        edges: ordered tuple of Edge records; ids need not be contiguous.
        probabilities: edge id -> Fraction, defined exactly for edges
            leaving random states.
        initial: optional designated start state.
    """

    dimension: int
    states: tuple[tuple[str, str], ...]
    edges: tuple[Edge, ...]
    probabilities: dict[int, Fraction] = field(default_factory=dict)
    initial: Optional[str] = None

    @staticmethod
    def build(dimension: int,
              states: Iterable[tuple[str, str]],
              edges: Iterable[tuple],
              probabilities: Optional[dict] = None,
              initial: Optional[str] = None) -> "Mdp":
        """Convenience constructor.

        ``edges`` entries are (eid, source, target, weight) tuples; weights
        may be any integer sequence.  Probabilities may be given as
        Fractions, ints or "p/q" strings.
        """
        from bwcmdp.rationals import parse_rational

        es = tuple(Edge(int(e[0]), str(e[1]), str(e[2]), tuple(int(w) for w in e[3]))
                   for e in edges)
        probs = {}
        for eid, p in (probabilities or {}).items():
            probs[int(eid)] = p if isinstance(p, Fraction) else (
                parse_rational(p) if isinstance(p, str) else Fraction(p))
        return Mdp(dimension=int(dimension),
                   states=tuple((str(s), str(o)) for s, o in states),
                   edges=es,
                   probabilities=probs,
                   initial=initial)

    @cached_property
    def owner(self) -> dict[str, str]:
        return dict(self.states)

    @cached_property
    def state_ids(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.states)

    @cached_property
    def edge_by_id(self) -> dict[int, Edge]:
        return {e.eid: e for e in self.edges}

    @cached_property
    def out_edges(self) -> dict[str, tuple[Edge, ...]]:
        out: dict[str, list[Edge]] = {s: [] for s in self.state_ids}
        for e in self.edges:
            if e.source in out:
                out[e.source].append(e)
        return {s: tuple(v) for s, v in out.items()}

    @cached_property
    def in_edges(self) -> dict[str, tuple[Edge, ...]]:
        inc: dict[str, list[Edge]] = {s: [] for s in self.state_ids}
        for e in self.edges:
            if e.target in inc:
                inc[e.target].append(e)
        return {s: tuple(v) for s, v in inc.items()}

    def is_random(self, state: str) -> bool:
        return self.owner[state] == RANDOM

    def prob(self, eid: int) -> Fraction:
        return self.probabilities[eid]

    @cached_property
    def max_abs_weight(self) -> int:
        """W: largest absolute weight component over all edges."""
        best = 0
        for e in self.edges:
            for w in e.weight:
                if abs(w) > best:
                    best = abs(w)
        return best

    @cached_property
    def max_prob_denominator(self) -> int:
        """Q: largest denominator used to represent edge probabilities."""
        return max((p.denominator for p in self.probabilities.values()), default=1)

    def replace_weights(self, weights: dict[int, tuple[int, ...]]) -> "Mdp":
        es = tuple(Edge(e.eid, e.source, e.target, weights.get(e.eid, e.weight))
                   for e in self.edges)
        return Mdp(self.dimension, self.states, es, self.probabilities, self.initial)


@dataclass(frozen=True, slots=True)
class ThresholdQuery:
    """A threshold query: mode, start state, worst-case vector mu, expectation vector nu.

    mu is unused for mode "exp"; nu is unused for mode "wc".
    """

    mode: str
    start: str
    mu: tuple[Fraction, ...]
    nu: tuple[Fraction, ...]

    @staticmethod
    def build(mode: str, start: str, mu: Sequence, nu: Sequence) -> "ThresholdQuery":
        return ThresholdQuery(mode=mode, start=str(start),
                              mu=tuple(Fraction(x) for x in mu),
                              nu=tuple(Fraction(x) for x in nu))


def validate(mdp: Mdp) -> list[str]:
    """Check all model invariants; returns one message per violation.

    An empty report means the MDP is well formed.  This never raises: it
    is the reporting operation other entry points build their errors on.
    """
    report: list[str] = []
    if mdp.dimension < 1:
        report.append(f"dimension must be >= 1, got {mdp.dimension}")

    ids = [s for s, _ in mdp.states]
    seen = set()
    for s in ids:
        if s in seen:
            report.append(f"duplicate state id {s!r}")
        seen.add(s)
    for s, o in mdp.states:
        if o not in (CONTROLLER, RANDOM):
            report.append(f"state {s!r} has unknown owner {o!r}")

    eids = set()
    for e in mdp.edges:
        if e.eid in eids:
            report.append(f"duplicate edge id {e.eid}")
        eids.add(e.eid)
        if e.source not in seen:
            report.append(f"edge {e.eid} has unknown source {e.source!r}")
        if e.target not in seen:
            report.append(f"edge {e.eid} has unknown target {e.target!r}")
        if len(e.weight) != mdp.dimension:
            report.append(f"edge {e.eid} weight has length {len(e.weight)}, expected {mdp.dimension}")

    for s, o in mdp.states:
        out = mdp.out_edges[s]
        if not out:
            report.append(f"{s} has no successor")
        if o == RANDOM and out:
            total = Fraction(0)
            ok = True
            for e in out:
                p = mdp.probabilities.get(e.eid)
                if p is None:
                    report.append(f"missing probability for edge {e.eid} at random state {s}")
                    ok = False
                    continue
                if p <= 0:
                    report.append(f"zero-probability edge at {s} (edge {e.eid})")
                    ok = False
                total += p if p is not None else 0
            if ok and total != 1:
                report.append(f"probabilities at {s} sum to {total}, expected 1")

    for eid in mdp.probabilities:
        e = mdp.edge_by_id.get(eid)
        if e is None:
            report.append(f"probability given for unknown edge {eid}")
        elif mdp.owner.get(e.source) == CONTROLLER:
            report.append(f"probability given for controller edge {eid}")

    if mdp.initial is not None and mdp.initial not in seen:
        report.append(f"initial state {mdp.initial!r} unknown")
    return report


def require_valid(mdp: Mdp) -> None:
    report = validate(mdp)
    if report:
        raise ValueError("invalid MDP: " + "; ".join(report))


def max_abs_weight(mdp: Mdp) -> int:
    """W, the largest absolute weight component appearing in the graph."""
    return mdp.max_abs_weight


def normalize(mdp: Mdp, query: ThresholdQuery) -> tuple[Mdp, ThresholdQuery]:
    """Shift-and-scale so the worst-case threshold becomes the zero vector.

    With mu[i] = a_i/b_i in lowest terms, each weight component becomes
    w[i]*b_i - a_i (still an integer) and nu becomes nu[i]*b_i - a_i.
    For modes whose guarantee implies "expectation > mu" (bas and both bwc
    modes) the shifted nu is additionally clamped up to 0; for mode "exp"
    there is no such implication and the clamp would change answers, so nu
    is only shifted.  Decision answers are invariant either way.

    Idempotent: normalizing a normalized instance is the identity.  The
    MDP is trusted to be valid: entry points validate the user's MDP once.
    """
    d = mdp.dimension
    if len(query.mu) != d or len(query.nu) != d:
        raise ValueError(f"query vectors must have dimension {d}")

    mu = [Fraction(x) for x in query.mu]
    if query.mode == "exp":
        # mu is unused for the expectation-only problem: no shift at all.
        mu = [Fraction(0)] * d
    scale = [f.denominator for f in mu]
    shift = [f.numerator for f in mu]

    if any(shift) or any(b != 1 for b in scale):
        shifted = mdp.replace_weights({
            e.eid: tuple(e.weight[i] * scale[i] - shift[i] for i in range(d)) for e in mdp.edges})
    else:
        shifted = mdp  # mu = 0: the weights are already normalized

    nu2 = []
    for i in range(d):
        v = query.nu[i] * scale[i] - shift[i]
        if query.mode in _CLAMPING_MODES:
            v = max(Fraction(0), v)
        nu2.append(v)

    q2 = ThresholdQuery(mode=query.mode, start=query.start,
                        mu=tuple(Fraction(0) for _ in range(d)),
                        nu=tuple(nu2))
    return shifted, q2


def detect_trivial(query: ThresholdQuery, W: int) -> set[int]:
    """Dimension indices (0-based) whose worst-case component is trivial.

    A component is trivial when mu[i] <= -W: every play has mean payoff
    >= -W there, so the worst-case obligation carries no force and game
    solving may ignore the dimension.  The exact boundary mu[i] = -W is
    treated as trivial as well; see the module notes on strictness.
    """
    return {i for i, m in enumerate(query.mu) if m <= -W}


_FIXTURE_NAMES = ("RUN_EX", "RUN_EX_BAS", "TASK_EX", "APPROX_EX")


def fixture(name: str) -> Mdp:
    """Built-in example MDPs used across the test and acceptance suites.

    RUN_EX      four states; controller component {t} with a (5,15) loop and
                a stochastic component {u,v} whose two parallel v->u edges
                carry (30,80) and (30,-60) with probability 1/2 each.
    RUN_EX_BAS  RUN_EX without the escape edge u->t.
    TASK_EX     two-configuration task server: random task arrivals of two
                kinds, controller serves from either configuration at the
                listed (time, energy) cost.
    APPROX_EX   two controller states with (0,1)/(1,0) self loops and free
                cross edges.
    """
    if name == "RUN_EX" or name == "RUN_EX_BAS":
        states = [("s", CONTROLLER), ("t", CONTROLLER), ("u", CONTROLLER), ("v", RANDOM)]
        edges = [
            (0, "s", "t", (0, 0)),
            (1, "s", "u", (0, 0)),
            (2, "t", "t", (5, 15)),
            (3, "u", "t", (0, 0)),
            (4, "u", "v", (0, 0)),
            (5, "v", "u", (30, 80)),
            (6, "v", "u", (30, -60)),
        ]
        probs = {5: Fraction(1, 2), 6: Fraction(1, 2)}
        if name == "RUN_EX_BAS":
            edges = [e for e in edges if e[0] != 3]
        return Mdp.build(2, states, edges, probs, initial="s")

    if name == "TASK_EX":
        # States 0,1: configuration waiting for a task (random, both task
        # kinds equally likely).  State (i,k): task k pending in config i.
        states = [
            ("0", RANDOM), ("1", RANDOM),
            ("0,0", CONTROLLER), ("0,1", CONTROLLER),
            ("1,0", CONTROLLER), ("1,1", CONTROLLER),
        ]
        h = Fraction(1, 2)
        edges = [
            (0, "0", "0,0", (0, 0)),
            (1, "0", "0,1", (0, 0)),
            (2, "1", "1,0", (0, 0)),
            (3, "1", "1,1", (0, 0)),
            # serve from configuration 0
            (4, "0,0", "0", (30, 2)),
            (5, "0,1", "0", (60, 4)),
            # move to configuration 1 and serve
            (6, "0,0", "1", (10, 16)),
            (7, "0,1", "1", (16, 26)),
            # serve from configuration 1
            (8, "1,0", "1", (2, 10)),
            (9, "1,1", "1", (8, 20)),
            # move back to configuration 0 and serve
            (10, "1,0", "0", (34, 4)),
            (11, "1,1", "0", (64, 6)),
        ]
        probs = {0: h, 1: h, 2: h, 3: h}
        return Mdp.build(2, states, edges, probs, initial="0")

    if name == "APPROX_EX":
        states = [("s", CONTROLLER), ("t", CONTROLLER)]
        edges = [
            (0, "s", "s", (0, 1)),
            (1, "s", "t", (0, 0)),
            (2, "t", "t", (1, 0)),
            (3, "t", "s", (0, 0)),
        ]
        return Mdp.build(2, states, edges, {}, initial="s")

    raise KeyError(f"unknown fixture {name!r}; expected one of {_FIXTURE_NAMES}")


def negate_weights(mdp: Mdp, halve: bool = False) -> Mdp:
    """Negate (and optionally halve) every weight component.

    Cost-style figures become payoff-style ones: minimizing a cost below c
    is deciding mean payoff above -c on the negated weights.  Halving is
    only allowed when all components are even, keeping weights integral.
    """
    new = {}
    for e in mdp.edges:
        if halve:
            if any(w % 2 for w in e.weight):
                raise ValueError(f"edge {e.eid} weight {e.weight} is not halvable")
            new[e.eid] = tuple(-w // 2 for w in e.weight)
        else:
            new[e.eid] = tuple(-w for w in e.weight)
    return mdp.replace_weights(new)
