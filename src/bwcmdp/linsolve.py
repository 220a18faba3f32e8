"""Exact rational linear-system solving by primal simplex with Bland's rule.

The solver decides feasibility of systems mixing equalities, weak and
strict inequalities over rational coefficients.  Strict rows are handled
by one shared slack variable y >= 0: each `expr > rhs` becomes
`expr >= rhs + y`, and y is maximized.  The original system is solvable
iff the relaxation is feasible with optimum y* > 0 (or y unbounded);
a single shared slack suffices because any fully strict solution has a
positive minimum margin, and conversely y* > 0 makes every strict row
strict at once.

Every variable is non-negative, and the tableau keeps one column layout:
column j is variable j, followed by one surplus column per inequality.  A
quantity that may be negative is stated through a known lower bound
instead (``games.positive_multicycle`` maximizes its mean plus the largest
weight).

Everything is exact; no floating point touches a decision anywhere.  A
constraint is a ``Row``: integer coefficients keyed by variable index over
one positive denominator, as the system builders emit them from integer
weights and rational probabilities.  A tableau row is the same kind of
sparse ``{column: int}`` dict over one positive ``int`` denominator, and a
pivot eliminates fraction-free in the rows with an entry in its column
(``pivot``); ``Fraction`` appears only where values leave the tableau.
``verification.solve_linear`` runs Gauss-Jordan on the same ``pivot``,
over sparse ``{column: rational}`` rows that ``int_row`` turns into these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from bwcmdp.rationals import format_rational

EQ = "="
GE = ">="
GT = ">"

_RELATIONS = (EQ, GE, GT)
_ZERO = Fraction(0)
# Values read off the tableau repeat (0 < x <= 1 mostly): equal ones are
# shared, which kept witnesses profit from.
_fraction = lru_cache(maxsize=4096)(Fraction)


class Row(NamedTuple):
    """The constraint ``sum(coeffs[j] * x_j) relation rhs``, every number
    over the positive ``den``; ``coeffs`` maps variable indices to ints
    (zero entries are allowed and ignored)."""

    coeffs: dict[int, int]
    relation: str
    rhs: int = 0
    den: int = 1


def named_row(index: dict[str, int], coeffs: dict, relation: str, rhs) -> Row:
    """The ``Row`` of ``coeffs relation rhs`` given by variable name, with
    rational values, over the variable indices ``index``."""
    if relation not in _RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    values = {}
    for v, a in coeffs.items():
        j = index.get(str(v))
        if j is None:
            raise KeyError(f"constraint references undeclared variable {v!r}")
        a = Fraction(a)
        if a:
            values[j] = a
    rhs = Fraction(rhs)
    den = lcm(rhs.denominator, *(a.denominator for a in values.values()))
    return Row({j: a.numerator * (den // a.denominator) for j, a in values.items()},
               relation, rhs.numerator * (den // rhs.denominator), den)


@dataclass
class LinearSystem:
    """Ordered variables, all >= 0, plus constraints."""

    variables: list[str] = field(default_factory=list)
    constraints: list[Row] = field(default_factory=list)

    def add(self, coeffs: dict, relation: str, rhs) -> None:
        """Append a constraint given by variable name (see ``named_row``)."""
        cached = getattr(self, "_index", None)
        if cached is None or len(cached) != len(self.variables):
            cached = self._index = {v: j for j, v in enumerate(self.variables)}
        self.constraints.append(named_row(cached, coeffs, relation, rhs))

    def has_strict(self) -> bool:
        return any(c.relation == GT for c in self.constraints)

    def dump_text(self) -> str:
        """Human-readable LP text: one constraint per line."""
        lines = [f"vars: {' '.join(self.variables)}  (all >= 0)"]
        for c in self.constraints:
            terms = []
            for j in sorted(c.coeffs):
                a = Fraction(c.coeffs[j], c.den)
                if not a:
                    continue
                sign = "+" if a > 0 else "-"
                mag = abs(a)
                v = self.variables[j]
                t = v if mag == 1 else f"{format_rational(mag)}*{v}"
                terms.append(f"{sign} {t}")
            expr = " ".join(terms) if terms else "0"
            if expr.startswith("+ "):
                expr = expr[2:]
            lines.append(f"{expr} {c.relation} {format_rational(Fraction(c.rhs, c.den))}")
        return "\n".join(lines)


@dataclass(frozen=True)
class LpOutcome:
    """Result of solving a LinearSystem.

    status is "feasible", "infeasible" or "slack-unbounded".  For feasible
    outcomes `assignment` satisfies every constraint exactly and `slack`
    is the maximal shared strict margin (None when the system has no
    strict rows).  For slack-unbounded systems the assignment witnesses an
    arbitrarily large margin (reported at margin 1).
    """

    status: str
    assignment: Optional[dict[str, Fraction]] = None
    slack: Optional[Fraction] = None

    @property
    def strict_feasible(self) -> bool:
        """Whether the original system, strict rows included, is solvable."""
        if self.status == "infeasible":
            return False
        if self.status == "slack-unbounded":
            return True
        return self.slack is None or self.slack > 0


_SLACK = "__y"


def solve(system: LinearSystem) -> LpOutcome:
    """Decide a LinearSystem; see the module docstring for strict-row semantics."""
    variables = system.variables
    n = len(variables)
    if len(set(variables)) != n:
        dup = next(v for v in variables if variables.count(v) > 1)
        raise ValueError(f"duplicate variable {dup!r}")
    if _SLACK in variables:
        raise ValueError(f"variable name {_SLACK!r} is reserved")
    for c in system.constraints:
        if c.coeffs and (min(c.coeffs) < 0 or max(c.coeffs) >= n):
            raise ValueError("constraint references an undeclared variable")

    # The shared slack is variable n; a strict row is read as row - y >= rhs.
    strict = system.has_strict()
    slack = n if strict else None
    if strict:
        variables = [*variables, _SLACK]
    rows = system.constraints
    status, assignment, _ = _simplex(variables, rows, {n: 1} if strict else {}, slack)
    if status == "infeasible":
        return LpOutcome("infeasible")
    if not strict:
        return LpOutcome("feasible", assignment, None)
    if status == "unbounded":
        # Re-solve with the slack pinned at 1 to hand back a concrete witness.
        st2, asg2, _ = _simplex(variables, [*rows, Row({n: 1}, EQ, 1)], {}, slack)
        if st2 != "optimal":
            raise AssertionError("unbounded slack but capped system infeasible")
        asg2.pop(_SLACK)
        return LpOutcome("slack-unbounded", asg2, None)
    y = assignment.pop(_SLACK)
    return LpOutcome("feasible", assignment, y)


def maximize(variables: Sequence[str], constraints: Sequence[Row],
             objective: dict[int, int]) -> tuple[str, Optional[dict], Optional[Fraction]]:
    """Maximize a linear objective, integer coefficients keyed by variable
    index, over {=, >=} ``Row``s in non-negative variables.

    Returns (status, assignment, value) with status in
    {"optimal", "infeasible", "unbounded"}; on "unbounded" the assignment
    is a feasible point from which the objective ray leaves.
    """
    return _simplex(variables, constraints, objective)


def int_row(values: dict) -> tuple[dict, int]:
    """A row ``{column: rational}`` as its nonzero entries times their least
    common denominator, and that denominator (see ``pivot``)."""
    den = lcm(*(v.denominator for v in values.values()))
    return {j: v.numerator * (den // v.denominator) for j, v in values.items() if v}, den


def _simplex(variables, rows, objective, slack=None):
    """Two-phase primal simplex over ``Row``s in non-negative variables.

    Columns: the variables in order, so column j is variable j, then one
    surplus column per non-equality row in row order.  A strict row needs
    the index ``slack`` of the shared slack variable y and is read as
    ``row - y >= rhs``.  Bland's anti-cycling rule is used in both phases,
    so termination is guaranteed.

    Row i is ``tab[i] / dens[i]`` (see ``pivot``), in lowest terms and
    negated when its rhs is negative, with the rhs under key ``total``;
    column ``art0 + i`` is row i's phase-1 artificial.  Zero entries of a
    row or of the objective are dropped on entry.
    """
    nvars = len(variables)
    nrows = len(rows)
    art0 = nvars + sum(1 for r in rows if r.relation != EQ)
    total = art0 + nrows
    surplus = nvars
    tab, dens = [], []
    for i, (coeffs, rel, b, den) in enumerate(rows):
        t = {j: a for j, a in coeffs.items() if a}
        if den != 1:
            g = gcd(den, b, *t.values())
            if g != 1:
                t, b, den = {j: a // g for j, a in t.items()}, b // g, den // g
        if rel != EQ:
            if rel == GT and slack is not None:
                t[slack] = -den
            elif rel != GE:
                raise ValueError(f"unsupported relation {rel!r} at simplex level")
            t[surplus] = -den
            surplus += 1
        if b:
            t[total] = b
            if b < 0:
                t = {j: -a for j, a in t.items()}
        t[art0 + i] = den
        tab.append(t)
        dens.append(den)

    # Phase 1: artificial basis, minimize artificial mass.
    basis = [art0 + i for i in range(nrows)]
    _, obj1 = _optimize(tab, dens, basis, total, {j: -1 for j in range(art0, total)}, 1)
    if obj1.get(total):
        return "infeasible", None, None

    # Evict what artificials can leave the basis, drop the rows whose
    # artificial cannot (redundant all-zero rows), and the artificial
    # columns, which phase 2 never enters.
    for i in range(len(tab)):
        if basis[i] >= art0:
            pivot_col = min((j for j in tab[i] if j < art0), default=None)
            if pivot_col is not None:
                pivot(tab, dens, basis, i, pivot_col)
    kept = [i for i in range(len(tab)) if basis[i] < art0]
    reduced = [_lowest({j: a for j, a in tab[i].items() if not art0 <= j < total}, dens[i])
               for i in kept]
    tab, dens = [t for t, _ in reduced], [den for _, den in reduced]
    basis = [basis[i] for i in kept]

    status = _optimize(tab, dens, basis, total, {j: a for j, a in objective.items() if a}, 1)[0]

    # Only the nonzero basic values of variables become Fractions.
    assignment = dict.fromkeys(variables, _ZERO)
    for i, bvar in enumerate(basis):
        t = tab[i].get(total)
        if t and bvar < nvars:
            assignment[variables[bvar]] = _fraction(t, dens[i])
    value = sum((a * assignment[variables[j]] for j, a in objective.items()), _ZERO)
    if status == "unbounded":
        return "unbounded", assignment, None
    return "optimal", assignment, value


def _optimize(tab, dens, basis, total, obj, den):
    """Price the basic columns out of the objective row ``obj / den`` and
    iterate with it as the last row; return the status and that row."""
    tab.append(obj)
    dens.append(den)
    for i, bvar in enumerate(basis):
        if bvar in tab[-1]:
            tab[-1], dens[-1] = _eliminate(tab[-1], dens[-1], tab[-1][bvar], tab[i], dens[i])
    status = _iterate(tab, dens, basis, total)
    dens.pop()
    return status, tab.pop()


def _iterate(tab, dens, basis, total):
    """Bland's rule: the lowest column with positive reduced cost enters;
    ratio ties leave by the lowest basis index.  Denominators are positive:
    signs are the integers' signs, ratios are compared cross-multiplied."""
    while True:
        enter = min((j for j, c in tab[-1].items() if c > 0 and j != total), default=None)
        if enter is None:
            return "optimal"
        leave = None
        for i in range(len(basis)):
            a = tab[i].get(enter)
            if a is not None and a > 0:
                t = tab[i].get(total, 0)
                if leave is None or t * best_a < best_t * a or (
                        t * best_a == best_t * a and basis[i] < basis[leave]):
                    leave, best_t, best_a = i, t, a
        if leave is None:
            return "unbounded"
        pivot(tab, dens, basis, leave, enter)


def pivot(tab, dens, basis, r, c):
    """Pivot on entry (r, c) and record c as row r's basic column.

    Row i is ``tab[i] / dens[i]``: sparse integer entries over a positive
    denominator sharing no factor with all of them.  Row r, ``R / d`` with
    ``R[c] = p``, becomes ``R / p`` (negated if p < 0), reduced; every
    other row of ``tab``, objective rows included, loses its column c
    entry by exact integer elimination."""
    row = tab[r]
    p = row[c]
    if p < 0:
        row, p = {j: -a for j, a in row.items()}, -p
    tab[r], dens[r] = row, p = _lowest(row, p)
    for i, other in enumerate(tab):
        if i != r and c in other:
            tab[i], dens[i] = _eliminate(other, dens[i], other[c], row, p)
    basis[r] = c


def _eliminate(row, den, a, prow, p):
    """``row/den - (a/den) * prow/p``, where the pivot row ``prow/p`` is 1
    in the column where ``row`` holds ``a``: ``(row*p - a*prow) / (den*p)``
    with gcd(a, p) divided out first, reduced; ``row`` may be updated."""
    g = gcd(a, p)
    a, p = a // g, p // g
    if p != 1:
        row, den = {j: v * p for j, v in row.items()}, den * p
    for j, v in prow.items():
        x = row.get(j, 0) - a * v
        if x:
            row[j] = x
        else:
            del row[j]
    return _lowest(row, den) if den != 1 else (row, den)


def _lowest(row, den):
    """Divide out the factor common to a row's entries and denominator."""
    g = gcd(den, *row.values())
    return (row, den) if g == 1 else ({j: v // g for j, v in row.items()}, den // g)


def residuals(system: LinearSystem, assignment: dict[str, Fraction]) -> list[Fraction]:
    """lhs - rhs for every constraint under an assignment, in order."""
    names = system.variables
    out = []
    for c in system.constraints:
        lhs = sum((a * assignment.get(names[j], _ZERO) for j, a in c.coeffs.items()), 0)
        out.append(Fraction(lhs - c.rhs, c.den))
    return out


def check_assignment(system: LinearSystem, outcome: LpOutcome) -> bool:
    """Exact re-substitution: equalities to zero residue, strict rows to margin >= slack."""
    if outcome.assignment is None:
        return False
    asg = outcome.assignment
    if any(asg.get(v, _ZERO) < 0 for v in system.variables):
        return False
    margin = outcome.slack if outcome.slack is not None else Fraction(1)
    for c, res in zip(system.constraints, residuals(system, asg)):
        if c.relation == EQ and res != 0:
            return False
        if c.relation == GE and res < 0:
            return False
        if c.relation == GT and res < margin:
            return False
    return True
