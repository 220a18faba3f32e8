"""Exact rational linear-system solving by primal simplex with Bland's rule.

The solver decides feasibility of systems mixing equalities, weak and
strict inequalities over rational coefficients.  Strict rows are handled
by one shared slack variable y >= 0: each `expr > rhs` becomes
`expr >= rhs + y`, and y is maximized.  The original system is solvable
iff the relaxation is feasible with optimum y* > 0 (or y unbounded);
a single shared slack suffices because any fully strict solution has a
positive minimum margin, and conversely y* > 0 makes every strict row
strict at once.

Everything is exact; no floating point touches a decision anywhere.  A
tableau row is a sparse ``{column: int}`` dict over one positive ``int``
denominator, and a pivot eliminates fraction-free in the rows with an
entry in its column (``pivot``); ``Fraction`` appears only where values
enter (``int_row``) and leave the tableau.  ``verification.solve_linear``
runs Gauss-Jordan on the same ``pivot``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from bwcmdp.rationals import format_rational

EQ = "="
GE = ">="
GT = ">"

_RELATIONS = (EQ, GE, GT)


@dataclass(frozen=True)
class Constraint:
    coeffs: dict[str, Fraction]
    relation: str
    rhs: Fraction

    @staticmethod
    def build(coeffs: dict, relation: str, rhs) -> "Constraint":
        if relation not in _RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        return Constraint({str(k): Fraction(v) for k, v in coeffs.items() if Fraction(v) != 0},
                          relation, Fraction(rhs))


@dataclass
class LinearSystem:
    """Ordered variables plus constraints; `nonneg` forces all variables >= 0."""

    variables: list[str] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    nonneg: bool = True

    def add(self, coeffs: dict, relation: str, rhs) -> None:
        c = Constraint.build(coeffs, relation, rhs)
        for v in c.coeffs:
            if v not in self._var_set():
                raise KeyError(f"constraint references undeclared variable {v!r}")
        self.constraints.append(c)

    def _var_set(self) -> set[str]:
        cached = getattr(self, "_vars_cache", None)
        if cached is None or len(cached) != len(self.variables):
            cached = set(self.variables)
            self._vars_cache = cached
        return cached

    def has_strict(self) -> bool:
        return any(c.relation == GT for c in self.constraints)

    def dump_text(self) -> str:
        """Human-readable LP text: one constraint per line."""
        lines = [f"vars: {' '.join(self.variables)}" + ("  (all >= 0)" if self.nonneg else "")]
        for c in self.constraints:
            terms = []
            for v in self.variables:
                a = c.coeffs.get(v)
                if not a:
                    continue
                sign = "+" if a > 0 else "-"
                mag = abs(a)
                t = v if mag == 1 else f"{format_rational(mag)}*{v}"
                terms.append(f"{sign} {t}")
            expr = " ".join(terms) if terms else "0"
            if expr.startswith("+ "):
                expr = expr[2:]
            lines.append(f"{expr} {c.relation} {format_rational(c.rhs)}")
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
    seen = set()
    for v in system.variables:
        if v in seen:
            raise ValueError(f"duplicate variable {v!r}")
        seen.add(v)
    if _SLACK in seen:
        raise ValueError(f"variable name {_SLACK!r} is reserved")
    for c in system.constraints:
        for v in c.coeffs:
            if v not in seen:
                raise ValueError(f"constraint references undeclared variable {v!r}")

    strict = system.has_strict()
    variables = list(system.variables) + ([_SLACK] if strict else [])
    rows = []
    for c in system.constraints:
        coeffs = dict(c.coeffs)
        rel = c.relation
        if rel == GT:
            coeffs[_SLACK] = coeffs.get(_SLACK, Fraction(0)) - 1
            rel = GE
        rows.append((coeffs, rel, c.rhs))

    objective = {_SLACK: Fraction(1)} if strict else {}
    nonneg = set(variables) if system.nonneg else ({_SLACK} if strict else set())

    status, assignment, value = _simplex(variables, nonneg, rows, objective)
    if status == "infeasible":
        return LpOutcome("infeasible")
    if not strict:
        assignment.pop(_SLACK, None)
        return LpOutcome("feasible", assignment, None)
    if status == "unbounded":
        # Re-solve with the slack pinned at 1 to hand back a concrete witness.
        capped = [*rows, ({_SLACK: Fraction(1)}, EQ, Fraction(1))]
        st2, asg2, _ = _simplex(variables, nonneg, capped, {})
        if st2 != "optimal":
            raise AssertionError("unbounded slack but capped system infeasible")
        asg2.pop(_SLACK)
        return LpOutcome("slack-unbounded", asg2, None)
    y = assignment.pop(_SLACK)
    return LpOutcome("feasible", assignment, y)


def maximize(variables: Sequence[str], nonneg_vars: set[str],
             constraints: Sequence[tuple[dict, str, Fraction]],
             objective: dict) -> tuple[str, Optional[dict[str, Fraction]], Optional[Fraction]]:
    """Maximize a linear objective over {=, >=} constraints.

    Returns (status, assignment, value) with status in
    {"optimal", "infeasible", "unbounded"}; on "unbounded" the assignment
    is a feasible point from which the objective ray leaves.
    """
    st, asg, val = _simplex(list(variables), set(nonneg_vars), constraints, objective)
    if st == "infeasible":
        return "infeasible", None, None
    return st, asg, val


def int_row(values: dict) -> tuple[dict, int]:
    """A row ``{column: rational}`` as its nonzero entries times their least
    common denominator, and that denominator (see ``pivot``)."""
    den = lcm(*(v.denominator for v in values.values()))
    return {j: v.numerator * (den // v.denominator) for j, v in values.items() if v}, den


def _simplex(variables, nonneg, rows, objective):
    """Two-phase primal simplex on named variables.

    Free variables are split into positive and negative parts; weak
    inequalities get surplus variables.  Bland's anti-cycling rule is used
    in both phases, so termination is guaranteed.

    Row i is ``tab[i] / dens[i]`` (see ``pivot``) with its rhs under key
    ``total``; column ``ncols + i`` is row i's phase-1 artificial.
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
    tab, dens = [], []
    for i, row in enumerate(matrix):
        row[total] = rhs[i]
        t, den = int_row(row if rhs[i] >= 0 else {j: -a for j, a in row.items()})
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

    status = _optimize(tab, dens, basis, total, *int_row(expand(objective)))[0]

    assignment = {v: Fraction(0) for v in cols}
    for i, bvar in enumerate(basis):
        assignment[cols[bvar]] = Fraction(tab[i].get(total, 0), dens[i])
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
    out = []
    for c in system.constraints:
        lhs = sum((a * assignment.get(v, Fraction(0)) for v, a in c.coeffs.items()), Fraction(0))
        out.append(lhs - c.rhs)
    return out


def check_assignment(system: LinearSystem, outcome: LpOutcome) -> bool:
    """Exact re-substitution: equalities to zero residue, strict rows to margin >= slack."""
    if outcome.assignment is None:
        return False
    asg = outcome.assignment
    if system.nonneg and any(asg.get(v, Fraction(0)) < 0 for v in system.variables):
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
