"""Exact simplex tests: examples, resubstitution, and the vertex oracle."""

import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest

from bwcmdp.linsolve import (LinearSystem, LpOutcome, Row, check_assignment, maximize,
                             named_row, residuals, solve)
from oracles import vertex_feasible


def test_equality_with_strict():
    s = LinearSystem(variables=["x"])
    s.add({"x": 1}, "=", 1)
    s.add({"x": 1}, ">", 0)
    out = solve(s)
    assert out.status == "feasible" and out.slack == 1
    assert out.assignment["x"] == 1
    assert out.strict_feasible
    assert check_assignment(s, out)


def test_contradictory_strict():
    s = LinearSystem(variables=["x"])
    s.add({"x": 1}, ">", 0)
    s.add({"x": -1}, ">", 0)
    out = solve(s)
    assert out.status == "feasible" and out.slack == 0
    assert not out.strict_feasible


def test_slack_unbounded():
    s = LinearSystem(variables=["x"])
    s.add({"x": 1}, ">", 0)
    out = solve(s)
    assert out.status == "slack-unbounded"
    assert out.strict_feasible
    assert check_assignment(s, out)


def test_infeasible_equalities():
    s = LinearSystem(variables=["x"])
    s.add({"x": 1}, "=", 1)
    s.add({"x": 1}, "=", 2)
    assert solve(s).status == "infeasible"


def test_undeclared_variable_rejected():
    s = LinearSystem(variables=["x"])
    with pytest.raises(KeyError):
        s.add({"zz": 1}, "=", 0)


def test_unbounded_objective():
    status, asg, val = maximize(["x"], [Row({0: 1}, ">=", 0)], {0: 1})
    assert status == "unbounded" and asg is not None


def test_residuals_exact():
    s = LinearSystem(variables=["a", "b"])
    s.add({"a": F(1, 3), "b": 1}, "=", F(5, 6))
    s.add({"a": 1}, ">=", F(1, 2))
    out = solve(s)
    assert out.status == "feasible"
    res = residuals(s, out.assignment)
    assert res[0] == 0 and res[1] >= 0


def test_check_assignment_rejects_each_violation():
    s = LinearSystem(variables=["x", "y"])
    s.add({"x": 1, "y": 1}, "=", 2)
    s.add({"x": 1}, ">=", F(1, 2))
    s.add({"y": 1}, ">", 0)
    assert check_assignment(s, LpOutcome("feasible", {"x": F(1), "y": F(1)}, F(1)))
    for outcome in (
        LpOutcome("infeasible"),  # no assignment
        LpOutcome("feasible", {"x": F(3), "y": F(-1)}, F(1)),  # a negative variable
        LpOutcome("feasible", {"x": F(1), "y": F(2)}, F(1)),  # x + y = 3
        LpOutcome("feasible", {"x": F(1, 4), "y": F(7, 4)}, F(1)),  # x < 1/2
        LpOutcome("feasible", {"x": F(1), "y": F(1)}, F(2)),  # y = 1, below the slack 2
    ):
        assert not check_assignment(s, outcome)


def _random_system(rng: random.Random) -> LinearSystem:
    nvars = rng.randint(1, 4)
    sys = LinearSystem(variables=[f"v{i}" for i in range(nvars)])
    for _ in range(rng.randint(1, 6)):
        coeffs = {f"v{i}": F(rng.randint(-3, 3), rng.choice([1, 1, 2]))
                  for i in range(nvars)}
        rel = rng.choice(["=", ">=", ">="])
        rhs = F(rng.randint(-4, 4), rng.choice([1, 2]))
        sys.add(coeffs, rel, rhs)
    return sys


def test_feasibility_agrees_with_vertex_enumeration():
    rng = random.Random(2024)
    for _ in range(120):
        sys = _random_system(rng)
        got = solve(sys).status != "infeasible"
        assert got == vertex_feasible(sys)


def test_dump_text():
    s = LinearSystem(variables=["x", "y"])
    s.add({"x": 1, "y": F(-1, 2)}, ">", F(3))
    text = s.dump_text()
    assert "x" in text and "> 3" in text and "1/2*y" in text


def _random_rows(rng: random.Random):
    """A random `_simplex` input: non-negative variables, =/>= rows, and
    an objective that is sometimes empty."""
    nvars = rng.randint(1, 5)
    variables = [f"v{i}" for i in range(nvars)]
    rows = []
    for _ in range(rng.randint(1, 6)):
        coeffs = {v: F(rng.randint(-3, 3), rng.choice([1, 1, 2]))
                  for v in variables if rng.random() < 0.7}
        rows.append((coeffs, rng.choice(["=", ">=", ">="]), F(rng.randint(-4, 4), rng.choice([1, 2]))))
    objective = {v: F(rng.randint(-2, 2)) for v in variables if rng.random() < 0.5}
    return variables, rows, objective


def _redundant_rows(rng: random.Random):
    """Equalities plus a combination of two of them: after phase 1 the
    combination's artificial stays basic on an all-zero row."""
    variables, rows, objective = _random_rows(rng)
    eqs = [(c, F(rng.randint(0, 4))) for c, _, _ in rows[:2]]
    rows = [(c, "=", b) for c, b in eqs] + rows[2:]
    (c1, b1), (c2, b2) = eqs[0], eqs[-1]
    combo = {v: c1.get(v, 0) + 2 * c2.get(v, 0) for v in set(c1) | set(c2)}
    rows.append((combo, "=", b1 + 2 * b2))
    return variables, rows, objective


def _same_as_dense(variables, rows, objective, sparse=None):
    """Check the integer kernel against both references on named rows
    with rational values and an integer objective."""
    index = {v: j for j, v in enumerate(variables)}
    int_rows = [named_row(index, c, rel, b) for c, rel, b in rows]
    int_objective = {index[v]: int(a) for v, a in objective.items()}
    return _same_as_references((variables, int_rows, int_objective), rows, objective, sparse)


def _same_as_references(kernel_args, rows, objective, sparse=None):
    """Run the integer kernel on ``kernel_args`` (its own signature) and
    the dense and Fraction-row references (every variable non-negative)
    on the same system as named rows: the same result, every pivot checked (see
    ``_same_as_fraction_rows``)."""
    import copy

    from bwcmdp import linsolve
    from oracles import dense_simplex

    variables = kernel_args[0]
    got = _same_as_fraction_rows(sparse or linsolve._simplex, kernel_args, rows, objective)
    want = dense_simplex(list(variables), set(variables), copy.deepcopy(rows), dict(objective))
    assert got == want
    if got[1] is not None:
        assert all(type(v) is F for v in got[1].values())
    return got[0]


def _same_as_fraction_rows(simplex, kernel_args, rows, objective):
    """Run ``simplex`` and the Fraction-row reference on one input: the
    same result and the same basis after every pivot, and every integer
    row, the objective's too, over a positive denominator that shares no
    factor with all its entries."""
    import copy

    import oracles
    from bwcmdp import linsolve

    got_bases, want_bases = [], []
    int_pivot, fraction_pivot = linsolve.pivot, oracles.fraction_pivot

    def checked(tab, dens, basis, r, c):
        int_pivot(tab, dens, basis, r, c)
        assert len(tab) == len(dens)
        assert all(den > 0 and math.gcd(den, *row.values()) == 1 for row, den in zip(tab, dens))
        got_bases.append(list(basis))

    def recorded(tab, obj, basis, r, c):
        fraction_pivot(tab, obj, basis, r, c)
        want_bases.append(list(basis))

    variables = kernel_args[0]
    with mock.patch.object(linsolve, "pivot", checked), \
            mock.patch.object(oracles, "fraction_pivot", recorded):
        got = simplex(*copy.deepcopy(kernel_args))
        want = oracles.fraction_simplex(list(variables), set(variables), copy.deepcopy(rows),
                                        dict(objective))
    assert got == want and got_bases == want_bases
    return got


def _as_named(variables, row, slack):
    """A kernel ``Row`` as the named row the Fraction-row simplex takes: a
    strict row ``row - y >= rhs`` for the slack variable ``slack``."""
    coeffs = {variables[j]: F(a, row.den) for j, a in row.coeffs.items() if a}
    relation = row.relation
    if relation == ">":
        coeffs[variables[slack]] = F(-1)
        relation = ">="
    return coeffs, relation, F(row.rhs, row.den)


def test_sparse_simplex_matches_dense_tableau(monkeypatch):
    from bwcmdp import linsolve
    from bwcmdp.decomposition import mecs
    from bwcmdp.systems import _flow_system, ensure_controller_start
    from conftest import random_mdp

    rng = random.Random(808)
    statuses = []
    for _ in range(400):
        statuses.append(_same_as_dense(*_random_rows(rng)))
    for _ in range(100):
        statuses.append(_same_as_dense(*_redundant_rows(rng)))
    assert all(statuses.count(s) >= 50 for s in ("optimal", "infeasible", "unbounded"))

    # Flow systems, solved through `solve` (strict rows, slack, capped re-solve).
    real = linsolve._simplex

    def both(variables, rows, objective, slack=None):
        args = (variables, rows, objective, slack)
        named = [_as_named(variables, row, slack) for row in rows]
        _same_as_references(args, named, {variables[j]: F(a) for j, a in objective.items()},
                            sparse=real)
        return real(*args)

    monkeypatch.setattr(linsolve, "_simplex", both)
    solved = 0
    for _ in range(40):
        mdp = random_mdp(rng)
        mdp, start = ensure_controller_start(mdp, rng.choice(mdp.state_ids))
        nu = [F(rng.randint(-6, 6), rng.choice([1, 2])) for _ in range(mdp.dimension)]
        for positivity in (False, True):
            linsolve.solve(_flow_system(mdp, start, nu, mecs(mdp), positivity))
            solved += 1
    assert solved == 80
