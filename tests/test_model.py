"""Model, validation, normalization and fixture tests."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from bwcmdp.model import (Mdp, ThresholdQuery, detect_trivial, fixture, negate_weights,
                          normalize, validate)
from bwcmdp.rationals import format_rational, parse_rational, parse_vector


# -- rationals --------------------------------------------------------------

@given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
def test_rational_round_trip(num, den):
    r = F(num, den)
    assert parse_rational(format_rational(r)) == r


def test_rational_parse_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert parse_rational(" 99/10 ") == F(99, 10)
    with pytest.raises(ValueError):
        parse_rational("0.5")
    assert parse_vector("0,9") == (F(0), F(9))


# -- fixtures ---------------------------------------------------------------

def test_fixture_shapes(run_ex, run_ex_bas, task_ex, approx_ex):
    assert len(run_ex.states) == 4 and len(run_ex.edges) == 7 and run_ex.dimension == 2
    assert len(task_ex.states) == 6 and len(task_ex.edges) == 12 and task_ex.dimension == 2
    assert len(approx_ex.states) == 2 and len(approx_ex.edges) == 4 and approx_ex.dimension == 2
    assert len(run_ex_bas.edges) == 6


def test_fixtures_validate():
    for name in ("RUN_EX", "RUN_EX_BAS", "TASK_EX", "APPROX_EX"):
        assert validate(fixture(name)) == []


def test_unknown_fixture():
    with pytest.raises(KeyError):
        fixture("NOPE")


def test_max_abs_weight(run_ex, task_ex):
    assert run_ex.max_abs_weight == 80
    assert task_ex.max_abs_weight == 64
    zero = Mdp.build(1, [("a", "controller")], [(0, "a", "a", [0])])
    assert zero.max_abs_weight == 0


def test_prob_denominator_metric(run_ex):
    assert run_ex.max_prob_denominator == 2


# -- validation -------------------------------------------------------------

def test_validate_zero_probability(run_ex):
    probs = dict(run_ex.probabilities)
    probs[5] = F(0)
    probs[6] = F(1)
    bad = Mdp(run_ex.dimension, run_ex.states, run_ex.edges, probs, run_ex.initial)
    report = validate(bad)
    assert any("zero-probability edge at v" in r for r in report)


def test_validate_missing_successor(run_ex):
    edges = tuple(e for e in run_ex.edges if e.eid != 2)
    bad = Mdp(run_ex.dimension, run_ex.states, edges, dict(run_ex.probabilities), run_ex.initial)
    report = validate(bad)
    assert any("t has no successor" in r for r in report)


def test_validate_probability_sum(run_ex):
    probs = dict(run_ex.probabilities)
    probs[5] = F(1, 3)
    bad = Mdp(run_ex.dimension, run_ex.states, run_ex.edges, probs, run_ex.initial)
    assert any("sum to" in r for r in validate(bad))


def test_validate_weight_length(run_ex):
    edges = run_ex.edges[:-1] + (run_ex.edges[-1].__class__(99, "s", "t", (1,)),)
    bad = Mdp(run_ex.dimension, run_ex.states, edges, dict(run_ex.probabilities), run_ex.initial)
    assert any("length" in r for r in validate(bad))


# -- normalization ----------------------------------------------------------

def _q(mode, mu, nu, start="s"):
    return ThresholdQuery.build(mode, start, mu, nu)


def test_normalize_identity(run_ex):
    q = _q("bwc-fin", [0, 0], [0, 9])
    m2, q2 = normalize(run_ex, q)
    assert [e.weight for e in m2.edges] == [e.weight for e in run_ex.edges]
    assert m2 is run_ex  # mu = 0: nothing to copy
    assert q2.mu == (F(0), F(0)) and q2.nu == (F(0), F(9))


def test_normalize_scaling():
    m = Mdp.build(1, [("a", "controller")], [(0, "a", "a", [1])])
    m2, q2 = normalize(m, _q("bwc-fin", [F(1, 2)], [F(3, 4)], "a"))
    assert m2.edges[0].weight == (1,)          # 1*2 - 1
    assert q2.nu == (F(1, 2),)                 # 3/4*2 - 1


def test_normalize_clamp():
    m = Mdp.build(1, [("a", "controller")], [(0, "a", "a", [3])])
    m2, q2 = normalize(m, _q("bwc-fin", [F(2)], [F(-5)], "a"))
    assert m2.edges[0].weight == (1,)
    assert q2.nu == (F(0),)                    # clamped: worst case implies it


def test_normalize_exp_mode_unclamped():
    # mu is unused in expectation-only mode; the clamp would change answers.
    m = Mdp.build(1, [("a", "controller")], [(0, "a", "a", [-1])])
    m2, q2 = normalize(m, _q("exp", [F(-1)], [F(-2)], "a"))
    assert m2.edges[0].weight == (-1,)
    assert m2 is m
    assert q2.nu == (F(-2),)


def test_normalize_idempotent(run_ex):
    q = _q("bwc-inf", [F(1, 2), F(-3)], [F(9, 4), F(1)])
    m1, q1 = normalize(run_ex, q)
    m2, q2 = normalize(m1, q1)
    assert [e.weight for e in m2.edges] == [e.weight for e in m1.edges]
    assert m2 is m1
    assert q2 == q1


# -- trivial components -----------------------------------------------------

def test_detect_trivial(task_ex):
    W = task_ex.max_abs_weight
    assert W == 64
    q = _q("bwc-fin", [F(-49, 4), F(-64)], [0, 0], "0")
    assert detect_trivial(q, W) == {1}
    assert detect_trivial(_q("wc", [0, 0], [0, 0]), W) == set()
    assert detect_trivial(_q("wc", [-100, -100], [0, 0]), W) == {0, 1}


def test_negate_weights(task_ex):
    neg = negate_weights(task_ex)
    assert neg.edge_by_id[4].weight == (-30, -2)
    halved = negate_weights(task_ex, halve=True)
    assert halved.edge_by_id[4].weight == (-15, -1)
    assert halved.max_abs_weight == 32
    odd = Mdp.build(1, [("a", "controller")], [(0, "a", "a", [3])])
    with pytest.raises(ValueError):
        negate_weights(odd, halve=True)
