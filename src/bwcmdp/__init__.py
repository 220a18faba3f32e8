"""Decision and synthesis toolkit for multidimensional mean-payoff MDPs.

Decides worst-case, expectation, beyond-almost-sure and beyond-worst-case
threshold queries exactly over the rationals, synthesizes witness
strategies as stochastic Moore machines, and verifies them both exactly
and by seeded simulation.
"""

from bwcmdp.model import Mdp, ThresholdQuery, fixture, normalize, validate
from bwcmdp.systems import Decision, decide

__all__ = [
    "Mdp",
    "ThresholdQuery",
    "Decision",
    "decide",
    "fixture",
    "normalize",
    "validate",
]
