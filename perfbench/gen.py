"""Seeded input generators for the benchmark workloads.

Every input is drawn from ``random.Random`` streams seeded by the
workload seed (and, for the game graphs, a fixed seed), so one seed
always yields the same inputs.  Nothing here calls into ``bwcmdp`` beyond
building ``Mdp`` values and queries.
"""

from __future__ import annotations

import random
from fractions import Fraction

from bwcmdp.model import Mdp, ThresholdQuery


def _split_probability(rng: random.Random, parts: int, max_den: int) -> list[Fraction]:
    """``parts`` positive rationals with a common denominator <= max_den, summing to 1."""
    den = rng.randint(parts, max(parts, max_den))
    cuts = sorted(rng.sample(range(1, den), parts - 1))
    bounds = [0] + cuts + [den]
    return [Fraction(b - a, den) for a, b in zip(bounds, bounds[1:])]


# Corpus shapes (states, dimensions, random states) in a fixed rotation,
# so every seed's corpus has the same make-up and only the graphs,
# weights, probabilities and thresholds vary with the seed.
CORPUS_SHAPES = tuple((n, d, r) for n in range(2, 7) for d in range(1, 4)
                      for r in range(min(2, n - 1) + 1))


def corpus_mdp(rng: random.Random, n: int, d: int, n_rand: int) -> Mdp:
    """One MDP in the property-corpus envelope: ``n`` states (2-6), ``d``
    dimensions (1-3), ``n_rand`` random states (at most 2), 1-3 edges per
    state, weights in [-3, 3], probability denominators at most 4."""
    names = [f"q{i}" for i in range(n)]
    owners = ["random"] * n_rand + ["controller"] * (n - n_rand)
    rng.shuffle(owners)
    edges, probs = [], {}
    for name, owner in zip(names, owners):
        targets = [rng.choice(names) for _ in range(rng.randint(1, 3))]
        split = _split_probability(rng, len(targets), 4) if owner == "random" else None
        for k, target in enumerate(targets):
            eid = len(edges)
            edges.append((eid, name, target, [rng.randint(-3, 3) for _ in range(d)]))
            if split is not None:
                probs[eid] = split[k]
    return Mdp.build(d, list(zip(names, owners)), edges, probs, initial=names[0])


def _threshold(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4)))


def corpus(seed: int, size: int) -> list[tuple[Mdp, ThresholdQuery]]:
    """``size`` corpus MDPs, shapes in CORPUS_SHAPES order, each with a
    random start state and thresholds mu, nu (numerators in [-12, 12],
    denominators in 1..4).  The query's mode is a placeholder: the
    workloads pick the modes."""
    rng = random.Random(seed)
    out = []
    for k in range(size):
        mdp = corpus_mdp(rng, *CORPUS_SHAPES[k % len(CORPUS_SHAPES)])
        d = mdp.dimension
        start = rng.choice(mdp.state_ids)
        mu = tuple(_threshold(rng) for _ in range(d))
        nu = tuple(_threshold(rng) for _ in range(d))
        out.append((mdp, ThresholdQuery("bwc-fin", start, mu, nu)))
    return out


def game_mdp(shape: random.Random, rng: random.Random, n: int = 12,
             n_random: int = 6, max_weight: int = 4) -> Mdp:
    """A game-shaped MDP: ``n`` states, ``n_random`` of them random, every
    state with out-degree 2, two dimensions, weights in [-max_weight,
    max_weight].  The random states thus admit 2**n_random memoryless
    spoilers.

    ``shape`` draws the graph and the weights, everything the worst-case
    game looks at; ``rng`` draws the probabilities.
    """
    names = [f"g{i}" for i in range(n)]
    owners = ["controller"] + ["random"] * n_random + ["controller"] * (n - 1 - n_random)
    tail = owners[1:]
    shape.shuffle(tail)
    owners[1:] = tail
    # The last controller state keeps a (1, 1) self-loop: it wins every
    # spoiler, so the enumeration never stops early and each instance
    # costs all 2**n_random spoilers.
    safe = max(i for i, o in enumerate(owners) if o == "controller")
    edges, probs = [], {}
    for i, (name, owner) in enumerate(zip(names, owners)):
        # One edge to the next state keeps every state reachable from g0.
        targets = [names[(i + 1) % n], name if i == safe else shape.choice(names)]
        split = _split_probability(rng, 2, 4) if owner == "random" else None
        for k, target in enumerate(targets):
            eid = len(edges)
            weight = ([1, 1] if i == safe and k == 1 else
                      [shape.randint(-max_weight, max_weight) for _ in range(2)])
            edges.append((eid, name, target, weight))
            if split is not None:
                probs[eid] = split[k]
    return Mdp.build(2, list(zip(names, owners)), edges, probs, initial=names[0])


GAME_SHAPE_SEED = 1504_08211


def games(seed: int, size: int) -> list[tuple[Mdp, ThresholdQuery]]:
    """``size`` game MDPs started at g0.  The graphs, weights and
    worst-case thresholds mu in {-1, 0}^2 come from the fixed
    GAME_SHAPE_SEED, so the spoiler enumeration costs the same on every
    seed; the probabilities and the expectation thresholds nu (components
    in {-1, -1/2, 0, 1/2, 1}) come from ``seed``."""
    shape = random.Random(GAME_SHAPE_SEED)
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        mdp = game_mdp(shape, rng)
        mu = tuple(Fraction(shape.choice((-1, 0))) for _ in range(2))
        nu = tuple(Fraction(rng.randint(-2, 2), 2) for _ in range(2))
        out.append((mdp, ThresholdQuery("wc", "g0", mu, nu)))
    return out
