"""Digest every worst-case region that deciding solves over seeded instances.

Not a test (pytest does not collect it): a tool for checking that a change
to the game code leaves every winning region and every spoiler identical.
Run it on two source trees and diff the outputs:

    python tests/region_census.py --src ../parent/src --seeds 1-10 > parent.txt
    python tests/region_census.py --src src --seeds 1-10 > change.txt
    diff parent.txt change.txt

Each line is ``family seed index mode call sha256``, one per
``games.wc_winning_region`` call that ``systems.decide`` makes, direct or
through ``prune`` and ``mwecs``.  ``family`` is ``corpus`` (the instances
of ``perfbench/gen.py``'s ``corpus(seed, size)``) or ``games`` (those of
``games(seed, GAMES)``, the wc-games workload's set).  ``call`` numbers the
region calls of one decide from 0.  The digest covers the tracked
dimensions, the sorted winning states and each losing state's spoiler
choice.  When a decide raises, its last line reads ``error
ExceptionName`` in place of the digest, and the census exits 1.
``tests/test_games.py`` pins the digest of the whole output over seeds
1-2 with ``--size 96``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from typing import Iterator, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
MODES = ("wc", "bwc-fin", "bwc-inf")  # the modes that solve the game
GAMES = 12  # game instances per seed, as in the wc-games workload


def census(gen, seeds: Sequence[int], size: int) -> Iterator[str]:
    """The census lines over ``gen.corpus(seed, size)`` and
    ``gen.games(seed, GAMES)`` for each seed, with ``gen`` the module of
    ``perfbench/gen.py`` and ``bwcmdp`` already importable."""
    from bwcmdp import games, systems
    from bwcmdp.model import ThresholdQuery

    solve = games.wc_winning_region
    digests: list[str] = []

    def record(mdp, dims=None, budget=games.DEFAULT_ADVERSARY_BUDGET):
        region = solve(mdp, dims, budget)
        data = (region.dims, sorted(region.states),
                sorted((s, c.choice) for s, c in region.certificates.items()))
        digests.append(hashlib.sha256(repr(data).encode()).hexdigest())
        return region

    # prune, mwecs and decide all look the solver up in the games module.
    games.wc_winning_region = record
    try:
        for seed in seeds:
            for family, instances in (("corpus", gen.corpus(seed, size)),
                                      ("games", gen.games(seed, GAMES))):
                for k, (mdp, q) in enumerate(instances):
                    for mode in MODES:
                        digests.clear()
                        try:
                            systems.decide(mdp, ThresholdQuery(mode, q.start, q.mu, q.nu))
                        except Exception as exc:  # reported as a line of its own
                            digests.append(f"error {type(exc).__name__}")
                        for call, digest in enumerate(digests):
                            yield f"{family} {seed} {k} {mode} {call} {digest}"
    finally:
        games.wc_winning_region = solve


def main(argv=None) -> int:
    from synthesis_census import _seeds

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True, help="the source tree whose bwcmdp is run")
    p.add_argument("--seeds", required=True, type=_seeds, help="seeds, e.g. 1-10,150408211")
    p.add_argument("--size", type=int, default=672, help="corpus instances per seed")
    args = p.parse_args(argv)

    sys.path[:0] = [os.path.abspath(args.src), os.path.join(os.path.dirname(HERE), "perfbench")]
    import gen

    started, lines, errors = time.process_time(), 0, 0
    for line in census(gen, args.seeds, args.size):
        print(line)
        lines += 1
        errors += " error " in line
    print(f"# {lines} region calls, {errors} decides raised, in "
          f"{time.process_time() - started:.1f} s CPU", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
