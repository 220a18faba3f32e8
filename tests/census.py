"""Digest every verb's output over seeded instances: decide, region,
synthesize and simulate.

Not a test (pytest does not collect it): a tool for checking that a change
leaves every answer, winning region, strategy file, exit code and seeded
simulation report identical.  Run it on two source trees and diff the
outputs:

    python tests/census.py --src ../parent/src --seeds 1-10 > parent.txt
    python tests/census.py --src src --seeds 1-10 > change.txt
    diff parent.txt change.txt

For each seed, each instance of ``perfbench/gen.py``'s ``corpus(seed,
size)`` (family ``corpus``) and ``games(seed, GAMES)`` (family ``games``,
the wc-games workload's set) is saved once, and every verb runs on that
file in process, through ``cli.main``.  Each line starts with its kind:

- ``decide family seed index mode exit sha256``, in each of ``MODES``:
  the digest of stdout and stderr.
- ``region family seed index mode call sha256``, one per
  ``games.wc_winning_region`` call that a decide makes, direct or through
  ``prune`` and ``mwecs``; ``call`` numbers them from 0.  The digest
  covers the tracked dimensions, the sorted winning states and each losing
  state's spoiler choice.
- ``synthesize seed index mode exit sha256``, corpus only, in each of
  ``SYNTHESIS_MODES``: the digest of the strategy file on exit 0, else of
  stdout and stderr (the decision of a no-instance, the message of an
  error).
- ``simulate seed index mode exit sha256``, one per strategy file written:
  the digest of stdout and stderr of ``simulate`` with ``SIMULATE``'s
  options and the query's ``--mu``.

A call that raises reads ``error ExceptionName`` in place of ``exit
sha256``, and one cut after ``TIMEOUT`` seconds reads ``timeout``; the
census then exits 1.  The modes, options and timeout are fixed so that two
runs digest the same calls.  ``tests/test_cli.py`` pins the digest of each
kind's lines over seeds 1-2 with ``--size 96``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import signal
import sys
import tempfile
import time
from typing import Iterator, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
KINDS = ("decide", "region", "synthesize", "simulate")
MODES = ("wc", "exp", "bas", "bwc-fin", "bwc-inf")
SYNTHESIS_MODES = ("bas", "bwc-fin", "bwc-inf")
SIMULATE = ("--runs", "30", "--horizon", "400", "--seed", "7")
GAMES = 12  # game instances per seed, as in the wc-games workload
TIMEOUT = 10.0  # seconds per CLI call


class _Timeout(BaseException):  # not an Exception: the CLI's handler lets it pass
    pass


def _alarm(signum, frame):
    raise _Timeout


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def census(gen, seeds: Sequence[int], size: int) -> Iterator[str]:
    """The census lines over ``gen.corpus(seed, size)`` and
    ``gen.games(seed, GAMES)`` for each seed, with ``gen`` the module of
    ``perfbench/gen.py`` and ``bwcmdp`` already importable."""
    from bwcmdp import cli, games, jsonio
    from bwcmdp.rationals import format_rational

    solve = games.wc_winning_region
    regions: list[str] = []

    def record(mdp, dims=None, budget=games.DEFAULT_ADVERSARY_BUDGET):
        region = solve(mdp, dims, budget)
        data = (region.dims, sorted(region.states),
                sorted((s, c.choice) for s, c in region.certificates.items()))
        regions.append(_sha256(repr(data).encode()))
        return region

    def run(argv: list[str], written: str | None = None) -> str:
        """``exit sha256`` of ``cli.main(argv)``: the digest of the file
        ``written`` on exit 0, else of stdout and stderr."""
        out, err = io.StringIO(), io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, TIMEOUT)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except _Timeout:
            return "timeout"
        except Exception as exc:
            return f"error {type(exc).__name__}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if code == 0 and written:
            with open(written, "rb") as fh:
                return f"{code} {_sha256(fh.read())}"
        return f"{code} {_sha256((out.getvalue() + err.getvalue()).encode())}"

    previous = signal.signal(signal.SIGALRM, _alarm)
    # prune, mwecs and decide all look the solver up in the games module.
    games.wc_winning_region = record
    try:
        with tempfile.TemporaryDirectory() as work:
            path, strat = os.path.join(work, "mdp.json"), os.path.join(work, "strategy.json")
            for seed in seeds:
                for family, instances, synthesized in (
                        ("corpus", gen.corpus(seed, size), SYNTHESIS_MODES),
                        ("games", gen.games(seed, GAMES), ())):
                    for k, (mdp, q) in enumerate(instances):
                        jsonio.save_mdp(path, mdp)
                        mu, nu = (",".join(map(format_rational, v)) for v in (q.mu, q.nu))
                        query = ["--mdp", path, "--from", q.start, f"--mu={mu}", f"--nu={nu}"]
                        for mode in MODES:
                            regions.clear()
                            result = run(["decide", "--mode", mode, *query])
                            yield f"decide {family} {seed} {k} {mode} {result}"
                            for call, digest in enumerate(regions):
                                yield f"region {family} {seed} {k} {mode} {call} {digest}"
                        for mode in synthesized:
                            if os.path.exists(strat):
                                os.remove(strat)
                            result = run(["synthesize", "--mode", mode, *query, "--out", strat],
                                         strat)
                            yield f"synthesize {seed} {k} {mode} {result}"
                            if result.startswith("0 "):
                                result = run(["simulate", "--mdp", path, "--strategy", strat,
                                              "--from", q.start, *SIMULATE, f"--mu={mu}"])
                                yield f"simulate {seed} {k} {mode} {result}"
    finally:
        games.wc_winning_region = solve
        signal.signal(signal.SIGALRM, previous)


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True, help="the source tree whose bwcmdp is run")
    p.add_argument("--seeds", required=True, type=_seeds, help="seeds, e.g. 1-10,150408211")
    p.add_argument("--size", type=int, default=672, help="corpus instances per seed")
    args = p.parse_args(argv)

    sys.path[:0] = [os.path.abspath(args.src), os.path.join(os.path.dirname(HERE), "perfbench")]
    import gen

    started, counts, failed = time.process_time(), dict.fromkeys(KINDS, 0), 0
    for line in census(gen, args.seeds, args.size):
        print(line, flush=True)
        counts[line.split(" ", 1)[0]] += 1
        failed += line.endswith(" timeout") or " error " in line
    print(f"# {', '.join(f'{n} {kind}' for kind, n in counts.items())} lines; "
          f"{failed} calls raised or timed out; {time.process_time() - started:.1f} s CPU",
          file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
