"""Digest every `synthesize` output over seeded corpus instances.

Not a test (pytest does not collect it): a tool for checking that a change
to the synthesis code leaves its outputs byte-identical.  Run it on two
source trees and diff the outputs:

    python tests/synthesis_census.py --src ../parent/src --seeds 1-20 > parent.txt
    python tests/synthesis_census.py --src src --seeds 1-20 > change.txt
    diff parent.txt change.txt

Each line is ``seed index mode exit sha256``: the digest of the strategy
file when `synthesize` exits 0, else of its stdout and stderr (the
decision of a no-instance, the message of an error).  The instances are
``perfbench/gen.py``'s ``corpus(seed, size)``.  A call that runs past
``TIMEOUT`` seconds is cut and its line reads ``timeout`` instead; no
call over seeds 1-20 comes near it.  The modes and the timeout are fixed
(``MODES``, ``TIMEOUT``) so that two runs digest the same calls.
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

HERE = os.path.dirname(os.path.abspath(__file__))
MODES = ("bas", "bwc-fin", "bwc-inf")
TIMEOUT = 10.0  # seconds per synthesize call


class _Timeout(BaseException):  # not an Exception: the CLI's handler lets it pass
    pass


def _alarm(signum, frame):
    raise _Timeout


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True, help="the source tree whose bwcmdp is run")
    p.add_argument("--seeds", required=True, type=_seeds, help="corpus seeds, e.g. 1-20,150408211")
    p.add_argument("--size", type=int, default=672, help="instances per seed")
    args = p.parse_args(argv)

    sys.path[:0] = [os.path.abspath(args.src), os.path.join(os.path.dirname(HERE), "perfbench")]
    import gen
    from bwcmdp import cli, jsonio
    from bwcmdp.rationals import format_rational

    started, synthesized = time.process_time(), 0
    signal.signal(signal.SIGALRM, _alarm)
    with tempfile.TemporaryDirectory() as work:
        path, strat = os.path.join(work, "mdp.json"), os.path.join(work, "strategy.json")
        for seed in args.seeds:
            for k, (mdp, q) in enumerate(gen.corpus(seed, args.size)):
                jsonio.save_mdp(path, mdp)
                mu, nu = (",".join(map(format_rational, v)) for v in (q.mu, q.nu))
                for mode in MODES:
                    if os.path.exists(strat):
                        os.remove(strat)
                    out, err = io.StringIO(), io.StringIO()
                    signal.setitimer(signal.ITIMER_REAL, TIMEOUT)
                    try:
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = cli.main(["synthesize", "--mdp", path, "--mode", mode,
                                             "--from", q.start, f"--mu={mu}", f"--nu={nu}",
                                             "--out", strat])
                    except _Timeout:
                        print(seed, k, mode, "timeout", flush=True)
                        continue
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                    if code == 0:
                        data = open(strat, "rb").read()
                        synthesized += 1
                    else:
                        data = (out.getvalue() + err.getvalue()).encode()
                    print(seed, k, mode, code, hashlib.sha256(data).hexdigest(), flush=True)
    print(f"# {synthesized} records in {time.process_time() - started:.1f} s CPU",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
