"""Command-line front end.

Exit codes are a stable API: 0 = yes / success, 1 = no, 2 = error.  All
output is deterministic given identical inputs and seed; JSON goes to
stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from bwcmdp import games, jsonio, linsolve
from bwcmdp.decomposition import mecs, sccs
from bwcmdp.machines import induced_chain
from bwcmdp.model import Mdp, ThresholdQuery, normalize, validate
from bwcmdp.rationals import format_rational, parse_vector
from bwcmdp.systems import Decision, decide
from bwcmdp.verification import expected_mp, simulate, verify_almost_sure, verify_worstcase


def _emit(data) -> None:
    json.dump(data, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _note(args, message: str) -> None:
    if getattr(args, "verbose", False):
        print(message, file=sys.stderr)


def _load(args) -> Mdp:
    mdp = jsonio.load_mdp(args.mdp)
    report = validate(mdp)
    if report:
        raise SystemExit2("invalid MDP:\n  " + "\n  ".join(report))
    _note(args, f"loaded {args.mdp}: {len(mdp.states)} states, {len(mdp.edges)} edges")
    return mdp


class SystemExit2(RuntimeError):
    pass


def _vector(text, mdp: Mdp, zeros: bool = True):
    """The threshold vector ``text``, which must have one component per
    dimension of ``mdp``; when not given, zeros (None unless ``zeros``)."""
    d = mdp.dimension
    if not text:
        return tuple([Fraction(0)] * d) if zeros else None
    vector = parse_vector(text)
    if len(vector) != d:
        raise SystemExit2(f"threshold vectors must have {d} components")
    return vector


def _query(args, mdp: Mdp) -> ThresholdQuery:
    return ThresholdQuery(args.mode, args.frm, _vector(args.mu, mdp), _vector(args.nu, mdp))


def cmd_validate(args) -> int:
    mdp = jsonio.load_mdp(args.mdp)
    report = validate(mdp)
    _emit({"valid": not report, "violations": report})
    return 0 if not report else 1


def cmd_info(args) -> int:
    mdp = _load(args)
    _emit({
        "dimension": mdp.dimension,
        "states": len(mdp.states),
        "controller_states": sum(1 for _, o in mdp.states if o == "controller"),
        "random_states": sum(1 for _, o in mdp.states if o == "random"),
        "edges": len(mdp.edges),
        "max_abs_weight": mdp.max_abs_weight,
        "max_prob_denominator": mdp.max_prob_denominator,
        "initial": mdp.initial,
    })
    return 0


def cmd_decompose(args) -> int:
    mdp = _load(args)
    if args.kind == "scc":
        comps = [sorted(c) for c in sccs(mdp)]
        _emit({"kind": "scc", "components": comps})
    elif args.kind == "mec":
        comps = mecs(mdp)
        _emit({"kind": "mec", "components": [sorted(c.states) for c in comps]})
    else:
        mu = _vector(args.mu, mdp)
        q = ThresholdQuery("wc", mdp.state_ids[0], mu, mu)
        dims = games.nontrivial_dims(q, mdp.max_abs_weight)
        nmdp, _ = normalize(mdp, q)
        comps = games.mwecs(nmdp, dims, args.budget)
        _emit({"kind": "mwec", "components": [sorted(c.states) for c in comps]})
    return 0


def cmd_prune(args) -> int:
    mdp = _load(args)
    mu = _vector(args.mu, mdp)
    q = ThresholdQuery("wc", args.frm, mu, mu)
    dims = games.nontrivial_dims(q, mdp.max_abs_weight)
    nmdp, _ = normalize(mdp, q)
    region = games.wc_winning_region(nmdp, dims, args.budget)
    result = games.prune_to_region(nmdp, args.frm, region)
    losing = {s: dict(c.choice) for s, c in region.certificates.items()}
    if isinstance(result, games.Unsatisfiable):
        _emit({"satisfiable": False, "losing_certificates": losing})
        return 1
    _emit({"satisfiable": True,
           "states": sorted(result.state_ids),
           "edges": sorted(e.eid for e in result.edges),
           "losing_certificates": losing})
    return 0


def cmd_decide(args) -> int:
    mdp = _load(args)
    query = _query(args, mdp)
    dump = None
    if args.dump_lp:
        def dump(system, path=args.dump_lp):
            with open(path, "w") as fh:
                fh.write(system.dump_text() + "\n")
    decision = decide(mdp, query, budget=args.budget, dump_lp=dump)
    _emit(decision.to_json())
    return 0 if decision.answer else 1


def cmd_synthesize(args) -> int:
    from bwcmdp import synthesis

    mdp = _load(args)
    query = _query(args, mdp)
    decision = decide(mdp, query, budget=args.budget)
    if not decision.answer:
        _emit(decision.to_json())
        return 1

    if query.mode == "bas":
        machine, prepared, pstart = synthesis.bas_strategy(mdp, query, decision=decision)
        adapted = synthesis.AdaptedMachine(machine, prepared, mdp, pstart)
        record = jsonio.machine_to_json(mdp, adapted, adapted.start)
    elif query.mode == "bwc-fin":
        machine, prepared, pstart, cap = synthesis.bwc_finite_strategy(
            mdp, query, decision=decision)
        adapted = synthesis.AdaptedMachine(machine, prepared, mdp, pstart)
        record = jsonio.machine_to_json(mdp, adapted, adapted.start)
        record["phase_cap"] = cap
    else:
        strat = synthesis.bwc_infinite_strategy(mdp, query, period=args.period,
                                                decision=decision)
        record = jsonio.procedural_to_json(mdp, strat)

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _emit({"written": args.out, "kind": record["kind"]})
    else:
        _emit(record)
    return 0


def cmd_verify(args) -> int:
    mdp = _load(args)
    strategy = jsonio.load_strategy(mdp, args.strategy)
    if hasattr(strategy, "simulate_runs"):
        raise SystemExit2("procedural strategies are simulate-only; use the simulate command")
    start = args.frm or mdp.initial
    if start is None:
        raise SystemExit2("no start state: pass --from or set the MDP's initial state")
    mu, nu = _vector(args.mu, mdp), _vector(args.nu, mdp)

    if args.check == "wc":
        verdict = verify_worstcase(mdp, strategy, mu, start=start)
        out = {"check": "wc", "ok": verdict.ok}
        if not verdict.ok:
            out["dimension"] = verdict.dim + 1
            out["witness_cycle"] = list(verdict.witness_cycle or ())
        _emit(out)
        return 0 if verdict.ok else 1
    if args.check == "as":
        ok = verify_almost_sure(mdp, strategy, mu, start=start)
        _emit({"check": "as", "ok": ok})
        return 0 if ok else 1
    exp = expected_mp(induced_chain(mdp, strategy, start))
    ok = all(e > n for e, n in zip(exp, nu))
    _emit({"check": "exp", "ok": ok, "expectation": [format_rational(e) for e in exp]})
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    mdp = _load(args)
    strategy = jsonio.load_strategy(mdp, args.strategy)
    start = args.frm or mdp.initial
    if start is None:
        raise SystemExit2("no start state: pass --from or set the MDP's initial state")
    mu = _vector(args.mu, mdp, zeros=False)
    report = simulate(mdp, strategy, start, horizon=args.horizon, runs=args.runs,
                      seed=args.seed, mu=mu)
    _emit(report.to_json())
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call: ``parse_args`` fills a fresh namespace each time, and
    no option has a mutable default."""
    p = argparse.ArgumentParser(prog="bwcmdp",
                                description="Multidimensional mean-payoff MDP toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, frm=False):
        sp.add_argument("--mdp", required=True, help="MDP JSON file")
        sp.add_argument("--budget", type=int, default=games.DEFAULT_ADVERSARY_BUDGET,
                        help="adversary enumeration cap")
        sp.add_argument("-v", "--verbose", action="store_true",
                        help="progress notes on stderr")
        if frm:
            sp.add_argument("--from", dest="frm", required=True, help="start state")

    sp = sub.add_parser("validate", help="check model invariants")
    sp.add_argument("--mdp", required=True)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("info", help="dimension, weight and probability metrics")
    common(sp)
    sp.set_defaults(fn=cmd_info)

    sp = sub.add_parser("decompose", help="SCC / MEC / MWEC decomposition")
    common(sp)
    sp.add_argument("--kind", choices=["scc", "mec", "mwec"], default="mec")
    sp.add_argument("--mu", help="worst-case threshold for MWECs (default zeros)")
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("prune", help="restrict to worst-case-winning reachable states")
    common(sp, frm=True)
    sp.add_argument("--mu", help="worst-case threshold (default zeros)")
    sp.set_defaults(fn=cmd_prune)

    sp = sub.add_parser("decide", help="decide a threshold query (exit 0 yes, 1 no)")
    common(sp, frm=True)
    sp.add_argument("--mode", required=True, choices=["wc", "exp", "bas", "bwc-fin", "bwc-inf"])
    sp.add_argument("--mu", help="worst-case threshold vector, e.g. 0,0")
    sp.add_argument("--nu", help="expectation threshold vector, e.g. 0,9")
    sp.add_argument("--dump-lp", help="write the built linear system to this file")
    sp.set_defaults(fn=cmd_decide)

    sp = sub.add_parser("synthesize", help="synthesize a witness strategy")
    common(sp, frm=True)
    sp.add_argument("--mode", required=True, choices=["bas", "bwc-fin", "bwc-inf"])
    sp.add_argument("--mu")
    sp.add_argument("--nu")
    sp.add_argument("--out", help="write the strategy JSON here")
    sp.add_argument("--period", type=int, default=2048, help="phase length for bwc-inf")
    sp.set_defaults(fn=cmd_synthesize)

    sp = sub.add_parser("verify", help="exact verification of a strategy file")
    common(sp)
    sp.add_argument("--from", dest="frm", help="start state (defaults to the MDP's initial)")
    sp.add_argument("--strategy", required=True)
    sp.add_argument("--check", required=True, choices=["wc", "as", "exp"])
    sp.add_argument("--mu")
    sp.add_argument("--nu")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("simulate", help="seeded Monte Carlo simulation")
    common(sp)
    sp.add_argument("--from", dest="frm", help="start state (defaults to the MDP's initial)")
    sp.add_argument("--strategy", required=True)
    sp.add_argument("--runs", type=int, default=1000)
    sp.add_argument("--horizon", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mu", help="threshold for the exceedance fraction")
    sp.set_defaults(fn=cmd_simulate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # exit 1 means "no": any failure is an error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
