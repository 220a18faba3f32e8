"""Command-line interface: exit codes, JSON round trips, determinism."""

import dataclasses
import hashlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import bwcmdp
from bwcmdp import cli, games, jsonio
from bwcmdp.cli import main
from bwcmdp.model import Edge, Mdp, ThresholdQuery, fixture, validate


@pytest.fixture(scope="module")
def run_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("mdps") / "run_ex.json"
    jsonio.save_mdp(str(p), fixture("RUN_EX"))
    return str(p)


@pytest.fixture(scope="module")
def bas_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("mdps") / "run_ex_bas.json"
    jsonio.save_mdp(str(p), fixture("RUN_EX_BAS"))
    return str(p)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mdp_json_round_trip(tmp_path):
    for name in ("RUN_EX", "RUN_EX_BAS", "TASK_EX", "APPROX_EX"):
        mdp = fixture(name)
        path = tmp_path / f"{name}.json"
        jsonio.save_mdp(str(path), mdp)
        back = jsonio.load_mdp(str(path))
        assert back == mdp
        assert validate(back) == []


def test_decide_exit_codes(capsys, run_path, bas_path):
    code, out, _ = run_cli(capsys, "decide", "--mdp", run_path, "--mode", "bwc-fin",
                           "--from", "s", "--mu", "0,0", "--nu", "0,9")
    assert code == 0 and json.loads(out)["answer"] == "yes"
    code, out, _ = run_cli(capsys, "decide", "--mdp", run_path, "--mode", "bwc-fin",
                           "--from", "s", "--mu", "0,0", "--nu", "9,9")
    assert code == 1 and json.loads(out)["answer"] == "no"
    code, out, _ = run_cli(capsys, "decide", "--mdp", bas_path, "--mode", "bas",
                           "--from", "s", "--mu", "0,0", "--nu", "99/10,99/10")
    assert code == 0


def test_decide_error_exit(capsys, run_path):
    code, _, err = run_cli(capsys, "decide", "--mdp", run_path, "--mode", "bwc-fin",
                           "--from", "s", "--mu", "0", "--nu", "0,9")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "decide", "--mdp", "/nonexistent.json",
                           "--mode", "wc", "--from", "s")
    assert code == 2


def test_decide_budget_exit(capsys, run_path):
    # RUN_EX's random state v has two edges: two spoilers, over a budget of 1.
    code, out, err = run_cli(capsys, "decide", "--mdp", run_path, "--mode", "bwc-fin",
                             "--from", "s", "--mu", "0,0", "--nu", "0,9", "--budget", "1")
    assert code == 2 and out == ""
    assert "needs 2+ strategies, budget is 1" in err
    code, _, _ = run_cli(capsys, "decide", "--mdp", run_path, "--mode", "bwc-fin",
                         "--from", "s", "--mu", "0,0", "--nu", "0,9", "--budget", "2")
    assert code == 0


def test_validate_and_info(capsys, run_path):
    code, out, _ = run_cli(capsys, "validate", "--mdp", run_path)
    assert code == 0 and json.loads(out)["valid"]
    code, out, _ = run_cli(capsys, "info", "--mdp", run_path)
    data = json.loads(out)
    assert data["max_abs_weight"] == 80 and data["max_prob_denominator"] == 2
    assert data["states"] == 4 and data["edges"] == 7


def test_parser_is_shared_without_leaking_arguments(capsys, run_path, bas_path):
    # One parser serves every call in a process.  Subcommands run back to
    # back, options given and then left to their defaults, print and exit
    # as they do on a fresh parser, and parse to the same arguments.
    calls = [
        ("decide", "--mdp", run_path, "--mode", "bwc-fin", "--from", "s",
         "--mu", "0,0", "--nu", "0,9", "--budget", "4"),
        ("decide", "--mdp", bas_path, "--mode", "wc", "--from", "u"),
        ("info", "--mdp", run_path, "-v"),
        ("decompose", "--mdp", run_path, "--kind", "mwec", "--mu", "1,1"),
        ("decompose", "--mdp", run_path),
        ("prune", "--mdp", bas_path, "--from", "s"),
        ("validate", "--mdp", run_path),
        ("decide", "--mdp", run_path, "--mode", "bas", "--from", "s"),
    ]
    assert cli.build_parser() is cli.build_parser()
    shared = [run_cli(capsys, *argv) for argv in calls]
    parsed = [vars(cli.build_parser().parse_args(argv)) for argv in calls]
    fresh, fresh_parsed = [], []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
        cli.build_parser.cache_clear()
        fresh_parsed.append(vars(cli.build_parser().parse_args(argv)))
    assert shared == fresh
    assert parsed == fresh_parsed
    assert [code for code, _, _ in shared] == [0, 1, 0, 0, 0, 0, 0, 0]


def test_decompose(capsys, run_path):
    code, out, _ = run_cli(capsys, "decompose", "--mdp", run_path, "--kind", "mec")
    comps = json.loads(out)["components"]
    assert sorted(map(tuple, comps)) == [("t",), ("u", "v")]
    code, out, _ = run_cli(capsys, "decompose", "--mdp", run_path, "--kind", "mwec")
    assert json.loads(out)["components"] == [["t"]]
    code, out, _ = run_cli(capsys, "decompose", "--mdp", run_path, "--kind", "scc")
    assert code == 0 and json.loads(out)["kind"] == "scc"
    assert sorted(map(tuple, json.loads(out)["components"])) == [("s",), ("t",), ("u", "v")]


def test_synthesize_no_instance_writes_nothing(capsys, run_path, tmp_path):
    strat = tmp_path / "strategy.json"
    code, out, _ = run_cli(capsys, "synthesize", "--mdp", run_path, "--mode", "bwc-fin",
                           "--from", "s", "--mu", "0,0", "--nu", "9,9", "--out", str(strat))
    assert code == 1 and not strat.exists()
    assert json.loads(out) == {"answer": "no", "failure": "threshold system infeasible",
                               "mode": "bwc-fin"}


def test_synthesize_without_out_prints_the_record(capsys, run_path, tmp_path):
    strat = tmp_path / "strategy.json"
    args = ["synthesize", "--mdp", run_path, "--mode", "bwc-fin", "--from", "s",
            "--mu", "0,0", "--nu", "0,9"]
    code, printed, _ = run_cli(capsys, *args)
    assert code == 0
    code, out, _ = run_cli(capsys, *args, "--out", str(strat))
    assert code == 0 and json.loads(out) == {"written": str(strat), "kind": "machine"}
    assert printed == strat.read_text()


def test_synthesize_has_no_search_cap(capsys, run_path, tmp_path):
    # The search ranges are the module's constants; no option widens them.
    strat = tmp_path / "strategy.json"
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--mdp", run_path, "--mode", "bwc-fin", "--from", "s",
              "--mu", "0,0", "--nu", "0,9", "--out", str(strat), "--search-cap", "4"])
    assert exc.value.code == 2 and not strat.exists()
    assert "unrecognized arguments: --search-cap 4" in capsys.readouterr().err


def test_prune_exit(capsys, bas_path):
    code, out, _ = run_cli(capsys, "prune", "--mdp", bas_path, "--from", "s")
    assert code == 0 and json.loads(out)["states"] == ["s", "t"]
    code, out, _ = run_cli(capsys, "prune", "--mdp", bas_path, "--from", "u")
    assert code == 1 and not json.loads(out)["satisfiable"]


def test_prune_solves_the_game_once(capsys, bas_path, monkeypatch):
    from bwcmdp import games

    calls = []
    solve = games.wc_winning_region

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(games, "wc_winning_region", counted)
    code, out, _ = run_cli(capsys, "prune", "--mdp", bas_path, "--from", "s")
    assert code == 0 and len(calls) == 1
    assert json.loads(out) == {"satisfiable": True, "states": ["s", "t"], "edges": [0, 2],
                               "losing_certificates": {"u": {"v": 6}, "v": {"v": 6}}}


_NO_NUMPY = """
import io, json, sys
from contextlib import redirect_stdout
import bwcmdp.cli, bwcmdp.synthesis
from bwcmdp import cli, jsonio
from bwcmdp.model import fixture

run, bas, fin, sb = sys.argv[1:5]
jsonio.save_mdp(run, fixture("RUN_EX"))
jsonio.save_mdp(bas, fixture("RUN_EX_BAS"))

def cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = bwcmdp.cli.main(list(argv))
    return code, out.getvalue()

codes = [cli("decide", "--mdp", run, "--mode", mode, "--from", "s", "--mu=0,0",
             "--nu=0,9")[0] for mode in ("wc", "exp", "bas", "bwc-fin", "bwc-inf")]
codes.append(cli("synthesize", "--mdp", run, "--mode", "bwc-fin", "--from", "s",
                 "--mu=0,0", "--nu=0,9", "--out", fin)[0])
codes.append(cli("synthesize", "--mdp", bas, "--mode", "bas", "--from", "s",
                 "--mu=0,0", "--nu=99/10,99/10", "--out", sb)[0])
codes.append(cli("verify", "--mdp", run, "--strategy", fin, "--from", "s", "--check", "wc",
                 "--mu=0,0")[0])
before = "numpy" in sys.modules
code, report = cli("simulate", "--mdp", bas, "--strategy", sb, "--from", "s", "--runs", "200",
                   "--horizon", "300", "--seed", "11", "--mu=0,0")
# A bwc-inf simulate whose monitors trip every run (floor rates tripled).
from fractions import Fraction
from bwcmdp.model import ThresholdQuery
monitored = bwcmdp.synthesis.bwc_infinite_strategy(
    fixture("RUN_EX"), ThresholdQuery.build("bwc-inf", "s", [0, 0], [Fraction(99, 10)] * 2),
    period=5)
monitored.monitors = [tuple(3 * r for r in rates) for rates in monitored.monitors]
monitored.simulate_runs(fixture("RUN_EX"), "s", 53, 33, 0)
print(json.dumps({"codes": codes + [code], "numpy_before": before,
                  "numpy_after": "numpy" in sys.modules, "numpy_ma": "numpy.ma" in sys.modules,
                  "report": json.loads(report)}))
"""


def test_decide_path_never_imports_numpy(tmp_path):
    # Importing NumPy costs about 14 MB of RSS and 0.1 s: decide, synthesize
    # and verify never load it, simulate does.  Simulation never loads
    # numpy.ma (about 1 MB more; np.unique imports it), not even for the
    # rare monitor trip.
    src = os.path.dirname(os.path.dirname(bwcmdp.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    paths = [str(tmp_path / name) for name in ("run.json", "bas.json", "fin.json", "bas_s.json")]
    done = subprocess.run([sys.executable, "-c", _NO_NUMPY, *paths], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    got = json.loads(done.stdout)
    assert got["codes"] == [0] * 9
    assert not got["numpy_before"] and got["numpy_after"] and not got["numpy_ma"]
    assert got["report"] == {
        "exceed_fraction": 0.985, "horizon": 300, "max": [14.9, 14.95],
        "mean": [10.140000000000022, 9.901000000000016],
        "min": [4.983333333333333, -1.3333333333333333], "monitor_violations": 0,
        "runs": 200, "seed": 11, "stddev": [4.966797632979243, 5.212217651056762]}


def test_synthesize_verify_simulate_round_trip(capsys, bas_path, tmp_path):
    strat = str(tmp_path / "strategy.json")
    code, out, _ = run_cli(capsys, "synthesize", "--mdp", bas_path, "--mode", "bas",
                           "--from", "s", "--mu", "0,0", "--nu", "99/10,99/10",
                           "--out", strat)
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--mdp", bas_path, "--strategy", strat,
                           "--check", "as", "--from", "s", "--mu", "0,0")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--mdp", bas_path, "--strategy", strat,
                           "--check", "exp", "--from", "s", "--nu", "99/10,99/10")
    assert code == 0
    data = json.loads(out)
    assert data["expectation"] == ["10", "10"]
    # Too-high expectation threshold: exit 1.
    code, out, _ = run_cli(capsys, "verify", "--mdp", bas_path, "--strategy", strat,
                           "--check", "exp", "--from", "s", "--nu", "10,10")
    assert code == 1
    code, out, _ = run_cli(capsys, "simulate", "--mdp", bas_path, "--strategy", strat,
                           "--from", "s", "--runs", "64", "--horizon", "400", "--seed", "3",
                           "--mu", "0,0")
    assert code == 0
    rep = json.loads(out)
    assert rep["exceed_fraction"] == 1.0


def test_strategy_file_independent_of_hash_seed(run_path, tmp_path):
    # The RUN_EX bas strategy's memories hold frozensets of state ids,
    # which repr in string-hash order: seed 1 wrote {'u', 't'}, others
    # {'t', 'u'}.
    src = os.path.dirname(os.path.dirname(bwcmdp.__file__))
    files = []
    for seed in ("1", "2"):
        out = tmp_path / f"strategy{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "bwcmdp.cli", "synthesize", "--mdp", run_path,
                        "--mode", "bas", "--from", "s", "--mu=0,0", "--nu=0,9",
                        "--out", str(out)], env=env, check=True, capture_output=True, timeout=120)
        files.append(out.read_bytes())
    assert b"frozenset({'t', 'u'})" in files[0]
    assert files[0] == files[1]


def test_verify_worstcase_witness(capsys, run_path, tmp_path):
    # A strategy that dives into the stochastic component fails dimension 2.
    from bwcmdp.machines import memoryless

    bad = memoryless(fixture("RUN_EX"), {"s": 1, "u": 4, "t": 2})
    strat = str(tmp_path / "bad.json")
    with open(strat, "w") as fh:
        json.dump(jsonio.machine_to_json(fixture("RUN_EX"), bad, "s"), fh)
    code, out, _ = run_cli(capsys, "verify", "--mdp", run_path, "--strategy", strat,
                           "--check", "wc", "--from", "s", "--mu", "0,0")
    assert code == 1
    data = json.loads(out)
    assert data["dimension"] == 2 and data["witness_cycle"]


@pytest.mark.parametrize("command, options, flag, value", [
    ("verify", ("--check", "wc"), "--mu", "0"),
    ("verify", ("--check", "exp"), "--nu", "0"),
    ("verify", ("--check", "as"), "--mu", "0"),
    ("verify", ("--check", "wc"), "--mu", "0,0,0"),
    ("simulate", ("--runs", "5", "--horizon", "20"), "--mu", "0"),
    ("simulate", ("--runs", "5", "--horizon", "20"), "--mu", "0,0,0"),
    ("prune", ("--from", "s"), "--mu", "0"),
    ("decompose", ("--kind", "mwec"), "--mu", "0"),
])
def test_threshold_of_the_wrong_length_exits_2(capsys, run_path, tmp_path, command, options,
                                               flag, value):
    from bwcmdp.machines import memoryless

    run = fixture("RUN_EX")
    strat = str(tmp_path / "m.json")
    with open(strat, "w") as fh:
        json.dump(jsonio.machine_to_json(run, memoryless(run, {"s": 1, "u": 4, "t": 2}), "s"), fh)
    if command in ("verify", "simulate"):
        options += ("--strategy", strat, "--from", "s")
    code, out, err = run_cli(capsys, command, "--mdp", run_path, *options, flag, value)
    assert (code, out) == (2, "")
    assert "threshold vectors must have 2 components" in err
    code, _, _ = run_cli(capsys, command, "--mdp", run_path, *options, flag, "0,0")
    assert code in (0, 1)


def test_strategy_keys_with_bar_in_state_ids(capsys, tmp_path):
    # Table keys are "state|mem": a state id holding "|" must load as itself.
    from bwcmdp.machines import memoryless

    mdp = Mdp.build(1, [("a|b", "controller"), ("c", "controller")],
                    [(0, "a|b", "c", [1]), (1, "c", "a|b", [1]), (2, "c", "c", [-1])])
    data = jsonio.machine_to_json(mdp, memoryless(mdp, {"c": 1}), "a|b")
    assert set(data["output"]) == {"a|b|0", "c|0"}
    loaded = jsonio.machine_from_json(json.loads(json.dumps(data)))
    assert loaded.output("a|b", "0") == {0: 1} and loaded.output("c", "0") == {1: 1}
    assert loaded.update("a|b", "0") == {"0": 1}
    mdp_path, strat = str(tmp_path / "bar.json"), str(tmp_path / "bar-strategy.json")
    jsonio.save_mdp(mdp_path, mdp)
    with open(strat, "w") as fh:
        json.dump(data, fh)
    code, out, _ = run_cli(capsys, "verify", "--mdp", mdp_path, "--strategy", strat,
                           "--check", "wc", "--from", "a|b", "--mu", "0")
    assert code == 0, out
    # With both "0" and "b|0" declared, "a|b|0" could be either state.
    with open(strat, "w") as fh:
        json.dump(dict(data, memory=["0", "b|0"]), fh)
    code, _, err = run_cli(capsys, "verify", "--mdp", mdp_path, "--strategy", strat,
                           "--check", "wc", "--from", "a|b", "--mu", "0")
    assert code == 2 and "'a|b|0' ends in 2 declared memory entries" in err


def test_simulate_determinism(capsys, run_path, tmp_path):
    from bwcmdp.machines import memoryless

    m = memoryless(fixture("RUN_EX"), {"s": 1, "u": 4, "t": 2})
    strat = str(tmp_path / "m.json")
    with open(strat, "w") as fh:
        json.dump(jsonio.machine_to_json(fixture("RUN_EX"), m, "s"), fh)
    args = ("simulate", "--mdp", run_path, "--strategy", strat, "--from", "s",
            "--runs", "50", "--horizon", "300", "--seed", "11")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_dump_lp(capsys, run_path, tmp_path):
    lp = str(tmp_path / "system.lp")
    code, _, _ = run_cli(capsys, "decide", "--mdp", run_path, "--mode", "bwc-fin",
                         "--from", "s", "--mu", "0,0", "--nu", "0,9", "--dump-lp", lp)
    assert code == 0
    assert open(lp).read() == _RUN_EX_BWC_FIN_LP


_RUN_EX_BWC_FIN_LP = """\
vars: y[s] y[t] y[u] y[v] ye[0] ye[1] ye[2] ye[3] ye[4] ye[5] ye[6] \
x[0] x[1] x[2] x[3] x[4] x[5] x[6]  (all >= 0)
- y[s] - ye[0] - ye[1] = -1
- y[t] + ye[0] + ye[3] = 0
- y[u] + ye[1] - ye[3] - ye[4] + ye[5] + ye[6] = 0
- y[v] + ye[4] - ye[5] - ye[6] = 0
1/2*y[v] - 1/2*ye[4] + ye[5] = 0
1/2*y[v] - 1/2*ye[4] + ye[6] = 0
y[t] = 1
y[t] - x[2] = 0
- x[0] - x[1] = 0
x[0] + x[3] = 0
x[1] - x[3] - x[4] + x[5] + x[6] = 0
x[4] - x[5] - x[6] = 0
- 1/2*x[4] + x[5] = 0
- 1/2*x[4] + x[6] = 0
5*x[2] + 30*x[5] + 30*x[6] > 0
15*x[2] + 80*x[5] - 60*x[6] > 9
5*x[2] > 0
15*x[2] > 0
x[0] = 0
x[1] = 0
x[3] = 0
x[4] = 0
x[5] = 0
x[6] = 0
"""


def test_procedural_strategy_file_round_trip(capsys, run_path, tmp_path):
    strat = str(tmp_path / "proc.json")
    code, out, _ = run_cli(capsys, "synthesize", "--mdp", run_path, "--mode", "bwc-inf",
                           "--from", "s", "--mu", "0,0", "--nu", "99/10,99/10",
                           "--period", "256", "--out", strat)
    assert code == 0
    data = json.load(open(strat))
    assert data["kind"] == "total-payoff-monitor" and data["period"] == 256
    # Procedural strategies are simulate-only.
    code, _, err = run_cli(capsys, "verify", "--mdp", run_path, "--strategy", strat,
                           "--check", "wc", "--from", "s", "--mu", "0,0")
    assert code == 2 and "simulate-only" in err
    code, out, _ = run_cli(capsys, "simulate", "--mdp", run_path, "--strategy", strat,
                           "--from", "s", "--runs", "40", "--horizon", "2000", "--seed", "2",
                           "--mu", "0,0")
    assert code == 0
    rep = json.loads(out)
    assert rep["monitor_violations"] == 0 and rep["exceed_fraction"] == 1.0


@pytest.mark.parametrize("fixture_name,start,nu", [
    ("RUN_EX_BAS", "s", "4,14"),
    ("RUN_EX", "s", "1,1"),
    ("RUN_EX", "t", "1,1"),
    ("RUN_EX", "u", "1,1"),
    ("RUN_EX", "v", "1,1"),
])
def test_bwc_inf_strategy_file_simulates(capsys, tmp_path, fixture_name, start, nu):
    # The file carries the prepared MDP (pruned, with a pre-state when the
    # start is random), so it simulates from every start state.
    from bwcmdp.synthesis import bwc_infinite_strategy
    from bwcmdp.verification import simulate

    mdp = fixture(fixture_name)
    path = str(tmp_path / "mdp.json")
    jsonio.save_mdp(path, mdp)
    strat = str(tmp_path / "proc.json")
    code, _, _ = run_cli(capsys, "synthesize", "--mdp", path, "--mode", "bwc-inf",
                         "--from", start, "--mu", "0,0", "--nu", nu, "--period", "64",
                         "--out", strat)
    assert code == 0
    code, out, err = run_cli(capsys, "simulate", "--mdp", path, "--strategy", strat,
                             "--from", start, "--runs", "20", "--horizon", "500",
                             "--seed", "4", "--mu", "0,0")
    assert code == 0, err
    rep = json.loads(out)
    assert rep["monitor_violations"] == 0
    if fixture_name == "RUN_EX" and start == "s":
        q = ThresholdQuery.build("bwc-inf", start, [0, 0], [F(x) for x in nu.split(",")])
        in_memory = simulate(mdp, bwc_infinite_strategy(mdp, q, period=64), start,
                             horizon=500, runs=20, seed=4, mu=[F(0), F(0)])
        assert rep == in_memory.to_json()


def test_bwc_inf_strategy_reports_the_mdps_weights(capsys, tmp_path):
    # With mu != 0 the monitors run on normalized weights (w*b - a); the
    # reported totals stay on the MDP's own.  Every run alternates a, b,
    # so the mean payoff over an even horizon is exactly (3, 1).
    from bwcmdp.synthesis import bwc_infinite_strategy
    from bwcmdp.verification import simulate

    mdp = Mdp.build(2, [("a", "controller"), ("b", "random")],
                    [(0, "a", "b", (2, 0)), (1, "b", "a", (4, 2))], {1: 1})
    path = str(tmp_path / "mdp.json")
    jsonio.save_mdp(path, mdp)
    strat = str(tmp_path / "proc.json")
    code, _, _ = run_cli(capsys, "synthesize", "--mdp", path, "--mode", "bwc-inf",
                         "--from", "a", "--mu=-1/2,1/3", "--nu", "1,1/2", "--period", "64",
                         "--out", strat)
    assert code == 0
    code, out, err = run_cli(capsys, "simulate", "--mdp", path, "--strategy", strat,
                             "--from", "a", "--runs", "10", "--horizon", "100",
                             "--mu=-1/2,1/3")
    assert code == 0, err
    rep = json.loads(out)
    assert rep["mean"] == rep["min"] == rep["max"] == [3.0, 1.0]
    assert rep["exceed_fraction"] == 1.0 and rep["monitor_violations"] == 0
    q = ThresholdQuery.build("bwc-inf", "a", [F(-1, 2), F(1, 3)], [1, F(1, 2)])
    in_memory = simulate(mdp, bwc_infinite_strategy(mdp, q, period=64), "a",
                         horizon=100, runs=10, seed=0, mu=[F(-1, 2), F(1, 3)])
    assert in_memory.to_json() == rep


def _reprob(data):
    for e in data["edges"]:
        if "prob" in e:
            e["prob"] = "1/3" if e["id"] == 5 else "2/3"


@pytest.mark.parametrize("mutate_mdp,mutate_file,frm,message", [
    (_reprob, None, "s", "edge 5"),
    (lambda data: data["edges"].pop(3), None, "s", "edge 3"),
    (None, lambda rec: rec.pop("mdp"), "s", "re-synthesize"),
    (None, None, "t", "plays from 's'"),
    # Floors num*i*K of a rate -3*2**56 wrap int64 (to +2**62 at K = 64).
    (None, lambda rec: rec.update(monitors=[[str(-3 * 2**56)] * 2 for _ in rec["monitors"]]),
     "s", "int64"),
], ids=["probabilities", "missing-edge", "no-mdp", "other-start", "negative-rate-overflow"])
def test_bwc_inf_strategy_file_mismatch_exits_2(capsys, tmp_path, run_path, mutate_mdp,
                                                mutate_file, frm, message):
    strat = str(tmp_path / "proc.json")
    code, _, _ = run_cli(capsys, "synthesize", "--mdp", run_path, "--mode", "bwc-inf",
                         "--from", "s", "--mu", "0,0", "--nu", "1,1", "--period", "64",
                         "--out", strat)
    assert code == 0
    path = run_path
    if mutate_mdp is not None:
        data = jsonio.mdp_to_json(fixture("RUN_EX"))
        mutate_mdp(data)
        path = str(tmp_path / "other.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
    if mutate_file is not None:
        rec = json.load(open(strat))
        mutate_file(rec)
        with open(strat, "w") as fh:
            json.dump(rec, fh)
    code, out, err = run_cli(capsys, "simulate", "--mdp", path, "--strategy", strat,
                             "--from", frm, "--runs", "5", "--horizon", "50")
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("mutate", [
    lambda data: data.update(edges=5),
    lambda data: data["edges"][0].update(weight=[None]),
], ids=["edges-not-a-list", "null-weight"])
def test_malformed_mdp_exits_2(capsys, tmp_path, mutate):
    data = jsonio.mdp_to_json(fixture("RUN_EX"))
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "decide", "--mdp", str(path), "--mode", "wc",
                             "--from", "s", "--mu", "0,0")
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("change, message", [
    pytest.param(lambda m: dict(dimension=0, edges=tuple(
        dataclasses.replace(e, weight=()) for e in m.edges)),
        "dimension must be >= 1, got 0", id="dimension-0"),
    pytest.param(lambda m: dict(states=m.states + (("t", "controller"),)),
                 "duplicate state id 't'", id="duplicate-state"),
    pytest.param(lambda m: dict(states=m.states[:3] + (("v", "nature"),)),
                 "state 'v' has unknown owner 'nature'", id="unknown-owner"),
    pytest.param(lambda m: dict(edges=m.edges + (Edge(2, "t", "t", (1, 1)),)),
                 "duplicate edge id 2", id="duplicate-edge"),
    pytest.param(lambda m: dict(edges=m.edges + (Edge(7, "x", "t", (0, 0)),)),
                 "edge 7 has unknown source 'x'", id="unknown-source"),
    pytest.param(lambda m: dict(edges=m.edges + (Edge(7, "t", "x", (0, 0)),)),
                 "edge 7 has unknown target 'x'", id="unknown-target"),
    pytest.param(lambda m: dict(probabilities={6: F(1, 2)}),
                 "missing probability for edge 5 at random state v", id="missing-probability"),
    pytest.param(lambda m: dict(probabilities={**m.probabilities, 2: F(1)}),
                 "probability given for controller edge 2", id="controller-probability"),
    pytest.param(lambda m: dict(probabilities={**m.probabilities, 9: F(1)}),
                 "probability given for unknown edge 9", id="unknown-edge-probability"),
    pytest.param(lambda m: dict(initial="x"), "initial state 'x' unknown", id="unknown-initial"),
])
def test_invalid_mdp_is_reported_and_refused(capsys, tmp_path, change, message):
    # Each fault yields exactly its own message: validate lists it (exit 1)
    # and decide refuses the file with it (exit 2).
    run = fixture("RUN_EX")
    mdp = dataclasses.replace(run, **change(run))
    assert validate(mdp) == [message]
    path = str(tmp_path / "bad.json")
    jsonio.save_mdp(path, mdp)
    if jsonio.load_mdp(path) != mdp:
        # A file gives each probability on its edge, so one of no edge cannot be written.
        assert "unknown edge" in message
        return
    code, out, _ = run_cli(capsys, "validate", "--mdp", path)
    assert code == 1 and json.loads(out) == {"valid": False, "violations": [message]}
    code, out, err = run_cli(capsys, "decide", "--mdp", path, "--mode", "wc", "--from", "s")
    assert (code, out, err) == (2, "", f"error: invalid MDP:\n  {message}\n")


@pytest.mark.parametrize("command", [("verify", "--check", "as"), ("simulate",)])
def test_no_start_state_exits_2(capsys, tmp_path, command):
    # Without --from, verify and simulate start at the MDP's initial state.
    from bwcmdp.machines import memoryless

    run = dataclasses.replace(fixture("RUN_EX"), initial=None)
    path, strat = str(tmp_path / "mdp.json"), str(tmp_path / "m.json")
    jsonio.save_mdp(path, run)
    with open(strat, "w") as fh:
        json.dump(jsonio.machine_to_json(run, memoryless(run, {"s": 1, "u": 4, "t": 2}), "s"), fh)
    code, out, err = run_cli(capsys, *command, "--mdp", path, "--strategy", strat)
    assert (code, out) == (2, "")
    assert err == "error: no start state: pass --from or set the MDP's initial state\n"


@pytest.mark.parametrize("mode", ["bwc-fin", "bwc-inf"])
def test_fallback_search_failure_names_its_cause(capsys, tmp_path, mode):
    # Corpus seed 9, instance 31: the decision is yes, but the pruned MDP
    # (controller states q2, q3) is won only with more memory than the
    # worst-case fallback search offers.  All 6 memoryless and 576 pure
    # 2-memory machines are checked, far below the budget.
    m = Mdp.build(3, [("q0", "controller"), ("q1", "controller"), ("q2", "controller"),
                      ("q3", "controller"), ("q4", "random")],
                  [(0, "q0", "q0", [3, -1, 0]), (1, "q1", "q2", [1, 1, 2]),
                   (2, "q1", "q2", [-3, 2, 2]), (3, "q2", "q3", [-3, -1, -2]),
                   (4, "q2", "q2", [-2, -3, 0]), (5, "q2", "q3", [-1, 2, 0]),
                   (6, "q3", "q0", [0, 2, 2]), (7, "q3", "q2", [-2, -1, 0]),
                   (8, "q3", "q3", [-2, 1, 3]), (9, "q4", "q0", [1, -1, -1]),
                   (10, "q4", "q2", [0, 1, -2])],
                  {9: F(1, 2), 10: F(1, 2)}, initial="q0")
    path = tmp_path / "seed9_31.json"
    jsonio.save_mdp(str(path), m)
    query = ["--mdp", str(path), "--mode", mode, "--from", "q3",
             "--mu=-2,1/3,5/3", "--nu=-7,-10,2/3"]
    code, out, _ = run_cli(capsys, "decide", *query)
    assert code == 0 and json.loads(out)["answer"] == "yes"
    code, out, err = run_cli(capsys, "synthesize", *query)
    assert code == 2 and out == ""
    assert err == ("error: worst-case fallback search checked all 582 memoryless and "
                   "pure 2-memory machines, and none wins from every state\n")


def test_census_is_pinned():
    # Every line of tests/census.py over the corpus of seeds 1-2 x 96 and the
    # wc-games games of seeds 1-2, digested kind by kind.  The region digest
    # is the one pinned since sure winners were certified.
    import census

    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    solver, handler = games.wc_winning_region, signal.getsignal(signal.SIGALRM)
    kinds = {kind: [] for kind in census.KINDS}
    for line in census.census(gen, [1, 2], 96):
        kind, rest = line.split(" ", 1)
        kinds[kind].append(rest + "\n")
    assert games.wc_winning_region is solver
    assert signal.getsignal(signal.SIGALRM) is handler
    assert not [line for lines in kinds.values() for line in lines
                if " error " in line or line.endswith(" timeout\n")]
    assert {kind: len(lines) for kind, lines in kinds.items()} == {
        "decide": 1080, "region": 727, "synthesize": 576, "simulate": 127}
    digests = {kind: hashlib.sha256("".join(lines).encode()).hexdigest()
               for kind, lines in kinds.items()}
    assert digests == {
        "decide": "e08b65a1ca963cecd1e2fb4530b1ffff5a10b771b9b2f040ec1df4604c88d704",
        "region": "2885128cd9b28bea041c4df741b9af779d57c168c8010d52734555b39d9c242e",
        "synthesize": "239566ba8bae0e4497668015b9945c62e978215c156087170bce5b361832d3b9",
        "simulate": "54176c42ae7d596b380278d492eb720fe11840ee298ac5427ce2fdf8144b3153",
    }
