"""Span tracing around the public functions of every ``bwcmdp`` module.

``install`` replaces each traced function with a wrapper, in its own
module and in every ``bwcmdp`` module that bound the same function object
with ``from ... import``, so calls such as ``cli.decide``,
``systems.mecs`` or ``verification.induced_chain`` are traced too.
Spans (name, start, end, parent) stay in memory until ``write``; a few
counters are taken from the arguments and results at the same
boundaries.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

# Layer (module) -> traced functions.
TRACED = {
    "model": ("normalize",),
    "decomposition": ("mecs", "sccs"),
    "games": ("wc_winning_region", "mwecs", "prune", "positive_multicycle"),
    "linsolve": ("solve", "maximize"),
    "systems": ("decide", "finite_memory_system", "general_system"),
    "synthesis": ("bas_strategy", "bwc_finite_strategy", "bwc_infinite_strategy",
                  "memoryless_wc_search"),
    "machines": ("induced_chain", "support_product", "materialize"),
    "verification": ("bscc_analysis", "solve_linear", "karp_min_mean",
                     "verify_worstcase", "verify_almost_sure", "simulate"),
    "jsonio": ("load_mdp", "save_mdp", "mdp_from_json", "mdp_to_json", "machine_to_json",
               "machine_from_json", "procedural_to_json", "procedural_from_json",
               "load_strategy"),
    "cli": ("main",),
}


def _count_solve(rec, args, result):
    system = args["system"]
    rec.count("linsolve.rows", len(system.constraints))
    rec.count("linsolve.cols", len(system.variables))
    rec.count("linsolve.nonzeros", sum(len(c.coeffs) for c in system.constraints))


def _count_maximize(rec, args, result):
    rec.count("linsolve.rows", len(args["constraints"]))
    rec.count("linsolve.cols", len(args["variables"]))
    rec.count("linsolve.nonzeros", sum(len(c[0]) for c in args["constraints"]))


def _count_spoilers(rec, args, result):
    # Computed from the input: the size of the memoryless spoiler space a
    # multidimensional call would enumerate in full.
    mdp, dims = args["mdp"], args.get("dims")
    if len(tuple(dims) if dims is not None else range(mdp.dimension)) >= 2:
        rec.count("games.spoilers", math.prod(
            len(mdp.out_edges[s]) for s in mdp.state_ids if mdp.is_random(s)))


def _count_chain(rec, args, result):
    rec.count("machines.chain_nodes", result.node_count())


def _count_sim(rec, args, result):
    rec.count("verification.sim_steps", args["runs"] * args["horizon"])


COUNTERS = {
    "linsolve.solve": _count_solve,
    "linsolve.maximize": _count_maximize,
    "games.wc_winning_region": _count_spoilers,
    "machines.induced_chain": _count_chain,
    "verification.simulate": _count_sim,
}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def count(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    def enter(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, time.process_time(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(i)
        return i

    def leave(self, i: int) -> None:
        self.spans[i][2] = time.process_time()
        self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def _wrap(rec: Recorder, name: str, fn, counter=None):
    signature = inspect.signature(fn) if counter else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.leave(i)
        if counter:
            bound = signature.bind(*args, **kwargs)
            counter(rec, bound.arguments, result)
        return result

    return traced


def install(rec: Recorder):
    """Patch every traced function everywhere it is bound; returns an
    undo function."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "bwcmdp" or n.startswith("bwcmdp."))]
    undo = []
    for layer, names in TRACED.items():
        home = sys.modules[f"bwcmdp.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            name = f"{layer}.{fname}"
            wrapper = _wrap(rec, name, original, COUNTERS.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))

    def uninstall():
        for module, attr, original in undo:
            setattr(module, attr, original)

    return uninstall


def _noop(x):
    return x


def _cpu_per_call(fn, n: int) -> float:
    t = time.process_time()
    for i in range(n):
        fn(i)
    return (time.process_time() - t) / n


def overhead_s(rec: Recorder, n: int = 20_000) -> float:
    """CPU seconds the recorded spans added: their count times the cost of
    one traced call (wrapper and span record, plus argument binding for
    the counted functions), measured on a function that does nothing.

    Comparing a traced pass with an untraced one measures the same thing
    only to within the drift of the machine between the two passes, which
    is larger than the overhead."""
    base = _cpu_per_call(_noop, n)
    plain = _cpu_per_call(_wrap(Recorder(), "noop", _noop), n) - base
    counted = _cpu_per_call(_wrap(Recorder(), "noop", _noop, lambda *a: None), n) - base
    n_counted = sum(1 for span in rec.spans if span[0] in COUNTERS)
    return len(rec.spans) * plain + n_counted * (counted - plain)


# ---------------------------------------------------------------------------
# Per-layer metrics from the recorded spans.


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    spans = rec.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def outermost(i: int, match) -> bool:
        p = spans[i][3]
        while p >= 0:
            if match(spans[p][0]):
                return False
            p = spans[p][3]
        return True

    total = defaultdict(float)   # wrapped-call totals, outermost call per name
    calls = defaultdict(int)
    self_time = defaultdict(float)
    layer_total = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_time[name] += end - start - child_time[i]
        if outermost(i, lambda n, name=name: n == name):
            total[name] += end - start
        layer = name.split(".", 1)[0]
        if outermost(i, lambda n, layer=layer: n.split(".", 1)[0] == layer):
            layer_total[layer] += end - start

    def secs(*names):
        return (sum(total[n] for n in names), "s")

    def count(name):
        return (calls[name], "count")

    def counter(name):
        return (rec.counters[name], "count")

    def self_of(prefix):
        return (sum(v for n, v in self_time.items() if n.startswith(prefix)), "s")

    return {
        "model.normalize_s": secs("model.normalize"),
        "model.normalize_calls": count("model.normalize"),
        "decomposition.mecs_s": secs("decomposition.mecs"),
        "decomposition.mecs_calls": count("decomposition.mecs"),
        "decomposition.sccs_s": secs("decomposition.sccs"),
        "decomposition.sccs_calls": count("decomposition.sccs"),
        "games.wc_winning_region_s": secs("games.wc_winning_region"),
        "games.wc_winning_region_calls": count("games.wc_winning_region"),
        "games.mwecs_s": secs("games.mwecs"),
        "games.prune_s": secs("games.prune"),
        "games.positive_multicycle_s": secs("games.positive_multicycle"),
        "games.positive_multicycle_calls": count("games.positive_multicycle"),
        "games.spoilers": counter("games.spoilers"),
        "linsolve.solve_s": secs("linsolve.solve"),
        "linsolve.solve_calls": count("linsolve.solve"),
        "linsolve.maximize_s": secs("linsolve.maximize"),
        "linsolve.maximize_calls": count("linsolve.maximize"),
        "linsolve.rows": counter("linsolve.rows"),
        "linsolve.cols": counter("linsolve.cols"),
        "linsolve.nonzeros": counter("linsolve.nonzeros"),
        "systems.decide_self_s": self_of("systems.decide"),
        "systems.system_build_s": secs("systems.finite_memory_system", "systems.general_system"),
        "synthesis.bas_strategy_s": secs("synthesis.bas_strategy"),
        "synthesis.bwc_finite_strategy_s": secs("synthesis.bwc_finite_strategy"),
        "synthesis.bwc_infinite_strategy_s": secs("synthesis.bwc_infinite_strategy"),
        "synthesis.memoryless_wc_search_s": secs("synthesis.memoryless_wc_search"),
        "synthesis.memoryless_wc_search_calls": count("synthesis.memoryless_wc_search"),
        "synthesis.self_s": self_of("synthesis."),
        "machines.induced_chain_s": secs("machines.induced_chain"),
        "machines.induced_chain_calls": count("machines.induced_chain"),
        "machines.chain_nodes": counter("machines.chain_nodes"),
        "machines.support_product_s": secs("machines.support_product"),
        "machines.materialize_s": secs("machines.materialize"),
        "verification.bscc_analysis_s": secs("verification.bscc_analysis"),
        "verification.solve_linear_s": secs("verification.solve_linear"),
        "verification.solve_linear_calls": count("verification.solve_linear"),
        "verification.karp_min_mean_s": secs("verification.karp_min_mean"),
        "verification.verify_worstcase_s": secs("verification.verify_worstcase"),
        "verification.verify_almost_sure_s": secs("verification.verify_almost_sure"),
        "verification.simulate_s": secs("verification.simulate"),
        "verification.sim_steps": counter("verification.sim_steps"),
        "jsonio.s": (layer_total["jsonio"], "s"),
        "cli.self_s": self_of("cli."),
    }
