"""JSON wire formats: MDPs, strategies, decisions, reports.

Rationals are always serialized as "p/q" strings ("p" when the
denominator is 1), so every file round-trips losslessly.
"""

from __future__ import annotations

import json

from bwcmdp.machines import TableMachine, materialize
from bwcmdp.model import Mdp, require_valid
from bwcmdp.rationals import format_rational, parse_rational


def mdp_to_json(mdp: Mdp) -> dict:
    edges = []
    for e in mdp.edges:
        rec = {"id": e.eid, "from": e.source, "to": e.target, "weight": list(e.weight)}
        if e.eid in mdp.probabilities:
            rec["prob"] = format_rational(mdp.probabilities[e.eid])
        edges.append(rec)
    out = {
        "dimension": mdp.dimension,
        "states": [{"id": s, "owner": o} for s, o in mdp.states],
        "edges": edges,
    }
    if mdp.initial is not None:
        out["initial"] = mdp.initial
    return out


def mdp_from_json(data: dict) -> Mdp:
    states = [(st["id"], st["owner"]) for st in data["states"]]
    edges = []
    probs = {}
    for e in data["edges"]:
        edges.append((e["id"], e["from"], e["to"], e["weight"]))
        if "prob" in e:
            probs[int(e["id"])] = parse_rational(e["prob"])
    return Mdp.build(data["dimension"], states, edges, probs, data.get("initial"))


def load_mdp(path: str) -> Mdp:
    with open(path) as fh:
        return mdp_from_json(json.load(fh))


def save_mdp(path: str, mdp: Mdp) -> None:
    with open(path, "w") as fh:
        json.dump(mdp_to_json(mdp), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Strategy machines.


def _mem_key(mem) -> str:
    """``repr(mem)`` with set members sorted, so that the text does not
    depend on string hashing."""
    if isinstance(mem, tuple):
        return "(" + ", ".join(map(_mem_key, mem)) + ("," if len(mem) == 1 else "") + ")"
    if isinstance(mem, frozenset) and mem:
        return "frozenset({" + ", ".join(sorted(map(_mem_key, mem))) + "})"
    return repr(mem)


def machine_to_json(mdp: Mdp, machine, start: str) -> dict:
    """Serialize a (possibly lazy) machine over its reachable part."""
    table = machine if isinstance(machine, TableMachine) else materialize(mdp, machine, start)
    mems = [_mem_key(m) for m in table.memory]
    out = {
        "kind": "machine",
        "memory": mems,
        "initial": {_mem_key(m): format_rational(p) for m, p in table.initial.items()},
        "update": {f"{s}|{_mem_key(m)}": {_mem_key(m2): format_rational(p)
                                          for m2, p in dist.items()}
                   for (s, m), dist in table.update_table.items()},
        "output": {f"{s}|{_mem_key(m)}": {str(eid): format_rational(p)
                                          for eid, p in dist.items()}
                   for (s, m), dist in table.output_table.items()},
    }
    return out


def _split_key(key: str, memory: set[str]) -> tuple[str, str]:
    """A ``state|mem`` table key split where the suffix is a declared
    memory entry (state ids and memory entries may contain ``|``)."""
    fits = []
    i = key.find("|")
    while i >= 0:
        if key[i + 1:] in memory:
            fits.append(i)
        i = key.find("|", i + 1)
    if len(fits) != 1:
        raise ValueError(f"strategy key {key!r} ends in {len(fits)} declared memory entries")
    return key[:fits[0]], key[fits[0] + 1:]


def machine_from_json(data: dict) -> TableMachine:
    if data.get("kind") != "machine":
        raise ValueError("not a strategy machine record")
    memory = list(data["memory"])
    declared = set(memory)
    initial = {m: parse_rational(p) for m, p in data["initial"].items()}
    update = {}
    for key, dist in data["update"].items():
        update[_split_key(key, declared)] = {m2: parse_rational(p) for m2, p in dist.items()}
    output = {}
    for key, dist in data["output"].items():
        output[_split_key(key, declared)] = {int(e): parse_rational(p) for e, p in dist.items()}
    return TableMachine(memory, initial, update, output)


def procedural_to_json(mdp: Mdp, strategy) -> dict:
    """Parameter record for a total-payoff-monitor strategy.

    The record carries the prepared MDP the strategy was synthesized on
    (pruned, possibly with a pre-state), since its machines live there.
    Embedded finite machines are inlined, the fallback over every state
    of that MDP; the memory->branch map lets a loaded copy route runs to
    the right monitor.
    """
    composed = materialize(strategy.mdp, strategy.composed, strategy.start)
    branch_map = {}
    for m in composed.memory:
        if isinstance(m, tuple) and m and m[0] == "in":
            branch_map[_mem_key(m)] = m[1]
    return {
        "kind": "total-payoff-monitor",
        "mdp": mdp_to_json(strategy.mdp),
        "period": strategy.period,
        "start": strategy.start,
        "monitors": [[format_rational(x) for x in rates] for rates in strategy.monitors],
        "transient": machine_to_json(strategy.mdp, composed, strategy.start),
        "memory_branch": branch_map,
        "fallback": machine_to_json(strategy.mdp, strategy.fwc, strategy.mdp.state_ids),
    }


def _check_prepared(mdp: Mdp, prepared: Mdp, start: str) -> None:
    """Raise ValueError unless ``prepared`` is a prepared copy of ``mdp``:
    its states, owners and edges (ids, ends, probabilities) are ``mdp``'s,
    but for a pre-state ``start`` with one edge into a random state.  Its
    weights are normalized; payoffs are reported on ``mdp``'s."""
    def fail(what: str):
        raise ValueError(f"the strategy's MDP is not a copy of this MDP: {what}")

    if prepared.dimension != mdp.dimension or start not in prepared.owner:
        fail("dimension or start state")
    for s, owner in prepared.states:
        if mdp.owner.get(s, owner) != owner:
            fail(f"state {s!r}")
    for e in prepared.edges:
        mine = mdp.edge_by_id.get(e.eid)
        if e.source not in mdp.owner:
            ok = (e.source == start and len(prepared.out_edges[start]) == 1
                  and e.target in mdp.owner and mdp.is_random(e.target))
        else:
            ok = (mine is not None and (mine.source, mine.target) == (e.source, e.target)
                  and mdp.probabilities.get(e.eid) == prepared.probabilities.get(e.eid))
        if not ok:
            fail(f"edge {e.eid}")


def procedural_from_json(mdp: Mdp, data: dict):
    """Rebuild a total-payoff-monitor strategy on the prepared MDP its
    record carries, once that MDP is checked to belong to ``mdp``."""
    from bwcmdp.synthesis import BranchedInfiniteStrategy

    if "mdp" not in data:
        raise ValueError("strategy record carries no MDP; re-synthesize it")
    prepared = mdp_from_json(data["mdp"])
    require_valid(prepared)
    _check_prepared(mdp, prepared, data["start"])
    composed = machine_from_json(data["transient"])
    fallback = machine_from_json(data["fallback"])
    period = int(data["period"])
    if period < 1:
        raise ValueError(f"strategy record's period must be >= 1, got {period}")
    monitors = [tuple(map(parse_rational, rates)) for rates in data["monitors"]]
    if not monitors:  # every witness has a component of positive mass
        raise ValueError("strategy record's monitors has no rows")
    for rates in monitors:
        if len(rates) != prepared.dimension:
            raise ValueError(f"strategy record's monitors need {prepared.dimension} rates a row, "
                             f"not {len(rates)}")
    branch_map = dict(data["memory_branch"])
    for b in branch_map.values():
        if not isinstance(b, int) or not 0 <= b < len(monitors):
            raise ValueError(f"strategy record's memory_branch names branch {b!r}, but "
                             f"monitors has {len(monitors)} rows")
    return BranchedInfiniteStrategy(prepared, data["start"], composed, monitors, fallback,
                                    period, branch_map)


def load_strategy(mdp: Mdp, path: str):
    with open(path) as fh:
        data = json.load(fh)
    if data.get("kind") == "machine":
        return machine_from_json(data)
    if data.get("kind") == "total-payoff-monitor":
        return procedural_from_json(mdp, data)
    raise ValueError(f"unknown strategy kind {data.get('kind')!r}")
