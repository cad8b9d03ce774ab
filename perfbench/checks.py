"""Correctness checks the benchmark runs on every output it measures.

Each check returns a list of failure messages (empty when it passes), so a
run can count checks attempted and failed and still report every problem.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Mapping, Optional, Sequence

from repro.router.metrics import PARITY_FIELDS

#: Counters that are pure functions of the inputs: repeats of one seed must
#: report them exactly.
DETERMINISTIC_COUNTERS = (
    "astar.pops",
    "cd.labels",
    "cd.merges",
    "cd.solves",
    "engine.oracle_calls",
    "engine.nets_cached",
    "engine.nets_replayed",
)

#: Counter prefixes that mark a silent fallback: a pool that could not
#: start, or work re-run after a worker died.  Results stay correct, but the
#: run no longer measures the configuration it names.
FALLBACK_PREFIXES = ("recovery.", "pool.degraded.")


def check_trees(graph, netlist, trees: Sequence[Optional[object]]) -> List[str]:
    """Every net has a tree, and it spans exactly that net's terminals."""
    failures = []
    if len(trees) != netlist.num_nets:
        return [f"{len(trees)} trees for {netlist.num_nets} nets"]
    for index, tree in enumerate(trees):
        name = netlist.nets[index].name
        if tree is None:
            failures.append(f"net {name} has no tree")
            continue
        root, sinks = netlist.net_terminals(graph, index)
        try:
            tree.validate(root, sinks)
        except ValueError as exc:
            failures.append(f"net {name}: {exc}")
    return failures


def tree_digest(trees: Sequence[Optional[object]]) -> str:
    """A digest of every tree's terminals and edges, in net order."""
    digest = hashlib.sha256()
    for tree in trees:
        if tree is None:
            digest.update(b"-")
        else:
            digest.update(repr((tree.root, tuple(tree.sinks), tuple(tree.edges))).encode())
    return digest.hexdigest()


def parity(result) -> Dict[str, float]:
    """The deterministic fields of a :class:`RoutingResult`."""
    return {name: getattr(result, name) for name in PARITY_FIELDS}


def without_walltime(record: Mapping) -> Dict[str, object]:
    """A ``RoutingResult.as_dict`` record minus its one nondeterministic field."""
    return {k: v for k, v in record.items() if k != "Walltime"}


def compare(label: str, expected: Mapping, actual: Mapping) -> List[str]:
    """Exact equality of two flat mappings, key by key."""
    failures = []
    for key in sorted(set(expected) | set(actual)):
        if expected.get(key) != actual.get(key):
            failures.append(
                f"{label}: {key} differs ({expected.get(key)!r} != {actual.get(key)!r})"
            )
    return failures


def fallbacks(counters: Mapping[str, int]) -> List[str]:
    """One failure per nonzero fallback counter."""
    return [
        f"fallback counter {name} = {value}"
        for name, value in sorted(counters.items())
        if name.startswith(FALLBACK_PREFIXES) and value
    ]


def deterministic(counters: Mapping[str, int]) -> Dict[str, int]:
    return {name: int(counters.get(name, 0)) for name in DETERMINISTIC_COUNTERS}


def eco_record(payload: Mapping) -> Dict[str, object]:
    """The deterministic part of an ECO payload (``EcoReport.as_dict``)."""
    return {
        "result": without_walltime(payload["result"]),
        "touched": list(payload["touched"]),
        "nets_rerouted": payload["nets_rerouted"],
        "nets_reused": payload["nets_reused"],
        "rounds": [list(r) for r in payload["rounds"]],
    }
