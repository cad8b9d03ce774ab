"""Pins of the cost-distance search's output and work on a routed chip.

Equal-key ties are common in the searches (over a quarter of all pops), so
the heaps' exact operation sequence decides which path wins a tie, and with
it the routed trees.  The pinned digest and work counters below fail as
soon as a change to the search or its heaps alters a single pop.  The
hash-seed test guards the other way ties could leak in: through the
iteration order of a hashed container.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from repro import obs
from repro.core.cost_distance import CostDistanceConfig, CostDistanceSolver
from repro.instances.chips import large_chip
from repro.router.router import GlobalRouter, GlobalRouterConfig

SRC = Path(__file__).resolve().parent.parent / "src"


def route_digest(config: CostDistanceConfig, net_scale: float = 0.25, rounds: int = 2):
    """Route ``large_chip`` with the CD oracle; return the sha256 of every
    tree's terminals and edges (in net order) and the search counters."""
    graph, netlist = large_chip(net_scale=net_scale)
    router = GlobalRouter(
        graph, netlist, CostDistanceSolver(config), GlobalRouterConfig(num_rounds=rounds)
    )
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        router.run()
    digest = hashlib.sha256()
    for tree in router.trees:
        digest.update(repr((tree.root, tuple(tree.sinks), tuple(tree.edges))).encode())
    counters = registry.snapshot()["counters"]
    work = {name: counters.get(name, 0) for name in ("astar.pops", "cd.labels", "cd.merges")}
    return digest.hexdigest(), work


def test_default_route_trees_and_work_pinned():
    digest, work = route_digest(CostDistanceConfig())
    assert digest == "7395c9ed2ef02f3e778e15fc67c05164f5d1664c7aec91d06cd3b2ca405a1631"
    assert work == {"astar.pops": 52764, "cd.labels": 52076, "cd.merges": 688}


_FLAT_ROUTE = (
    "import sys; sys.path.insert(0, {tests!r});"
    "from repro.core.cost_distance import CostDistanceConfig;"
    "from test_search_determinism import route_digest;"
    "print(route_digest(CostDistanceConfig(use_two_level_heap=False)))"
)


def test_flat_queue_route_independent_of_hash_seed():
    """The flat-queue ablation routes the same trees in every interpreter,
    whatever ``PYTHONHASHSEED`` says."""
    script = _FLAT_ROUTE.format(tests=str(Path(__file__).resolve().parent))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(run.stdout.strip())
    assert outputs[0] == outputs[1]
