"""In-memory layer spans for the benchmark's traced runs.

A traced run wraps the entry points of each layer of the router -- the
functions listed in :data:`TARGETS` -- with a span recorder that lives in
this process only.  Spans nest through an explicit stack, so every span's
*self* time (its duration minus the time its child spans cover) is known
when it closes.  Each span kind belongs to exactly one self-time bucket
(:data:`BUCKETS`); the root span's self time is the ``unattributed``
remainder, so the buckets partition the root's wall time exactly.

Region pool workers are forked from the traced process and inherit the
wrappers.  The wrappers record only in the process that installed them and
pass straight through elsewhere, so nothing crosses the pool boundary: the
program pickles oracles, tasks and outcomes by class reference, never a
wrapper.  Region time is read from the parent side instead (the
coordinator's per-round ``region_seconds`` and ``overhead_seconds``).
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

#: ``(module, owner.attribute, span kind)`` of every wrapped entry point.
#: ``owner`` is a class of the module, or ``-`` for a module attribute.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.router.router", "GlobalRouter.run", "router.run"),
    ("repro.serve.session", "RoutingSession.apply_eco", "serve.session"),
    ("repro.router.router", "GlobalRouter._run_sta", "timing.sta"),
    ("repro.router.router", "GlobalRouter._collect_metrics", "router.self"),
    ("repro.obs", "-.round_sample", "router.self"),
    ("repro.router.resource_sharing", "ResourceSharingPrices.update_edge_prices", "router.price"),
    ("repro.router.resource_sharing", "ResourceSharingPrices.update_delay_weights", "router.price"),
    ("repro.engine.engine", "RoutingEngine.route_round", "engine.round"),
    ("repro.engine.executor", "SerialExecutor.route_batch", "engine.batch"),
    ("repro.engine.executor", "ProcessExecutor.route_batch", "engine.batch"),
    ("repro.engine.executor", "BatchExecutor.make_context", "engine.context"),
    ("repro.engine.cache", "RerouteCache.signature", "engine.signature"),
    ("repro.grid.congestion", "CongestionMap.apply_tree_delta", "grid.delta"),
    ("repro.grid.congestion", "CongestionMap.snapshot", "grid.delta"),
    ("repro.grid.congestion", "CongestionMap.edge_costs", "grid.edge_costs"),
    ("repro.grid.congestion", "CongestionSnapshot.edge_costs", "grid.edge_costs"),
    ("repro.core.cost_distance", "CostDistanceSolver.build", "core.solve"),
    ("repro.shard.coordinator", "ShardCoordinator.route_round", "shard.round"),
    ("repro.shard.coordinator", "ShardCoordinator.close", "shard.close"),
    ("repro.shard.coordinator", "_SubgraphScope.route_round", "shard.scope"),
    ("repro.shard.executor", "SerialRegionExecutor.route_round", "shard.interior"),
    ("repro.shard.executor", "ProcessRegionExecutor.route_round", "shard.interior"),
)

#: Span kind -> the per-layer self-time metric it books into.
BUCKETS: Dict[str, str] = {
    "router.run": "trace.unattributed_s",
    "serve.session": "serve.session_eco_s",
    "timing.sta": "timing.sta_s",
    "router.self": "router.self_s",
    "router.price": "router.price_s",
    "engine.round": "engine.self_s",
    "engine.batch": "engine.self_s",
    "engine.context": "engine.context_s",
    "engine.signature": "engine.signature_s",
    "grid.delta": "grid.delta_s",
    "grid.edge_costs": "grid.edge_costs_s",
    "core.solve": "core.solve_s",
    "shard.round": "shard.self_s",
    "shard.close": "shard.self_s",
    "shard.scope": "shard.self_s",
    "shard.interior": "shard.self_s",
}

#: Self-time metrics, in report order.  They sum to the root's wall time.
SELF_METRICS: Tuple[str, ...] = tuple(dict.fromkeys(BUCKETS.values()))

# Span record layout (a list, mutated while the span is open).
_KIND, _START, _END, _PARENT, _CHILD = range(5)


class SpanRecorder:
    """Collects spans of the installing process while :attr:`active`."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.active = False
        self.spans: List[list] = []
        self._stack: List[int] = []

    def clear(self) -> None:
        """Start a new window; spans of the previous one stay with whoever
        holds the old list."""
        self.spans = []
        self._stack = []

    def open(self, kind: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([kind, time.perf_counter(), 0.0, parent, 0.0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[_END] = time.perf_counter()
        self._stack.pop()
        if span[_PARENT] >= 0:
            self.spans[span[_PARENT]][_CHILD] += span[_END] - span[_START]


def _wrap(fn, kind: str, recorder: SpanRecorder):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        if not recorder.active or os.getpid() != recorder.pid:
            return fn(*args, **kwargs)
        index = recorder.open(kind)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    return timed


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every :data:`TARGETS` entry for the ``with`` body, then restore
    the originals.  Spans are recorded only while ``recorder.active``."""
    originals = []
    try:
        for module_name, path, kind in TARGETS:
            owner_name, attribute = path.split(".")
            owner = importlib.import_module(module_name)
            if owner_name != "-":
                owner = getattr(owner, owner_name)
            original = vars(owner)[attribute]
            setattr(owner, attribute, _wrap(original, kind, recorder))
            originals.append((owner, attribute, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def span_records(spans: List[list]) -> List[Dict[str, object]]:
    """Spans as JSON-ready dicts (for the trace file)."""
    return [
        {"kind": s[_KIND], "start": s[_START], "end": s[_END], "parent": s[_PARENT]}
        for s in spans
    ]


def _outermost(spans: List[list], kind: str) -> List[list]:
    """Spans of ``kind`` without an ancestor of the same kind."""
    found = []
    for span in spans:
        if span[_KIND] != kind:
            continue
        parent = span[_PARENT]
        while parent >= 0 and spans[parent][_KIND] != kind:
            parent = spans[parent][_PARENT]
        if parent < 0:
            found.append(span)
    return found


def _total(spans: List[list]) -> float:
    return sum(s[_END] - s[_START] for s in spans)


def layer_times(spans: List[list]) -> Dict[str, float]:
    """Per-layer seconds of one traced window.

    ``trace.route_s`` is the summed duration of the root spans (spans
    without a parent); the :data:`SELF_METRICS` partition it.  Inclusive
    layer times (``engine.round_s``, ``shard.interior_s``, ``shard.seam_s``,
    ``shard.scopes_stitch_s``) and the per-solve durations are derived from
    the same spans.
    """
    out = {name: 0.0 for name in SELF_METRICS}
    for span in spans:
        out[BUCKETS[span[_KIND]]] += span[_END] - span[_START] - span[_CHILD]
    out["trace.route_s"] = _total([s for s in spans if s[_PARENT] < 0])
    out["engine.round_s"] = _total(_outermost(spans, "engine.round"))
    coordinator = _outermost(spans, "shard.round")
    interior = _total(_outermost(spans, "shard.interior"))
    # The global seam engine is the only engine called by the coordinator
    # itself; region and seam-scope engines sit under interior/scope spans.
    seam = _total(
        [
            s
            for s in spans
            if s[_KIND] == "engine.round"
            and s[_PARENT] >= 0
            and spans[s[_PARENT]][_KIND] == "shard.round"
        ]
    )
    out["shard.interior_s"] = interior
    out["shard.seam_s"] = seam
    out["shard.scopes_stitch_s"] = max(0.0, _total(coordinator) - interior - seam)
    out["solves_ms"] = [  # type: ignore[assignment]
        (s[_END] - s[_START]) * 1e3 for s in spans if s[_KIND] == "core.solve"
    ]
    return out
