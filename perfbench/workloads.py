"""The benchmark's three workloads and the metrics they report.

``route_xl`` and ``route_xl_shard4`` route the ``large_chip`` design through
``GlobalRouter.run`` (unsharded, and through ``ShardCoordinator`` with a
two-worker region pool).  ``eco_c1`` drives a ``python -m repro serve``
daemon in its own process with a closed loop of single-op ECO jobs.  See
README.md in this directory for why each exists and which layer metric
should move which end-to-end metric.

Every run checks its outputs (see :mod:`perfbench.checks`); a traced run
(``trace=True``) also wraps each layer's entry points
(:mod:`perfbench.tracing`) and reports the per-layer metrics instead of the
end-to-end ones.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.engine.engine import EngineConfig
from repro.instances.chips import CHIP_SUITE, build_chip, large_chip
from repro.instances.eco_stream import EcoStreamConfig, generate_eco_stream
from repro.router.oracles import make_oracle
from repro.router.router import GlobalRouter, GlobalRouterConfig
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import JobState
from repro.serve.session import RoutingSession

from perfbench import checks, tracing

ROOT = Path(__file__).resolve().parent.parent
#: Where traced runs write their spans and the daemon its log.
OUT_DIR = ROOT / ".perfbench"

#: Resource-sharing rounds of every workload.
ROUNDS = 3
#: Fewest repetitions of a route workload per run, whatever ``--seconds`` says.
MIN_ROUTES = 3
#: Fewest ECO requests per run: the median then has more than ten samples
#: beyond it.  Traced runs issue exactly this many, so their counters repeat.
MIN_ECOS = 24
#: Session route jobs per ``eco_c1`` run; each is one set-up sample.
SESSION_SETUPS = 3

END_TO_END_UNITS: Dict[str, str] = {
    "route_s": "s",
    "setup_s": "s",
    "eco_p50_s": "s",
    "eco_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "worst_slack": "ps",
    "tns": "ps",
    "ace4": "%",
    "wire_length": "tiles",
    "via_count": "count",
    "objective": "cost",
}

_COUNT_LAYERS = (
    "core.solves", "core.astar_pops", "core.labels", "core.merges",
    "engine.oracle_calls", "engine.nets_cached", "engine.nets_replayed",
    "shard.retries", "shard.pool_degraded",
)
_RATIO_LAYERS = ("core.pops_per_solve", "engine.reuse_ratio", "trace.overhead_frac")

PER_LAYER_NAMES: Tuple[str, ...] = (
    "core.solve_s", "core.solves", "core.solve_p50_ms", "core.solve_p99_ms",
    "core.astar_pops", "core.labels", "core.merges", "core.pops_per_solve",
    "engine.round_s", "engine.self_s", "engine.context_s",
    "grid.delta_s", "grid.edge_costs_s",
    "engine.signature_s", "engine.oracle_calls", "engine.nets_cached",
    "engine.nets_replayed", "engine.reuse_ratio",
    "shard.interior_s", "shard.region_busy_s", "shard.region_max_s",
    "shard.pool_overhead_s", "shard.seam_s", "shard.scopes_stitch_s",
    "shard.self_s", "shard.retries", "shard.pool_degraded",
    "router.price_s", "timing.sta_s", "router.self_s",
    "serve.queue_ms", "serve.job_s", "serve.dispatch_ms", "serve.session_eco_s",
    "instances.build_s", "grid.overflow",
    "trace.route_s", "trace.unattributed_s", "trace.overhead_frac",
)


def layer_unit(name: str) -> str:
    if name in _COUNT_LAYERS:
        return "count"
    if name in _RATIO_LAYERS:
        return "ratio"
    if name == "grid.overflow":
        return "overflow"
    return "ms" if name.endswith("_ms") else "s"


PER_LAYER_UNITS: Dict[str, str] = {name: layer_unit(name) for name in PER_LAYER_NAMES}


@dataclass
class Report:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: name -> (value, unit, samples)
    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def check(self, failures: List[str]) -> None:
        """Count one check; it failed when it returned any message."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures)

    def put(self, name: str, value: float, samples: int = 1) -> None:
        unit = END_TO_END_UNITS.get(name) or PER_LAYER_UNITS[name]
        self.metrics[name] = (float(value), unit, samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _quality(report: Report, record: Dict[str, object], samples: int) -> None:
    """The quality metrics from a ``RoutingResult.as_dict`` record.  Slacks
    are reported as violation magnitudes, so lower is better for all."""
    report.put("worst_slack", -float(record["WS"]), samples)
    report.put("tns", -float(record["TNS"]), samples)
    report.put("ace4", float(record["ACE4"]), samples)
    report.put("wire_length", float(record["WL"]), samples)
    report.put("via_count", float(record["Vias"]), samples)
    report.put("objective", float(record["Objective"]), samples)


def _counter_sum(counters: Dict[str, int], prefixes: Tuple[str, ...]) -> int:
    return sum(v for k, v in counters.items() if k.startswith(prefixes))


def _put_layers(
    report: Report, times: Dict[str, float], counters: Dict[str, int]
) -> None:
    """Per-layer metrics shared by every workload's traced run."""
    for name in tracing.SELF_METRICS + (
        "trace.route_s", "engine.round_s", "shard.interior_s", "shard.seam_s",
        "shard.scopes_stitch_s",
    ):
        report.put(name, times[name])
    solves_ms = times["solves_ms"]
    report.put("core.solves", counters.get("cd.solves", 0))
    ordered = sorted(solves_ms) or [0.0]
    report.put("core.solve_p50_ms", statistics.median(ordered), len(solves_ms))
    # Nearest rank, as the program's own histograms report it.
    report.put("core.solve_p99_ms", ordered[math.ceil(0.99 * len(ordered)) - 1], len(solves_ms))
    pops = counters.get("astar.pops", 0)
    report.put("core.astar_pops", pops)
    report.put("core.labels", counters.get("cd.labels", 0))
    report.put("core.merges", counters.get("cd.merges", 0))
    report.put("core.pops_per_solve", pops / max(1, counters.get("cd.solves", 0)))
    calls = counters.get("engine.oracle_calls", 0)
    cached = counters.get("engine.nets_cached", 0)
    replayed = counters.get("engine.nets_replayed", 0)
    report.put("engine.oracle_calls", calls)
    report.put("engine.nets_cached", cached)
    report.put("engine.nets_replayed", replayed)
    report.put("engine.reuse_ratio", (cached + replayed) / max(1, calls + cached + replayed))
    report.put("shard.retries", _counter_sum(counters, ("recovery.",)))
    report.put("shard.pool_degraded", _counter_sum(counters, ("pool.degraded.",)))
    attributed = sum(times[name] for name in tracing.SELF_METRICS)
    drift = abs(attributed - times["trace.route_s"])
    report.check(
        []
        if drift <= 1e-6 * max(1.0, times["trace.route_s"])
        else [f"layer self times sum to {attributed:.6f} s, traced time is "
              f"{times['trace.route_s']:.6f} s"]
    )


def _write_trace(name: str, seed: int, spans: List[list]) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}-seed{seed}.trace.json"
    path.write_text(
        json.dumps({"workload": name, "seed": seed, "spans": tracing.span_records(spans)})
    )


# ---------------------------------------------------------------------------
# Route workloads
# ---------------------------------------------------------------------------


@dataclass
class _RouteRep:
    build_s: float
    setup_s: float
    route_s: float
    request_s: float
    result: Dict[str, object]
    digest: str
    counters: Dict[str, int]
    samples: List[Dict[str, object]]
    spans: Optional[List[list]]


def _route_once(
    report: Report,
    seed: int,
    scale: float,
    shards: int,
    workers: Optional[int],
    recorder: Optional[tracing.SpanRecorder],
) -> _RouteRep:
    started = time.perf_counter()
    graph, netlist = large_chip(net_scale=scale)
    built = time.perf_counter()
    config = GlobalRouterConfig(
        num_rounds=ROUNDS, seed=seed, shards=shards, shard_workers=workers
    )
    router = GlobalRouter(graph, netlist, make_oracle("CD"), config)
    ready = time.perf_counter()
    registry = obs.MetricsRegistry()
    if recorder is not None:
        recorder.clear()
        recorder.active = True
    try:
        with obs.use_registry(registry):
            run_started = time.perf_counter()
            result = router.run()
            done = time.perf_counter()
    finally:
        if recorder is not None:
            recorder.active = False
    counters = registry.snapshot()["counters"]
    report.check(checks.check_trees(graph, netlist, router.trees))
    report.check(checks.fallbacks(counters))
    if workers is not None and workers > 1:
        report.check(
            [] if router.engine.region_executor.pool_used
            else ["the region pool never started"]
        )
    return _RouteRep(
        build_s=built - started,
        setup_s=ready - started,
        route_s=done - run_started,
        request_s=done - built,
        result=result.as_dict(),
        digest=checks.tree_digest(router.trees),
        counters=counters,
        samples=router.series.samples(),
        spans=recorder.spans if recorder is not None else None,
    )


def run_route(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    shards: int = 1,
    workers: Optional[int] = None,
    scale: float = 1.0,
) -> Report:
    """Route ``large_chip`` repeatedly for ``seconds``, one fresh router per
    repetition.  Traced runs alternate untraced and traced repetitions."""
    report = Report()
    reps: List[_RouteRep] = []
    traced_flags: List[bool] = []
    recorder = tracing.SpanRecorder()
    begin = time.perf_counter()
    with tracing.installed(recorder) if trace else nullcontext():
        while True:
            traced = trace and len(reps) % 2 == 1
            rep_started = time.perf_counter()
            reps.append(
                _route_once(report, seed, scale, shards, workers,
                            recorder if traced else None)
            )
            traced_flags.append(traced)
            now = time.perf_counter()
            # Stop before a repetition that would end past ``seconds``.
            enough = len(reps) >= (4 if trace else MIN_ROUTES)
            if enough and now - begin + (now - rep_started) > seconds:
                break
    first = reps[0]
    for rep in reps[1:]:
        report.check(
            checks.compare(
                "repeat result",
                checks.without_walltime(first.result),
                checks.without_walltime(rep.result),
            )
        )
        report.check([] if rep.digest == first.digest else ["repeat trees differ"])
        report.check(
            checks.compare(
                "repeat counters",
                checks.deterministic(first.counters),
                checks.deterministic(rep.counters),
            )
        )
    plain = [r for r, t in zip(reps, traced_flags) if not t]
    report.notes.append(
        "route_s of each repetition: " + " ".join(f"{r.route_s:.3f}" for r in reps)
    )
    if not trace:
        report.put("route_s", statistics.median(r.route_s for r in plain), len(plain))
        report.put("setup_s", statistics.median(r.setup_s for r in plain), len(plain))
        report.put("eco_p50_s", statistics.median(r.request_s for r in plain), len(plain))
        report.put(
            "eco_ops_per_s", len(plain) / sum(r.request_s for r in plain), len(plain)
        )
        report.put("peak_rss_mb", peak_rss_mb())
        _quality(report, first.result, len(reps))
        report.put("ok_frac", 1.0 - report.failed / max(1, report.attempted), report.attempted)
        return report

    traced_reps = sorted(
        (r for r, t in zip(reps, traced_flags) if t), key=lambda r: r.route_s
    )
    chosen = traced_reps[(len(traced_reps) - 1) // 2]
    times = tracing.layer_times(chosen.spans)
    _put_layers(report, times, chosen.counters)
    samples = chosen.samples
    region_rounds = [list(s["region_seconds"].values()) for s in samples]
    report.put("shard.region_busy_s", sum(sum(r) for r in region_rounds))
    report.put("shard.region_max_s", sum(max(r) for r in region_rounds if r))
    report.put("shard.pool_overhead_s", sum(s["overhead_seconds"] for s in samples))
    for serve_metric in ("serve.queue_ms", "serve.job_s", "serve.dispatch_ms"):
        report.put(serve_metric, 0.0, 0)
    report.put("instances.build_s", statistics.median(r.build_s for r in reps), len(reps))
    report.put("grid.overflow", float(first.result["Overflow"]))
    report.put(
        "trace.overhead_frac",
        statistics.median(r.route_s for r in traced_reps)
        / statistics.median(r.route_s for r in plain)
        - 1.0,
        len(reps),
    )
    _write_trace(name, seed, chosen.spans)
    return report


# ---------------------------------------------------------------------------
# ECO workload
# ---------------------------------------------------------------------------


class _Daemon:
    """A ``python -m repro serve`` child process on an ephemeral port."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.log_path = OUT_DIR / f"daemon-{os.getpid()}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        self.client: Optional[ServeClient] = None
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
                 "--port", "0", "--job-workers", "1"],
                cwd=ROOT, env=env, stdout=log, stderr=log,
            )
        try:
            self.client = ServeClient("127.0.0.1", self._port(), timeout=120.0)
            self.client.wait_until_up(timeout=60.0, poll=0.01)
        except BaseException:
            self.stop()
            raise

    def _port(self) -> int:
        deadline = time.monotonic() + 60.0
        marker = "listening on "
        while time.monotonic() < deadline:
            text = self.log_path.read_text(errors="replace")
            if marker in text:
                return int(text.split(marker, 1)[1].split()[0].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"routing daemon did not start; log:\n{text[-2000:]}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                if self.client is not None:
                    self.client.shutdown()
            except ServeError:  # the daemon may already be gone; kill below
                pass
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30.0)
        if self.proc.returncode == 0:
            self.log_path.unlink(missing_ok=True)

    def run_job(self, submit) -> Tuple[Dict[str, object], float]:
        """Submit one job, stream its events until the terminal state, and
        return ``(job record, latency seen by the client)``."""
        started = time.perf_counter()
        job_id = submit()
        for event in self.client.watch(job_id, timeout=120.0):
            if event.get("event") == "job_state" and event.get("status") in JobState.TERMINAL:
                break
        latency = time.perf_counter() - started
        return self.client.result(job_id), latency


def _eco_config(seed: int) -> GlobalRouterConfig:
    return GlobalRouterConfig(
        num_rounds=ROUNDS, seed=seed, engine=EngineConfig(reroute_cache=True)
    )


def _c1(scale: float):
    spec = CHIP_SUITE[0]
    return build_chip(spec if scale == 1.0 else spec.scaled(scale))


def _sessions(graph, netlist, seed: int) -> List[RoutingSession]:
    """One in-process session per daemon session, each routed cold."""
    sessions = [
        RoutingSession(graph, netlist, make_oracle("CD"), _eco_config(seed), name=f"s{i}")
        for i in range(SESSION_SETUPS)
    ]
    for session in sessions:
        session.route()
    return sessions


def _reference_session(conn, seed: int, scale: float) -> None:
    """Child process: in-process sessions fed the same ops as the daemon's,
    one ``(session index, ops)`` message per request and ``None`` at the
    end.  Sends the cold route record, one ECO record per op, and finally
    the parity of session ``s0``'s last ECO next to a cold re-route of its
    netlist."""
    graph, netlist = _c1(scale)
    sessions = _sessions(graph, netlist, seed)
    conn.send(sessions[0].last_result.as_dict())
    while (message := conn.recv()) is not None:
        index, batch = message
        conn.send(checks.eco_record(sessions[index].apply_eco(batch).as_dict()))
    last = sessions[0]
    cold = RoutingSession(graph, last.netlist, make_oracle("CD"), _eco_config(seed))
    cold.weight_overrides = last.weight_overrides
    conn.send((checks.parity(last.last_result), checks.parity(cold.route())))
    conn.close()


def run_eco(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Report:
    """Closed loop of single-op ECO jobs against a daemon session on ``c1``.

    A reference session in a child process replays every op beside the
    daemon, and each daemon result must equal it exactly.  Traced runs then
    replay the ops once more in this process, alternating an untraced and a
    traced session, for the per-layer split and the tracing overhead.
    """
    report = Report()
    build_times = []
    for _ in range(SESSION_SETUPS):
        started = time.perf_counter()
        graph, netlist = _c1(scale)
        build_times.append(time.perf_counter() - started)
    # Request i goes to session s(i mod 3), with the next op of that
    # session's own stream: ECO cost grows as a stream adds nets and sinks,
    # so three short streams vary less from seed to seed than one long one.
    streams = [
        generate_eco_stream(
            netlist, graph,
            EcoStreamConfig(ops=20 * MIN_ECOS, batch_size=1, seed=SESSION_SETUPS * seed + k),
        )
        for k in range(SESSION_SETUPS)
    ]
    requests = [
        (k, batch) for batches in zip(*streams) for k, batch in enumerate(batches)
    ]
    params = {"chip": "c1", "net_scale": scale, "oracle": "CD", "rounds": ROUNDS, "seed": seed}

    context = multiprocessing.get_context("spawn")
    conn, child_conn = context.Pipe()
    reference = context.Process(target=_reference_session, args=(child_conn, seed, scale))
    reference.start()
    child_conn.close()
    try:
        started = time.perf_counter()
        daemon = _Daemon()
        try:
            up_s = time.perf_counter() - started
            session_jobs = [
                daemon.run_job(
                    lambda i=index: daemon.client.submit_route(session=f"s{i}", **params)
                )
                for index in range(SESSION_SETUPS)
            ]
            for job, _ in session_jobs:
                report.check([] if job["status"] == JobState.DONE else [f"session route: {job}"])
            before = daemon.client.metrics()["counters"]
            ecos: List[Tuple[Tuple[int, list], Dict[str, object], float]] = []
            loop_started = time.perf_counter()
            for request in requests:
                if len(ecos) >= MIN_ECOS and (
                    trace or time.perf_counter() - loop_started + ecos[-1][2] > seconds
                ):
                    break
                conn.send(request)
                job, latency = daemon.run_job(
                    lambda r=request: daemon.client.submit_eco(f"s{r[0]}", r[1])
                )
                report.check(
                    [] if job["status"] == JobState.DONE else [f"eco job: {job.get('error')}"]
                )
                ecos.append((request, job, latency))
            loop_s = time.perf_counter() - loop_started
            after = daemon.client.metrics()["counters"]
        finally:
            daemon.stop()
        conn.send(None)
        cold_record = conn.recv()
        expected = [conn.recv() for _ in ecos]
        last_parity, cold_parity = conn.recv()
    finally:
        conn.close()
        reference.join(timeout=120.0)
        if reference.is_alive():
            reference.kill()
            reference.join()
    if len(ecos) < MIN_ECOS:
        report.check([f"the ECO stream ran out after {len(ecos)} requests"])
    daemon_counters = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    report.check(checks.fallbacks(daemon_counters))
    session_record = session_jobs[0][0]["result"]["result"]
    report.check(
        checks.compare(
            "session route vs in-process",
            checks.without_walltime(cold_record),
            checks.without_walltime(session_record),
        )
    )
    done_jobs = []
    for (_, job, _), record in zip(ecos, expected):
        if job["status"] == JobState.DONE:
            done_jobs.append(job)
            report.check(
                checks.compare("daemon eco vs in-process", record, checks.eco_record(job["result"]))
            )
    # The replay contract: the last ECO equals a cold route of its netlist.
    report.check(checks.compare("last eco vs cold re-route", last_parity, cold_parity))

    latencies = [latency for _, _, latency in ecos]
    if not trace:
        walls = [float(job["result"]["result"]["Walltime"]) for job in done_jobs]
        report.put("route_s", statistics.median(walls), len(walls))
        report.put(
            "setup_s",
            up_s + statistics.median(latency for _, latency in session_jobs),
            len(session_jobs),
        )
        report.put("eco_p50_s", statistics.median(latencies), len(latencies))
        report.put("eco_ops_per_s", len(ecos) / loop_s, len(ecos))
        report.put("peak_rss_mb", peak_rss_mb())
        _quality(report, session_record, len(session_jobs))
        report.put("ok_frac", 1.0 - report.failed / max(1, report.attempted), report.attempted)
        high = 100 - 1000 // len(latencies)
        report.notes.append(
            f"eco latency: p50 {statistics.median(latencies):.4f} s, "
            f"p{high} {statistics.quantiles(latencies, n=100)[high - 1]:.4f} s "
            f"over {len(latencies)} requests"
        )
        return report

    plain = _sessions(graph, netlist, seed)
    traced = _sessions(graph, netlist, seed)
    recorder = tracing.SpanRecorder()
    registry = obs.MetricsRegistry()
    plain_s: List[float] = []
    traced_s: List[float] = []
    with tracing.installed(recorder):
        for ((index, batch), _, _), record in zip(ecos, expected):
            started = time.perf_counter()
            plain[index].apply_eco(batch)
            plain_s.append(time.perf_counter() - started)
            recorder.active = True
            try:
                with obs.use_registry(registry):
                    started = time.perf_counter()
                    result = traced[index].apply_eco(batch)
                    traced_s.append(time.perf_counter() - started)
            finally:
                recorder.active = False
            report.check(
                checks.compare("traced eco vs in-process", record,
                               checks.eco_record(result.as_dict()))
            )
    counters = registry.snapshot()["counters"]
    engine_names = ("engine.oracle_calls", "engine.nets_cached", "engine.nets_replayed")
    report.check(
        checks.compare(
            "daemon vs in-process engine counters",
            {k: daemon_counters.get(k, 0) for k in engine_names},
            {k: counters.get(k, 0) for k in engine_names},
        )
    )
    times = tracing.layer_times(recorder.spans)
    _put_layers(report, times, counters)
    for metric in ("shard.region_busy_s", "shard.region_max_s", "shard.pool_overhead_s"):
        report.put(metric, 0.0)
    queue_ms = [
        (float(job["started_at"]) - float(job["submitted_at"])) * 1e3 for job in done_jobs
    ]
    job_s = [float(job["duration_seconds"]) for job in done_jobs]
    dispatch_ms = [
        (latency - float(job["duration_seconds"])) * 1e3
        for _, job, latency in ecos
        if job["status"] == JobState.DONE
    ]
    report.put("serve.queue_ms", statistics.median(queue_ms), len(queue_ms))
    report.put("serve.job_s", statistics.median(job_s), len(job_s))
    report.put("serve.dispatch_ms", statistics.median(dispatch_ms), len(dispatch_ms))
    report.put("instances.build_s", statistics.median(build_times), len(build_times))
    report.put("grid.overflow", float(session_record["Overflow"]))
    report.put(
        "trace.overhead_frac",
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0,
        len(traced_s),
    )
    _write_trace(name, seed, recorder.spans)
    return report


WORKLOADS = {
    "route_xl": lambda seed, seconds, trace, scale=1.0: run_route(
        "route_xl", seed, seconds, trace, scale=scale
    ),
    "route_xl_shard4": lambda seed, seconds, trace, scale=1.0: run_route(
        "route_xl_shard4", seed, seconds, trace, shards=4, workers=2, scale=scale
    ),
    "eco_c1": lambda seed, seconds, trace, scale=1.0: run_eco(
        "eco_c1", seed, seconds, trace, scale=scale
    ),
}
