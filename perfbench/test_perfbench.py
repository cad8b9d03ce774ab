"""Self-tests of the benchmark at tiny scale.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import faults
from repro.core.tree import EmbeddedTree
from repro.instances.chips import large_chip
from repro.router.oracles import make_oracle
from repro.router.router import GlobalRouter, GlobalRouterConfig

from perfbench import checks, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Net-count scale per workload: seconds per run, not minutes.
SCALES = {"route_xl": 0.05, "route_xl_shard4": 0.1, "eco_c1": 0.3}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--scale", str(SCALES[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_matches_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for line_metric in expected:
        assert f" {line_metric['name']} " in proc.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("route_xl", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_corrupted_tree_trips_the_tree_check():
    graph, netlist = large_chip(net_scale=0.05)
    router = GlobalRouter(graph, netlist, make_oracle("CD"), GlobalRouterConfig(num_rounds=1))
    router.run()
    assert checks.check_trees(graph, netlist, router.trees) == []
    victim = max(range(netlist.num_nets), key=lambda i: len(router.trees[i].edges))
    trees = list(router.trees)
    broken = trees[victim]
    trees[victim] = EmbeddedTree(graph, broken.root, broken.sinks, broken.edges[:-1], "CD")
    failures = checks.check_trees(graph, netlist, trees)
    assert len(failures) == 1 and netlist.nets[victim].name in failures[0]
    trees[victim] = None
    assert checks.check_trees(graph, netlist, trees) == [
        f"net {netlist.nets[victim].name} has no tree"
    ]
    assert checks.tree_digest(trees) != checks.tree_digest(router.trees)


def test_mismatches_and_fallbacks_are_reported():
    assert checks.compare("x", {"a": 1.0}, {"a": 1.0}) == []
    assert checks.compare("x", {"a": 1.0}, {"a": 1.0000001}) != []
    assert checks.fallbacks({"recovery.tasks_retried": 0, "engine.oracle_calls": 9}) == []
    assert checks.fallbacks({"pool.degraded.region-process": 1}) != []
    report = workloads.Report()
    report.check([])
    report.check(["boom"])
    assert (report.attempted, report.failed, report.failures) == (2, 1, ["boom"])


def test_pooled_traced_run_has_no_worker_deaths():
    report = workloads.run_route(
        "route_xl_shard4", seed=0, seconds=0.0, trace=True, shards=4, workers=2, scale=0.1
    )
    assert report.failed == 0, report.failures
    values = {name: value for name, (value, _, _) in report.metrics.items()}
    assert values["shard.retries"] == 0 and values["shard.pool_degraded"] == 0
    assert values["shard.region_busy_s"] > 0 and values["core.astar_pops"] > 0
    attributed = sum(values[name] for name in tracing.SELF_METRICS)
    assert attributed == pytest.approx(values["trace.route_s"], rel=1e-9)


def test_a_killed_region_worker_fails_the_run():
    faults.install_plan("kill-region-worker:round=1")
    try:
        report = workloads.run_route(
            "route_xl_shard4", seed=0, seconds=0.0, trace=False, shards=4, workers=2,
            scale=0.1,
        )
    finally:
        faults.clear_plan()
    assert report.failed >= 1
    assert any(f.startswith("fallback counter recovery.") for f in report.failures)
