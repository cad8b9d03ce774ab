"""Tests for the experiment harness, table formatting and figures."""

import pytest

from repro.analysis.experiments import (
    bucket_of,
    default_oracles,
    run_global_routing,
    run_instance_comparison,
)
from repro.analysis.figures import (
    figure1_bifurcation_comparison,
    figure2_split_tradeoff,
    figure3_algorithm_trace,
)
from repro.analysis.tables import (
    format_chip_table,
    format_instance_comparison,
    format_routing_results,
)
from repro.core.cost_distance import CostDistanceSolver
from repro.baselines.rsmt import RectilinearSteinerOracle
from repro.grid.graph import build_grid_graph
from repro.instances.chips import ChipSpec, chip_table
from repro.instances.generator import generate_steiner_instances
from repro.router.metrics import RoutingResult
from repro.router.router import GlobalRouterConfig


class TestBuckets:
    def test_bucket_of(self):
        assert bucket_of(3) == "3-5"
        assert bucket_of(5) == "3-5"
        assert bucket_of(6) == "6-14"
        assert bucket_of(20) == "15-29"
        assert bucket_of(100) == ">=30"
        assert bucket_of(2) is None

    def test_default_oracles(self):
        names = [o.name for o in default_oracles()]
        assert names == ["L1", "SL", "PD", "CD"]


class TestInstanceComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        graph = build_grid_graph(10, 10, 4)
        instances = generate_steiner_instances(
            graph, 6, dbif=0.0, seed=5,
            size_distribution=((3, 5, 0.6), (6, 10, 0.4)),
        )
        rows = run_instance_comparison(instances)
        return instances, rows

    def test_row_structure(self, comparison):
        _, rows = comparison
        buckets = [row.bucket for row in rows]
        assert buckets == ["3-5", "6-14", "15-29", ">=30", "all"]
        all_row = rows[-1]
        assert all_row.num_instances == 6
        assert set(all_row.average_increase) == {"L1", "SL", "PD", "CD"}

    def test_increases_nonnegative_and_some_zero(self, comparison):
        _, rows = comparison
        all_row = rows[-1]
        values = list(all_row.average_increase.values())
        assert all(v >= 0 for v in values)
        # The best method per instance has a zero increase, so the minimum
        # average is strictly below the maximum unless all methods tie.
        assert min(values) <= max(values)

    def test_bucket_counts_sum(self, comparison):
        _, rows = comparison
        assert sum(row.num_instances for row in rows[:-1]) == rows[-1].num_instances

    def test_formatting(self, comparison):
        _, rows = comparison
        text = format_instance_comparison(rows, title="Table I analogue")
        assert "Table I analogue" in text
        assert "3-5" in text and "all" in text
        assert "%" in text

    def test_subset_of_oracles(self):
        graph = build_grid_graph(8, 8, 3)
        instances = generate_steiner_instances(graph, 2, seed=1)
        rows = run_instance_comparison(
            instances, oracles=[RectilinearSteinerOracle(), CostDistanceSolver()]
        )
        assert set(rows[-1].average_increase) == {"L1", "CD"}


class TestGlobalRoutingHarness:
    def test_runs_tiny_chip(self):
        spec = ChipSpec("t1", 8, 8, 4, 6, seed=1)
        results = run_global_routing(
            [spec],
            oracles=[CostDistanceSolver()],
            router_config=GlobalRouterConfig(num_rounds=1),
        )
        assert len(results) == 1
        assert results[0].chip == "t1"
        assert results[0].method == "CD"

    def test_formatting(self):
        results = [
            RoutingResult("c1", "L1", -5.0, -20.0, 88.0, 100.0, 50, 1.0),
            RoutingResult("c1", "CD", -4.0, -15.0, 86.0, 105.0, 45, 0.5),
        ]
        text = format_routing_results(results)
        assert "c1" in text and "CD" in text and "all" in text

    def test_chip_table_formatting(self):
        text = format_chip_table(chip_table())
        assert "c1" in text and "c8" in text and "#nets" in text


class TestFigures:
    def test_figure1(self):
        result = figure1_bifurcation_comparison(
            build_grid_graph(12, 12, 4), num_sinks=8, dbif=5.0, seed=2
        )
        assert result.critical_bifurcations_without >= 0
        assert result.critical_bifurcations_with >= 0
        assert result.objective_with > 0
        # With penalties active, the penalised objective of the
        # penalty-aware tree should not exceed the one of the unaware tree by
        # much (the algorithm optimises for it).
        assert result.critical_delay_with <= result.critical_delay_without * 2.0

    def test_figure2(self):
        result = figure2_split_tradeoff(weight_heavy=3.0, weight_light=1.0, dbif=2.0, eta=0.25)
        assert result.dbif == 2.0
        assert result.optimal_lambda_heavy == pytest.approx(0.25)
        assert result.optimal_penalty <= result.even_split_penalty
        # Sample endpoints cover the allowed range [eta, 1-eta].
        lambdas = [l for l, _ in result.split_samples]
        assert lambdas[0] == pytest.approx(0.25)
        assert lambdas[-1] == pytest.approx(0.75)
        # The optimum is the minimum over the sampled splits.
        assert result.optimal_penalty <= min(v for _, v in result.split_samples) + 1e-9

    def test_figure2_default_dbif_from_repeaters(self):
        result = figure2_split_tradeoff()
        assert result.dbif > 0

    def test_figure3(self):
        result = figure3_algorithm_trace(num_sinks=5, seed=3)
        assert result.num_root_merges + result.num_sink_merges == len(result.merges)
        assert result.num_root_merges >= 1
        assert "iteration 1" in result.ascii_art
        # 5 sinks (distinct tiles) -> at most 5 iterations.
        assert 1 <= len(result.merges) <= 5
