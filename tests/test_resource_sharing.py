"""Focused tests for :class:`repro.router.resource_sharing.ResourceSharingPrices`.

Covers the price-update edge cases that the router tests only brush:
clamping at ``max_edge_price``, convergence of the smoothed delay-weight
updates, and the infinite-slack fallback to ``base_delay_weight``.
"""


import numpy as np
import pytest

from repro.grid.congestion import CongestionMap
from repro.router.resource_sharing import ResourceSharingConfig, ResourceSharingPrices


def report_like(worst_slack, sink_slacks):
    """A minimal object with the TimingReport fields the updates read."""
    return type("R", (), {"worst_slack": worst_slack, "sink_slacks": sink_slacks})()


class TestEdgePriceClamping:
    def test_prices_clamp_at_max_edge_price(self, small_graph):
        config = ResourceSharingConfig(edge_price_strength=5.0, max_edge_price=16.0)
        prices = ResourceSharingPrices(small_graph, [1], config)
        congestion = CongestionMap(small_graph)
        congestion.add_usage(
            range(small_graph.num_edges),
            amount=float(np.max(small_graph.edge_capacity)) * 50.0,
        )
        for _ in range(20):
            prices.update_edge_prices(congestion)
        assert np.all(prices.edge_prices <= config.max_edge_price + 1e-12)
        # A hopeless overflow drives every edge to the clamp exactly.
        assert np.all(prices.edge_prices == pytest.approx(config.max_edge_price))

    def test_price_component_bounded_under_hopeless_overflow(self, small_graph):
        """However many rounds a massive overflow persists, the multiplicative
        price contribution to the edge costs stays bounded by the clamp."""
        config = ResourceSharingConfig(max_edge_price=8.0)
        prices = ResourceSharingPrices(small_graph, [1], config)
        congestion = CongestionMap(small_graph)
        congestion.add_usage(range(small_graph.num_edges), amount=1e6)
        with np.errstate(over="ignore"):  # exp(huge) -> inf, then clamped
            for _ in range(50):
                prices.update_edge_prices(congestion)
        assert np.all(np.isfinite(prices.edge_prices))
        assert np.all(prices.edge_prices <= config.max_edge_price + 1e-12)
        # At a moderate congestion level the priced costs are the unpriced
        # costs scaled by at most the clamp.
        congestion.reset()
        congestion.add_usage(range(small_graph.num_edges), amount=1.0)
        priced = prices.edge_costs(congestion)
        unpriced = congestion.edge_costs()
        assert np.all(priced <= unpriced * config.max_edge_price + 1e-9)
        assert np.all(np.isfinite(priced))

    def test_uncongested_edges_never_move(self, small_graph):
        prices = ResourceSharingPrices(small_graph, [1])
        congestion = CongestionMap(small_graph)  # empty usage
        for _ in range(5):
            prices.update_edge_prices(congestion)
        assert np.all(prices.edge_prices == pytest.approx(1.0))


class TestWeightSmoothing:
    def test_smoothing_converges_to_target(self, small_graph):
        """Repeated updates under a fixed report converge geometrically to the
        target weight implied by that report."""
        config = ResourceSharingConfig(weight_smoothing=0.5)
        prices = ResourceSharingPrices(small_graph, [1], config)
        report = report_like(-10.0, {0: [-10.0]})  # the sink is the worst slack
        target = config.base_delay_weight + config.critical_delay_weight * 1.0
        previous_gap = abs(prices.weights_of(0)[0] - target)
        for _ in range(40):
            prices.update_delay_weights(report)
            gap = abs(prices.weights_of(0)[0] - target)
            assert gap <= previous_gap * config.weight_smoothing + 1e-12
            previous_gap = gap
        assert prices.weights_of(0)[0] == pytest.approx(target, rel=1e-6)

    def test_smoothing_zero_keeps_old_weights(self, small_graph):
        config = ResourceSharingConfig(weight_smoothing=0.0)
        prices = ResourceSharingPrices(small_graph, [2], config)
        before = prices.weights_of(0)
        prices.update_delay_weights(report_like(-5.0, {0: [-5.0, 1.0]}))
        assert prices.weights_of(0) == before

    def test_smoothing_one_replaces_weights(self, small_graph):
        config = ResourceSharingConfig(weight_smoothing=1.0)
        prices = ResourceSharingPrices(small_graph, [1], config)
        prices.update_delay_weights(report_like(-10.0, {0: [-10.0]}))
        target = config.base_delay_weight + config.critical_delay_weight
        assert prices.weights_of(0)[0] == pytest.approx(target)

    def test_nets_without_slacks_keep_weights(self, small_graph):
        prices = ResourceSharingPrices(small_graph, [1, 1])
        before = prices.weights_of(1)
        prices.update_delay_weights(report_like(-5.0, {0: [-5.0]}))  # net 1 missing
        assert prices.weights_of(1) == before


class TestInfiniteSlackFallback:
    def test_infinite_slack_sink_falls_back_to_base_weight(self, small_graph):
        """A sink with no timing constraint relaxes to base_delay_weight even
        if it previously carried a large (critical) weight."""
        config = ResourceSharingConfig(weight_smoothing=1.0)
        prices = ResourceSharingPrices(small_graph, [2], config)
        prices.delay_weights[0] = [5.0, 5.0]
        report = report_like(-10.0, {0: [float("inf"), -10.0]})
        prices.update_delay_weights(report)
        after = prices.weights_of(0)
        assert after[0] == pytest.approx(config.base_delay_weight)
        assert after[1] > config.base_delay_weight

    def test_infinite_slack_converges_under_partial_smoothing(self, small_graph):
        config = ResourceSharingConfig(weight_smoothing=0.7)
        prices = ResourceSharingPrices(small_graph, [1], config)
        prices.delay_weights[0] = [3.0]
        report = report_like(-1.0, {0: [float("inf")]})
        for _ in range(60):
            prices.update_delay_weights(report)
        assert prices.weights_of(0)[0] == pytest.approx(config.base_delay_weight, rel=1e-6)

    def test_positive_slack_gets_mild_push_not_base(self, small_graph):
        """A finite small positive slack lands above the base weight (the
        near-critical nudge), unlike an unconstrained (inf-slack) sink."""
        config = ResourceSharingConfig(weight_smoothing=1.0)
        prices = ResourceSharingPrices(small_graph, [2], config)
        report = report_like(-100.0, {0: [1.0, float("inf")]})
        prices.update_delay_weights(report)
        after = prices.weights_of(0)
        assert after[0] > config.base_delay_weight
        assert after[1] == pytest.approx(config.base_delay_weight)
