"""Unit tests for the cost model and metric counters."""

import dataclasses

import pytest

from repro.metrics import costs
from repro.metrics.costs import CostModel
from repro.metrics.counters import MetricsAggregate, RankMetrics, aggregate


class TestCostModel:
    def test_only_the_swept_latency_is_a_field(self):
        assert [f.name for f in dataclasses.fields(CostModel)] == ["evlog_latency"]
        assert CostModel(evlog_latency=0.5) != CostModel()

    def test_identifiers_cost_linear(self):
        c = CostModel()
        assert c.identifiers_cost(10) == pytest.approx(10 * costs.PER_IDENTIFIER)

    def test_log_append_cost_has_size_term(self):
        c = CostModel()
        assert c.log_append_cost(1_000_000) > c.log_append_cost(0)

    def test_ckpt_times(self):
        c = CostModel()
        assert c.ckpt_write_time(0) == costs.CKPT_LATENCY
        assert c.ckpt_write_time(costs.CKPT_BANDWIDTH) \
            == pytest.approx(costs.CKPT_LATENCY + 1.0)
        assert c.ckpt_read_time(costs.CKPT_READ_BANDWIDTH) \
            == pytest.approx(costs.CKPT_LATENCY + 1.0)

    def test_frozen(self):
        c = CostModel()
        with pytest.raises(Exception):
            c.evlog_latency = 1.0  # type: ignore[misc]


class TestAggregate:
    def make(self):
        return aggregate([
            RankMetrics(rank=0, app_sends=10, piggyback_identifiers=50,
                        tracking_time=1.0),
            RankMetrics(rank=1, app_sends=30, piggyback_identifiers=150,
                        tracking_time=3.0),
        ])

    def test_totals_and_means(self):
        agg = self.make()
        assert agg.total("app_sends") == 40
        assert agg.mean("tracking_time") == 2.0

    def test_fig6_metric(self):
        agg = self.make()
        assert agg.piggyback_identifiers_per_message == pytest.approx(200 / 40)

    def test_fig7_metrics(self):
        agg = self.make()
        assert agg.tracking_time_total == 4.0

    def test_empty_aggregate(self):
        agg = MetricsAggregate()
        assert agg.piggyback_identifiers_per_message == 0.0
        assert agg.mean("app_sends") == 0.0

    def test_messages_total(self):
        assert self.make().messages_total == 40
