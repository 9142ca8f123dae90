"""Instrumentation: counters, cost model, timelines."""

from repro.metrics.counters import RankMetrics, MetricsAggregate, aggregate
from repro.metrics.costs import CostModel

__all__ = [
    "RankMetrics",
    "MetricsAggregate",
    "aggregate",
    "CostModel",
]
