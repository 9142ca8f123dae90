"""Unit tests for stochastic fault schedules and checkpoint-interval
selection."""

import math

import pytest

from repro.faults.schedules import (
    poisson_schedule,
    weibull_schedule,
)
from repro.protocols.daly import EfficiencyModel, daly_interval, young_interval
from repro.simnet.rng import RngStreams


class TestPoissonSchedule:
    def test_reproducible(self):
        a = poisson_schedule(RngStreams(5), 8, horizon=10.0, mtbf=0.5)
        b = poisson_schedule(RngStreams(5), 8, horizon=10.0, mtbf=0.5)
        assert a == b

    def test_counts_near_expectation(self):
        specs = poisson_schedule(RngStreams(7), 8, horizon=100.0, mtbf=0.5)
        expected = 100.0 / 0.5  # horizon / system MTBF
        assert 0.6 * expected < len(specs) < 1.4 * expected

    def test_times_sorted_within_horizon(self):
        specs = poisson_schedule(RngStreams(1), 4, horizon=5.0, mtbf=0.2)
        times = [s.at_time for s in specs]
        assert times == sorted(times)
        assert all(0 < t < 5.0 for t in times)

    def test_ranks_in_range(self):
        specs = poisson_schedule(RngStreams(2), 4, horizon=20.0, mtbf=0.2)
        assert {s.rank for s in specs} <= set(range(4))
        assert len({s.rank for s in specs}) > 1  # spreads across ranks

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_schedule(RngStreams(0), 4, horizon=-1.0, mtbf=1.0)
        with pytest.raises(ValueError):
            poisson_schedule(RngStreams(0), 4, horizon=1.0, mtbf=0.0)


class TestWeibullSchedule:
    def test_reproducible_and_bounded(self):
        a = weibull_schedule(RngStreams(5), 8, horizon=10.0, scale=0.5)
        b = weibull_schedule(RngStreams(5), 8, horizon=10.0, scale=0.5)
        assert a == b
        assert all(0 < s.at_time < 10.0 for s in a)

    def test_shape_one_is_poisson_like(self):
        specs = weibull_schedule(RngStreams(3), 8, horizon=50.0, scale=0.5,
                                 shape=1.0)
        assert 50 < len(specs) < 150  # around 100

    def test_validation(self):
        with pytest.raises(ValueError):
            weibull_schedule(RngStreams(0), 4, horizon=1.0, scale=1.0, shape=0)


class TestIntervalFormulas:
    def test_young_formula(self):
        assert young_interval(2.0, 100.0) == pytest.approx(math.sqrt(400.0))

    def test_daly_close_to_young_for_small_cost(self):
        y = young_interval(0.001, 1000.0)
        d = daly_interval(0.001, 1000.0)
        assert abs(d - y) / y < 0.02

    def test_daly_caps_at_mtbf_for_huge_cost(self):
        assert daly_interval(500.0, 100.0) == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            young_interval(0, 1.0)
        with pytest.raises(ValueError):
            daly_interval(1.0, -1.0)


class TestEfficiencyModel:
    def test_efficiency_peaks_near_young(self):
        model = EfficiencyModel(ckpt_cost=1.0, restart_cost=0.5, mtbf=400.0)
        y = young_interval(1.0, 400.0)
        candidates = [y / 8, y / 2, y, 2 * y, 8 * y]
        assert max(candidates, key=model.efficiency) == pytest.approx(y)

    def test_efficiency_between_zero_and_one(self):
        model = EfficiencyModel(ckpt_cost=1.0, restart_cost=0.5, mtbf=100.0)
        for tau in (0.1, 1.0, 10.0, 1000.0):
            assert 0.0 <= model.efficiency(tau) <= 1.0

    def test_validation(self):
        model = EfficiencyModel(1.0, 0.5, 100.0)
        with pytest.raises(ValueError):
            model.efficiency(0.0)
