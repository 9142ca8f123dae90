"""Where a run's rank-time goes: useful computation, checkpoint writes,
downtime and rolling forward, read off the run's counters and the
detector's downtime ledger."""

import pytest

from repro import api


def _run(**kwargs):
    return api.run_workload("lu", nprocs=4, protocol="tdi", seed=121,
                            checkpoint_interval=0.002, **kwargs)


def _rank_time(result):
    return result.accomplishment_time * result.config.nprocs


def _downtime(result):
    return sum(result.detector.total_downtime(rank)
               for rank in range(result.config.nprocs))


@pytest.fixture(scope="module")
def clean():
    return _run()


@pytest.fixture(scope="module")
def faulted():
    return _run(faults=[api.FaultSpec(rank=1, at_time=0.004)])


class TestCleanRun:
    def test_full_availability(self, clean):
        assert not clean.detector.failures
        assert _downtime(clean) == 0.0
        assert clean.stats.total("rollforward_time") == 0.0

    def test_efficiency_bounded(self, clean):
        assert 0.0 < clean.stats.total("compute_time") / _rank_time(clean) < 1.0

    def test_checkpoint_tax_small_but_present(self, clean):
        tax = clean.stats.total("checkpoint_time") / _rank_time(clean)
        assert 0.0 < tax < 0.5


class TestFaultedRun:
    def test_availability_drops(self, faulted):
        assert len(faulted.detector.failures) == 1
        assert 0.0 < _downtime(faulted) < _rank_time(faulted)

    def test_rework_accounted(self, faulted):
        # rolling forward spans kill -> caught up; the downtime is its prefix
        downtime = faulted.detector.total_downtime(1)
        assert downtime > 0
        assert faulted.stats.total("rollforward_time") >= downtime
