"""What a finished run reports about itself: the ``RunResult`` counters
behind every figure, read on a clean, a faulted and a lossy run."""

import pytest

from repro import api


@pytest.fixture(scope="module")
def clean_run():
    return api.run_workload("lu", nprocs=4, protocol="tdi", seed=111)


@pytest.fixture(scope="module")
def faulted_run():
    return api.run_workload("lu", nprocs=4, protocol="tdi", seed=111,
                            comm_mode="blocking",
                            faults=[api.FaultSpec(rank=1, at_time=0.01)])


@pytest.fixture(scope="module")
def lossy_run():
    from repro.config import SimulationConfig
    from repro.simnet.network import NetworkConfig
    from repro.simnet.transport import TransportConfig

    config = SimulationConfig(
        nprocs=4, protocol="tdi", seed=111, checkpoint_interval=5.0,
        network=NetworkConfig(drop_prob=0.05, dup_prob=0.05, corrupt_prob=0.05),
        transport=TransportConfig(enabled=True),
    )
    return api.run_workload("lu", config=config)


class TestSummarize:
    def test_mentions_core_facts(self, clean_run):
        assert (clean_run.config.protocol, clean_run.config.nprocs) == ("tdi", 4)
        assert clean_run.stats.piggyback_identifiers_per_message > 0
        assert clean_run.checkpoint_writes > 0

    def test_failure_lines_only_when_faulted(self, clean_run, faulted_run):
        assert not clean_run.detector.failures
        assert clean_run.stats.total("rollforward_time") == 0
        assert len(faulted_run.detector.failures) == 1
        assert faulted_run.stats.total("rollforward_time") > 0
        assert faulted_run.stats.total("blocked_time") > 0

    def test_drops_split_by_cause(self, faulted_run):
        # the faulted run's losses are attributed to the dead node
        assert faulted_run.network.frames_dropped_dead > 0

    def test_transport_lines_only_when_impaired(self, clean_run, lossy_run):
        net = clean_run.network
        assert not (net.frames_dropped_impaired or net.frames_duplicated
                    or net.frames_corrupted)
        assert clean_run.stats.total("rt_retransmits") == 0
        assert lossy_run.network.frames_dropped_impaired > 0
        assert lossy_run.stats.total("rt_retransmits") > 0

    def test_drop_cause_counters_consistent(self, lossy_run):
        net = lossy_run.network
        assert net.frames_dropped == (
            net.frames_dropped_dead + net.frames_dropped_impaired
            + net.frames_dropped_partition + net.frames_dropped_corrupt)
