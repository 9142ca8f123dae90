"""Single-failure recovery: the headline correctness property.

A run with one injected fault must finish with exactly the failure-free
answer on every rank, for every protocol, every workload, any victim,
any fault time.
"""

import pytest

from repro import api

PROTOCOLS = ("tdi", "tag", "tel")


def reference(workload, nprocs=4, seed=21, **kw):
    return api.run_workload(workload, nprocs=nprocs, protocol="tdi", seed=seed, **kw).results


@pytest.mark.parametrize("workload", ("lu", "bt", "sp", "synthetic", "reduce"))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_protocol_recovers_every_workload(workload, protocol):
    ref = reference(workload)
    r = api.run_workload(workload, nprocs=4, protocol=protocol, seed=21,
                         faults=[api.FaultSpec(rank=1, at_time=0.003)])
    assert r.results == ref
    assert r.stats.total("recovery_count") == 1


@pytest.mark.parametrize("victim", range(4))
def test_any_rank_can_fail(victim):
    ref = reference("lu")
    r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=21,
                         faults=[api.FaultSpec(rank=victim, at_time=0.004)])
    assert r.results == ref


@pytest.mark.parametrize("at_time", (0.0005, 0.002, 0.005, 0.008))
def test_any_fault_time(at_time):
    ref = reference("lu")
    r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=21,
                         faults=[api.FaultSpec(rank=2, at_time=at_time)])
    assert r.results == ref


def test_fault_before_first_checkpoint_recovers_from_initial_state():
    ref = reference("synthetic")
    r = api.run_workload("synthetic", nprocs=4, protocol="tdi", seed=21,
                         faults=[api.FaultSpec(rank=0, at_time=1e-4)])
    assert r.results == ref


def test_fault_with_midrun_checkpoints():
    # tight interval: several checkpoints land before the fault, so the
    # incarnation rolls forward from a real (non-initial) checkpoint
    ref = api.run_workload("lu", nprocs=4, protocol="tdi", seed=21,
                           checkpoint_interval=0.002).results
    r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=21,
                         checkpoint_interval=0.002,
                         faults=[api.FaultSpec(rank=1, at_time=0.006)])
    assert r.results == ref
    assert r.checkpoint_writes > 8  # initial 4 + several periodic


def test_repeated_faults_same_rank():
    ref = reference("lu")
    r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=21,
                         faults=[api.FaultSpec(rank=1, at_time=0.002),
                                 api.FaultSpec(rank=1, at_time=0.008)])
    assert r.results == ref
    assert r.stats.total("recovery_count") == 2
    assert [e.rank for e in r.detector.failures].count(1) == 2


def test_sequential_faults_different_ranks():
    ref = reference("lu")
    r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=21,
                         faults=api.staggered([0, 1, 2, 3], start=0.002, gap=0.003))
    assert r.results == ref
    assert r.stats.total("recovery_count") == 4


def test_recovery_metrics_populated():
    r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=21,
                         faults=[api.FaultSpec(rank=1, at_time=0.004)])
    assert r.stats.total("rollforward_time") > 0
    assert len(r.detector.failures) == 1
    assert r.detector.total_downtime(1) > 0


def test_resends_happen_on_recovery():
    r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=21,
                         faults=[api.FaultSpec(rank=1, at_time=0.004)])
    assert r.stats.total("resends") > 0


def test_fault_injection_rejected_without_protocol():
    with pytest.raises(ValueError, match="protocol='none'"):
        api.run_workload("lu", nprocs=4, protocol="none", seed=1,
                         faults=[api.FaultSpec(rank=1, at_time=0.001)])


def test_fault_rank_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        api.run_workload("lu", nprocs=4, protocol="tdi", seed=1,
                         faults=[api.FaultSpec(rank=9, at_time=0.001)])


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_blocking_mode_recovery(protocol):
    ref = api.run_workload("sp", nprocs=4, protocol=protocol, seed=23,
                           comm_mode="blocking").results
    r = api.run_workload("sp", nprocs=4, protocol=protocol, seed=23,
                         comm_mode="blocking",
                         faults=[api.FaultSpec(rank=2, at_time=0.02)])
    assert r.results == ref
