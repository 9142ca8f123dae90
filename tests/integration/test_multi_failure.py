"""Multiple simultaneous failures (paper §III.D, Fig. 2).

When several processes die at the same instant, their volatile logs die
with them; the paper argues recovery still succeeds because the logs
(and the dependencies piggybacked on the messages) are regenerated
during the failed processes' own rolling forward.  These tests exercise
exactly that path under TDI.
"""

import pytest

from repro import api


def reference(workload, nprocs, seed=31):
    return api.run_workload(workload, nprocs=nprocs, protocol="tdi", seed=seed).results


@pytest.mark.parametrize("workload", ("synthetic", "lu", "reduce"))
def test_two_simultaneous_failures(workload):
    ref = reference(workload, 4)
    r = api.run_workload(workload, nprocs=4, protocol="tdi", seed=31,
                         faults=api.simultaneous([1, 2], at_time=0.003))
    assert r.results == ref
    assert r.stats.total("recovery_count") == 2


def test_three_of_four_fail_together():
    ref = reference("synthetic", 4)
    r = api.run_workload("synthetic", nprocs=4, protocol="tdi", seed=31,
                         faults=api.simultaneous([0, 1, 3], at_time=0.003))
    assert r.results == ref


def test_paper_fig2_shape_senders_and_receiver_fail():
    """Fig. 2's scenario: the receiver of interleaved dependent messages
    and the processes whose logs held them all fail at once."""
    ref = reference("lu", 8)
    r = api.run_workload("lu", nprocs=8, protocol="tdi", seed=31,
                         faults=api.simultaneous([1, 2, 3], at_time=0.005))
    assert r.results == ref
    assert r.stats.total("recovery_count") == 3


def test_overlapping_failure_windows():
    # second fault lands while the first incarnation is still rolling forward
    ref = reference("lu", 4)
    r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=31,
                         faults=[api.FaultSpec(rank=1, at_time=0.004),
                                 api.FaultSpec(rank=2, at_time=0.0045)])
    assert r.results == ref


def test_whole_system_failure_recovers():
    ref = reference("synthetic", 4)
    r = api.run_workload("synthetic", nprocs=4, protocol="tdi", seed=31,
                         faults=api.simultaneous(range(4), at_time=0.002))
    assert r.results == ref
    assert r.stats.total("recovery_count") == 4


def test_fault_on_already_dead_rank_skipped():
    # two kills inside one downtime window: the second is a no-op
    r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=31,
                         faults=[api.FaultSpec(rank=1, at_time=0.003),
                                 api.FaultSpec(rank=1, at_time=0.0031)])
    assert r.results == reference("lu", 4)
    assert r.stats.total("recovery_count") == 1


def test_logs_regenerated_under_multi_failure():
    """The killed ranks' sender logs are rebuilt: later recoveries can
    still be served.  Kill 1 and 2 together, then 1 again later — the
    second recovery of rank 1 depends on rank 2's regenerated log."""
    ref = api.run_workload("lu", nprocs=4, protocol="tdi", seed=31,
                           iterations=14).results
    r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=31, iterations=14,
                         faults=[api.FaultSpec(rank=1, at_time=0.003),
                                 api.FaultSpec(rank=2, at_time=0.003),
                                 api.FaultSpec(rank=1, at_time=0.016)])
    assert r.results == ref
    assert r.stats.total("recovery_count") == 3
    assert [e.rank for e in r.detector.failures].count(1) == 2
