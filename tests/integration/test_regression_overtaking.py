"""Regression: survivor frames that overtake the recovery resend stream.

Found by the paper-scale ``overhead`` experiment: a survivor that had
not yet processed the incarnation's ROLLBACK sent a *new* message which
arrived ahead of the ordered resends of its dropped predecessors.  The
delivery gate must defer such a frame until its per-sender predecessors
(guaranteed to arrive as resends) have been delivered; admitting it
created a per-sender sequence gap and crashed recovery.

The original failing configuration is pinned here verbatim (TAG, LU,
8 ranks, paper preset, fault on rank 4 one checkpoint interval in).
"""

import pytest

from repro import api
from repro.mpi.cluster import run_simulation
from repro.workloads.presets import workload_factory


def run_lu8(protocol, faults=None):
    config = api.SimulationConfig(nprocs=8, protocol=protocol,
                                  checkpoint_interval=0.05, seed=1)
    return run_simulation(config, workload_factory("lu", scale="paper"),
                          faults)


@pytest.mark.parametrize("protocol", ("tag", "tdi"))
def test_overtaking_new_sends_during_recovery(protocol):
    base = run_lu8("none")
    fault_time = min(1.95 * 0.05, 0.5 * base.accomplishment_time)
    ref = run_lu8(protocol)
    faulted = run_lu8(protocol, [api.FaultSpec(rank=4, at_time=fault_time)])
    assert faulted.results == ref.results


def test_buffered_future_frames_are_not_discarded():
    """The companion hazard: frames legitimately buffered ahead of the
    per-sender sequence (a reduce contribution queued while next
    iteration's sweep frames arrive) must be deferred, not dropped —
    dropping them deadlocks even failure-free runs."""
    r = run_lu8("tag")
    assert r.results[0]["iterations"] == 20
    assert r.stats.total("duplicates_discarded") == 0
