"""Adversarial fault timings: the windows where state transitions race.

Each test aims a fault at a specific fragile instant — mid-checkpoint
write, the first event of the run, the rollback-retry boundary, the
moment an incarnation comes back up — and demands exact recovery.
"""

import pytest

from repro import api
from repro.core.watchdog import ROLLBACK_RETRY_INTERVAL


def reference(workload="lu", nprocs=4, seed=131, **kw):
    return api.run_workload(workload, nprocs=nprocs, protocol="tdi",
                            seed=seed, **kw).results


class TestFragileInstants:
    def test_fault_at_time_zero(self):
        ref = reference()
        r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=131,
                             faults=[api.FaultSpec(rank=0, at_time=0.0)])
        assert r.results == ref

    def test_all_ranks_fail_at_time_zero(self):
        ref = reference("synthetic")
        r = api.run_workload("synthetic", nprocs=4, protocol="tdi", seed=131,
                             faults=api.simultaneous(range(4), at_time=0.0))
        assert r.results == ref

    def test_fault_during_checkpoint_write_window(self):
        """Checkpoint writes take ~1 ms (40 KiB at the modelled disk);
        kill the rank inside that window, for every phase offset."""
        ref = reference(checkpoint_interval=0.002)
        base = api.run_workload("lu", nprocs=4, protocol="tdi", seed=131,
                                checkpoint_interval=0.002, trace=True)
        ckpts = [ev.time for ev in base.trace.select("ckpt.write", rank=1)
                 if ev.time > 0]
        assert ckpts, "need a periodic checkpoint to aim at"
        for offset in (1e-5, 3e-4, 9e-4):
            r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=131,
                                 checkpoint_interval=0.002,
                                 faults=[api.FaultSpec(rank=1,
                                                       at_time=ckpts[0] + offset)])
            assert r.results == ref, f"offset {offset}"

    def test_fault_right_after_recovery(self):
        """Kill the incarnation again just after it comes back up (the
        recovery-of-a-recovery path, before rolling forward finishes)."""
        probe = api.run_workload("lu", nprocs=4, protocol="tdi", seed=131,
                                 iterations=12,
                                 faults=[api.FaultSpec(rank=2, at_time=0.004)])
        up = probe.detector.recoveries[0].recovered_at
        ref = reference(iterations=12)
        r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=131,
                             iterations=12,
                             faults=[api.FaultSpec(rank=2, at_time=0.004),
                                     api.FaultSpec(rank=2, at_time=up + 1e-4)])
        assert r.results == ref
        assert [e.rank for e in r.detector.failures].count(2) == 2

    def test_neighbour_faults_straddle_rollback_retry(self):
        """Second victim dies just before the first incarnation's retry
        timer fires, exercising the retry path for real."""
        cfg_kw = dict(nprocs=4, protocol="tdi", seed=131, iterations=12)
        ref = reference(iterations=12)
        retry = ROLLBACK_RETRY_INTERVAL
        r = api.run_workload(
            "lu", **cfg_kw,
            faults=[api.FaultSpec(rank=1, at_time=0.004),
                    api.FaultSpec(rank=2, at_time=0.004 + retry * 0.9)])
        assert r.results == ref

    @pytest.mark.parametrize("protocol", ("tag", "tel"))
    def test_pwd_fault_during_barrier(self, protocol):
        """Kill a *survivor* while the victim's recovery barrier is still
        collecting responses — its RESPONSE may be lost and must be
        re-collected from the retry."""
        probe = api.run_workload("lu", nprocs=4, protocol=protocol, seed=131,
                                 iterations=12,
                                 faults=[api.FaultSpec(rank=1, at_time=0.004)])
        assert probe.results == reference(iterations=12)
        # now also kill rank 3 a hair after rank 1 (inside the barrier)
        r = api.run_workload("lu", nprocs=4, protocol=protocol, seed=131,
                             iterations=12,
                             faults=[api.FaultSpec(rank=1, at_time=0.004),
                                     api.FaultSpec(rank=3, at_time=0.0041)])
        assert r.results == reference(iterations=12)
