"""Unit tests for fault scheduling helpers and the detector."""

import pytest

from repro.faults.detector import FailureDetector
from repro.faults.injector import FaultInjector, FaultSpec, simultaneous, staggered


class _StubEngine:
    def __init__(self):
        self.scheduled = []

    def schedule_at(self, at_time, action):
        self.scheduled.append((at_time, action))


class _StubCluster:
    def __init__(self, protocol="tdi"):
        class _Cfg:
            pass
        self.config = _Cfg()
        self.config.protocol = protocol
        self.config.nprocs = 4
        self.engine = _StubEngine()


class TestFaultSpec:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(rank=0, at_time=-1.0)

    def test_simultaneous(self):
        specs = simultaneous([1, 3], at_time=2.0)
        assert [(s.rank, s.at_time) for s in specs] == [(1, 2.0), (3, 2.0)]

    def test_staggered(self):
        specs = staggered([0, 1, 2], start=1.0, gap=0.5)
        assert [s.at_time for s in specs] == [1.0, 1.5, 2.0]


class TestInjectorSchedule:
    def test_duplicate_fault_rejected(self):
        inj = FaultInjector(_StubCluster())
        with pytest.raises(ValueError, match="duplicate fault"):
            inj.schedule([FaultSpec(rank=1, at_time=0.5),
                          FaultSpec(rank=1, at_time=0.5)])

    def test_duplicate_across_calls_rejected(self):
        inj = FaultInjector(_StubCluster())
        inj.schedule([FaultSpec(rank=1, at_time=0.5)])
        with pytest.raises(ValueError, match="duplicate fault"):
            inj.schedule([FaultSpec(rank=1, at_time=0.5)])

    def test_same_rank_different_times_allowed(self):
        inj = FaultInjector(_StubCluster())
        inj.schedule([FaultSpec(rank=1, at_time=0.5),
                      FaultSpec(rank=1, at_time=0.9),
                      FaultSpec(rank=2, at_time=0.5)])
        assert len(inj.cluster.engine.scheduled) == 3

    def test_faults_without_recovery_protocol_rejected(self):
        inj = FaultInjector(_StubCluster(protocol="none"))
        with pytest.raises(ValueError, match="protocol"):
            inj.schedule([FaultSpec(rank=0, at_time=0.5)])


class TestFailureDetector:
    def test_timeline(self):
        det = FailureDetector()
        det.observe_failure(1, 1.0)
        det.observe_recovery(1, 1.5, epoch=1)
        det.observe_failure(1, 3.0)
        det.observe_recovery(1, 3.25, epoch=2)
        assert len(det.failures) == 2
        assert [e.rank for e in det.failures].count(1) == 2
        assert [e.rank for e in det.failures].count(0) == 0
        assert det.downtime_windows(1) == [(1.0, 1.5), (3.0, 3.25)]
        assert det.total_downtime(1) == pytest.approx(0.75)

    def test_empty(self):
        det = FailureDetector()
        assert det.downtime_windows(0) == []
        assert det.total_downtime(0) == 0.0

    def test_dead_at_exit_keeps_open_window(self):
        # a plain zip of failures with recoveries silently dropped the
        # final window of a rank still dead when the run ended
        det = FailureDetector()
        det.observe_failure(1, 1.0)
        det.observe_recovery(1, 1.5, epoch=1)
        det.observe_failure(1, 3.0)
        assert det.downtime_windows(1) == [(1.0, 1.5), (3.0, None)]
        # before the run end is known the open window charges nothing
        assert det.total_downtime(1) == pytest.approx(0.5)
        det.observe_run_end(4.0)
        assert det.total_downtime(1) == pytest.approx(0.5 + 1.0)

    def test_stray_recovery_does_not_mispair(self):
        # a leave-then-rejoin records a recovery with no failure; it
        # must not consume the pairing slot of a later real crash
        det = FailureDetector()
        det.observe_recovery(2, 0.5, epoch=1)
        det.observe_failure(2, 1.0)
        det.observe_recovery(2, 1.25, epoch=2)
        assert det.downtime_windows(2) == [(1.0, 1.25)]


class _StubStore:
    def __init__(self):
        self.hostile = False
        self.injections = []

    def arm_hostile(self):
        self.hostile = True

    def inject(self, rank, kind, count, duration):
        self.injections.append((rank, kind, count, duration))
        return kind != "corrupt"  # model a corrupt strike finding nothing


class TestStorageFaultSpec:
    def test_validation(self):
        from repro.faults.injector import StorageFaultSpec
        with pytest.raises(ValueError, match=">= 0"):
            StorageFaultSpec(rank=0, at_time=-1.0, kind="torn")
        with pytest.raises(ValueError, match="unknown storage fault kind"):
            StorageFaultSpec(rank=0, at_time=0.0, kind="melt")
        with pytest.raises(ValueError, match="count"):
            StorageFaultSpec(rank=0, at_time=0.0, kind="torn", count=0)
        with pytest.raises(ValueError, match="duration"):
            StorageFaultSpec(rank=0, at_time=0.0, kind="stall")

    def test_scheduling_arms_the_store_immediately(self):
        from repro.faults.injector import StorageFaultSpec
        cluster = _StubCluster()
        cluster.checkpoints = _StubStore()
        inj = FaultInjector(cluster)
        inj.schedule([StorageFaultSpec(rank=1, at_time=0.5, kind="torn")])
        # hostile before any event fires: GC must lag from checkpoint 1
        assert cluster.checkpoints.hostile
        assert len(cluster.engine.scheduled) == 1

    def test_firing_records_injection(self):
        from repro.faults.injector import StorageFaultSpec
        cluster = _StubCluster()
        cluster.checkpoints = _StubStore()
        inj = FaultInjector(cluster)
        spec = StorageFaultSpec(rank=2, at_time=0.5, kind="write_fail",
                                count=3)
        miss = StorageFaultSpec(rank=2, at_time=0.6, kind="corrupt")
        inj.schedule([spec, miss])
        for _, action in cluster.engine.scheduled:
            action()
        assert cluster.checkpoints.injections == [
            (2, "write_fail", 3, 0.0), (2, "corrupt", 1, 0.0)]
        assert inj.injected == [spec]
        assert inj.skipped == [miss]

    def test_rank_out_of_range_rejected(self):
        from repro.faults.injector import StorageFaultSpec
        inj = FaultInjector(_StubCluster())
        with pytest.raises(ValueError, match="out of range"):
            inj.schedule([StorageFaultSpec(rank=9, at_time=0.5, kind="torn")])


class TestMembershipValidation:
    """The injector's static replay of join/leave schedules."""

    def _inject(self, events):
        from repro.faults.injector import JoinSpec, LeaveSpec  # noqa: F401
        inj = FaultInjector(_StubCluster())
        inj.schedule(events)
        return inj

    def test_leave_of_joined_rank_allowed(self):
        from repro.faults.injector import LeaveSpec, JoinSpec
        inj = self._inject([LeaveSpec(rank=1, at_time=0.5),
                            JoinSpec(rank=1, at_time=0.9)])
        assert inj.deferred == set()

    def test_deferred_rank_detected(self):
        from repro.faults.injector import JoinSpec
        inj = self._inject([JoinSpec(rank=2, at_time=0.001)])
        assert inj.deferred == {2}

    def test_leave_before_join_means_initially_joined(self):
        # a rank whose earliest event is a leave started the run joined:
        # leave at 0.2 then rejoin at 0.5 is a valid cycle, not deferred
        from repro.faults.injector import JoinSpec, LeaveSpec
        inj = self._inject([JoinSpec(rank=1, at_time=0.5),
                            LeaveSpec(rank=1, at_time=0.2)])
        assert inj.deferred == set()

    def test_deferred_rank_double_leave_rejected(self):
        from repro.faults.injector import JoinSpec, LeaveSpec
        with pytest.raises(ValueError, match="not joined"):
            self._inject([JoinSpec(rank=1, at_time=0.2),
                          LeaveSpec(rank=1, at_time=0.3),
                          LeaveSpec(rank=1, at_time=0.4)])

    def test_double_leave_rejected(self):
        from repro.faults.injector import LeaveSpec
        with pytest.raises(ValueError, match="not joined"):
            self._inject([LeaveSpec(rank=1, at_time=0.2),
                          LeaveSpec(rank=1, at_time=0.5)])

    def test_join_of_joined_rank_rejected(self):
        from repro.faults.injector import JoinSpec, LeaveSpec
        with pytest.raises(ValueError, match="already joined"):
            self._inject([LeaveSpec(rank=1, at_time=0.2),
                          JoinSpec(rank=1, at_time=0.5),
                          JoinSpec(rank=1, at_time=0.9)])

    def test_join_and_leave_at_same_instant_rejected(self):
        from repro.faults.injector import JoinSpec, LeaveSpec
        with pytest.raises(ValueError, match="conflicting membership"):
            self._inject([LeaveSpec(rank=1, at_time=0.5),
                          JoinSpec(rank=1, at_time=0.5)])

    def test_membership_rank_out_of_range_rejected(self):
        from repro.faults.injector import JoinSpec
        with pytest.raises(ValueError, match="out of range"):
            self._inject([JoinSpec(rank=9, at_time=0.5)])

    def test_negative_membership_times_rejected(self):
        from repro.faults.injector import JoinSpec, LeaveSpec
        with pytest.raises(ValueError):
            JoinSpec(rank=0, at_time=-0.1)
        with pytest.raises(ValueError):
            LeaveSpec(rank=0, at_time=-0.1)

    def test_crash_overlapping_churn_allowed(self):
        from repro.faults.injector import JoinSpec, LeaveSpec
        inj = self._inject([LeaveSpec(rank=1, at_time=0.5),
                            FaultSpec(rank=1, at_time=0.5),
                            JoinSpec(rank=1, at_time=0.9)])
        assert len(inj.cluster.engine.scheduled) == 3
