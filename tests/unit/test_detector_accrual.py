"""Unit tests for the accrual failure detector and gray-fault specs."""

import pytest

from repro.faults.detector import (ALIVE, CONDEMN_PHI, CONDEMNED, SUSPECT,
                                   SUSPECT_PHI, AccrualEstimator,
                                   DetectorConfig, FailureDetector)
from repro.faults.injector import FaultInjector, FaultSpec, GrayFaultSpec

HB = 5e-4  # the default heartbeat interval


class TestDetectorConfig:
    def test_defaults_valid(self):
        cfg = DetectorConfig()
        assert not cfg.enabled
        assert CONDEMN_PHI >= SUSPECT_PHI > 0

    def test_floor_defaults_to_a_fifth_of_the_beat_above_100us(self):
        assert DetectorConfig().floor == 1e-4
        assert DetectorConfig(heartbeat_interval=5e-5).floor == 1e-4
        assert DetectorConfig(heartbeat_interval=2e-3).floor == 4e-4
        assert DetectorConfig(heartbeat_interval=2e-3, floor=1e-4).floor == 1e-4

    @pytest.mark.parametrize("kwargs", [
        {"heartbeat_interval": 0.0},
        {"heartbeat_interval": -1e-3},
        {"suspect_phi": 0.0},
        {"suspect_phi": 9.0},          # above condemn_phi
        {"condemn_phi": 1.0},          # below suspect_phi
        {"floor": 0.0},
        {"window": 1},
        {"fence_delay": -1e-4},
    ])
    def test_invalid_rejected(self, kwargs):
        # the phi thresholds and the fence delay are module constants now
        constants = {"suspect_phi", "condemn_phi", "fence_delay"}
        with pytest.raises(TypeError if constants & set(kwargs) else ValueError):
            DetectorConfig(**kwargs)


class TestAccrualEstimator:
    def _estimator(self, now=0.0):
        return AccrualEstimator(now, window=20, bootstrap_mean=HB,
                                floor=1e-4)

    def test_no_silence_no_suspicion(self):
        est = self._estimator()
        assert est.phi(0.0) == 0.0

    def test_phi_monotone_in_silence(self):
        est = self._estimator()
        values = [est.phi(t) for t in (HB, 2 * HB, 4 * HB, 8 * HB)]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_regular_heartbeats_stay_calm(self):
        est = self._estimator()
        t = 0.0
        for _ in range(30):
            t += HB
            est.heartbeat(t)
        # one interval of silence right after a beat is business as usual
        assert est.phi(t + HB) < 2.0

    def test_silence_crosses_the_threshold(self):
        est = self._estimator()
        t = 0.0
        for _ in range(30):
            t += HB
            est.heartbeat(t)
        assert est.phi(t + 10 * HB) > 8.0

    def test_bootstrap_before_any_gap(self):
        # a fresh estimator suspects from the configured interval alone
        est = self._estimator()
        assert est.phi(10 * HB) > 8.0


class _Callbacks:
    def __init__(self, alive=True):
        self.alive = alive
        self.condemned = []

    def is_alive(self, rank):
        return self.alive

    def on_condemn(self, rank, observer, now):
        self.condemned.append((rank, observer, now))


def _armed(alive=True):
    det = FailureDetector()
    cbs = _Callbacks(alive=alive)
    det.arm(DetectorConfig(enabled=True), cbs.is_alive, cbs.on_condemn)
    return det, cbs


class TestFailureDetectorAccrual:
    def test_unarmed_by_default(self):
        assert not FailureDetector().armed

    def test_steady_heartbeats_never_condemn(self):
        det, cbs = _armed()
        t = 0.0
        for _ in range(50):
            t += HB
            det.observe_heartbeat(0, 1, t)
            det.evaluate(0, t, [1])
        assert cbs.condemned == []
        assert det.suspicion.get(1, ALIVE) == ALIVE

    def test_silence_walks_suspect_then_condemned(self):
        det, cbs = _armed(alive=False)
        t = 0.0
        for _ in range(10):
            t += HB
            det.observe_heartbeat(0, 1, t)
        det.observe_failure(1, t)
        states = set()
        while not cbs.condemned and t < 1.0:
            t += HB / 4
            det.evaluate(0, t, [1])
            states.add(det.suspicion.get(1, ALIVE))
        assert SUSPECT in states
        assert det.suspicion.get(1, ALIVE) == CONDEMNED
        assert cbs.condemned and cbs.condemned[0][:2] == (1, 0)
        # detection delay: failure -> condemnation, and it was real
        assert det.mean_time_to_detect() == pytest.approx(
            cbs.condemned[0][2] - det.failures[-1].failed_at)
        assert det.false_suspicion_count() == 0

    def test_condemned_is_sticky_and_single(self):
        det, cbs = _armed(alive=False)
        det.observe_heartbeat(0, 1, 0.1)
        det.observe_heartbeat(2, 1, 0.1)
        det.evaluate(0, 1.0, [1])     # a second of silence is enormous
        det.evaluate(2, 1.0, [1])     # a second observer piles on
        det.evaluate(0, 2.0, [1])
        assert len(cbs.condemned) == 1
        det.observe_heartbeat(0, 1, 2.5)   # stale zombie beat
        assert det.suspicion.get(1, ALIVE) == CONDEMNED

    def test_heartbeat_clears_suspect(self):
        det, cbs = _armed()
        t = 10 * HB
        det.observe_heartbeat(0, 1, t)
        # 1.8 intervals of silence against the bootstrap mean sits in
        # the suspect band (phi between 2 and 8 at the defaults)
        det.evaluate(0, t + 1.8 * HB, [1])
        assert det.suspicion.get(1, ALIVE) == SUSPECT
        det.observe_heartbeat(0, 1, t + 1.9 * HB)
        assert det.suspicion.get(1, ALIVE) == ALIVE
        assert cbs.condemned == []

    def test_false_suspicion_counted_not_timed(self):
        det, cbs = _armed(alive=True)   # the victim is a live zombie
        det.observe_heartbeat(0, 1, 0.1)
        det.evaluate(0, 1.0, [1])
        assert det.false_suspicion_count() == 1
        assert det.mean_time_to_detect() is None

    def test_recovery_clears_estimators_both_ways(self):
        det, cbs = _armed(alive=False)
        det.observe_heartbeat(0, 1, 0.1)
        det.evaluate(0, 1.0, [1])
        assert det.suspicion.get(1, ALIVE) == CONDEMNED
        det.observe_failure(1, 1.0)
        det.observe_recovery(1, 1.5, epoch=1)
        assert det.suspicion.get(1, ALIVE) == ALIVE
        # neither direction keeps a stale arrival history
        assert all(1 not in key for key in det._estimators)

    def test_fence_accounting(self):
        det, _ = _armed()
        det.observe_fence(2, 0.5, epoch=0)
        det.observe_failure(2, 0.5)
        det.observe_recovery(2, 0.9, epoch=1)
        assert len(det.fences) == 1
        assert det.total_downtime(2) == pytest.approx(0.4)

    def test_evaluate_skips_self(self):
        det, cbs = _armed()
        det.evaluate(1, 5.0, [1])
        assert cbs.condemned == []


# ----------------------------------------------------------------------
# GrayFaultSpec validation and injector conflict rules
# ----------------------------------------------------------------------

class _StubEngine:
    def __init__(self):
        self.scheduled = []

    def schedule_at(self, at_time, action):
        self.scheduled.append((at_time, action))


class _StubCluster:
    def __init__(self, protocol="tdi", transport_enabled=False):
        class _Cfg:
            pass
        self.config = _Cfg()
        self.config.protocol = protocol
        self.config.nprocs = 4
        self.config.transport = _Cfg()
        self.config.transport.enabled = transport_enabled
        self.engine = _StubEngine()


class TestGrayFaultSpec:
    def test_valid_kinds(self):
        for kind in ("freeze", "stutter", "slow", "mute"):
            GrayFaultSpec(rank=0, at_time=0.1, kind=kind)

    @pytest.mark.parametrize("kwargs", [
        {"kind": "hiccup"},
        {"kind": "freeze", "duration": 0.0},
        {"kind": "slow", "factor": 0.5},
        {"kind": "mute", "delay": -1e-3},
        {"kind": "freeze", "drop": True},     # drop is mute-only
        {"kind": "slow", "targets": (1,)},    # targets is mute-only
        {"kind": "mute", "at_time": -0.1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GrayFaultSpec(rank=0, at_time=kwargs.pop("at_time", 0.1),
                          **kwargs)


class TestGrayScheduleConflicts:
    def test_kill_then_gray_same_instant_rejected(self):
        inj = FaultInjector(_StubCluster())
        with pytest.raises(ValueError, match="conflicting fault"):
            inj.schedule([
                FaultSpec(rank=1, at_time=0.5),
                GrayFaultSpec(rank=1, at_time=0.5, kind="freeze"),
            ])

    def test_gray_then_kill_same_instant_rejected(self):
        inj = FaultInjector(_StubCluster())
        inj.schedule([GrayFaultSpec(rank=1, at_time=0.5, kind="freeze")])
        with pytest.raises(ValueError, match="conflicting fault"):
            inj.schedule([FaultSpec(rank=1, at_time=0.5)])

    def test_duplicate_gray_rejected(self):
        inj = FaultInjector(_StubCluster())
        with pytest.raises(ValueError, match="duplicate gray"):
            inj.schedule([
                GrayFaultSpec(rank=1, at_time=0.5, kind="freeze"),
                GrayFaultSpec(rank=1, at_time=0.5, kind="mute"),
            ])

    def test_staggered_kill_and_gray_allowed(self):
        inj = FaultInjector(_StubCluster())
        inj.schedule([
            FaultSpec(rank=1, at_time=0.5),
            GrayFaultSpec(rank=1, at_time=0.6, kind="freeze"),
            GrayFaultSpec(rank=2, at_time=0.5, kind="mute"),
        ])
        assert len(inj.cluster.engine.scheduled) == 3

    def test_mute_drop_requires_transport(self):
        inj = FaultInjector(_StubCluster(transport_enabled=False))
        with pytest.raises(ValueError, match="transport"):
            inj.schedule([GrayFaultSpec(rank=1, at_time=0.5, kind="mute",
                                        drop=True)])

    def test_mute_drop_with_transport_allowed(self):
        inj = FaultInjector(_StubCluster(transport_enabled=True))
        inj.schedule([GrayFaultSpec(rank=1, at_time=0.5, kind="mute",
                                    drop=True)])
        assert len(inj.cluster.engine.scheduled) == 1
