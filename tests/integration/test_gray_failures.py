"""Gray failures under the armed accrual detector.

The scripted scenarios the detection work must survive:

* a long **freeze** silences a live rank past the condemnation
  threshold: peers condemn it (a *false* suspicion — it never died),
  fence its incarnation so stale frames are discarded, force-kill and
  restart it — and the run still produces the fault-free answers with
  the causal oracle silent;
* a short freeze **thaws before condemnation**: the rank reintegrates
  with no recovery at all;
* **slow** stretches compute without stopping heartbeats — never
  condemned, answers unchanged;
* **mute** keeps the victim running while peers hear nothing: it is
  condemned and fenced while demonstrably alive, and the frames it
  keeps sending die at the fence gate (counted);
* **stutter** alternates seeded sub-threshold freezes with gaps.

Every scenario runs against all three protocols; answers must always
match the fault-free reference and the oracle must stay silent.
"""

import pytest

from repro import api
from repro.faults.detector import DetectorConfig
from repro.faults.injector import GrayFaultSpec
from repro.simnet.engine import SimulationError
from repro.simnet.network import NetworkConfig
from repro.simnet.transport import TransportConfig

PROTOCOLS = ("tdi", "tag", "tel")


def _run(protocol, *, faults=(), detect=True, transport=False, seed=5,
         nprocs=4, network=None):
    config = api.SimulationConfig(
        nprocs=nprocs, protocol=protocol, comm_mode="nonblocking",
        checkpoint_interval=0.01, seed=seed, verify=True,
        detector=DetectorConfig(enabled=detect),
        transport=TransportConfig(enabled=transport),
        network=network or NetworkConfig(),
    )
    return api.run_workload("lu", nprocs=nprocs, protocol=protocol,
                            seed=seed, scale="fast", config=config,
                            faults=faults)


def _reference(protocol, seed=5, nprocs=4):
    return api.run_workload("lu", nprocs=nprocs, protocol=protocol,
                            seed=seed, scale="fast",
                            checkpoint_interval=0.01)


class TestFreezeCondemnFence:
    """The flagship false-suspicion scenario."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_long_freeze_fenced_and_restarted(self, protocol):
        clean = _reference(protocol)
        frozen = _run(protocol, faults=(
            GrayFaultSpec(rank=1, at_time=0.004, kind="freeze",
                          duration=0.004),))
        assert frozen.violations == []
        assert frozen.results == clean.results
        det = frozen.detector
        assert det.false_suspicion_count() == 1
        assert len(det.fences) == 1
        # the zombie was force-killed and restarted: one recovery
        assert int(frozen.stats.total("recovery_count")) >= 1
        # a false suspicion is excluded from MTTD (nothing actually died
        # at the condemnation's cause)
        assert det.mean_time_to_detect() is None

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_short_freeze_thaws_with_no_recovery(self, protocol):
        clean = _reference(protocol)
        frozen = _run(protocol, faults=(
            GrayFaultSpec(rank=1, at_time=0.004, kind="freeze",
                          duration=0.0005),))
        assert frozen.violations == []
        assert frozen.results == clean.results
        assert len(frozen.detector.condemnations) == 0
        assert len(frozen.detector.fences) == 0
        assert int(frozen.stats.total("recovery_count")) == 0


class TestSlow:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_slow_rank_never_condemned(self, protocol):
        clean = _reference(protocol)
        slowed = _run(protocol, faults=(
            GrayFaultSpec(rank=1, at_time=0.003, kind="slow",
                          duration=0.004, factor=6.0),))
        assert slowed.violations == []
        assert slowed.results == clean.results
        # heartbeats are engine timers, not compute: a slow rank keeps
        # beating and is never condemned
        assert len(slowed.detector.condemnations) == 0
        assert int(slowed.stats.total("recovery_count")) == 0


class TestMute:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_mute_is_fenced_while_alive(self, protocol):
        clean = _reference(protocol)
        muted = _run(protocol, faults=(
            GrayFaultSpec(rank=1, at_time=0.004, kind="mute",
                          duration=0.004, delay=0.003),))
        assert muted.violations == []
        assert muted.results == clean.results
        det = muted.detector
        assert det.false_suspicion_count() == 1
        assert len(det.fences) == 1
        # the zombie kept transmitting after the fence went up: its
        # frames died at the gate, and were counted doing so
        assert int(muted.stats.total("zombie_frames_dropped")) > 0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_mute_drop_with_transport(self, protocol):
        clean = _reference(protocol)
        muted = _run(protocol, transport=True, faults=(
            GrayFaultSpec(rank=1, at_time=0.004, kind="mute",
                          duration=0.004, drop=True),))
        assert muted.violations == []
        assert muted.results == clean.results
        assert int(muted.network.frames_dropped_gray) > 0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_mute_drop_retransmits_after_the_window(self, protocol):
        """On an armed wire a mute-dropped frame is buffered for
        retransmission; the stamp applies to its first transmission
        only, so the retransmission after a short window arrives."""
        clean = _reference(protocol)
        muted = _run(protocol, transport=True,
                     network=NetworkConfig(drop_prob=1e-12), faults=(
                         GrayFaultSpec(rank=1, at_time=0.004, kind="mute",
                                       duration=5e-4, drop=True),))
        assert muted.violations == []
        assert muted.results == clean.results
        assert int(muted.network.frames_dropped_gray) > 0

    @pytest.mark.xfail(strict=True, raises=SimulationError, reason=(
        "known defect: on a clean wire the transport passes frames "
        "through unbuffered, so a mute-dropped frame is lost for good; "
        "check_schedule accepts the pairing all the same"))
    def test_mute_drop_on_a_clean_wire_is_retransmitted(self):
        clean = _reference("tdi")
        muted = _run("tdi", transport=True, faults=(
            GrayFaultSpec(rank=1, at_time=0.004, kind="mute",
                          duration=5e-4, drop=True),))
        assert muted.results == clean.results

    def test_mute_drop_without_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            _run("tdi", faults=(
                GrayFaultSpec(rank=1, at_time=0.004, kind="mute",
                              duration=0.004, drop=True),))

    def test_targeted_mute(self):
        """Muting toward a subset still counts only those frames."""
        clean = _reference("tdi")
        muted = _run("tdi", faults=(
            GrayFaultSpec(rank=1, at_time=0.004, kind="mute",
                          duration=0.0008, targets=(2,), delay=0.0005),))
        assert muted.violations == []
        assert muted.results == clean.results


class TestStutter:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_stutter_matches_reference(self, protocol):
        clean = _reference(protocol)
        stuttered = _run(protocol, faults=(
            GrayFaultSpec(rank=2, at_time=0.003, kind="stutter",
                          duration=0.004),))
        assert stuttered.violations == []
        assert stuttered.results == clean.results


class TestFreezeDuringPeerRecovery:
    """Regression: a peer frozen across another rank's recovery used to
    deadlock the run (gray fuzz seed 27).  The recovering rank re-sent
    its eager window into the frozen peer; the frames died unacked at
    the zombie's force-kill, and the peer's restart checkpoint already
    covered their indexes, so no ack could ever come — the sender parked
    on the full window forever while heartbeats kept the engine alive to
    ``max_events``.  The ROLLBACK handler now drops window entries the
    announced watermark covers (``EndpointServices.peer_watermark``)."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_recovery_overlapping_freeze_completes(self, protocol):
        from repro.faults.injector import FaultSpec
        config = api.SimulationConfig(
            nprocs=2, protocol=protocol, comm_mode="blocking",
            checkpoint_interval=0.001, seed=521781, verify=True,
            detector=DetectorConfig(enabled=True))
        wedged = api.run_workload(
            "lu", nprocs=2, protocol=protocol, seed=521781, scale="fast",
            config=config, iterations=3,
            faults=(FaultSpec(rank=0, at_time=0.00181745),
                    GrayFaultSpec(rank=1, at_time=0.00500043,
                                  kind="freeze", duration=0.0046035)))
        clean = api.run_workload(
            "lu", nprocs=2, protocol=protocol, seed=521781, scale="fast",
            comm_mode="blocking", checkpoint_interval=0.001, iterations=3)
        assert wedged.violations == []
        assert wedged.results == clean.results


class TestLivenessGuard:
    """The armed-run deadlock tripwire: heartbeats keep a wedged run's
    engine alive, so the cluster must detect zero application progress
    itself instead of burning events until ``max_events``."""

    def _idle_cluster(self):
        from repro.mpi.cluster import Cluster
        from repro.workloads.presets import workload_factory
        cfg = api.SimulationConfig(
            nprocs=2, protocol="tdi",
            detector=DetectorConfig(enabled=True))
        return Cluster(cfg, workload_factory("lu", scale="fast"))

    def test_stall_raises_with_wait_diagnosis(self):
        from repro.simnet.engine import SimulationError
        cluster = self._idle_cluster()
        limit = (cluster.LIVENESS_STALL_INTERVALS
                 * cluster.config.detector.heartbeat_interval)
        cluster.check_liveness(0.0)
        cluster.check_liveness(limit / 2)   # under the limit: no trip
        with pytest.raises(SimulationError, match="no application progress"):
            cluster.check_liveness(limit)

    def test_progress_resets_the_clock(self):
        cluster = self._idle_cluster()
        limit = (cluster.LIVENESS_STALL_INTERVALS
                 * cluster.config.detector.heartbeat_interval)
        cluster.check_liveness(0.0)
        cluster.metrics[0].app_sends += 1   # any progress re-arms
        cluster.check_liveness(limit)
        cluster.check_liveness(limit + limit / 2)  # still under, from the reset

    def test_midflight_fault_machinery_defers(self):
        cluster = self._idle_cluster()
        limit = (cluster.LIVENESS_STALL_INTERVALS
                 * cluster.config.detector.heartbeat_interval)
        cluster.check_liveness(0.0)
        # a frozen rank explains the silence: the guard must wait for
        # the thaw (or the condemnation) instead of tripping
        victim = cluster.endpoints[1]
        victim.begin_gray(GrayFaultSpec(rank=1, at_time=0.0, kind="freeze",
                                        duration=1.0))
        assert victim.frozen
        cluster.check_liveness(2 * limit)
        victim.gray.freeze_until = 0.0
        # clock restarted at 2*limit: half a limit later is still calm
        cluster.check_liveness(2.5 * limit)

    def test_checkpoint_write_outlasting_the_limit_is_not_a_deadlock(self):
        """LU-16 ``paper`` writes 10.6 ms checkpoints; at a 0.1 ms
        heartbeat the stall limit is 10 ms, and around t=0.06 every rank
        is inside a write at once.  A rank between waits is in flight,
        not wedged: the run completes with the no-FT answers."""
        config = api.SimulationConfig(
            nprocs=16, protocol="tdi", checkpoint_interval=0.05,
            detector=DetectorConfig(enabled=True, heartbeat_interval=1e-4))
        run = api.run_workload("lu", scale="paper", config=config)
        plain = api.run_workload(
            "lu", scale="paper",
            config=api.SimulationConfig(nprocs=16, protocol="none"))
        assert run.results == plain.results
        assert run.detector.condemnations == []
        assert run.checkpoint_writes > 16   # past the initial checkpoints

    def test_wedged_run_trips_with_every_wait_named(self):
        """Every rank posts a receive nobody will ever answer: no rank
        is in flight, heartbeats keep the engine alive, and the guard
        names each rank's wait."""
        from repro.mpi.cluster import Cluster
        from repro.simnet.engine import SimulationError
        from repro.workloads.base import Application

        class Wedge(Application):
            def run(self, ctx):
                yield ctx.compute(1e-4)
                yield ctx.recv(source=(self.rank + 1) % self.nprocs, tag=7)

            def snapshot(self):
                return {}

            def restore(self, state):
                pass

            def snapshot_size_bytes(self):
                return 1024

        config = api.SimulationConfig(
            nprocs=3, protocol="tdi", detector=DetectorConfig(enabled=True))
        cluster = Cluster(config, lambda rank, nprocs, rng: Wedge(rank, nprocs))
        with pytest.raises(SimulationError) as wedged:
            cluster.run()
        message = str(wedged.value)
        assert "no application progress for 0.0500s" in message
        for rank in range(3):
            assert (f"rank {rank}: recv(source={(rank + 1) % 3}, tag=7)"
                    in message)


class TestGrayAgainstDeadRank:
    def test_gray_against_dead_rank_is_skipped(self):
        """A gray window opening on a dead rank records a skip."""
        from repro.faults.injector import FaultSpec
        clean = _reference("tdi")
        run = _run("tdi", faults=(
            FaultSpec(rank=1, at_time=0.003),
            GrayFaultSpec(rank=1, at_time=0.0035, kind="freeze",
                          duration=0.002),))
        assert run.violations == []
        assert run.results == clean.results


class TestGrayReport:
    def test_summary_mentions_detection(self):
        run = _run("tdi", faults=(
            GrayFaultSpec(rank=1, at_time=0.004, kind="freeze",
                          duration=0.004),))
        assert run.detector.armed
        assert len(run.detector.condemnations) == 1
        assert run.detector.false_suspicion_count() == 1

    def test_availability_charges_fencing(self):
        run = _run("tdi", faults=(
            GrayFaultSpec(rank=1, at_time=0.004, kind="freeze",
                          duration=0.004),))
        assert len(run.detector.fences) == 1
        assert run.detector.false_suspicion_count() == 1
        # the fencing window is charged as downtime of the fenced rank
        assert run.detector.total_downtime(1) > 0
        assert all(run.detector.total_downtime(r) == 0
                   for r in range(run.config.nprocs) if r != 1)


@pytest.mark.parametrize("interval", [1e-3, 2e-3, 5e-3])
def test_slow_beat_does_not_condemn_at_bootstrap(interval):
    """No fault at all, only a slow heartbeat.  The first gap sample is
    the wire delay, so at the second tick silence is about one interval:
    against a variance floor that did not scale with the beat every peer
    was condemned there and the run livelocked into ``exceeded
    max_events`` (1 ms and 2 ms; 5 ms outlasts this run's few beats)."""
    config = api.SimulationConfig(
        nprocs=4, protocol="tdi", checkpoint_interval=0.01, seed=5,
        max_events=2_000_000,
        detector=DetectorConfig(enabled=True, heartbeat_interval=interval))
    result = api.run_workload("lu", nprocs=4, protocol="tdi", seed=5,
                              scale="fast", config=config)
    assert result.detector.false_suspicion_count() == 0
    assert result.detector.condemnations == []
    assert result.answer == _reference("tdi").answer
