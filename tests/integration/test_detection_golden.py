"""Golden-trace equivalence of the armed failure detector.

Arming the accrual detector on a fault-free run must be behaviourally
invisible: heartbeats ride their own frame kind, their own FIFO lane
and their own RNG jitter substream (``net.jitter.hb``), so for a pinned
seed the armed run produces the same per-rank answers, the same
delivered-message multisets, a silent oracle and the same behavioural
counters as the unarmed run — across every protocol and both comm
modes.  (Raw frame and engine-event totals legitimately differ: the
heartbeats themselves are traffic.)

Under a real kill the armed run must still match the fault-free
answers, but recovery is condemnation-initiated: the run records a
measured MTTD instead of the injector's scripted ``DETECTION_DELAY``.

Unobserved, an armed run holds its heartbeats on their lanes instead of
scheduling an engine event per arrival (``simnet/network.py``, "Held
heartbeats").  The pinned runs below are traced, so they pin the
per-event path; each has an untraced twin that must agree with it on
everything but the event count, and a slice of
``tests/tools/heartbeat_equivalence.py`` compares held against event
runs across every fault shape that can intersect a held beat — and
against runs only the oracle watches, which subscribes to no frame kind
and so must leave every beat held.
"""

import functools
import hashlib

import pytest

from repro.faults.detector import DetectorConfig
from repro.faults.injector import FaultSpec, GrayFaultSpec
from repro.config import SimulationConfig
from repro.harness.runner import RunRequest
from tests.tools.heartbeat_equivalence import (TIER1_CELLS, first_difference,
                                               observation, observe_three,
                                               verified_difference)

PROTOCOLS = ("tdi", "tag", "tel")

#: per-rank counters that must be identical between armed and unarmed
#: fault-free runs (timings and raw frame counts are not compared)
GOLDEN_COUNTERS = (
    "app_sends", "app_delivers", "duplicates_discarded",
    "app_sends_suppressed", "resends", "recovery_count",
    "checkpoints_taken", "piggyback_identifiers",
)


def _summary(protocol, *, detect=False, faults=(), nprocs=4,
             comm_mode="nonblocking", seed=3):
    request = RunRequest(
        key=(protocol, comm_mode, detect, bool(faults)),
        workload="lu",
        preset="fast",
        config=SimulationConfig(
            nprocs=nprocs, protocol=protocol, comm_mode=comm_mode,
            checkpoint_interval=0.01, seed=seed, verify=True, record=True,
            detector=DetectorConfig(enabled=detect)),
        faults=tuple(faults),
        strict_verify=False,
    )
    return request.execute()


def _counters(summary):
    return [{name: int(m[name]) for name in GOLDEN_COUNTERS}
            for m in summary.per_rank]


class TestArmedDetectorGolden:
    """An armed-but-unfired detector is counter-invisible."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("comm_mode", ["blocking", "nonblocking"])
    def test_fault_free_equivalence(self, protocol, comm_mode):
        unarmed = _summary(protocol, comm_mode=comm_mode)
        armed = _summary(protocol, comm_mode=comm_mode, detect=True)
        assert unarmed.violations == [] and armed.violations == []
        assert armed.results == unarmed.results
        assert armed.delivered == unarmed.delivered
        assert _counters(armed) == _counters(unarmed)


class TestCondemnationInitiatedRecovery:
    """A real kill under the armed detector: measured MTTD, same answers."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_kill_recovers_with_measured_mttd(self, protocol):
        clean = _summary(protocol, seed=5)
        killed = _summary(protocol, seed=5, detect=True,
                          faults=(FaultSpec(rank=2, at_time=0.004),))
        assert killed.violations == []
        assert killed.results == clean.results
        assert killed.delivered == clean.delivered
        assert sum(int(m["recovery_count"]) for m in killed.per_rank) >= 1

    def test_mttd_is_measured_not_scripted(self):
        result = _run_result("tdi", detect=True,
                             faults=(FaultSpec(rank=2, at_time=0.004),))
        mttd = result.detector.mean_time_to_detect()
        # the accrual walk takes ~1.1 ms at the defaults — far from the
        # legacy scripted DETECTION_DELAY of exactly 1 ms only in that
        # it is an emergent quantity; assert the plausible band
        assert mttd is not None
        assert 1e-4 < mttd < 5e-3
        assert result.detector.false_suspicion_count() == 0
        assert len(result.detector.fences) == 0

    def test_legacy_split_preserves_total_delay(self):
        """Unarmed runs schedule the restart after DETECTION_DELAY +
        RESTART_DELAY, preserving the pre-split 2 ms default; neither is
        a config field."""
        from repro.config import SimulationConfig
        from repro.faults.injector import DETECTION_DELAY, RESTART_DELAY
        assert DETECTION_DELAY + RESTART_DELAY == pytest.approx(2e-3)
        with pytest.raises(TypeError):
            SimulationConfig(detection_delay=-1e-3)


def _run_result(protocol, *, detect=False, faults=(), seed=5):
    from repro import api
    config = api.SimulationConfig(
        nprocs=4, protocol=protocol, comm_mode="nonblocking",
        checkpoint_interval=0.01, seed=seed, verify=True,
        detector=DetectorConfig(enabled=detect),
    )
    return api.run_workload("lu", nprocs=4, protocol=protocol, seed=seed,
                            scale="fast", config=config, faults=faults)


# ----------------------------------------------------------------------
# Pinned runs: the heartbeat fan-out path changes no event
# ----------------------------------------------------------------------

def _trace_digest(trace):
    """SHA-256 over every recorded event, in order (the fields of these
    TDI runs are ints, floats, strs, bools, lists and tuples: ``repr``
    is exact for all of them)."""
    digest = hashlib.sha256()
    for ev in trace.events:
        digest.update(repr((ev.time, ev.kind, ev.rank,
                            sorted(ev.fields.items()))).encode())
    return digest.hexdigest()


def _pinned_run(seed, fault, *, transport=False, nprocs=16, scale="paper",
                trace_enabled=True, verify=False):
    from repro.config import SimulationConfig
    from repro.mpi.cluster import Cluster
    from repro.simnet.transport import TransportConfig
    from repro.workloads.presets import workload_factory
    config = SimulationConfig(
        nprocs=nprocs, protocol="tdi", checkpoint_interval=0.05, seed=seed,
        trace_enabled=trace_enabled, detector=DetectorConfig(enabled=True),
        transport=TransportConfig(enabled=transport), verify=verify)
    return Cluster(config, workload_factory("lu", scale=scale)), [fault]


_KILL = FaultSpec(rank=3, at_time=0.02)

#: name -> (seed, fault, reliable transport on)
PINNED_CASES = {
    "kill-seed1": (1, _KILL, False),
    "kill-seed2": (2, _KILL, False),
    "kill-seed3": (3, _KILL, False),
    "freeze": (1, GrayFaultSpec(rank=3, at_time=0.02, kind="freeze",
                                duration=0.004), False),
    "mute": (1, GrayFaultSpec(rank=3, at_time=0.02, kind="mute",
                              duration=0.004, drop=True), True),
}


@functools.lru_cache(maxsize=None)
def _pinned_outcome(name, traced=True):
    """``(pinned tuple, observation for the twin comparison)`` of one
    pinned case; the trace itself is digested and dropped."""
    seed, fault, transport = PINNED_CASES[name]
    cluster, faults = _pinned_run(seed, fault, transport=transport,
                                  trace_enabled=traced)
    result = cluster.run(faults)
    pinned = (
        result.events_fired,
        result.network.frames_sent,
        result.network.frames_dropped_dead,
        int(result.metrics.total("zombie_frames_dropped")),
        [(c.rank, c.observer, c.condemned_at)
         for c in result.detector.condemnations],
        result.accomplishment_time,
        _trace_digest(result.trace),
    )
    return pinned, observation(cluster, result)


#: ``_pinned_outcome`` at the commit before the fan-out path existed,
#: when every heartbeat was a ``Frame`` through ``Endpoint._transmit``
#: and ``Network.transmit``: (events_fired, frames_sent,
#: frames_dropped_dead, zombie_frames_dropped, condemnations as (rank,
#: observer, condemned_at), accomplishment_time, trace digest)
PINNED = {
    "kill-seed1": (
        139242, 99112, 113, 0, [(3, 0, 0.021000000000000015)],
        0.19029667152743,
        "2f18c02bce6714e2508a3073b0f785b50726b433b7c8debc802b841a1bce9c2b"),
    "kill-seed2": (
        139242, 99112, 113, 0, [(3, 0, 0.021000000000000015)],
        0.19041428476633931,
        "b20c72d6143cb8f63ef366974e37d42dc27029bbbd6795c5a6e0cc4f163d53db"),
    "kill-seed3": (
        139242, 99112, 113, 0, [(3, 0, 0.021000000000000015)],
        0.19023851462652006,
        "75cc9119fa7563e88524136a3b9fa3b13fe22ef5655caea7306a5e496ef3169c"),
    "freeze": (
        131292, 91650, 68, 0, [(3, 0, 0.021000000000000015)],
        0.1748007913851682,
        "e39a9243a471e0ffb882303eb1bc9a1f4844ad917adf08e751b4eae247ded69e"),
    "mute": (
        131291, 91680, 68, 15, [(3, 0, 0.021000000000000015)],
        0.1748007913851682,
        "b00b721f710710f77f74eebf9257dc334886becfeb691bea070e064694d7d992"),
}


class TestPinnedArmedRuns:
    """LU, 16 ranks, ``paper`` preset, detector armed — pinned to the
    per-frame heartbeat path event for event."""

    @pytest.mark.parametrize("name", sorted(PINNED_CASES))
    def test_run_is_event_identical(self, name):
        assert _pinned_outcome(name)[0] == PINNED[name]

    @pytest.mark.parametrize("name", sorted(PINNED_CASES))
    def test_untraced_twin_differs_in_event_count_only(self, name):
        """Nobody watches the twin, so its heartbeats wait on their
        lanes: same answers, wire counters, condemnations, times,
        per-rank metrics, suspicion, estimator histories and RNG
        substreams from strictly fewer engine events."""
        traced = _pinned_outcome(name)[1]
        untraced = _pinned_outcome(name, traced=False)[1]
        assert first_difference(traced, untraced) is None
        assert untraced["events_fired"] < traced["events_fired"]

    def test_late_listener_sees_every_network_event(self):
        """The network asks the trace whether ``net.transmit`` /
        ``net.arrive`` are wanted before building one; a listener
        attached after construction with no kinds named wants them,
        recording or not."""
        traced, faults = _pinned_run(5, FaultSpec(rank=2, at_time=0.004),
                                     nprocs=4, scale="fast")
        recorded = traced.run(faults).trace
        quiet, faults = _pinned_run(5, FaultSpec(rank=2, at_time=0.004),
                                    nprocs=4, scale="fast",
                                    trace_enabled=False)
        heard = []
        quiet.trace.attach_listener(
            lambda ev: heard.append(ev)
            if ev.kind in ("net.transmit", "net.arrive") else None)
        result = quiet.run(faults)
        assert result.trace.events == []
        assert heard == [ev for ev in recorded.events
                         if ev.kind in ("net.transmit", "net.arrive")]
        assert sum(ev.kind == "net.transmit" for ev in heard) \
            == result.network.frames_sent

    def test_listener_attached_mid_run_hears_every_later_arrival(self):
        """Held beats are invisible only while nobody can see them: the
        first listener turns every beat still in flight back into an
        arrival event, so it hears exactly what a recording made from
        the start holds after that instant."""
        kill = FaultSpec(rank=2, at_time=0.004)
        traced, faults = _pinned_run(5, kill, nprocs=4, scale="fast")
        recorded = traced.run(faults).trace
        quiet, faults = _pinned_run(5, kill, nprocs=4, scale="fast",
                                    trace_enabled=False)
        since = 0.00314159
        heard = []
        quiet.engine.schedule_at(since, lambda: quiet.trace.attach_listener(
            lambda ev: heard.append(ev)
            if ev.kind in ("net.transmit", "net.arrive") else None))
        quiet.run(faults)
        assert heard == [ev for ev in recorded.events if ev.time > since
                         and ev.kind in ("net.transmit", "net.arrive")]
        assert any(ev.kind == "net.arrive" and ev["frame_kind"] == "hb"
                   and ev.time < since + 1e-4 for ev in heard)

    def test_subscriber_to_arrivals_mid_run_un_holds_the_beats(self):
        """Asking for ``net.arrive`` by kind is watching frames: held
        beats unfold for that subscriber as for a catch-all listener,
        and it is handed nothing else."""
        kill = FaultSpec(rank=2, at_time=0.004)
        traced, faults = _pinned_run(5, kill, nprocs=4, scale="fast")
        recorded = traced.run(faults).trace
        quiet, faults = _pinned_run(5, kill, nprocs=4, scale="fast",
                                    trace_enabled=False)
        since = 0.00314159
        heard = []
        quiet.engine.schedule_at(since, lambda: quiet.trace.attach_listener(
            heard.append, ("net.arrive",)))
        quiet.run(faults)
        assert quiet.trace.active is False
        assert heard == [ev for ev in recorded.events
                         if ev.time > since and ev.kind == "net.arrive"]
        assert any(ev["frame_kind"] == "hb" and ev.time < since + 1e-4
                   for ev in heard)


@pytest.mark.parametrize("cell", TIER1_CELLS, ids=lambda cell: cell.name)
def test_held_run_is_indistinguishable_from_the_event_run(cell):
    event, held, verified = observe_three(cell)
    assert "raised" not in event, event["raised"]
    assert first_difference(event, held) is None
    assert held["events_fired"] < event["events_fired"] \
        or cell.config.network.impaired
    # the oracle alone un-holds nothing and checks what it always did
    assert verified_difference(event, held, verified) is None


def test_oracle_alone_leaves_the_trace_inactive_and_the_beats_held():
    """LU-8, detector armed: ``verify=True`` subscribes the oracle to its
    own kinds, none of them a frame's, so the trace stays inactive and
    the run fires exactly the events of its unverified twin."""
    events = {}
    for verify in (False, True):
        cluster, faults = _pinned_run(1, FaultSpec(rank=3, at_time=0.006),
                                      nprocs=8, scale="fast",
                                      trace_enabled=False, verify=verify)
        assert cluster.trace.active is False
        assert ("verify.deliver" in cluster.trace.wanted) is verify
        assert "net.arrive" not in cluster.trace.wanted
        result = cluster.run(faults)
        assert result.violations == []
        events[verify] = result.events_fired
    assert events[True] == events[False]
