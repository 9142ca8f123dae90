"""Pinned runs of everything the endpoint owns end to end.

The endpoint is the seam every layer crosses: the send architectures
(Fig. 4a/4b), the transmit gate (freeze → fence → mute), the gray-fault
buffers, the heartbeat chain, the two-phase checkpoint write, and the
per-incarnation teardown.  The pins below are SHA-256 digests of the
*full* trace event stream, taken at the commit before those duties were
split out of ``mpi/endpoint.py`` into the modules that own their policy;
they hold for any refactor that keeps behaviour a fixed point.

Besides the pins: the gate *order* is checked directly (it is written
down once, in ``Endpoint._transmit``), and the teardown is checked to be
uniform — a failed, a departed and a freshly incarnated rank all hold
exactly the volatile state of a newly constructed endpoint.
"""

import pytest

from repro.config import SimulationConfig
from repro.faults.detector import DetectorConfig
from repro.faults.injector import (
    FaultSpec,
    GrayFaultSpec,
    JoinSpec,
    LeaveSpec,
    StorageFaultSpec,
)
from repro.mpi.cluster import Cluster
from repro.protocols.checkpoint import StorageConfig
from repro.simnet.network import Frame, NetworkConfig
from repro.simnet.primitives import RecvOp, SendOp
from repro.simnet.transport import TransportConfig
from repro.workloads.presets import workload_factory
from tests.integration.test_detection_golden import _trace_digest

COMM_MODES = ("blocking", "nonblocking")


#: name -> (workload, nprocs, faults, config overrides)
CASES = {
    "kill": ("lu", 8, (FaultSpec(rank=3, at_time=0.004),), {}),
    # frozen far past the accrual walk (~1.1 ms): condemned while
    # alive, fenced, force-killed mid-freeze, restarted
    "freeze-fenced": (
        "lu", 4,
        (GrayFaultSpec(rank=1, at_time=0.004, kind="freeze",
                       duration=0.006),),
        {"detector": DetectorConfig(enabled=True)}),
    "mute-delay": (
        "reduce", 6,
        (GrayFaultSpec(rank=2, at_time=0.002, kind="mute", duration=0.004,
                       delay=2e-3, targets=(0, 1)),),
        {"detector": DetectorConfig(enabled=True)}),
    # pins the ``faults.gray`` draw order and the absolute sub-window
    # instants
    "stutter": (
        "lu", 4,
        (GrayFaultSpec(rank=2, at_time=0.003, kind="stutter",
                       duration=0.006),),
        {"detector": DetectorConfig(enabled=True)}),
    "leave-rejoin": (
        "lu", 6,
        (LeaveSpec(rank=2, at_time=0.003), JoinSpec(rank=2, at_time=0.006)),
        {}),
    # rank 1: one visible failure, the retry commits; rank 2: every
    # attempt fails, the checkpoint is skipped past the retry cap; the
    # kill then recovers rank 2 from the generation before the skip
    "hostile-storage": (
        "lu", 4,
        (StorageFaultSpec(rank=1, at_time=0.0, kind="write_fail", count=1),
         StorageFaultSpec(rank=2, at_time=0.0, kind="write_fail", count=2),
         FaultSpec(rank=2, at_time=0.015)),
        {"checkpoint_interval": 0.003,
         "storage": StorageConfig(max_write_retries=1)}),
    "lossy": (
        "reduce", 6, (FaultSpec(rank=4, at_time=0.003),),
        {"network": NetworkConfig(drop_prob=0.01),
         "transport": TransportConfig(enabled=True)}),
}


def _cluster(workload, nprocs, comm_mode, **overrides):
    settings = dict(nprocs=nprocs, protocol="tdi", comm_mode=comm_mode,
                    checkpoint_interval=0.01, seed=7, trace_enabled=True)
    settings.update(overrides)
    return Cluster(SimulationConfig(**settings),
                   workload_factory(workload, scale="fast"))


def _outcome(name, comm_mode):
    workload, nprocs, faults, overrides = CASES[name]
    result = _cluster(workload, nprocs, comm_mode, **overrides).run(
        list(faults))
    total = result.metrics.total
    return (
        result.events_fired,
        result.network.frames_sent,
        int(total("recovery_count")),
        int(total("zombie_frames_dropped")),
        int(total("ckpt_write_retries")),
        int(total("ckpt_skipped")),
        result.detector.fence_count(),
        result.accomplishment_time,
        _trace_digest(result.trace),
    )


#: ``_outcome`` at the commit before the endpoint was split:
#: (events_fired, frames_sent, recovery_count, zombie_frames_dropped,
#: ckpt_write_retries, ckpt_skipped, fences, accomplishment_time,
#: trace digest)
PINNED = {
    ("freeze-fenced", "blocking"): (
        1905, 860, 1, 0, 0, 0, 1,
        0.017779117963448537,
        "2aa2dc3d4b3331f8485c1c58895f10967c5a6ae960dec852e5430b5a2e439c20"),
    ("freeze-fenced", "nonblocking"): (
        1903, 660, 1, 0, 0, 0, 1,
        0.01867361882571155,
        "63de47c933ddfc35b595f21e08af1278af79e491a81c6a5fc13cad5e5732ba73"),
    ("hostile-storage", "blocking"): (
        1450, 494, 1, 0, 2, 1, 0,
        0.0266232041115619,
        "42d02961f2275448d368efd40991c0740a56914093059448f6f61b3c003b3f7b"),
    ("hostile-storage", "nonblocking"): (
        1446, 256, 1, 0, 2, 1, 0,
        0.026331898223529205,
        "4f700730649cbeff351c201fc7bad9c97941c83cbedb458721f3dddff5e1cee8"),
    ("kill", "blocking"): (
        3123, 1096, 1, 0, 0, 0, 0,
        0.025736808438189665,
        "edae2edf17df0d6b50354ed1d3af0d47436f2426302709a2944f392ecd49e937"),
    ("kill", "nonblocking"): (
        2972, 568, 1, 0, 0, 0, 0,
        0.02530422148349871,
        "96140a7a93bc049c81ec9e34fd723b760abde4788525ed876fc0027ae5816982"),
    ("leave-rejoin", "blocking"): (
        2242, 783, 1, 0, 0, 0, 0,
        0.023604049974029574,
        "f0e7c8bdaf00d127cdb842b5b9382ac9fcd885d6d301aefa818b0bd27873973a"),
    ("leave-rejoin", "nonblocking"): (
        2151, 411, 1, 0, 0, 0, 0,
        0.023146640642884308,
        "51c4a6549b110588f263c8b13334c055b7bc910ad743346142a09262a2cf5cad"),
    ("lossy", "blocking"): (
        509, 185, 1, 0, 0, 0, 0,
        0.04355878360259251,
        "9eb05d218bec1bdfcd2e4d10b1d9646698f48de259d7d51e3a3e833a9e08ae4c"),
    ("lossy", "nonblocking"): (
        492, 106, 1, 0, 0, 0, 0,
        0.015285664295367938,
        "9c6df7c9e5e28d630796b19bb3cc7dfb903f4d58d56d56617bb29826be2e7443"),
    ("mute-delay", "blocking"): (
        2358, 1742, 1, 5, 0, 0, 1,
        0.028647635478999515,
        "b53306a35d6773a2621e3bff70ebc1ea54b252f1c2c35a61be39a528b04f35ae"),
    ("mute-delay", "nonblocking"): (
        2358, 1677, 1, 5, 0, 0, 1,
        0.02867274283524885,
        "792f11cbb3588f1822817c23ee2dc3e7848313f8cc21280ca2d3a33980cd6a46"),
    ("stutter", "blocking"): (
        1595, 657, 0, 0, 0, 0, 0,
        0.01115547952390594,
        "42584e0a4be0ce9fcebd602b1e4913296020c013f5772fd71055964375d8a4f4"),
    ("stutter", "nonblocking"): (
        1523, 441, 0, 0, 0, 0, 0,
        0.01090586167396792,
        "ea440ef3ee1722d9fa552f89a4b08e2d6d12a2878f8ac57141a000b3bec2206f"),
}


class TestPinnedEndpointRuns:
    @pytest.mark.parametrize("comm_mode", COMM_MODES)
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_run_is_event_identical(self, name, comm_mode):
        assert _outcome(name, comm_mode) == PINNED[(name, comm_mode)]

    def test_cases_exercise_what_they_name(self):
        """The pins are only worth keeping while each case still
        reaches the machinery it is named for."""
        for comm_mode in COMM_MODES:
            fenced = PINNED[("freeze-fenced", comm_mode)]
            assert fenced[6] == 1 and fenced[2] == 1
            storage = PINNED[("hostile-storage", comm_mode)]
            assert storage[4] >= 1 and storage[5] >= 1
            assert PINNED[("leave-rejoin", comm_mode)][2] == 1


# ----------------------------------------------------------------------
# Gate order: freeze, then fence, then mute
# ----------------------------------------------------------------------

def _armed_cluster(**overrides):
    cluster = _cluster("lu", 4, "nonblocking",
                       detector=DetectorConfig(enabled=True), **overrides)
    # arm the way ``run`` does, without starting the applications
    cluster.detector.arm(cluster.config.detector,
                         lambda rank: cluster.nodes[rank].alive,
                         cluster._on_condemned)
    return cluster


def _fence(cluster, rank):
    cluster._fenced.add((rank, cluster.nodes[rank].epoch))


def _kinds(cluster, kind, rank):
    return [ev for ev in cluster.trace.events
            if ev.kind == kind and ev.rank == rank]


class TestTransmitGateOrder:
    def test_frozen_and_fenced_buffers_then_drops_at_thaw(self):
        cluster = _armed_cluster()
        ep = cluster.endpoints[1]
        received = []
        cluster.network.attach(0, received.append)
        ep.begin_gray(GrayFaultSpec(rank=1, at_time=0.0, kind="freeze",
                                    duration=1e-3))
        _fence(cluster, 1)
        ep.send_control(0, "CKPT_ADV", 1, 8)
        # frozen wins: the frame is buffered, not yet judged by the fence
        assert ep.metrics.zombie_frames_dropped == 0
        assert _kinds(cluster, "fence.drop", 1) == []
        cluster.engine.run(until=2e-3)
        # the thaw replays it through the gate, where the fence drops it
        assert ep.metrics.zombie_frames_dropped == 1
        [drop] = _kinds(cluster, "fence.drop", 1)
        assert drop.fields == {"dst": 0, "frame_kind": "ctl"}
        assert received == []

    def test_fenced_and_muted_drops_and_never_stamps(self):
        cluster = _armed_cluster()
        ep = cluster.endpoints[1]
        received = []
        cluster.network.attach(0, received.append)
        ep.begin_gray(GrayFaultSpec(rank=1, at_time=0.0, kind="mute",
                                    duration=1e-3, delay=5e-4))
        _fence(cluster, 1)
        frame = Frame("ctl", 1, 0, 1, 8, {"ctl": "CKPT_ADV"})
        ep._transmit(frame)
        assert ep.metrics.zombie_frames_dropped == 1
        assert frame.meta == {"ctl": "CKPT_ADV"}
        cluster.engine.run(until=2e-3)
        assert received == []

    def test_muted_unfenced_frame_is_stamped(self):
        cluster = _armed_cluster()
        ep = cluster.endpoints[1]
        arrived = {}
        for dst in (0, 2):
            cluster.network.attach(
                dst, lambda frame, dst=dst: arrived.setdefault(
                    dst, cluster.engine.now))
        ep.begin_gray(GrayFaultSpec(rank=1, at_time=0.0, kind="mute",
                                    duration=1e-3, delay=5e-4,
                                    targets=(0,)))
        ep.send_control(0, "CKPT_ADV", 1, 8)
        ep.send_control(2, "CKPT_ADV", 1, 8)
        cluster.engine.run(until=2e-3)
        # only the targeted peer's frame carries the mute delay
        assert arrived[2] < 5e-4 <= arrived[0]
        assert ep.metrics.zombie_frames_dropped == 0

    def test_fenced_heartbeats_drop_once_per_peer(self):
        cluster = _armed_cluster()
        _fence(cluster, 1)
        cluster.wake_heartbeats()
        cluster.engine.run(
            until=1.5 * cluster.config.detector.heartbeat_interval)
        drops = _kinds(cluster, "fence.drop", 1)
        assert sorted(ev.fields["dst"] for ev in drops) == [0, 2, 3]
        assert {ev.fields["frame_kind"] for ev in drops} == {"hb"}
        assert cluster.endpoints[1].metrics.zombie_frames_dropped == 3
        # the unfenced ranks beat normally
        assert _kinds(cluster, "fence.drop", 0) == []


class TestOverlappingFreezes:
    def test_extended_freeze_thaws_once_at_the_later_deadline(self):
        cluster = _armed_cluster()
        ep = cluster.endpoints[1]
        freeze = GrayFaultSpec(rank=1, at_time=0.0, kind="freeze",
                               duration=1e-3)
        ep.begin_gray(freeze)
        cluster.engine.schedule(5e-4, lambda: ep.begin_gray(freeze))
        ep.send_control(0, "CKPT_ADV", 1, 8)
        cluster.engine.run(until=1.2e-3)
        # the first deadline passed, but the freeze was extended
        assert ep.frozen and _kinds(cluster, "gray.thaw", 1) == []
        cluster.engine.run(until=2e-3)
        [thaw] = _kinds(cluster, "gray.thaw", 1)
        assert thaw.time == 1.5e-3 and thaw.fields["sends"] == 1
        assert not ep.frozen


# ----------------------------------------------------------------------
# Teardown uniformity
# ----------------------------------------------------------------------

def _volatile(ep):
    """Every piece of per-incarnation volatile state, by value (the
    sender's fields as ``repr``: a snapshot must not alias live state)."""
    return {
        "task": ep.task,
        "queue": ep.queue.frames(),
        "pending_recv": ep._pending_recv,
        "sender_idle": ep.sender.idle,
        "sender": {name: repr(value) for name, value in vars(ep.sender).items()
                   if name not in ("host", "engine", "submitted",
                                   "peak_depth", "_generation")},
        "gray": ep.gray,
        "frozen": ep.frozen,
        "wait": ep.describe_wait(),
    }


def _dirty(ep, peer):
    """Leave every kind of volatile state behind on a live endpoint."""
    # one send in flight: queue A holds it (Fig. 4b) or its tracking
    # cost is being paid (Fig. 4a)
    ep._handle_effect(ep.task, SendOp(dest=peer, payload=0, tag=98))
    ep.queue.enqueue(Frame("app", peer, ep.rank, 0, 64, {"tag": 97}))
    for kind in ("slow", "mute", "freeze"):
        ep.begin_gray(GrayFaultSpec(rank=ep.rank, at_time=0.0, kind=kind,
                                    duration=1.0))
    # buffered while frozen: one effect, one inbound and one outbound frame
    ep._handle_effect(ep.task, RecvOp(source=peer, tag=99))
    ep._on_frame(Frame("ctl", peer, ep.rank, 1, 8, {"ctl": "CKPT_ADV"}))
    ep.send_control(peer, "CKPT_ADV", 1, 8)


class TestTeardownUniformity:
    """``fail``, ``leave`` and the incarnation all end at the volatile
    state of a freshly constructed endpoint."""

    @pytest.fixture(params=COMM_MODES)
    def started(self, request):
        cluster = _cluster("lu", 4, request.param)
        fresh = _volatile(
            _cluster("lu", 4, request.param).endpoints[1])
        for ep in cluster.endpoints:
            ep.start()
        # far enough that a receive is pending and (Fig. 4a) eager sends
        # sit unacknowledged in the window
        cluster.engine.run(until=5e-4)
        ep = cluster.endpoints[1]
        assert _volatile(ep) != fresh
        _dirty(ep, peer=0)
        return cluster, ep, fresh

    def test_after_fail(self, started):
        _cluster_, ep, fresh = started
        ep.fail()
        assert _volatile(ep) == fresh

    def test_after_leave(self, started):
        cluster, ep, fresh = started
        cluster.membership.observe_leave(ep.rank)
        ep.leave()
        assert _volatile(ep) == fresh

    def test_at_end_of_incarnation(self, started):
        cluster, ep, fresh = started
        ep.fail()
        seen = []
        spawn = ep._spawn_task
        # the application restarts as the incarnation's last step but
        # one: snapshot just before it runs anything
        ep._spawn_task = lambda: (seen.append(_volatile(ep)), spawn())
        ep.incarnate()
        cluster.engine.run(until=cluster.engine.now + 1e-2)
        assert ep.node.alive and ep.node.epoch == 1
        assert seen == [fresh]
