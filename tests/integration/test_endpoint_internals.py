"""Endpoint internals pinned directly: ack-mode selection, control
broadcast fan-out, resend framing, and describe_wait diagnostics."""

import pytest

from repro.config import SimulationConfig
from repro.mpi.cluster import Cluster
from repro.protocols.base import LoggedMessage
from repro.workloads.presets import workload_factory


def make_cluster(comm_mode="blocking", protocol="tdi", nprocs=4,
                 eager=8192, **kw):
    cfg = SimulationConfig(nprocs=nprocs, protocol=protocol,
                           comm_mode=comm_mode,
                           eager_threshold_bytes=eager, seed=1, **kw)
    return Cluster(cfg, workload_factory("synthetic", scale="fast"))


class TestAckModes:
    """The endpoint picks its send architecture once; the sender says
    which acknowledgement a frame asks for."""

    def test_blocking_thresholds(self):
        sender = make_cluster().endpoints[0].sender
        assert sender.ack_mode(100) == "arrival"
        assert sender.ack_mode(8192) == "arrival"     # at the threshold: eager
        assert sender.ack_mode(8193) == "delivery"    # above: rendezvous

    def test_nonblocking_never_acks(self):
        sender = make_cluster(comm_mode="nonblocking").endpoints[0].sender
        assert sender.ack_mode(100) is None
        assert sender.ack_mode(1 << 20) is None


class TestControlFanout:
    def test_broadcast_excludes_self(self):
        cluster = make_cluster()
        ep = cluster.endpoints[2]
        ep.broadcast_control("CKPT_ADV", 1, 8)
        cluster.engine.run()
        # 3 control frames went out (to ranks 0, 1, 3)
        assert cluster.network.stats.ctl_frames == 3

    def test_control_frame_reaches_protocol(self):
        cluster = make_cluster()
        src, dst = cluster.endpoints[0], cluster.endpoints[1]
        dst.protocol.vectors.last_send_index[0] = 0
        src.send_control(
            1, "RESPONSE", {"delivered": 5, "epoch": 0, "for_epoch": 0}, 8)
        cluster.engine.run()
        assert dst.protocol.rollback_last_send_index[0] == 5


class TestResendFraming:
    def test_resend_carries_logged_piggyback_and_index(self):
        cluster = make_cluster(comm_mode="nonblocking")
        sender = cluster.endpoints[0]
        received = []
        cluster.network.attach(1, received.append)
        item = LoggedMessage(dest=1, send_index=7, tag=3, payload="p",
                             size_bytes=100, piggyback=(0, 1, 2, 3),
                             piggyback_identifiers=5)
        sender.resend_logged(item)
        cluster.engine.run()
        assert len(received) == 1
        frame = received[0]
        assert frame.meta["resend"] is True
        assert frame.meta["send_index"] == 7
        assert frame.meta["pb"] == (0, 1, 2, 3)
        assert frame.meta["tag"] == 3
        # wire size includes the logged piggyback's identifiers
        assert frame.size_bytes == 100 + 5 * cluster.config.costs.identifier_bytes

    def test_resend_ack_mode_follows_size(self):
        cluster = make_cluster(comm_mode="blocking")
        sender = cluster.endpoints[0]
        received = []
        cluster.network.attach(1, received.append)
        small = LoggedMessage(dest=1, send_index=1, tag=0, payload="s",
                              size_bytes=64, piggyback=(0,) * 4)
        big = LoggedMessage(dest=1, send_index=2, tag=0, payload="b",
                            size_bytes=1 << 20, piggyback=(0,) * 4)
        sender.resend_logged(small)
        sender.resend_logged(big)
        cluster.engine.run()
        assert received[0].meta["ack"] == "arrival"
        assert received[1].meta["ack"] == "delivery"


class TestDiagnostics:
    def test_describe_wait_idle(self):
        ep = make_cluster().endpoints[0]
        assert ep.describe_wait() == "idle"

    def test_describe_wait_pending_recv(self):
        from repro.simnet.primitives import RecvOp

        ep = make_cluster().endpoints[0]
        ep._handle_effect(None, RecvOp(source=2, tag=9))
        out = ep.describe_wait()
        assert "source=2" in out and "tag=9" in out

    def test_describe_wait_pending_ack(self):
        from repro.simnet.primitives import RecvOp, SendOp

        from tests.conftest import RecordingTask

        cluster = make_cluster()
        ep = cluster.endpoints[0]
        # a rendezvous-sized send stalls the app until the delivery ack;
        # nobody on rank 3 is receiving, so the ack never comes
        ep._handle_effect(RecordingTask(cluster.engine),
                          SendOp(dest=3, payload=0, size_bytes=1 << 20))
        cluster.engine.run()
        assert "awaiting acks [(3, 1)]" in ep.describe_wait()
        # a receive posted on top is reported after the sender's stall
        ep._handle_effect(None, RecvOp(source=2, tag=9))
        assert ep.describe_wait().index("acks") \
            < ep.describe_wait().index("recv(source=2")
