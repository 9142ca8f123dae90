"""Unit tests for the reliable transport layer."""

import pytest

from repro.simnet.engine import Engine
from repro.simnet.network import Frame, Network, NetworkConfig, PartitionWindow
from repro.simnet.node import NodeSet
from repro.simnet.rng import RngStreams
from repro.simnet.transport import (
    ReliableTransport,
    TransportConfig,
    TransportStallError,
    payload_checksum,
)


def make_fabric(nprocs=3, *, net_cfg=None, seed=0):
    engine = Engine()
    nodes = NodeSet(nprocs)
    rng = RngStreams(seed)
    net = Network(engine, nodes, net_cfg or NetworkConfig(), rng)
    rt = ReliableTransport(network=net, nodes=nodes, rng=rng, engine=engine)
    return engine, nodes, net, rt


class TestConfigValidation:
    # the transport's timing is module constants: TransportConfig has
    # one field, and a timing knob passed to it is rejected
    @pytest.mark.parametrize("kwargs", [
        {"rto_min": 0.0},
        {"rto_backoff": 0.5},
        {"rto_min": 1e-3, "rto_max": 1e-4},
        {"rto_jitter": -0.1},
        {"ack_delay": -1e-3},
        {"max_retransmits": 0},
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(TypeError):
            TransportConfig(**kwargs)


class TestChecksum:
    def test_varies_with_payload_and_seq(self):
        assert payload_checksum("a", 1) != payload_checksum("b", 1)
        assert payload_checksum("a", 1) != payload_checksum("a", 2)

    def test_type_aware_digest_is_stable(self):
        payload = {"k": [1, 2.5, "s", b"raw", None], "t": (True, bytearray(b"x"))}
        assert payload_checksum(payload, 3) == payload_checksum(payload, 3)

    def test_array_payloads_hash_raw_bytes(self):
        numpy = pytest.importorskip("numpy")
        a = numpy.arange(4096, dtype=numpy.float64)
        b = a.copy()
        b[-1] += 1.0  # repr() truncation would hide this difference
        assert payload_checksum(a, 1) != payload_checksum(b, 1)


class TestReliableDelivery:
    def test_in_order_delivery_passthrough(self):
        engine, _, _, rt = make_fabric()
        got = []
        rt.attach(1, lambda f: got.append(f.payload))
        for i in range(10):
            rt.transmit(Frame("app", 0, 1, i, 64))
        engine.run()
        assert got == list(range(10))

    def test_drop_recovered_by_retransmission(self):
        engine, _, net, rt = make_fabric(
            net_cfg=NetworkConfig(drop_prob=0.4, jitter_fraction=0.0))
        got = []
        rt.attach(0, lambda f: None)
        rt.attach(1, lambda f: got.append(f.payload))
        for i in range(50):
            rt.transmit(Frame("app", 0, 1, i, 64))
        engine.run()
        assert got == list(range(50))
        assert net.stats.frames_dropped_impaired > 0

    def test_duplicates_discarded(self):
        engine, _, net, rt = make_fabric(
            net_cfg=NetworkConfig(dup_prob=0.5, jitter_fraction=0.0))
        got = []
        rt.attach(0, lambda f: None)
        rt.attach(1, lambda f: got.append(f.payload))
        for i in range(50):
            rt.transmit(Frame("app", 0, 1, i, 64))
        engine.run()
        assert got == list(range(50))
        assert net.stats.frames_duplicated > 0

    def test_corruption_rejected_and_recovered(self):
        engine, _, net, rt = make_fabric(
            net_cfg=NetworkConfig(corrupt_prob=0.3, jitter_fraction=0.0))
        got = []
        rt.attach(0, lambda f: None)
        rt.attach(1, lambda f: got.append(f.payload))
        for i in range(50):
            rt.transmit(Frame("app", 0, 1, i, 64))
        engine.run()
        assert got == list(range(50))
        assert net.stats.frames_corrupted > 0
        assert net.stats.frames_dropped_corrupt > 0

    def test_everything_at_once_still_reliable(self):
        engine, _, _, rt = make_fabric(
            net_cfg=NetworkConfig(drop_prob=0.2, dup_prob=0.2,
                                  corrupt_prob=0.2, jitter_fraction=1.0))
        got = []
        rt.attach(0, lambda f: None)
        rt.attach(1, lambda f: got.append(f.payload))
        for i in range(100):
            rt.transmit(Frame("app", 0, 1, i, 64))
        engine.run()
        assert got == list(range(100))

    def test_non_transport_frames_pass_through(self):
        # foreign traffic without an rt header is delivered as-is
        engine, _, net, rt = make_fabric()
        got = []
        rt.attach(1, got.append)
        net.transmit(Frame("app", 0, 1, "raw", 64))
        engine.run()
        assert [f.payload for f in got] == ["raw"]


class TestStall:
    def test_unhealed_partition_raises_stall(self):
        engine, _, _, rt = make_fabric(
            net_cfg=NetworkConfig(
                jitter_fraction=0.0,
                partitions=(PartitionWindow(0.0, 1e9, (0,), (1,)),)))
        rt.attach(1, lambda f: None)
        rt.transmit(Frame("app", 0, 1, "x", 64))
        with pytest.raises(TransportStallError, match="partition window"):
            engine.run()

    def test_describe_pending_names_backlog(self):
        engine, _, _, rt = make_fabric(
            net_cfg=NetworkConfig(
                jitter_fraction=0.0,
                partitions=(PartitionWindow(0.0, 1e9, (0,), (1,)),)))
        rt.attach(1, lambda f: None)
        rt.transmit(Frame("app", 0, 1, "x", 64))
        # the frame was discarded inside the window but is buffered
        lines = rt.describe_pending()
        assert lines and "0->1" in lines[0] and "[partitioned]" in lines[0]


class TestFailureSemantics:
    def test_unacked_frames_survive_sender_death(self):
        # a frame dropped on the wire whose sender then dies must still
        # arrive: in-flight state is wire state, not process memory
        engine, nodes, _, rt = make_fabric(
            net_cfg=NetworkConfig(drop_prob=0.999, jitter_fraction=0.0))
        got = []
        rt.attach(0, lambda f: None)
        rt.attach(1, lambda f: got.append(f.payload))
        rt.transmit(Frame("app", 0, 1, "covered-by-checkpoint", 64))
        engine.schedule(1e-6, lambda: (nodes[0].kill(now=engine.now),
                                       rt.detach(0)))

        def incarnate():
            # the sender returns on an almost-clean wire; a pending
            # retransmit lands and the ack finally settles the channel
            rt.network.config = NetworkConfig(drop_prob=1e-12,
                                              jitter_fraction=0.0)
            nodes[0].revive(now=engine.now)
            rt.attach(0, lambda f: None)
        engine.schedule(5e-3, incarnate)
        engine.run()
        assert got == ["covered-by-checkpoint"]
        assert not rt._send[(0, 1)].unacked

    def test_receiver_death_resets_channel_to_it(self):
        engine, nodes, _, rt = make_fabric(
            net_cfg=NetworkConfig(drop_prob=1e-12, jitter_fraction=0.0))
        got = []
        rt.attach(0, lambda f: None)
        rt.attach(1, lambda f: got.append(f.payload))
        rt.transmit(Frame("app", 0, 1, "before", 64))
        engine.run()

        nodes[1].kill(now=engine.now)
        rt.detach(1)
        rt.transmit(Frame("app", 0, 1, "lost-with-receiver", 64))
        # dead-peer heartbeats keep the queue alive; run to a horizon
        engine.run(until=engine.now + 0.2)

        nodes[1].revive(now=engine.now)
        rt.attach(1, lambda f: got.append(f.payload))
        rt.transmit(Frame("app", 0, 1, "after", 64))
        engine.run()
        # the in-between frame is protocol-recovery's job, not ours;
        # the fresh incarnation receives new traffic on a reset channel
        assert got == ["before", "after"]
        assert rt._send[(0, 1)].next_seq == 2  # numbering restarted

    def test_stale_ack_from_previous_incarnation_ignored(self):
        # an ack minted against a pre-reset numbering must not clear
        # renumbered frames that were never delivered.  (Impaired wire:
        # only then does the transport buffer frames for retransmission
        # — an unimpaired wire has nothing to ack.)
        engine, nodes, _, rt = make_fabric(
            net_cfg=NetworkConfig(drop_prob=1e-12, jitter_fraction=0.0))
        rt.attach(0, lambda f: None)
        rt.attach(1, lambda f: None)
        ch_key = (0, 1)
        rt.transmit(Frame("app", 0, 1, "x", 64))
        engine.run()
        assert not rt._send[ch_key].unacked

        nodes[1].kill(now=engine.now)
        rt.detach(1)
        nodes[1].revive(now=engine.now)
        rt.attach(1, lambda f: None)
        rt.transmit(Frame("app", 0, 1, "renumbered", 64))
        # a straggler ack tagged with the dead incarnation's epoch
        rt._process_ack(0, 1, ack=5, ack_epoch=nodes[1].epoch - 1)
        assert rt._send[ch_key].unacked  # still in flight
        engine.run()
        assert not rt._send[ch_key].unacked  # the real ack settles it


class TestEquivalence:
    def test_transport_is_invisible_on_a_clean_wire(self):
        def arrivals(with_transport):
            engine = Engine()
            nodes = NodeSet(3)
            rng = RngStreams(7)
            net = Network(engine, nodes, NetworkConfig(), rng)
            fabric = net
            if with_transport:
                fabric = ReliableTransport(
                    network=net, nodes=nodes, rng=rng, engine=engine)
            times = []
            fabric.attach(1, lambda f: times.append((engine.now, f.payload)))
            for i in range(30):
                fabric.transmit(Frame("app", 0, 1, i, 64 + i))
            engine.run()
            return times

        assert arrivals(False) == arrivals(True)

    def test_no_retransmit_timers_on_clean_wire(self):
        engine, _, _, rt = make_fabric()
        rt.attach(1, lambda f: None)
        rt.transmit(Frame("app", 0, 1, "x", 64))
        assert rt._send[(0, 1)].timer is None
        engine.run()
