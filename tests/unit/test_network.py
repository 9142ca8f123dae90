"""Unit tests for the network model."""

import pytest

from repro.simnet.engine import Engine
from repro.simnet.network import Frame, Network, NetworkConfig, PartitionWindow
from repro.simnet.node import NodeSet
from repro.simnet.rng import RngStreams


def make_net(nprocs=3, jitter=0.0, **cfg):
    engine = Engine()
    nodes = NodeSet(nprocs)
    config = NetworkConfig(jitter_fraction=jitter, **cfg)
    net = Network(engine, nodes, config, RngStreams(0))
    return engine, nodes, net


class TestDelivery:
    def test_frame_delivered_to_attached_receiver(self):
        engine, _, net = make_net()
        got = []
        net.attach(1, got.append)
        net.transmit(Frame("app", 0, 1, "hello", 100))
        engine.run()
        assert len(got) == 1 and got[0].payload == "hello"

    def test_delay_includes_latency_and_bandwidth(self):
        engine, _, net = make_net()
        arrivals = []
        net.attach(1, lambda f: arrivals.append(engine.now))
        net.transmit(Frame("app", 0, 1, None, 12_500_000))  # 1 s at 12.5 MB/s
        engine.run()
        expected = 100e-6 + (12_500_000 + 32) / 12.5e6
        assert arrivals[0] == pytest.approx(expected, rel=1e-9)

    def test_larger_frames_take_longer(self):
        engine, _, net = make_net()
        assert net.delay_for(10_000) > net.delay_for(100)

    def test_invalid_destination_rejected(self):
        _, _, net = make_net()
        with pytest.raises(ValueError):
            net.transmit(Frame("app", 0, 9, None, 10))


class TestFifo:
    def test_channel_fifo_under_jitter(self):
        engine, _, net = make_net(jitter=5.0)  # violently jittered
        got = []
        net.attach(1, lambda f: got.append(f.payload))
        for i in range(50):
            net.transmit(Frame("app", 0, 1, i, 64))
        engine.run()
        assert got == list(range(50))

    def test_cross_channel_reordering_allowed(self):
        # a big frame from 0 and a small one from 2 can overtake
        engine, _, net = make_net()
        got = []
        net.attach(1, lambda f: got.append(f.src))
        net.transmit(Frame("app", 0, 1, None, 1_000_000))
        net.transmit(Frame("app", 2, 1, None, 10))
        engine.run()
        assert got == [2, 0]


class TestFailures:
    def test_frame_to_dead_node_dropped(self):
        engine, nodes, net = make_net()
        got = []
        net.attach(1, got.append)
        nodes[1].kill(now=0.0)
        net.transmit(Frame("app", 0, 1, None, 10))
        engine.run()
        assert got == [] and net.stats.frames_dropped == 1

    def test_frame_in_flight_when_node_dies_is_dropped(self):
        engine, nodes, net = make_net()
        got = []
        net.attach(1, got.append)
        net.transmit(Frame("app", 0, 1, None, 10))
        engine.schedule(1e-6, lambda: nodes[1].kill(now=engine.now))
        engine.run()
        assert got == [] and net.stats.frames_dropped == 1

    def test_detach_drops_frames(self):
        engine, _, net = make_net()
        net.attach(1, lambda f: None)
        net.detach(1)
        net.transmit(Frame("app", 0, 1, None, 10))
        engine.run()
        assert net.stats.frames_dropped == 1

    def test_reattach_after_revive_receives(self):
        engine, nodes, net = make_net()
        got = []
        nodes[1].kill(now=0.0)
        nodes[1].revive(now=0.0)
        net.attach(1, got.append)
        net.transmit(Frame("app", 0, 1, None, 10))
        engine.run()
        assert len(got) == 1


class TestStats:
    def test_app_vs_ctl_accounting(self):
        engine, _, net = make_net()
        net.attach(1, lambda f: None)
        net.transmit(Frame("app", 0, 1, None, 100))
        net.transmit(Frame("ctl", 0, 1, None, 20, {"ctl": "X"}))
        net.transmit(Frame("ack", 0, 1, None, 16))
        engine.run()
        s = net.stats
        assert s.frames_sent == 3
        assert s.app_frames == 1 and s.app_bytes == 100
        assert s.ctl_frames == 2 and s.ctl_bytes == 36
        assert s.bytes_sent == 136


class TestConfigValidation:
    # latency, bandwidth and header size are module constants now
    def test_bad_latency(self):
        with pytest.raises(TypeError):
            NetworkConfig(base_latency=-1.0)

    def test_bad_bandwidth(self):
        with pytest.raises(TypeError):
            NetworkConfig(bandwidth_bytes_per_s=0)

    def test_bad_jitter(self):
        with pytest.raises(ValueError):
            NetworkConfig(jitter_fraction=-0.1)

    def test_negative_header_bytes_rejected(self):
        with pytest.raises(TypeError):
            NetworkConfig(header_bytes=-1)

    @pytest.mark.parametrize("knob", ["drop_prob", "dup_prob", "corrupt_prob"])
    def test_impairment_probability_range(self, knob):
        with pytest.raises(ValueError):
            NetworkConfig(**{knob: -0.01})
        with pytest.raises(ValueError):
            NetworkConfig(**{knob: 1.0})

    def test_impaired_property(self):
        assert not NetworkConfig().impaired
        assert NetworkConfig(drop_prob=0.01).impaired
        assert NetworkConfig(partitions=(
            PartitionWindow(0.0, 1.0, (0,), (1,)),)).impaired


class TestPartitionWindow:
    def test_severs_both_directions_inside_window(self):
        w = PartitionWindow(1.0, 2.0, (0, 1), (2,))
        assert w.severs(0, 2, 1.5) and w.severs(2, 1, 1.5)

    def test_does_not_sever_outside_window_or_sides(self):
        w = PartitionWindow(1.0, 2.0, (0,), (2,))
        assert not w.severs(0, 2, 2.0)   # end is exclusive
        assert not w.severs(0, 1, 1.5)   # rank 1 is in neither side

    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            PartitionWindow(2.0, 1.0, (0,), (1,))
        with pytest.raises(ValueError):
            PartitionWindow(0.0, 1.0, (), (1,))
        with pytest.raises(ValueError):
            PartitionWindow(0.0, 1.0, (0, 1), (1, 2))


class TestImpairments:
    def test_drop_impairment_loses_frames(self):
        engine, _, net = make_net(drop_prob=0.5)
        got = []
        net.attach(1, got.append)
        for i in range(200):
            net.transmit(Frame("app", 0, 1, i, 64))
        engine.run()
        assert net.stats.frames_dropped_impaired > 0
        assert len(got) == 200 - net.stats.frames_dropped_impaired

    def test_dup_impairment_replays_frames(self):
        engine, _, net = make_net(dup_prob=0.5)
        got = []
        net.attach(1, got.append)
        for i in range(100):
            net.transmit(Frame("app", 0, 1, i, 64))
        engine.run()
        assert net.stats.frames_duplicated > 0
        assert len(got) == 100 + net.stats.frames_duplicated

    def test_corrupt_impairment_flags_frame_and_inverts_checksum(self):
        engine, _, net = make_net(corrupt_prob=0.999)
        got = []
        net.attach(1, got.append)
        net.transmit(Frame("app", 0, 1, "x", 64, {"rt": {"ck": 7}}))
        engine.run()
        assert net.stats.frames_corrupted == 1
        assert got[0].meta.get("corrupted")
        assert got[0].meta["rt"]["ck"] == 7 ^ 0xFFFFFFFF

    def test_partition_discards_crossing_frames(self):
        engine, _, net = make_net(
            partitions=(PartitionWindow(0.0, 1.0, (0,), (1,)),))
        got = []
        net.attach(1, got.append)
        net.attach(2, got.append)
        net.transmit(Frame("app", 0, 1, None, 64))  # severed
        net.transmit(Frame("app", 0, 2, None, 64))  # unaffected
        engine.run()
        assert net.stats.frames_dropped_partition == 1
        assert [f.dst for f in got] == [2]

    def test_partitioned_predicate_follows_clock(self):
        engine, _, net = make_net(
            partitions=(PartitionWindow(1.0, 2.0, (0,), (1,)),))
        assert not net.partitioned(0, 1)
        engine.schedule(1.5, lambda: None)
        engine.run()
        assert net.partitioned(0, 1)

    def test_drop_split_by_cause_sums(self):
        engine, nodes, net = make_net(drop_prob=0.3)
        net.attach(1, lambda f: None)
        nodes[2].kill(now=0.0)
        for i in range(50):
            net.transmit(Frame("app", 0, 1, i, 64))
        for i in range(10):  # some may be claimed by the loss impairment
            net.transmit(Frame("app", 0, 2, i, 64))
        engine.run()
        s = net.stats
        assert s.frames_dropped_dead > 0 and s.frames_dropped_impaired > 0
        assert s.frames_dropped == (
            s.frames_dropped_dead + s.frames_dropped_impaired
            + s.frames_dropped_partition + s.frames_dropped_corrupt)

    def test_impairments_do_not_perturb_clean_jitter_stream(self):
        # the impairment draws live on their own substream: a run whose
        # knobs are on but never fire must match the pristine run
        def arrivals(**cfg):
            engine, _, net = make_net(jitter=0.5, **cfg)
            times = []
            net.attach(1, lambda f: times.append(engine.now))
            for i in range(20):
                net.transmit(Frame("app", 0, 1, i, 64))
            engine.run()
            return times

        assert arrivals() == arrivals(drop_prob=1e-12)
