"""Unit tests for the blocking send architecture (Fig. 4a): inline
protocol work, the per-peer eager window, the rendezvous stall."""

import pytest

from repro.core.blocking import BlockingSender
from repro.simnet.primitives import SendOp
from tests.conftest import RecordingTask, SenderHost

COST = 0.01
BIG = 1 << 20


def op(payload, dest=1, size=64):
    return SendOp(dest=dest, payload=payload, tag=0, size_bytes=size)


@pytest.fixture
def host(engine):
    return SenderHost(engine, cost=COST, send_window=2,
                      eager_threshold_bytes=8192)


@pytest.fixture
def task(engine):
    return RecordingTask(engine)


def shipped(host):
    return [payload for _t, payload, _i in host.shipped]


class TestAckMode:
    def test_thresholds(self, host):
        sender = BlockingSender(host)
        assert sender.ack_mode(100) == "arrival"
        assert sender.ack_mode(8192) == "arrival"     # at the threshold: eager
        assert sender.ack_mode(8193) == "delivery"    # above: rendezvous


class TestEagerWindow:
    def test_eager_send_completes_once_the_cost_is_paid(
            self, engine, host, task):
        sender = BlockingSender(host)
        sender.submit(task, op("a"))
        assert host.prepared == ["a"] and host.shipped == []   # inline, unpaid
        engine.run()
        assert host.shipped == [(COST, "a", 1)]
        assert task.resumed_at == [COST]
        assert sender.describe_wait() == []

    def test_window_fills_then_send_parks_then_ack_unparks(
            self, engine, host, task):
        sender = BlockingSender(host)
        for payload in "abc":
            sender.submit(task, op(payload))
            engine.run()
        # window of 2: the third send is prepared but parked, app stalled
        assert shipped(host) == ["a", "b"]
        assert len(task.resumed_at) == 2
        assert "parked on full window" in sender.describe_wait()[0]
        engine.schedule(1.0, lambda: sender.on_ack(1, 1))
        engine.run()
        assert shipped(host) == ["a", "b", "c"]
        assert len(task.resumed_at) == 3
        assert host.metrics.blocked_time == pytest.approx(1.0)
        assert sender.describe_wait() == []

    def test_windows_are_per_peer(self, engine, host, task):
        sender = BlockingSender(host)
        for payload, dest in (("a", 1), ("b", 1), ("c", 2)):
            sender.submit(task, op(payload, dest=dest))
            engine.run()
        assert shipped(host) == ["a", "b", "c"]

    def test_ack_from_another_peer_does_not_unpark(self, engine, host, task):
        sender = BlockingSender(host)
        for payload in "abc":
            sender.submit(task, op(payload))
            engine.run()
        sender.on_ack(2, 1)
        assert shipped(host) == ["a", "b"]

    def test_duplicate_ack_ignored(self, engine, host, task):
        sender = BlockingSender(host)
        sender.submit(task, op("a"))
        engine.run()
        sender.on_ack(1, 1)
        sender.on_ack(1, 1)     # original + resent copy both acked
        sender.on_ack(1, 99)    # never sent
        assert len(task.resumed_at) == 1
        assert host.metrics.blocked_time == 0.0

    def test_suppressed_send_costs_but_never_transmits(
            self, engine, host, task):
        host.suppress.add("dup")
        sender = BlockingSender(host)
        sender.submit(task, op("dup"))
        engine.run()
        assert host.shipped == [] and task.resumed_at == [COST]


class TestRendezvous:
    def test_blocks_until_the_delivery_ack(self, engine, host, task):
        sender = BlockingSender(host)
        sender.submit(task, op("big", size=BIG))
        engine.run()
        assert shipped(host) == ["big"]
        assert task.resumed_at == []          # transmitted, still stalled
        assert sender.describe_wait() == ["awaiting acks [(1, 1)]"]
        engine.schedule(2.0, lambda: sender.on_ack(1, 1))
        engine.run()
        assert len(task.resumed_at) == 1
        assert host.metrics.blocked_time == pytest.approx(2.0)
        assert sender.describe_wait() == []

    def test_rendezvous_bypasses_the_window(self, engine, host, task):
        sender = BlockingSender(host)
        for payload in "ab":
            sender.submit(task, op(payload))
            engine.run()
        sender.submit(task, op("big", size=BIG))
        engine.run()
        assert shipped(host) == ["a", "b", "big"]


class TestPeerWatermark:
    def test_drops_stale_entries_and_unparks(self, engine, host, task):
        sender = BlockingSender(host)
        for payload in "abc":
            sender.submit(task, op(payload))
            engine.run()
        assert shipped(host) == ["a", "b"]
        # the restarted peer's checkpoint covers send 1: its ack died
        # with the old incarnation and will never come
        sender.peer_watermark(1, 1)
        assert shipped(host) == ["a", "b", "c"]
        # ... and a late ack for the dropped entry is just a duplicate
        sender.on_ack(1, 1)
        assert len(task.resumed_at) == 3

    def test_watermark_below_the_window_changes_nothing(
            self, engine, host, task):
        sender = BlockingSender(host)
        for payload in "abc":
            sender.submit(task, op(payload))
            engine.run()
        sender.peer_watermark(1, 0)
        sender.peer_watermark(2, 10)
        assert shipped(host) == ["a", "b"]


class TestReset:
    def test_reset_forgets_windows_and_stalls(self, engine, host, task):
        sender = BlockingSender(host)
        for payload in "abc":
            sender.submit(task, op(payload))
            engine.run()
        sender.reset()
        assert sender.describe_wait() == [] and sender.idle
        sender.on_ack(1, 1)                  # the old incarnation's ack
        assert shipped(host) == ["a", "b"]   # unparks nothing
        fresh = BlockingSender(host)
        assert {k: v for k, v in vars(sender).items() if k != "host"} \
            == {k: v for k, v in vars(fresh).items() if k != "host"}

    def test_cost_in_flight_dies_with_the_incarnation(
            self, engine, host, task):
        sender = BlockingSender(host)
        sender.submit(task, op("a"))
        host.alive = False      # killed while the tracking cost is paid
        engine.run()
        assert host.shipped == [] and task.resumed_at == []
