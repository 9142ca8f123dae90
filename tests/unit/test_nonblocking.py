"""Unit tests for the non-blocking send pump (queue A, §III.E)."""

import pytest

from repro.core.nonblocking import SendPump
from repro.metrics.costs import PER_SEND_BASE
from repro.simnet.primitives import SendOp
from tests.conftest import RecordingTask, SenderHost


def op(payload="x", dest=1):
    return SendOp(dest=dest, payload=payload, tag=0, size_bytes=64)


@pytest.fixture
def host(engine):
    return SenderHost(engine)


@pytest.fixture
def task(engine):
    return RecordingTask(engine)


class TestSendPump:
    def test_submit_returns_immediately_and_processes_async(
            self, engine, host, task):
        pump = SendPump(host)
        pump.submit(task, op("a"))
        # nothing yet: the app thread returned, paying only the append
        assert host.prepared == []
        assert task.resumed_at == [PER_SEND_BASE]
        engine.run()
        assert host.prepared == ["a"]
        assert [(p, i) for _t, p, i in host.shipped] == [("a", 1)]

    def test_fifo_order(self, engine, host, task):
        pump = SendPump(host)
        for p in "abcd":
            pump.submit(task, op(p))
        engine.run()
        assert [p for _t, p, _i in host.shipped] == list("abcd")

    def test_cost_paces_the_pump(self, engine, task):
        host = SenderHost(engine, cost=1.0)
        pump = SendPump(host)
        for p in "abc":
            pump.submit(task, op(p))
        engine.run()
        # each entry is handed to the transport when the previous one's
        # tracking cost has been paid
        assert [t for t, _p, _i in host.shipped] == [0.0, 1.0, 2.0]
        assert engine.now == 3.0

    def test_submissions_while_busy_are_queued(self, engine, task):
        pump = SendPump(SenderHost(engine, cost=1.0))
        pump.submit(task, op())
        engine.schedule(0.5, lambda: pump.submit(task, op()))
        engine.run()
        assert pump.submitted == 2 and pump.idle

    def test_suppressed_send_is_prepared_but_not_shipped(
            self, engine, host, task):
        host.suppress.add("dup")
        pump = SendPump(host)
        pump.submit(task, op("dup"))
        pump.submit(task, op("new"))
        engine.run()
        assert host.prepared == ["dup", "new"]
        assert [p for _t, p, _i in host.shipped] == ["new"]

    def test_kill_discards_queue(self, engine, task):
        host = SenderHost(engine, cost=1.0)
        pump = SendPump(host)
        for _ in range(5):
            pump.submit(task, op())
        engine.schedule(1.5, pump.reset)
        engine.run()
        assert len(host.prepared) == 2
        assert pump.idle

    def test_reset_pump_serves_the_next_incarnation(self, engine, task):
        """What the old incarnation left scheduled finds nothing to do;
        the next incarnation's sends start a chain of their own."""
        host = SenderHost(engine, cost=1.0)
        pump = SendPump(host)
        pump.submit(task, op("old-1"))
        pump.submit(task, op("old-2"))
        engine.run(until=0.5)          # old-1 in flight, old-2 queued
        pump.reset()
        pump.submit(task, op("new"))
        engine.run()
        assert host.prepared == ["old-1", "new"]
        assert pump.idle

    def test_peak_depth_tracked(self, engine, host, task):
        pump = SendPump(host)
        for _ in range(4):
            pump.submit(task, op())
        assert pump.peak_depth == 4

    def test_never_waits_on_the_transport(self, host):
        pump = SendPump(host)
        assert pump.ack_mode(64) is None and pump.ack_mode(1 << 20) is None
        pump.on_ack(1, 1)
        pump.peer_watermark(1, 10)
        assert pump.describe_wait() == []
