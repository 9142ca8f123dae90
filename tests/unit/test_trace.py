"""Unit tests for structured tracing."""

import pytest

from repro.simnet.trace import Trace, TraceEvent


class TestTrace:
    def test_disabled_trace_records_nothing(self):
        trace = Trace(enabled=False)
        trace.emit("x", 0, a=1)
        assert trace.events == []

    def test_enabled_trace_records(self):
        trace = Trace(enabled=True)
        trace.emit("net.transmit", 2, dst=3)
        assert len(trace.events) == 1
        ev = trace.events[0]
        assert ev.kind == "net.transmit" and ev.rank == 2 and ev["dst"] == 3

    def test_clock_binding(self):
        t = [0.0]
        trace = Trace(enabled=True)
        trace.bind_clock(lambda: t[0])
        trace.emit("a", 0)
        t[0] = 5.0
        trace.emit("b", 0)
        assert [ev.time for ev in trace.events] == [0.0, 5.0]

    def test_select_by_kind_and_rank(self):
        trace = Trace(enabled=True)
        trace.emit("a", 0)
        trace.emit("a", 1)
        trace.emit("b", 0)
        assert trace.count("a") == 2
        assert trace.count("a", rank=1) == 1
        assert trace.count(rank=0) == 2
        assert trace.count() == 3

    def test_event_is_a_plain_value(self):
        trace = Trace(enabled=True)
        trace.emit("k", 3, n=1)
        ev = trace.events[0]
        assert ev == TraceEvent(0.0, "k", 3, {"n": 1}) != TraceEvent(0.0, "k", 3)
        assert ev != (0.0, "k", 3, {"n": 1})
        assert repr(ev) == "TraceEvent(time=0.0, kind='k', rank=3, fields={'n': 1})"
        assert not hasattr(ev, "__dict__")


class TestSubscriptions:
    """A listener hears every event, or exactly the kinds it asked for —
    and only the first sort makes the trace ``active``."""

    def test_catch_all_listener_activates_and_hears_everything(self):
        trace, heard = Trace(), []
        trace.attach_listener(heard.append)
        assert trace.active and "net.arrive" in trace.wanted
        trace.emit("net.arrive", 0)
        trace.emit("x", 1)            # an application-chosen kind
        assert [ev.kind for ev in heard] == ["net.arrive", "x"]
        assert trace.events == []     # listening is not recording
        trace.detach_listener(heard.append)
        assert not trace.active and "net.arrive" not in trace.wanted
        trace.emit("net.arrive", 0)
        assert len(heard) == 2

    def test_subscribed_listener_hears_its_kinds_and_activates_nothing(self):
        trace, heard = Trace(), []
        trace.attach_listener(heard.append, ("ckpt.write", "verify.send"))
        assert not trace.active
        assert "ckpt.write" in trace.wanted and "net.arrive" not in trace.wanted
        trace.emit("net.arrive", 0)
        trace.emit("ckpt.write", 1, seq=4)
        trace.emit("proto.deliver", 1)
        trace.emit("verify.send", 2)
        assert [(ev.kind, ev.rank) for ev in heard] == [
            ("ckpt.write", 1), ("verify.send", 2)]
        assert heard[0]["seq"] == 4
        trace.detach_listener(heard.append)
        assert "ckpt.write" not in trace.wanted
        trace.emit("ckpt.write", 1, seq=5)
        assert len(heard) == 2

    def test_listeners_of_one_kind_are_called_in_attach_order(self):
        trace, order = Trace(), []
        trace.attach_listener(lambda ev: order.append("first"), ("ckpt.write",))
        trace.attach_listener(lambda ev: order.append("all"))
        trace.attach_listener(lambda ev: order.append("other"), ("net.drop",))
        trace.attach_listener(lambda ev: order.append("last"), ("ckpt.write",))
        trace.emit("ckpt.write", 0)
        assert order == ["first", "all", "last"]

    def test_recording_trace_still_routes_by_kind(self):
        trace, heard = Trace(enabled=True), []
        trace.attach_listener(heard.append, ("ckpt.write",))
        trace.emit("net.arrive", 0)
        trace.emit("ckpt.write", 0)
        assert [ev.kind for ev in trace.events] == ["net.arrive", "ckpt.write"]
        assert [ev.kind for ev in heard] == ["ckpt.write"]

    def test_unregistered_kind_is_refused(self):
        trace = Trace()
        with pytest.raises(ValueError, match="verify.delivr"):
            trace.attach_listener(print, ("verify.deliver", "verify.delivr"))
        assert "verify.deliver" not in trace.wanted

    def test_when_activated_fires_on_the_first_listener_of_a_watched_kind(self):
        trace, fired = Trace(), []
        trace.when_activated(lambda: fired.append("net"), ("net.transmit", "net.arrive"))
        trace.attach_listener(print, ("ckpt.write",))
        assert fired == []
        trace.attach_listener(len, ("net.arrive",))
        assert fired == ["net"]
        trace.attach_listener(str, ("net.arrive", "net.drop"))   # not the first
        assert fired == ["net"]
        trace.attach_listener(repr)           # the first to want net.transmit
        assert fired == ["net"] * 2
        trace.attach_listener(abs, ("net.transmit",))
        assert fired == ["net"] * 2
        for fn in (len, str, repr, abs):
            trace.detach_listener(fn)
        trace.attach_listener(repr)           # nobody was left: first again
        assert fired == ["net"] * 3
