"""The recovery watchdog: stall detection, backoff, escalation, abort.

Driven against a fake endpoint over the real simulation engine, so the
timing behaviour under test (exponential backoff between ticks, the
escalate/abort deadlines measured in simulated time) is exactly what a
cluster run sees.
"""

from typing import Any

import pytest

from repro.config import SimulationConfig
from repro.core.watchdog import RecoveryStallError, RecoveryWatchdog
from repro.metrics.counters import RankMetrics
from repro.simnet.engine import Engine
from repro.simnet.trace import Trace


class StubProtocol:
    """A protocol whose recovery progress the test scripts directly."""

    def __init__(self) -> None:
        self.pending = True
        self.signature: Any = ("initial",)
        self.retries = 0
        self.escalations = 0
        self.settled = 0
        self._awaiting_response = {2, 3}

    def recovery_pending(self) -> bool:
        return self.pending

    def recovery_signature(self) -> Any:
        return self.signature

    def retry_recovery(self) -> None:
        self.retries += 1

    def escalate_recovery(self) -> None:
        self.escalations += 1

    def recovery_settled(self) -> None:
        self.settled += 1

    def explain_defer(self, frame_meta, src):
        return f"frame from {src} requires interval {frame_meta['need']}"


class StubNode:
    def __init__(self) -> None:
        self.epoch = 1
        self.alive = True


class StubFrame:
    def __init__(self, src: int, need: int) -> None:
        self.src = src
        self.meta = {"need": need}


class StubQueue:
    def __init__(self, frames=()) -> None:
        self._frames = list(frames)

    def frames(self):
        return list(self._frames)


class StubFabric:
    def describe_pending(self):
        return ["transport 0->2: 3 unacked frame(s)"]


class StubCluster:
    def __init__(self, endpoints) -> None:
        self.endpoints = endpoints
        self.fabric = StubFabric()


class StubEndpoint:
    """The slice of Endpoint the watchdog touches."""

    def __init__(self, engine: Engine, config: SimulationConfig,
                 rank: int = 0) -> None:
        self.rank = rank
        self.engine = engine
        self.config = config
        self.node = StubNode()
        self.protocol = StubProtocol()
        self.metrics = RankMetrics(rank=rank)
        self.trace = Trace(enabled=True, clock=lambda: engine.now)
        self.recovering = True
        self.app_done = False
        self.queue = StubQueue()
        self.cluster = StubCluster([self])

    def describe_wait(self) -> str:
        return "recv(source=2, tag=0)"


def make_watchdog(abort_after=None, escalate_after=0.06,
                  base=0.005, backoff=2.0, max_interval=0.04):
    config = SimulationConfig(
        nprocs=4, protocol="tdi",
        rollback_retry_interval=base,
        rollback_retry_backoff=backoff,
        rollback_retry_max_interval=max_interval,
        recovery_escalate_after=escalate_after,
        recovery_abort_after=abort_after,
    )
    engine = Engine()
    ep = StubEndpoint(engine, config)
    dog = RecoveryWatchdog(ep, epoch=ep.node.epoch)
    return dog, ep, engine


class TestBackoff:
    def test_tick_interval_backs_off_exponentially_to_the_cap(self):
        dog, ep, engine = make_watchdog()
        ticks = []
        orig = dog._tick

        def spy():
            ticks.append(engine.now)
            orig()

        dog._tick = spy
        dog.arm()
        engine.run(until=0.2)
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        # first gap at the base rate (the stall is only detected on the
        # second tick), then doubling, then pinned at the cap
        assert gaps[0] == pytest.approx(0.005)
        assert gaps[1] == pytest.approx(0.010)
        assert gaps[2] == pytest.approx(0.020)
        assert all(g == pytest.approx(0.040) for g in gaps[3:])

    def test_progress_resets_the_backoff(self):
        dog, ep, engine = make_watchdog(escalate_after=10.0)
        intervals = []
        orig = dog._tick

        def spy():
            orig()
            intervals.append(dog.interval)

        dog._tick = spy
        dog.arm()
        engine.run(until=0.1)
        assert dog.interval == pytest.approx(0.04)
        intervals.clear()
        ep.protocol.signature = ("moved",)
        engine.run(until=0.15)
        # the tick that saw the new signature dropped back to the base
        # rate (backoff then resumes as the new signature stalls too)
        assert intervals[0] == pytest.approx(0.005)


class TestStallAccounting:
    def test_stall_episode_counted_and_traced_once(self):
        dog, ep, engine = make_watchdog(escalate_after=10.0)
        dog.arm()
        engine.run(until=0.3)
        assert ep.metrics.recovery_stalls == 1
        stalls = [e for e in ep.trace.events
                  if e.kind == "proto.recovery_stalled"]
        assert len(stalls) == 1
        assert stalls[0]["epoch"] == 1

    def test_new_stall_after_progress_counts_again(self):
        dog, ep, engine = make_watchdog(escalate_after=10.0)
        dog.arm()
        engine.run(until=0.1)
        ep.protocol.signature = ("moved",)
        engine.run(until=0.3)
        assert ep.metrics.recovery_stalls == 2

    def test_retries_fire_while_pending_and_are_counted(self):
        dog, ep, engine = make_watchdog(escalate_after=10.0)
        dog.arm()
        engine.run(until=0.1)
        assert ep.protocol.retries > 0
        assert ep.metrics.rollback_retries == ep.protocol.retries

    def test_no_retries_once_responses_are_all_in(self):
        dog, ep, engine = make_watchdog(escalate_after=10.0)
        ep.protocol.pending = False  # still rolling forward, though
        dog.arm()
        engine.run(until=0.1)
        assert ep.protocol.retries == 0
        assert ep.metrics.recovery_stalls == 1  # stall still observed


class TestEscalation:
    def test_escalates_once_past_the_deadline(self):
        dog, ep, engine = make_watchdog(escalate_after=0.03)
        dog.arm()
        engine.run(until=0.5)
        assert ep.protocol.escalations == 1
        assert ep.metrics.recovery_escalations == 1

    def test_escalation_rearms_after_progress(self):
        dog, ep, engine = make_watchdog(escalate_after=0.03)
        dog.arm()
        engine.run(until=0.2)
        ep.protocol.signature = ("moved",)
        engine.run(until=0.5)
        assert ep.protocol.escalations == 2


class TestAbort:
    def test_abort_raises_with_cluster_diagnosis(self):
        dog, ep, engine = make_watchdog(abort_after=0.1, escalate_after=0.03)
        ep.queue = StubQueue([StubFrame(src=2, need=12)])
        dog.arm()
        with pytest.raises(RecoveryStallError) as exc:
            engine.run(until=1.0)
        message = str(exc.value)
        assert "recovery of rank 0 (epoch 1) made no progress" in message
        assert "escalation fired" in message
        assert "rank 0 [recovering, epoch 1]: recv(source=2, tag=0)" in message
        assert "still awaiting ROLLBACK responses from [2, 3]" in message
        assert "frame from 2 requires interval 12" in message
        # the fabric's in-flight backlog is folded in, indented
        assert message.endswith("\n  transport 0->2: 3 unacked frame(s)")

    def test_no_abort_when_deadline_disabled(self):
        dog, ep, engine = make_watchdog(abort_after=None)
        dog.arm()
        engine.run(until=1.0)  # must not raise
        assert ep.metrics.recovery_escalations == 1


class TestDisarm:
    def test_disarms_when_recovery_completes(self):
        dog, ep, engine = make_watchdog()
        dog.arm()
        engine.run(until=0.02)
        ep.protocol.pending = False
        ep.recovering = False
        engine.run()  # drains: the watchdog stopped rescheduling
        assert engine.pending_events == 0

    def test_disarms_when_app_finishes(self):
        dog, ep, engine = make_watchdog()
        dog.arm()
        ep.app_done = True
        engine.run()
        assert engine.pending_events == 0

    def test_newer_incarnation_retires_the_watchdog(self):
        dog, ep, engine = make_watchdog()
        dog.arm()
        ep.node.epoch = 2  # a new incarnation armed its own watchdog
        engine.run()
        assert engine.pending_events == 0
        assert ep.metrics.recovery_stalls == 0

    def test_dead_node_retires_the_watchdog(self):
        dog, ep, engine = make_watchdog()
        dog.arm()
        ep.node.alive = False
        engine.run()
        assert engine.pending_events == 0
