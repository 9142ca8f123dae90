"""Endpoint-level transport behaviour: the sliding window, ack keying,
checkpoint timing and frame dispatch — tested through tiny custom apps
so each behaviour is observable in isolation."""

import pytest

from repro import api
from repro.config import SimulationConfig
from repro.core import blocking
from repro.mpi.cluster import Cluster
from repro.workloads.base import Application


class Burst(Application):
    """Rank 0 fires ``count`` eager sends back-to-back at rank 1, which
    sleeps first; exposes the send-window backpressure."""

    name = "burst"

    def __init__(self, rank, nprocs, count=10, receiver_delay=0.01):
        super().__init__(rank, nprocs)
        self.count = count
        self.receiver_delay = receiver_delay

    def run(self, ctx):
        if self.rank == 0:
            for i in range(self.count):
                yield ctx.send(1, i, tag=1, size_bytes=256)
            return "sent"
        yield ctx.compute(self.receiver_delay)
        got = []
        for _ in range(self.count):
            d = yield ctx.recv(source=0, tag=1)
            got.append(d.payload)
        return got

    def snapshot(self):
        return {}

    def restore(self, state):
        pass

    def snapshot_size_bytes(self):
        return 64


def burst_factory(**kw):
    def factory(rank, nprocs, rng):
        return Burst(rank, nprocs, **kw)

    return factory


class TestSendWindow:
    def test_burst_within_window_never_blocks(self, monkeypatch):
        monkeypatch.setattr(blocking, "SEND_WINDOW", 16)
        cfg = SimulationConfig(nprocs=2, protocol="tdi", comm_mode="blocking",
                               seed=1)
        r = api.run_app(burst_factory(count=10), cfg)
        assert r.results[1] == list(range(10))
        assert r.stats.total("blocked_time") == 0.0

    def test_burst_beyond_window_blocks(self, monkeypatch):
        monkeypatch.setattr(blocking, "SEND_WINDOW", 2)
        cfg = SimulationConfig(nprocs=2, protocol="tdi", comm_mode="blocking",
                               seed=1)
        r = api.run_app(burst_factory(count=10), cfg)
        assert r.results[1] == list(range(10))
        assert r.stats.total("blocked_time") > 0.0

    def test_window_preserves_order(self, monkeypatch):
        for window in (1, 2, 4, 64):
            monkeypatch.setattr(blocking, "SEND_WINDOW", window)
            cfg = SimulationConfig(nprocs=2, protocol="tdi", comm_mode="blocking",
                                   seed=1)
            r = api.run_app(burst_factory(count=12), cfg)
            assert r.results[1] == list(range(12))

    def test_nonblocking_ignores_window(self, monkeypatch):
        monkeypatch.setattr(blocking, "SEND_WINDOW", 1)
        cfg = SimulationConfig(nprocs=2, protocol="tdi", comm_mode="nonblocking",
                               seed=1)
        r = api.run_app(burst_factory(count=10), cfg)
        assert r.results[1] == list(range(10))
        assert r.stats.total("blocked_time") == 0.0

    def test_window_fills_when_receiver_dies(self, monkeypatch):
        """The Fig. 8 mechanism in isolation: acks stop while the peer is
        down, the window fills, and the sender stalls until the
        incarnation's dup-acks drain it."""
        monkeypatch.setattr(blocking, "SEND_WINDOW", 2)
        cfg = SimulationConfig(nprocs=2, protocol="tdi", comm_mode="blocking",
                               seed=1, checkpoint_interval=1e9)
        no_fault = api.run_app(burst_factory(count=20, receiver_delay=0.001), cfg)
        faulted = api.run_app(
            burst_factory(count=20, receiver_delay=0.001), cfg,
            faults=[api.FaultSpec(rank=1, at_time=0.002)],
        )
        assert faulted.results[1] == no_fault.results[1]
        assert faulted.stats.total("blocked_time") > no_fault.stats.total("blocked_time")
        assert faulted.accomplishment_time > no_fault.accomplishment_time


class TestCheckpointTiming:
    def test_force_checkpoint_effect(self):
        class ForceCkpt(Application):
            name = "force"

            def run(self, ctx):
                yield ctx.checkpoint_point(force=True)
                yield ctx.checkpoint_point(force=True)
                yield ctx.checkpoint_point()  # interval not due: skipped
                return "ok"

            def snapshot(self):
                return {}

            def restore(self, state):
                pass

            def snapshot_size_bytes(self):
                return 128

        cfg = SimulationConfig(nprocs=1, protocol="tdi", seed=1,
                               checkpoint_interval=1e9)
        cluster = Cluster(cfg, lambda r, n, rng: ForceCkpt(r, n))
        result = cluster.run()
        # initial + two forced
        assert result.checkpoint_writes == 3

    def test_interval_checkpointing_counts(self):
        r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=1,
                             checkpoint_interval=0.001)
        per_rank = [m.checkpoints_taken for m in r.stats.per_rank]
        assert all(c >= 3 for c in per_rank)
        # checkpoint writes consume simulated time
        assert r.stats.total("checkpoint_time") > 0


class TestEffectErrors:
    def test_unknown_effect_rejected(self):
        class BadApp(Application):
            name = "bad"

            def run(self, ctx):
                yield object()

            def snapshot(self):
                return {}

            def restore(self, state):
                pass

            def snapshot_size_bytes(self):
                return 1

        cfg = SimulationConfig(nprocs=1, protocol="tdi", seed=1)
        with pytest.raises(TypeError, match="not a simulation effect"):
            api.run_app(lambda r, n, rng: BadApp(r, n), cfg)
