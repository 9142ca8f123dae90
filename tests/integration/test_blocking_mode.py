"""Blocking-architecture specifics (paper Fig. 4a vs 4b, §III.E)."""

import pytest

from repro import api
from repro.config import SimulationConfig


def run(workload="lu", mode="blocking", faults=None, seed=61, nprocs=4, **kw):
    return api.run_workload(workload, nprocs=nprocs, protocol="tdi", seed=seed,
                            comm_mode=mode, faults=faults, **kw)


class TestAckRegimes:
    def test_small_messages_ack_on_arrival(self):
        # LU messages (2 KiB) sit under the 8 KiB eager threshold: the
        # sender blocks roughly one round trip, not until delivery
        r = run("lu")
        assert r.stats.total("blocked_time") > 0

    def test_large_messages_ack_on_delivery(self):
        # BT faces (160 KiB) are rendezvous: blocked time per message is
        # at least the transfer time of the face itself
        r = run("bt")
        sends = r.stats.total("app_sends")
        per_send = r.stats.total("blocked_time") / sends
        transfer = 160 * 1024 / 12.5e6
        assert per_send > transfer * 0.5

    def test_eager_threshold_changes_ack_point(self):
        """Rendezvous (ack-on-delivery) blocks the sender until the slow
        receiver actually posts its receive; eager (ack-on-arrival) only
        costs a round trip.  Visible when the receiver computes first."""
        from repro.workloads.base import Application

        class SlowReceiver(Application):
            name = "slow-receiver"

            def run(self, ctx):
                if self.rank == 0:
                    yield ctx.send(1, "bulk", tag=1, size_bytes=64 * 1024)
                    return "sent"
                yield ctx.compute(0.05)  # busy long before receiving
                d = yield ctx.recv(source=0, tag=1)
                return d.payload

            def snapshot(self):
                return {}

            def restore(self, state):
                pass

            def snapshot_size_bytes(self):
                return 64

        def factory(rank, nprocs, rng):
            return SlowReceiver(rank, nprocs)

        cfg_eager = SimulationConfig(nprocs=2, protocol="tdi", comm_mode="blocking",
                                     eager_threshold_bytes=1 << 30, seed=61)
        cfg_rdv = SimulationConfig(nprocs=2, protocol="tdi", comm_mode="blocking",
                                   eager_threshold_bytes=1, seed=61)
        a = api.run_app(factory, cfg_eager)
        b = api.run_app(factory, cfg_rdv)
        assert a.results == b.results == ["sent", "bulk"]
        assert a.stats.total("blocked_time") < 0.02          # ~ one RTT
        assert b.stats.total("blocked_time") > 0.04          # waits for recv


class TestFailureInducedBlocking:
    def test_senders_stall_while_peer_is_down(self):
        base = run("lu", iterations=12)
        faulted = run("lu", iterations=12,
                      faults=[api.FaultSpec(rank=1, at_time=0.006)])
        assert faulted.results == base.results
        assert faulted.stats.total("blocked_time") > base.stats.total("blocked_time")

    def test_nonblocking_removes_the_stall(self):
        fault = [api.FaultSpec(rank=1, at_time=0.01)]
        blocking = run("lu", mode="blocking", faults=fault)
        nonblocking = run("lu", mode="nonblocking", faults=fault)
        assert nonblocking.stats.total("blocked_time") == 0
        assert blocking.results == nonblocking.results

    def test_fig8_gain_direction(self):
        """Under one fault, the non-blocking middleware finishes no later
        than the blocking one (the paper's Fig. 8 gain is positive)."""
        times = {}
        for mode in ("blocking", "nonblocking"):
            base = run("lu", mode=mode, checkpoint_interval=0.004)
            faulted = run("lu", mode=mode, checkpoint_interval=0.004,
                          faults=[api.FaultSpec(rank=2, at_time=0.007)])
            assert faulted.results == base.results
            times[mode] = faulted.accomplishment_time
        assert times["nonblocking"] <= times["blocking"]


class TestPumpBehaviour:
    def test_pump_stats_exposed(self):
        from repro.mpi.cluster import Cluster
        from repro.workloads.presets import workload_factory

        cfg = SimulationConfig(nprocs=4, protocol="tdi", comm_mode="nonblocking", seed=61)
        cluster = Cluster(cfg, workload_factory("lu", scale="fast"))
        cluster.run()
        from repro.core.nonblocking import SendPump

        for ep in cluster.endpoints:
            assert isinstance(ep.sender, SendPump)
            assert ep.sender.submitted > 0
            assert ep.sender.idle

    def test_blocking_mode_has_no_pump(self):
        from repro.mpi.cluster import Cluster
        from repro.workloads.presets import workload_factory

        cfg = SimulationConfig(nprocs=4, protocol="tdi", comm_mode="blocking", seed=61)
        cluster = Cluster(cfg, workload_factory("synthetic", scale="fast"))
        cluster.run()
        from repro.core.blocking import BlockingSender

        assert all(isinstance(ep.sender, BlockingSender)
                   for ep in cluster.endpoints)
