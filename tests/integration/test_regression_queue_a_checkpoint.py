"""Regression: checkpoints must not overtake queue A.

Found by ``examples/checkpoint_tuning.py``: in non-blocking mode the
application reaches its checkpoint point immediately after submitting
sends to queue A.  If the checkpoint is taken before the send pump has
processed them, the snapshot's application state says the sends happened
while the protocol has neither indexed nor logged them — a later failure
of this rank then loses those messages irrecoverably (re-execution
resumes beyond the sends; peers have no log item to resend; the system
deadlocks in recvs).

The endpoint now quiesces the pump before writing a checkpoint.  The
original failing configuration — LU under Poisson faults with a
checkpoint interval far below the iteration time — is pinned here.
"""

import pytest

from repro import api
from repro.config import SimulationConfig
from repro.faults.schedules import poisson_schedule
from repro.mpi.cluster import Cluster
from repro.simnet.rng import RngStreams
from repro.workloads.base import Application
from repro.workloads.presets import workload_factory


def test_original_failing_configuration():
    faults = poisson_schedule(RngStreams(3), 8, horizon=0.05, mtbf=0.008)
    assert len(faults) >= 2
    ref = api.run_workload("lu", nprocs=8, protocol="tdi", seed=3,
                           iterations=24).results
    r = api.run_workload("lu", nprocs=8, protocol="tdi", seed=3, iterations=24,
                         checkpoint_interval=4.94e-3 / 8, faults=faults)
    assert r.results == ref


class SendThenCheckpoint(Application):
    """Minimal reproducer: submit sends, checkpoint immediately, fail."""

    name = "send-then-ckpt"

    def __init__(self, rank, nprocs, rounds=6):
        super().__init__(rank, nprocs)
        self.rounds = rounds
        self.round = 0
        self.acc = 0

    def snapshot(self):
        """Copy of round counter and accumulator."""
        return {"round": self.round, "acc": self.acc}

    def restore(self, state):
        """Adopt a snapshot."""
        self.round = state["round"]
        self.acc = state["acc"]

    def snapshot_size_bytes(self):
        """Tiny image."""
        return 64

    def run(self, ctx):
        """Checkpoint at every round top: the forced checkpoint races the
        *previous* round's send, which may still sit in queue A (the app
        only waited for its own recv, not for its send to be pumped)."""
        right = (self.rank + 1) % self.nprocs
        left = (self.rank - 1) % self.nprocs
        while self.round < self.rounds:
            yield ctx.checkpoint_point(force=True)
            r = self.round
            yield ctx.send(right, r * 100 + self.rank, tag=r, size_bytes=256)
            d = yield ctx.recv(source=left, tag=r)
            self.acc += d.payload
            self.round = r + 1
        return self.acc


@pytest.mark.parametrize("victim_time", (0.0008, 0.0015, 0.003))
def test_minimal_reproducer(victim_time):
    cfg = SimulationConfig(nprocs=3, protocol="tdi", seed=7,
                           comm_mode="nonblocking")
    ref = api.run_app(lambda r, n, rng: SendThenCheckpoint(r, n), cfg)
    cfg2 = SimulationConfig(nprocs=3, protocol="tdi", seed=7,
                            comm_mode="nonblocking")
    faulted = api.run_app(
        lambda r, n, rng: SendThenCheckpoint(r, n), cfg2,
        faults=[api.FaultSpec(rank=1, at_time=victim_time)],
    )
    assert faulted.results == ref.results


def test_checkpoint_waits_for_pump():
    """Direct check: at every checkpoint write, queue A is empty."""
    cfg = SimulationConfig(nprocs=3, protocol="tdi", seed=7,
                           comm_mode="nonblocking",
                           checkpoint_interval=0.002)
    cluster = Cluster(cfg, workload_factory("lu", scale="fast"))
    writes_with_pending = []
    writes = []
    for ep in cluster.endpoints:
        original = ep.checkpointer.write

        def spy(initial=False, _ep=ep, _orig=original):
            writes.append(_ep.rank)
            if not _ep.sender.idle:
                writes_with_pending.append(_ep.rank)
            return _orig(initial)

        ep.checkpointer.write = spy
    cluster.run()
    assert len(writes) > len(cluster.endpoints)    # periodic ones too
    assert writes_with_pending == []
