"""Unit tests for the stable-storage checkpoint model."""

from repro.metrics.costs import CostModel
from repro.protocols.base import PeerCounts
from repro.protocols.checkpoint import Checkpoint, CheckpointStore


def ckpt(rank=0, seq=1, size=1000, at=0.0):
    return Checkpoint(rank=rank, taken_at=at, seq=seq, app_state={},
                      protocol_state={}, size_bytes=size,
                      last_deliver_index=PeerCounts({1: 3}))


class TestCheckpointStore:
    def test_latest_returns_most_recent(self):
        store = CheckpointStore(CostModel())
        store.write(ckpt(seq=1))
        store.write(ckpt(seq=2))
        assert store.latest(0).seq == 2

    def test_latest_missing_rank(self):
        store = CheckpointStore(CostModel())
        assert store.latest(3) is None
        assert store.read_time(3) == 0.0

    def test_write_time_scales_with_size(self):
        costs = CostModel()
        store = CheckpointStore(costs)
        t_small = store.write(ckpt(seq=1, size=1000))
        t_big = store.write(ckpt(seq=2, size=10_000_000))
        assert t_big > t_small
        assert t_small == costs.ckpt_write_time(1000)

    def test_history_bounded(self):
        store = CheckpointStore(CostModel(), history=2)
        for seq in range(1, 6):
            store.write(ckpt(seq=seq))
        assert store.count(0) == 2
        assert store.latest(0).seq == 5

    def test_ranks_independent(self):
        store = CheckpointStore(CostModel())
        store.write(ckpt(rank=0, seq=1))
        store.write(ckpt(rank=1, seq=7))
        assert store.latest(0).seq == 1
        assert store.latest(1).seq == 7

    def test_accounting(self):
        store = CheckpointStore(CostModel())
        store.write(ckpt(seq=1, size=100))
        store.write(ckpt(seq=2, size=200))
        assert store.writes == 2 and store.bytes_written == 300

    def test_read_time_uses_latest_size(self):
        costs = CostModel()
        store = CheckpointStore(costs)
        store.write(ckpt(seq=1, size=5000))
        assert store.read_time(0) == costs.ckpt_read_time(5000)
