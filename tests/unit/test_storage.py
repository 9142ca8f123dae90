"""Unit tests for the hostile stable-storage model.

The crash-consistency contract under test: two-phase writes never
clobber the previous generation, the read path falls back through the
retained chain by checksum, and a clean device behaves exactly like the
old perfect one.
"""

import pytest

from repro.core.watchdog import SimulationError, StorageLossError
from repro.metrics.costs import CostModel
from repro.protocols.base import PeerCounts
from repro.protocols.checkpoint import (
    Checkpoint,
    CheckpointStore,
    StorageConfig,
    _checksum,
)


def ckpt(rank=0, seq=1, size=1000, at=0.0):
    return Checkpoint(rank=rank, taken_at=at, seq=seq, app_state={},
                      protocol_state={}, size_bytes=size,
                      last_deliver_index=PeerCounts({1: 3}))


class TestStorageConfig:
    def test_defaults_are_a_perfect_device(self):
        assert not StorageConfig().impaired

    def test_any_probability_marks_impaired(self):
        assert StorageConfig(write_fail_prob=0.1).impaired
        assert StorageConfig(torn_write_prob=0.1).impaired
        assert StorageConfig(latent_corrupt_prob=0.1).impaired
        assert StorageConfig(stall_prob=0.1).impaired

    @pytest.mark.parametrize("knob", ("write_fail_prob", "torn_write_prob",
                                      "latent_corrupt_prob", "stall_prob"))
    def test_probabilities_validated(self, knob):
        with pytest.raises(ValueError, match=knob):
            StorageConfig(**{knob: 1.0})
        with pytest.raises(ValueError, match=knob):
            StorageConfig(**{knob: -0.1})

    def test_backoff_cap_validated(self):
        with pytest.raises(ValueError, match="retry_backoff_max"):
            StorageConfig(retry_backoff=1e-3, retry_backoff_max=1e-4)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="max_write_retries"):
            StorageConfig(max_write_retries=-1)


class TestTwoPhaseWrite:
    def test_begin_then_commit_matches_instant_write(self):
        costs = CostModel()
        store = CheckpointStore(costs)
        gen, duration = store.begin_write(ckpt(seq=1, size=5000))
        assert duration == costs.ckpt_write_time(5000)
        assert not gen.committed
        assert store.latest(0) is None  # not durable until committed
        assert store.commit(gen) is True
        assert store.latest(0).seq == 1
        assert store.commits == 1

    def test_uncommitted_write_never_clobbers_previous(self):
        store = CheckpointStore(CostModel())
        store.write(ckpt(seq=1))
        gen, _ = store.begin_write(ckpt(seq=2))
        # the writer dies here: commit never runs
        assert store.latest(0).seq == 1
        result = store.read(0)
        assert result.ckpt.seq == 1
        assert result.fallbacks == 0  # in-flight skips are not fallbacks

    def test_failed_commit_discards_the_generation(self):
        store = CheckpointStore(CostModel())
        store.write(ckpt(seq=1))
        gen, _ = store.begin_write(ckpt(seq=2))
        gen.pending = "fail"
        assert store.commit(gen) is False
        assert store.write_failures == 1
        assert [g.ckpt.seq for g in store.generations(0)] == [1]

    def test_retry_twin_is_distinct_from_failed_attempt(self):
        # a retried write re-begins the same snapshot; Generation uses
        # identity equality so removing the failed twin must not remove
        # the retry
        store = CheckpointStore(CostModel())
        snapshot = ckpt(seq=2)
        first, _ = store.begin_write(snapshot)
        first.pending = "fail"
        retry, _ = store.begin_write(snapshot)
        assert store.commit(first) is False
        assert retry in store.generations(0)
        assert store.commit(retry) is True
        assert store.latest(0).seq == 2


class TestTrimming:
    def test_chain_ordering_preserved_after_trim(self):
        store = CheckpointStore(CostModel(), history=2)
        for seq in range(1, 6):
            gen, _ = store.begin_write(ckpt(seq=seq))
            store.commit(gen)
        assert [g.ckpt.seq for g in store.generations(0)] == [4, 5]

    def test_trim_keeps_in_flight_writes(self):
        store = CheckpointStore(CostModel(), history=1)
        store.write(ckpt(seq=1))
        gen, _ = store.begin_write(ckpt(seq=2))
        store.write(ckpt(seq=3))
        seqs = [(g.ckpt.seq, g.committed) for g in store.generations(0)]
        assert (2, False) in seqs  # the open write survived the trim
        assert (3, True) in seqs

    def test_damaged_generations_count_against_history(self):
        # the device cannot tell a torn image from a good one at write
        # time, so retention is by recency, not readability
        store = CheckpointStore(CostModel(), history=2)
        store.write(ckpt(seq=1))
        gen, _ = store.begin_write(ckpt(seq=2))
        gen.pending = "torn"
        store.commit(gen)
        store.write(ckpt(seq=3))
        assert [g.ckpt.seq for g in store.generations(0)] == [2, 3]

    def test_history_below_one_rejected(self):
        with pytest.raises(ValueError, match="history"):
            CheckpointStore(CostModel(), history=0)


class TestReadFallback:
    def test_latest_returns_damaged_head_but_read_falls_back(self):
        store = CheckpointStore(CostModel(), history=3)
        store.write(ckpt(seq=1))
        gen, _ = store.begin_write(ckpt(seq=2))
        gen.pending = "torn"
        store.commit(gen)
        # latest() is the raw chain head: it cannot checksum for free
        assert store.latest(0).seq == 2
        result = store.read(0)
        assert result.ckpt.seq == 1
        assert result.fallbacks == 1
        assert store.fallbacks == 1

    def test_read_pays_for_every_image_it_checksums(self):
        costs = CostModel()
        store = CheckpointStore(costs, history=3)
        store.write(ckpt(seq=1, size=1000))
        gen, _ = store.begin_write(ckpt(seq=2, size=2000))
        gen.pending = "corrupt"
        store.commit(gen)
        result = store.read(0)
        assert result.bytes_read == 3000
        assert result.read_time == pytest.approx(
            costs.ckpt_read_time(2000) + costs.ckpt_read_time(1000))

    def test_exhausted_chain_raises_diagnosed_loss(self):
        store = CheckpointStore(CostModel(), history=3)
        for seq in (1, 2):
            gen, _ = store.begin_write(ckpt(seq=seq))
            gen.pending = "torn"
            store.commit(gen)
        with pytest.raises(StorageLossError) as exc:
            store.read(0)
        assert "seq 1" in str(exc.value) and "seq 2" in str(exc.value)
        assert "checksum mismatch" in str(exc.value)

    def test_empty_chain_raises(self):
        store = CheckpointStore(CostModel())
        with pytest.raises(StorageLossError, match="ever written"):
            store.read(0)

    def test_storage_loss_is_a_simulation_error(self):
        assert issubclass(StorageLossError, SimulationError)

    def test_checksum_covers_identifying_fields(self):
        a = ckpt(seq=1)
        b = ckpt(seq=2)
        assert _checksum(a) != _checksum(b)
        assert _checksum(a) == _checksum(ckpt(seq=1))
        # ... and the per-source delivery counts, values not just peers
        b = ckpt(seq=1)
        b.last_deliver_index[1] += 1
        assert _checksum(a) != _checksum(b)


class TestGcLag:
    def test_clean_device_has_zero_lag(self):
        store = CheckpointStore(CostModel(), history=3)
        assert store.gc_lag == 0

    def test_impaired_config_lags_by_history(self):
        store = CheckpointStore(CostModel(), history=3,
                                config=StorageConfig(write_fail_prob=0.1))
        assert store.hostile
        assert store.gc_lag == 2

    def test_arm_hostile_flips_lag(self):
        store = CheckpointStore(CostModel(), history=2)
        store.arm_hostile()
        assert store.gc_lag == 1


class TestInjection:
    def test_corrupt_strikes_newest_readable(self):
        store = CheckpointStore(CostModel(), history=3)
        store.write(ckpt(seq=1))
        store.write(ckpt(seq=2))
        assert store.inject(0, "corrupt", count=1, duration=0.0) is True
        assert store.corrupt_generations == 1
        assert store.read(0).ckpt.seq == 1

    def test_corrupt_with_nothing_readable_reports_miss(self):
        store = CheckpointStore(CostModel())
        assert store.inject(0, "corrupt", count=1, duration=0.0) is False

    def test_forced_write_fail_consumed_by_next_attempt(self):
        store = CheckpointStore(CostModel())
        store.inject(0, "write_fail", count=1, duration=0.0)
        gen, _ = store.begin_write(ckpt(seq=1))
        assert store.commit(gen) is False
        # the queue drained: the retry succeeds
        retry, _ = store.begin_write(ckpt(seq=1))
        assert store.commit(retry) is True

    def test_forced_stall_stretches_the_attempt(self):
        costs = CostModel()
        store = CheckpointStore(costs)
        store.inject(0, "stall", count=1, duration=0.01)
        _, duration = store.begin_write(ckpt(seq=1, size=1000))
        assert duration == pytest.approx(
            costs.ckpt_write_time(1000) + 0.01)
        assert store.stall_time == pytest.approx(0.01)

    def test_forced_torn_detected_only_at_read(self):
        store = CheckpointStore(CostModel(), history=2)
        store.write(ckpt(seq=1))
        store.inject(0, "torn", count=1, duration=0.0)
        gen, _ = store.begin_write(ckpt(seq=2))
        assert store.commit(gen) is True  # looks successful
        assert store.torn_writes == 1
        assert store.read(0).ckpt.seq == 1


class TestSeededImpairment:
    def test_unfired_knobs_draw_nothing(self):
        # probabilities zero => config not impaired => the impairment
        # substream is never consulted (clean runs stay byte-identical)
        store = CheckpointStore(CostModel(), config=StorageConfig())
        gen, _ = store.begin_write(ckpt(seq=1))
        assert store._rng is None

    def test_certainish_failure_fires(self):
        store = CheckpointStore(
            CostModel(), config=StorageConfig(write_fail_prob=0.999))
        failures = 0
        for seq in range(1, 21):
            gen, _ = store.begin_write(ckpt(seq=seq))
            if not store.commit(gen):
                failures += 1
        assert failures >= 19

    def test_standalone_store_draws_deterministically(self):
        def outcomes():
            store = CheckpointStore(
                CostModel(), config=StorageConfig(write_fail_prob=0.3))
            results = []
            for seq in range(1, 31):
                gen, _ = store.begin_write(ckpt(seq=seq))
                results.append(store.commit(gen))
            return results

        assert outcomes() == outcomes()
