"""Incarnation-epoch semantics: tagged piggybacks, the epoch-aware
merge/clamp rules, and the TDI delivery gate under overlapping recovery.

The pure count-based gate deadlocks when a regenerated piggyback
references deliveries a dead incarnation made (corpus entry
``tdi-overlapping-recovery-deadlock``); these tests pin the fix's
semantics at the unit level: merge is epoch-lexicographic, stale-epoch
requirements clamp to the checkpointed coverage, future-epoch
requirements park the frame, and the wire/accounting cost only grows
beyond n+1 once a rollback actually tags an entry.
"""

import copy
import pickle

import pytest

from repro.core.recovery import ROLLBACK
from repro.core.vectors import DependIntervalVector, TaggedPiggyback
from repro.protocols.base import DeliveryVerdict
from tests.conftest import MockServices, app_meta, make_protocol


class TestTaggedPiggyback:
    def test_behaves_like_the_plain_tuple(self):
        pb = TaggedPiggyback((1, 2, 3))
        assert pb == (1, 2, 3)
        assert pb[1] == 2
        assert len(pb) == 3
        assert pb.epochs == (0, 0, 0)
        assert not pb.tagged

    def test_tagged_once_any_epoch_nonzero(self):
        assert TaggedPiggyback((1, 2), epochs=(0, 1)).tagged
        assert not TaggedPiggyback((1, 2), epochs=(0, 0)).tagged

    def test_epoch_length_must_match(self):
        with pytest.raises(ValueError):
            TaggedPiggyback((1, 2, 3), epochs=(0, 0))

    def test_pickle_and_deepcopy_keep_epochs(self):
        pb = TaggedPiggyback((4, 5), epochs=(1, 0))
        for clone in (pickle.loads(pickle.dumps(pb)), copy.deepcopy(pb)):
            assert clone == (4, 5)
            assert clone.epochs == (1, 0)


class TestEpochMerge:
    def test_newer_epoch_adopts_value_even_when_smaller(self):
        v = DependIntervalVector(3, owner=0, values=[0, 9, 0])
        changed = v.merge(TaggedPiggyback((0, 2, 0), epochs=(0, 1, 0)))
        assert list(v) == [0, 2, 0]
        assert v.epochs == (0, 1, 0)
        assert changed == 1

    def test_equal_epoch_takes_pointwise_max(self):
        v = DependIntervalVector(3, owner=0, values=[0, 3, 5],
                                 epochs=[0, 1, 0])
        v.merge(TaggedPiggyback((0, 7, 2), epochs=(0, 1, 0)))
        assert list(v) == [0, 7, 5]

    def test_older_epoch_is_ignored(self):
        v = DependIntervalVector(3, owner=0, values=[0, 2, 0],
                                 epochs=[0, 2, 0])
        changed = v.merge(TaggedPiggyback((0, 99, 0), epochs=(0, 1, 0)))
        assert list(v) == [0, 2, 0]
        assert v.epochs == (0, 2, 0)
        assert changed == 0

    def test_tagged_merge_never_touches_owner_entry(self):
        v = DependIntervalVector(3, owner=0, values=[5, 0, 0])
        v.merge(TaggedPiggyback((99, 1, 0), epochs=(7, 1, 0)))
        assert v[0] == 5
        assert v.own_epoch == 0

    def test_untagged_piggyback_uses_the_paper_rule(self):
        # plain tuples (and all-matching-epoch tagged ones) take the
        # fast path: pointwise max, current epochs kept
        v = DependIntervalVector(3, owner=0, values=[0, 1, 1],
                                 epochs=[0, 1, 1])
        v.merge((0, 5, 0))
        assert list(v) == [0, 5, 1]
        assert v.epochs == (0, 1, 1)

    def test_epoch_value_pairs_never_decrease_lexicographically(self):
        v = DependIntervalVector(4, owner=0, values=[0, 3, 1, 4],
                                 epochs=[0, 1, 0, 2])
        before = list(zip(v.epochs, v))
        v.merge(TaggedPiggyback((0, 1, 9, 2), epochs=(0, 2, 0, 1)))
        after = list(zip(v.epochs, v))
        assert all(b >= a for a, b in zip(before, after))


class TestObserveRollback:
    def test_adopts_strictly_newer_epoch(self):
        v = DependIntervalVector(3, owner=0, values=[0, 8, 0])
        assert v.observe_rollback(1, interval=3, epoch=1)
        assert v[1] == 3
        assert v.epochs == (0, 1, 0)

    def test_same_epoch_retry_does_not_move_the_entry(self):
        # a watchdog-retried ROLLBACK from the same incarnation must be
        # a no-op, or repeat rollbacks would look like fresh failures
        v = DependIntervalVector(3, owner=0, values=[0, 8, 0])
        v.observe_rollback(1, interval=3, epoch=1)
        assert not v.observe_rollback(1, interval=0, epoch=1)
        assert v[1] == 3

    def test_owner_entry_is_never_rolled_back_by_a_peer(self):
        v = DependIntervalVector(3, owner=1, values=[0, 8, 0])
        assert not v.observe_rollback(1, interval=0, epoch=5)
        assert v[1] == 8


class TestEpochSnapshots:
    def test_snapshot_roundtrip_carries_epochs(self):
        v = DependIntervalVector(3, owner=2, values=[1, 2, 3],
                                 epochs=[0, 1, 2])
        v2 = DependIntervalVector.from_snapshot(3, 2, v.snapshot())
        assert v == v2
        assert v2.epochs == (0, 1, 2)

    def test_as_piggyback_carries_epochs_and_detaches(self):
        v = DependIntervalVector(3, owner=0, epochs=[2, 0, 0])
        pb = v.as_piggyback()
        v.advance_own()
        assert pb == (0, 0, 0)
        assert pb.epochs == (2, 0, 0)


class TestTdiEpochGate:
    def test_stale_epoch_requirement_gates_at_face_value(self):
        # replay re-reaches a dead incarnation's delivery counts, so a
        # stale-epoch requirement still gates on the raw count — the
        # orphan-safe default (delivering below it would hand the app a
        # message whose dependencies were erased by the rollback)
        p, _ = make_protocol("tdi", rank=1,
                             services=MockServices(rank=1, epoch=2))
        p._ckpt_own_interval = 4
        p.depend_interval._v[1] = 4
        meta = app_meta(1, TaggedPiggyback((0, 12, 0, 0),
                                           epochs=(0, 1, 0, 0)))
        assert p.classify(meta, src=3) is DeliveryVerdict.DEFER
        assert "dead epoch 1" in p.explain_defer(meta, src=3)

    def test_escalation_degrades_stale_requirements_to_coverage(self):
        # the deadlock escape hatch: once the watchdog escalates, a
        # stale-epoch requirement clamps to the checkpointed coverage
        # (an inflated regenerated piggyback can demand an interval the
        # new incarnation never reaches)
        p, _ = make_protocol("tdi", rank=1,
                             services=MockServices(rank=1, epoch=2))
        p._ckpt_own_interval = 4
        p.depend_interval._v[1] = 4
        p._stale_epoch_degraded = True
        meta = app_meta(1, TaggedPiggyback((0, 12, 0, 0),
                                           epochs=(0, 1, 0, 0)))
        assert p.classify(meta, src=3) is DeliveryVerdict.DELIVER

    def test_degraded_clamp_still_requires_checkpoint_coverage(self):
        p, _ = make_protocol("tdi", rank=1,
                             services=MockServices(rank=1, epoch=2))
        p._ckpt_own_interval = 4
        p._stale_epoch_degraded = True
        meta = app_meta(1, TaggedPiggyback((0, 12, 0, 0),
                                           epochs=(0, 1, 0, 0)))
        # restored below the checkpointed coverage cannot happen via
        # restore(), but the gate must still hold the clamped bound
        assert p.classify(meta, src=3) is DeliveryVerdict.DEFER

    def test_recovery_settled_restores_the_strict_gate(self):
        p, _ = make_protocol("tdi", rank=1,
                             services=MockServices(rank=1, epoch=2))
        p._ckpt_own_interval = 4
        p.depend_interval._v[1] = 4
        p._stale_epoch_degraded = True
        p.recovery_settled()
        assert p._stale_epoch_degraded is False
        meta = app_meta(1, TaggedPiggyback((0, 12, 0, 0),
                                           epochs=(0, 1, 0, 0)))
        assert p.classify(meta, src=3) is DeliveryVerdict.DEFER

    def test_future_epoch_requirement_defers(self):
        p, _ = make_protocol("tdi", rank=1)
        meta = app_meta(1, TaggedPiggyback((0, 0, 0, 0),
                                           epochs=(0, 3, 0, 0)))
        assert p.classify(meta, src=3) is DeliveryVerdict.DEFER
        assert "future epoch 3" in p.explain_defer(meta, src=3)

    def test_current_epoch_requirement_gates_at_face_value(self):
        p, _ = make_protocol("tdi", rank=1,
                             services=MockServices(rank=1, epoch=1))
        meta = app_meta(1, TaggedPiggyback((0, 2, 0, 0),
                                           epochs=(0, 1, 0, 0)))
        assert p.classify(meta, src=3) is DeliveryVerdict.DEFER
        p.depend_interval.advance_own()
        p.depend_interval.advance_own()
        assert p.classify(meta, src=3) is DeliveryVerdict.DELIVER

    def test_restore_retags_own_entry_and_sets_clamp_target(self):
        p, _ = make_protocol("tdi", rank=0)
        p.depend_interval.advance_own()
        p.depend_interval.advance_own()
        state = p.checkpoint_state()

        q, _ = make_protocol("tdi", rank=0,
                             services=MockServices(rank=0, epoch=1))
        q.restore(state)
        assert q.depend_interval.own_epoch == 1
        assert q._ckpt_own_interval == 2

    def test_explain_defer_names_the_blocking_entry(self):
        p, _ = make_protocol("tdi", rank=1)
        meta = app_meta(1, TaggedPiggyback((0, 2, 0, 0)))
        why = p.explain_defer(meta, src=3)
        assert "requires interval 2" in why
        assert "made 0 deliveries" in why

    def test_explain_defer_silent_when_deliverable(self):
        p, _ = make_protocol("tdi", rank=1)
        assert p.explain_defer(app_meta(1, (0, 0, 0, 0)), src=3) is None


class TestPiggybackAccounting:
    def test_untagged_send_costs_n_plus_one(self):
        p, _ = make_protocol("tdi", nprocs=4)
        prepared = p.prepare_send(1, 0, "a", 64)
        assert prepared.piggyback_identifiers == 5

    def test_tagged_send_costs_two_n_plus_one(self):
        # only once a rollback has actually tagged an entry does the
        # epoch vector ride along — failure-free overhead is untouched
        p, _ = make_protocol("tdi", nprocs=4)
        p.depend_interval.observe_rollback(2, interval=0, epoch=1)
        prepared = p.prepare_send(1, 0, "a", 64)
        assert prepared.piggyback.tagged
        assert prepared.piggyback_identifiers == 9

    def test_rollback_from_new_incarnation_retags_the_entry(self):
        p, _ = make_protocol("tdi", rank=0, nprocs=4)
        p.depend_interval.merge((0, 0, 7, 0))
        p.handle_control(ROLLBACK, src=2,
                         payload={"ldi": [0, 0, 0, 0], "epoch": 1,
                                  "interval": 3})
        assert p.depend_interval[2] == 3
        assert p.depend_interval.epochs[2] == 1
