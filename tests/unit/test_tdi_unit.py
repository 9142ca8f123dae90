"""Unit tests for the TDI protocol (Algorithm 1), against mock services."""

import pytest

from repro.core.recovery import CHECKPOINT_ADVANCE, RESPONSE, ROLLBACK
from repro.protocols.base import DeliveryVerdict, PeerCounts
from tests.conftest import (app_meta, make_protocol, response_payload,
                            rollback_payload)


class TestSending:
    def test_send_index_increments_per_destination(self):
        p, _ = make_protocol("tdi")
        assert p.prepare_send(1, 0, "a", 64).send_index == 1
        assert p.prepare_send(1, 0, "b", 64).send_index == 2
        assert p.prepare_send(2, 0, "c", 64).send_index == 1

    def test_piggyback_is_vector_plus_send_index(self):
        p, _ = make_protocol("tdi", nprocs=8)
        prepared = p.prepare_send(1, 0, "a", 64)
        assert prepared.piggyback == (0,) * 8
        assert prepared.piggyback_identifiers == 9  # n + 1

    def test_piggyback_snapshot_not_aliased(self):
        p, _ = make_protocol("tdi")
        prepared = p.prepare_send(1, 0, "a", 64)
        p.depend_interval.advance_own()
        assert prepared.piggyback == (0, 0, 0, 0)

    def test_every_send_is_logged(self):
        p, _ = make_protocol("tdi")
        p.prepare_send(1, 0, "a", 64)
        p.prepare_send(2, 0, "b", 64)
        assert len(p.log) == 2

    def test_suppression_via_rollback_last_send_index(self):
        p, _ = make_protocol("tdi")
        p.rollback_last_send_index[1] = 2
        assert p.prepare_send(1, 0, "a", 64).transmit is False  # idx 1 <= 2
        assert p.prepare_send(1, 0, "b", 64).transmit is False  # idx 2 <= 2
        assert p.prepare_send(1, 0, "c", 64).transmit is True   # idx 3 > 2
        assert len(p.log) == 3  # suppressed sends still logged (line 12)

    def test_suppressed_send_counts_no_piggyback(self):
        p, _ = make_protocol("tdi")
        p.rollback_last_send_index[1] = 1
        p.prepare_send(1, 0, "a", 64)
        assert p.metrics.piggyback_identifiers == 0


class TestDeliveryGate:
    def test_duplicate_detected_by_send_index(self):
        p, _ = make_protocol("tdi")
        p.vectors.last_deliver_index[2] = 3
        assert p.classify(app_meta(3, (0, 0, 0, 0)), src=2) is DeliveryVerdict.DUPLICATE
        assert p.classify(app_meta(4, (0, 0, 0, 0)), src=2) is DeliveryVerdict.DELIVER

    def test_dependency_gate_defers(self):
        # paper §III.A: m5 depends on interval 2 of P1 -> P1 cannot
        # deliver it until it has delivered 2 messages
        p, _ = make_protocol("tdi", rank=1)
        meta = app_meta(1, (0, 2, 2, 1))
        assert p.classify(meta, src=3) is DeliveryVerdict.DEFER
        p.depend_interval.advance_own()
        assert p.classify(meta, src=3) is DeliveryVerdict.DEFER
        p.depend_interval.advance_own()
        assert p.classify(meta, src=3) is DeliveryVerdict.DELIVER

    def test_deliver_merges_and_counts(self):
        p, _ = make_protocol("tdi", rank=1)
        p.on_deliver(app_meta(1, (0, 0, 1, 0)), src=2)
        assert p.depend_interval == [0, 1, 1, 0]
        assert p.vectors.last_deliver_index[2] == 1
        assert p.metrics.tracking_time > 0

    def test_paper_fig1_merge_example(self):
        # before delivering m5: (0,2,1,0); piggyback (0,2,2,1) -> (0,3,2,1)
        # (the paper shows the pre-increment own entry; delivery itself
        # advances it from 2 to 3)
        p, _ = make_protocol("tdi", rank=1)
        p.depend_interval.merge((0, 0, 1, 0))
        p.depend_interval._v[1] = 2  # two prior deliveries
        p.vectors.last_deliver_index[3] = 0
        p.on_deliver(app_meta(1, (0, 2, 2, 1)), src=3)
        assert p.depend_interval == [0, 3, 2, 1]

    def test_delivery_gap_is_an_error(self):
        p, _ = make_protocol("tdi")
        with pytest.raises(RuntimeError, match="gap"):
            p.on_deliver(app_meta(5, (0, 0, 0, 0)), src=1)


class TestCheckpointing:
    def test_checkpoint_roundtrip(self):
        p, _ = make_protocol("tdi")
        p.prepare_send(1, 0, "a", 64)
        p.on_deliver(app_meta(1, (0, 0, 0, 0)), src=1)
        state = p.checkpoint_state()

        q, _ = make_protocol("tdi")
        q.restore(state)
        assert q.vectors.last_send_index == p.vectors.last_send_index
        assert q.vectors.last_deliver_index == p.vectors.last_deliver_index
        assert q.depend_interval == p.depend_interval
        assert len(q.log) == len(p.log)

    def test_after_checkpoint_notifies_senders_once(self):
        p, svc = make_protocol("tdi")
        p.on_deliver(app_meta(1, (0, 0, 0, 0)), src=1)
        p.after_checkpoint()
        advances = [c for c in svc.controls if c[1] == CHECKPOINT_ADVANCE]
        assert advances == [(1, CHECKPOINT_ADVANCE, 1, p.costs.identifier_bytes)]
        # unchanged counts -> no repeat notification
        p.after_checkpoint()
        assert len([c for c in svc.controls if c[1] == CHECKPOINT_ADVANCE]) == 1

    def test_checkpoint_advance_releases_log(self):
        p, _ = make_protocol("tdi")
        for payload in "abc":
            p.prepare_send(1, 0, payload, 64)
        p.handle_control(CHECKPOINT_ADVANCE, src=1, payload=2)
        assert [m.send_index for m in p.log.all_items()] == [3]
        assert p.metrics.log_items_released == 2


class TestRecovery:
    def test_begin_recovery_broadcasts_rollback(self):
        p, svc = make_protocol("tdi", rank=0, nprocs=4)
        p.vectors.last_deliver_index = PeerCounts({1: 1, 2: 2, 3: 3})
        p.begin_recovery()
        rollbacks = [c for c in svc.controls if c[1] == ROLLBACK]
        assert [c[0] for c in rollbacks] == [1, 2, 3]
        assert all(
            c[2] == {"ldi": {1: 1, 2: 2, 3: 3}, "epoch": 0, "interval": 0}
            for c in rollbacks
        )
        # the payload is a copy: later deliveries do not rewrite history
        p.vectors.last_deliver_index[1] += 1
        assert rollbacks[0][2]["ldi"][1] == 1
        assert p.recovery_pending()

    def test_rollback_answered_with_response_and_resends(self):
        p, svc = make_protocol("tdi", rank=0, nprocs=4)
        for payload in "abcd":
            p.prepare_send(2, 0, payload, 64)
        p.vectors.last_deliver_index[2] = 7
        # rank 2 rolled back; its checkpoint covered 2 of our messages
        p.handle_control(ROLLBACK, src=2,
                         payload=rollback_payload("tdi", [2, 0, 0, 0], epoch=1))
        assert svc.sent(RESPONSE) == [(
            2, RESPONSE,
            {"delivered": 7, "epoch": 0, "for_epoch": 1},
            3 * p.costs.identifier_bytes,
        )]
        assert [m.send_index for m in svc.resends] == [3, 4]

    def test_response_sets_suppression_and_clears_pending(self):
        p, svc = make_protocol("tdi", rank=0)
        p.begin_recovery()
        p.handle_control(RESPONSE, src=1, payload=response_payload("tdi", 5))
        assert p.rollback_last_send_index[1] == 5
        assert 1 not in p._awaiting_response
        assert svc.wakeups == 1

    def test_retry_targets_only_unresponsive(self):
        p, svc = make_protocol("tdi", rank=0, nprocs=4)
        p.begin_recovery()
        p.handle_control(RESPONSE, src=1, payload=response_payload("tdi", 0))
        svc.controls.clear()
        p.retry_recovery()
        rollbacks = [c[0] for c in svc.controls if c[1] == ROLLBACK]
        assert rollbacks == [2, 3]

    def test_response_never_lowers_suppression(self):
        p, _ = make_protocol("tdi")
        p.rollback_last_send_index[1] = 9
        p.handle_control(RESPONSE, src=1, payload=response_payload("tdi", 3))
        assert p.rollback_last_send_index[1] == 9

    def test_unknown_control_rejected(self):
        p, _ = make_protocol("tdi")
        with pytest.raises(ValueError):
            p.handle_control("BOGUS", src=1, payload=None)
