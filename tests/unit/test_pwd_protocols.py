"""Unit tests for the PWD baselines (TAG, TEL) against mock services."""

import pytest

from repro.core.recovery import CHECKPOINT_ADVANCE, RESPONSE, ROLLBACK
from repro.protocols.base import DeliveryVerdict
from repro.protocols.pwd import Determinant
from repro.protocols.tel_protocol import EVLOG, EVLOG_ACK, EVLOG_HISTORY, EVLOG_QUERY
from tests.conftest import (app_meta, make_protocol, response_payload,
                            rollback_payload)


def tag_pb(*dets):
    return {"dets": tuple(dets)}


def tel_pb(*dets, stable=(0, 0, 0, 0)):
    return {"dets": tuple(dets), "stable": tuple(stable)}


class TestTagPiggyback:
    def test_first_send_carries_whole_foreign_graph(self):
        p, _ = make_protocol("tag", rank=0)
        # deliver two messages -> two own determinants
        p.on_deliver(app_meta(1, tag_pb()), src=1)
        p.on_deliver(app_meta(1, tag_pb()), src=2)
        prepared = p.prepare_send(3, 0, "x", 64)
        assert len(prepared.piggyback["dets"]) == 2
        assert prepared.piggyback_identifiers == 2 * 4 + 1

    def test_dest_own_events_suppressed_only_via_knowledge(self):
        p, _ = make_protocol("tag", rank=0)
        det = Determinant(receiver=1, deliver_index=1, sender=2, send_index=1)
        p.on_deliver(app_meta(1, tag_pb(det)), src=1)
        prepared = p.prepare_send(1, 0, "x", 64)
        # src=1 trivially holds its own delivery events and the ones it
        # piggybacked; only our new delivery event goes back
        dets = prepared.piggyback["dets"]
        assert len(dets) == 1 and dets[0].receiver == 0
        # but a *third* party gets everything, including P1's own event
        # (the paper's "has to piggyback all metadata")
        third = p.prepare_send(3, 0, "x", 64)
        assert {d.key for d in third.piggyback["dets"]} == p.held_keys()

    def test_sending_is_not_knowledge(self):
        # conservative TAG: the same determinant is re-piggybacked on a
        # second send to the same peer (no ack-based knowledge)
        p, _ = make_protocol("tag", rank=0)
        p.on_deliver(app_meta(1, tag_pb()), src=1)
        first = p.prepare_send(2, 0, "x", 64)
        second = p.prepare_send(2, 0, "y", 64)
        assert len(first.piggyback["dets"]) == 1
        assert len(second.piggyback["dets"]) == 1

    def test_incoming_piggyback_is_knowledge(self):
        p, _ = make_protocol("tag", rank=0)
        det = Determinant(receiver=3, deliver_index=1, sender=2, send_index=1)
        p.on_deliver(app_meta(1, tag_pb(det)), src=1)
        # src 1 piggybacked det, so it holds det -> not re-sent to 1
        prepared = p.prepare_send(1, 0, "x", 64)
        dets = prepared.piggyback["dets"]
        assert det not in dets
        assert len(dets) == 1  # only our own new delivery event

    def test_checkpoint_advance_prunes_graph(self):
        p, _ = make_protocol("tag", rank=0)
        d1 = Determinant(receiver=2, deliver_index=1, sender=1, send_index=1)
        d2 = Determinant(receiver=2, deliver_index=5, sender=1, send_index=5)
        p.on_deliver(app_meta(1, tag_pb(d1, d2)), src=1)
        p.handle_control(
            CHECKPOINT_ADVANCE, src=2,
            payload={"from_counts": [0, 0, 0, 0], "stable_upto": 3},
        )
        assert d1.key not in p.held_keys() and d2.key in p.held_keys()

    def test_own_checkpoint_prunes_own_events(self):
        p, svc = make_protocol("tag", rank=0)
        p.on_deliver(app_meta(1, tag_pb()), src=1)
        p.after_checkpoint()
        assert not p.held_keys()  # our only event was our own delivery
        assert any(c[1] == CHECKPOINT_ADVANCE for c in svc.controls)


class TestTagRecovery:
    def test_barrier_defers_everything_until_responses(self):
        p, _ = make_protocol("tag", rank=0)
        p.begin_recovery()
        meta = app_meta(1, tag_pb())
        assert p.classify(meta, src=1) is DeliveryVerdict.DEFER
        for src in (1, 2, 3):
            p.handle_control(RESPONSE, src=src,
                             payload=response_payload("tag", 0))
        assert p.classify(meta, src=1) is DeliveryVerdict.DELIVER

    def test_required_order_enforced(self):
        p, _ = make_protocol("tag", rank=0)
        p.begin_recovery()
        det = Determinant(receiver=0, deliver_index=1, sender=2, send_index=1)
        for src in (1, 2, 3):
            p.handle_control(RESPONSE, src=src, payload=response_payload(
                "tag", 0, dets=[det] if src == 1 else []))
        # position 1 must be (sender=2, send_index=1)
        assert p.classify(app_meta(1, tag_pb()), src=1) is DeliveryVerdict.DEFER
        assert p.classify(app_meta(1, tag_pb()), src=2) is DeliveryVerdict.DELIVER
        p.on_deliver(app_meta(1, tag_pb()), src=2)
        # beyond the recorded horizon: free order again
        assert p.classify(app_meta(1, tag_pb()), src=1) is DeliveryVerdict.DELIVER

    def test_rollback_returns_determinants_of_failed(self):
        p, svc = make_protocol("tag", rank=0)
        d_old = Determinant(receiver=2, deliver_index=1, sender=1, send_index=1)
        d_new = Determinant(receiver=2, deliver_index=4, sender=3, send_index=2)
        p.on_deliver(app_meta(1, tag_pb(d_old, d_new)), src=1)
        p.handle_control(ROLLBACK, src=2, payload=rollback_payload(
            "tag", [0, 0, 0, 0], epoch=1, ckpt_deliver_total=2))
        response = [c for c in svc.controls if c[1] == RESPONSE][0]
        assert response[2]["dets"] == [d_new]  # only events past the ckpt


class TestTelProtocol:
    def test_delivery_sends_evlog_to_logger(self):
        p, svc = make_protocol("tel", rank=0, nprocs=4)
        p.on_deliver(app_meta(1, tel_pb()), src=1)
        evlogs = [c for c in svc.controls if c[1] == EVLOG]
        assert len(evlogs) == 1
        assert evlogs[0][0] == 4  # logger sits past the app ranks
        det = evlogs[0][2]
        assert det == Determinant(0, 1, 1, 1)

    def test_unstable_piggybacked_until_ack(self):
        p, _ = make_protocol("tel", rank=0)
        p.on_deliver(app_meta(1, tel_pb()), src=1)
        assert len(p.prepare_send(2, 0, "x", 64).piggyback["dets"]) == 1
        p.handle_control(EVLOG_ACK, src=4, payload=1)
        assert len(p.prepare_send(2, 0, "y", 64).piggyback["dets"]) == 0

    def test_stability_gossip_prunes_foreign_dets(self):
        p, _ = make_protocol("tel", rank=0)
        foreign = Determinant(receiver=2, deliver_index=3, sender=1, send_index=1)
        p.on_deliver(app_meta(1, tel_pb(foreign)), src=1)
        assert foreign.key in p.unstable
        # next delivery gossips that rank 2 is stable through 5
        p.on_deliver(app_meta(2, tel_pb(stable=(0, 0, 5, 0))), src=1)
        assert foreign.key not in p.unstable

    def test_piggyback_counts_stability_vector(self):
        p, _ = make_protocol("tel", nprocs=4)
        prepared = p.prepare_send(1, 0, "x", 64)
        # 0 dets + n stability entries + send index
        assert prepared.piggyback_identifiers == 4 + 1

    def test_checkpoint_is_stability(self):
        p, _ = make_protocol("tel", rank=0)
        foreign = Determinant(receiver=2, deliver_index=3, sender=1, send_index=1)
        p.on_deliver(app_meta(1, tel_pb(foreign)), src=1)
        p.handle_control(
            CHECKPOINT_ADVANCE, src=2,
            payload={"from_counts": [0, 0, 0, 0], "stable_upto": 4},
        )
        assert foreign.key not in p.unstable

    def test_recovery_queries_logger_history(self):
        p, svc = make_protocol("tel", rank=0, nprocs=4)
        p.begin_recovery()
        queries = [c for c in svc.controls if c[1] == EVLOG_QUERY]
        assert len(queries) == 1 and queries[0][0] == 4
        assert p.recovery_pending()
        for src in (1, 2, 3):
            p.handle_control(RESPONSE, src=src,
                             payload=response_payload("tel", 0))
        assert p.recovery_pending()  # still waiting for the history
        det = Determinant(receiver=0, deliver_index=1, sender=3, send_index=1)
        p.handle_control(EVLOG_HISTORY, src=4, payload=[det])
        assert not p.recovery_pending()
        assert p.required_order[1] == (3, 1)


class TestNoFaultTolerance:
    def test_zero_overhead(self):
        p, _ = make_protocol("none")
        prepared = p.prepare_send(1, 0, "x", 64)
        assert prepared.piggyback_identifiers == 0 and prepared.cost == 0.0

    def test_cannot_recover(self):
        p, _ = make_protocol("none")
        with pytest.raises(RuntimeError):
            p.begin_recovery()
        with pytest.raises(RuntimeError):
            p.restore({})

    def test_duplicate_detection_still_works(self):
        p, _ = make_protocol("none")
        p.on_deliver(app_meta(1, None), src=1)
        assert p.classify(app_meta(1, None), src=1) is DeliveryVerdict.DUPLICATE
