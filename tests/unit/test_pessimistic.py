"""Unit tests for the pessimistic receiver-based logging extension."""

import pytest

from repro.protocols.pwd import Determinant
from repro.protocols.tel_protocol import EVLOG, EVLOG_ACK, EVLOG_HISTORY, EVLOG_QUERY
from tests.conftest import app_meta, make_protocol, response_payload


class TestPessimistic:
    def test_zero_piggyback(self):
        p, _ = make_protocol("pess", nprocs=8)
        prepared = p.prepare_send(1, 0, "x", 64)
        assert prepared.piggyback is None
        assert prepared.piggyback_identifiers == 1  # the send index only

    def test_delivery_costs_a_round_trip(self):
        p, svc = make_protocol("pess", nprocs=4)
        cost = p.on_deliver(app_meta(1, None), src=1)
        assert cost >= p._sync_write_round_trip()
        evlogs = [c for c in svc.controls if c[1] == EVLOG]
        assert len(evlogs) == 1 and evlogs[0][0] == 4

    def test_delivery_far_pricier_than_tdi(self):
        pess, _ = make_protocol("pess", nprocs=4)
        tdi, _ = make_protocol("tdi", nprocs=4)
        assert pess.on_deliver(app_meta(1, None), src=1) > 50 * tdi.on_deliver(
            app_meta(1, (0, 0, 0, 0)), src=1)

    def test_survivors_hold_no_determinants(self):
        p, _ = make_protocol("pess", nprocs=4)
        p.on_deliver(app_meta(1, None), src=1)
        assert p._determinants_for(1, 0) == []

    def test_recovery_uses_logger_history(self):
        p, svc = make_protocol("pess", rank=0, nprocs=4)
        p.begin_recovery()
        assert any(c[1] == EVLOG_QUERY for c in svc.controls)
        for src in (1, 2, 3):
            p.handle_control("RESPONSE", src=src,
                             payload=response_payload("pess", 0))
        assert p.recovery_pending()
        det = Determinant(receiver=0, deliver_index=1, sender=2, send_index=1)
        p.handle_control(EVLOG_HISTORY, src=4, payload=[det])
        assert not p.recovery_pending()
        assert p.required_order[1] == (2, 1)

    def test_ack_is_informational(self):
        p, _ = make_protocol("pess", nprocs=4)
        p.handle_control(EVLOG_ACK, src=4, payload=5)  # no state, no error

    def test_checkpoint_state_minimal_roundtrip(self):
        p, _ = make_protocol("pess")
        p.prepare_send(1, 0, "x", 64)
        p.on_deliver(app_meta(1, None), src=1)
        state = p.checkpoint_state()
        q, _ = make_protocol("pess")
        q.restore(state)
        assert q.deliver_total == 1
        assert len(q.log) == 1


class TestPessimisticIntegration:
    def test_answers_and_recovery(self):
        from repro import api

        ref = api.run_workload("synthetic", nprocs=4, protocol="none", seed=91)
        clean = api.run_workload("synthetic", nprocs=4, protocol="pess", seed=91)
        faulted = api.run_workload("synthetic", nprocs=4, protocol="pess", seed=91,
                                   faults=[api.FaultSpec(rank=2, at_time=0.004)])
        assert clean.results == ref.results
        assert faulted.results == ref.results

    def test_tradeoff_vs_tdi(self):
        from repro import api

        pess = api.run_workload("lu", nprocs=4, protocol="pess", seed=91)
        tdi = api.run_workload("lu", nprocs=4, protocol="tdi", seed=91)
        # near-zero piggyback, but much longer waits on the critical path
        assert pess.stats.piggyback_identifiers_per_message < \
            tdi.stats.piggyback_identifiers_per_message
        assert pess.accomplishment_time > tdi.accomplishment_time
