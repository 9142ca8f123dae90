"""The paper's worked examples, executed.

§II.B/§III.A develop one running example (Fig. 1): six messages across
four processes whose dependency chain produces the piggyback vector
``V(0, 2, 2, 1)`` on ``m5``, a 20-identifier antecedence set under the
PWD protocols, and the delivery-gate behaviour the recovery argument
rests on.  Reconstructed from the text:

* ``m0``: P0 → P1
* ``m1``: P0 → P2
* ``m2``: P2 → P1 (after P2 delivered m1)
* ``m3``: P1 → P2 (after P1 delivered m0 and m2; the paper notes P1
  "has to piggyback the metadata of m0, m1 and m2 on m3" under the
  graph protocols, with #m1 redundant because P2 already holds it)
* ``m4``: P2 → P3 (after P2 delivered m3)
* ``m5``: P3 → P1 (after P3 delivered m4)

These tests drive the real protocol objects through exactly that chain
and assert the paper's printed numbers.
"""

import pytest

from repro.protocols.base import DeliveryVerdict
from tests.conftest import app_meta, make_protocol, response_payload

NPROCS = 4


def run_chain(protocol_name):
    """Execute the Fig. 1 chain on four real protocol instances.

    Returns the per-rank protocol objects plus the prepared sends for
    each message (so tests can inspect piggybacks)."""
    procs = {}
    for rank in range(NPROCS):
        procs[rank], _ = make_protocol(protocol_name, rank=rank, nprocs=NPROCS)

    sends = {}

    def transfer(name, src, dst):
        prepared = procs[src].prepare_send(dst, 0, name, 64)
        sends[name] = prepared
        procs[dst].on_deliver(
            app_meta(prepared.send_index, prepared.piggyback), src=src
        )
        return prepared

    transfer("m0", 0, 1)
    transfer("m1", 0, 2)
    transfer("m2", 2, 1)
    transfer("m3", 1, 2)
    transfer("m4", 2, 3)
    # m5 is prepared (so its piggyback is the paper's V) but tests
    # control when/whether P1 delivers it
    sends["m5"] = procs[3].prepare_send(1, 0, "m5", 64)
    return procs, sends


class TestFig1UnderTdi:
    def test_m5_piggybacks_the_papers_vector(self):
        _, sends = run_chain("tdi")
        assert sends["m5"].piggyback == (0, 2, 2, 1)  # the paper's V

    def test_p1_vector_before_m5_matches_paper(self):
        procs, _ = run_chain("tdi")
        # §III.B: "before P1 delivers the message m5, its vector
        # depend_interval is (0, 2, 1, 0)"
        assert procs[1].depend_interval == [0, 2, 1, 0]

    def test_p1_vector_after_m5_merge(self):
        procs, sends = run_chain("tdi")
        procs[1].on_deliver(app_meta(sends["m5"].send_index,
                                     sends["m5"].piggyback), src=3)
        # the paper prints the merged foreign entries (0, 2, 2, 1); the
        # delivery itself advances P1's own interval to 3
        assert procs[1].depend_interval == [0, 3, 2, 1]

    def test_20_identifiers_reduced_to_4(self):
        """§III.A: "the size of the causal dependency set of m5 is
        reduced from 20 to 4"."""
        _, tag_sends = run_chain("tag")
        _, tdi_sends = run_chain("tdi")
        # TAG: determinants of m5's causal past — #m0..#m4, 4 ids each
        assert len(tag_sends["m5"].piggyback["dets"]) == 5
        assert tag_sends["m5"].piggyback_identifiers - 1 == 20  # + send index
        # TDI: the n-entry vector
        assert len(tdi_sends["m5"].piggyback) == 4
        assert tdi_sends["m5"].piggyback_identifiers - 1 == 4

    def test_m3_piggyback_under_tag(self):
        """§II.B discusses m3 carrying #m0, #m1 and #m2 with #m1
        redundant.  Our TAG keeps Manetho's sound knowledge rule —
        incoming piggybacks are proof of possession — so #m1 (which P2
        itself piggybacked on m2) is legitimately suppressed and m3
        carries exactly the two determinants P1 cannot prove P2 holds:
        its own deliveries #m0 and #m2."""
        _, sends = run_chain("tag")
        keys = {(d.receiver, d.deliver_index) for d in sends["m3"].piggyback["dets"]}
        assert keys == {(1, 1), (1, 2)}  # #m0 and #m2 (P1's deliveries)

    def test_third_parties_get_all_metadata(self):
        """The paper's "has to piggyback all metadata" conservatism shows
        where no incoming evidence exists: m4 (P2 -> P3, first contact)
        carries P2's entire antecedence graph — #m0..#m3."""
        _, sends = run_chain("tag")
        assert len(sends["m4"].piggyback["dets"]) == 4


class TestFig1RecoveryGates:
    def test_m0_and_m2_deliverable_in_any_order(self):
        """§III.A: m0 and m2 both depend on interval 0 of P1 — "P1 can
        deliver any one of them in its rolling forward ... as soon as it
        arrives"."""
        _, sends = run_chain("tdi")
        fresh, _ = make_protocol("tdi", rank=1, nprocs=NPROCS)  # P1 restarted
        meta_m0 = app_meta(sends["m0"].send_index, sends["m0"].piggyback)
        meta_m2 = app_meta(sends["m2"].send_index, sends["m2"].piggyback)
        assert sends["m0"].piggyback[1] == 0
        assert sends["m2"].piggyback[1] == 0
        assert fresh.classify(meta_m0, src=0) is DeliveryVerdict.DELIVER
        assert fresh.classify(meta_m2, src=2) is DeliveryVerdict.DELIVER

    def test_m5_gated_until_two_deliveries(self):
        """§III.A: "P1 cannot deliver m5 until it has delivered other 2
        messages"."""
        _, sends = run_chain("tdi")
        fresh, _ = make_protocol("tdi", rank=1, nprocs=NPROCS)
        meta_m5 = app_meta(sends["m5"].send_index, sends["m5"].piggyback)
        assert fresh.classify(meta_m5, src=3) is DeliveryVerdict.DEFER
        fresh.on_deliver(app_meta(sends["m0"].send_index,
                                  sends["m0"].piggyback), src=0)
        assert fresh.classify(meta_m5, src=3) is DeliveryVerdict.DEFER
        fresh.on_deliver(app_meta(sends["m2"].send_index,
                                  sends["m2"].piggyback), src=2)
        assert fresh.classify(meta_m5, src=3) is DeliveryVerdict.DELIVER


class TestFig3RepetitiveMessage:
    def test_repetitive_m3_discarded_by_receiver(self):
        """§III.D / Fig. 3: P1 re-sends m3 during rolling forward before
        P3's RESPONSE arrives; P3 identifies it by the send index and
        discards it."""
        p3, _ = make_protocol("tdi", rank=3, nprocs=NPROCS)
        p3.on_deliver(app_meta(1, (0, 0, 0, 0)), src=1)  # original m3
        assert p3.vectors.last_deliver_index[1] == 1
        # the conservative re-send carries the same sending index 1
        assert p3.classify(app_meta(1, (0, 0, 0, 0)), src=1) \
            is DeliveryVerdict.DUPLICATE

    def test_sender_suppresses_after_response(self):
        """§III.C.3: once the RESPONSE arrives, P1 knows m3 is repetitive
        and omits sending it."""
        p1, _ = make_protocol("tdi", rank=1, nprocs=NPROCS)
        p1.handle_control("RESPONSE", src=3,
                          payload=response_payload("tdi", 1))
        resend = p1.prepare_send(3, 0, "m3", 64)
        assert resend.send_index == 1
        assert resend.transmit is False  # logged but not sent (line 10)
