"""Model-based stateful testing of the compressed piggyback channel.

A hypothesis ``RuleBasedStateMachine`` drives one sender-side
:class:`VectorDeltaEncoder` and one receiver-side
:class:`VectorDeltaDecoder` over a single channel through arbitrary
interleavings of vector mutations (deliveries, merges, peer rollbacks,
epoch bumps), stream sends, standalone resends, epoch invalidations and
simulated crashes on either end.  After every stream send the decoder's
reconstructed piggyback must equal the sender's snapshot bit for bit —
values, epochs and send index — whatever mix of FULL and DELTA records
the encoder chose to emit.

Every stream record is decoded twice: as the record it is, which an
in-step receiver takes without parsing, and as its packed bytes on a
twin decoder, which parses every one.  Both must agree, every record's
``len()`` must be the length of its bytes, and every piggyback either
decoder handed out must keep its values for as long as anyone holds it.
The tests after the machine hand the decoder records whose
previous-record token is not its channel's: those must be parsed.
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core import wire
from repro.core.vectors import DependIntervalVector, TaggedPiggyback
from repro.protocols.compression import (
    UndecodablePiggyback,
    VectorDeltaDecoder,
    VectorDeltaEncoder,
)

import pytest

NPROCS = 6
OWNER = 0
DEST = 1

#: small values keep deltas cheaper than the full form, wide ones do not
values = st.one_of(st.integers(0, 50), st.integers(0, 1 << 36))


class ChannelMachine(RuleBasedStateMachine):
    """One sender/receiver channel under arbitrary interleavings."""

    def __init__(self) -> None:
        super().__init__()
        self.vector = DependIntervalVector(NPROCS, OWNER)
        self.encoder = VectorDeltaEncoder(self.vector)
        self.decoder = VectorDeltaDecoder(NPROCS)
        #: parses every record from its bytes
        self.twin = VectorDeltaDecoder(NPROCS)
        self.send_index = 0
        #: True while the receiver has no usable base for stream deltas
        #: (fresh decoder after a simulated receiver crash)
        self.receiver_reset = False
        #: every piggyback either decoder handed out, with its values
        self.decoded: list[tuple[TaggedPiggyback, tuple[int, ...]]] = []

    def _decode_both(self, record) -> TaggedPiggyback:
        """Decode ``record`` on the decoder and its bytes on the twin;
        both must agree on values, epochs and send index."""
        got, send_index = self.decoder.decode(OWNER, record)
        parsed, parsed_index = self.twin.decode(OWNER, bytes(record))
        assert tuple(got) == tuple(parsed)
        assert got.epochs == parsed.epochs
        assert send_index == parsed_index == self.send_index
        self.decoded += ((got, tuple(got)), (parsed, tuple(parsed)))
        return got

    # -------------------------------------------------- vector mutations
    @rule()
    def deliver(self) -> None:
        self.vector.advance_own()

    @rule(pb=st.lists(values, min_size=NPROCS, max_size=NPROCS))
    def merge_plain(self, pb: list[int]) -> None:
        self.vector.merge(tuple(pb))

    @rule(data=st.data())
    def merge_tagged(self, data) -> None:
        pb = data.draw(st.lists(values, min_size=NPROCS, max_size=NPROCS))
        epochs = data.draw(st.lists(st.integers(0, 4),
                                    min_size=NPROCS, max_size=NPROCS))
        self.vector.merge(TaggedPiggyback(pb, epochs))

    @rule(rank=st.integers(1, NPROCS - 1), interval=st.integers(0, 1 << 20),
          epoch=st.integers(1, 6))
    def peer_rollback(self, rank: int, interval: int, epoch: int) -> None:
        self.vector.observe_rollback(rank, interval, epoch)

    @rule(epoch=st.integers(1, 6))
    def own_epoch_bump(self, epoch: int) -> None:
        self.vector.set_own_epoch(max(epoch, self.vector.own_epoch))

    # ------------------------------------------------------------ sends
    @rule()
    def send(self) -> None:
        """One stream record: encode, decode both ways, compare bit for
        bit."""
        self.send_index += 1
        pb = self.vector.as_piggyback()
        record, _ = self.encoder.encode(DEST, pb, self.send_index)
        blob = bytes(record)
        assert len(record) == len(blob)
        rec = wire.decode_vector_record(blob, NPROCS)
        if self.receiver_reset and rec.mode == wire.DELTA:
            # a fresh receiver has no base: the delta must be rejected,
            # never mis-applied — and in the real protocol the ROLLBACK
            # exchange then invalidates the sender's channel (modelled
            # by the epoch_invalidate rule before sends resume)
            with pytest.raises(UndecodablePiggyback):
                self.decoder.decode(OWNER, record)
            with pytest.raises(UndecodablePiggyback):
                self.twin.decode(OWNER, blob)
            self.encoder.invalidate(DEST)
            return
        decoded = self._decode_both(record)
        if rec.mode != wire.DELTA:
            self.receiver_reset = False
        assert tuple(decoded) == tuple(pb)
        assert decoded.epochs == pb.epochs
        # the exact-fallback contract: a stream record never loses to
        # the full form it could have sent instead
        full = wire.encode_vector_full(tuple(pb), pb.epochs,
                                       self.send_index, seq=0)
        assert len(record) <= len(full)

    @rule()
    def resend_standalone(self) -> None:
        """Log resends are standalone FULLs: decodable any time, and
        invisible to the channel state on both sides."""
        pb = self.vector.as_piggyback()
        blob = wire.encode_vector_full(tuple(pb), pb.epochs, self.send_index)
        decoded = self._decode_both(blob)
        assert tuple(decoded) == tuple(pb)
        assert decoded.epochs == pb.epochs

    # ---------------------------------------------------- perturbations
    @rule()
    def epoch_invalidate(self) -> None:
        """The peer entered a new epoch: sender drops the channel, the
        next stream record is a FULL that resets the receiver."""
        self.encoder.invalidate(DEST)

    @rule()
    def crash_sender(self) -> None:
        """Sender restores from checkpoint: a replacement vector (same
        logical content), a re-bound encoder, channels re-establish."""
        snap = self.vector.snapshot()
        self.vector = DependIntervalVector.from_snapshot(NPROCS, OWNER, snap)
        self.encoder.bind(self.vector)

    @precondition(lambda self: not self.receiver_reset)
    @rule()
    def crash_receiver(self) -> None:
        """Receiver loses its volatile channel state entirely."""
        self.decoder = VectorDeltaDecoder(NPROCS)
        self.twin = VectorDeltaDecoder(NPROCS)
        self.receiver_reset = True

    # ------------------------------------------------------- invariants
    @invariant()
    def decoded_piggybacks_stay_put(self) -> None:
        """No later record moves a piggyback already handed out: the
        array cache and the tuple still hold what was decoded."""
        for piggyback, held in self.decoded:
            assert tuple(piggyback) == held
            assert piggyback._arr.tolist() == list(held)


TestChannelMachine = ChannelMachine.TestCase
# deadline policy comes from the profile in tests/conftest.py
TestChannelMachine.settings = settings(
    max_examples=60, stateful_step_count=50)


# ----------------------------------------------------------------------
# A previous-record token that is not the channel's
# ----------------------------------------------------------------------

def _sender(values: list[int]):
    vector = DependIntervalVector(NPROCS, OWNER, values)
    return vector, VectorDeltaEncoder(vector)


def _decode_like_the_parser(decoder, twin, record):
    """``record`` through ``decoder`` and its bytes through ``twin``: the
    same piggyback, or the same rejection."""
    try:
        parsed = twin.decode(OWNER, bytes(record))
    except UndecodablePiggyback:
        with pytest.raises(UndecodablePiggyback):
            decoder.decode(OWNER, record)
        return None
    got = decoder.decode(OWNER, record)
    assert (tuple(got[0]), got[0].epochs, got[1]) \
        == (tuple(parsed[0]), parsed[0].epochs, parsed[1])
    return got[0]


def test_a_stale_incarnations_delta_is_parsed_onto_the_new_base():
    """A delta the sender's dead incarnation encoded arrives after the
    new incarnation's FULL: its sequence number may match, but its
    previous-record token names the dead incarnation's FULL, not the
    channel's, so it is parsed onto the new base (and rejected where the
    sequence number does not match), never handed over as it stands."""
    old, old_encoder = _sender([0, 5, 5, 5, 0, 0])
    first, _ = old_encoder.encode(DEST, old.as_piggyback(), 1)
    old.merge((0, 0, 6, 0, 0, 0))
    stale, _ = old_encoder.encode(DEST, old.as_piggyback(), 2)
    old.merge((0, 0, 7, 0, 0, 0))
    staler, _ = old_encoder.encode(DEST, old.as_piggyback(), 3)
    assert (first.changed, stale.changed) == (None, (2,))
    # the restarted sender: a checkpointed vector, a fresh encoder
    new, new_encoder = _sender([0, 0, 0, 0, 0, 0])
    restart, _ = new_encoder.encode(DEST, new.as_piggyback(), 1)

    decoder, twin = VectorDeltaDecoder(NPROCS), VectorDeltaDecoder(NPROCS)
    for record in (first, restart):
        assert _decode_like_the_parser(decoder, twin, record) \
            is record.piggyback
    got = _decode_like_the_parser(decoder, twin, stale)
    assert tuple(got) == (0, 0, 6, 0, 0, 0) != tuple(stale.piggyback)
    # the parse wrote into a copy of the base the new FULL shares
    for record in (first, restart, stale):
        assert record.piggyback._arr.tolist() == list(record.piggyback)
    # seq 3 against an expected 2 in the other order: rejected alike
    decoder, twin = VectorDeltaDecoder(NPROCS), VectorDeltaDecoder(NPROCS)
    for record in (first, restart):
        _decode_like_the_parser(decoder, twin, record)
    assert _decode_like_the_parser(decoder, twin, staler) is None


def test_a_channel_a_parsed_delta_advanced_takes_no_shortcut():
    """Once a delta was parsed, the channel's base is no record's
    piggyback, so no later delta is handed over until a FULL: here one
    whose previous-record token is the one the channel held before the
    parse (an encoder never makes it — its sequence number then lags —
    so it is forged) is parsed all the same."""
    vector, encoder = _sender([0, 1, 2, 3, 0, 0])
    first, _ = encoder.encode(DEST, vector.as_piggyback(), 1)
    vector.merge((0, 9, 0, 0, 0, 0))
    second, _ = encoder.encode(DEST, vector.as_piggyback(), 2)
    vector.merge((0, 0, 0, 0, 8, 0))
    third, _ = encoder.encode(DEST, vector.as_piggyback(), 3)
    decoder, twin = VectorDeltaDecoder(NPROCS), VectorDeltaDecoder(NPROCS)
    _decode_like_the_parser(decoder, twin, first)
    # the second record reaches the receiver as bytes: parsed
    decoder.decode(OWNER, bytes(second))
    twin.decode(OWNER, bytes(second))
    assert third.changed == (4,)
    # forged: the token before the parse, and a piggyback that agrees
    # with the delta's one entry and with nothing else of the base
    third.prev = first.token
    third.piggyback = DependIntervalVector(
        NPROCS, OWNER, [0, 0, 0, 0, 8, 0]).as_piggyback()
    got = _decode_like_the_parser(decoder, twin, third)
    assert tuple(got) == (0, 9, 2, 3, 8, 0)
