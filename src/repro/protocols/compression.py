"""Per-channel piggyback compression state machines.

The codecs in :mod:`repro.core.wire` turn one piggyback into one record;
this module owns the *channel* protocol that makes delta records safe:

Sender side (:class:`VectorDeltaEncoder`), one per TDI protocol
instance, one channel per destination:

* the first record on a channel is a self-contained FULL (dense or
  sparse, whichever is smaller) carrying stream sequence number 0;
* every further record is a DELTA of the entries that changed since the
  channel's *watermark* — the vector's mutation clock at the previous
  record — found by one compare of the vector's stamp array against it
  (:meth:`~repro.core.vectors.DependIntervalVector.delta_since`);
* a DELTA that would not beat the full form falls back to a stream FULL
  (exact: once the delta is big enough to possibly lose, the full
  record is sized from the piggyback's array);
* nothing is packed at encode: a :class:`StreamRecord` knows its exact
  size, which is what the frame pays for, and packs itself only for a
  receiver that has to parse it;
* :meth:`VectorDeltaEncoder.invalidate` drops a channel when its peer
  enters a new incarnation epoch (the peer's decoder state died with
  it), so the next send re-establishes with a FULL.

Receiver side (:class:`VectorDeltaDecoder`), one channel per source:

* a channel base is an ``int64`` value array plus an epoch tuple, and
  every piggyback handed out carries an array of its values, so the
  merge that follows converts nothing;
* an in-step record is not parsed: a stream FULL, or a DELTA with the
  expected sequence number whose previous-record token is the one the
  channel was last advanced with (by a FULL or by this shortcut), hands
  over the sender's piggyback itself, and its read-only array becomes
  the base.  The base is then by provenance the sender's previous
  piggyback on the channel, so base + delta is the sender's piggyback:
  exactly what parsing the bytes would return.  Every other record (no
  channel, a sequence gap, a base a parsed DELTA left, a standalone
  resend) is parsed from its bytes; a parsed DELTA clears the channel's
  token, and copies a shared base before it writes into it;
* a stream FULL unconditionally resets the channel base and adopts the
  record's sequence number — which is how a *new sender incarnation*
  (fresh encoder, seq 0) takes over a channel without any explicit
  receiver-side invalidation;
* a DELTA must match the expected sequence number exactly and requires
  an established base; anything else raises
  :class:`UndecodablePiggyback` and the endpoint drops the frame.  A
  dropped frame is always re-covered: the only way a stream record can
  be undecodable is a receiver that lost its base to a failure, and the
  recovery protocol's ROLLBACK handling re-sends every uncovered logged
  message as a standalone FULL record.

Standalone FULL records (``FLAG_STANDALONE``) carry no sequence number
and touch no channel state on either side — every log resend uses them,
so resends may overtake, interleave, or duplicate freely.

Ordering contract: per destination, records are encoded in transmit
order and (FIFO channels — the raw clean network's guarantee, restored
exactly-once by the reliable transport under impairment) decoded at
arrival in that same order, each at most once.

The PWD-family piggybacks (TAG / TEL / PART determinant increments) are
self-contained, so their compressed form is stateless: a varint
determinant list, plus TEL's stability vector.
"""

from __future__ import annotations

import itertools
from typing import Any

import numpy as _np

from repro.core import wire
from repro.core.vectors import DependIntervalVector, TaggedPiggyback


class UndecodablePiggyback(Exception):
    """A compressed piggyback could not be reconstructed (missing or
    out-of-sequence channel base, or a malformed record)."""


#: every stream record's token, process-wide: a restarted sender's fresh
#: encoder can never reuse one of its dead incarnation's
_TOKENS = itertools.count(1)


class StreamRecord:
    """One stream record, as its encoder decided it: a FULL
    (``changed is None``) or the DELTA of the ``changed`` entries of
    ``piggyback``, the sender's primed, immutable piggyback.

    ``len()`` is the packed size, computed at encode; ``bytes()`` packs
    the record, which only a receiver that has to parse it asks for.
    ``token`` names this record and ``prev`` the record before it on its
    channel (``None`` for a FULL): a receiver whose channel was last
    advanced by the record ``prev`` names holds the sender's previous
    piggyback as its base, so base + delta is ``piggyback``.
    """

    __slots__ = ("piggyback", "send_index", "seq", "changed", "size",
                 "token", "prev")

    def __init__(self, piggyback: TaggedPiggyback, send_index: int,
                 seq: int, changed: tuple[int, ...] | None, size: int,
                 token: int, prev: int | None) -> None:
        self.piggyback = piggyback
        self.send_index = send_index
        self.seq = seq
        self.changed = changed
        self.size = size
        self.token = token
        self.prev = prev

    def __len__(self) -> int:
        return self.size

    def __bytes__(self) -> bytes:
        piggyback = self.piggyback
        if self.changed is None:
            return wire.encode_vector_full(piggyback, piggyback.epochs,
                                           self.send_index, seq=self.seq)
        epochs = piggyback.epochs
        return wire.encode_vector_delta(
            [(k, piggyback[k], epochs[k]) for k in self.changed],
            self.send_index, self.seq)


class VectorDeltaEncoder:
    """Sender-side per-destination delta chains over one depend-interval
    vector.  ``encode`` must be called in per-destination transmit order,
    with the primed piggyback taken from the vector in the same
    mutation-free step (prepare_send does exactly this)."""

    def __init__(self, vector: DependIntervalVector) -> None:
        self.vector = vector
        vector.enable_change_tracking()
        #: dest -> [watermark, seq, token]: mutation clock at the previous
        #: record, and that record's stream sequence number and token
        self._channels: dict[int, list[int]] = {}
        #: destinations that ever had a channel — distinguishes the very
        #: first FULL (establishment) from a fallback FULL
        self._ever: set[int] = set()

    def bind(self, vector: DependIntervalVector) -> None:
        """Re-point at a replacement vector (checkpoint restore swaps the
        instance); all channels re-establish."""
        self.vector = vector
        vector.enable_change_tracking()
        self._channels.clear()

    def invalidate(self, dest: int) -> None:
        """The peer entered a new incarnation epoch: its decoder state is
        gone, so the next send must carry a full record."""
        self._channels.pop(dest, None)

    def grow(self) -> None:
        """The vector grew (dynamic membership: a rank joined).  Every
        channel's watermark refers to the shorter vector and every
        receiver's base is short, so drop all channels — the next record
        per destination is a counted FULL at the new length, which
        resets the decoder base to the grown width."""
        self._channels.clear()

    def encode(self, dest: int, piggyback: TaggedPiggyback,
               send_index: int) -> tuple[StreamRecord, bool]:
        """Encode one transmitted piggyback for ``dest``.

        Returns ``(record, fell_back)`` where ``fell_back`` is True for
        every stream FULL after the channel's first-ever record (epoch
        invalidation, watermark loss, or a delta that lost the exact
        size comparison).
        """
        clock = self.vector.change_clock
        token = next(_TOKENS)
        chan = self._channels.get(dest)
        if chan is None:
            self._channels[dest] = [clock, 0, token]
            fell_back = dest in self._ever
            self._ever.add(dest)
            return StreamRecord(
                piggyback, send_index, 0, None, wire.vector_full_size(
                    piggyback._arr, piggyback.epochs, send_index, 0),
                token, None), fell_back
        watermark, seq, prev = chan
        seq += 1
        changed = self.vector.delta_since(watermark)
        # Exact fallback, sized, never built.  A record shorter than
        # n + 3 bytes cannot lose to the dense full form (header + seq +
        # n values + send_index, a byte each at least) and k entries make
        # a delta of 2k + 4 bytes at least, so the full record is sized
        # only once the delta could lose, and the delta is laid out only
        # while it could win.
        limit = len(piggyback) + 3
        size, full_size = 2 * len(changed) + 4, None
        if size >= limit:
            full_size = wire.vector_full_size(
                piggyback._arr, piggyback.epochs, send_index, seq)
        if full_size is None or full_size > size:
            size = wire.vector_delta_size(piggyback, piggyback.epochs,
                                          changed, send_index, seq)
            if full_size is None and size >= limit:
                full_size = wire.vector_full_size(
                    piggyback._arr, piggyback.epochs, send_index, seq)
        fell_back = full_size is not None and full_size <= size
        if fell_back:
            changed, size = None, full_size
        chan[:] = clock, seq, token
        return StreamRecord(piggyback, send_index, seq, changed, size,
                            token, prev), fell_back


class VectorDeltaDecoder:
    """Receiver-side reconstruction of per-source delta chains."""

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        #: src -> [next_expected_seq, values (int64 array), epochs (tuple),
        #: token of the record that set the base (None: parsed)]
        self._channels: dict[int, list[Any]] = {}

    def decode(self, src: int, record: StreamRecord | bytes,
               ) -> tuple[TaggedPiggyback, int]:
        """Reconstruct one record from ``src``; returns the piggyback and
        the record's embedded send index."""
        if type(record) is StreamRecord:
            chan = self._channels.get(src)
            if record.changed is None or (
                    chan is not None and record.seq == chan[0]
                    and record.prev == chan[3]):
                # a stream FULL, or a delta onto a base that is, by
                # provenance, the sender's previous piggyback on this
                # channel: base + delta is the sender's piggyback, which
                # is handed over, its read-only array the channel's base
                piggyback = record.piggyback
                self._channels[src] = [record.seq + 1, piggyback._arr,
                                       piggyback.epochs, record.token]
                return piggyback, record.send_index
            record = bytes(record)  # out of step: parsed as it stands
        try:
            rec = wire.decode_vector_record(record, self.nprocs)
        except ValueError as exc:
            raise UndecodablePiggyback(f"malformed record: {exc}") from exc
        if rec.mode != wire.DELTA:
            piggyback = TaggedPiggyback(rec.values, rec.epochs)
            piggyback._arr = _np.fromiter(piggyback, _np.int64, len(piggyback))
            if not rec.standalone:
                # stream FULL: (re-)establish the channel — a brand-new
                # sender incarnation resets an existing chain this way
                # (the base is a copy: it moves while this may be queued)
                self._channels[src] = [
                    rec.seq + 1, piggyback._arr.copy(), piggyback.epochs, None]
            return piggyback, rec.send_index
        chan = self._channels.get(src)
        if chan is None:
            raise UndecodablePiggyback(
                f"delta from rank {src} with no established base")
        if rec.seq != chan[0]:
            raise UndecodablePiggyback(
                f"delta from rank {src} has seq {rec.seq}, expected {chan[0]}")
        chan[0] += 1
        chan[3] = None  # the base is no longer a record's piggyback
        _, values, epochs, _ = chan
        if not values.flags.writeable:
            # a base the sender's piggyback shares: written into a copy
            values = chan[1] = values.copy()
        if rec.changes and rec.changes[-1][0] >= len(values):
            # base established before the sender's vector grew (the
            # encoder re-establishes on growth, but a delta encoded
            # just before can arrive after): absent entries are zero
            pad = rec.changes[-1][0] + 1 - len(values)
            values = chan[1] = _np.pad(values, (0, pad))
            epochs += (0,) * pad
        moved = None
        for index, value, epoch in rec.changes:
            values[index] = value
            if epoch != epochs[index]:
                moved = moved or list(epochs)
                moved[index] = epoch
        piggyback = TaggedPiggyback(values.tolist(), moved or epochs)
        piggyback._arr = values.copy()  # the base moves with later deltas
        chan[2] = piggyback.epochs
        return piggyback, rec.send_index


# ----------------------------------------------------------------------
# PWD-family piggybacks (stateless)
# ----------------------------------------------------------------------

#: flags-byte bit: a stability vector follows the determinant list (TEL)
PWD_FLAG_STABLE = 0x01


def encode_pwd_piggyback(piggyback: Any, send_index: int) -> bytes | None:
    """Compressed form of a determinant-increment piggyback; ``None``
    passes through (the pessimistic baseline piggybacks nothing)."""
    if piggyback is None:
        return None
    stable = piggyback.get("stable")
    return wire.pack_uvarints([
        0 if stable is None else PWD_FLAG_STABLE, send_index,
        *wire.determinant_fields(piggyback["dets"]), *(stable or ())])


def decode_pwd_piggyback(blob: bytes, nprocs: int) -> tuple[dict, int]:
    """Inverse of :func:`encode_pwd_piggyback`; returns the piggyback
    dict and the embedded send index."""
    try:
        fields = wire.unpack_uvarints(blob, 1)
        dets, end = wire.take_determinants(fields, 1)
        with_stable = blob[0] & PWD_FLAG_STABLE
        stable = fields[end:]
        if len(stable) != (nprocs if with_stable else 0):
            raise ValueError(f"{len(stable)} fields after the determinants")
    except ValueError as exc:
        raise UndecodablePiggyback(f"malformed record: {exc}") from exc
    piggyback: dict[str, Any] = {"dets": tuple(dets)}
    if with_stable:
        piggyback["stable"] = tuple(stable)
    return piggyback, fields[0]
