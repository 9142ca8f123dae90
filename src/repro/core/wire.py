"""Wire formats for the piggyback payloads.

The simulator ships piggybacks as Python objects and *accounts* their
wire size as ``identifiers x 4 bytes``.  This module provides the actual
codecs a native implementation would use, so that accounting is grounded
rather than asserted:

* TDI: the dependent-interval vector + send index — ``(n + 1)`` unsigned
  32-bit integers while every entry refers to incarnation 0 (any
  failure-free run), growing to ``(2n + 1)`` once a rollback has bumped
  an epoch and the per-entry epoch vector must ride along.  The two
  forms are distinguished by length, so the lightweight claim the paper
  makes (and Fig. 6 measures) is preserved exactly when nothing fails;
* TAG/TEL: a determinant list — 4 identifiers per determinant (receiver,
  deliver_index, sender, send_index), preceded by a count;
* TEL additionally carries its n-entry stability vector.

Round-trip tests pin codec length == the protocols' accounted bytes.

Compressed wire layer (``SimulationConfig(compress_piggybacks=True)``)
----------------------------------------------------------------------
The fixed-width codecs above are linear in the process count on every
send and hard-capped at 32-bit counts.  The varint record family below
removes both limits:

* every integer is an **LEB128 varint** — small counts cost one byte,
  and counts beyond 2^32 (long-running systems) encode fine;
* a **vector record** ships a depend-interval piggyback in one of three
  modes, tagged in a header byte: ``FULL_DENSE`` (all ``n`` entries),
  ``FULL_SPARSE`` (only the entries whose value or epoch is nonzero,
  against an implicit all-zero base), and ``DELTA`` (only the entries
  that changed since the previous record on the same channel, against
  the receiver's reconstructed base).  ``encode_vector_full`` picks
  dense vs sparse exactly (whichever is shorter); the per-channel
  delta-vs-full decision lives in :mod:`repro.protocols.compression`;
* a **determinant record** is the varint form of the determinant list,
  with an optional stability-vector record appended for TEL.

Record layout (header byte = ``mode | flags``):

====================  =================================================
``FULL_DENSE``  (0)   header, [seq], v_0..v_{n-1}, [e_0..e_{n-1}],
                      send_index
``FULL_SPARSE`` (1)   header, [seq], count, count × (gap, value,
                      [epoch]), send_index
``DELTA``       (2)   header, seq, count, count × (gap, value,
                      [epoch]), send_index
====================  =================================================

``FLAG_EPOCHS`` (0x10) marks that per-entry epochs ride along;
``FLAG_STANDALONE`` (0x20) marks a record that neither carries a stream
sequence number nor touches any channel state (log resends).  ``gap``
is the distance from the previous shipped index (first gap = index), so
clustered sparse entries cost one byte each.
"""

from __future__ import annotations

import struct
from typing import NamedTuple, Sequence

from repro.protocols.pwd import Determinant

#: one identifier on the wire (the paper's unit in Fig. 6)
IDENTIFIER_BYTES = 4
_U32_MAX = (1 << 32) - 1


def _check_u32(values: Sequence[int]) -> None:
    for v in values:
        if not (0 <= v <= _U32_MAX):
            raise ValueError(f"identifier {v} does not fit in 32 bits")


# ----------------------------------------------------------------------
# TDI: vector + send index
# ----------------------------------------------------------------------

def encode_tdi(vector: Sequence[int], send_index: int,
               epochs: Sequence[int] | None = None) -> bytes:
    """Serialise a TDI piggyback.

    ``epochs`` defaults to the vector's own ``epochs`` attribute when it
    is a :class:`~repro.core.vectors.TaggedPiggyback`.  All-zero epochs
    (no incarnation past the first anywhere in the entries) use the
    paper's compact ``n + 1`` form; otherwise the epoch vector is
    appended before the send index — ``2n + 1`` identifiers.
    """
    if epochs is None:
        epochs = getattr(vector, "epochs", None)
    values = list(vector)
    if epochs is not None and any(epochs):
        if len(epochs) != len(values):
            raise ValueError(
                f"epoch vector length {len(epochs)} != vector length "
                f"{len(values)}")
        values += list(epochs)
    values.append(send_index)
    _check_u32(values)
    return struct.pack(f"<{len(values)}I", *values)


def decode_tdi(data: bytes, nprocs: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Inverse of :func:`encode_tdi`; returns (vector, epochs, send_index).

    The two wire forms are distinguished by length: ``n + 1`` words is
    the compact epoch-0 form, ``2n + 1`` words carries explicit epochs.
    """
    compact = (nprocs + 1) * IDENTIFIER_BYTES
    tagged = (2 * nprocs + 1) * IDENTIFIER_BYTES
    if len(data) == compact:
        values = struct.unpack(f"<{nprocs + 1}I", data)
        return values[:nprocs], (0,) * nprocs, values[nprocs]
    if len(data) == tagged:
        values = struct.unpack(f"<{2 * nprocs + 1}I", data)
        return values[:nprocs], values[nprocs:2 * nprocs], values[2 * nprocs]
    raise ValueError(
        f"TDI piggyback is {len(data)} bytes, expected {compact} (compact) "
        f"or {tagged} (epoch-tagged)")


def tdi_wire_bytes(nprocs: int, tagged: bool = False) -> int:
    """Encoded size of a TDI piggyback — ``n + 1`` identifiers in the
    compact form, ``2n + 1`` once epoch tagging is active."""
    n_identifiers = 2 * nprocs + 1 if tagged else nprocs + 1
    return n_identifiers * IDENTIFIER_BYTES


# ----------------------------------------------------------------------
# Determinant lists (TAG, TEL, and the event-logger traffic)
# ----------------------------------------------------------------------

def encode_determinants(dets: Sequence[Determinant]) -> bytes:
    """Serialise a determinant list: count + 4 u32 per determinant."""
    flat: list[int] = [len(dets)]
    for det in dets:
        flat.extend((det.receiver, det.deliver_index, det.sender, det.send_index))
    _check_u32(flat)
    return struct.pack(f"<{len(flat)}I", *flat)


def decode_determinants(data: bytes) -> list[Determinant]:
    """Inverse of :func:`encode_determinants`."""
    if len(data) < IDENTIFIER_BYTES:
        raise ValueError("determinant list missing its count header")
    (count,) = struct.unpack_from("<I", data)
    expected = (1 + 4 * count) * IDENTIFIER_BYTES
    if len(data) != expected:
        raise ValueError(
            f"determinant list is {len(data)} bytes, expected {expected} for "
            f"{count} determinants"
        )
    values = struct.unpack_from(f"<{4 * count}I", data, IDENTIFIER_BYTES)
    return [
        Determinant(*values[4 * i: 4 * i + 4])
        for i in range(count)
    ]


def determinants_wire_bytes(count: int) -> int:
    """Encoded size of a determinant list (excl. the count header, which
    the protocols' accounting folds into the frame header)."""
    return 4 * count * IDENTIFIER_BYTES


# ----------------------------------------------------------------------
# TEL: determinants + stability vector + send index
# ----------------------------------------------------------------------

def encode_tel(dets: Sequence[Determinant], stable: Sequence[int],
               send_index: int) -> bytes:
    """Serialise a TEL piggyback."""
    head = encode_determinants(dets)
    tail_values = list(stable) + [send_index]
    _check_u32(tail_values)
    return head + struct.pack(f"<{len(tail_values)}I", *tail_values)


def decode_tel(data: bytes, nprocs: int) -> tuple[list[Determinant], tuple[int, ...], int]:
    """Inverse of :func:`encode_tel`."""
    (count,) = struct.unpack_from("<I", data)
    det_bytes = (1 + 4 * count) * IDENTIFIER_BYTES
    dets = decode_determinants(data[:det_bytes])
    tail = struct.unpack(f"<{nprocs + 1}I", data[det_bytes:])
    return dets, tail[:nprocs], tail[nprocs]


# ======================================================================
# Compressed wire layer: varints
# ======================================================================

def encode_uvarint(value: int) -> bytes:
    """LEB128: 7 value bits per byte, high bit = continuation."""
    if value < 0:
        raise ValueError(f"identifier {value} is negative")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Inverse of :func:`encode_uvarint`; returns (value, next_offset)."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise ValueError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


def uvarint_len(value: int) -> int:
    """Encoded length of one varint, without building it."""
    if value < 0:
        raise ValueError(f"identifier {value} is negative")
    length = 1
    while value > 0x7F:
        value >>= 7
        length += 1
    return length


# ----------------------------------------------------------------------
# Vector records (depend-interval piggybacks)
# ----------------------------------------------------------------------

#: header-byte modes
FULL_DENSE = 0
FULL_SPARSE = 1
DELTA = 2
_MODE_MASK = 0x0F
#: per-entry epochs ride along (any shipped epoch is nonzero)
FLAG_EPOCHS = 0x10
#: record carries no stream seq and must not touch channel state (resends)
FLAG_STANDALONE = 0x20
#: an explicit vector length follows the header (dynamic membership: a
#: sender's horizon may differ from the receiver's capacity, so a FULL
#: record names its own length instead of trusting the caller's nprocs)
FLAG_COUNTED = 0x40


class VectorRecord(NamedTuple):
    """One decoded vector record (either full form or a delta)."""

    mode: int
    standalone: bool
    #: stream position on the channel (None for standalone records)
    seq: int | None
    send_index: int
    #: FULL modes: the complete value/epoch tuples; DELTA: None
    values: tuple | None
    epochs: tuple | None
    #: DELTA mode: sorted ``(index, value, epoch)`` changes; FULL: None
    changes: tuple | None


def _encode_entries(out: bytearray, entries: Sequence[tuple[int, int, int]],
                    with_epochs: bool) -> None:
    out += encode_uvarint(len(entries))
    prev = -1
    for index, value, epoch in entries:
        out += encode_uvarint(index - prev - 1 if prev >= 0 else index)
        out += encode_uvarint(value)
        if with_epochs:
            out += encode_uvarint(epoch)
        prev = index


def _decode_entries(data: bytes, offset: int, with_epochs: bool,
                    ) -> tuple[list[tuple[int, int, int]], int]:
    count, offset = decode_uvarint(data, offset)
    entries: list[tuple[int, int, int]] = []
    index = -1
    for _ in range(count):
        gap, offset = decode_uvarint(data, offset)
        index = index + gap + 1 if index >= 0 else gap
        value, offset = decode_uvarint(data, offset)
        epoch = 0
        if with_epochs:
            epoch, offset = decode_uvarint(data, offset)
        entries.append((index, value, epoch))
    return entries, offset


def encode_vector_full(values: Sequence[int], epochs: Sequence[int],
                       send_index: int, *, seq: int | None = None) -> bytes:
    """A self-contained vector record: dense or sparse, whichever is
    shorter (exact — both bodies are built and the minimum wins).

    ``seq=None`` produces a standalone record (``FLAG_STANDALONE``) that
    receivers decode without consulting or updating channel state — the
    form every log resend uses.
    """
    n = len(values)
    if len(epochs) != n:
        raise ValueError(f"epoch vector length {len(epochs)} != {n}")
    with_epochs = any(epochs)
    flags = FLAG_COUNTED | (FLAG_EPOCHS if with_epochs else 0) | (
        FLAG_STANDALONE if seq is None else 0)
    head = bytearray(encode_uvarint(n))
    if seq is not None:
        head += encode_uvarint(seq)
    tail = encode_uvarint(send_index)

    dense = bytearray([FULL_DENSE | flags])
    dense += head
    for v in values:
        dense += encode_uvarint(v)
    if with_epochs:
        for e in epochs:
            dense += encode_uvarint(e)
    dense += tail

    sparse = bytearray([FULL_SPARSE | flags])
    sparse += head
    entries = [(i, int(values[i]), int(epochs[i]))
               for i in range(n) if values[i] or epochs[i]]
    _encode_entries(sparse, entries, with_epochs)
    sparse += tail
    return bytes(sparse) if len(sparse) < len(dense) else bytes(dense)


def encode_vector_delta(changes: Sequence[tuple[int, int, int]],
                        send_index: int, seq: int) -> bytes:
    """A delta record against the receiver's per-channel base: only the
    ``(index, value, epoch)`` entries that changed since the previous
    record on this channel, O(changed) to build."""
    with_epochs = any(epoch for _, _, epoch in changes)
    out = bytearray([DELTA | (FLAG_EPOCHS if with_epochs else 0)])
    out += encode_uvarint(seq)
    _encode_entries(out, changes, with_epochs)
    out += encode_uvarint(send_index)
    return bytes(out)


def decode_vector_record(data: bytes, nprocs: int) -> VectorRecord:
    """Parse one vector record (any mode).  Raises ``ValueError`` on a
    malformed record; reconstruction against channel state happens in
    :mod:`repro.protocols.compression`."""
    if not data:
        raise ValueError("empty vector record")
    header = data[0]
    mode = header & _MODE_MASK
    with_epochs = bool(header & FLAG_EPOCHS)
    standalone = bool(header & FLAG_STANDALONE)
    offset = 1
    seq = None
    if mode == DELTA and standalone:
        raise ValueError("delta records cannot be standalone")
    if header & FLAG_COUNTED:
        # the record names its own vector length; ``nprocs`` sizes the
        # ones that carry no count
        nprocs, offset = decode_uvarint(data, offset)
        if nprocs < 1:
            raise ValueError("counted record with zero-length vector")
    if not standalone:
        seq, offset = decode_uvarint(data, offset)
    if mode == FULL_DENSE:
        values = []
        for _ in range(nprocs):
            v, offset = decode_uvarint(data, offset)
            values.append(v)
        epochs = [0] * nprocs
        if with_epochs:
            epochs = []
            for _ in range(nprocs):
                e, offset = decode_uvarint(data, offset)
                epochs.append(e)
        send_index, offset = decode_uvarint(data, offset)
        if offset != len(data):
            raise ValueError(f"{len(data) - offset} trailing bytes")
        return VectorRecord(mode, standalone, seq, send_index,
                            tuple(values), tuple(epochs), None)
    if mode == FULL_SPARSE:
        entries, offset = _decode_entries(data, offset, with_epochs)
        send_index, offset = decode_uvarint(data, offset)
        if offset != len(data):
            raise ValueError(f"{len(data) - offset} trailing bytes")
        values = [0] * nprocs
        epochs = [0] * nprocs
        for index, value, epoch in entries:
            if index >= nprocs:
                raise ValueError(f"sparse index {index} >= nprocs {nprocs}")
            values[index] = value
            epochs[index] = epoch
        return VectorRecord(mode, standalone, seq, send_index,
                            tuple(values), tuple(epochs), None)
    if mode == DELTA:
        entries, offset = _decode_entries(data, offset, with_epochs)
        send_index, offset = decode_uvarint(data, offset)
        if offset != len(data):
            raise ValueError(f"{len(data) - offset} trailing bytes")
        for index, _, _ in entries:
            if index >= nprocs:
                raise ValueError(f"delta index {index} >= nprocs {nprocs}")
        return VectorRecord(mode, standalone, seq, send_index,
                            None, None, tuple(entries))
    raise ValueError(f"unknown vector-record mode {mode}")


# ----------------------------------------------------------------------
# Determinant records (TAG / TEL / PART compressed piggybacks)
# ----------------------------------------------------------------------

def encode_determinants_varint(dets: Sequence[Determinant]) -> bytes:
    """Varint determinant list: count + 4 varints per determinant.  No
    32-bit ceiling, and small indexes (the common case) cost one byte."""
    out = bytearray()
    out += encode_uvarint(len(dets))
    for det in dets:
        out += encode_uvarint(det.receiver)
        out += encode_uvarint(det.deliver_index)
        out += encode_uvarint(det.sender)
        out += encode_uvarint(det.send_index)
    return bytes(out)


def decode_determinants_varint(data: bytes, offset: int = 0,
                               ) -> tuple[list[Determinant], int]:
    """Inverse of :func:`encode_determinants_varint`; returns
    (determinants, next_offset)."""
    count, offset = decode_uvarint(data, offset)
    dets: list[Determinant] = []
    for _ in range(count):
        receiver, offset = decode_uvarint(data, offset)
        deliver_index, offset = decode_uvarint(data, offset)
        sender, offset = decode_uvarint(data, offset)
        send_index, offset = decode_uvarint(data, offset)
        dets.append(Determinant(receiver, deliver_index, sender, send_index))
    return dets, offset
