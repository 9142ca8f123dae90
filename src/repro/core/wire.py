"""Wire format of the compressed piggybacks.

The simulator ships piggybacks as Python objects and *accounts* their
raw size as ``identifiers x costs.IDENTIFIER_BYTES`` — ``n + 1``
identifiers for a TDI vector plus send index (``2n + 1`` once a rollback
has bumped an epoch and the epoch vector rides along), 4 per determinant
for TAG/TEL — which is the quantity Fig. 6 plots.  With
``SimulationConfig(compress_piggybacks=True)`` the bytes on the wire are
the varint records below instead, neither linear in the process count
nor capped at 32-bit counts:

* every integer is an **LEB128 varint** — small counts cost one byte,
  and counts beyond 2^32 (long-running systems) encode fine;
* a **vector record** ships a depend-interval piggyback in one of three
  modes, tagged in a header byte: ``FULL_DENSE`` (all ``n`` entries),
  ``FULL_SPARSE`` (only the entries whose value or epoch is nonzero,
  against an implicit all-zero base), and ``DELTA`` (only the entries
  that changed since the previous record on the same channel, against
  the receiver's reconstructed base).  A full record is dense or sparse,
  whichever is shorter (sparse only when strictly so); the per-channel
  delta-vs-full decision lives in :mod:`repro.protocols.compression`;
* a **determinant record** (:mod:`repro.protocols.compression`) is a
  flags byte, the send index and :func:`determinant_fields`, with TEL's
  stability vector appended.

Record layout (header byte = ``mode | flags``):

====================  =================================================
``FULL_DENSE``  (0)   header, [n], [seq], v_0..v_{n-1},
                      [e_0..e_{n-1}], send_index
``FULL_SPARSE`` (1)   header, [n], [seq], count, count × (gap, value,
                      [epoch]), send_index
``DELTA``       (2)   header, seq, count, count × (gap, value,
                      [epoch]), send_index
====================  =================================================

``FLAG_EPOCHS`` (0x10) marks that per-entry epochs ride along;
``FLAG_STANDALONE`` (0x20) marks a record that neither carries a stream
sequence number nor touches any channel state (log resends);
``FLAG_COUNTED`` (0x40) marks that the vector length ``n`` follows the
header — every full record the encoder writes carries it, since under
dynamic membership the sender's horizon need not be the receiver's
capacity.  ``gap`` is the distance from the previous shipped index
(first gap = index), so clustered sparse entries cost one byte each.

One kernel
----------
A record is a flat list of integers first and bytes second: each codec
lays its fields out in order (header byte included — it is below 128,
so it is its own varint) and :func:`pack_uvarints` turns the list into
bytes in one call; :func:`unpack_uvarints` is the inverse, and the
decoders check the field count against the layout instead of walking
offsets.  When every field is below 128 — short-lived runs, and a sparse
ring however wide — each direction is a single C call
(``bytes(fields)`` / ``list(data)``).  Otherwise the list is taken in
runs of 64: a run that is all narrow still goes through C, and only a
run holding a wide field (the vector length of a big cluster, one hot
entry) takes the per-value LEB128 loop, which exists once per
direction.  What stays per-entry Python is O(entries shipped): the gap
arithmetic of sparse and delta entries, and the scatter of a sparse
record into its vector.

A varint's length is a function of its value alone, so
:func:`uvarints_size` gives a field list's packed length without the
encode loop (the field count, when all are narrow).  Both size
decisions are taken that way: dense vs sparse in
:func:`vector_full_fields` (where a count of the nonzero values rules
sparse out before any entry is laid out), and delta vs full in
:mod:`repro.protocols.compression`, where neither candidate is laid out
at all — :func:`vector_full_size` sizes the full record from the
piggyback's ``int64`` array and :func:`vector_delta_size` the delta
from its changed entries — and nothing is packed: a stream record packs
itself only for a receiver that has to parse it.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import or_
from typing import NamedTuple, Sequence

import numpy as _np

from repro.core.vectors import _zero_epochs
from repro.protocols.pwd import Determinant


# ----------------------------------------------------------------------
# The LEB128 kernel
# ----------------------------------------------------------------------

#: general-path granularity: a field list longer than this is packed,
#: sized and unpacked run by run, so a few wide fields (the vector
#: length, one hot entry) among many narrow ones cost their own runs the
#: loop and leave the rest on the C path
_RUN = 64


def _runs(values: Sequence[int]) -> list[Sequence[int]]:
    return [values[i:i + _RUN] for i in range(0, len(values), _RUN)]


def pack_uvarints(values: Sequence[int]) -> bytes:
    """LEB128-encode ``values`` back to back: 7 value bits per byte,
    high bit = continuation.  A negative anywhere is a ``ValueError``."""
    try:
        packed = bytes(values)
        if packed.isascii():  # every value < 128 is its own encoding
            return packed
    except ValueError:  # something is negative or above 255
        pass
    if len(values) > _RUN:
        return b"".join(map(pack_uvarints, _runs(values)))
    out = bytearray()
    append = out.append
    for value in values:
        if value < 0:
            raise ValueError(f"identifier {value} is negative")
        while value > 0x7F:
            append(value & 0x7F | 0x80)
            value >>= 7
        append(value)
    return bytes(out)


def unpack_uvarints(data: bytes, offset: int = 0) -> list[int]:
    """Inverse of :func:`pack_uvarints`: every varint from ``offset`` to
    the end of ``data``.  A last byte that still has its continuation
    bit set is a ``ValueError``."""
    data = data[offset:]
    if data.isascii():
        return list(data)
    out: list[int] = []
    value = shift = 0
    for start in range(0, len(data), _RUN):
        run = data[start:start + _RUN]
        if not shift and run.isascii():
            out += run
            continue
        for byte in run:
            if byte & 0x80:
                value |= (byte & 0x7F) << shift
                shift += 7
            else:
                out.append(value | byte << shift)
                value = shift = 0
    if shift:
        raise ValueError("truncated varint")
    return out


def uvarints_size(values: Sequence[int]) -> int:
    """``len(pack_uvarints(values))`` without the encode loop (exact for
    the non-negative values the kernel accepts)."""
    try:
        if bytes(values).isascii():
            return len(values)
    except ValueError:
        pass
    if len(values) > _RUN:
        return sum(map(uvarints_size, _runs(values)))
    return len(values) + sum(
        [(value.bit_length() - 1) // 7 for value in values if value > 0x7F])


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


def _entry_fields(entries: Sequence[tuple[int, int, int]],
                  ) -> tuple[list[int], int]:
    """``count, count x (gap, value, [epoch])`` for ``(index, value,
    epoch)`` entries in ascending index order, and ``FLAG_EPOCHS`` if
    the epochs ship (any is nonzero) or 0 if they were left out."""
    fields = [len(entries)]
    prev = -1
    for index, value, epoch in entries:
        fields += (index - prev - 1, value, epoch)
        prev = index
    if any(fields[3::3]):
        return fields, FLAG_EPOCHS
    del fields[3::3]
    return fields, 0


def vector_full_fields(values: Sequence[int], epochs: Sequence[int],
                       send_index: int, seq: int | None = None,
                       ) -> tuple[tuple[Sequence[int], ...], int]:
    """The fields of a self-contained vector record — lists to pack back
    to back: one, or a dense narrow body apart from a head whose ``n``
    would take it off the C path — and their packed size: dense or sparse,
    whichever is shorter (exact: both sized, one laid out, none packed).

    ``seq=None`` gives a standalone record (``FLAG_STANDALONE``) that
    receivers decode without consulting or updating channel state — the
    form every log resend uses.
    """
    n = len(values)
    if len(epochs) != n:
        raise ValueError(f"epoch vector length {len(epochs)} != {n}")
    with_epochs = epochs is not _zero_epochs(n) and any(epochs)
    try:
        narrow = bytes(values)
        if narrow.isascii():  # each value its own encoding: what follows
            values = narrow   # counts, sizes and packs them in C
    except ValueError:
        pass
    mode = FULL_DENSE | FLAG_COUNTED | (FLAG_EPOCHS if with_epochs else 0) | (
        FLAG_STANDALONE if seq is None else 0)
    head = [mode, n] if seq is None else [mode, n, seq]
    body = [*values, *epochs] if with_epochs else values
    size = uvarints_size(body)
    # a sparse entry is at least (gap, value) after a count byte, so that
    # many nonzero values rule sparse out before any entry is laid out
    if 1 + 2 * (n - values.count(0)) < size:
        hot = list(map(or_, values, epochs)) if with_epochs else values
        sparse, _ = _entry_fields(list(zip(
            compress(range(n), hot), compress(values, hot),
            compress(epochs, hot))))
        sparse_size = uvarints_size(sparse)
        if sparse_size < size:
            head[0] |= FULL_SPARSE
            body = sparse
            size = sparse_size
    parts = (head, body, (send_index,)) if type(body) is bytes else (
        [*head, *body, send_index],)  # dense and narrow: apart from the head
    return parts, size + uvarints_size((*head, send_index))


def _gaps(indices: Sequence[int]) -> list[int]:
    """The ``gap`` fields of ascending shipped ``indices``."""
    return [k - prev - 1 for prev, k in zip((-1, *indices), indices)]


def _uvarints_size_array(values: _np.ndarray) -> int:
    """:func:`uvarints_size` of a non-negative ``int64`` array, in C: a
    byte per value, and one more per value at or past each 7-bit step."""
    size = len(values)
    top = int(_np.maximum.reduce(values)) if size else 0
    step = 0x80
    while top >= step:
        size += int(_np.count_nonzero(values >= step))
        step <<= 7
    return size


def vector_full_size(values: _np.ndarray, epochs: Sequence[int],
                     send_index: int, seq: int | None = None) -> int:
    """``vector_full_fields(values, epochs, send_index, seq)[1]`` from the
    ``int64`` value array, with a few array operations instead of the
    field layout: the size of the record :func:`encode_vector_full`
    would pack, known before (and without) packing it."""
    n = len(values)
    head = (n, send_index) if seq is None else (n, seq, send_index)
    with_epochs = epochs is not _zero_epochs(n) and any(epochs)
    epoch_arr = _np.array(epochs, dtype=_np.int64) if with_epochs else None
    size = _uvarints_size_array(values)
    if with_epochs:
        size += _uvarints_size_array(epoch_arr)
    # the dense-vs-sparse rule of vector_full_fields, shortcut included
    if 1 + 2 * int(_np.count_nonzero(values)) < size:
        hot = (values | epoch_arr if with_epochs else values).nonzero()[0]
        sparse = [len(hot), *values[hot].tolist()]
        if with_epochs:
            sparse += epoch_arr[hot].tolist()
        sparse += _gaps(hot.tolist())
        size = min(size, uvarints_size(sparse))
    return 1 + size + uvarints_size(head)  # the header byte is below 128


def encode_vector_full(values: Sequence[int], epochs: Sequence[int],
                       send_index: int, *, seq: int | None = None) -> bytes:
    """:func:`vector_full_fields`, packed."""
    return b"".join(map(pack_uvarints, vector_full_fields(
        values, epochs, send_index, seq)[0]))


def vector_delta_size(values: Sequence[int], epochs: Sequence[int],
                      changed: Sequence[int], send_index: int,
                      seq: int) -> int:
    """``len(encode_vector_delta(...))`` for the delta of the ascending
    ``changed`` entries of ``values`` / ``epochs``, without laying its
    fields out: the field sizes add up in any order."""
    fields = [seq, len(changed), send_index, *_gaps(changed)]
    fields += [values[k] for k in changed]
    if epochs is not _zero_epochs(len(epochs)):
        shipped = [epochs[k] for k in changed]
        if any(shipped):  # else they are left out, as _entry_fields does
            fields += shipped
    return 1 + uvarints_size(fields)  # the header byte is below 128


def encode_vector_delta(changes: Sequence[tuple[int, int, int]],
                        send_index: int, seq: int) -> bytes:
    """A delta record against the receiver's per-channel base: only the
    ``(index, value, epoch)`` entries that changed since the previous
    record on this channel, O(changed) to build."""
    entries, flag = _entry_fields(changes)
    return pack_uvarints([DELTA | flag, seq, *entries, send_index])


def decode_vector_record(data: bytes, nprocs: int) -> VectorRecord:
    """Parse one vector record (any mode).  ``nprocs`` is the receiver's
    capacity: it sizes a record that carries no count and bounds one
    that does.  Raises ``ValueError`` on a malformed record;
    reconstruction against channel state happens in
    :mod:`repro.protocols.compression`."""
    if not data:
        raise ValueError("empty vector record")
    header = data[0]
    mode = header & _MODE_MASK
    with_epochs = bool(header & FLAG_EPOCHS)
    standalone = bool(header & FLAG_STANDALONE)
    if mode == DELTA and standalone:
        raise ValueError("delta records cannot be standalone")
    fields = unpack_uvarints(data, 1)
    counted = bool(header & FLAG_COUNTED)
    start = counted + (not standalone)
    if len(fields) <= start:
        raise ValueError("truncated vector record")
    if counted:
        if not 1 <= fields[0] <= nprocs:
            raise ValueError(f"counted vector length {fields[0]} outside "
                             f"1..{nprocs}")
        nprocs = fields[0]
    seq = None if standalone else fields[start - 1]
    send_index = fields[-1]
    body = fields[start:-1]
    if mode == FULL_DENSE:
        if len(body) != (2 if with_epochs else 1) * nprocs:
            raise ValueError(f"dense body of {len(body)} fields for a "
                             f"vector of {nprocs}")
        return VectorRecord(
            mode, standalone, seq, send_index, tuple(body[:nprocs]),
            tuple(body[nprocs:]) if with_epochs else _zero_epochs(nprocs),
            None)
    if mode not in (FULL_SPARSE, DELTA):
        raise ValueError(f"unknown vector-record mode {mode}")
    stride = 3 if with_epochs else 2
    if not body or len(body) != 1 + stride * body[0]:
        raise ValueError(f"{len(body)} entry fields do not hold the "
                         f"count they open with")
    entries = []
    index = -1
    for at in range(1, len(body), stride):
        index += body[at] + 1
        entries.append(
            (index, body[at + 1], body[at + 2] if with_epochs else 0))
    if index >= nprocs:
        raise ValueError(f"entry index {index} >= nprocs {nprocs}")
    if mode == DELTA:
        return VectorRecord(mode, standalone, seq, send_index, None, None,
                            tuple(entries))
    values = [0] * nprocs
    epochs = [0] * nprocs
    for index, value, epoch in entries:
        values[index] = value
        epochs[index] = epoch
    return VectorRecord(
        mode, standalone, seq, send_index, tuple(values),
        tuple(epochs) if with_epochs else _zero_epochs(nprocs), None)


# ----------------------------------------------------------------------
# Determinant lists (TAG / TEL / PART compressed piggybacks)
# ----------------------------------------------------------------------

def determinant_fields(dets: Sequence[Determinant]) -> list[int]:
    """``count, count x (receiver, deliver_index, sender, send_index)``:
    no 32-bit ceiling, and small indexes (the common case) pack into one
    byte each."""
    return [len(dets), *chain.from_iterable(dets)]


def take_determinants(fields: list[int], start: int,
                      ) -> tuple[list[Determinant], int]:
    """Inverse of :func:`determinant_fields` on the list that begins at
    ``fields[start]``; returns (determinants, next_start)."""
    if start >= len(fields):
        raise ValueError("truncated determinant list")
    end = start + 1 + 4 * fields[start]
    if end > len(fields):
        raise ValueError(f"{len(fields) - start - 1} fields for "
                         f"{fields[start]} determinants")
    columns = [fields[start + k:end:4] for k in range(1, 5)]
    return list(map(Determinant, *columns)), end
