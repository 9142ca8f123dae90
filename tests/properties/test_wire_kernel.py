"""The batch LEB128 kernel writes and reads the per-value codec's bytes.

``repro.core.wire`` lays a record out as one list of integers and packs
it in one call, and takes both size decisions (dense vs sparse, delta vs
full) from computed sizes.  Its contract is that no byte and no decode
outcome moves: the codec it replaced — one ``encode_uvarint`` call per
value, both candidate bodies built and the shorter kept — is kept here,
verbatim, as the reference.  The one deliberate difference is marked
``# PR 15`` below: a counted vector length above the receiver's
capacity is malformed (the reference allocated whatever the wire said).
"""

from hypothesis import given, strategies as st

import numpy as np
import pytest

from repro.core import wire
from repro.core.vectors import DependIntervalVector, _zero_epochs
from repro.protocols.compression import (
    PWD_FLAG_STABLE,
    UndecodablePiggyback,
    VectorDeltaEncoder,
    decode_pwd_piggyback,
    encode_pwd_piggyback,
)
from repro.protocols.pwd import Determinant


# ----------------------------------------------------------------------
# Reference: the parent commit's codec
# ----------------------------------------------------------------------

def encode_uvarint(value):
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


def decode_uvarint(data, offset=0):
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


def _encode_entries(out, entries, with_epochs):
    out += encode_uvarint(len(entries))
    prev = -1
    for index, value, epoch in entries:
        out += encode_uvarint(index - prev - 1 if prev >= 0 else index)
        out += encode_uvarint(value)
        if with_epochs:
            out += encode_uvarint(epoch)
        prev = index


def _decode_entries(data, offset, with_epochs):
    count, offset = decode_uvarint(data, offset)
    entries = []
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


def reference_full_bodies(values, epochs, send_index, seq=None):
    """Both candidate records, (dense, sparse)."""
    n = len(values)
    if len(epochs) != n:
        raise ValueError(f"epoch vector length {len(epochs)} != {n}")
    with_epochs = any(epochs)
    flags = wire.FLAG_COUNTED | (wire.FLAG_EPOCHS if with_epochs else 0) | (
        wire.FLAG_STANDALONE if seq is None else 0)
    head = bytearray(encode_uvarint(n))
    if seq is not None:
        head += encode_uvarint(seq)
    tail = encode_uvarint(send_index)

    dense = bytearray([wire.FULL_DENSE | flags])
    dense += head
    for v in values:
        dense += encode_uvarint(v)
    if with_epochs:
        for e in epochs:
            dense += encode_uvarint(e)
    dense += tail

    sparse = bytearray([wire.FULL_SPARSE | flags])
    sparse += head
    entries = [(i, int(values[i]), int(epochs[i]))
               for i in range(n) if values[i] or epochs[i]]
    _encode_entries(sparse, entries, with_epochs)
    sparse += tail
    return bytes(dense), bytes(sparse)


def reference_full(values, epochs, send_index, seq=None):
    dense, sparse = reference_full_bodies(values, epochs, send_index, seq)
    return sparse if len(sparse) < len(dense) else dense


def reference_delta(changes, send_index, seq):
    with_epochs = any(epoch for _, _, epoch in changes)
    out = bytearray([wire.DELTA | (wire.FLAG_EPOCHS if with_epochs else 0)])
    out += encode_uvarint(seq)
    _encode_entries(out, changes, with_epochs)
    out += encode_uvarint(send_index)
    return bytes(out)


def reference_decode(data, nprocs):
    if not data:
        raise ValueError("empty vector record")
    header = data[0]
    mode = header & 0x0F
    with_epochs = bool(header & wire.FLAG_EPOCHS)
    standalone = bool(header & wire.FLAG_STANDALONE)
    offset = 1
    seq = None
    if mode == wire.DELTA and standalone:
        raise ValueError("delta records cannot be standalone")
    if header & wire.FLAG_COUNTED:
        capacity = nprocs
        nprocs, offset = decode_uvarint(data, offset)
        if nprocs < 1:
            raise ValueError("counted record with zero-length vector")
        if nprocs > capacity:  # PR 15
            raise ValueError("counted record longer than the capacity")
    if not standalone:
        seq, offset = decode_uvarint(data, offset)
    if mode == wire.FULL_DENSE:
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
        return wire.VectorRecord(mode, standalone, seq, send_index,
                                 tuple(values), tuple(epochs), None)
    if mode == wire.FULL_SPARSE:
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
        return wire.VectorRecord(mode, standalone, seq, send_index,
                                 tuple(values), tuple(epochs), None)
    if mode == wire.DELTA:
        entries, offset = _decode_entries(data, offset, with_epochs)
        send_index, offset = decode_uvarint(data, offset)
        if offset != len(data):
            raise ValueError(f"{len(data) - offset} trailing bytes")
        for index, _, _ in entries:
            if index >= nprocs:
                raise ValueError(f"delta index {index} >= nprocs {nprocs}")
        return wire.VectorRecord(mode, standalone, seq, send_index,
                                 None, None, tuple(entries))
    raise ValueError(f"unknown vector-record mode {mode}")


def reference_encode_pwd(piggyback, send_index):
    stable = piggyback.get("stable")
    out = bytearray([PWD_FLAG_STABLE if stable is not None else 0])
    out += encode_uvarint(send_index)
    out += encode_uvarint(len(piggyback["dets"]))
    for det in piggyback["dets"]:
        for field in det:
            out += encode_uvarint(field)
    if stable is not None:
        for entry in stable:
            out += encode_uvarint(entry)
    return bytes(out)


def reference_decode_pwd(blob, nprocs):
    try:
        flags = blob[0]
        send_index, offset = decode_uvarint(blob, 1)
        count, offset = decode_uvarint(blob, offset)
        dets = []
        for _ in range(count):
            fields = []
            for _ in range(4):
                field, offset = decode_uvarint(blob, offset)
                fields.append(field)
            dets.append(Determinant(*fields))
        piggyback = {"dets": tuple(dets)}
        if flags & PWD_FLAG_STABLE:
            stable = []
            for _ in range(nprocs):
                entry, offset = decode_uvarint(blob, offset)
                stable.append(entry)
            piggyback["stable"] = tuple(stable)
        if offset != len(blob):
            raise ValueError(f"{len(blob) - offset} trailing bytes")
    except (ValueError, IndexError) as exc:
        raise UndecodablePiggyback(f"malformed record: {exc}") from exc
    return piggyback, send_index


class ReferenceEncoder:
    """The parent's ``VectorDeltaEncoder.encode``: the delta is built,
    and past ``n + 3`` bytes so is the full record, to compare lengths."""

    def __init__(self, vector):
        self.vector = vector
        self._channels = {}
        self._ever = set()

    def encode(self, dest, piggyback, send_index):
        clock = self.vector.change_clock
        n = len(piggyback)
        chan = self._channels.get(dest)
        if chan is None:
            blob = reference_full(tuple(piggyback), piggyback.epochs,
                                  send_index, seq=0)
            self._channels[dest] = [clock, 0]
            fell_back = dest in self._ever
            self._ever.add(dest)
            return blob, fell_back
        watermark, seq = chan
        seq += 1
        changed = self.vector.delta_since(watermark)
        changes = tuple(
            (k, piggyback[k], piggyback.epochs[k]) for k in changed)
        blob = reference_delta(changes, send_index, seq)
        fell_back = False
        if len(blob) >= n + 3:
            full = reference_full(tuple(piggyback), piggyback.epochs,
                                  send_index, seq=seq)
            if len(full) <= len(blob):
                blob = full
                fell_back = True
        chan[0] = clock
        chan[1] = seq
        return blob, fell_back


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: every varint length boundary the issue names, and the fast-path edge
EDGES = (0, 1, 127, 128, 255, 256, 1 << 14, 1 << 32, (1 << 63) - 1)
identifiers = st.one_of(st.sampled_from(EDGES), st.integers(0, 200),
                        st.integers(0, (1 << 63) - 1))
small = st.integers(0, 127)
lengths = st.one_of(st.integers(1, 12), st.sampled_from((127, 128, 129, 600)),
                    st.integers(1, 600))


@st.composite
def vectors(draw, entry=identifiers):
    """A length-n list: one background value with a handful of entries
    overridden — all-zero-but-a-few (sparse wins), all-hot (dense wins)
    and the boundary in between, at any n without drawing n integers."""
    n = draw(lengths)
    out = [draw(st.one_of(st.just(0), entry))] * n
    spots = draw(st.lists(st.tuples(st.integers(0, n - 1), entry),
                          max_size=12))
    for index, value in spots:
        out[index] = value
    return out


@st.composite
def full_records(draw):
    """(values, epochs, send_index, seq) of one full record."""
    values = draw(vectors(draw(st.sampled_from((identifiers, small)))))
    epochs = [0] * len(values)
    if draw(st.booleans()):
        spots = st.tuples(st.integers(0, len(values) - 1),
                          st.one_of(st.integers(0, 3), identifiers))
        for index, epoch in draw(st.lists(spots, max_size=6)):
            epochs[index] = epoch
    seq = draw(st.one_of(st.none(), identifiers))
    return values, epochs, draw(identifiers), seq


@st.composite
def delta_records(draw):
    """(changes, send_index, seq, nprocs) of one delta record."""
    n = draw(lengths)
    indices = sorted(draw(st.sets(st.integers(0, n - 1), max_size=24)))
    entry = draw(st.sampled_from((identifiers, small)))
    tagged = draw(st.booleans())
    changes = tuple(
        (k, draw(entry), draw(st.integers(0, 3)) if tagged else 0)
        for k in indices)
    return changes, draw(identifiers), draw(identifiers), n


determinants = st.lists(
    st.builds(Determinant, small, identifiers, small, identifiers), max_size=8)


def mutations(draw, blob):
    """``blob`` itself, a truncation and a byte flip of it."""
    cut = draw(st.integers(0, len(blob)))
    spot = draw(st.integers(0, len(blob) - 1))
    flip = draw(st.integers(1, 255))
    return (blob, blob[:cut],
            blob[:spot] + bytes([blob[spot] ^ flip]) + blob[spot + 1:])


def outcome(decode, *args):
    """What a decoder did: its result, or the error class it raised."""
    try:
        return decode(*args)
    except (ValueError, UndecodablePiggyback) as exc:
        return type(exc)


# ----------------------------------------------------------------------
# Kernel
# ----------------------------------------------------------------------

#: longer than one kernel run, narrow with the odd wide field in between
field_lists = st.one_of(
    st.lists(identifiers, max_size=40),
    st.lists(st.one_of(small, small, small, identifiers), max_size=300))


@given(field_lists, st.integers(0, 3))
def test_kernel_is_the_per_value_loop(values, offset):
    data = wire.pack_uvarints(values)
    assert data == b"".join(map(encode_uvarint, values))
    assert wire.uvarints_size(values) == len(data)
    assert wire.unpack_uvarints(b"\xff" * offset + data, offset) == values


@given(field_lists, st.integers(-(1 << 63), -1), st.data())
def test_negative_anywhere_is_rejected(values, negative, data):
    values.insert(data.draw(st.integers(0, len(values))), negative)
    with pytest.raises(ValueError, match="negative"):
        wire.pack_uvarints(values)


@given(st.one_of(
    st.binary(max_size=40),
    st.lists(st.one_of(small, small, small, st.integers(0, 255)),
             max_size=300).map(bytes)))
def test_unpack_is_the_per_value_loop(data):
    def reference():
        out, offset = [], 0
        while offset < len(data):
            value, offset = decode_uvarint(data, offset)
            out.append(value)
        return out

    assert outcome(wire.unpack_uvarints, data) == outcome(reference)


# ----------------------------------------------------------------------
# Vector records
# ----------------------------------------------------------------------

@given(full_records(), st.data())
def test_full_record_bytes_and_decode(record, data):
    values, epochs, send_index, seq = record
    dense, sparse = reference_full_bodies(values, epochs, send_index, seq)
    blob = wire.encode_vector_full(values, epochs, send_index, seq=seq)
    # sized, not built: the winner is the one building both would keep
    assert blob == (sparse if len(sparse) < len(dense) else dense)
    parts, size = wire.vector_full_fields(values, epochs, send_index, seq)
    assert size == sum(map(wire.uvarints_size, parts)) == len(blob)
    assert wire.vector_full_size(np.array(values, dtype=np.int64), epochs,
                                 send_index, seq) == len(blob)
    if not any(epochs):  # the shared zero tuple skips the epoch scan
        assert blob == wire.encode_vector_full(
            tuple(values), _zero_epochs(len(values)), send_index, seq=seq)
        assert wire.decode_vector_record(blob, len(values)).epochs \
            is _zero_epochs(len(values))
    capacity = len(values) + data.draw(st.integers(0, 2))
    for bad in mutations(data.draw, blob):
        assert outcome(wire.decode_vector_record, bad, capacity) \
            == outcome(reference_decode, bad, capacity)
    assert wire.decode_vector_record(blob, capacity).values == tuple(values)


@given(delta_records(), st.data())
def test_delta_record_bytes_and_decode(record, data):
    changes, send_index, seq, n = record
    blob = wire.encode_vector_delta(changes, send_index, seq)
    assert blob == reference_delta(changes, send_index, seq)
    values, epochs = [0] * n, [0] * n
    for index, value, epoch in changes:
        values[index], epochs[index] = value, epoch
    assert wire.vector_delta_size(values, epochs, [k for k, _, _ in changes],
                                  send_index, seq) == len(blob)
    for bad in mutations(data.draw, blob):
        assert outcome(wire.decode_vector_record, bad, n) \
            == outcome(reference_decode, bad, n)
    assert wire.decode_vector_record(blob, n).changes == changes


@given(st.binary(min_size=1, max_size=24), st.integers(1, 16))
def test_arbitrary_bytes_decode_alike(data, nprocs):
    assert outcome(wire.decode_vector_record, data, nprocs) \
        == outcome(reference_decode, data, nprocs)


@given(st.sampled_from((1, 2, 3, 8, 40, 130, 600)), st.data())
def test_delta_vs_full_agrees_with_building_both(n, data):
    """One vector, both encoders: every record and every ``fell_back``
    is what the parent's build-and-compare produced."""
    vector = DependIntervalVector(n, owner=0)
    new = VectorDeltaEncoder(vector)
    old = ReferenceEncoder(vector)
    entry = data.draw(st.sampled_from((identifiers, small)))
    for send_index in range(1, data.draw(st.integers(1, 8)) + 1):
        vector.advance_own()
        gossip = [data.draw(st.one_of(st.just(0), entry))] * n
        for index, value in data.draw(st.lists(
                st.tuples(st.integers(0, n - 1), entry), max_size=6)):
            gossip[index] = value
        vector.merge(gossip)
        if data.draw(st.integers(0, 9)) == 0:
            vector.observe_rollback(n - 1, data.draw(small), send_index)
        dest = data.draw(st.integers(0, 2))
        piggyback = vector.as_piggyback()
        record, fell_back = new.encode(dest, piggyback, send_index)
        assert (bytes(record), fell_back) \
            == old.encode(dest, piggyback, send_index)
        assert len(record) == len(bytes(record))


# ----------------------------------------------------------------------
# Determinant records (TAG; TEL with its stability vector)
# ----------------------------------------------------------------------

@given(determinants, st.one_of(st.none(), st.lists(identifiers, min_size=5,
                                                   max_size=5)),
       identifiers, st.data())
def test_determinant_record_bytes_and_decode(dets, stable, send_index, data):
    piggyback = {"dets": tuple(dets)}
    if stable is not None:
        piggyback["stable"] = tuple(stable)
    blob = encode_pwd_piggyback(piggyback, send_index)
    assert blob == reference_encode_pwd(piggyback, send_index)
    for bad in mutations(data.draw, blob):
        assert outcome(decode_pwd_piggyback, bad, 5) \
            == outcome(reference_decode_pwd, bad, 5)
    assert decode_pwd_piggyback(blob, 5) == (piggyback, send_index)
