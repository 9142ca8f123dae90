"""Wire-codec tests: the LEB128 kernel, record round trips and golden
bytes, and the protocols' accounted (raw) piggyback sizes."""

import pytest
from hypothesis import given, strategies as st

from repro.core import wire
from repro.protocols.compression import (
    UndecodablePiggyback,
    VectorDeltaDecoder,
    decode_pwd_piggyback,
    encode_pwd_piggyback,
)
from repro.protocols.pwd import Determinant
from tests.conftest import app_meta, make_protocol

u32 = st.integers(0, (1 << 32) - 1)
u64plus = st.integers(0, (1 << 70) - 1)
dets_strategy = st.lists(
    st.builds(Determinant, receiver=st.integers(0, 63),
              deliver_index=st.integers(0, 10_000),
              sender=st.integers(0, 63), send_index=st.integers(0, 10_000)),
    max_size=20,
)


class TestUvarint:
    @given(st.lists(u64plus, max_size=12))
    def test_roundtrip(self, values):
        data = wire.pack_uvarints(values)
        assert wire.unpack_uvarints(data) == values
        assert len(data) == wire.uvarints_size(values)
        # a record is the concatenation of its fields' encodings
        assert data == b"".join(wire.pack_uvarints([v]) for v in values)
        assert wire.unpack_uvarints(b"\xff" + data, 1) == values

    def test_boundaries(self):
        assert wire.pack_uvarints([0, 127]) == b"\x00\x7f"
        assert wire.pack_uvarints([128]) == b"\x80\x01"
        assert wire.pack_uvarints([1 << 14]) == b"\x80\x80\x01"
        assert wire.pack_uvarints([]) == b""

    def test_negative_rejected(self):
        for values in ([-1], [3, -1, 5], [1 << 40, -7]):
            with pytest.raises(ValueError, match="negative"):
                wire.pack_uvarints(values)

    def test_truncated_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            wire.unpack_uvarints(b"\x05\x80")


class TestTdiCodec:
    """Golden bytes for the TDI piggyback on the compressed wire, next to
    what the raw accounting charges for the same piggyback."""

    def test_length_formula(self):
        # failure-free, nothing delivered yet: header, n, seq, an empty
        # entry list and the send index — 5 bytes where raw is (8+1)*4
        blob = wire.encode_vector_full([0] * 8, [0] * 8, 1, seq=0)
        assert blob == bytes(
            [wire.FULL_SPARSE | wire.FLAG_COUNTED, 8, 0, 0, 1])
        # every entry hot: dense, one byte per small count
        blob = wire.encode_vector_full(list(range(1, 9)), [0] * 8, 300, seq=2)
        assert blob == bytes(
            [wire.FULL_DENSE | wire.FLAG_COUNTED, 8, 2, *range(1, 9),
             0xAC, 0x02])

    def test_tagged_length_formula(self):
        # one entry refers to incarnation 1: FLAG_EPOCHS, and every
        # shipped entry grows an epoch field (raw grows to (2*8+1)*4)
        blob = wire.encode_vector_full(
            [3, 0, 0, 0, 0, 0, 0, 5], [0] * 7 + [1], 9)
        assert blob == bytes(
            [wire.FULL_SPARSE | wire.FLAG_COUNTED | wire.FLAG_EPOCHS
             | wire.FLAG_STANDALONE, 8, 2, 0, 3, 0, 6, 5, 1, 9])
        blob = wire.encode_vector_delta(((2, 4, 0), (3, 200, 1)), 9, seq=7)
        assert blob == bytes(
            [wire.DELTA | wire.FLAG_EPOCHS, 7, 2, 2, 4, 0, 0, 0xC8, 0x01, 1, 9])

    def test_wrong_length_rejected(self):
        """A counted length is bounded by the receiver's capacity before
        anything is allocated for it."""
        values = [0, 6, 0, 0]  # sparse wins: the body names no length
        for seq in (None, 4):
            blob = wire.encode_vector_full(values, [0] * 4, 1, seq=seq)
            assert wire.decode_vector_record(blob, 4).values == tuple(values)
            for length in (5, 1 << 40):
                bad = blob[:1] + wire.pack_uvarints([length]) + blob[2:]
                with pytest.raises(ValueError, match="counted vector length"):
                    wire.decode_vector_record(bad, 4)
                with pytest.raises(UndecodablePiggyback, match="malformed"):
                    VectorDeltaDecoder(4).decode(1, bad)
            with pytest.raises(ValueError, match="counted vector length"):
                wire.decode_vector_record(
                    blob[:1] + wire.pack_uvarints([0]) + blob[2:], 4)


class TestDeterminantCodec:
    @given(dets_strategy)
    def test_roundtrip(self, dets):
        fields = [9, *wire.determinant_fields(dets), 7]
        assert wire.take_determinants(fields, 1) == (dets, len(fields) - 1)

    @given(dets_strategy)
    def test_length_formula(self, dets):
        fields = wire.determinant_fields(dets)
        assert len(fields) == 1 + 4 * len(dets)
        small = [Determinant(d.receiver, d.deliver_index % 128, d.sender,
                             d.send_index % 128) for d in dets]
        assert len(wire.pack_uvarints(wire.determinant_fields(small))) \
            == 1 + 4 * len(dets)

    def test_truncated_rejected(self):
        fields = wire.determinant_fields([Determinant(1, 2, 3, 4)])
        with pytest.raises(ValueError):
            wire.take_determinants(fields[:-1], 0)

    def test_empty_header_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            wire.take_determinants([], 0)


class TestTelCodec:
    @given(dets_strategy, st.lists(u32, min_size=4, max_size=4), u32)
    def test_roundtrip(self, dets, stable, idx):
        piggyback = {"dets": tuple(dets), "stable": tuple(stable)}
        blob = encode_pwd_piggyback(piggyback, idx)
        assert decode_pwd_piggyback(blob, 4) == (piggyback, idx)
        # TAG's record is the same without the stability vector
        blob = encode_pwd_piggyback({"dets": tuple(dets)}, idx)
        assert decode_pwd_piggyback(blob, 4) == ({"dets": tuple(dets)}, idx)
        with pytest.raises(UndecodablePiggyback):
            decode_pwd_piggyback(blob + b"\x00", 4)


def _full_roundtrip(values, epochs, send_index, seq):
    blob = wire.encode_vector_full(tuple(values), tuple(epochs),
                                   send_index, seq=seq)
    rec = wire.decode_vector_record(blob, len(values))
    assert rec.values == tuple(values)
    assert rec.epochs == tuple(epochs)
    assert rec.send_index == send_index
    assert rec.seq == seq
    assert rec.standalone == (seq is None)
    return blob, rec


class TestVectorRecordCodec:
    @given(st.data(), st.integers(1, 64))
    def test_full_roundtrip(self, data, nprocs):
        values = data.draw(st.lists(st.integers(0, 1 << 40),
                                    min_size=nprocs, max_size=nprocs))
        epochs = data.draw(st.lists(st.integers(0, 8),
                                    min_size=nprocs, max_size=nprocs))
        seq = data.draw(st.one_of(st.none(), st.integers(0, 1 << 20)))
        send_index = data.draw(st.integers(0, 1 << 40))
        _full_roundtrip(values, epochs, send_index, seq)

    @given(st.data(), st.integers(1, 48))
    def test_delta_roundtrip(self, data, nprocs):
        indices = data.draw(st.sets(st.integers(0, nprocs - 1), max_size=nprocs))
        changes = tuple(
            (k, data.draw(st.integers(0, 1 << 40)), data.draw(st.integers(0, 8)))
            for k in sorted(indices))
        seq = data.draw(st.integers(0, 1 << 20))
        send_index = data.draw(st.integers(0, 1 << 40))
        blob = wire.encode_vector_delta(changes, send_index, seq)
        rec = wire.decode_vector_record(blob, nprocs)
        assert rec.mode == wire.DELTA
        assert rec.changes == changes
        assert rec.send_index == send_index and rec.seq == seq

    def test_beyond_u32_dense(self):
        # every entry hot, so the dense body wins; counts past 32 bits
        # are ordinary varints
        values = [(1 << 32) + k for k in range(6)]
        blob, rec = _full_roundtrip(values, [0] * 6, (1 << 33) + 5, seq=9)
        assert rec.mode == wire.FULL_DENSE

    def test_beyond_u32_sparse(self):
        values = [0] * 64
        values[3] = (1 << 34) + 7
        blob, rec = _full_roundtrip(values, [0] * 64, 1 << 32, seq=0)
        assert rec.mode == wire.FULL_SPARSE

    def test_beyond_u32_delta(self):
        changes = ((5, (1 << 35) + 1, 2),)
        blob = wire.encode_vector_delta(changes, (1 << 32) + 3, seq=4)
        rec = wire.decode_vector_record(blob, 16)
        assert rec.changes == changes and rec.send_index == (1 << 32) + 3

    @given(st.data(), st.integers(1, 64))
    def test_dense_fallback_boundary_exact(self, data, nprocs):
        """FULL picks sparse only when *strictly* shorter than dense."""
        values = data.draw(st.lists(
            st.one_of(st.just(0), st.integers(1, 1 << 20)),
            min_size=nprocs, max_size=nprocs))
        epochs = data.draw(st.lists(st.integers(0, 3),
                                    min_size=nprocs, max_size=nprocs))
        blob, rec = _full_roundtrip(values, epochs, 7, seq=1)
        with_epochs = any(epochs)
        # reconstruct both candidate body lengths independently
        def size(*fields):
            return sum(len(wire.pack_uvarints([f])) for f in fields)

        dense = size(*values)
        if with_epochs:
            dense += size(*epochs)
        entries = [(k, values[k], epochs[k]) for k in range(nprocs)
                   if values[k] or epochs[k]]
        sparse = size(len(entries))
        prev = -1
        for k, v, e in entries:
            sparse += size(k - prev - 1 if prev >= 0 else k, v)
            if with_epochs:
                sparse += size(e)
            prev = k
        # header + counted vector length + seq + send_index
        overhead = 1 + size(nprocs, 1, 7)
        assert len(blob) == overhead + min(dense, sparse)
        if rec.mode == wire.FULL_SPARSE:
            assert sparse < dense
        else:
            assert dense <= sparse

    def test_trailing_bytes_rejected(self):
        blob = wire.encode_vector_full((1, 2), (0, 0), 3, seq=0)
        with pytest.raises(ValueError):
            wire.decode_vector_record(blob + b"\x00", 2)

    def test_out_of_range_index_rejected(self):
        blob = wire.encode_vector_delta(((9, 4, 0),), 1, seq=0)
        with pytest.raises(ValueError):
            wire.decode_vector_record(blob, 4)


class TestVarintDeterminantCodec:
    @given(dets_strategy)
    def test_roundtrip(self, dets):
        data = wire.pack_uvarints(wire.determinant_fields(dets))
        fields = wire.unpack_uvarints(data)
        assert wire.take_determinants(fields, 0) == (dets, len(fields))

    def test_beyond_u32_fields(self):
        dets = [Determinant(1, (1 << 32) + 1, 2, (1 << 40) + 9)]
        data = wire.pack_uvarints(wire.determinant_fields(dets))
        got, _ = wire.take_determinants(wire.unpack_uvarints(data), 0)
        assert got == dets


class TestAccountingGrounded:
    """The raw piggyback accounting Fig. 6 plots, in identifiers of
    ``CostModel.identifier_bytes`` each — arithmetic, whatever the wire
    ships."""

    def test_tdi_accounting_matches_codec(self):
        p, _ = make_protocol("tdi", nprocs=8)
        prepared = p.prepare_send(1, 0, "x", 64)
        assert prepared.piggyback_identifiers * p.costs.identifier_bytes \
            == (8 + 1) * 4

    def test_tdi_tagged_accounting_matches_codec(self):
        # once any entry refers to a later incarnation the epoch vector
        # rides along: 2n + 1 identifiers
        p, _ = make_protocol("tdi", nprocs=8)
        p.depend_interval.observe_rollback(3, 5, epoch=1)
        prepared = p.prepare_send(1, 0, "x", 64)
        assert prepared.piggyback_identifiers * p.costs.identifier_bytes \
            == (2 * 8 + 1) * 4

    def test_tag_accounting_matches_codec(self):
        p, _ = make_protocol("tag", nprocs=4)
        for i in range(5):
            p.on_deliver(app_meta(i + 1, {"dets": ()}), src=1)
        prepared = p.prepare_send(2, 0, "x", 64)
        dets = prepared.piggyback["dets"]
        # 4 per determinant + the send index
        assert dets and prepared.piggyback_identifiers == 4 * len(dets) + 1

    def test_tel_accounting_matches_codec(self):
        p, _ = make_protocol("tel", nprocs=4)
        p.on_deliver(app_meta(1, {"dets": (), "stable": (0, 0, 0, 0)}), src=1)
        prepared = p.prepare_send(2, 0, "x", 64)
        dets = prepared.piggyback["dets"]
        # 4 per determinant + the n-entry stability vector + the send index
        assert prepared.piggyback_identifiers == 4 * len(dets) + 4 + 1
