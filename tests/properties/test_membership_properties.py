"""Property tests for dynamic-membership vector growth and wire forms.

The heart of the membership design is that :meth:`DependIntervalVector.
grow_to` commutes with every other vector operation: a vector that
starts at a small horizon and grows as ranks join must end up exactly
where a vector born at full capacity ends up, for any interleaving of
deliveries, merges, rollback observations and growth steps.  The delta
encoder additionally relies on growth stamping the new entries dirty,
so a channel watermark taken before a growth step can never miss them.

The wire property pins the ``FLAG_COUNTED`` record form: a full vector
record names its own length, so decoding with *any* caller capacity
that holds it (the receiver's, which may be larger) reproduces the
sender's exact vector.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import wire
from repro.core.vectors import DependIntervalVector, TaggedPiggyback


def _apply(vec: DependIntervalVector, op, capacity: int) -> None:
    """Apply one drawn op; lengths in the op are clamped to the vector's
    current horizon so small- and full-size vectors see identical ops."""
    kind = op[0]
    if kind == "advance":
        vec.advance_own()
    elif kind == "grow":
        vec.grow_to(min(op[1], capacity))
    elif kind == "merge":
        vec.merge(op[1])
    elif kind == "rollback":
        rank, interval, epoch = op[1:]
        vec.observe_rollback(rank, interval, epoch)


def _draw_ops(data, start: int, capacity: int):
    """An op stream whose merges/rollbacks always fit the *small*
    vector's current horizon (growth is applied as it is drawn)."""
    horizon = start
    ops = []
    for _ in range(data.draw(st.integers(0, 30), label="op_count")):
        kind = data.draw(st.sampled_from(
            ("advance", "merge", "rollback", "grow")), label="kind")
        if kind == "advance":
            ops.append(("advance",))
        elif kind == "grow":
            horizon = data.draw(st.integers(horizon, capacity), label="grow")
            ops.append(("grow", horizon))
        elif kind == "merge":
            m = data.draw(st.integers(1, horizon), label="pb_len")
            values = data.draw(st.lists(st.integers(0, 50), min_size=m,
                                        max_size=m), label="pb_values")
            if data.draw(st.booleans(), label="tagged"):
                epochs = data.draw(st.lists(st.integers(0, 3), min_size=m,
                                            max_size=m), label="pb_epochs")
                ops.append(("merge", TaggedPiggyback(values, epochs)))
            else:
                ops.append(("merge", tuple(values)))
        else:
            rank = data.draw(st.integers(0, horizon - 1), label="rb_rank")
            interval = data.draw(st.integers(0, 50), label="rb_interval")
            epoch = data.draw(st.integers(1, 4), label="rb_epoch")
            ops.append(("rollback", rank, interval, epoch))
    return ops


class TestGrowCommutes:
    @settings(max_examples=200)
    @given(data=st.data())
    def test_grown_vector_matches_born_at_capacity(self, data):
        """Old-vs-new pinning: growing lazily while operating is
        indistinguishable from having had full capacity all along."""
        capacity = data.draw(st.integers(2, 10), label="capacity")
        start = data.draw(st.integers(1, capacity), label="start")
        owner = data.draw(st.integers(0, start - 1), label="owner")
        ops = _draw_ops(data, start, capacity)

        grown = DependIntervalVector(start, owner=owner)
        full = DependIntervalVector(capacity, owner=owner)
        for op in ops:
            _apply(grown, op, capacity)
            _apply(full, op, capacity)
        grown.grow_to(capacity)
        assert grown.as_tuple() == full.as_tuple()
        assert grown.epochs == full.epochs

    @settings(max_examples=200)
    @given(data=st.data())
    def test_grow_preserves_existing_entries(self, data):
        capacity = data.draw(st.integers(2, 10), label="capacity")
        start = data.draw(st.integers(1, capacity), label="start")
        owner = data.draw(st.integers(0, start - 1), label="owner")
        ops = _draw_ops(data, start, capacity)
        vec = DependIntervalVector(start, owner=owner)
        for op in ops:
            _apply(vec, op, capacity)
        before_v, before_e = vec.as_tuple(), vec.epochs
        vec.grow_to(capacity)
        assert vec.as_tuple()[:len(before_v)] == before_v
        assert vec.epochs[:len(before_e)] == before_e
        assert vec.as_tuple()[len(before_v):] == (0,) * (capacity - len(before_v))
        assert vec.epochs[len(before_e):] == (0,) * (capacity - len(before_e))


class TestGrowDirtyLog:
    @settings(max_examples=200)
    @given(data=st.data())
    def test_delta_since_never_misses_a_change_across_growth(self, data):
        """The encoder-soundness property: any entry whose (value, epoch)
        differs from its state at the watermark — including entries that
        did not exist yet — must appear in ``delta_since(watermark)``."""
        capacity = data.draw(st.integers(2, 10), label="capacity")
        start = data.draw(st.integers(1, capacity), label="start")
        owner = data.draw(st.integers(0, start - 1), label="owner")
        ops = _draw_ops(data, start, capacity)
        cut = data.draw(st.integers(0, len(ops)), label="watermark_at")

        vec = DependIntervalVector(start, owner=owner)
        vec.enable_change_tracking()
        for op in ops[:cut]:
            _apply(vec, op, capacity)
        watermark = vec.change_clock
        frozen_v, frozen_e = vec.as_tuple(), vec.epochs
        for op in ops[cut:]:
            _apply(vec, op, capacity)

        delta = set(vec.delta_since(watermark))
        for k in range(len(vec)):
            old = ((frozen_v[k], frozen_e[k]) if k < len(frozen_v)
                   else (0, 0))
            if (vec[k], vec.epochs[k]) != old and k >= len(frozen_v):
                # a new entry is dirty by virtue of the growth stamp
                assert k in delta
            elif (vec[k], vec.epochs[k]) != old:
                assert k in delta
        assert vec.delta_since(vec.change_clock) == ()


class TestCountedWireRecords:
    @settings(max_examples=300)
    @given(
        values=st.lists(st.integers(0, 1 << 40), min_size=1, max_size=12),
        tagged=st.booleans(),
        send_index=st.integers(0, 1 << 20),
        seq=st.one_of(st.none(), st.integers(0, 1 << 16)),
        headroom=st.integers(0, 52),
        data=st.data(),
    )
    def test_full_record_roundtrip_at_any_caller_capacity(
            self, values, tagged, send_index, seq, headroom, data):
        """A counted FULL record reproduces the sender's exact vector at
        whatever capacity the decoding side has room for it in — and is
        malformed, not an allocation, at any capacity below its length."""
        n = len(values)
        caller_nprocs = n + headroom
        epochs = (data.draw(st.lists(st.integers(0, 7), min_size=n,
                                     max_size=n), label="epochs")
                  if tagged else [0] * n)
        blob = wire.encode_vector_full(values, epochs, send_index, seq=seq)
        record = wire.decode_vector_record(blob, caller_nprocs)
        assert record.values == tuple(values)
        assert record.epochs == tuple(epochs)
        assert record.send_index == send_index
        assert record.standalone == (seq is None)
        assert record.seq == seq
        with pytest.raises(ValueError, match="counted vector length"):
            wire.decode_vector_record(blob, n - 1)
