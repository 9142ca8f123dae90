"""``FrozenVector``: the stored form of a depend-interval vector.

A sender-log item on the compressed path and every checkpoint image keep
a vector frozen — values in the narrowest unsigned array that holds them,
epochs by reference — and nothing computes on it: whoever needs the
vector again thaws it.  So the whole contract is that freeze -> thaw is
the identity (values, epochs, the primed array cache and the record a
resend would encode), that the frozen thing cannot move, and that it does
not follow the live vector it was taken from.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import wire
from repro.core.vectors import (
    DependIntervalVector,
    FrozenVector,
    TaggedPiggyback,
    _zero_epochs,
)
from tests.conftest import MockServices, make_protocol

#: both sides of every dtype boundary, and one value past 32 bits
EDGES = (0, 1, 255, 256, 65_535, 65_536, (1 << 32) - 1, 1 << 32, 1 << 40)
DTYPES = ((1 << 8, np.uint8), (1 << 16, np.uint16), (1 << 32, np.uint32))
entries = st.one_of(st.sampled_from(EDGES), st.integers(0, 300))
values = st.lists(entries, min_size=1, max_size=40)


@st.composite
def piggybacks(draw):
    """A piggyback the way a sender builds one (array cache primed),
    untagged half the time."""
    vals = draw(values)
    epochs = [0] * len(vals)
    if draw(st.booleans()):
        for k in draw(st.lists(st.integers(0, len(vals) - 1), max_size=4)):
            epochs[k] = draw(st.integers(1, 3))
    return DependIntervalVector(len(vals), 0, vals, epochs).as_piggyback()


def freeze(piggyback):
    """A piggyback's stored form — what ``snapshot()`` of the vector it
    was taken from gives, and so what ``TdiProtocol._log_form`` logs."""
    return FrozenVector(piggyback._arr, piggyback.epochs)


@given(piggybacks())
def test_freeze_thaw_is_the_identity(piggyback):
    frozen = freeze(piggyback)
    thawed = frozen.thaw()
    assert type(thawed) is TaggedPiggyback
    assert thawed == piggyback and thawed.epochs == piggyback.epochs
    assert thawed.tagged == piggyback.tagged
    assert all(type(x) is int for x in thawed)
    assert thawed._arr.dtype == np.int64
    assert thawed._arr.tolist() == list(piggyback)
    # the narrowest dtype that holds the maximum, and not one narrower
    want = next((d for limit, d in DTYPES if max(piggyback) < limit), np.int64)
    assert frozen.values.dtype == want
    assert len(frozen.values) == len(piggyback)
    # epochs ride by reference: the shared zero tuple costs nothing
    assert frozen.epochs is piggyback.epochs
    if not piggyback.tagged:
        assert thawed.epochs is _zero_epochs(len(piggyback))


@pytest.mark.parametrize("edge", EDGES)
def test_every_dtype_edge_survives(edge):
    frozen = FrozenVector([0, edge, 3], (0, 0, 0))
    assert frozen.thaw() == (0, edge, 3)


@given(piggybacks())
def test_frozen_cannot_move(piggyback):
    frozen = freeze(piggyback)
    with pytest.raises(ValueError):
        frozen.values[0] = 7
    with pytest.raises(AttributeError):
        frozen.extra = 1
    # and a thawed piggyback is the thawer's own: writing its cache
    # leaves the stored form alone
    frozen.thaw()._arr[0] += 1
    assert frozen.thaw() == piggyback


@given(piggybacks())
def test_pickle_and_deepcopy_round_trip(piggyback):
    frozen = freeze(piggyback)
    clone = pickle.loads(pickle.dumps(frozen))
    assert clone == frozen and clone is not frozen
    assert clone.values.dtype == frozen.values.dtype
    assert not clone.values.flags.writeable
    assert clone.thaw() == piggyback
    assert clone.thaw().epochs == piggyback.epochs
    # immutable, so a deep copy (a checkpoint restore takes one of the
    # whole image) is the thing itself, wherever it sits
    assert copy.deepcopy(frozen) is frozen
    assert copy.deepcopy({"log": [frozen]})["log"][0] is frozen


@given(piggybacks(), piggybacks())
def test_equality_is_by_value(a, b):
    same = tuple(a) == tuple(b) and a.epochs == b.epochs
    assert (freeze(a) == freeze(b)) is same
    assert freeze(a) == FrozenVector(list(a), list(a.epochs))
    assert freeze(a) != tuple(a)


@given(values, st.data())
def test_snapshot_does_not_follow_the_live_vector(vals, data):
    n = len(vals)
    epochs = [0] * n
    if data.draw(st.booleans()):
        epochs[data.draw(st.integers(0, n - 1))] = 2
    owner = data.draw(st.integers(0, n - 1))
    live = DependIntervalVector(n, owner, vals, epochs)
    snapshot = live.snapshot()
    # later mutation of the live one: every entry, and an epoch
    live.advance_own()
    live.merge([v + 1 for v in vals])
    live.observe_rollback((owner + 1) % n, 5, 9)
    restored = DependIntervalVector.from_snapshot(n, owner, snapshot)
    assert restored == DependIntervalVector(n, owner, vals, epochs)
    assert list(restored) == vals and list(restored.epochs) == epochs
    assert all(type(x) is int for x in restored)
    if n > 1:
        assert restored != live


def _tdi(compress):
    return make_protocol(
        "tdi", services=MockServices(rank=0, nprocs=4, compress=compress))[0]


@given(st.lists(st.tuples(st.integers(1, 3), st.sampled_from(EDGES)),
                min_size=1, max_size=6), st.booleans())
def test_resent_record_is_the_first_sends(sends, rolled_back):
    """The standalone record encoded from a thawed log item is the one
    the piggyback itself would have encoded to, wide values and tagged
    epochs included."""
    protocol = _tdi(compress=True)
    if rolled_back:
        protocol.depend_interval.observe_rollback(2, 1, 1)
    originals = {}
    for dest, gossip in sends:
        protocol.depend_interval.merge([0, gossip, 0, gossip // 2])
        prepared = protocol.prepare_send(dest, 0, b"x", 64)
        originals[dest, prepared.send_index] = prepared.piggyback
    for item in protocol.log.all_items():
        original = originals[item.dest, item.send_index]
        assert type(item.piggyback) is FrozenVector
        # primed read-only: an in-step receiver shares the array
        assert original._arr.tolist() == list(original)
        assert not original._arr.flags.writeable
        assert item.piggyback == FrozenVector(list(original), original.epochs)
    protocol._recover_peer(dest, 0)
    resends = [r for r in protocol.services.resends if r.dest == dest]
    assert [r.send_index for r in resends] \
        == [i.send_index for i in protocol.log.items_for(dest, 0)]
    for resent in resends:
        original = originals[dest, resent.send_index]
        assert type(resent.piggyback) is TaggedPiggyback
        assert resent.piggyback == original
        assert resent.piggyback.epochs == original.epochs
        assert protocol.encode_piggyback_wire(
            dest, resent.piggyback, resent.send_index) \
            == wire.encode_vector_full(original, original.epochs,
                                       resent.send_index)


def test_raw_path_logs_the_object_it_ships():
    protocol = _tdi(compress=False)
    prepared = protocol.prepare_send(1, 0, b"x", 64)
    (item,) = protocol.log.all_items()
    assert item.piggyback is prepared.piggyback
