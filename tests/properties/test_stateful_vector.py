"""Model-based stateful testing of the stamp-array change tracker.

The model is the log-based tracker the stamp array replaced
(:mod:`tests.properties.reference_vector`): ``src/``'s vector and the
reference are driven through the same deliveries, merges (full length,
shorter than the vector, tagged and plain), rollback observations, own
epoch bumps, growth steps and checkpoint/restore cycles — the op
alphabet of ``test_membership_properties.py`` — and must stay
indistinguishable: the same values, epochs and mutation clock, the same
``as_piggyback()``, the same ``delta_since(w)`` for *every* watermark
either has ever stood at, and byte-identical records out of a
``VectorDeltaEncoder`` over each.

Every record is also decoded twice, by ``src/``'s array-based decoder
(which takes an in-step record without parsing it) and by the
list-based reference (which parses its bytes), and merged into a
receiving vector on each side; a decoded piggyback's array cache must
equal its tuple for as long as anyone holds it, whatever later deltas
do to the channel base.
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from repro.core.vectors import DependIntervalVector, TaggedPiggyback
from repro.protocols.compression import VectorDeltaDecoder, VectorDeltaEncoder
from tests.properties.reference_vector import ReferenceDecoder, ReferenceVector

CAPACITY = 10
DESTS = (0, 1, 2)

values = st.one_of(st.integers(0, 50), st.integers(0, 1 << 36))
epochs = st.integers(0, 3)


def _same_piggyback(new: TaggedPiggyback, ref: TaggedPiggyback) -> None:
    assert tuple(new) == tuple(ref)
    assert new.epochs == ref.epochs
    assert new.tagged == ref.tagged == any(ref.epochs)


class VectorMachine(RuleBasedStateMachine):
    """Drives the stamp-array vector and the log-based reference side by
    side, each under its own delta encoder."""

    @initialize(start=st.integers(1, CAPACITY), data=st.data())
    def build(self, start: int, data) -> None:
        self.owner = data.draw(st.integers(0, start - 1), label="owner")
        self.new = DependIntervalVector(start, self.owner)
        self.ref = ReferenceVector(start, self.owner)
        self.enc_new = VectorDeltaEncoder(self.new)
        self.enc_ref = VectorDeltaEncoder(self.ref)
        self.dec_new = VectorDeltaDecoder(CAPACITY)
        self.dec_ref = ReferenceDecoder(CAPACITY)
        # the receiving end of every channel: a vector born at capacity
        self.rx_new = DependIntervalVector(CAPACITY, CAPACITY - 1)
        self.rx_ref = ReferenceVector(CAPACITY, CAPACITY - 1)
        self.rx_new.enable_change_tracking()
        self.rx_ref.enable_change_tracking()
        self.send_index = 0
        #: every mutation clock the vector has stood at since it was
        #: (re)built — a channel watermark can be any of them
        self.watermarks = [0]
        #: every piggyback src/'s decoder handed out, with its values
        self.decoded: list[tuple[TaggedPiggyback, tuple[int, ...]]] = []

    def _both(self, op: str, *args):
        got = getattr(self.new, op)(*args)
        assert got == getattr(self.ref, op)(*args), op
        self.watermarks.append(self.new.change_clock)

    # -------------------------------------------------- vector mutations
    @rule()
    def deliver(self) -> None:
        self._both("advance_own")

    @rule(data=st.data(), tagged=st.booleans(), short=st.booleans())
    def merge(self, data, tagged: bool, short: bool) -> None:
        """A piggyback as long as the vector or — the sender had not
        heard of a join yet — shorter: the change mask is then shorter
        than the stamp array it lands in."""
        n = len(self.new)
        m = data.draw(st.integers(1, n), label="pb_len") if short else n
        pb = tuple(data.draw(st.lists(values, min_size=m, max_size=m),
                             label="pb_values"))
        if tagged:
            pb = TaggedPiggyback(pb, data.draw(
                st.lists(epochs, min_size=m, max_size=m), label="pb_epochs"))
        self._both("merge", pb)

    @rule(data=st.data(), interval=values, epoch=st.integers(1, 4))
    def peer_rollback(self, data, interval: int, epoch: int) -> None:
        rank = data.draw(st.integers(0, len(self.new) - 1), label="rank")
        self._both("observe_rollback", rank, interval, epoch)

    @rule(bump=st.integers(0, 2))
    def own_epoch(self, bump: int) -> None:
        self._both("set_own_epoch", self.new.own_epoch + bump)

    @precondition(lambda self: len(self.new) < CAPACITY)
    @rule(data=st.data())
    def grow(self, data) -> None:
        to = data.draw(st.integers(len(self.new), CAPACITY), label="grow_to")
        self._both("grow_to", to)
        # what TdiProtocol._grow_to does after growing its vector
        self.enc_new.grow()
        self.enc_ref.grow()

    @rule()
    def checkpoint_restore(self) -> None:
        """snapshot -> from_snapshot -> re-enable: a replacement vector,
        re-bound encoders, a mutation clock that starts over."""
        snapshot = self.new.snapshot()
        assert snapshot == self.ref.snapshot()
        n = len(snapshot.values)
        self.new = DependIntervalVector.from_snapshot(n, self.owner, snapshot)
        self.ref = ReferenceVector.from_snapshot(n, self.owner, snapshot)
        self.enc_new.bind(self.new)
        self.enc_ref.bind(self.ref)
        self.watermarks = [0]

    # ------------------------------------------------------------ sends
    @rule(dest=st.sampled_from(DESTS))
    def send(self, dest: int) -> None:
        self.send_index += 1
        pb_new, pb_ref = self.new.as_piggyback(), self.ref.as_piggyback()
        _same_piggyback(pb_new, pb_ref)
        assert pb_new._arr.tolist() == list(pb_new)
        record, fell_back = self.enc_new.encode(dest, pb_new, self.send_index)
        ref_record, ref_fell_back = self.enc_ref.encode(
            dest, pb_ref, self.send_index)
        assert (bytes(record), fell_back) \
            == (bytes(ref_record), ref_fell_back)
        assert len(record) == len(ref_record) == len(bytes(record))
        # one decoder channel per destination: each sees its own stream
        got_new, index_new = self.dec_new.decode(dest, record)
        got_ref, index_ref = self.dec_ref.decode(dest, record)
        assert index_new == index_ref == self.send_index
        _same_piggyback(got_new, got_ref)
        _same_piggyback(got_new, pb_new)
        self.decoded.append((got_new, tuple(pb_new)))
        assert self.rx_new.merge(got_new) == self.rx_ref.merge(got_ref)

    @rule(dest=st.sampled_from(DESTS))
    def invalidate(self, dest: int) -> None:
        self.enc_new.invalidate(dest)
        self.enc_ref.invalidate(dest)

    # ------------------------------------------------------- invariants
    @invariant()
    def indistinguishable(self) -> None:
        for new, ref in ((self.new, self.ref), (self.rx_new, self.rx_ref)):
            assert new.as_tuple() == ref.as_tuple()
            assert new.epochs == ref.epochs
            assert new.change_clock == ref.change_clock
        for watermark in self.watermarks:
            assert self.new.delta_since(watermark) \
                == self.ref.delta_since(watermark), watermark
        top = self.rx_new.change_clock
        for watermark in {0, top // 2, max(top - 1, 0), top}:
            assert self.rx_new.delta_since(watermark) \
                == self.rx_ref.delta_since(watermark), watermark

    @invariant()
    def untagged_vectors_share_one_epoch_tuple(self) -> None:
        """"No epoch differs" is an identity test: an all-zero epoch
        tuple is always *the* zero tuple of its length."""
        zero = DependIntervalVector(len(self.new), 0).epochs
        assert (self.new.epochs is zero) == (not any(self.new.epochs))

    @invariant()
    def decoded_array_caches_stay_put(self) -> None:
        for piggyback, sent in self.decoded:
            assert tuple(piggyback) == sent
            assert piggyback._arr.tolist() == list(sent)


TestVectorMachine = VectorMachine.TestCase
# deadline policy comes from the profile in tests/conftest.py
TestVectorMachine.settings = settings(max_examples=60, stateful_step_count=50)


def test_short_piggyback_onto_a_longer_tracked_vector():
    """The one case the sizing prototype got wrong first: the change
    mask is as long as the piggyback, the stamp array as the vector."""
    new, ref = DependIntervalVector(6, 0), ReferenceVector(6, 0)
    for vector in (new, ref):
        vector.enable_change_tracking()
        vector.merge((0, 1, 1, 1, 1, 9))
        assert vector.merge((0, 5, 0)) == 1
        assert vector.delta_since(1) == (1,)
        assert vector.delta_since(0) == (1, 2, 3, 4, 5)
    assert new.as_tuple() == ref.as_tuple() == (0, 5, 1, 1, 1, 9)
