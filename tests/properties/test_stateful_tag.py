"""Model-based stateful testing of TAG's graph and knowledge tracking.

The model is the set-based store the bitset store replaced
(:mod:`tests.properties.reference_tag`): both protocols are driven
through the same deliveries, sends, checkpoint advances and
checkpoint/restore cycles, and must stay indistinguishable — the same
graph and knowledge key sets, the same increment to every destination
(``graph - known_by(dest)``, the equation TAG's Fig. 6 behaviour rests
on), the same modelled scan and the same returned costs.

Deliveries carry plain tuples (what a decoded compressed record and the
unit tests hand over) *and* native increments cut by a second live
``TagProtocol``, the feeder, which goes on delivering, pruning,
checkpointing and restoring while its increments are still in flight:
they share its tables by reference and must not change under it.
Determinant indexes come in two clusters, a low one and one past 10**6,
so keys collide with different ``(sender, send_index)`` (first writer
wins), arrive out of order and below an already-announced
``stable_upto`` (re-added, pruned again by the next advance), and masks
would be a megabit wide if they were not relative to a moving origin.
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.recovery import CHECKPOINT_ADVANCE
from repro.protocols.pwd import Determinant, Increment
from tests.conftest import app_meta, make_protocol
from tests.properties.reference_tag import (ReferenceTagProtocol,
                                            reference_protocols)

NPROCS = 4
RANK = 0
FEEDER = 1
PEERS = [1, 2, 3]

index_strategy = st.one_of(st.integers(1, 24),
                           st.integers(10**6, 10**6 + 24))
det_strategy = st.builds(
    Determinant,
    receiver=st.integers(0, 3),
    deliver_index=index_strategy,
    sender=st.integers(0, 3),
    send_index=st.integers(1, 40),
)
dets_strategy = st.lists(det_strategy, max_size=5)


def make_reference(rank: int = RANK) -> ReferenceTagProtocol:
    with reference_protocols():
        return make_protocol("tag", rank=rank, nprocs=NPROCS)[0]


def advance(proto, owner: int, upto: int) -> None:
    proto.handle_control(
        CHECKPOINT_ADVANCE, src=owner,
        payload={"from_counts": [0] * NPROCS, "stable_upto": upto})


class TagMachine(RuleBasedStateMachine):
    """Drives TagProtocol and the set-based reference side by side."""

    def __init__(self) -> None:
        super().__init__()
        self.proto, _ = make_protocol("tag", rank=RANK, nprocs=NPROCS)
        self.ref = make_reference()
        self.feeder, _ = make_protocol("tag", rank=FEEDER, nprocs=NPROCS)
        #: next send index per source, shared by both protocols
        self.next_index = {p: 1 for p in PEERS}
        self.feeder_next = 1
        #: increments the feeder cut and nobody delivered yet, each with
        #: the determinants it held when cut
        self.in_flight: list[tuple[Increment, tuple[Determinant, ...]]] = []
        self.checkpoint = None
        self.feeder_checkpoint = None

    def _deliver(self, src: int, native, lifted) -> None:
        index = self.next_index[src]
        self.next_index[src] += 1
        cost = self.proto.on_deliver(app_meta(index, {"dets": native}), src=src)
        expected = self.ref.on_deliver(app_meta(index, {"dets": lifted}), src=src)
        assert cost == expected

    # ------------------------------------------------------------------
    @rule(src=st.sampled_from(PEERS), dets=dets_strategy)
    def deliver_lifted(self, src: int, dets: list[Determinant]) -> None:
        self._deliver(src, tuple(dets), tuple(dets))

    @precondition(lambda self: self.in_flight)
    @rule(data=st.data())
    def deliver_native(self, data) -> None:
        pick = data.draw(st.integers(0, len(self.in_flight) - 1))
        increment, cut = self.in_flight.pop(pick)
        self._deliver(FEEDER, increment, cut)

    @rule(dest=st.sampled_from(PEERS))
    def send(self, dest: int) -> None:
        got = self.proto.prepare_send(dest, 0, "x", 64)
        expected = self.ref.prepare_send(dest, 0, "x", 64)
        dets = got.piggyback["dets"]
        assert list(dets) == sorted(expected.piggyback["dets"])
        assert len(dets) == len(expected.piggyback["dets"])
        assert got.piggyback_identifiers == expected.piggyback_identifiers
        assert got.cost == expected.cost

    @rule(owner=st.sampled_from(PEERS),
          upto=st.one_of(st.integers(0, 30), st.integers(10**6 - 5, 10**6 + 30)))
    def checkpoint_advance(self, owner: int, upto: int) -> None:
        advance(self.proto, owner, upto)
        advance(self.ref, owner, upto)

    @rule()
    def own_checkpoint(self) -> None:
        # prunes our own deliveries and announces it
        self.proto.after_checkpoint()
        self.ref.after_checkpoint()

    @rule()
    def take_checkpoint(self) -> None:
        self.checkpoint = (self.proto.checkpoint_state(),
                           self.ref.checkpoint_state(), dict(self.next_index))

    @precondition(lambda self: self.checkpoint is not None)
    @rule()
    def crash_and_restore(self) -> None:
        # the stored state is restored as is, and possibly again later:
        # nothing the live protocols did since may have reached it
        state, ref_state, next_index = self.checkpoint
        self.proto, _ = make_protocol("tag", rank=RANK, nprocs=NPROCS)
        self.proto.restore(state)
        self.ref = make_reference()
        self.ref.restore(ref_state)
        self.next_index = dict(next_index)

    # ------------------------------------------------------------------
    # The feeder: a live store whose increments outlive its next moves
    # ------------------------------------------------------------------
    @rule(dets=dets_strategy)
    def feeder_deliver(self, dets: list[Determinant]) -> None:
        self.feeder.on_deliver(
            app_meta(self.feeder_next, {"dets": tuple(dets)}), src=2)
        self.feeder_next += 1

    @rule()
    def feeder_cut(self) -> None:
        increment = self.feeder.prepare_send(RANK, 0, "x", 64).piggyback["dets"]
        assert isinstance(increment, Increment)
        self.in_flight.append((increment, tuple(increment)))

    @rule(owner=st.integers(0, 3), upto=index_strategy)
    def feeder_prune(self, owner: int, upto: int) -> None:
        if owner == FEEDER:
            self.feeder.after_checkpoint()
        else:
            advance(self.feeder, owner, upto)

    @rule()
    def feeder_take_checkpoint(self) -> None:
        self.feeder_checkpoint = (self.feeder.checkpoint_state(),
                                  self.feeder_next)

    @precondition(lambda self: self.feeder_checkpoint is not None)
    @rule()
    def feeder_crash_and_restore(self) -> None:
        state, self.feeder_next = self.feeder_checkpoint
        self.feeder, _ = make_protocol("tag", rank=FEEDER, nprocs=NPROCS)
        self.feeder.restore(state)

    # ------------------------------------------------------------------
    @invariant()
    def stores_match(self) -> None:
        held = self.proto.held_keys()
        assert held == self.ref.held_keys()
        for peer in range(NPROCS):
            known = self.proto.known_keys(peer)
            assert known == self.ref.known_keys(peer) and known <= held
        assert self.proto.deliver_total == self.ref.deliver_total

    @invariant()
    def modelled_scan_matches(self) -> None:
        assert (self.proto.metrics.graph_nodes_scanned
                == self.ref.metrics.graph_nodes_scanned)

    @invariant()
    def in_flight_increments_are_unchanged(self) -> None:
        for increment, cut in self.in_flight:
            assert tuple(increment) == cut

    @invariant()
    def masks_span_live_indexes_only(self) -> None:
        for proto in (self.proto, self.feeder):
            held = proto.held_keys()
            for receiver in range(NPROCS):
                indexes = [k[1] for k in held if k[0] == receiver]
                span = max(indexes) - min(indexes) + 1 if indexes else 0
                masks = [proto._have[receiver],
                         *(known[receiver] for known in proto._known)]
                assert max(m.bit_length() for m in masks) <= span


TestTagStateMachine = TagMachine.TestCase
# deadline policy comes from the profile in tests/conftest.py
TestTagStateMachine.settings = settings(
    max_examples=40, stateful_step_count=40)


# ----------------------------------------------------------------------
# Pinned corners of the store
# ----------------------------------------------------------------------

def test_pruned_determinant_is_re_added_until_the_next_advance():
    """A late piggyback resurrects a determinant at or below the
    receiver's announced ``stable_upto``; only that receiver's *next*
    advance prunes it again (the reference store's behaviour, kept)."""
    for proto in (make_protocol("tag", rank=RANK, nprocs=NPROCS)[0],
                  make_reference()):
        old = Determinant(receiver=2, deliver_index=3, sender=1, send_index=1)
        live = Determinant(receiver=2, deliver_index=9, sender=1, send_index=2)
        proto.on_deliver(app_meta(1, {"dets": (old, live)}), src=1)
        advance(proto, 2, 5)
        assert proto.held_keys() == {(0, 1), (2, 9)}
        proto.on_deliver(app_meta(1, {"dets": (old,)}), src=3)
        assert (2, 3) in proto.held_keys()
        assert old in proto.prepare_send(1, 0, "x", 64).piggyback["dets"]
        advance(proto, 2, 5)
        assert proto.held_keys() == {(0, 1), (0, 2), (2, 9)}


def test_first_writer_wins_but_an_own_delivery_overwrites():
    for proto in (make_protocol("tag", rank=RANK, nprocs=NPROCS)[0],
                  make_reference()):
        first = Determinant(receiver=2, deliver_index=4, sender=1, send_index=1)
        second = first._replace(sender=3, send_index=7)
        stale = Determinant(receiver=RANK, deliver_index=2, sender=3, send_index=9)
        proto.on_deliver(app_meta(1, {"dets": (first, second, stale)}), src=1)
        in_flight = proto.prepare_send(3, 0, "x", 64).piggyback["dets"]
        assert sorted(in_flight) == [Determinant(RANK, 1, 1, 1), stale, first]
        proto.on_deliver(app_meta(1, {"dets": (second,)}), src=2)
        own = Determinant(RANK, 2, 2, 1)
        assert sorted(proto.prepare_send(3, 0, "y", 64).piggyback["dets"]) == [
            Determinant(RANK, 1, 1, 1), own, first]
        # the increment cut before the overwrite still reads as it did
        assert sorted(in_flight) == [Determinant(RANK, 1, 1, 1), stale, first]


def test_checkpoint_state_is_a_snapshot_by_value():
    proto, _ = make_protocol("tag", rank=RANK, nprocs=NPROCS)
    det = Determinant(receiver=2, deliver_index=4, sender=1, send_index=1)
    proto.on_deliver(app_meta(1, {"dets": (det,)}), src=1)
    state = proto.checkpoint_state()
    held, known = proto.held_keys(), proto.known_keys(1)
    later = Determinant(receiver=3, deliver_index=1, sender=1, send_index=2)
    proto.on_deliver(app_meta(2, {"dets": (later,)}), src=1)
    advance(proto, 2, 10)
    for _ in range(2):  # and restoring does not consume or alias it
        restored, _ = make_protocol("tag", rank=RANK, nprocs=NPROCS)
        restored.restore(state)
        assert restored.held_keys() == held
        assert restored.known_keys(1) == known
        restored.on_deliver(app_meta(2, {"dets": (later,)}), src=1)


def test_an_increment_survives_a_second_restore_of_its_senders_checkpoint():
    """Two incarnations restored from one stored checkpoint share no
    table: the dead one's in-flight increment would otherwise read what
    the live one merges at the same key."""
    state = make_protocol("tag", rank=RANK, nprocs=NPROCS)[0].checkpoint_state()
    det = Determinant(receiver=2, deliver_index=4, sender=1, send_index=1)
    in_flight = None
    for carried in (det, det._replace(sender=3, send_index=9)):
        proto, _ = make_protocol("tag", rank=RANK, nprocs=NPROCS)
        proto.restore(state)
        proto.on_deliver(app_meta(1, {"dets": (carried,)}), src=1)
        in_flight = in_flight or proto.prepare_send(3, 0, "x", 64).piggyback["dets"]
    assert tuple(in_flight) == (Determinant(RANK, 1, 1, 1), det)


def test_increment_reads_as_a_sequence_in_key_order():
    proto, _ = make_protocol("tag", rank=RANK, nprocs=NPROCS)
    dets = (Determinant(3, 7, 1, 1), Determinant(1, 9, 2, 2),
            Determinant(1, 2, 2, 1))
    proto.on_deliver(app_meta(1, {"dets": dets}), src=2)
    increment = proto.prepare_send(3, 0, "x", 64).piggyback["dets"]
    expected = tuple(sorted((*dets, Determinant(RANK, 1, 2, 1))))
    assert tuple(increment) == expected and len(increment) == 4
    assert increment == expected and expected == increment
    assert increment == Increment.lift(reversed(expected))
    assert increment != expected[:-1] and increment != "tag"
    assert increment[0] == expected[0] and increment[1:] == expected[1:]
    assert repr(increment) == f"Increment({expected!r})"
    assert Increment.lift(increment) is increment
