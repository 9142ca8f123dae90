"""Model-based stateful testing of the reliable transport.

Drives the real :class:`~repro.simnet.transport.ReliableTransport` on a
real :class:`~repro.simnet.network.Network` and
:class:`~repro.simnet.engine.Engine` through transmits (some carrying a
mute stamp), engine steps, kills and revivals, departures
(``forget_peer``), forged straggler acks from dead incarnations, and
wire changes made by swapping ``network.config`` — drop, dup and
corrupt probabilities, and partition windows opening and closing.  The
contract is :mod:`tests.properties.reference_transport`: after every
step each incarnation has been handed a prefix of what it is owed and
every mute stamp has travelled once; at the end the wire heals, every
rank comes back, and each attached incarnation must have been handed
all it is owed.

A run either starts *armed* (an impaired wire: buffers, acks,
retransmission) or *clean* (the pass-through path).  A clean wire stays
clean — an impaired run without an armed transport is rejected by
``SimulationConfig`` — and carries no dropping mute: on the
pass-through path a mute-dropped frame is lost for good, a known defect
pinned by ``test_gray_failures.py``.  Steps are short enough that no
channel exhausts its give-up budget; the pinned corners below provoke
the one diagnosed stall on purpose.
"""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from repro.simnet.engine import Engine
from repro.simnet.network import Frame, Network, NetworkConfig, PartitionWindow
from repro.simnet.node import NodeSet
from repro.simnet.rng import RngStreams
from repro.simnet.transport import ReliableTransport, TransportStallError
from tests.properties.reference_transport import MUTE_STAMPS, ReferenceTransport

NPROCS = 3
RANKS = st.integers(0, NPROCS - 1)
#: the armed wire a run starts on; corruption is on from the start, as
#: in a real run, so the transport checksums
ARMED = NetworkConfig(drop_prob=0.1, dup_prob=0.05, corrupt_prob=0.05)
PROBS = st.sampled_from((0.0, 0.05, 0.3, 0.9))
#: one engine step advances the clock by at most 5 ms: 40 steps stay
#: below the ~0.45 s the give-up budget takes to run out
STEPS = st.sampled_from((1e-5, 1e-4, 1e-3, 5e-3))
#: a healed wire that keeps the armed path's impairment draws
HEALED = NetworkConfig(drop_prob=1e-12)
SETTLE_S = 5.0


class TransportMachine(RuleBasedStateMachine):
    """The real transport beside the contract it must keep."""

    def __init__(self) -> None:
        super().__init__()
        self.delivered: dict[tuple[int, int, int], list] = {}
        self.on_the_wire = {key: 0 for key in MUTE_STAMPS}
        self.next_payload = 0

    @initialize(armed=st.booleans(), seed=st.integers(0, 2**16))
    def build(self, armed: bool, seed: int = 0,
              attached: tuple[int, ...] = tuple(range(NPROCS))) -> None:
        self.armed = armed
        self.engine = Engine()
        self.nodes = NodeSet(NPROCS)
        rng = RngStreams(seed)
        self.net = Network(self.engine, self.nodes,
                           ARMED if armed else NetworkConfig(), rng)
        transmit = self.net.transmit

        def spy(frame: Frame) -> None:
            for key in MUTE_STAMPS:
                self.on_the_wire[key] += key in frame.meta
            transmit(frame)

        self.net.transmit = spy
        self.rt = ReliableTransport(network=self.net, nodes=self.nodes,
                                    rng=rng, engine=self.engine)
        self.model = ReferenceTransport()
        for rank in range(NPROCS):
            if rank in attached:
                self._attach(rank)
            else:
                self.nodes[rank].defer()

    def _attach(self, rank: int) -> None:
        epoch = self.nodes[rank].epoch

        def receive(frame: Frame) -> None:
            assert not frame.meta.get("corrupted"), frame
            self.delivered.setdefault((frame.src, rank, epoch), []).append(
                frame.payload)

        self.rt.attach(rank, receive)
        self.model.attach(rank, epoch)

    def _set_wire(self, **changes) -> None:
        fields = {name: getattr(self.net.config, name) for name in
                  ("drop_prob", "dup_prob", "corrupt_prob", "partitions")}
        self.net.config = NetworkConfig(**{**fields, **changes})

    # ------------------------------------------------------------------
    @precondition(lambda self: any(n.alive for n in self.nodes.nodes))
    @rule(data=st.data(),
          stamp=st.sampled_from((None, None, "gray_drop", "gray_delay")))
    def transmit(self, data, stamp: str | None) -> None:
        src = data.draw(st.sampled_from(
            [r for r in range(NPROCS) if self.nodes[r].alive]), label="src")
        dst = data.draw(st.sampled_from(
            [r for r in range(NPROCS) if r != src]), label="dst")
        if stamp == "gray_drop" and not self.armed:
            stamp = None
        self.send(src, dst, stamp)

    def send(self, src: int, dst: int, stamp: str | None = None) -> int:
        payload = self.next_payload
        self.next_payload += 1
        meta = {"gray_drop": True} if stamp == "gray_drop" else (
            {"gray_delay": 1e-3} if stamp == "gray_delay" else {})
        self.model.transmit(src, dst, payload, stamp)
        self.rt.transmit(Frame("app", src, dst, payload, 64, meta))
        return payload

    @rule(dt=STEPS)
    def step(self, dt: float) -> None:
        self.engine.run(until=self.engine.now + dt)

    @precondition(lambda self: any(n.alive for n in self.nodes.nodes))
    @rule(data=st.data(), leave=st.booleans())
    def kill(self, data, leave: bool) -> None:
        rank = data.draw(st.sampled_from(
            [r for r in range(NPROCS) if self.nodes[r].alive]), label="rank")
        self.fail(rank, leave)

    def fail(self, rank: int, leave: bool = False) -> None:
        if leave:
            self.nodes[rank].leave(self.engine.now)
            self.rt.forget_peer(rank)
            self.model.forget_peer(rank)
        else:
            self.nodes[rank].kill(self.engine.now)
            self.model.detach(rank)
        self.rt.detach(rank)

    @precondition(lambda self: not all(n.alive for n in self.nodes.nodes))
    @rule(data=st.data())
    def revive(self, data) -> None:
        rank = data.draw(st.sampled_from(
            [r for r in range(NPROCS) if not self.nodes[r].alive]), label="rank")
        self.revive_rank(rank)

    def revive_rank(self, rank: int) -> None:
        self.nodes[rank].revive(self.engine.now)
        self._attach(rank)

    @precondition(lambda self: self.armed)
    @rule(drop=PROBS, dup=PROBS, corrupt=PROBS)
    def impair(self, drop: float, dup: float, corrupt: float) -> None:
        self._set_wire(drop_prob=drop, dup_prob=dup, corrupt_prob=corrupt)

    @precondition(lambda self: self.armed)
    @rule(cut=RANKS, heal=st.booleans())
    def partition(self, cut: int, heal: bool) -> None:
        rest = tuple(r for r in range(NPROCS) if r != cut)
        self._set_wire(partitions=() if heal else (
            PartitionWindow(self.engine.now, 1e9, (cut,), rest),))

    @precondition(lambda self: self.armed
                  and any(n.epoch > 0 for n in self.nodes.nodes))
    @rule(data=st.data())
    def stale_ack(self, data) -> None:
        """A straggler cumulative ack minted by a dead incarnation,
        acknowledging everything."""
        rank = data.draw(st.sampled_from(
            [r for r in range(NPROCS) if self.nodes[r].epoch > 0]), label="rank")
        to = data.draw(st.sampled_from(
            [r for r in range(NPROCS) if r != rank]), label="to")
        self.forge_ack(rank, to)

    def forge_ack(self, rank: int, to: int) -> None:
        rt = {"ackonly": True, "ack": 10**6, "ae": self.nodes[rank].epoch - 1}
        self.net.transmit(Frame("rt-ack", rank, to, None, 16, {"rt": rt}))

    # ------------------------------------------------------------------
    @invariant()
    def handed_a_prefix_of_what_is_owed(self) -> None:
        self.model.check_delivered(self.delivered)

    @invariant()
    def stamps_travel_once(self) -> None:
        self.model.check_stamps(self.on_the_wire)

    def settle(self) -> None:
        """Heal the wire, bring every rank back, and run until every
        channel has had time to drain."""
        if self.armed:
            self.net.config = HEALED
        for rank in range(NPROCS):
            if not self.nodes[rank].alive:
                self.revive_rank(rank)
        self.engine.run(until=self.engine.now + SETTLE_S,
                        max_events=self.engine.events_fired + 100_000)

    def teardown(self) -> None:
        if hasattr(self, "model"):  # an example can end before build
            self.settle()
            self.model.check_settled(self.delivered)
            self.model.check_stamps(self.on_the_wire)


# ----------------------------------------------------------------------
# Pinned corners of the contract
# ----------------------------------------------------------------------

def _machine(*, seed: int = 0, wire: NetworkConfig | None = None,
             attached: tuple[int, ...] = tuple(range(NPROCS))) -> TransportMachine:
    machine = TransportMachine()
    machine.build(True, seed, attached)
    if wire is not None:
        machine.net.config = wire
    return machine


def _finish(machine: TransportMachine) -> None:
    machine.handed_a_prefix_of_what_is_owed()
    machine.teardown()


def test_a_mute_dropped_frame_is_retransmitted_unstamped():
    machine = _machine(wire=HEALED)
    machine.send(0, 1, "gray_drop")
    machine.send(0, 1, "gray_delay")
    machine.step(5e-3)
    machine.stamps_travel_once()
    _finish(machine)
    assert machine.delivered[(0, 1, 0)] == [0, 1]


def test_frames_survive_their_senders_death():
    machine = _machine(wire=NetworkConfig(drop_prob=0.999))
    machine.send(0, 1)
    machine.step(1e-5)
    machine.fail(0)
    machine.step(5e-3)
    _finish(machine)
    assert machine.delivered[(0, 1, 0)] == [0]


def test_a_new_incarnation_is_owed_only_what_follows_its_attach():
    machine = _machine(wire=NetworkConfig(drop_prob=0.999))
    machine.send(0, 1)
    machine.send(0, 1)
    machine.fail(1)
    machine.revive_rank(1)
    fresh = machine.send(0, 1)
    _finish(machine)
    assert machine.delivered.get((0, 1, 0), []) == []
    assert machine.delivered[(0, 1, 1)] == [fresh]


def test_frames_in_flight_to_a_dead_incarnation_are_not_delivered():
    """Killed and revived before its frames arrive: the stragglers carry
    the dead incarnation's epoch and must not reach the new one."""
    machine = _machine(wire=HEALED)
    machine.send(0, 1)
    machine.fail(1)
    machine.revive_rank(1)
    machine.step(5e-3)
    machine.handed_a_prefix_of_what_is_owed()
    fresh = machine.send(0, 1)
    _finish(machine)
    assert machine.delivered[(0, 1, 1)] == [fresh]


def test_an_ack_from_a_dead_incarnation_clears_nothing():
    machine = _machine(wire=NetworkConfig(drop_prob=0.999))
    machine.fail(1)
    machine.revive_rank(1)
    fresh = machine.send(0, 1)    # lost on the wire
    machine.net.config = HEALED
    machine.forge_ack(1, 0)
    machine.step(1e-3)
    _finish(machine)
    assert machine.delivered[(0, 1, 1)] == [fresh]


def test_a_reordered_burst_drains_in_order():
    machine = _machine(seed=3, wire=NetworkConfig(drop_prob=0.3, dup_prob=0.3))
    sent = [machine.send(0, 1) for _ in range(12)]
    for _ in range(20):
        machine.step(1e-3)
        machine.handed_a_prefix_of_what_is_owed()
    _finish(machine)
    assert machine.delivered[(0, 1, 0)] == sent


def test_forget_peer_discards_and_the_rejoin_is_owed_nothing_before_it():
    machine = _machine(wire=NetworkConfig(drop_prob=0.999))
    machine.send(0, 2)
    machine.fail(2, leave=True)
    machine.step(5e-3)
    machine.revive_rank(2)
    fresh = machine.send(0, 2)
    _finish(machine)
    assert machine.delivered[(0, 2, 1)] == [fresh]


def test_an_unhealed_partition_stalls_naming_the_channel():
    machine = _machine(wire=NetworkConfig(
        drop_prob=1e-12, partitions=(PartitionWindow(0.0, 1e9, (0,), (1, 2)),)))
    machine.send(0, 1)
    with pytest.raises(TransportStallError) as stall:
        machine.engine.run(until=10.0)
    ReferenceTransport.check_stall(str(stall.value), 0, 1)
    assert "partition window" in str(stall.value)


@pytest.mark.xfail(strict=True, reason=(
    "first-ever-join defect: a stale frame is told from a fresh one by "
    "the destination's epoch, and a first-ever join attaches at epoch 0 "
    "like the empty slot before it, so a frame in flight to the slot is "
    "taken for the joiner's sequence 1 and the joiner's real first frame "
    "is discarded as its duplicate"))
def test_a_first_ever_join_is_owed_nothing_sent_before_it():
    machine = _machine(wire=HEALED, attached=(0, 1))
    machine.send(0, 2)            # in flight to the empty slot
    machine.nodes[2].join(machine.engine.now)
    machine._attach(2)
    fresh = machine.send(0, 2)
    _finish(machine)
    assert machine.delivered[(0, 2, 0)] == [fresh]


# last in the file: under ``pytest -x`` a pinned corner above fails
# fast before the search starts shrinking
TestTransportStateMachine = TransportMachine.TestCase
# deadline policy comes from the profile in tests/conftest.py
TestTransportStateMachine.settings = settings(
    max_examples=60, stateful_step_count=40)
