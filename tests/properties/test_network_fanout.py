"""The heartbeat fan-out is the per-frame loop, draw for draw.

``Network.transmit_heartbeats`` admits each frame on its own but draws
the survivors' jitter in one bulk call and skips the endpoint's
per-frame gate.  Its contract is that nothing observable moves: for any
wire configuration, destination list and mute stamps it must leave the
same counters, the same arrival schedule, the same trace and the same
RNG state as the loop of ``transmit(Frame("hb", ...))`` it replaced —
which is kept here, verbatim, as the reference.

The second half holds *held* heartbeats to the same loop.  With a reader
registered and nobody watching the trace, a beat whose fate is settled
at send time waits on its lane instead of in the engine; an armed
detector then ends up in exactly the state the per-frame events leave
it in — every arrival stamp of every channel, in the order heard,
suspicion and condemnations included — over random fan-outs interleaved
with attach / detach / gray gates / listeners / recoveries, sweeps
spaced closer than the wire delay, repeated destinations and mute
stamps that put held and event beats on one channel.
"""

import dataclasses

from hypothesis import example, given, settings, strategies as st

from repro.faults.detector import DetectorConfig, FailureDetector
from repro.simnet.engine import Engine
from repro.simnet.network import Frame, Network, NetworkConfig, PartitionWindow
from repro.simnet.node import NodeSet
from repro.simnet.rng import RngStreams
from repro.simnet.trace import Trace

NPROCS = 6
HB_BYTES = 16
SUBSTREAMS = ("net.jitter", "net.jitter.rt", "net.jitter.mship",
              "net.jitter.hb", "net.impair")

probabilities = st.sampled_from([0.0, 0.2, 0.5])

network_configs = st.builds(
    NetworkConfig,
    jitter_fraction=st.sampled_from([0.0, 0.5, 2.0]),
    shared_medium=st.booleans(),
    drop_prob=probabilities,
    dup_prob=probabilities,
    corrupt_prob=probabilities,
    partitions=st.sampled_from([
        (),
        (PartitionWindow(0.0, 1.0, (0, 1), (2, 3)),),
        (PartitionWindow(5.0, 6.0, (0,), (1, 2, 3, 4, 5)),),
    ]),
)

#: one tick's fan-out: who beats, toward whom (any order, repeats
#: allowed — the contract is per frame), and which peers are muted how
fanouts = st.tuples(
    st.integers(0, NPROCS - 1),
    st.lists(st.integers(0, NPROCS - 1), max_size=8),
    st.frozensets(st.integers(0, NPROCS - 1)),
    st.sampled_from([{"gray_drop": True}, {"gray_delay": 2e-3}]),
)


def _reference_loop(net, src, dsts, epoch, muted, stamp):
    """The parent commit's ``_hb_tick`` body: one gated ``transmit``
    per destination."""
    for dst in dsts:
        frame = Frame("hb", src, dst, None, HB_BYTES, {"epoch": epoch})
        if dst in muted:
            frame.meta.update(stamp)
        net.transmit(frame)


def _run(config, seed, ticks, send):
    """Drive ``ticks`` through ``send`` on a fresh network; return
    everything the two paths must agree on."""
    engine = Engine()
    rng = RngStreams(seed)
    trace = Trace(enabled=True, clock=lambda: engine.now)
    net = Network(engine, NodeSet(NPROCS), config, rng, trace)
    arrivals = []
    for rank in range(NPROCS):
        net.attach(rank, lambda frame: arrivals.append(
            (engine.now, frame.dst, frame.frame_id, dict(frame.meta))))
    # some main-lane traffic first, so the hb lane is not alone on the wire
    net.transmit(Frame("app", 0, 1, None, 64, {}))
    for epoch, (src, dsts, muted, stamp) in enumerate(ticks):
        send(net, src, dsts, epoch, muted, stamp)
        engine.run(until=engine.now + 2.5e-4)
    engine.run()
    states = {name: rng.stream(name).bit_generator.state
              for name in SUBSTREAMS}
    return (dataclasses.asdict(net.stats), arrivals, trace.events, states,
            engine.events_fired)


@settings(max_examples=150, deadline=None)
@given(network_configs, st.integers(0, 2**16), st.lists(fanouts, max_size=5))
def test_fanout_equals_per_frame_loop(config, seed, ticks):
    fanout = _run(
        config, seed, ticks,
        lambda net, src, dsts, epoch, muted, stamp:
            net.transmit_heartbeats(src, dsts, HB_BYTES, epoch, muted, stamp))
    loop = _run(config, seed, ticks, _reference_loop)
    for got, want in zip(fanout, loop):
        assert got == want


# ----------------------------------------------------------------------
# Held heartbeats: a beat that waits on its lane is the event it replaces
# ----------------------------------------------------------------------

ranks = st.integers(0, NPROCS - 1)

#: quick to suspect and to condemn, and a window that never forgets: the
#: estimators end up holding every arrival stamp in the order it was
#: heard, so a beat heard late, out of channel order or at the wrong
#: time shows in the final state
DETECTOR = DetectorConfig(enabled=True, heartbeat_interval=1e-4,
                          suspect_phi=0.5, condemn_phi=3.0, floor=2e-5,
                          window=10_000)

#: what can happen between two clock advances.  A beat's wire delay is
#: 103-153 us at the default jitter, so most advances are shorter than
#: it: beats sent at several instants are in flight at once, and an
#: attach, detach, gray gate, listener or recovery lands between a
#: beat's send and its arrival.  ``judge`` is one tick instant: every
#: rank sweeps, in rank order.  Mute delays start at zero, so a stamped
#: (event) beat can arrive right behind a held one of its channel
steps = st.one_of(
    st.tuples(st.just("beat"), st.tuples(
        ranks, st.lists(ranks, max_size=8), st.frozensets(ranks),
        st.sampled_from([{"gray_drop": True}, {"gray_delay": 0.0},
                         {"gray_delay": 2e-5}, {"gray_delay": 2e-3}]))),
    st.tuples(st.just("beat"), st.tuples(
        ranks, st.lists(ranks, max_size=8), st.just(frozenset()), st.just({}))),
    st.tuples(st.sampled_from(["attach", "detach", "gray", "recover"]), ranks),
    st.tuples(st.sampled_from(["listen", "unlisten", "judge", "judge"]),
              st.none()),
    st.tuples(st.just("advance"), st.sampled_from([3e-5, 1e-4, 2.5e-4])),
)

#: mostly the wire beats are held on; any other one must change nothing
wires = st.one_of(
    st.builds(NetworkConfig, jitter_fraction=st.sampled_from([0.0, 0.5, 2.0])),
    st.builds(NetworkConfig, jitter_fraction=st.sampled_from([0.0, 0.5, 2.0])),
    network_configs)


def _ignore(event):
    """A listener that wants nothing."""


def _run_script(config, seed, script, hold):
    """Play ``script`` on a fresh, unrecorded network under an armed
    detector — which reads held heartbeats off the wire (fan-out API),
    or hears every beat as an event (the per-frame loop, no reader) —
    and return what the two must agree on, plus what they may not:
    events fired and beats that reached the detector held."""
    engine = Engine()
    rng = RngStreams(seed)
    trace = Trace(enabled=False, clock=lambda: engine.now)
    net = Network(engine, NodeSet(NPROCS), config, rng, trace)
    detector = FailureDetector()
    condemned = []
    detector.arm(DETECTOR, lambda rank: True,
                 lambda *verdict: condemned.append(verdict),
                 wire=net if hold else None)
    arrivals = []
    held = []

    def on_frame(frame):
        arrivals.append((engine.now, frame.dst, frame.frame_id,
                         dict(frame.meta)))
        if frame.kind == "hb":
            detector.observe_heartbeat(frame.dst, frame.src, engine.now)

    def read(beats):
        held.extend((arrival, dst, frame_id, {"epoch": epoch})
                    for arrival, _src, dst, frame_id, epoch, _size in beats)
        detector._hear_held(beats)

    if hold:
        net.hold_heartbeats(read)
    for rank in range(NPROCS):
        net.attach(rank, on_frame)
    net.transmit(Frame("app", 0, 1, None, 64, {}))
    epoch = 0
    for action, arg in script:
        if action == "beat":
            epoch += 1
            src, dsts, muted, stamp = arg
            if hold:
                net.transmit_heartbeats(src, dsts, HB_BYTES, epoch, muted, stamp)
            else:
                _reference_loop(net, src, dsts, epoch, muted, stamp)
        elif action == "attach":
            net.attach(arg, on_frame)
        elif action == "detach":
            net.detach(arg)
        elif action == "gray":
            net.stop_holding(arg)
        elif action == "recover":
            detector.observe_recovery(arg, engine.now, epoch)
        elif action == "listen":
            trace.attach_listener(_ignore)
        elif action == "unlisten":
            trace.detach_listener(_ignore)
        elif action == "judge":
            for rank in range(NPROCS):
                detector.evaluate(rank, engine.now, range(NPROCS))
        else:
            engine.run(until=engine.now + arg)
    net.flush_heartbeats()
    engine.run()
    detector.observe_run_end(engine.now)
    states = {name: rng.stream(name).bit_generator.state
              for name in SUBSTREAMS}
    estimators = {key: (est.last_arrival, tuple(est._gaps))
                  for key, est in detector._estimators.items()}
    return ((dataclasses.asdict(net.stats),
             sorted(arrivals + held, key=lambda arrival: arrival[:3]),
             states, estimators, detector.suspicion, condemned),
            engine.events_fired, len(held))


#: the shortest scripts that tell a broken flush rule from a working
#: one, so each stays pinned whatever the random search finds
_BEAT_ALL = ("beat", (0, [1, 2], frozenset(), {}))


@settings(max_examples=300, deadline=None)
@given(wires, st.integers(0, 2**16), st.lists(steps, max_size=30))
@example(NetworkConfig(), 0, [
    # sweeps drain per instant, not per observer: rank 1 hears nothing
    # new from 0 and suspects it *after* the beat 0 -> 2 cleared it
    _BEAT_ALL, ("advance", 2.5e-4), ("judge", None),
    ("beat", (0, [2], frozenset(), {})), ("advance", 2.5e-4),
    ("judge", None)])
@example(NetworkConfig(), 0, [
    # a mute-stamped beat is an event right behind a held one
    _BEAT_ALL, ("advance", 3e-5),
    ("beat", (0, [1, 2], frozenset([1]), {"gray_delay": 0.0})),
    ("advance", 1e-4), ("advance", 1e-4)])
@example(NetworkConfig(), 0, [
    # a recovery clears after hearing what arrived, not before
    _BEAT_ALL, ("advance", 2.5e-4), ("recover", 0), ("judge", None)])
def test_held_beats_equal_per_frame_events(config, seed, script):
    """Counters, every arrival as (time, dst, frame id, meta), all five
    substreams and the detector's whole state — every stamp of every
    channel in the order heard, suspicion, condemnations — agree; each
    beat the detector was handed is exactly one engine event less."""
    held, held_events, handed = _run_script(config, seed, script, hold=True)
    loop, loop_events, none_handed = _run_script(config, seed, script, hold=False)
    assert held == loop
    assert none_handed == 0
    assert held_events == loop_events - handed


def test_clean_fanouts_are_held():
    """The property above is not vacuous: on a clean, unobserved wire
    every beat toward an attached rank waits on its lane."""
    script = [("beat", (0, [1, 2, 2, 3], frozenset(), {})),
              ("advance", 3e-5), ("detach", 3),
              ("beat", (1, [0, 2, 3], frozenset(), {})),
              ("advance", 2.5e-4)]
    _, events, handed = _run_script(NetworkConfig(), 7, script, hold=True)
    # rank 3: one beat flushed into an event at detach, one never held
    assert handed == 5
    assert events == 1 + 2
