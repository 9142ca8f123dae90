"""The heartbeat fan-out is the per-frame loop, draw for draw.

``Network.transmit_heartbeats`` admits each frame on its own but draws
the survivors' jitter in one bulk call and skips the endpoint's
per-frame gate.  Its contract is that nothing observable moves: for any
wire configuration, destination list and mute stamps it must leave the
same counters, the same arrival schedule, the same trace and the same
RNG state as the loop of ``transmit(Frame("hb", ...))`` it replaced —
which is kept here, verbatim, as the reference.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

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
