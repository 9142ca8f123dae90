"""Direct timed calls into single layers, at a workload's rank count.

Each bench builds its object outside the timer, times one batch of
public calls, repeats ``REPEATS`` times on fresh objects and reports the
fastest batch as operations per second (the quiet-host reading: host
noise here only ever adds time).  Batches are sized so that each takes
tens of milliseconds at n=16 and n=512 alike.

A micro number is a lead, not a result: it should move ``msgs_per_s`` on
the workload where its layer's ``self_share`` is large and nothing where
that share is ~0.  ``core.vectors.*`` at n=16 versus n=512 is the pair
that exposes a small-n win bought with a large-n loss.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.core import wire
from repro.core.log_store import SenderLog
from repro.core.vectors import DependIntervalVector
from repro.faults.detector import AccrualEstimator, DetectorConfig
from repro.metrics.costs import CostModel
from repro.metrics.counters import RankMetrics
from repro.protocols.base import LoggedMessage
from repro.protocols.checkpoint import Checkpoint, CheckpointStore
from repro.protocols.compression import VectorDeltaDecoder, VectorDeltaEncoder
from repro.protocols.pwd import Determinant
from repro.protocols.registry import create_protocol
from repro.simnet.engine import Engine
from repro.simnet.network import Frame, Network, NetworkConfig
from repro.simnet.node import NodeSet
from repro.simnet.rng import RngStreams
from repro.simnet.trace import Trace

REPEATS = 5

#: ``make() -> (run, ops)``: set-up happens in ``make``, only ``run`` is timed
Bench = Callable[[], tuple[Callable[[], Any], int]]


def _rate(make: Bench) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        run, ops = make()
        t0 = time.perf_counter()
        run()
        best = min(best, (time.perf_counter() - t0) / ops)
    return 1.0 / best


class _Services:
    """The narrow endpoint surface a protocol needs, with nothing behind
    it: control sends and resends vanish, timers go to a private engine."""

    def __init__(self, nprocs: int, compress: bool) -> None:
        self.nprocs = nprocs
        self.compress_piggybacks = compress
        self.engine = Engine()

    def now(self) -> float:
        return self.engine.now

    def incarnation_epoch(self) -> int:
        return 0

    def schedule(self, delay: float, fn: Callable[[], None]) -> Any:
        return self.engine.schedule(delay, fn)

    def send_control(self, dst: int, ctl: str, payload: Any, size_bytes: int) -> None:
        pass

    def broadcast_control(self, ctl: str, payload: Any, size_bytes: int) -> None:
        pass

    def resend_logged(self, item: Any) -> None:
        pass

    def wake_delivery(self) -> None:
        pass


def _protocol(name: str, n: int, compress: bool):
    return create_protocol(name, 0, n, _Services(n, compress), CostModel(),
                           RankMetrics(rank=0), Trace(enabled=False))


def _meta(send_index: int, piggyback: Any) -> dict[str, Any]:
    """Frame metadata shaped like the endpoint builds it."""
    return {"tag": 0, "send_index": send_index, "pb": piggyback, "ack": None,
            "app_size": 1024, "resend": False}


def _peer_piggybacks(n: int, count: int) -> list:
    """``count`` successive piggybacks of a busy peer (rank 1): between two
    of them it delivered one message and learned of two other ranks'
    progress, so merging them in order changes a few entries each time."""
    peer = DependIntervalVector(n, owner=1)
    out = []
    for i in range(count):
        peer.advance_own()
        gossip = [0] * n
        gossip[(2 + i) % n] = i + 1
        gossip[(7 + 3 * i) % n] = i + 1
        peer.merge(gossip)
        out.append(peer.as_piggyback())
    return out


# ----------------------------------------------------------------------
def engine_events(n: int, work: float) -> float:
    events = max(200, int(20_000 * work))

    def make():
        engine = Engine()
        left = [events]

        def tick():
            left[0] -= 1
            if left[0]:
                engine.schedule(1e-6, tick)

        engine.schedule(0.0, tick)
        return engine.run, events

    return _rate(make)


def network_frames(n: int, work: float) -> float:
    frames = max(100, int(5_000 * work))

    def make():
        engine = Engine()
        net = Network(engine, NodeSet(2), NetworkConfig(), RngStreams(0))
        net.attach(1, lambda frame: None)

        def run():
            for i in range(frames):
                net.transmit(Frame("app", 0, 1, i, 64))
            engine.run()

        return run, frames

    return _rate(make)


def vector_merges(n: int, work: float) -> float:
    count = max(32, int(4_000 * work))
    piggybacks = _peer_piggybacks(n, 64)

    def make():
        vector = DependIntervalVector(n, owner=0)

        def run():
            for i in range(count):
                vector.merge(piggybacks[i % 64])

        return run, count

    return _rate(make)


def vector_piggybacks(n: int, work: float) -> float:
    count = max(32, int(4_000 * work))

    def make():
        vector = DependIntervalVector(n, owner=0)

        def run():
            for _ in range(count):
                vector.advance_own()
                vector.as_piggyback()

        return run, count

    return _rate(make)


def _wire_samples(n: int) -> tuple[tuple, tuple, tuple]:
    values = tuple((7 * k) % 90 for k in range(n))
    epochs = (0,) * n
    changes = tuple((k, 40 + k, 0) for k in (0, n // 3, n - 1))
    return values, epochs, changes


def wire_encodes(n: int, work: float) -> float:
    count = max(8, int(40_000 * work / n))
    values, epochs, changes = _wire_samples(n)

    def make():
        def run():
            for i in range(count):
                wire.encode_vector_full(values, epochs, i, seq=i)
                wire.encode_vector_delta(changes, i, i)

        return run, 2 * count

    return _rate(make)


def wire_decodes(n: int, work: float) -> float:
    count = max(8, int(40_000 * work / n))
    values, epochs, changes = _wire_samples(n)
    full = wire.encode_vector_full(values, epochs, 5, seq=5)
    delta = wire.encode_vector_delta(changes, 5, 5)

    def make():
        def run():
            for _ in range(count):
                wire.decode_vector_record(full, n)
                wire.decode_vector_record(delta, n)

        return run, 2 * count

    return _rate(make)


def compression_roundtrips(n: int, work: float) -> float:
    count = max(16, int(2_000 * work))
    gossip = _peer_piggybacks(n, 64)

    def make():
        vector = DependIntervalVector(n, owner=0)
        encoder = VectorDeltaEncoder(vector)
        decoder = VectorDeltaDecoder(n)

        def run():
            for i in range(count):
                vector.advance_own()
                vector.merge(gossip[i % 64])
                blob, _ = encoder.encode(1, vector.as_piggyback(), i + 1)
                decoder.decode(0, blob)

        return run, count

    return _rate(make)


def _send_deliver(name: str, n: int, compress: bool, count: int,
                  piggybacks: list) -> float:
    def make():
        proto = _protocol(name, n, compress)

        def run():
            for i in range(count):
                proto.prepare_send(1 + i % (n - 1), 0, b"payload", 1024)
                proto.on_deliver(_meta(i + 1, piggybacks[i % len(piggybacks)]),
                                 src=1)

        return run, count

    return _rate(make)


def tdi_send_deliver(n: int, work: float, compress: bool) -> float:
    return _send_deliver("tdi", n, compress, max(16, int(2_000 * work)),
                         _peer_piggybacks(n, 64))


def tag_send_deliver(n: int, work: float, compress: bool) -> float:
    # each delivery adds to the antecedence graph and each send scans it,
    # so the batch is short: its cost grows with the square of its length
    count = max(16, int(300 * work))
    piggybacks = [{"dets": (Determinant(1, i + 1, 2 + i % (n - 2), i + 1),)}
                  for i in range(count)]
    return _send_deliver("tag", n, compress, count, piggybacks)


def log_append_release(n: int, work: float) -> float:
    count = max(32, int(4_000 * work))

    def make():
        log = SenderLog(n)

        def run():
            for i in range(count):
                dest = 1 + i % (n - 1)
                index = 1 + i // (n - 1)
                log.append(LoggedMessage(dest, index, 0, b"", 1024, None))
                if index % 8 == 0:
                    log.release_upto(dest, index - 4)

        return run, count

    return _rate(make)


def detector_phi(n: int, work: float) -> float:
    count = max(32, int(4_000 * work))
    config = DetectorConfig()

    def make():
        estimator = AccrualEstimator(
            0.0, window=config.window,
            bootstrap_mean=config.heartbeat_interval, floor=config.floor)

        def run():
            step = config.heartbeat_interval
            for i in range(1, count + 1):
                estimator.heartbeat(i * step)
                estimator.phi((i + 0.9) * step)

        return run, count

    return _rate(make)


def checkpoint_write_read(n: int, work: float) -> float:
    count = max(32, int(4_000 * work))
    delivered = [0] * n

    def make():
        store = CheckpointStore(CostModel())

        def run():
            for i in range(count):
                rank = i % n
                store.write(Checkpoint(rank, 0.0, i, {}, {}, 40 * 1024,
                                       delivered))
                store.read(rank)

        return run, count

    return _rate(make)


def run_all(n: int, compress: bool, work: float = 1.0) -> dict[str, float]:
    """Every micro metric at rank count ``n``; ``work`` scales batch sizes
    (the wiring pass uses a small fraction)."""
    return {
        "simnet.engine.micro_events_per_s": engine_events(n, work),
        "simnet.network.micro_frames_per_s": network_frames(n, work),
        "core.vectors.micro_merges_per_s": vector_merges(n, work),
        "core.vectors.micro_piggybacks_per_s": vector_piggybacks(n, work),
        "core.wire.micro_encodes_per_s": wire_encodes(n, work),
        "core.wire.micro_decodes_per_s": wire_decodes(n, work),
        "protocols.compression.micro_roundtrips_per_s":
            compression_roundtrips(n, work),
        "core.tdi.micro_send_deliver_per_s":
            tdi_send_deliver(n, work, compress),
        "protocols.tag_protocol.micro_send_deliver_per_s":
            tag_send_deliver(n, work, compress),
        "core.log_store.micro_append_release_per_s":
            log_append_release(n, work),
        "faults.detector.micro_phi_per_s": detector_phi(n, work),
        "protocols.checkpoint.micro_write_read_per_s":
            checkpoint_write_read(n, work),
    }
