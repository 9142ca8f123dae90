"""Network model.

Models the paper's testbed interconnect (100 Mb Ethernet between
commodity PCs) at the level the experiments are sensitive to:

* per-frame delay = ``base_latency`` + ``size_bytes / bandwidth`` + seeded
  jitter, so piggyback bytes directly cost transmission time;
* **per-channel FIFO**: frames between a given (src, dst) pair never
  overtake each other, as in MPICH over TCP.  Jitter across *different*
  channels freely reorders arrivals — this is the non-determinism the
  paper's recovery protocol must tolerate;
* frames addressed to a dead node are dropped (the failed process's
  volatile state, including its receive queues, is lost).

The base network does not retransmit: reliability above failures is the
logging protocol's job (that is the whole point of the paper).  What the
paper assumes *below* failures — per-channel reliable FIFO delivery — is
provided either ideally (the default: nothing is ever lost in transit)
or, when the :class:`NetworkConfig` impairment knobs are non-zero, by
the reliable transport in :mod:`repro.simnet.transport` sitting on top
of a deliberately misbehaving wire.

Impairment model (all off by default, all driven by the dedicated
``net.impair`` RNG substream so enabling them never perturbs the jitter
draws of an unimpaired run):

* ``drop_prob`` — each frame is lost in transit with this probability;
* ``dup_prob`` — each delivered frame is additionally replayed once,
  after a fresh (non-FIFO) delay: duplicates may overtake later traffic;
* ``corrupt_prob`` — each frame arrives bit-flipped: the frame is marked
  corrupted and any transport checksum it carries is inverted, so a
  checksumming receiver detects the damage and a non-checksumming one
  would consume garbage;
* ``partitions`` — scheduled :class:`PartitionWindow` s during which all
  traffic between two rank sets is silently discarded.

Heartbeats (:meth:`Network.transmit_heartbeats`) are the one traffic
class whose arrival does nothing but update its reader, the failure
detector.  On a clean wire a beat's arrival time is settled the moment
it is sent, so once a reader exists (:meth:`Network.hold_heartbeats`) a
beat toward an attached, never-grayed receiver is *held* on its lane —
an ``(arrival, src, dst, ...)`` record handed to the reader by
:meth:`Network.deliver_heartbeats` — instead of costing an engine event.
A beat is held only while nothing can change what its arrival does;
everything that can (receiver turnover, a gray gate, an impaired or
shared wire, a mute stamp, a trace that wants ``net.transmit`` or
``net.arrive``, the end of the run) turns it back into an ordinary
arrival event first.  The table is in ``docs/PROTOCOLS.md``, "Held and
event beats".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Collection, Sequence

from repro.simnet.engine import Engine
from repro.simnet.node import NodeSet
from repro.simnet.rng import RngStreams
from repro.simnet.trace import Trace

#: minimum spacing enforced between two arrivals on one channel, to keep
#: FIFO order strict even under jitter
_FIFO_EPSILON = 1e-9

#: the two kinds every frame emits: a listener for either un-holds beats
_FRAME_KINDS = ("net.transmit", "net.arrive")

#: the ``frame.meta`` keys of a mute gray fault's stamp
#: (``repro.faults.gray``), consumed by the mute gate in ``_admit``
MUTE_STAMPS = ("gray_drop", "gray_delay")


@dataclass(frozen=True)
class PartitionWindow:
    """A transient network partition between two rank sets.

    While ``start <= now < end`` every frame crossing from ``side_a`` to
    ``side_b`` (either direction) is discarded at transmission time.
    Ranks in neither set are unaffected — a window models a failed
    switch uplink or a routing flap isolating part of the machine, not a
    full outage.
    """

    start: float
    end: float
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "side_a", tuple(int(r) for r in self.side_a))
        object.__setattr__(self, "side_b", tuple(int(r) for r in self.side_b))
        if self.start < 0 or self.end < self.start:
            raise ValueError("partition window needs 0 <= start <= end")
        if not self.side_a or not self.side_b:
            raise ValueError("partition window needs two non-empty sides")
        if set(self.side_a) & set(self.side_b):
            raise ValueError("partition window sides must be disjoint")

    def severs(self, src: int, dst: int, now: float) -> bool:
        """Whether a ``src -> dst`` frame at time ``now`` is cut off."""
        if not (self.start <= now < self.end):
            return False
        return (src in self.side_a and dst in self.side_b) or (
            src in self.side_b and dst in self.side_a
        )


@dataclass(frozen=True)
class NetworkConfig:
    """Interconnect parameters.

    Defaults approximate the paper's 100 Mb switched Ethernet: ~100 µs
    one-way latency, 12.5 MB/s payload bandwidth, and a *reliable* wire
    (all impairment probabilities zero, no partition windows).
    """

    base_latency: float = 100e-6
    bandwidth_bytes_per_s: float = 12.5e6
    #: jitter is uniform in [0, jitter_fraction * base_latency]
    jitter_fraction: float = 0.5
    header_bytes: int = 32
    #: model a shared medium (hub / half-duplex segment): transmissions
    #: serialize through one collision domain instead of enjoying
    #: per-channel bandwidth.  Off by default — the paper's testbed is
    #: switched Ethernet — but available for contention ablations.
    shared_medium: bool = False
    #: per-frame probability of loss in transit
    drop_prob: float = 0.0
    #: per-frame probability of a one-shot replay (delivered twice)
    dup_prob: float = 0.0
    #: per-frame probability of payload corruption in transit
    corrupt_prob: float = 0.0
    #: scheduled partition windows between rank sets
    partitions: tuple[PartitionWindow, ...] = ()

    def __post_init__(self) -> None:
        if self.base_latency < 0:
            raise ValueError("base_latency must be >= 0")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be > 0")
        if self.jitter_fraction < 0:
            raise ValueError("jitter_fraction must be >= 0")
        if self.header_bytes < 0:
            raise ValueError("header_bytes must be >= 0")
        for name in ("drop_prob", "dup_prob", "corrupt_prob"):
            p = getattr(self, name)
            if not (0.0 <= p < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {p}")
        object.__setattr__(self, "partitions", tuple(self.partitions))

    @property
    def impaired(self) -> bool:
        """Whether any impairment (loss, dup, corruption, partition) is on."""
        return bool(
            self.drop_prob or self.dup_prob or self.corrupt_prob or self.partitions
        )


@dataclass(slots=True)
class Frame:
    """One unit on the wire.

    ``kind`` distinguishes application messages (``"app"``) from protocol
    control traffic (``"ack"``, ``"ctl"``) and the reliable transport's
    standalone cumulative acks (``"rt-ack"``); control subtypes live in
    ``meta["ctl"]`` (e.g. ``"ROLLBACK"``, ``"RESPONSE"``,
    ``"CHECKPOINT_ADVANCE"``, ``"EVLOG"``).  ``size_bytes`` is the full
    modelled wire size including piggyback and headers.

    ``frame_id`` is assigned by the :class:`Network` that transmits the
    frame (0 until then).  Ids are per-network, not process-global, so
    identical configs + seeds produce identical traces regardless of
    what other simulations ran earlier in the same process.
    """

    kind: str
    src: int
    dst: int
    payload: Any
    size_bytes: int
    meta: dict[str, Any] = field(default_factory=dict)
    frame_id: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ctl = self.meta.get("ctl")
        tag = f"/{ctl}" if ctl else ""
        return f"<Frame#{self.frame_id} {self.kind}{tag} {self.src}->{self.dst} {self.size_bytes}B>"


@dataclass
class NetworkStats:
    """Wire-level counters, with drops split by cause.

    ``frames_dropped`` is derived: dead-node drops + impairment losses +
    partition discards + transport checksum rejects (the last is counted
    here by the :class:`~repro.simnet.transport.ReliableTransport`, which
    is the layer that detects corruption).
    """

    frames_sent: int = 0
    bytes_sent: int = 0
    app_frames: int = 0
    app_bytes: int = 0
    ctl_frames: int = 0
    ctl_bytes: int = 0
    #: frames discarded at a dead (or detached) destination
    frames_dropped_dead: int = 0
    #: frames lost in transit by the loss impairment
    frames_dropped_impaired: int = 0
    #: frames discarded inside a partition window
    frames_dropped_partition: int = 0
    #: frames rejected by the transport's checksum check
    frames_dropped_corrupt: int = 0
    #: frames swallowed by a mute gray fault (asymmetric omission)
    frames_dropped_gray: int = 0
    #: extra deliveries injected by the duplication impairment
    frames_duplicated: int = 0
    #: frames damaged in transit by the corruption impairment
    frames_corrupted: int = 0

    @property
    def frames_dropped(self) -> int:
        """Total frames that never reached their receiver intact."""
        return (
            self.frames_dropped_dead
            + self.frames_dropped_impaired
            + self.frames_dropped_partition
            + self.frames_dropped_corrupt
            + self.frames_dropped_gray
        )


ReceiveCallback = Callable[[Frame], None]


class Network:
    """The interconnect: point-to-point channels between all node pairs."""

    def __init__(
        self,
        engine: Engine,
        nodes: NodeSet,
        config: NetworkConfig,
        rng: RngStreams,
        trace: Trace | None = None,
    ) -> None:
        self.engine = engine
        self.nodes = nodes
        self.config = config
        self._jitter = rng.stream("net.jitter")
        #: standalone transport acks draw jitter from their own stream so
        #: enabling the reliable transport never perturbs the draws (and
        #: hence the arrival order) of the frames the protocols exchange
        self._rt_jitter = rng.stream("net.jitter.rt")
        #: membership control frames (JOIN/LEAVE) likewise ride a
        #: dedicated lane: a run whose joins all land before the first
        #: send must leave the main jitter draws — and so every data
        #: frame's arrival time — identical to the same run at fixed n
        self._mship_jitter = rng.stream("net.jitter.mship")
        #: heartbeats too: arming the accrual failure detector must be
        #: trace-invisible on a clean run, so its periodic beats draw
        #: jitter from their own substream and ride their own FIFO lane
        self._hb_jitter = rng.stream("net.jitter.hb")
        #: impairment draws live on a dedicated stream for the same reason
        self._impair = rng.stream("net.impair") if config.impaired else None
        self.trace = trace or Trace(enabled=False)
        self.stats = NetworkStats()
        self._receivers: dict[int, ReceiveCallback] = {}
        #: the last frame id handed out (ids start at 1)
        self._frame_ids = 0
        #: last scheduled arrival per channel, for the FIFO guarantee.
        #: Standalone transport acks use a separate ("rt"-suffixed) lane:
        #: they carry only idempotent cumulative-ack state, so ordering
        #: them against data frames would cost determinism for nothing.
        self._last_arrival: dict[tuple, float] = {}
        #: the same for the ``hb`` lane, per sender and keyed by
        #: destination: held and event beats clamp against one entry
        self._hb_last_arrival: list[dict[int, float]] = [{} for _ in nodes.nodes]
        #: shared-medium mode: when the collision domain frees up
        self._medium_free_at: float = 0.0
        #: who reads held heartbeats (:meth:`hold_heartbeats`)
        self._hb_reader: Callable[[list[tuple]], None] | None = None
        #: held heartbeats per receiver, in send order (so FIFO per
        #: channel): ``(arrival, src, dst, frame_id, epoch, size_bytes)``
        self._held: list[list[tuple]] = [[] for _ in nodes.nodes]
        #: receivers a beat may be held for: attached, and not grayed
        #: since (:meth:`stop_holding`)
        self._holdable: set[int] = set()
        # who watches frames hears every arrival stamped after it attached
        self.trace.when_activated(self.flush_heartbeats, _FRAME_KINDS)

    # ------------------------------------------------------------------
    def attach(self, rank: int, callback: ReceiveCallback) -> None:
        """Register (or replace, after an incarnation) the frame handler
        for ``rank``."""
        self._receivers[rank] = callback
        self._holdable.add(rank)

    def detach(self, rank: int) -> None:
        """Drop the rank's frame handler (its frames now drop)."""
        self._receivers.pop(rank, None)
        self.stop_holding(rank)

    def forget_peer(self, rank: int) -> None:
        """A rank left the computation.  The raw wire keeps no per-peer
        channel state to forget; the reliable transport (same fabric
        surface) drops its send channels toward the leaver."""

    def describe_pending(self) -> list[str]:
        """In-flight backlog lines for a stall diagnosis: the raw wire
        holds no frames back (the reliable transport names its unacked
        channels)."""
        return []

    # ------------------------------------------------------------------
    def delay_for(self, size_bytes: int) -> float:
        """Deterministic part of the transit delay for a frame."""
        cfg = self.config
        return cfg.base_latency + (size_bytes + cfg.header_bytes) / cfg.bandwidth_bytes_per_s

    def partitioned(self, src: int, dst: int) -> bool:
        """Whether a ``src -> dst`` frame is inside a partition window now."""
        now = self.engine.now
        return any(w.severs(src, dst, now) for w in self.config.partitions)

    def transmit(self, frame: Frame) -> None:
        """Inject a frame; it arrives after the modelled delay (FIFO per
        channel) unless an impairment claims it or the destination is
        dead at arrival time."""
        verdict = self._admit(frame)
        if verdict is None:
            return
        lane: dict = self._last_arrival
        if frame.kind == "rt-ack":
            jitter_stream = self._rt_jitter
            channel: Any = (frame.src, frame.dst, "rt")
        elif frame.kind == "ctl" and frame.meta.get("ctl") in ("JOIN", "LEAVE"):
            jitter_stream = self._mship_jitter
            channel = (frame.src, frame.dst, "mship")
        elif frame.kind == "hb":
            jitter_stream = self._hb_jitter
            lane, channel = self._hb_last_arrival[frame.src], frame.dst
        else:
            jitter_stream = self._jitter
            channel = (frame.src, frame.dst)
        cfg = self.config
        jitter = (float(jitter_stream.uniform(0.0, cfg.jitter_fraction * cfg.base_latency))
                  if cfg.jitter_fraction > 0 else 0.0)
        self._schedule(frame, lane, channel, jitter, *verdict)

    def transmit_heartbeats(self, src: int, dsts: Sequence[int], size_bytes: int,
                            epoch: int, muted: Collection[int],
                            stamp: dict[str, Any]) -> None:
        """One rank's heartbeat fan-out: ``transmit(Frame("hb", src, dst,
        None, size_bytes, {"epoch": epoch}))`` for each of ``dsts`` in
        order, frames toward ``muted`` ranks carrying the mute ``stamp``.
        The survivors' jitter is one bulk draw, which consumes the
        generator exactly as that many scalar draws do (the ``hb`` lane
        owns its substream, so no other draw can fall between them).

        While partition, mute stamp and wire impairments can claim a
        frame — or someone watches frames on the trace, or nobody reads
        held beats — each frame is admitted on its own (:meth:`_admit`)
        and arrives as an event.  Otherwise none of them applies to any
        frame of the fan-out: it is counted in bulk (``k`` frames,
        ``k`` consecutive ids) and each beat waits on its lane for
        :meth:`deliver_heartbeats`, or is an arrival event when its
        receiver cannot have beats held (:meth:`stop_holding`)."""
        cfg = self.config
        lane = self._hb_last_arrival[src]
        if (muted or self._impair is not None or cfg.shared_medium
                or not self.trace.wanted.isdisjoint(_FRAME_KINDS)
                or self._hb_reader is None):
            if muted:
                # the one case that can meet held beats: an event must
                # not reach the reader before what its channel holds
                self.flush_heartbeats()
            admitted = []
            for dst in dsts:
                meta = {"epoch": epoch, **stamp} if dst in muted else {"epoch": epoch}
                frame = Frame("hb", src, dst, None, size_bytes, meta)
                verdict = self._admit(frame)
                if verdict is not None:
                    admitted.append((frame, verdict))
            jitters = self._hb_jitters(len(admitted))
            for (frame, verdict), jitter in zip(admitted, jitters):
                self._schedule(frame, lane, frame.dst, jitter, *verdict)
            return
        count = len(dsts)
        if count and not (0 <= min(dsts) and max(dsts) < len(self._held)):
            raise ValueError(f"invalid destination rank in {list(dsts)}")
        frame_id = self._frame_ids
        self._frame_ids = frame_id + count
        stats = self.stats
        stats.frames_sent += count
        stats.bytes_sent += count * size_bytes
        stats.ctl_frames += count
        stats.ctl_bytes += count * size_bytes
        now = self.engine.now
        # _schedule's arithmetic with no mute delay and a private medium
        base = self.delay_for(size_bytes)
        held = self._held
        holdable = self._holdable
        for dst, jitter in zip(dsts, self._hb_jitters(count)):
            frame_id += 1
            arrival = now + (base + jitter)
            prev = lane.get(dst, -1.0)
            if arrival <= prev:
                arrival = prev + _FIFO_EPSILON
            lane[dst] = arrival
            beat = (arrival, src, dst, frame_id, epoch, size_bytes)
            if dst in holdable:
                held[dst].append(beat)
            else:
                self._arrive_later(beat)

    def _hb_jitters(self, count: int) -> list[float]:
        """``count`` jitter draws from the ``hb`` substream, in one call."""
        cfg = self.config
        if cfg.jitter_fraction > 0:
            return self._hb_jitter.uniform(
                0.0, cfg.jitter_fraction * cfg.base_latency, size=count).tolist()
        return [0.0] * count

    # ------------------------------------------------------------------
    # Held heartbeats
    # ------------------------------------------------------------------
    def hold_heartbeats(self, reader: Callable[[list[tuple]], None]) -> None:
        """From now on a beat whose fate is settled at send time waits
        on its lane instead of in the engine, and ``reader`` — the armed
        failure detector — is handed the arrived ones as a list of
        ``(arrival, src, dst, frame_id, epoch, size_bytes)``, FIFO per
        channel.  Each arrived at its ``arrival``, not when it is handed
        over: the reader stamps it so, and asks for what has arrived
        (:meth:`deliver_heartbeats`) before it reads or clears anything
        a beat can touch.  Without a reader every beat is an event."""
        self._hb_reader = reader

    def deliver_heartbeats(self, now: float) -> None:
        """Hand the reader every held beat that has arrived by ``now``."""
        arrived = []
        for queue in self._held:
            due = [beat for beat in queue if beat[0] <= now]
            if due:
                arrived += due
                queue[:] = [beat for beat in queue if beat[0] > now]
        if arrived:
            self._hb_reader(arrived)

    def flush_heartbeats(self, dst: int | None = None) -> None:
        """Something is about to change what a held beat's arrival does
        (or to watch it, or the run is ending): the reader is handed
        what has arrived, and the beats still held toward ``dst`` —
        toward anyone, by default — become the ordinary arrival events
        they would have been, at their recorded time with their recorded
        frame id and epoch."""
        self.deliver_heartbeats(self.engine.now)
        for queue in (self._held if dst is None else (self._held[dst],)):
            for beat in queue:
                self._arrive_later(beat)
            queue.clear()

    def stop_holding(self, rank: int) -> None:
        """``rank`` is turning over (:meth:`detach`) or has a gray gate,
        which may buffer an arrival and replay it at thaw time: flush the
        beats held toward it, and hold none until it attaches again."""
        self._holdable.discard(rank)
        self.flush_heartbeats(rank)

    def _arrive_later(self, beat: tuple) -> None:
        """The arrival event of one bulk-counted heartbeat."""
        arrival, src, dst, frame_id, epoch, size_bytes = beat
        self.engine.schedule_at(arrival, partial(self._arrive, Frame(
            "hb", src, dst, None, size_bytes, {"epoch": epoch}, frame_id)))

    def _admit(self, frame: Frame) -> tuple[float, float | None] | None:
        """Admission half of a transmission: count the frame, then let
        partition, mute stamp and wire impairments claim it.  Returns
        ``None`` for a claimed frame, else ``(gray_delay, replay)`` —
        the mute delay to add and, for a duplicated frame, the extra
        delay of its replay."""
        if not (0 <= frame.dst < len(self.nodes.nodes)):
            raise ValueError(f"invalid destination rank {frame.dst}")
        if frame.frame_id == 0:
            self._frame_ids = frame.frame_id = self._frame_ids + 1
        cfg = self.config
        stats = self.stats
        trace = self.trace
        stats.frames_sent += 1
        stats.bytes_sent += frame.size_bytes
        if frame.kind == "app":
            stats.app_frames += 1
            stats.app_bytes += frame.size_bytes
        else:
            stats.ctl_frames += 1
            stats.ctl_bytes += frame.size_bytes
        if "net.transmit" in trace.wanted:
            trace.emit("net.transmit", frame.src, dst=frame.dst, frame_kind=frame.kind,
                       size=frame.size_bytes, frame_id=frame.frame_id)

        if cfg.partitions and self.partitioned(frame.src, frame.dst):
            stats.frames_dropped_partition += 1
            trace.emit("net.impair.partition", frame.src, dst=frame.dst,
                       frame_kind=frame.kind, frame_id=frame.frame_id)
            return None
        # a mute gray fault at the *sender* stamps affected frames; the
        # stamp is consumed here, and the reliable transport buffers its
        # frames without it, so a retransmission travels normally
        if frame.meta.pop("gray_drop", False):
            stats.frames_dropped_gray += 1
            trace.emit("net.gray.drop", frame.src, dst=frame.dst,
                       frame_kind=frame.kind, frame_id=frame.frame_id)
            return None
        gray_delay = frame.meta.pop("gray_delay", 0.0)
        replay = None
        if self._impair is not None:
            # always three draws per frame, so one knob's setting never
            # shifts the draws another knob sees
            u_drop = float(self._impair.uniform(0.0, 1.0))
            u_dup = float(self._impair.uniform(0.0, 1.0))
            u_corrupt = float(self._impair.uniform(0.0, 1.0))
            if u_drop < cfg.drop_prob:
                stats.frames_dropped_impaired += 1
                trace.emit("net.impair.drop", frame.src, dst=frame.dst,
                           frame_kind=frame.kind, frame_id=frame.frame_id)
                return None
            if u_corrupt < cfg.corrupt_prob:
                self._corrupt(frame)
            if u_dup < cfg.dup_prob:
                # the replayed copy takes an independent path: fresh
                # delay, no FIFO bookkeeping — it may overtake later frames
                stats.frames_duplicated += 1
                trace.emit("net.impair.dup", frame.src, dst=frame.dst,
                           frame_kind=frame.kind, frame_id=frame.frame_id)
                replay = float(self._impair.uniform(0.0, 2.0 * cfg.base_latency))
        return gray_delay, replay

    def _schedule(self, frame: Frame, lane: dict, channel: Any, jitter: float,
                  gray_delay: float, replay: float | None) -> None:
        """Scheduling half: modelled delay, FIFO clamp on ``channel`` of
        ``lane``, and the arrival event (plus the replay's, for a
        duplicate)."""
        cfg = self.config
        now = self.engine.now
        delay = self.delay_for(frame.size_bytes) + gray_delay + jitter
        if cfg.shared_medium:
            # one collision domain: the frame's wire time starts when the
            # medium frees up, so concurrent senders queue behind each
            # other instead of transmitting in parallel
            wire_time = (frame.size_bytes + cfg.header_bytes) / cfg.bandwidth_bytes_per_s
            start = max(now, self._medium_free_at)
            self._medium_free_at = start + wire_time
            arrival = start + delay
        else:
            arrival = now + delay
        prev = lane.get(channel, -1.0)
        if arrival <= prev:
            arrival = prev + _FIFO_EPSILON
        lane[channel] = arrival
        arrive = partial(self._arrive, frame)
        self.engine.schedule_at(arrival, arrive)
        if replay is not None:
            self.engine.schedule_at(arrival + _FIFO_EPSILON + replay, arrive)

    # ------------------------------------------------------------------
    def _corrupt(self, frame: Frame) -> None:
        """Damage a frame in transit.

        The frame is flagged, and if it carries a transport checksum
        (``meta["rt"]["ck"]``) the stored digest is inverted — the same
        observable effect as flipping payload bits: the receiver's
        recomputed checksum no longer matches.
        """
        self.stats.frames_corrupted += 1
        self.trace.emit("net.impair.corrupt", frame.src, dst=frame.dst,
                        frame_kind=frame.kind, frame_id=frame.frame_id)
        frame.meta["corrupted"] = True
        rt = frame.meta.get("rt")
        if rt is not None and "ck" in rt:
            rt["ck"] ^= 0xFFFFFFFF

    def _arrive(self, frame: Frame) -> None:
        node = self.nodes.nodes[frame.dst]
        callback = self._receivers.get(frame.dst)
        if not node.alive or callback is None:
            self.stats.frames_dropped_dead += 1
            self.trace.emit("net.drop", frame.dst, src=frame.src,
                            frame_kind=frame.kind, frame_id=frame.frame_id)
            return
        if "net.arrive" in self.trace.wanted:
            self.trace.emit("net.arrive", frame.dst, src=frame.src,
                            frame_kind=frame.kind, frame_id=frame.frame_id)
        callback(frame)
