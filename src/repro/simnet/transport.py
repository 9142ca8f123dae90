"""Reliable transport: per-channel sequencing, acks, retransmission.

A :class:`ReliableTransport` slots between the per-rank endpoints and
an impairable :class:`~repro.simnet.network.Network`, with the
network's ``attach`` / ``detach`` / ``transmit`` surface, and restores
the reliable FIFO channels *between failures* the logging protocols
assume.  Its contract is the reference model in
``tests/properties/reference_transport.py``, which
``tests/properties/test_stateful_transport.py`` checks this class
against.  On a wire with no impairment knob set it only numbers frames
and tags their destination epoch — no buffer, checksum, ack or event —
so a run is identical to one without it
(``tests/integration/test_transport_golden.py``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any

from repro.simnet.engine import Engine, EventHandle, SimulationError
from repro.simnet.network import MUTE_STAMPS, Frame, Network, ReceiveCallback
from repro.simnet.node import NodeSet
from repro.simnet.rng import RngStreams
from repro.simnet.trace import Trace

#: floor added to the per-frame retransmission timeout; the timeout
#: itself also covers the modelled round trip for the frame's size
RTO_MIN = 1e-3
#: multiplier applied to the retransmit interval after each attempt
RTO_BACKOFF = 2.0
#: retransmit-interval cap
RTO_MAX = 5e-2
#: each backoff interval is stretched by up to this fraction of seeded
#: jitter, decorrelating retransmit storms
RTO_JITTER = 0.1
#: minimum time a receiver waits for reverse traffic to piggyback its
#: cumulative ack before sending a standalone ``rt-ack`` frame
ACK_DELAY = 2e-4
#: ceiling on the adaptively stretched ack delay (see ``ACK_GAP_FACTOR``);
#: also the ack latency the retransmission timeout budgets for, so
#: coalescing never provokes a spurious retransmit
ACK_DELAY_MAX = 2e-3
#: the standalone-ack delay adapts to this many times the channel's
#: observed (EWMA) inter-arrival gap, clamped to [``ACK_DELAY``,
#: ``ACK_DELAY_MAX``] — steady traffic almost always piggybacks or
#: batches its acks instead of sending one per frame
ACK_GAP_FACTOR = 4.0
#: deliveries a channel may leave unacknowledged before a cumulative ack
#: is forced out immediately, bounding sender-buffer growth
ACK_MAX_PENDING = 64
#: retransmissions to a live peer before the transport gives up and
#: raises :class:`TransportStallError`
MAX_RETRANSMITS = 12
#: modelled wire size of a standalone ``rt-ack`` frame
ACK_FRAME_BYTES = 16


class TransportStallError(SimulationError):
    """A frame exhausted its retransmission budget against a live peer.

    Raised from the retransmit timer with a diagnosis naming the
    channel, the frame, the retry history and any active partition
    window, instead of the run hanging until the event budget runs out.
    """


@dataclass(frozen=True)
class TransportConfig:
    """Whether the reliable transport runs (``SimulationConfig.transport``).

    Disabled by default: the stock network is reliable, and the paper's
    experiments assume it.  Enabling it with all network impairments at
    zero is behaviour-preserving; its timing is the module constants.
    """

    enabled: bool = False


def payload_checksum(payload: Any, seq: int) -> int:
    """CRC-32 over a deterministic rendering of ``payload`` and ``seq``.

    The rendering only needs to be stable within one simulation (the
    digest is computed at send time and re-verified against the same
    object at arrival), so it hashes a cheap type-aware encoding rather
    than pickling: raw buffers for bytes-like and array payloads
    (``repr`` of a numpy array costs array-formatting time and
    dominated transport-on profiles), recursion for containers, ``repr``
    as the catch-all.
    """
    return zlib.crc32(_digest(payload) + seq.to_bytes(8, "little", signed=False))


def _digest(payload: Any) -> bytes:
    """A stable-within-one-run byte rendering of ``payload``."""
    if payload is None:
        return b"\x00"
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return bytes(payload)
    if isinstance(payload, (bool, int, float, str)):
        return repr(payload).encode("utf-8", "replace")
    tobytes = getattr(payload, "tobytes", None)
    if callable(tobytes):  # numpy arrays and scalars, array.array, ...
        tag = f"{getattr(payload, 'dtype', '')}{getattr(payload, 'shape', '')}"
        return tag.encode() + tobytes()
    if isinstance(payload, (tuple, list)):
        return b"(" + b",".join(_digest(item) for item in payload) + b")"
    if isinstance(payload, dict):
        return b"{" + b",".join(
            _digest(k) + b":" + _digest(v) for k, v in payload.items()) + b"}"
    try:
        return repr(payload).encode("utf-8", "replace")
    except Exception:  # pragma: no cover - repr() of exotic payloads
        return b"<unrepresentable>"


@dataclass
class _InFlight:
    """One unacknowledged frame, as buffered for retransmission."""

    #: the frame as handed over, without its mute stamp
    frame: Frame
    seq: int
    #: None when the wire cannot corrupt (checksums gated off)
    checksum: int | None
    first_sent: float
    retries: int = 0


class _SendChannel:
    """Sender-side state for one directed (src, dst) channel."""

    def __init__(self, src: int, dst: int, peer_epoch: int) -> None:
        self.src = src
        self.dst = dst
        #: the destination incarnation this channel is connected to
        self.peer_epoch = peer_epoch
        self.next_seq = 1
        self.unacked: dict[int, _InFlight] = {}
        self.timer: EventHandle | None = None
        #: current retransmit interval (grows by RTO_BACKOFF, capped)
        self.interval = 0.0

    def oldest(self) -> _InFlight | None:
        """The unacknowledged frame with the lowest sequence number."""
        return self.unacked[min(self.unacked)] if self.unacked else None


class _RecvChannel:
    """Receiver-side state for one directed (src, dst) channel, within
    one incarnation of ``dst`` (cleared on its attach and detach)."""

    def __init__(self, src: int, dst: int) -> None:
        self.src = src
        self.dst = dst
        #: next in-order sequence number; everything below is the dedup
        #: window (already delivered and acknowledged)
        self.next_expected = 1
        #: out-of-order frames parked until the gap below them fills
        self.reorder: dict[int, Frame] = {}
        self.ack_timer: EventHandle | None = None
        #: a delivery since the last ack went out (piggyback or not)
        self.ack_pending = False
        #: deliveries since the last ack went out (standalone-ack cap)
        self.pending_count = 0
        #: EWMA of the channel's data-frame inter-arrival gap (seconds);
        #: drives the adaptive standalone-ack delay
        self.gap_ewma = 0.0
        self.last_arrival: float | None = None

    @property
    def cumulative_ack(self) -> int:
        """Highest sequence number delivered in order."""
        return self.next_expected - 1


class ReliableTransport:
    """Ack/retransmit/dedup layer over an (impairable) :class:`Network`,
    one instance for every rank.  Receive-side state is volatile per
    incarnation; send-side in-flight buffers persist across the
    sender's death like frames on the wire."""

    def __init__(
        self,
        network: Network,
        nodes: NodeSet,
        rng: RngStreams,
        engine: Engine,
        trace: Trace | None = None,
        metrics: list | None = None,
    ) -> None:
        self.network = network
        self.nodes = nodes
        self.engine = engine
        self.trace = trace or Trace(enabled=False)
        #: per-rank RankMetrics list (service ranks beyond it uncounted)
        self.metrics = metrics or []
        self._rng = rng.stream("net.transport")
        self._upper: dict[int, ReceiveCallback] = {}
        self._send: dict[tuple[int, int], _SendChannel] = {}
        self._recv: dict[tuple[int, int], _RecvChannel] = {}
        #: an unimpaired wire cannot lose, duplicate or corrupt a frame,
        #: so buffers, checksums, acks and retransmit timers have nothing
        #: to do: ``transmit`` reduces to sequence-and-forward, and the
        #: run stays draw-for-draw identical to one without the transport
        self._retransmit_armed = network.config.impaired
        #: checksums exist to catch the corruption impairment; computing
        #: and re-verifying them on wires that cannot corrupt dominated
        #: clean-wire transport profiles
        self._checksums = network.config.corrupt_prob > 0

    # ------------------------------------------------------------------
    # Network surface (what endpoints and services call)
    # ------------------------------------------------------------------
    @property
    def stats(self):
        """The underlying network's wire-level counters."""
        return self.network.stats

    def attach(self, rank: int, callback: ReceiveCallback) -> None:
        """Register ``rank``'s frame handler and (re)connect its channels.

        Every peer's send channel *to* ``rank`` resets: buffered frames
        addressed to the dead incarnation are dropped (protocol-level
        recovery owns them) and numbering restarts.  Channels *from*
        ``rank`` are wire state and continue untouched.
        """
        self._upper[rank] = callback
        self.network.attach(rank, lambda frame: self._on_network_frame(rank, frame))
        self._clear_recv(rank)
        for src in self._drop_channels_to(rank, "rt.reset"):
            self._count(src, "rt_channel_resets")

    def detach(self, rank: int) -> None:
        """Drop ``rank``'s handler and its volatile receive state; its
        send channels keep retransmitting (sender death does not un-send
        a frame)."""
        self._upper.pop(rank, None)
        self.network.detach(rank)
        self._clear_recv(rank)

    def forget_peer(self, rank: int) -> None:
        """A rank left the computation (dynamic membership): drop every
        peer's send channel *to* it, with its timers and in-flight
        frames, and its volatile receive state.  The leaver's durable
        checkpoint and the logging protocols' rejoin-time resends own
        cross-departure redelivery."""
        self._drop_channels_to(rank, "rt.forget")
        self._clear_recv(rank)

    def transmit(self, frame: Frame) -> None:
        """Send ``frame`` reliably: sequence, checksum, buffer, piggyback."""
        ch = self._send_channel(frame.src, frame.dst)
        seq = ch.next_seq
        ch.next_seq = seq + 1
        meta = dict(frame.meta)
        if not self._retransmit_armed:
            # lossless wire: the only delivery hazard left is an epoch
            # mismatch across a failure, so the frame needs its sequence
            # number (numbering restarts stay observable) and its
            # destination epoch — no buffer, no checksum, no acks
            meta["rt"] = {"seq": seq, "de": ch.peer_epoch}
            frame.meta = meta
            self.network.transmit(frame)
            return
        # a mute stamp applies to the first transmission only: the
        # buffered frame must not carry it into every retransmission
        stamp = {key: meta.pop(key) for key in MUTE_STAMPS if key in meta}
        frame.meta = meta
        record = _InFlight(frame, seq,
                           payload_checksum(frame.payload, seq)
                           if self._checksums else None,
                           self.engine.now)
        ch.unacked[seq] = record
        self._send_record(ch, record, stamp)
        if ch.timer is None:
            self._arm_retransmit(ch, record)

    # ------------------------------------------------------------------
    # Sending internals
    # ------------------------------------------------------------------
    def _send_channel(self, src: int, dst: int) -> _SendChannel:
        key = (src, dst)
        ch = self._send.get(key)
        if ch is None:
            ch = _SendChannel(src, dst, self.nodes[dst].epoch)
            self._send[key] = ch
        return ch

    def _send_record(self, ch: _SendChannel, record: _InFlight,
                     stamp: dict[str, Any] | None = None) -> None:
        """Put one buffered frame on the wire (first send or retransmit)."""
        rt: dict[str, Any] = {"seq": record.seq, "de": ch.peer_epoch}
        if record.checksum is not None:
            rt["ck"] = record.checksum
        reverse = self._recv.get((ch.dst, ch.src))
        if reverse is not None:
            # piggyback our cumulative ack for the reverse channel (it
            # refers to the numbering connected to our current epoch):
            # this frame carries everything a standalone ack would
            rt["ack"] = reverse.cumulative_ack
            rt["ae"] = self.nodes[ch.src].epoch
            self._ack_sent(reverse)
        frame = record.frame
        self.network.transmit(Frame(frame.kind, ch.src, ch.dst, frame.payload,
                                    frame.size_bytes,
                                    {**frame.meta, **(stamp or {}), "rt": rt}))

    def _arm_retransmit(self, ch: _SendChannel, record: _InFlight) -> None:
        if ch.interval <= 0.0:
            # the initial timeout covers the frame's round trip and the
            # worst-case coalesced ack: a deliberately held-back
            # cumulative ack must never look like a lost frame
            net = self.network.config
            rtt = (self.network.delay_for(record.frame.size_bytes)
                   + self.network.delay_for(ACK_FRAME_BYTES)
                   + 2.0 * net.jitter_fraction * net.base_latency)
            ch.interval = RTO_MIN + rtt + ACK_DELAY_MAX
        delay = ch.interval * (1.0 + float(self._rng.uniform(0.0, RTO_JITTER)))
        ch.timer = self.engine.schedule(delay, lambda: self._retransmit_tick(ch))

    def _retransmit_tick(self, ch: _SendChannel) -> None:
        ch.timer = None
        if self._send.get((ch.src, ch.dst)) is not ch:
            return  # channel was reset; a fresh one owns the key now
        record = ch.oldest()
        if record is None:
            ch.interval = 0.0
            return
        if not self.nodes[ch.dst].alive:
            # the peer is down: its incarnation's re-attach will reset
            # this channel.  Keep a slow heartbeat, don't burn retries.
            ch.interval = RTO_MAX
            self._arm_retransmit(ch, record)
            return
        if record.retries >= MAX_RETRANSMITS:
            raise TransportStallError(self._diagnose_stall(ch, record))
        self._retransmit(ch, record)
        ch.interval = min(ch.interval * RTO_BACKOFF, RTO_MAX)
        self._arm_retransmit(ch, record)

    def _retransmit(self, ch: _SendChannel, record: _InFlight, **why: bool) -> None:
        """Send a buffered frame again (its timer fired, or a nack)."""
        record.retries += 1
        self._count(ch.src, "rt_retransmits")
        self.trace.emit("rt.retransmit", ch.src, dst=ch.dst, seq=record.seq,
                        retries=record.retries, frame_kind=record.frame.kind,
                        **why)
        self._send_record(ch, record)

    def _diagnose_stall(self, ch: _SendChannel, record: _InFlight) -> str:
        frame = record.frame
        elapsed = self.engine.now - record.first_sent
        lines = [
            f"reliable transport gave up on channel {ch.src}->{ch.dst}: "
            f"frame seq={record.seq} ({frame.kind}, {frame.size_bytes}B) "
            f"unacknowledged after {record.retries} retransmissions over "
            f"{elapsed:.6f}s of simulated time; peer is alive "
            f"(epoch {self.nodes[ch.dst].epoch})."
        ]
        active = [w for w in self.network.config.partitions
                  if w.severs(ch.src, ch.dst, self.engine.now)]
        if active:
            w = active[0]
            lines.append(
                f"an active partition window [{w.start:g}, {w.end:g}) "
                f"severs {w.side_a} from {w.side_b} — if it never heals, "
                f"this stall is unrecoverable by retransmission."
            )
        lines.append(
            f"{len(ch.unacked)} frame(s) buffered on this channel; "
            f"shorten the partition if the outage is meant to be survivable."
        )
        return " ".join(lines)

    # ------------------------------------------------------------------
    # Receiving internals
    # ------------------------------------------------------------------
    def _on_network_frame(self, rank: int, frame: Frame) -> None:
        rt = frame.meta.get("rt")
        if rt is None:
            # heartbeats bypass the transport (the detector hands them
            # to the network directly), so every beat arrives untagged:
            # deliver it as-is
            self._deliver(rank, frame)
            return
        if rt.get("ackonly"):
            # acks apply to surviving send-channel state regardless of
            # this rank's incarnation; staleness is judged per-ack (the
            # "ae" tag), not per-destination-epoch
            if frame.meta.get("corrupted"):
                self._reject_corrupt(rank, frame)
                return
            ch = self._process_ack(rank, frame.src, rt["ack"], rt.get("ae"))
            record = None if ch is None else ch.unacked.get(rt.get("nack"))
            if record is not None:
                # a nack names a checksum-rejected frame: resend it now
                self._retransmit(ch, record, nacked=True)
            return
        if "ack" in rt:
            self._process_ack(rank, frame.src, rt["ack"], rt.get("ae"))
        if rt.get("de") != self.nodes[rank].epoch:
            # addressed to a dead incarnation of this rank (the
            # piggybacked ack above is still valid: it is epoch-tagged)
            self.trace.emit("rt.stale_discard", rank, src=frame.src,
                            reason="dst-epoch", frame_id=frame.frame_id)
            return
        self._on_data_frame(rank, frame, rt)

    def _on_data_frame(self, rank: int, frame: Frame, rt: dict) -> None:
        if not self._retransmit_armed:
            # lossless wire: frames arrive exactly once and in order, so
            # the dedup window, reorder buffer and acks have no work;
            # hand the frame straight up
            self._deliver(rank, frame)
            return
        seq = rt["seq"]
        key = (frame.src, rank)
        ch = self._recv.get(key)
        if ch is None:
            ch = self._recv[key] = _RecvChannel(frame.src, rank)
        now = self.engine.now
        last = ch.last_arrival
        if last is not None and now > last:
            # TCP-style smoothed inter-arrival gap (alpha = 1/8): the
            # adaptive standalone-ack delay stretches to a few gaps so
            # steady traffic coalesces its acks
            gap = now - last
            ch.gap_ewma = (gap if ch.gap_ewma == 0.0
                           else 0.875 * ch.gap_ewma + 0.125 * gap)
        ch.last_arrival = now
        ck = rt.get("ck")
        if ck is not None and payload_checksum(frame.payload, seq) != ck:
            self._reject_corrupt(rank, frame, seq=seq)
            self._send_ack(ch, nack=seq)
            return
        if seq < ch.next_expected or seq in ch.reorder:
            # replayed sequence number: dedup window discard, but re-ack
            # *immediately* — a retransmission means the sender's copy of
            # our ack state is stale (the ack was probably dropped), and
            # a coalescing delay here would let its backoff fire again
            self._count(rank, "rt_dup_discards")
            self.trace.emit("rt.dup_discard", rank, src=frame.src, seq=seq,
                            frame_kind=frame.kind, frame_id=frame.frame_id)
            self._send_ack(ch)
            return
        if seq > ch.next_expected:
            # a gap usually means a loss in flight: ack immediately so
            # the sender learns where the hole starts without waiting
            # out the coalescing delay
            self.trace.emit("rt.reorder_buffer", rank, src=frame.src, seq=seq,
                            expected=ch.next_expected, frame_id=frame.frame_id)
            ch.reorder[seq] = frame
            self._send_ack(ch)
            return
        # in order: deliver, then drain whatever the gap was hiding
        ch.next_expected += 1
        self._schedule_ack(ch)
        self._deliver(rank, frame)
        while ch.next_expected in ch.reorder:
            queued = ch.reorder.pop(ch.next_expected)
            ch.next_expected += 1
            self._deliver(rank, queued)

    def _reject_corrupt(self, rank: int, frame: Frame, **seq: int) -> None:
        """Discard a frame the wire damaged, counted and traced."""
        self._count(rank, "rt_corrupt_rejects")
        self.stats.frames_dropped_corrupt += 1
        self.trace.emit("rt.corrupt_reject", rank, src=frame.src, **seq,
                        frame_kind=frame.kind, frame_id=frame.frame_id)

    def _deliver(self, rank: int, frame: Frame) -> None:
        callback = self._upper.get(rank)
        if callback is not None:
            callback(frame)

    # ------------------------------------------------------------------
    # Acknowledgements
    # ------------------------------------------------------------------
    def _schedule_ack(self, ch: _RecvChannel) -> None:
        ch.ack_pending = True
        ch.pending_count += 1
        if ch.pending_count >= ACK_MAX_PENDING:
            # bound the sender's unacked buffer: force the cumulative
            # ack out now instead of waiting for the timer
            self._send_ack(ch)
        elif ch.ack_timer is None:
            # the delay stretches to a few observed inter-arrival gaps,
            # so bursts of deliveries — or reverse traffic a few gaps
            # later — fold into one cumulative ack
            delay = min(max(ACK_GAP_FACTOR * ch.gap_ewma, ACK_DELAY), ACK_DELAY_MAX)
            ch.ack_timer = self.engine.schedule(delay, lambda: self._ack_tick(ch))

    def _ack_tick(self, ch: _RecvChannel) -> None:
        ch.ack_timer = None
        if self._recv.get((ch.src, ch.dst)) is ch and ch.ack_pending:
            self._send_ack(ch)

    def _ack_sent(self, ch: _RecvChannel, cancel: bool = True) -> None:
        """The channel's cumulative ack went out: nothing is pending, and
        the standalone-ack timer is cancelled unless ``cancel`` is off."""
        ch.ack_pending = False
        ch.pending_count = 0
        if cancel and ch.ack_timer is not None:
            self.engine.cancel(ch.ack_timer)
            ch.ack_timer = None

    def _send_ack(self, ch: _RecvChannel, nack: int | None = None) -> None:
        """Emit an ``rt-ack`` frame carrying the cumulative ack now.  A
        ``nack`` (a checksum-rejected sequence number) leaves a running
        ack timer armed: it fires to find nothing pending, or a delivery
        made since."""
        self._ack_sent(ch, cancel=nack is None)
        if not self.nodes[ch.src].alive:
            # the network would drop it at the dead node; the sender's
            # next retransmit after re-attach provokes a fresh ack
            return
        # the receive state producing this ack, and so its numbering,
        # belongs to our current incarnation
        rt: dict[str, Any] = {"ackonly": True, "ack": ch.cumulative_ack,
                              "ae": self.nodes[ch.dst].epoch}
        if nack is not None:
            rt["nack"] = nack
        self._count(ch.dst, "rt_acks_sent")
        self.network.transmit(
            Frame("rt-ack", ch.dst, ch.src, None, ACK_FRAME_BYTES, {"rt": rt}))

    def _process_ack(self, rank: int, peer: int, ack: int,
                     ack_epoch: int | None) -> _SendChannel | None:
        """Apply a cumulative ack from ``peer`` to ``rank``'s channel and
        return the channel — or ``None`` when there is none, or when
        ``ack_epoch`` (the receiver incarnation whose numbering the ack
        refers to) is not the one the channel is connected to: an ack
        minted before the channel was reset for a newer incarnation
        would otherwise clear renumbered frames never delivered."""
        ch = self._send.get((rank, peer))
        if ch is None or ack_epoch != ch.peer_epoch:
            return None
        for seq in [s for s in ch.unacked if s <= ack]:
            del ch.unacked[seq]
        if not ch.unacked:
            ch.interval = 0.0
            if ch.timer is not None:
                self.engine.cancel(ch.timer)
                ch.timer = None
        return ch

    # ------------------------------------------------------------------
    # Channel lifecycle
    # ------------------------------------------------------------------
    def _clear_recv(self, rank: int) -> None:
        """Forget ``rank``'s receive-side state (process memory)."""
        for key in [k for k in self._recv if k[1] == rank]:
            ch = self._recv.pop(key)
            if ch.ack_timer is not None:
                self.engine.cancel(ch.ack_timer)

    def _drop_channels_to(self, rank: int, kind: str) -> list[int]:
        """Discard every send channel toward ``rank`` with its timer,
        tracing ``kind`` for each that still held frames; returns the
        senders whose channel went."""
        senders = []
        for key in [k for k in self._send if k[1] == rank]:
            ch = self._send.pop(key)
            if ch.timer is not None:
                self.engine.cancel(ch.timer)
            if ch.unacked:
                self.trace.emit(kind, key[0], dst=rank, discarded=len(ch.unacked))
            senders.append(key[0])
        return senders

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def describe_pending(self) -> list[str]:
        """One line per channel with frames in flight, for a stall
        diagnosis: a recovery wedged behind an unreachable peer names
        the transport backlog instead of reporting a bare timeout."""
        lines = []
        for (src, dst), ch in sorted(self._send.items()):
            if not ch.unacked:
                continue
            oldest = ch.oldest()
            part = " [partitioned]" if self.network.partitioned(src, dst) else ""
            lines.append(
                f"transport {src}->{dst}: {len(ch.unacked)} unacked frame(s), "
                f"oldest seq={oldest.seq} ({oldest.frame.kind}) retried "
                f"{oldest.retries}x since t={oldest.first_sent:.6f}{part}"
            )
        return lines

    def _count(self, rank: int, counter: str) -> None:
        if 0 <= rank < len(self.metrics):
            metrics = self.metrics[rank]
            setattr(metrics, counter, getattr(metrics, counter) + 1)
