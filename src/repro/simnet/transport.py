"""Reliable transport: per-channel sequencing, acks, retransmission.

The logging protocols assume what the paper's testbed (MPICH over TCP)
gave them: per-channel reliable FIFO delivery *between failures*.  The
:class:`~repro.simnet.network.Network` provides that ideally by default,
but once its impairment knobs are on — loss, duplication, corruption,
partition windows — somebody has to win reliability back.  That somebody
is this module: a :class:`ReliableTransport` slots between the per-rank
endpoints (:mod:`repro.mpi.endpoint`) and the raw network, exposing the
same ``attach``/``detach``/``transmit`` surface, and restores exactly
the channel contract the protocols were built on.

Mechanics, per directed channel (one :class:`_SendChannel` at the
sender, one :class:`_RecvChannel` at the receiver):

* every frame carries a sequence number — and, when the wire can
  corrupt (``corrupt_prob > 0``), a payload checksum — in ``meta["rt"]``;
* the receiver delivers strictly in sequence order, parks early frames
  in a reorder buffer, discards replayed sequence numbers (the dedup
  window is everything at or below the cumulative ack), and rejects
  checksum mismatches with an immediate nack;
* cumulative acks piggyback on any reverse-direction frame (cancelling
  any standalone ack still pending for that channel) and fall back to a
  standalone ``rt-ack`` frame after a delay that adapts to the channel's
  observed inter-arrival gap — ``ack_gap_factor`` smoothed gaps, clamped
  to [``ack_delay``, ``ack_delay_max``] — so steady traffic batches many
  deliveries per ack; ``ack_max_pending`` deliveries force one out;
* unacknowledged frames retransmit on a per-channel timer with capped
  exponential backoff plus seeded jitter (stream ``net.transport``);
  retransmission to a live, reachable peer that exceeds
  ``max_retransmits`` raises :class:`TransportStallError` — an
  unrecoverable partition surfaces as a diagnosis, not a hang.

Failures and incarnations.  The two channel ends have different
volatility, chosen to preserve exactly the delivery contract the raw
:class:`Network` gives the protocols:

* *Receive* state (reorder buffer, dedup window, pending acks) is
  process memory: killing a rank discards it.  When the incarnation
  re-attaches, every peer's send channel *to* it resets — buffered
  frames addressed to the dead incarnation are discarded (the logging
  protocol's rollback/resend machinery, not the transport, owns
  cross-failure redelivery; that is the paper's whole point) and
  sequence numbering restarts, modelling a transport reconnection.
* *Send*-side in-flight state survives the sender's death.  On the raw
  network a frame transmitted before its sender dies still arrives —
  it is on the wire, not in the process — and the protocols lean on
  that: a send covered by the sender's checkpoint is never re-executed,
  so if the wire could forget it on sender death the message would be
  lost forever (no copy exists anywhere to resend) and the receiver
  would deadlock.  The transport therefore models unacked buffers as
  wire/queue state: they keep retransmitting across the sender's death
  and settle once the acks can reach the (re-attached) sender.

Frames carry the destination epoch they were addressed to, and acks the
epoch of the receive state that produced them, so in-flight stragglers
addressed to a dead incarnation — and stale acks referring to a
pre-reset numbering — are recognised and discarded instead of poisoning
the fresh channel.

With the transport enabled but all impairments off, behaviour is
bit-identical to running without it — and nearly free.  Nothing short
of a failure can lose, duplicate or corrupt a frame on an unimpaired
wire (cross-failure loss is the protocol's job), so the transport keeps
only what failure semantics need: per-channel sequence numbers and the
destination-epoch tag.  No retransmit buffers, no checksums, no acks —
frames pass through synchronously with unchanged sizes and zero extra
events.  The golden-trace test in
``tests/integration/test_transport_golden.py`` holds this equivalence
pinned, and ``benchmarks/bench_substrate.py`` tracks the clean-wire
overhead ratio.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.simnet.engine import Engine, EventHandle, SimulationError
from repro.simnet.network import Frame, Network, ReceiveCallback
from repro.simnet.node import NodeSet
from repro.simnet.rng import RngStreams
from repro.simnet.trace import Trace


class TransportStallError(SimulationError):
    """A frame exhausted its retransmission budget against a live peer.

    Raised from the retransmit timer, so it aborts the simulation the
    same way a :class:`~repro.core.watchdog.RecoveryStallError` does —
    with a diagnosis naming the channel, the frame, the retry history
    and any partition window active at the time, instead of the run
    hanging until the event budget runs out.
    """


@dataclass(frozen=True)
class TransportConfig:
    """Reliable-transport knobs (``SimulationConfig.transport``).

    Disabled by default: the stock network is reliable, and the paper's
    experiments assume it.  Enabling the transport with all network
    impairments at zero is behaviour-preserving (see the module doc).
    """

    enabled: bool = False
    #: floor added to the per-frame retransmission timeout; the timeout
    #: itself also covers the modelled round trip for the frame's size
    rto_min: float = 1e-3
    #: multiplier applied to the retransmit interval after each attempt
    rto_backoff: float = 2.0
    #: retransmit-interval cap
    rto_max: float = 5e-2
    #: each backoff interval is stretched by up to this fraction of
    #: seeded jitter, decorrelating retransmit storms
    rto_jitter: float = 0.1
    #: minimum time a receiver waits for reverse traffic to piggyback
    #: its cumulative ack before sending a standalone ``rt-ack`` frame;
    #: 0 means "this engine timestamp cohort" — the ack fires at the
    #: delivery's own simulated instant, with no adaptive stretching
    ack_delay: float = 2e-4
    #: ceiling on the adaptively stretched ack delay (see
    #: ``ack_gap_factor``); also the ack latency the retransmission
    #: timeout budgets for, so coalescing never provokes a spurious
    #: retransmit
    ack_delay_max: float = 2e-3
    #: the standalone-ack delay adapts to ``ack_gap_factor`` times the
    #: channel's observed (EWMA) inter-arrival gap, clamped to
    #: [``ack_delay``, ``ack_delay_max``] — steady traffic almost always
    #: piggybacks or batches its acks instead of sending one per frame
    ack_gap_factor: float = 4.0
    #: deliveries a channel may leave unacknowledged before a cumulative
    #: ack is forced out immediately, bounding sender-buffer growth
    ack_max_pending: int = 64
    #: retransmissions to a live peer before the transport gives up and
    #: raises :class:`TransportStallError`
    max_retransmits: int = 12
    #: modelled wire size of a standalone ``rt-ack`` frame
    ack_frame_bytes: int = 16

    def __post_init__(self) -> None:
        if self.rto_min <= 0:
            raise ValueError("rto_min must be > 0")
        if self.rto_backoff < 1.0:
            raise ValueError("rto_backoff must be >= 1")
        if self.rto_max < self.rto_min:
            raise ValueError("rto_max must be >= rto_min")
        if self.rto_jitter < 0:
            raise ValueError("rto_jitter must be >= 0")
        if self.ack_delay < 0:
            raise ValueError("ack_delay must be >= 0")
        if self.ack_delay_max < self.ack_delay:
            raise ValueError("ack_delay_max must be >= ack_delay")
        if self.ack_gap_factor < 0:
            raise ValueError("ack_gap_factor must be >= 0")
        if self.ack_max_pending < 1:
            raise ValueError("ack_max_pending must be >= 1")
        if self.max_retransmits < 1:
            raise ValueError("max_retransmits must be >= 1")


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

    seq: int
    kind: str
    payload: Any
    size_bytes: int
    meta: dict[str, Any]
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
        #: current retransmit interval (grows by rto_backoff, capped)
        self.interval = 0.0

    def oldest(self) -> _InFlight | None:
        """The unacknowledged frame with the lowest sequence number."""
        if not self.unacked:
            return None
        return self.unacked[min(self.unacked)]


class _RecvChannel:
    """Receiver-side state for one directed (src, dst) channel.

    Lives entirely within one incarnation of ``dst`` (cleared on its
    attach and detach), so the numbering it tracks always corresponds
    to the send channel connected to the *current* ``dst`` epoch.
    """

    def __init__(self, src: int, dst: int) -> None:
        self.src = src
        self.dst = dst
        #: next in-order sequence number; everything below is the dedup
        #: window (already delivered and acknowledged)
        self.next_expected = 1
        #: out-of-order frames parked until the gap below them fills
        self.reorder: dict[int, Frame] = {}
        self.ack_timer: EventHandle | None = None
        #: a delivery/dup since the last ack went out (piggyback or not)
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
    """Ack/retransmit/dedup layer over an (impairable) :class:`Network`.

    Duck-types the network's ``attach``/``detach``/``transmit``
    surface, so endpoints and service nodes address the
    cluster *fabric* without knowing whether a transport is present.
    One instance serves every rank; receive-side state is volatile per
    incarnation while send-side in-flight buffers persist across the
    sender's death like frames on the wire (see the module doc).
    """

    def __init__(
        self,
        network: Network,
        config: TransportConfig,
        nodes: NodeSet,
        rng: RngStreams,
        engine: Engine,
        trace: Trace | None = None,
        metrics: list | None = None,
    ) -> None:
        self.network = network
        self.config = config
        self.nodes = nodes
        self.engine = engine
        self.trace = trace or Trace(enabled=False)
        #: per-rank RankMetrics list (service ranks beyond it uncounted)
        self.metrics = metrics or []
        self._rng = rng.stream("net.transport")
        self._upper: dict[int, ReceiveCallback] = {}
        self._send: dict[tuple[int, int], _SendChannel] = {}
        self._recv: dict[tuple[int, int], _RecvChannel] = {}
        #: retransmission is pointless on a lossless wire; skipping the
        #: timers entirely keeps zero-impairment runs draw-for-draw
        #: identical to transport-off runs.  The same observation gates
        #: the whole heavy path: an unimpaired wire cannot lose,
        #: duplicate or corrupt a frame, so there is nothing for
        #: buffers, checksums or acks to do and ``transmit`` reduces to
        #: sequence-and-forward (see the module doc).
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

        On an incarnation's re-attach every peer's send channel *to*
        ``rank`` resets: buffered frames addressed to the dead
        incarnation are dropped (protocol-level recovery owns them) and
        numbering restarts, so the fresh receive state and the senders
        agree on sequence 1.  Channels *from* ``rank`` are untouched —
        their unacked frames are wire state that kept retransmitting
        while the rank was down, and new sends continue their numbering.
        """
        self._upper[rank] = callback
        self.network.attach(rank, lambda frame: self._on_network_frame(rank, frame))
        self._clear_recv(rank)
        for key in [k for k in self._send if k[1] == rank]:
            self._reset_send_channel(key)

    def detach(self, rank: int) -> None:
        """Drop ``rank``'s handler and its volatile receive state.

        Send channels from ``rank`` survive (and their retransmit timers
        keep running): frames already handed to the transport are on the
        wire, and the raw network's contract — which the protocols'
        checkpoint coverage arguments depend on — is that sender death
        does not un-send them.
        """
        self._upper.pop(rank, None)
        self.network.detach(rank)
        self._clear_recv(rank)

    def forget_peer(self, rank: int) -> None:
        """A rank left the computation (dynamic membership): drop every
        peer's send channel *to* it — with its timers, so nobody
        heartbeats a permanently absent destination — and its volatile
        receive state.  In-flight frames are discarded: a leaver's
        durable checkpoint plus the logging protocols' rejoin-time
        resend machinery own cross-departure redelivery, exactly as they
        own cross-failure redelivery on an incarnation's re-attach."""
        for key in [k for k in self._send if k[1] == rank]:
            old = self._send.pop(key)
            if old.timer is not None:
                self.engine.cancel(old.timer)
            if old.unacked:
                self.trace.emit("rt.forget", key[0], dst=rank,
                                discarded=len(old.unacked))
        self._clear_recv(rank)

    def transmit(self, frame: Frame) -> None:
        """Send ``frame`` reliably: sequence, checksum, buffer, piggyback."""
        ch = self._send_channel(frame.src, frame.dst)
        seq = ch.next_seq
        ch.next_seq = seq + 1
        if not self._retransmit_armed:
            # lossless wire: the only delivery hazard left is an epoch
            # mismatch across a failure, so the frame needs its sequence
            # number (numbering restarts stay observable) and its
            # destination epoch — no buffer, no checksum, no acks
            meta = dict(frame.meta)
            meta["rt"] = {"seq": seq, "de": ch.peer_epoch}
            frame.meta = meta
            self.network.transmit(frame)
            return
        record = _InFlight(
            seq=seq,
            kind=frame.kind,
            payload=frame.payload,
            size_bytes=frame.size_bytes,
            meta=dict(frame.meta),
            checksum=(payload_checksum(frame.payload, seq)
                      if self._checksums else None),
            first_sent=self.engine.now,
        )
        ch.unacked[seq] = record
        self._send_record(ch, record)
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

    def _recv_channel(self, src: int, dst: int) -> _RecvChannel:
        key = (src, dst)
        ch = self._recv.get(key)
        if ch is None:
            ch = _RecvChannel(src, dst)
            self._recv[key] = ch
        return ch

    def _send_record(self, ch: _SendChannel, record: _InFlight) -> None:
        """Put one buffered frame on the wire (first send or retransmit)."""
        rt: dict[str, Any] = {
            "seq": record.seq,
            "de": ch.peer_epoch,
        }
        if record.checksum is not None:
            rt["ck"] = record.checksum
        reverse = self._recv.get((ch.dst, ch.src))
        if reverse is not None:
            # piggyback our cumulative ack for the reverse channel (it
            # refers to the numbering connected to our current epoch)
            # and suppress any standalone ack still waiting to fire —
            # this frame carries everything the ack would have
            rt["ack"] = reverse.cumulative_ack
            rt["ae"] = self.nodes[ch.src].epoch
            reverse.ack_pending = False
            reverse.pending_count = 0
            if reverse.ack_timer is not None:
                self.engine.cancel(reverse.ack_timer)
                reverse.ack_timer = None
        meta = dict(record.meta)
        meta["rt"] = rt
        self.network.transmit(
            Frame(record.kind, ch.src, ch.dst, record.payload,
                  record.size_bytes, meta)
        )

    def _rto_for(self, record: _InFlight) -> float:
        """Initial retransmission timeout covering the frame's round trip."""
        cfg = self.config
        net = self.network.config
        rtt = (self.network.delay_for(record.size_bytes)
               + self.network.delay_for(cfg.ack_frame_bytes)
               + 2.0 * net.jitter_fraction * net.base_latency)
        # budget for the worst-case coalesced ack, not the minimum
        # delay: a deliberately held-back cumulative ack must never
        # look like a lost frame
        return cfg.rto_min + rtt + max(cfg.ack_delay, cfg.ack_delay_max)

    def _arm_retransmit(self, ch: _SendChannel, record: _InFlight) -> None:
        if ch.interval <= 0.0:
            ch.interval = self._rto_for(record)
        delay = ch.interval
        if self.config.rto_jitter > 0:
            delay *= 1.0 + float(self._rng.uniform(0.0, self.config.rto_jitter))
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
            ch.interval = self.config.rto_max
            self._arm_retransmit(ch, record)
            return
        if record.retries >= self.config.max_retransmits:
            raise TransportStallError(self._diagnose_stall(ch, record))
        record.retries += 1
        self._count(ch.src, "rt_retransmits")
        self.trace.emit("rt.retransmit", ch.src, dst=ch.dst, seq=record.seq,
                        retries=record.retries, frame_kind=record.kind)
        self._send_record(ch, record)
        ch.interval = min(ch.interval * self.config.rto_backoff,
                          self.config.rto_max)
        self._arm_retransmit(ch, record)

    def _diagnose_stall(self, ch: _SendChannel, record: _InFlight) -> str:
        elapsed = self.engine.now - record.first_sent
        lines = [
            f"reliable transport gave up on channel {ch.src}->{ch.dst}: "
            f"frame seq={record.seq} ({record.kind}, {record.size_bytes}B) "
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
            f"raise max_retransmits/rto_max or shorten the partition "
            f"if the outage is meant to be survivable."
        )
        return " ".join(lines)

    # ------------------------------------------------------------------
    # Receiving internals
    # ------------------------------------------------------------------
    def _on_network_frame(self, rank: int, frame: Frame) -> None:
        rt = frame.meta.get("rt")
        if rt is None:
            # not transport-framed (foreign traffic in a unit test):
            # deliver as-is rather than guess at sequencing
            self._deliver(rank, frame)
            return
        if rt.get("ackonly"):
            # acks apply to surviving send-channel state regardless of
            # this rank's incarnation; staleness is judged per-ack (the
            # "ae" tag), not per-destination-epoch
            if frame.meta.get("corrupted"):
                self._count(rank, "rt_corrupt_rejects")
                self.stats.frames_dropped_corrupt += 1
                self.trace.emit("rt.corrupt_reject", rank, src=frame.src,
                                frame_kind=frame.kind, frame_id=frame.frame_id)
                return
            self._process_ack(rank, frame.src, rt["ack"], rt.get("ae"))
            nack = rt.get("nack")
            if nack is not None:
                self._fast_retransmit(rank, frame.src, nack, rt.get("ae"))
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
        ch = self._recv_channel(frame.src, rank)
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
            self._count(rank, "rt_corrupt_rejects")
            self.stats.frames_dropped_corrupt += 1
            self.trace.emit("rt.corrupt_reject", rank, src=frame.src, seq=seq,
                            frame_kind=frame.kind, frame_id=frame.frame_id)
            self._send_standalone_ack(ch, nack=seq)
            return
        if seq < ch.next_expected or seq in ch.reorder:
            # replayed sequence number: dedup window discard, but re-ack
            # *immediately* — a retransmission means the sender's copy of
            # our ack state is stale (the ack was probably dropped), and
            # a coalescing delay here would let its backoff fire again
            self._count(rank, "rt_dup_discards")
            self.trace.emit("rt.dup_discard", rank, src=frame.src, seq=seq,
                            frame_kind=frame.kind, frame_id=frame.frame_id)
            self._ack_now(ch)
            return
        if seq > ch.next_expected:
            # a gap usually means a loss in flight: ack immediately so
            # the sender learns where the hole starts without waiting
            # out the coalescing delay
            self.trace.emit("rt.reorder_buffer", rank, src=frame.src, seq=seq,
                            expected=ch.next_expected, frame_id=frame.frame_id)
            ch.reorder[seq] = frame
            self._ack_now(ch)
            return
        # in order: deliver, then drain whatever the gap was hiding
        ch.next_expected += 1
        self._schedule_ack(ch)
        self._deliver(rank, frame)
        while ch.next_expected in ch.reorder:
            queued = ch.reorder.pop(ch.next_expected)
            ch.next_expected += 1
            self._deliver(rank, queued)

    def _deliver(self, rank: int, frame: Frame) -> None:
        callback = self._upper.get(rank)
        if callback is not None:
            callback(frame)

    # ------------------------------------------------------------------
    # Acknowledgements
    # ------------------------------------------------------------------
    def _ack_now(self, ch: _RecvChannel) -> None:
        """Send the cumulative ack immediately, folding in any pending one."""
        if ch.ack_timer is not None:
            self.engine.cancel(ch.ack_timer)
            ch.ack_timer = None
        self._send_standalone_ack(ch)

    def _schedule_ack(self, ch: _RecvChannel) -> None:
        ch.ack_pending = True
        ch.pending_count += 1
        if ch.pending_count >= self.config.ack_max_pending:
            # bound the sender's unacked buffer: force the cumulative
            # ack out now instead of waiting for the timer
            if ch.ack_timer is not None:
                self.engine.cancel(ch.ack_timer)
                ch.ack_timer = None
            self._send_standalone_ack(ch)
            return
        if ch.ack_timer is None:
            ch.ack_timer = self.engine.schedule(
                self._ack_delay_for(ch), lambda: self._ack_tick(ch))

    def _ack_delay_for(self, ch: _RecvChannel) -> float:
        """Adaptive standalone-ack delay for one receive channel.

        ``ack_delay`` is the floor.  Once the channel has an observed
        inter-arrival gap, the delay stretches to ``ack_gap_factor``
        gaps (capped at ``ack_delay_max``) so that bursts of deliveries
        — or reverse traffic arriving a few gaps later — fold into one
        cumulative ack instead of one standalone ack per frame.  A zero
        ``ack_delay`` disables the stretching entirely: the ack fires
        in the same engine timestamp cohort as the delivery.
        """
        cfg = self.config
        base = cfg.ack_delay
        if base == 0.0:
            return 0.0
        ewma = ch.gap_ewma
        if ewma > 0.0:
            stretched = cfg.ack_gap_factor * ewma
            if stretched > base:
                return min(stretched, cfg.ack_delay_max)
        return base

    def _ack_tick(self, ch: _RecvChannel) -> None:
        ch.ack_timer = None
        if self._recv.get((ch.src, ch.dst)) is not ch:
            return  # channel was reset under the timer
        if not ch.ack_pending:
            return
        self._send_standalone_ack(ch)

    def _send_standalone_ack(self, ch: _RecvChannel, nack: int | None = None) -> None:
        """Emit an ``rt-ack`` frame carrying the cumulative ack (and an
        optional nack for a checksum-rejected sequence number)."""
        ch.ack_pending = False
        ch.pending_count = 0
        if not self.nodes[ch.src].alive:
            # the network would drop it at the dead node; the sender's
            # next retransmit after re-attach provokes a fresh ack
            return
        rt: dict[str, Any] = {
            "ackonly": True,
            "ack": ch.cumulative_ack,
            #: the receive state producing this ack belongs to our
            #: current incarnation — so, therefore, does its numbering
            "ae": self.nodes[ch.dst].epoch,
        }
        if nack is not None:
            rt["nack"] = nack
        self._count(ch.dst, "rt_acks_sent")
        self.network.transmit(
            Frame("rt-ack", ch.dst, ch.src, None,
                  self.config.ack_frame_bytes, {"rt": rt})
        )

    def _process_ack(self, rank: int, peer: int, ack: int,
                     ack_epoch: int | None) -> None:
        """Apply a cumulative ack from ``peer`` to ``rank``'s channel.

        ``ack_epoch`` names the receiver incarnation whose numbering the
        ack refers to; an ack minted before the channel was reset for a
        newer incarnation would otherwise falsely clear renumbered
        frames that were never delivered.
        """
        ch = self._send.get((rank, peer))
        if ch is None or ack_epoch != ch.peer_epoch:
            return
        for seq in [s for s in ch.unacked if s <= ack]:
            del ch.unacked[seq]
        if not ch.unacked:
            ch.interval = 0.0
            if ch.timer is not None:
                self.engine.cancel(ch.timer)
                ch.timer = None

    def _fast_retransmit(self, rank: int, peer: int, seq: int,
                         ack_epoch: int | None) -> None:
        """A nack names a checksum-rejected frame: resend it immediately."""
        ch = self._send.get((rank, peer))
        if ch is None or ack_epoch != ch.peer_epoch:
            return
        record = ch.unacked.get(seq)
        if record is None:
            return
        record.retries += 1
        self._count(rank, "rt_retransmits")
        self.trace.emit("rt.retransmit", rank, dst=peer, seq=seq,
                        retries=record.retries, frame_kind=record.kind,
                        nacked=True)
        self._send_record(ch, record)

    # ------------------------------------------------------------------
    # Channel lifecycle
    # ------------------------------------------------------------------
    def _clear_recv(self, rank: int) -> None:
        """Forget ``rank``'s receive-side state (process memory)."""
        for key in [k for k in self._recv if k[1] == rank]:
            ch = self._recv.pop(key)
            if ch.ack_timer is not None:
                self.engine.cancel(ch.ack_timer)

    def _reset_send_channel(self, key: tuple[int, int]) -> None:
        """Reconnect a peer's send channel to a freshly attached rank."""
        old = self._send.pop(key)
        if old.timer is not None:
            self.engine.cancel(old.timer)
        if old.unacked:
            self.trace.emit("rt.reset", key[0], dst=key[1],
                            discarded=len(old.unacked))
        self._count(key[0], "rt_channel_resets")

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def describe_pending(self) -> list[str]:
        """Human-readable lines for every channel with frames in flight.

        The recovery watchdog folds these into its stall diagnosis, so a
        recovery wedged behind an unreachable peer names the transport
        backlog instead of reporting a bare timeout.
        """
        lines = []
        for (src, dst), ch in sorted(self._send.items()):
            if not ch.unacked:
                continue
            oldest = ch.oldest()
            part = " [partitioned]" if self.network.partitioned(src, dst) else ""
            lines.append(
                f"transport {src}->{dst}: {len(ch.unacked)} unacked frame(s), "
                f"oldest seq={oldest.seq} ({oldest.kind}) retried "
                f"{oldest.retries}x since t={oldest.first_sent:.6f}{part}"
            )
        return lines

    def _count(self, rank: int, counter: str) -> None:
        if 0 <= rank < len(self.metrics):
            metrics = self.metrics[rank]
            setattr(metrics, counter, getattr(metrics, counter) + 1)
