"""The sender-based-logging spine of the protocol family.

The paper's argument is that TDI differs from the PWD baselines only in
*what is piggybacked* and *what gates a delivery*.  Everything else in
Algorithm 1 is common to the family and lives here, once:

* sending (lines 8–12): index the send, log payload + piggyback in
  sender memory, suppress the transmission of a recognised duplicate
  during rolling forward, charge the tracking cost;
* the FIFO-position filter in front of every delivery gate (duplicate /
  ahead of the per-sender sequence) and the delivery-gap check;
* checkpointing (lines 32–39): the common checkpoint fields and the
  ``CHECKPOINT_ADVANCE`` garbage collection, lagged under hostile
  storage;
* rollback (lines 40–53): the ``ROLLBACK`` / ``RESPONSE`` conversation,
  ordered resends and duplicate-send suppression, plus the JOIN / LEAVE
  membership frames that re-cover a joiner through the same tail.

A concrete protocol states its difference through the hooks grouped at
the top of :class:`SenderLoggingProtocol`; ``docs/PROTOCOLS.md`` tables
which protocol overrides which.

Control-frame vocabulary:

``ROLLBACK``
    Broadcast by an incarnation; the payload carries its checkpointed
    ``last_deliver_index`` vector (``"ldi"``) — which messages the
    failed process has lost (line 46) — plus, beyond the paper, the
    incarnation's epoch (``"epoch"``) and the protocol's own fields
    (TDI: its restored state-interval index ``"interval"``; PWD: its
    checkpointed delivery count ``"ckpt_deliver_total"``).  Survivors
    use the epoch to drop stale retries from dead incarnations;
    overlapping recoveries would otherwise deadlock on counts
    referencing erased state.
``RESPONSE``
    A peer's answer; ``"delivered"`` is the peer's
    ``last_deliver_index[failed]`` — how many of the failed process's
    messages it has delivered so far — used to suppress repetitive sends
    during rolling forward (lines 48, 52–53).  ``"epoch"`` is the
    responder's own incarnation and ``"for_epoch"`` echoes the rollback
    it answers, so a recovering rank ignores answers addressed to a
    previous incarnation of itself.  PWD protocols add the replay
    determinants they hold (``"dets"``).  The peer also re-sends its
    logged messages for the failed process, in send-index order (lines
    49–51).
``CKPT_ADV``
    A receiver's checkpoint now covers a sender's messages up to an
    index: the sender releases them from its log (lines 38–39).
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Any

from repro.core.log_store import SenderLog
from repro.core.vectors import FrozenVector
from repro.metrics.costs import IDENTIFIER_BYTES, PER_DELIVER_BASE, PER_SEND_BASE
from repro.protocols.base import (
    MEMBER_JOIN,
    MEMBER_LEAVE,
    DeliveryVerdict,
    LoggedMessage,
    PeerCounts,
    PreparedSend,
    Protocol,
    VectorState,
)

ROLLBACK = "ROLLBACK"
RESPONSE = "RESPONSE"
CHECKPOINT_ADVANCE = "CKPT_ADV"

#: a replay determinant (``repro.protocols.pwd.Determinant``) is 4
#: identifiers on the wire
DET_IDENTIFIERS = 4


class SenderLoggingProtocol(Protocol):
    """Base class of every recoverable protocol (TDI, TAG, TEL, PESS,
    PART): owns the sender log, the index vectors, the duplicate-send
    suppression indexes and the rollback conversation."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Algorithm 1 lines 2-7.  The per-peer indexes are PeerCounts:
        # absent reads 0, so payloads and lookups need no bounds checks.
        self.log = SenderLog(self.nprocs, trace=self.trace, owner=self.rank)
        self.vectors = VectorState()
        self.rollback_last_send_index = PeerCounts()
        #: peers whose RESPONSE we are still waiting for (empty when not
        #: recovering); drives the rollback retry timer
        self._awaiting_response: set[int] = set()
        #: advance covers queued per checkpoint; GC advances go out
        #: lagged by services.checkpoint_gc_lag() checkpoints so a
        #: hostile store's fallback recovery still finds its logs.
        #: Not checkpointed: a restored incarnation starts empty, which
        #: only delays GC (always safe).
        self._ckpt_advance_queue: list[Any] = []

    # ------------------------------------------------------------------
    # What a protocol states about itself
    # ------------------------------------------------------------------
    def _build_piggyback(self, dest: int) -> tuple[Any, int, float]:
        """Return (piggyback, identifier_count, extra_cpu_cost) for a
        send to ``dest``; the send index itself is counted here."""
        raise NotImplementedError

    def _encode_send_wire(self, dest: int, piggyback: Any,
                          send_index: int) -> Any:
        """Compressed wire form of a first transmission.  Default: the
        standalone record resends use (no per-channel state)."""
        return self.encode_piggyback_wire(dest, piggyback, send_index)

    def _log_form(self, piggyback: Any) -> Any:
        """What the log keeps of ``piggyback`` on the compressed path."""
        return piggyback

    def _gate(self, frame_meta: dict[str, Any], src: int) -> DeliveryVerdict:
        """The protocol's delivery gate for the frame that is next in
        ``src``'s FIFO sequence."""
        raise NotImplementedError

    def _explain_gate(self, frame_meta: dict[str, Any], src: int) -> str | None:
        """What :meth:`_gate` waits for (watchdog abort diagnosis)."""
        return None

    def _track_delivery(self, src: int, send_index: int,
                        piggyback: Any) -> float:
        """Dependency tracking for one delivery; returns its CPU cost
        beyond ``PER_DELIVER_BASE``."""
        raise NotImplementedError

    def _advance_cover(self) -> Any:
        """What this checkpoint lets peers garbage-collect."""
        raise NotImplementedError

    def _send_advance(self, cover: Any) -> None:
        """Emit the CHECKPOINT_ADVANCE traffic for one queued cover."""
        raise NotImplementedError

    def _rollback_fields(self) -> dict[str, Any]:
        """The protocol's own fields of the ROLLBACK payload."""
        raise NotImplementedError

    def _observe_rollback(self, src: int,
                          payload: dict[str, Any]) -> list[Any] | None:
        """React to ``src``'s accepted ROLLBACK; returns the replay
        determinants to ship in the RESPONSE (``None``: the protocol
        has no determinants)."""
        raise NotImplementedError

    def _absorb_response(self, payload: dict[str, Any]) -> None:
        """Protocol-specific part of an accepted RESPONSE."""

    def _on_peer_epoch_advance(self, rank: int) -> None:
        """A peer announced a strictly newer incarnation epoch, or
        joined: it holds no receiver-side reconstruction state.  Protocols
        with per-channel delta encoders invalidate the channel here."""

    # ------------------------------------------------------------------
    # Sending (lines 8-12)
    # ------------------------------------------------------------------
    def prepare_send(self, dest: int, tag: int, payload: Any, size_bytes: int) -> PreparedSend:
        if dest >= self.horizon:
            # sending to a rank we have not yet seen a frame from
            self.grow_membership(dest)
        self.vectors.last_send_index[dest] += 1
        send_index = self.vectors.last_send_index[dest]
        piggyback, identifiers, extra_cost = self._build_piggyback(dest)
        identifiers += 1  # the send index itself
        # .get: a miss through __missing__ is a Python call, per send here
        transmit = send_index > self.rollback_last_send_index.get(dest, 0)
        cost = (
            PER_SEND_BASE
            + self.costs.identifiers_cost(identifiers)
            + self.costs.log_append_cost(size_bytes)
            + extra_cost
        )
        logged = self._log_form(piggyback) if self.compress else piggyback
        self.log.append(
            LoggedMessage(
                dest=dest,
                send_index=send_index,
                tag=tag,
                payload=payload,
                size_bytes=size_bytes,
                piggyback=logged,
                piggyback_identifiers=identifiers,
            )
        )
        self.metrics.log_bytes_peak = max(self.metrics.log_bytes_peak, self.log.nbytes)
        wire_blob = None
        if transmit:
            if self.compress:
                # encode here, not at transmit time: a channel delta is
                # against the piggyback as of *this* snapshot, and
                # deliveries may mutate the protocol state before the
                # scheduled transmission
                wire_blob = self._encode_send_wire(dest, piggyback, send_index)
            self.charge(
                cost,
                identifiers=identifiers,
                pb_bytes=identifiers * IDENTIFIER_BYTES,
            )
        else:
            # suppressed duplicate during rolling forward: the log item is
            # rebuilt (regenerating lost logs, §III.D) but nothing is sent
            self.charge(cost)
        return PreparedSend(
            send_index=send_index,
            piggyback=piggyback,
            piggyback_identifiers=identifiers,
            cost=cost,
            transmit=transmit,
            wire=wire_blob,
        )

    # ------------------------------------------------------------------
    # Delivery (lines 15-31): FIFO position first, then the gate
    # ------------------------------------------------------------------
    def classify(self, frame_meta: dict[str, Any], src: int) -> DeliveryVerdict:
        send_index = frame_meta["send_index"]
        last = self.vectors.last_deliver_index[src]
        if send_index <= last:
            return DeliveryVerdict.DUPLICATE  # line 19 fails: repetitive
        if send_index > last + 1:
            # Ahead of the per-sender sequence.  Either a legitimately
            # buffered future message whose predecessor is queued behind
            # a different tag, or — during our recovery — a survivor
            # frame that overtook the ordered resend stream because it
            # was transmitted before the ROLLBACK reached its sender.
            # Both resolve by waiting: predecessors are already queued,
            # in flight, or guaranteed to be resent from the peer's log.
            return DeliveryVerdict.DEFER
        return self._gate(frame_meta, src)

    def explain_defer(self, frame_meta: dict[str, Any], src: int) -> str | None:
        """Name what blocks a queued frame (watchdog abort diagnosis)."""
        send_index = frame_meta["send_index"]
        last = self.vectors.last_deliver_index[src]
        if send_index <= last:
            return None  # a duplicate is discarded, never blocking
        if send_index > last + 1:
            return (f"frame {src}->{self.rank} #{send_index} waits for "
                    f"predecessor #{last + 1} on that channel")
        return self._explain_gate(frame_meta, src)

    def on_deliver(self, frame_meta: dict[str, Any], src: int) -> float:
        send_index = frame_meta["send_index"]
        expected = self.vectors.last_deliver_index[src] + 1
        if send_index != expected:
            # FIFO channels + duplicate filtering make this unreachable;
            # a violation means lost-message accounting broke.
            raise RuntimeError(
                f"rank {self.rank}: delivery gap from {src}: "
                f"send_index={send_index}, expected {expected}"
            )
        self.vectors.last_deliver_index[src] = send_index
        cost = PER_DELIVER_BASE + self._track_delivery(
            src, send_index, frame_meta["pb"])
        self.charge(cost)
        return cost

    # ------------------------------------------------------------------
    # Checkpointing (lines 32-39)
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]:
        return {
            "vectors": self.vectors.snapshot(),
            "rollback_last_send_index": PeerCounts(
                self.rollback_last_send_index),
            "log": self.log.snapshot(),
            "membership": self.membership_snapshot(),
        }

    def checkpoint_log_bytes(self) -> int:
        return self.log.nbytes

    def restore(self, state: dict[str, Any]) -> None:
        self.vectors.restore(state["vectors"])
        self.rollback_last_send_index = PeerCounts(
            state["rollback_last_send_index"])
        self.log = SenderLog.from_snapshot(
            self.nprocs, copy.copy(state["log"]), trace=self.trace, owner=self.rank
        )
        self.restore_membership(state["membership"])

    def after_checkpoint(self) -> None:
        """Lines 34-37: tell senders how far our checkpoint covers their
        messages, so they can garbage-collect their logs.

        Under hostile storage the advance advertises the cover of the
        checkpoint ``gc_lag`` generations back (the oldest the fallback
        read path can land on), so peers never release an item a
        fallback recovery would replay.  With lag 0 the cover just
        pushed is popped straight back — eager GC, byte for byte.
        """
        self._ckpt_advance_queue.append(self._advance_cover())
        if len(self._ckpt_advance_queue) > self.services.checkpoint_gc_lag():
            self._send_advance(self._ckpt_advance_queue.pop(0))

    def _handle_checkpoint_advance(self, src: int, upto_send_index: int) -> None:
        """Line 39: the peer's checkpoint now covers our messages up to
        ``upto_send_index`` — release them from the volatile log."""
        released = self.log.release_upto(src, upto_send_index)
        self.metrics.log_items_released += released

    # ------------------------------------------------------------------
    # Recovery, incarnation side (lines 40-46)
    # ------------------------------------------------------------------
    def begin_recovery(self) -> None:
        """Line 46: broadcast ROLLBACK with the checkpointed
        last_deliver_index so peers know which messages were lost."""
        self.metrics.recovery_count += 1
        self._awaiting_response = self._peers()
        self._broadcast_rollback(self._awaiting_response)

    def recovery_pending(self) -> bool:
        """True while some peer has not answered our ROLLBACK yet."""
        return bool(self._awaiting_response)

    def retry_recovery(self, targets: set[int] | None = None) -> None:
        """Re-issue ROLLBACK to ``targets`` (default: the unresponsive
        peers).  A peer that was itself down when the first broadcast
        went out (simultaneous failures, §III.D) answers one of the
        retries once its own incarnation is up."""
        if targets is None:
            targets = self._awaiting_response
        if targets:
            self._broadcast_rollback(targets)

    def escalate_recovery(self, **barrier: Any) -> None:
        """Watchdog escalation: re-broadcast ROLLBACK — with the full
        epoch state — to *every* peer, not just the unresponsive ones.
        A peer that already answered may have computed its answer
        against a dead incarnation of ours (overlapping recoveries);
        re-answering against the current epoch regenerates any resends
        and suppression indexes that race swallowed."""
        self.trace.emit("proto.recovery_escalate", self.rank,
                        awaiting=sorted(self._awaiting_response), **barrier)
        self.retry_recovery(self._peers())

    def recovery_signature(self) -> Any:
        return (frozenset(self.vectors.last_deliver_index.items()),
                frozenset(self._awaiting_response))

    def _peers(self) -> set[int]:
        return {r for r in self.members if r != self.rank}

    def _broadcast_rollback(self, targets: set[int]) -> None:
        payload = {
            "ldi": PeerCounts(self.vectors.last_deliver_index),
            "epoch": self.epoch,
            **self._rollback_fields(),
        }
        size = (self.nprocs + 2) * IDENTIFIER_BYTES
        for dst in sorted(targets):
            self.services.send_control(dst, ROLLBACK, payload, size)
        self.trace.emit("proto.rollback_bcast", self.rank, targets=sorted(targets))

    def _handle_response(self, src: int, payload: dict[str, Any]) -> None:
        """Lines 52–53: remember how much of our output the peer already
        delivered, so re-executed sends to it can be suppressed."""
        if payload["for_epoch"] != self.epoch:
            # an answer to a dead incarnation's rollback — its delivered
            # count (and determinants) may describe a history this
            # incarnation is about to diverge from; wait for the answer
            # to the rollback *this* incarnation broadcast
            self.trace.emit("proto.stale_response", self.rank,
                            src=src, for_epoch=payload["for_epoch"])
            return
        self._observe_peer_epoch(src, payload["epoch"])
        if payload["delivered"] > self.rollback_last_send_index[src]:
            self.rollback_last_send_index[src] = payload["delivered"]
        self._awaiting_response.discard(src)
        self._absorb_response(payload)

    # ------------------------------------------------------------------
    # Recovery, survivor side (lines 47-51)
    # ------------------------------------------------------------------
    def _observe_peer_epoch(self, peer: int, epoch: int) -> bool:
        """Record ``peer``'s announced incarnation epoch; False when the
        announcement is stale (from an incarnation that has since died
        again)."""
        prior = self.vectors.peer_epoch[peer]
        if not self.vectors.observe_peer_epoch(peer, epoch):
            return False
        if epoch > prior:
            self._on_peer_epoch_advance(peer)
        return True

    def _handle_rollback(self, src: int, payload: dict[str, Any]) -> None:
        """Lines 47–51: answer with RESPONSE, then re-send every logged
        message the failed process has not covered by its checkpoint."""
        # a ROLLBACK from a rank that had left and rejoined re-admits it
        self.grow_membership(src)
        epoch = payload["epoch"]
        if not self._observe_peer_epoch(src, epoch):
            # answering a dead incarnation's retry would clamp
            # suppression below what the *current* incarnation already
            # told us it has covered
            self.trace.emit("proto.stale_rollback", self.rank,
                            src=src, epoch=epoch,
                            known=self.vectors.peer_epoch[src])
            return
        response = {
            "delivered": self.vectors.last_deliver_index[src],
            "epoch": self.epoch,
            "for_epoch": epoch,
        }
        identifiers, noted = 3, {}
        dets = self._observe_rollback(src, payload)
        if dets is not None:
            response["dets"] = dets
            identifiers += DET_IDENTIFIERS * len(dets)
            noted["dets"] = len(dets)
        self.services.send_control(
            src, RESPONSE, response, identifiers * IDENTIFIER_BYTES)
        # A suppression index learned from the peer's *previous*
        # incarnation (its RESPONSE to our own earlier rollback) is stale
        # now: the peer has lost every delivery past its checkpoint, so
        # re-executed sends beyond that point must transmit again.  The
        # receiver's duplicate filter makes over-sending harmless; the
        # stale suppression would silently starve it instead.
        covered = payload["ldi"][self.rank]
        if self.rollback_last_send_index[src] > covered:
            self.rollback_last_send_index[src] = covered
        resent = self._recover_peer(src, covered)
        self.trace.emit("proto.resend", self.rank, to=src, count=resent,
                        **noted)

    def _recover_peer(self, peer: int, covered: int) -> int:
        """Re-send, in send-index order, everything logged for ``peer``
        beyond what its announced state covers; returns the count.
        Receiver FIFO dedup makes over-resending safe."""
        # Sends the peer's durable state already covers will never be
        # acked again (any in-flight copies and their acks died with the
        # old incarnation): drop them from the eager window *before* the
        # resends, or a sender parked on the full window waits forever.
        self.services.peer_watermark(peer, covered)
        resent = 0
        for item in self.log.items_for(peer, after_index=covered):
            if isinstance(item.piggyback, FrozenVector):
                # one thaw serves the resend's record and its traced event
                item = dataclasses.replace(item, piggyback=item.piggyback.thaw())
            self.services.resend_logged(item)
            resent += 1
        self.metrics.resends += resent
        return resent

    # ------------------------------------------------------------------
    # Dynamic membership and zombie fencing
    # ------------------------------------------------------------------
    def announce_join(self) -> None:
        """Broadcast this rank's establishment JOIN: a fresh epoch-0
        incarnation nobody has ever depended on.  The ``ldi`` payload
        (all zeros on a first-ever join) tells each peer how much of its
        logged traffic to this rank is already covered, exactly like a
        ROLLBACK's — peers re-send everything beyond it, which also
        unblocks senders that were waiting on acks from the deferred
        slot."""
        ldi = PeerCounts(self.vectors.last_deliver_index)
        self.services.broadcast_control(
            MEMBER_JOIN, {"epoch": self.epoch, "ldi": ldi},
            size_bytes=4 * (self.nprocs + 2))
        self.trace.emit("proto.join_bcast", self.rank, epoch=self.epoch)

    def announce_leave(self) -> None:
        """Broadcast this rank's graceful departure."""
        self.services.broadcast_control(
            MEMBER_LEAVE, {"epoch": self.epoch}, size_bytes=8)
        self.trace.emit("proto.leave_bcast", self.rank, epoch=self.epoch)

    def fence_peer(self, rank: int, epoch: int) -> None:
        """Condemnation fencing: advancing the locally-known peer epoch
        past the condemned one primes this instance for the replacement
        (whose ROLLBACK arrives tagged ``epoch + 1`` and must not look
        stale) and invalidates any per-channel reconstruction state the
        condemned incarnation owned — the same bookkeeping a JOIN or
        ROLLBACK with a newer epoch performs."""
        self._observe_peer_epoch(rank, epoch + 1)

    def _handle_join(self, src: int, payload: dict[str, Any]) -> None:
        self.grow_membership(src)
        self._observe_peer_epoch(src, payload["epoch"])
        # a joiner holds no reconstruction state whatever its epoch: a
        # first-ever join announces epoch 0, which is no advance
        self._on_peer_epoch_advance(src)
        # re-cover the joiner; the resends' acks also unblock any sender
        # parked on the formerly-absent rank
        self._recover_peer(src, payload["ldi"][self.rank])
        self.trace.emit("proto.member_join", self.rank, src=src,
                        epoch=payload["epoch"])

    def _handle_leave(self, src: int) -> None:
        if src in self.members:
            self.members = self.members - {src}
        if src in self._awaiting_response:
            # a departed rank will never respond; don't wedge recovery
            self._awaiting_response.discard(src)
            self.services.wake_delivery()
        self.trace.emit("proto.member_leave", self.rank, src=src)

    def handle_control(self, ctl: str, src: int, payload: Any) -> None:
        if ctl == CHECKPOINT_ADVANCE:
            self._handle_checkpoint_advance(src, payload)
        elif ctl == ROLLBACK:
            self._handle_rollback(src, payload)
        elif ctl == RESPONSE:
            self._handle_response(src, payload)
        elif ctl == MEMBER_JOIN:
            self._handle_join(src, payload)
        elif ctl == MEMBER_LEAVE:
            self._handle_leave(src)
        else:
            raise ValueError(f"{self.name} got unknown control frame {ctl!r}")
