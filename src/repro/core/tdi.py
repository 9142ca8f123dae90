"""TDI — Tracking based on Dependent Interval (Algorithm 1).

The paper's lightweight causal message logging protocol.  Dependency
tracking is relaxed from per-delivery-event metadata (the PWD model) to
one integer per process: the index of the highest process-state interval
the current state depends on.  A message therefore piggybacks ``n``
integers (the ``depend_interval`` vector) plus its per-destination send
index — independent of message history, linear in system scale — instead
of an antecedence graph of 4-identifier event records.

Delivery gate during recovery (the heart of the relaxation): a logged
message ``m`` is deliverable as soon as the recovering process has made
``m.depend_interval[i]`` deliveries, *in any order* — non-deterministic
delivery stays valid while rolling forward, which both shrinks the
piggyback and removes the wait-for-a-specific-message stalls of PWD
replay.
"""

from __future__ import annotations

from typing import Any

from repro.core.recovery import (
    CHECKPOINT_ADVANCE,
    RESPONSE,
    SenderLoggingProtocol,
)
from repro.core.vectors import DependIntervalVector
from repro.core.wire import encode_vector_full
from repro.metrics.costs import IDENTIFIER_BYTES
from repro.protocols.compression import (
    UndecodablePiggyback,
    VectorDeltaDecoder,
    VectorDeltaEncoder,
)
from repro.protocols.base import DeliveryVerdict, PeerCounts


class TdiProtocol(SenderLoggingProtocol):
    """The paper's protocol (§III, Algorithm 1): the family's logging
    and rollback spine plus a vector piggyback, an interval gate and
    per-sender targeted GC advances."""

    name = "tdi"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # The depend-interval vector is sized to the membership
        # *horizon* (it grows as ranks join); every other per-peer index
        # is a touched-peer map.
        self.depend_interval = DependIntervalVector(self.horizon,
                                                    owner=self.rank)
        self.depend_interval.set_own_epoch(self.epoch)
        self.last_ckpt_deliver_index = PeerCounts()
        #: own interval covered by the checkpoint this incarnation rose
        #: from — the clamp target for stale-epoch dependencies (startup
        #: state is checkpoint zero)
        self._ckpt_own_interval = 0
        #: set by watchdog escalation: stale-epoch delivery requirements
        #: clamp to checkpointed coverage until this recovery settles
        #: (the delivery gate's graceful-degradation mode)
        self._stale_epoch_degraded = False
        # compressed wire layer: per-destination delta chains out, and
        # per-source reconstruction state in (repro.protocols.compression)
        self._pb_encoder = VectorDeltaEncoder(self.depend_interval) \
            if self.compress else None
        self._pb_decoder = VectorDeltaDecoder(self.nprocs) \
            if self.compress else None

    # ------------------------------------------------------------------
    # Dynamic membership
    # ------------------------------------------------------------------
    def _grow_to(self, horizon: int) -> None:
        self.depend_interval.grow_to(horizon)
        if self._pb_encoder is not None:
            # every open delta chain refers to the shorter vector; the
            # next record per destination re-establishes with a counted
            # FULL at the new length
            self._pb_encoder.grow()

    # ------------------------------------------------------------------
    # Piggyback: the depend-interval vector (lines 8-12)
    # ------------------------------------------------------------------
    def _build_piggyback(self, dest: int) -> tuple[Any, int, float]:
        piggyback = self.depend_interval.as_piggyback(prime=not self.compress)
        # the horizon-length vector; once any entry refers to a
        # post-rollback incarnation the epoch vector rides along too
        # (2n + 1 with the send index) — see core.wire for the forms
        identifiers = 2 * len(piggyback) if piggyback.tagged \
            else len(piggyback)
        return piggyback, identifiers, 0.0

    def _encode_send_wire(self, dest: int, piggyback: Any,
                          send_index: int) -> Any:
        wire_blob, fell_back = self._pb_encoder.encode(
            dest, piggyback, send_index)
        if fell_back:
            self.metrics.delta_fallback_full_sends += 1
        return wire_blob

    def _log_form(self, piggyback: Any) -> Any:
        # the vector has not moved since the piggyback was taken from it
        return self.depend_interval.snapshot()

    # ------------------------------------------------------------------
    # Delivery gate (lines 15-31)
    # ------------------------------------------------------------------
    def _gate(self, frame_meta: dict[str, Any], src: int) -> DeliveryVerdict:
        piggyback = frame_meta["pb"]
        # line 17: enough local deliveries must have happened — but an
        # interval count is only comparable within one incarnation.  A
        # piggyback from a peer with a smaller membership horizon may not
        # reach our entry; absent entries are zero (no dependency).
        in_range = self.rank < len(piggyback)
        required = piggyback[self.rank] if in_range else 0
        epochs = getattr(piggyback, "epochs", None)
        if epochs is not None and in_range:
            entry_epoch = epochs[self.rank]
            if entry_epoch > self.epoch:
                # a dependency on an incarnation of ours that does not
                # exist yet — only possible for a frame that outlived
                # two of our failures in flight; park it
                return DeliveryVerdict.DEFER
            if entry_epoch < self.epoch and self._stale_epoch_degraded:
                # The dependency references deliveries a dead incarnation
                # of ours made.  Rolling forward replays that delivery
                # sequence position-for-position, so the count normally
                # still gates (delivering below it would re-create the
                # orphan the gate exists to prevent).  The exception is a
                # recovery the watchdog had to escalate: a stall with
                # stale-epoch requirements is the inflated-regenerated-
                # piggyback race (the overlapping-recovery corpus entry),
                # where a re-executed send manufactured a requirement on
                # its own delivery.  Degrade by clamping to our
                # checkpointed coverage, which the restore satisfied by
                # construction (any-order redelivery, §III.A relaxation).
                required = min(required, self._ckpt_own_interval)
        if self.depend_interval.own_interval >= required:
            return DeliveryVerdict.DELIVER
        return DeliveryVerdict.DEFER

    def _explain_gate(self, frame_meta: dict[str, Any], src: int) -> str | None:
        send_index = frame_meta["send_index"]
        piggyback = frame_meta["pb"]
        in_range = self.rank < len(piggyback)
        required = piggyback[self.rank] if in_range else 0
        epochs = getattr(piggyback, "epochs", None)
        # an untagged piggyback gates at face value, like classify()
        entry_epoch = (epochs[self.rank]
                       if epochs is not None and in_range else self.epoch)
        own = self.depend_interval.own_interval
        if entry_epoch > self.epoch:
            return (f"frame {src}->{self.rank} #{send_index} references "
                    f"future epoch {entry_epoch} of rank {self.rank} "
                    f"(currently at epoch {self.epoch})")
        if entry_epoch < self.epoch:
            if self._stale_epoch_degraded:
                required = min(required, self._ckpt_own_interval)
            if required > own:
                return (f"frame {src}->{self.rank} #{send_index} requires "
                        f"interval {required} of rank {self.rank} in dead "
                        f"epoch {entry_epoch} (clamps to coverage "
                        f"{self._ckpt_own_interval} on escalation); "
                        f"receiver has made {own} deliveries")
            return None
        if required > own:
            return (f"frame {src}->{self.rank} #{send_index} requires "
                    f"interval {required} of rank {self.rank} in epoch "
                    f"{entry_epoch}; receiver has made {own} deliveries")
        return None

    def _track_delivery(self, src: int, send_index: int,
                        piggyback: Any) -> float:
        # lines 20-24
        self.depend_interval.advance_own()
        if len(piggyback) > len(self.depend_interval):
            # the sender's horizon is ahead of ours: a rank joined that we
            # have not heard from yet
            self.grow_membership(len(piggyback) - 1)
        merged = self.depend_interval.merge(piggyback)
        scanned = (2 * len(piggyback) if getattr(piggyback, "tagged", False)
                   else len(piggyback))
        if "proto.deliver" in self.trace.wanted:
            self.trace.emit("proto.deliver", self.rank, src=src,
                            send_index=send_index, merged=merged)
        return self.costs.identifiers_cost(scanned)

    # ------------------------------------------------------------------
    # Checkpointing (lines 32-39)
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]:
        state = super().checkpoint_state()
        state["depend_interval"] = self.depend_interval.snapshot()
        return state

    def _advance_cover(self) -> PeerCounts:
        return PeerCounts(self.vectors.last_deliver_index)

    def _send_advance(self, cover: PeerCounts) -> None:
        """Tell each sender individually how far our checkpoint covers
        its messages (PWD protocols must broadcast instead)."""
        for k in sorted(self.members):
            if k == self.rank:
                continue
            # a lagged cover may predate a joiner: it covers nothing (0)
            delivered = cover[k]
            if delivered > self.last_ckpt_deliver_index[k]:
                self.services.send_control(
                    k, CHECKPOINT_ADVANCE, delivered, IDENTIFIER_BYTES
                )
                self.last_ckpt_deliver_index[k] = delivered

    # ------------------------------------------------------------------
    # Recovery (lines 40-53)
    # ------------------------------------------------------------------
    def restore(self, state: dict[str, Any]) -> None:
        # the vector restores at its checkpointed length (the membership
        # horizon as of the checkpoint), before the membership view that
        # may grow it; sync_membership grows it back to the live horizon
        # once the incarnation re-attaches
        stored = state["depend_interval"]
        self.depend_interval = DependIntervalVector.from_snapshot(
            len(stored.values), self.rank, stored
        )
        # the restored counts belong to *this* incarnation now: the own
        # entry re-tags under the current epoch, and its restored value
        # is what stale-epoch dependencies clamp to
        self.depend_interval.set_own_epoch(self.epoch)
        if self._pb_encoder is not None:
            self._pb_encoder.bind(self.depend_interval)
        super().restore(state)
        self._ckpt_own_interval = self.depend_interval.own_interval
        # the restored checkpoint's own cover; later ones advance it
        self.last_ckpt_deliver_index = PeerCounts(
            state["vectors"]["last_deliver_index"])

    def _rollback_fields(self) -> dict[str, Any]:
        return {"interval": self._ckpt_own_interval}

    def _observe_rollback(self, src: int, payload: dict[str, Any]) -> None:
        # our dependency on the peer's erased state collapses to its
        # restored interval, re-tagged under the new epoch
        self.depend_interval.observe_rollback(
            src, payload["interval"], payload["epoch"])

    def escalate_recovery(self) -> None:
        """Escalation also degrades the delivery gate: stale-epoch
        requirements clamp to the checkpointed coverage from here until
        the recovery settles.  A stall this long with frames gated on a
        dead incarnation's counts is the inflated-regenerated-piggyback
        race — a re-executed send that manufactured a requirement on its
        own delivery — and no amount of waiting satisfies it."""
        self._stale_epoch_degraded = True
        super().escalate_recovery()
        # queued frames may be deliverable under the degraded gate
        self.services.wake_delivery()

    def recovery_settled(self) -> None:
        """Watchdog disarm: the incarnation is healthy again — restore
        the strict (orphan-safe) gate for any late stale-epoch frames."""
        if self._stale_epoch_degraded:
            self._stale_epoch_degraded = False
            self.trace.emit("proto.recovery_settled", self.rank)

    def handle_control(self, ctl: str, src: int, payload: Any) -> None:
        super().handle_control(ctl, src, payload)
        if ctl == RESPONSE:
            # TDI has no recovery barrier: every answer, stale or not,
            # re-runs the delivery scan
            self.services.wake_delivery()

    # ------------------------------------------------------------------
    # Compressed piggyback wire layer
    # ------------------------------------------------------------------
    def _on_peer_epoch_advance(self, rank: int) -> None:
        """The peer's decoder state died with its previous incarnation:
        the next send to it must carry a full record."""
        if self._pb_encoder is not None:
            self._pb_encoder.invalidate(rank)

    def encode_piggyback_wire(self, dest: int, piggyback: Any,
                              send_index: int) -> Any:
        if self._pb_encoder is None:
            return None
        # resends are standalone full records: they may overtake or
        # duplicate, so they must not touch either side's channel state
        epochs = getattr(piggyback, "epochs", None) or (0,) * len(piggyback)
        return encode_vector_full(piggyback, epochs, send_index)

    def decode_piggyback_wire(self, src: int, blob: Any,
                              send_index: int) -> Any:
        piggyback, embedded = self._pb_decoder.decode(src, blob)
        if embedded != send_index:
            raise UndecodablePiggyback(
                f"record send_index {embedded} != frame {send_index}")
        return piggyback
