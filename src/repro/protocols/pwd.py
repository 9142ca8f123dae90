"""Shared machinery for the PWD-model baseline protocols (TAG, TEL).

Both baselines assume the piecewise-deterministic execution model: every
message delivery is a non-deterministic event whose *determinant* —
``(receiver, deliver_index, sender, send_index)``, 4 identifiers — must
be logged causally so that a recovering process can replay its delivery
history in exactly the original order.  They differ only in where
determinants are kept and when piggybacking stops (antecedence graph vs.
event logger).  Sender-based payload logging, checkpoint GC and the
ROLLBACK / RESPONSE conversation are not PWD's at all: they are
inherited from :class:`~repro.core.recovery.SenderLoggingProtocol`, the
spine TDI stands on too (the paper's §II notes raw-data logging is
common to the family).  What is PWD's own is shared here:

* the strict-order replay gate: during recovery, delivery ``d`` may only
  be the exact ``(sender, send_index)`` recorded for position ``d``;
* the recovery barrier: the incarnation collects determinants from all
  survivors (and, for TEL, the event logger) *before* delivering
  anything — replaying blind would risk orphan states.  This barrier,
  and the waits for one specific next message during replay, are the
  rolling-forward overhead the paper's protocol removes;
* :class:`Increment`, the value a determinant piggyback carries when
  its sender keeps determinants in per-receiver bitsets (TAG, PART): a
  sequence of determinants that is really a handful of masks.

Incarnation epochs: ROLLBACK/RESPONSE control frames carry them (like
TDI's) so stale frames from dead incarnations are recognised and
dropped under overlapping recoveries.  *Determinants themselves are
deliberately not epoch-tagged*: the all-peer recovery barrier means the
required_order map is always rebuilt from post-rollback survivor
answers, so a determinant can never reference erased state the way a
TDI interval count can — the asymmetry is structural, not an omission.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Any, NamedTuple

from repro.core.recovery import CHECKPOINT_ADVANCE, SenderLoggingProtocol
from repro.metrics.costs import IDENTIFIER_BYTES
from repro.protocols.base import DeliveryVerdict, PeerCounts


class Determinant(NamedTuple):
    """One delivery event's replay record."""

    receiver: int
    deliver_index: int   # position in the receiver's delivery sequence
    sender: int
    send_index: int

    @property
    def key(self) -> tuple[int, int]:
        return (self.receiver, self.deliver_index)


def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: one receiver's share of an :class:`Increment`: ``(receiver, origin,
#: mask, table)``, bit ``i`` of ``mask`` standing for ``table[origin + i]``
Run = tuple[int, int, int, dict[int, Determinant]]


class Increment(Sequence):
    """The determinants one piggyback carries: an immutable
    ``Sequence[Determinant]`` in ``(receiver, deliver_index)`` order whose
    native form is ``runs``, one :data:`Run` per receiver in rank order.
    A run's table is shared with the store it was cut from (and may hold
    more than the mask selects), so such a table is never mutated
    destructively."""

    __slots__ = ("runs", "_count")

    def __init__(self, runs: tuple[Run, ...], count: int) -> None:
        self.runs = runs
        self._count = count  # of determinants: the bits set in the masks

    @classmethod
    def lift(cls, dets: Iterable[Determinant]) -> Increment:
        """``dets`` itself when native, else the same determinants as
        runs (a repeated key keeps its first determinant)."""
        if isinstance(dets, cls):
            return dets
        tables: dict[int, dict[int, Determinant]] = {}
        for det in dets:
            tables.setdefault(det.receiver, {}).setdefault(det.deliver_index, det)
        runs = []
        for receiver in sorted(tables):
            table = tables[receiver]
            origin, mask = min(table), 0
            for index in table:
                mask |= 1 << index - origin
            runs.append((receiver, origin, mask, table))
        return cls(tuple(runs), sum(map(len, tables.values())))

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Determinant]:
        for _, origin, mask, table in self.runs:
            for bit in set_bits(mask):
                yield table[origin + bit]

    def __getitem__(self, index: Any) -> Any:
        return tuple(self)[index]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Sequence) and len(self) == len(other)
                and tuple(self) == tuple(other))

    def __repr__(self) -> str:
        return f"Increment({tuple(self)!r})"


class PwdCausalProtocol(SenderLoggingProtocol):
    """The PWD family's difference from the spine: determinant
    piggybacks, the strict-order replay gate behind a recovery barrier,
    determinants in RESPONSE, and broadcast GC advances."""

    name = "pwd-abstract"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.deliver_total = 0
        #: deliver_index -> (sender, send_index): the replay order the
        #: incarnation must follow (filled by survivor RESPONSEs)
        self.required_order: dict[int, tuple[int, int]] = {}
        #: the event-logger leg of the recovery barrier: a history query
        #: in flight (armed only by protocols with an event logger)
        self._history_pending = False

    # ------------------------------------------------------------------
    # Hooks the concrete protocols implement (with _build_piggyback)
    # ------------------------------------------------------------------
    def _on_deliver_hook(self, det: Determinant, piggyback: Any, src: int) -> float:
        """Record the new determinant, merge the piggyback; return cost."""
        raise NotImplementedError

    def _determinants_for(self, failed: int, after_index: int) -> list[Determinant]:
        """Determinants this process holds for ``failed``'s deliveries
        beyond its checkpoint (returned with the RESPONSE)."""
        raise NotImplementedError

    def _on_checkpoint_advance(self, src: int, stable_upto: int) -> None:
        """Prune determinant storage: ``src``'s deliveries up to
        ``stable_upto`` can no longer roll back."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Delivery gate: strict PWD replay
    # ------------------------------------------------------------------
    def _gate(self, frame_meta: dict[str, Any], src: int) -> DeliveryVerdict:
        if self._recovery_barrier_active():
            return DeliveryVerdict.DEFER
        required = self.required_order.get(self.deliver_total + 1)
        if required is not None and required != (src, frame_meta["send_index"]):
            return DeliveryVerdict.DEFER
        return DeliveryVerdict.DELIVER

    def _recovery_barrier_active(self) -> bool:
        return bool(self._awaiting_response) or self._history_pending

    def _explain_gate(self, frame_meta: dict[str, Any], src: int) -> str | None:
        if self._recovery_barrier_active():
            legs = []
            if self._awaiting_response:
                legs.append(f"RESPONSE from {sorted(self._awaiting_response)}")
            if self._history_pending:
                legs.append("event-logger history")
            return (f"rank {self.rank} recovery barrier awaits "
                    + " and ".join(legs))
        required = self.required_order.get(self.deliver_total + 1)
        send_index = frame_meta["send_index"]
        if required is not None and required != (src, send_index):
            return (f"replay position {self.deliver_total + 1} requires "
                    f"message {required}; frame is ({src}, {send_index})")
        return None

    def _track_delivery(self, src: int, send_index: int,
                        piggyback: Any) -> float:
        self.deliver_total += 1
        det = Determinant(self.rank, self.deliver_total, src, send_index)
        return self._on_deliver_hook(det, piggyback, src)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]:
        state = super().checkpoint_state()
        state["deliver_total"] = self.deliver_total
        return state

    def restore(self, state: dict[str, Any]) -> None:
        super().restore(state)
        self.deliver_total = state["deliver_total"]

    def _advance_cover(self) -> dict[str, Any]:
        return {
            "from_counts": PeerCounts(self.vectors.last_deliver_index),
            "stable_upto": self.deliver_total,
        }

    def _send_advance(self, cover: dict[str, Any]) -> None:
        """Determinants for our pre-checkpoint deliveries are dead weight
        everywhere; senders can also GC their payload logs.  One broadcast
        carries both facts (TDI can target individual senders instead —
        a structural saving the comparison keeps honest), so the log
        release and the determinant pruning lag together under hostile
        storage."""
        size = (self.nprocs + 1) * IDENTIFIER_BYTES
        self.services.broadcast_control(CHECKPOINT_ADVANCE, cover, size)
        # our own pre-checkpoint deliveries can be pruned locally as well
        self._on_checkpoint_advance(self.rank, cover["stable_upto"])

    def _handle_checkpoint_advance(self, src: int, payload: dict[str, Any]) -> None:
        # a lagged payload may predate this rank's join: it covers
        # nothing of ours (absent is 0)
        super()._handle_checkpoint_advance(
            src, payload["from_counts"][self.rank])
        self._on_checkpoint_advance(src, payload["stable_upto"])

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recovery_pending(self) -> bool:
        return self._recovery_barrier_active()

    def escalate_recovery(self) -> None:
        super().escalate_recovery(history_pending=self._history_pending)

    def recovery_signature(self) -> Any:
        return super().recovery_signature() + (self._history_pending,)

    def _rollback_fields(self) -> dict[str, Any]:
        return {"ckpt_deliver_total": self.deliver_total}

    def _observe_rollback(self, src: int,
                          payload: dict[str, Any]) -> list[Determinant]:
        return self._determinants_for(src, payload["ckpt_deliver_total"])

    def _absorb_response(self, payload: dict[str, Any]) -> None:
        self._note_replay_order(payload["dets"])

    def _note_replay_order(self, dets: list[Determinant]) -> None:
        """One leg of the barrier answered: record the replay order it
        fixes, and re-run the delivery scan once every leg has."""
        for det in dets:
            self.required_order[det.deliver_index] = (det.sender, det.send_index)
        if not self._recovery_barrier_active():
            self.services.wake_delivery()

    # ------------------------------------------------------------------
    # Compressed piggyback wire layer
    # ------------------------------------------------------------------
    # Determinant-increment piggybacks are self-contained, so the PWD
    # compressed form is *stateless*: every record is standalone and no
    # channel state exists to invalidate on epoch advances.  The imports
    # are function-level because repro.core.wire imports Determinant
    # from this module.

    def encode_piggyback_wire(self, dest: int, piggyback: Any,
                              send_index: int) -> Any:
        if not self.compress:
            return None
        from repro.protocols.compression import encode_pwd_piggyback

        return encode_pwd_piggyback(piggyback, send_index)

    def decode_piggyback_wire(self, src: int, blob: Any,
                              send_index: int) -> Any:
        from repro.protocols.compression import (
            UndecodablePiggyback,
            decode_pwd_piggyback,
        )

        piggyback, embedded = decode_pwd_piggyback(blob, self.nprocs)
        if embedded != send_index:
            raise UndecodablePiggyback(
                f"record send_index {embedded} != frame {send_index}")
        return piggyback
