"""The causal-consistency oracle.

:class:`CausalOracle` subscribes to the cluster's :class:`Trace` as a
listener and maintains a **shadow reconstruction** of the system's
causal state — per-rank delivery counters and a happens-before vector
clock — fed exclusively by the observation events the middleware emits
(``verify.send``, ``verify.deliver``, ``ckpt.write``,
``recovery.incarnate``, ``verify.release``).  It never reads a
protocol's ``depend_interval`` or index vectors to *form* its model, so
a protocol that corrupts its own bookkeeping cannot fool the checks
(protocol state is read only for the monotonicity invariant, whose
subject *is* that state).

Shadow semantics mirror the paper's Algorithm 1 exactly:

* ``hb[r][r]`` counts the deliveries rank ``r`` has made — its current
  process-state interval (line 20);
* foreign entries take the pointwise max with each delivered message's
  piggyback (lines 22–24);
* at a checkpoint the shadow state is snapshotted under the checkpoint's
  sequence number, and restored when an incarnation announces which
  checkpoint it rolled back to — so the shadow rolls back exactly when
  the real process does.

Failures therefore need no special-casing: a replayed delivery is
checked against the rolled-back shadow just as the original was checked
against the live one.

Incarnation epochs (the overlapping-recovery fix) are mirrored in the
shadow: every happens-before entry carries the epoch it refers to.  The
causal-gate count check holds across epochs — a dead incarnation's
counts are re-reached by replay, so delivering below one is the same
orphan risk as a same-epoch overcount — with two carve-outs: a
*future*-epoch entry delivered anyway is always a violation, and a
stale-epoch overcount is exempt only while the receiver's recovery sits
between ``proto.recovery_escalate`` and ``proto.recovery_settled`` (the
watchdog degraded its gate to the checkpointed-coverage clamp).
Foreign entries merge under the lexicographic ``(epoch, value)`` order,
and piggyback completeness compares pairs under that same order.  An
epoch-blind protocol merge is therefore caught — the mutation test in
``tests/verify`` proves it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import repeat
from operator import ge, lt
from typing import Any, TYPE_CHECKING

from repro.simnet.trace import TraceEvent
from repro.verify.violations import (
    CAUSAL_GATE,
    EXACTLY_ONCE,
    GC_SAFETY,
    MONOTONICITY,
    PIGGYBACK_COMPLETENESS,
    InvariantViolation,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.cluster import Cluster


@dataclass
class _Shadow:
    """Oracle-side reconstruction of one rank's causal state."""

    delivered_upto: list[int]
    hb: list[int]
    #: incarnation epoch each ``hb`` entry refers to (all zero until a
    #: rollback somewhere bumps one)
    hb_epochs: list[int]

    @classmethod
    def fresh(cls, nprocs: int) -> "_Shadow":
        return cls([0] * nprocs, [0] * nprocs, [0] * nprocs)

    def copy(self) -> "_Shadow":
        return _Shadow(list(self.delivered_upto), list(self.hb),
                       list(self.hb_epochs))


#: what a monotone sample reads off a rank's protocol, in this order (the
#: epoch vector after the vector whose re-tagged entries it excuses)
_SAMPLED = ("last_deliver_index", "rollback_last_send_index",
            "depend_interval", "depend_interval_epochs")


def _copied(vec: Any) -> Any:
    """What a baseline keeps of a sampled vector: an equal copy, never
    the live object (an immutable one is nobody's alias)."""
    if vec is None or isinstance(vec, tuple):
        return vec
    return dict(vec) if isinstance(vec, dict) else list(vec)


class CausalOracle:
    """Runtime invariant verifier for one cluster run."""

    def __init__(self, nprocs: int, max_violations: int = 200) -> None:
        self.nprocs = nprocs
        self.max_violations = max_violations
        self.violations: list[InvariantViolation] = []
        #: events examined per invariant, for reporting
        self.checks: dict[str, int] = defaultdict(int)
        #: violations dropped after ``max_violations`` was reached
        self.suppressed = 0
        self._shadow = [_Shadow.fresh(nprocs) for _ in range(nprocs)]
        #: per-rank current incarnation epoch (from recovery.incarnate)
        self._rank_epoch = [0] * nprocs
        #: ranks whose recovery the watchdog escalated and has not yet
        #: settled — their stale-epoch gate is legitimately degraded
        self._rank_degraded = [False] * nprocs
        #: shadow state frozen at each checkpoint: (rank, seq) -> _Shadow
        self._ckpt_shadow: dict[tuple[int, int], _Shadow] = {}
        #: per-rank delivery coverage of the latest durable checkpoint
        self._ckpt_cover = [[0] * nprocs for _ in range(nprocs)]
        #: rank -> ``[*baselines in _SAMPLED order, node epoch]``; a
        #: baseline is a copy of what was last seen, never the live object
        self._samples: dict[int, list] = {}
        #: rank -> peers whose ROLLBACK the rank has processed since its
        #: last monotone sample (their suppression entries may clamp)
        self._rollback_clamped: dict[int, set[int]] = {}
        self._cluster: "Cluster | None" = None
        #: the kinds the oracle reads -> what it does with one; also its
        #: subscription, so no other event is built on its account
        self._handlers = {
            "verify.deliver": self._on_deliver,
            "verify.send": self._on_send,
            "ckpt.write": self._on_checkpoint,
            "recovery.incarnate": self._on_incarnate,
            "verify.release": self._on_release,
            "proto.recovery_escalate": self._on_degrade,
            "proto.recovery_settled": self._on_degrade,
            "proto.resend": self._on_resend,
        }

    # ------------------------------------------------------------------
    def attach(self, cluster: "Cluster") -> None:
        """Subscribe to the kinds of the cluster's trace stream it reads."""
        self._cluster = cluster
        cluster.trace.attach_listener(self.observe, self._handlers)

    # ------------------------------------------------------------------
    def observe(self, event: TraceEvent) -> None:
        """Trace-listener entry point: dispatch one event."""
        handler = self._handlers.get(event.kind)
        if handler is not None and 0 <= event.rank < self.nprocs:
            handler(event)

    def _on_degrade(self, ev: TraceEvent) -> None:
        self._rank_degraded[ev.rank] = ev.kind == "proto.recovery_escalate"

    def _on_resend(self, ev: TraceEvent) -> None:
        # rank just processed a ROLLBACK from ev["to"]: entry ``to`` of
        # its rollback_last_send_index may legitimately clamp down
        # (consumed by the next monotone sample)
        self._rollback_clamped.setdefault(ev.rank, set()).add(ev["to"])

    # ------------------------------------------------------------------
    # Invariant 1 + 2: delivery-time checks
    # ------------------------------------------------------------------
    def _on_deliver(self, ev: TraceEvent) -> None:
        rank, fields = ev.rank, ev.fields
        src, send_index, pb = fields["src"], fields["send_index"], fields["pb"]
        shadow = self._shadow[rank]

        self.checks[EXACTLY_ONCE] += 1
        expected = shadow.delivered_upto[src] + 1
        if send_index != expected:
            what = "duplicate" if send_index <= shadow.delivered_upto[src] else "gap"
            self._report(ev.time, EXACTLY_ONCE, rank,
                         f"delivery {what} on channel {src}->{rank}: "
                         f"got send_index={send_index}, expected {expected}",
                         src=src, send_index=send_index, expected=expected)
        shadow.delivered_upto[src] = max(shadow.delivered_upto[src], send_index)

        if self._is_depend_vector(pb):
            self.checks[CAUSAL_GATE] += 1
            epoch = self._rank_epoch[rank]
            pb_epochs = getattr(pb, "epochs", None)
            # a piggyback from a sender with a smaller membership
            # horizon places no requirement on ranks beyond its length
            in_range = rank < len(pb)
            required = pb[rank] if in_range else 0
            # an untagged piggyback gates at face value (classify() does
            # the same), so its own-entry epoch is taken as current
            entry_epoch = (pb_epochs[rank]
                           if pb_epochs is not None and in_range else epoch)
            if entry_epoch > epoch:
                self._report(
                    ev.time, CAUSAL_GATE, rank,
                    f"message {src}->{rank} #{send_index} delivered while "
                    f"referencing future epoch {entry_epoch} of rank {rank} "
                    f"(currently in epoch {epoch})",
                    src=src, send_index=send_index,
                    entry_epoch=entry_epoch, epoch=epoch)
            elif entry_epoch == epoch and required > shadow.hb[rank]:
                self._report(
                    ev.time, CAUSAL_GATE, rank,
                    f"message {src}->{rank} #{send_index} delivered with "
                    f"unsatisfied dependency: piggyback requires interval "
                    f"{required}, receiver has made {shadow.hb[rank]} "
                    f"deliveries",
                    src=src, send_index=send_index,
                    required=required, have=shadow.hb[rank])
            elif (entry_epoch < epoch and required > shadow.hb[rank]
                  and not self._rank_degraded[rank]):
                # A dead incarnation's counts still gate — replay
                # re-reaches them position-for-position — unless the
                # watchdog escalated this recovery, which degrades the
                # gate to the checkpointed-coverage clamp until the
                # episode settles.
                self._report(
                    ev.time, CAUSAL_GATE, rank,
                    f"message {src}->{rank} #{send_index} delivered with "
                    f"unsatisfied stale-epoch dependency: piggyback "
                    f"requires interval {required} of epoch {entry_epoch}, "
                    f"receiver has made {shadow.hb[rank]} deliveries and "
                    f"no escalation degraded its gate",
                    src=src, send_index=send_index,
                    required=required, have=shadow.hb[rank],
                    entry_epoch=entry_epoch, epoch=epoch)
            hb = shadow.hb
            if pb_epochs is not None and list(pb_epochs) == shadow.hb_epochs:
                # every epoch agrees (every failure-free delivery): the
                # merge is the pointwise max, the own entry left alone
                own = hb[rank]
                hb[:] = map(max, hb, pb)
                hb[rank] = own
            else:
                for k, entry in enumerate(pb):
                    if k == rank:
                        continue
                    pe = pb_epochs[k] if pb_epochs is not None else 0
                    le = shadow.hb_epochs[k]
                    if pe > le:
                        hb[k] = entry
                        shadow.hb_epochs[k] = pe
                    elif pe == le and entry > hb[k]:
                        hb[k] = entry
        shadow.hb[rank] += 1
        self._sample_monotone(ev.time, rank)

    # ------------------------------------------------------------------
    # Invariant 1 (sender side): the piggyback must carry the sender's
    # whole causal knowledge, or a recovering receiver could deliver a
    # message whose dependencies it cannot satisfy (an orphan risk).
    # ------------------------------------------------------------------
    def _on_send(self, ev: TraceEvent) -> None:
        rank, fields = ev.rank, ev.fields
        if fields["resend"]:
            # resends replay the piggyback captured at original send
            # time verbatim; the shadow has legitimately moved on
            return
        pb = fields["pb"]
        if self._is_depend_vector(pb):
            self.checks[PIGGYBACK_COMPLETENESS] += 1
            shadow = self._shadow[rank]
            hb, hb_epochs = shadow.hb, shadow.hb_epochs
            pb_epochs = getattr(pb, "epochs", None) or (0,) * len(pb)
            # lexicographic (epoch, value): an entry re-tagged to a newer
            # epoch with a smaller count still carries the full knowledge.
            # Entries beyond a short piggyback's horizon count as (0, 0)
            # — a sender that has causal knowledge of a rank it does not
            # cover is under-reporting just the same.
            # Where every epoch agrees (every failure-free send) nothing
            # lags unless some count does, and one pass says none does.
            m = len(pb)
            lagging = list(pb_epochs) != hb_epochs or any(map(lt, pb, hb))
            if lagging:
                lagging = [k for k in range(self.nprocs)
                           if ((pb_epochs[k] if k < m else 0),
                               (pb[k] if k < m else 0)) < (hb_epochs[k], hb[k])]
            if lagging:
                self._report(
                    ev.time, PIGGYBACK_COMPLETENESS, rank,
                    f"send {rank}->{fields['dest']} #{fields['send_index']} "
                    f"under-reports dependencies at entries {lagging}: "
                    f"piggyback {tuple(pb)} (epochs {tuple(pb_epochs)}) < "
                    f"happens-before {tuple(hb)} (epochs {tuple(hb_epochs)})",
                    dest=fields["dest"], send_index=fields["send_index"],
                    pb=tuple(pb), shadow_hb=tuple(hb))
        self._sample_monotone(ev.time, rank)

    # ------------------------------------------------------------------
    # Checkpoint / rollback bookkeeping
    # ------------------------------------------------------------------
    def _on_checkpoint(self, ev: TraceEvent) -> None:
        rank = ev.rank
        self._ckpt_shadow[(rank, ev["seq"])] = self._shadow[rank].copy()
        self._ckpt_cover[rank] = list(self._shadow[rank].delivered_upto)
        self._sample_monotone(ev.time, rank)

    def _on_incarnate(self, ev: TraceEvent) -> None:
        rank = ev.rank
        frozen = self._ckpt_shadow.get((rank, ev["from_seq"]))
        if frozen is None:  # pragma: no cover - start() always checkpoints
            self._report(ev.time, EXACTLY_ONCE, rank,
                         f"incarnation from unknown checkpoint seq "
                         f"{ev['from_seq']}", from_seq=ev["from_seq"])
            return
        restored = frozen.copy()
        epoch = ev["epoch"]
        self._rank_epoch[rank] = epoch
        # the restored own entry re-tags under the new incarnation, just
        # like the protocol's set_own_epoch after restore()
        restored.hb_epochs[rank] = epoch
        self._shadow[rank] = restored
        # a fresh incarnation starts with the strict (orphan-safe) gate
        self._rank_degraded[rank] = False

    # ------------------------------------------------------------------
    # Invariant 3: GC safety of the sender log
    # ------------------------------------------------------------------
    def _on_release(self, ev: TraceEvent) -> None:
        sender, receiver = ev.rank, ev["dest"]
        if not (0 <= receiver < self.nprocs):
            return
        self.checks[GC_SAFETY] += 1
        covered = self._ckpt_cover[receiver][sender]
        dropped_upto = ev["dropped_upto"]
        if dropped_upto > covered:
            self._report(
                ev.time, GC_SAFETY, sender,
                f"sender log released {sender}->{receiver} items up to "
                f"#{dropped_upto}, but {receiver}'s latest checkpoint only "
                f"covers #{covered} — a failure of {receiver} now loses "
                f"messages #{covered + 1}..#{dropped_upto}",
                dest=receiver, dropped_upto=dropped_upto, covered=covered,
                requested_upto=ev["upto"])

    # ------------------------------------------------------------------
    # Invariant 4: vector monotonicity within an incarnation epoch
    # ------------------------------------------------------------------
    def _sample_monotone(self, time: float, rank: int) -> None:
        cluster = self._cluster
        if cluster is None:
            return
        endpoint = cluster.endpoints[rank]
        protocol, epoch = endpoint.protocol, endpoint.node.epoch
        vectors = getattr(protocol, "vectors", None)
        depend = getattr(protocol, "depend_interval", None)
        # the epoch vector is monotone itself (merges only ever adopt
        # newer epochs), and the excuse for a value that fell by re-tagging
        epochs = getattr(depend, "epochs", None)
        # the live per-peer maps and the vector as a fresh list
        live = [getattr(vectors, "last_deliver_index", None),
                getattr(protocol, "rollback_last_send_index", None),
                None if depend is None else list(depend), epochs, epoch]
        # every sample establishes a new baseline, so the comparison
        # spanning a ROLLBACK clamp is exactly the first sample after it
        clamped = self._rollback_clamped.pop(rank, None) or ()
        baseline = self._samples.get(rank)
        if baseline is None or baseline[-1] != epoch:
            self._samples[rank] = [*map(_copied, live[:-1]), epoch]
            return
        self.checks[MONOTONICITY] += 1
        if live == baseline:
            # compare, then copy: one C-level pass, true on most samples
            return
        for slot, name in enumerate(_SAMPLED):
            now, before = live[slot], baseline[slot]
            if now == before:
                continue
            baseline[slot] = _copied(now)
            if now is None or before is None:
                continue
            if isinstance(now, dict):
                # the same keys (as many, and none of the old ones gone:
                # a missing one reads -1) and no count lower
                if len(now) == len(before) and all(map(
                        ge, map(now.get, before, repeat(-1)), before.values())):
                    continue
                # fallen entries, then vanished ones
                sunk = sorted(
                    [k for k, a in now.items() if a < before.get(k, 0)]
                    + [k for k, b in before.items() if b > 0 and k not in now])
            elif not any(map(lt, now, before)):
                continue
            else:
                sunk = [k for k, (a, b) in enumerate(zip(now, before)) if a < b]
            if (name == "depend_interval" and epochs is not None
                    and baseline[3] is not None):
                # entry k may legitimately drop when it re-tags to a
                # newer epoch (observe_rollback clamps it to the
                # peer's restored interval); baseline[3]: not yet replaced
                sunk = [k for k in sunk if epochs[k] == baseline[3][k]]
            if name == "rollback_last_send_index":
                # processing peer k's ROLLBACK clamps entry k down to
                # the peer's restored coverage — a legitimate reset,
                # not a monotonicity break.  Recognised by the
                # proto.resend event the rollback handler emits; a
                # peer-epoch comparison between samples is racy here
                # (the clamp lands one network delay after the
                # peer's incarnation, so a sample in between sees
                # the new epoch already paired with the old value)
                sunk = [k for k in sunk if k not in clamped]
            if sunk:
                if isinstance(now, dict):  # report the dense vectors
                    before = [before.get(k, 0) for k in range(self.nprocs)]
                    now = [now.get(k, 0) for k in range(self.nprocs)]
                self._report(
                    time, MONOTONICITY, rank,
                    f"{name} decreased at entries {sunk} within epoch "
                    f"{epoch}: {before} -> {now}",
                    vector=name, before=list(before), after=list(now))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _is_depend_vector(self, pb: Any) -> bool:
        """True for TDI-style piggybacks: one integer per joined rank.

        Under dynamic membership a sender's vector spans its own
        membership horizon, so anything from one entry up to full
        capacity qualifies.
        """
        return (isinstance(pb, (list, tuple)) and 1 <= len(pb) <= self.nprocs
                and (set(map(type, pb)) == {int}  # one pass; else ask each
                     or all(isinstance(x, int) and not isinstance(x, bool)
                            for x in pb)))

    def _report(self, time: float, invariant: str, rank: int, detail: str,
                **fields: Any) -> None:
        if len(self.violations) >= self.max_violations:
            self.suppressed += 1
            return
        self.violations.append(
            InvariantViolation(time, invariant, rank, detail, fields))

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Counts of checks performed and violations found, by invariant."""
        by_invariant: dict[str, int] = {}
        for violation in self.violations:
            by_invariant[violation.invariant] = (
                by_invariant.get(violation.invariant, 0) + 1)
        return {
            "checks": dict(self.checks),
            "violations": by_invariant,
            "suppressed": self.suppressed,
        }
