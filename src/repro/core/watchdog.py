"""Recovery watchdog: stall detection, backoff, escalation, abort.

The paper's recovery (§III.D) is silent about liveness: the incarnation
broadcasts ROLLBACK, peers answer and resend, rolling forward drains the
redelivery stream.  When that loop wedges — a peer was down for the
broadcast, a response raced an overlapping recovery, or (the bug class
the incarnation epochs fix) a regenerated piggyback gates on erased
state — the simulation used to end in one of two bad ways: a fixed-rate
retry loop spinning forever, or the engine draining into an opaque
"unfinished process(es)" error.

The watchdog replaces the fixed-rate retry with graduated pressure.  It
is armed once per incarnation and ticks while that incarnation is still
recovering (recovery responses outstanding, or rolling forward short of
the pre-failure delivery count):

1. every tick it samples :meth:`Protocol.recovery_signature`; a change
   is progress and resets the stall clock and the tick interval;
2. an unchanged signature is a **stall episode**: counted once
   (``recovery_stalls``), traced as ``proto.recovery_stalled``, and the
   tick interval backs off exponentially (capped) while plain ROLLBACK
   retries go to the still-silent peers (``rollback_retries``);
3. a stall that survives ``RECOVERY_ESCALATE_AFTER`` triggers one
   :meth:`Protocol.escalate_recovery` (``recovery_escalations``): the
   full recovery state is re-broadcast to *every* peer, refreshing any
   answer computed against a dead incarnation;
4. a stall that survives ``RECOVERY_ABORT_AFTER`` aborts the run with a
   :class:`RecoveryStallError` whose message names each wedged rank,
   what it is waiting on, and — via :meth:`Protocol.explain_defer` —
   which queued frame is blocked by which interval/epoch entry.  That
   turns the old undiagnosed hang into a precise report.

The watchdog disarms (stops rescheduling) the moment the incarnation is
healthy again, so a normal run still ends by the engine draining.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.simnet.engine import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.endpoint import Endpoint

#: incarnations re-broadcast ROLLBACK to unresponsive peers at this
#: period (covers simultaneous-failure races, §III.D); the watchdog's
#: base tick
ROLLBACK_RETRY_INTERVAL = 5e-3
#: the tick interval multiplies by this while the recovery signature
#: shows no progress …
ROLLBACK_RETRY_BACKOFF = 2.0
#: … capped here
ROLLBACK_RETRY_MAX_INTERVAL = 4e-2
#: a recovery stalled this long (no signature change) triggers one
#: escalation: ROLLBACK re-broadcast to *all* peers with full epoch
#: state, not just the unresponsive ones
RECOVERY_ESCALATE_AFTER = 6e-2
#: a recovery still stalled this long aborts the run with a
#: :class:`RecoveryStallError` naming the wedged ranks and the blocking
#: interval entries
RECOVERY_ABORT_AFTER = 0.3


class RecoveryStallError(SimulationError):
    """A recovery made no observable progress past the abort deadline.

    Subclasses :class:`SimulationError` so every existing crash-handling
    path (differential fuzzer, corpus replay, CLI) treats it as a
    simulation failure — but one that carries its own diagnosis instead
    of the generic drained-with-unfinished-processes message.
    """


class StorageLossError(SimulationError):
    """No readable checkpoint generation remains for a recovering rank.

    The stable-storage fallback chain (newest generation first, then
    each older retained generation) was walked to exhaustion: every
    committed generation failed its checksum and any in-flight write was
    torn by the failure itself.  Like :class:`RecoveryStallError` this
    subclasses :class:`SimulationError` so the fuzzer, corpus replay and
    CLI treat it as a diagnosed simulation failure; the message lists
    each retained generation and why it was unreadable.
    """


class RecoveryWatchdog:
    """Monitors one incarnation's recovery for progress (see module doc)."""

    def __init__(self, endpoint: "Endpoint", epoch: int) -> None:
        self.endpoint = endpoint
        #: the incarnation this watchdog guards; a newer epoch of the
        #: same rank silently retires it
        self.epoch = epoch
        self.interval = ROLLBACK_RETRY_INTERVAL
        self._last_signature: object = None
        self._sig_since: float = 0.0
        self._stall_reported = False
        self._escalated = False

    def arm(self) -> None:
        """Schedule the next tick (call once at incarnation start)."""
        self.endpoint.engine.schedule(self.interval, self._tick)

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        ep = self.endpoint
        if ep.node.epoch != self.epoch or not ep.node.alive:
            return  # a newer incarnation (with its own watchdog) took over
        protocol = ep.protocol
        active = (protocol.recovery_pending() or ep.recovering) and not ep.app_done
        if not active:
            # healthy again; lift any escalation degradation and disarm
            # so the engine can drain
            protocol.recovery_settled()
            return
        now = ep.engine.now
        signature = protocol.recovery_signature()
        escalated_this_tick = False
        if signature != self._last_signature:
            # progress: restart the stall clock and the backoff
            self._last_signature = signature
            self._sig_since = now
            self._stall_reported = False
            self._escalated = False
            self.interval = ROLLBACK_RETRY_INTERVAL
        else:
            stalled_for = now - self._sig_since
            if not self._stall_reported:
                self._stall_reported = True
                ep.metrics.recovery_stalls += 1
                ep.trace.emit("proto.recovery_stalled", ep.rank,
                              epoch=self.epoch, stalled_for=stalled_for,
                              interval=self.interval)
            if stalled_for >= RECOVERY_ABORT_AFTER:
                raise RecoveryStallError(self._diagnose(stalled_for))
            if stalled_for >= RECOVERY_ESCALATE_AFTER and not self._escalated:
                self._escalated = True
                escalated_this_tick = True
                ep.metrics.recovery_escalations += 1
                protocol.escalate_recovery()
            self.interval = min(self.interval * ROLLBACK_RETRY_BACKOFF,
                                ROLLBACK_RETRY_MAX_INTERVAL)
        if protocol.recovery_pending() and not escalated_this_tick:
            protocol.retry_recovery()
            ep.metrics.rollback_retries += 1
        self.arm()

    # ------------------------------------------------------------------
    def _diagnose(self, stalled_for: float) -> str:
        """Cluster-wide stall report: every unfinished rank, what it
        waits on, and which queued frames are blocked by what."""
        ep = self.endpoint
        lines = [
            f"recovery of rank {ep.rank} (epoch {self.epoch}) made no "
            f"progress for {stalled_for:.6f}s of simulated time "
            f"(escalation {'fired' if self._escalated else 'not reached'}); "
            f"aborting with diagnosis:"
        ]
        for other in ep.cluster.endpoints:
            if other.app_done:
                continue
            state = "recovering" if other.recovering else "blocked"
            lines.append(
                f"rank {other.rank} [{state}, epoch {other.node.epoch}]: "
                f"{other.describe_wait()}"
            )
            awaiting = sorted(getattr(other.protocol, "_awaiting_response", ()))
            if awaiting:
                lines.append(f"  still awaiting ROLLBACK responses from {awaiting}")
            for frame in other.queue.frames():
                why = other.protocol.explain_defer(frame.meta, frame.src)
                if why:
                    lines.append(f"  {why}")
        # a wedged recovery often *is* a wedged channel: fold in the
        # fabric's in-flight backlog (empty on the raw network)
        for line in ep.cluster.fabric.describe_pending():
            lines.append(f"  {line}")
        return "\n".join(lines)
