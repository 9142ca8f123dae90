"""The protocol hook interface.

A :class:`Protocol` instance lives inside one rank's middleware endpoint
(the WINDAR layer in the paper's Fig. 5) and is consulted at five points:

1. ``prepare_send``   — before an application message goes on the wire:
   assign the send index, build the piggyback, build the sender-side log
   item, decide whether the transmission is a suppressed duplicate
   (Algorithm 1 lines 8–12);
2. ``classify``       — when the delivery manager scans the receiving
   queue: is this frame deliverable now, a duplicate to discard, or
   deferred until its dependencies are satisfied (lines 15–31);
3. ``on_deliver``     — bookkeeping after a delivery (vector merges,
   determinant creation);
4. ``checkpoint_state`` / ``after_checkpoint`` — what goes into the
   checkpoint, and what control traffic follows it (lines 32–39);
5. ``restore`` / ``begin_recovery`` / ``handle_control`` — the failure
   path (lines 40–53).

Protocols never touch the network directly; they go through
:class:`EndpointServices`, the narrow surface the endpoint exposes.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Any, Protocol as TypingProtocol

from repro.metrics.costs import CostModel
from repro.metrics.counters import RankMetrics
from repro.simnet.trace import Trace


#: membership control frames (coordinator-free: every rank applies them
#: independently, in whatever order its channels deliver them)
MEMBER_JOIN = "JOIN"
MEMBER_LEAVE = "LEAVE"


class MembershipView:
    """The cluster's live membership truth (one instance per cluster).

    ``nprocs`` is *capacity* — the largest rank the run may ever host
    plus one.  Members are the ranks currently part of the computation:
    crashed ranks stay members (a crash is a recovery in progress, not a
    departure); deferred slots and departed ranks are not members.  The
    *horizon* is one past the highest rank that ever joined — the length
    depend-interval vectors must grow to.  It is monotone: a departed
    rank's entries stay meaningful in everyone's causal history.  The
    member set is one ``frozenset``, shared with every protocol whose own
    view has not diverged and rebound (never mutated) on a change.
    """

    def __init__(self, nprocs: int) -> None:
        self._members = frozenset(range(nprocs))
        self.horizon = nprocs

    def current_members(self) -> frozenset[int]:
        """The ranks currently in the computation (crashed ones
        included): the shared immutable set, not a copy."""
        return self._members

    def defer(self, rank: int) -> None:
        """Mark a capacity slot that starts empty (its first scheduled
        membership event is a JoinSpec): not a member, not yet counted
        into the horizon.  Only before the run starts."""
        self._members -= {rank}
        self.horizon = 1 + max(self._members, default=-1)

    def observe_join(self, rank: int) -> None:
        """Admit ``rank`` (first join or rejoin); extends the horizon."""
        self._members |= {rank}
        self.horizon = max(self.horizon, rank + 1)

    def observe_leave(self, rank: int) -> None:
        """Record ``rank``'s departure; the horizon stays put."""
        self._members -= {rank}


class DeliveryVerdict(enum.Enum):
    """Outcome of scanning one queued frame for a pending receive."""

    DELIVER = "deliver"
    DUPLICATE = "duplicate"   # discard (Algorithm 1 line 28)
    DEFER = "defer"           # dependencies not satisfied yet; keep queued


@dataclass
class PreparedSend:
    """What ``prepare_send`` returns for one application send."""

    send_index: int
    #: protocol-specific piggyback object, shipped in ``frame.meta["pb"]``
    piggyback: Any
    #: how many identifiers the piggyback contains (Fig. 6 accounting)
    piggyback_identifiers: int
    #: tracking CPU cost the sender pays for this send (Fig. 7 accounting)
    cost: float
    #: False when the send is a recognised duplicate during rolling
    #: forward (Algorithm 1 line 10): the item is logged but not
    #: transmitted
    transmit: bool = True
    #: compressed wire form of the piggyback (``None`` = ship raw).
    #: Built inside ``prepare_send`` — the channel-delta encoders need
    #: the piggyback snapshot and the encode to be one atomic step, and
    #: in blocking mode deliveries can mutate the vector between
    #: ``prepare_send`` and the scheduled transmission.
    wire: Any = None


@dataclass
class LoggedMessage:
    """One sender-side log item (Algorithm 1 line 12)."""

    dest: int
    send_index: int
    tag: int
    payload: Any
    size_bytes: int
    #: the piggyback captured at send time, replayed verbatim on resend
    piggyback: Any
    piggyback_identifiers: int = 0


class EndpointServices(TypingProtocol):
    """What a protocol may ask of its endpoint (structural typing)."""

    rank: int
    nprocs: int

    def incarnation_epoch(self) -> int:
        """The hosting node's incarnation epoch (0 before any failure;
        bumped every time the node revives)."""

    def send_control(self, dst: int, ctl: str, payload: Any, size_bytes: int) -> None:
        """Transmit one protocol control frame to ``dst``."""

    def broadcast_control(self, ctl: str, payload: Any, size_bytes: int) -> None:
        """Transmit a control frame to every other member rank."""

    def current_members(self) -> frozenset[int]:
        """The cluster's live membership view (see :class:`MembershipView`)."""

    def membership_horizon(self) -> int:
        """One past the highest rank that ever joined the computation."""

    def resend_logged(self, item: "LoggedMessage") -> None:
        """Retransmit a logged message (middleware level, non-blocking)."""

    def peer_watermark(self, peer: int, delivered_upto: int) -> None:
        """A restarted/rejoined peer's durable state covers our sends up
        to ``delivered_upto``: unacked window entries at or below it
        will never be acked and must be dropped."""

    def wake_delivery(self) -> None:
        """Ask the endpoint to re-run its delivery scan."""

    def checkpoint_gc_lag(self) -> int:
        """Checkpoints to lag sender-log GC by: 0 on a clean stable
        store, ``history - 1`` under hostile storage (a fallback
        recovery must still find the log suffix it replays)."""


class Protocol(abc.ABC):
    """Base class for rollback-recovery message-logging protocols."""

    #: registry key; subclasses override
    name: str = "abstract"

    def __init__(
        self,
        rank: int,
        nprocs: int,
        services: EndpointServices,
        costs: CostModel,
        metrics: RankMetrics,
        trace: Trace,
    ) -> None:
        self.rank = rank
        self.nprocs = nprocs
        self.services = services
        self.costs = costs
        self.metrics = metrics
        self.trace = trace
        # Construction-time service lookups are duck-typed, and only
        # these: ``benchmarks/e2e/micro.py`` drives protocols through a
        # services double with no membership methods, and the benchmark
        # directory is frozen.  Everything a protocol asks of its
        # services after construction is called directly.
        #
        # The incarnation epoch this protocol instance lives in.  The
        # endpoint re-creates the protocol on every incarnation, so the
        # constructor-time read is authoritative.
        epoch_fn = getattr(services, "incarnation_epoch", None)
        self.epoch: int = epoch_fn() if callable(epoch_fn) else 0
        #: ship piggybacks in the compressed wire encoding
        #: (``SimulationConfig.compress_piggybacks``)
        self.compress: bool = bool(
            getattr(services, "compress_piggybacks", False))
        # Dynamic membership: the ranks this instance currently treats
        # as part of the computation, and the vector horizon (one past
        # the highest rank that ever joined); fixed-n without a view.
        # ``members`` is the view's own set: rebound, never mutated.
        members_fn = getattr(services, "current_members", None)
        self.members: frozenset[int] = self._with_self(
            members_fn() if callable(members_fn) else frozenset(range(nprocs)))
        horizon_fn = getattr(services, "membership_horizon", None)
        horizon = horizon_fn() if callable(horizon_fn) else nprocs
        self.horizon: int = max(horizon, self.rank + 1,
                                max(self.members, default=0) + 1)

    # ------------------------------------------------------------------
    # Normal-execution path
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def prepare_send(self, dest: int, tag: int, payload: Any, size_bytes: int) -> PreparedSend:
        """Account a send: index it, log it, build its piggyback."""

    @abc.abstractmethod
    def classify(self, frame_meta: dict[str, Any], src: int) -> DeliveryVerdict:
        """Queue-scan gate for one arrived frame's metadata."""

    @abc.abstractmethod
    def on_deliver(self, frame_meta: dict[str, Any], src: int) -> float:
        """Post-delivery bookkeeping; returns the tracking CPU cost."""

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def checkpoint_state(self) -> dict[str, Any]:
        """Protocol state to persist alongside the application snapshot."""

    @abc.abstractmethod
    def checkpoint_log_bytes(self) -> int:
        """Current sender-log volume (counted into checkpoint size)."""

    def after_checkpoint(self) -> None:
        """Emit post-checkpoint control traffic (e.g. CHECKPOINT_ADVANCE)."""

    # ------------------------------------------------------------------
    # Failure / recovery path
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def restore(self, state: dict[str, Any]) -> None:
        """Load protocol state from a checkpoint (incarnation startup)."""

    @abc.abstractmethod
    def begin_recovery(self) -> None:
        """Announce the rollback to the system (ROLLBACK broadcast)."""

    @abc.abstractmethod
    def handle_control(self, ctl: str, src: int, payload: Any) -> None:
        """Process a protocol control frame."""

    def recovery_pending(self) -> bool:
        """True while the incarnation is still waiting for peers'
        recovery responses (drives the rollback retry timer)."""
        return False

    def retry_recovery(self) -> None:
        """Re-issue recovery requests to unresponsive peers."""

    def escalate_recovery(self) -> None:
        """Watchdog escalation: recovery has made no progress past the
        configured deadline.  Protocols override this to re-announce
        their full recovery state to *every* peer (not just the
        unresponsive ones); the default falls back to a plain retry."""
        self.retry_recovery()

    def recovery_settled(self) -> None:
        """Watchdog disarm: the incarnation is healthy again.  Protocols
        that degraded themselves under escalation (e.g. TDI's stale-epoch
        clamp) restore their strict behaviour here."""

    def recovery_signature(self) -> Any:
        """Hashable snapshot of recovery progress.  The watchdog calls
        this each tick; any change counts as progress and resets its
        stall clock and backoff."""
        return ()

    def explain_defer(self, frame_meta: dict[str, Any], src: int) -> str | None:
        """Why is this queued frame not deliverable right now?  Used by
        the watchdog's abort diagnosis to name the blocking interval
        entries; ``None`` when the protocol has nothing specific to say."""
        return None

    # ------------------------------------------------------------------
    # Compressed piggyback wire layer (repro.protocols.compression)
    # ------------------------------------------------------------------
    def encode_piggyback_wire(self, dest: int, piggyback: Any,
                              send_index: int) -> Any:
        """Standalone (channel-state-free) wire form of a piggyback, used
        for log resends; ``None`` ships the piggyback raw."""
        return None

    def decode_piggyback_wire(self, src: int, blob: Any,
                              send_index: int) -> Any:
        """Reconstruct a piggyback from its wire form at frame arrival.
        Raises ``UndecodablePiggyback`` when reconstruction is impossible
        (the endpoint then drops the frame; recovery resends cover it)."""
        raise NotImplementedError(
            f"{self.name} received a compressed piggyback it cannot decode"
        )

    # ------------------------------------------------------------------
    # Dynamic membership
    # ------------------------------------------------------------------
    def _with_self(self, members: frozenset[int]) -> frozenset[int]:
        """``members`` itself (still shared) unless it lacks this rank."""
        return members if self.rank in members else members | {self.rank}

    def _grow_to(self, horizon: int) -> None:
        """Grow horizon-sized structures (depend-interval vectors and
        their delta encoders) to ``horizon`` entries.  Default: nothing
        is horizon-sized — the index vectors are touched-peer maps."""

    def grow_membership(self, rank: int) -> None:
        """Admit ``rank`` into this instance's membership view (frame
        from an unknown rank, JOIN announcement, or a rejoiner's
        ROLLBACK) and grow any horizon-sized structures to cover it."""
        if rank not in self.members:
            self.members = self.members | {rank}
        if rank >= self.horizon:
            self.horizon = rank + 1
            self._grow_to(self.horizon)

    def sync_membership(self, members: frozenset[int], horizon: int) -> None:
        """Adopt the cluster's live membership view (incarnation startup:
        the checkpointed view may predate joins and leaves)."""
        self.members = self._with_self(members)
        if horizon > self.horizon:
            self.horizon = horizon
            self._grow_to(self.horizon)

    def membership_snapshot(self) -> dict[str, Any]:
        """Checkpointable membership view: the immutable set itself."""
        return {"members": self.members, "horizon": self.horizon}

    def restore_membership(self, state: dict[str, Any]) -> None:
        """Adopt a checkpointed membership view."""
        self.members = self._with_self(frozenset(state["members"]))
        horizon = max(int(state["horizon"]), self.rank + 1)
        if horizon > self.horizon:
            self.horizon = horizon
            self._grow_to(self.horizon)
        else:
            self.horizon = horizon

    # ------------------------------------------------------------------
    # Zombie fencing (accrual failure detection)
    # ------------------------------------------------------------------
    def fence_peer(self, rank: int, epoch: int) -> None:
        """Condemnation fencing: treat ``rank``'s incarnation ``epoch``
        as dead right now.  A protocol that tracks no peer epochs has
        nothing to fence."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def charge(self, cost: float, identifiers: int = 0, pb_bytes: int = 0) -> None:
        """Record tracking cost and piggyback volume into the metrics."""
        self.metrics.tracking_time += cost
        self.metrics.piggyback_identifiers += identifiers
        self.metrics.piggyback_bytes_raw += pb_bytes


class PeerCounts(dict):
    """One integer per *touched* peer: a peer never written reads 0 and
    occupies nothing, so a copy, a checkpoint or a control payload costs
    O(peers talked to), not O(n).  ``__missing__`` does not insert (a
    read must not grow the map); hits and ``+= 1`` stay C-level."""

    __slots__ = ()

    def __missing__(self, peer: int) -> int:
        return 0

    def total(self) -> int:
        """Sum over every peer."""
        return sum(self.values())


@dataclass
class VectorState:
    """The three index maps every sender-based protocol carries
    (Algorithm 1 lines 3–7), each a :class:`PeerCounts`.  TAG/TEL reuse
    the send/deliver counters for lost-message identification even
    though their dependency tracking differs."""

    last_send_index: PeerCounts = field(default_factory=PeerCounts)
    last_deliver_index: PeerCounts = field(default_factory=PeerCounts)
    #: highest incarnation epoch observed per peer (from ROLLBACK /
    #: RESPONSE control frames); stale control frames from a peer's dead
    #: incarnation are recognised and discarded against this
    peer_epoch: PeerCounts = field(default_factory=PeerCounts)

    def snapshot(self) -> dict[str, PeerCounts]:
        """Checkpointable copy of the index maps."""
        return {
            "last_send_index": PeerCounts(self.last_send_index),
            "last_deliver_index": PeerCounts(self.last_deliver_index),
            "peer_epoch": PeerCounts(self.peer_epoch),
        }

    def restore(self, data: dict[str, PeerCounts]) -> None:
        """Adopt checkpointed index maps."""
        self.last_send_index = PeerCounts(data["last_send_index"])
        self.last_deliver_index = PeerCounts(data["last_deliver_index"])
        self.peer_epoch = PeerCounts(data["peer_epoch"])

    def observe_peer_epoch(self, rank: int, epoch: int) -> bool:
        """Record a peer's announced incarnation epoch; returns False
        when the announcement is *stale* (older than already known)."""
        if epoch < self.peer_epoch[rank]:
            return False
        self.peer_epoch[rank] = epoch
        return True
