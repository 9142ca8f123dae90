"""Per-rank middleware runtime.

One :class:`Endpoint` per rank plays the role of the paper's WINDAR + ADI
layers (Fig. 5), and like them it is a thin interposition layer.  It
does three things itself:

* **interprets the application's effects** (:meth:`_handle_effect`);
* **owns the one path from a message record to the wire** — every
  application frame, first send or resend, is built by :meth:`ship`,
  and every outbound frame but a heartbeat passes the transmit gate
  :meth:`_transmit`, the single place the gate order
  *freeze → fence → mute* is written down;
* **runs the delivery loop** (:meth:`_on_frame`, :meth:`_try_deliver`).

Everything else belongs to the module that owns its policy, and the
endpoint only holds the collaborator:

=================  ====================================================
``sender``         Fig. 4a :class:`~repro.core.blocking.BlockingSender`
                   or Fig. 4b :class:`~repro.core.nonblocking.SendPump`,
                   chosen once at construction
``checkpointer``   :class:`~repro.protocols.checkpoint.CheckpointWriter`
                   (two-phase write, retry, skip)
``gray``           :class:`~repro.faults.gray.GrayGate`, allocated on the
                   rank's first gray fault (``None`` until then)
``protocol``       the rollback-recovery protocol, rebuilt per incarnation
``queue``          :class:`~repro.protocols.queue.ReceivingQueue`
=================  ====================================================

The heartbeat chain lives with the detector
(:class:`~repro.faults.detector.HeartbeatChain`, held by the cluster).

Per-incarnation volatile state is dropped by one function,
:meth:`_drop_volatile`, that :meth:`fail`, :meth:`leave` and the
incarnation all call; every "run later, if this incarnation is still the
live one" callback goes through :meth:`later`.

Acknowledgement protocol (blocking mode only): every transmitted
application frame carries ``meta["ack"]`` ∈ {"arrival", "delivery"} (the
sender's :meth:`ack_mode`); the receiving endpoint returns an ``ack``
frame keyed by the sender-side send index.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, TYPE_CHECKING

from repro.core.blocking import BlockingSender
from repro.core.nonblocking import SendPump
from repro.core.watchdog import RecoveryWatchdog
from repro.faults.gray import GrayGate
from repro.metrics.costs import IDENTIFIER_BYTES
from repro.mpi.context import ProcContext
from repro.protocols.base import (
    DeliveryVerdict,
    LoggedMessage,
    PreparedSend,
    Protocol,
)
from repro.protocols.checkpoint import Checkpoint, CheckpointWriter
from repro.protocols.compression import UndecodablePiggyback
from repro.protocols.queue import ReceivingQueue
from repro.protocols.registry import create_protocol
from repro.simnet.network import Frame
from repro.simnet.primitives import (
    CheckpointPoint,
    Compute,
    Delivered,
    RecvOp,
    SendOp,
    Wait,
)
from repro.simnet.proc import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import GrayFaultSpec
    from repro.mpi.cluster import Cluster
    from repro.workloads.base import Application

_ACK_FRAME_BYTES = 16


@dataclass
class _PendingRecv:
    source: int
    tag: int
    posted_at: float


class Endpoint:
    """One rank's middleware: application host + protocol + transport."""

    def __init__(self, cluster: "Cluster", rank: int, app: "Application") -> None:
        self.cluster = cluster
        self.rank = rank
        self.nprocs = cluster.config.nprocs
        self.app = app
        self.config = cluster.config
        #: EndpointServices surface for the protocol's compressed wire
        #: layer (read at protocol construction, one line below)
        self.compress_piggybacks = cluster.config.compress_piggybacks
        self.engine = cluster.engine
        #: the cluster fabric: the reliable transport when enabled, else
        #: the raw network — same attach/transmit/detach surface
        self.fabric = cluster.fabric
        self.node = cluster.nodes[rank]
        self.trace = cluster.trace
        self.metrics = cluster.metrics[rank]
        self.ctx = ProcContext(rank, self.nprocs)

        self.protocol: Protocol = self._new_protocol()
        self.checkpointer = CheckpointWriter(cluster.checkpoints, self)
        #: the send architecture, Fig. 4a or 4b — chosen here, once
        self.sender: BlockingSender | SendPump = (
            SendPump(self) if self.config.comm_mode == "nonblocking"
            else BlockingSender(self))
        self.queue = ReceivingQueue()
        self.task: Task | None = None
        self._pending_recv: _PendingRecv | None = None
        #: gray-failure state, allocated by the first :meth:`begin_gray`
        self.gray: GrayGate | None = None

        self.result: Any = None
        self.app_done = False
        self.done_at: float | None = None
        self.app_error: BaseException | None = None
        #: rolling-forward measurement (set on kill, cleared on catch-up)
        self.recovering = False
        self._kill_time = 0.0
        self._rollforward_target = 0
        #: an incarnation is in flight (checkpoint read scheduled); keeps
        #: a condemnation-initiated restart from double-incarnating a
        #: rank that is already coming back (e.g. a rejoin in progress)
        self.incarnating = False

        self.fabric.attach(rank, self._on_frame)

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def start(self) -> None:
        """Write the initial checkpoint (the startup state is checkpoint
        zero) and launch the application coroutine."""
        self.checkpointer.write(initial=True)
        self._spawn_task()

    def _spawn_task(self) -> None:
        run = self.app.run(self.ctx)
        if self.cluster.recording is not None:
            run = self.cluster.recording.record(self.rank, run)
        task = Task(
            self.engine,
            run,
            self._handle_effect,
            name=f"app[{self.rank}]",
            epoch=self.node.epoch,
        )
        task.on_done = self._on_task_done
        self.task = task
        task.start()

    def _on_task_done(self, task: Task) -> None:
        if task.error is not None:
            self.app_error = task.error
            self.trace.emit("app.error", self.rank, error=repr(task.error))
            # Stop *after* the current timestamp's queue drains, not
            # immediately: when a bug hits several ranks at one barrier
            # or iteration, their errors land at the same instant and
            # the run report should name every failed rank, not just
            # whichever event popped first.
            self.engine.schedule(0.0, self.engine.stop)
            return
        if task.state is TaskState.DONE:
            self.result = task.result
            self.app_done = True
            self.done_at = self.engine.now
            self.trace.emit("app.done", self.rank)

    def _new_protocol(self) -> Protocol:
        return create_protocol(
            self.config.protocol,
            self.rank,
            self.nprocs,
            self,
            self.config.costs,
            self.metrics,
            self.trace,
        )

    def later(self, delay: float, fn: Callable[..., None], *args: Any,
              at: float | None = None) -> Any:
        """Run ``fn(*args)`` after ``delay`` (or at the absolute time
        ``at``) unless this incarnation has ended by then: the epoch is
        captured now, the way :meth:`Task.resume` captures it, and a
        callback that outlives its incarnation is silently dropped —
        this is how "the process's volatile state is lost" reaches
        everything that was scheduled on its behalf."""
        node = self.node
        epoch = node.epoch

        def fire() -> None:
            if node.epoch != epoch or not node.alive:
                return
            fn(*args)

        if at is None:
            return self.engine.schedule(delay, fire)
        return self.engine.schedule_at(at, fire)

    # ==================================================================
    # EndpointServices surface (what the protocol may call)
    # ==================================================================
    def incarnation_epoch(self) -> int:
        """The hosting node's incarnation epoch (EndpointServices)."""
        return self.node.epoch

    def send_control(self, dst: int, ctl: str, payload: Any, size_bytes: int) -> None:
        """Transmit a protocol control frame (EndpointServices)."""
        frame = Frame("ctl", self.rank, dst, payload, size_bytes, {"ctl": ctl})
        self._transmit(frame)

    def broadcast_control(self, ctl: str, payload: Any, size_bytes: int) -> None:
        """Control frame to every other member rank."""
        for dst in sorted(self.protocol.members):
            if dst != self.rank:
                self.send_control(dst, ctl, payload, size_bytes)

    def current_members(self) -> frozenset[int]:
        """The cluster's live membership view (EndpointServices)."""
        return self.cluster.membership.current_members()

    def membership_horizon(self) -> int:
        """One past the highest rank that ever joined (EndpointServices)."""
        return self.cluster.membership.horizon

    def resend_logged(self, item: LoggedMessage) -> None:
        """Retransmit a logged message on a peer's rollback (middleware
        level: never blocks the local application).  The log item is
        both the message and its stamp; the wire form is a standalone
        record — resends may overtake or duplicate the per-channel delta
        stream, so they never participate in it."""
        self.ship(item, item,
                  self.protocol.encode_piggyback_wire(
                      item.dest, item.piggyback, item.send_index),
                  resend=True)

    def peer_watermark(self, peer: int, delivered_upto: int) -> None:
        """A restarted or rejoined ``peer``'s durable state covers our
        sends up to ``delivered_upto`` (EndpointServices): the sender
        drops what can never be acknowledged any more."""
        self.sender.peer_watermark(peer, delivered_upto)

    def wake_delivery(self) -> None:
        """Re-run the delivery scan after protocol state changed."""
        self._try_deliver()

    def checkpoint_gc_lag(self) -> int:
        """Checkpoints to lag sender-log GC by (EndpointServices): 0 on
        a clean device, ``history - 1`` when storage is hostile so a
        fallback recovery still finds the log suffix it replays."""
        return self.cluster.checkpoints.gc_lag

    # ==================================================================
    # Effect interpretation
    # ==================================================================
    def _handle_effect(self, task: Task, effect: Any) -> None:
        gray = self.gray
        if gray is not None and gray.frozen:
            # frozen: the process is descheduled — its next step waits
            # for the thaw (or dies with the incarnation on a force-kill)
            gray.effects.append((task, effect))
            return
        if isinstance(effect, Compute):
            duration = effect.duration
            if gray is not None:
                duration = gray.stretch(duration)
            self.metrics.compute_time += duration
            task.resume(None, delay=duration)
        elif isinstance(effect, SendOp):
            self.sender.submit(task, effect)
        elif isinstance(effect, RecvOp):
            self._pending_recv = _PendingRecv(effect.source, effect.tag, self.engine.now)
            self._try_deliver()
        elif isinstance(effect, CheckpointPoint):
            self._handle_checkpoint_point(task, effect)
        elif isinstance(effect, Wait):
            task.resume(None, delay=effect.duration)
        else:
            raise TypeError(
                f"rank {self.rank}: application yielded {effect!r}, "
                "which is not a simulation effect"
            )

    def _handle_checkpoint_point(self, task: Task, point: CheckpointPoint) -> None:
        if not (point.force
                or self.engine.now - self.checkpointer.last_end
                >= self.config.checkpoint_interval):
            task.resume(None)
        elif not self.sender.idle:
            # Quiesce the sending thread first: queue A must be empty so
            # the sender log and index vectors cover every send the
            # application state believes has happened.  Checkpointing
            # past an unprocessed queue-A entry would lose that message
            # irrecoverably if this process later failed (its
            # re-execution resumes beyond the send, and no log item
            # exists for peers to have it resent from).
            self.later(2e-5, self._handle_checkpoint_point, task,
                       CheckpointPoint(force=True))
        else:
            task.resume(None, delay=self.checkpointer.write())

    # ------------------------------------------------------------------
    # Sending: one path from a message record to the wire
    # ------------------------------------------------------------------
    def prepare(self, op: SendOp) -> PreparedSend:
        """Run the protocol's send hook for one application send (the
        sender decides on whose clock) and count its outcome."""
        prepared = self.protocol.prepare_send(
            op.dest, op.tag, op.payload, op.size_bytes)
        if prepared.transmit:
            self.metrics.app_sends += 1
        else:
            self.metrics.app_sends_suppressed += 1
        return prepared

    def ship(self, msg: SendOp | LoggedMessage,
             stamp: PreparedSend | LoggedMessage, wire: Any,
             resend: bool = False) -> None:
        """Build the one ``app`` frame and put it through the gate.

        ``msg`` says what is sent (``dest``/``tag``/``payload``/
        ``size_bytes``), ``stamp`` what the protocol attached
        (``send_index``/``piggyback``/``piggyback_identifiers``) and
        ``wire`` its compressed form, if any: a ``SendOp``, its
        ``PreparedSend`` and that record's ``wire`` for a first send
        (the senders' way in); the ``LoggedMessage`` as both, with a
        standalone record, for a resend.
        """
        meta = {
            "tag": msg.tag,
            "send_index": stamp.send_index,
            "ack": self.sender.ack_mode(msg.size_bytes),
            "app_size": msg.size_bytes,
            "resend": resend,
        }
        if wire is not None:
            # compressed piggyback: the receiver reconstructs meta["pb"]
            # from the wire record at arrival, and the frame pays for the
            # bytes actually shipped
            pb_bytes = len(wire)
            meta["pbw"] = wire
            if not resend:
                self.metrics.piggyback_bytes_wire += pb_bytes
        else:
            pb_bytes = stamp.piggyback_identifiers * IDENTIFIER_BYTES
            meta["pb"] = stamp.piggyback
        if "verify.send" in self.trace.wanted:
            self.trace.emit("verify.send", self.rank, dest=msg.dest, tag=msg.tag,
                            send_index=stamp.send_index, pb=stamp.piggyback,
                            resend=resend)
        self._transmit(Frame("app", self.rank, msg.dest, msg.payload,
                             msg.size_bytes + pb_bytes, meta))

    def _transmit(self, frame: Frame) -> None:
        """The transmit gate: every outbound frame but a heartbeat.

        In this order: a *frozen* rank's sends buffer until the thaw
        (which replays them through this gate); a *fenced* (condemned
        zombie) incarnation's sends are discarded and counted — the wire
        behaves as if the rank died at the fence instant; a *muted*
        rank's sends toward the affected peers are stamped for
        asymmetric delay or omission.  The heartbeat chain applies the
        same gate once per fan-out.
        """
        gray = self.gray
        if gray is not None and gray.frozen:
            gray.outbound.append(frame)
            return
        if self.cluster.fenced(self.rank, self.node.epoch):
            self.drop_fenced(frame.dst, frame.kind)
            return
        if gray is not None:
            muted, stamp = gray.mute()
            if frame.dst in muted:
                frame.meta.update(stamp)
        self.fabric.transmit(frame)

    def drop_fenced(self, dst: int, kind: str) -> None:
        """Discard one frame of a fenced incarnation, counted and traced."""
        self.metrics.zombie_frames_dropped += 1
        self.trace.emit("fence.drop", self.rank, dst=dst, frame_kind=kind)

    # ------------------------------------------------------------------
    # Gray failures
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        return self.gray is not None and self.gray.frozen

    def begin_gray(self, spec: "GrayFaultSpec") -> None:
        """A gray fault window opens against this (live) rank."""
        if self.gray is None:
            self.gray = GrayGate(self)
        # a frozen NIC buffers arrivals and replays them at thaw time
        self.cluster.network.stop_holding(self.rank)
        self.gray.begin(spec)

    def replay_thawed(self, outbound: list[Frame], inbound: list[Frame],
                      effects: list[tuple[Task, Any]]) -> None:
        """A freeze ended: replay what it buffered."""
        for frame in outbound:
            # through the gate again: a thaw *inside* the fence window
            # drops these — the zombie was already condemned
            self._transmit(frame)
        for frame in inbound:
            self._on_frame(frame)
        for task, effect in effects:
            self._handle_effect(task, effect)

    # ------------------------------------------------------------------
    # Receiving / delivery
    # ------------------------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        gray = self.gray
        if gray is not None and gray.frozen:
            # the NIC keeps receiving while the process is frozen; the
            # buffered frames are consumed at thaw (or lost at force-kill
            # like any volatile receive state of a crash victim)
            gray.inbound.append(frame)
            return
        if frame.kind == "app":
            self._on_app_frame(frame)
        elif frame.kind == "ack":
            self.sender.on_ack(frame.src, frame.meta["send_index"])
        elif frame.kind == "ctl":
            self.protocol.handle_control(frame.meta["ctl"], frame.src, frame.payload)
        elif frame.kind == "hb":
            self.cluster.detector.observe_heartbeat(
                self.rank, frame.src, self.engine.now)
        else:  # pragma: no cover - the network only carries these kinds
            raise ValueError(f"unknown frame kind {frame.kind!r}")

    def _on_app_frame(self, frame: Frame) -> None:
        if "pb" not in frame.meta:
            # Compressed piggyback: reconstruct at *arrival*, before any
            # classification — per-channel arrival order equals the
            # sender's encode order (FIFO channels), which is what the
            # delta chains assume.  The "pb" guard keeps a duplicated
            # frame object from being decoded twice.
            try:
                frame.meta["pb"] = self.protocol.decode_piggyback_wire(
                    frame.src, frame.meta["pbw"], frame.meta["send_index"])
            except UndecodablePiggyback as exc:
                # only possible when a failure destroyed reconstruction
                # state; the peer's ROLLBACK handling re-sends every
                # uncovered message as a standalone (self-contained)
                # record, so dropping here loses nothing
                self.metrics.pb_undecodable_drops += 1
                self.trace.emit(
                    "proto.pb_undecodable", self.rank, src=frame.src,
                    send_index=frame.meta["send_index"], error=str(exc))
                return

        verdict = self.protocol.classify(frame.meta, frame.src)
        if verdict is DeliveryVerdict.DUPLICATE:
            # §III.C.3: repetitive message — discard, but acknowledge so
            # a conservative re-send during rolling forward can never
            # wedge its (blocking) sender.
            self.metrics.duplicates_discarded += 1
            self._send_ack_for(frame)
            self.trace.emit("proto.dup_discard", self.rank, src=frame.src,
                            send_index=frame.meta["send_index"])
            return
        self.queue.enqueue(frame)
        if frame.meta.get("ack") == "arrival":
            self._send_ack_for(frame)
        self._try_deliver()

    def _send_ack_for(self, frame: Frame) -> None:
        if frame.meta.get("ack") is None:
            return
        ack = Frame(
            "ack",
            self.rank,
            frame.src,
            None,
            _ACK_FRAME_BYTES,
            {"send_index": frame.meta["send_index"]},
        )
        self._transmit(ack)

    def _try_deliver(self) -> None:
        req = self._pending_recv
        if req is None or self.task is None:
            return
        result = self.queue.scan(req.source, req.tag, self.protocol.classify)
        for dup in result.duplicates:
            self.metrics.duplicates_discarded += 1
            self._send_ack_for(dup)
        frame = result.frame
        if frame is None:
            return
        cost = self.protocol.on_deliver(frame.meta, frame.src)
        self.metrics.app_delivers += 1
        if "verify.deliver" in self.trace.wanted:
            self.trace.emit("verify.deliver", self.rank, src=frame.src,
                            tag=frame.meta["tag"],
                            send_index=frame.meta["send_index"],
                            pb=frame.meta["pb"])
        if frame.meta.get("ack") == "delivery":
            self._send_ack_for(frame)
        self.metrics.recv_wait_time += self.engine.now - req.posted_at
        self._pending_recv = None
        delivered = Delivered(
            source=frame.src,
            tag=frame.meta["tag"],
            payload=frame.payload,
            size_bytes=frame.meta["app_size"],
            send_index=frame.meta["send_index"],
        )
        self.task.resume(delivered, delay=cost)
        if self.recovering:
            self._check_rollforward_complete()

    def _check_rollforward_complete(self) -> None:
        delivered_total = self.protocol.vectors.last_deliver_index.total()
        if delivered_total >= self._rollforward_target:
            self.recovering = False
            self.metrics.rollforward_time += self.engine.now - self._kill_time
            self.trace.emit("recovery.rollforward_done", self.rank,
                            took=self.engine.now - self._kill_time)

    # ==================================================================
    # Failure, membership and incarnation
    # ==================================================================
    def _drop_volatile(self) -> None:
        """Everything an incarnation holds in memory is gone: the
        application, queue A or the send windows, the receive queue, the
        posted receive, the gray-fault state and its buffers.  What was
        scheduled on the incarnation's behalf dies by :meth:`later`."""
        if self.task is not None:
            self.task.kill()
            self.task = None
        self.sender.reset()
        self.queue = ReceivingQueue()
        self._pending_recv = None
        self.gray = None

    def fail(self) -> None:
        """Kill this rank: all volatile state is lost (fault injection)."""
        self.node.kill(self.engine.now)    # raises unless the rank is alive
        self._kill_time = self.engine.now
        self._rollforward_target = self.protocol.vectors.last_deliver_index.total()
        self._drop_volatile()
        self.fabric.detach(self.rank)
        self.trace.emit("fault.kill", self.rank)

    def defer_start(self) -> None:
        """This rank's capacity slot starts empty (its first scheduled
        membership event is a JoinSpec): no checkpoint zero, no task, and
        frames addressed to it drop like to a dead rank."""
        self.node.defer()
        self.fabric.detach(self.rank)
        self.trace.emit("member.deferred", self.rank)

    def join(self) -> None:
        """Establishment join: a fresh epoch-0 incarnation nobody has
        ever depended on.  Write checkpoint zero, adopt the live
        membership view, announce the join, start the application —
        no ROLLBACK and no recovery accounting."""
        self.node.join(self.engine.now)
        self.fabric.attach(self.rank, self._on_frame)
        self._sync_membership()
        self.checkpointer.write(initial=True)
        self.protocol.announce_join()
        self.trace.emit("member.join", self.rank)
        self._spawn_task()
        self.cluster.wake_heartbeats()

    def _sync_membership(self) -> None:
        """Adopt the cluster's live membership view."""
        membership = self.cluster.membership
        self.protocol.sync_membership(
            membership.current_members(), membership.horizon)

    def leave(self) -> None:
        """Graceful departure: announce it while still attached, then
        tear down like a crash — except the node parts as LEFT (its
        durable checkpoint remains; a later JoinSpec rejoins through the
        standard incarnation path) and the transport forgets its
        channels instead of heartbeating a permanently absent peer."""
        self.protocol.announce_leave()
        self.node.leave(self.engine.now)
        self._drop_volatile()
        self.fabric.forget_peer(self.rank)
        self.fabric.detach(self.rank)
        self.trace.emit("member.leave", self.rank)

    def incarnate(self) -> None:
        """Start the incarnation (called ``RESTART_DELAY`` after the
        failure is known): read the newest *readable* checkpoint
        generation from stable storage — falling back through the
        retained chain past torn or corrupt images, which only deepens
        log replay — then restore protocol and application state,
        announce the rollback, re-execute.  Raises a diagnosed
        :class:`~repro.core.watchdog.StorageLossError` when no readable
        generation remains."""
        if self.node.alive:
            raise RuntimeError(f"rank {self.rank} is not dead")
        self.incarnating = True
        result = self.cluster.checkpoints.read(self.rank)
        self.metrics.ckpt_read_time += result.read_time
        self.metrics.storage_fallbacks += result.fallbacks
        self.engine.schedule(
            result.read_time, lambda: self._finish_incarnation(result.ckpt)
        )

    def _finish_incarnation(self, ckpt: Checkpoint) -> None:
        self.incarnating = False
        epoch = self.node.revive(self.engine.now)
        self._drop_volatile()
        self.protocol = self._new_protocol()
        self.protocol.restore(copy.deepcopy(ckpt.protocol_state))
        # the checkpointed membership view may predate joins and leaves
        self._sync_membership()
        self.app.restore(copy.deepcopy(ckpt.app_state))
        self.checkpointer.last_end = self.engine.now
        self.app_done = False
        self.recovering = True
        self.fabric.attach(self.rank, self._on_frame)
        self.cluster.detector.observe_recovery(self.rank, self.engine.now, epoch)
        self.trace.emit("recovery.incarnate", self.rank, epoch=epoch,
                        from_seq=ckpt.seq)
        self.protocol.begin_recovery()
        RecoveryWatchdog(self, epoch).arm()
        self._spawn_task()
        self.cluster.wake_heartbeats()
        self._check_rollforward_complete()

    # ==================================================================
    @property
    def in_flight(self) -> bool:
        """Whether the application is between waits: started, unfinished
        and neither posted on a receive nor stalled on a send — it is
        computing, sleeping or inside a checkpoint write, so the event
        that moves it on is already scheduled."""
        return (self.task is not None and not self.app_done
                and self._pending_recv is None
                and not self.sender.describe_wait())

    def describe_wait(self) -> str:
        """Human-readable stall description for deadlock diagnostics."""
        parts = self.sender.describe_wait()
        if self._pending_recv is not None:
            r = self._pending_recv
            parts.append(f"recv(source={r.source}, tag={r.tag}) since t={r.posted_at:.6f}")
        return "; ".join(parts) or "idle"
