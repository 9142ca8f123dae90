"""Per-rank middleware runtime.

One :class:`Endpoint` per rank plays the role of the paper's WINDAR + ADI
layers (Fig. 5): it interprets the application's effects, hosts the
active rollback-recovery protocol, drives the blocking or non-blocking
transport (Fig. 4a/4b), takes checkpoints, and handles failure and
incarnation.

Transport semantics
-------------------
*Blocking* mode models MPICH's synchronous sends: the application stalls
after a send until the transport acknowledges — on **arrival** at a live
peer for eager-sized messages, on **delivery** to the peer's application
for messages above the eager threshold (the "limited communication
buffer" effect the paper describes).  A failed receiver therefore stalls
its senders until its incarnation catches up, which is exactly the loss
Fig. 8 measures.

*Non-blocking* mode is the paper's §III.E scheme: sends go to queue A and
the send pump (the "sending thread") does the protocol work and the
transmission concurrently with the application.

Acknowledgement protocol (blocking mode only): every transmitted
application frame carries ``meta["ack"]`` ∈ {"arrival", "delivery"};
the receiving endpoint returns an ``ack`` frame keyed by the sender-side
send index.  Duplicates are acknowledged on discard so a conservative
re-send during rolling forward can never wedge its sender.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, TYPE_CHECKING

from repro.core.nonblocking import SendPump, SendRequest
from repro.core.watchdog import RecoveryWatchdog
from repro.mpi.context import ProcContext
from repro.protocols.base import LoggedMessage, PreparedSend, Protocol
from repro.protocols.checkpoint import Checkpoint, Generation
from repro.protocols.queue import ReceivingQueue
from repro.protocols.registry import create_protocol
from repro.simnet.network import Frame
from repro.simnet.primitives import (
    Annotate,
    CheckpointPoint,
    Compute,
    Delivered,
    RecvOp,
    SendOp,
    Wait,
)
from repro.simnet.proc import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import GrayFaultSpec
    from repro.mpi.cluster import Cluster
    from repro.workloads.base import Application

_ACK_FRAME_BYTES = 16
#: a heartbeat carries only the sender's incarnation epoch
_HB_FRAME_BYTES = 8


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
        self.queue = ReceivingQueue()
        self.pump: SendPump | None = None
        if self.config.comm_mode == "nonblocking":
            self.pump = SendPump(self.engine, self._pump_process)

        self.task: Task | None = None
        self._pending_recv: _PendingRecv | None = None
        #: rendezvous sends: (peer, send_index) -> time the app blocked
        self._pending_acks: dict[tuple[int, int], float] = {}
        #: eager sliding window: peer -> unacknowledged send indexes
        self._window: dict[int, set[int]] = {}
        #: app send parked on a full window: (op, prepared, since)
        self._parked_send: tuple[SendOp, PreparedSend, float] | None = None
        self._last_ckpt_end = 0.0
        self._ckpt_seq = 0
        #: when the last checkpoint *committed* on stable storage — the
        #: base of the rollback-exposure span a skipped checkpoint widens
        self._ckpt_commit_time = 0.0
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
        self._incarnating = False

        # ---- gray-failure state (the accrual detector's adversary) ----
        #: frozen until this simulated time (0.0 = running); while frozen
        #: the rank executes nothing and emits nothing, but its wire
        #: state survives: in-flight frames it already sent deliver
        self._freeze_until = 0.0
        #: application effects deferred while frozen, replayed at thaw
        self._frozen_effects: list[tuple[Task, Any]] = []
        #: inbound frames buffered while frozen (the NIC keeps receiving)
        self._frozen_in: list[Frame] = []
        #: outbound frames gated while frozen, flushed at thaw (through
        #: the fence gate: a thaw inside the fence window drops them)
        self._frozen_out: list[Frame] = []
        #: compute effects stretch by _slow_factor until _slow_until
        self._slow_until = 0.0
        self._slow_factor = 1.0
        #: mute window: sends toward _mute_targets carry _mute_stamp (the
        #: network delays or drops stamped frames) until _mute_until
        self._mute_until = 0.0
        self._mute_targets: frozenset = frozenset()
        self._mute_stamp: dict[str, Any] = {}
        #: a heartbeat tick chain is scheduled (prevents duplicates)
        self._hb_armed = False

        self.fabric.attach(rank, self._on_frame)

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def start(self) -> None:
        """Write the initial checkpoint (the startup state is checkpoint
        zero) and launch the application coroutine."""
        self._write_checkpoint(initial=True)
        self._spawn_task()

    def _spawn_task(self) -> None:
        task = Task(
            self.engine,
            self.app.run(self.ctx),
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
        if task.state.name == "DONE":
            self.result = task.result
            self.app_done = True
            self.done_at = self.engine.now
            if self.cluster.recording is not None:
                self.cluster.recording.record_result(self.rank, task.result)
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

    # ==================================================================
    # EndpointServices surface (what the protocol may call)
    # ==================================================================
    def now(self) -> float:
        """Current simulated time (EndpointServices)."""
        return self.engine.now

    def incarnation_epoch(self) -> int:
        """The hosting node's incarnation epoch (EndpointServices)."""
        return self.node.epoch

    def schedule(self, delay: float, fn: Callable[[], None]) -> Any:
        """Schedule protocol work on the engine (EndpointServices)."""
        return self.engine.schedule(delay, fn)

    def send_control(self, dst: int, ctl: str, payload: Any, size_bytes: int) -> None:
        """Transmit a protocol control frame (EndpointServices)."""
        frame = Frame("ctl", self.rank, dst, payload, size_bytes, {"ctl": ctl})
        self._transmit(frame)

    def broadcast_control(self, ctl: str, payload: Any, size_bytes: int) -> None:
        """Control frame to every other member rank."""
        for dst in sorted(self.protocol.members):
            if dst != self.rank:
                self.send_control(dst, ctl, payload, size_bytes)

    def current_members(self) -> set[int]:
        """The cluster's live membership view (EndpointServices)."""
        return self.cluster.membership.current_members()

    def membership_horizon(self) -> int:
        """One past the highest rank that ever joined (EndpointServices)."""
        return self.cluster.membership.horizon

    def resend_logged(self, item: LoggedMessage) -> None:
        """Retransmit a logged message on a peer's rollback (middleware
        level: never blocks the local application)."""
        ack = self._ack_mode(item.size_bytes)
        self._transmit_app(
            dest=item.dest,
            tag=item.tag,
            payload=item.payload,
            app_size=item.size_bytes,
            send_index=item.send_index,
            piggyback=item.piggyback,
            identifiers=item.piggyback_identifiers,
            ack=ack,
            resend=True,
            # standalone record: resends may overtake or duplicate the
            # per-channel delta stream, so they never participate in it
            wire=self.protocol.encode_piggyback_wire(
                item.dest, item.piggyback, item.send_index),
        )

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
        if self.engine.now < self._freeze_until:
            # frozen: the process is descheduled — its next step waits
            # for the thaw (or dies with the incarnation on a force-kill)
            self._frozen_effects.append((task, effect))
            return
        if isinstance(effect, Compute):
            duration = effect.duration
            if self.engine.now < self._slow_until and self._slow_factor > 1.0:
                # gray slowdown: the rank computes, just late — charge
                # the stretched time, it is really spent
                duration *= self._slow_factor
            self.metrics.compute_time += duration
            task.resume(None, delay=duration)
        elif isinstance(effect, SendOp):
            self._handle_send(task, effect)
        elif isinstance(effect, RecvOp):
            self._pending_recv = _PendingRecv(effect.source, effect.tag, self.engine.now)
            self._try_deliver()
        elif isinstance(effect, CheckpointPoint):
            self._handle_checkpoint_point(task, effect)
        elif isinstance(effect, Wait):
            task.resume(None, delay=effect.duration)
        elif isinstance(effect, Annotate):
            self.trace.emit(effect.kind, self.rank, **effect.fields)
            task.resume(None)
        else:
            raise TypeError(
                f"rank {self.rank}: application yielded {effect!r}, "
                "which is not a simulation effect"
            )

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _handle_send(self, task: Task, op: SendOp) -> None:
        if self.cluster.recording is not None:
            self.cluster.recording.record_send(
                self.rank, op.dest, op.tag, op.payload, op.size_bytes)
        if self.config.comm_mode == "nonblocking":
            assert self.pump is not None
            self.pump.submit(
                SendRequest(op.dest, op.tag, op.payload, op.size_bytes)
            )
            # queue-A append: the application's entire cost (Fig. 4b)
            task.resume(None, delay=self.config.costs.per_send_base)
            return

        # Blocking architecture (Fig. 4a): protocol work inline.  Eager
        # sends complete locally but occupy a per-peer window slot until
        # acknowledged; rendezvous sends stall until delivery.
        prepared = self.protocol.prepare_send(op.dest, op.tag, op.payload, op.size_bytes)
        if not prepared.transmit:
            self.metrics.app_sends_suppressed += 1
            task.resume(None, delay=prepared.cost)
            return
        self.metrics.app_sends += 1
        epoch = self.node.epoch
        rendezvous = self._ack_mode(op.size_bytes) == "delivery"

        def after_cost() -> None:
            if self.node.epoch != epoch or not self.node.alive:
                return
            if rendezvous:
                self._transmit_prepared(op, prepared)
                self._pending_acks[(op.dest, prepared.send_index)] = self.engine.now
                return
            window = self._window.setdefault(op.dest, set())
            if len(window) < self.config.send_window:
                window.add(prepared.send_index)
                self._transmit_prepared(op, prepared)
                assert self.task is not None
                self.task.resume(None)
            else:
                self._parked_send = (op, prepared, self.engine.now)

        self.engine.schedule(prepared.cost, after_cost)

    def _transmit_prepared(self, op: SendOp, prepared: PreparedSend) -> None:
        self._transmit_app(
            dest=op.dest,
            tag=op.tag,
            payload=op.payload,
            app_size=op.size_bytes,
            send_index=prepared.send_index,
            piggyback=prepared.piggyback,
            identifiers=prepared.piggyback_identifiers,
            ack=self._ack_mode(op.size_bytes),
            wire=prepared.wire,
        )

    def _pump_process(self, request: SendRequest) -> float:
        """The sending thread's work for one queue-A entry."""
        prepared = self.protocol.prepare_send(
            request.dest, request.tag, request.payload, request.size_bytes
        )
        if prepared.transmit:
            self.metrics.app_sends += 1
            self._transmit_app(
                dest=request.dest,
                tag=request.tag,
                payload=request.payload,
                app_size=request.size_bytes,
                send_index=prepared.send_index,
                piggyback=prepared.piggyback,
                identifiers=prepared.piggyback_identifiers,
                ack=None,
                wire=prepared.wire,
            )
        else:
            self.metrics.app_sends_suppressed += 1
        return prepared.cost

    def _ack_mode(self, size_bytes: int) -> str | None:
        if self.config.comm_mode != "blocking":
            return None
        if size_bytes > self.config.eager_threshold_bytes:
            return "delivery"
        return "arrival"

    def _transmit_app(
        self,
        *,
        dest: int,
        tag: int,
        payload: Any,
        app_size: int,
        send_index: int,
        piggyback: Any,
        identifiers: int,
        ack: str | None,
        resend: bool = False,
        wire: Any = None,
    ) -> None:
        meta = {
            "tag": tag,
            "send_index": send_index,
            "ack": ack,
            "app_size": app_size,
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
            pb_bytes = identifiers * self.config.costs.identifier_bytes
            meta["pb"] = piggyback
        self.trace.emit("verify.send", self.rank, dest=dest, tag=tag,
                        send_index=send_index, pb=piggyback, resend=resend)
        frame = Frame("app", self.rank, dest, payload, app_size + pb_bytes, meta)
        self._transmit(frame)

    # ------------------------------------------------------------------
    # Transmit gate (freeze / fence / mute), heartbeats, gray failures
    # ------------------------------------------------------------------
    def _transmit(self, frame: Frame) -> None:
        """Every outbound frame but a heartbeat passes here.

        A frozen rank's sends buffer until the thaw; a fenced (condemned
        zombie) incarnation's sends are discarded and counted — the wire
        behaves as if the rank died at the fence instant; a muted rank's
        sends toward the affected peers are stamped for asymmetric delay
        or omission.  :meth:`_hb_tick` applies the same gate once per
        fan-out.
        """
        now = self.engine.now
        if now < self._freeze_until:
            self._frozen_out.append(frame)
            return
        if self.cluster.fenced(self.rank, self.node.epoch):
            self._drop_fenced(frame.dst, frame.kind)
            return
        if now < self._mute_until and frame.dst in self._mute_targets:
            frame.meta.update(self._mute_stamp)
        self.fabric.transmit(frame)

    def _drop_fenced(self, dst: int, kind: str) -> None:
        self.metrics.zombie_frames_dropped += 1
        self.trace.emit("fence.drop", self.rank, dst=dst, frame_kind=kind)

    @property
    def frozen(self) -> bool:
        return self.engine.now < self._freeze_until

    @property
    def incarnating(self) -> bool:
        """An incarnation is in flight (checkpoint read scheduled)."""
        return self._incarnating

    def begin_gray(self, spec: "GrayFaultSpec") -> None:
        """A gray fault window opens against this (live) rank."""
        now = self.engine.now
        self.trace.emit("gray.begin", self.rank, gray=spec.kind,
                        duration=spec.duration)
        if spec.kind == "freeze":
            self._freeze(now + spec.duration)
        elif spec.kind == "stutter":
            self._begin_stutter(spec)
        elif spec.kind == "slow":
            self._slow_until = max(self._slow_until, now + spec.duration)
            self._slow_factor = max(self._slow_factor, spec.factor)
        else:  # mute
            self._mute_until = max(self._mute_until, now + spec.duration)
            targets = spec.targets or tuple(
                r for r in range(self.nprocs) if r != self.rank)
            self._mute_targets = frozenset(
                t for t in targets if t != self.rank)
            self._mute_stamp = ({"gray_drop": True} if spec.drop
                                else {"gray_delay": spec.delay})

    def _begin_stutter(self, spec: "GrayFaultSpec") -> None:
        """Seeded intermittent freezes: alternating frozen/running
        sub-windows drawn from the dedicated ``faults.gray`` substream
        (drawn *at fire time*, so a stutter that never fires leaves the
        run byte-identical to one never scheduled)."""
        rng = self.cluster.rng.stream("faults.gray")
        now = self.engine.now
        end = now + spec.duration
        epoch = self.node.epoch
        t = now
        while t < end:
            freeze_len = float(rng.uniform(1e-4, 6e-4))
            gap = float(rng.uniform(2e-4, 1e-3))
            until = min(t + freeze_len, end)
            if t <= now:
                self._freeze(until)
            else:
                self.engine.schedule_at(
                    t, lambda u=until: self._freeze_if(epoch, u))
            t = until + gap

    def _freeze_if(self, epoch: int, until: float) -> None:
        if self.node.epoch != epoch or not self.node.alive:
            return
        self._freeze(until)

    def _freeze(self, until: float) -> None:
        until = max(until, self._freeze_until)
        if until <= self.engine.now:
            return
        self._freeze_until = until
        epoch = self.node.epoch
        self.trace.emit("gray.freeze", self.rank, until=until)
        self.engine.schedule_at(until, lambda: self._thaw(epoch))

    def _thaw(self, epoch: int) -> None:
        if self.node.epoch != epoch or not self.node.alive:
            return  # force-killed (or died) mid-freeze: buffers died too
        if self.engine.now < self._freeze_until:
            return  # the freeze was extended; a later thaw is scheduled
        self._freeze_until = 0.0
        out, self._frozen_out = self._frozen_out, []
        inbound, self._frozen_in = self._frozen_in, []
        effects, self._frozen_effects = self._frozen_effects, []
        self.trace.emit("gray.thaw", self.rank, sends=len(out),
                        frames=len(inbound))
        for frame in out:
            # through the gate again: a thaw *inside* the fence window
            # drops these — the zombie was already condemned
            self._transmit(frame)
        for frame in inbound:
            self._on_frame(frame)
        for task, effect in effects:
            self._handle_effect(task, effect)

    def _clear_gray(self) -> None:
        """Volatile gray state dies with the incarnation."""
        self._freeze_until = 0.0
        self._frozen_effects.clear()
        self._frozen_in.clear()
        self._frozen_out.clear()
        self._slow_until = 0.0
        self._slow_factor = 1.0
        self._mute_until = 0.0
        self._mute_targets = frozenset()

    # ------------------------------------------------------------------
    # Heartbeats (accrual failure detection)
    # ------------------------------------------------------------------
    def ensure_heartbeats(self) -> None:
        """Start this rank's heartbeat tick chain if the detector is
        armed and no chain is already scheduled."""
        if not self.cluster.detector.armed or self._hb_armed:
            return
        self._hb_armed = True
        self.engine.schedule(
            self.config.detector.heartbeat_interval, self._hb_tick)

    def _hb_tick(self) -> None:
        if not self.cluster.heartbeats_live():
            # every member application finished: stop ticking so the
            # engine can drain (armed detection must not keep a finished
            # run alive)
            self._hb_armed = False
            return
        if not self.node.alive:
            # dead, departed or deferred: the chain ends here and the
            # next incarnation re-arms it (cluster.wake_heartbeats)
            self._hb_armed = False
            return
        now = self.engine.now
        if now >= self._freeze_until:
            # a frozen rank neither beats nor judges — exactly the
            # silence the accrual estimators turn into suspicion
            members = self.cluster.membership.current_members()
            if self.rank in members:
                peers = [r for r in sorted(members) if r != self.rank]
                epoch = self.node.epoch
                # the transmit gate, once per fan-out: only the mute stamp
                # is per destination.  Straight onto the raw network, so
                # arming the detector never perturbs transport sequencing
                if self.cluster.fenced(self.rank, epoch):
                    for dst in peers:
                        self._drop_fenced(dst, "hb")
                else:
                    self.cluster.network.transmit_heartbeats(
                        self.rank, peers, _HB_FRAME_BYTES, epoch,
                        self._mute_targets if now < self._mute_until else (),
                        self._mute_stamp)
                self.cluster.detector.evaluate(self.rank, now, peers)
        # deadlock tripwire: heartbeats keep the engine alive, so a
        # wedged run must be detected here rather than at max_events
        self.cluster.check_liveness(now)
        self.engine.schedule(
            self.config.detector.heartbeat_interval, self._hb_tick)

    # ------------------------------------------------------------------
    # Receiving / delivery
    # ------------------------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        if self.engine.now < self._freeze_until:
            # the NIC keeps receiving while the process is frozen; the
            # buffered frames are consumed at thaw (or lost at force-kill
            # like any volatile receive state of a crash victim)
            self._frozen_in.append(frame)
            return
        if frame.kind == "app":
            self._on_app_frame(frame)
        elif frame.kind == "ack":
            self._on_ack(frame)
        elif frame.kind == "ctl":
            self.protocol.handle_control(frame.meta["ctl"], frame.src, frame.payload)
        elif frame.kind == "hb":
            self.cluster.detector.observe_heartbeat(
                self.rank, frame.src, self.engine.now)
        else:  # pragma: no cover - the network only carries these kinds
            raise ValueError(f"unknown frame kind {frame.kind!r}")

    def _on_app_frame(self, frame: Frame) -> None:
        from repro.protocols.base import DeliveryVerdict
        from repro.protocols.compression import UndecodablePiggyback

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
            # §III.C.3: repetitive message — discard, but acknowledge so a
            # conservatively re-sending peer is not wedged.
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

    def _on_ack(self, frame: Frame) -> None:
        idx = frame.meta["send_index"]
        key = (frame.src, idx)
        since = self._pending_acks.pop(key, None)
        if since is not None:
            # rendezvous send completed
            self.metrics.blocked_time += self.engine.now - since
            assert self.task is not None
            self.task.resume(None)
            return
        window = self._window.get(frame.src)
        if window is None or idx not in window:
            return  # duplicate ack (original + resent copy both acked)
        window.discard(idx)
        self._unpark_send(frame.src)

    def _unpark_send(self, peer: int) -> None:
        """Release a send parked on ``peer``'s window if room opened."""
        parked = self._parked_send
        if parked is None or parked[0].dest != peer:
            return
        window = self._window.setdefault(peer, set())
        if len(window) >= self.config.send_window:
            return
        op, prepared, parked_since = parked
        self._parked_send = None
        self.metrics.blocked_time += self.engine.now - parked_since
        window.add(prepared.send_index)
        self._transmit_prepared(op, prepared)
        assert self.task is not None
        self.task.resume(None)

    def peer_watermark(self, peer: int, delivered_upto: int) -> None:
        """A restarted or rejoined ``peer`` announced durable state that
        already covers our sends up to ``delivered_upto``.  Unacked
        eager-window entries at or below that index can never be acked
        again — the acks (or the frames themselves) died with the peer's
        previous incarnation, and the peer will neither re-deliver nor
        re-ack sends its checkpoint predates.  Drop them, or a sender
        parked on the full window deadlocks the whole computation."""
        window = self._window.get(peer)
        if not window:
            return
        stale = {idx for idx in window if idx <= delivered_upto}
        if not stale:
            return
        window -= stale
        self._unpark_send(peer)

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
        self.trace.emit("verify.deliver", self.rank, src=frame.src,
                        tag=frame.meta["tag"], send_index=frame.meta["send_index"],
                        pb=frame.meta["pb"])
        if frame.meta.get("ack") == "delivery":
            self._send_ack_for(frame)
        self.metrics.recv_wait_time += self.engine.now - req.posted_at
        self._pending_recv = None
        if self.cluster.recording is not None:
            self.cluster.recording.record_delivery(
                self.rank, frame.src, frame.meta["tag"], frame.payload,
                frame.meta["send_index"])
        delivered = Delivered(
            source=frame.src,
            tag=frame.meta["tag"],
            payload=frame.payload,
            size_bytes=frame.meta["app_size"],
            send_index=frame.meta["send_index"],
        )
        self.task.resume(delivered, delay=cost)
        self._check_rollforward_complete()

    def _check_rollforward_complete(self) -> None:
        if not self.recovering:
            return
        delivered_total = sum(self.protocol.vectors.last_deliver_index)
        if delivered_total >= self._rollforward_target:
            self.recovering = False
            self.metrics.rollforward_time += self.engine.now - self._kill_time
            self.trace.emit("recovery.rollforward_done", self.rank,
                            took=self.engine.now - self._kill_time)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _handle_checkpoint_point(self, task: Task, point: CheckpointPoint) -> None:
        due = point.force or (
            self.engine.now - self._last_ckpt_end >= self.config.checkpoint_interval
        )
        if not due:
            task.resume(None)
            return
        if self.pump is not None and not self.pump.idle:
            # Quiesce the sending thread first: queue A must be empty so
            # the sender log and index vectors cover every send the
            # application state believes has happened.  Checkpointing
            # past an unprocessed queue-A entry would lose that message
            # irrecoverably if this process later failed (its
            # re-execution resumes beyond the send, and no log item
            # exists for peers to have it resent from).
            epoch = self.node.epoch

            def wait_for_pump() -> None:
                if self.node.epoch != epoch or not self.node.alive:
                    return
                self._handle_checkpoint_point(task, CheckpointPoint(force=True))

            self.engine.schedule(2e-5, wait_for_pump)
            return
        duration = self._write_checkpoint()
        task.resume(None, delay=duration)

    def _write_checkpoint(self, initial: bool = False) -> float:
        self._ckpt_seq += 1
        app_state = copy.deepcopy(self.app.snapshot())
        proto_state = self.protocol.checkpoint_state()
        size = (
            self.app.snapshot_size_bytes()
            + self.protocol.checkpoint_log_bytes()
            + 3 * self.nprocs * self.config.costs.identifier_bytes
        )
        ckpt = Checkpoint(
            rank=self.rank,
            taken_at=self.engine.now,
            seq=self._ckpt_seq,
            app_state=app_state,
            protocol_state=proto_state,
            size_bytes=size,
            last_deliver_index=list(self.protocol.vectors.last_deliver_index),
        )
        if initial:
            # checkpoint zero is written as part of process launch,
            # before the rank computes or communicates: atomic and free
            self.cluster.checkpoints.write(ckpt)
            self.metrics.checkpoints_taken += 1
            self.metrics.checkpoint_bytes += size
            self._last_ckpt_end = self.engine.now
            self._ckpt_commit_time = self.engine.now
            self.trace.emit("ckpt.write", self.rank, seq=self._ckpt_seq, size=size)
            return 0.0
        # periodic checkpoint: an in-flight write.  The generation opens
        # uncommitted now and seals after `duration`; a kill in between
        # leaves it torn and the previous generation untouched.
        gen, duration = self.cluster.checkpoints.begin_write(ckpt)
        epoch = self.node.epoch
        self.engine.schedule(
            duration, lambda: self._finish_checkpoint_write(gen, epoch, attempt=1)
        )
        self.metrics.checkpoints_taken += 1
        self.metrics.checkpoint_bytes += size
        self.metrics.checkpoint_time += duration
        self._last_ckpt_end = self.engine.now + duration
        self.trace.emit("ckpt.write", self.rank, seq=self._ckpt_seq, size=size)
        return duration

    def _finish_checkpoint_write(self, gen: Generation, epoch: int,
                                 attempt: int) -> None:
        """Commit an in-flight checkpoint write; on a visible failure,
        retry the same snapshot in the background with capped backoff,
        and past the retry cap skip the checkpoint (degraded mode: keep
        running on the previous generation, recording the widened
        rollback exposure)."""
        if self.node.epoch != epoch or not self.node.alive:
            return  # killed mid-write: the generation stays torn
        store = self.cluster.checkpoints
        if store.commit(gen):
            self._ckpt_commit_time = self.engine.now
            self.protocol.after_checkpoint()
            return
        self.metrics.ckpt_write_failures += 1
        scfg = store.config
        if attempt > scfg.max_write_retries:
            self.metrics.ckpt_skipped += 1
            self.metrics.storage_exposure_time += (
                self.engine.now - self._ckpt_commit_time
            )
            self.trace.emit("storage.ckpt_skipped", self.rank,
                            seq=gen.ckpt.seq, attempts=attempt)
            return
        backoff = min(scfg.retry_backoff * (2 ** (attempt - 1)),
                      scfg.retry_backoff_max)
        self.metrics.ckpt_write_retries += 1
        self.trace.emit("storage.ckpt_retry", self.rank, seq=gen.ckpt.seq,
                        attempt=attempt, backoff=backoff)

        def retry() -> None:
            if self.node.epoch != epoch or not self.node.alive:
                return
            new_gen, duration = store.begin_write(gen.ckpt)
            self.engine.schedule(
                duration,
                lambda: self._finish_checkpoint_write(new_gen, epoch, attempt + 1),
            )

        self.engine.schedule(backoff, retry)

    # ==================================================================
    # Failure and incarnation
    # ==================================================================
    def fail(self) -> None:
        """Kill this rank: all volatile state is lost (fault injection)."""
        if not self.node.alive:
            raise RuntimeError(f"rank {self.rank} is already dead")
        self._kill_time = self.engine.now
        self._rollforward_target = sum(self.protocol.vectors.last_deliver_index)
        self.node.kill(self.engine.now)
        if self.task is not None:
            self.task.kill()
        if self.pump is not None:
            self.pump.kill()
        self.queue.clear()
        self._pending_acks.clear()
        self._window.clear()
        self._parked_send = None
        self._pending_recv = None
        self._clear_gray()
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
        self.protocol.sync_membership(
            self.cluster.membership.current_members(),
            self.cluster.membership.horizon,
        )
        self._write_checkpoint(initial=True)
        self.protocol.announce_join()
        self.trace.emit("member.join", self.rank)
        self._spawn_task()
        self.cluster.wake_heartbeats()

    def leave(self) -> None:
        """Graceful departure: announce it while still attached, then
        tear down like a crash — except the node parts as LEFT (its
        durable checkpoint remains; a later JoinSpec rejoins through the
        standard incarnation path) and the transport forgets its
        channels instead of heartbeating a permanently absent peer."""
        self.protocol.announce_leave()
        self.node.leave(self.engine.now)
        if self.task is not None:
            self.task.kill()
        if self.pump is not None:
            self.pump.kill()
        self.queue.clear()
        self._pending_acks.clear()
        self._window.clear()
        self._parked_send = None
        self._pending_recv = None
        self._clear_gray()
        forget = getattr(self.fabric, "forget_peer", None)
        if forget is not None:
            forget(self.rank)
        self.fabric.detach(self.rank)
        self.trace.emit("member.leave", self.rank)

    def incarnate(self) -> None:
        """Start the incarnation (called ``restart_delay`` after the
        fault): read the newest *readable* checkpoint generation from
        stable storage — falling back through the retained chain past
        torn or corrupt images, which only deepens log replay — then
        restore protocol and application state, announce the rollback,
        re-execute.  Raises a diagnosed
        :class:`~repro.core.watchdog.StorageLossError` when no readable
        generation remains."""
        if self.node.alive:
            raise RuntimeError(f"rank {self.rank} is not dead")
        self._incarnating = True
        result = self.cluster.checkpoints.read(self.rank)
        self.metrics.ckpt_read_time += result.read_time
        self.metrics.ckpt_read_bytes += result.bytes_read
        if result.fallbacks:
            self.metrics.storage_fallbacks += result.fallbacks
        self.engine.schedule(
            result.read_time, lambda: self._finish_incarnation(result.ckpt)
        )

    def _finish_incarnation(self, ckpt: Checkpoint) -> None:
        self._incarnating = False
        epoch = self.node.revive(self.engine.now)
        self.protocol = self._new_protocol()
        self.protocol.restore(copy.deepcopy(ckpt.protocol_state))
        # the checkpointed membership view may predate joins and leaves
        self.protocol.sync_membership(
            self.cluster.membership.current_members(),
            self.cluster.membership.horizon,
        )
        self.app.restore(copy.deepcopy(ckpt.app_state))
        self.queue = ReceivingQueue()
        if self.pump is not None:
            self.pump = SendPump(self.engine, self._pump_process)
        self._pending_recv = None
        self._pending_acks.clear()
        self._window.clear()
        self._parked_send = None
        self._last_ckpt_end = self.engine.now
        self.app_done = False
        self.recovering = True
        if self.cluster.recording is not None:
            # the incarnation's history replaces the dead one's
            self.cluster.recording.reset_rank(self.rank)
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
    def blocked(self) -> bool:
        """True when the application is parked on a send ack or a recv."""
        return (bool(self._pending_acks) or self._parked_send is not None
                or self._pending_recv is not None)

    def describe_wait(self) -> str:
        """Human-readable stall description for deadlock diagnostics."""
        parts = []
        if self._pending_acks:
            parts.append(f"awaiting acks {sorted(self._pending_acks)}")
        if self._parked_send is not None:
            op, prepared, since = self._parked_send
            parts.append(
                f"send to {op.dest} parked on full window since t={since:.6f}")
        if self._pending_recv is not None:
            r = self._pending_recv
            parts.append(f"recv(source={r.source}, tag={r.tag}) since t={r.posted_at:.6f}")
        if not parts:
            parts.append("idle")
        return "; ".join(parts)
