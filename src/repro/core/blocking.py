"""The blocking send architecture (paper Fig. 4a).

The application thread performs the send itself: it pays the tracking
cost inline and then waits on the transport, modelled after MPICH's
synchronous sends.  *Eager* sends (at or below the eager threshold)
complete locally but occupy a per-peer window slot until the receiver
acknowledges their **arrival**; a full window parks the next send.
*Rendezvous* sends (above the threshold) stall the application until the
receiver acknowledges **delivery** to its application — the "limited
communication buffer" effect the paper describes.  A failed receiver
stops acknowledging, so its senders stall until its incarnation catches
up: exactly the loss Fig. 8 measures.

:class:`BlockingSender` presents the same surface as
:class:`repro.core.nonblocking.SendPump` (``submit``, ``on_ack``,
``peer_watermark``, ``ack_mode``, ``idle``, ``reset``,
``describe_wait``); the endpoint picks one at construction and never
asks which it holds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocols.base import PreparedSend
    from repro.simnet.primitives import SendOp
    from repro.simnet.proc import Task


class BlockingSender:
    """Inline protocol work, eager window, rendezvous stall.

    ``host`` is the endpoint: ``prepare(op)`` runs the protocol's send
    hook, ``ship(op, prepared, wire)`` puts the frame through the
    transmit gate, ``later(delay, fn, *args)`` runs ``fn`` unless the
    incarnation ended first.
    """

    #: protocol work is inline: nothing is ever queued behind the
    #: application, so a checkpoint never has to wait for this sender
    idle = True

    def __init__(self, host: Any) -> None:
        self.host = host
        self._eager_limit = host.config.eager_threshold_bytes
        self._window_size = host.config.send_window
        self.reset()

    def reset(self) -> None:
        """The incarnation ended: windows and stalls are volatile."""
        #: the application task a completed send resumes
        self._task: "Task | None" = None
        #: rendezvous sends: (peer, send_index) -> time the app blocked
        self._awaiting: dict[tuple[int, int], float] = {}
        #: eager sliding window: peer -> unacknowledged send indexes
        self._window: dict[int, set[int]] = {}
        #: app send parked on a full window: (op, prepared, since)
        self._parked: tuple["SendOp", "PreparedSend", float] | None = None

    def ack_mode(self, size_bytes: int) -> str:
        """Which acknowledgement a frame of this size asks for."""
        return "delivery" if size_bytes > self._eager_limit else "arrival"

    # ------------------------------------------------------------------
    def submit(self, task: "Task", op: "SendOp") -> None:
        """Run the protocol inline, then transmit once the tracking cost
        is paid; ``task`` resumes when the send completes."""
        prepared = self.host.prepare(op)
        if not prepared.transmit:
            task.resume(None, delay=prepared.cost)
            return
        self._task = task
        self.host.later(prepared.cost, self._transmit, op, prepared)

    def _transmit(self, op: "SendOp", prepared: "PreparedSend") -> None:
        host = self.host
        if op.size_bytes > self._eager_limit:
            host.ship(op, prepared, prepared.wire)
            self._awaiting[(op.dest, prepared.send_index)] = host.engine.now
            return
        window = self._window.setdefault(op.dest, set())
        if len(window) < self._window_size:
            window.add(prepared.send_index)
            host.ship(op, prepared, prepared.wire)
            self._task.resume(None)
        else:
            self._parked = (op, prepared, host.engine.now)

    def on_ack(self, peer: int, send_index: int) -> None:
        """``peer`` acknowledged our send ``send_index``."""
        since = self._awaiting.pop((peer, send_index), None)
        if since is not None:
            # rendezvous send completed
            self.host.metrics.blocked_time += self.host.engine.now - since
            self._task.resume(None)
            return
        window = self._window.get(peer)
        if window is None or send_index not in window:
            return  # duplicate ack (original + resent copy both acked)
        window.discard(send_index)
        self._unpark(peer)

    def _unpark(self, peer: int) -> None:
        """Room opened in ``peer``'s window: release the send parked on
        it, if there is one."""
        parked = self._parked
        if parked is None or parked[0].dest != peer:
            return
        op, prepared, since = parked
        self._parked = None
        self.host.metrics.blocked_time += self.host.engine.now - since
        self._window[peer].add(prepared.send_index)
        self.host.ship(op, prepared, prepared.wire)
        self._task.resume(None)

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
        self._unpark(peer)

    def describe_wait(self) -> list[str]:
        """What the application is stalled on, for deadlock diagnostics."""
        parts = []
        if self._awaiting:
            parts.append(f"awaiting acks {sorted(self._awaiting)}")
        if self._parked is not None:
            op, _prepared, since = self._parked
            parts.append(
                f"send to {op.dest} parked on full window since t={since:.6f}")
        return parts
