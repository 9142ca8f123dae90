"""The complete non-blocking middleware (paper §III.E, Fig. 4b).

In the blocking architecture (Fig. 4a) the application thread performs
the send itself: it pays the tracking cost inline and then stalls until
the transport acknowledges — which, when the receiver has failed, means
stalling until the receiver's incarnation comes back.  The paper
interposes two memory queues and two helper threads: the application
appends the outgoing message to queue A and returns immediately; the
*sending thread* drains queue A, running the logging protocol
(piggyback + log item) and pushing frames to the transport.  The
receiving thread and queue B are modelled by
:class:`repro.protocols.queue.ReceivingQueue`, which both architectures
share (an MPI receive blocks the application in either case until a
matching message is delivered).

:class:`SendPump` is the sending thread + queue A.  It runs in simulated
time concurrently with the application — the paper's point is precisely
that computing, sending and receiving proceed in parallel — so the
tracking cost is paid on the pump's clock, not the application's.
It presents the same surface as
:class:`repro.core.blocking.BlockingSender`, so the endpoint picks one
at construction and never asks which it holds.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.metrics.costs import PER_SEND_BASE

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.primitives import SendOp
    from repro.simnet.proc import Task


class SendPump:
    """Queue A plus the sending thread.

    ``host`` is the endpoint: ``prepare(op)`` runs the protocol's send
    hook for one queue-A entry and ``ship(op, prepared, wire)`` puts the
    frame through the transmit gate; the prepared send's ``cost`` is the
    simulated CPU time the sending thread spends on it.
    """

    def __init__(self, host: Any) -> None:
        self.host = host
        self.engine = host.engine
        #: queue-A append: the application's entire cost (Fig. 4b)
        self._submit_cost = PER_SEND_BASE
        self._queue: deque["SendOp"] = deque()
        self._busy = False
        #: bumped by :meth:`reset`; a callback scheduled under an older
        #: generation finds nothing to do
        self._generation = 0
        self.submitted = 0
        self.peak_depth = 0

    # ------------------------------------------------------------------
    def submit(self, task: "Task", op: "SendOp") -> None:
        """Append to queue A and let the application go on (the
        application thread's entire involvement)."""
        self._queue.append(op)
        self.submitted += 1
        self.peak_depth = max(self.peak_depth, len(self._queue))
        if not self._busy:
            self._busy = True
            generation = self._generation
            self.engine.schedule(0.0, lambda: self._drain_head(generation))
        task.resume(None, delay=self._submit_cost)

    def reset(self) -> None:
        """The incarnation ended: queue A is volatile state."""
        self._generation += 1
        self._queue.clear()
        self._busy = False

    @property
    def idle(self) -> bool:
        return not self._busy and not self._queue

    # Fig. 4b never waits on the transport: no acknowledgements are
    # requested, no window is kept, the application is never stalled
    def ack_mode(self, size_bytes: int) -> None:
        """No frame asks for an acknowledgement."""
        return None

    def on_ack(self, peer: int, send_index: int) -> None:
        """Nothing waits on an acknowledgement."""

    def peer_watermark(self, peer: int, delivered_upto: int) -> None:
        """No window holds entries a restarted peer could strand."""

    def describe_wait(self) -> list[str]:
        """The application never stalls on a send."""
        return []

    # ------------------------------------------------------------------
    def _drain_head(self, generation: int) -> None:
        if generation != self._generation:
            return
        if not self._queue:
            self._busy = False
            return
        op = self._queue[0]
        prepared = self.host.prepare(op)
        if prepared.transmit:
            self.host.ship(op, prepared, prepared.wire)
        self.engine.schedule(prepared.cost, lambda: self._finish(generation))

    def _finish(self, generation: int) -> None:
        if generation != self._generation:
            return
        self._queue.popleft()
        self._drain_head(generation)
