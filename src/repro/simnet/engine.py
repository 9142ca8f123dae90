"""The discrete-event engine.

Two queues ordered by ``(time, seq)``.  ``seq`` is a monotonically
increasing tie-breaker so that two events scheduled for the same instant
always fire in scheduling order — this is what makes every simulation
run bit-for-bit reproducible from its configuration and seed.

Most simulation traffic is *monotone*: a callback firing at time ``t``
schedules its successors at ``t + delay >= t``, and the network's
FIFO-epsilon lanes hand the engine long runs of non-decreasing
timestamps.  The engine exploits this with a two-lane design:

* the **FIFO lane** (a deque) absorbs any event scheduled at or after
  the lane's current tail — append and popleft are O(1), no heap sift;
* the **heap lane** takes the rest (out-of-order timers, retransmit
  backoffs), preserving the classic O(log n) bound.

The run loop merges the two lanes by comparing their heads, so a whole
same-timestamp cohort drains with zero heap transactions instead of a
pop+sift per event.  Entries are plain ``[time, seq, callback]`` lists
(list comparison runs in C; ``seq`` uniqueness means the callback field
is never compared).  Cancellation nulls the callback slot in place —
``engine.cancel(handle)`` — and a ``_dead`` counter keeps
``pending_events`` O(1); dead entries are discarded lazily when they
surface at a lane head.  A list entry is deliberately returned as the
handle itself: a wrapper object per event measurably throttles the
innermost loop of every simulation.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable


class SimulationError(RuntimeError):
    """Raised for structural simulation errors (negative delays, running a
    finished engine, event-count overruns, deadlock detection)."""


#: The scheduling handle: the live ``[time, seq, callback]`` entry itself.
#: ``handle[0]`` is the scheduled time; a fired or cancelled entry has
#: ``handle[2] is None``.  Cancel via :meth:`Engine.cancel`.
EventHandle = list


class Engine:
    """Time-ordered event loop.

    The engine is deliberately minimal: scheduling, running, and a few
    introspection helpers.  Deadlock-style diagnostics (``run`` returning
    with live-but-blocked processes) are the caller's concern — the MPI
    layer implements them because only it knows what "blocked" means.
    """

    __slots__ = ("now", "_heap", "_fifo", "_dead", "_seq",
                 "_events_fired", "_running", "_stopped")

    def __init__(self) -> None:
        self.now: float = 0.0
        #: heap lane: out-of-order [time, seq, callback] entries
        self._heap: list[list] = []
        #: FIFO lane: entries appended in non-decreasing time order
        self._fifo: deque[list] = deque()
        #: cancelled-or-fired entries still sitting in a lane
        self._dead: int = 0
        self._seq: int = 0
        self._events_fired: int = 0
        self._running: bool = False
        self._stopped: bool = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[[], None]) -> EventHandle:
        """Schedule ``fn`` to run ``delay`` simulated seconds from now."""
        if not delay >= 0:  # single compare; False for NaN too
            raise SimulationError(f"cannot schedule event with delay {delay!r}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, fn]
        fifo = self._fifo
        if not fifo or time >= fifo[-1][0]:
            fifo.append(entry)
        else:
            heapq.heappush(self._heap, entry)
        return entry

    def schedule_at(self, time: float, fn: Callable[[], None]) -> EventHandle:
        """Schedule ``fn`` at an absolute simulated time (>= now)."""
        if not time >= self.now:  # single compare; False for NaN too
            raise SimulationError(
                f"cannot schedule event in the past (t={time}, now={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, fn]
        fifo = self._fifo
        if not fifo or time >= fifo[-1][0]:
            fifo.append(entry)
        else:
            heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, handle: EventHandle) -> None:
        """Prevent a scheduled event from firing.

        Idempotent, and harmless on an already-fired handle — the entry's
        callback slot is simply nulled in place; the lanes discard it when
        it surfaces.
        """
        if handle[2] is not None:
            handle[2] = None
            self._dead += 1

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> None:
        """Drain the event queue.

        ``until`` stops the clock at that simulated time (events scheduled
        later stay queued); ``max_events`` raises :class:`SimulationError`
        when exceeded, as a runaway-loop backstop.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        heap = self._heap
        fifo = self._fifo
        heappop = heapq.heappop
        popleft = fifo.popleft
        fired = self._events_fired
        try:
            if until is None and max_events is None:
                # the common full-drain call: no per-event limit checks
                while True:
                    if fifo:
                        entry = heappop(heap) if heap and heap[0] < fifo[0] \
                            else popleft()
                    elif heap:
                        entry = heappop(heap)
                    else:
                        break
                    fn = entry[2]
                    if fn is None:
                        self._dead -= 1
                        continue
                    entry[2] = None  # fired entries read as dead
                    self.now = entry[0]
                    fired += 1
                    fn()
                    if self._stopped:
                        break
                return
            stop_t = float("inf") if until is None else until
            stop_n = float("inf") if max_events is None else max_events
            while True:
                if fifo:
                    entry = heappop(heap) if heap and heap[0] < fifo[0] \
                        else popleft()
                elif heap:
                    entry = heappop(heap)
                else:
                    if until is not None and until > self.now:
                        self.now = until
                    break
                fn = entry[2]
                if fn is None:
                    self._dead -= 1
                    continue
                time = entry[0]
                if time > stop_t:
                    # keep the event: the heap lane accepts out-of-order
                    # entries, so the popped head can always go back there
                    heapq.heappush(heap, entry)
                    self.now = until
                    break
                entry[2] = None  # fired entries read as dead without counting
                self.now = time
                fired += 1
                if fired > stop_n:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "likely a livelock in the simulated system"
                    )
                fn()
                if self._stopped:
                    break
        finally:
            self._events_fired = fired
            self._running = False

    def stop(self) -> None:
        """Stop ``run()`` after the current event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of queued, non-cancelled events (O(1))."""
        return len(self._heap) + len(self._fifo) - self._dead

    @property
    def events_fired(self) -> int:
        return self._events_fired
