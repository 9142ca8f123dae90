"""Structured event tracing.

Tests and the harness use traces to assert ordering invariants ("no message
delivered twice", "every app-level send is eventually delivered exactly
once") without instrumenting the protocols themselves.  Tracing is off by
default; when off, :meth:`Trace.emit` is a cheap no-op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class TraceEvent:
    """One traced occurrence.

    ``kind`` is a short dotted tag such as ``"net.transmit"``,
    ``"proto.deliver"``, ``"ckpt.write"``, ``"fault.kill"``; ``fields``
    carries the kind-specific payload.
    """

    time: float
    kind: str
    rank: int
    fields: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        """Field lookup with a default."""
        return self.fields.get(key, default)


class Trace:
    """An append-only event log with simple query helpers.

    Besides recording, a trace can carry *listeners*: callbacks invoked
    on every emitted event even when recording is disabled.  The runtime
    invariant verifier (:mod:`repro.verify`) observes the simulation
    this way without the memory cost of retaining the full event list.
    """

    def __init__(self, enabled: bool = False, clock: Callable[[], float] | None = None):
        self.enabled = enabled
        self._clock = clock or (lambda: 0.0)
        self.events: list[TraceEvent] = []
        self._listeners: list[Callable[[TraceEvent], None]] = []
        #: whether :meth:`emit` does anything (recording, or someone
        #: listens); hot emit sites test it before building their kwargs
        self.active = enabled
        #: run when the first listener makes an inactive trace active
        self._on_activate: list[Callable[[], None]] = []

    def when_activated(self, fn: Callable[[], None]) -> None:
        """Call ``fn`` whenever a listener makes this trace active — for
        an emitter that, unobserved, folds events away (the network's
        held heartbeats) and must unfold them for the newcomer."""
        self._on_activate.append(fn)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulated-time source stamped onto events."""
        self._clock = clock

    def attach_listener(self, fn: Callable[[TraceEvent], None]) -> None:
        """Invoke ``fn`` on every future event, recording or not."""
        self._listeners.append(fn)
        if not self.active:
            self.active = True
            for activated in self._on_activate:
                activated()

    def detach_listener(self, fn: Callable[[TraceEvent], None]) -> None:
        """Stop invoking ``fn``; safe if it was never attached."""
        if fn in self._listeners:
            self._listeners.remove(fn)
            self.active = self.enabled or bool(self._listeners)

    def emit(self, kind: str, rank: int, **fields: Any) -> None:
        """Record one event (no-op when tracing is disabled and nobody
        listens)."""
        if not self.active:
            return
        event = TraceEvent(self._clock(), kind, rank, fields)
        if self.enabled:
            self.events.append(event)
        for fn in self._listeners:
            fn(event)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def select(self, kind: str | None = None, rank: int | None = None) -> Iterator[TraceEvent]:
        """Iterate events filtered by kind and/or rank."""
        for ev in self.events:
            if kind is not None and ev.kind != kind:
                continue
            if rank is not None and ev.rank != rank:
                continue
            yield ev

    def count(self, kind: str | None = None, rank: int | None = None) -> int:
        """Number of events matching the filters."""
        return sum(1 for _ in self.select(kind, rank))

    def last(self, kind: str, rank: int | None = None) -> TraceEvent | None:
        """Most recent matching event, or None."""
        result = None
        for ev in self.select(kind, rank):
            result = ev
        return result

    def clear(self) -> None:
        """Drop all recorded events."""
        self.events.clear()
