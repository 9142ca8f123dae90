"""Structured event tracing.

Tests and the harness use traces to assert ordering invariants ("no message
delivered twice", "every app-level send is eventually delivered exactly
once") without instrumenting the protocols themselves.  Tracing is off by
default; when off, :meth:`Trace.emit` is a cheap no-op.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import Any, Callable, Iterable, Iterator

#: every kind ``src/repro`` emits -> the layer that owns it (its prefix).
#: Closed, so a subscription to a misspelt kind fails loudly instead of
#: hearing nothing; the one open site is ``Annotate``, whose kind the
#: application chooses (``tests/unit/test_trace_kinds.py`` keeps this
#: exactly as large as the emit sites need)
KINDS: dict[str, str] = {kind: kind.partition(".")[0] for kind in """
    app.done app.error ckpt.write detect.condemn fault.kill fence.drop
    fence.raise gray.begin gray.freeze gray.thaw member.deferred member.join
    member.leave net.arrive net.drop net.gray.drop net.impair.corrupt
    net.impair.drop net.impair.dup net.impair.partition net.transmit
    proto.deliver proto.dup_discard proto.join_bcast proto.leave_bcast
    proto.member_join proto.member_leave proto.pb_undecodable
    proto.recovery_escalate proto.recovery_settled proto.recovery_stalled
    proto.resend proto.rollback_bcast proto.stale_response
    proto.stale_rollback recovery.incarnate recovery.rollforward_done
    rt.corrupt_reject rt.dup_discard rt.forget rt.reorder_buffer rt.reset
    rt.retransmit rt.stale_discard storage.ckpt_retry storage.ckpt_skipped
    storage.corrupt storage.fallback storage.stall storage.torn
    storage.write_fail verify.deliver verify.release verify.send
""".split()}


class TraceEvent:
    """One traced occurrence.

    ``kind`` is a short dotted tag such as ``"net.transmit"``,
    ``"proto.deliver"``, ``"ckpt.write"``, ``"fault.kill"``; ``fields``
    carries the kind-specific payload.
    """

    __slots__ = ("time", "kind", "rank", "fields")

    def __init__(self, time: float, kind: str, rank: int,
                 fields: dict[str, Any] | None = None) -> None:
        self.time, self.kind, self.rank = time, kind, rank
        self.fields = {} if fields is None else fields

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        """Field lookup with a default."""
        return self.fields.get(key, default)

    def _astuple(self) -> tuple:
        return self.time, self.kind, self.rank, self.fields

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TraceEvent) and self._astuple() == other._astuple()

    def __repr__(self) -> str:
        return "TraceEvent(time=%r, kind=%r, rank=%r, fields=%r)" % self._astuple()


class Trace:
    """An append-only event log with simple query helpers.

    Besides recording, a trace can carry *listeners*: callbacks invoked
    on emitted events even when recording is disabled — on every event,
    or on the kinds a listener subscribed to.  The runtime invariant
    verifier (:mod:`repro.verify`) observes the simulation this way
    without the memory cost of retaining the full event list, or the
    host cost of building the events it does not read.
    """

    def __init__(self, enabled: bool = False, clock: Callable[[], float] | None = None):
        self.enabled = enabled
        self._clock = clock or (lambda: 0.0)
        self.events: list[TraceEvent] = []
        #: ``(listener, its kinds or None for all)``, in attach order
        self._listeners: list[tuple[Callable[[TraceEvent], None],
                                    frozenset[str] | None]] = []
        #: ``(fn, kinds)``: run ``fn`` when one of ``kinds`` becomes wanted
        self._on_activate: list[tuple[Callable[[], None], tuple[str, ...]]] = []
        self._rewire()

    def _rewire(self) -> None:
        subscribed = [kinds for _, kinds in self._listeners]
        #: whether every event is built: recording, or someone hears all
        self.active = self.enabled or None in subscribed
        #: the kinds :meth:`emit` builds an event for — every registered
        #: one while ``active``, else the subscribed ones; hot emit sites
        #: test ``kind in trace.wanted`` before building their kwargs
        self.wanted: AbstractSet[str] = (
            KINDS.keys() if self.active else frozenset().union(*subscribed))

    def when_activated(self, fn: Callable[[], None], kinds: Iterable[str]) -> None:
        """Call ``fn`` whenever one of ``kinds`` gains its first listener
        — for an emitter that, unobserved, folds events away (the
        network's held heartbeats) and must unfold them for the
        newcomer."""
        self._on_activate.append((fn, tuple(kinds)))

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulated-time source stamped onto events."""
        self._clock = clock

    def wants(self, kind: str) -> bool:
        """Whether an event of ``kind`` would reach anyone: the trace
        records, or a listener hears everything or subscribed to it."""
        return self.active or kind in self.wanted

    def attach_listener(self, fn: Callable[[TraceEvent], None],
                        kinds: Iterable[str] | None = None) -> None:
        """Invoke ``fn`` on every future event, recording or not — or,
        given ``kinds``, on exactly those, every other event staying
        unbuilt.  A kind outside :data:`KINDS` is a ``ValueError``."""
        if kinds is not None:
            kinds = frozenset(kinds)
            if not kinds <= KINDS.keys():
                raise ValueError(
                    f"unregistered trace kind(s) {sorted(kinds - KINDS.keys())}")
        self._listeners.append((fn, kinds))
        before = self.wanted
        self._rewire()
        for activated, watched in self._on_activate:
            if any(k in self.wanted and k not in before for k in watched):
                activated()

    def detach_listener(self, fn: Callable[[TraceEvent], None]) -> None:
        """Stop invoking ``fn``; safe if it was never attached."""
        self._listeners = [entry for entry in self._listeners if entry[0] != fn]
        self._rewire()

    def emit(self, kind: str, rank: int, **fields: Any) -> None:
        """Record one event and hand it to its listeners (no-op when
        nobody records or listens for ``kind``)."""
        wanted = self.wanted
        if not wanted or not (kind in wanted or self.active):
            return
        event = TraceEvent(self._clock(), kind, rank, fields)
        if self.enabled:
            self.events.append(event)
        for fn, kinds in self._listeners:
            if kinds is None or kind in kinds:
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
