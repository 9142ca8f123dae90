"""Recording of per-rank message streams during a live run.

The recorder sits where a rank's kernel meets the runtime: it wraps the
kernel's generator and keeps, for every rank, the *application-visible*
history — each :class:`~repro.simnet.primitives.SendOp` the kernel
yielded and each :class:`~repro.simnet.primitives.Delivered` it was
resumed with, as the objects themselves, and the value it returned.
That history is exactly what a message-logging debugger persists;
replaying it through the kernel (:mod:`repro.debug.replay`, which drives
the same generator) reproduces the original execution of that rank
without the rest of the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

from repro.simnet.primitives import Delivered, SendOp


@dataclass
class RankRecording:
    """One rank's application-visible history, in program order.

    ``sends`` holds every send the kernel issued, suppressed re-sends
    included: they are part of its deterministic behaviour."""

    rank: int
    deliveries: list[Delivered] = field(default_factory=list)
    sends: list[SendOp] = field(default_factory=list)
    result: Any = None

    def __len__(self) -> int:
        return len(self.deliveries) + len(self.sends)


class RunRecording:
    """All ranks' histories for one run.

    Each incarnation of a rank runs a new generator, so it starts a new
    history: on a faulted run the recording keeps the last incarnation's
    (the one that completed), which is the stream a debugger would
    replay.
    """

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        self._ranks: dict[int, RankRecording] = {
            r: RankRecording(rank=r) for r in range(nprocs)
        }

    def rank(self, rank: int) -> RankRecording:
        """The recording for one rank."""
        return self._ranks[rank]

    def record(self, rank: int, run: Generator[Any, Any, Any]) -> Generator[Any, Any, Any]:
        """Start ``rank``'s history afresh and return ``run`` wrapped so
        that what it yields and is sent lands in that history."""
        history = self._ranks[rank] = RankRecording(rank=rank)
        return _recorded(history, run)

    def totals(self) -> dict[str, int]:
        """Aggregate event counts, for reports and tests."""
        return {
            "deliveries": sum(len(r.deliveries) for r in self._ranks.values()),
            "sends": sum(len(r.sends) for r in self._ranks.values()),
        }


def _recorded(history: RankRecording,
              run: Generator[Any, Any, Any]) -> Generator[Any, Any, Any]:
    """Drive ``run`` step for step (by ``send`` only: no runtime path
    throws into a kernel), copying its traffic and result to ``history``."""
    value = None
    while True:
        try:
            effect = run.send(value)
        except StopIteration as stop:
            history.result = stop.value
            return stop.value
        if isinstance(effect, SendOp):
            history.sends.append(effect)
        value = yield effect
        if isinstance(value, Delivered):
            history.deliveries.append(value)
