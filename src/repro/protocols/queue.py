"""The receiving queue (queue B of the paper's Fig. 4b).

Arrived application frames wait here until the application posts a
matching receive *and* the active protocol's delivery gate admits them.
The scan implements Algorithm 1 lines 15–31: walk the queue in arrival
order; duplicates are discarded on sight; frames whose dependencies are
not yet satisfied are skipped; the first admissible match is delivered.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.protocols.base import DeliveryVerdict
from repro.simnet.network import Frame
from repro.simnet.primitives import ANY_SOURCE, ANY_TAG


@dataclass
class ScanResult:
    frame: Frame | None
    #: duplicates removed during the scan; the endpoint still owes these
    #: frames an acknowledgement if they requested one
    duplicates: list[Frame]


def request_matches(frame: Frame, source: int, tag: int) -> bool:
    """MPI-style matching: wildcard or exact on both source and tag."""
    if source != ANY_SOURCE and frame.src != source:
        return False
    if tag != ANY_TAG and frame.meta.get("tag", 0) != tag:
        return False
    return True


class ReceivingQueue:
    """Arrival-ordered buffer of undelivered application frames."""

    def __init__(self) -> None:
        self._frames: deque[Frame] = deque()

    def __len__(self) -> int:
        return len(self._frames)

    def enqueue(self, frame: Frame) -> None:
        """Buffer an arrived application frame (arrival order kept)."""
        self._frames.append(frame)

    def frames(self) -> list[Frame]:
        """Snapshot of the queued frames, in arrival order."""
        return list(self._frames)

    # ------------------------------------------------------------------
    def scan(
        self,
        source: int,
        tag: int,
        classify: Callable[[dict[str, Any], int], DeliveryVerdict],
    ) -> ScanResult:
        """Find the first deliverable frame for a ``(source, tag)`` request.

        ``classify`` is the protocol gate.  Duplicates are removed from
        the queue regardless of whether they match the request — a
        repetitive message is garbage no matter who is asking (paper
        §III.C.3).  Returns the delivered frame (already removed) or
        ``None`` if nothing is admissible yet.
        """
        duplicates: list[Frame] = []
        kept: deque[Frame] = deque()
        found: Frame | None = None
        while self._frames:
            frame = self._frames.popleft()
            if found is not None:
                kept.append(frame)
                continue
            verdict = classify(frame.meta, frame.src)
            if verdict is DeliveryVerdict.DUPLICATE:
                duplicates.append(frame)
                continue
            if verdict is DeliveryVerdict.DELIVER and request_matches(frame, source, tag):
                found = frame
                continue
            kept.append(frame)
        self._frames = kept
        return ScanResult(frame=found, duplicates=duplicates)
