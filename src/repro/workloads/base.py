"""Application interface and process-grid helpers.

A workload is an :class:`Application`: a generator kernel plus explicit,
checkpointable state.  The kernel must be *restartable*: ``run`` consults
``self.state`` so that after ``restore`` a fresh generator resumes from
the checkpointed iteration, and it must be *send-deterministic*: given
the state at an iteration boundary and the messages received, it
recomputes exactly the same values and sends exactly the same messages —
the property the paper's protocol (like the send-deterministic model it
cites) relies on for log regeneration during rolling forward.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Generator

from repro.mpi.context import ProcContext


class Application(abc.ABC):
    """One rank's share of a workload."""

    #: registry name of the workload this application belongs to
    name: str = "abstract"

    def __init__(self, rank: int, nprocs: int) -> None:
        self.rank = rank
        self.nprocs = nprocs

    @abc.abstractmethod
    def run(self, ctx: ProcContext) -> Generator[Any, Any, Any]:
        """The kernel: a generator yielding simulation effects.  Its
        return value is the rank's result (rank 0's is the run answer).

        Checkpoint-point placement contract: at every yielded
        :class:`~repro.simnet.primitives.CheckpointPoint`, ``snapshot()``
        must capture the kernel's position *exactly* — re-executing
        ``run`` from the restored state must re-issue precisely the
        sends and receives that follow the checkpoint point, none that
        precede it.  In practice: checkpoint at loop tops, and advance
        the state counters before looping.  (A send issued before the
        point but not reflected in the state would be double-issued with
        a fresh send index on recovery, which breaks replay.)"""

    @abc.abstractmethod
    def snapshot(self) -> dict[str, Any]:
        """A copy of all restartable state (arrays copied, not shared)."""

    @abc.abstractmethod
    def restore(self, state: dict[str, Any]) -> None:
        """Adopt a snapshot (must not alias the stored checkpoint)."""

    @abc.abstractmethod
    def snapshot_size_bytes(self) -> int:
        """The *modelled* checkpoint image size (what a full NPB-class
        image would occupy, not the size of the toy arrays)."""


@dataclass(frozen=True)
class ProcessGrid:
    """A 2D rank layout ``px × py``, as NPB assigns tiles to processes."""

    px: int
    py: int
    rank: int

    @classmethod
    def for_size(cls, nprocs: int, rank: int) -> "ProcessGrid":
        """Factor ``nprocs`` as px*py with px <= py, px maximal (the
        closest-to-square decomposition)."""
        px = 1
        for cand in range(1, int(nprocs**0.5) + 1):
            if nprocs % cand == 0:
                px = cand
        return cls(px=px, py=nprocs // px, rank=rank)

    @property
    def ix(self) -> int:
        return self.rank % self.px

    @property
    def iy(self) -> int:
        return self.rank // self.px

    def at(self, ix: int, iy: int) -> int:
        """Rank at grid coordinates (ix, iy)."""
        return iy * self.px + ix

    @property
    def west(self) -> int | None:
        return self.at(self.ix - 1, self.iy) if self.ix > 0 else None

    @property
    def east(self) -> int | None:
        return self.at(self.ix + 1, self.iy) if self.ix < self.px - 1 else None

    @property
    def north(self) -> int | None:
        return self.at(self.ix, self.iy - 1) if self.iy > 0 else None

    @property
    def south(self) -> int | None:
        return self.at(self.ix, self.iy + 1) if self.iy < self.py - 1 else None
