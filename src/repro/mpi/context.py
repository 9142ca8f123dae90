"""The application-facing API (the "MPI API" box of the paper's Fig. 5).

A :class:`ProcContext` is handed to ``Application.run``.  It only
*constructs* effect objects — the kernel yields them and the endpoint
interprets them — so application code is completely decoupled from the
simulation machinery, just as an MPI program is decoupled from the
library internals beneath the API.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.mpi import collectives as _coll
from repro.simnet.primitives import (
    ANY_SOURCE,
    ANY_TAG,
    CheckpointPoint,
    Compute,
    Delivered,
    RecvOp,
    SendOp,
)


class ProcContext:
    """Per-rank handle given to application kernels."""

    def __init__(self, rank: int, nprocs: int) -> None:
        self.rank = rank
        self.nprocs = nprocs

    # ------------------------------------------------------------------
    # Point-to-point (yield the returned effect)
    # ------------------------------------------------------------------
    def send(self, dest: int, payload: Any, tag: int = 0, size_bytes: int = 64) -> SendOp:
        """Build a send effect (MPI_Send).  The active communication mode
        decides whether yielding it blocks until acknowledgement."""
        if not (0 <= dest < self.nprocs):
            raise ValueError(f"send dest {dest} out of range (nprocs={self.nprocs})")
        if dest == self.rank:
            raise ValueError("self-sends are not supported; restructure the kernel")
        return SendOp(dest=dest, payload=payload, tag=tag, size_bytes=size_bytes)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvOp:
        """Build a receive effect (MPI_Recv).  ``source=ANY_SOURCE``
        declares non-deterministic delivery (paper §II.C)."""
        if source != ANY_SOURCE and not (0 <= source < self.nprocs):
            raise ValueError(f"recv source {source} out of range")
        return RecvOp(source=source, tag=tag)

    def compute(self, duration: float) -> Compute:
        """Model ``duration`` seconds of application computation."""
        return Compute(duration)

    def checkpoint_point(self, force: bool = False) -> CheckpointPoint:
        """Mark a restartable point; the middleware checkpoints here if
        the checkpoint interval has elapsed."""
        return CheckpointPoint(force=force)

    # ------------------------------------------------------------------
    # Collectives (invoke with ``yield from``)
    # ------------------------------------------------------------------
    def bcast(self, value: Any, root: int = 0, size_bytes: int = 64) -> Generator:
        """Binomial-tree broadcast (yield from)."""
        return _coll.bcast(self, value, root=root, size_bytes=size_bytes)

    def reduce(self, value: Any, op: Callable, root: int = 0, size_bytes: int = 64) -> Generator:
        """Binomial-tree reduction to ``root`` (yield from)."""
        return _coll.reduce(self, value, op, root=root, size_bytes=size_bytes)

    def allreduce(self, value: Any, op: Callable, size_bytes: int = 64) -> Generator:
        """Reduce + broadcast (yield from)."""
        return _coll.allreduce(self, value, op, size_bytes=size_bytes)

    def barrier(self) -> Generator:
        """Synchronise all ranks (yield from)."""
        return _coll.barrier(self)

    def gather(self, value: Any, root: int = 0, size_bytes: int = 64) -> Generator:
        """Direct gather to ``root`` (yield from)."""
        return _coll.gather(self, value, root=root, size_bytes=size_bytes)

    def allgather(self, value: Any, size_bytes: int = 64) -> Generator:
        """Gather + broadcast (yield from)."""
        return _coll.allgather(self, value, size_bytes=size_bytes)

    def alltoall(self, values: list, size_bytes: int = 64) -> Generator:
        """Pairwise-exchange all-to-all (yield from)."""
        return _coll.alltoall(self, values, size_bytes=size_bytes)

    def reduce_any(self, value: Any, op: Callable, root: int = 0, size_bytes: int = 64) -> Generator:
        """ANY_SOURCE accumulation at ``root`` (paper §II.C; yield from)."""
        return _coll.reduce_any(self, value, op, root=root, size_bytes=size_bytes)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover
        return f"<ProcContext rank={self.rank}/{self.nprocs}>"


__all__ = ["ProcContext", "ANY_SOURCE", "ANY_TAG", "Delivered"]
