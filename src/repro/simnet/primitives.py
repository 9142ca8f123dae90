"""Effect objects yielded by simulated application code.

Application kernels are plain Python generators.  Instead of calling
blocking functions, they *yield* one of these effect objects; the per-rank
runtime interprets the effect and resumes the generator with the result
(e.g. the received message payload).  This is the only interface between
application code and the simulation — a kernel never touches the engine or
the network directly, mirroring how an MPI application only sees the MPI
API.

The effects mirror the paper's software stack (Fig. 5): ``SendOp`` and
``RecvOp`` correspond to MPI calls; ``Compute`` models application CPU
time; ``CheckpointPoint`` marks a restartable point at which the
rollback-recovery middleware may take a checkpoint (the paper takes
checkpoints "before delivering a message" — our checkpoint points likewise
sit between deliveries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: wildcard source for non-deterministic delivery (MPI_ANY_SOURCE)
ANY_SOURCE: int = -1
#: wildcard tag (MPI_ANY_TAG)
ANY_TAG: int = -1


class Effect:
    """Marker base class for everything an application may yield."""

    __slots__ = ()


@dataclass
class Compute(Effect):
    """Consume ``duration`` seconds of simulated CPU time."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"negative compute duration {self.duration}")


@dataclass
class SendOp(Effect):
    """Application-level message send.

    ``size_bytes`` is the *modelled* wire size (workload messages carry
    small real payloads but declare realistic NPB-scale sizes); the
    middleware adds the piggyback bytes of whatever protocol is active.
    """

    dest: int
    payload: Any
    tag: int = 0
    size_bytes: int = 64


@dataclass
class RecvOp(Effect):
    """Application-level receive.

    ``source=ANY_SOURCE`` expresses non-deterministic delivery — the
    program declares that any matching message may be delivered next
    (the observation at the heart of the paper, §II.C).  A named source
    expresses deterministic delivery.
    """

    source: int = ANY_SOURCE
    tag: int = ANY_TAG


@dataclass
class CheckpointPoint(Effect):
    """A restartable point.  The middleware checkpoints here if the
    checkpoint interval has elapsed (or if ``force`` is set)."""

    force: bool = False


@dataclass
class Wait(Effect):
    """Sleep for ``duration`` simulated seconds without consuming CPU.

    Used by infrastructure tasks (e.g. the non-blocking middleware's send
    pump); application kernels normally use :class:`Compute`.
    """

    duration: float


@dataclass
class Delivered:
    """What a :class:`RecvOp` resumes with."""

    source: int
    tag: int
    payload: Any
    size_bytes: int
    #: per-destination send index assigned by the sender's middleware
    send_index: int

    def __iter__(self):
        # allow ``src, payload = yield RecvOp(...)`` style unpacking
        yield self.source
        yield self.payload
