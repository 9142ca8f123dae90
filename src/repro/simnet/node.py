"""Node liveness and incarnation epochs.

A node hosts one application process.  When the fault injector kills it,
its volatile state (the process, its message logs, its queues) is gone;
frames arriving while it is down are dropped by the network.  A recovery
brings up a new *incarnation* with ``epoch`` incremented, so stale
callbacks scheduled against the previous incarnation can be recognised and
ignored.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class NodeState(enum.Enum):
    ALIVE = "alive"
    DEAD = "dead"
    #: configured capacity slot whose rank has not joined yet (dynamic
    #: membership: a deferred start); frames to it drop like a dead node's
    UNJOINED = "unjoined"
    #: gracefully departed; distinguished from DEAD so a planned leave is
    #: never confused with a crash awaiting recovery
    LEFT = "left"


@dataclass
class Node:
    """Liveness record for one rank's host."""

    rank: int
    state: NodeState = NodeState.ALIVE
    epoch: int = 0
    failures: int = 0
    #: simulated times at which this node died / came back, for reports
    death_times: list[float] = field(default_factory=list)
    recovery_times: list[float] = field(default_factory=list)

    @property
    def alive(self) -> bool:
        return self.state is NodeState.ALIVE

    def kill(self, now: float) -> None:
        """Mark the node dead; volatile state is gone."""
        if self.state is not NodeState.ALIVE:
            raise RuntimeError(
                f"node {self.rank} cannot be killed while {self.state.value}")
        self.state = NodeState.DEAD
        self.failures += 1
        self.death_times.append(now)

    def revive(self, now: float) -> int:
        """Bring up a new incarnation; returns the new epoch.

        Works from DEAD (crash recovery) and from LEFT (a departed rank
        rejoining): both are a fresh incarnation of existing durable
        state, so both bump the epoch.
        """
        if self.state not in (NodeState.DEAD, NodeState.LEFT):
            raise RuntimeError(
                f"node {self.rank} cannot revive while {self.state.value}")
        self.state = NodeState.ALIVE
        self.epoch += 1
        self.recovery_times.append(now)
        return self.epoch

    def defer(self) -> None:
        """Mark a capacity slot as not-yet-joined (before the run starts)."""
        if self.state is not NodeState.ALIVE or self.epoch != 0:
            raise RuntimeError(
                f"node {self.rank} can only defer before its first start")
        self.state = NodeState.UNJOINED

    def join(self, now: float) -> None:
        """First-ever join of a deferred slot; epoch stays 0 — there is
        no prior incarnation anyone could have depended on."""
        if self.state is not NodeState.UNJOINED:
            raise RuntimeError(
                f"node {self.rank} cannot join while {self.state.value}")
        self.state = NodeState.ALIVE
        self.recovery_times.append(now)

    def leave(self, now: float) -> None:
        """Graceful planned departure (volatile state discarded, like a
        crash, but nobody schedules a recovery)."""
        if self.state is not NodeState.ALIVE:
            raise RuntimeError(
                f"node {self.rank} cannot leave while {self.state.value}")
        self.state = NodeState.LEFT
        self.death_times.append(now)


class NodeSet:
    """The cluster: one :class:`Node` per rank."""

    def __init__(self, nprocs: int) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nodes = [Node(rank=r) for r in range(nprocs)]

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, rank: int) -> Node:
        return self.nodes[rank]
