"""TAG — causal logging with an antecedence graph (paper baseline [7]).

Manetho [6] introduced the antecedence graph: every process keeps the
determinants of all non-deterministic delivery events in its causal
past, and on every send piggybacks the *increment* — the part of the
graph it cannot prove the receiver already holds.  LogOn [7] refined the
increment computation; the structural costs remain:

* per-send, the graph is scanned to compute the increment (the
  "calculation of the increment of antecedence graph" time the paper
  calls out);
* the increment itself is a set of 4-identifier event records that grows
  with message frequency and with system scale, because — as the paper
  stresses — "there is no way for a process to precisely know how many
  processes have logged the metadata of the message".  Knowledge is
  therefore conservative: a determinant keeps being piggybacked to a
  peer until *incoming* evidence (the peer piggybacked it to us, or the
  peer is the event's receiver) proves the peer holds it.  Merely having
  sent it is not proof of reception.

Graphs are pruned when a process checkpoints: its pre-checkpoint
delivery events can never roll back, so their determinants are dead
weight everywhere (CHECKPOINT_ADVANCE broadcast).

Determinants carry no incarnation epochs (unlike TDI's interval
entries): the PWD recovery barrier rebuilds ``required_order`` from
post-rollback survivor answers, so a stale determinant can never wedge
the replay gate — only the ROLLBACK/RESPONSE control frames need epoch
stamps, and those live in the family's shared spine
(:class:`~repro.core.recovery.SenderLoggingProtocol`).

The graph store (``graph`` / ``by_receiver`` / ``known_by``: add,
increment, merge, per-receiver slice, prune, snapshot) is this class;
:class:`~repro.protocols.partitioned.PartitionedProtocol` inherits it to
run the same scheme inside one partition.

Implementation note: the increment is computed with set differences over
determinant keys (C-speed) while the modelled CPU cost still charges the
full graph scan — the simulated cost model is independent of the Python
implementation shortcuts.
"""

from __future__ import annotations

from typing import Any

from repro.core.recovery import DET_IDENTIFIERS
from repro.protocols.pwd import Determinant, PwdCausalProtocol

Key = tuple[int, int]


class TagProtocol(PwdCausalProtocol):
    name = "tag"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: (receiver, deliver_index) -> Determinant: the antecedence graph
        self.graph: dict[Key, Determinant] = {}
        #: graph keys indexed by the event's receiver rank
        self.by_receiver: list[set[Key]] = [set() for _ in range(self.nprocs)]
        #: per-peer: determinant keys we know the peer holds
        self.known_by: list[set[Key]] = [set() for _ in range(self.nprocs)]

    # ------------------------------------------------------------------
    def _graph_add(self, det: Determinant) -> None:
        self.graph[det.key] = det
        self.by_receiver[det.receiver].add(det.key)

    def _build_piggyback(self, dest: int) -> tuple[Any, int, float]:
        # Even dest's own delivery events are carried ("it has to
        # piggyback all metadata", §II.B — the paper's m5 example counts
        # #m0 and #m2, P1's own deliveries, within the 20 identifiers).
        unknown = self.graph.keys() - self.known_by[dest]
        increment = [self.graph[key] for key in unknown]
        scanned = len(self.graph)
        self.metrics.graph_nodes_scanned += scanned
        identifiers = DET_IDENTIFIERS * len(increment)
        extra_cost = self.costs.per_graph_node_scan * scanned
        return {"dets": tuple(increment)}, identifiers, extra_cost

    def _on_deliver_hook(self, det: Determinant, piggyback: Any, src: int) -> float:
        self._graph_add(det)
        known = self.known_by[src]
        # the sender trivially holds its own delivery events
        known.update(self.by_receiver[src])
        merged = 0
        for d in piggyback["dets"]:
            key = d.key
            if key not in self.graph:
                self._graph_add(d)
                merged += 1
            known.add(key)
        return self.costs.identifiers_cost(DET_IDENTIFIERS * merged) + (
            self.costs.per_graph_node_scan * len(piggyback["dets"])
        )

    # ------------------------------------------------------------------
    def _determinants_for(self, failed: int, after_index: int) -> list[Determinant]:
        return sorted(
            (
                self.graph[key]
                for key in self.by_receiver[failed]
                if key[1] > after_index
            ),
            key=lambda d: d.deliver_index,
        )

    def _on_checkpoint_advance(self, src: int, stable_upto: int) -> None:
        dead = {key for key in self.by_receiver[src] if key[1] <= stable_upto}
        if not dead:
            return
        for key in dead:
            del self.graph[key]
        self.by_receiver[src] -= dead
        for known in self.known_by:
            known -= dead

    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]:
        state = super().checkpoint_state()
        state["graph"] = dict(self.graph)
        state["known_by"] = [set(s) for s in self.known_by]
        return state

    def restore(self, state: dict[str, Any]) -> None:
        super().restore(state)
        self.graph = dict(state["graph"])
        self.by_receiver = [set() for _ in range(self.nprocs)]
        for key in self.graph:
            self.by_receiver[key[0]].add(key)
        self.known_by = [set(s) for s in state["known_by"]]
