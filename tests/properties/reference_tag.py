"""The set-based TAG store, kept as the reference model.

This is ``protocols/tag_protocol.py::TagProtocol`` exactly as it stood at
the commit before the per-receiver bitset store replaced it (the way
``test_wire_kernel.py`` keeps the parent commit's codec): a
``(receiver, deliver_index) -> Determinant`` dict, the same keys indexed
per receiver, and per peer the set of keys it is known to hold.  Every
operation walks determinants one by one, which is what made it slow and
what makes it obviously right.  ``ReferencePartitionedProtocol`` is
``PartitionedProtocol``'s three overrides over this store.

:func:`reference_protocols` swaps both in under their real registry
names for the duration of a ``with`` block — ``Cluster`` decides whether
a run needs the event-logger node from the protocol *name*, so a
test-only name would leave the reference ``part`` without its logger.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator
from unittest import mock

from repro.core.recovery import DET_IDENTIFIERS
from repro.protocols import registry
from repro.protocols.partitioned import PartitionedProtocol
from repro.protocols.pwd import Determinant, PwdCausalProtocol
from repro.protocols.tel_protocol import EventLoggerClient

Key = tuple[int, int]


class ReferenceTagProtocol(PwdCausalProtocol):
    """``TagProtocol`` as it stood before the bitset store, verbatim."""

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

    # ------------------------------------------------------------------
    # The read-only pair the tests look through (added; not the parent's)
    # ------------------------------------------------------------------
    def held_keys(self) -> set[Key]:
        return set(self.graph)

    def known_keys(self, peer: int) -> set[Key]:
        return set(self.known_by[peer])


class ReferencePartitionedProtocol(EventLoggerClient, ReferenceTagProtocol):
    """``PartitionedProtocol`` over the reference store."""

    name = "part"
    group_size = PartitionedProtocol.group_size
    group_of = PartitionedProtocol.group_of
    same_group = PartitionedProtocol.same_group

    def _build_piggyback(self, dest: int) -> tuple[Any, int, float]:
        if not self.same_group(dest):
            return {"dets": ()}, 0, 0.0
        return super()._build_piggyback(dest)

    def _on_deliver_hook(self, det: Determinant, piggyback: Any, src: int) -> float:
        if not self.same_group(src):
            self._log_determinant(det)
            return self._sync_write_round_trip()
        return super()._on_deliver_hook(det, piggyback, src)

    def _determinants_for(self, failed: int, after_index: int) -> list[Determinant]:
        if not self.same_group(failed):
            return []
        return super()._determinants_for(failed, after_index)


REFERENCE = {"tag": ReferenceTagProtocol, "part": ReferencePartitionedProtocol}


@contextlib.contextmanager
def reference_protocols() -> Iterator[None]:
    """Run ``tag`` and ``part`` on the reference store inside the block."""
    registry.available_protocols()  # make sure the builtins are loaded
    swapped = {name: (lambda cls=cls: cls) for name, cls in REFERENCE.items()}
    with mock.patch.dict(registry._REGISTRY, swapped):
        yield
