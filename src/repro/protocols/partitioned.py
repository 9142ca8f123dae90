"""PART — partition-based causal logging (related work [15], [17-18]).

The paper's related-work section describes the scalability escape hatch
the community used before TDI: "after a big system is structured into
some small units, conventional causal logging is conducted in a small
scale.  For those messages across the boundary, their dependency is
dealt with via various measures, such as pessimistic logging".

This protocol implements that hybrid:

* ranks are grouped into fixed-size partitions (``group_size``);
* deliveries of **intra-group** messages are tracked causally — their
  determinants piggyback on intra-group traffic only (TAG-style
  conservative knowledge), so the piggyback scales with the group size,
  not the system size;
* deliveries of **cross-group** messages are logged pessimistically:
  the determinant is written synchronously to the event-logger node
  before the application proceeds (as in
  :class:`~repro.protocols.pessimistic.PessimisticProtocol`, whose
  safety argument carries over).

Recovery composes both sources: group peers return the intra-group
determinants they hold; the logger returns the cross-group history.

The class is literally that composition: TAG's antecedence-graph store
for a group peer, the shared event-logger client for everyone else.

The interesting comparison against TDI: PART caps the piggyback at the
group scale but pays synchronous stalls on every boundary crossing,
while TDI's vector stays O(n) with no stalls — the trade-off the paper
positions itself against.
"""

from __future__ import annotations

from typing import Any

from repro.protocols.pwd import Determinant
from repro.protocols.tag_protocol import TagProtocol
from repro.protocols.tel_protocol import EventLoggerClient


class PartitionedProtocol(EventLoggerClient, TagProtocol):
    """Hybrid causal/pessimistic logging over fixed partitions."""

    name = "part"
    #: partition width; override by subclassing
    group_size: int = 4

    # ------------------------------------------------------------------
    def group_of(self, rank: int) -> int:
        """Partition index of ``rank``."""
        return rank // self.group_size

    def same_group(self, rank: int) -> bool:
        """True when ``rank`` shares our partition."""
        return self.group_of(rank) == self.group_of(self.rank)

    # ------------------------------------------------------------------
    def _build_piggyback(self, dest: int) -> tuple[Any, int, float]:
        if not self.same_group(dest):
            # boundary crossing: no causal metadata travels
            return {"dets": ()}, 0, 0.0
        return super()._build_piggyback(dest)

    def _on_deliver_hook(self, det: Determinant, piggyback: Any, src: int) -> float:
        if not self.same_group(src):
            # cross-group delivery: synchronous stable write, no graph
            self._log_determinant(det)
            return self._sync_write_round_trip()
        return super()._on_deliver_hook(det, piggyback, src)

    def _determinants_for(self, failed: int, after_index: int) -> list[Determinant]:
        if not self.same_group(failed):
            return []  # its cross-group history lives at the logger
        return super()._determinants_for(failed, after_index)
