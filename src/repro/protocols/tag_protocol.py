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

The graph store (add, increment, merge, per-receiver slice, prune,
snapshot) is this class;
:class:`~repro.protocols.partitioned.PartitionedProtocol` inherits it to
run the same scheme inside one partition.

Implementation note: per receiver ``r`` the store keeps a table
``deliver_index -> Determinant`` and Python-``int`` bitsets over it —
``_have[r]`` (what the graph holds) and ``_known[p][r]`` (what peer ``p``
provably holds) — all relative to one ``_origin[r]``, so a mask is as
wide as the live span between ``r``'s checkpoints, not as its index
values.  The origin moves up when ``r``'s checkpoint advance prunes, and
down (shifting ``r``'s n + 1 masks) when a determinant below it arrives.
An increment is ``_have[r] & ~_known[dest][r]`` per receiver, a merge
loops over ``mask & ~_have[r]`` only, and "the sender holds its own
deliveries" is one ``|=``: O(ranks + new determinants) per message, where
the determinants *carried* outnumber the new ones ~40 to 1 on LU.  An
:class:`~repro.protocols.pwd.Increment` shares its sender's tables by
reference, so no table entry is ever deleted or overwritten in place —
prune, restore and a re-execution's overwrite of an own delivery build a
new table — and a logged or in-flight increment stays valid whatever its
sender does next.  The modelled CPU cost is charged independently: the
full graph scan per send and one node visit per carried determinant per
delivery describe the protocol, not the Python that runs it.
``docs/PROTOCOLS.md`` records why two cheaper designs are wrong here
(knowledge is not prefix-closed per receiver; late piggybacks re-add
pruned determinants).
"""

from __future__ import annotations

from typing import Any

from repro.core.recovery import DET_IDENTIFIERS
from repro.protocols.pwd import (Determinant, Increment, PwdCausalProtocol,
                                 set_bits)

Key = tuple[int, int]


class TagProtocol(PwdCausalProtocol):
    name = "tag"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        n = self.nprocs
        #: per receiver: deliver_index -> Determinant, and the index bit 0
        #: of that receiver's masks stands for
        self._table: list[dict[int, Determinant]] = [{} for _ in range(n)]
        self._origin = [0] * n
        #: per receiver: the table entries the graph holds; their total
        self._have = [0] * n
        self._size = 0
        #: _known[peer][receiver]: what the peer provably holds, always
        #: within _have[receiver]
        self._known = [[0] * n for _ in range(n)]

    def _view(self, masks: list[int]) -> Increment:
        """The determinants a per-receiver mask list selects."""
        return Increment(tuple([(r, self._origin[r], mask, self._table[r])
                                for r, mask in enumerate(masks) if mask]),
                         sum(map(int.bit_count, masks)))

    def held_keys(self) -> set[Key]:
        """``(receiver, deliver_index)`` of every determinant in the graph."""
        return {det[:2] for det in self._view(self._have)}

    def known_keys(self, peer: int) -> set[Key]:
        """Likewise, of those ``peer`` is known to hold."""
        return {det[:2] for det in self._view(self._known[peer])}

    def _reach(self, r: int, index: int) -> int:
        """Bit position of ``index`` in receiver ``r``'s masks, whose
        origin first moves to ``index`` when that lies below it — or
        anywhere, while nothing of ``r`` is held and every mask is 0."""
        down = self._origin[r] - index
        if down <= 0 and self._have[r]:
            return -down
        self._origin[r] = index
        if self._have[r]:
            self._have[r] <<= down
            for known in self._known:
                known[r] <<= down
        return 0

    # ------------------------------------------------------------------
    def _build_piggyback(self, dest: int) -> tuple[Any, int, float]:
        # Even dest's own delivery events are carried ("it has to
        # piggyback all metadata", §II.B — the paper's m5 example counts
        # #m0 and #m2, P1's own deliveries, within the 20 identifiers).
        increment = self._view([have & ~known for have, known
                                in zip(self._have, self._known[dest])])
        scanned = self._size
        self.metrics.graph_nodes_scanned += scanned
        identifiers = DET_IDENTIFIERS * len(increment)
        extra_cost = self.costs.per_graph_node_scan * scanned
        return {"dets": increment}, identifiers, extra_cost

    def _on_deliver_hook(self, det: Determinant, piggyback: Any, src: int) -> float:
        me, index = det.receiver, det.deliver_index
        bit = 1 << self._reach(me, index)
        if self._have[me] & bit:
            # a re-execution's delivery replaces the stale copy a late
            # piggyback left at its key: in a new table, not in place
            self._table[me] = dict(self._table[me])
        else:
            self._have[me] |= bit
            self._size += 1
        self._table[me][index] = det
        known, dets, merged = self._known[src], piggyback["dets"], 0
        for r, origin, mask, table in Increment.lift(dets).runs:
            if origin != self._origin[r] or not self._have[r]:
                low = (mask & -mask).bit_length() - 1
                mask = (mask >> low) << self._reach(r, origin + low)
            fresh = mask & ~self._have[r]
            if fresh:  # first writer wins: only these are copied in
                self._have[r] |= fresh
                merged += fresh.bit_count()
                mine, base = self._table[r], self._origin[r]
                while fresh:  # set_bits() unrolled: the one hot loop
                    low = fresh & -fresh
                    index = base + low.bit_length() - 1
                    mine[index] = table[index]
                    fresh ^= low
            known[r] |= mask
        # the sender trivially holds its own delivery events
        known[src] |= self._have[src]
        self._size += merged
        return self.costs.identifiers_cost(DET_IDENTIFIERS * merged) + (
            self.costs.per_graph_node_scan * len(dets)
        )

    # ------------------------------------------------------------------
    def _determinants_for(self, failed: int, after_index: int) -> list[Determinant]:
        table = self._table[failed]
        first = max(after_index + 1, self._origin[failed])
        return [table[first + bit] for bit in set_bits(
            self._have[failed] >> first - self._origin[failed])]

    def _on_checkpoint_advance(self, src: int, stable_upto: int) -> None:
        have, drop = self._have[src], stable_upto + 1 - self._origin[src]
        if drop <= 0 or not have:
            return
        # on to the lowest survivor, so bit 0 stays a held determinant
        kept = have >> drop
        drop += max((kept & -kept).bit_length() - 1, 0)
        self._origin[src] += drop
        self._have[src] = have >> drop
        for known in self._known:
            known[src] >>= drop
        self._size -= have.bit_count() - self._have[src].bit_count()
        self._table[src] = {index: det for index, det
                            in self._table[src].items() if index > stable_upto}

    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]:
        state = super().checkpoint_state()
        # by value, tables included: a live table keeps growing in place
        state["graph"] = (list(self._origin), list(self._have), self._size,
                          [list(known) for known in self._known],
                          [dict(table) for table in self._table])
        return state

    def restore(self, state: dict[str, Any]) -> None:
        super().restore(state)
        origin, have, self._size, known, table = state["graph"]
        self._origin, self._have = list(origin), list(have)
        self._known = [list(masks) for masks in known]
        self._table = [dict(entries) for entries in table]
