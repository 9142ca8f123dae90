"""The ``depend_interval`` vector (paper §III.B), with incarnation epochs.

Entry ``i`` of process ``P_i``'s vector counts the messages ``P_i`` has
delivered — its current process-state-interval index.  Entry ``k != i``
is the highest state-interval index of ``P_k`` that ``P_i``'s current
state causally depends on.  The vector is the *entire* dependency
metadata a message carries under TDI: ``n`` integers instead of a graph
of 4-identifier event records.

Beyond the paper, every entry additionally carries the **incarnation
epoch** it refers to: interval counts are only comparable within one
incarnation of the counted process.  The fuzzer proved the pure
count-based design deadlocks under overlapping recoveries (corpus entry
``tdi-overlapping-recovery-deadlock``): a recovering sender regenerates
piggybacks referencing deliveries another victim *lost*, and that victim
then gates forever on an interval its new incarnation can never reach.
Epochs make such stale references recognisable: merges ignore them, a
peer's ROLLBACK re-tags its entry, and — should an inflated value still
reach a receiver's gate — the watchdog's escalation degrades stale-epoch
requirements to the checkpointed coverage instead of blocking forever.

Merge rule per foreign entry (epoch-lexicographic):

* a piggyback entry from a **newer** epoch replaces value and epoch;
* an **equal**-epoch entry takes the pointwise max (the paper's rule);
* an **older**-epoch entry is ignored — it refers to a dead incarnation.

Invariants (checked by the property tests):

* ``(epoch, value)`` pairs never decrease lexicographically;
* after delivering a message carrying piggyback ``pb``, the local vector
  dominates ``pb`` entry-wise under that order on the foreign entries,
  and the local entry exceeds ``pb[i]`` when the epochs match (the
  delivery itself advanced the interval).

Storage is a flat ``int64`` array, and the all-epochs-agree merge (every
merge of a failure-free run) is a vectorised mask/select: one ``<``
compare, a ``count_nonzero`` and a masked ``copyto``, all O(n) in C with
no per-entry Python loop.  A :class:`TaggedPiggyback` built by
:meth:`DependIntervalVector.as_piggyback` carries a cached array of its
values so the receiving merge never re-converts the tuple.  Every value
that leaves this module (indexing, iteration, snapshots, piggyback
entries) is a plain Python ``int`` — NumPy scalars must not leak into
checksums, JSON or equality checks.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as _np


def _make_store(values: Iterable[int]):
    """A flat int64 array of ``values``."""
    return _np.array(list(values), dtype=_np.int64)


class TaggedPiggyback(tuple):
    """An immutable depend-interval piggyback with per-entry epochs.

    Behaves exactly like the plain ``tuple`` of interval values the
    protocol always shipped (indexing, equality, length), so every
    consumer that only needs the counts — the delivery gate, the oracle,
    the worked-example tests — keeps working; the parallel ``epochs``
    tuple rides along for the consumers that are epoch-aware.

    ``_arr`` caches the values as an int64 array so the receiver's merge
    reads them without re-converting the tuple; it is populated by
    :meth:`DependIntervalVector.as_piggyback` (or lazily on first merge)
    and deliberately dropped on pickling/deepcopy — it is a pure cache.
    """

    def __new__(cls, values: Sequence[int],
                epochs: Sequence[int] | None = None) -> "TaggedPiggyback":
        self = tuple.__new__(cls, values)
        eps = tuple(epochs) if epochs is not None else (0,) * len(self)
        if len(eps) != len(self):
            raise ValueError(
                f"epoch vector length {len(eps)} != value length {len(self)}"
            )
        self.epochs = eps
        self._arr = None
        return self

    #: True once any entry refers to a post-rollback incarnation; only
    #: then does the wire form (and the accounting) grow beyond n+1
    @property
    def tagged(self) -> bool:
        return any(self.epochs)

    def __reduce__(self):  # pickling / deepcopy, minus the array cache
        return (TaggedPiggyback, (tuple(self), self.epochs))

    def __repr__(self) -> str:
        return f"TaggedPiggyback({tuple(self)!r}, epochs={self.epochs!r})"


class DependIntervalVector:
    """A mutable dependency vector with the epoch-aware merge rule."""

    __slots__ = ("owner", "_v", "_e", "_ekey",
                 "_track", "_clock", "_stamp", "_log", "_log_base")

    def __init__(self, nprocs: int, owner: int,
                 values: Sequence[int] | None = None,
                 epochs: Sequence[int] | None = None):
        if not (0 <= owner < nprocs):
            raise ValueError(f"owner {owner} out of range for nprocs={nprocs}")
        self.owner = owner
        # dirty-entry tracking (off unless the compressed wire layer
        # enables it — every guard below is a single attribute test)
        self._track = False
        self._clock = 0
        self._stamp: list[int] | None = None
        self._log: list[tuple[int, int]] | None = None
        self._log_base = 0
        if values is None:
            self._v = _make_store([0] * nprocs)
        else:
            if len(values) != nprocs:
                raise ValueError(
                    f"vector length {len(values)} != nprocs {nprocs}"
                )
            self._v = _make_store(int(x) for x in values)
        if epochs is None:
            self._e = [0] * nprocs
        else:
            if len(epochs) != nprocs:
                raise ValueError(
                    f"epoch vector length {len(epochs)} != nprocs {nprocs}"
                )
            self._e = [int(x) for x in epochs]
        # epoch tuple mirror: lets the merge hot path compare a tagged
        # piggyback's epochs in one C-level tuple comparison
        self._ekey = tuple(self._e)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._v)

    def __getitem__(self, k: int) -> int:
        return int(self._v[k])

    def __iter__(self) -> Iterator[int]:
        return iter(self._v.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DependIntervalVector):
            return (self._v.tolist() == other._v.tolist()
                    and self._e == other._e)
        if isinstance(other, (list, tuple)):
            return self._v.tolist() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"DependIntervalVector(owner={self.owner}, "
                f"{self._v.tolist()}, epochs={self._e})")

    # ------------------------------------------------------------------
    @property
    def own_interval(self) -> int:
        """This process's current state-interval index (deliveries made)."""
        return int(self._v[self.owner])

    @property
    def epochs(self) -> tuple[int, ...]:
        """Per-entry incarnation epochs (read-only view)."""
        return self._ekey

    @property
    def own_epoch(self) -> int:
        """The incarnation epoch this vector's owner entry refers to."""
        return self._e[self.owner]

    def set_own_epoch(self, epoch: int) -> None:
        """Adopt the owner's current incarnation epoch (on protocol
        construction and after a checkpoint restore)."""
        if int(epoch) != self._e[self.owner] and self._track:
            self._record((self.owner,))
        self._e[self.owner] = int(epoch)
        self._ekey = tuple(self._e)

    # ------------------------------------------------------------------
    # Dirty-entry tracking for the compressed wire layer
    # ------------------------------------------------------------------
    def enable_change_tracking(self) -> None:
        """Start recording which entries mutate, so a per-channel delta
        is O(entries changed) to build instead of O(n).

        The clock ticks once per mutation batch; a change log of
        ``(clock, index)`` pairs answers :meth:`delta_since` for recent
        watermarks, and a per-entry last-change stamp covers watermarks
        that predate the (bounded) log.
        """
        if self._track:
            return
        self._track = True
        self._stamp = [0] * len(self._v)
        self._log = []
        self._log_base = 0

    @property
    def change_clock(self) -> int:
        """Monotone mutation clock (0 until tracking sees a change)."""
        return self._clock

    def _record(self, indices) -> None:
        """Stamp a batch of changed entries (tracking enabled only)."""
        self._clock += 1
        clock = self._clock
        log = self._log
        stamp = self._stamp
        for k in indices:
            log.append((clock, k))
            stamp[k] = clock
        # Bound the log at 4n entries: drop the oldest half, remembering
        # the last dropped clock — watermarks at or past it still get
        # the O(changed) walk, older ones fall back to the stamp scan.
        limit = 4 * len(self._v)
        if len(log) > limit:
            keep = len(log) // 2
            self._log_base = log[-keep - 1][0]
            del log[:-keep]

    def delta_since(self, watermark: int) -> tuple[int, ...]:
        """Sorted indices of every entry whose value or epoch changed
        after mutation clock ``watermark``."""
        if not self._track:
            raise RuntimeError("change tracking is not enabled")
        if watermark >= self._clock:
            return ()
        if watermark >= self._log_base:
            seen: set[int] = set()
            for clock, k in reversed(self._log):
                if clock <= watermark:
                    break
                seen.add(k)
            return tuple(sorted(seen))
        stamp = self._stamp
        return tuple(k for k in range(len(stamp)) if stamp[k] > watermark)

    def grow_to(self, nprocs: int) -> None:
        """Grow the vector to ``nprocs`` entries (dynamic membership: a
        rank beyond the current horizon joined).  New entries start at
        value 0, epoch 0 — nobody has ever depended on the newcomer —
        and are stamped dirty so delta encoders whose watermark predates
        the growth ship them; the encoders additionally re-establish
        every channel with a counted FULL record (see
        :meth:`~repro.protocols.compression.VectorDeltaEncoder.grow`).
        Shrinking is not a thing: departed ranks stay in everyone's
        causal history."""
        old = len(self._v)
        if nprocs <= old:
            return
        grown = _np.zeros(nprocs, dtype=_np.int64)
        grown[:old] = self._v
        self._v = grown
        self._e.extend([0] * (nprocs - old))
        self._ekey = tuple(self._e)
        if self._track:
            self._stamp.extend([0] * (nprocs - old))
            self._record(range(old, nprocs))

    # ------------------------------------------------------------------
    def advance_own(self) -> int:
        """Record one delivery: ``depend_interval[i] += 1`` (line 20)."""
        self._v[self.owner] += 1
        if self._track:
            self._record((self.owner,))
        return int(self._v[self.owner])

    def merge(self, piggyback: Sequence[int]) -> int:
        """Merge a received piggyback (lines 22–24, epoch-aware).

        Foreign entries merge under the epoch-lexicographic rule (newer
        epoch wins outright, equal epochs take the max, older epochs are
        ignored); the owner entry is *not* merged (it counts local
        deliveries only).  Plain untagged piggybacks are treated as
        matching each entry's current epoch — the paper's original rule.
        Returns the number of entries that changed, for cost accounting.
        """
        v = self._v
        m = len(piggyback)
        if m > len(v):
            raise ValueError("piggyback length mismatch")
        pb_epochs = getattr(piggyback, "epochs", None)
        if pb_epochs is not None and pb_epochs != self._ekey[:m] and any(
                a != b for a, b in zip(pb_epochs, self._e)):
            return self._merge_tagged(piggyback, pb_epochs)
        # Fast path (every epoch agrees, i.e. almost every merge of a
        # failure-free or single-failure run): one vectorised pass —
        # merge runs once per delivery on every rank, so anything
        # per-entry in Python here is measurable across a matrix.  A
        # shorter piggyback (sent before its sender learned of a join)
        # merges onto the prefix: absent entries mean "no dependency".
        a = getattr(piggyback, "_arr", None)
        if a is None:
            a = _np.asarray(piggyback, dtype=_np.int64)
            if isinstance(piggyback, TaggedPiggyback):
                piggyback._arr = a  # prime the cache for re-merges
        prefix = v if m == len(v) else v[:m]
        mask = prefix < a
        if self.owner < m:
            mask[self.owner] = False
        changed = _np.count_nonzero(mask)
        if changed:
            _np.copyto(prefix, a, where=mask)
            if self._track:
                self._record(_np.nonzero(mask)[0].tolist())
        return int(changed)

    def _merge_tagged(self, piggyback: Sequence[int],
                      pb_epochs: Sequence[int]) -> int:
        """Slow path: at least one entry's epoch differs from ours."""
        changed = 0
        dirty: list[int] = []
        for k in range(min(len(self._v), len(piggyback))):
            if k == self.owner:
                continue
            pe, le = pb_epochs[k], self._e[k]
            if pe > le:
                self._v[k] = piggyback[k]
                self._e[k] = pe
                changed += 1
                dirty.append(k)
            elif pe == le and piggyback[k] > self._v[k]:
                self._v[k] = piggyback[k]
                changed += 1
                dirty.append(k)
        if changed:
            self._ekey = tuple(self._e)
            if self._track:
                self._record(dirty)
        return changed

    def observe_rollback(self, rank: int, interval: int, epoch: int) -> bool:
        """A peer announced a new incarnation: adopt its post-restore
        state interval under the new epoch.

        Only a strictly newer epoch is adopted (a retried ROLLBACK from
        the same incarnation must not move the entry), and the owner
        entry is never touched.  Returns True when the entry changed.
        """
        if rank == self.owner or epoch <= self._e[rank]:
            return False
        self._v[rank] = int(interval)
        self._e[rank] = int(epoch)
        self._ekey = tuple(self._e)
        if self._track:
            self._record((rank,))
        return True

    def dominates(self, other: Iterable[int]) -> bool:
        """Pointwise >= — the delivery-gate relation used in tests."""
        return all(a >= b for a, b in zip(self._v.tolist(), other,
                                          strict=True))

    def as_tuple(self) -> tuple[int, ...]:
        """Immutable copy of the interval values only."""
        return tuple(self._v.tolist())

    def as_piggyback(self) -> TaggedPiggyback:
        """The epoch-tagged piggyback payload of a send."""
        pb = TaggedPiggyback(self._v.tolist(), self._ekey)
        pb._arr = self._v.copy()  # snapshot: the vector keeps mutating
        return pb

    def snapshot(self) -> dict[str, list[int]]:
        """Mutable copy for checkpointing (values + epochs)."""
        return {"v": self._v.tolist(), "e": list(self._e)}

    @classmethod
    def from_snapshot(cls, nprocs: int, owner: int,
                      data: dict[str, list[int]]) -> "DependIntervalVector":
        """Inverse of :meth:`snapshot`."""
        return cls(nprocs, owner, data["v"], data["e"])
