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
no per-entry Python loop.  A :class:`TaggedPiggyback` carries a cached
array of its values (primed by whoever built it from one: the sender's
:meth:`DependIntervalVector.as_piggyback`, the receiver's decoder) so a
merge never converts a length-n tuple, and a vector or piggyback with no
post-rollback entry holds *the* all-zero epoch tuple of its length
(:func:`_zero_epochs`), so "no epoch differs" is an identity test.
Change tracking for the compressed wire is the mutation clock plus one
``int64`` stamp array — one masked store to record a batch, one compare
to read a delta (``docs/PROTOCOLS.md``, "Compressed piggybacks").  Every
value that leaves this module (indexing, iteration, snapshots, piggyback
entries) is a plain Python ``int`` — NumPy scalars must not leak into
checksums, JSON or equality checks.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

import numpy as _np


@functools.lru_cache(maxsize=None)  # one entry per vector length in use
def _zero_epochs(n: int) -> tuple[int, ...]:
    """*The* all-zero epoch tuple of length ``n``."""
    return (0,) * n


def _epoch_tuple(epochs: Sequence[int]) -> tuple[int, ...]:
    """``epochs`` as a tuple — the shared zero tuple when none is set."""
    return tuple(epochs) if any(epochs) else _zero_epochs(len(epochs))


class TaggedPiggyback(tuple):
    """An immutable depend-interval piggyback with per-entry epochs.

    Behaves exactly like the plain ``tuple`` of interval values the
    protocol always shipped (indexing, equality, length), so every
    consumer that only needs the counts — the delivery gate, the oracle,
    the worked-example tests — keeps working; the parallel ``epochs``
    tuple rides along for the consumers that are epoch-aware (it *is*
    :func:`_zero_epochs` of its length when no entry is set).

    ``_arr`` caches the values as an int64 array so a merge reads them
    without re-converting the tuple; whoever builds the piggyback from
    an array primes it (a sender on the compressed path does not: its
    receiver decodes an array of its own), and it is dropped on
    pickling/deepcopy — it is a pure cache.
    """

    _arr = None

    def __new__(cls, values: Sequence[int],
                epochs: Sequence[int] | None = None) -> "TaggedPiggyback":
        self = tuple.__new__(cls, values)
        zero = _zero_epochs(len(self))
        if epochs is not None and epochs is not zero:
            epochs = _epoch_tuple(epochs)
            if len(epochs) != len(self):
                raise ValueError(f"epoch vector length {len(epochs)} != "
                                 f"value length {len(self)}")
        self.epochs = epochs or zero
        #: True once any entry refers to a post-rollback incarnation; only
        #: then does the wire form (and the accounting) grow beyond n+1
        self.tagged = self.epochs is not zero
        return self

    def __reduce__(self):  # pickling / deepcopy, minus the array cache
        return (TaggedPiggyback, (tuple(self), self.epochs))

    def __repr__(self) -> str:
        return f"TaggedPiggyback({tuple(self)!r}, epochs={self.epochs!r})"


class FrozenVector:
    """The immutable *stored* form of a vector, kept by a compressed
    sender-log item and a checkpoint image (``docs/PROTOCOLS.md``, "Stored
    form"): ``values`` a read-only array of the narrowest unsigned dtype
    that holds their maximum (``int64`` past 32 bits), ``epochs`` the
    source's own tuple, by reference.  :meth:`thaw` undoes it."""

    __slots__ = ("values", "epochs")

    def __init__(self, values: Sequence[int], epochs: Sequence[int]):
        values = _np.asarray(values)
        top = _np.maximum.reduce(values)
        self.values = values.astype(
            _np.uint8 if top < 1 << 8 else _np.uint16 if top < 1 << 16
            else _np.uint32 if top < 1 << 32 else _np.int64)  # a copy, always
        self.values.setflags(write=False)
        self.epochs = tuple(epochs)  # a tuple is kept by reference

    def thaw(self) -> TaggedPiggyback:
        """The piggyback this was frozen from, array cache primed."""
        piggyback = TaggedPiggyback(self.values.tolist(), self.epochs)
        piggyback._arr = self.values.astype(_np.int64)
        return piggyback

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FrozenVector) and self.epochs == other.epochs
                and _np.array_equal(self.values, other.values))

    def __reduce__(self):  # pickling: re-narrowed, read-only again
        return (FrozenVector, (self.values, self.epochs))

    def __deepcopy__(self, memo: dict) -> "FrozenVector":
        return self  # immutable: a restored image shares it with the stored one


class DependIntervalVector:
    """A mutable dependency vector with the epoch-aware merge rule."""

    __slots__ = ("owner", "_v", "_e", "_clock", "_stamp")

    def __init__(self, nprocs: int, owner: int,
                 values: Sequence[int] | None = None,
                 epochs: Sequence[int] | None = None):
        if not (0 <= owner < nprocs):
            raise ValueError(f"owner {owner} out of range for nprocs={nprocs}")
        self.owner = owner
        # change tracking (off unless the compressed wire layer enables
        # it — every guard below is a single ``is not None`` test)
        self._clock = 0
        self._stamp = None
        for what, given in (("vector", values), ("epoch vector", epochs)):
            if given is not None and len(given) != nprocs:
                raise ValueError(
                    f"{what} length {len(given)} != nprocs {nprocs}")
        self._v = (_np.zeros(nprocs, dtype=_np.int64) if values is None else
                   _np.array([int(x) for x in values], dtype=_np.int64))
        self._e = (_zero_epochs(nprocs) if epochs is None
                   else _epoch_tuple([int(x) for x in epochs]))

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
                f"{self._v.tolist()}, epochs={list(self._e)})")

    # ------------------------------------------------------------------
    @property
    def own_interval(self) -> int:
        """This process's current state-interval index (deliveries made)."""
        return int(self._v[self.owner])

    @property
    def epochs(self) -> tuple[int, ...]:
        """Per-entry incarnation epochs."""
        return self._e

    @property
    def own_epoch(self) -> int:
        """The incarnation epoch this vector's owner entry refers to."""
        return self._e[self.owner]

    def set_own_epoch(self, epoch: int) -> None:
        """Adopt the owner's current incarnation epoch (on protocol
        construction and after a checkpoint restore)."""
        if int(epoch) != self._e[self.owner]:
            self._set_epoch(self.owner, int(epoch))

    def _set_epoch(self, k: int, epoch: int) -> None:
        """Entry ``k`` refers to incarnation ``epoch`` from here on."""
        epochs = list(self._e)
        epochs[k] = epoch
        self._e = _epoch_tuple(epochs)
        self._touch(k)

    # ------------------------------------------------------------------
    # Change tracking for the compressed wire layer
    # ------------------------------------------------------------------
    def enable_change_tracking(self) -> None:
        """Start recording which entries mutate.  The clock ticks once
        per mutation batch and ``_stamp[k]`` is the clock of the last
        batch that changed entry ``k`` (0: none since tracking began) —
        the whole tracking state, good for any watermark however old."""
        if self._stamp is None:
            self._stamp = _np.zeros(len(self._v), dtype=_np.int64)

    @property
    def change_clock(self) -> int:
        """Monotone mutation clock (0 until tracking sees a change)."""
        return self._clock

    def _touch(self, k: int) -> None:
        """Entry ``k`` changed: a mutation batch of one."""
        if self._stamp is not None:
            self._clock += 1
            self._stamp[k] = self._clock

    def delta_since(self, watermark: int) -> tuple[int, ...]:
        """Sorted indices of every entry whose value or epoch changed
        after mutation clock ``watermark``."""
        if self._stamp is None:
            raise RuntimeError("change tracking is not enabled")
        if watermark >= self._clock:
            return ()
        return tuple((self._stamp > watermark).nonzero()[0].tolist())

    def grow_to(self, nprocs: int) -> None:
        """Grow the vector to ``nprocs`` entries (dynamic membership: a
        rank beyond the current horizon joined).  New entries start at
        value 0, epoch 0 — nobody has ever depended on the newcomer —
        and are stamped changed so delta encoders whose watermark predates
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
        self._e = _epoch_tuple(self._e + (0,) * (nprocs - old))
        if self._stamp is not None:
            self._clock += 1
            stamp = _np.full(nprocs, self._clock, dtype=_np.int64)
            stamp[:old] = self._stamp
            self._stamp = stamp

    # ------------------------------------------------------------------
    def advance_own(self) -> int:
        """Record one delivery: ``depend_interval[i] += 1`` (line 20)."""
        self._v[self.owner] += 1
        self._touch(self.owner)
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
        # untagged and equal-length (every failure-free merge): identical
        if (pb_epochs is not None and pb_epochs is not self._e
                and tuple(pb_epochs) != self._e[:m]):
            return self._merge_tagged(piggyback, pb_epochs)
        # Fast path (every epoch agrees, i.e. almost every merge of a
        # failure-free or single-failure run): one vectorised pass —
        # merge runs once per delivery on every rank, so anything
        # per-entry in Python here is measurable across a matrix.  A
        # shorter piggyback (sent before its sender learned of a join)
        # merges onto the prefix: absent entries mean "no dependency".
        a = getattr(piggyback, "_arr", None)
        if a is None:  # a plain sequence, or a hand-built piggyback
            a = _np.asarray(piggyback, dtype=_np.int64)
        prefix = v if m == len(v) else v[:m]
        mask = prefix < a
        if self.owner < m:
            mask[self.owner] = False
        changed = _np.count_nonzero(mask)
        if changed:
            _np.copyto(prefix, a, where=mask)
            if self._stamp is not None:
                # the mask is the piggyback's length, not the vector's
                self._clock += 1
                _np.copyto(self._stamp[:m], self._clock, where=mask)
        return int(changed)

    def _merge_tagged(self, piggyback: Sequence[int],
                      pb_epochs: Sequence[int]) -> int:
        """Slow path: at least one entry's epoch differs from ours."""
        epochs = list(self._e)
        dirty: list[int] = []
        for k in range(len(piggyback)):
            if k == self.owner:
                continue
            pe, le = pb_epochs[k], epochs[k]
            if pe > le:
                self._v[k] = piggyback[k]
                epochs[k] = pe
                dirty.append(k)
            elif pe == le and piggyback[k] > self._v[k]:
                self._v[k] = piggyback[k]
                dirty.append(k)
        if dirty:
            self._e = _epoch_tuple(epochs)
            if self._stamp is not None:
                self._clock += 1
                self._stamp[dirty] = self._clock
        return len(dirty)

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
        self._set_epoch(rank, int(epoch))
        return True

    def as_tuple(self) -> tuple[int, ...]:
        """Immutable copy of the interval values only."""
        return tuple(self._v.tolist())

    def as_piggyback(self, prime: bool = True) -> TaggedPiggyback:
        """The piggyback payload of a send (``prime``: with ``_arr``)."""
        pb = TaggedPiggyback(self._v.tolist(), self._e)
        if prime:
            pb._arr = self._v.copy()  # snapshot: the vector keeps mutating
        return pb

    def snapshot(self) -> FrozenVector:
        """Immutable copy for checkpointing (values + epochs)."""
        return FrozenVector(self._v, self._e)

    @classmethod
    def from_snapshot(cls, nprocs: int, owner: int,
                      data: FrozenVector) -> "DependIntervalVector":
        """Inverse of :meth:`snapshot`."""
        return cls(nprocs, owner, data.values.tolist(), data.epochs)
