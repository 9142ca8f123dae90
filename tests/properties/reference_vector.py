"""The log-based depend-interval tracker, kept as the reference model.

This is ``core/vectors.py::DependIntervalVector`` and
``protocols/compression.py::VectorDeltaDecoder`` exactly as they stood at
the commit before change tracking became one stamp array and the decoder
bases became arrays (the way ``reference_tag.py`` keeps the set-based TAG
store): every mutation appends ``(clock, index)`` pairs to a dirty-entry
log bounded at 4n entries, ``delta_since`` walks that log backwards and
falls back to a per-entry stamp scan for watermarks older than it, and
the decoder holds each base as two Python lists and hands out a
piggyback whose array cache is empty.  Every step is per-entry Python,
which is what made it slow and what makes it obviously right.

Both produce ``src/``'s :class:`TaggedPiggyback`, so they drop into a
whole run: :func:`reference_vectors` swaps them into ``core/tdi.py`` for
the duration of a ``with`` block.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterable, Iterator, Sequence
from unittest import mock

import numpy as _np

from repro.core import wire
from repro.core.vectors import FrozenVector, TaggedPiggyback
from repro.protocols.compression import UndecodablePiggyback


def _make_store(values: Iterable[int]):
    """A flat int64 array of ``values``."""
    return _np.array(list(values), dtype=_np.int64)


class ReferenceVector:
    """``DependIntervalVector`` as it stood before the stamp array,
    verbatim (minus docstrings the model does not need)."""

    __slots__ = ("owner", "_v", "_e", "_ekey",
                 "_track", "_clock", "_stamp", "_log", "_log_base")

    def __init__(self, nprocs: int, owner: int,
                 values: Sequence[int] | None = None,
                 epochs: Sequence[int] | None = None):
        if not (0 <= owner < nprocs):
            raise ValueError(f"owner {owner} out of range for nprocs={nprocs}")
        self.owner = owner
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
        self._ekey = tuple(self._e)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._v)

    def __getitem__(self, k: int) -> int:
        return int(self._v[k])

    def __iter__(self) -> Iterator[int]:
        return iter(self._v.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReferenceVector):
            return (self._v.tolist() == other._v.tolist()
                    and self._e == other._e)
        if isinstance(other, (list, tuple)):
            return self._v.tolist() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"ReferenceVector(owner={self.owner}, "
                f"{self._v.tolist()}, epochs={self._e})")

    # ------------------------------------------------------------------
    @property
    def own_interval(self) -> int:
        return int(self._v[self.owner])

    @property
    def epochs(self) -> tuple[int, ...]:
        return self._ekey

    @property
    def own_epoch(self) -> int:
        return self._e[self.owner]

    def set_own_epoch(self, epoch: int) -> None:
        if int(epoch) != self._e[self.owner] and self._track:
            self._record((self.owner,))
        self._e[self.owner] = int(epoch)
        self._ekey = tuple(self._e)

    # ------------------------------------------------------------------
    # Dirty-entry tracking: the part the stamp array replaced
    # ------------------------------------------------------------------
    def enable_change_tracking(self) -> None:
        if self._track:
            return
        self._track = True
        self._stamp = [0] * len(self._v)
        self._log = []
        self._log_base = 0

    @property
    def change_clock(self) -> int:
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
        self._v[self.owner] += 1
        if self._track:
            self._record((self.owner,))
        return int(self._v[self.owner])

    def merge(self, piggyback: Sequence[int]) -> int:
        v = self._v
        m = len(piggyback)
        if m > len(v):
            raise ValueError("piggyback length mismatch")
        pb_epochs = getattr(piggyback, "epochs", None)
        if pb_epochs is not None and pb_epochs != self._ekey[:m] and any(
                a != b for a, b in zip(pb_epochs, self._e)):
            return self._merge_tagged(piggyback, pb_epochs)
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
        if rank == self.owner or epoch <= self._e[rank]:
            return False
        self._v[rank] = int(interval)
        self._e[rank] = int(epoch)
        self._ekey = tuple(self._e)
        if self._track:
            self._record((rank,))
        return True

    def dominates(self, other: Iterable[int]) -> bool:
        return all(a >= b for a, b in zip(self._v.tolist(), other,
                                          strict=True))

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self._v.tolist())

    def as_piggyback(self, prime: bool = True) -> TaggedPiggyback:
        pb = TaggedPiggyback(self._v.tolist(), self._ekey)
        if prime:
            pb._arr = self._v.copy()  # snapshot: the vector keeps mutating
        return pb

    def snapshot(self) -> FrozenVector:  # the one stored form, built per entry
        return FrozenVector(self._v.tolist(), tuple(self._e))

    @classmethod
    def from_snapshot(cls, nprocs: int, owner: int,
                      data: FrozenVector) -> "ReferenceVector":
        return cls(nprocs, owner, data.values.tolist(), data.epochs)


class ReferenceDecoder:
    """``VectorDeltaDecoder`` as it stood before the array bases,
    verbatim but for one thing — it parses every record from its packed
    bytes, in-step stream records included, so it is the parse-always
    twin of the decoder's shortcut: a base is two Python lists, a delta
    is applied entry by entry, and the piggyback it returns has no array
    cache."""

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        #: src -> [next_expected_seq, values, epochs]
        self._channels: dict[int, list[Any]] = {}

    def decode(self, src: int, blob: Any) -> tuple[TaggedPiggyback, int]:
        try:  # a stream record parsed from its packed bytes, always
            rec = wire.decode_vector_record(bytes(blob), self.nprocs)
        except ValueError as exc:
            raise UndecodablePiggyback(f"malformed record: {exc}") from exc
        if rec.mode != wire.DELTA:
            if not rec.standalone:
                self._channels[src] = [
                    rec.seq + 1, list(rec.values), list(rec.epochs)]
            return TaggedPiggyback(rec.values, rec.epochs), rec.send_index
        chan = self._channels.get(src)
        if chan is None:
            raise UndecodablePiggyback(
                f"delta from rank {src} with no established base")
        if rec.seq != chan[0]:
            raise UndecodablePiggyback(
                f"delta from rank {src} has seq {rec.seq}, expected {chan[0]}")
        chan[0] += 1
        values, epochs = chan[1], chan[2]
        for index, value, epoch in rec.changes:
            if index >= len(values):
                pad = index + 1 - len(values)
                values.extend([0] * pad)
                epochs.extend([0] * pad)
            values[index] = value
            epochs[index] = epoch
        return TaggedPiggyback(values, epochs), rec.send_index


@contextlib.contextmanager
def reference_vectors() -> Iterator[None]:
    """Run TDI on the log-based vector and the list-based decoder inside
    the block (``core/tdi.py`` is the one place a run constructs
    either)."""
    with mock.patch("repro.core.tdi.DependIntervalVector", ReferenceVector), \
            mock.patch("repro.core.tdi.VectorDeltaDecoder", ReferenceDecoder):
        yield
