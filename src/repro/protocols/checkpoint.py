"""Stable-storage checkpoint model.

Each rank writes its checkpoint — application snapshot, sender log and
protocol vectors (Algorithm 1 line 33) — to stable storage that survives
the rank's failure.  Write and read times follow the cost model
(latency + size/bandwidth), which is what makes BT's large checkpoints
expensive and LU's cheap, as in the paper's benchmark characterisation.

Hostile-storage model
---------------------
The store is no longer a perfect device.  A periodic checkpoint is an
*in-flight* write: :meth:`CheckpointStore.begin_write` opens an
uncommitted generation and returns the simulated attempt duration;
:meth:`CheckpointStore.commit` seals it — write-new-then-commit, so a
torn or failed attempt never clobbers the previous generation.  A rank
killed between the two leaves the generation uncommitted (torn by the
failure), exactly like a real process dying halfway through an fsync.

On top rides a seeded impairment model in the :mod:`repro.simnet.network`
style (all knobs off by default, every draw on the dedicated
``storage.impair`` RNG substream, a fixed number of draws per write so
enabling one knob never shifts another's draws):

* ``write_fail_prob`` — the attempt fails visibly; the writer retries
  with capped backoff and eventually skips the checkpoint (degraded
  mode: the rank keeps running on its previous generation);
* ``torn_write_prob`` — the commit *appears* to succeed but the image is
  torn: its stored checksum no longer matches, detected only at read;
* ``latent_corrupt_prob`` — bit rot: the committed image decays in
  place, again detected only by checksum at read;
* ``stall_prob`` — the device hiccups, stretching the attempt by a
  uniform stall of up to ``STALL_MAX``.

The read path (:meth:`CheckpointStore.read`) verifies checksums newest
generation first and falls back through the retained ``history`` chain;
when nothing readable remains it raises a diagnosed
:class:`~repro.core.watchdog.StorageLossError`.  Garbage collection of
sender logs is lagged by ``history - 1`` checkpoints while the store is
hostile (:attr:`CheckpointStore.gc_lag`) so a fallback recovery always
finds the log suffix it needs.

The write path's *policy* — snapshot, open the in-flight write, commit
after its duration, retry a visible failure with capped backoff, skip
past the retry cap — is :class:`CheckpointWriter`, one per rank.
"""

from __future__ import annotations

import copy
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.watchdog import StorageLossError
from repro.metrics.costs import IDENTIFIER_BYTES, CostModel
from repro.protocols.base import PeerCounts

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.counters import RankMetrics
    from repro.simnet.rng import RngStreams
    from repro.simnet.trace import Trace


#: a device stall's length is uniform in [0, STALL_MAX] simulated seconds
STALL_MAX = 2e-3
#: visible write failures are retried this many times before the
#: checkpoint is skipped (degraded mode)
MAX_WRITE_RETRIES = 3
#: base delay before the first retry, doubling per attempt …
RETRY_BACKOFF = 5e-4
#: … capped here
RETRY_BACKOFF_MAX = 4e-3


@dataclass(frozen=True)
class StorageConfig:
    """Stable-storage impairment knobs (all off by default).

    Defaults model the perfect device every run had before the hostile
    model existed: probabilities zero, so no draw outcome can fire and
    the ``storage.impair`` substream is never consulted.
    """

    #: per-attempt probability the write fails visibly (writer retries)
    write_fail_prob: float = 0.0
    #: per-commit probability the image is torn: the commit looks
    #: successful but the stored checksum no longer matches
    torn_write_prob: float = 0.0
    #: per-commit probability of latent bit rot (detected at read)
    latent_corrupt_prob: float = 0.0
    #: per-attempt probability of a device stall window (of up to
    #: ``STALL_MAX``)
    stall_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("write_fail_prob", "torn_write_prob",
                     "latent_corrupt_prob", "stall_prob"):
            p = getattr(self, name)
            if not (0.0 <= p < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {p}")

    @property
    def impaired(self) -> bool:
        """Whether any probabilistic impairment can fire."""
        return bool(self.write_fail_prob or self.torn_write_prob
                    or self.latent_corrupt_prob or self.stall_prob)


@dataclass
class Checkpoint:
    """One rank's persisted state."""

    rank: int
    taken_at: float
    seq: int
    app_state: dict[str, Any]
    protocol_state: dict[str, Any]
    size_bytes: int
    #: deliveries completed at checkpoint time, per source rank —
    #: the broadcast content on rollback (lines 46-47)
    last_deliver_index: PeerCounts = field(default_factory=PeerCounts)


def _checksum(ckpt: Checkpoint) -> int:
    """Content checksum over the image's canonical cheap fields.

    The simulation never serialises the full state, so the checksum
    covers the identifying fields; damage is modelled by flipping the
    *stored* checksum (the transport's corruption idiom), which a
    recomputation then catches.
    """
    canon = (ckpt.rank, ckpt.seq, ckpt.size_bytes, ckpt.last_deliver_index)
    return zlib.crc32(repr(canon).encode("utf-8"))


@dataclass(eq=False)
class Generation:
    """One retained image in a rank's generation chain.

    Identity semantics (``eq=False``): a retried write produces a
    field-equal twin of the failed attempt, and chain membership must
    distinguish them.
    """

    ckpt: Checkpoint
    #: sealed by :meth:`CheckpointStore.commit`; an uncommitted
    #: generation is an in-flight write (torn if its writer died)
    committed: bool = False
    #: checksum as stored on the device (None while in flight); damage
    #: flips it so verification fails
    checksum: int | None = None
    #: why the image is unreadable: None, "torn" or "corrupt"
    damage: str | None = None
    #: impairment outcome drawn at begin_write, applied at commit
    pending: str = "ok"

    @property
    def readable(self) -> bool:
        """Committed and passing its checksum."""
        return self.committed and self.checksum == _checksum(self.ckpt)


@dataclass
class ReadResult:
    """Outcome of a fallback-aware checkpoint read."""

    ckpt: Checkpoint
    read_time: float
    #: committed-but-unreadable generations skipped before this one
    fallbacks: int


class CheckpointStore:
    """The cluster's stable storage: a generation chain per rank.

    Retains the last ``history`` committed generations per rank; only
    the newest matters on the happy path (causal logging never rolls a
    process back past its own last checkpoint), but under hostile
    storage the older generations are the fallback targets.
    """

    def __init__(
        self,
        costs: CostModel,
        history: int = 2,
        config: StorageConfig | None = None,
        rng: "RngStreams | None" = None,
        trace: "Trace | None" = None,
        metrics: "list[RankMetrics] | None" = None,
    ) -> None:
        if history < 1:
            raise ValueError("checkpoint history must be >= 1")
        self.costs = costs
        self.history = history
        self.config = config if config is not None else StorageConfig()
        self._rng_streams = rng
        self._rng: Any = None
        self.trace = trace
        self.metrics = metrics
        self._store: dict[int, list[Generation]] = {}
        #: write *attempts* started (the pre-hostile meaning of a write);
        #: every other storage counter is per rank, on ``RankMetrics``
        self.writes: int = 0
        #: the device misbehaves (probabilistic knobs on, or fault specs
        #: scheduled); armed before the run starts, never mid-run
        self.hostile: bool = self.config.impaired
        #: forced outcomes per rank: (kind, duration) consumed FIFO by
        #: the next write attempts (repro.faults.injector)
        self._forced: dict[int, list[tuple[str, float]]] = {}

    # ------------------------------------------------------------------
    # GC coupling
    # ------------------------------------------------------------------
    @property
    def gc_lag(self) -> int:
        """Checkpoints to lag sender-log GC by.

        A hostile device may present a committed-looking generation that
        turns out unreadable, forcing recovery back one (or more)
        generations — so peers may only release log items covered by the
        *oldest retained* generation, ``history - 1`` checkpoints behind
        the newest.  A clean device never falls back: lag 0 reproduces
        the eager GC byte for byte.
        """
        return self.history - 1 if self.hostile else 0

    def arm_hostile(self) -> None:
        """Mark the device hostile (called by the injector at schedule
        time, before the run, so GC lags from the first checkpoint)."""
        self.hostile = True

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def write(self, ckpt: Checkpoint) -> float:
        """Atomic instantaneous write; returns the simulated duration.

        The process-launch path (checkpoint zero is written before the
        rank computes or communicates) and the legacy single-phase
        surface: commits immediately, never fails.
        """
        gen = Generation(ckpt, committed=True, checksum=_checksum(ckpt))
        chain = self._store.setdefault(ckpt.rank, [])
        chain.append(gen)
        self._trim(chain)
        self.writes += 1
        return self.costs.ckpt_write_time(ckpt.size_bytes)

    def begin_write(self, ckpt: Checkpoint) -> tuple[Generation, float]:
        """Open an in-flight write; returns (generation, attempt duration).

        The generation sits uncommitted in the chain until
        :meth:`commit` seals it — the caller schedules the commit after
        the returned duration of simulated time.  A caller that dies in
        between simply never commits: the previous generation survives
        untouched and the torn image is skipped by :meth:`read`.
        """
        chain = self._store.setdefault(ckpt.rank, [])
        gen = Generation(ckpt)
        chain.append(gen)
        self.writes += 1
        duration = self.costs.ckpt_write_time(ckpt.size_bytes)
        stall = 0.0
        if self.config.impaired:
            # fixed draw count per attempt: one uniform per knob, so a
            # knob's draws never shift another's
            u_fail, u_torn, u_corrupt, u_stall, u_len = self._draws(5)
            if u_fail < self.config.write_fail_prob:
                gen.pending = "fail"
            elif u_torn < self.config.torn_write_prob:
                gen.pending = "torn"
            elif u_corrupt < self.config.latent_corrupt_prob:
                gen.pending = "corrupt"
            if u_stall < self.config.stall_prob:
                stall = u_len * STALL_MAX
        forced = self._forced.get(ckpt.rank)
        if forced:
            kind, forced_duration = forced.pop(0)
            if kind == "stall":
                stall += forced_duration
            else:
                gen.pending = kind if kind != "write_fail" else "fail"
        if stall:
            if self.metrics is not None:
                self.metrics[ckpt.rank].ckpt_stall_time += stall
            self._emit("storage.stall", ckpt.rank, seq=ckpt.seq, stall=stall)
        return gen, duration + stall

    def commit(self, gen: Generation) -> bool:
        """Seal an in-flight write.  False means the attempt failed
        visibly (the generation is discarded; the caller may retry)."""
        rank = gen.ckpt.rank
        chain = self._store.setdefault(rank, [])
        if gen.pending == "fail":
            if gen in chain:
                chain.remove(gen)
            self._emit("storage.write_fail", rank, seq=gen.ckpt.seq)
            return False
        gen.committed = True
        gen.checksum = _checksum(gen.ckpt)
        if gen.pending in ("torn", "corrupt"):
            gen.damage = gen.pending
            gen.checksum ^= 0xFFFFFFFF
            if self.metrics is not None:
                if gen.pending == "torn":
                    self.metrics[rank].ckpt_torn_writes += 1
                else:
                    self.metrics[rank].ckpt_corrupt_generations += 1
            self._emit(f"storage.{gen.pending}", rank, seq=gen.ckpt.seq)
        self._trim(chain)
        return True

    def _trim(self, chain: list[Generation]) -> None:
        """Retention: the device keeps the last ``history`` committed
        generations by recency (damaged or not — it cannot tell) plus
        any still-in-flight write."""
        committed = [g for g in chain if g.committed]
        keep = committed[-self.history:]
        chain[:] = [g for g in chain if g in keep or not g.committed]

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def read(self, rank: int) -> ReadResult:
        """Read back the newest readable generation for ``rank``.

        Walks the chain newest first, paying the read cost for every
        image it has to checksum, skipping in-flight (torn-by-failure)
        writes silently and counting committed-but-unreadable
        generations as fallbacks.  Raises
        :class:`~repro.core.watchdog.StorageLossError` with a
        per-generation diagnosis when nothing readable remains.
        """
        chain = self._store.get(rank, [])
        read_time = 0.0
        fallbacks = 0
        diagnosis: list[str] = []
        for gen in reversed(chain):
            if not gen.committed:
                diagnosis.append(
                    f"seq {gen.ckpt.seq}: in-flight write never committed "
                    f"(torn by the failure)")
                continue
            read_time += self.costs.ckpt_read_time(gen.ckpt.size_bytes)
            if gen.readable:
                if fallbacks:
                    self._emit("storage.fallback", rank, to_seq=gen.ckpt.seq,
                               skipped=fallbacks)
                return ReadResult(gen.ckpt, read_time, fallbacks)
            fallbacks += 1
            diagnosis.append(
                f"seq {gen.ckpt.seq}: checksum mismatch "
                f"({gen.damage or 'damaged'})")
        if not diagnosis:
            diagnosis.append("no generation was ever written")
        raise StorageLossError(
            f"rank {rank} has no readable checkpoint generation — every "
            f"retained image failed verification:\n  " + "\n  ".join(diagnosis)
        )

    def latest(self, rank: int) -> Checkpoint | None:
        """Most recent *committed* checkpoint for ``rank`` (None before
        startup), readable or not — the raw head of the chain."""
        chain = self._store.get(rank)
        if not chain:
            return None
        for gen in reversed(chain):
            if gen.committed:
                return gen.ckpt
        return None

    def generations(self, rank: int) -> list[Generation]:
        """The retained chain, oldest first (inspection/testing)."""
        return list(self._store.get(rank, []))

    # ------------------------------------------------------------------
    # Fault injection (repro.faults.injector)
    # ------------------------------------------------------------------
    def inject(self, rank: int, kind: str, count: int, duration: float) -> bool:
        """Apply one :class:`~repro.faults.injector.StorageFaultSpec`.

        ``corrupt`` strikes immediately (bit rot on the newest readable
        committed generations); the other kinds queue forced outcomes
        for the rank's next write attempts.  Returns False when a
        ``corrupt`` found nothing to damage.
        """
        if kind == "corrupt":
            hit = 0
            for gen in reversed(self._store.get(rank, [])):
                if hit >= count:
                    break
                if gen.committed and gen.readable:
                    gen.damage = "corrupt"
                    assert gen.checksum is not None
                    gen.checksum ^= 0xFFFFFFFF
                    if self.metrics is not None:
                        self.metrics[rank].ckpt_corrupt_generations += 1
                    self._emit("storage.corrupt", rank, seq=gen.ckpt.seq)
                    hit += 1
            return hit > 0
        queue = self._forced.setdefault(rank, [])
        queue.extend((kind, duration) for _ in range(count))
        return True

    # ------------------------------------------------------------------
    def _draws(self, n: int) -> Any:
        if self._rng is None:
            if self._rng_streams is None:
                import numpy as np

                # standalone store armed without a stream family (unit
                # tests): derive a private deterministic stream
                self._rng = np.random.Generator(np.random.PCG64(0))
            else:
                self._rng = self._rng_streams.stream("storage.impair")
        return self._rng.uniform(size=n)

    def _emit(self, kind: str, rank: int, **fields: Any) -> None:
        if self.trace is not None:
            self.trace.emit(kind, rank, **fields)


class CheckpointWriter:
    """One rank's checkpointing: snapshot, two-phase write, retry, skip.

    ``host`` is the rank's endpoint, read for its ``app``, its current
    ``protocol``, ``engine``, ``metrics`` and ``trace``; commits and
    retries are scheduled through ``host.later``, so a rank killed
    mid-write simply never commits and the generation stays torn.
    """

    def __init__(self, store: CheckpointStore, host: Any) -> None:
        self.store = store
        self.host = host
        self.seq = 0
        #: when the last write ends (or the incarnation started): the
        #: checkpoint interval counts from here
        self.last_end = 0.0
        #: when the last checkpoint *committed* on stable storage — the
        #: base of the rollback-exposure span a skipped checkpoint widens
        self.commit_time = 0.0

    def write(self, initial: bool = False) -> float:
        """Checkpoint the rank now; returns how long the application
        stalls for the write."""
        host = self.host
        now = host.engine.now
        self.seq += 1
        app_state = copy.deepcopy(host.app.snapshot())
        protocol_state = host.protocol.checkpoint_state()
        size = (
            host.app.snapshot_size_bytes()
            + host.protocol.checkpoint_log_bytes()
            + 3 * host.nprocs * IDENTIFIER_BYTES
        )
        ckpt = Checkpoint(
            rank=host.rank,
            taken_at=now,
            seq=self.seq,
            app_state=app_state,
            protocol_state=protocol_state,
            size_bytes=size,
            last_deliver_index=protocol_state["vectors"]["last_deliver_index"],
        )
        if initial:
            # checkpoint zero is written as part of process launch,
            # before the rank computes or communicates: atomic and free
            self.store.write(ckpt)
            duration = 0.0
            self.commit_time = now
        else:
            # periodic checkpoint: an in-flight write.  The generation
            # opens uncommitted now and seals after `duration`; a kill in
            # between leaves it torn and the previous generation untouched.
            gen, duration = self.store.begin_write(ckpt)
            host.later(duration, self._finish, gen, 1)
            host.metrics.checkpoint_time += duration
        host.metrics.checkpoints_taken += 1
        self.last_end = now + duration
        host.trace.emit("ckpt.write", host.rank, seq=self.seq, size=size)
        return duration

    def _finish(self, gen: Generation, attempt: int) -> None:
        """Commit an in-flight write; on a visible failure, retry the
        same snapshot in the background with capped backoff, and past
        the retry cap skip the checkpoint (degraded mode: keep running
        on the previous generation, recording the widened rollback
        exposure)."""
        host = self.host
        now = host.engine.now
        if self.store.commit(gen):
            self.commit_time = now
            host.protocol.after_checkpoint()
            return
        host.metrics.ckpt_write_failures += 1
        if attempt > MAX_WRITE_RETRIES:
            host.metrics.ckpt_skipped += 1
            host.metrics.storage_exposure_time += now - self.commit_time
            host.trace.emit("storage.ckpt_skipped", host.rank,
                            seq=gen.ckpt.seq, attempts=attempt)
            return
        backoff = min(RETRY_BACKOFF * (2 ** (attempt - 1)), RETRY_BACKOFF_MAX)
        host.metrics.ckpt_write_retries += 1
        host.trace.emit("storage.ckpt_retry", host.rank, seq=gen.ckpt.seq,
                        attempt=attempt, backoff=backoff)
        host.later(backoff, self._retry, gen.ckpt, attempt + 1)

    def _retry(self, ckpt: Checkpoint, attempt: int) -> None:
        gen, duration = self.store.begin_write(ckpt)
        self.host.later(duration, self._finish, gen, attempt)
