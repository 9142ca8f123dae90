"""Run-matrix execution helpers: the vocabulary the parallel executor
speaks.

* :class:`RunRequest` — one run: the workload, its preset, the
  :class:`~repro.config.SimulationConfig` and the fault schedule.
  Requests are frozen, hashable and picklable, so they can be fanned out
  to worker processes and fingerprinted by the result cache;
* :class:`RunSummary` — the picklable, JSON-able subset of a
  :class:`~repro.mpi.cluster.RunResult` that the figure row-builders
  consume (accomplishment time plus the per-rank metric counters).
  Workers return summaries, not full results: a ``RunResult`` drags the
  trace, the network and the detector along, none of which a figure row
  needs.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.config import SimulationConfig
from repro.metrics.counters import MetricsAggregate, RankMetrics, aggregate
from repro.mpi.cluster import RunResult, run_simulation
from repro.simnet.engine import SimulationError
from repro.workloads.presets import workload_factory


def checkpoint_intervals_elapsed(result: "RunResult | RunSummary",
                                 interval: float) -> float:
    """How many checkpoint intervals the run spanned (>= 1)."""
    return max(1.0, result.accomplishment_time / interval)


# ----------------------------------------------------------------------
# Executor vocabulary
# ----------------------------------------------------------------------

def canonical_repr(value: Any) -> str:
    """A stable, comparison-safe rendering of an application value.

    ``repr`` alone is not safe across large numpy arrays (it truncates),
    so arrays become ``(shape, dtype, sha256(tobytes))`` and containers
    are rendered recursively.  Two runs agree on a value iff they agree
    on its canonical repr.
    """
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a hard dep today
        np = None
    if np is not None and isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        return f"ndarray(shape={value.shape}, dtype={value.dtype}, sha256={digest[:16]})"
    if isinstance(value, dict):
        inner = ", ".join(
            f"{canonical_repr(k)}: {canonical_repr(v)}"
            for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
        )
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        open_, close = ("[", "]") if isinstance(value, list) else ("(", ")")
        return open_ + ", ".join(canonical_repr(v) for v in value) + close
    return repr(value)


@dataclass
class RunSummary:
    """The slice of a :class:`RunResult` a figure row-builder needs.

    ``stats`` reconstructs a :class:`MetricsAggregate` from the stored
    per-rank counters, so row-builders use the exact same accessors
    (``stats.total(...)``, ``stats.piggyback_identifiers_per_message``,
    ...) against a summary as against a live result.
    """

    accomplishment_time: float
    sim_time: float
    events_fired: int
    checkpoint_writes: int
    #: one plain dict of counters per rank (``RankMetrics`` fields)
    per_rank: list = field(default_factory=list)
    #: stringified oracle findings (empty for clean or unverified runs)
    violations: list = field(default_factory=list)
    #: canonical reprs of the per-rank application answers
    results: list | None = None
    #: per-rank sorted multisets of delivered-message digests (only for
    #: runs with ``record=True``; the fuzzer diffs these across protocols)
    delivered: list | None = None
    #: captured failure (``run_batch(capture_errors=True)`` only)
    error: str | None = None

    @property
    def stats(self) -> MetricsAggregate:
        """Aggregate view over the stored per-rank counters (memoised)."""
        cached = self.__dict__.get("_stats")
        if cached is None:
            cached = aggregate([RankMetrics(**d) for d in self.per_rank])
            self.__dict__["_stats"] = cached
        return cached

    def to_json_dict(self) -> dict:
        """Plain-JSON form, as stored by the result cache."""
        return {
            "accomplishment_time": self.accomplishment_time,
            "sim_time": self.sim_time,
            "events_fired": self.events_fired,
            "checkpoint_writes": self.checkpoint_writes,
            "per_rank": self.per_rank,
            "violations": self.violations,
            "results": self.results,
            "delivered": self.delivered,
            "error": self.error,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunSummary":
        """Inverse of :meth:`to_json_dict` (tolerant of pre-1.1 entries)."""
        return cls(
            accomplishment_time=data["accomplishment_time"],
            sim_time=data["sim_time"],
            events_fired=data["events_fired"],
            checkpoint_writes=data["checkpoint_writes"],
            per_rank=list(data["per_rank"]),
            violations=list(data["violations"]),
            results=data.get("results"),
            delivered=data.get("delivered"),
            error=data.get("error"),
        )


def _delivered_multisets(result: RunResult) -> list | None:
    """Per-rank sorted multisets of delivered-message digests.

    Each delivery is rendered as ``src:tag:payload-digest`` and each
    rank's list is sorted, so two runs compare equal iff every rank
    received exactly the same bag of messages — regardless of the
    (legitimately protocol-dependent) delivery order.
    """
    if result.recording is None:
        return None
    out = []
    for rank in range(result.config.nprocs):
        rec = result.recording.rank(rank)
        digests = sorted(
            f"{d.source}:{d.tag}:{canonical_repr(d.payload)}"
            for d in rec.deliveries
        )
        out.append(digests)
    return out


def summarize(result: RunResult) -> RunSummary:
    """Boil a full :class:`RunResult` down to a :class:`RunSummary`."""
    return RunSummary(
        accomplishment_time=result.accomplishment_time,
        sim_time=result.sim_time,
        events_fired=result.events_fired,
        checkpoint_writes=result.checkpoint_writes,
        per_rank=[asdict(m) for m in result.metrics.per_rank],
        violations=[str(v) for v in result.violations],
        results=[canonical_repr(r) for r in result.results],
        delivered=_delivered_multisets(result),
    )


@dataclass(frozen=True)
class RunRequest:
    """One run, fully described up front.

    ``key`` identifies the request inside its figure plan (row-builders
    look results up by it); everything else is the run itself.  The
    dataclass is frozen and built from hashable pieces so it can be
    pickled to a worker process and hashed into a cache key.
    """

    key: tuple
    workload: str
    preset: str
    config: SimulationConfig
    faults: tuple = ()
    #: ``(name, value)`` kernel-parameter overrides for the workload preset
    workload_kwargs: tuple = ()
    #: with ``config.verify``: abort on a violation (the harness stance)
    #: or report it on ``RunSummary.violations`` (the fuzzer stance)
    strict_verify: bool = True

    def __str__(self) -> str:
        config = self.config
        return (f"{self.workload} n={config.nprocs} {config.protocol} "
                f"{config.comm_mode}")

    def execute(self) -> RunSummary:
        """Run the request in this process and summarise the outcome.

        Under a strict request a run that broke the protocol's own
        safety obligations raises: figure numbers from it are worthless.
        """
        factory = workload_factory(self.workload, scale=self.preset,
                                   **dict(self.workload_kwargs))
        result = run_simulation(self.config, factory, list(self.faults) or None)
        if self.config.verify and self.strict_verify and result.violations:
            shown = "\n  ".join(str(v) for v in result.violations[:5])
            raise SimulationError(
                f"invariant verification failed for {self}: "
                f"{len(result.violations)} violation(s)\n  {shown}"
            )
        return summarize(result)
