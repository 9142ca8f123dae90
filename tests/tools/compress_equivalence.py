"""Reference-vs-``src/`` equivalence of the compressed path's vector state.

Runs every cell of a matrix twice — once on
:mod:`tests.properties.reference_vector` (the log-based change tracker
and the list-based decoder of the commit before the stamp array) and
once on ``src/`` — with compressed piggybacks on, and requires the two
runs to be indistinguishable: the same trace digest (every event, so
every piggyback shipped and every merge count), ``events_fired``,
``sim_time``, answers, wire bytes, and on every rank
``piggyback_bytes_wire``, ``delta_fallback_full_sends`` and every other
``RankMetrics`` counter.

``python -m tests.tools.compress_equivalence`` runs the full matrix — lu,
synthetic ring, synthetic weyl x n in {4, 16, 64, 256} x 0, 1, 2 kills x
fixed membership or the last rank joining late (``grow_to`` +
``VectorDeltaEncoder.grow``) x clean or 1% lossy wire under the reliable
transport: 144 cells, a few minutes, LU at 256 ranks being most of them —
with :func:`tests.tools.equivalence.run_matrix`; the :data:`KNOWN_STALLS`
are its known failures.  ``TIER1_CELLS`` is the slice
``tests/properties/test_compress_differential.py`` runs on every push.
The seeded mutants of this representation are in
:mod:`tests.tools.mutants`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import sys
from typing import Any, NamedTuple

from repro import api
from repro.faults.injector import FaultSpec, JoinSpec
from repro.harness.runner import canonical_repr
from repro.simnet.network import NetworkConfig
from repro.simnet.transport import TransportConfig
from tests.properties.reference_vector import reference_vectors
from tests.tools import equivalence

#: name -> (workload, its keyword overrides)
WORKLOADS = {"lu": ("lu", {}),
             "ring": ("synthetic", {"pattern": "ring"}),
             "weyl": ("synthetic", {"pattern": "weyl"})}
SCALES = (4, 16, 64, 256)
#: fractions of the failure-free duration at which rank 1, then rank
#: n // 2, die; the late joiner (rank n - 1) comes in before either
KILL_AT = (0.35, 0.55)
JOIN_AT = 0.2


class Cell(NamedTuple):
    workload: str
    nprocs: int
    kills: int
    join: bool
    lossy: bool


FULL_MATRIX = [Cell(*c) for c in itertools.product(
    WORKLOADS, SCALES, (0, 1, 2), (False, True), (False, True))]
#: cells that deadlock on both sides, for a transport reason: a first-ever
#: join attaches at epoch 0 like the empty slot before it, so a stream
#: delta in flight across the join is dropped as undecodable and the
#: resend that should cover it as its duplicate (uncompressed, the two are
#: one message).  A ring at 16 and 256 ranks; at 64 ranks the same cells run
KNOWN_STALLS = [Cell("ring", nprocs, kills, True, True)
                for nprocs in (16, 256) for kills in (0, 1, 2)]
#: a third of the cells up to 16 ranks, plus seven large-n corners: 30
#: cells
TIER1_CELLS = [c for c in map(Cell._make, equivalence.orthogonal_fraction(
    (WORKLOADS, SCALES[:2], (0, 1, 2), (False, True), (False, True)), 3))
    if c not in KNOWN_STALLS] + [
    Cell("lu", 64, 1, True, True), Cell("weyl", 64, 2, False, True),
    Cell("ring", 64, 2, True, False), Cell("ring", 64, 0, False, False),
    Cell("weyl", 64, 0, True, True), Cell("weyl", 256, 1, True, False),
    Cell("ring", 256, 2, False, True)]


def _run(cell: Cell, interval: float, events: list, trace: bool = True) -> Any:
    name, kwargs = WORKLOADS[cell.workload]
    config = api.SimulationConfig(
        nprocs=cell.nprocs, protocol="tdi", seed=1, trace_enabled=trace,
        checkpoint_interval=interval, compress_piggybacks=True,
        network=NetworkConfig(drop_prob=0.01 if cell.lossy else 0.0),
        transport=TransportConfig(enabled=cell.lossy))
    return api.run_workload(name, scale="fast", config=config,
                            faults=events or None, **kwargs)


@functools.lru_cache(maxsize=None)
def _failure_free_duration(workload: str, nprocs: int) -> float:
    cell = Cell(workload, nprocs, 0, False, False)
    return _run(cell, 1e9, [], trace=False).accomplishment_time


def _trace_digest(trace: Any) -> str:
    """SHA-256 over every recorded event, in order (``repr`` is exact
    for every field of a TDI run, piggybacks and their epochs included)."""
    digest = hashlib.sha256()
    for ev in trace.events:
        digest.update(repr((ev.time, ev.kind, ev.rank,
                            sorted(ev.fields.items()))).encode())
    return digest.hexdigest()


def _fields(run: Any) -> dict[str, Any]:
    return {
        "trace": _trace_digest(run.trace),
        "events_fired": run.events_fired,
        "sim_time": run.sim_time,
        "answers": [canonical_repr(answer) for answer in run.results],
        "network": dataclasses.asdict(run.network),
        "metrics": [dataclasses.asdict(m) for m in run.stats.per_rank],
    }


def observe_both(cell: Cell) -> tuple[dict[str, Any], dict[str, Any]]:
    """``(reference, src)`` observations of one cell.  Checkpoint period,
    join and kill times are fractions of the cell's failure-free
    duration, so every run checkpoints, grows and dies part-way."""
    duration = _failure_free_duration(cell.workload, cell.nprocs)
    victims = (1, cell.nprocs // 2)[:cell.kills]
    events: list[Any] = [FaultSpec(rank, share * duration)
                         for rank, share in zip(victims, KILL_AT)]
    if cell.join:
        events.append(JoinSpec(cell.nprocs - 1, JOIN_AT * duration))
    run = functools.partial(_run, cell, duration / 5, events)
    with reference_vectors():
        reference = equivalence.observe(run, _fields)
    return reference, equivalence.observe(run, _fields)


if __name__ == "__main__":
    sys.exit(equivalence.run_matrix(
        "compress_equivalence", FULL_MATRIX, observe_both,
        equivalence.first_difference, known_failures=KNOWN_STALLS))
