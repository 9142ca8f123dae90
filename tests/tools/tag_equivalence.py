"""Reference-vs-``src/`` equivalence of the TAG / PART antecedence graph.

Runs every cell of a matrix twice — once on
:mod:`tests.properties.reference_tag` (the set-based store of the commit
before the bitset store) and once on ``src/`` — and requires the two runs
to be indistinguishable: same simulated time, engine events, per-rank
answers, oracle violations, every ``RankMetrics`` counter on every rank,
and the same trace event for event (the reference's piggyback order is a
set-iteration accident, so each ``pb["dets"]`` is compared sorted).  A
cell in which both sides raise the same exception counts as equal and is
listed.

``python -m tests.tools.tag_equivalence`` runs the full matrix (tag, part
x lu, reduce, synthetic x blocking, nonblocking x 0, 1, 3 kills x plain,
compressed, lossy + compressed x 2 seeds = 216 cells, under a minute),
prints the first differing field or event of every mismatching
cell and exits non-zero if there is one.  ``TIER1_CELLS`` is the slice
``tests/properties/test_tag_differential.py`` runs on every push.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
import time
from typing import Any, NamedTuple

from repro import api
from repro.simnet.network import NetworkConfig
from repro.simnet.transport import TransportConfig
from tests.properties.reference_tag import reference_protocols

NPROCS = 8
#: (victim, fraction of the failure-free run at which it dies); three
#: kills hit both PART groups and the second overlaps the first recovery
KILLS = {0: (), 1: ((3, 0.35),), 3: ((3, 0.35), (1, 0.4), (6, 0.6))}
#: preset per workload, sized so each run makes a few hundred sends
SCALES = {"lu": "fast", "reduce": "paper", "synthetic": "paper"}
WIRES = ("plain", "compressed", "lossy")


class Cell(NamedTuple):
    protocol: str
    workload: str
    comm_mode: str
    kills: int
    wire: str
    seed: int


FULL_MATRIX = [Cell(*c) for c in itertools.product(
    ("tag", "part"), ("lu", "reduce", "synthetic"),
    ("blocking", "nonblocking"), (0, 1, 3), WIRES, (1, 2))]
#: a half fraction of tag, part x lu, reduce x blocking, nonblocking x
#: 1, 3 kills x plain, lossy: 16 cells in which every pair of levels of
#: two different factors still meets
TIER1_CELLS = [Cell(*c, seed=1) for i, c in enumerate(itertools.product(
    ("tag", "part"), ("lu", "reduce"), ("blocking", "nonblocking"),
    (1, 3), ("plain", "lossy"))) if i.bit_count() % 2 == 0]


def _config(cell: Cell, interval: float, probe: bool = False) -> api.SimulationConfig:
    lossy = cell.wire == "lossy"
    return api.SimulationConfig(
        nprocs=NPROCS, protocol=cell.protocol, comm_mode=cell.comm_mode,
        checkpoint_interval=interval, seed=cell.seed,
        trace_enabled=not probe, verify=not probe,
        compress_piggybacks=cell.wire != "plain",
        network=NetworkConfig(drop_prob=0.02 if lossy else 0.0),
        transport=TransportConfig(enabled=lossy))


def _run(cell: Cell, config: api.SimulationConfig, faults: Any) -> Any:
    return api.run_workload(cell.workload, scale=SCALES[cell.workload],
                            config=config, faults=faults)


def _canonical(value: Any) -> Any:
    """A trace field with every determinant increment put in one order."""
    if isinstance(value, dict) and "dets" in value:
        return {**value, "dets": tuple(sorted(value["dets"]))}
    return value


def _observe(cell: Cell, config: api.SimulationConfig, faults: Any) -> dict[str, Any]:
    try:
        run = _run(cell, config, faults)
    except Exception as exc:  # the same failure on both sides is equality
        return {"raised": f"{type(exc).__name__}: {exc}"}
    return {
        "sim_time": run.accomplishment_time,
        "events_fired": run.events_fired,
        "answers": list(map(repr, run.results)),
        "violations": list(map(repr, run.violations)),
        "metrics": [dataclasses.asdict(m) for m in run.stats.per_rank],
        "trace": [(ev.time, ev.kind, ev.rank,
                   {k: _canonical(v) for k, v in ev.fields.items()})
                  for ev in run.trace.events],
    }


@functools.lru_cache(maxsize=None)
def _failure_free_duration(protocol: str, workload: str) -> float:
    cell = Cell(protocol, workload, "nonblocking", 0, "plain", 1)
    return _run(cell, _config(cell, 1e9, probe=True), None).accomplishment_time


def observe_both(cell: Cell) -> tuple[dict[str, Any], dict[str, Any]]:
    """``(reference, src)`` observations of one cell.  Checkpoint period
    and kill times are fractions of the failure-free duration of the
    cell's protocol on its workload, so every run checkpoints, prunes
    and dies part-way."""
    probe = _failure_free_duration(cell.protocol, cell.workload)
    faults = [api.FaultSpec(rank=rank, at_time=share * probe)
              for rank, share in KILLS[cell.kills]]
    config = _config(cell, probe / 5)
    with reference_protocols():
        reference = _observe(cell, config, faults)
    return reference, _observe(cell, config, faults)


def first_difference(reference: dict[str, Any], change: dict[str, Any]) -> str | None:
    """``None`` when the observations are equal, else what differs first."""
    if reference.keys() != change.keys():
        return (f"one side raised: reference {reference.get('raised')!r}, "
                f"src {change.get('raised')!r}")
    for field, expected in reference.items():
        got = change[field]
        if got == expected:
            continue
        if field in ("trace", "metrics"):
            for index, (a, b) in enumerate(zip(expected, got)):
                if a != b:
                    return f"{field}[{index}]: reference {a!r}\n    src {b!r}"
            return f"{field}: {len(expected)} entries vs {len(got)}"
        return f"{field}: reference {expected!r}, src {got!r}"
    return None


def main() -> int:
    started = time.perf_counter()
    differing, raised = 0, []
    for cell in FULL_MATRIX:
        reference, change = observe_both(cell)
        difference = first_difference(reference, change)
        if difference is not None:
            differing += 1
            print(f"DIFF {cell}: {difference}")
        elif "raised" in reference:
            raised.append(cell)
            print(f"same exception on both sides, {cell}: {reference['raised'][:120]}")
    print(f"tag_equivalence: {len(FULL_MATRIX)} cells, {differing} differences, "
          f"{len(raised)} raising identically, "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
