"""Held-vs-event equivalence of the heartbeat plane.

An armed run lets a heartbeat whose fate is settled at send time wait on
its lane instead of in the engine (``simnet/network.py``, "Held
heartbeats"); anything watching frames on the trace turns every beat
back into an arrival event.  This tool runs every cell of a matrix three
ways — as configured (*held*), with the oracle and a listener that hears
everything and ignores it attached before the run (*event*, the
per-event path of the commit before held beats existed), and with the
oracle alone (*verified*: it subscribes to its own kinds, none of them a
frame's) — and requires the runs to be indistinguishable: same answers,
``NetworkStats``, every ``RankMetrics`` counter of every rank,
condemnations, fences, failures and recoveries, ``accomplishment_time``,
``sim_time``, checkpoint writes, final ``suspicion``, every estimator's
``(last_arrival, gaps)`` and the state of every RNG substream.  Only
``events_fired`` may differ, only downward and only between *event* and
the other two: the verified run fires exactly the held run's events,
finds no violation and makes the per-event run's checks, count for
count.

``python -m tests.tools.heartbeat_equivalence`` runs the full matrix —
every fault shape that can intersect a held beat (double kill with the
second during the first's recovery, freeze short and long, stutter,
slow, mute delay and drop, lossy wire + transport, a partition window,
leave + rejoin slow and between two sweeps, a deferred
join, a run cut short by ``max_sim_time``) x ``heartbeat_interval`` in
{5e-5, 1e-4, 1.5e-4, 5e-4} (three of them below the wire delay), plus
the first 100 ``--fault-bias gray`` fuzz scenarios under tdi and tel:
277 cells x 3 runs, about a minute — with
:func:`tests.tools.equivalence.run_matrix`, totalling the engine events
of each side.
``TIER1_CELLS`` is the 32-cell slice
``tests/integration/test_detection_golden.py`` runs on every push.
"""

from __future__ import annotations

import dataclasses
import operator
import sys
from typing import Any, NamedTuple

from repro.config import SimulationConfig
from repro.faults.detector import DetectorConfig
from repro.faults.injector import (FaultSpec, GrayFaultSpec, JoinSpec,
                                   LeaveSpec)
from repro.fuzz.differential import _request
from repro.fuzz.scenario import generate_scenario
from repro.harness.runner import canonical_repr
from repro.mpi.cluster import Cluster
from repro.simnet.network import NetworkConfig, PartitionWindow
from repro.simnet.transport import TransportConfig
from repro.workloads.presets import workload_factory
from tests.tools import equivalence

NPROCS = 8
INTERVALS = (5e-5, 1e-4, 1.5e-4, 5e-4)
_OTHERS = tuple(r for r in range(NPROCS) if r != 3)

#: a window that never forgets: where a grayed rank lives on, its
#: estimators end up holding every arrival stamp it ever heard, so a beat
#: that skipped the frozen NIC's buffer shows at the end of the run
_REMEMBER = {"detector": {"window": 10_000}}

#: name -> (event specs, SimulationConfig overrides; ``detector`` holds
#: DetectorConfig fields).  LU, 8 ranks, ``fast`` preset runs 18 ms
#: failure-free; everything fires around t=6 ms
SHAPES: dict[str, tuple[tuple, dict[str, Any]]] = {
    "clean": ((), {}),
    "kill": ((FaultSpec(3, 0.006),), {}),
    # the second victim dies while the first is rolling forward
    "double-kill": ((FaultSpec(3, 0.006), FaultSpec(5, 0.0085)), {}),
    "kill-tel": ((FaultSpec(3, 0.006),), {"protocol": "tel"}),
    "kill-blocking": ((FaultSpec(3, 0.006),), {"comm_mode": "blocking"}),
    "kill-no-jitter": ((FaultSpec(3, 0.006),),
                       {"network": NetworkConfig(jitter_fraction=0.0)}),
    "freeze": ((GrayFaultSpec(3, 0.006, "freeze", duration=0.004),), {}),
    # thaws before anyone condemns: the buffered beats replay
    "freeze-short": ((GrayFaultSpec(3, 0.006, "freeze", duration=3e-4),),
                     _REMEMBER),
    "stutter": ((GrayFaultSpec(3, 0.006, "stutter", duration=0.004),),
                _REMEMBER),
    "slow": ((GrayFaultSpec(3, 0.006, "slow", duration=0.004),), _REMEMBER),
    "mute-delay": ((GrayFaultSpec(3, 0.006, "mute", duration=0.004,
                                  targets=(0, 1)),), {}),
    # a delay short enough that nobody condemns: held, event and held
    # beats follow each other on one channel
    "mute-delay-short": ((GrayFaultSpec(3, 0.006, "mute", duration=0.002,
                                        delay=2e-5),), _REMEMBER),
    "mute-drop": ((GrayFaultSpec(3, 0.006, "mute", duration=0.004, drop=True),),
                  {"transport": TransportConfig(enabled=True)}),
    "lossy-kill": ((FaultSpec(3, 0.006),),
                   {"network": NetworkConfig(drop_prob=0.02, dup_prob=0.01),
                    "transport": TransportConfig(enabled=True)}),
    "partition": ((), {"network": NetworkConfig(partitions=(
        PartitionWindow(0.006, 0.0068, (3,), _OTHERS),)),
        "transport": TransportConfig(enabled=True)}),
    "leave-rejoin": ((LeaveSpec(2, 0.006), JoinSpec(2, 0.009)), {}),
    # a turnover takes a 1.2 ms checkpoint read; only at a beat slower
    # than that does the rank come back between two sweeps, while its
    # last beats have arrived and nobody has heard them yet (the floor
    # scales with the beat, or the second sweep condemns everyone)
    "rejoin-between-sweeps": ((LeaveSpec(2, 0.0061), JoinSpec(2, 0.00612)),
                              {"detector": {"heartbeat_interval": 2e-3,
                                            "floor": 2e-3,
                                            "window": 10_000}}),
    "deferred-join": ((JoinSpec(7, 0.004),), {}),
    "kill-after-freeze": ((GrayFaultSpec(3, 0.004, "freeze", duration=3e-4),
                           FaultSpec(3, 0.007)), _REMEMBER),
    # the engine stops mid-run, 130 us after a sweep: of the beats sent
    # at it, those that arrived by then have been heard, the rest not
    "cut-short": ((), {"max_sim_time": 0.01013, **_REMEMBER}),
}


class Cell(NamedTuple):
    """One run: a named config, its application and its event schedule."""

    name: str
    config: SimulationConfig
    workload: str
    preset: str
    workload_kwargs: tuple
    faults: tuple

    def __str__(self) -> str:
        return self.name


def _matrix_cell(shape: str, interval: float, seed: int = 1) -> Cell:
    faults, overrides = SHAPES[shape]
    fields = {"nprocs": NPROCS, "protocol": "tdi", "seed": seed,
              "checkpoint_interval": 0.004, **overrides,
              "detector": DetectorConfig(**{
                  "enabled": True, "heartbeat_interval": interval,
                  **overrides.get("detector", {})})}
    return Cell(f"{shape}@{interval:g}", SimulationConfig(**fields),
                "lu", "fast", (), faults)


def _fuzz_cells(seeds: range) -> list[Cell]:
    """The faulted legs of the ``gray`` band's scenarios, unverified."""
    cells = []
    for seed in seeds:
        scenario = generate_scenario(seed, fault_bias="gray")
        for protocol in ("tdi", "tel"):
            request = _request(scenario, protocol, faulted=True,
                               record=False, verify=False)
            cells.append(Cell(
                f"gray-{seed}-{protocol}", request.config,
                scenario.workload, scenario.preset,
                tuple(scenario.workload_kwargs), tuple(request.faults)))
    return cells


def _intervals(shape: str) -> tuple[float, ...]:
    """The shape that sets its own beat interval runs once."""
    if shape == "rejoin-between-sweeps":
        return INTERVALS[-1:]
    return INTERVALS


FULL_MATRIX = ([_matrix_cell(shape, interval)
                for shape in SHAPES for interval in _intervals(shape)]
               + _fuzz_cells(range(100)))
#: every shape once, the intervals rotating through them, and the first
#: six gray scenarios under both protocols: 32 cells
TIER1_CELLS = ([_matrix_cell(shape, _intervals(shape)[-1 - i % len(_intervals(shape))])
                for i, shape in enumerate(SHAPES)]
               + _fuzz_cells(range(6)))


def _ignore(event: Any) -> None:
    """A listener that wants nothing — its presence is the point."""


def observation(cluster: Cluster, run: Any) -> dict[str, Any]:
    """Everything a finished run must agree on with its twin."""
    detector = run.detector
    return {
        "answers": [canonical_repr(answer) for answer in run.results],
        "network": dataclasses.asdict(run.network),
        "metrics": [dataclasses.asdict(m) for m in run.metrics.per_rank],
        "accomplishment_time": run.accomplishment_time,
        "sim_time": run.sim_time,
        "checkpoint_writes": run.checkpoint_writes,
        "condemnations": list(detector.condemnations),
        "fences": list(detector.fences),
        "failures": list(detector.failures),
        "recoveries": list(detector.recoveries),
        "suspicion": dict(detector.suspicion),
        "estimators": {key: (est.last_arrival, tuple(est._gaps))
                       for key, est in sorted(detector._estimators.items())},
        "rng": {name: cluster.rng.stream(name).bit_generator.state
                for name in cluster.rng.names()},
        "events_fired": run.events_fired,
    }


def observe(cell: Cell, per_event: bool, verify: bool = False) -> dict[str, Any]:
    """One run of ``cell``, observed.  A verified run's observation also
    holds what its oracle found."""
    factory = workload_factory(cell.workload, scale=cell.preset,
                               **dict(cell.workload_kwargs))
    cluster = Cluster(dataclasses.replace(cell.config, verify=verify), factory)
    if per_event:
        cluster.trace.attach_listener(_ignore)

    def fields(run: Any) -> dict[str, Any]:
        observed = observation(cluster, run)
        if verify:
            observed["oracle"] = {"violations": [str(v) for v in run.violations],
                                  "checks": cluster.oracle.summary()["checks"]}
        return observed

    return equivalence.observe(lambda: cluster.run(list(cell.faults) or None),
                               fields)


def first_difference(event: dict[str, Any], held: dict[str, Any]) -> str | None:
    """``None`` when an event and a held run are equal, else what differs
    first: ``events_fired`` is the one field allowed to move, and only
    down.  What an oracle found is compared by :func:`verified_difference`."""
    return equivalence.first_difference(
        event, held, ("event", "held"),
        {"events_fired": operator.ge, "oracle": lambda *_: True})


def observe_three(cell: Cell) -> tuple[dict[str, Any], ...]:
    """``(event, held, verified)`` observations of one cell."""
    return (observe(cell, per_event=True, verify=True),
            observe(cell, per_event=False),
            observe(cell, per_event=False, verify=True))


def verified_difference(event: dict[str, Any], held: dict[str, Any],
                        verified: dict[str, Any]) -> str | None:
    """``None`` when the oracle alone un-holds no beat and misses no
    check: the verified run equals the held one in every field,
    ``events_fired`` included, and its oracle is silent after exactly
    the per-event run's checks."""
    if "raised" not in held:
        held = {**held, "oracle": {"violations": [],
                                   "checks": event["oracle"]["checks"]}}
    return equivalence.first_difference(held, verified, ("held", "verified"))


if __name__ == "__main__":
    sys.exit(equivalence.run_matrix(
        "heartbeat_equivalence", FULL_MATRIX, observe_three,
        lambda event, held, verified: first_difference(event, held)
        or verified_difference(event, held, verified)))
