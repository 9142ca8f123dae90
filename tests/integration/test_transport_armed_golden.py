"""Golden digests of the reliable transport's armed path.

``test_transport_golden.py`` pins the clean wire, where the transport
only numbers frames.  This file pins the impaired wire, where it
buffers, acks, retransmits, dedups and rejects corrupt frames: LU at 4
ranks, ``fast`` scale, for tdi/tag/tel x {drop, dup, corrupt, a
partition window, all four} x {no fault, one kill}.  Each cell is one
SHA-256 prefix over ``events_fired``, ``sim_time``, the answers, every
``NetworkStats`` field and every rank's ``rt_*`` counters, so a
refactor of the transport that moves a retransmission, an ack or an RNG
draw on ``net.transport`` moves a digest.

A deliberate change re-pins with ``PYTHONPATH=src python -m
tests.integration.test_transport_armed_golden`` and names the cells
that moved.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools

import pytest

from repro import api
from repro.faults.injector import FaultSpec
from repro.harness.runner import canonical_repr
from repro.metrics.counters import RankMetrics
from repro.simnet.network import NetworkConfig, PartitionWindow
from repro.simnet.transport import TransportConfig

PROTOCOLS = ("tdi", "tag", "tel")
_WINDOW = PartitionWindow(0.002, 0.004, (0, 1), (2, 3))
IMPAIRMENTS = {
    "drop": NetworkConfig(drop_prob=0.05),
    "dup": NetworkConfig(dup_prob=0.05),
    "corrupt": NetworkConfig(corrupt_prob=0.05),
    "partition": NetworkConfig(partitions=(_WINDOW,)),
    "all": NetworkConfig(drop_prob=0.05, dup_prob=0.05, corrupt_prob=0.05,
                         partitions=(_WINDOW,)),
}
FAULTS = {"none": (), "kill": (FaultSpec(rank=2, at_time=0.006),)}
CELLS = tuple("/".join(c) for c in itertools.product(PROTOCOLS, IMPAIRMENTS, FAULTS))
RT_COUNTERS = tuple(f.name for f in dataclasses.fields(RankMetrics)
                    if f.name.startswith("rt_"))


def _digest(cell: str) -> str:
    protocol, impairment, fault = cell.split("/")
    config = api.SimulationConfig(
        nprocs=4, protocol=protocol, seed=3, checkpoint_interval=0.01,
        network=IMPAIRMENTS[impairment], transport=TransportConfig(enabled=True))
    run = api.run_workload("lu", scale="fast", config=config,
                           faults=list(FAULTS[fault]) or None)
    observed = (
        run.events_fired, run.sim_time,
        [canonical_repr(answer) for answer in run.results],
        dataclasses.asdict(run.network),
        [[getattr(m, name) for name in RT_COUNTERS] for m in run.stats.per_rank],
    )
    return hashlib.sha256(repr(observed).encode()).hexdigest()[:16]


#: cell -> digest, pinned at the commit before the transport was cut to
#: its reference model
GOLDEN = {
    'tdi/drop/none': 'a0728ae392375b7f',
    'tdi/drop/kill': 'ba132996fea39ead',
    'tdi/dup/none': 'fcd6de23ebff0200',
    'tdi/dup/kill': '35d1bc36ca761852',
    'tdi/corrupt/none': 'bbc4929c42c1f079',
    'tdi/corrupt/kill': 'f1e618128e4eac2b',
    'tdi/partition/none': '400c13a948e80b56',
    'tdi/partition/kill': '8aa883195b561ea8',
    'tdi/all/none': 'edeb782f64aa5245',
    'tdi/all/kill': '088132f749d5b288',
    'tag/drop/none': '001e89b02c21ae79',
    'tag/drop/kill': '74941b8fb1907682',
    'tag/dup/none': '7844e570bb65d0d5',
    'tag/dup/kill': 'ff40e7ee99a30808',
    'tag/corrupt/none': 'ced4dbba04aee5b8',
    'tag/corrupt/kill': '0311b290a775421c',
    'tag/partition/none': '532a04eb4b957f7e',
    'tag/partition/kill': '63f388f9d71e6d21',
    'tag/all/none': '335d1fa8a2d915c9',
    'tag/all/kill': 'e2b545c0c993c6f4',
    'tel/drop/none': 'dab1fbbf0dee40f7',
    'tel/drop/kill': '74c7baaaa2785d15',
    'tel/dup/none': '5df16012248c92ab',
    'tel/dup/kill': '81a6c0cdcfc0c6ad',
    'tel/corrupt/none': '7daf866928f99af7',
    'tel/corrupt/kill': '361033fc0d55e9ff',
    'tel/partition/none': '562f5e66d7ffcc20',
    'tel/partition/kill': 'e57b04fc9969f2cf',
    'tel/all/none': 'c3f2f71139b493e9',
    'tel/all/kill': '3be247a7e21a2916',
}


def test_every_cell_is_pinned():
    assert set(GOLDEN) == set(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_armed_path_unchanged(cell):
    assert _digest(cell) == GOLDEN[cell]


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in CELLS:
        print(f"    {name!r}: {_digest(name)!r},")
    print("}")
