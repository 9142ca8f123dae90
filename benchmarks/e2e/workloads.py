"""The five benchmark workloads, as data.

A workload is one ``(SimulationConfig, app factory, fault schedule)``
triple; the benchmark seed feeds ``SimulationConfig.seed`` and nothing
else.  The LU workloads are the cells of the ROADMAP baseline table
(16 ranks, ``paper`` preset, checkpoint interval 0.05, one kill of rank 3
at t=0.02), so its multipliers can be re-read from this benchmark.

Why these five (one line each lives in ``BENCHMARK.json``; the long form
is in ``README.md``):

* ``lu16_tdi_kill`` is the default path with every optional layer off —
  the *bypass* workload for all of them;
* ``lu16_tdi_armed`` turns on oracle + compression + lossy wire +
  transport, the stack a fuzz-band leg runs;
* ``lu16_tdi_detector`` arms the accrual detector (heartbeats are ~70% of
  its engine events);
* ``lu8_tag_kill`` is the PWD family (TAG), where TDI code does no work;
* ``ring512_tdi_compress`` is the large-n case: O(n) array work and
  O(n^2) dense state instead of per-event Python overhead, and the only
  workload whose memory and set-up time the program dominates.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.config import SimulationConfig
from repro.faults.detector import DetectorConfig
from repro.faults.injector import FaultSpec
from repro.simnet.network import NetworkConfig
from repro.simnet.transport import TransportConfig
from repro.workloads.presets import workload_factory

_LU = {"name": "lu", "scale": "paper"}
_KILL = [{"rank": 3, "at_time": 0.02}]

SPECS: dict[str, dict[str, Any]] = {
    "lu16_tdi_kill": {
        "app": _LU,
        "config": {"nprocs": 16, "protocol": "tdi",
                   "checkpoint_interval": 0.05},
        "faults": _KILL,
    },
    "lu16_tdi_armed": {
        "app": _LU,
        "config": {"nprocs": 16, "protocol": "tdi",
                   "checkpoint_interval": 0.05,
                   "verify": True, "compress_piggybacks": True,
                   "network": {"drop_prob": 0.01},
                   "transport": {"enabled": True}},
        "faults": _KILL,
    },
    "lu16_tdi_detector": {
        "app": _LU,
        "config": {"nprocs": 16, "protocol": "tdi",
                   "checkpoint_interval": 0.05,
                   "detector": {"enabled": True}},
        "faults": _KILL,
    },
    "lu8_tag_kill": {
        "app": _LU,
        "config": {"nprocs": 8, "protocol": "tag",
                   "checkpoint_interval": 0.05},
        "faults": _KILL,
    },
    "ring512_tdi_compress": {
        "app": {"name": "synthetic", "scale": "fast", "pattern": "ring",
                "rounds": 6},
        "config": {"nprocs": 512, "protocol": "tdi",
                   "checkpoint_interval": 10.0,
                   "compress_piggybacks": True},
        "faults": [],
    },
}

_NESTED = {"network": NetworkConfig, "transport": TransportConfig,
           "detector": DetectorConfig}


def build(name: str, seed: int):
    """``(config, app_factory, faults)`` for one workload at one seed."""
    spec = SPECS[name]
    fields = {key: _NESTED[key](**value) if key in _NESTED else value
              for key, value in spec["config"].items()}
    config = SimulationConfig(seed=seed, **fields)
    app = dict(spec["app"])
    factory = workload_factory(app.pop("name"), **app)
    faults = [FaultSpec(**fault) for fault in spec["faults"]]
    return config, factory, faults


def noft_twin(config: SimulationConfig) -> SimulationConfig:
    """The failure-free no-fault-tolerance run of the same application:
    every optional layer off.  Its per-rank results are the reference
    answer, and its host time is the base of ``host_overhead_x``."""
    return SimulationConfig(
        nprocs=config.nprocs, protocol="none", seed=config.seed,
        checkpoint_interval=config.checkpoint_interval)


def fingerprint(name: str) -> str:
    """SHA-256 of the workload spec.  Two records are comparable only
    when their fingerprints (and seeds) match."""
    canon = json.dumps(SPECS[name], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
