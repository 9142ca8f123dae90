"""Top-level simulation configuration.

One :class:`SimulationConfig` fully determines a run together with the
workload factory and the fault schedule; the same config + seed always
reproduces the same trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.faults.detector import DetectorConfig
from repro.metrics.costs import CostModel
from repro.protocols.checkpoint import StorageConfig
from repro.simnet.network import NetworkConfig
from repro.simnet.transport import TransportConfig


@dataclass(frozen=True)
class SimulationConfig:
    """Everything the cluster needs besides the application itself."""

    nprocs: int = 4
    #: a registered protocol name (``repro.protocols.registry``):
    #: ``"tdi"``, ``"tag"``, ``"tel"``, ``"pess"``, ``"part"`` or ``"none"``
    protocol: str = "tdi"
    #: ``"blocking"`` (paper Fig. 4a) or ``"nonblocking"`` (Fig. 4b)
    comm_mode: str = "nonblocking"
    #: seconds of simulated time between checkpoints (paper: 180 s)
    checkpoint_interval: float = 5.0
    #: sends larger than this block until *delivery* at the receiver
    #: (rendezvous); smaller ones complete locally but count against the
    #: per-peer send window (``repro.core.blocking.SEND_WINDOW``) —
    #: blocking mode only
    eager_threshold_bytes: int = 8192
    #: in-band heartbeat accrual failure detection (off by default: the
    #: paper's fail-stop/perfect-detection assumption, a scripted
    #: ``repro.faults.injector.DETECTION_DELAY``)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    #: ship piggybacks in the compressed wire encoding (per-channel
    #: delta/sparse varint records, repro.protocols.compression) instead
    #: of raw identifier arrays.  Off by default: the raw encoding is
    #: the paper-faithful baseline the compressed layer is measured
    #: against (golden-trace-equivalent in delivered messages, oracle
    #: verdicts and recovery outcomes; frame sizes and hence timings
    #: differ)
    compress_piggybacks: bool = False
    #: checkpoint generations retained per rank on stable storage —
    #: the fallback depth when the newest generation turns out torn or
    #: corrupt under a hostile device (>= 1)
    ckpt_history: int = 2
    #: stable-storage impairment model (write failures, torn writes,
    #: latent corruption, stalls); all off by default — the perfect
    #: device the paper assumes
    storage: StorageConfig = field(default_factory=StorageConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    #: reliable-transport layer under the protocols; must be enabled
    #: whenever the network is impaired (nobody else retransmits)
    transport: TransportConfig = field(default_factory=TransportConfig)
    costs: CostModel = field(default_factory=CostModel)
    seed: int = 0
    trace_enabled: bool = False
    #: run the causal-consistency oracle (repro.verify) alongside the
    #: simulation; violations land on ``RunResult.violations``
    verify: bool = False
    #: capture per-rank application-visible message streams for the
    #: record/replay debugger (repro.debug)
    record: bool = False
    #: hard wall for the simulated clock (None = run to completion)
    max_sim_time: float | None = None
    #: engine runaway backstop
    max_events: int = 50_000_000

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if self.comm_mode not in ("blocking", "nonblocking"):
            raise ValueError(f"unknown comm_mode {self.comm_mode!r}")
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be > 0")
        if self.ckpt_history < 1:
            raise ValueError("ckpt_history must be >= 1")
        if self.network.impaired and not self.transport.enabled:
            raise ValueError(
                "network impairments (drop/dup/corrupt/partitions) require "
                "transport.enabled — the raw network does not retransmit, so "
                "an impaired run without the reliable transport would lose "
                "frames the protocols assume delivered"
            )

    def with_(self, **changes) -> "SimulationConfig":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **changes)
