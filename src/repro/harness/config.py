"""Experiment matrices and defaults.

The paper's evaluation runs LU, BT and SP at 4, 8, 16 and 32 processes
with a 180-second checkpoint interval on 100 Mb Ethernet.  We keep the
process scales and the benchmark set, and scale the time base down: the
``fast`` preset gives sub-second sanity runs, the ``paper`` preset keeps
several checkpoint intervals per run and the same communication-signature
ratios the figures are sensitive to.
"""

from __future__ import annotations

from dataclasses import dataclass


PAPER_SCALES = (4, 8, 16, 32)
PAPER_WORKLOADS = ("lu", "bt", "sp")
FIGURE_PROTOCOLS = ("tdi", "tag", "tel")


@dataclass(frozen=True)
class ExperimentOptions:
    """Knobs shared by all figure experiments."""

    workloads: tuple[str, ...] = PAPER_WORKLOADS
    scales: tuple[int, ...] = PAPER_SCALES
    protocols: tuple[str, ...] = FIGURE_PROTOCOLS
    #: workload preset scale: "fast" or "paper"
    preset: str = "paper"
    #: simulated seconds between checkpoints (the paper's 180 s, scaled)
    checkpoint_interval: float = 0.05
    seed: int = 1
    #: run every cell under the causal-consistency oracle (repro.verify);
    #: any invariant violation aborts the experiment
    verify: bool = False


FAST_OPTIONS = ExperimentOptions(preset="fast", scales=(4, 8), checkpoint_interval=0.02)
PAPER_OPTIONS = ExperimentOptions()
