"""Checkpoint-interval selection (Young / Daly).

The paper fixes its checkpoint interval at 180 s; its reference [21]
(El-Sayed & Schroeder) studies how that choice trades checkpoint
overhead against lost work.  This module provides the two classical
closed forms plus an exhaustive-search helper against the simulator, so
the repository can both *pick* an interval analytically and *verify* the
pick empirically (see ``tests/integration/test_daly.py``).

* Young's first-order approximation:  ``sqrt(2 * C * M)``
* Daly's higher-order formula, valid also when ``C`` is not tiny
  relative to ``M``.

``C`` is the checkpoint write cost, ``M`` the system MTBF, ``R`` the
restart cost (read + rollback lead time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def young_interval(ckpt_cost: float, mtbf: float) -> float:
    """Young's approximation of the optimal checkpoint period."""
    if ckpt_cost <= 0 or mtbf <= 0:
        raise ValueError("ckpt_cost and mtbf must be positive")
    return math.sqrt(2.0 * ckpt_cost * mtbf)


def daly_interval(ckpt_cost: float, mtbf: float) -> float:
    """Daly's higher-order optimum (reduces to Young for small C/M)."""
    if ckpt_cost <= 0 or mtbf <= 0:
        raise ValueError("ckpt_cost and mtbf must be positive")
    if ckpt_cost < 2.0 * mtbf:
        root = math.sqrt(2.0 * ckpt_cost * mtbf)
        return root * (1.0 + (1.0 / 3.0) * math.sqrt(ckpt_cost / (2.0 * mtbf))
                       + (1.0 / 9.0) * (ckpt_cost / (2.0 * mtbf))) - ckpt_cost
    return mtbf


@dataclass(frozen=True)
class EfficiencyModel:
    """First-order expected efficiency of periodic checkpointing.

    With period ``tau``, checkpoint cost ``C``, restart cost ``R`` and
    exponential failures at rate ``1/M``: the fraction of wall time
    spent on useful work is approximately::

        useful(tau) = (tau / (tau + C)) * (1 - (R + tau/2) / M)

    — the first factor is the checkpointing tax, the second the
    expected rework + restart tax per failure.
    """

    ckpt_cost: float
    restart_cost: float
    mtbf: float

    def efficiency(self, tau: float) -> float:
        """Modelled useful-work fraction at period ``tau``."""
        if tau <= 0:
            raise ValueError("tau must be positive")
        ckpt_tax = tau / (tau + self.ckpt_cost)
        failure_tax = 1.0 - (self.restart_cost + tau / 2.0) / self.mtbf
        return max(0.0, ckpt_tax * failure_tax)
