"""Stochastic failure schedules.

The paper injects one fault at a fixed point; real rollback-recovery
evaluations (and its reference [21] on checkpoint scheduling) reason
about failure *processes*.  This module generates reproducible fault
schedules from standard models:

* :func:`poisson_schedule` — exponentially distributed inter-arrival
  times (the memoryless model behind Young/Daly intervals);
* :func:`weibull_schedule` — Weibull inter-arrivals (shape < 1 captures
  the infant-mortality-heavy behaviour observed on real HPC systems).

Each failure strikes a uniformly chosen rank.  Hits that land while the
victim is still down are skipped by the injector (and recorded), which
matches how overlapping faults behave on hardware: a node that is
already dead cannot fail again.
"""

from __future__ import annotations

from repro.faults.injector import FaultSpec
from repro.simnet.rng import RngStreams


def poisson_schedule(
    rng: RngStreams,
    nprocs: int,
    horizon: float,
    mtbf: float,
    stream: str = "faults.poisson",
) -> list[FaultSpec]:
    """Failures as a Poisson process over ``[0, horizon)``.

    ``mtbf`` is the *system* mean time between failures (not per node);
    per-node MTBF is ``mtbf * nprocs``.
    """
    if mtbf <= 0 or horizon <= 0:
        raise ValueError("mtbf and horizon must be positive")
    gen = rng.stream(stream)
    specs: list[FaultSpec] = []
    t = 0.0
    while True:
        t += float(gen.exponential(mtbf))
        if t >= horizon:
            break
        rank = int(gen.integers(0, nprocs))
        specs.append(FaultSpec(rank=rank, at_time=t))
    return specs


def weibull_schedule(
    rng: RngStreams,
    nprocs: int,
    horizon: float,
    scale: float,
    shape: float = 0.7,
    stream: str = "faults.weibull",
) -> list[FaultSpec]:
    """Failures with Weibull inter-arrival times.

    ``shape < 1`` gives the heavy-early-failure clustering reported for
    production HPC systems; ``shape == 1`` degenerates to Poisson.
    """
    if scale <= 0 or horizon <= 0 or shape <= 0:
        raise ValueError("scale, shape and horizon must be positive")
    gen = rng.stream(stream)
    specs: list[FaultSpec] = []
    t = 0.0
    while True:
        t += float(scale * gen.weibull(shape))
        if t >= horizon:
            break
        rank = int(gen.integers(0, nprocs))
        specs.append(FaultSpec(rank=rank, at_time=t))
    return specs
