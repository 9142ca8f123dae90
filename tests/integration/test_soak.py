"""Soak tests: stochastic failure processes over longer runs.

The correctness contract is unchanged — any fault schedule must leave
the answer untouched — but Poisson/Weibull schedules exercise the
overlap cases (faults during recovery, back-to-back faults on one rank,
cluster-wide bursts) far more aggressively than hand-placed specs.
"""

import pytest

from repro import api
from repro.faults.schedules import poisson_schedule, weibull_schedule
from repro.simnet.rng import RngStreams


def reference(workload, nprocs, seed, **kw):
    return api.run_workload(workload, nprocs=nprocs, protocol="tdi",
                            seed=seed, **kw).results


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_poisson_soak_lu(seed):
    ref = reference("lu", 8, seed, iterations=16)
    faults = poisson_schedule(RngStreams(seed), nprocs=8, horizon=0.02,
                              mtbf=0.006)
    assert faults, "schedule should produce at least one failure"
    r = api.run_workload("lu", nprocs=8, protocol="tdi", seed=seed,
                         iterations=16, faults=faults)
    assert r.results == ref
    assert r.stats.total("recovery_count") >= 1
    assert len(r.detector.failures) == r.stats.total("recovery_count")


@pytest.mark.parametrize("seed", (4, 5))
def test_poisson_soak_synthetic(seed):
    ref = reference("synthetic", 6, seed, rounds=20)
    faults = poisson_schedule(RngStreams(seed * 11), nprocs=6, horizon=0.01,
                              mtbf=0.0025)
    r = api.run_workload("synthetic", nprocs=6, protocol="tdi", seed=seed,
                         rounds=20, faults=faults)
    assert r.results == ref


def test_weibull_soak_with_early_clustering():
    ref = reference("synthetic", 6, 9, rounds=20)
    faults = weibull_schedule(RngStreams(9), nprocs=6, horizon=0.01,
                              scale=0.004, shape=0.6)
    r = api.run_workload("synthetic", nprocs=6, protocol="tdi", seed=9,
                         rounds=20, faults=faults)
    assert r.results == ref


def test_soak_records_skipped_overlaps():
    """Overlapping hits on a down rank are recorded, not errors."""
    from repro.config import SimulationConfig
    from repro.mpi.cluster import Cluster
    from repro.workloads.presets import workload_factory

    faults = poisson_schedule(RngStreams(13), nprocs=4, horizon=0.02,
                              mtbf=0.002)
    assert len(faults) >= 5
    cfg = SimulationConfig(nprocs=4, protocol="tdi", seed=13)
    cluster = Cluster(cfg, workload_factory("lu", scale="fast", iterations=16))
    result = cluster.run(faults)
    hits = len(cluster.injector.injected)
    skips = len(cluster.injector.skipped)
    assert hits + skips == len(faults)
    assert result.stats.total("recovery_count") == hits
    ref = reference("lu", 4, 13, iterations=16)
    assert result.results == ref
