"""Hostile stable storage end to end.

The crash-consistency story under real runs: a checkpoint device that
fails, tears, rots and stalls must never change what the application
computes.  Recoveries fall back through the generation chain with the
causal oracle silent; visible write failures degrade to skipped
checkpoints; only a device that damages every retained generation may
end the run — and then with a diagnosed :class:`StorageLossError`, not
a wrong answer.
"""

import pytest

from repro import api
from repro.config import SimulationConfig
from repro.core.watchdog import StorageLossError
from repro.mpi.cluster import Cluster
from repro.protocols import checkpoint
from repro.protocols.checkpoint import StorageConfig
from repro.workloads.presets import workload_factory

PROTOCOLS = ("tdi", "tag", "tel")


def first_periodic_commit(protocol, rank, **kw):
    """Probe run: when rank's first periodic checkpoint begins, commits,
    and when its second begins (simulated seconds)."""
    probe = run(protocol, trace=True, **kw)
    writes = [e for e in probe.trace.select(kind="ckpt.write", rank=rank)
              if e.time > 0]
    assert len(writes) >= 2, "probe run checkpointed less than twice"
    duration = probe.config.costs.ckpt_write_time(writes[0]["size"])
    return writes[0].time, writes[0].time + duration, writes[1].time


def config(protocol, *, comm_mode="nonblocking", storage=None, history=2,
           interval=0.002, seed=21, verify=False, trace=False, **extra):
    return SimulationConfig(
        nprocs=4, protocol=protocol, comm_mode=comm_mode,
        checkpoint_interval=interval, seed=seed, verify=verify,
        trace_enabled=trace, ckpt_history=history,
        storage=storage if storage is not None else StorageConfig(),
        **extra)


def run(protocol, *, faults=None, **kw):
    return api.run_workload("lu", protocol=protocol,
                            config=config(protocol, **kw), faults=faults)


def reference(protocol, **kw):
    return run(protocol, **kw).results


# ----------------------------------------------------------------------
# Golden equivalence: armed-but-unfired knobs change nothing
# ----------------------------------------------------------------------

@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("comm_mode", ("nonblocking", "blocking"))
def test_unfired_storage_knobs_are_byte_identical(protocol, comm_mode,
                                                  monkeypatch):
    """All probabilities zero => the impairment substream is never
    consulted, whatever the stall and retry constants say — the run is
    identical to one with the default perfect device, event for event."""
    base = run(protocol, comm_mode=comm_mode)
    for name, value in (("STALL_MAX", 9e-3), ("MAX_WRITE_RETRIES", 7),
                        ("RETRY_BACKOFF", 1e-3), ("RETRY_BACKOFF_MAX", 8e-3)):
        monkeypatch.setattr(checkpoint, name, value)
    armed = run(protocol, comm_mode=comm_mode)
    assert armed.results == base.results
    assert armed.accomplishment_time == base.accomplishment_time
    assert armed.events_fired == base.events_fired
    assert armed.checkpoint_writes == base.checkpoint_writes


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_deeper_history_is_byte_identical_on_a_clean_device(protocol):
    """More retained generations only matter once the device is
    hostile (GC lag stays 0 on a clean one)."""
    base = run(protocol, faults=[api.FaultSpec(rank=1, at_time=0.004)])
    deep = run(protocol, history=4,
               faults=[api.FaultSpec(rank=1, at_time=0.004)])
    assert deep.results == base.results
    assert deep.accomplishment_time == base.accomplishment_time
    assert deep.events_fired == base.events_fired


# ----------------------------------------------------------------------
# Scripted torn-write-then-crash: fallback recovery
# ----------------------------------------------------------------------

@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_torn_write_then_crash_recovers_from_older_generation(protocol):
    """Rank 1's first periodic checkpoint is torn; the crash arrives
    after its commit but before the next write begins, so recovery
    checksums the torn head, falls back to the initial generation — and
    the answer still matches."""
    _, commit_at, next_begin = first_periodic_commit(protocol, rank=1)
    kill_at = commit_at + (next_begin - commit_at) / 2
    ref = reference(protocol)
    r = run(protocol, verify=True,
            faults=[api.StorageFaultSpec(rank=1, at_time=0.0, kind="torn"),
                    api.FaultSpec(rank=1, at_time=kill_at)])
    assert r.results == ref
    assert r.violations == []
    assert r.stats.total("storage_fallbacks") >= 1
    assert r.stats.total("ckpt_torn_writes") == 1
    assert r.stats.total("recovery_count") == 1


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_bit_rot_then_crash_falls_back(protocol):
    """Latent corruption strikes the newest committed generation just
    before the kill: same fallback path, detected by checksum."""
    _, commit_at, next_begin = first_periodic_commit(protocol, rank=2)
    rot_at = commit_at + (next_begin - commit_at) / 3
    kill_at = commit_at + 2 * (next_begin - commit_at) / 3
    ref = reference(protocol)
    r = run(protocol, verify=True,
            faults=[api.StorageFaultSpec(rank=2, at_time=rot_at,
                                         kind="corrupt"),
                    api.FaultSpec(rank=2, at_time=kill_at)])
    assert r.results == ref
    assert r.violations == []
    assert r.stats.total("storage_fallbacks") >= 1
    assert r.stats.total("ckpt_corrupt_generations") >= 1


def test_kill_during_checkpoint_write_leaves_torn_generation():
    """A crash landing inside the simulated write window leaves the
    generation uncommitted — write-new-then-commit means the previous
    image survives and recovery proceeds from it."""
    # probe: find when rank 1's first periodic checkpoint write begins
    probe = run("tdi", trace=True)
    writes = [e for e in probe.trace.select(kind="ckpt.write", rank=1)
              if e.time > 0]
    assert writes, "probe run recorded no periodic checkpoint for rank 1"
    begin = writes[0]
    duration = probe.config.costs.ckpt_write_time(begin["size"])
    kill_at = begin.time + duration / 2

    cfg = config("tdi", verify=True)
    cluster = Cluster(cfg, workload_factory("lu", scale="fast"))
    ref = reference("tdi")
    result = cluster.run([api.FaultSpec(rank=1, at_time=kill_at)])
    assert result.results == ref
    assert result.violations == []
    chain = cluster.checkpoints.generations(1)
    assert any(not gen.committed for gen in chain), \
        "the mid-write kill should have stranded an uncommitted generation"
    # the stranded write is skipped silently: not a checksum fallback
    assert result.stats.total("storage_fallbacks") == 0


# ----------------------------------------------------------------------
# Degraded mode: visible write failures, retries, skips
# ----------------------------------------------------------------------

@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_write_failures_retry_then_skip_and_the_run_completes(protocol):
    ref = reference(protocol)
    r = run(protocol, verify=True,
            faults=[api.StorageFaultSpec(rank=0, at_time=0.0,
                                         kind="write_fail", count=10)])
    assert r.results == ref
    assert r.violations == []
    assert r.stats.total("ckpt_write_failures") >= 4
    assert r.stats.total("ckpt_write_retries") >= 3
    assert r.stats.total("ckpt_skipped") >= 1
    assert r.stats.total("storage_exposure_time") > 0


def test_degraded_run_reports_storage_lines():
    r = run("tdi",
            faults=[api.StorageFaultSpec(rank=0, at_time=0.0,
                                         kind="write_fail", count=10)])
    assert r.stats.total("ckpt_write_failures") > 0
    assert r.stats.total("ckpt_skipped") > 0
    assert r.stats.total("storage_exposure_time") > 0


def test_device_stall_stretches_checkpoint_time():
    base = run("tdi")
    r = run("tdi", faults=[api.StorageFaultSpec(rank=0, at_time=0.0,
                                                kind="stall", count=2,
                                                duration=0.004)])
    assert r.results == base.results
    assert r.stats.total("ckpt_stall_time") == pytest.approx(0.008)


# ----------------------------------------------------------------------
# Total loss: every retained generation damaged
# ----------------------------------------------------------------------

def test_all_generations_damaged_raises_diagnosed_loss():
    with pytest.raises(StorageLossError, match="no readable checkpoint"):
        run("tdi", history=1,
            faults=[api.StorageFaultSpec(rank=1, at_time=0.0041,
                                         kind="corrupt"),
                    api.FaultSpec(rank=1, at_time=0.0042)])


# ----------------------------------------------------------------------
# Probabilistic hostile device under crashes (the fuzz band in miniature)
# ----------------------------------------------------------------------

HOSTILE = StorageConfig(write_fail_prob=0.15, torn_write_prob=0.03,
                        latent_corrupt_prob=0.03, stall_prob=0.1)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_hostile_device_under_staggered_crashes(protocol):
    ref = reference(protocol)
    r = run(protocol, storage=HOSTILE, history=3, interval=0.001,
            verify=True,
            faults=list(api.staggered([0, 2], start=0.003, gap=0.003)))
    assert r.results == ref
    assert r.violations == []
    assert r.stats.total("recovery_count") == 2
    # the device actually misbehaved (seeded, so this is deterministic)
    assert (r.stats.total("ckpt_write_failures")
            + r.stats.total("ckpt_torn_writes")
            + r.stats.total("ckpt_corrupt_generations")
            + r.stats.total("ckpt_stall_time")) > 0


@pytest.mark.parametrize("comm_mode", ("nonblocking", "blocking"))
def test_hostile_device_is_deterministic(comm_mode):
    a = run("tdi", comm_mode=comm_mode, storage=HOSTILE, history=3,
            faults=[api.FaultSpec(rank=1, at_time=0.004)])
    b = run("tdi", comm_mode=comm_mode, storage=HOSTILE, history=3,
            faults=[api.FaultSpec(rank=1, at_time=0.004)])
    assert a.results == b.results
    assert a.events_fired == b.events_fired
    assert a.accomplishment_time == b.accomplishment_time
