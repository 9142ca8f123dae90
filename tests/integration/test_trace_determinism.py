"""Reproducibility across Cluster instances in one process.

Frame ids are assigned per :class:`Network`, so a simulation's trace is
a pure function of (config, workload, faults, seed) — no matter how many
unrelated simulations ran earlier in the same process.  The seed code
used a module-global id counter, so a run's trace depended on process
history: re-running the same experiment after any other run produced
different ``frame_id`` fields, breaking trace diffing and golden files.
"""

import pytest

from repro import api
from tests.integration.test_detection_golden import _trace_digest


def traced_run(protocol="tdi", nprocs=4, **config):
    return api.run_workload(
        "lu", nprocs=nprocs, protocol=protocol, seed=21, trace=True,
        faults=[api.FaultSpec(rank=1, at_time=0.003)], **config,
    )


def assert_rerun_is_identical(protocol="tdi", nprocs=4, **config):
    first = traced_run(protocol, nprocs, **config)
    # pollute process state: unrelated simulations consuming frame ids
    api.run_workload("synthetic", nprocs=3, protocol="tag", seed=5)
    api.run_workload("lu", nprocs=4, protocol="tdi", seed=99,
                     faults=[api.FaultSpec(rank=2, at_time=0.002)])
    second = traced_run(protocol, nprocs, **config)
    assert first.stats.total("recovery_count") == 1
    assert first.trace.events == second.trace.events
    assert _trace_digest(first.trace) == _trace_digest(second.trace)


def test_identical_runs_produce_identical_traces():
    assert_rerun_is_identical()


# TAG and PART piggyback determinant increments: their order (in the
# trace's ``pb`` fields and on the compressed wire) is (receiver,
# deliver_index), not whatever a hash table's history makes it.  The
# short checkpoint period makes both prune mid-run.
@pytest.mark.parametrize("protocol, nprocs", [("tag", 6), ("part", 8)])
def test_identical_runs_produce_identical_determinant_traces(protocol, nprocs):
    assert_rerun_is_identical(protocol, nprocs, checkpoint_interval=0.005)


@pytest.mark.parametrize("protocol", ["tag", "part"])
def test_determinant_piggybacks_are_traced_in_key_order(protocol):
    run = traced_run(protocol, 8, checkpoint_interval=0.005)
    sends = [ev["pb"]["dets"] for ev in run.trace.select("verify.send")]
    assert max(map(len, sends)) > 8
    for dets in sends:
        assert list(dets) == sorted(dets)
        assert " at 0x" not in repr(dets)


def test_frame_ids_start_from_one_per_network():
    run = api.run_workload("lu", nprocs=4, protocol="tdi", seed=21, trace=True)
    ids = sorted({ev["frame_id"] for ev in run.trace.select("net.transmit")})
    assert ids[0] == 1
    assert ids == list(range(1, len(ids) + 1))
