"""CG and MG extension workloads: same correctness contract as the
paper's three benchmarks."""

import pytest

from repro import api

PROTOCOLS = ("tdi", "tag", "tel", "pess")


@pytest.mark.parametrize("workload", ("cg", "mg"))
def test_protocol_transparency(workload):
    baseline = api.run_workload(workload, nprocs=4, protocol="none", seed=101).results
    for protocol in PROTOCOLS:
        r = api.run_workload(workload, nprocs=4, protocol=protocol, seed=101)
        assert r.results == baseline, protocol


@pytest.mark.parametrize("workload", ("cg", "mg"))
@pytest.mark.parametrize("protocol", ("tdi", "tag", "tel"))
def test_single_fault_recovery(workload, protocol):
    ref = api.run_workload(workload, nprocs=4, protocol="tdi", seed=101).results
    r = api.run_workload(workload, nprocs=4, protocol=protocol, seed=101,
                         faults=[api.FaultSpec(rank=2, at_time=0.003)])
    assert r.results == ref


@pytest.mark.parametrize("workload", ("cg", "mg"))
def test_simultaneous_failures(workload):
    ref = api.run_workload(workload, nprocs=8, protocol="tdi", seed=102).results
    r = api.run_workload(workload, nprocs=8, protocol="tdi", seed=102,
                         faults=api.simultaneous([1, 4], at_time=0.004))
    assert r.results == ref
    assert r.stats.total("recovery_count") == 2


@pytest.mark.parametrize("workload", ("cg", "mg"))
@pytest.mark.parametrize("nprocs", (2, 3, 5, 8))
def test_odd_process_counts(workload, nprocs):
    r = api.run_workload(workload, nprocs=nprocs, protocol="tdi", seed=103)
    key = "rho" if workload == "cg" else "resid"
    assert len({round(res[key], 9) for res in r.results}) == 1


@pytest.mark.parametrize("workload", ("cg", "mg"))
def test_blocking_mode_no_deadlock(workload):
    # CG segments (16 KiB) and MG fine halos (32 KiB) are rendezvous-sized
    ref = api.run_workload(workload, nprocs=5, protocol="tdi", seed=104).results
    r = api.run_workload(workload, nprocs=5, protocol="tdi", seed=104,
                         comm_mode="blocking")
    assert r.results == ref
    assert r.stats.total("blocked_time") > 0


def test_mg_mixed_message_sizes():
    r = api.run_workload("mg", nprocs=4, protocol="tdi", seed=105, trace=True)
    sizes = {ev["size"] for ev in r.trace.select("net.transmit")
             if ev["frame_kind"] == "app"}
    # V-cycle levels produce several distinct wire sizes
    assert len(sizes) >= 3


def test_cg_reduction_heavy():
    r = api.run_workload("cg", nprocs=8, protocol="tdi", seed=106)
    # 2 allreduces/iter on 8 ranks contribute a large share of messages
    assert r.stats.messages_total > 8 * 6  # more than the matvec alone
