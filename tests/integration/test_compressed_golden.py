"""Golden-trace equivalence of the compressed piggyback wire formats.

``SimulationConfig.compress_piggybacks`` swaps the bytes on the wire,
not the protocol: for a pinned seed matrix spanning protocols, comm
modes, fault schedules and scales up to 32 ranks, runs with compression
on must produce the same per-rank answers and the same per-rank
delivered-message multisets as the raw encoding, with a clean causal
oracle and the same recovery count.  Accomplishment *times* are
deliberately not compared — compressed frames are smaller, so the
simulated wire is honestly faster.
"""

import pytest

from repro.faults.injector import FaultSpec
from repro.config import SimulationConfig
from repro.harness.runner import RunRequest
from repro.simnet.network import NetworkConfig
from repro.simnet.transport import TransportConfig

PROTOCOLS = ("tdi", "tag", "tel")

#: pinned fault schedules: none, a single mid-run kill, closely
#: staggered kills of two victims (overlapping recoveries), and a
#: simultaneous double kill
FAULT_SCHEDULES = {
    "ff": (),
    "single": (FaultSpec(rank=2, at_time=0.004),),
    "staggered": (FaultSpec(rank=1, at_time=0.003),
                  FaultSpec(rank=4, at_time=0.0045)),
    "simultaneous": (FaultSpec(rank=0, at_time=0.005),
                     FaultSpec(rank=3, at_time=0.005)),
}


def _summary(protocol, *, compress, faults=(), nprocs=6, workload="lu",
             comm_mode="nonblocking", workload_kwargs=(), seed=3,
             wire=None):
    request = RunRequest(
        key=(protocol, compress),
        workload=workload,
        preset="fast",
        config=SimulationConfig(
            nprocs=nprocs, protocol=protocol, comm_mode=comm_mode,
            checkpoint_interval=0.01, seed=seed, verify=True, record=True,
            compress_piggybacks=compress, **(wire or {})),
        faults=tuple(faults),
        strict_verify=False,
        workload_kwargs=tuple(workload_kwargs),
    )
    return request.execute()


def _recoveries(summary) -> int:
    return sum(int(m["recovery_count"]) for m in summary.per_rank)


def _assert_equivalent(compressed, raw) -> None:
    assert compressed.violations == [] and raw.violations == []
    assert compressed.results == raw.results
    assert compressed.delivered == raw.delivered
    assert _recoveries(compressed) == _recoveries(raw)


class TestGoldenEquivalence:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("comm_mode", ["blocking", "nonblocking"])
    def test_failure_free(self, protocol, comm_mode):
        raw = _summary(protocol, compress=False, comm_mode=comm_mode)
        compressed = _summary(protocol, compress=True, comm_mode=comm_mode)
        _assert_equivalent(compressed, raw)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("schedule", ["single", "staggered",
                                          "simultaneous"])
    def test_faulted(self, protocol, schedule):
        faults = FAULT_SCHEDULES[schedule]
        raw = _summary(protocol, compress=False, faults=faults)
        compressed = _summary(protocol, compress=True, faults=faults)
        _assert_equivalent(compressed, raw)
        assert _recoveries(compressed) > 0

    def test_thirty_two_ranks_with_fault(self):
        """The issue's scale bound: equivalence holds at n=32."""
        kwargs = (("rounds", 5), ("pattern", "ring"))
        faults = (FaultSpec(rank=7, at_time=0.003),)
        raw = _summary("tdi", compress=False, nprocs=32,
                       workload="synthetic", workload_kwargs=kwargs,
                       faults=faults)
        compressed = _summary("tdi", compress=True, nprocs=32,
                              workload="synthetic", workload_kwargs=kwargs,
                              faults=faults)
        _assert_equivalent(compressed, raw)

    def test_lossy_wire_with_fault(self):
        """Compressed records ride the reliable transport over an
        impaired wire through a crash without leaking into behaviour."""
        wire = {"network": NetworkConfig(drop_prob=0.02, dup_prob=0.02,
                                         corrupt_prob=0.01),
                "transport": TransportConfig(enabled=True)}
        faults = (FaultSpec(rank=2, at_time=0.004),)
        for protocol in PROTOCOLS:
            raw = _summary(protocol, compress=False, faults=faults, wire=wire)
            compressed = _summary(protocol, compress=True, faults=faults,
                                  wire=wire)
            assert compressed.violations == [], protocol
            assert compressed.results == raw.results, protocol


class TestCompressionCounters:
    def test_wire_beats_raw_and_reaches_the_report(self):
        compressed = _summary("tdi", compress=True)
        raw_bytes = sum(m["piggyback_bytes_raw"] for m in compressed.per_rank)
        wire_bytes = sum(m["piggyback_bytes_wire"] for m in compressed.per_rank)
        assert 0 < wire_bytes < raw_bytes
        # undecodable drops only ever happen around failures
        assert sum(m["pb_undecodable_drops"]
                   for m in compressed.per_rank) == 0

    def test_raw_mode_puts_nothing_on_the_wire_counter(self):
        raw = _summary("tdi", compress=False)
        assert sum(m["piggyback_bytes_wire"] for m in raw.per_rank) == 0
        assert sum(m["piggyback_bytes_raw"] for m in raw.per_rank) > 0
