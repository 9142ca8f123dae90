"""Golden-trace equivalence of dynamic membership.

A rank that joins before the first application send is
indistinguishable from one that was there all along: for a pinned seed,
runs where the two highest ranks start as deferred capacity slots and
join at t=0 must produce the same per-rank answers, the same per-rank
delivered-message multisets, a clean causal oracle and the same
behavioural counters as the fixed-n run — across every protocol, both
comm modes, and both piggyback wire encodings.  JOIN/LEAVE control
frames draw their latency jitter from a dedicated RNG stream
(``net.jitter.mship``) precisely so the membership machinery cannot
perturb the main jitter sequence and break this equivalence.

Mid-run churn (a join after traffic has flowed, a leave-then-rejoin
cycle) cannot be counter-identical — resend and recovery machinery
legitimately runs — but the application-visible outcome must still
match the fixed-n run, with the oracle silent throughout.
"""

import pytest

from repro.faults.injector import FaultSpec, JoinSpec, LeaveSpec
from repro.config import SimulationConfig
from repro.harness.runner import RunRequest

PROTOCOLS = ("tdi", "tag", "tel")

#: the two highest ranks start deferred and join before the first send
PRE_SEND_JOINS = (JoinSpec(rank=4, at_time=0.0), JoinSpec(rank=5, at_time=0.0))

#: per-rank counters that must be identical when the joins precede all
#: traffic.  Piggyback volume is compared as a bound, not for equality:
#: peers keep their pre-join horizon until the JOIN broadcast *arrives*
#: (one network latency after t=0), so their earliest sends carry
#: shorter — never longer — vectors.  Timings are not compared at all.
GOLDEN_COUNTERS = (
    "app_sends", "app_delivers", "duplicates_discarded",
    "app_sends_suppressed", "resends", "recovery_count",
    "checkpoints_taken",
)


def _summary(protocol, *, faults=(), compress=False, nprocs=6,
             comm_mode="nonblocking", seed=3):
    request = RunRequest(
        key=(protocol, comm_mode, compress, bool(faults)),
        workload="lu",
        preset="fast",
        config=SimulationConfig(
            nprocs=nprocs, protocol=protocol, comm_mode=comm_mode,
            checkpoint_interval=0.01, seed=seed, verify=True, record=True,
            compress_piggybacks=compress),
        faults=tuple(faults),
        strict_verify=False,
    )
    return request.execute()


def _counters(summary):
    return [{name: int(m[name]) for name in GOLDEN_COUNTERS}
            for m in summary.per_rank]


def _recoveries(summary) -> int:
    return sum(int(m["recovery_count"]) for m in summary.per_rank)


class TestPreSendJoinGolden:
    """Joins before the first send are invisible to everything."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("comm_mode", ["blocking", "nonblocking"])
    @pytest.mark.parametrize("compress", [False, True])
    def test_golden_equivalence(self, protocol, comm_mode, compress):
        fixed = _summary(protocol, comm_mode=comm_mode, compress=compress)
        joined = _summary(protocol, comm_mode=comm_mode, compress=compress,
                          faults=PRE_SEND_JOINS)
        assert fixed.violations == [] and joined.violations == []
        assert joined.results == fixed.results
        assert joined.delivered == fixed.delivered
        assert _counters(joined) == _counters(fixed)
        # lazy horizon growth can only ever shrink piggyback volume
        for mine, theirs in zip(joined.per_rank, fixed.per_rank):
            assert (int(mine["piggyback_identifiers"])
                    <= int(theirs["piggyback_identifiers"]))
        # an establishment join is a fresh incarnation, not a recovery
        assert _recoveries(joined) == 0


class TestMidRunChurn:
    """Churn after traffic has flowed: same answers, silent oracle."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_mid_run_join_matches_results(self, protocol):
        fixed = _summary(protocol, seed=7)
        joined = _summary(protocol, seed=7,
                          faults=(JoinSpec(rank=5, at_time=0.002),))
        assert joined.violations == []
        assert joined.results == fixed.results
        assert joined.delivered == fixed.delivered
        assert _recoveries(joined) == 0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_leave_then_rejoin_matches_results(self, protocol):
        fixed = _summary(protocol, seed=7)
        cycled = _summary(protocol, seed=7,
                          faults=(LeaveSpec(rank=2, at_time=0.003),
                                  JoinSpec(rank=2, at_time=0.006)))
        assert cycled.violations == []
        assert cycled.results == fixed.results
        assert cycled.delivered == fixed.delivered
        # the rejoin recovers from the leaver's last checkpoint exactly
        # like a crash victim would
        assert _recoveries(cycled) >= 1

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_churn_overlapping_crash(self, protocol):
        fixed = _summary(protocol, seed=7)
        mixed = _summary(protocol, seed=7,
                         faults=(JoinSpec(rank=5, at_time=0.002),
                                 FaultSpec(rank=1, at_time=0.0035),
                                 LeaveSpec(rank=2, at_time=0.003),
                                 JoinSpec(rank=2, at_time=0.006)))
        assert mixed.violations == []
        assert mixed.results == fixed.results
        assert mixed.delivered == fixed.delivered
        assert _recoveries(mixed) >= 2

    def test_compressed_cycle_matches_raw(self):
        """A leave-then-rejoin cycle under the compressed wire formats:
        the encoder reset on departure and the counted-full restart on
        rejoin stay behaviourally invisible."""
        faults = (LeaveSpec(rank=2, at_time=0.003),
                  JoinSpec(rank=2, at_time=0.006))
        raw = _summary("tdi", seed=7, faults=faults)
        compressed = _summary("tdi", seed=7, faults=faults, compress=True)
        assert compressed.violations == []
        assert compressed.results == raw.results
        assert compressed.delivered == raw.delivered
