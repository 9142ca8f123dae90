"""Overlapping recovery end-to-end: the epoch fix, the watchdog, and
the piggyback overhead bound.

The scenario throughout is the fuzzer's seed-35 fault schedule (corpus
entries ``tdi-overlapping-recovery-deadlock`` and
``tdi-three-way-overlapping-recovery``): ranks 3, 0 and 2 of a 4-rank
LU run killed ~1.3 ms apart, each dying while the previous victim is
still rolling forward.  Pre-fix this wedged the simulation; with
incarnation epochs it completes, and with the fix *removed* the
watchdog turns the silent wedge into an aborting diagnosis.
"""

from unittest import mock

import pytest

from repro import api
from repro.config import SimulationConfig
from repro.core import watchdog
from repro.core.tdi import TdiProtocol
from repro.core.watchdog import RecoveryStallError
from repro.protocols.base import DeliveryVerdict

THREE_WAY_FAULTS = [
    api.FaultSpec(rank=3, at_time=0.0029369310572416574),
    api.FaultSpec(rank=0, at_time=0.004217318527506236),
    api.FaultSpec(rank=2, at_time=0.005497705997770815),
]


def overlap_config(**overrides):
    return SimulationConfig(
        nprocs=4, protocol="tdi", seed=599908, comm_mode="nonblocking",
        checkpoint_interval=1.0, eager_threshold_bytes=8192, **overrides)


def run_three_way(config):
    return api.run_app(
        lambda rank, nprocs, rng=None: _lu_app(rank, nprocs),
        config, THREE_WAY_FAULTS)


def _lu_app(rank, nprocs):
    from repro.workloads.presets import workload_factory

    return workload_factory("lu", scale="fast", iterations=2)(
        rank, nprocs, None)


def epoch_blind_classify(self, frame_meta, src):
    """The pre-fix delivery gate: counts without incarnation epochs."""
    send_index = frame_meta["send_index"]
    last = self.vectors.last_deliver_index[src]
    if send_index <= last:
        return DeliveryVerdict.DUPLICATE
    if send_index > last + 1:
        return DeliveryVerdict.DEFER
    if self.depend_interval.own_interval >= frame_meta["pb"][self.rank]:
        return DeliveryVerdict.DELIVER
    return DeliveryVerdict.DEFER


def epoch_blind_merge(self, piggyback):
    """The pre-fix merge: pointwise max, epochs ignored."""
    merged = [max(a, b) for a, b in zip(self._v, piggyback)]
    merged[self.owner] = self._v[self.owner]
    changed = sum(a != b for a, b in zip(self._v, merged))
    self._v[:] = merged  # in place: the store is a flat array, not a list
    return changed


def epoch_blind_protocol():
    """Context managers reverting every epoch mechanism to the pre-fix
    count-only design: the gate compares raw counts, merges inflate
    entries with a dead incarnation's values, and a peer's ROLLBACK no
    longer re-tags its entry."""
    from repro.core.vectors import DependIntervalVector

    return (
        mock.patch.object(TdiProtocol, "classify", epoch_blind_classify),
        mock.patch.object(DependIntervalVector, "merge", epoch_blind_merge),
        mock.patch.object(DependIntervalVector, "observe_rollback",
                          lambda self, rank, interval, epoch: False),
    )


class TestOverlappingRecovery:
    def test_three_way_overlap_completes_with_the_epoch_gate(self):
        r = run_three_way(overlap_config(verify=True))
        assert r.violations == []
        assert r.stats.total("recovery_count") == 3

    def test_epoch_blind_gate_aborts_via_watchdog_with_diagnosis(self, monkeypatch):
        """Induced deadlock: with the epoch clamp removed, the run must
        *terminate* through the watchdog — escalation first, then a
        RecoveryStallError naming the wedged ranks and the blocking
        interval requirements — instead of wedging silently."""
        monkeypatch.setattr(watchdog, "RECOVERY_ESCALATE_AFTER", 0.02)
        monkeypatch.setattr(watchdog, "RECOVERY_ABORT_AFTER", 0.08)
        config = overlap_config()
        gate, merge, observe = epoch_blind_protocol()
        with gate, merge, observe:
            with pytest.raises(RecoveryStallError) as exc:
                run_three_way(config)
        message = str(exc.value)
        assert "made no progress" in message
        assert "escalation fired" in message
        # every wedged rank is named with what it waits on, plus the
        # per-frame explanation of what blocks the receiving queue
        assert "rank 0 [recovering, epoch 1]: recv(source=2" in message
        assert "rank 2 [recovering, epoch 1]: recv(source=0" in message
        assert "rank 3 [recovering, epoch 1]: recv(source=2" in message
        assert "waits for predecessor" in message

    def test_watchdog_counters_stay_zero_on_healthy_recovery(self):
        r = run_three_way(overlap_config())
        assert r.stats.total("recovery_escalations") == 0


class TestPiggybackOverhead:
    def test_failure_free_piggyback_is_n_plus_one(self):
        r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=599908,
                             iterations=2)
        assert r.stats.piggyback_identifiers_per_message == pytest.approx(5)

    def test_faulted_piggyback_adds_at_most_n_identifiers(self):
        # epoch tagging may grow the piggyback to 2n+1 — never beyond:
        # the protocol stays linear in system scale (paper Fig. 6)
        r = run_three_way(overlap_config())
        per_message = r.stats.piggyback_identifiers_per_message
        assert 5 < per_message <= 2 * 4 + 1
