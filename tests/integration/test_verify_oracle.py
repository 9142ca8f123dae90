"""The causal-consistency oracle (repro.verify), proven both ways.

Soundness: every protocol, run correctly through the existing fault
scenarios with ``verify=True``, reports zero violations — the oracle
must not cry wolf on legal executions (deferred deliveries, rollbacks,
regenerated logs, duplicate discards are all *correct* behaviour).

Completeness: mutation testing.  Each safety mechanism of Algorithm 1 is
disabled in turn — the delivery gate (line 17), the piggyback merge
(lines 22–24), duplicate suppression, checkpoint-bounded GC (line 39) —
and the oracle must catch the resulting protocol violation, because its
shadow state is reconstructed from raw observation events, not from the
bookkeeping the mutation corrupts.
"""

from unittest import mock

import pytest

from repro import api
from repro.config import SimulationConfig
from repro.core.recovery import SenderLoggingProtocol
from repro.core.tdi import TdiProtocol
from repro.core.vectors import DependIntervalVector
from repro.protocols.base import DeliveryVerdict
from repro.verify.violations import (
    CAUSAL_GATE,
    EXACTLY_ONCE,
    GC_SAFETY,
    MONOTONICITY,
    PIGGYBACK_COMPLETENESS,
)
from repro.workloads.base import Application

PROTOCOLS = ("tdi", "tag", "tel", "pess", "part")


def kinds(result):
    return {v.invariant for v in result.violations}


# ======================================================================
# Soundness: correct protocols never trip the oracle
# ======================================================================

@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("workload", ("lu", "synthetic"))
def test_clean_single_fault_run_has_no_violations(protocol, workload):
    r = api.run_workload(workload, nprocs=4, protocol=protocol, seed=21,
                         verify=True,
                         faults=[api.FaultSpec(rank=1, at_time=0.003)])
    assert r.violations == []


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_clean_failure_free_run_has_no_violations(protocol):
    r = api.run_workload("lu", nprocs=4, protocol=protocol, seed=21,
                         verify=True)
    assert r.violations == []


def test_clean_multi_failure_run_has_no_violations():
    faults = api.simultaneous([1, 2], at_time=0.004) + [
        api.FaultSpec(rank=2, at_time=0.012)
    ]
    r = api.run_workload("lu", nprocs=8, protocol="tdi", seed=9,
                         verify=True, faults=faults)
    assert r.violations == []
    assert r.stats.total("recovery_count") == 3


def test_clean_run_with_frequent_checkpoints_and_gc():
    # tight interval: many CHECKPOINT_ADVANCE releases to judge
    r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=0,
                         verify=True, checkpoint_interval=0.001)
    assert r.violations == []
    assert r.stats.total("log_items_released") > 0


def test_clean_blocking_mode_run_has_no_violations():
    r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=21,
                         comm_mode="blocking", verify=True,
                         faults=[api.FaultSpec(rank=1, at_time=0.004)])
    assert r.violations == []


def test_verify_off_reports_nothing():
    r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=21)
    assert r.violations == []


@pytest.mark.parametrize("protocol", ("tdi", "tag", "tel"))
def test_clean_staggered_repeat_rollback_has_no_violations(protocol):
    """A survivor of its own earlier failure clamps the suppression
    index it learned from a peer's previous incarnation when that peer
    fails later.  The reset is legal — entry k of
    rollback_last_send_index may decrease when peer k begins a new
    incarnation — so the monotonicity invariant must stay silent."""
    r = api.run_workload("lu", nprocs=4, protocol=protocol, seed=0,
                         verify=True, checkpoint_interval=0.002,
                         faults=[api.FaultSpec(rank=1, at_time=0.002),
                                 api.FaultSpec(rank=3, at_time=0.006)])
    assert r.violations == []


# ======================================================================
# Completeness: mutations must trip the oracle
# ======================================================================

class OrphanBait(Application):
    """Minimal scenario where the delivery gate is load-bearing.

    Rank 0 delivers a large message m1 from rank 1, then tells rank 2
    (y); rank 2's reply z therefore causally depends on rank 0's
    interval 1.  When rank 0 fails and rolls back to interval 0, both m1
    and z are re-sent — and z (64 B) always beats m1 (256 kB) to the
    wire.  Rank 0's first replayed receive is a wildcard, so only the
    gate (Algorithm 1 line 17) stops z from being delivered before the
    state it depends on exists again — the paper's orphan scenario.
    """

    name = "orphan-bait"

    def snapshot(self):
        return {}

    def restore(self, state):
        pass

    def snapshot_size_bytes(self):
        return 1024

    def run(self, ctx):
        if self.rank == 0:
            m1 = yield ctx.recv(tag=0)
            yield ctx.send(2, "y", tag=0)
            z = yield ctx.recv(tag=0)
            yield ctx.compute(0.05)  # stay alive for the fault
            return (m1.payload, z.payload)
        elif self.rank == 1:
            yield ctx.send(0, "m1", tag=0, size_bytes=256_000)
            return "m1-sent"
        else:
            y = yield ctx.recv(tag=0)
            del y
            yield ctx.send(0, "z", tag=0)
            return "z-sent"


def run_orphan_bait():
    config = SimulationConfig(nprocs=3, protocol="tdi", seed=0, verify=True)
    faults = [api.FaultSpec(rank=0, at_time=0.024)]
    return api.run_app(lambda rank, nprocs, rng=None: OrphanBait(rank, nprocs),
                       config, faults)


def gateless_classify(self, frame_meta, src):
    """TdiProtocol.classify with the depend-interval gate removed."""
    send_index = frame_meta["send_index"]
    last = self.vectors.last_deliver_index[src]
    if send_index <= last:
        return DeliveryVerdict.DUPLICATE
    if send_index > last + 1:
        return DeliveryVerdict.DEFER
    return DeliveryVerdict.DELIVER


class TestGateMutation:
    def test_orphan_bait_is_clean_with_the_real_gate(self):
        r = run_orphan_bait()
        assert r.violations == []
        assert r.answer == ("m1", "z")

    def test_disabling_the_delivery_gate_trips_causal_gate(self):
        with mock.patch.object(TdiProtocol, "classify", gateless_classify):
            r = run_orphan_bait()
        assert CAUSAL_GATE in kinds(r)
        v = next(v for v in r.violations if v.invariant == CAUSAL_GATE)
        assert v.rank == 0
        assert v.fields["required"] > v.fields["have"]
        # the orphan is observable: z consumed in m1's slot
        assert r.answer == ("z", "m1")


class TestMergeMutation:
    def test_skipping_the_piggyback_merge_trips_completeness(self):
        with mock.patch.object(DependIntervalVector, "merge",
                               lambda self, piggyback: 0):
            r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=0,
                                 verify=True)
        assert kinds(r) == {PIGGYBACK_COMPLETENESS}
        v = r.violations[0]
        assert tuple(v.fields["pb"]) < tuple(v.fields["shadow_hb"])


class DupBait(OrphanBait):
    """OrphanBait plus a survivor (rank 2) that keeps a wildcard receive
    pending through rank 0's recovery, and a late straggler w from
    rank 1 to satisfy it in correct runs.  If rolling forward re-sends
    y instead of suppressing it AND the receiver stops discarding
    repetitive messages, that pending receive consumes y twice."""

    name = "dup-bait"

    def run(self, ctx):
        if self.rank == 0:
            m1 = yield ctx.recv(tag=0)
            yield ctx.send(2, "y", tag=0)
            z = yield ctx.recv(tag=0)
            yield ctx.compute(0.05)
            return (m1.payload, z.payload)
        elif self.rank == 1:
            yield ctx.send(0, "m1", tag=0, size_bytes=256_000)
            yield ctx.compute(0.1)
            yield ctx.send(2, "w", tag=0)
            return "m1-sent"
        else:
            y = yield ctx.recv(tag=0)
            del y
            yield ctx.send(0, "z", tag=0)
            w = yield ctx.recv(tag=0)  # pending throughout the recovery
            return w.payload


def run_dup_bait():
    config = SimulationConfig(nprocs=3, protocol="tdi", seed=0, verify=True)
    faults = [api.FaultSpec(rank=0, at_time=0.024)]
    return api.run_app(lambda rank, nprocs, rng=None: DupBait(rank, nprocs),
                       config, faults)


class TestDuplicateMutation:
    def test_dup_bait_is_clean_unmutated(self):
        r = run_dup_bait()
        assert r.violations == []
        assert r.answer == ("m1", "z")

    def test_delivering_duplicates_trips_exactly_once(self):
        # two coordinated mutations: rolling forward re-transmits every
        # re-executed send (suppression broken), and the receiver no
        # longer discards repetitive messages (line 19 broken)
        orig_prepare = TdiProtocol.prepare_send

        def always_transmit(self, dest, tag, payload, size_bytes):
            prepared = orig_prepare(self, dest, tag, payload, size_bytes)
            return type(prepared)(
                send_index=prepared.send_index,
                piggyback=prepared.piggyback,
                piggyback_identifiers=prepared.piggyback_identifiers,
                cost=prepared.cost,
                transmit=True,
            )

        def no_duplicate_check(self, frame_meta, src):
            send_index = frame_meta["send_index"]
            last = self.vectors.last_deliver_index[src]
            if send_index > last + 1:
                return DeliveryVerdict.DEFER
            if self.depend_interval.own_interval >= frame_meta["pb"][self.rank]:
                return DeliveryVerdict.DELIVER
            return DeliveryVerdict.DEFER

        def permissive_on_deliver(self, frame_meta, src):
            # the protocol's own internal gap assert would fire before
            # the oracle observes the delivery; the mutation removes the
            # whole duplicate defense, last-ditch check included
            send_index = frame_meta["send_index"]
            self.depend_interval.advance_own()
            self.vectors.last_deliver_index[src] = max(
                self.vectors.last_deliver_index[src], send_index)
            self.depend_interval.merge(frame_meta["pb"])
            return 0.0

        with mock.patch.object(TdiProtocol, "prepare_send", always_transmit), \
                mock.patch.object(TdiProtocol, "classify", no_duplicate_check), \
                mock.patch.object(TdiProtocol, "on_deliver", permissive_on_deliver):
            r = run_dup_bait()
        assert EXACTLY_ONCE in kinds(r)
        v = next(v for v in r.violations if v.invariant == EXACTLY_ONCE)
        assert "duplicate" in v.detail


class TestMonotonicityMutation:
    def test_spurious_suppression_decrease_trips_monotonicity(self):
        """The incarnation carve-out must not blind the oracle: lowering
        rollback_last_send_index while no peer incarnated is still a
        monotonicity break."""
        orig = SenderLoggingProtocol._handle_checkpoint_advance

        def corrupting(self, src, upto_send_index):
            self.rollback_last_send_index[src] = -1
            return orig(self, src, upto_send_index)

        with mock.patch.object(SenderLoggingProtocol, "_handle_checkpoint_advance",
                               corrupting):
            r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=0,
                                 verify=True, checkpoint_interval=0.001)
        assert MONOTONICITY in kinds(r)
        v = next(v for v in r.violations if v.invariant == MONOTONICITY)
        assert v.fields["vector"] == "rollback_last_send_index"


class TestGcMutation:
    def test_over_eager_release_trips_gc_safety(self):
        orig = SenderLoggingProtocol._handle_checkpoint_advance

        def eager(self, src, upto_send_index):
            return orig(self, src, upto_send_index + 2)

        with mock.patch.object(SenderLoggingProtocol, "_handle_checkpoint_advance",
                               eager):
            r = api.run_workload("lu", nprocs=4, protocol="tdi", seed=0,
                                 verify=True, checkpoint_interval=0.001)
        assert kinds(r) == {GC_SAFETY}
        v = r.violations[0]
        assert v.fields["dropped_upto"] > v.fields["covered"]


# ======================================================================
# Incarnation-epoch awareness (the overlapping-recovery fix)
# ======================================================================

def _oracle(nprocs=3):
    from repro.verify import CausalOracle

    return CausalOracle(nprocs=nprocs)


def _ev(kind, rank, time=0.0, **fields):
    from repro.simnet.trace import TraceEvent

    return TraceEvent(time, kind, rank, fields)


class TestEpochAwareOracle:
    """Synthetic-event tests of the epoch-aware invariants: legal
    epoch-tagged histories stay silent, and an epoch-blind protocol
    merge (keeping a dead incarnation's count instead of adopting the
    newer epoch) is caught by the lexicographic completeness check."""

    def test_legal_epoch_retag_is_silent(self):
        from repro.core.vectors import TaggedPiggyback

        oracle = _oracle()
        # rank 1 learns entry 0 re-tagged under epoch 2 with a *smaller*
        # count than a pre-epoch oracle would demand — legal, because
        # (2, 2) > (0, 0) lexicographically
        oracle.observe(_ev("verify.deliver", 1, src=2, send_index=1,
                           pb=TaggedPiggyback((2, 0, 0), epochs=(2, 0, 0))))
        oracle.observe(_ev("verify.send", 1, dest=0, send_index=1,
                           resend=False,
                           pb=TaggedPiggyback((2, 1, 0), epochs=(2, 0, 0))))
        assert oracle.violations == []

    def test_epoch_blind_merge_trips_completeness(self):
        from repro.core.vectors import TaggedPiggyback

        oracle = _oracle()
        oracle.observe(_ev("verify.deliver", 1, src=2, send_index=1,
                           pb=TaggedPiggyback((2, 0, 0), epochs=(2, 0, 0))))
        # an epoch-blind merge keeps entry 0 at the dead incarnation's
        # larger count (epoch 0, value 5): bigger number, less knowledge
        oracle.observe(_ev("verify.send", 1, dest=0, send_index=1,
                           resend=False,
                           pb=TaggedPiggyback((5, 1, 0), epochs=(0, 0, 0))))
        assert [v.invariant for v in oracle.violations] == [
            PIGGYBACK_COMPLETENESS]
        assert "entries [0]" in oracle.violations[0].detail

    def test_future_epoch_delivery_trips_causal_gate(self):
        from repro.core.vectors import TaggedPiggyback

        oracle = _oracle()
        oracle.observe(_ev("verify.deliver", 1, src=0, send_index=1,
                           pb=TaggedPiggyback((0, 3, 0), epochs=(0, 2, 0))))
        assert [v.invariant for v in oracle.violations] == [CAUSAL_GATE]
        assert "future epoch 2" in oracle.violations[0].detail

    def test_stale_epoch_overcount_trips_causal_gate(self):
        from repro.core.vectors import TaggedPiggyback

        oracle = _oracle()
        oracle.observe(_ev("ckpt.write", 1, seq=0))
        oracle.observe(_ev("recovery.incarnate", 1, from_seq=0, epoch=1))
        # a dead incarnation's counts are re-reached by replay, so
        # delivering below one is an orphan risk like any other: with no
        # escalation in effect the strict gate applies
        oracle.observe(_ev("verify.deliver", 1, src=0, send_index=1,
                           pb=TaggedPiggyback((0, 5, 0), epochs=(0, 0, 0))))
        assert [v.invariant for v in oracle.violations] == [CAUSAL_GATE]
        assert "stale-epoch" in oracle.violations[0].detail

    def test_stale_epoch_clamp_is_exempt_between_escalate_and_settle(self):
        from repro.core.vectors import TaggedPiggyback

        oracle = _oracle()
        oracle.observe(_ev("ckpt.write", 1, seq=0))
        oracle.observe(_ev("recovery.incarnate", 1, from_seq=0, epoch=1))
        oracle.observe(_ev("proto.recovery_escalate", 1, awaiting=[]))
        # between escalation and settle the receiver's gate is
        # legitimately degraded to the checkpointed-coverage clamp
        oracle.observe(_ev("verify.deliver", 1, src=0, send_index=1,
                           pb=TaggedPiggyback((0, 5, 0), epochs=(0, 0, 0))))
        assert oracle.violations == []
        # once the episode settles the strict gate is back
        oracle.observe(_ev("proto.recovery_settled", 1))
        oracle.observe(_ev("verify.deliver", 1, src=0, send_index=2,
                           pb=TaggedPiggyback((0, 5, 0), epochs=(0, 0, 0))))
        assert [v.invariant for v in oracle.violations] == [CAUSAL_GATE]

    def test_fresh_incarnation_resets_the_degraded_exemption(self):
        from repro.core.vectors import TaggedPiggyback

        oracle = _oracle()
        oracle.observe(_ev("ckpt.write", 1, seq=0))
        oracle.observe(_ev("recovery.incarnate", 1, from_seq=0, epoch=1))
        oracle.observe(_ev("proto.recovery_escalate", 1, awaiting=[]))
        # the escalated incarnation dies; its successor starts strict
        oracle.observe(_ev("recovery.incarnate", 1, from_seq=0, epoch=2))
        oracle.observe(_ev("verify.deliver", 1, src=0, send_index=1,
                           pb=TaggedPiggyback((0, 5, 0), epochs=(0, 0, 0))))
        assert [v.invariant for v in oracle.violations] == [CAUSAL_GATE]

    def test_same_epoch_overcount_still_trips_causal_gate(self):
        from repro.core.vectors import TaggedPiggyback

        oracle = _oracle()
        oracle.observe(_ev("ckpt.write", 1, seq=0))
        oracle.observe(_ev("recovery.incarnate", 1, from_seq=0, epoch=1))
        # same shape as above, but the requirement names the *current*
        # incarnation: the count check applies and must fire
        oracle.observe(_ev("verify.deliver", 1, src=0, send_index=1,
                           pb=TaggedPiggyback((0, 5, 0), epochs=(0, 1, 0))))
        assert [v.invariant for v in oracle.violations] == [CAUSAL_GATE]
        assert oracle.violations[0].fields["required"] == 5


# ======================================================================
# Reporting machinery
# ======================================================================

def test_oracle_summary_counts_checks():
    from repro.mpi.cluster import Cluster

    config = SimulationConfig(nprocs=4, protocol="tdi", seed=21, verify=True)
    from repro.workloads.presets import workload_factory

    cluster = Cluster(config, workload_factory("lu", scale="fast"))
    cluster.run([api.FaultSpec(rank=1, at_time=0.003)])
    summary = cluster.oracle.summary()
    assert summary["violations"] == {}
    assert summary["suppressed"] == 0
    assert summary["checks"][CAUSAL_GATE] > 0
    assert summary["checks"][EXACTLY_ONCE] > 0


def test_violation_cap_suppresses_excess():
    from repro.verify import CausalOracle

    oracle = CausalOracle(nprocs=2, max_violations=3)
    for i in range(5):
        oracle._report(0.0, CAUSAL_GATE, 0, f"v{i}")
    assert len(oracle.violations) == 3
    assert oracle.suppressed == 2
    assert oracle.summary()["suppressed"] == 2


def test_violation_str_is_informative():
    r = None
    with mock.patch.object(TdiProtocol, "classify", gateless_classify):
        r = run_orphan_bait()
    text = str(next(v for v in r.violations if v.invariant == CAUSAL_GATE))
    assert "causal-gate" in text
    assert "rank 0" in text


def test_harness_run_cell_aborts_on_violation():
    from repro.harness.runner import RunRequest
    from repro.simnet.engine import SimulationError

    request = RunRequest(
        key=("broken",), workload="lu", preset="fast",
        config=SimulationConfig(nprocs=4, protocol="tdi",
                                checkpoint_interval=0.02, seed=0, verify=True))
    with mock.patch.object(DependIntervalVector, "merge",
                           lambda self, piggyback: 0):
        with pytest.raises(SimulationError, match="invariant verification"):
            request.execute()


# ======================================================================
# What the monotone sampler must still see (it compares the live state
# against a retained copy, and copies only what moved)
# ======================================================================

def _sampled_oracle(nprocs=3):
    """An oracle attached to a stub cluster whose rank-1 protocol state
    the test mutates in place between synthetic events."""
    from types import SimpleNamespace

    from repro.protocols.base import PeerCounts
    from repro.simnet.trace import Trace

    def endpoint(rank):
        protocol = SimpleNamespace(
            vectors=SimpleNamespace(last_deliver_index=PeerCounts({0: 4, 2: 7})),
            rollback_last_send_index=PeerCounts({0: 3, 2: 5}),
            depend_interval=DependIntervalVector(
                nprocs, rank, values=[6] * nprocs, epochs=[1] * nprocs))
        return SimpleNamespace(protocol=protocol, node=SimpleNamespace(epoch=1))

    cluster = SimpleNamespace(trace=Trace(),
                              endpoints=[endpoint(r) for r in range(nprocs)])
    oracle = _oracle(nprocs)
    oracle.attach(cluster)
    return oracle, cluster.endpoints[1].protocol


def _sample(oracle, how="send", rank=1):
    """One monotone sample of ``rank``, through each kind that takes one."""
    if how == "send":
        oracle.observe(_ev("verify.send", rank, dest=0, send_index=1,
                           resend=False, pb=None))
    elif how == "ckpt":
        oracle.observe(_ev("ckpt.write", rank, seq=9))
    else:
        shadow = oracle._shadow[rank]
        oracle.observe(_ev("verify.deliver", rank, src=0, pb=None,
                           send_index=shadow.delivered_upto[0] + 1))


def _lower_deliver_index(protocol):
    protocol.vectors.last_deliver_index[2] -= 1


def _lower_interval(protocol):
    protocol.depend_interval._v[0] -= 1


def _lower_interval_epoch(protocol):
    protocol.depend_interval._set_epoch(2, 0)


def _lower_suppression(protocol):
    protocol.rollback_last_send_index[0] -= 1


IN_PLACE_DECREASES = {
    "last_deliver_index": (_lower_deliver_index, [2]),
    "depend_interval": (_lower_interval, [0]),
    "depend_interval_epochs": (_lower_interval_epoch, [2]),
    "rollback_last_send_index": (_lower_suppression, [0]),
}


class TestSamplerSeesTheLiveState:
    @pytest.mark.parametrize("vector", sorted(IN_PLACE_DECREASES))
    @pytest.mark.parametrize("how", ("send", "ckpt", "deliver"))
    def test_in_place_decrease_between_two_samples_is_caught(self, vector, how):
        """The baseline is a copy: a vector lowered *in place* differs
        from it at the next sample, whichever kind of event takes it."""
        lower, entries = IN_PLACE_DECREASES[vector]
        oracle, protocol = _sampled_oracle()
        _sample(oracle)
        _sample(oracle, how)
        assert oracle.violations == []
        lower(protocol)
        _sample(oracle, how)
        assert [(v.invariant, v.fields["vector"]) for v in oracle.violations] \
            == [(MONOTONICITY, vector)]
        assert f"entries {entries}" in oracle.violations[0].detail
        # the lowered state is the new baseline: reported once
        _sample(oracle, how)
        assert len(oracle.violations) == 1

    @pytest.mark.parametrize("between", ("send", "ckpt"))
    def test_decrease_repaired_before_the_next_delivery_is_caught(self, between):
        """Sends and checkpoints are sample points too, not only
        deliveries: a dip that opens after one delivery and closes before
        the next is seen by whatever falls inside it."""
        oracle, protocol = _sampled_oracle()
        _sample(oracle, "deliver")
        _lower_deliver_index(protocol)
        _sample(oracle, between)
        protocol.vectors.last_deliver_index[2] += 1
        _sample(oracle, "deliver")
        assert [v.fields["vector"] for v in oracle.violations] \
            == ["last_deliver_index"]

    def test_other_ranks_and_other_epochs_are_other_baselines(self):
        oracle, protocol = _sampled_oracle()
        _sample(oracle)
        _lower_deliver_index(protocol)
        _sample(oracle, rank=2)                   # rank 2 did not move
        oracle._cluster.endpoints[1].node.epoch = 2
        _sample(oracle)                           # a new incarnation may
        assert oracle.violations == []
        assert oracle.checks[MONOTONICITY] == 0   # nothing was comparable

    def test_epoch_retag_and_rollback_clamp_stay_silent(self):
        oracle, protocol = _sampled_oracle()
        _sample(oracle)
        # peer 0 rolled back: its entry re-tags to epoch 2 at a lower
        # interval, and our suppression entry clamps to its coverage
        assert protocol.depend_interval.observe_rollback(0, 2, 2)
        oracle.observe(_ev("proto.resend", 1, to=0, count=1))
        protocol.rollback_last_send_index[0] = 1
        _sample(oracle)
        assert oracle.violations == []
        # ... once: the same clamp with no ROLLBACK behind it is a break
        protocol.rollback_last_send_index[0] = 0
        _sample(oracle)
        assert [v.fields["vector"] for v in oracle.violations] \
            == ["rollback_last_send_index"]

    def test_vanished_peer_entry_is_a_decrease(self):
        oracle, protocol = _sampled_oracle()
        _sample(oracle)
        del protocol.vectors.last_deliver_index[2]
        protocol.vectors.last_deliver_index[1] = 0    # a new key, at zero
        _sample(oracle)
        assert [v.fields["before"] for v in oracle.violations] == [[4, 0, 7]]
        assert oracle.violations[0].fields["after"] == [4, 0, 0]


def _dipping(lower, restore):
    """Patches for a real run: each rank once lowers a vector in place
    just before a send and puts it back at its next arrival — between
    two deliveries, so only the send's sample can see it."""
    prepare_send, classify = TdiProtocol.prepare_send, TdiProtocol.classify

    def dip_then_send(self, *args):
        if getattr(self, "_dip", None) is None:
            self._dip = lower(self)
        return prepare_send(self, *args)

    def repair_then_classify(self, frame_meta, src):
        if getattr(self, "_dip", None) not in (None, "done"):
            restore(self, self._dip)
            self._dip = "done"
        return classify(self, frame_meta, src)

    return (mock.patch.object(TdiProtocol, "prepare_send", dip_then_send),
            mock.patch.object(TdiProtocol, "classify", repair_then_classify))


def _run_with_dips(lower, restore, **kwargs):
    dip, repair = _dipping(lower, restore)
    with dip, repair:
        return api.run_workload("lu", nprocs=4, protocol="tdi", seed=0,
                                verify=True, **kwargs)


def _some(pairs):
    """The first ``(key, value)`` with a positive value, or ``None``."""
    return next(((k, v) for k, v in pairs if v > 0), None)


class TestSamplerInARealRun:
    """The same dips made inside a running protocol: every rank finishes
    with the right answer, and the oracle names the vector that fell."""

    def _fallen(self, result):
        return {v.fields["vector"] for v in result.violations
                if v.invariant == MONOTONICITY}

    def test_deliver_index_dip_between_deliveries(self):
        def lower(p):
            hit = _some(p.vectors.last_deliver_index.items())
            if hit is not None:
                p.vectors.last_deliver_index[hit[0]] -= 1
            return hit

        def restore(p, hit):
            p.vectors.last_deliver_index[hit[0]] += 1

        clean = api.run_workload("lu", nprocs=4, protocol="tdi", seed=0)
        result = _run_with_dips(lower, restore)
        assert result.results == clean.results
        assert self._fallen(result) == {"last_deliver_index"}

    def test_interval_dip_between_deliveries(self):
        def lower(p):
            vec = p.depend_interval
            hit = _some((k, v) for k, v in enumerate(vec) if k != vec.owner)
            if hit is not None:
                vec._v[hit[0]] -= 1
            return hit

        def restore(p, hit):
            p.depend_interval._v[hit[0]] += 1

        assert "depend_interval" in self._fallen(_run_with_dips(lower, restore))

    def test_interval_epoch_dip_after_a_recovery(self):
        def lower(p):
            vec = p.depend_interval
            hit = _some((k, e) for k, e in enumerate(vec.epochs) if k != vec.owner)
            if hit is not None:
                vec._set_epoch(hit[0], 0)
            return hit

        def restore(p, hit):
            p.depend_interval._set_epoch(*hit)

        result = _run_with_dips(lower, restore,
                                faults=[api.FaultSpec(rank=1, at_time=0.003)])
        assert "depend_interval_epochs" in self._fallen(result)


# ======================================================================
# The shadow's two merge paths: pointwise where every epoch agrees, the
# entry-by-entry loop otherwise — one verdict
# ======================================================================

class TestShadowMergePaths:
    def _tagged(self, values, epochs=None):
        from repro.core.vectors import TaggedPiggyback
        return TaggedPiggyback(values, epochs=epochs)

    def _deliver(self, oracle, pb, rank=1, src=0):
        upto = oracle._shadow[rank].delivered_upto[src]
        oracle.observe(_ev("verify.deliver", rank, src=src,
                           send_index=upto + 1, pb=pb))

    def _send(self, oracle, pb, rank=1):
        oracle.observe(_ev("verify.send", rank, dest=0, send_index=1,
                           resend=False, pb=pb))

    def test_agreeing_epochs_merge_pointwise_and_keep_the_own_entry(self):
        oracle = _oracle()
        self._deliver(oracle, self._tagged((4, 0, 2)))
        self._deliver(oracle, self._tagged((1, 1, 5)), src=2)
        assert oracle._shadow[1].hb == [4, 2, 5]
        self._send(oracle, self._tagged((4, 2, 5)))
        assert oracle.violations == []
        self._send(oracle, self._tagged((4, 2, 4)))
        self._send(oracle, self._tagged((3, 9, 9)))
        assert [v.invariant for v in oracle.violations] \
            == [PIGGYBACK_COMPLETENESS] * 2
        assert "entries [2]" in oracle.violations[0].detail
        assert "entries [0]" in oracle.violations[1].detail

    def test_unsatisfied_dependency_does_not_raise_the_own_count(self):
        """The own entry counts deliveries made; a piggyback demanding
        more is a violation each time, not a way to catch up."""
        oracle = _oracle()
        self._deliver(oracle, self._tagged((0, 5, 0)))
        self._deliver(oracle, self._tagged((0, 3, 0)))
        assert [v.fields["have"] for v in oracle.violations] == [0, 1]
        assert oracle._shadow[1].hb[1] == 2

    def test_retag_is_silent_on_the_loop_and_then_on_the_pointwise_path(self):
        oracle = _oracle()
        self._deliver(oracle, self._tagged((9, 0, 0)))
        # entry 0 re-tags to epoch 2 at a lower count: epochs disagree
        self._deliver(oracle, self._tagged((2, 1, 0), epochs=(2, 0, 0)))
        assert oracle._shadow[1].hb == [2, 2, 0]
        # ... and now agree again: the pointwise path, under epoch 2
        self._deliver(oracle, self._tagged((3, 2, 1), epochs=(2, 0, 0)))
        self._send(oracle, self._tagged((3, 3, 1), epochs=(2, 0, 0)))
        assert oracle.violations == []
        # the dead incarnation's larger count is less knowledge
        self._send(oracle, self._tagged((9, 3, 1)))
        assert [v.invariant for v in oracle.violations] == [PIGGYBACK_COMPLETENESS]

    def test_short_piggyback_places_no_claim_beyond_its_horizon(self):
        oracle = _oracle()
        self._deliver(oracle, self._tagged((4, 0, 6)))
        self._deliver(oracle, self._tagged((5, 1)), src=2)   # a 2-rank horizon
        assert oracle._shadow[1].hb == [5, 2, 6]
        self._send(oracle, self._tagged((5, 2, 6)))
        assert oracle.violations == []
        self._send(oracle, self._tagged((5, 2)))             # drops entry 2
        assert "entries [2]" in oracle.violations[0].detail
        # beyond the horizon of the receiver's own entry: gates on nothing
        oracle = _oracle()
        self._deliver(oracle, self._tagged((7,)), rank=2)
        assert oracle.violations == [] and oracle._shadow[2].hb == [7, 0, 1]

    def test_plain_tuple_piggyback_is_epoch_zero_everywhere(self):
        oracle = _oracle()
        self._deliver(oracle, (3, 0, 1))
        self._send(oracle, (3, 1, 1))
        assert oracle.violations == []
        self._deliver(oracle, self._tagged((1, 1, 0), epochs=(2, 0, 0)))
        # an untagged count cannot outrank entry 0's epoch 2
        self._deliver(oracle, (8, 2, 4), src=2)
        assert oracle._shadow[1].hb == [1, 3, 4]
        assert oracle._shadow[1].hb_epochs == [2, 0, 0]
        self._send(oracle, self._tagged((1, 3, 4), epochs=(2, 0, 0)))
        assert oracle.violations == []
        self._send(oracle, (8, 3, 4))
        assert [v.invariant for v in oracle.violations] == [PIGGYBACK_COMPLETENESS]

    def test_non_integer_piggybacks_are_not_depend_vectors(self):
        oracle = _oracle()
        assert oracle._is_depend_vector((1, 2, 3))
        assert oracle._is_depend_vector([0])
        counter = type("Counter", (int,), {})     # asked one by one
        assert oracle._is_depend_vector((1, counter(2), 3))
        for pb in (None, (), (1, 2, 3, 4), (1, True, 0), (1, 2.0, 3), "abc",
                   {0: 1}):
            assert not oracle._is_depend_vector(pb)
