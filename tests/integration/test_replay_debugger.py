"""The record/replay debugger: standalone single-rank re-execution."""

import dataclasses
import hashlib

import pytest

from repro import api
from repro.config import SimulationConfig
from repro.debug import ReplayDivergence, replay_all, replay_rank
from repro.faults.detector import DetectorConfig
from repro.faults.injector import FaultSpec, GrayFaultSpec, JoinSpec, LeaveSpec
from repro.harness.runner import canonical_repr
from repro.simnet.primitives import Delivered
from repro.simnet.rng import RngStreams
from repro.workloads.base import Application
from repro.workloads.presets import WORKLOADS, workload_factory


def recorded_run(workload="lu", nprocs=4, seed=5, faults=None, **kw):
    cfg = SimulationConfig(nprocs=nprocs, protocol="tdi", seed=seed, record=True)
    return api.run_workload(workload, config=cfg, faults=faults, **kw)


class SizeRing(Application):
    """Pass one 100-byte message around a ring; the result is the sum of
    the sizes received, so a replay that forgets a size diverges."""

    name = "size-ring"

    def run(self, ctx):
        yield ctx.send((self.rank + 1) % self.nprocs, self.rank,
                       size_bytes=100)
        delivered = yield ctx.recv(source=(self.rank - 1) % self.nprocs)
        return delivered.size_bytes

    def snapshot(self):
        return {}

    def restore(self, state):
        pass

    def snapshot_size_bytes(self):
        return 64


def standalone_factory(workload, seed=5):
    factory = workload_factory(workload, scale="fast")
    return lambda rank, nprocs: factory(rank, nprocs, RngStreams(seed))


class TestReplay:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_every_workload_replays_exactly(self, workload):
        run = recorded_run(workload)
        results = replay_all(standalone_factory(workload), run.recording, 4)
        assert results == run.results

    def test_replay_feeds_back_the_delivered_sizes(self):
        cfg = SimulationConfig(nprocs=3, protocol="tdi", seed=5, record=True)
        run = api.run_app(lambda rank, n, rng: SizeRing(rank, n), cfg)
        assert run.results == [100, 100, 100]
        assert replay_all(SizeRing, run.recording, 3) == run.results

    def test_replay_after_fault_uses_incarnation_history(self):
        run = recorded_run("lu", faults=[api.FaultSpec(rank=1, at_time=0.004)])
        # the victim's recording is its completed incarnation's stream
        result = replay_rank(standalone_factory("lu"), run.recording.rank(1), 4)
        assert result == run.results[1]

    def test_recording_totals(self):
        run = recorded_run("synthetic")
        totals = run.recording.totals()
        assert totals["deliveries"] == run.stats.total("app_delivers")
        # recorded sends are program-order app sends (incl. suppressed)
        assert totals["sends"] >= run.stats.total("app_sends")

    def test_recording_absent_by_default(self):
        r = api.run_workload("synthetic", nprocs=4, protocol="tdi", seed=5)
        assert r.recording is None


class TestDivergenceDetection:
    def test_modified_kernel_diverges(self):
        """Replaying a *changed* kernel against the recording is exactly
        the bug-hunting workflow: the first differing send is flagged."""
        run = recorded_run("lu", seed=5)
        altered = workload_factory("lu", scale="fast", tile=(9, 9))
        with pytest.raises(ReplayDivergence, match="payload diverged|result"):
            replay_rank(lambda r, n: altered(r, n, RngStreams(5)),
                        run.recording.rank(1), 4)

    def test_truncated_recording_detected(self):
        run = recorded_run("synthetic")
        recording = run.recording.rank(2)
        recording.deliveries.pop()
        with pytest.raises(ReplayDivergence, match="recording has only"):
            replay_rank(standalone_factory("synthetic"), recording, 4)

    def test_corrupted_delivery_source_detected(self):
        run = recorded_run("lu")
        recording = run.recording.rank(1)
        original = recording.deliveries[0]
        # LU receives from a named neighbour; mislabel the source
        recording.deliveries[0] = dataclasses.replace(
            original, source=(original.source + 2) % 4)
        with pytest.raises(ReplayDivergence, match="asked for source|asked for tag"):
            replay_rank(standalone_factory("lu"), recording, 4)

    def test_extra_deliveries_detected(self):
        run = recorded_run("synthetic")
        recording = run.recording.rank(0)
        recording.deliveries.append(Delivered(
            source=1, tag=0, payload=42, size_bytes=64, send_index=99))
        with pytest.raises(ReplayDivergence, match="unconsumed"):
            replay_rank(standalone_factory("synthetic"), recording, 4)


#: name -> (faults, config overrides) for an LU-4 recorded run
PIN_CASES = {
    "kill": ((FaultSpec(rank=1, at_time=0.004),), {}),
    "blocking": ((FaultSpec(rank=1, at_time=0.004),),
                 {"comm_mode": "blocking"}),
    "compressed": ((FaultSpec(rank=1, at_time=0.004),),
                   {"compress_piggybacks": True}),
    "leave-rejoin": ((LeaveSpec(rank=2, at_time=0.003),
                      JoinSpec(rank=2, at_time=0.006)), {}),
    # frozen past the accrual walk: condemned, fenced and force-killed
    # with the effects it yielded while frozen still buffered
    "freeze": ((GrayFaultSpec(rank=1, at_time=0.004, kind="freeze",
                              duration=0.006),),
               {"detector": DetectorConfig(enabled=True)}),
}


def recording_digest(recording, nprocs):
    """SHA-256 over every rank's recorded sends, deliveries and result."""
    digest = hashlib.sha256()
    for rank in range(nprocs):
        history = recording.rank(rank)
        for send in history.sends:
            digest.update(repr(("send", send.dest, send.tag,
                                canonical_repr(send.payload),
                                send.size_bytes)).encode())
        for delivery in history.deliveries:
            digest.update(repr(("deliver", delivery.source, delivery.tag,
                                canonical_repr(delivery.payload),
                                delivery.send_index)).encode())
        digest.update(canonical_repr(history.result).encode())
    return digest.hexdigest()


def _pin_run(name):
    faults, overrides = PIN_CASES[name]
    settings = dict(nprocs=4, protocol="tdi", seed=7,
                    checkpoint_interval=0.01, record=True)
    settings.update(overrides)
    return api.run_workload("lu", config=SimulationConfig(**settings),
                            faults=list(faults))


#: ``recording_digest`` of each case, pinned while the endpoint still
#: fed the recorder by hand.  Every case records the same history: LU is
#: send-deterministic, and a restarted or rejoined rank's recording is
#: its last incarnation's whole stream, not the dead one's plus a replay
PINNED = {
    'blocking': '407b170ef96644a32ce93bfd831ebb386a53a063a216af4a33bc1ef051b2572f',
    'compressed': '407b170ef96644a32ce93bfd831ebb386a53a063a216af4a33bc1ef051b2572f',
    'freeze': '407b170ef96644a32ce93bfd831ebb386a53a063a216af4a33bc1ef051b2572f',
    'kill': '407b170ef96644a32ce93bfd831ebb386a53a063a216af4a33bc1ef051b2572f',
    'leave-rejoin': '407b170ef96644a32ce93bfd831ebb386a53a063a216af4a33bc1ef051b2572f',
}


class TestRecordingPin:
    @pytest.mark.parametrize("name", sorted(PIN_CASES))
    def test_recording_matches_pin(self, name):
        run = _pin_run(name)
        assert run.metrics.total("recovery_count") == 1
        assert recording_digest(run.recording, 4) == PINNED[name]


if __name__ == "__main__":  # re-pin: python -m tests.integration.test_replay_debugger
    for case in sorted(PIN_CASES):
        print(f"    {case!r}: {recording_digest(_pin_run(case).recording, 4)!r},")
