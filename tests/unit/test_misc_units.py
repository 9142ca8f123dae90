"""Small unit tests for corners otherwise covered only indirectly."""

import pytest

from repro.harness.runner import Cell, checkpoint_intervals_elapsed
from repro.metrics.report import compare
from repro.protocols.base import PeerCounts, VectorState
from repro.simnet.engine import make_engine
from tests.conftest import dense


class TestVectorState:
    def test_initial_zeroed(self):
        v = VectorState()
        assert dense(v.last_send_index, 4) == [0, 0, 0, 0]
        assert dense(v.last_deliver_index, 4) == [0, 0, 0, 0]
        assert dense(v.peer_epoch, 4) == [0, 0, 0, 0]
        # zeroed means nothing stored, and reading stores nothing
        assert not v.last_send_index and not v.last_deliver_index

    def test_snapshot_is_copy(self):
        v = VectorState()
        v.last_send_index[1] = 4
        snap = v.snapshot()
        v.last_send_index[0] = 9
        v.last_send_index[1] += 1
        v.last_deliver_index[0] += 1
        v.peer_epoch[1] = 2
        assert dense(snap["last_send_index"], 2) == [0, 4]
        assert not snap["last_deliver_index"] and not snap["peer_epoch"]

    def test_restore_is_copy(self):
        v = VectorState()
        data = {"last_send_index": PeerCounts({0: 1, 1: 2}),
                "last_deliver_index": PeerCounts({0: 3, 1: 4}),
                "peer_epoch": PeerCounts({1: 1})}
        v.restore(data)
        v.last_send_index[0] = 99
        assert dense(data["last_send_index"], 2) == [1, 2]
        assert dense(v.last_deliver_index, 2) == [3, 4]


class TestEngineFactory:
    def test_make_engine(self):
        engine = make_engine()
        assert engine.now == 0.0 and engine.pending_events == 0


class TestRunnerHelpers:
    def test_cell_defaults(self):
        cell = Cell("lu", 4, "tdi")
        assert cell.comm_mode == "nonblocking"

    def test_intervals_elapsed_floor(self):
        class FakeResult:
            accomplishment_time = 0.001

        assert checkpoint_intervals_elapsed(FakeResult(), 1.0) == 1.0
        FakeResult.accomplishment_time = 2.5
        assert checkpoint_intervals_elapsed(FakeResult(), 1.0) == 2.5


class TestReportEdges:
    def test_compare_empty(self):
        assert compare({}) == "run"


class TestTimelineFromSyntheticTrace:
    def make_result(self, events):
        from types import SimpleNamespace

        from repro.simnet.trace import Trace, TraceEvent

        trace = Trace(enabled=True)
        for time, kind, rank in events:
            trace.events.append(TraceEvent(time, kind, rank, {}))
        return SimpleNamespace(
            trace=trace,
            sim_time=max((e[0] for e in events), default=0.0) or 1.0,
            config=SimpleNamespace(nprocs=2),
        )

    def test_open_downtime_extends_to_horizon(self):
        from repro.metrics.timeline import render_timeline

        result = self.make_result([
            (0.0, "ckpt.write", 0),
            (0.5, "fault.kill", 1),
            (1.0, "app.done", 0),
        ])
        out = render_timeline(result, width=30)
        rank1 = [ln for ln in out.splitlines() if ln.startswith("rank 1")][0]
        assert rank1.rstrip().endswith(".")  # still down at the horizon

    def test_precedence_fault_beats_checkpoint(self):
        from repro.metrics.timeline import render_timeline

        result = self.make_result([
            (0.5, "ckpt.write", 0),
            (0.5, "fault.kill", 0),
            (1.0, "app.done", 1),
        ])
        out = render_timeline(result, width=20)
        rank0 = [ln for ln in out.splitlines() if ln.startswith("rank 0")][0]
        assert "X" in rank0 and "C" not in rank0


class TestFigureResultSeries:
    def test_series_sorted_by_scale(self):
        from repro.harness.tables import FigureResult

        fig = FigureResult(figure="f", title="t", metric="m")
        for n in (16, 4, 8):
            fig.add(workload="lu", nprocs=n, protocol="tdi", value=float(n))
        assert fig.series("lu", "tdi") == [(4, 4.0), (8, 8.0), (16, 16.0)]
