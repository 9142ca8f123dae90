"""Parallel executor and result cache: the three guarantees.

1. Fan-out changes wall-clock, never rows: ``jobs=N`` output is
   byte-identical to the serial path.
2. A warm cache serves a whole figure with zero simulations; no cache
   means every cell simulates.
3. A failing cell aborts the whole figure with the cell named, from both
   the serial and the process-pool path.
"""

import json

import pytest

from repro.config import SimulationConfig
from repro.harness import runner
from repro.harness.cache import ResultCache
from repro.harness.cli import main as cli_main
from repro.harness.config import ExperimentOptions
from repro.harness.executor import run_batch
from repro.harness.experiments import fig6, fig8
from repro.harness.runner import RunRequest
from repro.simnet.engine import SimulationError

SMALL = ExperimentOptions(workloads=("lu",), scales=(4, 8), preset="fast",
                          checkpoint_interval=0.02, seed=1)
TINY = ExperimentOptions(workloads=("lu",), scales=(4,), preset="fast",
                         checkpoint_interval=0.02, seed=1)
LU4 = SimulationConfig(nprocs=4, protocol="tdi", checkpoint_interval=0.02,
                       seed=1)


class TestParallelEquivalence:
    def test_fig6_rows_byte_identical_serial_vs_parallel(self):
        serial = fig6(SMALL, jobs=1)
        parallel = fig6(SMALL, jobs=4)
        assert serial.rows == parallel.rows
        assert (json.dumps(serial.to_dict(), sort_keys=True)
                == json.dumps(parallel.to_dict(), sort_keys=True))

    def test_staged_plan_parallel_equivalence(self):
        # fig8 is two-stage (probe, then the faulted matrix): the
        # dependency structure must not leak completion order into rows.
        serial = fig8(TINY, jobs=1)
        parallel = fig8(TINY, jobs=3)
        assert serial.rows == parallel.rows


class TestResultCache:
    def test_second_run_simulates_nothing(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        first = fig6(TINY, cache=cache)
        assert first.execution.cells_simulated == len(first.rows)
        assert first.execution.cells_cached == 0

        def boom(*args, **kwargs):
            raise AssertionError("simulated a cell despite a warm cache")

        monkeypatch.setattr(runner, "run_simulation", boom)
        second = fig6(TINY, cache=cache)
        assert second.rows == first.rows
        assert second.execution.cells_simulated == 0
        assert second.execution.cells_cached == len(first.rows)

    def test_shared_cells_hit_across_figures(self, tmp_path):
        # fig7 runs the same matrix as fig6 — with a shared cache the
        # second figure is free.
        from repro.harness.experiments import fig7

        cache = ResultCache(tmp_path / "cache")
        fig6(TINY, cache=cache)
        result = fig7(TINY, cache=cache)
        assert result.execution.cells_simulated == 0

    def test_no_cache_simulates_every_cell(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        fig6(TINY, cache=cache)  # warm a cache that must then be ignored
        calls = []
        original = runner.run_simulation

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, "run_simulation", counting)
        result = fig6(TINY, cache=None)
        assert len(calls) == len(result.rows)

    def test_cache_key_separates_seeds_and_protocol_knobs(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fig6(TINY, cache=cache)
        reseeded = ExperimentOptions(workloads=("lu",), scales=(4,),
                                     preset="fast", checkpoint_interval=0.02,
                                     seed=2)
        result = fig6(reseeded, cache=cache)
        assert result.execution.cells_simulated == len(result.rows)


class TestFailurePropagation:
    def test_serial_figure_aborts_with_cell_named(self, monkeypatch):
        original = runner.run_simulation

        def failing(config, *args):
            if config.protocol == "tag":
                raise SimulationError("synthetic invariant violation")
            return original(config, *args)

        monkeypatch.setattr(runner, "run_simulation", failing)
        with pytest.raises(SimulationError) as err:
            fig6(TINY)
        message = str(err.value)
        assert "tag" in message and "lu" in message

    def test_worker_failure_aborts_batch_with_cell_named(self):
        good = RunRequest(key=("good",), workload="lu", preset="fast",
                          config=LU4)
        bad = RunRequest(key=("bad",), workload="no-such-workload",
                         preset="fast", config=LU4)
        with pytest.raises(SimulationError, match="no-such-workload"):
            run_batch([good, bad], jobs=2)

    def test_duplicate_request_keys_rejected(self):
        request = RunRequest(key=("dup",), workload="lu", preset="fast",
                             config=LU4)
        with pytest.raises(ValueError, match="duplicate"):
            run_batch([request, request], jobs=1)


class TestCliFlags:
    def test_jobs_and_cache_flags_end_to_end(self, tmp_path, capsys):
        argv = ["fig6", "--preset", "fast", "--scales", "4",
                "--workloads", "lu", "-j", "2",
                "--cache-dir", str(tmp_path / "cache")]
        assert cli_main(argv) == 0
        cold = capsys.readouterr().out
        assert "(3 simulated, 0 cached)" in cold
        assert cli_main(argv) == 0
        warm = capsys.readouterr().out
        assert "(0 simulated, 3 cached)" in warm
        # the rendered table (everything above the timing line) matches
        assert cold.split("[fig6")[0] == warm.split("[fig6")[0]
