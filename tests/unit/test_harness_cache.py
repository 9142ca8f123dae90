"""Unit tests for the content-addressed result cache and run summaries."""

import json
import shutil

import pytest

from repro.config import SimulationConfig
from repro.harness.cache import (PACKAGE_ROOT, ResultCache, cache_key,
                                 request_fingerprint, source_digest)
from repro.harness.runner import RunRequest, RunSummary, summarize
from repro.metrics.costs import CostModel
from repro.protocols.checkpoint import StorageConfig

CONFIG = SimulationConfig(nprocs=4, protocol="tdi", checkpoint_interval=0.02,
                          seed=1)


def config(**changes) -> SimulationConfig:
    return CONFIG.with_(**changes)


def request(**changes) -> RunRequest:
    base = dict(key=("k",), workload="lu", preset="fast", config=CONFIG)
    base.update(changes)
    return RunRequest(**base)


def summary() -> RunSummary:
    return RunSummary(
        accomplishment_time=1.5,
        sim_time=1.6,
        events_fired=1000,
        checkpoint_writes=4,
        per_rank=[{"rank": 0, "app_sends": 10, "piggyback_identifiers": 50},
                  {"rank": 1, "app_sends": 30, "piggyback_identifiers": 70}],
    )


class TestCacheKey:
    def test_key_is_stable(self):
        assert cache_key(request()) == cache_key(request())

    def test_key_ignores_presentation_only_fields(self):
        assert cache_key(request(key=("a",))) == cache_key(request(key=("b",)))

    @pytest.mark.parametrize("changed", [
        dict(config=config(seed=2)),
        dict(config=config(protocol="tag")),
        dict(workload="bt"),
        dict(config=config(nprocs=8)),
        dict(config=config(comm_mode="blocking")),
        dict(preset="paper"),
        dict(config=config(checkpoint_interval=0.05)),
        dict(config=config(verify=True)),
        dict(workload_kwargs=(("iterations", 3),)),
        dict(config=config(costs=CostModel(evlog_latency=0.5))),
        dict(config=config(eager_threshold_bytes=4096)),
        dict(config=config(max_events=10_000)),
        dict(config=config(record=True)),
        dict(config=config(ckpt_history=3)),
        dict(config=config(storage=StorageConfig(write_fail_prob=0.1))),
        dict(strict_verify=False),
    ])
    def test_key_covers_every_outcome_affecting_knob(self, changed):
        assert cache_key(request(**changed)) != cache_key(request())

    def test_key_changes_with_the_package_source(self, monkeypatch, tmp_path):
        """Numbers cached by one version of the simulator are never read
        by another, even one that changed a single module constant."""
        copies = []
        for name in ("same", "edited"):
            copies.append(tmp_path / name / "repro")
            shutil.copytree(PACKAGE_ROOT, copies[-1],
                            ignore=shutil.ignore_patterns("__pycache__"))
        network = copies[1] / "simnet" / "network.py"
        network.write_text(network.read_text(encoding="utf-8").replace(
            "HEADER_BYTES = 32\n", "HEADER_BYTES = 3200\n"), encoding="utf-8")
        assert source_digest(copies[0]) == source_digest()
        edited = source_digest(copies[1])
        assert edited != source_digest()
        old = cache_key(request())
        monkeypatch.setattr("repro.harness.cache.source_digest", lambda: edited)
        assert cache_key(request()) != old

    def test_fingerprint_covers_entire_config(self):
        """Structural guarantee behind the parametrized cases above: every
        SimulationConfig field is in the fingerprint, so adding a knob can
        never silently alias runs that differ in it."""
        import dataclasses

        from repro.config import SimulationConfig

        fp = request_fingerprint(request())
        assert set(fp["config"]) == {f.name for f in
                                     dataclasses.fields(SimulationConfig)}

    def test_fingerprint_is_json_round_trippable(self):
        fp = request_fingerprint(request())
        assert json.loads(json.dumps(fp)) == fp
        assert fp["workload"] == "lu"
        assert fp["source"] == source_digest()


class TestResultCacheStore:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(request())
        assert cache.get(key) is None
        cache.put(key, summary())
        got = cache.get(key)
        assert got == summary()
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(request())
        cache.put(key, summary())
        path = cache._path(key)
        path.write_text("{ not json", encoding="utf-8")
        assert cache.get(key) is None
        assert not path.exists()

    def test_missing_root_is_empty(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert len(cache) == 0
        assert cache.get("0" * 64) is None


class TestRunSummary:
    def test_json_roundtrip(self):
        s = summary()
        assert RunSummary.from_json_dict(s.to_json_dict()) == s

    def test_stats_reconstruction(self):
        s = summary()
        assert s.stats.messages_total == 40
        assert s.stats.total("piggyback_identifiers") == 120
        assert s.stats.piggyback_identifiers_per_message == pytest.approx(3.0)
        assert s.stats is s.stats  # memoised

    def test_summarize_matches_live_result(self):
        from repro.config import SimulationConfig
        from repro.mpi.cluster import run_simulation
        from repro.workloads.presets import workload_factory

        config = SimulationConfig(nprocs=4, protocol="tdi",
                                  checkpoint_interval=0.02, seed=1)
        result = run_simulation(config, workload_factory("lu", scale="fast"))
        s = summarize(result)
        assert s.accomplishment_time == result.accomplishment_time
        assert s.events_fired == result.events_fired
        assert (s.stats.piggyback_identifiers_per_message
                == result.stats.piggyback_identifiers_per_message)
        assert s.stats.total("tracking_time") == result.stats.total("tracking_time")
