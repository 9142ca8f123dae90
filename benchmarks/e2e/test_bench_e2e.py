"""Tests of the benchmark itself.  Not in tier-1 ``testpaths``; run with

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py -q

The wiring pass starts real child interpreters and takes about a minute.
"""

from __future__ import annotations

import json
import random
import re
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import trace as layer_trace  # noqa: E402
import workloads  # noqa: E402

CONTRACT = run.load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def test_local_trace_module_not_the_stdlib_one():
    assert Path(layer_trace.__file__).parent == HERE


# ----------------------------------------------------------------------
# Estimator
# ----------------------------------------------------------------------
def test_quiet_mean_recovers_clean_value_where_median_does_not():
    """One-sided contamination in phases: 60% of repetitions land in a slow
    phase that adds 10-50%; the clean ones jitter by +/-0.5%."""
    rng = random.Random(7)
    clean = 0.430
    for _ in range(20):
        samples = []
        for i in range(40):
            value = clean * (1 + rng.uniform(-0.005, 0.005))
            if (i // 8) % 5 in (1, 2, 4):  # three slow phases out of five
                value *= 1 + rng.uniform(0.10, 0.50)
            samples.append(value)
        assert abs(statistics.median(samples) - clean) / clean > 0.10
        assert abs(run.quiet_mean(samples) - clean) / clean < 0.02


def test_quiet_mean_uses_at_least_three_and_a_tenth():
    assert run.quiet_mean([5.0, 1.0, 3.0, 2.0]) == 2.0
    assert run.quiet_mean([1.0, 9.0]) == 5.0
    assert run.quiet_mean(list(range(1, 51))) == 3.0  # fastest 5 of 50
    with pytest.raises(ValueError):
        run.quiet_mean([])


# ----------------------------------------------------------------------
# Contract
# ----------------------------------------------------------------------
def test_declared_names_are_well_formed_and_unique():
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert WORKLOADS == list(workloads.SPECS)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_every_layer_has_both_trace_metrics_declared():
    declared = {m["name"] for m in CONTRACT["per_layer"]}
    for layer in layer_trace.LAYERS:
        assert f"{layer}.self_share" in declared
        assert f"{layer}.calls_per_msg" in declared


def test_fingerprint_tracks_the_spec(monkeypatch):
    before = workloads.fingerprint("lu16_tdi_kill")
    assert before == workloads.fingerprint("lu16_tdi_kill")
    assert before != workloads.fingerprint("lu16_tdi_detector")
    changed = dict(workloads.SPECS["lu16_tdi_kill"], faults=[])
    monkeypatch.setitem(workloads.SPECS, "lu16_tdi_kill", changed)
    assert workloads.fingerprint("lu16_tdi_kill") != before


# ----------------------------------------------------------------------
# Folding
# ----------------------------------------------------------------------
def test_every_repro_module_folds_to_exactly_one_layer():
    import repro

    package = Path(repro.__file__).resolve().parent
    files = sorted(package.rglob("*.py"))
    assert len(files) > 60
    owners: dict[str, list[Path]] = {layer: [] for layer in layer_trace.LAYERS}
    for path in files:
        owners[layer_trace.layer_of(str(path))].append(path)  # KeyError = no layer
    for layer, paths in owners.items():
        if layer == "workloads":
            assert paths and all(p.parent.name == "workloads" for p in paths)
        elif layer != "other":
            pkg, mod = layer.split(".")
            assert paths == [package / pkg / f"{mod}.py"], layer
    assert layer_trace.layer_of("/usr/lib/python3/heapq.py") == "other"
    assert layer_trace.layer_of("<string>") == "other"


def test_shares_sum_to_one():
    result, profile = layer_trace.profile_call(
        lambda: sorted(range(1000), key=lambda x: -x))
    assert result[0] == 999
    shares, calls = layer_trace.layer_metrics(layer_trace.fold(profile),
                                              messages=10)
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    assert shares["other.self_share"] == 1.0
    assert calls["other.calls_per_msg"] >= 100
    assert calls["core.tdi.calls_per_msg"] == 0


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _one_run(name: str):
    config, factory, faults = workloads.build(name, seed=1)
    result, _, _ = child.repetition(config, factory, faults)
    reference, _, _ = child.repetition(workloads.noft_twin(config), factory, None)
    return result, reference.results, len(faults)


def test_checker_accepts_a_right_answer_and_catches_wrong_ones():
    result, reference, kills = _one_run("lu8_tag_kill")
    first = child.run_fingerprint(result)
    assert child.check(result, reference, kills, first) == []

    wrong = json.loads(json.dumps(reference))
    wrong[5]["checksum"] += 1e-9
    assert "ranks [5]" in child.check(result, wrong, kills, first)[0]
    assert "recovery_count" in child.check(result, reference, 0, first)[0]
    moved = [first[0] + 1, *first[1:]]
    assert "fingerprint" in child.check(result, reference, kills, moved)[0]
    result.violations.append("injected")
    assert "violation" in child.check(result, reference, kills, first)[0]


def test_wrong_reference_moves_the_failed_count(tmp_path):
    """End to end through the timed child: the same run is clean against
    the real reference and fails every repetition against a doctored one."""
    name = "lu8_tag_kill"
    good = run.spawn("reference", name, 1)
    bad = json.loads(json.dumps(good))
    bad["results"][0]["rnorm"] *= 2
    counts = []
    for answer in (good, bad):
        path = tmp_path / "reference.json"
        path.write_text(json.dumps(answer))
        timed = run.spawn("timed", name, 1, "--quick", "--reference", str(path))
        counts.append((timed["attempted"], timed["failed"]))
    assert counts == [(1, 0), (1, 1)]


# ----------------------------------------------------------------------
# A child that dies, a pass with a number missing
# ----------------------------------------------------------------------
def test_dead_child_is_reported_as_a_failed_run(monkeypatch, tmp_path, capsys):
    with pytest.raises(run.ChildFailed, match="FileNotFoundError"):
        run.spawn("timed", "lu8_tag_kill", 1, "--quick",
                  "--reference", str(tmp_path / "absent.json"))

    env = run.child_env()
    env["PYTHONPATH"] = str(tmp_path)  # no repro there: every import breaks
    monkeypatch.setattr(run, "child_env", lambda: env)
    for runner, trace in ((run.run_end_to_end, 0), (run.run_traced, 1)):
        record = runner("lu8_tag_kill", 1, 24.0, True, CONTRACT)
        assert json.loads(run.contract_line(record)) == {
            "correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        assert record["trace"] == trace
        assert "ModuleNotFoundError" in record["detail"]["failures"][0]
        run.print_record(record, CONTRACT)
    assert "FAILED:" in capsys.readouterr().out


def _canned(e2e_value, count, fingerprint=(1, 2.0)):
    def record(metrics, **detail):
        return {"correct": True, "metrics": {
            k: {"value": v, "unit": "u"} for k, v in metrics.items()},
            "detail": detail}
    e2e = {m["name"]: e2e_value for m in CONTRACT["end_to_end"]}
    return {"w": {
        "end_to_end": record(e2e, fingerprint=list(fingerprint)),
        "per_layer": record({"layer.count": count, "layer.host_ms": e2e_value},
                            exact=["layer.count"])}}


@pytest.mark.parametrize("second, code", [
    (_canned(100.0, 7), 0),
    (_canned(101.0, 7), 0),                      # inside every bound
    (_canned(150.0, 7), 1),                      # outside
    (_canned(100.0, 8), 1),                      # an exact count moved
    (_canned(100.0, 7, fingerprint=(1, 2.5)), 1),  # the simulated result moved
])
def test_selfcheck_pairs_two_passes(monkeypatch, capsys, second, code):
    passes = iter([_canned(100.0, 7), second])
    monkeypatch.setattr(run, "run_suite", lambda *a, **k: next(passes))
    assert run.selfcheck(["w"], 1, 24.0, True, CONTRACT) == code
    assert "layer.host_ms" not in capsys.readouterr().out  # host: no pairing


def test_selfcheck_flags_a_pass_with_no_metrics(monkeypatch, capsys):
    empty = _canned(100.0, 7)
    for part in empty["w"].values():
        part["metrics"] = {}
        part["correct"] = False
    passes = iter([_canned(100.0, 7), empty])
    monkeypatch.setattr(run, "run_suite", lambda *a, **k: next(passes))
    assert run.selfcheck(["w"], 1, 24.0, True, CONTRACT) == 1
    assert "MISSING" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Wiring
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", WORKLOADS)
def test_quick_pass_emits_exactly_the_declared_metrics(name):
    for runner, declared in ((run.run_end_to_end, CONTRACT["end_to_end"]),
                             (run.run_traced, CONTRACT["per_layer"])):
        record = runner(name, 1, 24.0, True, CONTRACT)
        assert record["correct"], record["detail"]["failures"]
        assert record["failed"] == 0 and record["attempted"] >= 1
        assert set(record["metrics"]) == {m["name"] for m in declared}
        units = {m["name"]: m["unit"] for m in declared}
        for metric, entry in record["metrics"].items():
            assert entry["unit"] == units[metric]
            assert entry["value"] >= 0 and entry["value"] == entry["value"]
        line = json.loads(run.contract_line(record))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        provenance = record["provenance"]
        assert provenance["workload_sha256"] == workloads.fingerprint(name)
        assert {"git_sha", "git_dirty", "python", "numpy", "cpu_count", "seed",
                "run_seconds", "repetitions", "command"} <= set(provenance)
    shares = [v["value"] for k, v in record["metrics"].items()
              if k.endswith(".self_share")]
    assert abs(sum(shares) - 1.0) < 0.01
    exact = set(record["detail"]["exact"])
    assert {"sim_time_s", "pb_bytes_per_msg",
            "verify.oracle.violations"} <= exact < set(record["metrics"])
    assert "trace.overhead_x" not in exact
