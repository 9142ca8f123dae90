"""The reachability census tool: its line counting, its function
inventory, and its entry points kept in step with CI's fuzz bands, the
examples and the benchmark's workloads."""

import ast
import dataclasses
import json
import shlex
from pathlib import Path

from repro.config import SimulationConfig
from repro.simnet.network import NetworkConfig, PartitionWindow
from repro.simnet.transport import TransportConfig
from tests.tools import census

SOURCE = '''"""Module docstring."""

import functools


def plain(x):
    """Docstring lines are not code."""
    # nor are comments
    return (x +
            1)


class Box:
    @functools.cache
    def method(self):
        def inner():
            return 1

        return inner()
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    lines = census.code_lines(SOURCE, ast.parse(SOURCE))
    assert 1 not in lines and 7 not in lines and 8 not in lines
    assert {3, 6, 9, 10, 13, 14, 15, 16, 17, 19} == lines


def test_functions_count_their_own_lines_only(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(SOURCE, encoding="utf-8")
    found = {fn.qualname: fn for fn in census.functions(path, "m.py")}
    assert set(found) == {"plain", "Box.method", "Box.method.<locals>.inner"}
    # a decorated function starts at its decorator, as its code object does
    assert found["Box.method"].first == 14
    assert found["plain"].code_lines == 3
    assert found["Box.method"].code_lines == 3
    assert found["Box.method.<locals>.inner"].code_lines == 2


def test_fuzz_entry_points_are_the_ci_bands():
    ci = Path(census.ROOT, ".github", "workflows", "ci.yml").read_text(
        encoding="utf-8")
    ignored = {"--no-cache", "--no-corpus"}
    with_value = {"--seed-range", "--budget", "--jobs"}
    bands = set()
    for line in ci.splitlines():
        line = line.strip().removeprefix("run: ")
        if not line.startswith("python -m repro.fuzz --seed-range"):
            continue
        words = shlex.split(line)[3:]
        flags = [w for i, w in enumerate(words)
                 if w not in ignored | with_value
                 and words[i - 1] not in with_value]
        bands.add(" ".join(flags))
    assert bands == set(census.FUZZ_BANDS)


def test_every_example_and_benchmark_workload_is_an_entry_point():
    examples = sorted(p.name for p in (census.ROOT / "examples").glob("*.py"))
    assert sorted(census.EXAMPLES) == examples
    spec = json.loads((census.ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    assert list(census.WORKLOADS) == [w["name"] for w in spec["workloads"]]


def test_flatten_expands_nested_configs_and_keeps_tuples_whole():
    window = PartitionWindow(0.0, 1.0, (0,), (1,))
    config = SimulationConfig(
        nprocs=8, network=NetworkConfig(drop_prob=0.1, partitions=(window,)),
        transport=TransportConfig(enabled=True))
    leaves = census.flatten(config)
    assert leaves["nprocs"] == 8
    assert leaves["network.drop_prob"] == 0.1
    assert leaves["network.partitions"] == (window,)
    assert leaves["transport.enabled"] is True
    assert leaves["detector.enabled"] is False
    assert "network" not in leaves and "costs" not in leaves
    # every leaf is a field of its own dataclass, none a dataclass itself
    assert not any(dataclasses.is_dataclass(v) for v in leaves.values())
    assert census.flatten(window) == {
        "start": 0.0, "end": 1.0, "side_a": (0,), "side_b": (1,)}


def test_config_kept_reasons_match_by_pattern():
    assert census.why_kept("detector.window", census.CONFIG_KEPT) \
        .startswith("micro")
    assert census.why_kept("costs.evlog_latency", census.CONFIG_KEPT) \
        == "UNDECIDED"
    assert census.why_kept("nprocs", census.CONFIG_KEPT) == "UNDECIDED"


def _exact(table):
    return [key for key in table if not set("*?[") & set(key)]


def test_every_kept_entry_without_a_wildcard_names_something_that_exists():
    """A ``KEPT`` key names a function under ``src/repro`` and a
    ``CONFIG_KEPT`` key a config leaf; one whose function or field was
    deleted or renamed is stale and goes with it."""
    defined = {f"{fn.path}:{fn.qualname}" for fn in census.inventory()}
    leaves = census.flatten(SimulationConfig())
    assert [key for key in _exact(census.KEPT) if key not in defined] == []
    assert [key for key in _exact(census.CONFIG_KEPT) if key not in leaves] == []
