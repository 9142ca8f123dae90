"""The CI perf gates of ``benchmarks/perf_smoke.py``, checked without
running a simulation: each gate holds on its pin and fails, naming
itself, just past it, and every key a gate reads is in the latest record
of its trajectory file."""

from __future__ import annotations

import math

import pytest

from benchmarks import perf_smoke as ps

#: the ceiling gates with the margin each has always had above its record
#: (relative, apart from the clean-wire overhead's absolute 0.10)
CEILING_MARGINS = {
    "overhead_0pct": (0.10, False),
    "detector_armed_x": (0.20, True),
    "verify_x": (0.15, True),
    "tag_x": (0.25, True),
    "wire_bytes_per_msg": (0.10, True),
    "compress_x": (0.15, True),
    "ring512_compress_x": (0.15, True),
    "ring512_peak_rss_mb": (0.10, True),
}
#: the deterministic counts pinned to the substrate record exactly
EXACT_COUNTS = ("events_armed", "events_armed_traced",
                "events_armed_verified", "tag_graph_nodes_scanned",
                "tag_pb_identifiers")
#: all fifteen gates
ALL_GATES = (*CEILING_MARGINS, *EXACT_COUNTS, "oracle_holds_beats",
             "oracle_violations")


def _records() -> tuple[dict, dict]:
    return ps.latest_record(ps.SUBSTRATE), ps.latest_record(ps.PIGGYBACK)


def _on_the_pins(substrate: dict, piggyback: dict) -> dict:
    """A measurement sitting exactly on every pin."""
    records = {ps.SUBSTRATE: substrate, ps.PIGGYBACK: piggyback}
    measured = {name: ps.ceiling(name, records[kind])
                for name, (kind, *_) in ps.CEILINGS.items()}
    measured.update({name: substrate[name] for name in ps.EXACT})
    measured["oracle_violations"] = []
    return measured


def test_the_fifteen_gates_and_their_margins():
    assert ps.GATES == ALL_GATES
    assert {name: (margin, relative) for name, (_, _, margin, relative)
            in ps.CEILINGS.items()} == CEILING_MARGINS
    assert ps.EXACT == EXACT_COUNTS


def test_every_key_a_gate_reads_is_in_its_latest_record():
    substrate, piggyback = _records()
    records = {ps.SUBSTRATE: substrate, ps.PIGGYBACK: piggyback}
    for name, (kind, path, _, _) in ps.CEILINGS.items():
        value = records[kind]
        for key in path:
            assert key in value, (name, ps.ARTIFACTS[kind].name, path)
            value = value[key]
        assert isinstance(value, (int, float)), name
    for name in ps.EXACT:
        assert isinstance(substrate[name], int), name


def test_every_gate_holds_on_its_pin():
    substrate, piggyback = _records()
    assert ps.check(_on_the_pins(substrate, piggyback),
                    substrate, piggyback) == {}


@pytest.mark.parametrize("name", list(CEILING_MARGINS))
def test_a_ceiling_trips_just_above_itself(name):
    substrate, piggyback = _records()
    measured = _on_the_pins(substrate, piggyback)
    measured[name] = math.nextafter(measured[name], math.inf)
    failed = ps.check(measured, substrate, piggyback)
    assert list(failed) == [name]
    assert "exceeds the pinned ceiling" in failed[name]


@pytest.mark.parametrize("step", (-1, 1))
@pytest.mark.parametrize("name", EXACT_COUNTS)
def test_an_exact_count_trips_on_any_change(name, step):
    substrate, piggyback = _records()
    measured = _on_the_pins(substrate, piggyback)
    measured[name] += step
    failed = ps.check(measured, substrate, piggyback)
    assert name in failed
    # moving one side of the oracle's comparison trips that gate too
    assert set(failed) <= {name, "oracle_holds_beats"}


def test_the_oracle_must_leave_the_armed_run_alone():
    substrate, piggyback = _records()
    substrate = dict(substrate,
                     events_armed_verified=substrate["events_armed"] + 1)
    failed = ps.check(_on_the_pins(substrate, piggyback),
                      substrate, piggyback)
    assert list(failed) == ["oracle_holds_beats"]


def test_the_oracle_must_find_nothing_in_a_clean_run():
    substrate, piggyback = _records()
    measured = _on_the_pins(substrate, piggyback)
    measured["oracle_violations"] = ["orphan at rank 3"]
    failed = ps.check(measured, substrate, piggyback)
    assert list(failed) == ["oracle_violations"]
    assert "orphan at rank 3" in failed["oracle_violations"]


def test_ring_shape_holds_on_the_latest_piggyback_record():
    record = ps.latest_record(ps.PIGGYBACK)
    series = {n: {"raw": record["raw_bytes_per_msg"][str(n)],
                  "wire": record["wire_bytes_per_msg"][str(n)],
                  "ratio": record["compression_ratio"][str(n)]}
              for n in record["scales"]}
    assert ps.ring_shape(series) == []


def test_ring_shape_names_each_broken_claim():
    series = {64: {"raw": 260.0, "wire": 18.0, "ratio": 14.4},
              256: {"raw": 1028.0, "wire": 72.0, "ratio": 14.3},
              1024: {"raw": 4000.0, "wire": 400.0, "ratio": 9.9}}
    wrong = ps.ring_shape(series)
    assert len(wrong) == 4
    assert "n=1024, not 4(n+1)" in wrong[0]
    assert "below 10x" in wrong[1]
    assert "from n=64 to n=256" in wrong[2]
    assert "from n=256 to n=1024" in wrong[3]
