"""CI perf gates for the simulation substrate, and the two trajectory
records they are pinned to.

    PYTHONPATH=src python benchmarks/perf_smoke.py
        run the gated cells and hold them to the latest record of each
        trajectory (exit 1 when a gate trips)
    PYTHONPATH=src python benchmarks/perf_smoke.py --record substrate
        append one transport / detector / TAG / oracle overhead record
        to ``BENCH_substrate.json``
    PYTHONPATH=src python benchmarks/perf_smoke.py --record piggyback
        append one compressed-ring record to ``BENCH_piggyback.json``
        (``--scales``, default 64,256,1024), checking the sweep's shape

Not a paper figure: these keep the simulator honest as a tool.  The
paper's claim is an overhead claim, and every wall number here is what
that claim is stated in, a ratio over a plain run.

One timing procedure serves every ratio (:func:`_alternating`): the
plain run and its variants are timed round-robin, seconds apart, with
the collector run before each outside the timer, and a ratio is the
median of the per-round ratios (:func:`_round_ratio`).  A slow phase of
a shared host outlasts a run, so it lands on both sides of a round or
on neither.  Absolute walls in a record are the fastest round's.

The gates (:func:`check`, fifteen of them):

- ``overhead_0pct``: clean-wire reliable-transport overhead on LU-8,
  under the latest ``BENCH_substrate.json`` record plus 0.10 absolute.
  The ack-storm regression this guards against was a 0.55 overhead
  against a recorded ~0.03, so the margin trips on a real regression and
  shrugs at shared-runner timing noise.
- ``detector_armed_x``, ``events_armed``, ``events_armed_traced``: the
  armed failure detector on the same run, on both of its arms.
  ``events_fired`` is deterministic and must equal the record exactly:
  ``events_armed`` for the unobserved run, whose heartbeats wait on
  their lanes, and ``events_armed_traced`` for the same run with a
  listener attached, where every beat is an engine event (a heartbeat
  path that drops or adds an event on either arm, or holds a beat
  somebody is watching, is a behaviour change, not a speed-up).  The
  unobserved run's wall over the plain baseline's must stay under the
  record plus a margin.
- ``verify_x``, ``events_armed_verified``, ``oracle_holds_beats``,
  ``oracle_violations``: the checker every fuzz band runs.  Its wall
  ratio must stay under the record plus a margin: a copy of every
  sampled vector per event plus an event built for every kind it
  ignores read +22% (1.78x against 1.45x, same host, alternating
  rounds).  With the detector armed as well it must fire exactly the
  unverified armed run's events: the oracle subscribes to its own kinds,
  so it un-holds no heartbeat.  And it must find nothing in a clean run.
- ``tag_x``, ``tag_graph_nodes_scanned``, ``tag_pb_identifiers``: the
  TAG baseline on the same run.  What it scans and piggybacks is
  deterministic and must equal the record exactly (any change to what
  TAG piggybacks is a behaviour change), and its wall ratio must stay
  under the record plus a margin, so a per-determinant Python loop
  creeping back into the antecedence graph trips CI.
- ``wire_bytes_per_msg``: compressed piggyback bytes per message at
  n=256 on the sparse ring, fully deterministic (byte counts, not wall
  time), under the latest ``BENCH_piggyback.json`` record plus 10% — a
  delta-encoder regression that silently re-sends full vectors shows up
  as a 10-20x jump.
- ``compress_x``, ``ring512_compress_x``: the host cost of that
  encoding, compressed wall over plain wall, on LU-16 with one kill
  (where a NumPy call's fixed cost shows: a per-value Python loop in the
  codec trips it) and on the ring at 512 ranks (where anything per entry
  in Python shows: a broadcast changes ~505 of the 512 entries at once,
  so a loop in change tracking or decode trips it).
- ``ring512_peak_rss_mb``: the compressed ring at 512 ranks, run in one
  child interpreter of its own, under the record plus 10% (the number
  repeats to ±2.5% on one host).  Per-rank state is O(touched peers)
  apart from the depend-interval vector and its stamp array, and a
  stored vector is frozen at 1 B an entry: a log that keeps the
  piggyback tuples (16 MB at this scale), a member-set copy per rank
  (16 MB) or four length-n lists per rank (8 MB) trip it; a checkpoint
  snapshot kept as lists (4 MB) or a single such list (2 MB) does not,
  and is what the tier-1 footprint test
  (``tests/integration/test_touched_state.py``) is for.  The child
  imports no test runner: its peak is the program's.

Targets for these numbers live in ROADMAP.md, not in the records.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from benchmarks.e2e.run import git_state  # noqa: E402
from repro._version import __version__  # noqa: E402
from repro.config import SimulationConfig  # noqa: E402
from repro.faults.detector import DetectorConfig  # noqa: E402
from repro.faults.injector import FaultSpec  # noqa: E402
from repro.mpi.cluster import Cluster, run_simulation  # noqa: E402
from repro.simnet.network import NetworkConfig  # noqa: E402
from repro.simnet.transport import TransportConfig  # noqa: E402
from repro.workloads.presets import workload_factory  # noqa: E402

SUBSTRATE, PIGGYBACK = "substrate", "piggyback"
#: the trajectory file of each record kind
ARTIFACTS = {SUBSTRATE: ROOT / "BENCH_substrate.json",
             PIGGYBACK: ROOT / "BENCH_piggyback.json"}
#: ring scales a piggyback record sweeps by default.  One compressed run
#: peaks at 47 B x n^2 (measured: 0.84 GB at 4096 ranks, 3.1 GB at 8192,
#: 4.7 GB and 89 s at 10240; tracemalloc at 2048 names decoder bases 20,
#: the vector and its stamp array 16, the frozen log items 8 - eight
#: messages a rank at 1 B an entry - and checkpoint zero's frozen
#: snapshot 1).  The raw leg of a point still logs an n-entry tuple per
#: message, ~80 B x n^2: 8.4 GB at 10240, so larger scales are for
#: ``--scales`` on a host that has the memory
RING_SCALES = (64, 256, 1024)
#: scale point for the deterministic compressed-bytes gate
PB_GATE_NPROCS = 256
#: absolute margin above the latest recorded ``overhead_0pct``
OVERHEAD_MARGIN = 0.10
#: relative margin above the latest recorded ``detector_armed_x``.  An
#: engine event per heartbeat arrival read +20% (1.44x against 1.20x,
#: same host, alternating rounds) and is caught exactly by
#: ``events_armed``; the wall ratio is for per-beat cost creeping back
ARMED_MARGIN = 0.20
#: relative margin above the latest recorded ``tag_x``; the set-based
#: store this guards against read +400% (5.3x vs 1.0x)
TAG_MARGIN = 0.25
#: relative margin above the latest recorded ``verify_x``; the
#: copy-per-sample oracle behind a catch-all listener this guards
#: against read +22% (1.78 vs 1.45)
VERIFY_MARGIN = 0.15
#: relative margin above the latest recorded compressed bytes/msg
PB_MARGIN = 0.10
#: relative margin above the latest recorded ``compress_x``; the
#: per-value varint loops this guards against read +17% (1.78 vs 1.52)
COMPRESS_MARGIN = 0.15
#: relative margin above the latest recorded ``ring512_compress_x``; the
#: per-entry change log this guards against read +27% (2.08 vs 1.64)
RING512_MARGIN = 0.15
#: relative margin above the latest recorded ``ring512_peak_rss_mb``;
#: the boxed log items this guards against read +26% (the 16 MB of
#: piggyback tuples PR 23 froze, on a 67 MB record)
RING512_RSS_MARGIN = 0.10

#: ceiling gates: measured name -> (trajectory, key path in its latest
#: record, margin, whether the margin is relative to the recorded value)
CEILINGS = {
    "overhead_0pct": (SUBSTRATE, ("overhead_0pct",), OVERHEAD_MARGIN, False),
    "detector_armed_x": (SUBSTRATE, ("detector_armed_x",), ARMED_MARGIN, True),
    "verify_x": (SUBSTRATE, ("verify_x",), VERIFY_MARGIN, True),
    "tag_x": (SUBSTRATE, ("tag_x",), TAG_MARGIN, True),
    "wire_bytes_per_msg": (PIGGYBACK, ("wire_bytes_per_msg",
                                       str(PB_GATE_NPROCS)), PB_MARGIN, True),
    "compress_x": (PIGGYBACK, ("compress_x",), COMPRESS_MARGIN, True),
    "ring512_compress_x": (PIGGYBACK, ("ring512_compress_x",),
                           RING512_MARGIN, True),
    "ring512_peak_rss_mb": (PIGGYBACK, ("ring512_peak_rss_mb",),
                            RING512_RSS_MARGIN, True),
}
#: deterministic counts that must equal the latest substrate record's
EXACT = ("events_armed", "events_armed_traced", "events_armed_verified",
         "tag_graph_nodes_scanned", "tag_pb_identifiers")
#: every gate :func:`check` applies, by the name its failure carries
GATES = (*CEILINGS, *EXACT, "oracle_holds_beats", "oracle_violations")


def lu8_run(*, transport: bool = False, drop_prob: float = 0.0,
            detector: bool = False, protocol: str = "tdi",
            observed: bool = False, verify: bool = False):
    """One LU/8-rank run, paper preset, with the given substrate
    configuration; ``observed`` attaches a listener that hears
    everything and ignores it, which is enough to make every heartbeat
    an engine event — the path a traced run takes; ``verify`` attaches
    the oracle, which subscribes to its own kinds and must not."""
    config = SimulationConfig(
        nprocs=8, protocol=protocol, seed=1, checkpoint_interval=0.02,
        network=NetworkConfig(drop_prob=drop_prob),
        transport=TransportConfig(enabled=transport),
        detector=DetectorConfig(enabled=detector), verify=verify,
    )
    cluster = Cluster(config, workload_factory("lu", scale="paper"))
    if observed:
        cluster.trace.attach_listener(lambda event: None)
    return cluster.run()


#: the LU-8 cells, each timed against ``base`` (raw network, nothing
#: armed) in the same rounds.  The detector cells have no fault: the cost
#: measured is the heartbeat plane's, not a recovery's.  ``tag`` cuts an
#: increment of the antecedence graph on every send and merges one on
#: every delivery; ``verify`` checks and samples every send, delivery
#: and checkpoint
LU8_CELLS = {
    "base": lambda: lu8_run(),
    "rt0": lambda: lu8_run(transport=True),
    "rt1": lambda: lu8_run(transport=True, drop_prob=0.01),
    "armed": lambda: lu8_run(detector=True),
    "tag": lambda: lu8_run(protocol="tag"),
    "verify": lambda: lu8_run(verify=True),
    "armed_verify": lambda: lu8_run(detector=True, verify=True),
}
#: the cells the CI gate times (a record times them all)
GATED_CELLS = ("base", "rt0", "armed", "tag", "verify")


def _tag_counts(run) -> dict:
    """What a TAG run scans and piggybacks (deterministic)."""
    return {
        "tag_graph_nodes_scanned": int(run.stats.total("graph_nodes_scanned")),
        "tag_pb_identifiers": int(run.stats.total("piggyback_identifiers")),
    }


def lu16_kill_run(*, compress: bool):
    """The ROADMAP baseline cell: LU, 16 ranks, ``paper`` preset,
    checkpoint interval 0.05, rank 3 killed at t=0.02."""
    config = SimulationConfig(nprocs=16, protocol="tdi", seed=1,
                              checkpoint_interval=0.05,
                              compress_piggybacks=compress)
    return run_simulation(config, workload_factory("lu", scale="paper"),
                          [FaultSpec(rank=3, at_time=0.02)])


def ring_run(nprocs: int, *, compress: bool, rounds: int = 6):
    """One TDI run on the sparse ring workload at the given scale.

    Fixed nearest-neighbour strides keep each rank's causal cone to the
    few ranks within ``rounds`` hops, so the *delta* between consecutive
    piggybacks stays O(1) while the raw dense vector is O(n) — the
    regime the compressed encodings exist for.
    """
    config = SimulationConfig(
        nprocs=nprocs, protocol="tdi", seed=1,
        checkpoint_interval=10.0,  # no mid-run checkpoints; pure tracking
        compress_piggybacks=compress,
    )
    workload = workload_factory("synthetic", scale="fast",
                                pattern="ring", rounds=rounds)
    return run_simulation(config, workload)


def ring_bytes_per_message(nprocs: int, *, compress: bool) -> float:
    """Piggyback bytes per app message actually put on the wire."""
    run = ring_run(nprocs, compress=compress)
    counter = "piggyback_bytes_wire" if compress else "piggyback_bytes_raw"
    return run.stats.total(counter) / run.stats.total("app_sends")


def _alternating(runs: dict, rounds: int) -> dict:
    """``name -> (wall time of every round, the deterministic result)``
    of each of ``runs``, taken round-robin: every round times each run
    once, in order, so a slow minute on the host lands on every side of
    a ratio instead of on one of them.  The collector runs before each,
    outside the timer, and a run's previous result is released there
    too: no run pays for its predecessor's garbage."""
    walls: dict = {name: [] for name in runs}
    results: dict = {}
    for _ in range(rounds):
        for name, fn in runs.items():
            results.pop(name, None)
            gc.collect()
            t0 = time.perf_counter()
            result = fn()
            walls[name].append(time.perf_counter() - t0)
            results[name] = result
    return {name: (walls[name], results[name]) for name in runs}


def _round_ratio(walls: list, base_walls: list) -> float:
    """Median of the per-round ratios of two :func:`_alternating` sides.
    The fastest-of-each-side estimator this replaces read the clean-wire
    overhead +0.19 / +0.18 against a 0.15 ceiling in two of six runs on
    a loaded host, and ``compress_x`` 1.76 against a 1.75 ceiling: one
    side never saw the other's quiet moment."""
    return statistics.median(w / b for w, b in zip(walls, base_walls))


def compression_x(repeats: int) -> dict[str, float]:
    """Compressed wall over plain wall, the compressed side first in
    each round: ``compress_x`` on LU-16 with one kill, and
    ``ring512_compress_x`` on the ring at 512 ranks."""
    ratios = {}
    for name, run in (("compress_x", lu16_kill_run), ("ring512_compress_x",
                      lambda compress: ring_run(512, compress=compress))):
        timed = _alternating({"compressed": lambda: run(compress=True),
                              "plain": lambda: run(compress=False)}, repeats)
        ratios[name] = _round_ratio(timed["compressed"][0], timed["plain"][0])
    return ratios


def _peak_rss_mb() -> float:
    """This process's own high-water RSS (``ru_maxrss`` would also count
    what its parent held when it forked)."""
    with open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:")) / 1024


def ring_point(nprocs: int) -> dict[str, float]:
    """Raw and compressed bytes per message at one scale, the compressed
    run's wall time (the faster of two rounds) and this process's peak
    RSS after the compressed runs — the scale's own only in a fresh
    process (:func:`ring_point_isolated`).  A round keeps its scalar,
    not its ``RunResult``: the peak is one run's, not two."""
    walls, wire = _alternating({"wire": lambda: ring_bytes_per_message(
        nprocs, compress=True)}, 2)["wire"]
    peak = _peak_rss_mb()
    raw = ring_bytes_per_message(nprocs, compress=False)
    return {"raw": raw, "wire": wire, "ratio": raw / wire,
            "wall_s": min(walls), "peak_rss_mb": peak}


def ring_point_isolated(nprocs: int) -> dict[str, float]:
    """:func:`ring_point` in a child interpreter of its own: in one
    process the peak of a small scale would be whatever a larger one,
    or the LU runs before it, left behind."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--ring-point",
         str(nprocs)], check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def latest_record(kind: str) -> dict:
    """The newest record of a trajectory file."""
    path = ARTIFACTS[kind]
    records = json.loads(path.read_text(encoding="utf-8"))["records"]
    if not records:
        raise SystemExit(f"no records in {path}; run "
                         f"perf_smoke.py --record {kind} first")
    return records[-1]


def ceiling(name: str, record: dict) -> float:
    """The ceiling gate ``name`` holds its value under, from ``record``
    (the latest record of the gate's trajectory)."""
    _, path, margin, relative = CEILINGS[name]
    value = record
    for key in path:
        value = value[key]
    return value * (1.0 + margin) if relative else value + margin


def check(measured: dict, substrate: dict, piggyback: dict) -> dict[str, str]:
    """``gate -> why it failed`` for every gate of :data:`GATES` that
    ``measured`` trips against the latest ``substrate`` and ``piggyback``
    records; empty when all hold."""
    records = {SUBSTRATE: substrate, PIGGYBACK: piggyback}
    failed = {}
    for name, (kind, _, margin, relative) in CEILINGS.items():
        limit = ceiling(name, records[kind])
        if measured[name] > limit:
            failed[name] = (
                f"{measured[name]:.4f} exceeds the pinned ceiling "
                f"{limit:.4f} (latest {ARTIFACTS[kind].name} record + "
                + (f"{margin:.0%})" if relative else f"{margin})"))
    for name in EXACT:
        if measured[name] != substrate[name]:
            failed[name] = (
                f"{measured[name]}, the latest {ARTIFACTS[SUBSTRATE].name} "
                f"record pins {substrate[name]} (deterministic: any "
                "difference is a behaviour change)")
    if measured["events_armed_verified"] != measured["events_armed"]:
        failed["oracle_holds_beats"] = (
            f"the oracle alone changed the armed run's event count "
            f"({measured['events_armed']} -> "
            f"{measured['events_armed_verified']}): it un-held a heartbeat")
    if measured["oracle_violations"]:
        failed["oracle_violations"] = (
            f"the oracle found {len(measured['oracle_violations'])} "
            f"violations in a clean run: {measured['oracle_violations'][0]}")
    return failed


def measure(repeats: int) -> dict:
    """Every value :func:`check` reads, from one pass over the cells."""
    timed = _alternating({name: LU8_CELLS[name] for name in GATED_CELLS},
                         repeats)
    base_w = timed["base"][0]

    def ratio(name: str) -> float:
        return _round_ratio(timed[name][0], base_w)

    return {
        "overhead_0pct": ratio("rt0") - 1.0,
        "detector_armed_x": ratio("armed"),
        "verify_x": ratio("verify"),
        "tag_x": ratio("tag"),
        "events_armed": timed["armed"][1].events_fired,
        "events_armed_traced": lu8_run(detector=True,
                                       observed=True).events_fired,
        "events_armed_verified": lu8_run(detector=True,
                                         verify=True).events_fired,
        **_tag_counts(timed["tag"][1]),
        "oracle_violations": timed["verify"][1].violations,
        "wire_bytes_per_msg": ring_bytes_per_message(PB_GATE_NPROCS,
                                                     compress=True),
        **compression_x(repeats),
        "ring512_peak_rss_mb": ring_point_isolated(512)["peak_rss_mb"],
    }


def gate(repeats: int) -> int:
    """Measure, print every gated value beside its pin, and fail on any
    gate that trips."""
    substrate, piggyback = latest_record(SUBSTRATE), latest_record(PIGGYBACK)
    measured = measure(repeats)
    for name, (kind, *_) in CEILINGS.items():
        limit = ceiling(name, substrate if kind == SUBSTRATE else piggyback)
        print(f"{name:24s} {measured[name]:10.4f}  (ceiling {limit:.4f})")
    for name in EXACT:
        print(f"{name:24s} {measured[name]:10d}  (pinned {substrate[name]})")
    print(f"{'oracle_violations':24s} "
          f"{len(measured['oracle_violations']):10d}")
    failed = check(measured, substrate, piggyback)
    for name, why in failed.items():
        print(f"FAIL {name}: {why}")
    if not failed:
        print("perf smoke OK")
    return 1 if failed else 0


def _provenance(note: str) -> dict:
    sha, dirty = git_state()
    return {
        "note": note,
        "date": time.strftime("%Y-%m-%d"),
        "version": __version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "command": [Path(sys.executable).name, *sys.argv],
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def substrate_record(note: str, repeats: int) -> dict:
    """The transport, detector, TAG and oracle overhead matrix on LU-8:
    walls are the fastest round's, ratios the median of per-round
    ratios over ``base``."""
    timed = _alternating(LU8_CELLS, repeats)
    base, rt0, rt1, armed, tag, verified, armed_verified = (
        result for _, result in timed.values())
    if verified.violations or armed_verified.violations:
        raise SystemExit("the oracle found violations in a clean run")

    def wall(name: str) -> float:
        return round(min(timed[name][0]), 4)

    def ratio(name: str) -> float:
        return round(_round_ratio(timed[name][0], timed["base"][0]), 4)

    return {
        **_provenance(note),
        "workload": {"kernel": "lu", "preset": "paper", "nprocs": 8,
                     "protocol": "tdi", "seed": 1},
        "baseline_s": wall("base"),
        "transport_0pct_s": wall("rt0"),
        "transport_1pct_s": wall("rt1"),
        "overhead_0pct": round(ratio("rt0") - 1.0, 4),
        "overhead_1pct": round(ratio("rt1") - 1.0, 4),
        "events_baseline": base.events_fired,
        "events_0pct": rt0.events_fired,
        "events_1pct": rt1.events_fired,
        "sim_time_baseline_s": round(base.accomplishment_time, 6),
        "sim_time_1pct_s": round(rt1.accomplishment_time, 6),
        "retransmits_1pct": int(rt1.stats.total("rt_retransmits")),
        "frames_lost_1pct": rt1.network.frames_dropped_impaired,
        "standalone_acks_0pct": int(rt0.stats.total("rt_acks_sent")),
        "detector_armed_s": wall("armed"),
        # armed wall over the plain baseline's (a ratio, so it travels
        # between machines); the three counts are deterministic — the
        # armed run's events with its heartbeats held, and with every
        # one an engine event because something observes the trace
        "detector_armed_x": ratio("armed"),
        "events_armed": armed.events_fired,
        "events_armed_traced": lu8_run(detector=True,
                                       observed=True).events_fired,
        "frames_armed": armed.network.frames_sent,
        # likewise for TAG: a ratio, and what it scans and piggybacks
        "tag_s": wall("tag"),
        "tag_x": ratio("tag"),
        **_tag_counts(tag),
        # and for the oracle: over the plain run, and over it with the
        # detector armed too — where it must fire the held run's events
        # (``events_armed``), no beat un-held on its account
        "verify_s": wall("verify"),
        "verify_x": ratio("verify"),
        "detector_verify_x": ratio("armed_verify"),
        "events_armed_verified": armed_verified.events_fired,
    }


def ring_shape(series: dict[int, dict[str, float]]) -> list[str]:
    """What the compressed wire must do on the ring sweep: raw is the
    dense (n+1)-identifier encoding at 4 bytes each; at 1024 ranks the
    compressed wire beats it by 10x or more; and it grows sublinearly,
    by strictly less than 4x on each 4x scale step of the sweep."""
    wrong = [f"raw {v['raw']} bytes/msg at n={n}, not 4(n+1)"
             for n, v in series.items()
             if not math.isclose(v["raw"], 4 * (n + 1), rel_tol=1e-6)]
    if 1024 in series and series[1024]["ratio"] < 10.0:
        wrong.append(f"compression ratio {series[1024]['ratio']:.1f}x at "
                     "n=1024, below 10x")
    wrong += [f"wire grows {series[4 * n]['wire'] / series[n]['wire']:.2f}x "
              f"from n={n} to n={4 * n}, not less than 4x"
              for n in series if 4 * n in series
              and series[4 * n]["wire"] >= 4 * series[n]["wire"]]
    return wrong


def piggyback_record(note: str, repeats: int, scales: tuple) -> dict:
    """The ring sweep (one child interpreter per scale, so each peak is
    that scale's own) and the two compression multipliers."""
    series = {n: ring_point_isolated(n) for n in scales}
    wrong = ring_shape(series)
    if wrong:
        raise SystemExit("the compressed ring sweep lost its shape: "
                         + "; ".join(wrong))

    def per_scale(key: str, digits: int) -> dict:
        return {str(n): round(series[n][key], digits) for n in scales}

    return {
        **_provenance(note),
        "workload": {"kernel": "synthetic", "pattern": "ring", "rounds": 6,
                     "protocol": "tdi", "seed": 1},
        "scales": list(scales),
        "raw_bytes_per_msg": per_scale("raw", 2),
        "wire_bytes_per_msg": per_scale("wire", 2),
        "compression_ratio": per_scale("ratio", 1),
        "ring_wall_s": per_scale("wall_s", 3),
        "ring_peak_rss_mb": per_scale("peak_rss_mb", 1),
        # the compressed ring at 512 ranks, a child of its own: per-rank
        # state around the vector is O(touched peers)
        "ring512_peak_rss_mb": round(
            ring_point_isolated(512)["peak_rss_mb"], 1),
        # compressed wall over plain wall, LU-16 paper preset with one
        # kill, and the same ratio on the ring at 512 ranks
        **{name: round(x, 3) for name, x in compression_x(repeats).items()},
    }


def append_record(kind: str, record: dict, path: Path) -> None:
    """Append ``record`` to the trajectory file (created on first use)."""
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    else:
        data = {"benchmark": f"perf_smoke --record {kind}", "records": []}
    data["records"].append(record)
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--record", choices=(SUBSTRATE, PIGGYBACK),
                        help="append one record to that trajectory instead "
                        "of gating")
    parser.add_argument("--out", type=Path,
                        help="trajectory file a record goes to (default: "
                        "BENCH_<record>.json at the repo root)")
    parser.add_argument("--note", default="",
                        help="free-text label stored in the record")
    parser.add_argument("--repeats", type=int, default=7,
                        help="round-robin rounds per ratio (default: 7; "
                        "a round is about a second)")
    parser.add_argument("--scales", type=lambda text: tuple(
                            int(n) for n in text.split(",")),
                        default=RING_SCALES, metavar="N,N,...",
                        help="ring scales a piggyback record sweeps "
                        f"(default: {','.join(map(str, RING_SCALES))})")
    parser.add_argument("--ring-point", type=int, metavar="N",
                        help="measure the ring at N ranks in this process "
                        "and print one JSON object (what a record's "
                        "per-scale child runs)")
    args = parser.parse_args(argv)
    if args.ring_point:
        print(json.dumps(ring_point(args.ring_point)))
        return 0
    if args.record is None:
        return gate(args.repeats)
    record = (substrate_record(args.note, args.repeats)
              if args.record == SUBSTRATE else
              piggyback_record(args.note, args.repeats, args.scales))
    out = args.out or ARTIFACTS[args.record]
    append_record(args.record, record, out)
    print(json.dumps(record, indent=2))
    print(f"appended to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
