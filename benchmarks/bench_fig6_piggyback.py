"""Fig. 6: average amount of piggyback per message (identifiers).

One benchmark per (workload, protocol) pair; each runs the full 4-32
process sweep and reports the per-scale series.  The assertions pin the
paper's qualitative shape: TAG > TEL > TDI everywhere, TDI exactly
linear in the process count, the TAG/TDI gap widening with scale and
worst on LU (the most communication-intensive benchmark).

Beyond the paper's 32-rank ceiling, the large-scale section sweeps
n in {64, 256, 1024} on a communication-sparse ring workload to measure
what ``compress_piggybacks`` does to TDI's O(n) wire cost, and what the
encoding costs the host: ``ring_wall_s`` and ``ring_peak_rss_mb`` per
scale (one child process per scale, so each peak is that scale's own;
a *record* goes on to 10240 ranks, ``--scales`` to choose, and
``ring512_peak_rss_mb``, the memory number ``perf_smoke.py`` gates),
and two ratios that travel between machines — ``compress_x``,
compressed wall over plain wall on the ROADMAP baseline cell (LU, 16
ranks, one kill), where a NumPy call's fixed cost shows, and
``ring512_compress_x``, the same ratio on the ring at 512 ranks, where
anything per entry in Python shows.  Both are medians of per-round
ratios, the two sides of a round timed seconds apart.
Run as a module (``python benchmarks/bench_fig6_piggyback.py``) to
append one record to ``BENCH_piggyback.json``.
"""

import argparse
import functools
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro._version import __version__
from repro.config import SimulationConfig
from repro.faults.injector import FaultSpec
from repro.harness.config import ExperimentOptions
from repro.mpi.cluster import run_simulation
from repro.workloads.presets import workload_factory

OPTIONS = ExperimentOptions()  # paper preset, scales 4..32
SCALES = OPTIONS.scales

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_piggyback.json"
#: beyond-the-paper scales for the compressed-wire sweep
LARGE_SCALES = (64, 256, 1024)
#: what a trajectory record measures, too much for a pytest sweep.  One
#: compressed run peaks at 47 B x n^2 (measured: 0.84 GB at 4096 ranks,
#: 3.1 GB at 8192, 4.7 GB and 89 s at 10240; tracemalloc at 2048 names
#: decoder bases 20, the vector and its stamp array 16, the frozen log
#: items 8 - eight messages a rank at 1 B an entry - and checkpoint
#: zero's frozen snapshot 1).  The raw leg of a point still logs an
#: n-entry tuple per message, ~80 B x n^2: 8.4 GB at 10240.
RECORD_SCALES = LARGE_SCALES + (2048, 4096, 8192, 10240)
#: ROADMAP "Close the measured gaps" (d): compressed wall / plain wall
COMPRESS_X_TARGET = 1.25


@functools.lru_cache(maxsize=None)
def sweep(workload: str, protocol: str) -> dict[int, float]:
    """Identifiers per message at every paper scale, memoised.

    The fig6 sweep, the ordering check and the LU-is-worst check revisit
    the same deterministic sweeps, so each simulates once per session:
    pytest-benchmark wall numbers time the *first* computation, and
    later checks that share a sweep measure cache hits (their real
    payload is the series, which the memo does not alter).
    """
    series = {}
    for nprocs in SCALES:
        config = SimulationConfig(
            nprocs=nprocs, protocol=protocol,
            checkpoint_interval=OPTIONS.checkpoint_interval, seed=OPTIONS.seed)
        run = run_simulation(config,
                             workload_factory(workload, scale=OPTIONS.preset))
        series[nprocs] = run.stats.piggyback_identifiers_per_message
    return series


@pytest.mark.parametrize("workload", ("lu", "bt", "sp"))
@pytest.mark.parametrize("protocol", ("tdi", "tel", "tag"))
def test_fig6(benchmark, figure_report, workload, protocol):
    series = benchmark(sweep, workload, protocol)
    figure_report.append(
        f"fig6 {workload:9s} {protocol}: "
        + "  ".join(f"n={n}:{v:8.1f}" for n, v in sorted(series.items()))
    )
    if protocol == "tdi":
        for n, v in series.items():
            assert v == pytest.approx(n + 1), "TDI piggyback is the vector + index"


@pytest.mark.parametrize("workload", ("lu", "bt", "sp"))
def test_fig6_ordering(benchmark, figure_report, workload):
    """The figure's protocol ordering at every scale point."""

    def all_protocols():
        return {p: sweep(workload, p) for p in ("tdi", "tel", "tag")}

    series = benchmark(all_protocols)
    for n in SCALES:
        # TEL > TDI and TAG > TDI strictly; TAG vs TEL may near-tie at
        # the smallest, least-communicative points (see validate_fig6)
        assert series["tel"][n] > series["tdi"][n], (workload, n)
        assert series["tag"][n] > series["tel"][n] * 0.85, (workload, n)
    # scalability: the TAG/TDI ratio grows with the system scale
    first, last = SCALES[0], SCALES[-1]
    assert (series["tag"][last] / series["tdi"][last]
            > series["tag"][first] / series["tdi"][first])
    figure_report.append(
        f"fig6 {workload:9s} TAG/TDI ratio: n={first}: "
        f"{series['tag'][first] / series['tdi'][first]:.1f}x -> n={last}: "
        f"{series['tag'][last] / series['tdi'][last]:.1f}x"
    )


def test_fig6_lu_is_worst_for_graph_protocols(benchmark, figure_report):
    """Frequent message passing (LU) hurts TAG most — paper §IV.A."""

    def tag_across_workloads():
        return {wl: sweep(wl, "tag")[SCALES[-1]] for wl in ("lu", "bt", "sp")}

    values = benchmark(tag_across_workloads)
    assert values["lu"] > values["sp"] > values["bt"]
    figure_report.append(
        "fig6 TAG identifiers at n=32 by workload: "
        + "  ".join(f"{k}:{v:.0f}" for k, v in values.items())
    )


# ----------------------------------------------------------------------
# Beyond the paper: compressed piggybacks at 64-1024 ranks
# ----------------------------------------------------------------------

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
    return _bytes_per_message(ring_run(nprocs, compress=compress), compress)


def _bytes_per_message(run, compress: bool) -> float:
    counter = "piggyback_bytes_wire" if compress else "piggyback_bytes_raw"
    return run.stats.total(counter) / run.stats.total("app_sends")


def _wall(fn):
    """One timed call, garbage collected first: (seconds, result)."""
    gc.collect()
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _peak_rss_mb() -> float:
    """This process's own high-water RSS (``ru_maxrss`` would also count
    what its parent held when it forked)."""
    with open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:")) / 1024


def ring_point(nprocs: int) -> dict[str, float]:
    """Raw and compressed bytes per message at one scale, the compressed
    run's wall time (the faster of two) and this process's peak RSS
    after the compressed runs — the scale's own only in a fresh process
    (:func:`ring_point_isolated`).  A repetition leaves its scalars
    behind, not its ``RunResult``: the peak is one run's, not two."""
    walls = []
    for _ in range(2):
        wall, wire = _wall(lambda: ring_bytes_per_message(nprocs,
                                                          compress=True))
        walls.append(wall)
    peak = _peak_rss_mb()
    raw = ring_bytes_per_message(nprocs, compress=False)
    return {"raw": raw, "wire": wire, "ratio": raw / wire,
            "wall_s": min(walls), "peak_rss_mb": peak}


def ring_sweep() -> dict[int, dict[str, float]]:
    return {nprocs: ring_point(nprocs) for nprocs in LARGE_SCALES}


def ring_point_isolated(nprocs: int) -> dict[str, float]:
    """:func:`ring_point` in a child interpreter of its own: in one
    process the peak of a small scale would be whatever a larger one,
    or the LU runs before it, left behind."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--ring-point",
         str(nprocs)], check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def lu_kill_run(*, compress: bool):
    """The ROADMAP baseline cell: LU, 16 ranks, ``paper`` preset,
    checkpoint interval 0.05, rank 3 killed at t=0.02."""
    config = SimulationConfig(nprocs=16, protocol="tdi", seed=1,
                              checkpoint_interval=0.05,
                              compress_piggybacks=compress)
    return run_simulation(config, workload_factory("lu", scale="paper"),
                          [FaultSpec(rank=3, at_time=0.02)])


def _compress_ratio(run, repeats: int) -> float:
    """Compressed wall over plain wall of ``run(compress=...)``: the
    median of ``repeats`` per-round ratios, the two sides of a round
    timed back to back.  A slow phase of a shared host outlasts a run,
    so it lands on both sides of a round's ratio or on neither; the
    fastest-of-each-side estimator this replaces read 1.76 against a
    1.75 ceiling when one side never saw a quiet moment."""
    return statistics.median(
        _wall(lambda: run(compress=True))[0]
        / _wall(lambda: run(compress=False))[0] for _ in range(repeats))


def compress_x(repeats: int = 5) -> float:
    """Host cost of the compressed wire on :func:`lu_kill_run`, where
    deltas are three entries and a NumPy call's fixed cost shows."""
    return _compress_ratio(lu_kill_run, repeats)


def ring512_compress_x(repeats: int = 5) -> float:
    """Host cost of the compressed wire on the ring at 512 ranks, where
    anything done per entry in Python — tracking, encode or decode —
    shows: a broadcast changes ~505 of the 512 entries at once."""
    return _compress_ratio(
        lambda compress: ring_run(512, compress=compress), repeats)


def test_compressed_ring_scaling(figure_report):
    """The tentpole claim: raw grows O(n), compressed stays near-flat."""
    series = ring_sweep()
    figure_report.append(
        "piggyback wire bytes/msg (ring, tdi): "
        + "  ".join(f"n={n}: raw={v['raw']:.0f} wire={v['wire']:.1f} "
                    f"({v['ratio']:.0f}x)" for n, v in sorted(series.items()))
    )
    # raw is the dense (n+1)-identifier encoding at 4 bytes each
    for n in LARGE_SCALES:
        assert series[n]["raw"] == pytest.approx(4 * (n + 1))
    # at 1024 ranks the compressed wire must beat raw by >= 10x
    assert series[1024]["ratio"] >= 10.0
    # and grow sublinearly across the sweep: each 4x scale step must
    # grow compressed bytes/msg by strictly less than 4x
    assert series[256]["wire"] < 4 * series[64]["wire"]
    assert series[1024]["wire"] < 4 * series[256]["wire"]


def test_compressed_ring_same_answer():
    """Compression is a wire format, not a semantics change."""
    base = ring_run(64, compress=False)
    comp = ring_run(64, compress=True)
    assert comp.answer == base.answer
    assert comp.stats.total("pb_undecodable_drops") == 0


# ----------------------------------------------------------------------
# Trajectory artifact
# ----------------------------------------------------------------------

def _git_sha() -> str:
    """HEAD of the checkout this file sits in, ``+dirty`` when the
    working tree differs from it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ARTIFACT.parent, check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        return git("rev-parse", "HEAD") + (
            "+dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def collect_record(note: str = "", scales: tuple = RECORD_SCALES) -> dict:
    """Measure the ring sweep and the LU compression multiplier once and
    package them for the trajectory."""
    series = {nprocs: ring_point_isolated(nprocs) for nprocs in scales}
    ring512_rss = ring_point_isolated(512)["peak_rss_mb"]
    ratio = compress_x()
    ring_ratio = ring512_compress_x()
    return {
        "note": note,
        "date": time.strftime("%Y-%m-%d"),
        "version": __version__,
        "git_sha": _git_sha(),
        "command": [Path(sys.executable).name, *sys.argv],
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workload": {"kernel": "synthetic", "pattern": "ring", "rounds": 6,
                     "protocol": "tdi", "seed": 1},
        "scales": list(scales),
        "raw_bytes_per_msg": {str(n): round(series[n]["raw"], 2)
                              for n in scales},
        "wire_bytes_per_msg": {str(n): round(series[n]["wire"], 2)
                               for n in scales},
        "compression_ratio": {str(n): round(series[n]["ratio"], 1)
                              for n in scales},
        "ring_wall_s": {str(n): round(series[n]["wall_s"], 3)
                        for n in scales},
        "ring_peak_rss_mb": {str(n): round(series[n]["peak_rss_mb"], 1)
                             for n in scales},
        # the compressed ring at 512 ranks, a child of its own: per-rank
        # state around the vector is O(touched peers)
        "ring512_peak_rss_mb": round(ring512_rss, 1),
        # compressed wall over plain wall, LU-16 paper preset, one kill
        "compress_x": round(ratio, 3),
        "compress_x_target": COMPRESS_X_TARGET,
        "compress_x_target_met": ratio <= COMPRESS_X_TARGET,
        # the same ratio on the ring at 512 ranks
        "ring512_compress_x": round(ring_ratio, 3),
    }


def append_record(record: dict, path: Path = ARTIFACT) -> None:
    """Append ``record`` to the trajectory file (created on first use)."""
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    else:
        data = {"benchmark": "bench_fig6_piggyback",
                "description": "piggyback bytes per message, raw vs "
                               "compressed wire encodings (TDI, sparse "
                               "ring workload, 64-1024 ranks), one "
                               "record appended per measurement run",
                "records": []}
    data["records"].append(record)
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    """Measure, print, and append to the trajectory artifact."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=ARTIFACT,
                        help=f"trajectory file (default: {ARTIFACT})")
    parser.add_argument("--note", default="",
                        help="free-text label stored in the record")
    parser.add_argument("--ring-point", type=int, metavar="N",
                        help="measure the ring at N ranks in this process "
                        "and print one JSON object (what a record's "
                        "per-scale child runs)")
    parser.add_argument("--scales", type=lambda text: tuple(
                            int(n) for n in text.split(",")),
                        default=RECORD_SCALES, metavar="N,N,...",
                        help="ring scales the record takes (default: "
                        f"{','.join(map(str, RECORD_SCALES))})")
    args = parser.parse_args(argv)
    if args.ring_point:
        print(json.dumps(ring_point(args.ring_point)))
        return 0
    record = collect_record(args.note, args.scales)
    append_record(record, args.out)
    print(json.dumps(record, indent=2))
    met = "met" if record["compress_x_target_met"] else "NOT met"
    print(f"compress_x {record['compress_x']} against its "
          f"{COMPRESS_X_TARGET} target: {met}")
    print(f"appended to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
