"""CI perf-smoke gate for the simulation substrate.

Measures clean-wire reliable-transport overhead with a small budget and
fails (exit 1) if it regresses above a ceiling derived from the latest
``BENCH_substrate.json`` trajectory record plus a noise margin — the
ack-storm regression this guards against was a 0.55 overhead against a
recorded ~0.03, so the default margin (0.10 absolute) trips on a real
regression and shrugs at shared-runner timing noise.

Also gates the compressed-piggyback wire size: bytes per message at
n=256 on the sparse ring workload is fully deterministic (byte counts,
not wall time), so it is pinned against the latest
``BENCH_piggyback.json`` record with a relative margin — a delta-encoder
regression that silently re-sends full vectors shows up as a 10-20x
jump, far past the 10% margin.

The host cost of that encoding is gated next to it, at two scales:
``compress_x`` (compressed wall over plain wall on LU-16 with one kill)
and ``ring512_compress_x`` (the same ratio on the ring at 512 ranks)
must each stay under the latest ``BENCH_piggyback.json`` record plus a
margin.  Both are medians of per-round ratios — machine-independent,
and steady where a slow phase of the host outlasts a run — so a
per-value Python loop creeping back into the codec trips the first, and
one creeping back into change tracking or decode trips the second, at
the scale where it shows.

And it gates the armed failure detector on the same LU-8 run, on both
of its arms.  ``events_fired`` is deterministic and must equal the
latest record exactly: ``events_armed`` for the unobserved run, whose
heartbeats wait on their lanes, and ``events_armed_traced`` for the same
run with a listener attached, where every beat is an engine event (a
heartbeat path that drops or adds an event on either arm, or holds a
beat somebody is watching, is a behaviour change, not a speed-up).  The
unobserved run's wall over the plain baseline's (``detector_armed_x``,
a machine-independent ratio) must stay under the latest record plus a
margin.

The oracle rides the same rounds.  ``verify_x`` (the plain run under
``verify=True`` over the plain run) must stay under the latest record
plus a margin: the checker is what every fuzz band runs, and a copy of
every sampled vector per event plus an event built for every kind it
ignores read +22% (1.78x against 1.45x, same host, alternating rounds).
And with the detector armed as well it must fire exactly the unverified
armed run's events (``events_armed_verified == events_armed``): the
oracle subscribes to its own kinds, so it un-holds no heartbeat.

Every wall ratio here is taken round-robin — the plain run and its
variants alternate, seconds apart — and is the median of the per-round
ratios, so a slow minute on a shared runner cannot land on one side of
a ratio only.

Memory is gated once: the compressed ring at 512 ranks, run in one child
interpreter, must peak under the latest ``BENCH_piggyback.json``
record's ``ring512_peak_rss_mb`` plus 10% (the number repeats to ±2.5%
on one host; 67 MB in the PR 23 record).  Per-rank state is O(touched
peers) apart from the depend-interval vector and its stamp array, and a
stored vector is frozen at 1 B an entry: a log that keeps the piggyback
tuples (16 MB at this scale), a member-set copy per rank (16 MB) or four
length-n lists per rank (8 MB) trip it; a checkpoint snapshot kept as
lists (4 MB) or a single such list (2 MB) does not, and is what the
tier-1 footprint test (``tests/integration/test_touched_state.py``) is
for.

The TAG baseline is gated the same way, on the same run under
``protocol="tag"``: what it scans and piggybacks
(``tag_graph_nodes_scanned``, ``tag_pb_identifiers``) is deterministic
and must equal the latest record exactly — any change to what TAG
piggybacks is a behaviour change — and its wall over the plain
baseline's (``tag_x``) must stay under the latest record plus a margin,
so a per-determinant Python loop creeping back into the antecedence
graph trips CI.

Run from the repo root: ``PYTHONPATH=src python benchmarks/perf_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.bench_fig6_piggyback import (  # noqa: E402
    ARTIFACT as PB_ARTIFACT,
    compress_x,
    ring512_compress_x,
    ring_bytes_per_message,
    ring_point_isolated,
)
from benchmarks.bench_substrate import (  # noqa: E402
    ARTIFACT,
    _alternating,
    _armed_run,
    _plain_run,
    _round_ratio,
    _tag_counts,
    _tag_run,
    _transport_run,
    _verified_run,
)

#: scale point for the deterministic compressed-bytes gate
PB_GATE_NPROCS = 256
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


def latest_record(path: Path) -> dict:
    """The newest record of a trajectory file."""
    records = json.loads(path.read_text(encoding="utf-8"))["records"]
    if not records:
        raise SystemExit(f"no records in {path}; run its bench_*.py first")
    return records[-1]


def pinned_ceiling(path: Path, margin: float) -> float:
    """Latest recorded clean-wire overhead plus the noise margin."""
    return latest_record(path)["overhead_0pct"] + margin


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--margin", type=float, default=0.10,
                        help="absolute overhead margin above the latest "
                        "record (default: 0.10)")
    parser.add_argument("--repeats", type=int, default=7,
                        help="round-robin rounds per ratio (default: 7 — "
                        "a round is about a second)")
    parser.add_argument("--artifact", type=Path, default=ARTIFACT,
                        help=f"trajectory file (default: {ARTIFACT})")
    parser.add_argument("--pb-margin", type=float, default=0.10,
                        help="relative margin above the latest recorded "
                        "compressed bytes/msg (default: 0.10)")
    parser.add_argument("--pb-artifact", type=Path, default=PB_ARTIFACT,
                        help=f"piggyback trajectory file "
                        f"(default: {PB_ARTIFACT})")
    args = parser.parse_args(argv)

    ceiling = pinned_ceiling(args.artifact, args.margin)
    ((base_w, _), (rt0_w, rt0), (armed_w, armed), (tag_w, tag),
     (verify_w, verified)) = _alternating({
        "base": _plain_run,
        "rt0": lambda: _transport_run(transport=True),
        "armed": _armed_run,
        "tag": _tag_run,
        "verify": _verified_run,
    }, args.repeats).values()
    overhead = _round_ratio(rt0_w, base_w) - 1.0
    acks = int(rt0.stats.total("rt_acks_sent"))
    print(f"clean-wire transport overhead: {overhead:+.4f} "
          f"(ceiling {ceiling:.4f}, baseline {min(base_w):.3f}s, "
          f"transport {min(rt0_w):.3f}s, {acks} standalone acks)")

    # armed detector: event counts of both arms exact, wall ratio
    # against the record
    pinned = latest_record(args.artifact)
    armed_ceiling = pinned["detector_armed_x"] * (1.0 + ARMED_MARGIN)
    armed_x = _round_ratio(armed_w, base_w)
    armed_events = {
        "events_armed": armed.events_fired,
        "events_armed_traced": _armed_run(observed=True).events_fired,
        "events_armed_verified": _armed_run(verify=True).events_fired,
    }
    print(f"armed detector: {armed_x:.2f}x the plain run "
          f"(ceiling {armed_ceiling:.2f}x, {min(armed_w):.3f}s), "
          f"{armed_events}")

    # the oracle: silent, and its wall ratio against the record
    verify_ceiling = pinned["verify_x"] * (1.0 + VERIFY_MARGIN)
    verify_x = _round_ratio(verify_w, base_w)
    print(f"oracle: {verify_x:.2f}x the plain run (ceiling "
          f"{verify_ceiling:.2f}x, {min(verify_w):.3f}s), "
          f"{len(verified.violations)} violations")

    # TAG: scan and piggyback counts exact, wall ratio against the record
    tag_ceiling = pinned["tag_x"] * (1.0 + TAG_MARGIN)
    tag_x = _round_ratio(tag_w, base_w)
    tag_counts = _tag_counts(tag)
    print(f"TAG: {tag_x:.2f}x the plain run (ceiling {tag_ceiling:.2f}x, "
          f"{min(tag_w):.3f}s), {tag_counts}")

    # compressed piggyback wire size: deterministic, gated at +10%
    pb_pinned = latest_record(args.pb_artifact)
    pb_ceiling = pb_pinned["wire_bytes_per_msg"][str(PB_GATE_NPROCS)] \
        * (1.0 + args.pb_margin)
    pb_wire = ring_bytes_per_message(PB_GATE_NPROCS, compress=True)
    print(f"compressed piggyback wire: {pb_wire:.2f} bytes/msg at "
          f"n={PB_GATE_NPROCS} (ceiling {pb_ceiling:.2f})")

    # and its host cost: compressed wall over plain wall, LU-16, one kill
    compress_ceiling = pb_pinned["compress_x"] * (1.0 + COMPRESS_MARGIN)
    compress_ratio = compress_x(args.repeats)
    print(f"compressed piggyback host cost: {compress_ratio:.2f}x the plain "
          f"run (ceiling {compress_ceiling:.2f}x)")
    ring512_ceiling = pb_pinned["ring512_compress_x"] * (1.0 + RING512_MARGIN)
    ring512_ratio = ring512_compress_x(args.repeats)
    print(f"compressed piggyback host cost, ring at 512 ranks: "
          f"{ring512_ratio:.2f}x the plain run (ceiling "
          f"{ring512_ceiling:.2f}x)")
    rss_ceiling = pb_pinned["ring512_peak_rss_mb"] * (1.0 + RING512_RSS_MARGIN)
    rss = ring_point_isolated(512)["peak_rss_mb"]
    print(f"compressed ring at 512 ranks: peak RSS {rss:.1f} MB "
          f"(ceiling {rss_ceiling:.1f} MB)")

    failed = False
    if overhead > ceiling:
        print(f"FAIL: clean-wire overhead {overhead:.4f} exceeds the "
              f"pinned ceiling {ceiling:.4f} "
              f"(latest {args.artifact.name} record + {args.margin})")
        failed = True
    if armed_x > armed_ceiling:
        print(f"FAIL: armed detector costs {armed_x:.2f}x the plain run, "
              f"above the pinned ceiling {armed_ceiling:.2f}x (latest "
              f"{args.artifact.name} record + {ARMED_MARGIN:.0%})")
        failed = True
    for name, count in {**armed_events, **tag_counts}.items():
        if count != pinned[name]:
            print(f"FAIL: {name} is {count}, the latest "
                  f"{args.artifact.name} record pins {pinned[name]} "
                  "(deterministic: any difference is a behaviour change)")
            failed = True
    if armed_events["events_armed_verified"] != armed_events["events_armed"]:
        print("FAIL: the oracle alone changed the armed run's event count "
              f"({armed_events}): it un-held a heartbeat")
        failed = True
    if verify_x > verify_ceiling:
        print(f"FAIL: the oracle costs {verify_x:.2f}x the plain run, above "
              f"the pinned ceiling {verify_ceiling:.2f}x (latest "
              f"{args.artifact.name} record + {VERIFY_MARGIN:.0%})")
        failed = True
    if verified.violations:
        print(f"FAIL: the oracle found {len(verified.violations)} "
              f"violations in a clean run: {verified.violations[0]}")
        failed = True
    if tag_x > tag_ceiling:
        print(f"FAIL: TAG costs {tag_x:.2f}x the plain run, above the "
              f"pinned ceiling {tag_ceiling:.2f}x (latest "
              f"{args.artifact.name} record + {TAG_MARGIN:.0%})")
        failed = True
    if pb_wire > pb_ceiling:
        print(f"FAIL: compressed piggyback {pb_wire:.2f} bytes/msg exceeds "
              f"the pinned ceiling {pb_ceiling:.2f} "
              f"(latest {args.pb_artifact.name} record + {args.pb_margin:.0%})")
        failed = True
    if compress_ratio > compress_ceiling:
        print(f"FAIL: compression costs {compress_ratio:.2f}x the plain run, "
              f"above the pinned ceiling {compress_ceiling:.2f}x (latest "
              f"{args.pb_artifact.name} record + {COMPRESS_MARGIN:.0%})")
        failed = True
    if ring512_ratio > ring512_ceiling:
        print(f"FAIL: compression costs {ring512_ratio:.2f}x the plain run "
              f"on the ring at 512 ranks, above the pinned ceiling "
              f"{ring512_ceiling:.2f}x (latest {args.pb_artifact.name} "
              f"record + {RING512_MARGIN:.0%})")
        failed = True
    if rss > rss_ceiling:
        print(f"FAIL: the compressed ring at 512 ranks peaks at {rss:.1f} "
              f"MB, above the pinned ceiling {rss_ceiling:.1f} MB (latest "
              f"{args.pb_artifact.name} record + {RING512_RSS_MARGIN:.0%})")
        failed = True
    if failed:
        return 1
    print("perf smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
