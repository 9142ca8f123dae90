"""One process, one workload: the part of the benchmark that runs the program.

``run.py`` starts this file in a fresh interpreter, once per role, and
reads one JSON object from its standard output:

``reference``  the failure-free ``protocol="none"`` answer of the
               workload's application, computed in a child of its own so
               it never adds to the timed child's memory;
``probe``      one set-up: import ``repro``, build config and factory,
               construct the workload's ``Cluster``, exit.  Timed from
               outside by whoever spawned it;
``timed``      the end-to-end run: repetitions back to back inside a wall
               budget, set-up probes spread between them;
``trace``      the per-layer run: a profiled repetition, exact counts
               read off ``RunResult``, the no-FT twin and the micro
               benches.  No end-to-end number is taken from it.

A repetition is ``Cluster(config, factory).run(faults)`` timed with
``time.perf_counter``; ``gc.collect()`` runs before it, outside the
timer.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy

import workloads
from repro.mpi.cluster import Cluster

#: set-up probes per timed run, spread evenly over its window
PROBES = 6
#: what one probe is assumed to cost before the first has been timed
_PROBE_GUESS_S = 0.6


def repetition(config, factory, faults):
    """One timed repetition: ``(result, construct_s, total_s)``."""
    gc.collect()
    t0 = time.perf_counter()
    cluster = Cluster(config, factory)
    t1 = time.perf_counter()
    result = cluster.run(faults)
    t2 = time.perf_counter()
    return result, t1 - t0, t2 - t0


def wire_pb_bytes(result) -> float:
    """Piggyback bytes actually put on the wire: the compressed counter
    when the compressed encoding ships, the raw one otherwise."""
    name = ("piggyback_bytes_wire" if result.config.compress_piggybacks
            else "piggyback_bytes_raw")
    return result.metrics.total(name)


def run_fingerprint(result) -> list:
    """What must be identical in every repetition of one (config, seed)."""
    return [result.events_fired, result.accomplishment_time, result.sim_time,
            result.metrics.messages_total, result.network.bytes_sent,
            wire_pb_bytes(result)]


def check(result, reference: list, kills: int, first: list | None) -> list[str]:
    """Why this repetition's output is wrong (empty when it is right)."""
    problems = []
    if result.results != reference:
        wrong = [rank for rank, (got, want)
                 in enumerate(zip(result.results, reference)) if got != want]
        problems.append(f"answer differs from the no-FT reference on ranks "
                        f"{wrong[:8]}")
    if result.violations:
        problems.append(f"{len(result.violations)} oracle violation(s)")
    recoveries = result.metrics.total("recovery_count")
    if recoveries != kills:
        problems.append(f"recovery_count {recoveries}, expected {kills}")
    if first is not None and run_fingerprint(result) != first:
        problems.append(f"fingerprint {run_fingerprint(result)} differs from "
                        f"the first repetition's {first}")
    return problems


def _inputs(args) -> dict[str, str]:
    """Provenance only this process knows."""
    return {"numpy": numpy.__version__,
            "workload_sha256": workloads.fingerprint(args.workload)}


# ----------------------------------------------------------------------
def run_reference(args) -> dict[str, Any]:
    config, factory, _ = workloads.build(args.workload, args.seed)
    result = Cluster(workloads.noft_twin(config), factory).run()
    return {"results": result.results}


def run_probe(args) -> None:
    config, factory, _ = workloads.build(args.workload, args.seed)
    Cluster(config, factory)


def _time_probe(args) -> float:
    command = [sys.executable, __file__, "probe", "--workload", args.workload,
               "--seed", str(args.seed)]
    t0 = time.perf_counter()
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_timed(args) -> dict[str, Any]:
    deadline = time.perf_counter() + args.budget
    config, factory, faults = workloads.build(args.workload, args.seed)
    reference = json.loads(Path(args.reference).read_text())["results"]
    probes = 1 if args.quick else PROBES

    if not args.quick:
        # untimed warm-up: caches fill, lazy imports finish
        repetition(config, factory, faults)

    window_start = time.perf_counter()
    span = deadline - window_start
    rep_s: list[float] = []
    probe_s: list[float] = []
    failures: list[str] = []
    attempted = failed = 0
    first = None
    messages = 0
    while True:
        # probes still owed, at the slowest one seen, come out of the window
        owed = (probes - len(probe_s)) * max(probe_s, default=_PROBE_GUESS_S)
        # 1.1x: the next repetition is rarely as fast as the fastest so far
        if rep_s and (args.quick or time.perf_counter() + 1.1 * min(rep_s)
                      + owed > deadline):
            break
        attempted += 1
        try:
            result, _, total_s = repetition(config, factory, faults)
        except Exception as exc:  # noqa: BLE001 - reported as a failed repetition
            failed += 1
            failures.append(f"raised {exc!r}")
            break  # a workload that raises cannot be timed
        problems = check(result, reference, len(faults), first)
        if problems:
            failed += 1
            failures.extend(problems)
        rep_s.append(total_s)
        if first is None:
            first = run_fingerprint(result)
            messages = result.metrics.messages_total
        del result
        # probe k is due once (k + 1/2) / probes of the window has passed,
        # so the probes sample the whole run and never sit in one noisy phase
        due = window_start + (len(probe_s) + 0.5) / probes * span
        if len(probe_s) < probes and time.perf_counter() >= due:
            probe_s.append(_time_probe(args))
    while len(probe_s) < probes:
        probe_s.append(_time_probe(args))

    return {
        "rep_s": rep_s, "probe_s": probe_s,
        "attempted": attempted, "failed": failed, "failures": failures[:20],
        "fingerprint": first, "messages": messages,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **_inputs(args),
    }


# ----------------------------------------------------------------------
def exact_counts(result, unarmed_events: int) -> dict[str, float]:
    """Per-layer counts read off ``RunResult``: identical every repetition
    of one (config, seed), so two commits compare exactly."""
    m = result.metrics
    net = result.network
    msgs = m.messages_total
    raw = m.total("piggyback_bytes_raw")
    shipped = m.total("piggyback_bytes_wire")
    mttd = result.detector.mean_time_to_detect()
    return {
        "sim_time_s": result.accomplishment_time,
        "pb_bytes_per_msg": wire_pb_bytes(result) / msgs,
        "simnet.engine.events_per_msg": result.events_fired / msgs,
        "simnet.network.frames_per_msg": net.frames_sent / msgs,
        "simnet.network.wire_bytes_per_msg": net.bytes_sent / msgs,
        "simnet.network.frames_dropped": net.frames_dropped,
        "simnet.transport.retransmits": m.total("rt_retransmits"),
        "simnet.transport.acks_sent": m.total("rt_acks_sent"),
        "core.tdi.pb_identifiers_per_msg": m.piggyback_identifiers_per_message,
        "core.tdi.tracking_sim_us_per_msg": m.tracking_time_total / msgs * 1e6,
        "protocols.compression.ratio": raw / shipped if shipped else 0.0,
        "protocols.compression.full_fallback_share":
            m.total("delta_fallback_full_sends") / msgs,
        "protocols.checkpoint.writes": result.checkpoint_writes,
        "protocols.checkpoint.sim_ms": m.total("checkpoint_time") * 1e3,
        "core.recovery.rollforward_sim_ms": m.total("rollforward_time") * 1e3,
        "core.recovery.resends": m.total("resends"),
        "core.log_store.log_bytes_peak": m.total("log_bytes_peak"),
        "protocols.tag_protocol.graph_nodes_per_msg":
            m.total("graph_nodes_scanned") / msgs,
        "faults.detector.event_multiplier":
            result.events_fired / unarmed_events,
        "faults.detector.mttd_sim_ms": mttd * 1e3 if mttd is not None else 0.0,
        "faults.detector.false_suspicions":
            result.detector.false_suspicion_count(),
        "verify.oracle.violations": len(result.violations),
    }


def run_trace(args) -> dict[str, Any]:
    # benchmark-only imports stay out of the probe and timed roles, whose
    # set-up time and memory are end-to-end metrics
    import micro
    import trace
    from repro.faults.detector import DetectorConfig

    deadline = time.perf_counter() + args.budget
    config, factory, faults = workloads.build(args.workload, args.seed)
    kills = len(faults)
    failures: list[str] = []
    attempted = failed = 0

    def checked(result, first):
        nonlocal attempted, failed
        problems = check(result, reference, kills, first)
        attempted += 1
        failed += bool(problems)
        failures.extend(problems)

    # the no-FT twin first: its answer is the reference for every check
    # below, its time the base of host_overhead_x (five repetitions)
    noft_config = workloads.noft_twin(config)
    noft_s = []
    for _ in range(1 if args.quick else 5):
        noft, _, total_s = repetition(noft_config, factory, None)
        noft_s.append(total_s)
    reference = noft.results
    noft_messages = noft.metrics.messages_total
    del noft

    # untraced repetitions: the base of trace.overhead_x and the source of
    # the exact counts.  The first doubles as the warm-up, so at least two.
    rep_s = []
    construct_s = []
    first = None
    for _ in range(1 if args.quick else 4):
        if len(rep_s) >= 2 and time.perf_counter() + 6 * min(rep_s) > deadline:
            break  # keep room for the traced repetition (~3x) and the rest
        plain, c_s, total_s = repetition(config, factory, faults)
        checked(plain, first)
        first = first or run_fingerprint(plain)
        rep_s.append(total_s)
        construct_s.append(c_s)

    gc.collect()
    t0 = time.perf_counter()
    traced, profile = trace.profile_call(
        lambda: Cluster(config, factory).run(faults))
    traced_s = time.perf_counter() - t0
    checked(traced, first)
    del traced

    unarmed_events = plain.events_fired
    if config.detector.enabled:
        unarmed_events = Cluster(config.with_(detector=DetectorConfig()),
                                 factory).run(faults).events_fired

    messages = plain.metrics.messages_total
    folded = trace.fold(profile)
    # host: read off the host clock.  exact: counts of the deterministic
    # simulation, identical for one (code, workload, seed)
    host, exact = trace.layer_metrics(folded, messages)
    exact.update(exact_counts(plain, unarmed_events))
    host["trace.overhead_x"] = traced_s / min(rep_s)
    host["simnet.engine.host_us_per_event"] = \
        min(rep_s) / plain.events_fired * 1e6
    host["mpi.cluster.construct_ms"] = min(construct_s) * 1e3
    host["mpi.cluster.noft_msgs_per_s"] = noft_messages / min(noft_s)
    host["mpi.cluster.host_overhead_x"] = min(rep_s) / min(noft_s)
    host.update(micro.run_all(config.nprocs, config.compress_piggybacks,
                              work=0.05 if args.quick else 1.0))
    return {
        "metrics": {**host, **exact}, "exact": sorted(exact),
        "attempted": attempted,
        "failed": failed, "failures": failures[:20],
        "fingerprint": first, "rep_s": rep_s, "traced_s": traced_s,
        "noft_s": noft_s, "folded": folded, **_inputs(args),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("reference", "probe", "timed", "trace"))
    parser.add_argument("--workload", required=True, choices=list(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, default=24.0,
                        help="wall seconds this child may use")
    parser.add_argument("--reference", help="file holding the reference answer")
    parser.add_argument("--quick", action="store_true",
                        help="wiring pass: one repetition, no warm-up")
    args = parser.parse_args(argv)
    if args.role == "probe":
        run_probe(args)
        return 0
    role = {"reference": run_reference, "timed": run_timed,
            "trace": run_trace}[args.role]
    print(json.dumps(role(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
