"""Repo benchmark driver.

    python3 benchmarks/e2e/run.py --seed 1
        every workload, end to end and traced; prints every metric by name
        with its unit and checks the outputs
    python3 benchmarks/e2e/run.py --workload lu16_tdi_kill --seed 1 \\
            --seconds 24 --trace 0
        one workload; the last line of standard output is one JSON object
        {"correct", "attempted", "failed", "metrics"} holding every
        end-to-end metric (--trace 0) or every per-layer metric (--trace 1)
    python3 benchmarks/e2e/run.py --selfcheck
        the whole suite twice on the working tree, second pass in reverse
        order; non-zero exit when the two passes disagree by more than
        the benchmark's own bounds on an end-to-end metric, or at all on
        the simulated result or an exact per-layer count

``BENCHMARK.json`` at the repository root is the one place metric names,
units, directions and bounds live; this file only computes values.  Which
per-layer metrics are exact counts is said by the child that computes
them (``detail.exact`` of a traced record), nowhere else.
``--seconds`` is the wall budget of one whole run, set-up included.
Nothing under ``src/`` is touched: every layer is measured from outside
through its public functions, in child interpreters (``child.py``).
See ``README.md`` beside this file for definitions and the noise
measurements behind the estimator.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: host seconds held back from the children's budget for interpreter
#: teardown and this driver's own bookkeeping, so one run ends inside
#: ``--seconds``
_RESERVE_S = 1.0


def load_contract() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Estimator
# ----------------------------------------------------------------------
def quiet_mean(samples: list[float]) -> float:
    """Mean of the fastest tenth of ``samples`` (at least 3 of them).

    Host noise on a shared machine is one-sided — contention only adds
    time — and comes in phases of several seconds, so the median of a run
    moves with how many repetitions fell into a slow phase while the
    fastest few are the ones the host left alone.  A mean of several
    rather than the single minimum keeps one lucky sample from setting
    the number.
    """
    if not samples:
        raise ValueError("no samples")
    keep = max(3, math.ceil(len(samples) / 10))
    fastest = sorted(samples)[:keep]
    return sum(fastest) / len(fastest)


def describe(samples: list[float]) -> dict[str, float]:
    """All-sample summary carried beside ``rep_s`` for the reader."""
    quartiles = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else [samples[0]] * 3)
    return {"count": len(samples), "min": min(samples), "p25": quartiles[0],
            "median": quartiles[1], "p75": quartiles[2], "max": max(samples)}


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # bytecode caches on, and kept under out/: set-up is then what a user
    # with a warm cache pays, whatever the caller's environment says, and
    # no __pycache__ lying beside the sources is ever read
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class ChildFailed(Exception):
    """A child interpreter died or printed no result (an import broke, the
    reference run raised, the kernel killed it for memory)."""


def spawn(role: str, workload: str, seed: int, *extra: str) -> dict[str, Any]:
    """Run one child to completion and parse the object it prints."""
    command = [sys.executable, str(HERE / "child.py"), role,
               "--workload", workload, "--seed", str(seed), *extra]
    done = subprocess.run(command, env=child_env(), capture_output=True,
                          text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        tail = " | ".join(done.stderr.strip().splitlines()[-3:])
        raise ChildFailed(f"{role} child of {workload} exited "
                          f"{done.returncode}: {tail or 'no output'}")
    sys.stderr.write(done.stderr)
    return json.loads(lines[-1])


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


@functools.cache
def git_state() -> tuple[str | None, bool | None]:
    """``(sha, dirty)`` of the checkout; ``(None, None)`` when it is not
    the top of a git work tree (the driver's copy is not)."""
    if _git("rev-parse", "--show-toplevel") != str(ROOT):
        return None, None
    status = _git("status", "--porcelain")
    return _git("rev-parse", "HEAD"), bool(status) if status is not None else None


def provenance(child: dict[str, Any], seed: int, seconds: float) -> dict[str, Any]:
    """What a reader needs to decide whether two records are comparable:
    the code, the interpreter, the inputs and the generating command."""
    sha, dirty = git_state()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": child.get("numpy"),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "run_seconds": seconds,
        "repetitions": len(child.get("rep_s", ())),
        "command": [Path(sys.executable).name, *sys.argv],
        "workload_sha256": child.get("workload_sha256"),
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def _with_units(values: dict[str, float], declared: list[dict[str, Any]]):
    units = {m["name"]: m["unit"] for m in declared}
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def _finish(record: dict[str, Any], child: dict[str, Any], seed: int,
            seconds: float, start: float) -> dict[str, Any]:
    record["provenance"] = provenance(child, seed, seconds)
    record["detail"]["wall_s"] = time.perf_counter() - start
    kind = "trace" if record["trace"] else "e2e"
    (OUT / f"{record['workload']}.{kind}.json").write_text(
        json.dumps(record, indent=1))
    return record


def _child_failed(workload: str, trace: int, error: ChildFailed, seed: int,
                  seconds: float, start: float) -> dict[str, Any]:
    """The record of a run whose child died: one attempt, one failure, no
    metric — a number from half a run would be worse than none."""
    record = {"workload": workload, "trace": trace, "correct": False,
              "attempted": 1, "failed": 1, "metrics": {},
              "detail": {"failures": [str(error)]}}
    return _finish(record, {}, seed, seconds, start)


def run_end_to_end(workload: str, seed: int, seconds: float, quick: bool,
                   contract: dict[str, Any]) -> dict[str, Any]:
    start = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    reference_path = OUT / f"{workload}.reference.json"
    try:
        reference_path.write_text(json.dumps(spawn("reference", workload, seed)))
        budget = seconds - (time.perf_counter() - start) - _RESERVE_S
        timed = spawn("timed", workload, seed, "--budget", f"{budget:.3f}",
                      "--reference", str(reference_path),
                      *(["--quick"] if quick else []))
    except ChildFailed as error:
        return _child_failed(workload, 0, error, seed, seconds, start)
    values = {}
    rep_s = quiet_mean(timed["rep_s"]) if timed["rep_s"] else None
    if rep_s:
        values = {
            "msgs_per_s": timed["messages"] / rep_s,
            "setup_s": min(timed["probe_s"]),
            "peak_rss_mb": timed["peak_rss_kb"] / 1024.0,
        }
    record = {
        "workload": workload, "trace": 0,
        "correct": timed["failed"] == 0 and bool(rep_s),
        "attempted": timed["attempted"], "failed": timed["failed"],
        "metrics": _with_units(values, contract["end_to_end"]),
        "detail": {
            "rep_s": rep_s,
            "all_repetitions_s": describe(timed["rep_s"]) if rep_s else None,
            "repetitions_s": timed["rep_s"],
            "probes_s": timed["probe_s"],
            "fingerprint": timed["fingerprint"],
            "failures": timed["failures"],
        },
    }
    return _finish(record, timed, seed, seconds, start)


def run_traced(workload: str, seed: int, seconds: float, quick: bool,
               contract: dict[str, Any]) -> dict[str, Any]:
    start = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    try:
        traced = spawn("trace", workload, seed, "--budget",
                       f"{seconds - _RESERVE_S:.3f}",
                       *(["--quick"] if quick else []))
    except ChildFailed as error:
        return _child_failed(workload, 1, error, seed, seconds, start)
    record = {
        "workload": workload, "trace": 1,
        "correct": traced["failed"] == 0,
        "attempted": traced["attempted"], "failed": traced["failed"],
        "metrics": _with_units(traced["metrics"], contract["per_layer"]),
        "detail": {key: traced[key] for key in
                   ("exact", "rep_s", "traced_s", "noft_s", "fingerprint",
                    "failures", "folded")},
    }
    return _finish(record, traced, seed, seconds, start)


def print_record(record: dict[str, Any], contract: dict[str, Any]) -> None:
    declared = {m["name"]: m for m in
                contract["end_to_end"] + contract["per_layer"]}
    kind = "per-layer (traced run)" if record["trace"] else "end to end"
    print(f"# {record['workload']} — {kind}: {record['attempted']} "
          f"repetitions, {record['failed']} failed, "
          f"{record['detail']['wall_s']:.1f} s wall")
    for name, metric in record["metrics"].items():
        spec = declared[name]
        bound = f", bound {spec['bound']}" if "bound" in spec else ""
        print(f"{name:52s} {metric['value']:>16.6g} {metric['unit']:8s}"
              f" ({spec['better']} is better{bound})")
    for failure in record["detail"]["failures"]:
        print(f"FAILED: {failure}")
    print(f"# provenance {json.dumps(record['provenance'])}")


def contract_line(record: dict[str, Any]) -> str:
    return json.dumps({key: record[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


# ----------------------------------------------------------------------
# Suite and self-check
# ----------------------------------------------------------------------
def run_suite(names: list[str], seed: int, seconds: float, quick: bool,
              contract: dict[str, Any]) -> dict[str, dict[str, Any]]:
    results = {}
    for name in names:
        results[name] = {
            "end_to_end": run_end_to_end(name, seed, seconds, quick, contract),
            "per_layer": run_traced(name, seed, seconds, quick, contract),
        }
        for record in results[name].values():
            print_record(record, contract)
        sys.stdout.flush()
    return results


def selfcheck(names: list[str], seed: int, seconds: float, quick: bool,
              contract: dict[str, Any]) -> int:
    """Two passes of the same code at the same seed must agree within the
    benchmark's own bounds on every end-to-end metric, and exactly on the
    simulated result and on every per-layer count."""
    first = run_suite(names, seed, seconds, quick, contract)
    second = run_suite(names[::-1], seed, seconds, quick, contract)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    bad = 0
    print(f"\n{'workload':22s} {'metric':28s} {'pass 1':>14s} {'pass 2':>14s} "
          f"{'rel diff':>10s} {'bound':>8s}")

    def row(name: str, metric: str, a: float | None, b: float | None,
            limit: float) -> None:
        nonlocal bad
        if a is None or b is None:  # one pass has no such number
            bad += 1
            print(f"{name:22s} {metric:28s} {a!s:>14s} {b!s:>14s} "
                  f"{'':10s} {limit:8.3g} MISSING")
            return
        rel = abs(b - a) / abs(a) if a else float(b != a)
        ok = rel <= limit
        bad += not ok
        print(f"{name:22s} {metric:28s} {a:14.6g} {b:14.6g} "
              f"{rel:10.4f} {limit:8.3g} {'ok' if ok else 'OUT'}")

    for name in names:
        for part in ("end_to_end", "per_layer"):
            if not (first[name][part]["correct"] and second[name][part]["correct"]):
                bad += 1
                print(f"{name:22s} {part}: a run reported failures")
        a, b = (p[name]["end_to_end"] for p in (first, second))
        for metric, limit in bounds.items():
            row(name, metric, *(r["metrics"].get(metric, {}).get("value")
                                for r in (a, b)), limit)
        same = a["detail"].get("fingerprint") == b["detail"].get("fingerprint")
        bad += not same
        print(f"{name:22s} simulated result (fingerprint) "
              f"{'identical' if same else 'DIFFERS'}")
        a, b = (p[name]["per_layer"] for p in (first, second))
        exact = sorted(set(a["detail"].get("exact", ()))
                       | set(b["detail"].get("exact", ())))
        moved = [m for m in exact if a["metrics"].get(m) != b["metrics"].get(m)]
        for metric in moved:
            row(name, metric, *(r["metrics"].get(metric, {}).get("value")
                                for r in (a, b)), 0.0)
        print(f"{name:22s} {len(exact) - len(moved)} of {len(exact)} exact "
              f"per-layer metrics identical")
    print(f"{bad} pair(s) out of bound")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="wall budget of one run, set-up included")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 end-to-end metrics, "
                             "1 per-layer metrics from a traced run")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--quick", action="store_true",
                        help="wiring pass: one repetition, no warm-up; the "
                             "numbers mean nothing")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'} not found: the benchmark measures "
              f"the program in this checkout and there is none", file=sys.stderr)
        return 2

    if args.selfcheck:
        return selfcheck(names, args.seed, args.seconds, args.quick, contract)
    if args.workload is None:
        results = run_suite(names, args.seed, args.seconds, args.quick, contract)
        records = [r for pair in results.values() for r in pair.values()]
        correct = all(r["correct"] for r in records)
        print(json.dumps({"correct": correct,
                          "attempted": sum(r["attempted"] for r in records),
                          "failed": sum(r["failed"] for r in records)}))
        return 0 if correct else 1
    run = run_traced if args.trace else run_end_to_end
    record = run(args.workload, args.seed, args.seconds, args.quick, contract)
    print_record(record, contract)
    print(contract_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
