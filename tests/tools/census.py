"""Reachability census: which functions in ``src/repro`` no production
entry point enters.

``python -m tests.tools.census`` (from the repository root, with
``PYTHONPATH=src``; about 75 s on one core) runs every entry point in
``ENTRY_POINTS`` in this one process under a ``sys.settrace`` hook that
records each code object entered, then walks every function definition
under ``src/repro`` and prints the ones never entered with their code
lines and the ``KEPT`` decision that keeps each, the modules never
imported, and the totals.  It takes no options.  It is a gate: the
exit status is 1 when an entry point raised or when any unreached
function or single-valued config field has no reason to stay
(UNDECIDED), else 0.

Everything runs in-process — the fuzzer with ``--jobs 1``, the harness
with ``-j 1``, the examples and the benchmark child through ``runpy`` —
because the hook sees neither pool workers nor subprocesses.  The
benchmark child's ``trace`` role covers the five ``BENCHMARK.json``
workloads, their no-FT twins and ``benchmarks/e2e/micro.py``; it is the
one reader of some detector accessors, so leaving it out would wrongly
mark them dead.

A *code line* carries a token that is not a comment, a blank or a
docstring.  A function's count is its own lines, without those of the
functions nested in it, so the totals never count a line twice.

An unreached function stays only if a production path reaches it under
inputs the census does not draw, if its module's ``__all__`` exports it
and the README or DESIGN documents it, or if it is a state probe that a
property test or equivalence tool compares against a reference.  The
rest goes, with the tests that exercise only it.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import fnmatch
import io
import os
import runpy
import shlex
import sys
import tempfile
import time
import tokenize
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"

#: the CI fuzz-smoke bands, one flag set each (``tests/unit/
#: test_census.py`` holds this list to ``.github/workflows/ci.yml``)
FUZZ_BANDS = (
    "",
    "--fault-bias overlap",
    "--fault-bias churn",
    "--fault-bias gray",
    "--storage-bias hostile",
    "--net-bias lossy",
    "--fault-bias overlap --compress",
    "--net-bias lossy --compress",
    "--fault-bias churn --storage-bias hostile --compress --no-shrink",
    "--fault-bias gray --storage-bias hostile --compress --no-shrink",
)
#: every script under ``examples/`` and every ``BENCHMARK.json`` workload
#: (``tests/unit/test_census.py`` holds both lists to the repository)
EXAMPLES = ("checkpoint_tuning.py", "custom_application.py",
            "multi_failure_recovery.py", "nondeterministic_reduce.py",
            "protocol_comparison.py", "quickstart.py", "replay_debugging.py")
WORKLOADS = ("lu16_tdi_kill", "lu16_tdi_armed", "lu16_tdi_detector",
             "lu8_tag_kill", "ring512_tdi_compress")
FAST = "--preset fast --scales 4,8 -j 1 --cache-dir {tmp}"

#: ``(target, arguments)``: a target is a module run as ``python -m`` or
#: a script under the repository root ``{root}``.  ``{tmp}`` is one
#: temporary directory for the whole census, so the harness runs share a
#: result cache and the second ``fig6`` is served from it.
ENTRY_POINTS: tuple[tuple[str, str], ...] = (
    ("repro.harness", f"all {FAST} --plot --check --json {{tmp}}/all.json"),
    ("repro.harness", f"fig6 {FAST}"),
    ("repro.harness", f"ablations {FAST}"),
    *(("repro.fuzz", f"--seed-range 0:8 --jobs 1 --no-cache --no-corpus {flags}")
      for flags in FUZZ_BANDS),
    ("repro.fuzz", "--replay {root}/tests/corpus --jobs 1 --no-cache"),
    *((f"examples/{name}", "") for name in EXAMPLES),
    *(("benchmarks/e2e/child.py", f"trace --workload {name} --seed 1 --quick")
      for name in WORKLOADS),
)

_LANGUAGE = "language: repr, ==, len, iteration, pickling, field checks"
_INTERFACE = "interface: a hook implementations override"
_STALL = "stall: diagnoses a stalled recovery or a wedged run"
_FINDING = "finding: shrinks, saves or parses a fuzz failure"
_PROBE = "probe: a property test or equivalence tool compares it"

#: why an unreached function stays, as ``fnmatch`` patterns over
#: ``file:qualname``; the first match wins, and a function no pattern
#: matches prints as UNDECIDED
KEPT: dict[str, str] = {
    "*:*.__*__": _LANGUAGE,
    "repro/simnet/trace.py:TraceEvent._astuple": _LANGUAGE,
    "*:*explain*": _STALL,
    "*:*.escalate_recovery": _STALL,
    "*:*._diagnose*": _STALL,
    "repro/mpi/endpoint.py:Endpoint.describe_wait": _STALL,
    "repro/protocols/queue.py:ReceivingQueue.frames": _STALL,
    "repro/simnet/network.py:Network.describe_pending": _STALL,
    "repro/simnet/transport.py:ReliableTransport.describe_pending": _STALL,
    "repro/protocols/base.py:EndpointServices.*": _INTERFACE,
    "repro/protocols/base.py:Protocol.*": _INTERFACE,
    "repro/core/recovery.py:SenderLoggingProtocol._*": _INTERFACE,
    "repro/protocols/pwd.py:PwdCausalProtocol._*": _INTERFACE,
    "repro/protocols/noop.py:NoFaultTolerance.*": _INTERFACE,
    "repro/workloads/base.py:Application.*": _INTERFACE,
    "repro/core/nonblocking.py:SendPump.on_ack": _INTERFACE,
    "repro/fuzz/shrink.py:*": _FINDING,
    "repro/fuzz/bands.py:_*": _FINDING,
    "repro/fuzz/campaign.py:*": _FINDING,
    "repro/fuzz/corpus.py:default_corpus_dir": _FINDING,
    "repro/fuzz/corpus.py:CorpusEntry.to_json_dict": _FINDING,
    "repro/fuzz/corpus.py:entry_filename": _FINDING,
    "repro/fuzz/corpus.py:save_entry": _FINDING,
    "repro/fuzz/differential.py:_crash_kind": _FINDING,
    "repro/fuzz/differential.py:_preview": _FINDING,
    "repro/fuzz/scenario.py:Scenario.*": _FINDING,
    "repro/fuzz/scenario.py:_plain": _FINDING,
    "repro/verify/oracle.py:CausalOracle._report": _FINDING,
    "repro/verify/violations.py:parse_violation": _FINDING,
    "repro/fuzz/differential.py:Finding.parse":
        "inputs: replaying an open corpus entry",
    "repro/fuzz/differential.py:ScenarioVerdict.signature":
        "inputs: replaying an open corpus entry",
    "repro/harness/executor.py:*": "inputs: -j N > 1 (worker processes)",
    "repro/simnet/engine.py:Engine.stop":
        "inputs: an application error (Endpoint._on_task_done)",
    "repro/workloads/mg.py:*": "inputs: the mg workload",
    "repro/workloads/is_sort.py:*": "inputs: the is workload",
    "repro/workloads/bt.py:bt_default_params":
        "inputs: a kernel built without parameters",
    "repro/workloads/sp.py:sp_default_params":
        "inputs: a kernel built without parameters",
    "repro/faults/injector.py:FaultInjector._storage_fault":
        "inputs: a scripted StorageFaultSpec",
    "repro/protocols/checkpoint.py:CheckpointStore.inject":
        "inputs: a scripted StorageFaultSpec",
    "repro/protocols/checkpoint.py:CheckpointStore.arm_hostile":
        "inputs: a scripted StorageFaultSpec",
    "repro/simnet/network.py:PartitionWindow.severs":
        "inputs: a partition window",
    "repro/simnet/network.py:Network.partitioned": "inputs: a partition window",
    "repro/simnet/transport.py:ReliableTransport.forget_peer":
        "inputs: a leave under the reliable transport",
    "repro/verify/oracle.py:CausalOracle._on_degrade":
        "inputs: a recovery escalation under the oracle",
    "repro/faults/schedules.py:weibull_schedule":
        "documented: repro.faults.__all__, README, DESIGN",
    "repro/faults/injector.py:staggered":
        "documented: repro.api.__all__, README's repro.faults row",
    "repro/mpi/collectives.py:*": "documented: the collectives README lists",
    "repro/mpi/context.py:ProcContext.*":
        "documented: the collectives README lists",
    "repro/fuzz/corpus.py:audit_entry":
        "documented: repro.fuzz.__all__, docs/FUZZING.md",
    "repro/debug/replay.py:audit_run":
        "documented: repro.fuzz.__all__, docs/FUZZING.md",
    "repro/protocols/registry.py:available_protocols": _PROBE,
    "repro/protocols/tag_protocol.py:TagProtocol.held_keys": _PROBE,
    "repro/protocols/tag_protocol.py:TagProtocol.known_keys": _PROBE,
    "repro/core/log_store.py:SenderLog.high_water": _PROBE,
    "repro/core/vectors.py:DependIntervalVector.own_epoch": _PROBE,
    "repro/core/vectors.py:DependIntervalVector.as_tuple": _PROBE,
    "repro/simnet/engine.py:Engine.pending_events": _PROBE,
    "repro/protocols/checkpoint.py:CheckpointStore.latest": _PROBE,
    "repro/protocols/checkpoint.py:CheckpointStore.generations": _PROBE,
    "repro/simnet/rng.py:RngStreams.names": _PROBE,
    "repro/verify/oracle.py:CausalOracle.summary": _PROBE,
    "repro/simnet/trace.py:Trace.detach_listener":
        f"{_PROBE} (the unlisten step of tests/properties/"
        f"test_network_fanout.py)",
}

#: why a config field that production runs with one value only stays a
#: field, as ``fnmatch`` patterns over its dotted leaf name
CONFIG_KEPT: dict[str, str] = {
    "detector.heartbeat_interval": "micro: benchmarks/e2e/micro.py reads it",
    "detector.window": "micro: benchmarks/e2e/micro.py reads it",
    "detector.floor": "micro: benchmarks/e2e/micro.py reads it",
    "network.jitter_fraction":
        "tests: a jitter-free wire in tests and the heartbeat matrix",
    "network.partitions": "fuzzer: the lossy band draws windows from seed 8 "
                          "on, past the eight seeds run here",
    "max_sim_time": "bound: a per-run limit",
}

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Function(NamedTuple):
    path: str        # relative to src/, e.g. "repro/api.py"
    first: int       # first line: its first decorator, else its ``def``
    qualname: str
    code_lines: int  # its own, nested functions' excluded


def code_lines(source: str, tree: ast.AST) -> set[int]:
    """Line numbers carrying code: any token but a comment or layout,
    minus every module, class and function docstring."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            head = node.body[0]
            if (isinstance(head, ast.Expr) and isinstance(head.value, ast.Constant)
                    and isinstance(head.value.value, str)):
                lines.difference_update(range(head.lineno, head.end_lineno + 1))
    return lines


def _span(node: ast.AST) -> range:
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return range(first, node.end_lineno + 1)


def functions(path: Path, rel: str) -> list[Function]:
    """Every function and method defined in one source file."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    code = code_lines(source, tree)
    found: list[Function] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS):
                own = code.intersection(_span(child))
                for inner in ast.walk(child):
                    if inner is not child and isinstance(inner, _FUNCTIONS):
                        own.difference_update(_span(inner))
                qualname = f"{prefix}{child.name}"
                found.append(Function(rel, _span(child).start, qualname, len(own)))
                visit(child, f"{qualname}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def inventory() -> list[Function]:
    """Every function under ``src/repro``, in file order."""
    return [fn for path in sorted(PACKAGE.rglob("*.py"))
            for fn in functions(path, path.relative_to(PACKAGE.parent).as_posix())]


def flatten(config: object, prefix: str = "") -> dict[str, object]:
    """A config dataclass as ``{dotted leaf name: value}``: nested
    dataclasses are expanded, anything else (a tuple too) is a leaf."""
    leaves: dict[str, object] = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            leaves.update(flatten(value, f"{prefix}{f.name}."))
        else:
            leaves[f"{prefix}{f.name}"] = value
    return leaves


# ----------------------------------------------------------------------
def _run(target: str, argv: list[str]) -> object:
    """One entry point, as ``python -m`` or ``python <script>`` would run
    it; returns its exit status."""
    saved_argv, saved_path = sys.argv, list(sys.path)
    # the benchmark child imports its siblings as top-level modules, and
    # ``trace`` would otherwise be the standard library's
    siblings = ("trace", "workloads", "micro")
    shadowed = {name: sys.modules.pop(name) for name in siblings
                if name in sys.modules}
    sys.argv = [target, *argv]
    try:
        if target.endswith(".py"):
            script = ROOT / target
            sys.path.insert(0, str(script.parent))
            runpy.run_path(str(script), run_name="__main__")
        else:
            runpy.run_module(target, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code
    finally:
        sys.argv, sys.path[:] = saved_argv, saved_path
        for name in siblings:
            sys.modules.pop(name, None)
        sys.modules.update(shadowed)
    return 0


def run_entry_points() -> tuple[set, list[str], dict[str, set[str]], int]:
    """Run ``ENTRY_POINTS`` under the hook: every code object entered,
    one status line per entry point, the config surface (each leaf
    field's distinct value reprs) and the number of clusters built."""
    entered: set = set()
    surface: dict[str, set[str]] = {}
    clusters = 0
    cluster_init = None

    def hook(frame, event, arg):
        nonlocal cluster_init, clusters
        code = frame.f_code
        entered.add(code)
        if code.co_name != "__init__":
            return
        if cluster_init is None:
            # resolved once the cluster module has finished importing
            cls = getattr(sys.modules.get("repro.mpi.cluster"), "Cluster", None)
            cluster_init = cls and cls.__init__.__code__
        if code is cluster_init:
            clusters += 1
            for name, value in flatten(frame.f_locals["config"]).items():
                surface.setdefault(name, set()).add(repr(value))

    status: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        for target, args in ENTRY_POINTS:
            started = time.perf_counter()
            sys.settrace(hook)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = _run(target, shlex.split(args.format(tmp=tmp, root=ROOT)))
                outcome = f"exit {code or 0}"
            except Exception as exc:  # noqa: BLE001 - reported, the rest still run
                traceback.print_exc()
                outcome = f"RAISED {exc!r}"[:200]
            finally:
                sys.settrace(None)
            status.append(f"  {time.perf_counter() - started:6.1f} s  "
                          f"{target} {args}".rstrip() + f": {outcome}")
    return entered, status, surface, clusters


def why_kept(name: str, table: dict[str, str] = KEPT) -> str:
    """The reason ``table`` gives for ``name`` (an unreached function's
    ``file:qualname``, or a config field under ``CONFIG_KEPT``), or
    UNDECIDED."""
    return next((reason for pattern, reason in table.items()
                 if fnmatch.fnmatchcase(name, pattern)), "UNDECIDED")


def main() -> int:
    started = time.perf_counter()
    entered, status, surface, clusters = run_entry_points()
    import repro
    if Path(repro.__file__).resolve().parent != PACKAGE:
        print(f"census: repro was imported from {repro.__file__}, not "
              f"{PACKAGE}; run with PYTHONPATH=src", file=sys.stderr)
        return 2
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno)
               for code in entered}
    imported = {os.path.realpath(code.co_filename) for code in entered
                if code.co_name == "<module>"}
    every = inventory()
    unreached = [fn for fn in every
                 if (str(PACKAGE.parent / fn.path), fn.first) not in reached]
    never_imported = sorted(path.relative_to(PACKAGE.parent).as_posix()
                            for path in PACKAGE.rglob("*.py")
                            if str(path) not in imported)

    print(f"census: {len(ENTRY_POINTS)} entry points")
    print("\n".join(status))
    print("\nunreached functions (file:line qualname code-lines: why kept):")
    by_reason: dict[str, list[int]] = {}
    for fn in unreached:
        reason = why_kept(f"{fn.path}:{fn.qualname}")
        print(f"  {fn.path}:{fn.first} {fn.qualname} {fn.code_lines}: {reason}")
        tally = by_reason.setdefault(reason.partition(":")[0], [0, 0])
        tally[0] += 1
        tally[1] += fn.code_lines
    print("\nmodules never imported:")
    print("\n".join(f"  {path}" for path in never_imported) or "  (none)")
    print("\nunreached by reason (functions, code lines):")
    for reason, (count, lines) in sorted(by_reason.items()):
        print(f"  {reason}: {count}, {lines}")
    print(f"\nconfig surface (leaf field: distinct values over {clusters} "
          f"clusters):")
    print("\n".join(f"  {name} {len(values)}"
                     for name, values in sorted(surface.items())))
    single = sorted(name for name, values in surface.items()
                    if len(values) == 1)
    print("\nsingle-valued config fields (field = value: why kept):")
    for name in single:
        print(f"  {name} = {next(iter(surface[name]))}: "
              f"{why_kept(name, CONFIG_KEPT)}")
    undecided = (
        sum(why_kept(f"{fn.path}:{fn.qualname}") == "UNDECIDED"
            for fn in unreached)
        + sum(why_kept(name, CONFIG_KEPT) == "UNDECIDED" for name in single))
    lines = sum(fn.code_lines for fn in unreached)
    print(f"\ncensus: {len(unreached)} of {len(every)} functions unreached, "
          f"{lines} code lines; {len(single)} of {len(surface)} config "
          f"fields single-valued; {undecided} undecided; in "
          f"{time.perf_counter() - started:.0f} s")
    raised = any("RAISED" in line for line in status)
    return 1 if raised or undecided else 0


if __name__ == "__main__":
    sys.exit(main())
