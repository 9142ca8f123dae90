"""Reference-vs-``src/`` equivalence of the compressed path's vector state.

Runs every cell of a matrix twice — once on
:mod:`tests.properties.reference_vector` (the log-based change tracker
and the list-based decoder of the commit before the stamp array) and
once on ``src/`` — with compressed piggybacks on, and requires the two
runs to be indistinguishable: the same trace digest (every event, so
every piggyback shipped and every merge count), ``events_fired``,
``sim_time``, answers, wire bytes, and on every rank
``piggyback_bytes_wire``, ``delta_fallback_full_sends`` and every other
``RankMetrics`` counter.  A cell in which both sides raise the same
exception is listed, and fails the matrix unless it is one of the
:func:`known_stall` cells.

``python -m tests.tools.compress_equivalence`` runs the full matrix — lu,
synthetic ring, synthetic weyl x n in {4, 16, 64, 256} x 0, 1, 2 kills x
fixed membership or the last rank joining late (``grow_to`` +
``VectorDeltaEncoder.grow``) x clean or 1% lossy wire under the reliable
transport: 144 cells, a few minutes, LU at 256 ranks being most of them —
prints the first differing field of every mismatching cell and exits
non-zero if there is one.  ``TIER1_CELLS`` is the slice
``tests/properties/test_compress_differential.py`` runs on every push.

``--mutants`` seeds each of :data:`MUTANTS` — one textual edit of
``src/`` apiece, the ways this representation can go wrong — into a
scratch copy of the package and runs the tier-1 slice, the stateful
model test and the wire-kernel properties (which hold the encoder to
the build-both-and-compare reference) against it; a mutant that no test
notices is reported and the exit status is non-zero.  The mutants of
the touched-peer maps and the shared membership set (the per-rank state
*around* the vector) and of the vector's stored form (sender log,
checkpoint image), and of the observers (the oracle's sampler and
shadow merge, the trace's subscriptions), and of the reliable transport
(each killed by the stateful model test) name their own killers in
:data:`MUTANT_KILLERS`; ``--mutants TEXT`` seeds only the mutants whose
name contains ``TEXT``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, NamedTuple

from repro import api
from repro.faults.injector import FaultSpec, JoinSpec
from repro.harness.runner import canonical_repr
from repro.simnet.network import NetworkConfig
from repro.simnet.transport import TransportConfig
from tests.properties.reference_vector import reference_vectors

#: name -> (workload, its keyword overrides)
WORKLOADS = {"lu": ("lu", {}),
             "ring": ("synthetic", {"pattern": "ring"}),
             "weyl": ("synthetic", {"pattern": "weyl"})}
SCALES = (4, 16, 64, 256)
#: fractions of the failure-free duration at which rank 1, then rank
#: n // 2, die; the late joiner (rank n - 1) comes in before either
KILL_AT = (0.35, 0.55)
JOIN_AT = 0.2


class Cell(NamedTuple):
    workload: str
    nprocs: int
    kills: int
    join: bool
    lossy: bool


FULL_MATRIX = [Cell(*c) for c in itertools.product(
    WORKLOADS, SCALES, (0, 1, 2), (False, True), (False, True))]


def known_stall(cell: Cell) -> bool:
    """Cells that deadlock on both sides, for a reason outside the
    vector: the reliable transport tells a stale frame from a fresh one
    by the destination's *epoch*, and a first-ever join attaches at
    epoch 0 like the empty slot before it — so a stream delta in flight
    across the join is taken for sequence 3 of the *new* numbering,
    dropped as undecodable (it is a delta against a base the joiner
    never had), and the standalone resend that should cover it is
    discarded as its duplicate.  Uncompressed the stale frame is the
    same message as its resend, so nothing is lost.  Needs a ring (the
    joiner's neighbour has sent it three messages by then)."""
    return (cell.workload == "ring" and cell.join and cell.lossy
            and cell.nprocs >= 16)


#: a third of the cells up to 16 ranks — those whose factor levels sum to
#: a multiple of three, a fraction in which every pair of levels of two
#: different factors still meets — plus seven large-n corners: 30 cells
TIER1_CELLS = [c for c in FULL_MATRIX if c.nprocs <= 16 and (
    list(WORKLOADS).index(c.workload) + SCALES.index(c.nprocs) + c.kills
    + c.join + c.lossy) % 3 == 0 and not known_stall(c)] + [
    Cell("lu", 64, 1, True, True), Cell("weyl", 64, 2, False, True),
    Cell("ring", 64, 2, True, False), Cell("ring", 64, 0, False, False),
    Cell("weyl", 64, 0, True, True), Cell("weyl", 256, 1, True, False),
    Cell("ring", 256, 2, False, True)]


def _run(cell: Cell, interval: float, events: list, trace: bool = True) -> Any:
    name, kwargs = WORKLOADS[cell.workload]
    config = api.SimulationConfig(
        nprocs=cell.nprocs, protocol="tdi", seed=1, trace_enabled=trace,
        checkpoint_interval=interval, compress_piggybacks=True,
        network=NetworkConfig(drop_prob=0.01 if cell.lossy else 0.0),
        transport=TransportConfig(enabled=cell.lossy))
    return api.run_workload(name, scale="fast", config=config,
                            faults=events or None, **kwargs)


@functools.lru_cache(maxsize=None)
def _failure_free_duration(workload: str, nprocs: int) -> float:
    cell = Cell(workload, nprocs, 0, False, False)
    return _run(cell, 1e9, [], trace=False).accomplishment_time


def _trace_digest(trace: Any) -> str:
    """SHA-256 over every recorded event, in order (``repr`` is exact
    for every field of a TDI run, piggybacks and their epochs included)."""
    digest = hashlib.sha256()
    for ev in trace.events:
        digest.update(repr((ev.time, ev.kind, ev.rank,
                            sorted(ev.fields.items()))).encode())
    return digest.hexdigest()


def _observe(cell: Cell, interval: float, events: list) -> dict[str, Any]:
    try:
        run = _run(cell, interval, events)
    except Exception as exc:  # the same failure on both sides is equality
        return {"raised": f"{type(exc).__name__}: {exc}"}
    return {
        "trace": _trace_digest(run.trace),
        "events_fired": run.events_fired,
        "sim_time": run.sim_time,
        "answers": [canonical_repr(answer) for answer in run.results],
        "network": dataclasses.asdict(run.network),
        "metrics": [dataclasses.asdict(m) for m in run.stats.per_rank],
    }


def observe_both(cell: Cell) -> tuple[dict[str, Any], dict[str, Any]]:
    """``(reference, src)`` observations of one cell.  Checkpoint period,
    join and kill times are fractions of the cell's failure-free
    duration, so every run checkpoints, grows and dies part-way."""
    duration = _failure_free_duration(cell.workload, cell.nprocs)
    victims = (1, cell.nprocs // 2)[:cell.kills]
    events: list[Any] = [FaultSpec(rank, share * duration)
                         for rank, share in zip(victims, KILL_AT)]
    if cell.join:
        events.append(JoinSpec(cell.nprocs - 1, JOIN_AT * duration))
    with reference_vectors():
        reference = _observe(cell, duration / 5, events)
    return reference, _observe(cell, duration / 5, events)


def first_difference(reference: dict[str, Any], change: dict[str, Any]) -> str | None:
    """``None`` when the observations are equal, else what differs first."""
    if reference.keys() != change.keys():
        return (f"one side raised: reference {reference.get('raised')!r}, "
                f"src {change.get('raised')!r}")
    for field, expected in reference.items():
        got = change[field]
        if got == expected:
            continue
        if field == "metrics":
            for rank, (a, b) in enumerate(zip(expected, got)):
                for counter in a:
                    if a[counter] != b[counter]:
                        return (f"rank {rank} {counter}: reference "
                                f"{a[counter]!r}, src {b[counter]!r}")
        return f"{field}: reference {expected!r}, src {got!r}"
    return None


# ----------------------------------------------------------------------
# Seeded mutants
# ----------------------------------------------------------------------

_VECTORS = "core/vectors.py"
_COMPRESSION = "protocols/compression.py"
_BASE = "protocols/base.py"

#: name -> (file under src/repro, (text as it stands, mutant text), ...)
MUTANTS: dict[str, tuple] = {
    "stamp not grown on grow_to": (
        _VECTORS,
        ("            stamp = _np.full(nprocs, self._clock, dtype=_np.int64)\n",
         "            stamp = _np.zeros(nprocs, dtype=_np.int64)\n")),
    "growth does not tick the clock": (
        _VECTORS,
        ("            self._clock += 1\n            stamp = _np.full(",
         "            stamp = _np.full(")),
    "owner entry stamped on merge": (
        _VECTORS,
        ("where=mask)\n        return int(changed)",
         "where=mask)\n                self._stamp[self.owner] = self._clock\n"
         "        return int(changed)")),
    "a short merge stamps its whole prefix": (
        _VECTORS,
        ("_np.copyto(self._stamp[:m], self._clock, where=mask)",
         "self._stamp[:m] = self._clock")),
    ">= for > in delta_since": (
        _VECTORS,
        ("(self._stamp > watermark).nonzero()",
         "(self._stamp >= watermark).nonzero()")),
    "tagged merge does not stamp": (
        _VECTORS,
        ("                self._stamp[dirty] = self._clock\n",
         "                pass\n")),
    "zero-epoch tuple kept after a tagged merge": (
        _VECTORS,
        ("            self._e = _epoch_tuple(epochs)\n            if self._stamp",
         "            if self._stamp")),
    "epoch identity test with no comparison behind it": (
        _VECTORS,
        ("                and tuple(pb_epochs) != self._e[:m]):",
         "                and len(pb_epochs) != m):")),
    "decoder base aliased instead of copied into the piggyback": (
        _COMPRESSION,
        ("piggyback._arr = values.copy()  # the base moves",
         "piggyback._arr = values  # the base moves")),
    "full record's base aliased to its piggyback": (
        _COMPRESSION,
        ("rec.seq + 1, piggyback._arr.copy(), piggyback.epochs]",
         "rec.seq + 1, piggyback._arr, piggyback.epochs]")),
    "_arr primed from the pre-delta base": (
        _COMPRESSION,
        ("        moved = None\n",
         "        stale = values.copy()\n        moved = None\n"),
        ("piggyback._arr = values.copy()  # the base moves",
         "piggyback._arr = stale  # the base moves")),
    "decoder keeps the pre-delta epochs": (
        _COMPRESSION,
        ("        chan[2] = piggyback.epochs\n", "")),
    "a delta's floor overestimated (3k + 4)": (
        _COMPRESSION,
        ("size, full = 2 * len(changed) + 4, None",
         "size, full = 3 * len(changed) + 4, None")),
    "a full record that was sized ships, smaller or not": (
        _COMPRESSION,
        ("fell_back = full is not None and full_size <= size",
         "fell_back = full is not None")),
}

#: what has to notice a mutant
MUTANT_TESTS = ("tests/properties/test_wire_kernel.py",
                "tests/properties/test_stateful_vector.py",
                "tests/properties/test_compress_differential.py")

_TOUCHED = "tests/integration/test_touched_state.py"
_ORACLE = "verify/oracle.py"
_ORACLE_TESTS = "tests/integration/test_verify_oracle.py"
#: the touched-peer maps and the shared membership set, each mutant with
#: its own killers: name -> (killers, file, (text, mutant text))
PEER_MUTANTS: dict[str, tuple] = {
    "peer map: a read of an untouched peer inserts it": (
        ("tests/properties/test_peer_counts.py",), _BASE,
        ("    def __missing__(self, peer: int) -> int:\n        return 0\n",
         "    def __missing__(self, peer: int) -> int:\n"
         "        self[peer] = 0\n        return 0\n")),
    "peer map: current_members() hands out the live set": (
        (_TOUCHED,), _BASE,
        ("        self._members = frozenset(range(nprocs))\n",
         "        self._members = set(range(nprocs))\n")),
    "peer map: VectorState.snapshot() shares instead of copying": (
        ("tests/unit/test_misc_units.py",
         "tests/integration/test_single_fault.py"), _BASE,
        ('            "last_deliver_index": PeerCounts(self.last_deliver_index),\n',
         '            "last_deliver_index": self.last_deliver_index,\n')),
    # the next two survived the goldens expected to notice them
    # (test_membership_golden compares counters only, test_endpoint_golden
    # runs TDI only): the pinned modelled sizes were added for them
    "peer map: announce_join sized from len(ldi)": (
        (_TOUCHED,), "core/recovery.py",
        ("size_bytes=4 * (self.nprocs + 2))",
         "size_bytes=4 * (len(ldi) + 2))")),
    "peer map: CKPT_ADV keeps the rank < len(counts) guard": (
        (_TOUCHED,), "protocols/pwd.py",
        ('            src, payload["from_counts"][self.rank])\n',
         '            src, payload["from_counts"][self.rank]\n'
         '            if self.rank < len(payload["from_counts"]) else 0)\n')),
    "peer map: the oracle samples list(vec)": (
        (_ORACLE_TESTS,), _ORACLE,
        ("    return dict(vec) if isinstance(vec, dict) else list(vec)\n",
         "    return list(vec)\n")),
}
_FROZEN = "tests/properties/test_frozen_vector.py"
#: the stored form of a vector (sender log, checkpoint image), same shape
STORED_MUTANTS: dict[str, tuple] = {
    "stored form: dtype chosen with <= at 256": (
        (_FROZEN,), _VECTORS,
        ("_np.uint8 if top < 1 << 8 else", "_np.uint8 if top <= 1 << 8 else")),
    "stored form: freeze keeps the zero epochs, not the piggyback's": (
        (_FROZEN,), _VECTORS,
        ("        self.epochs = tuple(epochs)  # a tuple is kept",
         "        self.epochs = _zero_epochs(len(values))  # a tuple is kept")),
    "stored form: snapshot() freezes a view of the live vector": (
        (_FROZEN,), _VECTORS,
        ("else _np.int64)  # a copy, always",
         "else _np.int64, copy=False)  # a copy, always")),
    "stored form: resend carries the item's position, not its send_index": (
        ("tests/integration/test_frozen_log.py",), "core/recovery.py",
        ("            self.services.resend_logged(item)\n",
         "            self.services.resend_logged(dataclasses.replace(\n"
         "                item, send_index=resent + 1))\n")),
}
_TRACE = "simnet/trace.py"
_TRACE_TESTS = "tests/unit/test_trace.py"
#: the observers — the oracle's sampler, shadow merge and subscription,
#: and the trace's routing by kind — same shape
OBSERVER_MUTANTS: dict[str, tuple] = {
    "observer: the sampler's baseline kept by reference": (
        (_ORACLE_TESTS,), _ORACLE,
        ("    return dict(vec) if isinstance(vec, dict) else list(vec)\n",
         "    return vec\n")),
    "observer: the oracle's subscription omits proto.resend": (
        (_ORACLE_TESTS,), _ORACLE,
        ('            "proto.resend": self._on_resend,\n', "")),
    "observer: the oracle's subscription omits ckpt.write": (
        (_ORACLE_TESTS,), _ORACLE,
        ('            "ckpt.write": self._on_checkpoint,\n', "")),
    "observer: the agreeing-epochs merge does not restore the own entry": (
        (_ORACLE_TESTS,), _ORACLE,
        ("                hb[rank] = own\n", "")),
    "observer: the pointwise merge taken whatever the epochs": (
        (_ORACLE_TESTS,), _ORACLE,
        ("if pb_epochs is not None and list(pb_epochs) == shadow.hb_epochs:",
         "if True:")),
    "observer: any(map(lt, pb, hb)) with its arguments swapped": (
        (_ORACLE_TESTS,), _ORACLE,
        ("any(map(lt, pb, hb))", "any(map(lt, hb, pb))")),
    # the perf regression: every held heartbeat an engine event again
    "observer: a kind-subscribed listener makes the trace active": (
        ("tests/integration/test_detection_golden.py::"
         "test_oracle_alone_leaves_the_trace_inactive_and_the_beats_held",),
        _TRACE,
        ("self.active = self.enabled or None in subscribed",
         "self.active = self.enabled or bool(subscribed)")),
    "observer: emit hands over a subscribed kind only when active": (
        (_TRACE_TESTS,), _TRACE,
        ("not (kind in wanted or self.active)", "not self.active")),
}
_TRANSPORT = "simnet/transport.py"
_MODEL_TEST = ("tests/properties/test_stateful_transport.py",)
#: the reliable transport, each mutant a breach of one rule of the
#: contract in tests/properties/reference_transport.py; same shape
TRANSPORT_MUTANTS: dict[str, tuple] = {
    "transport: the mute stamp sticks to the retransmit buffer": (
        _MODEL_TEST, _TRANSPORT,
        ("stamp = {key: meta.pop(key) for key in MUTE_STAMPS if key in meta}",
         "stamp = {key: meta[key] for key in MUTE_STAMPS if key in meta}")),
    "transport: the receiver ignores the destination epoch (de)": (
        _MODEL_TEST, _TRANSPORT,
        ('        if rt.get("de") != self.nodes[rank].epoch:\n',
         "        if False:\n")),
    "transport: _process_ack ignores the ack's epoch (ae)": (
        _MODEL_TEST, _TRANSPORT,
        ("if ch is None or ack_epoch != ch.peer_epoch:", "if ch is None:")),
    "transport: acking before dedup (a replay advances the cumulative ack)": (
        _MODEL_TEST, _TRANSPORT,
        ("if seq < ch.next_expected or seq in ch.reorder:",
         "if seq in ch.reorder:")),
    "transport: the reorder drain skips a parked frame": (
        _MODEL_TEST, _TRANSPORT,
        ("        while ch.next_expected in ch.reorder:\n",
         "        if ch.next_expected in ch.reorder:\n")),
    "transport: a dead sender's in-flight frames are dropped": (
        _MODEL_TEST, _TRANSPORT,
        ("        self.network.detach(rank)\n",
         "        self.network.detach(rank)\n"
         "        self._send = {k: c for k, c in self._send.items() if k[0] != rank}\n")),
}
_NAMED = {**PEER_MUTANTS, **STORED_MUTANTS, **OBSERVER_MUTANTS,
          **TRANSPORT_MUTANTS}
MUTANT_KILLERS = {name: killers for name, (killers, *_) in _NAMED.items()}
MUTANTS.update({name: edit for name, (_, *edit) in _NAMED.items()})


def run_mutants(only: str = "") -> int:
    """Seed each mutant whose name contains ``only`` into a scratch copy
    of ``src/repro`` and run its killers (:data:`MUTANT_KILLERS`, else
    :data:`MUTANT_TESTS`) against it; returns how many survived."""
    root = Path(__file__).resolve().parents[2]
    survivors = 0
    chosen = {name: m for name, m in MUTANTS.items() if only in name}
    for name, (relative, *edits) in chosen.items():
        with tempfile.TemporaryDirectory() as scratch:
            shutil.copytree(root / "src" / "repro", Path(scratch) / "repro")
            target = Path(scratch) / "repro" / relative
            text = target.read_text(encoding="utf-8")
            stale = [old for old, _ in edits if text.count(old) != 1]
            if stale:
                print(f"STALE    {name}: {stale[0]!r} does not occur exactly "
                      f"once in {relative}")
                survivors += 1
                continue
            for old, new in edits:
                text = text.replace(old, new)
            target.write_text(text, encoding="utf-8")
            # the derandomized profile: a verdict that repeats, and the
            # one CI's own run of these tests would reach
            env = {**os.environ, "PYTHONPATH": scratch,
                   "PYTHONDONTWRITEBYTECODE": "1",
                   "HYPOTHESIS_PROFILE": "ci"}
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider",
                 *MUTANT_KILLERS.get(name, MUTANT_TESTS)],
                cwd=root, env=env, capture_output=True, text=True)
        verdict = "KILLED  " if done.returncode == 1 else "SURVIVED"
        survivors += done.returncode != 1
        failed = [line for line in done.stdout.splitlines()
                  if line.startswith("FAILED")][:1]
        print(f"{verdict} {name} ({time.perf_counter() - started:.0f} s)"
              + (f": {failed[0][7:120]}" if failed else ""))
    print(f"compress_equivalence: {len(chosen)} mutants, {survivors} not killed")
    return survivors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mutants", nargs="?", const="", metavar="TEXT",
                        help="seed the mutants (those whose name contains "
                             "TEXT) instead of running the matrix")
    only = parser.parse_args(argv).mutants
    if only is not None:
        return 1 if run_mutants(only) else 0
    started = time.perf_counter()
    differing, raised = 0, []
    for cell in FULL_MATRIX:
        reference, change = observe_both(cell)
        difference = first_difference(reference, change)
        if difference is not None:
            differing += 1
            print(f"DIFF {cell}: {difference}")
        elif "raised" in reference:
            raised.append(cell)
            if not known_stall(cell):
                differing += 1  # equal, and still not a run
            print(f"same exception on both sides, {cell}: {reference['raised'][:120]}")
    print(f"compress_equivalence: {len(FULL_MATRIX)} cells, {differing} differences "
          f"or unexpected failures, {len(raised)} raising identically "
          f"({sum(map(known_stall, raised))} of them known stalls), "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
