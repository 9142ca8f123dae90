"""The seeded-mutant registry: each way an optimised structure can go
wrong, as a textual edit of ``src/repro``, and the tests that must notice it.

``python -m tests.tools.mutants [TEXT]`` seeds each mutant whose name
contains ``TEXT`` (every one, by default) into a scratch copy of the
package and runs its killers — pytest node ids, so a file or one test —
against it: a mutant the killers do not fail is reported SURVIVED, one
whose text no longer occurs exactly once STALE, and the exit status is
non-zero if there is either.  A surviving mutant is a finding against
the checker, not against the code.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_VECTORS = "core/vectors.py"
_COMPRESSION = "protocols/compression.py"
_BASE = "protocols/base.py"

#: what has to notice a mutant of the vector state
_VECTOR_TESTS = ("tests/properties/test_wire_kernel.py",
                 "tests/properties/test_stateful_vector.py",
                 "tests/properties/test_compress_differential.py")
_TOUCHED = "tests/integration/test_touched_state.py"
_ORACLE = "verify/oracle.py"
_ORACLE_TESTS = "tests/integration/test_verify_oracle.py"
_FROZEN = "tests/properties/test_frozen_vector.py"
_TRACE = "simnet/trace.py"
_TRACE_TESTS = "tests/unit/test_trace.py"
_TRANSPORT = "simnet/transport.py"
_MODEL_TEST = ("tests/properties/test_stateful_transport.py",)
_NETWORK = "simnet/network.py"
_DETECTOR = "faults/detector.py"
_FANOUT = ("tests/properties/test_network_fanout.py",)
#: the heartbeat tool's tier-1 slice
_HELD_SLICE = ("tests/integration/test_detection_golden.py::"
               "test_held_run_is_indistinguishable_from_the_event_run",)

#: name -> (killers, as pytest node ids; the file under src/repro; (text
#: as it stands, mutant text), ...)
MUTANTS: dict[str, tuple] = {
    # the vector state: the stamp array, the delta encoder and decoder
    "stamp not grown on grow_to": (
        _VECTOR_TESTS, _VECTORS,
        ("            stamp = _np.full(nprocs, self._clock, dtype=_np.int64)\n",
         "            stamp = _np.zeros(nprocs, dtype=_np.int64)\n")),
    "growth does not tick the clock": (
        _VECTOR_TESTS, _VECTORS,
        ("            self._clock += 1\n            stamp = _np.full(",
         "            stamp = _np.full(")),
    "owner entry stamped on merge": (
        _VECTOR_TESTS, _VECTORS,
        ("where=mask)\n        return int(changed)",
         "where=mask)\n                self._stamp[self.owner] = self._clock\n"
         "        return int(changed)")),
    "a short merge stamps its whole prefix": (
        _VECTOR_TESTS, _VECTORS,
        ("_np.copyto(self._stamp[:m], self._clock, where=mask)",
         "self._stamp[:m] = self._clock")),
    ">= for > in delta_since": (
        _VECTOR_TESTS, _VECTORS,
        ("(self._stamp > watermark).nonzero()",
         "(self._stamp >= watermark).nonzero()")),
    "tagged merge does not stamp": (
        _VECTOR_TESTS, _VECTORS,
        ("                self._stamp[dirty] = self._clock\n",
         "                pass\n")),
    "zero-epoch tuple kept after a tagged merge": (
        _VECTOR_TESTS, _VECTORS,
        ("            self._e = _epoch_tuple(epochs)\n            if self._stamp",
         "            if self._stamp")),
    "epoch identity test with no comparison behind it": (
        _VECTOR_TESTS, _VECTORS,
        ("                and tuple(pb_epochs) != self._e[:m]):",
         "                and len(pb_epochs) != m):")),
    "decoder base aliased instead of copied into the piggyback": (
        _VECTOR_TESTS, _COMPRESSION,
        ("piggyback._arr = values.copy()  # the base moves",
         "piggyback._arr = values  # the base moves")),
    "full record's base aliased to its piggyback": (
        _VECTOR_TESTS, _COMPRESSION,
        ("rec.seq + 1, piggyback._arr.copy(), piggyback.epochs]",
         "rec.seq + 1, piggyback._arr, piggyback.epochs]")),
    "_arr primed from the pre-delta base": (
        _VECTOR_TESTS, _COMPRESSION,
        ("        moved = None\n",
         "        stale = values.copy()\n        moved = None\n"),
        ("piggyback._arr = values.copy()  # the base moves",
         "piggyback._arr = stale  # the base moves")),
    "decoder keeps the pre-delta epochs": (
        _VECTOR_TESTS, _COMPRESSION,
        ("        chan[2] = piggyback.epochs\n", "")),
    "a delta's floor overestimated (3k + 4)": (
        _VECTOR_TESTS, _COMPRESSION,
        ("size, full = 2 * len(changed) + 4, None",
         "size, full = 3 * len(changed) + 4, None")),
    "a full record that was sized ships, smaller or not": (
        _VECTOR_TESTS, _COMPRESSION,
        ("fell_back = full is not None and full_size <= size",
         "fell_back = full is not None")),
    # the touched-peer maps and the shared membership set
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
    # the stored form of a vector (sender log, checkpoint image)
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
    # the observers: the oracle's sampler, shadow merge and subscription,
    # and the trace's routing by kind
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
    # the reliable transport, each mutant a breach of one rule of the
    # contract in tests/properties/reference_transport.py
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
    # held heartbeats: the flush and catch-up rules of docs/PROTOCOLS.md,
    # "Held and event beats"
    "held beats: the detach flush skipped": (
        _FANOUT, _NETWORK,
        ("        self._receivers.pop(rank, None)\n        self.stop_holding(rank)\n",
         "        self._receivers.pop(rank, None)\n        self._holdable.discard(rank)\n")),
    "held beats: held toward a detached rank": (
        _FANOUT, _NETWORK,
        ("        self._receivers.pop(rank, None)\n        self.stop_holding(rank)\n",
         "        self._receivers.pop(rank, None)\n        self.flush_heartbeats(rank)\n")),
    "held beats: the gray flush skipped": (
        _HELD_SLICE, "mpi/endpoint.py",
        ("        self.cluster.network.stop_holding(self.rank)\n",
         "        self.cluster.network._holdable.discard(self.rank)\n")),
    "held beats: the mute flush skipped": (
        _FANOUT, _NETWORK,
        ("                self.flush_heartbeats()\n", "                pass\n")),
    "held beats: the chain-end flush skipped": (
        _HELD_SLICE, _DETECTOR,
        ("            cluster.network.flush_heartbeats()\n", "")),
    "held beats: the listener flush skipped": (
        ("tests/integration/test_detection_golden.py::TestPinnedArmedRuns::"
         "test_listener_attached_mid_run_hears_every_later_arrival",), _NETWORK,
        ("        self.trace.when_activated(self.flush_heartbeats, _FRAME_KINDS)\n",
         "")),
    "held beats: a flush loses the beats still in flight": (
        _FANOUT, _NETWORK,
        ("            for beat in queue:\n                self._arrive_later(beat)\n",
         "")),
    "held beats: the sweep's catch-up skipped": (
        _FANOUT, _DETECTOR,
        ("            self._heard_at = now\n            self._catch_up(now)\n",
         "            self._heard_at = now\n")),
    "held beats: the recovery's catch-up skipped": (
        _FANOUT, _DETECTOR,
        ("        self._catch_up(now)\n        self.clear(rank)\n",
         "        self.clear(rank)\n")),
    "held beats: the run end's catch-up skipped": (
        _HELD_SLICE, _DETECTOR,
        ("        self.run_ended_at = now\n        self._catch_up(now)\n",
         "        self.run_ended_at = now\n")),
    "held beats: heard at the catch-up, not at their arrival": (
        _FANOUT, _DETECTOR,
        ("            hear(beat[2], beat[1], beat[0])\n",
         "            hear(beat[2], beat[1], self._wire.engine.now)\n")),
    "held beats: drained per observer, not for all at once": (
        _FANOUT, _DETECTOR,
        ("            self._heard_at = now\n            self._catch_up(now)\n",
         "            self._heard_at = now\n"
         "        if self._wire is not None:\n"
         "            queue = self._wire._held[observer]\n"
         "            self._hear_held([b for b in queue if b[0] <= now])\n"
         "            queue[:] = [b for b in queue if b[0] > now]\n")),
    "held beats: the bulk arm taken on an impaired wire": (
        _FANOUT, _NETWORK,
        ("        if (muted or self._impair is not None\n", "        if (muted\n")),
    "held beats: the bulk arm skips the FIFO clamp": (
        _FANOUT, _NETWORK,
        ("            if arrival <= prev:\n                arrival = prev + _FIFO_EPSILON\n",
         "")),
    # the TAG / PART bitset store, beyond what test_stateful_tag drives
    "tag store: a failed rank is resent the determinant at its checkpoint": (
        ("tests/properties/test_tag_differential.py",), "protocols/tag_protocol.py",
        ("        first = max(after_index + 1, self._origin[failed])\n",
         "        first = max(after_index, self._origin[failed])\n")),
}


def run_mutants(only: str = "") -> int:
    """Seed each mutant whose name contains ``only`` into a scratch copy
    of ``src/repro`` and run its killers against it; returns how many
    were not killed."""
    root = Path(__file__).resolve().parents[2]
    survivors = 0
    chosen = {name: m for name, m in MUTANTS.items() if only in name}
    for name, (killers, relative, *edits) in chosen.items():
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
                 "-p", "no:cacheprovider", *killers],
                cwd=root, env=env, capture_output=True, text=True)
        verdict = "KILLED  " if done.returncode == 1 else "SURVIVED"
        survivors += done.returncode != 1
        failed = [line for line in done.stdout.splitlines()
                  if line.startswith("FAILED")][:1]
        print(f"{verdict} {name} ({time.perf_counter() - started:.0f} s)"
              + (f": {failed[0][7:120]}" if failed else ""))
    print(f"mutants: {len(chosen)} mutants, {survivors} not killed")
    return survivors


if __name__ == "__main__":
    sys.exit(1 if run_mutants(" ".join(sys.argv[1:])) else 0)
