"""Fuzzer self-tests: the differential fuzzer must catch known bugs.

Completeness of the fuzzing oracle is proven the same way the verify
oracle's is (``test_verify_oracle.py``): protocol mutations.  Each test
re-introduces one bug class into TDI via ``mock.patch`` and requires a
seeded fuzz campaign to detect it within a fixed budget — the delivery
gate switched off, the piggyback merge dropped, and unbounded log GC.
One detected failure must additionally shrink to a small scenario and
persist as a replayable corpus entry.

Mutations are in-process patches, so every campaign here runs with
``jobs=1`` (worker processes would not see the patch) and ``cache=None``
(mutated results must never touch a shared result cache).
"""

import tempfile
from pathlib import Path
from unittest import mock

from repro.core.recovery import SenderLoggingProtocol
from repro.core.tdi import TdiProtocol
from repro.core.vectors import DependIntervalVector
from repro.fuzz.campaign import run_campaign
from repro.fuzz.corpus import load_corpus, replay_entry
from repro.protocols.base import DeliveryVerdict


def gateless_classify(self, frame_meta, src):
    """TdiProtocol.classify with the depend-interval gate removed."""
    send_index = frame_meta["send_index"]
    last = self.vectors.last_deliver_index[src]
    if send_index <= last:
        return DeliveryVerdict.DUPLICATE
    if send_index > last + 1:
        return DeliveryVerdict.DEFER
    return DeliveryVerdict.DELIVER


def _eager_gc():
    orig = SenderLoggingProtocol._handle_checkpoint_advance

    def eager(self, src, upto_send_index):
        return orig(self, src, upto_send_index + 2)

    return mock.patch.object(SenderLoggingProtocol, "_handle_checkpoint_advance",
                             eager)


def _campaign(seeds, **kwargs):
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("cache", None)
    kwargs.setdefault("shrink", False)
    kwargs.setdefault("stop_after", 1)
    return run_campaign(seeds, **kwargs)


def _detected(result):
    """Every ``(protocol, kind)`` pair the campaign's failures name."""
    return {pair for failure in result.failures for pair in failure.kinds()}


# ----------------------------------------------------------------------
# Detection: one campaign budget per mutation
# ----------------------------------------------------------------------

def test_detects_disabled_delivery_gate():
    with mock.patch.object(TdiProtocol, "classify", gateless_classify):
        result = _campaign(range(0, 20))
    assert result.failures, "gate-off mutation survived 20 fuzz seeds"
    kinds = {kind for _, kind in _detected(result)}
    assert any(k.startswith("oracle:causal-gate") or k.startswith("crash")
               or k == "answer-mismatch" for k in kinds), kinds


def test_detects_dropped_piggyback_merge():
    with mock.patch.object(DependIntervalVector, "merge",
                           lambda self, piggyback: 0):
        result = _campaign(range(0, 5))
    assert result.failures, "merge-dropped mutation survived 5 fuzz seeds"
    assert ("tdi", "oracle:piggyback-completeness") in _detected(result)


def test_detects_unbounded_log_gc():
    with _eager_gc():
        result = _campaign(range(0, 5))
    assert result.failures, "eager-GC mutation survived 5 fuzz seeds"
    assert ("tdi", "oracle:gc-safety") in _detected(result)


def test_mutations_only_implicate_tdi():
    """The differential diff must blame the mutated protocol, not the
    untouched baselines it is compared against."""
    with mock.patch.object(DependIntervalVector, "merge",
                           lambda self, piggyback: 0):
        result = _campaign(range(0, 5))
    protocols = {protocol for protocol, _ in _detected(result)}
    assert protocols == {"tdi"}


# ----------------------------------------------------------------------
# Shrinking + corpus persistence (the acceptance path end to end)
# ----------------------------------------------------------------------

def test_detected_failure_shrinks_and_persists():
    with tempfile.TemporaryDirectory() as tmp:
        with mock.patch.object(TdiProtocol, "classify", gateless_classify):
            result = _campaign(range(0, 20), shrink=True, shrink_attempts=60,
                               corpus_dir=tmp)
            assert result.failures
            failure = result.failures[0]

            # shrunk to a small scenario, strictly no bigger than found
            assert failure.shrink is not None
            assert failure.scenario.nprocs <= 4
            assert failure.scenario.nprocs <= failure.verdict.scenario.nprocs

            # persisted as an open corpus entry with provenance
            assert failure.corpus_path is not None
            entries = load_corpus(tmp)
            assert [e.path for e in entries] == [Path(failure.corpus_path)]
            entry = entries[0]
            assert entry.status == "open"
            assert entry.found_by["seed"] == failure.seed
            assert entry.findings

            # the persisted repro still fails while the bug is in place...
            assert not replay_entry(entry).ok

        # ...and replays clean once the mutation is lifted
        assert replay_entry(entry).ok


# ----------------------------------------------------------------------
# --replay exit status: a corpus entry contradicting its recorded
# status must fail the CLI, whichever direction it flips
# ----------------------------------------------------------------------

def test_replay_flags_masked_open_entry():
    """An ``open`` entry that replays clean exits non-zero: the repro
    was silently masked (or fixed without flipping the status)."""
    from repro.fuzz.__main__ import main
    from repro.fuzz.corpus import CorpusEntry, save_entry
    from repro.fuzz.scenario import generate_scenario

    with tempfile.TemporaryDirectory() as tmp:
        save_entry(CorpusEntry(
            scenario=generate_scenario(0),  # known-clean seed
            reason="unit test", status="open",
            findings=["[tdi] crash:SimulationError: long gone"]), tmp)
        assert main(["--replay", tmp, "--no-cache"]) == 1


def test_replay_flags_open_entry_failing_differently():
    """An ``open`` entry whose replay signature no longer intersects the
    recorded one exits non-zero — a new breakage is hiding the repro.
    The corpus holds no open entries any more (the overlapping-recovery
    deadlock is fixed), so the failing repro is manufactured: a campaign
    under the merge-dropped mutation finds a scenario, which is then
    saved with a recorded signature the mutation never produces."""
    from repro.fuzz.__main__ import main
    from repro.fuzz.corpus import CorpusEntry, save_entry

    with mock.patch.object(DependIntervalVector, "merge",
                           lambda self, piggyback: 0):
        found = _campaign(range(0, 5))
        assert found.failures
        with tempfile.TemporaryDirectory() as tmp:
            save_entry(CorpusEntry(
                scenario=found.failures[0].verdict.scenario,
                reason="unit test", status="open",
                findings=["[tag] answer-mismatch: never happened"]), tmp)
            assert main(["--replay", tmp, "--no-cache"]) == 1


# ----------------------------------------------------------------------
# Baseline: the unmutated protocols agree on the smoke range
# ----------------------------------------------------------------------

def test_unmutated_campaign_is_clean():
    result = _campaign(range(0, 6), stop_after=None)
    assert result.ok, [str(f) for failure in result.failures
                       for f in failure.verdict.findings]
    assert result.scenarios_run == 6
    assert not result.skipped
