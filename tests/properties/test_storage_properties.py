"""Property tests for the stable-storage generation chain.

The crash-consistency invariant: for any interleaving of successful,
failed, damaged and abandoned writes, once one undamaged write has
committed the chain always holds at least one readable generation —
write-new-then-commit can degrade a rank's recovery point, never lose
it.
"""

from hypothesis import given, strategies as st

from repro.metrics.costs import CostModel
from repro.protocols.base import PeerCounts
from repro.protocols.checkpoint import Checkpoint, CheckpointStore

outcome = st.sampled_from(("ok", "fail", "torn", "corrupt", "abandon"))


def ckpt(seq):
    return Checkpoint(rank=0, taken_at=0.0, seq=seq, app_state={},
                      protocol_state={}, size_bytes=100,
                      last_deliver_index=PeerCounts({1: 3}))


@given(outcomes=st.lists(outcome, min_size=1, max_size=30),
       history=st.integers(1, 4))
def test_commit_then_trim_retains_exactly_the_recent_clean_writes(
        outcomes, history):
    store = CheckpointStore(CostModel(), history=history)
    committed_kinds = []  # outcome of every commit that sealed, in order
    for seq, kind in enumerate(outcomes, start=1):
        gen, _ = store.begin_write(ckpt(seq))
        if kind == "abandon":
            continue  # writer died mid-write; commit never runs
        if kind != "ok":
            gen.pending = kind
        if store.commit(gen):
            committed_kinds.append(kind)
    chain = store.generations(0)
    committed = [g for g in chain if g.committed]
    # retention bound holds whatever happened
    assert len(committed) <= history
    # chain stays in write order
    seqs = [g.ckpt.seq for g in chain]
    assert seqs == sorted(seqs)
    # the exact crash-consistency characterisation: something readable
    # remains iff at least one of the last ``history`` committed writes
    # landed clean — damage can degrade the recovery point within the
    # window, and only a full window of damage can lose it
    window = committed_kinds[-history:]
    assert any(g.readable for g in committed) == ("ok" in window)


@given(outcomes=st.lists(outcome, min_size=1, max_size=30))
def test_latest_is_newest_committed(outcomes):
    store = CheckpointStore(CostModel(), history=3)
    newest = None
    for seq, kind in enumerate(outcomes, start=1):
        gen, _ = store.begin_write(ckpt(seq))
        if kind == "abandon":
            continue
        if kind != "ok":
            gen.pending = kind
        if store.commit(gen):
            newest = seq
    latest = store.latest(0)
    assert (latest.seq if latest else None) == newest
