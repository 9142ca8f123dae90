"""Model-based stateful testing of the TDI protocol.

A hypothesis ``RuleBasedStateMachine`` drives one ``TdiProtocol``
instance through arbitrary interleavings of sends, deliveries,
checkpoint-advance GC, checkpoint/restore cycles and simulated
crash-restores, checking it against an independent reference model of
the vectors and the log after every step.  This catches interactions
that the scenario tests can't enumerate (e.g. GC between a checkpoint
and a restore, restore followed immediately by suppressed re-sends).
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from tests.conftest import app_meta, make_protocol, response_payload

NPROCS = 4
RANK = 0
PEERS = [1, 2, 3]


class TdiMachine(RuleBasedStateMachine):
    """Drives TdiProtocol and mirrors it with plain-Python bookkeeping."""

    def __init__(self) -> None:
        super().__init__()
        self.proto, self.services = make_protocol("tdi", rank=RANK, nprocs=NPROCS)
        # reference model
        self.m_sent: dict[int, int] = {p: 0 for p in PEERS}          # last send idx
        self.m_delivered: dict[int, int] = {p: 0 for p in PEERS}     # last deliver idx
        self.m_own = 0                                               # own interval
        self.m_foreign = [0] * NPROCS                                # merged entries
        self.m_log: dict[int, list[int]] = {p: [] for p in PEERS}    # live log idxs
        self.m_suppress: dict[int, int] = {p: 0 for p in PEERS}
        self.checkpoint = None
        self.m_checkpoint = None

    # ------------------------------------------------------------------
    @rule(dest=st.sampled_from(PEERS), size=st.integers(1, 4096))
    def send(self, dest: int, size: int) -> None:
        prepared = self.proto.prepare_send(dest, 0, b"m", size)
        self.m_sent[dest] += 1
        assert prepared.send_index == self.m_sent[dest]
        assert prepared.transmit == (self.m_sent[dest] > self.m_suppress[dest])
        assert prepared.piggyback[RANK] == self.m_own
        self.m_log[dest].append(self.m_sent[dest])

    @rule(src=st.sampled_from(PEERS),
          pb=st.lists(st.integers(0, 50), min_size=NPROCS, max_size=NPROCS))
    def deliver_next(self, src: int, pb: list[int]) -> None:
        pb[RANK] = min(pb[RANK], self.m_own)  # a valid piggyback never leads
        idx = self.m_delivered[src] + 1
        self.proto.on_deliver(app_meta(idx, tuple(pb)), src=src)
        self.m_delivered[src] = idx
        self.m_own += 1
        for k in range(NPROCS):
            if k != RANK:
                self.m_foreign[k] = max(self.m_foreign[k], pb[k])

    @rule(dest=st.sampled_from(PEERS), upto=st.integers(0, 60))
    def checkpoint_advance(self, dest: int, upto: int) -> None:
        self.proto.handle_control("CKPT_ADV", src=dest, payload=upto)
        self.m_log[dest] = [i for i in self.m_log[dest] if i > upto]

    @rule(src=st.sampled_from(PEERS), delivered=st.integers(0, 60))
    def response(self, src: int, delivered: int) -> None:
        self.proto.handle_control(
            "RESPONSE", src=src, payload=response_payload("tdi", delivered))
        self.m_suppress[src] = max(self.m_suppress[src], delivered)

    @rule()
    def take_checkpoint(self) -> None:
        self.checkpoint = self.proto.checkpoint_state()
        self.m_checkpoint = (
            dict(self.m_sent), dict(self.m_delivered), self.m_own,
            list(self.m_foreign), {p: list(v) for p, v in self.m_log.items()},
            dict(self.m_suppress),
        )

    @precondition(lambda self: self.checkpoint is not None)
    @rule()
    def crash_and_restore(self) -> None:
        """Volatile state dies; a fresh instance restores the checkpoint."""
        import copy

        self.proto, self.services = make_protocol("tdi", rank=RANK, nprocs=NPROCS)
        self.proto.restore(copy.deepcopy(self.checkpoint))
        (self.m_sent, self.m_delivered, self.m_own, self.m_foreign,
         self.m_log, self.m_suppress) = (
            dict(self.m_checkpoint[0]), dict(self.m_checkpoint[1]),
            self.m_checkpoint[2], list(self.m_checkpoint[3]),
            {p: list(v) for p, v in self.m_checkpoint[4].items()},
            dict(self.m_checkpoint[5]),
        )

    # ------------------------------------------------------------------
    @invariant()
    def vectors_match_model(self) -> None:
        for p in PEERS:
            assert self.proto.vectors.last_send_index[p] == self.m_sent[p]
            assert self.proto.vectors.last_deliver_index[p] == self.m_delivered[p]
        assert self.proto.depend_interval.own_interval == self.m_own
        for k in range(NPROCS):
            if k != RANK:
                assert self.proto.depend_interval[k] == self.m_foreign[k]

    @invariant()
    def log_matches_model(self) -> None:
        for p in PEERS:
            live = [m.send_index for m in self.proto.log.items_for(p, 0)]
            assert live == self.m_log[p]

    @invariant()
    def suppression_matches_model(self) -> None:
        for p in PEERS:
            assert self.proto.rollback_last_send_index[p] == self.m_suppress[p]


TestTdiStateMachine = TdiMachine.TestCase
# deadline policy comes from the profile in tests/conftest.py
TestTdiStateMachine.settings = settings(
    max_examples=60, stateful_step_count=40)
