"""Property tests for the delivery gates of TDI and the PWD protocols."""

from hypothesis import given, strategies as st

from repro.protocols.base import DeliveryVerdict
from repro.protocols.pwd import Determinant
from tests.conftest import app_meta, make_protocol

N = 4


class TestTdiGate:
    @given(
        own=st.integers(0, 20),
        pb_self=st.integers(0, 20),
        delivered=st.integers(0, 10),
        idx_offset=st.integers(-3, 5),
    )
    def test_gate_truth_table(self, own, pb_self, delivered, idx_offset):
        """classify() is DUPLICATE iff the index is old, else DEFER iff
        the piggybacked own-interval exceeds local deliveries."""
        p, _ = make_protocol("tdi", rank=1, nprocs=N)
        p.depend_interval._v[1] = own
        p.vectors.last_deliver_index[2] = delivered
        pb = [0] * N
        pb[1] = pb_self
        idx = delivered + idx_offset
        verdict = p.classify(app_meta(idx, tuple(pb)), src=2)
        if idx <= delivered:
            assert verdict is DeliveryVerdict.DUPLICATE
        elif idx > delivered + 1:
            # ahead of the per-sender sequence: wait for predecessors
            assert verdict is DeliveryVerdict.DEFER
        elif own >= pb_self:
            assert verdict is DeliveryVerdict.DELIVER
        else:
            assert verdict is DeliveryVerdict.DEFER

    @given(st.lists(st.tuples(st.integers(1, 3),
                              st.lists(st.integers(0, 8), min_size=N, max_size=N)),
                    max_size=15))
    def test_vector_entries_monotone_across_deliveries(self, stream):
        """Across any delivery stream, every vector entry is monotone and
        the own entry counts exactly the deliveries made."""
        p, _ = make_protocol("tdi", rank=0, nprocs=N)
        delivered = 0
        prev = list(p.depend_interval)
        for src, pb in stream:
            pb = list(pb)
            pb[0] = min(pb[0], delivered)  # a valid piggyback never leads
            idx = p.vectors.last_deliver_index[src] + 1
            p.on_deliver(app_meta(idx, tuple(pb)), src=src)
            delivered += 1
            now = list(p.depend_interval)
            assert all(a >= b for a, b in zip(now, prev, strict=True))
            assert now[0] == delivered
            prev = now


class TestPwdGate:
    @given(
        order=st.permutations(list(range(1, 6))),
    )
    def test_required_order_is_enforced_exactly(self, order):
        """With a full required_order recorded, only the recorded
        (sender, send_index) is admitted at each position, whatever the
        arrival permutation offers."""
        p, _ = make_protocol("tag", rank=0, nprocs=N)
        # required: position i must be (sender 1+i%3, send_index grows per sender)
        senders = [1 + (i % 3) for i in range(5)]
        per_sender_count: dict[int, int] = {}
        required = {}
        for pos, sender in enumerate(senders, start=1):
            per_sender_count[sender] = per_sender_count.get(sender, 0) + 1
            required[pos] = (sender, per_sender_count[sender])
        p.required_order = dict(required)

        delivered_positions = []
        pending = {pos: required[pos] for pos in order}
        guard = 0
        while pending and guard < 100:
            guard += 1
            for pos in list(pending):
                sender, idx = pending[pos]
                meta = app_meta(idx, {"dets": ()})
                verdict = p.classify(meta, src=sender)
                if verdict is DeliveryVerdict.DELIVER:
                    p.on_deliver(meta, src=sender)
                    delivered_positions.append(pos)
                    del pending[pos]
        assert delivered_positions == sorted(delivered_positions)
        assert not pending

    @given(st.integers(1, 3), st.integers(0, 4))
    def test_barrier_blocks_everything(self, src, idx_offset):
        p, _ = make_protocol("tel", rank=0, nprocs=N)
        p.begin_recovery()
        meta = app_meta(1 + idx_offset, {"dets": (), "stable": (0,) * N})
        assert p.classify(meta, src=src) in (
            DeliveryVerdict.DEFER, DeliveryVerdict.DUPLICATE)


class TestTagKnowledgeProperties:
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=20))
    def test_increment_never_contains_known(self, sources):
        """Whatever the delivery history, a piggyback to q never includes
        events q is known to hold (its own deliveries, what it
        piggybacked to us), and always includes everything else."""
        p, _ = make_protocol("tag", rank=0, nprocs=N)
        for i, src in enumerate(sources):
            foreign = Determinant(receiver=src, deliver_index=i + 100,
                                  sender=(src % 3) + 1, send_index=i + 1)
            idx = p.vectors.last_deliver_index[src] + 1
            p.on_deliver(app_meta(idx, {"dets": (foreign,)}), src=src)
        for dest in range(1, N):
            pb, _, _ = p._build_piggyback(dest)
            keys = {det.key for det in pb["dets"]}
            assert not keys & p.known_keys(dest)
            assert keys == p.held_keys() - p.known_keys(dest)
