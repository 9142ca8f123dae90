"""``PeerCounts`` against the dense list it replaced.

The per-peer index vectors (``last_send_index``, ``last_deliver_index``,
``peer_epoch``, the suppression and GC covers) used to be ``[0] * n``
lists; they are touched-peer maps now.  The model here *is* the old
list: every operation the protocols apply is applied to both, and the
dense view of the map must equal the list after each step.
"""

from hypothesis import given, strategies as st

from repro.protocols.base import PeerCounts
from tests.conftest import dense

N = 12
peer = st.integers(0, N - 1)
op = st.one_of(
    st.tuples(st.just("read"), peer),
    st.tuples(st.just("assign"), peer, st.integers(0, 50)),
    st.tuples(st.just("incr"), peer),
    st.tuples(st.just("copy")),
    st.tuples(st.just("restore")),
)


@given(ops=st.lists(op, max_size=60))
def test_peer_counts_track_a_dense_list(ops):
    counts, model = PeerCounts(), [0] * N
    saved, saved_model = PeerCounts(), [0] * N
    for step in ops:
        kind = step[0]
        if kind == "read":
            touched = len(counts)
            assert counts[step[1]] == model[step[1]]
            assert len(counts) == touched, "a read inserted an entry"
        elif kind == "assign":
            counts[step[1]] = model[step[1]] = step[2]
        elif kind == "incr":
            counts[step[1]] += 1
            model[step[1]] += 1
        elif kind == "copy":
            saved, saved_model = PeerCounts(counts), list(model)
            assert type(saved) is PeerCounts and saved is not counts
        else:
            counts, model = PeerCounts(saved), list(saved_model)
        assert dense(counts, N) == model
        assert counts.total() == sum(model)
        # whatever happens to the live map, the copy taken earlier stays
        assert dense(saved, N) == saved_model


def test_untouched_peers_occupy_nothing():
    counts = PeerCounts()
    assert [counts[k] for k in range(10_000)] == [0] * 10_000
    assert len(counts) == 0 and counts.total() == 0
    counts[7] += 1
    assert dict(counts) == {7: 1}
