"""Property tests for the depend_interval vector algebra.

The TDI merge (pointwise max on foreign entries) must behave like a join
in a lattice: commutative, associative, idempotent and monotone.  These
are exactly the properties that make the dependency tracking insensitive
to the order in which piggybacks are observed — the formal backbone of
the paper's claim that delivery order may be relaxed.
"""

from hypothesis import given, strategies as st

from repro.core.vectors import (
    DependIntervalVector,
    FrozenVector,
    TaggedPiggyback,
)

N = 5

vectors = st.lists(st.integers(min_value=0, max_value=100), min_size=N, max_size=N)
owners = st.integers(min_value=0, max_value=N - 1)
epoch_vectors = st.lists(st.integers(min_value=0, max_value=3), min_size=N,
                         max_size=N)


def fresh(owner, values):
    return DependIntervalVector(N, owner, values)


@given(owners, vectors, vectors)
def test_merge_commutative(owner, a, b):
    v1 = fresh(owner, [0] * N)
    v1.merge(a)
    v1.merge(b)
    v2 = fresh(owner, [0] * N)
    v2.merge(b)
    v2.merge(a)
    assert list(v1) == list(v2)


@given(owners, vectors, vectors, vectors)
def test_merge_associative_via_sequencing(owner, a, b, c):
    v1 = fresh(owner, [0] * N)
    for pb in (a, b, c):
        v1.merge(pb)
    v2 = fresh(owner, [0] * N)
    for pb in (c, a, b):
        v2.merge(pb)
    assert list(v1) == list(v2)


@given(owners, vectors)
def test_merge_idempotent(owner, a):
    v = fresh(owner, [0] * N)
    v.merge(a)
    snapshot = list(v)
    v.merge(a)
    assert list(v) == snapshot


@given(owners, vectors, vectors)
def test_merge_monotone(owner, start, pb):
    v = fresh(owner, start)
    before = list(v)
    v.merge(pb)
    assert all(after >= b for after, b in zip(v, before, strict=True))


@given(owners, vectors, vectors)
def test_merge_dominates_foreign_entries(owner, start, pb):
    v = fresh(owner, start)
    v.merge(pb)
    for k in range(N):
        if k != owner:
            assert v[k] >= pb[k]
        else:
            assert v[k] == start[owner]


@given(owners, vectors, st.integers(min_value=1, max_value=20))
def test_advance_own_only_touches_owner(owner, start, times):
    v = fresh(owner, start)
    for _ in range(times):
        v.advance_own()
    assert v.own_interval == start[owner] + times
    assert all(v[k] == start[k] for k in range(N) if k != owner)


@given(owners, vectors)
def test_snapshot_roundtrip_preserves(owner, values):
    v = fresh(owner, values)
    restored = DependIntervalVector.from_snapshot(N, owner, v.snapshot())
    assert restored == v


# ----------------------------------------------------------------------
# Old-vs-new merge equivalence
#
# The vectorised flat-array merge must compute exactly what the original
# per-entry Python loop computed — same ``{"v", "e"}`` snapshot, same
# changed-entry count — for every combination of values, epochs and
# piggyback form.  ``reference_merge`` below IS that original loop
# (epoch-lexicographic: newer epoch wins outright, equal epochs take the
# max, older epochs are ignored, the owner entry never merges; an
# untagged piggyback matches each entry's current epoch by definition).
# ----------------------------------------------------------------------

def reference_merge(owner, values, epochs, pb_values, pb_epochs):
    v, e, changed = list(values), list(epochs), 0
    for k in range(len(v)):
        if k == owner:
            continue
        pe = pb_epochs[k]
        if pe > e[k]:
            v[k], e[k] = pb_values[k], pe
            changed += 1
        elif pe == e[k] and pb_values[k] > v[k]:
            v[k] = pb_values[k]
            changed += 1
    return v, e, changed


def check_merge_matches_reference(owner, values, epochs, pb_values,
                                  pb_epochs, via_as_piggyback=False):
    v = DependIntervalVector(N, owner, values, epochs)
    if pb_epochs is None:
        piggyback = tuple(pb_values)
        ref_epochs = list(epochs)  # untagged == current epochs, entrywise
    elif via_as_piggyback:
        donor = DependIntervalVector(N, (owner + 1) % N, pb_values, pb_epochs)
        piggyback = donor.as_piggyback()
        ref_epochs = pb_epochs
    else:
        piggyback = TaggedPiggyback(pb_values, pb_epochs)
        ref_epochs = pb_epochs
    want_v, want_e, want_changed = reference_merge(
        owner, values, epochs, pb_values, ref_epochs)
    changed = v.merge(piggyback)
    assert changed == want_changed
    assert v.snapshot() == FrozenVector(want_v, want_e)
    assert all(isinstance(x, int) and not isinstance(x, bool)
               for x in v.snapshot().thaw())


@given(owners, vectors, vectors)
def test_untagged_merge_matches_reference(owner, values, pb_values):
    check_merge_matches_reference(owner, values, [0] * N, pb_values, None)


@given(owners, vectors, epoch_vectors, vectors, epoch_vectors)
def test_tagged_merge_matches_reference(owner, values, epochs, pb_values,
                                        pb_epochs):
    check_merge_matches_reference(owner, values, epochs, pb_values, pb_epochs)


@given(owners, vectors, epoch_vectors, vectors, epoch_vectors)
def test_as_piggyback_merge_matches_reference(owner, values, epochs,
                                              pb_values, pb_epochs):
    # the cached-array fast path: piggybacks built the way protocols
    # build them, including a second merge that hits the warm cache
    v = DependIntervalVector(N, owner, values, epochs)
    donor = DependIntervalVector(N, (owner + 1) % N, pb_values, pb_epochs)
    pb = donor.as_piggyback()
    want_v, want_e, want_changed = reference_merge(
        owner, values, epochs, pb_values, pb_epochs)
    assert v.merge(pb) == want_changed
    assert v.snapshot() == FrozenVector(want_v, want_e)
    assert v.merge(pb) == 0  # idempotent on the now-cached array


