"""Unit tests for the depend_interval vector (paper §III.B)."""

import pytest

from repro.core.vectors import DependIntervalVector


class TestConstruction:
    def test_initial_zero(self):
        v = DependIntervalVector(4, owner=1)
        assert list(v) == [0, 0, 0, 0]
        assert v.own_interval == 0

    def test_from_values(self):
        v = DependIntervalVector(3, owner=0, values=[1, 2, 3])
        assert list(v) == [1, 2, 3]

    def test_owner_out_of_range(self):
        with pytest.raises(ValueError):
            DependIntervalVector(3, owner=3)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            DependIntervalVector(3, owner=0, values=[1, 2])


class TestAdvanceAndMerge:
    def test_advance_own_counts_deliveries(self):
        v = DependIntervalVector(3, owner=1)
        assert v.advance_own() == 1
        assert v.advance_own() == 2
        assert v[1] == 2

    def test_merge_takes_pointwise_max_on_foreign(self):
        v = DependIntervalVector(4, owner=1, values=[0, 2, 1, 0])
        changed = v.merge((0, 2, 2, 1))
        # the paper's Fig.1 example: (0,2,1,0) + m5's (0,2,2,1) -> (0,2,2,1)
        assert list(v) == [0, 2, 2, 1]
        assert changed == 2

    def test_merge_never_touches_owner_entry(self):
        v = DependIntervalVector(3, owner=0, values=[5, 0, 0])
        v.merge((99, 1, 1))
        assert v[0] == 5

    def test_merge_never_decreases(self):
        v = DependIntervalVector(3, owner=0, values=[0, 7, 7])
        v.merge((0, 1, 1))
        assert list(v) == [0, 7, 7]

    def test_merge_shorter_piggyback_is_prefix_merge(self):
        # a sender with a smaller membership horizon legitimately
        # piggybacks a shorter vector; it merges into the prefix
        v = DependIntervalVector(3, owner=2, values=[0, 1, 4])
        changed = v.merge((3, 0))
        assert list(v) == [3, 1, 4]
        assert changed == 1

    def test_merge_longer_piggyback_raises(self):
        # the receiver must grow_to() the sender's horizon *before*
        # merging; a longer piggyback reaching merge() is a bug
        v = DependIntervalVector(3, owner=0)
        with pytest.raises(ValueError):
            v.merge((1, 2, 3, 4))


class TestHelpers:
    def test_as_tuple_is_snapshot(self):
        v = DependIntervalVector(2, owner=0)
        t = v.as_tuple()
        v.advance_own()
        assert t == (0, 0)

    def test_snapshot_roundtrip(self):
        v = DependIntervalVector(3, owner=2, values=[1, 2, 3])
        v2 = DependIntervalVector.from_snapshot(3, 2, v.snapshot())
        assert v == v2

    def test_eq_against_list(self):
        v = DependIntervalVector(2, owner=0, values=[1, 2])
        assert v == [1, 2]
        assert v == (1, 2)
        assert not (v == [2, 1])

    def test_repr(self):
        assert "owner=1" in repr(DependIntervalVector(2, owner=1))
