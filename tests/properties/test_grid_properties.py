"""Property tests for the process-grid decomposition."""

from hypothesis import given, strategies as st

from repro.workloads.base import ProcessGrid


@given(st.integers(1, 200))
def test_factorisation_exact_and_squareish(nprocs):
    g = ProcessGrid.for_size(nprocs, 0)
    assert g.px * g.py == nprocs
    assert g.px <= g.py


@given(st.integers(1, 100))
def test_coordinates_bijective(nprocs):
    coords = set()
    for rank in range(nprocs):
        g = ProcessGrid.for_size(nprocs, rank)
        assert g.at(g.ix, g.iy) == rank
        coords.add((g.ix, g.iy))
    assert len(coords) == nprocs


@given(st.integers(2, 100))
def test_neighbour_relations_symmetric(nprocs):
    for rank in range(nprocs):
        g = ProcessGrid.for_size(nprocs, rank)
        for direction, inverse in (("east", "west"), ("south", "north")):
            other = getattr(g, direction)
            if other is not None:
                assert getattr(ProcessGrid.for_size(nprocs, other), inverse) == rank


@given(st.integers(1, 100))
def test_neighbours_in_range_and_distinct(nprocs):
    for rank in range(nprocs):
        g = ProcessGrid.for_size(nprocs, rank)
        ns = [r for r in (g.west, g.east, g.north, g.south) if r is not None]
        assert all(0 <= n < nprocs and n != rank for n in ns)
        assert len(set(ns)) == len(ns)
