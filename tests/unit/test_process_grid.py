"""Unit tests for the 2D process grid decomposition."""

import pytest

from repro.workloads.base import ProcessGrid


class TestFactorisation:
    @pytest.mark.parametrize("nprocs,px,py", [
        (1, 1, 1), (2, 1, 2), (4, 2, 2), (6, 2, 3), (8, 2, 4),
        (9, 3, 3), (12, 3, 4), (16, 4, 4), (32, 4, 8),
    ])
    def test_closest_to_square(self, nprocs, px, py):
        g = ProcessGrid.for_size(nprocs, rank=0)
        assert (g.px, g.py) == (px, py)

    def test_coordinates_roundtrip(self):
        for rank in range(12):
            g = ProcessGrid.for_size(12, rank)
            assert g.at(g.ix, g.iy) == rank


class TestNeighbours:
    def test_corner_has_two_neighbours(self):
        g = ProcessGrid.for_size(4, 0)  # 2x2, corner
        assert g.west is None and g.north is None
        assert g.east == 1 and g.south == 2

    def test_interior_has_four(self):
        g = ProcessGrid.for_size(9, 4)  # 3x3 centre
        assert (g.west, g.north, g.east, g.south) == (3, 1, 5, 7)

    def test_neighbour_symmetry(self):
        n = 12
        for rank in range(n):
            g = ProcessGrid.for_size(n, rank)
            if g.east is not None:
                assert ProcessGrid.for_size(n, g.east).west == rank
            if g.south is not None:
                assert ProcessGrid.for_size(n, g.south).north == rank

    def test_all_ranks_covered_once(self):
        n = 8
        coords = {(ProcessGrid.for_size(n, r).ix, ProcessGrid.for_size(n, r).iy)
                  for r in range(n)}
        assert len(coords) == n
