"""Instance generators: complete, axis grids, bounded-degree and linear samplers."""

from itertools import combinations
from math import comb

import pytest

from defcol import (
    complete,
    coords_to_index,
    grid,
    grid_base_degree,
    index_to_coords,
    random_bounded_degree,
    random_linear,
)
from helpers import edge_tuples


class TestComplete:
    def test_counts(self):
        hg = complete(5, 3)
        assert hg.m == comb(5, 3) == 10
        assert hg.max_degree == comb(4, 2) == 6

    def test_triangle(self):
        assert complete(3, 2).edge_array().tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_validation(self):
        with pytest.raises(ValueError):
            complete(2, 3)
        with pytest.raises(ValueError):
            complete(3, 1)


class TestCoords:
    @pytest.mark.parametrize("n,r", [(3, 2), (4, 2), (2, 3), (5, 1)])
    def test_round_trip(self, n, r):
        for idx in range(n**r):
            coords = index_to_coords(idx, n, r)
            assert all(1 <= c <= n for c in coords)
            assert coords_to_index(coords, n) == idx

    def test_row_major(self):
        # last coordinate varies fastest
        assert coords_to_index((1, 1), 3) == 0
        assert coords_to_index((1, 2), 3) == 1
        assert coords_to_index((2, 1), 3) == 3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            coords_to_index((0, 1), 3)
        with pytest.raises(ValueError):
            index_to_coords(9, 3, 2)


class TestGrid:
    def test_smallest(self):
        hg = grid(3, 2)
        assert hg.n == 9
        assert hg.u == 3
        assert hg.m == 9

    def test_edge_shape(self):
        # every edge is a base plus one strictly larger point per axis
        hg = grid(3, 2)
        for e in edge_tuples(hg):
            pts = [index_to_coords(v, 3, 2) for v in e]
            base = min(pts)
            others = [p for p in pts if p != base]
            assert len(others) == 2
            axes = set()
            for p in others:
                diff = [i for i in range(2) if p[i] != base[i]]
                assert len(diff) == 1
                assert p[diff[0]] > base[diff[0]]
                axes.add(diff[0])
            assert axes == {0, 1}

    @pytest.mark.parametrize("n,r", [(3, 2), (4, 2), (5, 2), (3, 3)])
    def test_corner_attains_max_degree(self, n, r):
        hg = grid(n, r)
        corner = coords_to_index((1,) * r, n)
        assert hg.degree([corner]) == (n - 1) ** r
        assert hg.max_degree == grid_base_degree(n, r) == (n - 1) ** r

    def test_sparse_induced_edges(self):
        # any r+2 vertices induce at most 2 edges
        hg = grid(3, 2)
        for sub in combinations(range(hg.n), 4):
            s = set(sub)
            assert sum(1 for e in edge_tuples(hg) if set(e) <= s) <= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            grid(1, 2)
        with pytest.raises(ValueError):
            grid(3, 0)


class TestRandomBoundedDegree:
    def test_degree_cap_is_hard(self):
        hg = random_bounded_degree(30, 3, 4, 60, seed=1)
        assert max(hg.degrees()) <= 4

    def test_target_reached_when_easy(self):
        hg = random_bounded_degree(40, 2, 10, 30, seed=2)
        assert hg.m == 30

    def test_best_effort_when_tight(self):
        # the cap makes 100 edges impossible: 6 vertices, degree cap 1
        hg = random_bounded_degree(6, 3, 1, 100, seed=3)
        assert hg.m <= 2

    def test_deterministic(self):
        a = random_bounded_degree(25, 3, 6, 50, seed=9)
        b = random_bounded_degree(25, 3, 6, 50, seed=9)
        assert a == b
        c = random_bounded_degree(25, 3, 6, 50, seed=10)
        assert a != c

    def test_validation(self):
        with pytest.raises(ValueError):
            random_bounded_degree(3, 1, 2, 5)
        with pytest.raises(ValueError):
            random_bounded_degree(2, 3, 2, 5)
        with pytest.raises(ValueError):
            random_bounded_degree(5, 2, -1, 5)


class TestRandomLinear:
    def test_output_is_linear(self):
        hg = random_linear(40, 3, 6, 60, seed=4)
        assert hg.is_linear()
        assert max(hg.degrees()) <= 6

    def test_deterministic(self):
        assert random_linear(30, 3, 5, 40, seed=5) == random_linear(30, 3, 5, 40, seed=5)

    def test_zero_target(self):
        assert random_linear(10, 3, 5, 0, seed=0).m == 0
