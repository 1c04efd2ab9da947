"""Sunflower recognition, constructive search, and greedy decomposition."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcol import (
    Hypergraph,
    Sunflower,
    as_sunflower,
    complete,
    decompose,
    find_sunflower,
    leftover_bound,
    random_bounded_degree,
)
from helpers import edge_tuples


class TestSunflowerType:
    def test_needs_a_petal(self):
        with pytest.raises(ValueError):
            Sunflower(core=(0,), petals=())

    def test_rejects_empty_petal(self):
        with pytest.raises(ValueError):
            Sunflower(core=(0,), petals=((),))

    def test_rejects_core_overlap(self):
        with pytest.raises(ValueError):
            Sunflower(core=(0,), petals=((0, 1),))

    def test_rejects_petal_overlap(self):
        with pytest.raises(ValueError):
            Sunflower(core=(), petals=((0, 1), (1, 2)))

    @pytest.mark.parametrize("core, petals, message", [
        ((0,), ((1, 2), (2, 3)), "petals must be pairwise disjoint"),
        ((0,), ((1, 2), (0, 1)), "petal overlaps the core"),  # meets the core and an earlier petal
        ((5,), ((1, 2), (1, 5)), "petal overlaps the core"),  # meets the earlier petal first
        ((5,), ((5, 6), (1, 2)), "petal overlaps the core"),  # the first petal
    ], ids=["petals", "core-and-earlier-petal", "earlier-petal-then-core", "first-petal"])
    def test_an_overlap_with_the_core_is_reported_first(self, core, petals, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Sunflower(core=core, petals=petals)

    @pytest.mark.parametrize("core, petals", [
        ((3, 3), ((1,), (2,))),  # a repeated core vertex
        ((), ((1, 1), (2, 3))),  # a repeated petal vertex
        ((), ((2, 1), (3, 4))),  # an unsorted petal
    ])
    def test_rejects_a_part_that_is_not_a_vertex_set(self, core, petals):
        with pytest.raises(ValueError, match="strictly increasing"):
            Sunflower(core=core, petals=petals)

    def test_edges_reconstruct(self):
        sf = Sunflower(core=(5,), petals=((1, 2), (3, 4)))
        assert sf.edges() == ((1, 2, 5), (3, 4, 5))
        assert sf.petal_count == 2


class TestAsSunflower:
    def test_single_edge_gets_empty_core(self):
        sf = as_sunflower([(0, 1, 2)])
        assert sf.core == ()
        assert sf.petals == ((0, 1, 2),)

    def test_matching(self):
        sf = as_sunflower([(0, 1), (2, 3), (4, 5)])
        assert sf.core == ()
        assert sf.petal_count == 3

    def test_shared_core(self):
        sf = as_sunflower([(0, 1, 2), (0, 1, 3)])
        assert sf.core == (0, 1)
        assert sf.petals == ((2,), (3,))

    def test_triangle_is_not_a_sunflower(self):
        assert as_sunflower([(0, 1), (1, 2), (0, 2)]) is None

    def test_errors(self):
        with pytest.raises(ValueError):
            as_sunflower([])
        with pytest.raises(ValueError):
            as_sunflower([(0, 1), (0, 1, 2)])
        with pytest.raises(ValueError):
            as_sunflower([(0, 1), (1, 0)])


def test_leftover_bound_values():
    assert leftover_bound(3, 2) == 6
    assert leftover_bound(3, 3) == 48
    assert leftover_bound(4, 2) == 24
    assert leftover_bound(2, 5) == 32


class TestFindSunflower:
    def test_fewer_edges_than_petals(self):
        assert find_sunflower(Hypergraph(3, 3, [(0, 1, 2)]), 2) is None

    def test_single_petal_is_any_edge(self):
        sf = find_sunflower(Hypergraph(3, 3, [(0, 1, 2)]), 1)
        assert sf.edges() == ((0, 1, 2),)

    def test_matching_found_first(self):
        hg = Hypergraph(6, 3, [(0, 1, 2), (3, 4, 5)])
        sf = find_sunflower(hg, 2)
        assert sf.core == ()
        assert sf.petals == ((0, 1, 2), (3, 4, 5))

    def test_recurses_into_link(self):
        # no 2-matching exists, so the search must pivot on a busy vertex
        sf = find_sunflower(complete(4, 3), 2)
        assert sf == Sunflower(core=(0, 1), petals=((2,), (3,)))

    def test_found_edges_exist(self):
        hg = random_bounded_degree(14, 3, 8, 40, seed=6)
        sf = find_sunflower(hg, 3)
        assert sf is not None
        edge_set = set(edge_tuples(hg))
        for e in sf.edges():
            assert e in edge_set

    def test_validation(self):
        with pytest.raises(ValueError):
            find_sunflower(complete(4, 3), 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_guarantee_above_the_bound(self, seed):
        # with more than u!(a-1)^u edges the search cannot fail
        a = 2
        hg = random_bounded_degree(16, 3, 10, leftover_bound(3, a) + 1, seed=seed)
        if hg.m > leftover_bound(3, a):
            assert find_sunflower(hg, a) is not None


class TestDecompose:
    def check(self, hg, a):
        result = decompose(hg, a)
        edge_set = set(edge_tuples(hg))
        used = set()
        for sf in result.sunflowers:
            assert sf.petal_count == a
            assert as_sunflower(sf.edges()) == sf
            for e in sf.edges():
                assert e in edge_set
                assert e not in used  # edge-disjoint
                used.add(e)
        assert used | set(result.leftover) == edge_set
        assert len(used) + len(result.leftover) == hg.m
        assert len(result.leftover) <= result.leftover_cap
        # maximality: nothing extractable remains
        if result.leftover:
            assert find_sunflower(Hypergraph(hg.n, hg.u, result.leftover), a) is None
        return result

    def test_complete_4_3(self):
        result = self.check(complete(4, 3), 2)
        assert len(result.sunflowers) == 2
        assert result.leftover == ()

    # u = 3 unless the id names it; at u = 2 the links are 1-uniform, and seed 7 pivots into one
    @pytest.mark.parametrize("seed, a, u, m", [
        (0, 2, 3, 80), (1, 3, 3, 80), (2, 4, 3, 80), (3, 5, 3, 80), (7, 3, 2, 80), (5, 3, 4, 50),
    ], ids=["0-2", "1-3", "2-4", "3-5", "7-3-u2", "5-3-u4"])
    def test_random_instances(self, seed, a, u, m):
        hg = random_bounded_degree(20, u, 10, m, seed=seed)
        self.check(hg, a)

    def test_empty(self):
        result = decompose(Hypergraph(5, 3, []), 2)
        assert result.sunflowers == ()
        assert result.leftover == ()

    def test_deterministic(self):
        hg = random_bounded_degree(15, 4, 8, 60, seed=11)
        assert decompose(hg, 3) == decompose(hg, 3)

    def test_needs_a_petal(self):
        with pytest.raises(ValueError, match="petal count must be >= 1, got 0"):
            decompose(Hypergraph(3, 3, []), 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=4))
def test_decompose_leftover_bound_property(seed, a):
    hg = random_bounded_degree(12, 3, 8, 40, seed=seed)
    result = decompose(hg, a)
    assert len(result.leftover) <= leftover_bound(3, a)
    for sf in result.sunflowers:
        assert sf.petal_count == a


def _relabelled(sunflower, label):
    return Sunflower(
        core=tuple(map(label, sunflower.core)),
        petals=tuple(tuple(map(label, petal)) for petal in sunflower.petals),
    )


# at a = 3 complete(8, 3) and each random seed's decomposition recurse into links, seed 7's into a 1-uniform one
@pytest.mark.parametrize("hg", [
    complete(8, 3), complete(7, 2), random_bounded_degree(20, 2, 10, 80, seed=7),
    random_bounded_degree(20, 3, 10, 80, seed=1), random_bounded_degree(20, 4, 10, 50, seed=5),
], ids=["complete-8-3", "complete-7-2", "random-u2", "random-u3", "random-u4"])
@pytest.mark.parametrize("a", [2, 3])
def test_search_and_decomposition_ignore_the_labels(hg, a):
    """Spreading the labels out by an increasing map w -> 3w + 2 maps every answer by the same rule."""
    def label(w):
        return 3 * w + 2

    spread = Hypergraph(3 * hg.n + 5, hg.u, [tuple(map(label, e)) for e in edge_tuples(hg)])
    found, found_spread = find_sunflower(hg, a), find_sunflower(spread, a)
    assert found is not None
    assert found_spread == _relabelled(found, label)
    result = decompose(hg, a)
    assert decompose(spread, a) == replace(
        result,
        sunflowers=tuple(_relabelled(sf, label) for sf in result.sunflowers),
        leftover=tuple(tuple(map(label, e)) for e in result.leftover),
    )
