"""Local-search partitioning and the same-part codegree objective."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcol import (
    Hypergraph,
    Partition,
    guarantee_bound,
    max_cut_search,
    pair_objective,
    random_bounded_degree,
    within_part_incident_count,
)

TRIANGLE = Hypergraph(3, 2, [(0, 1), (0, 2), (1, 2)])


class TestPartitionType:
    def test_members(self):
        p = Partition((0, 1, 0, 2), 3)
        assert p.members() == [[0, 2], [1], [3]]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Partition((0, 3), 3)
        with pytest.raises(ValueError):
            Partition((-1,), 2)

    def test_rejects_empty_palette(self):
        with pytest.raises(ValueError):
            Partition((), 0)


class TestPairObjective:
    def test_triangle_all_same(self):
        assert pair_objective(TRIANGLE, Partition((0, 0, 0), 1)) == 3

    def test_triangle_split(self):
        assert pair_objective(TRIANGLE, Partition((0, 0, 1), 2)) == 1
        assert pair_objective(TRIANGLE, Partition((0, 1, 2), 3)) == 0

    def test_hyperedge_counts_pairs(self):
        hg = Hypergraph(3, 3, [(0, 1, 2)])
        assert pair_objective(hg, Partition((0, 0, 0), 1)) == 3
        assert pair_objective(hg, Partition((0, 0, 1), 2)) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pair_objective(TRIANGLE, Partition((0, 0), 1))


class TestMaxCutSearch:
    def test_triangle_three_parts_reaches_zero(self):
        for seed in range(6):
            run = max_cut_search(TRIANGLE, 3, seed=seed)
            assert run.final_objective == 0

    def test_moves_bounded_by_initial_objective(self):
        hg = random_bounded_degree(40, 3, 10, 120, seed=0)
        run = max_cut_search(hg, 3, seed=1)
        assert run.moves <= run.initial_objective
        assert run.final_objective <= run.initial_objective

    def test_single_part_makes_no_moves(self):
        run = max_cut_search(TRIANGLE, 1, seed=0)
        assert run.moves == 0
        assert run.final_objective == run.initial_objective == 3

    @pytest.mark.parametrize("seed,ell", [(0, 2), (1, 3), (2, 5), (3, 10)])
    def test_local_optimum_guarantee(self, seed, ell):
        hg = random_bounded_degree(36, 3, 9, 90, seed=seed)
        partition = max_cut_search(hg, ell, seed=seed).partition
        for x in range(hg.n):
            within = within_part_incident_count(hg, partition, x)
            assert within <= guarantee_bound(hg, ell, x) + 1e-9

    def test_deterministic(self):
        hg = random_bounded_degree(25, 2, 8, 60, seed=7)
        assert max_cut_search(hg, 4, seed=3) == max_cut_search(hg, 4, seed=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            max_cut_search(TRIANGLE, 0)


def test_within_part_count_is_edgewise():
    # vertex 0 shares a part with 1 but not 2: only the edges through 1 count
    hg = Hypergraph(3, 2, [(0, 1), (0, 2)])
    p = Partition((0, 0, 1), 2)
    assert within_part_incident_count(hg, p, 0) == 1
    assert within_part_incident_count(hg, p, 2) == 0


def test_guarantee_bound_value():
    assert guarantee_bound(TRIANGLE, 2, 0) == pytest.approx(1 * 2 / 2)
    hg = Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])
    assert guarantee_bound(hg, 4, 0) == pytest.approx(2 * 2 / 4)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=6),
)
def test_search_properties(seed, ell):
    hg = random_bounded_degree(14, 2, 6, 30, seed=seed)
    run = max_cut_search(hg, ell, seed=seed)
    assert run.moves <= run.initial_objective
    assert 0 <= run.final_objective <= run.initial_objective
    assert pair_objective(hg, run.partition) == run.final_objective
    for x in range(hg.n):
        assert within_part_incident_count(hg, run.partition, x) <= guarantee_bound(hg, ell, x) + 1e-9
