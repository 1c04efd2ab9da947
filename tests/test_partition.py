"""Local-search partitioning and the same-part codegree objective."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcol import (
    Colouring,
    Hypergraph,
    guarantee_bound,
    max_cut_search,
    pair_objective,
    random_bounded_degree,
    within_part_incident_counts,
)
from defcol.partition import _part_tallies
from helpers import edge_tuples, ref_co_members, within_part_incident_count

TRIANGLE = Hypergraph(3, 2, [(0, 1), (0, 2), (1, 2)])


class TestPairObjective:
    def test_triangle_all_same(self):
        assert pair_objective(TRIANGLE, Colouring((0, 0, 0), 1)) == 3

    def test_triangle_split(self):
        assert pair_objective(TRIANGLE, Colouring((0, 0, 1), 2)) == 1
        assert pair_objective(TRIANGLE, Colouring((0, 1, 2), 3)) == 0

    def test_hyperedge_counts_pairs(self):
        hg = Hypergraph(3, 3, [(0, 1, 2)])
        assert pair_objective(hg, Colouring((0, 0, 0), 1)) == 3
        assert pair_objective(hg, Colouring((0, 0, 1), 2)) == 1

    @pytest.mark.parametrize("objective", [pair_objective, within_part_incident_counts])
    @pytest.mark.parametrize("labels", [(0, 0), (0, 0, 1, 1)], ids=["short", "long"])
    def test_length_mismatch(self, objective, labels):
        with pytest.raises(ValueError, match=f"covers {len(labels)} vertices, hypergraph has 3"):
            objective(TRIANGLE, Colouring(labels, 2))


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

    def test_tallies_stay_below_one_entry_per_vertex_and_part(self):
        # K_{1,2000} with 2000 parts: an n x P table would hold 4.002e6 entries,
        # the rows 2000 for the centre and 2 per leaf
        star = Hypergraph(2001, 2, [(0, v) for v in range(1, 2001)])
        for seed in range(3):
            tracemalloc.start()
            try:
                run = max_cut_search(star, 2000, seed)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < star.n * 2000  # bytes: under one byte per entry of the table
            assert run.final_objective == 0


@pytest.mark.parametrize("num_parts", [1, 2, 5, 13, 14, 40, 2**40, 2**70])
def test_part_tallies_count_co_member_parts_in_narrow_rows(num_parts):
    # u=3 with max degree 6: a vertex sees at most 12 co-members, so from 13
    # parts on every row is narrower than the palette
    hg = random_bounded_degree(60, 3, 6, 100, seed=3)
    parts = [7919**v % num_parts for v in range(hg.n)]  # past int64 at 2**70
    owner, member = np.divmod(hg._pair_codes(), hg.n)
    counts = np.bincount(owner, minlength=hg.n)
    rows = _part_tallies(owner, member, counts, parts, num_parts)
    co_members = ref_co_members(hg.n, edge_tuples(hg))
    for x, row in enumerate(rows):
        assert len(row) == min(num_parts, (hg.u - 1) * hg.degree([x]) + 1)
        tally = Counter(parts[y] for y in co_members[x])
        assert row == [tally[p] for p in range(len(row))]


def test_within_part_count_is_edgewise():
    # vertex 0 shares a part with 1 but not 2: only the edges through 1 count
    hg = Hypergraph(3, 2, [(0, 1), (0, 2)])
    p = Colouring((0, 0, 1), 2)
    assert within_part_incident_count(hg, p, 0) == 1
    assert within_part_incident_count(hg, p, 2) == 0


def test_guarantee_bound_value():
    assert guarantee_bound(TRIANGLE, 2, 0) == pytest.approx(1 * 2 / 2)
    hg = Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])
    assert guarantee_bound(hg, 4, 0) == pytest.approx(2 * 2 / 4)


@pytest.mark.parametrize("num_parts", [0, -2])
def test_guarantee_bound_refuses_fewer_than_one_part(num_parts):
    with pytest.raises(ValueError, match=f"need at least one part, got {num_parts}"):
        guarantee_bound(TRIANGLE, num_parts, 0)
    with pytest.raises(ValueError, match=f"need at least one part, got {num_parts}"):
        max_cut_search(TRIANGLE, num_parts)


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
