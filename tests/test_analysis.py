"""Verification, exact oracle, lower-bound certificates, grid witnesses, probes."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcol import (
    Colouring,
    GridWitness,
    Hypergraph,
    ProbeStats,
    SizeGuardError,
    bad_vertex_ceiling,
    complete,
    complete_lowerbound,
    exact_defective_chromatic,
    find_defective_colouring,
    grid,
    grid_defect_witness,
    index_to_coords,
    mono_degree,
    probe_bad_vertex,
    probe_mono_edge,
    verify,
)
from helpers import brute_force_min_colours, cycle_graph, tiny_instances

TRIANGLE = Hypergraph(3, 2, [(0, 1), (0, 2), (1, 2)])


class TestVerify:
    def test_triangle_report(self):
        report = verify(TRIANGLE, Colouring((0, 0, 1), 2), 0)
        assert report.mono_degrees == (1, 1, 0)
        assert report.violating == (0, 1)
        assert report.colours_used == 2
        assert report.max_mono_degree == 1
        assert not report.proper
        assert not report.is_defective

    def test_defect_one_absorbs_the_edge(self):
        report = verify(TRIANGLE, Colouring((0, 0, 1), 2), 1)
        assert report.violating == ()
        assert report.is_defective

    def test_proper_flag(self):
        assert verify(TRIANGLE, Colouring((0, 1, 2), 3), 0).proper

    def test_rejects_partial(self):
        with pytest.raises(ValueError):
            verify(TRIANGLE, Colouring((0, None, 0), 1), 0)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            verify(TRIANGLE, Colouring((0, 0), 1), 0)

    def test_rejects_negative_defect(self):
        with pytest.raises(ValueError):
            verify(TRIANGLE, Colouring((0, 0, 0), 1), -1)

    def test_empty_hypergraphs(self):
        assert verify(Hypergraph(0, 2, []), Colouring((), 1), 0).mono_degrees == ()
        assert verify(Hypergraph(2, 2, []), Colouring((0, 0), 1), 0).mono_degrees == (0, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_the_per_vertex_scan(self, data):
        # the vectorised kernel against mono_degree, which shares no code with it
        u = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(u, 10))
        pool = list(combinations(range(n), u))
        hg = Hypergraph(n, u, data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=40)))
        k = data.draw(st.integers(1, 4))
        shift = data.draw(st.sampled_from([0, 2**70]))  # labels past int64 too
        draws = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        colouring = Colouring(tuple(shift + c for c in draws), shift + k)
        report = verify(hg, colouring, 0)
        assert report.mono_degrees == tuple(mono_degree(hg, colouring, v) for v in range(n))


class TestWitnessSearch:
    def test_infeasible_returns_none(self):
        assert find_defective_colouring(complete(5, 3), 0, 2) is None

    def test_feasible_is_valid_and_canonical(self):
        col = find_defective_colouring(complete(5, 3), 0, 3)
        assert col is not None
        assert col.colours[0] == 0
        assert verify(complete(5, 3), col, 0).is_defective

    def test_validation(self):
        with pytest.raises(ValueError):
            find_defective_colouring(TRIANGLE, 0, 0)
        with pytest.raises(ValueError):
            find_defective_colouring(TRIANGLE, -1, 2)


class TestExactOracle:
    @pytest.mark.parametrize(
        "hg,d,expected",
        [
            (complete(5, 3), 0, 3),
            (complete(5, 3), 1, 2),
            (complete(5, 3), 2, 2),
            (complete(4, 3), 0, 2),
            (cycle_graph(5), 0, 3),
            (cycle_graph(5), 1, 2),
            (Hypergraph(3, 3, [(0, 1, 2)]), 0, 2),
            (grid(3, 2), 0, 2),
            (grid(3, 2), 1, 2),
            (grid(3, 2), 4, 1),
        ],
    )
    def test_spot_values(self, hg, d, expected):
        assert exact_defective_chromatic(hg, d) == expected

    def test_limit_caps_the_search(self):
        assert exact_defective_chromatic(cycle_graph(5), 0, limit=2) is None
        assert exact_defective_chromatic(cycle_graph(5), 0, limit=3) == 3

    def test_size_guard(self):
        big = Hypergraph(17, 2, [])
        with pytest.raises(SizeGuardError):
            exact_defective_chromatic(big, 0)
        assert exact_defective_chromatic(big, 0, force=True) == 1

    @pytest.mark.parametrize("d", [0, 1])
    def test_agrees_with_independent_brute_force(self, d):
        for hg in tiny_instances(20, seed=d + 1):
            assert exact_defective_chromatic(hg, d) == brute_force_min_colours(hg, d)

    def test_oracle_output_reverifies(self):
        for hg in tiny_instances(10, seed=5):
            k = exact_defective_chromatic(hg, 1)
            col = find_defective_colouring(hg, 1, k)
            assert verify(hg, col, 1).is_defective


class TestCompleteLowerbound:
    @pytest.mark.parametrize(
        "args,expected",
        [
            ((5, 3, 2, 0), True),
            ((5, 3, 3, 0), False),
            ((6, 3, 2, 0), True),
            ((6, 3, 3, 0), False),
            ((6, 2, 2, 0), True),
            ((7, 2, 7, 0), False),
        ],
    )
    def test_spot_values(self, args, expected):
        assert complete_lowerbound(*args) is expected

    def test_validation(self):
        with pytest.raises(ValueError):
            complete_lowerbound(2, 3, 1, 0)
        with pytest.raises(ValueError):
            complete_lowerbound(5, 3, 0, 0)

    def test_never_contradicts_the_oracle(self):
        for n in range(4, 7):
            for u in (2, 3):
                if n < u:
                    continue
                hg = complete(n, u)
                for d in (0, 1):
                    minimum = exact_defective_chromatic(hg, d)
                    for k in range(1, 5):
                        if complete_lowerbound(n, u, k, d):
                            assert minimum > k


class TestGridWitness:
    def test_constant_colouring(self):
        w = grid_defect_witness(4, 2, Colouring((0,) * 16, 1), 0)
        assert w == GridWitness(vertex=0, coords=(1, 1), mono_degree=9, class_size=16, survivor_size=16)

    def test_rainbow_has_no_witness(self):
        w = grid_defect_witness(4, 2, Colouring(tuple(range(16)), 16), 0)
        assert w is None

    def test_checkerboard(self):
        cols = tuple((sum(index_to_coords(i, 5, 2))) % 2 for i in range(25))
        w = grid_defect_witness(5, 2, Colouring(cols, 2), 0)
        assert w.coords == (1, 1)
        assert w.mono_degree == 4
        assert w.class_size == 13

    def test_isolated_cell_is_pruned(self):
        # colour class {(1,1)} plus the 4x4 block; the lonely corner must be
        # deleted before a vertex is picked, or the witness would be wrong
        cols = []
        for idx in range(25):
            i, j = index_to_coords(idx, 5, 2)
            cols.append(0 if (i, j) == (1, 1) or (i >= 2 and j >= 2) else 1)
        w = grid_defect_witness(5, 2, Colouring(tuple(cols), 2), 0)
        assert w.coords == (2, 2)
        assert w.class_size == 17
        assert w.survivor_size == 16
        assert w.mono_degree == 9

    def test_row_halves(self):
        cols = tuple(0 if index_to_coords(i, 5, 2)[0] <= 2 else 1 for i in range(25))
        w = grid_defect_witness(5, 2, Colouring(cols, 2), 0)
        assert w.coords == (3, 1)
        assert w.mono_degree == 8

    def test_witness_mono_degree_is_measured(self):
        hg = grid(4, 2)
        w = grid_defect_witness(4, 2, Colouring((0,) * 16, 1), 0, hg=hg)
        report = verify(hg, Colouring((0,) * 16, 1), 0)
        assert w.mono_degree == report.mono_degrees[w.vertex]

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_defect_witness(4, 2, Colouring((0,) * 9, 1), 0)
        with pytest.raises(ValueError):
            grid_defect_witness(3, 2, Colouring((None,) * 9, 1), 0)
        with pytest.raises(ValueError):
            grid_defect_witness(3, 2, Colouring((0,) * 9, 1), -1)


class TestProbes:
    def test_mono_edge_hits_closed_form(self):
        hg = complete(6, 3)
        stats = probe_mono_edge(hg, 5, 10_000, seed=0)
        assert abs(stats.estimate - 5.0**-2) <= 4 * stats.se

    def test_mono_edge_graph_half(self):
        hg = Hypergraph(4, 2, [(0, 1)])
        stats = probe_mono_edge(hg, 2, 10_000, seed=1)
        assert abs(stats.estimate - 0.5) <= 4 * stats.se

    def test_mono_edge_validation(self):
        with pytest.raises(ValueError):
            probe_mono_edge(Hypergraph(3, 2, []), 2, 100)
        with pytest.raises(ValueError):
            probe_mono_edge(TRIANGLE, 0, 100)
        with pytest.raises(ValueError):
            probe_mono_edge(TRIANGLE, 2, 0)

    def test_bad_vertex_trivial_zero(self):
        stats = probe_bad_vertex(complete(4, 3), 2, 3, 0, 2_000, seed=0)
        assert stats.estimate == 0.0

    def test_bad_vertex_trivial_one(self):
        stats = probe_bad_vertex(complete(4, 3), 1, 0, 0, 2_000, seed=0)
        assert stats.estimate == 1.0

    def test_bad_vertex_stays_under_markov(self):
        hg = complete(6, 3)
        ceiling = bad_vertex_ceiling(hg, 0, 4, 1)
        assert ceiling == pytest.approx(10 * 4.0**-2 / 2) == pytest.approx(0.3125)
        stats = probe_bad_vertex(hg, 4, 1, 0, 20_000, seed=2)
        assert stats.estimate <= ceiling + 4 * stats.se

    def test_bad_vertex_validation(self):
        with pytest.raises(ValueError):
            probe_bad_vertex(TRIANGLE, 2, 0, 5, 100)
        with pytest.raises(ValueError):
            probe_bad_vertex(TRIANGLE, 2, -1, 0, 100)

    def test_probe_stats_arithmetic(self):
        small = ProbeStats(10_000, 1_000)
        big = ProbeStats(40_000, 4_000)
        assert small.estimate == big.estimate == 0.1
        assert small.se == pytest.approx(math.sqrt(0.1 * 0.9 / 10_000))
        assert big.se == pytest.approx(small.se / 2)

    def test_seeded_reproducibility(self):
        a = probe_mono_edge(complete(6, 3), 7, 5_000, seed=9)
        b = probe_mono_edge(complete(6, 3), 7, 5_000, seed=9)
        assert (a.trials, a.count) == (b.trials, b.count)
