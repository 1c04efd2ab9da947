"""Verification, exact oracle, lower-bound certificates, grid witnesses, probes."""

import math
import tracemalloc
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
    probe_bad_vertex,
    probe_mono_edge,
    random_bounded_degree,
    verify,
)
from defcol import analysis
from helpers import brute_force_min_colours, cycle_graph, mono_degree, ref_grid_defect_witness, tiny_instances

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
        assert exact_defective_chromatic(cycle_graph(5), 0, limit=0) is None
        with pytest.raises(ValueError, match="limit must be >= 0, got -1"):
            exact_defective_chromatic(cycle_graph(5), 0, limit=-1)

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

    def test_depth_is_not_bound_by_the_recursion_limit(self):
        # 1500 vertices deep: a recursive search died with RecursionError past about 1000
        hg = random_bounded_degree(1500, 3, 4, 1500, seed=1)
        assert find_defective_colouring(hg, 4, 1, force=True) == Colouring((0,) * 1500, 1)
        assert exact_defective_chromatic(hg, 4, force=True) == 1


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

    def test_checks_run_before_the_grid_is_built(self, monkeypatch):
        """A colouring of 9 vertices is refused for grid(40, 2) without building its 608400 edges."""
        def no_grid(n, r):
            raise AssertionError(f"grid({n}, {r}) built before the checks")

        monkeypatch.setattr(analysis, "grid", no_grid)
        with pytest.raises(ValueError, match="covers 9 vertices, grid has 1600"):
            grid_defect_witness(40, 2, Colouring((0,) * 9, 1), 0)
        with pytest.raises(ValueError, match="total colouring"):
            grid_defect_witness(40, 2, Colouring((None,) * 1600, 1), 0)
        with pytest.raises(ValueError, match="defect"):
            grid_defect_witness(40, 2, Colouring((0,) * 1600, 1), -1)

    @pytest.mark.parametrize("n, r, hg", [
        (3, 2, complete(9, 3)),  # right n and u, 84 edges against 9
        (4, 2, grid(3, 2)),  # the grid of another side
        (3, 2, Hypergraph(10, 3, grid(3, 2).edge_array())),  # the grid's edges on 10 vertices
    ], ids=["complete", "other-side", "extra-vertex"])
    def test_refuses_a_hypergraph_that_is_not_the_grid(self, n, r, hg):
        with pytest.raises(ValueError, match=r"hg has \(n, u, m\)"):
            grid_defect_witness(n, r, Colouring((0,) * n**r, 1), 0, hg=hg)

    @pytest.mark.parametrize("flip", [0, 1])
    def test_tied_classes_go_to_the_smallest_colour(self, flip):
        cols = tuple((sum(index_to_coords(i, 4, 2)) + flip) % 2 for i in range(16))
        w = grid_defect_witness(4, 2, Colouring(cols, 2), 0)
        assert w.class_size == 8 and cols[w.vertex] == 0
        assert w == ref_grid_defect_witness(4, 2, Colouring(cols, 2), 0)

    def test_labels_either_side_of_2_63_stay_apart(self):
        """Colours 2**63 - 1 and 2**63 would meet as float64; every label stays exact."""
        big = 2**63
        cols = tuple(big - 1 if index_to_coords(i, 4, 2)[0] <= 3 else big for i in range(16))
        colouring = Colouring(cols, big + 1)
        w = grid_defect_witness(4, 2, colouring, 0)
        assert (w.coords, w.class_size) == ((1, 1), 12)
        assert w.mono_degree == mono_degree(grid(4, 2), colouring, w.vertex) == 6


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

    def test_palette_past_int32_is_refused_by_name(self):
        # the colours are drawn as int32, whose bound numpy names without naming k
        for k in (2**31 + 1, 3_000_000_000):
            with pytest.raises(ValueError, match=f"need 1 <= k <= 2\\*\\*31.*got k={k}"):
                probe_mono_edge(TRIANGLE, k, 100)
            with pytest.raises(ValueError, match=f"need 1 <= k <= 2\\*\\*31.*got k={k}"):
                probe_bad_vertex(TRIANGLE, k, 0, 0, 100)
        assert probe_mono_edge(TRIANGLE, 2**31, 100).trials == 100
        assert probe_bad_vertex(TRIANGLE, 2**31, 0, 0, 100).trials == 100

    def test_negative_seed_is_refused_by_name(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            probe_mono_edge(TRIANGLE, 2, 100, seed=-3)
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            probe_bad_vertex(TRIANGLE, 2, 0, 0, 100, seed=-3)

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_chunked_draws_keep_the_counts(self, monkeypatch, rows):
        # counts of the probes that drew all trials at once; vertex 12 has degree 8
        monkeypatch.setattr(analysis, "_PROBE_ROWS", rows)
        hg = random_bounded_degree(50, 3, 8, 60, seed=4)
        found = [(probe_bad_vertex(hg, k, 1, 12, 1000, seed=3).count, probe_mono_edge(hg, k, 1000, seed=3).count)
                 for k in (2, 3, 7)]
        assert found == [(609, 264), (229, 114), (12, 22)]

    def test_memory_stays_flat_in_the_trial_count(self):
        # drawing all 10^6 trials at once peaked at 92 MB (bad vertex) and 16 MB (mono edge)
        hg = random_bounded_degree(50, 3, 8, 60, seed=4)
        for probe, bound in ((lambda: probe_bad_vertex(hg, 2, 2, 12, 10**6), 16e6),
                             (lambda: probe_mono_edge(hg, 3, 10**6), 8e6)):
            tracemalloc.start()
            try:
                probe()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound

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
