"""Colouring engine: elementary operations, resampling rounds, full modes."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcol import (
    MODES,
    Colouring,
    EngineConfig,
    Hypergraph,
    adaptive_colouring,
    classify,
    complete,
    graph_maxcut_colouring,
    greedy_proper,
    linear_lll_colouring,
    mono_counts,
    mono_degree,
    nibble_colouring,
    nibble_round,
    random_bounded_degree,
    random_linear,
    run_engine,
    uniform_colouring,
    verify,
)
from defcol.engine import closed_second_neighbourhood

TRIANGLE = Hypergraph(3, 2, [(0, 1), (0, 2), (1, 2)])


class TestColouring:
    def test_palette_range_enforced(self):
        with pytest.raises(ValueError):
            Colouring((0, 2), 2)
        with pytest.raises(ValueError):
            Colouring((-1,), 2)

    def test_partial(self):
        c = Colouring((0, None, 1), 2)
        assert not c.is_total
        assert c.uncoloured() == (1,)
        assert c.distinct_used() == 2

    def test_total(self):
        assert Colouring((0, 0), 1).is_total


def test_uniform_colouring_deterministic_and_in_range():
    hg = complete(6, 3)
    a = uniform_colouring(hg, 4, seed=5)
    b = uniform_colouring(hg, 4, seed=5)
    assert a == b
    assert a.is_total
    assert all(0 <= c < 4 for c in a.colours)
    with pytest.raises(ValueError):
        uniform_colouring(hg, 0)


class TestMonoDegree:
    def test_triangle(self):
        c = Colouring((0, 0, 1), 2)
        assert mono_degree(TRIANGLE, c, 0) == 1
        assert mono_degree(TRIANGLE, c, 2) == 0

    def test_uncoloured_vertex_raises(self):
        c = Colouring((None, 0, 0), 1)
        with pytest.raises(ValueError):
            mono_degree(TRIANGLE, c, 0)

    def test_partially_coloured_edges_do_not_count(self):
        c = Colouring((0, 0, None), 1)
        assert mono_degree(TRIANGLE, c, 0) == 1  # only the 0-1 edge


class TestClassify:
    def test_all_same_complete(self):
        hg = complete(4, 3)
        c = Colouring((0, 0, 0, 0), 1)
        bad, terrible = classify(hg, c, 0)
        assert bad == {0, 1, 2, 3}
        # every edge is all-bad, so each vertex sits in 3 bad edges,
        # above the default threshold 3 * 2^-2
        assert terrible == {0, 1, 2, 3}

    def test_needs_total(self):
        with pytest.raises(ValueError):
            classify(TRIANGLE, Colouring((0, None, 0), 1), 0)

    def test_rainbow_is_calm(self):
        bad, terrible = classify(TRIANGLE, Colouring((0, 1, 2), 3), 0)
        assert bad == set() and terrible == set()

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_vectorised_form(self, seed):
        # classify runs on the shared kernel; the reference side is pure
        # Python: mono_degree per vertex, bad-edge counts over incident edges
        hg = random_bounded_degree(20, 3, 8, 50, seed=seed)
        col = uniform_colouring(hg, 2, seed=seed)
        for d in (0, 1):
            threshold = hg.max_degree * 2.0 ** -(hg.u - 1)
            bad, terrible = classify(hg, col, d)
            ref_bad = {v for v in range(hg.n) if mono_degree(hg, col, v) >= d + 1}
            ref_terrible = {
                v
                for v in range(hg.n)
                if sum(set(hg.edges[i]) <= ref_bad for i in hg.incident(v)) > threshold
            }
            assert bad == ref_bad
            assert terrible == ref_terrible


def test_mono_counts_kernel():
    assert mono_counts(TRIANGLE.edge_array(), np.array([0, 0, 1]), 3).tolist() == [1, 1, 0]
    assert mono_counts(TRIANGLE.edge_array(), np.zeros(3, dtype=np.int64), 3).tolist() == [2, 2, 2]
    empty = Hypergraph(4, 3, [])
    assert mono_counts(empty.edge_array(), np.zeros(4, dtype=np.int64), 4).tolist() == [0] * 4


def test_closed_second_neighbourhood_on_a_path():
    path = Hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert closed_second_neighbourhood(path, 0) == (0, 1, 2)
    assert closed_second_neighbourhood(path, 2) == (0, 1, 2, 3, 4)


class TestNibbleRound:
    def test_success_contract(self):
        hg = random_bounded_degree(40, 3, 20, 140, seed=8)
        d = 1
        threshold = hg.max_degree * 2.0 ** -(hg.u - 1)
        partial, residual, trace = nibble_round(hg, d, 6, seed=13)
        assert trace.succeeded
        for v, c in enumerate(partial.colours):
            if c is not None:
                assert mono_degree(hg, partial, v) <= d
        assert set(residual) == set(partial.uncoloured())
        if residual:
            sub, _ = hg.induced(residual)
            assert sub.max_degree <= threshold

    def test_single_colour_palette_fails_fast(self):
        # resampling from one colour is a no-op, so the round gives up at once
        _, residual, trace = nibble_round(complete(6, 3), 0, 1, seed=0)
        assert not trace.succeeded
        assert trace.resamples == 0
        assert residual is None

    @pytest.mark.parametrize("seed", range(3))
    def test_budget_is_respected(self, seed):
        _, residual, trace = nibble_round(complete(9, 3), 0, 2, None, 5, seed=seed)
        assert not trace.succeeded
        assert trace.resamples == 5
        assert residual is None

    def test_validation(self):
        with pytest.raises(ValueError):
            nibble_round(TRIANGLE, 0, 0)
        with pytest.raises(ValueError):
            nibble_round(TRIANGLE, -1, 2)


def check_traces_tile_palette(colouring, traces):
    assert colouring.num_colours == sum(t.palette_size for t in traces)
    cursor = 0
    for t in traces:
        assert t.palette_start == cursor
        cursor += t.palette_size


class TestNibbleColouring:
    def test_single_colour_endgame(self):
        hg = complete(4, 3)  # max degree 3
        colouring, traces = nibble_colouring(hg, 3)
        assert colouring.num_colours == 1
        assert [t.kind for t in traces] == ["single"]
        assert verify(hg, colouring, 3).is_defective

    def test_greedy_endgame_for_small_degree(self):
        hg = random_bounded_degree(20, 3, 6, 40, seed=4)
        colouring, traces = nibble_colouring(hg, 1)
        assert [t.kind for t in traces] == ["greedy"]
        assert verify(hg, colouring, 1).is_defective

    @pytest.mark.parametrize("seed", range(4))
    def test_valid_and_palettes_tile(self, seed):
        hg = random_bounded_degree(40, 3, 25, 160, seed=seed)
        d = 1
        colouring, traces = nibble_colouring(hg, d, seed=seed)
        assert colouring.is_total
        assert verify(hg, colouring, d).is_defective
        check_traces_tile_palette(colouring, traces)
        assert all(t.probes >= 1 for t in traces)

    def test_validation(self):
        with pytest.raises(ValueError):
            nibble_colouring(Hypergraph(2, 1, [(0,)]), 0)
        with pytest.raises(ValueError):
            nibble_colouring(TRIANGLE, -1)


class TestAdaptiveColouring:
    @pytest.mark.parametrize("seed", range(4))
    def test_valid_and_palettes_tile(self, seed):
        hg = random_bounded_degree(36, 3, 22, 150, seed=100 + seed)
        d = 1
        colouring, traces = adaptive_colouring(hg, d, seed=seed)
        assert verify(hg, colouring, d).is_defective
        check_traces_tile_palette(colouring, traces)

    def test_small_instances_use_exact_endgames(self):
        colouring, traces = adaptive_colouring(complete(4, 3), 3)
        assert [t.kind for t in traces] == ["single"]
        colouring, traces = adaptive_colouring(complete(5, 3), 1)
        assert traces[-1].kind in ("greedy", "single")
        assert verify(complete(5, 3), colouring, 1).is_defective


class TestLinearLLL:
    def test_rejects_nonlinear(self):
        with pytest.raises(ValueError):
            linear_lll_colouring(complete(4, 3), 0)

    def test_palette_follows_the_formula(self):
        hg = random_linear(30, 3, 6, 40, seed=2)
        colouring, trace = linear_lll_colouring(hg, 1)
        expected = math.floor(100.0 * (hg.max_degree / 2) ** 0.5)
        assert colouring.num_colours == expected
        assert (trace.kind, trace.palette_size, trace.succeeded) == ("lll", expected, True)
        assert verify(hg, colouring, 1).is_defective

    @pytest.mark.parametrize("seed", range(4))
    def test_valid_on_linear_instances(self, seed):
        hg = random_linear(50, 3, 8, 80, seed=seed)
        colouring, _ = linear_lll_colouring(hg, 1, seed=seed)
        assert verify(hg, colouring, 1).is_defective


class TestGraphMaxcut:
    def test_star_with_defect_two(self):
        star = Hypergraph(7, 2, [(0, i) for i in range(1, 7)])
        colouring = graph_maxcut_colouring(star, 2)
        assert colouring.num_colours == 3  # 6 // 3 + 1
        assert verify(star, colouring, 2).is_defective

    def test_rejects_hypergraphs(self):
        with pytest.raises(ValueError):
            graph_maxcut_colouring(complete(4, 3), 1)

    @pytest.mark.parametrize("seed,d", [(0, 0), (1, 1), (2, 2), (3, 5)])
    def test_exact_palette_size(self, seed, d):
        hg = random_bounded_degree(50, 2, 12, 150, seed=seed)
        colouring = graph_maxcut_colouring(hg, d, seed=seed)
        assert colouring.num_colours == hg.max_degree // (d + 1) + 1
        assert verify(hg, colouring, d).is_defective


class TestGreedyProper:
    def test_complete_5_3(self):
        colouring = greedy_proper(complete(5, 3))
        assert colouring.num_colours == 3
        assert verify(complete(5, 3), colouring, 0).proper

    def test_never_more_than_degree_plus_one(self):
        for seed in range(5):
            hg = random_bounded_degree(30, 3, 9, 70, seed=seed)
            colouring = greedy_proper(hg)
            assert colouring.num_colours <= hg.max_degree + 1
            assert verify(hg, colouring, 0).proper

    def test_singleton_edges_impossible(self):
        with pytest.raises(ValueError):
            greedy_proper(Hypergraph(2, 1, [(0,)]))

    def test_empty_graph(self):
        assert greedy_proper(Hypergraph(0, 2, [])).colours == ()


@st.composite
def small_hypergraphs(draw, u, linear=False):
    n = draw(st.integers(u, 12))
    pool = list(combinations(range(n), u))
    edges = []
    for e in draw(st.lists(st.sampled_from(pool), unique=True, max_size=60)):
        if not linear or all(len(set(e) & set(f)) < 2 for f in edges):
            edges.append(e)
    return Hypergraph(n, u, edges)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(MODES), st.integers(0, 3), st.integers(0, 2**32))
def test_every_mode_returns_a_verified_colouring(data, mode, d, seed):
    u = {"graph-maxcut": 2, "naive-lll": 3}.get(mode) or data.draw(st.integers(2, 4))
    hg = data.draw(small_hypergraphs(u, linear=mode == "naive-lll"))
    # small budgets drive theorem and adaptive into failed probes; naive-lll
    # has no fallback, so it keeps enough budget to finish on these sizes
    budget = data.draw(st.integers(20 if mode == "naive-lll" else 1, 40))
    result = run_engine(hg, EngineConfig(mode=mode, defect=d, seed=seed, budget=budget))
    assert result.colouring.is_total
    assert verify(hg, result.colouring, d).is_defective
    if mode in ("theorem", "adaptive"):
        check_traces_tile_palette(result.colouring, result.traces)


class TestRunEngine:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(mode="nope", defect=0)
        with pytest.raises(ValueError):
            EngineConfig(mode="theorem", defect=-1)
        with pytest.raises(ValueError):
            EngineConfig(mode="theorem", defect=0, budget=0)

    def test_every_mode_round_trips_through_verify(self):
        graph = random_bounded_degree(24, 2, 8, 60, seed=40)
        three = random_linear(24, 3, 6, 40, seed=41)
        for mode in MODES:
            hg = graph if mode == "graph-maxcut" else three
            result = run_engine(hg, EngineConfig(mode=mode, defect=1, seed=7))
            assert result.mode == mode
            assert len(result.traces) >= 1
            assert verify(hg, result.colouring, 1).is_defective

    def test_results_are_seed_deterministic(self):
        hg = random_bounded_degree(30, 3, 15, 90, seed=50)
        cfg = EngineConfig(mode="adaptive", defect=1, seed=9)
        assert run_engine(hg, cfg).colouring == run_engine(hg, cfg).colouring
