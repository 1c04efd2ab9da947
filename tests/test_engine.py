"""Colouring engine: elementary operations, resampling rounds, full modes."""

import math
import random
import tracemalloc
from functools import partial
from itertools import combinations, product

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
    default_budget,
    graph_maxcut_colouring,
    greedy_proper,
    linear_lll_colouring,
    mono_counts,
    nibble_colouring,
    nibble_round,
    random_bounded_degree,
    random_linear,
    run_engine,
    uniform_colouring,
    verify,
)
from defcol import engine
from defcol.engine import _classifier, closed_second_neighbourhood
from helpers import edge_tuples, mono_degree

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

    @pytest.mark.parametrize("colours, num_colours, message", [
        ((None, 3, None, 1), 2, "vertex 1 has colour 3, outside palette 0..1"),
        ((0, None, -1, 5), 2, "vertex 2 has colour -1, outside palette 0..1"),
        ((1, 0, 2), 2, "vertex 2 has colour 2, outside palette 0..1"),
        ((2**70 - 1, 2**70), 2**70, f"vertex 1 has colour {2**70}, outside palette 0..{2**70 - 1}"),
    ], ids=["none-entries", "negative", "palette-size", "past-int64"])
    def test_names_the_first_vertex_outside_the_palette(self, colours, num_colours, message):
        with pytest.raises(ValueError) as info:
            Colouring(colours, num_colours)
        assert str(info.value) == message

    @pytest.mark.parametrize("colours, num_colours, total, used", [
        ((None, None), 0, False, 0),
        ((None, 1, None, 1), 2, False, 1),
        ((2**70, None, 2**70 + 1, 0), 2**70 + 2, False, 3),
        ((2**70, 2**70 + 1, 2**70), 2**70 + 2, True, 2),
    ], ids=["all-none", "some-none", "past-int64-partial", "past-int64-total"])
    def test_accepts_labels_inside_the_palette(self, colours, num_colours, total, used):
        c = Colouring(colours, num_colours)
        assert (c.is_total, c.distinct_used()) == (total, used)
        assert c.uncoloured() == tuple(v for v, x in enumerate(colours) if x is None)


def test_uniform_colouring_deterministic_and_in_range():
    hg = complete(6, 3)
    a = uniform_colouring(hg, 4, seed=5)
    b = uniform_colouring(hg, 4, seed=5)
    assert a == b
    assert a.is_total
    assert all(0 <= c < 4 for c in a.colours)
    with pytest.raises(ValueError):
        uniform_colouring(hg, 0)


def test_palette_past_int64_is_refused_by_name():
    """Both entries draw int64 colours; past 2**63 numpy refuses with a message naming neither k nor the rule."""
    hg = random_bounded_degree(35, 3, 18, 199, seed=7000)
    for draw in (partial(uniform_colouring, hg), partial(nibble_round, hg, 1)):
        with pytest.raises(ValueError, match=rf"^need 1 <= k <= 2\*\*63: colours are drawn as int64, got k={2**70}$"):
            draw(2**70)
    assert uniform_colouring(hg, 2**63).num_colours == 2**63
    assert nibble_round(hg, 1, 2**63)[2].succeeded


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

    @pytest.mark.parametrize("check", [classify, verify], ids=["classify", "verify"])
    def test_partial_colouring_message_is_shared_with_verify(self, check):
        with pytest.raises(ValueError, match=r"^colouring leaves 1 vertices uncoloured \(first: \(1,\)\)$"):
            check(TRIANGLE, Colouring((0, None, 0), 1), 0)

    @pytest.mark.parametrize("length", [2, 4])
    def test_refuses_a_colouring_of_another_length(self, length):
        with pytest.raises(ValueError, match=f"colouring covers {length} vertices, hypergraph has 3"):
            classify(TRIANGLE, Colouring((0,) * length, 1), 0)

    def test_negative_defect_is_refused(self):
        # as in verify: at d = -1 every vertex would read as bad
        hg = random_bounded_degree(40, 3, 18, 228, seed=1)
        with pytest.raises(ValueError, match=r"^defect must be >= 0, got -1$"):
            classify(hg, uniform_colouring(hg, 3, seed=1), -1)

    def test_rainbow_is_calm(self):
        bad, terrible = classify(TRIANGLE, Colouring((0, 1, 2), 3), 0)
        assert bad == set() and terrible == set()

    @pytest.mark.parametrize("base, num_colours", [(2**63, 2**64), (2**70, 2**70 + 2)])
    def test_labels_either_side_of_2_63_stay_apart(self, base, num_colours):
        """As float64, 2**63 and 2**63 + 1 are one number; verify and classify keep them two colours."""
        edge = Hypergraph(3, 2, [(1, 2)])
        split = Colouring((0, base, base + 1), num_colours)
        assert classify(edge, split, 0) == (set(), set())
        assert verify(edge, split, 0).mono_degrees == (0, 0, 0)
        assert verify(edge, split, 0).violating == ()
        same = Colouring((0, base + 1, base + 1), num_colours)
        assert classify(edge, same, 0) == ({1, 2}, {1, 2})
        assert (verify(edge, same, 0).mono_degrees, verify(edge, same, 0).violating) == ((0, 1, 1), (1, 2))

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
                if sum(set(e) <= ref_bad for e in edge_tuples(hg) if v in e) > threshold
            }
            assert bad == ref_bad
            assert terrible == ref_terrible


def reference_classify(hg, colouring, d, threshold):
    """(mono degrees, bad flags, terrible flags) of one colouring, from the pure-Python references."""
    mono = [mono_degree(hg, colouring, v) for v in range(hg.n)]
    bad = [c >= d + 1 for c in mono]
    all_bad = [e for e in edge_tuples(hg) if all(bad[v] for v in e)]
    return mono, bad, [sum(v in e for e in all_bad) > threshold for v in range(hg.n)]


def assert_rows_match(hg, rows, k, d, threshold):
    """Every row of the (B, n) kernel calls equals the (n,) call on it and the references.

    B >= 64 rows of int64 labels take the bit-sliced layout, so its flags
    must also equal the counting layout's on the whole batch (object labels
    never bit-slice), in both ``violated`` forms: terrible flags and mono
    degree over d (the bad flags).
    """
    terrible_of, bad_of = _classifier(hg, d, threshold), _classifier(hg, d)
    counts, terrible, bad = mono_counts(hg, rows), terrible_of(rows), bad_of(rows)
    assert counts.shape == terrible.shape == bad.shape == rows.shape
    assert engine._is_wide(rows) == (len(rows) >= 64 and rows.dtype == np.int64)
    counted = rows.astype(object)
    assert terrible.tolist() == terrible_of(counted).tolist() and bad.tolist() == bad_of(counted).tolist()
    assert bad.tolist() == (counts > d).tolist()
    for b, row in enumerate(rows):
        mono, ref_bad, ref_terrible = reference_classify(hg, Colouring(tuple(row.tolist()), k), d, threshold)
        assert counts[b].tolist() == mono_counts(hg, row).tolist() == mono
        assert bad[b].tolist() == bad_of(row).tolist() == ref_bad
        assert terrible[b].tolist() == terrible_of(row).tolist() == ref_terrible


def labelled_rows(batch, n, k, seed):
    """(batch, n) labels drawn from three values spread over 0..k-1; object dtype past int64."""
    draws = np.random.default_rng(seed).integers(0, 3, size=(batch, n)).tolist()
    labels = [[c * (k - 1) // 2 for c in row] for row in draws]
    return np.array(labels, dtype=object if k > 2**62 else np.int64).reshape(batch, n)


def test_mono_counts_kernel():
    assert mono_counts(TRIANGLE, np.array([0, 0, 1])).tolist() == [1, 1, 0]
    assert mono_counts(TRIANGLE, np.zeros(3, dtype=np.int64)).tolist() == [2, 2, 2]
    empty = Hypergraph(4, 3, [])
    assert mono_counts(empty, np.zeros(4, dtype=np.int64)).tolist() == [0] * 4
    # each row of a (B, n) call equals the (n,) call on it and the pure-Python counts
    cases = [
        (TRIANGLE, 2),
        (empty, 2),
        (Hypergraph(5, 1, [(0,), (3,)]), 2),
        (Hypergraph(7, 4, [(0, 1, 2, 3), (1, 2, 3, 4), (0, 2, 4, 6)]), 2),  # vertex 5 isolated
        (Hypergraph(8, 3, [(1, 2, 3), (2, 3, 5), (1, 5, 6), (3, 5, 6)]), 2),  # 0, 4 and 7 isolated
        (random_bounded_degree(20, 3, 8, 50, seed=3), 2),
        (random_bounded_degree(30, 2, 6, 70, seed=4), 3),
        (complete(6, 3), 2**70),  # labels past int64
    ]
    for (hg, k), batch in product(cases, (1, 2, 5, 64, 77, 300)):
        rows = labelled_rows(batch, hg.n, k, batch)
        default = hg.max_degree * 2.0 ** -(hg.u - 1)
        combos = product(range(4), (0.0, -1.0, default)) if batch < 64 else [(0, default), (1, -0.5)]
        for d, threshold in combos:
            assert_rows_match(hg, rows, k, d, threshold)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batched_kernel_rows_match_single_calls(data):
    u = data.draw(st.integers(1, 4), label="u")
    n = data.draw(st.integers(u, 12), label="n")
    isolated = data.draw(st.sets(st.sampled_from([0, n // 2, n - 1])), label="isolated")
    pool = list(combinations(sorted(set(range(n)) - isolated), u))
    edges = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=15) if pool else st.just([]))
    hg = Hypergraph(n, u, edges)
    batch = data.draw(st.one_of(st.integers(2, 63), st.integers(64, 300)), label="B")
    k = data.draw(st.sampled_from([2, 3, 5, 2**20, 2**70]), label="k")
    d = data.draw(st.integers(0, 3), label="d")
    default = hg.max_degree * 2.0 ** -(hg.u - 1)
    threshold = data.draw(st.sampled_from([0.0, -1.0, -0.5, default, hg.max_degree + 0.5]), label="threshold")
    rows = labelled_rows(batch, n, k, data.draw(st.integers(0, 2**32 - 1), label="seed"))
    assert_rows_match(hg, rows, k, d, threshold)


WIDE_CASES = [
    Hypergraph(9, 3, [(0, 1, 2), (1, 2, 3), (2, 3, 5), (1, 5, 6), (3, 5, 6), (0, 2, 6)]),  # 4, 7, 8 isolated
    Hypergraph(6, 3, []),  # m = 0
    Hypergraph(5, 1, [(0,), (3,)]),  # u = 1
    complete(6, 2),
    random_bounded_degree(30, 3, 8, 70, seed=5),
    random_bounded_degree(20, 4, 6, 30, seed=6),
]


@pytest.mark.parametrize("hg", WIDE_CASES, ids=["isolated", "no-edges", "u1", "k6", "u3", "u4"])
def test_bit_sliced_flags_match_the_counting_kernel(hg):
    """Both ``violated`` forms on B = 64-300 rows, several bit planes, every kind of threshold.

    The same rows as object labels take the counting layout.
    """
    default = hg.max_degree * 2.0 ** -(hg.u - 1)
    thresholds = (0.0, -1.0, -0.5, default, hg.max_degree + 0.5, math.nan)
    for batch, k in product((64, 65, 71, 100, 127, 128, 200, 300), (2, 3, 5, 2**20)):
        rows = labelled_rows(batch, hg.n, k, batch * k)
        counted = rows.astype(object)
        assert engine._is_wide(rows) and not engine._is_wide(counted)
        counts = mono_counts(hg, rows)
        for d in range(4):
            bad_of = _classifier(hg, d)
            assert bad_of(rows).tolist() == bad_of(counted).tolist() == (counts > d).tolist()
            for threshold in thresholds:
                terrible_of = _classifier(hg, d, threshold)
                assert terrible_of(rows).tolist() == terrible_of(counted).tolist()
        # labels are compared as 64-bit patterns: shifting them (below 0 too) changes no flag
        for threshold in (None, default):
            violated = _classifier(hg, 1, threshold)
            assert violated(rows - 2**40).tolist() == violated(rows).tolist()


def test_batch_index_is_built_once_per_resample_loop_and_only_for_batches(monkeypatch):
    """The incidence on the first batch of 2-63 rows, kept by the hypergraph for every later probe;
    the padded incidence on each resample loop's first batch of 64 or more."""
    builds, padded = [], []
    real_index, real_padded = Hypergraph.incidence, engine._padded_incidence

    def counted_index(hg):
        if hg._incidence is None:
            builds.append(hg.n)
        return real_index(hg)

    monkeypatch.setattr(Hypergraph, "incidence", counted_index)
    monkeypatch.setattr(engine, "_padded_incidence", lambda hg: padded.append(hg.n) or real_padded(hg))
    hg = random_bounded_degree(35, 3, 18, 199, seed=7000)
    assert nibble_round(hg, 1, 40, budget=300)[2].resamples == 0
    assert linear_lll_colouring(random_linear(30, 3, 6, 40, seed=2), 1)[1].resamples == 0
    assert builds == padded == []  # one row at a time needs neither
    # every support of this probe is the whole vertex set: one batch of 63 rows, which is counted
    assert nibble_round(hg, 1, 2, budget=63)[2].resamples == 63
    assert (builds, padded) == ([35], [])
    for _ in range(2):
        assert nibble_round(hg, 1, 2, budget=300)[2].resamples == 300  # batches of 64 and 236 rows
    assert (builds, padded) == ([35], [35, 35])
    other = random_bounded_degree(35, 3, 18, 199, seed=7001)
    assert nibble_round(other, 1, 2, budget=63)[2].resamples == 63
    assert (builds, padded) == ([35, 35], [35, 35])


def batch_rows(monkeypatch):
    """The row count of every call of every ``_classifier`` callable made from now on, in order."""
    rows, real = [], engine._classifier

    def recording(*args):
        violated = real(*args)
        return lambda colours: rows.append(len(colours)) or violated(colours)

    monkeypatch.setattr(engine, "_classifier", recording)
    return rows


def test_a_probe_that_meets_only_the_whole_vertex_set_goes_64_rows_then_the_cap(monkeypatch):
    """The first draw, one 64-row word, then batches of 2^18 // m = 1317 rows until the budget of 2240 is spent."""
    rows = batch_rows(monkeypatch)
    hg = random_bounded_degree(35, 3, 18, 199, seed=7000)  # the adaptive-resample a35 instance
    assert nibble_round(hg, 1, 2)[2].resamples == 2240
    assert rows == [1, 64, 1317, 859]


def test_a_probe_that_meets_a_partial_support_first_keeps_the_doubling_schedule(monkeypatch):
    """Its first target has a partial support, so batches go 1, 2, 4, ... rows and drop back to 1 after a miss."""
    rows = batch_rows(monkeypatch)
    hg = random_bounded_degree(60, 3, 10, 150, seed=2)
    assert nibble_round(hg, 0, 2, seed=0)[2].resamples == 3840
    assert (len(rows), sum(rows)) == (2517, 5959)


@pytest.mark.parametrize("budget", [0, -5, -7])
def test_every_resampling_entry_point_refuses_a_budget_below_one(budget):
    hg = random_bounded_degree(35, 3, 18, 199, seed=7000)
    linear = random_linear(30, 3, 6, 40, seed=2)
    calls = (
        partial(EngineConfig, mode="adaptive", defect=1, budget=budget),
        partial(nibble_round, hg, 1, 2, budget=budget),
        partial(nibble_colouring, hg, 1, 0, budget),
        partial(adaptive_colouring, hg, 1, 0, budget),
        partial(linear_lll_colouring, linear, 1, 0, budget),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"^budget must be >= 1, got {budget}$"):
            call()


def test_padded_incidence_is_built_only_where_its_size_is_bounded(monkeypatch):
    """A batch reaches 64 rows only when max(m, n) <= _BATCH_EDGE_ROWS // _WORD_ROWS.

    That bounds the (max degree, n) padded incidence by the square of that
    quotient: on K_{2,N} at the edge of the bound (m = 2N) the padded
    incidence is built once, and just past it never.
    """
    padded = []
    real_padded = engine._padded_incidence
    monkeypatch.setattr(engine, "_padded_incidence", lambda hg: padded.append(hg.n) or real_padded(hg))
    half = engine._BATCH_EDGE_ROWS // engine._WORD_ROWS // 2
    for others, builds in ((half - 1, [half + 1]), (half + 1, [])):
        padded.clear()
        k2n = Hypergraph(others + 2, 2, [(i, j) for i in (0, 1) for j in range(2, others + 2)])
        assert nibble_round(k2n, 0, 2, threshold=1.0, budget=300)[2].resamples == 300
        assert padded == builds


def test_closed_second_neighbourhood_on_a_path():
    path = Hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert closed_second_neighbourhood(path, 0) == (0, 1, 2)
    assert closed_second_neighbourhood(path, 2) == (0, 1, 2, 3, 4)


@pytest.mark.parametrize("v", [-1, 5])
def test_closed_second_neighbourhood_refuses_a_vertex_out_of_range(v):
    # -1 once read the last vertex's run and returned (-1, 3, 4)
    with pytest.raises(ValueError, match=f"vertex {v} outside 0..4"):
        closed_second_neighbourhood(Hypergraph(5, 2, [(0, 1), (1, 2), (3, 4)]), v)


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

    def test_default_budget_is_64_resamples_per_vertex(self):
        assert (default_budget(0), default_budget(35)) == (1, 2240)
        # the adaptive-resample benchmark's a35 instance, whose k=2 probe fails
        hg = random_bounded_degree(35, 3, 18, 199, seed=7000)
        _, residual, trace = nibble_round(hg, 1, 2)
        assert (trace.succeeded, trace.resamples, residual) == (False, 2240, None)


def check_traces_tile_palette(colouring, traces):
    assert colouring.num_colours == sum(t.palette_size for t in traces)
    cursor = 0
    for t in traces:
        assert t.palette_start == cursor
        cursor += t.palette_size


def check_nibble_residuals(hg, colouring, traces):
    """Each nibble round's residual has the traced size and induces degree <= bound * 2^-(u-1).

    Palettes tile in round order, so a round's residual is exactly the set
    of vertices that got a colour past the end of its palette.
    """
    for t in traces:
        if t.kind != "nibble":
            continue
        assert t.succeeded
        residual = [v for v, c in enumerate(colouring.colours) if c >= t.palette_start + t.palette_size]
        assert len(residual) == t.residual_size
        assert hg.induced(residual)[0].max_degree <= t.degree_bound * 2.0 ** -(hg.u - 1)


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
        check_nibble_residuals(hg, colouring, traces)
        assert all(t.probes >= 1 for t in traces)

    def test_failed_probe_goes_straight_to_greedy(self, monkeypatch):
        # a negative threshold makes every vertex terrible, so every probe fails
        real, palettes = engine.nibble_round, []

        def failing(hg, d, k, threshold=None, budget=None, seed=0):
            palettes.append(k)
            return real(hg, d, k, -1.0, budget, seed)

        monkeypatch.setattr(engine, "nibble_round", failing)
        hg = random_bounded_degree(60, 3, 40, 300, seed=1)
        colouring, traces = nibble_colouring(hg, 1, budget=2)
        # one probe, at the formula's palette, and no doubling before the endgame
        assert palettes == [math.floor(49.0 * (hg.max_degree / 2) ** 0.5)]
        assert [(t.kind, t.probes) for t in traces] == [("greedy", 1)]
        assert verify(hg, colouring, 1).is_defective

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
        check_nibble_residuals(hg, colouring, traces)

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

    def test_refuses_unit_edges_and_a_negative_defect(self):
        with pytest.raises(ValueError, match="needs uniformity >= 2"):
            linear_lll_colouring(Hypergraph(3, 1, [(0,), (1,)]), 0)
        with pytest.raises(ValueError, match="defect must be >= 0, got -1"):
            linear_lll_colouring(random_linear(30, 3, 6, 40, seed=2), -1)

    def test_negative_seed_is_refused_by_name(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            linear_lll_colouring(random_linear(30, 3, 6, 40, seed=2), 1, seed=-3)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            uniform_colouring(TRIANGLE, 2, seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            nibble_round(TRIANGLE, 0, 2, seed=-1)


class TestGraphMaxcut:
    def test_star_with_defect_two(self):
        star = Hypergraph(7, 2, [(0, i) for i in range(1, 7)])
        colouring = graph_maxcut_colouring(star, 2)
        assert colouring.num_colours == 3  # 6 // 3 + 1
        assert verify(star, colouring, 2).is_defective

    def test_rejects_hypergraphs(self):
        with pytest.raises(ValueError):
            graph_maxcut_colouring(complete(4, 3), 1)

    def test_rejects_a_negative_defect(self):
        with pytest.raises(ValueError, match="defect must be >= 0, got -1"):
            graph_maxcut_colouring(TRIANGLE, -1)

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

    def test_forbidden_table_follows_the_palette_not_the_degree(self):
        # K_{1,20000}: a table as wide as max_degree + 1 would take 5.1 MB for
        # one block of 256 vertices; the palette so far keeps it at 1-3 columns
        leaves = range(1, 20001)
        for star in (Hypergraph(20001, 2, [(0, v) for v in leaves]),
                     Hypergraph(20001, 2, [(v - 1, 20000) for v in leaves])):
            tracemalloc.start()
            try:
                colouring = greedy_proper(star)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20  # bytes
            assert colouring.num_colours == 2


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
    if mode in ("graph-maxcut", "greedy-proper"):
        budget = None
    result = run_engine(hg, EngineConfig(mode=mode, defect=d, seed=seed, budget=budget))
    assert result.colouring.is_total
    assert verify(hg, result.colouring, d).is_defective
    if mode in ("theorem", "adaptive"):
        check_traces_tile_palette(result.colouring, result.traces)
        check_nibble_residuals(hg, result.colouring, result.traces)



class TestRunEngine:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(mode="nope", defect=0)
        with pytest.raises(ValueError):
            EngineConfig(mode="theorem", defect=-1)
        with pytest.raises(ValueError):
            EngineConfig(mode="theorem", defect=0, budget=0)

    @pytest.mark.parametrize("mode", ["graph-maxcut", "greedy-proper"])
    def test_a_mode_that_never_resamples_refuses_a_budget(self, mode):
        with pytest.raises(ValueError, match=f"^budget does not apply to mode {mode}: it never resamples$"):
            EngineConfig(mode=mode, defect=0, budget=5)
        assert EngineConfig(mode=mode, defect=0).budget is None

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


# adaptive's palettes on 60 small seeded instances at the default budget of
# 64n; the comments give the palettes that moved from those at 1000n (373
# colours in all then, 383 now)
SWEEP_PALETTES = (
    5, 12, 17, 3, 14, 4, 4, 3, 8, 4,  # [2] was 15
    5, 5, 3, 10, 15, 4, 3, 4, 17, 3,  # [10] was 4, [18] was 18
    5, 15, 5, 3, 6, 7, 10, 5, 11, 4,  # [25] was 5, [26] was 9, [28] was 9
    5, 8, 4, 4, 20, 3, 4, 5, 12, 3,  # [34] was 18, [38] was 11
    3, 4, 3, 4, 6, 5, 5, 5, 3, 5,
    13, 5, 5, 5, 6, 5, 5, 5, 3, 6,
)


def test_adaptive_palettes_at_the_default_budget_are_frozen():
    rnd = random.Random(5)
    palettes = []
    for i in range(60):
        n, u = rnd.randint(20, 80), rnd.choice((2, 3, 3, 4))
        max_degree, d = rnd.randint(9, 20), rnd.choice((0, 1, 1, 2))
        hg = random_bounded_degree(n, u, max_degree, n * max_degree // u, seed=i)
        palettes.append(adaptive_colouring(hg, d, i)[0].num_colours)
    assert tuple(palettes) == SWEEP_PALETTES
