"""Core structure: construction, degrees, links, induced subgraphs, text format."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcol import (
    Hypergraph,
    InstanceFormatError,
    as_vertex_set,
    complete,
    format_instance,
    parse_instance,
)


def test_as_vertex_set_sorts_and_dedups_nothing():
    assert as_vertex_set([3, 1, 2]) == (1, 2, 3)


class TestConstruction:
    def test_basic(self):
        hg = Hypergraph(4, 2, [(1, 0), (2, 3)])
        assert hg.n == 4
        assert hg.u == 2
        assert hg.m == 2
        assert hg.edge_array().tolist() == [[0, 1], [2, 3]]  # stored sorted

    def test_empty(self):
        hg = Hypergraph(0, 2, [])
        assert hg.m == 0
        assert hg.max_degree == 0

    def test_negative_n(self):
        with pytest.raises(ValueError):
            Hypergraph(-1, 2, [])

    def test_uniformity_zero(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 0, [])

    def test_wrong_edge_size(self):
        with pytest.raises(ValueError):
            Hypergraph(4, 3, [(0, 1)])

    def test_repeated_vertex_in_edge(self):
        with pytest.raises(ValueError):
            Hypergraph(4, 2, [(1, 1)])

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 2, [(0, 3)])

    def test_edge_array_is_built_once_and_read_only(self):
        hg = Hypergraph(4, 3, [(2, 0, 1), (1, 2, 3)])
        arr = hg.edge_array()
        assert arr is hg.edge_array()
        assert arr.tolist() == [[0, 1, 2], [1, 2, 3]]
        with pytest.raises(ValueError):
            arr[0, 0] = 3
        assert Hypergraph(5, 3, []).edge_array().shape == (0, 3)

    def test_duplicate_edge(self):
        with pytest.raises(ValueError):
            Hypergraph(4, 2, [(0, 1), (1, 0)])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Hypergraph(2, 2, [(0, 1)]))

    def test_equality_ignores_edge_order(self):
        a = Hypergraph(4, 2, [(0, 1), (2, 3)])
        b = Hypergraph(4, 2, [(2, 3), (0, 1)])
        assert a == b
        assert a != Hypergraph(4, 2, [(0, 1)])

    def test_equality_with_another_type_is_false(self):
        assert (Hypergraph(3, 3, []) == 5) is False

    def test_repr(self):
        assert repr(Hypergraph(4, 2, [(0, 1), (2, 3)])) == "Hypergraph(n=4, u=2, m=2)"


class TestIncidence:
    def setup_method(self):
        self.hg = Hypergraph(5, 3, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])

    def test_degrees(self):
        assert self.hg.degrees() == [2, 2, 2, 2, 1]
        assert self.hg.max_degree == 2

    def test_set_degree_empty_is_m(self):
        assert self.hg.degree([]) == 3

    def test_set_degree_singleton(self):
        assert self.hg.degree([0]) == 2

    def test_set_degree_pair(self):
        assert self.hg.degree([0, 1]) == 2
        assert self.hg.degree([0, 4]) == 0

    def test_neighbour_sets(self):
        starts, neighbours = self.hg.neighbour_sets()
        assert starts.dtype == neighbours.dtype == np.int64
        assert len(starts) == self.hg.n + 1
        assert neighbours[starts[0]:starts[1]].tolist() == [1, 2, 3]
        assert neighbours[starts[4]:starts[5]].tolist() == [2, 3]
        assert self.hg.neighbour_sets() is self.hg.neighbour_sets()


def test_link_of_complete_4_3_is_triangle():
    hg = complete(4, 3)
    link = hg.link(0)
    assert link.u == 2
    assert link.n == 4
    assert link.edge_array().tolist() == [[1, 2], [1, 3], [2, 3]]
    assert link.degree([0]) == 0


@pytest.mark.parametrize("n, v", [(1, 0), (2, 0), (2, 1), (9, 0), (9, 4), (9, 8)])
def test_link_keeps_the_host_labels(n, v):
    hg = Hypergraph(n, 2, [(v, w) if v < w else (w, v) for w in range(n) if w != v])
    link = hg.link(v)
    assert link.n == n
    assert link.edge_array().tolist() == [[w] for w in range(n) if w != v]


def test_link_allocates_nothing_per_vertex_in_python():
    # the bound leaves room for the link's degree count, its one n-long array
    # at 8 bytes per vertex, and none for a Python list of n labels
    n = 2**20
    hg = Hypergraph(n, 3, [(0, 1, 2), (1, 5, n - 1), (2, 3, 4)])
    tracemalloc.start()
    try:
        hg.link(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 16


def test_link_rejects_unit_uniformity():
    hg = Hypergraph(2, 1, [(0,), (1,)])
    with pytest.raises(ValueError):
        hg.link(0)


def test_induced_keeps_only_internal_edges():
    hg = Hypergraph(5, 2, [(0, 1), (1, 2), (3, 4)])
    sub, old = hg.induced([1, 2, 3, 4])
    assert old == [1, 2, 3, 4]
    assert sub.n == 4
    assert sub.edge_array().tolist() == [[0, 1], [2, 3]]


def test_induced_empty():
    hg = Hypergraph(3, 2, [(0, 1)])
    sub, old = hg.induced([])
    assert (sub.n, sub.m, old) == (0, 0, [])


def test_is_linear():
    assert Hypergraph(5, 2, [(0, 1), (1, 2)]).is_linear()
    assert not complete(4, 3).is_linear()
    assert Hypergraph(6, 3, [(0, 1, 2), (2, 3, 4)]).is_linear()
    assert not Hypergraph(6, 3, [(0, 1, 2), (1, 2, 3)]).is_linear()


class TestTextFormat:
    def test_round_trip(self):
        hg = Hypergraph(5, 3, [(0, 1, 2), (2, 3, 4)])
        assert parse_instance(format_instance(hg)) == hg

    def test_exact_rendering(self):
        hg = Hypergraph(3, 2, [(2, 0)])
        assert format_instance(hg) == "3 1 2\n0 2\n"

    def test_comment_lines_and_blanks_ignored(self):
        text = "# a comment\n\n3 1 2\n\n# another\n0 1\n"
        assert parse_instance(text) == Hypergraph(3, 2, [(0, 1)])

    def test_empty_input(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("")

    def test_bad_header_reports_line(self):
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance("# c\n3 1\n0 1\n")
        assert exc.value.line == 2

    def test_unit_uniformity_rejected_in_text(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("3 1 1\n0\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("3 2 2\n0 1\n")

    def test_garbage_edge_line(self):
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance("3 1 2\n0 x\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("text,message", [
        ("# note\n\n4 3 3\n0 1 2\n1 2 3\n2 1 0\n", "line 6: duplicate edge (0, 1, 2)"),  # the repeat's line
        ("# note\n3 2 3\n", "line 2: expected 2 edge lines, found 0"),  # the header's line
    ])
    def test_fault_reports_its_own_line(self, text, message):
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(text)
        assert str(exc.value) == message

    def test_misplaced_line_break_goes_to_the_line_parser(self):
        """The value count fits two edges of two, but the first line holds three."""
        with pytest.raises(InstanceFormatError, match="^line 2: edge line must list 2 vertices, got 3$"):
            parse_instance("4 2 2\n0 1 2\n3\n")

    def test_unit_uniformity_is_not_written(self):
        with pytest.raises(ValueError, match="uniformity >= 2"):
            format_instance(Hypergraph(3, 1, [(0,)]))


@st.composite
def small_hypergraphs(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    u = draw(st.integers(min_value=2, max_value=3))
    from itertools import combinations

    pool = list(combinations(range(n), u))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return Hypergraph(n, u, edges)


@settings(max_examples=60, deadline=None)
@given(small_hypergraphs())
def test_format_round_trip_property(hg):
    assert parse_instance(format_instance(hg)) == hg


@settings(max_examples=60, deadline=None)
@given(small_hypergraphs())
def test_degree_sum_is_m_times_u(hg):
    assert sum(hg.degrees()) == hg.m * hg.u


@settings(max_examples=40, deadline=None)
@given(small_hypergraphs(), st.integers(min_value=0, max_value=7))
def test_link_degrees_match_host(hg, v):
    if v >= hg.n or hg.u < 2:
        return
    link = hg.link(v)
    assert link.n == hg.n
    assert link.m == hg.degree([v])
    assert link.degree([v]) == 0
    for w in range(hg.n):
        if w != v:
            assert link.degree([w]) == hg.degree([v, w])
