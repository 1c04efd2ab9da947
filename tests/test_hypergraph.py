"""Core structure: construction, incidence, links, induced subgraphs, text format."""

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
        assert hg.edges == ((0, 1), (2, 3))  # stored sorted

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


class TestIncidence:
    def setup_method(self):
        self.hg = Hypergraph(5, 3, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])

    def test_incident(self):
        assert self.hg.incident(0) == (0, 1)
        assert self.hg.incident(4) == (2,)

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
        nbr = self.hg.neighbour_sets()
        assert nbr[0] == {1, 2, 3}
        assert nbr[4] == {2, 3}
        assert 0 not in nbr[0]


def test_link_of_complete_4_3_is_triangle():
    hg = complete(4, 3)
    link, old = hg.link(0)
    assert link.u == 2
    assert link.n == 3
    assert link.edges == ((0, 1), (0, 2), (1, 2))
    assert old == [1, 2, 3]


def test_link_rejects_unit_uniformity():
    hg = Hypergraph(2, 1, [(0,), (1,)])
    with pytest.raises(ValueError):
        hg.link(0)


def test_induced_keeps_only_internal_edges():
    hg = Hypergraph(5, 2, [(0, 1), (1, 2), (3, 4)])
    sub, old = hg.induced([1, 2, 3, 4])
    assert old == [1, 2, 3, 4]
    assert sub.n == 4
    assert sub.edges == ((0, 1), (2, 3))


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
    link, old = hg.link(v)
    assert link.m == len(hg.incident(v))
    for new_idx, old_idx in enumerate(old):
        host_pairs = hg.degree([v, old_idx])
        assert len(link.incident(new_idx)) == host_pairs
