"""The array-backed Hypergraph and instance reader against pure-Python references.

Each reference below is a copy of the pure-Python code the array versions
replaced: the per-line parser with its per-edge constructor, the greedy
proper colouring that rescanned every incident edge, and the pair-counting
linearity test.  They share no code with the package, so agreement on
random inputs (valid ones, and ones corrupted on purpose) shows that what
is accepted, what is built and every error message stayed the same.
"""

import re
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcol import Hypergraph, InstanceFormatError, format_instance, greedy_proper, parse_instance
from defcol.hypergraph import _read_array

# -- references ------------------------------------------------------------------


def ref_build(n, u, edges):
    """(edges, incidence, degrees, max degree) as the per-edge constructor built them."""
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    if u < 1:
        raise ValueError(f"uniformity must be >= 1, got {u}")
    canon = []
    for edge in edges:
        e = tuple(sorted(edge))
        if len(e) != u or len(set(e)) != u:
            raise ValueError(f"edge {tuple(edge)!r} does not have exactly {u} distinct vertices")
        if e[0] < 0 or e[-1] >= n:
            raise ValueError(f"edge {e!r} has a vertex outside 0..{n - 1}")
        canon.append(e)
    seen = set()
    for e in canon:
        if e in seen:
            raise ValueError(f"duplicate edge {e!r}")
        seen.add(e)
    incidence = [[] for _ in range(n)]
    for idx, e in enumerate(canon):
        for v in e:
            incidence[v].append(idx)
    degrees = [len(lst) for lst in incidence]
    return tuple(canon), tuple(tuple(lst) for lst in incidence), degrees, max(degrees, default=0)


def ref_parse(text):
    """(n, u, edges) as the per-line parser read them."""
    lines = (
        (lineno, raw.strip())
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if raw.strip() and not raw.strip().startswith("#")
    )
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise InstanceFormatError(1, "missing 'n m u' header") from None
    fields = header.split()
    if len(fields) != 3:
        raise InstanceFormatError(lineno, f"header must be 'n m u', got {header!r}")
    try:
        n, m, u = (int(f) for f in fields)
    except ValueError:
        raise InstanceFormatError(lineno, f"header fields must be integers, got {header!r}") from None
    if n < 0 or m < 0:
        raise InstanceFormatError(lineno, "n and m must be non-negative")
    if u < 2:
        raise InstanceFormatError(lineno, f"uniformity must be >= 2, got {u}")
    edges = []
    for lineno, line in lines:
        if len(edges) == m:
            raise InstanceFormatError(lineno, f"expected exactly {m} edge lines, found more")
        try:
            edge = tuple(int(f) for f in line.split())
        except ValueError:
            raise InstanceFormatError(lineno, f"edge line must contain integers, got {line!r}") from None
        if len(edge) != u:
            raise InstanceFormatError(lineno, f"edge line must list {u} vertices, got {len(edge)}")
        if len(set(edge)) != u:
            raise InstanceFormatError(lineno, f"repeated vertex in edge {edge!r}")
        if min(edge) < 0 or max(edge) >= n:
            raise InstanceFormatError(lineno, f"vertex outside 0..{n - 1} in edge {edge!r}")
        edges.append(edge)
    if len(edges) != m:
        raise InstanceFormatError(lineno if edges else 1, f"expected {m} edge lines, found {len(edges)}")
    try:
        return n, u, ref_build(n, u, edges)[0]
    except ValueError as exc:
        raise InstanceFormatError(1, str(exc)) from None


def ref_greedy(n, edges, incidence):
    out = [0] * n
    for v in range(n):
        forbidden = set()
        for idx in incidence[v]:
            others = [w for w in edges[idx] if w != v]
            if all(w < v for w in others):
                shared = out[others[0]]
                if all(out[w] == shared for w in others[1:]):
                    forbidden.add(shared)
        c = 0
        while c in forbidden:
            c += 1
        out[v] = c
    return tuple(out), (max(out) + 1 if n else 0)


def ref_is_linear(edges):
    pair_count = Counter()
    for e in edges:
        for pair in combinations(e, 2):
            pair_count[pair] += 1
            if pair_count[pair] > 1:
                return False
    return True


def ref_neighbour_sets(n, edges):
    sets = [set() for _ in range(n)]
    for e in edges:
        for v in e:
            sets[v].update(e)
    for v in range(n):
        sets[v].discard(v)
    return tuple(frozenset(s) for s in sets)


def outcome(fn, *args):
    """("ok", result) or (exception type, message, line) for comparing two calls."""
    try:
        return ("ok", fn(*args))
    except ValueError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None))


# -- strategies -------------------------------------------------------------------


@st.composite
def edge_lists(draw, valid=False):
    """(n, u, edges): distinct sorted u-sets in shuffled order, then maybe a fault."""
    u = draw(st.integers(1, 4))
    n = draw(st.integers(0, 12))
    pool = list(combinations(range(n), u))
    edges = [list(e) for e in draw(st.lists(st.sampled_from(pool), unique=True, max_size=14))] if pool else []
    edges = [draw(st.permutations(e)) for e in edges]
    if valid:
        return n, u, edges
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["dup", "repeat", "range", "short", "long", "negative"]))
        where = draw(st.integers(0, len(edges)))
        if fault == "dup" and edges:
            edges.insert(where, list(reversed(edges[draw(st.integers(0, len(edges) - 1))])))
        elif fault == "repeat" and u >= 2:
            edges.insert(where, [0, 0] + list(range(1, u - 1)))
        elif fault == "range":
            edges.insert(where, list(range(n - u + 1, n + 1)))
        elif fault == "short" and u >= 2:
            edges.insert(where, list(range(u - 1)))
        elif fault == "long":
            edges.insert(where, list(range(u + 1)))
        elif fault == "negative":
            edges.insert(where, [-1] + list(range(u - 1)))
    return n, u, edges


def hypergraph_outcome(n, u, edges):
    hg = Hypergraph(n, u, edges)
    assert hg.edge_array().tolist() == [list(e) for e in hg.edges]
    return hg.edges, tuple(hg.incident(v) for v in range(n)), hg.degrees(), hg.max_degree


# -- the constructor ----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_constructor_matches_the_per_edge_loop(case):
    n, u, edges = case
    expected = outcome(ref_build, n, u, edges)
    assert outcome(hypergraph_outcome, n, u, edges) == expected
    assert outcome(hypergraph_outcome, n, u, (tuple(e) for e in edges)) == expected
    if len({len(e) for e in edges}) == 1:  # rectangular: the array input path
        assert outcome(hypergraph_outcome, n, u, np.array(edges, dtype=np.int64)) == expected


@pytest.mark.parametrize("n, u, edges", [
    (0, 2, []),
    (5, 1, [(3,), (0,)]),
    (6, 3, [(5, 1, 0)]),  # isolated vertices 2, 3, 4
    (-1, 2, []),
    (3, 0, []),
    (4, 2, [(0, 1), (2, 2 ** 70)]),  # past int64: the object path
    (5, 10 ** 18, []),  # no edges: nothing may loop over the u columns
    (4, 2, [(0, 1), (1, 0)]),
    (4, 2, [(0, 1), (1, 2, 3)]),
])
def test_constructor_edge_cases(n, u, edges):
    assert outcome(hypergraph_outcome, n, u, edges) == outcome(ref_build, n, u, edges)


def test_non_integer_labels_are_refused():
    with pytest.raises(TypeError):
        Hypergraph(3, 2, [(0.5, 1.5)])


# -- the reader ---------------------------------------------------------------------


@st.composite
def instance_texts(draw):
    """Valid instance text with comments, blanks, CRLF, tabs, '+5', '1_0' and leading zeros."""
    n, u, edges = draw(edge_lists(valid=True).filter(lambda c: c[1] >= 2))

    def token(v):
        form = draw(st.sampled_from(["plain", "plain", "plus", "zeros", "underscore"]))
        if form == "plus":
            return f"+{v}"
        if form == "zeros":
            return f"00{v}"
        if form == "underscore" and v >= 10:
            return f"{str(v)[0]}_{str(v)[1:]}"
        return str(v)

    lines = [" ".join(token(v) for v in (n, len(edges), u))]
    lines += [draw(st.sampled_from([" ", "  ", "\t"])).join(token(v) for v in e) for e in edges]
    out = []
    for line in lines:
        out += draw(st.lists(st.sampled_from(["", "   ", "# comment", "\t# 1 2 3"]), max_size=1))
        out.append(draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " "])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(out) + draw(st.sampled_from(["", "\n"]))


def parsed(text):
    hg = parse_instance(text)
    return hg.n, hg.u, hg.edges


@settings(max_examples=300, deadline=None)
@given(instance_texts())
def test_reader_matches_the_line_parser_on_valid_text(text):
    assert outcome(parsed, text) == outcome(ref_parse, text)


@settings(max_examples=100, deadline=None)
@given(edge_lists(valid=True).filter(lambda c: c[1] >= 2))
def test_plain_text_takes_the_vectorised_pass(case):
    n, u, edges = case
    text = format_instance(Hypergraph(n, u, edges))
    read = _read_array(text)
    assert read is not None
    assert (read[0], read[1], read[2].tolist()) == (n, u, [sorted(e) for e in edges])
    assert parsed(text) == ref_parse(text)


CORRUPTIONS = [
    "x", "1.5", "-1", "1e3", "0x1", "+", "-", "--1", "+-1", "1+", "2-1", "1_", "_1", "1__0",
    "\u0663", "\uff11", "1#", "#", "\x0c", "\x0b", "\u2028", "\x85", "",
]
# A vertex past int64.  Only edge lines get it: as the header's n it would
# make the reference build 10**20 incidence lists.
HUGE = "99999999999999999999"


@st.composite
def corrupted_texts(draw):
    text = draw(instance_texts())
    kind = draw(st.sampled_from(["replace", "insert", "drop-line", "dup-line", "truncate", "huge"]))
    if kind == "replace" or kind == "insert":
        tokens = text.split(" ")
        i = draw(st.integers(0, len(tokens) - 1))
        bad = draw(st.sampled_from(CORRUPTIONS))
        tokens[i] = bad if kind == "replace" else tokens[i] + " " + bad
        return " ".join(tokens)
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "huge":
        significant = [j for j, line in enumerate(lines) if line.strip() and line.strip()[0] != "#"]
        if len(significant) > 1:
            j = draw(st.sampled_from(significant[1:]))
            lines[j] = re.sub(r"[0-9+_]+", HUGE, lines[j], count=1)
        return "\n".join(lines)
    if kind == "drop-line":
        return "\n".join(lines[:i] + lines[i + 1:])
    if kind == "dup-line":
        return "\n".join(lines[:i + 1] + lines[i:])
    return text[: draw(st.integers(0, len(text)))]


@settings(max_examples=400, deadline=None)
@given(corrupted_texts())
def test_reader_matches_the_line_parser_on_corrupted_text(text):
    assert outcome(parsed, text) == outcome(ref_parse, text)


@pytest.mark.parametrize("text", [
    "", "   \n", "# only a comment\n", "3 1\n0 1\n", "3 0 2\n", "3 1 2\n0 1\n0 2\n", "3 2 2\n0 1\n",
    "3 1 1\n0\n", "-3 1 2\n0 1\n", "3 1 2\n0 0\n", "3 1 2\n0 3\n", "3 2 2\n0 1\n1 0\n",
    "3 1 2\r0 1\r", "3 1 2\n0\x0c1\n", "3 1 2\n0 1 2\n", " 3 1 2 \n\n\t0\t1\t\n",
    "5 0 999999999999999999\n",
])
def test_reader_edge_cases(text):
    assert outcome(parsed, text) == outcome(ref_parse, text)


@pytest.mark.parametrize("text", [f"{HUGE} 0 2\n", f"0 0 {HUGE}\n"])
def test_reader_refuses_sizes_an_array_cannot_hold(text):
    # the line parser accepted an empty hypergraph of uniformity 10**20 and
    # tried to build 10**20 incidence lists for n = 10**20
    with pytest.raises(InstanceFormatError, match="must be below 2\\*\\*60"):
        parse_instance(text)


# -- consumers of the array ------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(edge_lists(valid=True))
def test_greedy_linearity_and_neighbours_match_the_loops(case):
    n, u, edges = case
    hg = Hypergraph(n, u, edges)
    canon, incidence, _, _ = ref_build(n, u, edges)
    if u >= 2 or not edges:
        colouring = greedy_proper(hg)
        assert (colouring.colours, colouring.num_colours) == ref_greedy(n, canon, incidence)
    assert hg.is_linear() == ref_is_linear(canon)
    assert hg.neighbour_sets() == ref_neighbour_sets(n, canon)


@settings(max_examples=150, deadline=None)
@given(edge_lists(valid=True), st.data())
def test_induced_and_link_match_relabelling_by_hand(case, data):
    n, u, edges = case
    hg = Hypergraph(n, u, edges)
    keep = sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)))
    sub, old = hg.induced(keep)
    new_of_old = {w: i for i, w in enumerate(keep)}
    assert old == keep
    assert sub.edges == tuple(tuple(new_of_old[w] for w in e) for e in hg.edges if set(e) <= set(keep))
    if n and u >= 2:
        v = data.draw(st.integers(0, n - 1))
        link, old = hg.link(v)
        assert old == [w for w in range(n) if w != v]
        assert link.edges == tuple(
            tuple(w - (w > v) for w in e if w != v) for e in hg.edges if v in e
        )
