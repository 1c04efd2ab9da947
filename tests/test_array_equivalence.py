"""The array-backed Hypergraph and instance reader against pure-Python references.

Each reference below is a copy of the pure-Python code the array versions
replaced: the per-line parser with its per-edge constructor, the greedy
proper colouring that rescanned every incident edge, the pair-counting
linearity test, the max cut search and pair objective that walked the
incidence lists, the exact oracle's edge-by-edge grouping, the resample
loop that redrew one support per classification, the sunflower
decomposition that searched a freshly built Hypergraph of the remaining
edges for every extraction, the instance writer that joined each row on
its own, and (in ``helpers``) the rejection sampler that called
``random.sample`` once per candidate edge, the set degree, equality,
bad-vertex probe and per-vertex mono degree that walked the edge tuples
and incidence lists, and the grid built point by point with its witness
that regrouped survivors by axis line in dicts.  They share no code with
the package (the resample loop only its ``violated`` and ``support``
callables, the decomposition only ``find_sunflower`` on a fresh
Hypergraph, the grid references only ``coords_to_index``,
``index_to_coords`` and ``mono_counts``), so agreement on random
inputs (valid ones, and ones corrupted on purpose) shows that what is
accepted, what is built, every error message, every seeded resample,
every extracted sunflower and every generated instance stayed the same.
"""

import random
import re
from collections import Counter
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import (
    edge_tuples,
    incident,
    mono_degree,
    neighbour_lists,
    ref_co_members,
    ref_degree,
    ref_equal,
    ref_grid,
    ref_grid_defect_witness,
    ref_neighbour_sets,
    ref_probe_bad_vertex,
    reference_rejection_sample,
    within_part_incident_count,
)

from defcol import (
    MODES,
    Colouring,
    EngineConfig,
    Hypergraph,
    InstanceFormatError,
    bad_vertex_ceiling,
    complete,
    decompose,
    exact_defective_chromatic,
    find_defective_colouring,
    find_sunflower,
    format_instance,
    greedy_proper,
    grid,
    grid_defect_witness,
    guarantee_bound,
    max_cut_search,
    pair_objective,
    parse_instance,
    probe_bad_vertex,
    probe_mono_edge,
    random_bounded_degree,
    random_linear,
    run_engine,
    verify,
    within_part_incident_counts,
)
from defcol import engine, generators
from defcol.engine import _classifier, _closed_neighbourhood, _resample, closed_second_neighbourhood
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
    header_line = lineno
    edges, seen = [], set()
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
        e = tuple(sorted(edge))
        if e in seen:
            raise InstanceFormatError(lineno, f"duplicate edge {e!r}")
        seen.add(e)
        edges.append(edge)
    if len(edges) != m:
        raise InstanceFormatError(lineno, f"expected {m} edge lines, found {len(edges)}")
    try:
        return n, u, ref_build(n, u, edges)[0]
    except ValueError as exc:
        raise InstanceFormatError(header_line, str(exc)) from None


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


def ref_pair_objective(edges, parts):
    total = 0
    for e in edges:
        counts = Counter(parts[v] for v in e)
        total += sum(c * (c - 1) // 2 for c in counts.values())
    return total


def ref_least_loaded_part(tally, num_parts):
    if len(tally) < num_parts:
        occupied = set(tally)
        for i in range(num_parts):
            if i not in occupied:
                return i
    return min(range(num_parts), key=lambda i: (tally[i], i))


def ref_max_cut_search(n, edges, incidence, num_parts, seed):
    """(parts, moves, initial objective, final objective) of the search over the incidence lists."""
    rng = random.Random(seed)
    parts = [rng.randrange(num_parts) for _ in range(n)]
    initial = ref_pair_objective(edges, parts)
    moves = 0
    improved = True
    while improved:
        improved = False
        for x in range(n):
            tally = Counter()
            for idx in incidence[x]:
                for y in edges[idx]:
                    if y != x:
                        tally[parts[y]] += 1
            current = tally[parts[x]]
            if current == 0:
                continue
            target = ref_least_loaded_part(tally, num_parts)
            if tally[target] < current:
                parts[x] = target
                moves += 1
                improved = True
    return tuple(parts), moves, initial, ref_pair_objective(edges, parts)


def ref_oracle(n, edges, d, k):
    """The colours the backtracking oracle finds over its edge-by-edge grouping, or None."""
    edges_by_last = [[] for _ in range(n)]
    for e in edges:
        edges_by_last[e[-1]].append(e)
    colours = [-1] * n
    mono = [0] * n

    def completes_ok(v, c):
        newly = [e for e in edges_by_last[v] if all(colours[w] == c for w in e[:-1])]
        for e in newly:
            for w in e:
                mono[w] += 1
        if any(mono[w] > d for e in newly for w in e):
            for e in newly:
                for w in e:
                    mono[w] -= 1
            return None
        return newly

    def search(v, used):
        if v == n:
            return True
        for c in range(min(k, used + 1)):
            colours[v] = c
            newly = completes_ok(v, c)
            if newly is not None:
                if search(v + 1, max(used, c + 1)):
                    return True
                for e in newly:
                    for w in e:
                        mono[w] -= 1
            colours[v] = -1
        return False

    return tuple(colours) if search(0, 0) else None


def outcome(fn, *args):
    """("ok", result) or (exception type, message, line) for comparing two calls."""
    try:
        return ("ok", fn(*args))
    except ValueError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None))


def ref_resample(n, k, seed, budget, violated, support):
    """The Moser-Tardos loop that redrew one support per ``violated`` call."""
    rng = np.random.default_rng(seed)
    colours = rng.integers(0, k, size=n, dtype=np.int64)
    supports = {}
    resamples = 0
    while True:
        flagged = violated(colours[None])[0]
        if not flagged.any():
            return colours, resamples, True
        if resamples >= budget or k == 1:
            return colours, resamples, False
        target = int(np.argmax(flagged))
        if target not in supports:
            supports[target] = np.asarray(support(target), dtype=np.int64)
        colours[supports[target]] = rng.integers(0, k, size=supports[target].shape[0])
        resamples += 1


def ref_decompose(hg, a):
    """(sunflowers, leftover) of the loop that built and validated a Hypergraph per extraction."""
    remaining = hg.edge_array()
    flowers = []
    while len(remaining):
        found = find_sunflower(Hypergraph(hg.n, hg.u, remaining), a)
        if found is None:
            break
        extracted = np.array(found.edges())
        remaining = remaining[~(remaining[:, None, :] == extracted).all(axis=2).any(axis=1)]
        flowers.append(found)
    return tuple(flowers), tuple(map(tuple, remaining.tolist()))


# -- strategies -------------------------------------------------------------------


@st.composite
def edge_lists(draw, valid=False, max_n=12, max_m=14):
    """(n, u, edges): distinct sorted u-sets in shuffled order, then maybe a fault."""
    u = draw(st.integers(1, 4))
    n = draw(st.integers(0, max_n))
    pool = list(combinations(range(n), u))
    edges = [list(e) for e in draw(st.lists(st.sampled_from(pool), unique=True, max_size=max_m))] if pool else []
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
    return edge_tuples(hg), tuple(incident(hg, v) for v in range(n)), hg.degrees(), hg.max_degree


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
        # rows given in increasing order are copied where shuffled ones are sorted:
        # the same first fault, and the same hypergraph when every row has that order
        in_order = [sorted(e) for e in edges]
        dtype = np.uint32 if all(v >= 0 for e in edges for v in e) else np.int16
        found = outcome(hypergraph_outcome, n, u, np.array(in_order, dtype=dtype))
        assert found == outcome(ref_build, n, u, in_order)
        if all(len(set(e)) == u for e in edges):
            assert found == expected


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


@pytest.mark.parametrize("given", [
    lambda rows: rows.astype(np.int64),
    lambda rows: rows.astype(np.uint16),
    lambda rows: rows[:, ::-1].astype(np.int64),  # each row decreasing: the sorted path
    lambda rows: np.repeat(rows, 2, axis=1)[:, ::2],  # a non-contiguous view
    lambda rows: np.asfortranarray(rows),
], ids=["int64", "uint16", "reversed", "strided-view", "fortran"])
def test_the_hypergraph_keeps_no_view_of_the_callers_array(given):
    rows = random_bounded_degree(40, 3, 6, 60, seed=1).edge_array()
    edges = given(rows)
    hg = Hypergraph(40, 3, edges)
    edges[:] = 0
    assert np.array_equal(hg.edge_array(), rows)
    assert hg.edge_array().dtype == np.int64 and not hg.edge_array().flags.writeable


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
    return hg.n, hg.u, edge_tuples(hg)


@settings(max_examples=300, deadline=None)
@given(instance_texts())
# numpy 2 raises on this text: the separators must be checked before numpy reads it
@example(text="\t# 1 2 3\n0 0 2\n")
def test_reader_matches_the_line_parser_on_valid_text(text):
    assert outcome(parsed, text) == outcome(ref_parse, text)


def as_case(hg):
    return hg.n, hg.u, hg.edge_array().tolist()


@settings(max_examples=100, deadline=None)
@given(edge_lists(valid=True).filter(lambda c: c[1] >= 2))
# benchmark-shaped text, where falling back on the line parser would cost the most
@example(case=as_case(random_bounded_degree(2000, 3, 30, 19_000, seed=1)))
@example(case=as_case(random_bounded_degree(5000, 2, 40, 40_000, seed=1)))
@example(case=as_case(random_linear(4000, 4, 12, 10_000, seed=1)))
def test_plain_text_takes_the_vectorised_pass(case):
    n, u, edges = case
    hg = Hypergraph(n, u, edges)
    text = format_instance(hg)
    read = _read_array(text)
    assert read is not None
    assert (read[0], read[1], read[2].tolist()) == (n, u, [sorted(e) for e in edges])
    assert np.array_equal(read[2], hg.edge_array())
    assert parsed(text) == ref_parse(text)


def at_a_line(change):
    """A variant that applies ``change`` to one drawn line of the text."""

    def variant(text, draw):
        lines = text.split("\n")  # the last is the empty tail after the final newline
        i = draw(st.integers(0, len(lines) - 2))
        lines[i] = change(lines[i])
        return "\n".join(lines)

    return variant


# Text the line parser reads as it reads the written text, but that is not
# byte for byte what format_instance writes
WRITTEN_VARIANTS = {
    "tab": at_a_line(lambda line: line.replace(" ", "\t", 1)),
    "doubled space": at_a_line(lambda line: line.replace(" ", "  ", 1)),
    "leading space": at_a_line(lambda line: " " + line),
    "leading zero": at_a_line(lambda line: "0" + line),
    "comment line": at_a_line(lambda line: "# 1 2 3\n" + line),
    "blank line": at_a_line(lambda line: "\n" + line),
    "crlf": lambda text, draw: text.replace("\n", "\r\n"),
    "no final newline": lambda text, draw: text[:-1],
}


@settings(max_examples=200, deadline=None)
@given(edge_lists(valid=True).filter(lambda c: c[1] >= 2), st.sampled_from(sorted(WRITTEN_VARIANTS)), st.data())
def test_only_the_written_bytes_take_the_vectorised_pass(case, variant, data):
    n, u, edges = case
    text = format_instance(Hypergraph(n, u, edges))
    assert _read_array(text) is not None
    changed = WRITTEN_VARIANTS[variant](text, data.draw)
    assert _read_array(changed) is None
    assert outcome(parsed, changed) == outcome(ref_parse, changed) == ("ok", parsed(text))


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
    "5 0 999999999999999999\n", "3 1 2\n1 +\n", "3 1 2\n1 -",
    # numpy saturates a token past int64 at 2**63-1; if it wrapped, the vertex would read as 1
    "3 1 2\n0 18446744073709551617\n", "3 18446744073709551617 2\n0 1\n",
    "3 1 2\n0 1", "3 0 2", "3 1 2\n0 1\n\n", "3 2 2\n0 1\n\n1 2\n", "3 2 2\n0 1\n \t \n1 2\n",
    "3 2 2\n0\t1\n1\t2\n", "3 1 2\r\n0 1\r\n", "3 2 2\n0 1 1 2\n",
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


# Edges on the top vertices where the pair codes change width: with n = 2**16 the
# codes a*n + b reach 2**32 - 2 and are uint32, with one vertex more they are int64
TOP_OF_UINT32 = (65536, 3, [[65535, 65533, 65534], [0, 65535, 65534], [65535, 1, 0]])
PAST_UINT32 = (65537, 3, [[65536, 65534, 65535], [0, 65536, 65535], [65536, 1, 0]])


@settings(max_examples=200, deadline=None)
@given(edge_lists(valid=True))
@example(case=TOP_OF_UINT32)
@example(case=PAST_UINT32)
def test_greedy_linearity_and_neighbours_match_the_loops(case):
    n, u, edges = case
    hg = Hypergraph(n, u, edges)
    canon, incidence, _, _ = ref_build(n, u, edges)
    if u >= 2 or not edges:
        colouring = greedy_proper(hg)
        assert (colouring.colours, colouring.num_colours) == ref_greedy(n, canon, incidence)
    assert hg.is_linear() == ref_is_linear(canon)
    assert neighbour_lists(hg) == tuple(tuple(sorted(s)) for s in ref_neighbour_sets(n, canon))


@settings(max_examples=200, deadline=None)
@given(edge_lists(valid=True, max_n=20, max_m=30))
@example(case=(0, 2, []))
@example(case=(7, 2, []))
@example(case=(9, 3, [[0, 1, 2], [2, 3, 4], [1, 5, 6]]))  # 7 and 8 are isolated
@example(case=(12, 2, [[i, i + 1] for i in range(11)]))
@example(case=(12, 3, [[i, i + 1, i + 2] for i in range(10)]))
@example(case=(4, 1, [[0], [2]]))
def test_blocked_greedy_matches_the_per_edge_loop(case):
    # blocks of 1, 2, 3 and 7 vertices put edges both across blocks (marked in
    # the table) and inside one (walked in Python), on the same instance
    n, u, edges = case
    hg = Hypergraph(n, u, edges)
    canon, incidence, _, _ = ref_build(n, u, edges)
    for block in (1, 2, 3, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_GREEDY_BLOCK", block)
            if u == 1 and edges:
                with pytest.raises(ValueError, match="singleton edges are monochromatic"):
                    greedy_proper(hg)
                continue
            colouring = greedy_proper(hg)
        assert (colouring.colours, colouring.num_colours) == ref_greedy(n, canon, incidence)


@settings(max_examples=300, deadline=None)
@given(edge_lists(valid=True))
@example(case=(0, 3, []))
@example(case=(5, 3, []))  # m = 0 on some vertices
@example(case=(9, 3, [[0, 1, 2], [2, 3, 4], [1, 5, 6]]))  # 7 and 8 are isolated
@example(case=(4, 1, [[2], [0]]))
def test_incidence_matches_the_edge_walk(case):
    """Each vertex's run of ``incidence()`` lists the rows through it in increasing order."""
    n, u, edges = case
    hg = Hypergraph(n, u, edges)
    starts, ids = hg.incidence()
    assert starts.tolist()[:1] == [0] and len(starts) == n + 1
    assert tuple(tuple(ids[starts[v] : starts[v + 1]].tolist()) for v in range(n)) == tuple(
        incident(hg, v) for v in range(n)
    )
    assert len(ids) == starts[-1] == hg.m * u
    assert not (starts.flags.writeable or ids.flags.writeable)
    again = hg.incidence()
    assert again[0] is starts and again[1] is ids


@settings(max_examples=300, deadline=None)
@given(edge_lists(valid=True))
@example(case=(0, 3, []))
@example(case=(9, 3, [[0, 1, 2], [2, 3, 4], [1, 5, 6]]))  # 7 and 8 are isolated
@example(case=(4, 1, [[0], [2]]))
# stars through vertex 0 and an isolated last vertex: both ends of the vertex mask
@example(case=(6, 2, [[0, 1], [0, 2], [0, 3], [0, 4]]))
@example(case=(8, 3, [[0, 1, 2], [0, 3, 4], [0, 5, 6]]))
def test_neighbour_index_and_supports_match_the_edge_walk(case):
    n, u, edges = case
    hg = Hypergraph(n, u, edges)
    canon = edge_tuples(hg)
    assert neighbour_lists(hg) == tuple(tuple(sorted(s)) for s in ref_neighbour_sets(n, canon))
    assert hg.is_linear() == ref_is_linear(canon)
    for v in range(n):
        first = {w for e in canon if v in e for w in e} | {v}
        second = {w for e in canon if first.intersection(e) for w in e} | first
        assert _closed_neighbourhood(hg, v).tolist() == sorted(first)
        assert closed_second_neighbourhood(hg, v) == tuple(sorted(second))


@settings(max_examples=150, deadline=None)
@given(edge_lists(valid=True), st.data())
def test_induced_and_link_match_relabelling_by_hand(case, data):
    n, u, edges = case
    hg = Hypergraph(n, u, edges)
    keep = sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)))
    sub, old = hg.induced(keep)
    new_of_old = {w: i for i, w in enumerate(keep)}
    assert old == keep
    edges = edge_tuples(hg)
    assert edge_tuples(sub) == tuple(tuple(new_of_old[w] for w in e) for e in edges if set(e) <= set(keep))
    if n and u >= 2:
        v = data.draw(st.integers(0, n - 1))
        link = hg.link(v)
        assert link.n == n
        assert edge_tuples(link) == tuple(tuple(w for w in e if w != v) for e in edges if v in e)


@st.composite
def shared_pair_edge_lists(draw):
    """Valid (n, u, edges), and for u=3 often one more edge through two vertices of the first."""
    n, u, edges = draw(edge_lists(valid=True))
    if u == 3 and n > 3 and edges and draw(st.booleans()):
        a, b = draw(st.permutations(edges[0]))[:2]
        c = draw(st.sampled_from([w for w in range(n) if w not in edges[0]]))
        if sorted((a, b, c)) not in map(sorted, edges):
            edges.insert(draw(st.integers(0, len(edges))), [a, b, c])
    return n, u, edges


@settings(max_examples=300, deadline=None)
@given(
    shared_pair_edge_lists(),
    st.integers(1, 6) | st.none() | st.sampled_from([2**40, 2**70]),
    st.integers(1, 8),
    st.integers(0, 2**32),
)
@example(case=TOP_OF_UINT32, parts=2, past_widest=1, seed=0)
@example(case=PAST_UINT32, parts=2, past_widest=1, seed=0)
@example(case=TOP_OF_UINT32, parts=None, past_widest=1, seed=1)
@example(case=PAST_UINT32, parts=None, past_widest=1, seed=1)
def test_max_cut_search_matches_the_incidence_walk(case, parts, past_widest, seed):
    n, u, edges = case
    hg = Hypergraph(n, u, edges)
    # None stands for more parts than any vertex's co-members can fill
    num_parts = parts or (u - 1) * hg.max_degree + 1 + past_widest
    canon, incidence, _, _ = ref_build(n, u, edges)
    run = max_cut_search(hg, num_parts, seed)
    found = (run.partition.colours, run.moves, run.initial_objective, run.final_objective)
    assert found == ref_max_cut_search(n, canon, incidence, num_parts, seed)


@st.composite
def labelled_edge_lists(draw):
    """Valid (n, u, edges), a part count, and per vertex a label at 0, P-1 or either side of P//2."""
    n, u, edges = draw(shared_pair_edge_lists())
    num_parts = draw(st.sampled_from([1, 2, 3, 6, 2**64, 2**70]))  # past int64 too
    pool = [p for p in (0, num_parts // 2, num_parts // 2 + 1, num_parts - 1) if p < num_parts]
    return n, u, edges, num_parts, tuple(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))


# Labels on both sides of 2**63, which float64 reads as one value: no edge is within a part
FLOAT64_WINDOW = (3, 2, [[1, 2]], 2**64, (0, 2**63, 2**63 + 1))


@settings(max_examples=200, deadline=None)
@given(labelled_edge_lists())
@example(case=FLOAT64_WINDOW)
def test_pair_objective_matches_the_edge_walk(case):
    n, u, edges, num_parts, parts = case
    hg = Hypergraph(n, u, edges)
    assert pair_objective(hg, Colouring(parts, num_parts)) == ref_pair_objective(edge_tuples(hg), parts)


@settings(max_examples=200, deadline=None)
@given(labelled_edge_lists())
@example(case=FLOAT64_WINDOW)
def test_within_part_incident_counts_match_the_per_vertex_checker(case):
    n, u, edges, num_parts, parts = case
    hg = Hypergraph(n, u, edges)
    partition = Colouring(parts, num_parts)
    counts = within_part_incident_counts(hg, partition)
    assert counts.tolist() == [within_part_incident_count(hg, partition, x) for x in range(n)]


def test_co_members_count_each_shared_edge():
    hg = Hypergraph(5, 3, [(0, 1, 2), (0, 1, 3), (3, 4, 0)])
    co_members = ((1, 1, 2, 3, 3, 4), (0, 0, 2, 3), (0, 1), (0, 0, 1, 4), (0, 3))
    assert ref_co_members(hg.n, edge_tuples(hg)) == co_members
    # the index keeps each co-member once, however many edges it shares
    assert hg.neighbour_sets()[0].tolist() == [0, 4, 7, 9, 12, 14]
    assert neighbour_lists(hg) == tuple(tuple(sorted(set(c))) for c in co_members)


@settings(max_examples=200, deadline=None)
@given(shared_pair_edge_lists().filter(lambda c: c[0] <= 9), st.integers(0, 2), st.integers(1, 4))
def test_oracle_matches_the_edge_by_edge_grouping(case, d, k):
    n, u, edges = case
    hg = Hypergraph(n, u, edges)
    found = find_defective_colouring(hg, d, k)
    assert (None if found is None else found.colours) == ref_oracle(n, edge_tuples(hg), d, k)


@st.composite
def dense_edge_lists(draw):
    """(n, u, edges): at least half of all u-sets of at most 9 vertices, in shuffled or index order.

    Few vertices hold few disjoint edges, so the searches pivot on a busy
    vertex and recurse into its link, often twice.
    """
    u = draw(st.integers(2, 4))
    n = draw(st.integers(u, 9 if u == 3 else 7))
    pool = list(combinations(range(n), u))
    if draw(st.booleans()):
        pool = draw(st.permutations(pool))
    return n, u, [list(e) for e in pool[: draw(st.integers(len(pool) // 2, len(pool)))]]


@settings(max_examples=250, deadline=None)
@given(st.one_of(edge_lists(valid=True), shared_pair_edge_lists(), dense_edge_lists()), st.integers(1, 4))
def test_decompose_matches_a_fresh_search_per_extraction(case, a):
    n, u, edges = case
    hg = Hypergraph(n, u, edges)
    result = decompose(hg, a)
    assert (result.sunflowers, result.leftover) == ref_decompose(hg, a)


@pytest.mark.parametrize("n", range(3, 10))
def test_decompose_of_complete_3_uniform_matches_a_fresh_search(n):
    hg = complete(n, 3)  # n < 9 has no three disjoint edges, n < 7 none in a link either
    for a in range(1, 5):
        result = decompose(hg, a)
        assert (result.sunflowers, result.leftover) == ref_decompose(hg, a)


def assert_same_build(trusted):
    """``trusted`` equals the hypergraph the validating constructor builds on its rows."""
    twin = Hypergraph(trusted.n, trusted.u, np.array(trusted.edge_array()))
    assert (trusted.n, trusted.u) == (twin.n, twin.u)
    assert trusted.edge_array().dtype == twin.edge_array().dtype == np.int64
    assert trusted.edge_array().shape == twin.edge_array().shape
    assert trusted.edge_array().tolist() == twin.edge_array().tolist()
    assert trusted.degrees() == twin.degrees()
    assert trusted.max_degree == twin.max_degree
    assert not trusted.edge_array().flags.writeable and not twin.edge_array().flags.writeable


def check_trusted_links_and_induced(hg, keep, v):
    assert_same_build(hg.induced(keep)[0])
    if v is not None:
        assert_same_build(hg.link(v))


@settings(max_examples=150, deadline=None)
@given(edge_lists(valid=True), st.data())
def test_links_and_induced_match_the_validating_constructor(case, data):
    n, u, edges = case
    hg = Hypergraph(n, u, edges)
    keep = data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
    v = data.draw(st.integers(0, n - 1)) if n and u >= 2 else None
    check_trusted_links_and_induced(hg, keep, v)


@pytest.mark.parametrize("n, u, edges, keep, v", [
    (4, 2, [], [0, 2], 1),  # no edges
    (5, 2, [(0, 1), (1, 4), (2, 3)], [1, 4], 1),  # a 2-uniform link is 1-uniform
    (5, 3, [(0, 1, 2), (2, 3, 4)], [], 2),  # empty vertex subset
    (3, 3, [(0, 1, 2)], [0, 1, 2], 0),
])
def test_links_and_induced_match_the_validating_constructor_at_the_edges(n, u, edges, keep, v):
    check_trusted_links_and_induced(Hypergraph(n, u, edges), keep, v)


def test_decompose_builds_no_hypergraph(monkeypatch):
    """decompose searches one view of its input: ``Hypergraph.__init__`` never runs.

    The sparse instance needs no link; the complete one links, and its
    links are cut from rows that are already valid.
    """
    sparse, dense = random_bounded_degree(300, 3, 12, 1000, seed=1), complete(8, 3)
    inits, links = [], []
    real_init, real_link = Hypergraph.__init__, Hypergraph.link

    def counting_init(self, *args, **kwargs):
        inits.append(args)
        real_init(self, *args, **kwargs)

    def counting_link(self, v):
        links.append(v)
        return real_link(self, v)

    monkeypatch.setattr(Hypergraph, "__init__", counting_init)
    monkeypatch.setattr(Hypergraph, "link", counting_link)
    assert decompose(sparse, 3).sunflowers
    assert (inits, links) == ([], [])
    assert decompose(dense, 3).sunflowers
    assert links and inits == []


@st.composite
def bounded_degree_edge_lists(draw):
    """(n, u, edges) of a sparse random instance: n = 10-30, u = 2-3, max degree 2-6."""
    n, u, max_degree = draw(st.integers(10, 30)), draw(st.integers(2, 3)), draw(st.integers(2, 6))
    hg = random_bounded_degree(n, u, max_degree, n * max_degree // u, seed=draw(st.integers(0, 2**32)))
    return n, u, hg.edge_array().tolist()


def resample_case(case, form, d, threshold):
    """(hypergraph, violated, support) of ``nibble_round`` ("terrible") or ``naive-lll`` ("mono-degree")."""
    n, u, edges = case
    hg = Hypergraph(n, u, edges)
    if form == "terrible":
        if threshold is None:
            threshold = hg.max_degree * 2.0 ** -(u - 1)
        return hg, _classifier(hg, d, threshold), partial(closed_second_neighbourhood, hg)
    nbr = ref_neighbour_sets(n, edge_tuples(hg))
    return hg, _classifier(hg, d), lambda v: sorted(nbr[v] | {v})


K5 = (5, 2, [list(e) for e in combinations(range(5), 2)])
K12 = (12, 2, [list(e) for e in combinations(range(12), 2)])
# a sparse instance whose probes meet both whole-vertex-set and partial supports
MIXED60 = (60, 3, random_bounded_degree(60, 3, 10, 150, seed=2).edge_array().tolist())


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(edge_lists(valid=True, max_n=24, max_m=40), bounded_degree_edge_lists()),
    st.sampled_from(["terrible", "mono-degree"]),
    st.integers(1, 4),
    st.integers(0, 2),
    st.integers(1, 600),
    st.sampled_from([None, 0.0, -1.0]),
    st.integers(0, 2**32),
)
# On complete graphs every support is the whole graph, so batches go 64 rows,
# then the cap (2^18 // m), and take the bit-sliced kernel: K_5 never succeeds
# and runs the whole budget (batches of 64 and 236 rows); K_5 at k=5 succeeds
# at row 25 of its first 64; K_12 succeeds inside the batch after it (at 89
# resamples, row 25 of 536, and at 207, row 143 of 536, or row 25 of the cap's
# 3971 at budget 5000), so the generator is restored and the kept rows drawn
# again.  MIXED60's first batch is one word of 64 rows whose row 3 flags a
# vertex with a partial support, so it is cut there.
@example(case=K5, form="terrible", k=3, d=0, budget=300, threshold=-1.0, seed=0)
@example(case=K5, form="mono-degree", k=2, d=0, budget=300, threshold=None, seed=0)
@example(case=K5, form="mono-degree", k=5, d=0, budget=300, threshold=None, seed=0)
@example(case=K12, form="terrible", k=4, d=1, budget=600, threshold=None, seed=0)
@example(case=K12, form="mono-degree", k=4, d=2, budget=600, threshold=None, seed=0)
@example(case=K12, form="terrible", k=4, d=1, budget=5000, threshold=None, seed=0)
@example(case=MIXED60, form="terrible", k=3, d=0, budget=600, threshold=None, seed=1)
def test_batched_resample_matches_one_redraw_at_a_time(case, form, k, d, budget, threshold, seed):
    """Same colours, resample count and outcome as the serial loop, for both ``violated`` forms.

    A threshold below zero flags every vertex, so the probe runs its whole
    budget in ever longer batches; small sparse instances change the
    target's support mid-probe and so cut batches short.  The mono-degree
    form runs ``naive-lll``'s check, which on batches of 64 rows or more
    is bit-sliced too.
    """
    n, u, edges = case
    hg = Hypergraph(n, u, edges)
    if form == "terrible":
        if threshold is None:
            threshold = hg.max_degree * 2.0 ** -(u - 1)

        violated = _classifier(hg, d, threshold)

        def support(v):
            return closed_second_neighbourhood(hg, v)
    else:
        nbr, violated = ref_neighbour_sets(n, edge_tuples(hg)), _classifier(hg, d)

        def support(v):
            return sorted(nbr[v] | {v})

    colours, resamples, succeeded = _resample(hg, k, seed, budget, violated, support)
    expected = ref_resample(n, k, seed, budget, violated, support)
    assert (colours.tolist(), resamples, succeeded) == (expected[0].tolist(), *expected[1:])


# Sparse u=3 instances on which a batch of 4 rows misses at row 2: on the
# first, its lowest flagged vertex has a support not yet computed and unlike
# the target's; on the second, row 2 flags nothing.
NEW_SUPPORT_MID_BATCH = (10, 3, [[4, 6, 7], [1, 2, 8], [2, 6, 9], [0, 7, 9], [0, 1, 5]])
FLAGLESS_MID_BATCH = (10, 3, [
    [0, 3, 5], [4, 7, 8], [0, 6, 7], [0, 2, 5], [1, 3, 8], [4, 5, 6], [4, 6, 9], [1, 2, 7], [2, 3, 8],
])


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(edge_lists(valid=True, max_n=24, max_m=40), bounded_degree_edge_lists()),
    st.sampled_from(["terrible", "mono-degree"]),
    st.integers(1, 4),
    st.integers(0, 2),
    st.integers(1, 600),
    st.sampled_from([None, 0.0, -1.0]),
    st.integers(0, 2**32),
)
@example(case=NEW_SUPPORT_MID_BATCH, form="terrible", k=2, d=0, budget=200, threshold=None, seed=0)
@example(case=FLAGLESS_MID_BATCH, form="terrible", k=2, d=0, budget=200, threshold=None, seed=1)
# every support is the whole graph, so every batch is one whole-support draw;
# on K_12 a new lowest flagged vertex has its support computed inside the
# first batch (in the 2nd, 48th and 63rd of its 64 rows), which joins the
# target's; on MIXED60 the first batch's 3rd row meets a partial support
@example(case=K5, form="terrible", k=3, d=0, budget=300, threshold=-1.0, seed=0)
@example(case=K12, form="terrible", k=4, d=1, budget=600, threshold=None, seed=0)
@example(case=K12, form="mono-degree", k=4, d=2, budget=600, threshold=None, seed=0)
@example(case=MIXED60, form="terrible", k=3, d=0, budget=600, threshold=None, seed=1)
def test_batched_resample_computes_the_supports_of_the_serial_loop(case, form, k, d, budget, threshold, seed):
    """``support`` is called on the same vertices, in the same order, as by the serial loop."""
    hg, violated, support = resample_case(case, form, d, threshold)

    def recorder(log):
        def recorded(v):
            log.append(v)
            return support(v)
        return recorded

    batched, serial = [], []
    _resample(hg, k, seed, budget, violated, recorder(batched))
    ref_resample(hg.n, k, seed, budget, violated, recorder(serial))
    assert batched == serial


# -- degree, equality, the bad-vertex probe and the grid witness ---------------------


@st.composite
def vertex_sets(draw, n, u, edges):
    """0 to u+1 vertices (-1 to n): often part of an edge, often also some that share no edge with it."""
    base = list(draw(st.sampled_from(edges))) if edges and draw(st.booleans()) else []
    base = base[: draw(st.integers(0, len(base)))]
    extra = draw(st.lists(st.integers(-1, n), max_size=u + 1 - len(base))) if n else []
    return draw(st.permutations(base + extra))


@settings(max_examples=150, deadline=None)
@given(st.one_of(edge_lists(valid=True), bounded_degree_edge_lists()), st.data())
def test_degree_matches_the_shortest_incidence_walk(case, data):
    n, u, edges = case
    hg = Hypergraph(n, u, edges)
    s = data.draw(vertex_sets(n, u, edges))
    assert outcome(hg.degree, s) == outcome(ref_degree, hg, s)


@settings(max_examples=100, deadline=None)
@given(edge_lists(valid=True), st.data())
def test_equality_matches_the_sorted_edge_tuples(case, data):
    """Rows permuted, one edge changed or dropped, another n or u, and m = 0 and u = 1 on the way."""
    n, u, edges = case
    hg = Hypergraph(n, u, edges)
    others = [Hypergraph(n, u, data.draw(st.permutations(edges))), Hypergraph(n + 1, u, edges),
              Hypergraph(n, u + 1, []), Hypergraph(n, u, edges[1:])]
    unused = [e for e in combinations(range(n), u) if sorted(e) not in map(sorted, edges)]
    if edges and unused:
        changed = list(edges)
        changed[data.draw(st.integers(0, len(edges) - 1))] = data.draw(st.sampled_from(unused))
        others.append(Hypergraph(n, u, changed))
    for other in others:
        assert (hg == other, other == hg) == (ref_equal(hg, other), ref_equal(other, hg))


@pytest.mark.parametrize("a, b, equal", [
    ((0, 2, []), (0, 2, []), True),
    ((3, 2, []), (3, 3, []), False),
    ((4, 1, [(3,), (0,)]), (4, 1, [(0,), (3,)]), True),
    ((4, 1, [(3,), (0,)]), (4, 1, [(0,), (2,)]), False),
    ((4, 2, [(0, 1)]), (5, 2, [(0, 1)]), False),
    ((4, 2, [(0, 1), (2, 3)]), (4, 2, [(2, 3)]), False),
    ((5, 10**18, []), (5, 10**18, []), True),  # no edges: nothing may loop over the u columns
])
def test_equality_edge_cases(a, b, equal):
    a, b = Hypergraph(*a), Hypergraph(*b)
    assert (a == b) == (b == a) == ref_equal(a, b) == equal


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(edge_lists(valid=True).filter(lambda c: c[0] > 0), bounded_degree_edge_lists()),
    st.data(),
    st.integers(1, 4),
    st.integers(0, 2),
    st.integers(1, 40),
    st.integers(0, 2**32),
)
def test_probe_bad_vertex_matches_the_incidence_walk(case, data, k, d, trials, seed):
    n, u, edges = case
    hg = Hypergraph(n, u, edges)
    v = data.draw(st.integers(0, n - 1))
    assert probe_bad_vertex(hg, k, d, v, trials, seed) == ref_probe_bad_vertex(hg, k, d, v, trials, seed)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_probe_bad_vertex_at_an_isolated_vertex(k):
    """Vertex 3 lies on no edge: its support is itself alone, and it is never bad."""
    hg = Hypergraph(6, 3, [(5, 1, 0), (1, 4, 5)])
    for d, trials, seed in [(0, 30, 1), (1, 1, 2), (2, 200, 3)]:
        found = probe_bad_vertex(hg, k, d, 3, trials, seed)
        assert found == ref_probe_bad_vertex(hg, k, d, 3, trials, seed) and found.count == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(1, 3))
@example(3, 4)
@example(2, 6)
def test_grid_matches_the_point_by_point_build(n, r):
    """The same edge array, row for row: by base point, then by the larger coordinates."""
    hg, ref = grid(n, r), ref_grid(n, r)
    assert (hg.n, hg.u) == (ref.n, ref.u)
    assert np.array_equal(hg.edge_array(), ref.edge_array())


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(2, 1), (5, 1), (9, 1), (3, 2), (4, 2), (5, 2), (3, 3), (2, 4)]),
    st.integers(1, 3),
    st.one_of(st.integers(0, 5), st.just(2**70)),
    st.sampled_from([0, 2**63, 2**70]),
    st.booleans(),
    st.data(),
)
def test_grid_witness_mono_degree_matches_the_incidence_walk(shape, k, d, base, skewed, data):
    """The witness of the line-by-line erosion, with its mono degree as the incidence walk counts it.

    Labels start at 0, 2**63 or 2**70, and a class is skewed large or the
    classes are drawn evenly, so that the largest are often tied.
    """
    n, r = shape
    palette = [base, base, base, base + k - 1] if skewed else list(range(base, base + k))
    colours = data.draw(st.lists(st.sampled_from(palette), min_size=n**r, max_size=n**r))
    colouring = Colouring(tuple(colours), base + k)
    witness = grid_defect_witness(n, r, colouring, d)
    assert repr(witness) == repr(ref_grid_defect_witness(n, r, colouring, d))
    if witness is not None:
        assert witness.mono_degree == mono_degree(grid(n, r), colouring, witness.vertex)


# The Hypergraph keeps no tuple views (``test_api`` locks that), so these runs
# show every algorithm, verify, the probes and the bounds work on the array alone.


@pytest.mark.parametrize("mode", MODES)
def test_algorithms_read_only_the_edge_array(mode):
    """Every engine mode, and verify, runs on the array-only Hypergraph."""
    hg = {
        "graph-maxcut": random_bounded_degree(60, 2, 12, 200, seed=40),
        "naive-lll": random_linear(24, 3, 6, 40, seed=41),
    }.get(mode) or random_bounded_degree(40, 3, 25, 160, seed=1)
    budget = None if mode in ("graph-maxcut", "greedy-proper") else 40
    result = run_engine(hg, EngineConfig(mode=mode, defect=1, seed=7, budget=budget))
    assert verify(hg, result.colouring, 1).is_defective


def test_decompose_oracle_and_bounds_read_only_the_edge_array():
    sparse, small = random_bounded_degree(60, 3, 12, 200, seed=5), complete(6, 3)
    assert decompose(sparse, 3).sunflowers and decompose(small, 3).sunflowers
    assert exact_defective_chromatic(small, 1) == 2  # two triangles
    assert probe_mono_edge(small, 2, 50).trials == 50
    assert probe_bad_vertex(small, 2, 1, 0, 50).trials == 50
    assert bad_vertex_ceiling(small, 0, 2, 1) == 10 * 2.0 ** -2 / 2
    assert guarantee_bound(small, 3, 0) == 2 * 10 / 3
    assert grid_defect_witness(3, 2, Colouring((0,) * 9, 1), 0).mono_degree == 4
    assert (small.degree([0, 1]), small.degree([0, 1, 2]), small.degree([0, 1, 2, 3])) == (4, 1, 0)
    assert small == complete(6, 3) and sparse != small


# -- instance generation -----------------------------------------------------


def ref_format(hg):
    out = [f"{hg.n} {hg.m} {hg.u}"]
    out.extend(" ".join(map(str, e)) for e in hg.edge_array().tolist())
    return "\n".join(out) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 30), st.sampled_from([10, 2 * 10**6]), st.data())
def test_format_instance_matches_the_per_row_join(u, m, scale, data):
    """Labels past 10^6, u = 2-5 and m = 0 write the same text as joining each row."""
    n = scale + u
    rows = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=u, max_size=u, unique=True),
                              max_size=m, unique_by=lambda row: tuple(sorted(row))))
    hg = Hypergraph(n, u, rows)
    assert format_instance(hg) == ref_format(hg)


POWERS_OF_TWO = [2**k + d for k in range(3, 21) for d in (-1, 0, 1)]


@st.composite
def sampler_params(draw):
    """(n, u, max_degree, target_m, seed, linear) across both branches of ``random.sample``.

    ``sample`` draws from a pool when n <= 21 (n <= 85 for u = 6-7) and from
    a set of taken values above that; n = 2^k and 2^k + 1 reject up to half
    the draws of ``_randbelow``, n = 2^k - 1 almost none.
    """
    u = draw(st.integers(2, 7))
    n = draw(st.one_of(
        st.integers(u, 24),
        st.integers(max(u, 60), 110),
        st.integers(u, 300),
        st.sampled_from(POWERS_OF_TWO),
    ))
    max_degree = draw(st.integers(0, 10))
    target_m = draw(st.integers(0, 40))
    seed = draw(st.one_of(st.integers(-2**40, 2**40), st.integers(2**64, 2**80), st.integers(-2**80, -2**64)))
    return n, u, max_degree, target_m, seed, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(sampler_params(), st.sampled_from([1, 2, 7, generators._CHUNK_ROWS]))
@example((90, 7, 4, 40, 11, True), 7)  # linear at u = 7: 21 pair keys per row
@example((600, 7, 3, 40, 9, False), 2)  # 600^7 >= 2^63: the row keys are bytes
def test_random_families_match_the_pure_python_sampler(params, chunk):
    """Same edges in the same order as one ``random.sample`` and one check per attempt.

    Chunks of 1, 2 and 7 candidates put a chunk boundary at every place a
    clash between candidates can fall.  Targets the cap makes unreachable
    (max degree 0, or n * max_degree < u * target_m) draw until the budget
    is spent or fewer than u vertices have room.
    """
    n, u, max_degree, target_m, seed, linear = params
    make = random_linear if linear else random_bounded_degree
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generators, "_CHUNK_ROWS", chunk)
        hg = make(n, u, max_degree, target_m, seed=seed)
    assert edge_tuples(hg) == tuple(reference_rejection_sample(n, u, max_degree, target_m, seed, linear))


@pytest.mark.parametrize("n, u, max_degree, target_m, linear", [
    (300, 3, 4, 400, False),  # the cap stops it short: every chunk settles clashing rows
    (40, 2, 6, 300, False),  # dense graph: edges repeat within and across chunks
    (200, 3, 8, 600, True),  # pairs clash within chunks
    (90, 6, 3, 45, True),  # u = 6 just above the pool branch
])
def test_random_families_match_the_reference_at_full_chunks(n, u, max_degree, target_m, linear):
    make = random_linear if linear else random_bounded_degree
    assert edge_tuples(make(n, u, max_degree, target_m, seed=3)) \
        == tuple(reference_rejection_sample(n, u, max_degree, target_m, 3, linear))


@pytest.mark.parametrize("n, max_degree, target_m", [
    (2000, 10, 3000),  # sparse: few clashes
    (40, 39, 2000),  # saturating: K_40 fills up and most candidates repeat an edge
])
def test_linear_graphs_are_the_bounded_degree_graphs(monkeypatch, n, max_degree, target_m):
    """At u = 2 the one pair of a candidate is the candidate, so both families refuse the same ones."""
    monkeypatch.setattr(generators, "_CHUNK_ROWS", 7)
    assert edge_tuples(random_linear(n, 2, max_degree, target_m, seed=4)) \
        == edge_tuples(random_bounded_degree(n, 2, max_degree, target_m, seed=4))


@pytest.mark.parametrize("n", [7, 2**40])
def test_row_keys_are_equal_exactly_when_the_rows_are(n):
    """Base-n codes below 2^63 and row bytes past it: equal keys, equal rows, on both."""
    rows = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 2], [n - 3, n - 2, n - 1], [0, 2, 1]], dtype=np.int64)
    keys = generators._keys(rows, n)
    assert [[a == b for b in keys.tolist()] for a in keys.tolist()] \
        == [[a == b for b in rows.tolist()] for a in rows.tolist()]
    assert generators._repeated(keys).tolist() == [True, False, True, False, False]


def test_candidates_are_drawn_in_bounded_chunks(monkeypatch):
    """No chunk asks for more than ``_CHUNK_ROWS`` candidates, however large the budget."""
    sizes = []
    take = generators._Samples.take

    def recording_take(self, count):
        sizes.append(count)
        return take(self, count)

    monkeypatch.setattr(generators, "_CHUNK_ROWS", 64)
    monkeypatch.setattr(generators._Samples, "take", recording_take)
    assert random_bounded_degree(500, 3, 4, 1000, seed=1).m < 1000  # the cap leaves room for 666
    assert max(sizes) == 64
    assert sum(sizes) == 10 * 1000


def test_draws_stop_once_no_candidate_fits(monkeypatch):
    """Past the point where fewer than u vertices have room, no further chunk is drawn."""
    sizes = []
    take = generators._Samples.take

    def recording_take(self, count):
        sizes.append(count)
        return take(self, count)

    monkeypatch.setattr(generators._Samples, "take", recording_take)
    hg = random_bounded_degree(10, 3, 2, 5000, seed=1)
    assert (hg.m, sum(hg.degrees())) == (6, 18)  # 18 of the 20 slots: two vertices have room
    assert edge_tuples(hg) == tuple(reference_rejection_sample(10, 3, 2, 5000, 1, False))
    assert sizes == [generators._CHUNK_ROWS]  # the budget would allow 50000
    assert random_bounded_degree(1000, 3, 0, 10**6).m == 0
    assert sizes == [generators._CHUNK_ROWS]  # max degree 0: nothing is drawn


# The canaries: the replay is only right while this interpreter's ``random``
# draws as described in ``generators``; if it ever stops, these fail first.


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(-2**80, 2**80), st.just(0)))
def test_replayed_words_are_getrandbits_32(seed):
    rng = random.Random(seed)
    words = generators._replay(random.Random(seed)).random_raw(1500).tolist()
    assert words == [rng.getrandbits(32) for _ in range(1500)]


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 7).flatmap(lambda u: st.tuples(
    st.just(u),
    st.one_of(st.integers(u, 120), st.sampled_from(POWERS_OF_TWO), st.integers(2**31, 2**32 + 5)),
    st.integers(-2**70, 2**70),
    st.integers(0, 300),
)))
def test_replayed_candidates_are_random_sample(case):
    """Rows in the order ``sample`` returns them, on both branches and past 2^32 (two words a draw)."""
    u, n, seed, count = case
    rng = random.Random(seed)
    samples = generators._Samples(n, u, seed)
    got = [row for size in (count // 3, count - count // 3) for row in samples.take(size).tolist()]
    assert got == [rng.sample(range(n), u) for _ in range(count)]
