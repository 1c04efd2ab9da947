"""Colouring algorithms: random palettes, resampling rounds, and endgames.

A colouring is d-defective when every vertex lies in at most d
monochromatic edges.  The engine offers five modes:

* ``theorem``       rounds of random colouring with a fixed geometric
                    palette schedule and a halving degree guarantee;
* ``adaptive``      the same round structure, but each round searches for
                    the smallest palette that works;
* ``naive-lll``     one-shot random colouring of a linear hypergraph with
                    resampling until no vertex is over budget;
* ``graph-maxcut``  the exact graph-case construction via the local-search
                    partition (2-uniform only);
* ``greedy-proper`` a deterministic proper colouring, always valid.

One round driver runs ``theorem`` and ``adaptive``; they differ only in
how the degree bound moves (halving, or the residual's actual max degree)
and in the palette step (one probe at the formula's palette, or a search
that doubles and then bisects).  One Moser-Tardos loop serves ``nibble_round``
and ``naive-lll``: it redraws the cached variable support of the
lowest-index violated vertex until none is left.  It does so speculatively,
in batches: while that support stays the same it draws a run of redraws at
once, classifies them all in one kernel call, and keeps the rows the
one-at-a-time loop would have reached; after a miss it restores the
generator and draws the kept rows again, so colours, resample counts and the
RNG stream are those of one redraw at a time.

One rule classifies, in :func:`_classifier`: a vertex is bad when more than
d of its edges are monochromatic, an edge all-bad when all its vertices are
bad, and a vertex terrible when more than the threshold of its edges are
all-bad.  "More than x of a vertex's edges" takes one of three layouts,
picked by the number of rows B:

* one colour vector: one ``bincount``;
* 2-63 rows: transposed once to vertex-major (n, B), so an edge slot's
  colours are one gather of contiguous length-B rows, and counted per vertex
  and row by one ``reduceat`` over a CSR vertex -> edge index, 2-4 times
  faster per call than one ``bincount`` over row-offset ids;
* 64 or more rows of integer labels: bit-sliced, 64 rows to a uint64 word.
  Each bit plane of the labels is packed into words, an edge is
  monochromatic where no plane tells its slots apart, and "at least t" is
  t-1 OR-accumulates and one OR-reduce along a (max degree, n) incidence
  padded with a zero sentinel edge.  It is slower than counting on a few
  rows and faster on many (see ``_WORD_ROWS``).

All three give the same flags, and a resample loop builds each index at
most once, by the first batch that reads it.  :func:`mono_counts`, which
``analysis.verify`` reads, counts by the first two.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable, Iterator, Sequence

import numpy as np

from . import partition
from .hypergraph import Hypergraph, _incidence

__all__ = [
    "MODES",
    "Colouring",
    "RoundTrace",
    "EngineConfig",
    "EngineResult",
    "BudgetExhaustedError",
    "default_budget",
    "uniform_colouring",
    "mono_counts",
    "classify",
    "closed_second_neighbourhood",
    "nibble_round",
    "nibble_colouring",
    "adaptive_colouring",
    "linear_lll_colouring",
    "graph_maxcut_colouring",
    "greedy_proper",
    "run_engine",
]

MODES = ("theorem", "adaptive", "naive-lll", "graph-maxcut", "greedy-proper")

# Degree bound below which the round machinery is pointless and an exact
# endgame (single colour or greedy proper) takes over.
SMALL_DEGREE_CUTOFF = 8


class BudgetExhaustedError(RuntimeError):
    """Resampling did not reach a good colouring within its budget."""


def default_budget(n: int) -> int:
    """Default resample budget for one round or probe: 64 per vertex.

    Moser & Tardos (JACM 2010, Thm 1.2) bound the expected number of
    resamples by the sum of x/(1-x) over the events, x being the Local
    Lemma weights.  The events are one per vertex, so when the condition
    holds with every x <= 1/2 that sum is at most n, and by Markov's
    inequality a run passes 64n resamples with probability at most 1/64.
    A run that does is evidence that the condition fails at this palette,
    as it does on adaptive's failing probes.
    """
    return max(1, 64 * n)


@dataclass(frozen=True)
class Colouring:
    """A (possibly partial) assignment of colours out of a declared palette."""

    colours: tuple[int | None, ...]
    num_colours: int

    def __post_init__(self) -> None:
        labels = set(self.colours)  # the distinct labels, usually far fewer than the vertices
        labels.discard(None)
        if labels and not (0 <= min(labels) and max(labels) < self.num_colours):
            for v, c in enumerate(self.colours):  # only to name the first vertex outside the palette
                if c is not None and not 0 <= c < self.num_colours:
                    raise ValueError(f"vertex {v} has colour {c}, outside palette 0..{self.num_colours - 1}")

    @property
    def is_total(self) -> bool:
        return None not in self.colours

    def distinct_used(self) -> int:
        return len(set(self.colours) - {None})

    def uncoloured(self) -> tuple[int, ...]:
        return tuple(v for v, c in enumerate(self.colours) if c is None)


@dataclass(frozen=True)
class RoundTrace:
    """Audit record for one engine round (or endgame step)."""

    index: int
    kind: str  # "nibble" | "single" | "greedy" | "lll" | "maxcut"
    palette_size: int
    palette_start: int
    degree_bound: float
    resamples: int
    residual_size: int
    succeeded: bool
    probes: int = 1  # nibble attempts made for this round, failures included


@dataclass(frozen=True)
class EngineConfig:
    mode: str
    defect: int
    seed: int = 0
    budget: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        _check_defect(self.defect)
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")


@dataclass(frozen=True)
class EngineResult:
    mode: str
    colouring: Colouring
    traces: tuple[RoundTrace, ...]


_Probe = tuple[Colouring, tuple[int, ...] | None, RoundTrace]


# -- elementary operations ----------------------------------------------------


def _check_seed(seed: int) -> None:
    """Refuse a negative seed, which numpy's generators reject with a message that does not name it."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _check_defect(d: int) -> None:
    """Refuse a negative defect bound."""
    if d < 0:
        raise ValueError(f"defect must be >= 0, got {d}")


def _total_labels(hg: Hypergraph, colouring: Colouring) -> np.ndarray:
    """The :func:`_labels` of a colouring; refuses one of another length than ``hg`` or with an uncoloured vertex."""
    if len(colouring.colours) != hg.n:
        raise ValueError(f"colouring covers {len(colouring.colours)} vertices, hypergraph has {hg.n}")
    if not colouring.is_total:
        missing = colouring.uncoloured()
        raise ValueError(f"colouring leaves {len(missing)} vertices uncoloured (first: {missing[:5]})")
    return _labels(colouring)


def _labels(colouring: Colouring) -> np.ndarray:
    """A total colouring's labels as one exact array: int64 while the palette fits it, Python ints past 2**63.

    ``np.asarray`` would make float64 of labels on both sides of 2**63, where
    nearby labels compare equal.
    """
    return np.array(colouring.colours, dtype=np.int64 if colouring.num_colours <= 2**63 else object)


def uniform_colouring(hg: Hypergraph, k: int, seed: int = 0) -> Colouring:
    """Independent uniform colour draws for every vertex."""
    if k < 1:
        raise ValueError(f"palette must have >= 1 colours, got {k}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, k, size=hg.n)
    return Colouring(tuple(int(c) for c in draws), k)


def _vertex_major(colours: np.ndarray) -> np.ndarray:
    """An (n,) colour vector or one (1, n) row as (n,); B > 1 rows as one contiguous (n, B) array.

    Vertex-major rows put each vertex's B colours side by side, so the
    colours of an edge slot are one gather of m contiguous length-B rows.
    """
    if colours.ndim == 1 or len(colours) == 1:
        return colours.reshape(-1)
    return np.ascontiguousarray(colours.T)


def _csr_incidence(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edge of each vertex slot in CSR order, the vertices on some edge, where their runs start)."""
    edge_of, degrees = _incidence(edges, n)
    nonempty = np.flatnonzero(degrees)
    return edge_of, nonempty, (np.cumsum(degrees) - degrees)[nonempty]


def _padded_incidence(edges: np.ndarray, n: int) -> np.ndarray:
    """The (max degree, n) edge ids of each vertex, in increasing order, padded with the sentinel id m."""
    edge_of, degrees = _incidence(edges, n)
    vertex = np.repeat(np.arange(n), degrees)
    rank = np.arange(len(edge_of)) - (np.cumsum(degrees) - degrees)[vertex]
    padded = np.full((int(degrees.max(initial=0)), n), len(edges), dtype=np.int64)
    padded[rank, vertex] = edge_of
    return padded


def _slots(edges: np.ndarray, values: np.ndarray) -> Iterator[np.ndarray]:
    """The vertex-major ``values`` at each of the u edge slots in turn, as (m,) or (m, B) arrays.

    B rows are gathered by ``take``, which costs a fraction of fancy
    indexing on short rows; one row keeps fancy indexing, which is cheaper there.
    """
    return map(values.__getitem__ if values.ndim == 1 else partial(values.take, axis=0), edges.T)


def _edge_counts(
    edges: np.ndarray, mask: np.ndarray, n: int, csr: Callable[[], tuple[np.ndarray, ...]],
) -> np.ndarray:
    """Per vertex (and row), how many edges picked by ``mask`` contain it: (n,) from (m,), (n, B) from (m, B).

    One row is counted by one ``bincount``; B rows by one ``reduceat`` over
    the CSR incidence ``csr()`` (:func:`_csr_incidence`), where only vertices of
    degree > 0 start a run (``reduceat`` reads an empty run as its next
    element) and the rest stay 0.
    """
    if mask.ndim == 1:
        return np.bincount(np.concatenate([slot[mask] for slot in edges.T]), minlength=n)
    edge_of, nonempty, starts = csr()
    counts = np.zeros((n, mask.shape[1]), dtype=np.int64)
    if len(starts):
        counts[nonempty] = np.add.reduceat(mask.take(edge_of, axis=0), starts, axis=0)
    return counts


def _mono_edges(edges: np.ndarray, colours: np.ndarray) -> np.ndarray:
    """Per edge (and row), whether the vertex-major colours agree at all u slots.

    Only the mask outlives the call: the gathered (m, B) colours held over the
    counting that follows made the allocator return and refault pages on every call.
    """
    slots = _slots(edges, colours)
    first = next(slots)
    mono = np.ones(first.shape, dtype=bool)
    for at in slots:
        mono &= at == first
    return mono


def mono_counts(edges: np.ndarray, colours: np.ndarray, n: int) -> np.ndarray:
    """Per-vertex number of monochromatic edges under total colour vectors.

    ``edges`` is an (m, u) vertex array such as :meth:`Hypergraph.edge_array`
    and ``colours`` holds one label per vertex, as one (n,) vector or as
    (B, n) rows; the counts have the same shape.  Only label equality
    matters.
    """
    mono = _mono_edges(edges, _vertex_major(colours))
    return _edge_counts(edges, mono, n, partial(_csr_incidence, edges, n)).T.reshape(colours.shape)


# -- the bit-sliced layout: 64 rows per machine word --------------------------------

# Rows per uint64 word, and the batch size from which the flags of integer
# rows are computed bit-sliced, so that every word but the last is full.
# Terrible flags on the adaptive-resample a35 instance (n=35, m=199), 2 vCPU,
# us per row, counting against bit-sliced: 16.4 / 29.1 at B=2, 5.2 / 11.8 at
# 8, 6.0 / 5.9 at 16, 4.9 / 2.7 at 32, 3.3 / 1.3 at 64, 3.5 / 0.47 at 256 and
# 3.9 / 0.30 at 1024.  Below 64 rows the counting kernel stays: it is the
# cheaper one up to B=8, where sparse rounds, which miss every few redraws and
# then restart B at 1, make nearly all of their calls.  The floor also bounds
# the (max degree, n) padded incidence: a resample loop reaches 64 rows only
# when max(m, n) <= _BATCH_EDGE_ROWS // _WORD_ROWS = 4096, so that index holds
# at most 2^24 int64 (128 MiB); a floor of 16 or 32 would allow 2 GiB or 512 MiB.
_WORD_ROWS = 64


def _is_wide(colours: np.ndarray) -> bool:
    """Whether the flags of these rows come from the bit-sliced kernel: B >= 64 rows of integer labels."""
    return colours.ndim == 2 and len(colours) >= _WORD_ROWS and colours.dtype.kind in "iu"


def _mono_words(edges: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(m, W) words whose bit b says whether row b colours the edge monochromatically.

    Each bit plane of the (B, n) labels is packed little-endian into (n, W)
    uint64 words, W = ceil(B/64), so row b sits at bit b % 64 of word b // 64.
    An edge is monochromatic in a row when no plane tells its slots apart.
    Labels are read as 64-bit patterns, so any integer labels work; the
    padding bits past B are 0 in every plane and are never unpacked.
    """
    rows = rows.astype(np.int64, copy=False).view(np.uint64)
    top = int(rows.max(initial=0))
    labels = rows.T.astype(np.min_scalar_type(top), order="C")  # (n, B), one byte per label below 256
    planes, width = top.bit_length(), -(-len(rows) // _WORD_ROWS)
    packed = np.zeros((labels.shape[0], planes, 8 * width), dtype=np.uint8)
    for p in range(planes):
        packed[:, p, : -(-len(rows) // 8)] = np.packbits((labels >> p) & 1 != 0, axis=1, bitorder="little")
    slots = _slots(edges, packed.view("<u8"))  # (n, planes, W) words, gathered as (m, planes, W)
    first = next(slots)
    differ = np.zeros(first.shape, dtype=np.uint64)
    for at in slots:
        differ |= at ^ first
    return ~np.bitwise_or.reduce(differ, axis=1)


def _at_least(words: np.ndarray, padded: np.ndarray, t: int) -> np.ndarray:
    """(n, W) words: for each vertex and row, whether at least t of the vertex's edges have their bit set.

    ``words`` holds one (m, W) row per edge; the sentinel id m that pads
    ``padded`` reads a zero row appended here.  Round j (1 <= j < t) keeps
    the bits of the vertex's (j+1)-th edge slot onwards that follow j set
    bits, by one OR-accumulate along the slots, and a last OR-reduce asks
    whether the t-th set bit exists; each round reads only the Δ-t+1 slots
    that can still reach t.
    """
    sentinel = np.zeros((1, words.shape[1]), dtype=np.uint64)
    gathered = np.concatenate([words, sentinel]).take(padded, axis=0)  # (Δ, n, W)
    if t <= 0:
        return np.full(gathered.shape[1:], ~np.uint64(0))
    if t > len(gathered):
        return np.zeros(gathered.shape[1:], dtype=np.uint64)
    span = len(gathered) - t + 1
    reach = gathered[:span]
    for j in range(1, t):
        reach = np.bitwise_or.accumulate(reach, axis=0) & gathered[j : j + span]
    return np.bitwise_or.reduce(reach, axis=0)


def _unpack(words: np.ndarray, rows: int) -> np.ndarray:
    """(n, W) words as the (rows, n) boolean flags they pack."""
    octets = words.astype("<u8", copy=False).view(np.uint8).T
    return np.unpackbits(octets, axis=0, count=rows, bitorder="little").view(bool)


def _classifier(
    edges: np.ndarray, n: int, d: int, threshold: float | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """The ``violated`` flags of an (n,) colour vector or of (B, n) rows, in the same shape.

    A vertex is bad when more than d of its edges are monochromatic, an edge
    all-bad when all its vertices are bad, and a vertex terrible when more
    than ``threshold`` of its edges are all-bad.  The callable flags the
    terrible vertices when given a threshold and the bad ones otherwise.
    B >= 64 rows of integer labels ask "more than x of a vertex's edges"
    bit-sliced, the rest by counting; each index is built at most once, by
    the first call that reads it.
    """
    csr, padded = cache(partial(_csr_incidence, edges, n)), cache(partial(_padded_incidence, edges, n))

    def counted(mask: np.ndarray, x: float) -> np.ndarray:
        return _edge_counts(edges, mask, n, csr) > x

    def sliced(words: np.ndarray, x: float) -> np.ndarray:
        degree = len(padded())
        # below 0 every count passes; at or past the max degree (or NaN) none does
        return _at_least(words, padded(), 0 if x < 0 else math.floor(x) + 1 if x < degree else degree + 1)

    def rule(mono: np.ndarray, more_than: Callable[[np.ndarray, float], np.ndarray]) -> np.ndarray:
        bad = more_than(mono, d)
        if threshold is None:
            return bad
        slots = _slots(edges, bad)
        all_bad = next(slots)
        for at in slots:
            all_bad &= at
        return more_than(all_bad, threshold)

    def violated(colours: np.ndarray) -> np.ndarray:
        if _is_wide(colours):
            return _unpack(rule(_mono_words(edges, colours), sliced), len(colours))
        return rule(_mono_edges(edges, _vertex_major(colours)), counted).T.reshape(colours.shape)

    return violated


def classify(
    hg: Hypergraph,
    colouring: Colouring,
    d: int,
    bad_edge_threshold: float | None = None,
) -> tuple[set[int], set[int]]:
    """Split vertices into bad and terrible under a total colouring.

    The colouring must pass the total-colouring check that
    ``analysis.verify`` also runs (:func:`_total_labels`).  A vertex is bad
    when its monochromatic degree is at least d+1.  An
    edge is bad when every one of its vertices is bad (it need not be
    monochromatic itself).  A vertex is terrible when it lies in strictly
    more bad edges than the threshold, which defaults to 2^(-r) * max
    degree with r = u-1.

    Returns:
        (bad vertices, terrible vertices)
    """
    colours, edges = _total_labels(hg, colouring), hg.edge_array()
    if bad_edge_threshold is None:
        bad_edge_threshold = hg.max_degree * 2.0 ** -(hg.u - 1)
    bad = _classifier(edges, hg.n, d)(colours)
    terrible = _classifier(edges, hg.n, d, bad_edge_threshold)(colours)
    return set(np.flatnonzero(bad).tolist()), set(np.flatnonzero(terrible).tolist())


def _closed_neighbourhood(hg: Hypergraph, vertices: np.ndarray) -> np.ndarray:
    """The given vertices and all their neighbours, sorted and distinct, in one CSR gather."""
    starts, neighbours = hg.neighbour_sets()
    first, counts = starts[vertices], starts[vertices + 1] - starts[vertices]
    # neighbours[first[j] + t] for t < counts[j], for every j at once
    at = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    return np.unique(np.concatenate([vertices, neighbours[at]]))


def closed_second_neighbourhood(hg: Hypergraph, v: int) -> tuple[int, ...]:
    """All vertices within hypergraph distance 2 of v, v included."""
    hg._check_vertex(v)
    return tuple(_closed_neighbourhood(hg, _closed_neighbourhood(hg, np.array([v]))).tolist())


# -- the resample loop -----------------------------------------------------------


# Cap on B * max(m, n), the edge-rows (or vertex-rows, on instances with more
# vertices than edges) one speculative batch holds: a memory bound, which
# binds only where B * max(m, n) would pass 2^18.  It was tuned at a default
# budget of 1000n, where the adaptive-resample probes (m = 199-228, so
# 1149-1317 rows at 2^18) reached it; past 2^18 their time stopped falling
# while peak memory kept growing with B.  At the default of 64n the same
# probes stop at batches of 1024 rows, under the cap.
_BATCH_EDGE_ROWS = 2**18


def _resample(
    hg: Hypergraph, k: int, seed: int, budget: int | None,
    violated: Callable[[np.ndarray], np.ndarray], support: Callable[[int], Sequence[int]],
) -> tuple[np.ndarray, int, bool]:
    """Moser-Tardos resampling shared by every round mode.

    Draws a uniform k-colouring, then, while ``violated`` flags a vertex,
    redraws ``support(v)`` of the lowest-index flagged vertex v.  Each
    support is computed once and interned by its bytes: ``ids[v]`` is the
    id of v's support in ``distinct`` (-1 until computed), so vertices with
    equal supports share one id.  Id 0 is the whole vertex set in order.
    Stops on success, when the budget (default :func:`default_budget`) is
    spent, or at once when k == 1: redrawing from a one-colour palette
    changes nothing.

    The loop speculates that the target's support S stays the same.  It
    draws the next B redraws of S in one ``rng.integers`` call of shape
    (B, |S|), which yields the same values and leaves the generator in
    the same state as B calls of size |S| (numpy takes bounded integers
    from the bit stream one at a time and keeps a spare 32-bit half in the
    generator state); when S is the whole vertex set that draw is the
    batch.  One ``violated`` call classifies all B rows (a
    :func:`_classifier`, which counts up to 63 rows and bit-slices 64 or
    more).  Row i is kept while every earlier row flags a vertex whose
    support is S.  The first miss is found over all rows at once: with
    ``tops`` the lowest flagged vertex of each row, it is the first row
    that flags nothing or whose ``ids[tops]`` is not S's id; when that row's
    id is still -1, its support is computed and the search repeats, so
    supports are computed in row order and no further than the one-at-a-time
    loop would.  If rows were dropped, the generator state saved before the
    batch is restored and the kept draws are drawn again, so the colours, the
    resample count and the RNG stream are exactly those of redrawing one
    support at a time.  B starts at 1, doubles after a batch kept whole and
    drops back to 1 after a miss; it never exceeds the budget left or the cap
    on B * max(m, n).

    Returns:
        (colour vector, resamples made, whether no vertex is flagged)
    """
    if budget is None:
        budget = default_budget(hg.n)
    rng = np.random.default_rng(seed)
    max_rows = max(1, _BATCH_EDGE_ROWS // max(hg.m, hg.n, 1))
    ids = np.full(hg.n, -1, dtype=np.int64)
    distinct = [np.arange(hg.n, dtype=np.int64)]
    interned = {distinct[0].tobytes(): 0}

    def intern(v: int) -> int:
        s = np.asarray(support(v), dtype=np.int64)
        ids[v] = interned.setdefault(s.tobytes(), len(distinct))
        if ids[v] == len(distinct):
            distinct.append(s)
        return int(ids[v])

    rows = rng.integers(0, k, size=(1, hg.n), dtype=np.int64)
    flags = violated(rows)
    kept, resamples, batch = 1, 0, 1
    while True:
        colours, flagged = rows[kept - 1], flags[kept - 1]
        if not flagged.any():
            return colours, resamples, True
        if resamples >= budget or k == 1:
            return colours, resamples, False
        top = int(flagged.argmax())
        target = int(ids[top]) if ids[top] >= 0 else intern(top)
        size = min(batch, budget - resamples, max_rows)
        state = rng.bit_generator.state
        redrawn = distinct[target]
        draws = rng.integers(0, k, size=(size, len(redrawn)))
        if target:
            rows = np.repeat(colours[None], size, axis=0)
            rows[:, redrawn] = draws
        else:  # every vertex, in order: the draws are the rows
            rows = draws
        flags = violated(rows)
        kept = size
        if size > 1:
            tops = flags[:-1].argmax(axis=1)
            empty = ~flags[np.arange(size - 1), tops]
            while (miss := empty | (ids[tops] != target)).any():
                first = int(miss.argmax())
                if empty[first] or ids[tops[first]] >= 0:
                    kept = first + 1
                    break
                intern(int(tops[first]))
        if kept < size:
            rng.bit_generator.state = state
            rng.integers(0, k, size=(kept, len(redrawn)))
            batch = 1
        else:
            batch *= 2
        resamples += kept


def nibble_round(
    hg: Hypergraph,
    d: int,
    k: int,
    threshold: float | None = None,
    budget: int | None = None,
    seed: int = 0,
) -> tuple[Colouring, tuple[int, ...] | None, RoundTrace]:
    """One random-colouring round with terrible-vertex resampling.

    Draws a uniform k-colouring, then, while any terrible vertex exists
    and budget remains, redraws the colours of the closed second
    neighbourhood of the lowest-index terrible one.  On success all bad
    vertices are uncoloured; the remaining coloured vertices have mono
    degree at most d and the residual (uncoloured) set induces a
    subhypergraph of max degree at most the threshold.

    Returns:
        (colouring, residual, trace).  On success the colouring is
        partial and the residual lists the uncoloured vertices; on budget
        exhaustion the trace carries succeeded=False, the colouring is
        the last total draw, and the residual is None.
    """
    if k < 1:
        raise ValueError(f"palette must have >= 1 colours, got {k}")
    _check_defect(d)
    _check_seed(seed)
    if threshold is None:
        threshold = hg.max_degree * 2.0 ** -(hg.u - 1)

    edges = hg.edge_array()
    colours, resamples, succeeded = _resample(
        hg, k, seed, budget, _classifier(edges, hg.n, d, threshold),
        lambda v: closed_second_neighbourhood(hg, v),
    )
    trace = RoundTrace(0, "nibble", k, 0, float(hg.max_degree), resamples, 0, succeeded)
    if not succeeded:
        return Colouring(tuple(colours.tolist()), k), None, trace
    bad = _classifier(edges, hg.n, d)(colours)
    residual = tuple(np.flatnonzero(bad).tolist())
    assignment = tuple(None if b else c for b, c in zip(bad.tolist(), colours.tolist()))
    return Colouring(assignment, k), residual, replace(trace, residual_size=len(residual))


def linear_lll_colouring(
    hg: Hypergraph,
    d: int,
    seed: int = 0,
    budget: int | None = None,
) -> tuple[Colouring, RoundTrace]:
    """Single-palette colouring of a linear hypergraph by resampling.

    Uses k = floor(100 * (max_degree / (d+1))^(1/r)) colours, draws all
    of them at once, and while any vertex has mono degree over d redraws
    the closed (first) neighbourhood of the lowest-index offender.  That
    neighbourhood carries every colour the offending event can read.

    Raises:
        ValueError: if the hypergraph is not linear.
        BudgetExhaustedError: if the resample budget runs out.
    """
    if hg.u < 2:
        raise ValueError("needs uniformity >= 2")
    _check_defect(d)
    _check_seed(seed)
    if not hg.is_linear():
        raise ValueError("hypergraph is not linear (two edges share two or more vertices)")
    if budget is None:
        budget = default_budget(hg.n)

    k = max(1, math.floor(100.0 * (hg.max_degree / (d + 1)) ** (1.0 / (hg.u - 1))))
    colours, resamples, succeeded = _resample(
        hg, k, seed, budget, _classifier(hg.edge_array(), hg.n, d),
        lambda v: _closed_neighbourhood(hg, np.array([v])),
    )
    if not succeeded:
        raise BudgetExhaustedError(
            f"no d-defective colouring found within {budget} resamples (k={k})"
        )
    trace = RoundTrace(0, "lll", k, 0, float(hg.max_degree), resamples, 0, True)
    return Colouring(tuple(colours.tolist()), k), trace


# -- the round driver -----------------------------------------------------------


def _formula_palette(attempt: Callable[[int], _Probe], bound: float, d: int, r: int) -> _Probe | None:
    """Theorem palette: one probe at k = floor(49 * (bound/(d+1))^(1/r)); None when it fails."""
    found = attempt(math.floor(49.0 * (bound / (d + 1)) ** (1.0 / r)))
    return found if found[2].succeeded else None


def _searched_palette(attempt: Callable[[int], _Probe], bound: float, d: int, r: int) -> _Probe | None:
    """Adaptive palette: double k from 1 to the first success, then bisect down.

    Doubling stops past 2 * (bound + 1); greedy would use fewer colours.
    Returns the succeeding probe of the smallest k, or None when doubling finds none.
    """
    k = 1
    while k <= 2 * (bound + 1):
        found = attempt(k)
        if found[2].succeeded:
            break
        k *= 2
    else:
        return None
    lo, hi = k // 2 + 1, k
    while lo < hi:
        mid = (lo + hi) // 2
        outcome = attempt(mid)
        if outcome[2].succeeded:
            hi, found = mid, outcome
        else:
            lo = mid + 1
    return found


def _endgame(current: Hypergraph, d: int) -> tuple[Colouring, tuple[int, ...], RoundTrace]:
    """Exact finish: one colour if the degree is at most d, else greedy proper."""
    if current.max_degree <= d:
        sub, kind = Colouring((0,) * current.n, 1), "single"
    else:
        sub, kind = greedy_proper(current), "greedy"
    return sub, (), RoundTrace(0, kind, sub.num_colours, 0, 0.0, 0, 0, True)


def _round_colouring(
    hg: Hypergraph, d: int, seed: int, budget: int | None, halving: bool,
    palette_step: Callable[[Callable[[int], _Probe], float, int, int], _Probe | None],
) -> tuple[Colouring, tuple[RoundTrace, ...]]:
    """The round driver behind :func:`nibble_colouring` and :func:`adaptive_colouring`.

    The degree bound starts at max_degree and then halves by 2^(-r) per
    round (``halving``) or follows the residual's actual max degree.  While
    it exceeds max(d, 8) and the residual's degree exceeds d,
    ``palette_step`` probes ``nibble_round`` at threshold bound * 2^(-r),
    each probe taking the next 63 bits of ``random.Random(seed)``;
    otherwise, or when no probe succeeds, :func:`_endgame` finishes.  The
    driver counts every probe, failures included, into the round's trace.
    """
    if hg.u < 2:
        raise ValueError("round colouring needs uniformity >= 2")
    _check_defect(d)

    master = random.Random(seed)
    r = hg.u - 1
    out: list[int | None] = [None] * hg.n
    traces: list[RoundTrace] = []
    alive = list(range(hg.n))
    current = hg
    bound = float(hg.max_degree)
    offset = 0

    while alive:
        if not halving:
            bound = float(current.max_degree)
        found, tried = None, []
        if current.max_degree > d and bound > max(d, SMALL_DEGREE_CUTOFF):
            threshold = bound * 2.0 ** -r

            def attempt(k: int) -> _Probe:
                tried.append(k)
                # looked up at call time, so wrappers of nibble_round see every probe
                return nibble_round(current, d, k, threshold, budget, master.getrandbits(63))

            found = palette_step(attempt, bound, d, r)
        partial, residual, trace = found or _endgame(current, d)
        for local, c in enumerate(partial.colours):
            if c is not None:
                out[alive[local]] = offset + c
        traces.append(
            replace(trace, index=len(traces), palette_start=offset, degree_bound=bound, probes=len(tried) or 1)
        )
        offset += partial.num_colours
        if residual:
            current, kept = current.induced(residual)
            alive = [alive[old] for old in kept]
        else:
            alive = []
        bound *= 2.0 ** -r

    return Colouring(tuple(out), offset), tuple(traces)


def nibble_colouring(
    hg: Hypergraph,
    d: int,
    seed: int = 0,
    budget: int | None = None,
) -> tuple[Colouring, tuple[RoundTrace, ...]]:
    """Round-based colouring on the fixed geometric palette schedule.

    Round i colours the residual of round i-1 with a fresh palette of
    k_i = floor(49 * (D_i / (d+1))^(1/r)) colours, where D_i is the
    halving degree bound 2^(-r*i) * max_degree and r = u-1.  Because
    palettes never overlap, a monochromatic edge lives entirely inside
    one round's graph, so per-round defect guarantees survive into the
    final total colouring.  When the bound drops to max(d, 8) an exact
    endgame finishes: one fresh colour if the residual's degree is at
    most d, else a greedy proper colouring.  (A round runs only while
    D_i > max(d, 8), so k_i >= 24 and the palette never collapses.)

    Each round makes one probe at k_i; if it fails, the greedy endgame
    finishes at once.  Validity is never at stake, only colour count.
    """
    return _round_colouring(hg, d, seed, budget, halving=True, palette_step=_formula_palette)


def adaptive_colouring(
    hg: Hypergraph,
    d: int,
    seed: int = 0,
    budget: int | None = None,
) -> tuple[Colouring, tuple[RoundTrace, ...]]:
    """Round-based colouring that searches each round for a small palette.

    Same round structure as :func:`nibble_colouring`, but instead of the
    formula palette each round finds the smallest workable k by doubling
    up from 1 and then bisecting between the last failure and the first
    success.  The threshold is 2^(-r) times the residual's actual max
    degree, so degrees still at least halve per round.  If no palette up
    to twice (max degree + 1) works, a greedy proper endgame finishes the
    job; the result is always a valid d-defective total colouring.
    """
    return _round_colouring(hg, d, seed, budget, halving=False, palette_step=_searched_palette)


def graph_maxcut_colouring(hg: Hypergraph, d: int, seed: int = 0) -> Colouring:
    """Exact graph-case colouring with floor(max_degree/(d+1)) + 1 colours.

    The parts of a locally optimal partition become the colour classes.
    Local optimality bounds every vertex's same-part degree by
    max_degree / num_parts < d+1, so the colouring is d-defective with no
    probabilistic slack.

    Raises:
        ValueError: if the hypergraph is not 2-uniform.
    """
    if hg.u != 2:
        raise ValueError(f"needs a 2-uniform hypergraph, got uniformity {hg.u}")
    _check_defect(d)
    num_parts = hg.max_degree // (d + 1) + 1
    # looked up on the module at call time, so wrappers of max_cut_search apply
    return Colouring(partition.max_cut_search(hg, num_parts, seed).partition.parts, num_parts)


# Vertices per block of greedy_proper: one numpy pass per block marks what the
# edges from earlier blocks forbid, and only vertices with an edge inside their
# block are walked in Python.  Larger blocks mean fewer passes but more walked
# vertices.  Best of 15, 2 vCPU, ms, on the large-sparse instances r3 / r4 / l3
# (n=2e4, m=1.9e5 / 1e5 / 1e5, seed 1) and a u=2 chain at n=1e5: 31/19/21 and
# 137 at B=64, 29/17/20 and 131 at 128, 29/16/16 and 126 at 256, 30/17/17 and 113
# at 512, 32/19/20 and 109 at 1024.
_GREEDY_BLOCK = 256


def greedy_proper(hg: Hypergraph) -> Colouring:
    """Deterministic proper colouring with at most max_degree + 1 colours.

    Vertices are coloured in index order; a colour is forbidden for v only
    when some incident edge has all its other vertices already coloured
    with exactly that colour, so at most deg(v) colours are ever ruled out.
    Such an edge has v as its largest vertex, so each edge is read once,
    when its largest vertex is coloured.

    The vertices go in blocks of ``_GREEDY_BLOCK``.  An edge whose other
    vertices all lie before its largest vertex's block is read in one numpy
    pass per block, which marks the colour it forbids in a (block, palette so
    far + 1) table; a vertex takes the first free column of its row.  Only a
    vertex with an edge inside its block is then recoloured in Python, in
    index order, from its row and those edges.  Cost: O(m*u) array work in
    n/B block passes, plus Python work for the edges inside a block and the
    vertices they end at.
    """
    if hg.u == 1 and hg.m:
        raise ValueError("singleton edges are monochromatic under any colouring")
    n, block = hg.n, _GREEDY_BLOCK
    if not hg.m:  # every u=1 case left; it has no second column below
        return Colouring((0,) * n, 1 if n else 0)
    edges = hg.edge_array()
    last = edges[:, -1]
    inside = edges[:, -2] >= last - last % block  # another vertex lies in the largest vertex's block
    # by largest vertex, the edges inside a block last; the order within a vertex does not matter
    key = last + n * inside
    marked, inner = np.split(edges[np.argsort(key)], [np.count_nonzero(~inside)])
    starts = np.arange(0, n + block, block).clip(max=n)
    marked_starts = np.searchsorted(marked[:, -1], starts).tolist()
    # the vertices with an edge inside their block, and where their runs of such edges start
    walked, firsts = np.unique(inner[:, -1], return_index=True)
    walked_starts = np.searchsorted(walked, starts).tolist()
    vertices, runs, groups = walked.tolist(), firsts.tolist() + [len(inner)], inner[:, :-1].tolist()
    colours = np.zeros(n, dtype=np.int64)
    out: list[int] = []
    palette = 0
    bounds = starts.tolist()
    for b, (b0, b1) in enumerate(zip(bounds, bounds[1:])):
        rows = marked[marked_starts[b]:marked_starts[b + 1]]
        others = colours[rows[:, :-1]]
        mono = (others == others[:, :1]).all(axis=1)
        forbids = np.zeros((b1 - b0, palette + 1), dtype=bool)
        forbids[rows[mono, -1] - b0, others[mono, 0]] = True
        out += forbids.argmin(axis=1).tolist()  # the first free column; column palette is always free
        i0, i1 = walked_starts[b], walked_starts[b + 1]
        marks = forbids[walked[i0:i1] - b0].tolist()
        for v, lo, hi, row in zip(vertices[i0:i1], runs[i0:i1], runs[i0 + 1:i1 + 1], marks):
            forbidden = set()
            for group in groups[lo:hi]:
                shared = out[group[0]]
                for w in group:
                    if out[w] != shared:
                        break
                else:
                    forbidden.add(shared)
            c = 0
            while c <= palette and row[c] or c in forbidden:
                c += 1
            out[v] = c
        colours[b0:b1] = out[b0:b1]
        palette = max(palette, int(colours[b0:b1].max()) + 1)
    return Colouring(tuple(out), palette)


def run_engine(hg: Hypergraph, config: EngineConfig) -> EngineResult:
    """Dispatch one colouring run according to the configuration."""
    mode, d, seed, budget = config.mode, config.defect, config.seed, config.budget
    if mode == "theorem":
        return EngineResult(mode, *nibble_colouring(hg, d, seed, budget))
    if mode == "adaptive":
        return EngineResult(mode, *adaptive_colouring(hg, d, seed, budget))
    if mode == "naive-lll":
        colouring, trace = linear_lll_colouring(hg, d, seed, budget)
        return EngineResult(mode, colouring, (trace,))
    if mode == "graph-maxcut":
        colouring, kind = graph_maxcut_colouring(hg, d, seed), "maxcut"
    else:
        colouring, kind = greedy_proper(hg), "greedy"
    trace = RoundTrace(0, kind, colouring.num_colours, 0, float(hg.max_degree), 0, 0, True)
    return EngineResult(mode, colouring, (trace,))
