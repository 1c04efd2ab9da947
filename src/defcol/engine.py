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
and in the palette step (the formula with doublings, or a search that
doubles and then bisects).  One Moser-Tardos loop serves ``nibble_round``
and ``naive-lll``: it redraws the cached variable support of the
lowest-index violated vertex until none is left.  One vectorised kernel,
:func:`mono_counts`, counts monochromatic edges per vertex for the engine,
:func:`classify` and ``analysis.verify``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .hypergraph import Hypergraph

__all__ = [
    "MODES",
    "Colouring",
    "RoundTrace",
    "EngineConfig",
    "EngineResult",
    "BudgetExhaustedError",
    "default_budget",
    "uniform_colouring",
    "mono_degree",
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
    """Default resample budget for one round: 1000 per vertex."""
    return max(1, 1000 * n)


@dataclass(frozen=True)
class Colouring:
    """A (possibly partial) assignment of colours out of a declared palette."""

    colours: tuple[int | None, ...]
    num_colours: int

    def __post_init__(self) -> None:
        for v, c in enumerate(self.colours):
            if c is not None and not 0 <= c < self.num_colours:
                raise ValueError(f"vertex {v} has colour {c}, outside palette 0..{self.num_colours - 1}")

    @property
    def is_total(self) -> bool:
        return all(c is not None for c in self.colours)

    def distinct_used(self) -> int:
        return len({c for c in self.colours if c is not None})

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
        if self.defect < 0:
            raise ValueError(f"defect must be >= 0, got {self.defect}")
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")


@dataclass(frozen=True)
class EngineResult:
    mode: str
    colouring: Colouring
    traces: tuple[RoundTrace, ...]


_Probe = tuple[Colouring, tuple[int, ...] | None, RoundTrace]


# -- elementary operations ----------------------------------------------------


def uniform_colouring(hg: Hypergraph, k: int, seed: int = 0) -> Colouring:
    """Independent uniform colour draws for every vertex."""
    if k < 1:
        raise ValueError(f"palette must have >= 1 colours, got {k}")
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, k, size=hg.n)
    return Colouring(tuple(int(c) for c in draws), k)


def mono_degree(hg: Hypergraph, colouring: Colouring, v: int) -> int:
    """Number of edges through v whose vertices all share v's colour.

    Edges with any uncoloured vertex never count.

    Raises:
        ValueError: if v itself is uncoloured.
    """
    cols = colouring.colours
    cv = cols[v]
    if cv is None:
        raise ValueError(f"vertex {v} is uncoloured")
    count = 0
    for idx in hg.incident(v):
        if all(cols[w] == cv for w in hg.edges[idx]):
            count += 1
    return count


def mono_counts(edges: np.ndarray, colours: np.ndarray, n: int) -> np.ndarray:
    """Per-vertex number of monochromatic edges under a total colour vector.

    ``edges`` is an (m, u) vertex array such as :meth:`Hypergraph.edge_array`
    and ``colours`` holds one label per vertex; only label equality matters.
    """
    ec = colours[edges]
    mono = (ec == ec[:, :1]).all(axis=1)
    return np.bincount(edges[mono].ravel(), minlength=n)


def _classify_arrays(
    colours: np.ndarray, edges: np.ndarray, n: int, d: int, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """(bad mask, terrible mask) for a total colour vector."""
    bad = mono_counts(edges, colours, n) >= d + 1
    bad_count = np.bincount(edges[bad[edges].all(axis=1)].ravel(), minlength=n)
    return bad, bad_count > threshold


def classify(
    hg: Hypergraph,
    colouring: Colouring,
    d: int,
    bad_edge_threshold: float | None = None,
) -> tuple[set[int], set[int]]:
    """Split vertices into bad and terrible under a total colouring.

    A vertex is bad when its monochromatic degree is at least d+1.  An
    edge is bad when every one of its vertices is bad (it need not be
    monochromatic itself).  A vertex is terrible when it lies in strictly
    more bad edges than the threshold, which defaults to 2^(-r) * max
    degree with r = u-1.

    Returns:
        (bad vertices, terrible vertices)
    """
    if not colouring.is_total:
        raise ValueError("classification needs a total colouring")
    if bad_edge_threshold is None:
        bad_edge_threshold = hg.max_degree * 2.0 ** -(hg.u - 1)
    colours = np.asarray(colouring.colours)
    bad, terrible = _classify_arrays(colours, hg.edge_array(), hg.n, d, bad_edge_threshold)
    return set(np.flatnonzero(bad).tolist()), set(np.flatnonzero(terrible).tolist())


def closed_second_neighbourhood(hg: Hypergraph, v: int) -> tuple[int, ...]:
    """All vertices within hypergraph distance 2 of v, v included."""
    nbr = hg.neighbour_sets()
    first = set(nbr[v])
    first.add(v)
    second = set(first)
    for w in first:
        second |= nbr[w]
    return tuple(sorted(second))


# -- the resample loop -----------------------------------------------------------


def _resample(
    hg: Hypergraph, k: int, seed: int, budget: int | None,
    violated: Callable[[np.ndarray], np.ndarray], support: Callable[[int], Sequence[int]],
) -> tuple[np.ndarray, int, bool]:
    """Moser-Tardos resampling shared by every round mode.

    Draws a uniform k-colouring, then, while ``violated(colours)`` flags a
    vertex, redraws ``support(v)`` of the lowest-index flagged vertex v
    (each support is computed once and cached).  Stops on success, when
    the budget (default :func:`default_budget`) is spent, or at once when
    k == 1: redrawing from a one-colour palette changes nothing.

    Returns:
        (colour vector, resamples made, whether no vertex is flagged)
    """
    if budget is None:
        budget = default_budget(hg.n)
    rng = np.random.default_rng(seed)
    colours = rng.integers(0, k, size=hg.n, dtype=np.int64)
    supports: dict[int, np.ndarray] = {}
    resamples = 0
    while True:
        flagged = violated(colours)
        if not flagged.any():
            return colours, resamples, True
        if resamples >= budget or k == 1:
            return colours, resamples, False
        target = int(np.argmax(flagged))
        if target not in supports:
            supports[target] = np.asarray(support(target), dtype=np.int64)
        colours[supports[target]] = rng.integers(0, k, size=supports[target].shape[0])
        resamples += 1


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
    if d < 0:
        raise ValueError(f"defect must be >= 0, got {d}")
    if threshold is None:
        threshold = hg.max_degree * 2.0 ** -(hg.u - 1)

    edges = hg.edge_array()
    colours, resamples, succeeded = _resample(
        hg, k, seed, budget,
        lambda c: _classify_arrays(c, edges, hg.n, d, threshold)[1],
        lambda v: closed_second_neighbourhood(hg, v),
    )
    trace = RoundTrace(0, "nibble", k, 0, float(hg.max_degree), resamples, 0, succeeded)
    if not succeeded:
        return Colouring(tuple(colours.tolist()), k), None, trace
    bad = mono_counts(edges, colours, hg.n) > d
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
    if d < 0:
        raise ValueError(f"defect must be >= 0, got {d}")
    if not hg.is_linear():
        raise ValueError("hypergraph is not linear (two edges share two or more vertices)")
    if budget is None:
        budget = default_budget(hg.n)

    k = max(1, math.floor(100.0 * (hg.max_degree / (d + 1)) ** (1.0 / (hg.u - 1))))
    edges, nbr = hg.edge_array(), hg.neighbour_sets()
    colours, resamples, succeeded = _resample(
        hg, k, seed, budget,
        lambda c: mono_counts(edges, c, hg.n) > d,
        lambda v: sorted(nbr[v] | {v}),
    )
    if not succeeded:
        raise BudgetExhaustedError(
            f"no d-defective colouring found within {budget} resamples (k={k})"
        )
    trace = RoundTrace(0, "lll", k, 0, float(hg.max_degree), resamples, 0, True)
    return Colouring(tuple(colours.tolist()), k), trace


# -- the round driver -----------------------------------------------------------


def _formula_palette(attempt: Callable[[int], _Probe], bound: float, d: int, r: int):
    """Theorem palette: k = floor(49 * (bound/(d+1))^(1/r)), doubled up to 5 times."""
    k = math.floor(49.0 * (bound / (d + 1)) ** (1.0 / r))
    for probes in range(1, 7):
        found = attempt(k)
        if found[2].succeeded:
            return found, probes
        k *= 2
    return None, 6


def _searched_palette(attempt: Callable[[int], _Probe], bound: float, d: int, r: int):
    """Adaptive palette: double k from 1 to the first success, then bisect down.

    Doubling stops past 2 * (bound + 1); greedy would use fewer colours.
    """
    found, probes, k = None, 0, 1
    while k <= 2 * (bound + 1):
        probes += 1
        found = attempt(k)
        if found[2].succeeded:
            break
        k *= 2
    else:
        return None, probes
    lo, hi = k // 2 + 1, k
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        outcome = attempt(mid)
        if outcome[2].succeeded:
            hi, found = mid, outcome
        else:
            lo = mid + 1
    return found, probes


def _endgame(current: Hypergraph, d: int) -> tuple[Colouring, tuple[int, ...], RoundTrace]:
    """Exact finish: one colour if the degree is at most d, else greedy proper."""
    if current.max_degree <= d:
        sub, kind = Colouring((0,) * current.n, 1), "single"
    else:
        sub, kind = greedy_proper(current), "greedy"
    return sub, (), RoundTrace(0, kind, sub.num_colours, 0, 0.0, 0, 0, True)


def _round_colouring(
    hg: Hypergraph, d: int, seed: int, budget: int | None, halving: bool,
    palette_step: Callable[[Callable[[int], _Probe], float, int, int], tuple[_Probe | None, int]],
) -> tuple[Colouring, tuple[RoundTrace, ...]]:
    """The round driver behind :func:`nibble_colouring` and :func:`adaptive_colouring`.

    The degree bound starts at max_degree and then halves by 2^(-r) per
    round (``halving``) or follows the residual's actual max degree.  While
    it exceeds max(d, 8) and the residual's degree exceeds d,
    ``palette_step`` probes ``nibble_round`` at threshold bound * 2^(-r),
    each probe taking the next 63 bits of ``random.Random(seed)``;
    otherwise, or when no probe succeeds, :func:`_endgame` finishes.
    """
    if hg.u < 2:
        raise ValueError("round colouring needs uniformity >= 2")
    if d < 0:
        raise ValueError(f"defect must be >= 0, got {d}")

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
        found, probes = None, 1
        if current.max_degree > d and bound > max(d, SMALL_DEGREE_CUTOFF):
            threshold = bound * 2.0 ** -r

            def attempt(k: int) -> _Probe:
                # looked up at call time, so wrappers of nibble_round see every probe
                return nibble_round(current, d, k, threshold, budget, master.getrandbits(63))

            found, probes = palette_step(attempt, bound, d, r)
        partial, residual, trace = found or _endgame(current, d)
        for local, c in enumerate(partial.colours):
            if c is not None:
                out[alive[local]] = offset + c
        traces.append(
            replace(trace, index=len(traces), palette_start=offset, degree_bound=bound, probes=probes)
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

    Failed rounds escalate by doubling k up to 5 times, then fall back to
    the greedy endgame; validity is never at stake, only colour count.
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
    from .partition import max_cut_search  # at call time, so wrappers of it apply

    if hg.u != 2:
        raise ValueError(f"needs a 2-uniform hypergraph, got uniformity {hg.u}")
    if d < 0:
        raise ValueError(f"defect must be >= 0, got {d}")
    num_parts = hg.max_degree // (d + 1) + 1
    return Colouring(max_cut_search(hg, num_parts, seed).partition.parts, num_parts)


def greedy_proper(hg: Hypergraph) -> Colouring:
    """Deterministic proper colouring with at most max_degree + 1 colours.

    Vertices are coloured in index order; a colour is forbidden for v only
    when some incident edge has all its other vertices already coloured
    with exactly that colour, so at most deg(v) colours are ever ruled out.
    Such an edge has v as its largest vertex, so each edge is read once,
    when its largest vertex is coloured.
    """
    if hg.u == 1 and hg.m:
        raise ValueError("singleton edges are monochromatic under any colouring")
    edges = hg.edge_array()
    last = edges[:, -1]
    # the other vertices of each edge, grouped by the edge's largest vertex
    # (the order inside a group does not matter)
    heads = edges[np.argsort(last), :-1].tolist()
    ends = np.cumsum(np.bincount(last, minlength=hg.n)).tolist()
    out = [0] * hg.n
    start = 0
    for v, end in enumerate(ends):
        forbidden = set()
        for others in heads[start:end]:
            shared = out[others[0]]
            for w in others:
                if out[w] != shared:
                    break
            else:
                forbidden.add(shared)
        start = end
        c = 0
        while c in forbidden:
            c += 1
        out[v] = c
    palette = max(out) + 1 if hg.n else 0
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
