"""Verification, exact oracles, lower-bound certificates, and Monte Carlo probes.

Everything here either checks a colouring exactly (verify, the
backtracking oracle, the pigeonhole and grid certificates) or measures
one of the probabilities the randomised engine relies on (the probes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import Colouring, _check_defect, _check_seed, _labels, _total_labels, mono_counts
from .generators import coords_to_index, grid
from .hypergraph import Hypergraph, _runs

__all__ = [
    "DefectReport",
    "ProbeStats",
    "GridWitness",
    "SizeGuardError",
    "verify",
    "exact_defective_chromatic",
    "find_defective_colouring",
    "complete_lowerbound",
    "grid_defect_witness",
    "probe_mono_edge",
    "probe_bad_vertex",
    "bad_vertex_ceiling",
]

ORACLE_VERTEX_GUARD = 16


class SizeGuardError(ValueError):
    """An instance too large for the job was refused: brute force, or generating it."""


@dataclass(frozen=True)
class DefectReport:
    defect: int
    mono_degrees: tuple[int, ...]
    violating: tuple[int, ...]
    colours_used: int

    @property
    def max_mono_degree(self) -> int:
        return max(self.mono_degrees, default=0)

    @property
    def proper(self) -> bool:
        return self.max_mono_degree == 0

    @property
    def is_defective(self) -> bool:
        return not self.violating


def verify(hg: Hypergraph, colouring: Colouring, d: int) -> DefectReport:
    """Exact per-vertex mono degree report for a total colouring.

    Raises:
        ValueError: if any vertex is uncoloured or d < 0.
    """
    _check_defect(d)
    mono = mono_counts(hg, _total_labels(hg, colouring))
    return DefectReport(
        defect=d,
        mono_degrees=tuple(mono.tolist()),
        violating=tuple(np.flatnonzero(mono > d).tolist()),
        colours_used=colouring.distinct_used(),
    )


# -- exact oracle --------------------------------------------------------------


def find_defective_colouring(
    hg: Hypergraph, d: int, k: int, force: bool = False
) -> Colouring | None:
    """Backtracking search for any d-defective k-colouring.

    Canonical-colouring symmetry breaking: vertex v may only use colours
    up to one past the largest colour already in use, so vertex 0 always
    gets colour 0.  Mono degrees are maintained incrementally; an edge is
    (re)checked exactly when its highest vertex gets a colour, and the
    branch dies as soon as any committed mono degree passes d.

    The search is one loop over v with an explicit stack, so Python's
    recursion limit does not bound its depth.  Each coloured vertex has an
    entry: the vertices of the edges it closed, and the number of colours in
    use before it; a backtrack pops it.  Colours at or after v are never
    read, so none is reset.
    """
    _guard(hg.n, force)
    if k < 1:
        raise ValueError(f"palette must have >= 1 colours, got {k}")
    _check_defect(d)

    edges = hg.edge_array()
    last = edges[:, -1]
    # each edge under its largest vertex (the order inside a group does not matter)
    edges_by_last = list(_runs(edges[np.argsort(last)].tolist(), np.bincount(last, minlength=hg.n)))

    colours = [0] * hg.n
    mono = [0] * hg.n
    stack: list[tuple[list[int], int]] = []
    v = c = used = 0
    while v < hg.n:
        if c < min(k, used + 1):
            colours[v] = c
            closed = [w for e in edges_by_last[v] if all(colours[x] == c for x in e[:-1]) for w in e]
            for w in closed:
                mono[w] += 1
            if all(mono[w] <= d for w in closed):
                stack.append((closed, used))
                v, c, used = v + 1, 0, max(used, c + 1)
                continue
        elif stack:  # v has no colour left: back to the vertex before it
            v -= 1
            c = colours[v]
            closed, used = stack.pop()
        else:
            return None
        for w in closed:  # take the failed colour's edges back out and try the next colour
            mono[w] -= 1
        c += 1
    return Colouring(tuple(colours), k)


def exact_defective_chromatic(
    hg: Hypergraph, d: int, limit: int | None = None, force: bool = False
) -> int | None:
    """Minimum palette size admitting a d-defective colouring, up to a cap.

    Tries k = 1, 2, ... in turn with :func:`find_defective_colouring` and
    returns the first feasible k, or None when nothing up to the cap
    works.  The cap defaults to n, which always suffices (a rainbow
    colouring is proper).

    Raises:
        ValueError: if the cap is negative.
        SizeGuardError: for n > 16 unless force is set.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    _guard(hg.n, force)
    if limit is None:
        limit = max(1, hg.n)
    for k in range(1, limit + 1):
        if find_defective_colouring(hg, d, k, force=force) is not None:
            return k
    return None


def _guard(n: int, force: bool) -> None:
    if n > ORACLE_VERTEX_GUARD and not force:
        raise SizeGuardError(
            f"instance has {n} vertices; brute force past {ORACLE_VERTEX_GUARD} "
            "needs an explicit force"
        )


# -- certificates ---------------------------------------------------------------


def complete_lowerbound(n: int, u: int, k: int, d: int) -> bool:
    """Pigeonhole certificate that complete(n, u) has no d-defective k-colouring.

    Some colour class holds at least ceil(n/k) vertices, and every vertex
    of a class of size s sits in C(s-1, u-1) monochromatic edges.  True
    means "certified impossible"; False is silence, not feasibility.
    """
    if n < u:
        raise ValueError(f"need n >= u, got n={n}, u={u}")
    if k < 1 or d < 0:
        raise ValueError("need k >= 1 and d >= 0")
    largest = -(-n // k)
    return math.comb(largest - 1, u - 1) > d


@dataclass(frozen=True)
class GridWitness:
    vertex: int
    coords: tuple[int, ...]
    mono_degree: int
    class_size: int
    survivor_size: int


def grid_defect_witness(
    n: int,
    r: int,
    colouring: Colouring,
    d: int,
    hg: Hypergraph | None = None,
) -> GridWitness | None:
    """Hunt for a vertex with mono degree > d inside a grid colouring.

    Takes a largest colour class and repeatedly deletes every axis-line
    whose survivors could not supply (d+1)^(1/r) same-class partners:
    a line with c members is deficient when (c-1)^r < d+1, compared with
    integer powers so no float boundaries are involved.  (The minus one
    matters: the vertex itself sits on each of its lines, and only the
    others can serve as partners.)  If anything survives the fixed point,
    the survivor with the smallest coordinate sum (ties lexicographic)
    has at least (d+1)^(1/r) strictly-larger partners per axis, hence at
    least d+1 monochromatic edges.  Returns that vertex with its measured
    mono degree, or None when the class erodes away.

    The guarantee needs few enough colours (roughly (Δ/(d+1))^(1/r)/r);
    with many colours the procedure simply returns None.  A given ``hg``
    must have the grid's n, u and m; it is checked before any grid is built.
    """
    if len(colouring.colours) != n**r:
        raise ValueError(f"colouring covers {len(colouring.colours)} vertices, grid has {n ** r}")
    if not colouring.is_total:
        raise ValueError("grid witness needs a total colouring")
    _check_defect(d)
    shape = (n**r, r + 1, (n * (n - 1) // 2) ** r)
    if hg is None:
        hg = grid(n, r)
    elif (hg.n, hg.u, hg.m) != shape:
        raise ValueError(f"hg has (n, u, m) = {(hg.n, hg.u, hg.m)}, grid({n}, {r}) has {shape}")

    colours = _labels(colouring)
    labels, sizes = np.unique(colours, return_counts=True)
    best = np.argmax(sizes)  # the first largest class: ties go to the smallest colour
    alive = (colours == labels[best]).reshape((n,) * r)
    need = min(d + 1, n**r)  # (c-1)^r < n^r: exact in int64, and deficient past n^r
    survivors = -1
    while survivors != (survivors := int(alive.sum())):  # until a sweep deletes nothing
        for axis in range(r):
            alive &= (alive.sum(axis, keepdims=True) - 1) ** r >= need

    if not survivors:
        return None
    points = np.argwhere(alive)  # row-major, so lexicographic
    pick = tuple((points[np.argmin(points.sum(axis=1))] + 1).tolist())
    vertex = coords_to_index(pick, n)
    return GridWitness(
        vertex=vertex,
        coords=pick,
        mono_degree=int(mono_counts(hg, colours)[vertex]),
        class_size=int(sizes[best]),
        survivor_size=survivors,
    )


# -- Monte Carlo probes ----------------------------------------------------------


@dataclass(frozen=True)
class ProbeStats:
    trials: int
    count: int

    @property
    def estimate(self) -> float:
        return self.count / self.trials

    @property
    def se(self) -> float:
        p = self.estimate
        return math.sqrt(p * (1.0 - p) / self.trials)


# Trials drawn and counted per step of the probes, so their memory stays flat however many are asked for;
# numpy takes bounded int32 values from the stream one at a time, so the chunks hold the values of one draw.
_PROBE_ROWS = 2**16


def probe_mono_edge(hg: Hypergraph, k: int, trials: int, seed: int = 0) -> ProbeStats:
    """Estimate the probability that the first edge comes out monochromatic.

    This is the one-edge bad-vertex probe: the event is vertex 0's at d = 0
    on a single edge of u vertices, so the same u colours are drawn per trial
    and the counts are the same.  The estimate targets k^(-r) with r = u-1.
    """
    if hg.m < 1:
        raise ValueError("needs at least one edge")
    return probe_bad_vertex(Hypergraph(hg.u, hg.u, [range(hg.u)]), k, 0, 0, trials, seed)


def probe_bad_vertex(
    hg: Hypergraph, k: int, d: int, v: int, trials: int, seed: int = 0
) -> ProbeStats:
    """Estimate P(mono degree of v >= d+1) under a uniform k-colouring.

    Only the closed neighbourhood of v is drawn; every edge through v
    lives inside it.  Compare the estimate against
    :func:`bad_vertex_ceiling`, the Markov bound deg(v) * k^(-r) / (d+1).
    """
    hg._check_vertex(v)
    if not 1 <= k <= 2**31 or trials < 1 or d < 0:  # the colours are drawn as int32
        raise ValueError(f"need 1 <= k <= 2**31, trials >= 1, d >= 0; got k={k}, trials={trials}, d={d}")
    _check_seed(seed)
    edges = hg.edge_array()
    through = edges[(edges == v).any(axis=1)]
    support = np.union1d(through, [v])  # sorted, and {v} alone when v is isolated
    columns = np.searchsorted(support, through)
    rng = np.random.default_rng(seed)
    count = 0
    for start in range(0, trials, _PROBE_ROWS):
        draws = rng.integers(0, k, size=(min(_PROBE_ROWS, trials - start), len(support)), dtype=np.int32)
        # the per-edge comparisons are a temporary, so they die with their chunk
        degree = np.sum([(draws[:, cols] == draws[:, cols[:1]]).all(axis=1) for cols in columns], axis=0)
        count += np.count_nonzero(degree >= d + 1)  # 0 >= d + 1 when v lies on no edge
    return ProbeStats(trials, count)


def bad_vertex_ceiling(hg: Hypergraph, v: int, k: int, d: int) -> float:
    """Markov bound on P(mono degree of v >= d+1): deg(v) * k^(-r) / (d+1)."""
    r = hg.u - 1
    return hg.degree([v]) * float(k) ** (-r) / (d + 1)
