"""Verification, exact oracles, lower-bound certificates, and Monte Carlo probes.

Everything here either checks a colouring exactly (verify, the
backtracking oracle, the pigeonhole and grid certificates) or measures
one of the probabilities the randomised engine relies on (the probes).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .engine import Colouring, mono_counts, mono_degree
from .generators import coords_to_index, grid, index_to_coords
from .hypergraph import Hypergraph

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
    if d < 0:
        raise ValueError(f"defect must be >= 0, got {d}")
    if len(colouring.colours) != hg.n:
        raise ValueError(f"colouring covers {len(colouring.colours)} vertices, hypergraph has {hg.n}")
    if not colouring.is_total:
        missing = colouring.uncoloured()
        raise ValueError(f"colouring leaves {len(missing)} vertices uncoloured (first: {missing[:5]})")

    # no fixed dtype: labels past int64 become an object array, still exact
    mono = mono_counts(hg.edge_array(), np.asarray(colouring.colours), hg.n)
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
    """
    _guard(hg.n, force)
    if k < 1:
        raise ValueError(f"palette must have >= 1 colours, got {k}")
    if d < 0:
        raise ValueError(f"defect must be >= 0, got {d}")
    if hg.n == 0:
        return Colouring((), k)

    edges_by_last: list[list[tuple[int, ...]]] = [[] for _ in range(hg.n)]
    for e in hg.edges:
        edges_by_last[e[-1]].append(e)

    colours = [-1] * hg.n
    mono = [0] * hg.n

    def completes_ok(v: int, c: int) -> list[tuple[int, ...]] | None:
        """Commit newly monochromatic edges at v, or None on a violation."""
        newly = [
            e for e in edges_by_last[v]
            if all(colours[w] == c for w in e[:-1])
        ]
        for e in newly:
            for w in e:
                mono[w] += 1
        for e in newly:
            for w in e:
                if mono[w] > d:
                    for e2 in newly:
                        for w2 in e2:
                            mono[w2] -= 1
                    return None
        return newly

    def search(v: int, used: int) -> bool:
        if v == hg.n:
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

    if search(0, 0):
        return Colouring(tuple(colours), k)
    return None


def exact_defective_chromatic(
    hg: Hypergraph, d: int, limit: int | None = None, force: bool = False
) -> int | None:
    """Minimum palette size admitting a d-defective colouring, up to a cap.

    Tries k = 1, 2, ... in turn with :func:`find_defective_colouring` and
    returns the first feasible k, or None when nothing up to the cap
    works.  The cap defaults to n, which always suffices (a rainbow
    colouring is proper).

    Raises:
        SizeGuardError: for n > 16 unless force is set.
    """
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
    with many colours the procedure simply returns None.
    """
    if hg is None:
        hg = grid(n, r)
    if len(colouring.colours) != n**r:
        raise ValueError(f"colouring covers {len(colouring.colours)} vertices, grid has {n ** r}")
    if not colouring.is_total:
        raise ValueError("grid witness needs a total colouring")
    if d < 0:
        raise ValueError(f"defect must be >= 0, got {d}")

    classes: dict[int, list[int]] = defaultdict(list)
    for v, c in enumerate(colouring.colours):
        classes[c].append(v)
    best_colour = max(classes, key=lambda c: (len(classes[c]), -c))
    class_size = len(classes[best_colour])
    survivors = {index_to_coords(v, n, r) for v in classes[best_colour]}

    changed = True
    while changed:
        changed = False
        for axis in range(r):
            lines: dict[tuple[int, ...], list[tuple[int, ...]]] = defaultdict(list)
            for p in survivors:
                lines[p[:axis] + p[axis + 1:]].append(p)
            doomed = [
                members
                for members in lines.values()
                if (len(members) - 1) ** r < d + 1
            ]
            for members in doomed:
                survivors.difference_update(members)
                changed = True

    if not survivors:
        return None
    pick = min(survivors, key=lambda p: (sum(p), p))
    vertex = coords_to_index(pick, n)
    return GridWitness(
        vertex=vertex,
        coords=pick,
        mono_degree=mono_degree(hg, colouring, vertex),
        class_size=class_size,
        survivor_size=len(survivors),
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


def probe_mono_edge(hg: Hypergraph, k: int, trials: int, seed: int = 0) -> ProbeStats:
    """Estimate the probability that the first edge comes out monochromatic.

    The event reads only the edge's own colours, so only those are drawn;
    the estimate targets k^(-r) with r = u-1.
    """
    if hg.m < 1:
        raise ValueError("needs at least one edge")
    if k < 1 or trials < 1:
        raise ValueError("need k >= 1 and trials >= 1")
    e = hg.edges[0]
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, k, size=(trials, len(e)), dtype=np.int32)
    hits = (draws == draws[:, :1]).all(axis=1)
    return ProbeStats(trials, int(hits.sum()))


def probe_bad_vertex(
    hg: Hypergraph, k: int, d: int, v: int, trials: int, seed: int = 0
) -> ProbeStats:
    """Estimate P(mono degree of v >= d+1) under a uniform k-colouring.

    Only the closed neighbourhood of v is drawn; every edge through v
    lives inside it.  Compare the estimate against
    :func:`bad_vertex_ceiling`, the Markov bound deg(v) * k^(-r) / (d+1).
    """
    if not 0 <= v < hg.n:
        raise ValueError(f"vertex {v} outside 0..{hg.n - 1}")
    if k < 1 or trials < 1 or d < 0:
        raise ValueError("need k >= 1, trials >= 1 and d >= 0")
    incident = hg.incident(v)
    support = sorted(set(hg.neighbour_sets()[v]) | {v})
    column = {w: i for i, w in enumerate(support)}

    rng = np.random.default_rng(seed)
    draws = rng.integers(0, k, size=(trials, len(support)), dtype=np.int32)
    mono_count = np.zeros(trials, dtype=np.int64)
    for idx in incident:
        cols = [column[w] for w in hg.edges[idx]]
        sub = draws[:, cols]
        mono_count += (sub == sub[:, :1]).all(axis=1)
    hits = mono_count >= d + 1
    return ProbeStats(trials, int(hits.sum()))


def bad_vertex_ceiling(hg: Hypergraph, v: int, k: int, d: int) -> float:
    """Markov bound on P(mono degree of v >= d+1): deg(v) * k^(-r) / (d+1)."""
    r = hg.u - 1
    return len(hg.incident(v)) * float(k) ** (-r) / (d + 1)
