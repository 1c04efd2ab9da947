"""Constructive sunflower finding and edge-disjoint sunflower decomposition.

A sunflower is a family of edges whose pairwise intersections all equal a
common core; the petals (edges minus core) are then pairwise disjoint.  A
matching is the core-empty special case, and a single edge is treated as a
matching of one (empty core, the whole edge as its petal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hypergraph import Hypergraph, VertexSet, as_vertex_set

__all__ = [
    "Sunflower",
    "SunflowerDecomposition",
    "as_sunflower",
    "find_sunflower",
    "decompose",
    "leftover_bound",
]


@dataclass(frozen=True)
class Sunflower:
    core: VertexSet
    petals: tuple[VertexSet, ...]

    def __post_init__(self) -> None:
        if not self.petals:
            raise ValueError("a sunflower needs at least one petal")
        core = set(self.core)
        sizes = {len(p) for p in self.petals}
        if len(sizes) != 1 or 0 in sizes:
            raise ValueError("petals must be nonempty and all the same size")
        seen: set[int] = set()
        for petal in self.petals:
            ps = set(petal)
            if ps & core:
                raise ValueError("petal overlaps the core")
            if ps & seen:
                raise ValueError("petals must be pairwise disjoint")
            seen |= ps

    @property
    def petal_count(self) -> int:
        return len(self.petals)

    def edges(self) -> tuple[VertexSet, ...]:
        """The edges this sunflower stands for: core union each petal."""
        return tuple(tuple(sorted(self.core + petal)) for petal in self.petals)


@dataclass(frozen=True)
class SunflowerDecomposition:
    sunflowers: tuple[Sunflower, ...]
    leftover: tuple[VertexSet, ...]
    petal_count: int
    uniformity: int

    @property
    def leftover_cap(self) -> int:
        return leftover_bound(self.uniformity, self.petal_count)


def leftover_bound(uniformity: int, a: int) -> int:
    """u! * (a-1)^u, the guaranteed ceiling on edges left undecomposed."""
    return math.factorial(uniformity) * (a - 1) ** uniformity


def as_sunflower(edges: Sequence[VertexSet]) -> Sunflower | None:
    """Build the Sunflower described by these edges, or None if they are not one.

    The core is the common intersection, except that a single edge gets an
    empty core (so its one petal is nonempty).

    Raises:
        ValueError: on zero edges, repeated edges, or mixed edge sizes.
    """
    if len(edges) < 1:
        raise ValueError("need at least one edge")
    canon = [as_vertex_set(e) for e in edges]
    if len({len(e) for e in canon}) != 1:
        raise ValueError("edges must all have the same size")
    if len(set(canon)) != len(canon):
        raise ValueError("edges must be distinct")

    if len(canon) == 1:
        return Sunflower(core=(), petals=(canon[0],))

    core = set(canon[0])
    for e in canon[1:]:
        core &= set(e)
    petals = [tuple(v for v in e if v not in core) for e in canon]
    union = set()
    for p in petals:
        union.update(p)
    if len(union) != sum(len(p) for p in petals):
        return None
    return Sunflower(core=as_vertex_set(core), petals=tuple(petals))


def find_sunflower(hg: Hypergraph, a: int) -> Sunflower | None:
    """Search for a sunflower with exactly ``a`` petals.

    Classical constructive argument: greedily build a maximal matching by
    scanning edges in index order.  With ``a`` or more matched edges, the
    first ``a`` of them are a core-empty sunflower.  Otherwise every edge
    meets the (at most u*(a-1)) matched vertices, so the busiest matched
    vertex carries a 1/(u*(a-1)) fraction of all edges; recurse on its
    link and prepend it to the core.  Guaranteed to succeed whenever
    e(H) > u! * (a-1)^u.

    Ties for the busiest vertex go to the smallest index, which keeps the
    whole search deterministic.
    """
    if a < 1:
        raise ValueError(f"petal count must be >= 1, got {a}")
    if hg.m < a:
        return None

    matched_edges: list[VertexSet] = []
    matched_vertices: set[int] = set()
    for row in hg.edge_array():  # row by row: the scan usually stops after a few edges
        e = tuple(row.tolist())
        if matched_vertices.isdisjoint(e):
            matched_edges.append(e)
            matched_vertices.update(e)
            if len(matched_edges) == a:
                return Sunflower(core=(), petals=tuple(matched_edges))

    busiest = min(matched_vertices, key=lambda v: (-hg.degree([v]), v))
    link, old_of_new = hg.link(busiest)
    inner = find_sunflower(link, a)
    if inner is None:
        return None
    core = as_vertex_set([old_of_new[v] for v in inner.core] + [busiest])
    petals = tuple(as_vertex_set(old_of_new[v] for v in petal) for petal in inner.petals)
    return Sunflower(core=core, petals=petals)


def decompose(hg: Hypergraph, a: int) -> SunflowerDecomposition:
    """Greedily extract edge-disjoint a-petal sunflowers until none is found.

    Each extracted sunflower's edges are removed before searching again,
    so the collection is edge-disjoint by construction and maximal for
    this (deterministic) extraction order.  The leftover always fits
    under u! * (a-1)^u edges.
    """
    if a < 1:
        raise ValueError(f"petal count must be >= 1, got {a}")
    remaining = hg.edge_array()
    flowers: list[Sunflower] = []
    while len(remaining):
        found = find_sunflower(Hypergraph(hg.n, hg.u, remaining), a)
        if found is None:
            break
        extracted = np.array(found.edges())
        remaining = remaining[~(remaining[:, None, :] == extracted).all(axis=2).any(axis=1)]
        flowers.append(found)
    return SunflowerDecomposition(
        sunflowers=tuple(flowers),
        leftover=tuple(map(tuple, remaining.tolist())),
        petal_count=a,
        uniformity=hg.u,
    )
