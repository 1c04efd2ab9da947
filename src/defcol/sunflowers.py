"""Constructive sunflower finding and edge-disjoint sunflower decomposition.

A sunflower is a family of edges whose pairwise intersections all equal a
common core; the petals (edges minus core) are then pairwise disjoint.  A
matching is the core-empty special case, and a single edge is treated as a
matching of one (empty core, the whole edge as its petal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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
        for part in (self.core, *self.petals):
            if not (isinstance(part, tuple) and all(v < w for v, w in zip(part, part[1:]))):
                raise ValueError(f"core and petals must be strictly increasing tuples, got {part!r}")
        sizes = {len(p) for p in self.petals}
        if len(sizes) != 1 or 0 in sizes:
            raise ValueError("petals must be nonempty and all the same size")
        seen = set(self.core)  # the core, then the petals checked so far
        for petal in self.petals:
            if not seen.isdisjoint(petal):
                if any(v in self.core for v in petal):
                    raise ValueError("petal overlaps the core")
                raise ValueError("petals must be pairwise disjoint")
            seen.update(petal)

    @property
    def petal_count(self) -> int:
        return len(self.petals)

    def edges(self) -> tuple[VertexSet, ...]:
        """The edges this sunflower stands for: core union each petal."""
        if not self.core:
            return self.petals
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


def _check_petals(a: int) -> None:
    """Refuse a sunflower of fewer than one petal."""
    if a < 1:
        raise ValueError(f"petal count must be >= 1, got {a}")


def leftover_bound(uniformity: int, a: int) -> int:
    """u! * (a-1)^u, the guaranteed ceiling on edges left undecomposed."""
    _check_petals(a)
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

    core = set(canon[0]).intersection(*canon[1:]) if len(canon) > 1 else set()
    petals = tuple(tuple(v for v in e if v not in core) for e in canon)
    # distinct sorted edges of one size leave petals that are nonempty, sorted,
    # of one size and off the core, so Sunflower refuses them only when two share a vertex
    try:
        return Sunflower(core=as_vertex_set(core), petals=petals)
    except ValueError:
        return None


class _AliveRows:
    """The alive rows of one edge array, in index order, with live vertex degrees.

    :func:`decompose` keeps one over its input and drops the rows of each
    sunflower it extracts.  :func:`find_sunflower` reads it in place of a
    ``Hypergraph``: ``m``, :meth:`degree` and :meth:`link` answer as the
    ``Hypergraph`` of the alive rows would (a link reads the rows through
    its vertex from the input's :meth:`Hypergraph.incidence`), and its scan
    walks ``rows`` along ``skip``.  A row is alive while its skip entry is
    the row itself; a dropped row's entry is a later row, so following
    skips (halving the path on the way) finds the next alive row and no
    scan walks a run of dropped rows twice.
    """

    def __init__(self, hg: Hypergraph):
        self._hg = hg
        self.rows: list[VertexSet] = list(map(tuple, hg.edge_array().tolist()))
        self.m = len(self.rows)  # alive rows
        self._degrees = hg.degrees()  # over the alive rows
        self.skip = list(range(self.m + 1))  # the last entry stands for the end

    def degree(self, vertices: Iterable[int]) -> int:
        """The number of alive rows through the one vertex given."""
        (v,) = vertices
        return self._degrees[v]

    def drop(self, indices: Iterable[int]) -> None:
        """Drop alive rows by index and lower their vertices' degrees."""
        for i in indices:
            self.skip[i] = i + 1
            self.m -= 1
            for w in self.rows[i]:
                self._degrees[w] -= 1

    def link(self, v: int) -> Hypergraph:
        """``Hypergraph.link(v)`` of the alive rows, cut from only the alive rows through ``v``."""
        hg = self._hg
        starts, ids = hg.incidence()
        through = [i for i in ids[starts[v] : starts[v + 1]].tolist() if self.skip[i] == i]
        return Hypergraph._trusted(hg.n, hg.u, hg.edge_array()[through]).link(v)


def find_sunflower(hg: Hypergraph | _AliveRows, a: int) -> Sunflower | None:
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

    ``hg`` is a ``Hypergraph`` or the private alive-rows view that
    :func:`decompose` keeps.  A search costs the rows its scan walks and,
    when the matching stays short, one link and the same search on it.  A
    view cuts the link from the O(deg v) alive rows through the busiest
    vertex v (plus the link's n-long degree count); a ``Hypergraph``
    masks all its rows.  A link keeps its host's labels, so the inner
    sunflower's core and petals are already in the caller's labels.
    """
    _check_petals(a)
    if hg.m < a:
        return None

    matched_edges: list[VertexSet] = []
    matched_vertices: set[int] = set()
    # the scan usually stops after a few edges
    if isinstance(hg, _AliveRows):
        # the walk is inline, so a row costs no generator step or call
        rows, skip, i = hg.rows, hg.skip, 0
        while len(matched_edges) < a:
            while skip[i] != i:  # to the next alive row, halving the path
                skip[i] = skip[skip[i]]
                i = skip[i]
            if i == len(rows):
                break
            if matched_vertices.isdisjoint(rows[i]):
                matched_edges.append(rows[i])
                matched_vertices.update(rows[i])
            i += 1
    else:
        for e in (tuple(r.tolist()) for r in hg.edge_array()):
            if matched_vertices.isdisjoint(e):
                matched_edges.append(e)
                matched_vertices.update(e)
                if len(matched_edges) == a:
                    break
    if len(matched_edges) == a:
        return Sunflower(core=(), petals=tuple(matched_edges))

    busiest = min(matched_vertices, key=lambda v: (-hg.degree([v]), v))
    inner = find_sunflower(hg.link(busiest), a)
    if inner is None:
        return None
    return Sunflower(core=as_vertex_set([*inner.core, busiest]), petals=inner.petals)


def decompose(hg: Hypergraph, a: int) -> SunflowerDecomposition:
    """Greedily extract edge-disjoint a-petal sunflowers until none is found.

    Each extracted sunflower's edges are removed before searching again,
    so the collection is edge-disjoint by construction and maximal for
    this (deterministic) extraction order.  The leftover always fits
    under u! * (a-1)^u edges.

    One alive-rows view of the input serves every search, so no
    ``Hypergraph`` is rebuilt for an extraction.  Beyond its search (see
    :func:`find_sunflower`), an extraction costs O(a*u): its a rows are
    found through a row -> index map made once, dropped, and their
    vertices' live degrees lowered.
    """
    _check_petals(a)
    alive = _AliveRows(hg)
    index_of = {row: i for i, row in enumerate(alive.rows)}
    flowers: list[Sunflower] = []
    while alive.m:
        found = find_sunflower(alive, a)
        if found is None:
            break
        alive.drop(index_of[e] for e in found.edges())
        flowers.append(found)
    return SunflowerDecomposition(
        sunflowers=tuple(flowers),
        leftover=tuple(row for i, row in enumerate(alive.rows) if alive.skip[i] == i),
        petal_count=a,
        uniformity=hg.u,
    )
