"""Finite uniform hypergraphs with an eager incidence index.

Vertices are integers ``0 .. n-1``; an edge is a set of exactly ``u``
distinct vertices, stored as a sorted tuple.  The plain-text instance
format used by the command line tools lives here too, next to the type
it describes.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "VertexSet",
    "Hypergraph",
    "InstanceFormatError",
    "as_vertex_set",
    "parse_instance",
    "format_instance",
]

# A VertexSet is a strictly increasing tuple of vertex indices.
VertexSet = tuple[int, ...]


def as_vertex_set(vertices: Iterable[int]) -> VertexSet:
    """Normalise an iterable of vertex indices into a sorted, distinct tuple."""
    return tuple(sorted(set(vertices)))


class InstanceFormatError(ValueError):
    """Raised when instance or assignment text is malformed.

    Carries the 1-based line number of the offending line so command line
    error messages can point at it.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Hypergraph:
    """A ``u``-uniform hypergraph on ``n`` vertices.

    Edges must each contain exactly ``u`` distinct vertices in range, and
    duplicate edges are rejected.  A vertex-to-incident-edges index is
    built eagerly at construction; degree queries never scan the whole
    edge list when a smaller incidence list will do.

    ``u >= 2`` is the usual case; ``u == 1`` is permitted so that links of
    2-uniform hypergraphs (whose edges shrink to singletons) remain
    representable.  The text format boundary still insists on ``u >= 2``.
    """

    def __init__(self, n: int, u: int, edges: Iterable[Iterable[int]]):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        if u < 1:
            raise ValueError(f"uniformity must be >= 1, got {u}")
        self.n = n
        self.u = u

        canon: list[VertexSet] = []
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
        self.edges: tuple[VertexSet, ...] = tuple(canon)

        incidence: list[list[int]] = [[] for _ in range(n)]
        for idx, e in enumerate(self.edges):
            for v in e:
                incidence[v].append(idx)
        self._incidence: tuple[tuple[int, ...], ...] = tuple(tuple(lst) for lst in incidence)
        self._max_degree = max((len(lst) for lst in self._incidence), default=0)
        self._neighbour_sets: tuple[frozenset[int], ...] | None = None
        self._edge_array: np.ndarray | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    @property
    def max_degree(self) -> int:
        return self._max_degree

    def incident(self, v: int) -> tuple[int, ...]:
        """Indices (into ``edges``) of the edges containing vertex ``v``."""
        self._check_vertex(v)
        return self._incidence[v]

    def degrees(self) -> list[int]:
        return [len(lst) for lst in self._incidence]

    def degree(self, vertices: Iterable[int]) -> int:
        """Number of edges containing every vertex of the given set.

        The empty set has degree ``m`` (every edge contains it).
        """
        s = as_vertex_set(vertices)
        for v in s:
            self._check_vertex(v)
        if not s:
            return self.m
        if len(s) == 1:
            return len(self._incidence[s[0]])
        # Scan the shortest incidence list among the members.
        pivot = min(s, key=lambda v: len(self._incidence[v]))
        rest = set(s)
        return sum(1 for idx in self._incidence[pivot] if rest.issubset(self.edges[idx]))

    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (m, u) int64 array, built on first use."""
        if self._edge_array is None:
            self._edge_array = np.asarray(self.edges, dtype=np.int64).reshape(self.m, self.u)
            self._edge_array.flags.writeable = False
        return self._edge_array

    def neighbour_sets(self) -> tuple[frozenset[int], ...]:
        """Per-vertex sets of distinct neighbours (co-members of some edge)."""
        if self._neighbour_sets is None:
            sets: list[set[int]] = [set() for _ in range(self.n)]
            for e in self.edges:
                for v in e:
                    sets[v].update(e)
            for v in range(self.n):
                sets[v].discard(v)
            self._neighbour_sets = tuple(frozenset(s) for s in sets)
        return self._neighbour_sets

    # -- derived hypergraphs -----------------------------------------------

    def link(self, v: int) -> tuple["Hypergraph", list[int]]:
        """The link of ``v``: edges through ``v`` with ``v`` removed.

        Returns the (u-1)-uniform link together with an index map: entry
        ``i`` of the map is the original label of the link's vertex ``i``.

        Raises:
            ValueError: if ``v`` is out of range or the hypergraph is
                1-uniform (edges would shrink to nothing).
        """
        self._check_vertex(v)
        if self.u < 2:
            raise ValueError("link of a 1-uniform hypergraph is not defined")
        old_of_new = [w for w in range(self.n) if w != v]
        new_of_old = {w: i for i, w in enumerate(old_of_new)}
        link_edges = [
            tuple(new_of_old[w] for w in self.edges[idx] if w != v)
            for idx in self._incidence[v]
        ]
        return Hypergraph(self.n - 1, self.u - 1, link_edges), old_of_new

    def induced(self, vertices: Iterable[int]) -> tuple["Hypergraph", list[int]]:
        """Subhypergraph induced on a vertex subset, relabelled to 0..|W|-1.

        Keeps exactly the edges contained entirely in the subset.  The
        returned index map sends new labels back to original ones.
        """
        old_of_new = list(as_vertex_set(vertices))
        for v in old_of_new:
            self._check_vertex(v)
        keep = set(old_of_new)
        new_of_old = {w: i for i, w in enumerate(old_of_new)}
        sub_edges = [
            tuple(new_of_old[w] for w in e)
            for e in self.edges
            if keep.issuperset(e)
        ]
        return Hypergraph(len(old_of_new), self.u, sub_edges), old_of_new

    def is_linear(self) -> bool:
        """True when no two distinct edges share two or more vertices."""
        pair_count: Counter[tuple[int, int]] = Counter()
        for e in self.edges:
            for pair in combinations(e, 2):
                pair_count[pair] += 1
                if pair_count[pair] > 1:
                    return False
        return True

    # -- plumbing ------------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.u == other.u
            and sorted(self.edges) == sorted(other.edges)
        )

    __hash__ = None  # mutable-ish container semantics; compare by value only

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, u={self.u}, m={self.m})"


# -- plain-text instance format -------------------------------------------
#
# First significant line:  "n m u"
# Then m lines, each with u space-separated 0-based vertex indices.
# Lines starting with '#' and blank lines are ignored.


def _significant_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped


def parse_instance(text: str) -> Hypergraph:
    """Parse the plain-text instance format into a Hypergraph.

    Raises:
        InstanceFormatError: on any malformed line, with its line number.
    """
    lines = _significant_lines(text)
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

    edges: list[tuple[int, ...]] = []
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
        return Hypergraph(n, u, edges)
    except ValueError as exc:  # duplicate edges and friends
        raise InstanceFormatError(1, str(exc)) from None


def format_instance(hg: Hypergraph) -> str:
    """Serialise a Hypergraph in the plain-text instance format."""
    if hg.u < 2:
        raise ValueError("text format requires uniformity >= 2")
    out = [f"{hg.n} {hg.m} {hg.u}"]
    out.extend(" ".join(str(v) for v in e) for e in hg.edges)
    return "\n".join(out) + "\n"
