"""Finite uniform hypergraphs stored as an (m, u) integer array.

Vertices are integers ``0 .. n-1``; an edge is a set of exactly ``u``
distinct vertices.  The edges are kept as one read-only int64 array with
each row sorted; the tuple views (``edges``, ``incident``, the neighbour
sets) are built from it on first use and cached.  The plain-text
instance format used by the command line tools lives here too, next to
the type it describes.
"""

from __future__ import annotations

import warnings
from itertools import combinations, permutations
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


# numpy keeps an array's byte size below 2**63, so an int64 dimension stays below 2**60
_SIZE_LIMIT = 2**60


def _first_fault(edges: Iterable[Iterable[int]], n: int, u: int) -> None:
    """The per-edge check, in input order: raise the ValueError naming the first bad edge.

    This is the reference the vectorised checks in :class:`Hypergraph` stand
    in for; it runs only once they have found a fault, and it writes the message.
    """
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


class Hypergraph:
    """A ``u``-uniform hypergraph on ``n`` vertices.

    Edges must each contain exactly ``u`` distinct vertices in range, and
    duplicate edges are rejected; the first offending edge, in input
    order, is named in the ``ValueError``.  The edges are stored once, as
    the (m, u) array :meth:`edge_array` returns, with degrees counted at
    construction.  The tuple views (``edges``, :meth:`incident`,
    :meth:`neighbour_sets`) are built on first use, so code that works
    on the array never pays for them.

    ``u >= 2`` is the usual case; ``u == 1`` is permitted so that links of
    2-uniform hypergraphs (whose edges shrink to singletons) remain
    representable.  The text format boundary still insists on ``u >= 2``.
    """

    def __init__(self, n: int, u: int, edges: Iterable[Iterable[int]] | np.ndarray):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        if u < 1:
            raise ValueError(f"uniformity must be >= 1, got {u}")
        if max(n, u) >= _SIZE_LIMIT:
            raise ValueError(f"vertex count and uniformity must be below 2**60, got n={n}, u={u}")
        self.n = n
        self.u = u

        if isinstance(edges, np.ndarray) and edges.ndim == 2 and edges.shape[1] == u \
                and edges.dtype.kind in "iu":
            given: list[tuple] | np.ndarray = edges
            rows: np.ndarray | None = np.sort(edges, axis=1)
        else:
            given = list(map(tuple, edges.tolist() if isinstance(edges, np.ndarray) else edges))
            rows = None  # stays None for rows numpy cannot hold as int64 integers
            if not given:
                rows = np.empty((0, u), dtype=np.int64)
            elif set(map(len, given)) == {u}:
                found = np.array(given)
                if found.ndim == 2 and found.dtype.kind in "iu":
                    rows = np.sort(found, axis=1)
        # detect faults in numpy; the per-edge check then names the first one
        if rows is None or (len(rows) and not (
            rows[:, 0].min() >= 0 and rows[:, -1].max() < n and (rows[:, 1:] != rows[:, :-1]).all()
        )):
            _first_fault(given if isinstance(given, list) else given.tolist(), n, u)
            raise TypeError("edge vertices must be integers")  # the check passed non-integer labels
        arr = rows.astype(np.int64, copy=False)
        if len(arr) > 1:
            # base-n row codes, exact while n^u < 2^63 and a wrapping hash past that:
            # equal codes send the edges to the exact check, which names a true duplicate
            codes = np.zeros(len(arr), dtype=np.int64)
            for column in arr.T:
                codes = codes * n + column
            codes.sort()
            if (codes[1:] == codes[:-1]).any():
                _first_fault(arr.tolist(), n, u)
        arr.flags.writeable = False
        self._edges = arr
        self._degrees = np.bincount(arr.ravel(), minlength=n)
        self._max_degree = int(self._degrees.max()) if n else 0
        self._edge_tuples: tuple[VertexSet, ...] | None = None
        self._incidence: tuple[tuple[int, ...], ...] | None = None
        self._neighbour_sets: tuple[frozenset[int], ...] | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self._edges)

    @property
    def max_degree(self) -> int:
        return self._max_degree

    @property
    def edges(self) -> tuple[VertexSet, ...]:
        """The edges as sorted vertex tuples, in input order, built on first use."""
        if self._edge_tuples is None:
            self._edge_tuples = tuple(map(tuple, self._edges.tolist()))
        return self._edge_tuples

    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (m, u) int64 array, each row sorted."""
        return self._edges

    def incident(self, v: int) -> tuple[int, ...]:
        """Indices (into ``edges``) of the edges containing vertex ``v``, increasing."""
        self._check_vertex(v)
        if self._incidence is None:
            # a stable sort of the flattened rows lists each vertex's edges in index order
            ids = (np.argsort(self._edges.ravel(), kind="stable") // self.u).tolist()
            ends = np.cumsum(self._degrees).tolist()
            self._incidence = tuple(
                tuple(ids[start:end]) for start, end in zip([0] + ends[:-1], ends)
            )
        return self._incidence[v]

    def degrees(self) -> list[int]:
        return self._degrees.tolist()

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
            return int(self._degrees[s[0]])
        # Scan the shortest incidence list among the members.
        pivot = min(s, key=lambda v: self._degrees[v])
        rest = set(s)
        return sum(1 for idx in self.incident(pivot) if rest.issubset(self.edges[idx]))

    def neighbour_sets(self) -> tuple[frozenset[int], ...]:
        """Per-vertex sets of distinct neighbours (co-members of some edge)."""
        if self._neighbour_sets is None:
            e, n = self._edges, self.n
            # code a*n + b for each ordered pair of distinct co-members; n*n fits
            # in int64 for any n whose degree array fits in memory (with no
            # edges there are no pairs, however large u is)
            pairs = permutations(range(self.u), 2) if self.m else ()
            codes = np.concatenate([np.empty(0, np.int64)] + [e[:, i] * n + e[:, j] for i, j in pairs])
            codes.sort()
            codes = codes[np.diff(codes, prepend=-1) != 0]
            others = (codes % n).tolist()
            ends = np.cumsum(np.bincount(codes // n, minlength=n)).tolist()
            self._neighbour_sets = tuple(
                frozenset(others[start:end]) for start, end in zip([0] + ends[:-1], ends)
            )
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
        rows = self._edges[(self._edges == v).any(axis=1)]
        rest = rows[rows != v].reshape(-1, self.u - 1)
        old_of_new = [w for w in range(self.n) if w != v]
        return Hypergraph(self.n - 1, self.u - 1, rest - (rest > v)), old_of_new

    def induced(self, vertices: Iterable[int]) -> tuple["Hypergraph", list[int]]:
        """Subhypergraph induced on a vertex subset, relabelled to 0..|W|-1.

        Keeps exactly the edges contained entirely in the subset, in their
        order.  The returned index map sends new labels back to original ones.
        """
        old_of_new = list(as_vertex_set(vertices))
        for v in old_of_new:
            self._check_vertex(v)
        new_of_old = np.full(self.n, -1, dtype=np.int64)
        new_of_old[np.asarray(old_of_new, dtype=np.int64)] = np.arange(len(old_of_new))
        sub = new_of_old[self._edges]
        return Hypergraph(len(old_of_new), self.u, sub[(sub >= 0).all(axis=1)]), old_of_new

    def is_linear(self) -> bool:
        """True when no two distinct edges share two or more vertices."""
        e, n = self._edges, self.n
        # each sorted row gives its pairs as codes a*n + b with a < b
        pairs = combinations(range(self.u), 2) if self.m else ()
        codes = np.concatenate([np.empty(0, np.int64)] + [e[:, i] * n + e[:, j] for i, j in pairs])
        codes.sort()
        return not (codes[1:] == codes[:-1]).any()

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


# Byte classes for the vectorised reader.  Any other byte (a '#', an
# underscore, a non-ASCII digit, a form feed, ...) is class 0 and leaves
# the text to the line parser, so the two agree on what is accepted.
_DIGIT, _SIGN, _BLANK, _BREAK = range(1, 5)
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
_BYTE_CLASS[list(b"+-")] = _SIGN
_BYTE_CLASS[list(b" \t")] = _BLANK
_BYTE_CLASS[list(b"\n\r")] = _BREAK
_MAX_TOKEN = 18  # digits, sign included, that always fit in int64


def _read_array(text: str) -> tuple[int, int, np.ndarray] | None:
    """(n, u, edge array) when every token is a plain integer and the lines are well formed.

    Returns None whenever the text is anything else; the line parser then
    judges it.  No Python object is made per token.
    """
    if not text.isascii():
        return None
    cls = _BYTE_CLASS[np.frombuffer(text.encode("ascii"), dtype=np.uint8)]
    if not cls.all():
        return None
    word = (cls <= _SIGN).view(np.int8)
    bounds = np.diff(word, prepend=np.int8(0), append=np.int8(0))
    starts, ends = np.flatnonzero(bounds == 1), np.flatnonzero(bounds == -1)
    if len(starts) < 3 or (ends - starts).max() > _MAX_TOKEN:
        return None
    # tokens per line, from the tokens that start before each line break; a
    # "\r\n" pair adds an empty line, which is skipped like a blank one
    before_break = np.searchsorted(starts, np.flatnonzero(cls == _BREAK))
    per_line = np.diff(before_break, prepend=0, append=len(starts))
    counts = per_line[per_line > 0]
    try:
        with warnings.catch_warnings():  # older numpy only warns on a partial read
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(text, dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):  # a token such as "+" or "1+"
        return None
    # one value per token: a sign inside a token ("2-1") splits it in two
    if len(values) != len(starts) or counts[0] != 3:
        return None
    n, m, u = values[:3].tolist()
    if n < 0 or m < 0 or u < 2 or len(counts) != m + 1 or (counts[1:] != u).any():
        return None
    return n, u, values[3:].reshape(m, u)


def parse_instance(text: str) -> Hypergraph:
    """Parse the plain-text instance format into a Hypergraph.

    Clean text is read in one vectorised pass.  Anything else (comments,
    unusual digits or a fault of any kind) goes through the line parser,
    which accepts exactly what it always has and names the offending line.

    Raises:
        InstanceFormatError: on any malformed line, with its line number.
    """
    read = _read_array(text)
    if read is not None:
        try:
            return Hypergraph(*read)
        except ValueError:
            pass  # the line parser below reports it with its line number
    return _parse_lines(text)


def _parse_lines(text: str) -> Hypergraph:
    """The line-by-line parser: the judge of what is accepted, and its error reporter."""
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
    out.extend(" ".join(map(str, e)) for e in hg.edge_array().tolist())
    return "\n".join(out) + "\n"
