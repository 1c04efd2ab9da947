"""Finite uniform hypergraphs stored as an (m, u) integer array.

Vertices are integers ``0 .. n-1``; an edge is a set of exactly ``u``
distinct vertices.  The edges are kept as one read-only int64 array with
each row sorted, and every query is answered from it; only the neighbour
index is built from it, on first use, and cached.
The plain-text instance format lives here too; :func:`parse_instance` reads
the text :func:`format_instance` writes in one numpy pass.
"""

from __future__ import annotations

from itertools import permutations
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


def _incidence(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex's edges as CSR: (row ids grouped by vertex, per-vertex counts).

    The ids come from one stable argsort of the flattened (m, u) array, so
    each vertex's run lists its rows in increasing order and the runs follow
    vertex order.
    """
    flat = edges.ravel()
    return np.argsort(flat, kind="stable") // edges.shape[1], np.bincount(flat, minlength=n)


def _row_codes(rows: np.ndarray, n: int) -> np.ndarray:
    """Each row's base-n code as int64: exact while n^width < 2^63, wrapping past that."""
    codes = np.zeros(len(rows), dtype=np.int64)
    for column in rows.T:
        codes = codes * n + column
    return codes


def _runs(items: list, counts: np.ndarray) -> Iterator[list]:
    """``items`` cut into consecutive runs of the given lengths, made one at a time."""
    ends = np.cumsum(counts).tolist()
    return (items[start:end] for start, end in zip([0] + ends[:-1], ends))


class Hypergraph:
    """A ``u``-uniform hypergraph on ``n`` vertices.

    Edges must each contain exactly ``u`` distinct vertices in range, and
    duplicate edges are rejected; the first offending edge, in input
    order, is named in the ``ValueError``.  The edges are stored once, as
    the (m, u) array :meth:`edge_array` returns, with degrees counted at
    construction.  :meth:`neighbour_sets`, a CSR pair ``(starts, neighbours)``
    of int64 arrays, is built on first use, so array code never pays for it.

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
            # once n^u reaches 2^63 the codes wrap: equal codes send the edges to
            # the exact check, which names a true duplicate
            codes = _row_codes(arr, n)
            codes.sort()
            if (codes[1:] == codes[:-1]).any():
                _first_fault(arr.tolist(), n, u)
        self._store(n, u, arr)

    @classmethod
    def _trusted(cls, n: int, u: int, rows: np.ndarray) -> "Hypergraph":
        """The hypergraph on int64 rows cut from a valid one and relabelled monotonically.

        Such rows are still sorted, in range and distinct, so the sort and the
        checks of the constructor are skipped (and ``__init__`` never runs).
        """
        hg = cls.__new__(cls)
        hg._store(n, u, rows)
        return hg

    def _store(self, n: int, u: int, arr: np.ndarray) -> None:
        arr.flags.writeable = False
        self.n = n
        self.u = u
        self._edges = arr
        self._degrees = np.bincount(arr.ravel(), minlength=n)
        self._max_degree = int(self._degrees.max()) if n else 0
        self._neighbour_sets: tuple[np.ndarray, np.ndarray] | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self._edges)

    @property
    def max_degree(self) -> int:
        return self._max_degree

    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (m, u) int64 array, each row sorted."""
        return self._edges

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
        # a row's vertices are distinct, so it holds all of s when len(s) of its slots lie in s
        return int((np.isin(self._edges, s).sum(axis=1) == len(s)).sum())

    # perfbench/spans.py traces this method by name
    def neighbour_sets(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only CSR pair (starts, neighbours): v's are ``neighbours[starts[v]:starts[v+1]]``, sorted."""
        if self._neighbour_sets is None:
            codes = self._pair_codes()
            owner, neighbours = np.divmod(codes[np.diff(codes, prepend=-1) != 0], self.n)
            starts = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=self.n))])
            starts.flags.writeable = neighbours.flags.writeable = False
            self._neighbour_sets = starts, neighbours
        return self._neighbour_sets

    def _pair_codes(self) -> np.ndarray:
        """Sorted codes a*n + b, one per edge and ordered pair (a, b) of its distinct members.

        n*n fits in int64 for any n whose degree array fits in memory (with
        no edges there are no pairs, however large u is).
        """
        e, n = self._edges, self.n
        pairs = permutations(range(self.u), 2) if self.m else ()
        codes = np.concatenate([np.empty(0, np.int64)] + [e[:, i] * n + e[:, j] for i, j in pairs])
        codes.sort()
        return codes

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
        old_of_new = [*range(v), *range(v + 1, self.n)]
        return Hypergraph._trusted(self.n - 1, self.u - 1, rest - (rest > v)), old_of_new

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
        return Hypergraph._trusted(len(old_of_new), self.u, sub[(sub >= 0).all(axis=1)]), old_of_new

    def is_linear(self) -> bool:
        """True when no two distinct edges share two or more vertices."""
        # then the index keeps every one of the m*u*(u-1) ordered pairs of edge members
        return int(self.neighbour_sets()[0][-1]) == self.m * self.u * (self.u - 1)

    # -- plumbing ------------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        if (self.n, self.u, self.m) != (other.n, other.u, other.m):
            return False
        # distinct rows in lexicographic order list an edge set one way only (and
        # with no rows nothing is sorted, however many columns there are)
        rows = (e[np.lexsort(e.T[::-1])] for e in (self._edges, other._edges))
        return not self.m or np.array_equal(*rows)

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


# The bytes format_instance writes; any other leaves the text to the line parser
_PLAIN = b"0123456789 \t\n"


def _read_array(text: str) -> tuple[int, int, np.ndarray] | None:
    """(n, u, edge array) when the text is an "n m u" line and m lines of u plain numbers.

    Each line break is read as the number -1, which no token can be, so one
    numpy read of the whole text also shows where the lines end.  Returns
    None whenever the text is anything else; the line parser then judges it.
    """
    if not text.isascii() or text.encode("ascii").translate(None, _PLAIN):
        return None
    lines = text.replace("\n", " -1 ") + ("" if text.endswith("\n") else " -1")
    values = np.fromstring(lines, dtype=np.int64, sep=" ")
    if len(values) < 4 or values[3] != -1 or (values[:3] < 0).any():
        return None
    n, m, u = values[:3].tolist()
    # numpy reads a token past int64 as 2**63-1, so sizes are checked before the
    # reshape; such a vertex is at least n, and the constructor refuses it
    if not (2 <= u < _SIZE_LIMIT and n < _SIZE_LIMIT) or len(values) != 4 + m * (u + 1):
        return None
    rows = values[4:].reshape(m, u + 1)
    if (rows[:, -1] != -1).any() or (rows[:, :-1] < 0).any():
        return None
    return n, u, rows[:, :-1]


def parse_instance(text: str) -> Hypergraph:
    """Parse the plain-text instance format into a Hypergraph.

    Text as :func:`format_instance` writes it (only ASCII digits, spaces, tabs
    and newlines: an "n m u" line, then m lines of u numbers, no blank line)
    is read in one numpy pass.  Anything else (comments, blank lines, CRLF,
    signs, a missing number) goes through the line parser, which accepts
    exactly what it always has and names the offending line.

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
    row = "%d " * (hg.u - 1) + "%d\n"
    return f"{hg.n} {hg.m} {hg.u}\n" + (row * hg.m) % tuple(hg.edge_array().ravel().tolist())
