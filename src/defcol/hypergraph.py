"""Finite uniform hypergraphs stored as an (m, u) integer array.

Vertices are integers ``0 .. n-1``; an edge is a set of exactly ``u``
distinct vertices.  The edges are kept as one read-only int64 array with
each row sorted (rows given already increasing are copied, not sorted),
and every query is answered from it; only the two indices, vertex ->
neighbours and vertex -> edges, are built from it, on first use, and cached.
The plain-text instance format lives here too; :func:`parse_instance` reads
exactly the bytes :func:`format_instance` writes in one numpy pass, and any
other text line by line.  So does the colouring vocabulary every algorithm
shares: :class:`Colouring`, its gate :func:`_total_labels`, and one helper
each for the palette, defect and seed rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "VertexSet",
    "Hypergraph",
    "Colouring",
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
    """The per-edge check: raise the ValueError naming the first malformed edge, else the first duplicate.

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


def _row_codes(rows: np.ndarray, n: int) -> np.ndarray:
    """Each row's base-n code as int64: exact while n^width < 2^63, wrapping past that."""
    codes = np.zeros(len(rows), dtype=np.int64)
    for column in rows.T:
        codes = codes * n + column
    return codes


def _increasing(rows: np.ndarray) -> bool:
    """True when every row is strictly increasing (so its entries are distinct)."""
    # one column pair at a time: comparing the (m, u-1) slices in one go is several
    # times slower; with no rows the u columns are never looped over
    return not len(rows) or all((rows[:, i] < rows[:, i + 1]).all() for i in range(rows.shape[1] - 1))


def _runs(items: list, counts: np.ndarray) -> Iterator[list]:
    """``items`` cut into consecutive runs of the given lengths, made one at a time."""
    ends = np.cumsum(counts).tolist()
    return (items[start:end] for start, end in zip([0] + ends[:-1], ends))


class Hypergraph:
    """A ``u``-uniform hypergraph on ``n`` vertices.

    Edges must each contain exactly ``u`` distinct vertices in range, and
    duplicate edges are rejected.  The ``ValueError`` names the first edge,
    in input order, that breaks the first rule, else the first duplicate:
    ``[(0, 1), (1, 0), (0, 9)]`` on 5 vertices names ``(0, 9)``.  The edges
    are stored once, as the (m, u) array :meth:`edge_array` returns, with
    degrees counted at construction.  :meth:`neighbour_sets` and
    :meth:`incidence`, CSR pairs of int64 arrays, are built on first use, so
    code that does not read them never pays for them.

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

        rows: np.ndarray | None = None  # stays None for rows numpy cannot hold as int64 integers
        if isinstance(edges, np.ndarray) and edges.ndim == 2 and edges.shape[1] == u \
                and edges.dtype.kind in "iu":
            given: list[tuple] | np.ndarray = edges
            rows = edges
        else:
            given = list(map(tuple, edges.tolist() if isinstance(edges, np.ndarray) else edges))
            if not given:
                rows = np.empty((0, u), dtype=np.int64)
            elif set(map(len, given)) == {u}:
                found = np.array(given)
                if found.ndim == 2 and found.dtype.kind in "iu":
                    rows = found
        # rows that already increase, as the writer and every generator leave them,
        # hold distinct vertices; they are copied (never aliased), not sorted
        distinct = rows is not None and _increasing(rows)
        if rows is not None:
            rows = np.array(rows) if distinct else np.sort(rows, axis=1)
        # detect faults in numpy; the per-edge check then names the first one
        if rows is None or (len(rows) and not (
            rows[:, 0].min() >= 0 and rows[:, -1].max() < n and (distinct or _increasing(rows))
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
        """The hypergraph on int64 rows cut from a valid one, relabelled monotonically if at all.

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
        self._incidence: tuple[np.ndarray, np.ndarray] | None = None

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
        """Read-only CSR pair (starts, neighbours): v's are ``neighbours[starts[v]:starts[v+1]]``, sorted.

        Both are int64, whatever width :meth:`_pair_codes` used; the first code
        of each run of equal ones is one (vertex, neighbour) pair.
        """
        if self._neighbour_sets is None:
            codes = self._pair_codes()
            first = np.ones(len(codes), dtype=bool)
            np.not_equal(codes[1:], codes[:-1], out=first[1:])
            owner, neighbours = np.divmod(codes[first], self.n)  # divided before widening: faster on uint32
            starts = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=self.n))])
            neighbours = neighbours.astype(np.int64)
            starts.flags.writeable = neighbours.flags.writeable = False
            self._neighbour_sets = starts, neighbours
        return self._neighbour_sets

    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only CSR pair (starts, edges): v's edge ids are ``edges[starts[v]:starts[v+1]]``, increasing.

        One stable argsort of the flattened edge array groups the slots by
        vertex with each vertex's rows in order; the runs are the degrees.
        """
        if self._incidence is None:
            starts = np.concatenate([[0], np.cumsum(self._degrees)])
            edges = np.argsort(self._edges.ravel(), kind="stable") // self.u
            starts.flags.writeable = edges.flags.writeable = False
            self._incidence = starts, edges
        return self._incidence

    def _pair_codes(self) -> np.ndarray:
        """Sorted codes a*n + b, one per edge and ordered pair (a, b) of its distinct members.

        The codes are uint32 while n*n <= 2**32, which sorts in the same order
        with half the bytes, and int64 past that: n*n fits in int64 for any n
        whose degree array fits in memory (with no edges there are no pairs,
        however large u is).
        """
        n = self.n
        e = self._edges.astype(np.uint32) if n * n <= 2**32 else self._edges
        pairs = permutations(range(self.u), 2) if self.m else ()
        codes = np.concatenate([np.empty(0, e.dtype)] + [e[:, i] * n + e[:, j] for i, j in pairs])
        codes.sort()
        return codes

    # -- derived hypergraphs -----------------------------------------------

    def link(self, v: int) -> "Hypergraph":
        """The link of ``v``: edges through ``v`` with ``v`` removed, in their order.

        The (u-1)-uniform link keeps the host's ``n`` vertices and their
        labels, so no index map is needed; ``v`` is isolated in its link.

        Raises:
            ValueError: if ``v`` is out of range or the hypergraph is
                1-uniform (edges would shrink to nothing).
        """
        self._check_vertex(v)
        if self.u < 2:
            raise ValueError("link of a 1-uniform hypergraph is not defined")
        rows = self._edges[(self._edges == v).any(axis=1)]
        return Hypergraph._trusted(self.n, self.u - 1, rows[rows != v].reshape(-1, self.u - 1))

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


# -- colourings and the argument rules --------------------------------------


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


def _total_labels(n: int, colouring: Colouring) -> np.ndarray:
    """A total colouring of ``n`` vertices as one exact array: int64 while the palette fits it, Python ints past 2**63.

    Refuses a colouring of another length or with an uncoloured vertex.
    ``np.asarray`` would make float64 of labels on both sides of 2**63, where
    nearby labels compare equal.
    """
    if len(colouring.colours) != n:
        raise ValueError(f"colouring covers {len(colouring.colours)} vertices, hypergraph has {n}")
    if not colouring.is_total:
        missing = colouring.uncoloured()
        raise ValueError(f"colouring leaves {len(missing)} vertices uncoloured (first: {missing[:5]})")
    return np.array(colouring.colours, dtype=np.int64 if colouring.num_colours <= 2**63 else object)


def _check_defect(d: int) -> None:
    """Refuse a negative defect bound."""
    if d < 0:
        raise ValueError(f"defect must be >= 0, got {d}")


def _check_palette(k: int, drawn: type[np.signedinteger] | None = None) -> None:
    """Refuse a palette of no colours, or, by name, one numpy cannot draw as the integer type ``drawn``."""
    if k < 1:
        raise ValueError(f"palette must have >= 1 colours, got {k}")
    if drawn is not None and k > np.iinfo(drawn).max + 1:
        bits = np.iinfo(drawn).bits
        raise ValueError(f"need 1 <= k <= 2**{bits - 1}: colours are drawn as int{bits}, got k={k}")


def _check_seed(seed: int) -> None:
    """Refuse a negative seed, which numpy's generators reject with a message that does not name it."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


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


def _digits(values: np.ndarray) -> int:
    """How many digits the non-negative ``values`` take, written without leading zeros."""
    total, power, top = values.size, 10, int(values.max(initial=0))
    while power <= top:
        total += int(np.count_nonzero(values >= power))
        power *= 10
    return total


def _read_array(text: str) -> tuple[int, int, np.ndarray] | None:
    """(n, u, edge array) when the text is exactly what :func:`format_instance` writes.

    That is an "n m u" line and then m lines of u numbers, every number
    plain decimal digits with no leading zero, followed by one space, or by
    a newline where its line ends.  The separators are checked before numpy
    reads the numbers, so numpy is only ever given digits, spaces and
    newlines.  Returns None for any other text (tabs, repeated or leading
    spaces, CRLF, no final newline, comments, blank lines); the line parser
    then judges it.
    """
    if not text.isascii() or not text.endswith("\n"):
        return None
    header = text[: text.find("\n")].split(" ")
    # 18 digits keep n, m and u below 2**60
    if len(header) != 3 or not all(f.isdigit() and len(f) <= 18 for f in header):
        return None
    n, m, u = map(int, header)
    buf = np.frombuffer(text.encode("ascii"), np.uint8)
    if u < 2 or buf.max() > ord("9"):
        return None
    # every byte below "0" is a separator, the header's three are "  \n", and m*u
    # is checked against the count before the expected bytes of the rows are built
    seps = np.compress(buf < ord("0"), buf).tobytes()
    if len(seps) != 3 + m * u or (m and seps[3:] != (b" " * (u - 1) + b"\n") * m):
        return None
    # one number per separator means single separators; as many digits as the
    # numbers need means no leading zero (a token past int64 reads as 2**63-1,
    # which is at least n, so the constructor refuses it)
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    if len(values) != len(seps) or len(buf) != len(seps) + _digits(values):
        return None
    return n, u, values[3:].reshape(m, u)


def parse_instance(text: str) -> Hypergraph:
    """Parse the plain-text instance format into a Hypergraph.

    Only the exact bytes :func:`format_instance` writes (an "n m u" line,
    then m lines of u numbers, one space between numbers and a newline
    after every line) are read in one numpy pass.  Anything else (tabs,
    repeated spaces, comments, blank lines, CRLF, leading zeros, signs, a
    missing number or final newline) goes through the line parser, which
    accepts exactly what it always has and names the offending line.

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

    header_line = lineno  # where the faults of the whole instance are reported
    edges: dict[VertexSet, None] = {}  # the sorted edges read so far, in line order
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
        if e in edges:
            raise InstanceFormatError(lineno, f"duplicate edge {e!r}")
        edges[e] = None
    if len(edges) != m:
        raise InstanceFormatError(lineno, f"expected {m} edge lines, found {len(edges)}")

    try:
        return Hypergraph(n, u, list(edges))
    except ValueError as exc:  # the sizes an array cannot hold
        raise InstanceFormatError(header_line, str(exc)) from None


def format_instance(hg: Hypergraph) -> str:
    """Serialise a Hypergraph in the plain-text instance format."""
    if hg.u < 2:
        raise ValueError("text format requires uniformity >= 2")
    row = "%d " * (hg.u - 1) + "%d\n"
    return f"{hg.n} {hg.m} {hg.u}\n" + (row * hg.m) % tuple(hg.edge_array().ravel().tolist())
