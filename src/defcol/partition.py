"""Local-search partition of a hypergraph's vertices into ell parts.

A partition is a :class:`~defcol.engine.Colouring` with one colour per
part: the search returns one, and the objectives read its labels through
the total-colouring gate ``verify`` uses (one length check, no uncoloured
vertex, an exact array past 2**63).

The search minimises the sum, over unordered same-part vertex pairs, of
their codegree.  A locally optimal partition puts every vertex where its
same-part codegree mass is smallest, which caps the number of incident
edges that stay inside the vertex's own part at r*deg(x)/ell (r = u-1).
A vertex's tally counts the parts of its co-members, one entry per
shared edge; the search counts every tally once, from one sort of the
hypergraph's pair codes, and keeps it current as vertices move, never
recounting.  The within-part incident counts the CLI reports, the edges
through each vertex that hold another vertex of its part, come from the
edge array (:func:`within_part_incident_counts`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .engine import Colouring, _total_labels
from .hypergraph import Hypergraph, _runs

__all__ = [
    "MaxCutRun",
    "pair_objective",
    "max_cut_search",
    "within_part_incident_counts",
    "guarantee_bound",
]


@dataclass(frozen=True)
class MaxCutRun:
    partition: Colouring  # one colour per part
    moves: int
    initial_objective: int
    final_objective: int


def pair_objective(hg: Hypergraph, partition: Colouring) -> int:
    """Codegree sum over unordered same-part pairs.

    Every edge contributes one for every unordered pair of its vertices
    that landed in the same part, which adds up to exactly the same-part
    codegree sum; the pairs are counted one column pair at a time.
    """
    edge_parts = _total_labels(hg, partition)[hg.edge_array()]
    return sum(
        int((edge_parts[:, i] == edge_parts[:, j]).sum()) for i, j in combinations(range(hg.u), 2)
    )


def max_cut_search(hg: Hypergraph, num_parts: int, seed: int = 0) -> MaxCutRun:
    """Run the local search and report the partition plus search statistics.

    Starts from a seeded uniform random assignment, then scans vertices
    cyclically.  Each vertex moves to the part minimising its same-part
    codegree tally (ties to the lowest part index), and only strictly
    improving moves are taken, so the objective strictly decreases and the
    move count can never exceed the initial objective.

    Each vertex keeps a row of its co-members' counts per part
    (:func:`_part_tallies`), built once and kept current: a move takes one
    from the old part and adds one to the new part in the row of every
    co-member of the mover.  A visit whose own part tallies zero costs
    O(1), any other visit O(row), and a move O(co-members).  A vertex whose
    initial label lies past its row counts its own part by scanning its
    co-members instead, until it first moves.
    """
    _check_parts(num_parts)
    rng = random.Random(seed)
    parts = [rng.randrange(num_parts) for _ in range(hg.n)]
    initial = pair_objective(hg, Colouring(tuple(parts), num_parts))

    owner, member = np.divmod(hg._pair_codes(), hg.n)  # one entry per edge shared
    counts = np.bincount(owner, minlength=hg.n)
    rows = _part_tallies(owner, member, counts, parts, num_parts)
    members, ends = member.tolist(), np.cumsum(counts).tolist()
    moves = 0
    improved = True
    while improved:
        improved = False
        for x, start, end in zip(range(hg.n), [0] + ends, ends):
            row, old = rows[x], parts[x]
            current = row[old] if old < len(row) else [parts[y] for y in members[start:end]].count(old)
            if current == 0:
                continue  # already in a part contributing nothing
            least = min(row)
            if least < current:
                parts[x] = new = row.index(least)  # index keeps the first of equals
                for y in members[start:end]:
                    tally = rows[y]
                    if old < len(tally):
                        tally[old] -= 1
                    if new < len(tally):
                        tally[new] += 1
                moves += 1
                improved = True

    partition = Colouring(tuple(parts), num_parts)
    return MaxCutRun(
        partition=partition,
        moves=moves,
        initial_objective=initial,
        final_objective=pair_objective(hg, partition),
    )


def _part_tallies(
    owner: np.ndarray, member: np.ndarray, counts: np.ndarray, parts: list[int], num_parts: int
) -> list[list[int]]:
    """Per vertex x, how many of its co-members lie in each part below x's row width.

    ``member[i]`` is a co-member of ``owner[i]``, one entry per edge they
    share, and ``counts`` holds each vertex's number of entries.  The width
    is min(num_parts, c + 1) for a vertex with c co-members: they hold at
    most c parts, so the first zero of a full tally, where the search would
    move x, lies inside the row, and the rows hold O(sum of c) entries
    whatever ``num_parts`` is.
    """
    cap = min(num_parts, int(counts.max(initial=0)) + 1)
    widths = np.minimum(counts + 1, cap)
    labels = np.array([min(p, cap) for p in parts], dtype=np.int64)  # cap lies past every row
    label = labels[member]
    inside = label < widths[owner]
    starts = np.cumsum(widths) - widths
    flat = np.bincount(starts[owner[inside]] + label[inside], minlength=int(widths.sum()))
    return list(_runs(flat.tolist(), widths))


def within_part_incident_counts(hg: Hypergraph, partition: Colouring) -> np.ndarray:
    """Per vertex, the edges containing it together with at least one same-part vertex.

    An edge counts for the vertex in one of its slots when another slot
    holds a vertex of the same part.
    """
    edges = hg.edge_array()
    edge_parts = _total_labels(hg, partition)[edges]
    shared = np.zeros(edges.shape, dtype=bool)
    for i, j in combinations(range(hg.u), 2):
        same = edge_parts[:, i] == edge_parts[:, j]
        shared[:, i] |= same
        shared[:, j] |= same
    return np.bincount(edges[shared], minlength=hg.n)


def guarantee_bound(hg: Hypergraph, num_parts: int, x: int) -> float:
    """The per-vertex ceiling r*deg(x)/ell promised at local optima."""
    _check_parts(num_parts)
    return (hg.u - 1) * hg.degree([x]) / num_parts


def _check_parts(num_parts: int) -> None:
    if num_parts < 1:
        raise ValueError(f"need at least one part, got {num_parts}")
