"""Local-search partition of a hypergraph's vertices into ell parts.

The search minimises the sum, over unordered same-part vertex pairs, of
their codegree.  A locally optimal partition puts every vertex where its
same-part codegree mass is smallest, which caps the number of incident
edges that stay inside the vertex's own part at r*deg(x)/ell (r = u-1).
A vertex's tally counts the parts of its co-members, one entry per
shared edge (:meth:`Hypergraph.co_members`).  The within-part incident
counts the CLI reports, the edges through each vertex that hold another
vertex of its part, come from the edge array as well
(:func:`within_part_incident_counts`).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .hypergraph import Hypergraph

__all__ = [
    "Partition",
    "MaxCutRun",
    "pair_objective",
    "max_cut_search",
    "within_part_incident_counts",
    "guarantee_bound",
]


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]  # vertex -> part index
    num_parts: int

    def __post_init__(self) -> None:
        if self.num_parts < 1:
            raise ValueError(f"need at least one part, got {self.num_parts}")
        for v, p in enumerate(self.parts):
            if not 0 <= p < self.num_parts:
                raise ValueError(f"vertex {v} assigned to part {p}, outside 0..{self.num_parts - 1}")

    def members(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_parts)]
        for v, p in enumerate(self.parts):
            out[p].append(v)
        return out


@dataclass(frozen=True)
class MaxCutRun:
    partition: Partition
    moves: int
    initial_objective: int
    final_objective: int


def pair_objective(hg: Hypergraph, partition: Partition) -> int:
    """Codegree sum over unordered same-part pairs.

    Every edge contributes one for every unordered pair of its vertices
    that landed in the same part, which adds up to exactly the same-part
    codegree sum; the pairs are counted one column pair at a time.
    """
    if len(partition.parts) != hg.n:
        raise ValueError(f"partition covers {len(partition.parts)} vertices, hypergraph has {hg.n}")
    edge_parts = np.asarray(partition.parts)[hg.edge_array()]
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
    """
    if num_parts < 1:
        raise ValueError(f"need at least one part, got {num_parts}")
    rng = random.Random(seed)
    parts = [rng.randrange(num_parts) for _ in range(hg.n)]
    initial = pair_objective(hg, Partition(tuple(parts), num_parts))

    co_members = hg.co_members()
    moves = 0
    improved = True
    while improved:
        improved = False
        for x in range(hg.n):
            tally = Counter([parts[y] for y in co_members[x]])
            current = tally[parts[x]]
            if current == 0:
                continue  # already in a part contributing nothing
            target = _least_loaded_part(tally, num_parts)
            if tally[target] < current:
                parts[x] = target
                moves += 1
                improved = True

    partition = Partition(tuple(parts), num_parts)
    return MaxCutRun(
        partition=partition,
        moves=moves,
        initial_objective=initial,
        final_objective=pair_objective(hg, partition),
    )


def _least_loaded_part(tally: Counter[int], num_parts: int) -> int:
    """Part index with the smallest tally, ties to the lowest index.

    Any part missing from the tally has mass zero, so when the tally does
    not mention every part the answer is the first unmentioned index.
    """
    if len(tally) < num_parts:
        return next(i for i in range(num_parts) if i not in tally)
    return min(range(num_parts), key=tally.__getitem__)  # min keeps the first of equals


def within_part_incident_counts(hg: Hypergraph, partition: Partition) -> np.ndarray:
    """Per vertex, the edges containing it together with at least one same-part vertex.

    An edge counts for the vertex in one of its slots when another slot
    holds a vertex of the same part.
    """
    edges = hg.edge_array()
    edge_parts = np.asarray(partition.parts)[edges]
    shared = np.zeros(edges.shape, dtype=bool)
    for i, j in combinations(range(hg.u), 2):
        same = edge_parts[:, i] == edge_parts[:, j]
        shared[:, i] |= same
        shared[:, j] |= same
    return np.bincount(edges[shared], minlength=hg.n)


def guarantee_bound(hg: Hypergraph, num_parts: int, x: int) -> float:
    """The per-vertex ceiling r*deg(x)/ell promised at local optima."""
    return (hg.u - 1) * hg.degree([x]) / num_parts
