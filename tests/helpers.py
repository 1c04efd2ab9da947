"""Shared test utilities: tuple views and per-vertex references, an exhaustive oracle, tiny ensembles.

The hypergraph keeps its edges only as an array; ``edge_tuples`` and
``incident`` rebuild the tuple views it once carried, ``neighbour_lists``
decodes its CSR neighbour index, and the per-vertex references below walk
the tuples as the package's own code did before it answered from the
array: ``ref_co_members``, ``ref_neighbour_sets``, ``mono_degree``,
``within_part_incident_count``, ``ref_degree``, ``ref_equal`` and
``ref_probe_bad_vertex``.  ``ref_grid`` and ``ref_grid_defect_witness`` are
the grid and its deletion witness as they were built point by point, with
the witness's survivors regrouped by axis line in dicts.  The oracle
here deliberately shares no code with the package: it tries every
assignment of every palette size by brute force, so agreement with the
package's backtracking oracle is meaningful evidence.  The reference
sampler is the pure-Python rejection loop the random generators replaced.
"""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import combinations, product

import numpy as np

from defcol import (
    Colouring,
    GridWitness,
    Hypergraph,
    ProbeStats,
    coords_to_index,
    index_to_coords,
    mono_counts,
)


def edge_tuples(hg: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """The edges as sorted vertex tuples, in row order."""
    return tuple(map(tuple, hg.edge_array().tolist()))


def incident(hg: Hypergraph, v: int) -> tuple[int, ...]:
    """Indices (into ``edge_tuples``) of the edges containing vertex ``v``, increasing."""
    return tuple(idx for idx, e in enumerate(edge_tuples(hg)) if v in e)


def ref_co_members(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """Per-vertex co-members with multiplicity, sorted: one entry per edge shared."""
    members = [[] for _ in range(n)]
    for e in edges:
        for v in e:
            members[v].extend(w for w in e if w != v)
    return tuple(tuple(sorted(m)) for m in members)


def ref_neighbour_sets(n: int, edges) -> tuple[frozenset[int], ...]:
    """Per-vertex sets of distinct neighbours (co-members of some edge)."""
    sets = [set() for _ in range(n)]
    for e in edges:
        for v in e:
            sets[v].update(e)
    for v in range(n):
        sets[v].discard(v)
    return tuple(frozenset(s) for s in sets)


def neighbour_lists(hg: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """``hg.neighbour_sets()`` decoded: each vertex's run of the CSR pair, as a tuple."""
    starts, neighbours = (a.tolist() for a in hg.neighbour_sets())
    return tuple(tuple(neighbours[a:b]) for a, b in zip(starts, starts[1:]))


def mono_degree(hg: Hypergraph, colouring: Colouring, v: int) -> int:
    """Number of edges through v whose vertices all share v's colour.

    Edges with any uncoloured vertex never count.

    Raises:
        ValueError: if v itself is uncoloured.
    """
    cols = colouring.colours
    cv = cols[v]
    if cv is None:
        raise ValueError(f"vertex {v} is uncoloured")
    edges = edge_tuples(hg)
    count = 0
    for idx in incident(hg, v):
        if all(cols[w] == cv for w in edges[idx]):
            count += 1
    return count


def within_part_incident_count(hg: Hypergraph, partition: Colouring, x: int) -> int:
    """Edges containing x together with at least one same-part vertex."""
    p = partition.colours[x]
    edges = edge_tuples(hg)
    count = 0
    for idx in incident(hg, x):
        if any(y != x and partition.colours[y] == p for y in edges[idx]):
            count += 1
    return count


def ref_degree(hg: Hypergraph, vertices) -> int:
    """Edges containing every given vertex, from the shortest incidence list among them."""
    s = tuple(sorted(set(vertices)))
    for v in s:
        if not (0 <= v < hg.n):
            raise ValueError(f"vertex {v} outside 0..{hg.n - 1}")
    if not s:
        return hg.m
    degrees = hg.degrees()
    if len(s) == 1:
        return degrees[s[0]]
    pivot = min(s, key=lambda v: degrees[v])
    rest = set(s)
    edges = edge_tuples(hg)
    return sum(1 for idx in incident(hg, pivot) if rest.issubset(edges[idx]))


def ref_equal(a: Hypergraph, b: Hypergraph) -> bool:
    """Same n, same u and the same sorted list of edge tuples."""
    return a.n == b.n and a.u == b.u and sorted(edge_tuples(a)) == sorted(edge_tuples(b))


def ref_probe_bad_vertex(hg: Hypergraph, k: int, d: int, v: int, trials: int, seed: int = 0) -> ProbeStats:
    """The bad-vertex probe that drew v's closed neighbourhood and walked its incidence list."""
    edges = edge_tuples(hg)
    through = incident(hg, v)
    support = sorted({w for idx in through for w in edges[idx]} | {v})
    column = {w: i for i, w in enumerate(support)}

    rng = np.random.default_rng(seed)
    draws = rng.integers(0, k, size=(trials, len(support)), dtype=np.int32)
    mono_count = np.zeros(trials, dtype=np.int64)
    for idx in through:
        cols = [column[w] for w in edges[idx]]
        sub = draws[:, cols]
        mono_count += (sub == sub[:, :1]).all(axis=1)
    hits = mono_count >= d + 1
    return ProbeStats(trials, int(hits.sum()))


def ref_grid(n: int, r: int) -> Hypergraph:
    """The axis grid on {1..n}^r built one edge at a time: each base point, then each choice of bumps."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    edges = []
    for base in product(range(1, n), repeat=r):  # all coordinates < n
        base_idx = coords_to_index(base, n)
        for bumps in product(*(range(1, n - c + 1) for c in base)):
            edge = [base_idx]
            for axis, bump in enumerate(bumps):
                shifted = list(base)
                shifted[axis] += bump
                edge.append(coords_to_index(tuple(shifted), n))
            edges.append(edge)
    return Hypergraph(n**r, r + 1, edges)


def ref_grid_defect_witness(
    n: int,
    r: int,
    colouring: Colouring,
    d: int,
    hg: Hypergraph | None = None,
) -> GridWitness | None:
    """The grid witness that regrouped its survivors by axis line, in dicts keyed by coordinate tuples."""
    if hg is None:
        hg = ref_grid(n, r)
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
        mono_degree=int(mono_counts(hg, np.asarray(colouring.colours))[vertex]),
        class_size=class_size,
        survivor_size=len(survivors),
    )


def brute_force_feasible(hg: Hypergraph, d: int, k: int) -> bool:
    """Whether some k-colouring keeps every mono degree at most d."""
    edges = edge_tuples(hg)
    for assign in product(range(k), repeat=hg.n):
        mono = [0] * hg.n
        ok = True
        for e in edges:
            if len({assign[v] for v in e}) == 1:
                for v in e:
                    mono[v] += 1
                    if mono[v] > d:
                        ok = False
        if ok:
            return True
    return False


def brute_force_min_colours(hg: Hypergraph, d: int) -> int:
    for k in range(1, hg.n + 1):
        if brute_force_feasible(hg, d, k):
            return k
    raise AssertionError("a rainbow colouring is always proper")  # pragma: no cover


def tiny_instances(count: int, seed: int = 0, n: int = 6, u: int = 3, max_m: int = 6):
    """Deterministic stream of small u-uniform hypergraphs on n vertices."""
    rng = random.Random(seed)
    pool = list(combinations(range(n), u))
    out = []
    for _ in range(count):
        m = rng.randrange(0, max_m + 1)
        out.append(Hypergraph(n, u, rng.sample(pool, m)))
    return out


def cycle_graph(n: int) -> Hypergraph:
    return Hypergraph(n, 2, [(i, (i + 1) % n) for i in range(n)])


def reference_rejection_sample(n, u, max_degree, target_m, seed, linear):
    """The edges the random families accept: one ``random.sample`` and one check per attempt.

    Each candidate is a sorted ``rng.sample(range(n), u)``; it is kept when
    it is new, no member's degree would pass max_degree and (linear) it
    shares no pair with a kept edge.  Stops at target_m edges or after
    10 * target_m attempts.
    """
    rng = random.Random(seed)
    degrees = [0] * n
    accepted = []
    seen = set()
    used_pairs = set()
    for _ in range(10 * target_m):
        if len(accepted) == target_m:
            break
        edge = tuple(sorted(rng.sample(range(n), u)))
        if edge in seen:
            continue
        if any(degrees[v] + 1 > max_degree for v in edge):
            continue
        if linear and any(pair in used_pairs for pair in combinations(edge, 2)):
            continue
        seen.add(edge)
        accepted.append(edge)
        for v in edge:
            degrees[v] += 1
        if linear:
            used_pairs.update(combinations(edge, 2))
    return accepted
