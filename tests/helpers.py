"""Shared test utilities: an independent exhaustive oracle, tiny ensembles, a reference sampler.

The oracle here deliberately shares no code with the package: it tries
every assignment of every palette size by brute force, so agreement with
the package's backtracking oracle is meaningful evidence.  The reference
sampler is the pure-Python rejection loop the random generators replaced.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from defcol import Hypergraph


def brute_force_feasible(hg: Hypergraph, d: int, k: int) -> bool:
    """Whether some k-colouring keeps every mono degree at most d."""
    for assign in product(range(k), repeat=hg.n):
        mono = [0] * hg.n
        ok = True
        for e in hg.edges:
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
