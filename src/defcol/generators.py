"""Instance generators: complete, axis-aligned grid, and random families.

All randomness still comes from ``random.Random(seed)``, so a given
(parameters, seed) pair always produces the same instance.  The random
families replay that generator's Mersenne Twister stream in numpy (numpy's
``MT19937`` loaded with its state) to draw the candidate edges successive
``random.sample`` calls would, and accept them in chunks; the result is the
instance the one-candidate-at-a-time loop of ``tests/helpers.py`` builds.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from itertools import combinations

import numpy as np

from .hypergraph import Hypergraph, _row_codes

__all__ = [
    "complete",
    "grid",
    "coords_to_index",
    "index_to_coords",
    "grid_base_degree",
    "random_bounded_degree",
    "random_linear",
]


def _check_shape(n: int, u: int) -> None:
    """Refuse a uniformity below 2, or fewer vertices than an edge holds."""
    if u < 2:
        raise ValueError(f"uniformity must be >= 2, got {u}")
    if n < u:
        raise ValueError(f"need n >= u, got n={n}, u={u}")


def complete(n: int, u: int) -> Hypergraph:
    """The complete u-uniform hypergraph on n vertices: every u-set is an edge."""
    _check_shape(n, u)
    return Hypergraph(n, u, combinations(range(n), u))


# -- axis-aligned grid -------------------------------------------------------
#
# Vertices are the points of {1..n}^r, flattened row-major (the last
# coordinate varies fastest).  Each edge consists of a base point together
# with one point per axis obtained by increasing that single coordinate.


def coords_to_index(coords: tuple[int, ...], n: int) -> int:
    """Row-major index of a point of {1..n}^r."""
    idx = 0
    for c in coords:
        if not 1 <= c <= n:
            raise ValueError(f"coordinate {c} outside 1..{n}")
        idx = idx * n + (c - 1)
    return idx


def index_to_coords(idx: int, n: int, r: int) -> tuple[int, ...]:
    """Inverse of :func:`coords_to_index` for points of {1..n}^r."""
    if not 0 <= idx < n**r:
        raise ValueError(f"index {idx} outside 0..{n ** r - 1}")
    coords = []
    for _ in range(r):
        coords.append(idx % n + 1)
        idx //= n
    return tuple(reversed(coords))


def grid_base_degree(n: int, r: int) -> int:
    """Edges based at the all-ones corner: (n-1)^r, an upper bound witness.

    The corner point (1,...,1) is the base of exactly this many edges.  The
    true maximum degree also counts non-base roles, so callers that need a
    maximum degree should compute it from the generated instance rather
    than trust this formula.
    """
    return (n - 1) ** r


def grid(n: int, r: int) -> Hypergraph:
    """Axis grid on {1..n}^r with (r+1)-vertex edges.

    An edge is {v, v_1, ..., v_r} where v_i agrees with the base v except
    that its i-th coordinate is strictly larger.  Any r+2 vertices induce
    at most 2 edges, which keeps the instance sparse in the sense that
    matters for lower-bound experiments.

    Raises:
        ValueError: if n < 2 or r < 1 (no edges could exist).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    # an edge picks one coordinate pair low < high per axis i: the base has low, v_i high
    low, high = np.triu_indices(n, 1)
    pairs = np.indices((len(low),) * r).reshape(r, -1)
    place = n ** np.arange(r - 1, -1, -1, dtype=np.int64)[:, None]  # row-major weight per axis
    base, top = (place * low[pairs]).sum(axis=0), (place * high[pairs]).sum(axis=0)
    edges = np.vstack((base, base + place * (high - low)[pairs])).T
    return Hypergraph(n**r, r + 1, edges[np.lexsort((top, base))])  # by base, then by the highs


# -- random families ---------------------------------------------------------


def random_bounded_degree(
    n: int,
    u: int,
    max_degree: int,
    target_m: int,
    seed: int = 0,
) -> Hypergraph:
    """Random u-uniform hypergraph with every degree <= max_degree.

    Draws uniform u-sets and keeps one when it is new and would not push
    any member's degree over the cap.  Gives up after 10 * target_m
    attempts and returns whatever was accepted by then; the degree cap is
    a hard guarantee, the edge count is best effort.
    """
    return _rejection_sample(n, u, max_degree, target_m, seed, linear=False)


def random_linear(
    n: int,
    u: int,
    max_degree: int,
    target_m: int,
    seed: int = 0,
) -> Hypergraph:
    """Like :func:`random_bounded_degree` but the result is linear.

    A candidate edge is also rejected when it shares two or more vertices
    with an already accepted edge.
    """
    return _rejection_sample(n, u, max_degree, target_m, seed, linear=True)


# Candidate edges drawn, then accepted or rejected, per step of the random families.
_CHUNK_ROWS = 4096


def _rejection_sample(
    n: int,
    u: int,
    max_degree: int,
    target_m: int,
    seed: int,
    linear: bool,
) -> Hypergraph:
    """Accept candidate edges in the order ``rng.sample`` draws them, a chunk at a time.

    A candidate is rejected when it repeats an accepted edge, would push a
    degree over ``max_degree`` or (linear) shares a pair with an accepted
    edge.  Degrees and the accepted edges and pairs only grow, so a chunk's
    candidates that fail against the state before the chunk are rejected
    outright.  Of the rest, a row that meets no other of them on a vertex
    with too little room, on its edge or on a pair is accepted whatever the
    others do; only the rows that do are settled one by one, in order.
    Once fewer than ``u`` vertices have room, every later candidate would be
    rejected, so the draws stop there.
    """
    _check_shape(n, u)
    if max_degree < 0 or target_m < 0:
        raise ValueError("max_degree and target_m must be non-negative")

    degrees = np.zeros(n, dtype=np.int64)
    tally = np.zeros(n, dtype=np.int64)  # occurrences in the chunk, cleared after each
    edge_keys: set = set()
    pair_keys: set = set()
    first, second = np.array(list(combinations(range(u), 2))).T  # the columns of each pair
    accepted: list[np.ndarray] = []
    samples = _Samples(n, u, seed)
    attempts = found = size = 0
    while found < target_m and attempts < 10 * target_m and (degrees < max_degree).sum() >= u:
        # a chunk asks for the edges still missing, and doubles while that is not enough
        size = min(max(2 * size, target_m - found), _CHUNK_ROWS, 10 * target_m - attempts)
        attempts += size
        rows = np.sort(samples.take(size), axis=1)
        keys = _keys(rows, n)
        live = np.flatnonzero((degrees[rows] < max_degree).all(axis=1))
        live = live[~_member(keys[live], edge_keys)]
        if linear:
            pairs = _keys(np.stack((rows[:, first], rows[:, second]), axis=2).reshape(-1, 2), n)
            pairs = pairs.reshape(len(rows), len(first))
            live = live[~_member(pairs[live], pair_keys).any(axis=1)]
        flat = rows[live].ravel()
        np.add.at(tally, flat, 1)
        room = max_degree - degrees[flat]
        crowded = tally[flat] > room
        tally[flat] = 0
        unsure = crowded.reshape(-1, u).any(axis=1) | _repeated(keys[live])
        if linear:
            unsure |= _repeated(pairs[live].ravel()).reshape(-1, len(first)).any(axis=1)
        if unsure.any():
            room_of = dict(zip(flat[crowded].tolist(), room[crowded].tolist()))
            live = live[_settled(rows[live], unsure, room_of, linear)]
        live = live[: target_m - found]
        taken = rows[live]
        accepted.append(taken)
        found += len(taken)
        np.add.at(degrees, taken.ravel(), 1)
        edge_keys.update(keys[live].tolist())
        if linear:
            pair_keys.update(pairs[live].ravel().tolist())

    return Hypergraph(n, u, np.concatenate(accepted) if accepted else np.empty((0, u), dtype=np.int64))


def _settled(rows: np.ndarray, unsure: np.ndarray, room: dict[int, int], linear: bool) -> np.ndarray:
    """Which rows are accepted, deciding the unsure ones in order; every other row is.

    ``room`` holds how many more edges each vertex crowded by these rows may
    take.  Only unsure rows repeat an edge or pair of another row or hold a
    crowded vertex, so they are the only ones that can be rejected.
    """
    keep = np.ones(len(rows), dtype=bool)
    edges: set[tuple[int, ...]] = set()
    pairs: set[tuple[int, int]] = set()
    full: set[int] = set()  # crowded vertices left without room
    for i, edge in zip(np.flatnonzero(unsure).tolist(), map(tuple, rows[unsure].tolist())):
        if edge in edges or not full.isdisjoint(edge) \
                or (linear and not pairs.isdisjoint(combinations(edge, 2))):
            keep[i] = False
            continue
        edges.add(edge)
        for v in edge:
            if v in room:
                room[v] -= 1
                if not room[v]:
                    full.add(v)
        if linear:
            pairs.update(combinations(edge, 2))
    return keep


def _keys(rows: np.ndarray, n: int) -> np.ndarray:
    """One sortable key per row, equal exactly when the rows are.

    The key is the row's base-n code while n^width < 2^63, and its bytes past that.
    """
    if n ** rows.shape[1] < 2**63:
        return _row_codes(rows, n)
    return np.ascontiguousarray(rows).view(np.dtype((np.void, 8 * rows.shape[1]))).ravel()


def _member(keys: np.ndarray, table: set) -> np.ndarray:
    """Which keys are in the table."""
    found = np.fromiter(map(table.__contains__, keys.ravel().tolist()), dtype=bool, count=keys.size)
    return found.reshape(keys.shape)


def _repeated(keys: np.ndarray) -> np.ndarray:
    """Which keys occur more than once."""
    order = np.argsort(keys)
    same = keys[order[1:]] == keys[order[:-1]]
    repeated = np.zeros(len(keys), dtype=bool)
    repeated[order[1:][same]] = repeated[order[:-1][same]] = True
    return repeated


# -- the candidate stream ----------------------------------------------------
#
# ``random.Random.sample(range(n), u)`` draws each value with ``_randbelow(n)``:
# ``getrandbits(k)`` with k = n.bit_length(), redrawn while >= n.  For k <= 32
# that is the top k bits of one 32-bit word of the Mersenne Twister.  When n
# is above ``sample``'s pool size it also redraws a value the same call has
# already taken.  numpy's MT19937 is the same generator, so it is loaded with
# the state of ``random.Random(seed)`` and its words are cut into samples here.


class _Samples:
    """Successive ``rng.sample(range(n), u)`` of ``rng = random.Random(seed)``, as int64 rows.

    Below ``sample``'s pool size (21 for u <= 5) and for n >= 2^32 (two
    words per draw) it calls ``sample`` itself; otherwise it replays the
    words in numpy and draws about as many as the rows asked for need.
    """

    def __init__(self, n: int, u: int, seed: int):
        self.n, self.u = n, u
        self._rng = random.Random(seed)
        pool_size = 21 + (4 ** math.ceil(math.log(u * 3, 4)) if u > 5 else 0)
        self._words = _replay(self._rng) if pool_size < n < 2**32 else None
        self._values = np.empty(0, dtype=np.int64)  # drawn, not yet in a row

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` samples, each row in the order ``sample`` returns it."""
        n, u = self.n, self.u
        if self._words is None:
            rows = [self._rng.sample(range(n), u) for _ in range(count)]
            return np.array(rows, dtype=np.int64).reshape(-1, u)
        k = n.bit_length()
        pieces = []
        while count:
            wanted = max(count * u - len(self._values), u)
            fresh = (self._words.random_raw(-(-(wanted << k) // n)) >> (32 - k)).astype(np.int64)
            values = np.concatenate((self._values, fresh[fresh < n]))
            rows, used = _split_samples(values, u, count)
            self._values = values[used:]
            pieces.append(rows)
            count -= len(rows)
        return np.concatenate(pieces) if pieces else np.empty((0, u), dtype=np.int64)


def _replay(rng: random.Random) -> np.random.MT19937:
    """A numpy Mersenne Twister in ``rng``'s state: its raw words are ``rng.getrandbits(32)``."""
    state = rng.getstate()[1]
    words = np.random.MT19937(0)
    words.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(state[:-1], dtype=np.uint32), "pos": state[-1]},
    }
    return words


def _split_samples(values: np.ndarray, u: int, max_rows: int) -> tuple[np.ndarray, int]:
    """Up to ``max_rows`` samples of u distinct values read from values, and how many values they use.

    A sample takes the next u values unless a value repeats one it already
    took; then it skips the repeat and reads on.  Windows of u values without
    a repeat are rows as they stand, and only a window with one is read value
    by value.
    """
    span = len(values) - u + 1  # windows that fit
    if span <= 0:
        return np.empty((0, u), dtype=np.int64), 0
    repeats = np.zeros(span, dtype=bool)
    for i, j in combinations(range(u), 2):
        repeats |= values[i : i + span] == values[j : j + span]
    clashes = np.flatnonzero(repeats)
    by_phase = [clashes[clashes % u == phase].tolist() for phase in range(u)]
    pieces: list = []  # runs of whole windows, and the rows read value by value
    made = at = 0
    while made < max_rows:
        phase = by_phase[at % u]
        next_clash = bisect_left(phase, at)
        stop = phase[next_clash] if next_clash < len(phase) else span
        count = min(len(range(at, stop, u)), max_rows - made)
        pieces.append(values[at : at + count * u])
        made += count
        at += count * u
        if made == max_rows or next_clash == len(phase):
            break
        row, end = [], at
        while len(row) < u and end < len(values):
            value = int(values[end])
            end += 1
            if value not in row:
                row.append(value)
        if len(row) < u:
            break
        pieces.append(row)
        made += 1
        at = end
    return np.concatenate(pieces).reshape(-1, u), at
