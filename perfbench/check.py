"""Independent checks of what the defcol CLI writes.

Nothing here calls into defcol: the mono-degree count is the checker's own
numpy count over the edges read back from the instance file, so a defect in
``defcol.verify`` cannot hide a defect in the colouring engine.

Run ``python3 perfbench/check.py`` to execute the self-test alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Instance:
    n: int
    u: int
    edges: np.ndarray  # (m, u) int64

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    @property
    def max_degree(self) -> int:
        if not self.m:
            return 0
        return int(np.bincount(self.edges.ravel(), minlength=self.n).max())


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str
    max_mono: int = 0
    distinct: int = 0


def read_instance(path: Path) -> Instance:
    """Read an instance written by ``defcol generate`` (header ``n m u``, no comments)."""
    tokens = path.read_text(encoding="utf-8").split()
    n, m, u = (int(t) for t in tokens[:3])
    edges = np.array(tokens[3:], dtype=np.int64).reshape(m, u)
    return Instance(n, u, edges)


def read_assignment(path: Path) -> np.ndarray:
    """``vertex colour`` lines as a (k, 2) array.

    Malformed text gives an empty array, which :func:`check_colouring`
    rejects as not total.
    """
    tokens = path.read_text(encoding="utf-8").split()
    try:
        return np.array(tokens, dtype=np.int64).reshape(-1, 2)
    except ValueError:  # a non-integer token or an odd token count
        return np.empty((0, 2), dtype=np.int64)


def check_colouring(inst: Instance, pairs: np.ndarray, d: int) -> Verdict:
    """Total, non-negative, and every vertex in at most d monochromatic edges."""
    vertices, colours_given = pairs[:, 0], pairs[:, 1]
    if vertices.shape[0] != inst.n or not np.array_equal(np.sort(vertices), np.arange(inst.n)):
        return Verdict(False, f"not total: {vertices.shape[0]} lines for {inst.n} vertices")
    if (colours_given < 0).any():
        return Verdict(False, "negative colour")
    colours = np.empty(inst.n, dtype=np.int64)
    colours[vertices] = colours_given
    distinct = int(np.unique(colours).shape[0])
    if not inst.m:
        return Verdict(True, "", 0, distinct)
    ec = colours[inst.edges]
    mono = (ec == ec[:, :1]).all(axis=1)
    mono_degree = np.bincount(inst.edges[mono].ravel(), minlength=inst.n)
    max_mono = int(mono_degree.max())
    if max_mono > d:
        worst = int(np.argmax(mono_degree))
        return Verdict(False, f"vertex {worst} in {max_mono} monochromatic edges > d={d}", max_mono, distinct)
    return Verdict(True, "", max_mono, distinct)


def check_sunflower_outcome(inst: Instance, outcome: dict, petals: int) -> Verdict:
    """Edge accounting of a ``defcol sunflower`` record, against the classical leftover bound."""
    flowers = outcome["sunflowers"]
    extracted = outcome["extracted_edges"]
    leftover = outcome["leftover"]
    bound = math.factorial(inst.u) * (petals - 1) ** inst.u
    if extracted != petals * flowers:
        return Verdict(False, f"{flowers} sunflowers of {petals} petals cover {extracted} edges")
    if extracted + leftover != inst.m:
        return Verdict(False, f"extracted {extracted} + leftover {leftover} != m={inst.m}")
    if leftover > bound:
        return Verdict(False, f"leftover {leftover} above the bound {bound}")
    return Verdict(True, "")


def selftest() -> None:
    """Reject planted bad colourings and accept a good one; raise RuntimeError otherwise."""
    inst = Instance(4, 3, np.array([[0, 1, 2], [1, 2, 3], [0, 2, 3]], dtype=np.int64))

    def pairs(colours: list[int]) -> np.ndarray:
        return np.array(list(enumerate(colours)), dtype=np.int64).reshape(-1, 2)

    cases = [
        ("proper colouring", pairs([0, 0, 1, 1]), 0, True),
        ("one colour, d=1", pairs([0, 0, 0, 0]), 1, False),
        ("one colour, d=3", pairs([0, 0, 0, 0]), 3, True),
        ("vertex 3 missing", pairs([0, 0, 1]), 0, False),
        ("vertex 0 twice", np.array([[0, 0], [0, 1], [1, 0], [2, 1]]), 0, False),
        ("negative colour", pairs([0, 0, -1, 1]), 0, False),
    ]
    for label, given, d, expected in cases:
        if check_colouring(inst, given, d).ok is not expected:
            raise RuntimeError(f"checker self-test failed on {label!r}: expected ok={expected}")


if __name__ == "__main__":
    selftest()
    print("checker self-test: ok")
