"""The benchmark's workloads: which instances to generate and which CLI calls to time.

Every workload is a closed loop: one pass makes its CLI calls in order,
each starting when the previous one returns, in one process.  ``required``
lists the span names a traced pass (or, for ``generators``, the traced
set-up) must record at least once; a rename in the program that silently
empties one of them makes the traced run fail.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class InstanceSpec:
    name: str
    generate: tuple[str, ...]  # `defcol generate` flags, without --seed and --out


@dataclass(frozen=True)
class Call:
    instance: str
    command: str  # "color" or "sunflower"
    mode: str = ""  # colouring mode of a "color" call
    defect: int = 1
    petals: int = 3

    @property
    def label(self) -> str:
        what = self.mode if self.command == "color" else f"sunflower-a{self.petals}"
        return f"{self.instance}:{what}"


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[InstanceSpec, ...]
    calls: tuple[Call, ...]
    required: tuple[str, ...]


def _random(n: int, u: int, max_degree: int, edges: int) -> tuple[str, ...]:
    return ("--family", "random", "--n", str(n), "--u", str(u),
            "--max-degree", str(max_degree), "--edges", str(edges))


_ALWAYS = ("cli", "hypergraph.parse", "hypergraph.build", "analysis.verify", "generators")

WORKLOADS = {
    # Parsing, index building, verify and greedy do nearly all the work; the
    # resample loop does none (0 resamples).  An array-backed Hypergraph or a
    # faster verify should move it; incremental resampling should not.
    "large-sparse": Workload(
        name="large-sparse",
        instances=(
            InstanceSpec("r3", _random(20_000, 3, 30, 190_000)),
            InstanceSpec("r4", _random(20_000, 4, 30, 100_000)),
            InstanceSpec("l3", ("--family", "linear", "--n", "20000", "--u", "3",
                                "--max-degree", "30", "--edges", "100000")),
        ),
        calls=(
            Call("r3", "color", "theorem"),
            Call("r3", "color", "greedy-proper"),
            Call("r4", "color", "theorem"),
            Call("l3", "color", "naive-lll"),
        ),
        required=_ALWAYS + (
            "hypergraph.is_linear", "hypergraph.neighbour_sets", "engine.round", "engine.greedy",
            "engine.run.theorem", "engine.run.greedy-proper", "engine.run.naive-lll",
        ),
    ),
    # The k=2 probe of adaptive's palette search burns the full 1000*n
    # resample budget on every instance, so the nibble_round resample loop is
    # nearly all of the time; parse and verify cost almost nothing.  At these
    # sizes (n >= 35, D >= 16) k=2 fails on every seed tried and k=3, k=4
    # succeed within a few resamples, so the resample count hardly depends on
    # the seed.  With D=10-11, or n=25, k=2 sometimes succeeds and the pass
    # time swings with the seed.  Small n keeps a pass near 7 s, so a run
    # holds several passes.
    "adaptive-resample": Workload(
        name="adaptive-resample",
        instances=(
            InstanceSpec("a35", _random(35, 3, 18, 199)),
            InstanceSpec("a40", _random(40, 3, 18, 228)),
            InstanceSpec("a45", _random(45, 3, 16, 228)),
        ),
        calls=(
            Call("a35", "color", "adaptive"),
            Call("a40", "color", "adaptive"),
            Call("a45", "color", "adaptive"),
        ),
        required=_ALWAYS + (
            "hypergraph.induced", "hypergraph.neighbour_sets", "engine.round", "engine.run.adaptive",
        ),
    ),
    # Many small Hypergraph constructions (one per find_sunflower call, which
    # makes decompose quadratic in m) and link calls instead of one big
    # build; the only workload where partition and sunflowers do the work.
    # The complete hypergraph runs out of matchings early, so it supplies the
    # link calls the sparse instances barely make.
    "maxcut-sunflower": Workload(
        name="maxcut-sunflower",
        instances=(
            InstanceSpec("g2", _random(5_000, 2, 40, 95_000)),
            InstanceSpec("s2k", _random(600, 3, 12, 2_000)),
            InstanceSpec("s3k", _random(900, 3, 12, 3_000)),
            InstanceSpec("k22", ("--family", "complete", "--n", "22", "--u", "3")),
        ),
        calls=(
            Call("g2", "color", "graph-maxcut"),
            Call("s2k", "sunflower"),
            Call("s3k", "sunflower"),
            Call("k22", "sunflower"),
        ),
        required=_ALWAYS + (
            "hypergraph.link", "partition.search", "sunflowers.decompose",
            "sunflowers.find", "engine.run.graph-maxcut",
        ),
    ),
}
