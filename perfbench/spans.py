"""Span tracing of defcol's layers from outside the package.

Each public function of a layer is wrapped by rebinding the name where its
caller looks it up (``defcol.engine.nibble_round`` for the colouring loops
in the engine, ``Hypergraph.__init__`` on the class, ``defcol.cli.verify``
for the CLI).  Nothing under ``src/`` changes.  A span is ``(name, start, end,
parent)`` and is kept in memory; a layer's self time is its spans'
durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

# Fixed here, not read from defcol.engine.MODES: BENCHMARK.json names one
# engine.run_s.<mode> metric per mode.
MODES = ("theorem", "adaptive", "naive-lll", "graph-maxcut", "greedy-proper")

Span = tuple[str, float, float, int]


class TraceSetupError(RuntimeError):
    """A name the tracer wraps no longer exists in the program."""


def _count_round(result: Any, counts: Counter) -> None:
    trace = result[2]
    counts["resamples"] += trace.resamples
    if trace.succeeded:
        counts["round_successes"] += 1
    else:
        counts["wasted_resamples"] += trace.resamples


def _count_moves(result: Any, counts: Counter) -> None:
    counts["moves"] += result.moves


def _count_extracted(result: Any, counts: Counter) -> None:
    counts["sunflowers_extracted"] += len(result.sunflowers)


def _engine_run_name(args: tuple, kwargs: dict) -> str:
    config = kwargs["config"] if "config" in kwargs else args[1]
    return f"engine.run.{config.mode}"


def layer_points(modules: dict[str, Any]) -> list[tuple[Any, str, Any, Any]]:
    """(owner, attribute, span name, result counter) for every wrapped name.

    ``modules`` maps ``"cli"``, ``"engine"``, ``"partition"``,
    ``"sunflowers"`` and ``"hypergraph"`` to the imported modules.
    """
    cli, engine = modules["cli"], modules["engine"]
    hg = modules["hypergraph"].Hypergraph
    return [
        (cli, "main", "cli", None),
        (cli, "parse_instance", "hypergraph.parse", None),
        (hg, "__init__", "hypergraph.build", None),
        (hg, "induced", "hypergraph.induced", None),
        (hg, "link", "hypergraph.link", None),
        (hg, "neighbour_sets", "hypergraph.neighbour_sets", None),
        (hg, "is_linear", "hypergraph.is_linear", None),
        (cli, "complete", "generators", None),
        (cli, "random_bounded_degree", "generators", None),
        (cli, "random_linear", "generators", None),
        (cli, "run_engine", _engine_run_name, None),
        (engine, "nibble_round", "engine.round", _count_round),
        (engine, "greedy_proper", "engine.greedy", None),
        (modules["partition"], "max_cut_search", "partition.search", _count_moves),
        (cli, "decompose", "sunflowers.decompose", _count_extracted),
        (modules["sunflowers"], "find_sunflower", "sunflowers.find", None),
        (cli, "verify", "analysis.verify", None),
    ]


@dataclass
class Tracer:
    """Installs span wrappers, collects spans and counts, and removes the wrappers again."""

    points: list[tuple[Any, str, Any, Any]]
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        missing = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, _ in self.points
            if attr not in vars(owner)
        ]
        if missing:
            raise TraceSetupError(f"traced names no longer exist: {', '.join(missing)}")

    def install(self) -> None:
        for owner, attr, name, counter in self.points:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list[Span], Counter]:
        """Spans and counts recorded so far; the tracer starts empty again."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def _wrap(self, fn: Callable, name: Any, counter: Any) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name if isinstance(name, str) else name(args, kwargs)
            index = len(self.spans)
            self.spans.append((label, 0.0, 0.0, -1))
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (label, start, end, parent)
            if counter is not None:
                counter(result, self.counts)
            return result

        return traced


def self_times(spans: list[Span]) -> tuple[Counter, Counter, Counter]:
    """Per span name: self seconds, inclusive seconds, and calls."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    calls: Counter = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        self_s[name] += end - start - covered[i]
        total_s[name] += end - start
        calls[name] += 1
    return self_s, total_s, calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """The per-layer metrics of one traced pass (generators and overhead are added by the caller)."""
    self_s, total_s, calls = self_times(spans)
    resamples = counts["resamples"]
    out = {
        "hypergraph.parse_s": self_s["hypergraph.parse"],
        "hypergraph.build_s": self_s["hypergraph.build"],
        "hypergraph.builds": calls["hypergraph.build"],
        "hypergraph.induced_s": self_s["hypergraph.induced"],
        "hypergraph.induced_calls": calls["hypergraph.induced"],
        "hypergraph.link_s": self_s["hypergraph.link"],
        "hypergraph.link_calls": calls["hypergraph.link"],
        "hypergraph.neighbour_sets_s": self_s["hypergraph.neighbour_sets"],
        "hypergraph.is_linear_s": self_s["hypergraph.is_linear"],
        "engine.round_s": self_s["engine.round"],
        "engine.round_calls": calls["engine.round"],
        "engine.round_success_ratio": _ratio(counts["round_successes"], calls["engine.round"]),
        "engine.resamples": resamples,
        "engine.wasted_resample_frac": _ratio(counts["wasted_resamples"], resamples),
        "engine.us_per_resample": _ratio(1e6 * self_s["engine.round"], resamples),
        "engine.greedy_s": self_s["engine.greedy"],
        "engine.greedy_calls": calls["engine.greedy"],
        "partition.search_s": self_s["partition.search"],
        "partition.moves": counts["moves"],
        "partition.moves_per_s": _ratio(counts["moves"], self_s["partition.search"]),
        "sunflowers.decompose_s": self_s["sunflowers.decompose"],
        "sunflowers.find_s": self_s["sunflowers.find"],
        "sunflowers.find_calls": calls["sunflowers.find"],
        "sunflowers.extracted": counts["sunflowers_extracted"],
        "analysis.verify_s": self_s["analysis.verify"],
        "cli.self_s": self_s["cli"],
    }
    for mode in MODES:
        out[f"engine.run_s.{mode}"] = total_s[f"engine.run.{mode}"]
    return out
