"""Command line front door: generate, decompose, partition, colour, check, probe, bench.

One runner, :func:`main`, carries every call: it parses the flags, starts
the clock, reads and hashes the instance, runs the subcommand, writes the
``--json`` run record and maps errors to exit statuses.  A subcommand takes
the parsed flags and the loaded instance (None for ``generate`` and
``bench``), prints its summary and returns its exit status with the
record's outcome.  The record holds ``schema``, ``command``, ``params`` (the
parsed flags), ``seed``, ``instance_digest`` (sha256 of the text read, of
the text ``generate`` wrote, or null), ``outcome`` and ``wall_clock_s``.

Exit status is 0 on success, 1 when a computation produced or found an
invalid colouring (verifier violations, exhausted resampling budget), 2 on
usage errors (bad flags, malformed files, size guard; no record is
written), and 141 (128 + SIGPIPE), silently, when stdout is closed early.

All randomness flows from ``--seed`` (default 0, never wall clock), so a
repeated invocation reproduces its record byte for byte apart from the
``wall_clock_s`` field.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from typing import Any, Sequence

from .analysis import (
    SizeGuardError,
    bad_vertex_ceiling,
    exact_defective_chromatic,
    probe_bad_vertex,
    probe_mono_edge,
    verify,
)
from .engine import (
    MODES,
    BudgetExhaustedError,
    Colouring,
    EngineConfig,
    run_engine,
)
from .generators import (
    complete,
    grid,
    random_bounded_degree,
    random_linear,
)
from .hypergraph import Hypergraph, InstanceFormatError, format_instance, parse_instance
from .partition import (
    max_cut_search,
    within_part_incident_counts,
)
from .sunflowers import decompose, leftover_bound

__all__ = ["main", "entry"]

# Largest vertex or edge count `generate` builds without --force.
GENERATE_GUARD = 2_000_000


# -- plumbing ---------------------------------------------------------------------

# A subcommand's exit status and its record's outcome (None: no record).
_Result = tuple[int, dict[str, Any] | None]

# Exit status when stdout is closed before the output is written: 128 + SIGPIPE.
_CLOSED_PIPE = 141


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_instance(path: str) -> tuple[Hypergraph, str]:
    text = _read_text(path)
    return parse_instance(text), _digest(text)


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_record(
    args: argparse.Namespace,
    digest: str | None,
    outcome: dict[str, Any],
    started: float,
) -> None:
    record = {
        "schema": 1,
        "command": args.command,
        "params": {k: v for k, v in vars(args).items() if k not in ("func", "json")},
        "seed": args.seed,
        "instance_digest": digest,
        "outcome": outcome,
        "wall_clock_s": round(time.perf_counter() - started, 6),
    }
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_assignment(path: str, n: int) -> Colouring:
    seen: dict[int, int] = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InstanceFormatError(lineno, f"expected 'vertex colour', got {raw!r}")
        try:
            v, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise InstanceFormatError(lineno, f"expected integers, got {raw!r}") from None
        if not 0 <= v < n:
            raise InstanceFormatError(lineno, f"vertex {v} outside 0..{n - 1}")
        if c < 0:
            raise InstanceFormatError(lineno, f"colour {c} is negative")
        if v in seen:
            raise InstanceFormatError(lineno, f"vertex {v} assigned twice")
        seen[v] = c
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen.keys())
        raise ValueError(f"{path}: {len(missing)} vertices unassigned (first: {missing[:5]})")
    colours = tuple(seen[v] for v in range(n))
    return Colouring(colours, (max(colours) + 1) if colours else 1)


def _write_labels(path: str, labels: Sequence[int | None]) -> None:
    """Write one 'vertex label' line per vertex: its colour, which for a partition is its part."""
    with open(path, "w", encoding="utf-8") as fh:
        for v, label in enumerate(labels):
            fh.write(f"{v} {label}\n")


def _build(family: str, n: int, k: int, max_degree: int = 0, edges: int = 0, seed: int = 0) -> Hypergraph:
    """A generated instance; k is the edge size, or the dimension for grid."""
    if family == "complete":
        return complete(n, k)
    if family == "grid":
        return grid(n, k)
    sample = random_bounded_degree if family == "random" else random_linear
    return sample(n, k, max_degree, edges, seed=seed)


# -- subcommands ------------------------------------------------------------------


def _past_generate_guard(args: argparse.Namespace) -> bool:
    """Whether the flags ask for more than GENERATE_GUARD vertices or edges.

    complete has n vertices and C(n, u) edges; grid has n^r vertices and
    (n(n-1)/2)^r edges.  Capping the choice and the exponent at 64 keeps
    the check instant without changing its answer, since either count is
    then past 2^64.  random and linear keep a table of n degrees and draw
    up to 10 * edges candidates, so n and --edges are checked.  Flags the
    generator rejects anyway pass through.
    """
    n, u, r = args.n, args.u, args.r
    if args.family == "complete" and 2 <= u <= n:
        return max(n, math.comb(n, min(u, n - u, 64))) > GENERATE_GUARD
    if args.family == "grid" and n >= 2 and r >= 1:
        return max(n, n * (n - 1) // 2) ** min(r, 64) > GENERATE_GUARD
    if args.family in ("random", "linear"):
        return max(n, args.edges) > GENERATE_GUARD
    return False


def _cmd_generate(args: argparse.Namespace, _: None) -> _Result:
    """The outcome carries the written text's digest, which main lifts into the record."""
    family = args.family
    if args.edges is None:
        args.edges = 2 * args.n
    if not args.force and _past_generate_guard(args):
        raise SizeGuardError(
            f"{family} instance has more than {GENERATE_GUARD} vertices or edges; "
            "pass --force to build it anyway"
        )
    k = args.r if family == "grid" else args.u
    hg = _build(family, args.n, k, args.max_degree, args.edges, args.seed)
    text = format_instance(hg)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {family} instance: n={hg.n} m={hg.m} u={hg.u} max_degree={hg.max_degree} -> {args.out}")
    else:
        sys.stdout.write(text)
    outcome = {"family": family, "n": hg.n, "m": hg.m, "u": hg.u, "max_degree": hg.max_degree}
    return 0, {**outcome, "instance_digest": _digest(text)}


def _cmd_sunflower(args: argparse.Namespace, hg: Hypergraph) -> _Result:
    result = decompose(hg, args.petals)
    for i, sf in enumerate(result.sunflowers):
        core = ",".join(map(str, sf.core)) or "-"
        print(f"sunflower {i}: core={core} petals={sf.petal_count}")
    extracted = sum(sf.petal_count for sf in result.sunflowers)
    bound = leftover_bound(hg.u, args.petals)
    print(
        f"extracted {len(result.sunflowers)} sunflowers covering {extracted} edges; "
        f"leftover {len(result.leftover)} (bound {bound})"
    )
    return 0, {
        "petals": args.petals,
        "sunflowers": len(result.sunflowers),
        "extracted_edges": extracted,
        "leftover": len(result.leftover),
        "leftover_bound": bound,
    }


def _cmd_maxcut(args: argparse.Namespace, hg: Hypergraph) -> _Result:
    run = max_cut_search(hg, args.parts, seed=args.seed)
    worst = int(within_part_incident_counts(hg, run.partition).max(initial=0))
    bound = (hg.u - 1) * hg.max_degree / args.parts  # the largest guarantee_bound over the vertices
    print(f"parts={args.parts} moves={run.moves}")
    print(f"pair objective: {run.initial_objective} -> {run.final_objective}")
    print(f"worst within-part incident count {worst} (per-vertex bound up to {bound:.3f})")
    if args.out:
        _write_labels(args.out, run.partition.colours)
    return 0, {
        "parts": args.parts,
        "moves": run.moves,
        "initial_objective": run.initial_objective,
        "final_objective": run.final_objective,
        "max_within_part": worst,
    }


def _cmd_color(args: argparse.Namespace, hg: Hypergraph) -> _Result:
    config = EngineConfig(mode=args.mode, defect=args.defect, seed=args.seed, budget=args.budget)
    try:
        result = run_engine(hg, config)
    except BudgetExhaustedError as exc:
        print(f"colouring failed: {exc}", file=sys.stderr)
        return 1, {"mode": args.mode, "valid": False, "error": str(exc)}
    report = verify(hg, result.colouring, args.defect)
    resamples = sum(t.resamples for t in result.traces)
    print(
        f"mode={args.mode} defect={args.defect} n={hg.n} m={hg.m} u={hg.u} "
        f"max_degree={hg.max_degree}"
    )
    print(f"colours: palette {result.colouring.num_colours}, distinct used {report.colours_used}")
    print(
        f"rounds={len(result.traces)} resamples={resamples} "
        f"max_mono_degree={report.max_mono_degree} violations={len(report.violating)}"
    )
    if args.out:
        _write_labels(args.out, result.colouring.colours)
        print(f"assignment -> {args.out}")
    if report.is_defective:
        print("verifier: ok")
    else:
        print(f"INVALID: violating vertices {list(report.violating)[:10]}", file=sys.stderr)
    return (0 if report.is_defective else 1), {
        "mode": args.mode,
        "defect": args.defect,
        "palette": result.colouring.num_colours,
        "distinct": report.colours_used,
        "rounds": len(result.traces),
        "resamples": resamples,
        "max_mono_degree": report.max_mono_degree,
        "violations": len(report.violating),
        "valid": report.is_defective,
    }


def _cmd_verify(args: argparse.Namespace, hg: Hypergraph) -> _Result:
    colouring = _read_assignment(args.assignment, hg.n)
    report = verify(hg, colouring, args.defect)
    print(f"defect bound     : {args.defect}")
    print(f"vertices         : {hg.n}")
    print(f"colours used     : {report.colours_used}")
    print(f"max mono degree  : {report.max_mono_degree}")
    print(f"proper           : {'yes' if report.proper else 'no'}")
    if report.violating:
        shown = " ".join(map(str, report.violating[:10]))
        print(f"violating ({len(report.violating)}): {shown}")
    else:
        print("violating (0)")
    return (0 if report.is_defective else 1), {
        "defect": args.defect,
        "colours_used": report.colours_used,
        "max_mono_degree": report.max_mono_degree,
        "violations": len(report.violating),
        "valid": report.is_defective,
    }


def _cmd_exact(args: argparse.Namespace, hg: Hypergraph) -> _Result:
    value = exact_defective_chromatic(hg, args.defect, limit=args.limit, force=args.force)
    if value is None:
        cap = args.limit if args.limit is not None else max(1, hg.n)
        print(f"no {args.defect}-defective colouring with <= {cap} colours")
    else:
        print(f"defective chromatic number (d={args.defect}): {value}")
    return 0, {"defect": args.defect, "limit": args.limit, "value": value}


def _cmd_probe(args: argparse.Namespace, hg: Hypergraph) -> _Result:
    r = hg.u - 1
    if args.what == "mono-edge":
        stats = probe_mono_edge(hg, args.k, args.trials, seed=args.seed)
        target = float(args.k) ** (-r)
        print(f"mono-edge probe: k={args.k} trials={args.trials}")
        print(f"estimate {stats.estimate:.6f} +- {stats.se:.6f} (target {target:.6f})")
        specific = {"target": target}
    else:
        stats = probe_bad_vertex(hg, args.k, args.defect, args.vertex, args.trials, seed=args.seed)
        ceiling = bad_vertex_ceiling(hg, args.vertex, args.k, args.defect)
        print(f"bad-vertex probe: v={args.vertex} k={args.k} d={args.defect} trials={args.trials}")
        print(f"estimate {stats.estimate:.6f} +- {stats.se:.6f} (Markov ceiling {ceiling:.6f})")
        specific = {"defect": args.defect, "vertex": args.vertex, "ceiling": ceiling}
    return 0, {
        "what": args.what,
        "k": args.k,
        "trials": args.trials,
        "estimate": stats.estimate,
        "se": stats.se,
        **specific,
    }


# Bench suites: rows of (label, mode, d, instance spec), a spec being _build's
# arguments before the seed.  Row i draws with --seed + i.
_SUITES: dict[str, tuple[tuple[str, str, int, tuple[Any, ...]], ...]] = {
    "graphs-small": (
        ("graph-n20", "graph-maxcut", 1, ("random", 20, 2, 6, 40)),
        ("graph-n30", "graph-maxcut", 1, ("random", 30, 2, 8, 75)),
        ("graph-n40", "graph-maxcut", 2, ("random", 40, 2, 10, 100)),
        ("graph-n24", "graph-maxcut", 2, ("random", 24, 2, 6, 48)),
    ),
    "uniform3-small": (
        ("uniform3-n18", "theorem", 1, ("random", 18, 3, 8, 36)),
        ("uniform3-n24", "theorem", 1, ("random", 24, 3, 10, 60)),
        ("uniform3-n30", "theorem", 2, ("random", 30, 3, 12, 75)),
    ),
    "linear3-small": (
        ("linear3-n30", "naive-lll", 1, ("linear", 30, 3, 6, 40)),
        ("linear3-n40", "naive-lll", 1, ("linear", 40, 3, 8, 60)),
        ("linear3-n50", "naive-lll", 2, ("linear", 50, 3, 8, 80)),
    ),
    "grid-small": (
        ("grid-4x4", "adaptive", 1, ("grid", 4, 2)),
        ("grid-5x5", "adaptive", 2, ("grid", 5, 2)),
        ("grid-3^3", "theorem", 2, ("grid", 3, 3)),
    ),
}


def _cmd_bench(args: argparse.Namespace, _: None) -> _Result:
    rows = _SUITES[args.suite]
    if args.limit is not None:
        if args.limit < 0:
            raise ValueError(f"limit must be >= 0, got {args.limit}")
        rows = rows[: args.limit]
    print(
        f"{'instance':<14} {'mode':<13} {'n':>4} {'maxdeg':>6} {'d':>2} "
        f"{'colours':>7} {'reference':>9} {'ratio':>7} {'seconds':>8}"
    )
    out_rows: list[dict[str, Any]] = []
    for i, (label, mode, d, spec) in enumerate(rows):
        hg = _build(*spec, seed=args.seed + i)
        t0 = time.perf_counter()
        result = run_engine(hg, EngineConfig(mode=mode, defect=d, seed=args.seed))
        elapsed = time.perf_counter() - t0
        if not verify(hg, result.colouring, d).is_defective:
            print(f"INVALID colouring on {label}", file=sys.stderr)
            return 1, None
        colours = result.colouring.num_colours
        reference = (hg.max_degree / (d + 1)) ** (1.0 / (hg.u - 1)) if hg.max_degree > 0 else 0.0
        ratio = colours / reference if reference else None
        ratio_s = f"{ratio:7.3f}" if ratio is not None else f"{'-':>7}"
        print(
            f"{label:<14} {mode:<13} {hg.n:>4} {hg.max_degree:>6} "
            f"{d:>2} {colours:>7} {reference:9.3f} {ratio_s} {elapsed:8.3f}"
        )
        out_rows.append(
            {
                "label": label,
                "mode": mode,
                "n": hg.n,
                "max_degree": hg.max_degree,
                "d": d,
                "colours": colours,
                "reference": reference,
                "ratio": ratio,
                "seconds": round(elapsed, 6),
            }
        )
    return 0, {"suite": args.suite, "rows": out_rows}


# -- parser -----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call and shared by every later one.

    Each ``parse_args`` call makes a fresh namespace from the defaults, so no
    call's flags reach the next.
    """
    parser = argparse.ArgumentParser(
        prog="defcol",
        description="Defective colouring toolkit for uniform hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Any, help: str, instance: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        if instance:
            p.add_argument("instance", help="instance file path, or - for stdin")
        p.set_defaults(func=func, seed=0)
        return p

    p = command("generate", _cmd_generate, "emit a benchmark instance", instance=False)
    p.add_argument("--family", required=True, choices=["complete", "grid", "random", "linear"])
    p.add_argument("--n", type=int, required=True, help="vertices (side length for grid)")
    p.add_argument("--u", type=int, default=3, help="edge size (ignored by grid)")
    p.add_argument("--r", type=int, default=2, help="grid dimension")
    p.add_argument("--max-degree", type=int, default=6, dest="max_degree")
    p.add_argument("--edges", type=int, default=None, help="target edge count (default 2n)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write instance here instead of stdout")
    p.add_argument("--force", action="store_true", help="ignore the size guard")

    p = command("sunflower", _cmd_sunflower, "greedy sunflower decomposition")
    p.add_argument("--petals", type=int, required=True)

    p = command("maxcut", _cmd_maxcut, "local-search vertex partition")
    p.add_argument("--parts", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write 'vertex part' lines here")

    p = command("color", _cmd_color, "run a colouring mode and verify the result")
    p.add_argument("--mode", choices=list(MODES), default="theorem")
    p.add_argument("--defect", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None, help="resampling budget (default 64n)")
    p.add_argument("--out", default=None, help="write 'vertex colour' lines here")

    p = command("verify", _cmd_verify, "check an assignment file against a defect bound")
    p.add_argument("assignment", help="file of 'vertex colour' lines")
    p.add_argument("--defect", type=int, default=0)

    p = command("exact", _cmd_exact, "brute-force minimum palette size")
    p.add_argument("--defect", type=int, default=0)
    p.add_argument("--limit", type=int, default=None, help="largest palette to try (default n)")
    p.add_argument("--force", action="store_true", help="ignore the size guard")

    p = command("probe", _cmd_probe, "Monte Carlo estimate of a colouring event")
    p.add_argument("--what", choices=["mono-edge", "bad-vertex"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--defect", type=int, default=0)
    p.add_argument("--vertex", type=int, default=0)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = command("bench", _cmd_bench, "run a built-in suite and print a results table", instance=False)
    p.add_argument("--suite", required=True, choices=list(_SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=None, help="run only the first N instances")

    for p in sub.choices.values():
        p.add_argument("--json", metavar="PATH", default=None, help="write a JSON run record")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand: parse, load and hash the instance, run, write the record."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        hg, digest = _load_instance(args.instance) if "instance" in args else (None, None)
        code, outcome = args.func(args, hg)
        if outcome is not None and args.json:
            _write_record(args, outcome.pop("instance_digest", digest), outcome, started)
        sys.stdout.flush()
        return code
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return _CLOSED_PIPE
    except (ValueError, OSError) as exc:  # malformed files and size guards included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    code = main(sys.argv[1:])
    if code == _CLOSED_PIPE:
        # the interpreter flushes stdout again on exit; send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
