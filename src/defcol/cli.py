"""Command line front door: generate, decompose, partition, colour, check, probe, bench.

Every subcommand prints a human-readable summary to stdout and, with
``--json PATH``, writes a machine-readable run record.  Exit status is 0
on success, 1 when a computation produced or found an invalid colouring
(verifier violations, exhausted resampling budget), and 2 on usage
errors (bad flags, malformed files, size guard).

All randomness flows from ``--seed`` (default 0, never wall clock), so a
repeated invocation reproduces its record byte for byte apart from the
``wall_clock_s`` field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
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
    guarantee_bound,
    max_cut_search,
    within_part_incident_counts,
)
from .sunflowers import decompose, leftover_bound

__all__ = ["main", "entry"]

# Largest vertex or edge count `generate` builds without --force.
GENERATE_GUARD = 2_000_000


# -- plumbing ---------------------------------------------------------------------


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


def _params(args: argparse.Namespace) -> dict[str, Any]:
    skip = {"func", "json"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _write_record(
    args: argparse.Namespace,
    digest: str | None,
    outcome: dict[str, Any],
    started: float,
) -> None:
    if not getattr(args, "json", None):
        return
    record = {
        "schema": 1,
        "command": args.command,
        "params": _params(args),
        "seed": getattr(args, "seed", 0),
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


def _write_assignment(path: str, colouring: Colouring) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v, c in enumerate(colouring.colours):
            fh.write(f"{v} {c}\n")


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


def _cmd_generate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    family = args.family
    if not args.force and _past_generate_guard(args):
        raise SizeGuardError(
            f"{family} instance has more than {GENERATE_GUARD} vertices or edges; "
            "pass --force to build it anyway"
        )
    if family == "complete":
        hg = complete(args.n, args.u)
    elif family == "grid":
        hg = grid(args.n, args.r)
    elif family == "random":
        hg = random_bounded_degree(args.n, args.u, args.max_degree, args.edges, seed=args.seed)
    else:
        hg = random_linear(args.n, args.u, args.max_degree, args.edges, seed=args.seed)
    text = format_instance(hg)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {family} instance: n={hg.n} m={hg.m} u={hg.u} max_degree={hg.max_degree} -> {args.out}")
    else:
        sys.stdout.write(text)
    outcome = {"family": family, "n": hg.n, "m": hg.m, "u": hg.u, "max_degree": hg.max_degree}
    _write_record(args, _digest(text), outcome, started)
    return 0


def _cmd_sunflower(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    hg, digest = _load_instance(args.instance)
    if args.petals < 1:
        raise ValueError(f"petal count must be >= 1, got {args.petals}")
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
    outcome = {
        "petals": args.petals,
        "sunflowers": len(result.sunflowers),
        "extracted_edges": extracted,
        "leftover": len(result.leftover),
        "leftover_bound": bound,
    }
    _write_record(args, digest, outcome, started)
    return 0


def _cmd_maxcut(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    hg, digest = _load_instance(args.instance)
    run = max_cut_search(hg, args.parts, seed=args.seed)
    worst = int(within_part_incident_counts(hg, run.partition).max(initial=0))
    bound = max((guarantee_bound(hg, args.parts, x) for x in range(hg.n)), default=0.0)
    print(f"parts={args.parts} moves={run.moves}")
    print(f"pair objective: {run.initial_objective} -> {run.final_objective}")
    print(f"worst within-part incident count {worst} (per-vertex bound up to {bound:.3f})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for v, p in enumerate(run.partition.parts):
                fh.write(f"{v} {p}\n")
    outcome = {
        "parts": args.parts,
        "moves": run.moves,
        "initial_objective": run.initial_objective,
        "final_objective": run.final_objective,
        "max_within_part": worst,
    }
    _write_record(args, digest, outcome, started)
    return 0


def _cmd_color(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    hg, digest = _load_instance(args.instance)
    config = EngineConfig(mode=args.mode, defect=args.defect, seed=args.seed, budget=args.budget)
    try:
        result = run_engine(hg, config)
    except BudgetExhaustedError as exc:
        print(f"colouring failed: {exc}", file=sys.stderr)
        _write_record(args, digest, {"mode": args.mode, "valid": False, "error": str(exc)}, started)
        return 1
    report = verify(hg, result.colouring, args.defect)
    resamples = sum(t.resamples for t in result.traces)
    print(
        f"mode={args.mode} defect={args.defect} n={hg.n} m={hg.m} u={hg.u} "
        f"max_degree={hg.max_degree}"
    )
    print(
        f"colours: palette {result.colouring.num_colours}, "
        f"distinct used {result.colouring.distinct_used()}"
    )
    print(
        f"rounds={len(result.traces)} resamples={resamples} "
        f"max_mono_degree={report.max_mono_degree} violations={len(report.violating)}"
    )
    if args.out:
        _write_assignment(args.out, result.colouring)
        print(f"assignment -> {args.out}")
    outcome = {
        "mode": args.mode,
        "defect": args.defect,
        "palette": result.colouring.num_colours,
        "distinct": result.colouring.distinct_used(),
        "rounds": len(result.traces),
        "resamples": resamples,
        "max_mono_degree": report.max_mono_degree,
        "violations": len(report.violating),
        "valid": report.is_defective,
    }
    _write_record(args, digest, outcome, started)
    if not report.is_defective:
        print(f"INVALID: violating vertices {list(report.violating)[:10]}", file=sys.stderr)
        return 1
    print("verifier: ok")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    hg, digest = _load_instance(args.instance)
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
    outcome = {
        "defect": args.defect,
        "colours_used": report.colours_used,
        "max_mono_degree": report.max_mono_degree,
        "violations": len(report.violating),
        "valid": report.is_defective,
    }
    _write_record(args, digest, outcome, started)
    return 0 if report.is_defective else 1


def _cmd_exact(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    hg, digest = _load_instance(args.instance)
    value = exact_defective_chromatic(hg, args.defect, limit=args.limit, force=args.force)
    if value is None:
        cap = args.limit if args.limit is not None else max(1, hg.n)
        print(f"no {args.defect}-defective colouring with <= {cap} colours")
    else:
        print(f"defective chromatic number (d={args.defect}): {value}")
    outcome = {"defect": args.defect, "limit": args.limit, "value": value}
    _write_record(args, digest, outcome, started)
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    hg, digest = _load_instance(args.instance)
    r = hg.u - 1
    if args.what == "mono-edge":
        stats = probe_mono_edge(hg, args.k, args.trials, seed=args.seed)
        target = float(args.k) ** (-r)
        print(f"mono-edge probe: k={args.k} trials={args.trials}")
        print(f"estimate {stats.estimate:.6f} +- {stats.se:.6f} (target {target:.6f})")
        outcome = {
            "what": args.what,
            "k": args.k,
            "trials": args.trials,
            "estimate": stats.estimate,
            "se": stats.se,
            "target": target,
        }
    else:
        stats = probe_bad_vertex(hg, args.k, args.defect, args.vertex, args.trials, seed=args.seed)
        ceiling = bad_vertex_ceiling(hg, args.vertex, args.k, args.defect)
        print(
            f"bad-vertex probe: v={args.vertex} k={args.k} d={args.defect} trials={args.trials}"
        )
        print(f"estimate {stats.estimate:.6f} +- {stats.se:.6f} (Markov ceiling {ceiling:.6f})")
        outcome = {
            "what": args.what,
            "k": args.k,
            "defect": args.defect,
            "vertex": args.vertex,
            "trials": args.trials,
            "estimate": stats.estimate,
            "se": stats.se,
            "ceiling": ceiling,
        }
    _write_record(args, digest, outcome, started)
    return 0


_SUITES = ("graphs-small", "uniform3-small", "linear3-small", "grid-small")


def _suite_instances(name: str, seed: int) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    if name == "graphs-small":
        for i, (n, cap, m, d) in enumerate([(20, 6, 40, 1), (30, 8, 75, 1), (40, 10, 100, 2), (24, 6, 48, 2)]):
            hg = random_bounded_degree(n, 2, cap, m, seed=seed + i)
            rows.append({"label": f"graph-n{n}", "hg": hg, "d": d, "mode": "graph-maxcut"})
    elif name == "uniform3-small":
        for i, (n, cap, m, d) in enumerate([(18, 8, 36, 1), (24, 10, 60, 1), (30, 12, 75, 2)]):
            hg = random_bounded_degree(n, 3, cap, m, seed=seed + i)
            rows.append({"label": f"uniform3-n{n}", "hg": hg, "d": d, "mode": "theorem"})
    elif name == "linear3-small":
        for i, (n, cap, m, d) in enumerate([(30, 6, 40, 1), (40, 8, 60, 1), (50, 8, 80, 2)]):
            hg = random_linear(n, 3, cap, m, seed=seed + i)
            rows.append({"label": f"linear3-n{n}", "hg": hg, "d": d, "mode": "naive-lll"})
    elif name == "grid-small":
        rows.append({"label": "grid-4x4", "hg": grid(4, 2), "d": 1, "mode": "adaptive"})
        rows.append({"label": "grid-5x5", "hg": grid(5, 2), "d": 2, "mode": "adaptive"})
        rows.append({"label": "grid-3^3", "hg": grid(3, 3), "d": 2, "mode": "theorem"})
    else:
        raise ValueError(f"unknown suite {name!r} (have: {', '.join(_SUITES)})")
    return rows


def _cmd_bench(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    rows = _suite_instances(args.suite, args.seed)
    if args.limit is not None:
        if args.limit < 0:
            raise ValueError(f"limit must be >= 0, got {args.limit}")
        rows = rows[: args.limit]
    header = (
        f"{'instance':<14} {'mode':<13} {'n':>4} {'maxdeg':>6} {'d':>2} "
        f"{'colours':>7} {'reference':>9} {'ratio':>7} {'seconds':>8}"
    )
    print(header)
    out_rows: list[dict[str, Any]] = []
    for row in rows:
        hg: Hypergraph = row["hg"]
        config = EngineConfig(mode=row["mode"], defect=row["d"], seed=args.seed)
        t0 = time.perf_counter()
        result = run_engine(hg, config)
        elapsed = time.perf_counter() - t0
        report = verify(hg, result.colouring, row["d"])
        if not report.is_defective:
            print(f"INVALID colouring on {row['label']}", file=sys.stderr)
            return 1
        colours = result.colouring.num_colours
        r = hg.u - 1
        if hg.max_degree > 0:
            reference = (hg.max_degree / (row["d"] + 1)) ** (1.0 / r)
            ratio: float | None = colours / reference
            ref_s, ratio_s = f"{reference:9.3f}", f"{ratio:7.3f}"
        else:
            reference, ratio = 0.0, None
            ref_s, ratio_s = f"{'0.000':>9}", f"{'-':>7}"
        print(
            f"{row['label']:<14} {row['mode']:<13} {hg.n:>4} {hg.max_degree:>6} "
            f"{row['d']:>2} {colours:>7} {ref_s} {ratio_s} {elapsed:8.3f}"
        )
        out_rows.append(
            {
                "label": row["label"],
                "mode": row["mode"],
                "n": hg.n,
                "max_degree": hg.max_degree,
                "d": row["d"],
                "colours": colours,
                "reference": reference,
                "ratio": ratio,
                "seconds": round(elapsed, 6),
            }
        )
    _write_record(args, None, {"suite": args.suite, "rows": out_rows}, started)
    return 0


# -- parser -----------------------------------------------------------------------


def _add_instance(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance", help="instance file path, or - for stdin")


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", metavar="PATH", default=None, help="write a JSON run record")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defcol",
        description="Defective colouring toolkit for uniform hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a benchmark instance")
    p.add_argument("--family", required=True, choices=["complete", "grid", "random", "linear"])
    p.add_argument("--n", type=int, required=True, help="vertices (side length for grid)")
    p.add_argument("--u", type=int, default=3, help="edge size (ignored by grid)")
    p.add_argument("--r", type=int, default=2, help="grid dimension")
    p.add_argument("--max-degree", type=int, default=6, dest="max_degree")
    p.add_argument("--edges", type=int, default=None, help="target edge count (default 2n)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write instance here instead of stdout")
    p.add_argument("--force", action="store_true", help="ignore the size guard")
    _add_json(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("sunflower", help="greedy sunflower decomposition")
    _add_instance(p)
    p.add_argument("--petals", type=int, required=True)
    _add_json(p)
    p.set_defaults(func=_cmd_sunflower, seed=0)

    p = sub.add_parser("maxcut", help="local-search vertex partition")
    _add_instance(p)
    p.add_argument("--parts", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write 'vertex part' lines here")
    _add_json(p)
    p.set_defaults(func=_cmd_maxcut)

    p = sub.add_parser("color", help="run a colouring mode and verify the result")
    _add_instance(p)
    p.add_argument("--mode", choices=list(MODES), default="theorem")
    p.add_argument("--defect", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None, help="resampling budget (default 1000n)")
    p.add_argument("--out", default=None, help="write 'vertex colour' lines here")
    _add_json(p)
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("verify", help="check an assignment file against a defect bound")
    _add_instance(p)
    p.add_argument("assignment", help="file of 'vertex colour' lines")
    p.add_argument("--defect", type=int, default=0)
    _add_json(p)
    p.set_defaults(func=_cmd_verify, seed=0)

    p = sub.add_parser("exact", help="brute-force minimum palette size")
    _add_instance(p)
    p.add_argument("--defect", type=int, default=0)
    p.add_argument("--limit", type=int, default=None, help="largest palette to try (default n)")
    p.add_argument("--force", action="store_true", help="ignore the size guard")
    _add_json(p)
    p.set_defaults(func=_cmd_exact, seed=0)

    p = sub.add_parser("probe", help="Monte Carlo estimate of a colouring event")
    _add_instance(p)
    p.add_argument("--what", choices=["mono-edge", "bad-vertex"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--defect", type=int, default=0)
    p.add_argument("--vertex", type=int, default=0)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    _add_json(p)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("bench", help="run a built-in suite and print a results table")
    p.add_argument("--suite", required=True, help=f"one of: {', '.join(_SUITES)}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=None, help="run only the first N instances")
    _add_json(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "command", None) == "generate" and args.edges is None:
            args.edges = 2 * args.n
        return args.func(args)
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # malformed files and size guards included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
