"""Benchmark of defcol through its user path: in-process calls to ``defcol.cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload large-sparse --seed 1 --seconds 25 --trace 0

The run generates the workload's instances from ``--seed`` with
``defcol generate`` (three times, for ``setup_s``), then repeats timed passes
over the workload's CLI calls until ``--seconds`` have gone by, checks every
output with the independent checker in ``check.py`` and prints one JSON
object as the last line of stdout.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``spans.py`` plus the tracing overhead.  Per-call detail
rows, and the spans of a traced run, are written under
``.perfbench-work/<workload>-seed<seed>-trace<trace>/``.
"""

from __future__ import annotations

import os

# All load comes from this one process: keep numpy's BLAS and OpenMP pools at
# one thread.  This must happen before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import spans as spanlib
from workloads import WORKLOADS, Call, Workload

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
CALL_DEADLINE_S = 60.0
# A run must end within 180 s; calls get cut so the process ends before that.
PROCESS_BUDGET_S = 165.0


class CallDeadline(Exception):
    """Raised by the SIGALRM handler inside a CLI call that ran past its deadline."""


def _on_alarm(signum: int, frame: Any) -> None:
    raise CallDeadline()


@dataclass
class CallResult:
    rc: int | None  # None when the call was cut by its deadline
    seconds: float
    stdout: str
    stderr: str
    probes: int | None  # nibble attempts summed over the engine's round traces


def load_program() -> tuple[dict[str, Any], float]:
    """Import defcol from this checkout's ``src/`` and time the import (numpy included)."""
    src = ROOT / "src"
    if not (src / "defcol" / "cli.py").is_file():
        raise SystemExit(f"error: no defcol sources at {src / 'defcol'}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    modules = {
        name: importlib.import_module(f"defcol.{name}")
        for name in ("cli", "engine", "hypergraph", "partition", "sunflowers")
    }
    import_s = time.perf_counter() - start
    if not Path(modules["cli"].__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported defcol from {modules['cli'].__file__}, not from {src}")
    return modules, import_s


class Runner:
    """Makes CLI calls with a deadline each and records the engine's round traces."""

    def __init__(self, cli: Any, started: float):
        self.cli = cli
        self.started = started
        self._traces: tuple | None = None
        run_engine = cli.run_engine

        def capture(*args: Any, **kwargs: Any) -> Any:
            result = run_engine(*args, **kwargs)
            self._traces = result.traces
            return result

        cli.run_engine = capture

    def invoke(self, argv: list[str]) -> CallResult:
        limit = min(CALL_DEADLINE_S, PROCESS_BUDGET_S - (time.perf_counter() - self.started))
        if limit <= 0:
            return CallResult(None, 0.0, "", "not started: run time budget used up", None)
        out, err = io.StringIO(), io.StringIO()
        self._traces = None
        rc: int | None = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                signal.setitimer(signal.ITIMER_REAL, limit)
                try:
                    rc = self.cli.main(argv)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except CallDeadline:
            err.write(f"deadline: cut after {limit:.1f} s\n")
        seconds = time.perf_counter() - start
        probes = sum(t.probes for t in self._traces) if self._traces is not None else None
        return CallResult(rc, seconds, out.getvalue(), err.getvalue(), probes)


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path, runner: Runner, check: Any):
        self.workload = workload
        self.seed = seed
        self.runner = runner
        self.check = check
        self.inst_dir = work / "instances"
        self.out_dir = work / "outputs"
        self.instances: dict[str, Any] = {}
        self.first_outcomes: dict[int, dict] = {}
        self.rows: list[dict] = []
        self.spans_out: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def setup(self) -> float:
        """Generate and write every instance; returns the seconds it took."""
        self.inst_dir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        for i, spec in enumerate(self.workload.instances):
            argv = ["generate", *spec.generate, "--seed", str(1000 * self.seed + i),
                    "--out", str(self.inst_dir / f"{spec.name}.txt")]
            result = self.runner.invoke(argv)
            if result.rc != 0:
                raise SystemExit(f"error: generating {spec.name} failed: {result.stderr.strip()}")
        return time.perf_counter() - start

    def load_instances(self) -> None:
        for spec in self.workload.instances:
            self.instances[spec.name] = self.check.read_instance(self.inst_dir / f"{spec.name}.txt")

    def _paths(self, i: int) -> tuple[Path, Path]:
        return self.out_dir / f"call{i}.col", self.out_dir / f"call{i}.json"

    def _argv(self, i: int, call: Call) -> list[str]:
        out, record = self._paths(i)
        instance = str(self.inst_dir / f"{call.instance}.txt")
        if call.command == "color":
            return ["color", instance, "--mode", call.mode, "--defect", str(call.defect),
                    "--seed", str(self.seed), "--out", str(out), "--json", str(record)]
        return ["sunflower", instance, "--petals", str(call.petals), "--json", str(record)]

    def run_pass(self, index: int, traced: bool) -> tuple[float, list[dict]]:
        """One closed-loop pass; outputs are checked afterwards, outside the timed region."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        argvs = [self._argv(i, call) for i, call in enumerate(self.workload.calls)]
        results = []
        start = time.perf_counter()
        for argv in argvs:
            results.append(self.runner.invoke(argv))
        wall = time.perf_counter() - start
        rows = [self._evaluate(index, traced, i, result) for i, result in enumerate(results)]
        self.rows.extend(rows)
        return wall, rows

    def _evaluate(self, pass_index: int, traced: bool, i: int, result: CallResult) -> dict:
        call = self.workload.calls[i]
        inst = self.instances[call.instance]
        row: dict[str, Any] = {
            "pass": pass_index, "traced": traced, "call": call.label, "command": call.command,
            "mode": call.mode or None, "n": inst.n, "m": inst.m, "u": inst.u,
            "max_degree": inst.max_degree, "d": call.defect if call.command == "color" else None,
            "palette": None, "distinct": None, "rounds": None, "resamples": None,
            "probes": result.probes, "seconds": result.seconds, "exit": result.rc,
            "ok": False, "note": "",
        }
        self.attempted += 1
        out_path, record_path = self._paths(i)
        if result.rc is None:
            # Partial output of a call cut by its deadline: what it printed so far.
            row["note"] = (result.stderr + result.stdout).strip()[-500:]
        elif not record_path.is_file():
            row["note"] = f"exit {result.rc} without a record: {result.stderr.strip()[-300:]}"
        else:
            outcome = json.loads(record_path.read_text(encoding="utf-8"))["outcome"]
            row["ok"] = self._check_outcome(i, call, inst, outcome, out_path, result.rc, row)
        if not row["ok"]:
            self.failed += 1
        return row

    def _check_outcome(self, i: int, call: Call, inst: Any, outcome: dict, out_path: Path,
                       rc: int, row: dict) -> bool:
        first = self.first_outcomes.setdefault(i, outcome)
        if outcome != first:
            self.wrong.append(f"{call.label}: record differs between passes of one seed")
        if call.command == "sunflower":
            row.update(sunflowers=outcome["sunflowers"], extracted=outcome["extracted_edges"],
                       leftover=outcome["leftover"])
            verdict = self.check.check_sunflower_outcome(inst, outcome, call.petals)
            if not verdict.ok:
                self.wrong.append(f"{call.label}: {verdict.reason}")
            row["note"] = verdict.reason
            return rc == 0 and verdict.ok
        row.update(palette=outcome.get("palette"), distinct=outcome.get("distinct"),
                   rounds=outcome.get("rounds"), resamples=outcome.get("resamples"))
        if rc != 0:
            row["note"] = outcome.get("error", f"exit {rc}")
            return False
        verdict = self.check.check_colouring(inst, self.check.read_assignment(out_path), call.defect)
        claims = (outcome["valid"], outcome["distinct"], outcome["max_mono_degree"])
        if not verdict.ok or claims != (True, verdict.distinct, verdict.max_mono) \
                or outcome["palette"] < verdict.distinct:
            reason = verdict.reason or f"record claims {claims}, checker found " \
                f"distinct={verdict.distinct} max_mono={verdict.max_mono}"
            self.wrong.append(f"{call.label}: {reason}")
            row["note"] = reason
            return False
        return True


def measure(bench: Bench, seconds: float, tracer: spanlib.Tracer | None) -> dict[str, float]:
    """Timed passes until ``seconds`` have gone by; returns the metrics of the run."""
    walls: dict[bool, list[float]] = {False: [], True: []}
    slowest: list[float] = []
    colours: list[int] = []
    layers: list[dict[str, float]] = []
    start = time.perf_counter()
    index = 0
    while not walls[False] or (tracer and not walls[True]) or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(walls[True]) < len(walls[False])
        if traced:
            tracer.install()
        try:
            wall, rows = bench.run_pass(index, traced)
        finally:
            if traced:
                tracer.remove()
        walls[traced].append(wall)
        if traced:
            spans, counts = tracer.take()
            missing = [name for name in bench.workload.required
                       if name != "generators" and not any(s[0] == name for s in spans)]
            if missing:
                raise SystemExit(f"error: traced pass recorded no calls of: {', '.join(missing)}")
            layers.append(spanlib.layer_metrics(spans, counts))
            bench.spans_out.append({"pass": index, "spans": spans})
        else:
            slowest.append(max(row["seconds"] for row in rows))
            colours.append(sum(row["palette"] or 0 for row in rows))
        index += 1
    if tracer is None:
        return {
            "wall_s": statistics.median(walls[False]),
            "instance_s.max": statistics.median(slowest),
            "colours.sum": colours[0],
        }
    metrics = {name: statistics.median(run[name] for run in layers) for name in layers[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    )
    return metrics


def declared_units(trace: int) -> dict[str, str]:
    """Metric name to unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="defcol benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the passes run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    units = declared_units(args.trace)
    modules, import_s = load_program()
    import check  # after defcol, so that import_s above includes numpy's import

    check.selftest()
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench-work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if args.trace:
        try:
            tracer = spanlib.Tracer(spanlib.layer_points(modules))
        except spanlib.TraceSetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    runner = Runner(modules["cli"], started)
    bench = Bench(workload, args.seed, work, runner, check)

    if tracer is None:
        setup_s = import_s + statistics.median(bench.setup() for _ in range(SETUP_REPEATS))
    else:
        tracer.install()
        try:
            bench.setup()
        finally:
            tracer.remove()
        setup_spans, _ = tracer.take()
        generators_s = spanlib.self_times(setup_spans)[0]["generators"]
        if "generators" in workload.required and not generators_s:
            print("error: traced set-up recorded no generator calls", file=sys.stderr)
            return 1
    bench.load_instances()
    metrics = measure(bench, args.seconds, tracer)
    if tracer is None:
        metrics["setup_s"] = setup_s
        metrics["valid_frac"] = 1.0 - bench.failed / bench.attempted
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        metrics["generators.s"] = generators_s
    if metrics.keys() != units.keys():
        print(f"error: measured metrics {sorted(metrics.keys() ^ units.keys())} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 1

    with open(work / "rows.jsonl", "w", encoding="utf-8") as fh:
        for row in bench.rows:
            fh.write(json.dumps(row) + "\n")
    if bench.spans_out:
        with open(work / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(bench.spans_out, fh)
    shutil.rmtree(bench.inst_dir, ignore_errors=True)
    shutil.rmtree(bench.out_dir, ignore_errors=True)

    for row in bench.rows:
        if row["pass"] == 0:
            print("row", json.dumps(row))
    for message in bench.wrong:
        print(f"WRONG: {message}", file=sys.stderr)
    print(f"failed_frac {bench.failed / bench.attempted:.4f} (base: {bench.attempted} calls attempted)")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": not bench.wrong,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
