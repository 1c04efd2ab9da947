"""The benchmark's span tracer still finds every name it wraps.

``perfbench/spans.py`` rebinds module globals such as
``defcol.engine.nibble_round``, and a traced benchmark run fails when one
of its workload's ``required`` spans records no call.  A refactor that
drops a wrapped name, captures it locally so the rebinding no longer
reaches the callers, or stops calling a required layer would only break
the traced benchmark run; this test makes it break ``pytest`` instead.
It runs each workload's own CLI calls on tiny stand-ins of its instances.
The benchmark's modules are loaded from their files, unchanged.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from defcol import cli, engine, hypergraph, partition, sunflowers

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def tiny(flags):
    """A workload's ``generate`` flags with the sizes cut to a few dozen vertices."""
    opts = dict(zip(flags[::2], flags[1::2]))
    if opts["--family"] == "complete":
        opts["--n"] = "8"
    else:
        u = int(opts["--u"])
        opts.update({"--n": "60", "--max-degree": "12", "--edges": str(60 * 12 // (2 * u))})
    return [token for pair in opts.items() for token in pair]


WORKLOAD_NAMES = ("large-sparse", "adaptive-resample", "maxcut-sunflower")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_records_its_required_spans(name, tmp_path, monkeypatch):
    spans, workloads = load("spans", monkeypatch), load("workloads", monkeypatch)
    workload = workloads.WORKLOADS[name]
    modules = {
        "cli": cli,
        "engine": engine,
        "partition": partition,
        "sunflowers": sunflowers,
        "hypergraph": hypergraph,
    }
    tracer = spans.Tracer(spans.layer_points(modules))  # TraceSetupError if a name is gone
    original = engine.nibble_round
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for i, spec in enumerate(workload.instances):
                out = tmp_path / f"{spec.name}.txt"
                argv = ["generate", *tiny(spec.generate), "--seed", str(i), "--out", str(out)]
                assert cli.main(argv) == 0
            for call in workload.calls:
                instance = str(tmp_path / f"{call.instance}.txt")
                if call.command == "color":
                    argv = ["color", instance, "--mode", call.mode, "--defect", str(call.defect)]
                else:
                    argv = ["sunflower", instance, "--petals", str(call.petals)]
                assert cli.main(argv) == 0
    finally:
        tracer.remove()
    assert engine.nibble_round is original
    _, _, calls = spans.self_times(tracer.spans)
    assert [layer for layer in workload.required if not calls[layer]] == []
