"""Command line behaviour: artifacts, exit codes, JSON run records, a closed stdout, the README examples."""

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import defcol
from defcol import Hypergraph, format_instance, parse_instance
from defcol.cli import main
from defcol.engine import BudgetExhaustedError, Colouring, EngineResult


def monochrome_engine(hg, config):
    """A stand-in for run_engine that gives every vertex colour 0, valid only without edges."""
    return EngineResult(config.mode, Colouring((0,) * hg.n, 1), ())


@pytest.fixture
def c5(tmp_path):
    path = tmp_path / "c5.txt"
    hg = Hypergraph(5, 2, [(i, (i + 1) % 5) for i in range(5)])
    path.write_text(format_instance(hg))
    return str(path)


@pytest.fixture
def h3(tmp_path):
    path = tmp_path / "h3.txt"
    hg = defcol.random_bounded_degree(14, 3, 6, 28, seed=3)
    path.write_text(format_instance(hg))
    return str(path)


class TestGenerate:
    def test_complete_header(self, capsys):
        assert main(["generate", "--family", "complete", "--n", "5", "--u", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "5 10 3"
        assert parse_instance(out) == defcol.complete(5, 3)

    def test_grid(self, capsys):
        assert main(["generate", "--family", "grid", "--n", "3", "--r", "2"]) == 0
        assert parse_instance(capsys.readouterr().out) == defcol.grid(3, 2)

    def test_out_file_and_record(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        rec = tmp_path / "g.json"
        code = main([
            "generate", "--family", "random", "--n", "20", "--u", "3",
            "--max-degree", "5", "--edges", "30", "--seed", "4",
            "--out", str(out), "--json", str(rec),
        ])
        assert code == 0
        hg = parse_instance(out.read_text())
        assert hg.n == 20 and max(hg.degrees()) <= 5
        record = json.loads(rec.read_text())
        assert record["schema"] == 1
        assert record["command"] == "generate"
        assert record["outcome"]["m"] == hg.m
        assert record["instance_digest"].startswith("sha256:")

    def test_same_seed_same_bytes(self, tmp_path):
        paths = []
        for name in ("a.txt", "b.txt"):
            p = tmp_path / name
            main(["generate", "--family", "linear", "--n", "25", "--u", "3",
                  "--edges", "30", "--seed", "8", "--out", str(p)])
            paths.append(p.read_text())
        assert paths[0] == paths[1]

    def test_bad_family_params(self):
        assert main(["generate", "--family", "complete", "--n", "2", "--u", "3"]) == 2

    def test_size_guard_refuses_before_building(self, capsys):
        started = time.perf_counter()
        assert main(["generate", "--family", "complete", "--n", "1000", "--u", "5"]) == 2
        assert main(["generate", "--family", "grid", "--n", "100", "--r", "4"]) == 2
        assert main(["generate", "--family", "grid", "--n", "3", "--r", "10000"]) == 2
        assert time.perf_counter() - started < 5.0
        assert "--force" in capsys.readouterr().err
        assert main(["generate", "--family", "complete", "--n", "8", "--u", "3", "--force"]) == 0

    @pytest.mark.parametrize("family", ["random", "linear"])
    def test_size_guard_covers_the_random_families(self, family, capsys):
        """n or --edges past the guard refuse with exit 2 before the n-long degree table exists."""
        guard = defcol.cli.GENERATE_GUARD
        flags = ["generate", "--family", family, "--u", "2"]
        assert main(flags + ["--n", str(guard + 1), "--edges", "1"]) == 2
        # reachable in about 2.1·10^6 attempts, so a missing edge guard fails in seconds
        assert main(flags + ["--n", str(guard // 2), "--max-degree", "10", "--edges", str(guard + 1)]) == 2
        assert main(flags + ["--n", str(10**10), "--edges", "1"]) == 2  # used to raise MemoryError
        assert main(flags + ["--n", str(guard + 1)]) == 2  # --edges defaults to 2n
        assert "--force" in capsys.readouterr().err
        assert main(flags + ["--n", str(guard + 1), "--edges", "1", "--force"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"{guard + 1} 1 2"
        assert main(flags + ["--n", str(guard), "--edges", "1"]) == 0


class TestColorAndVerify:
    def test_five_cycle_maxcut(self, c5, tmp_path, capsys):
        assign = tmp_path / "c5.col"
        code = main(["color", c5, "--mode", "graph-maxcut", "--defect", "1",
                     "--out", str(assign)])
        assert code == 0
        out = capsys.readouterr().out
        assert "palette 2" in out
        assert "verifier: ok" in out
        assert main(["verify", c5, str(assign), "--defect", "1"]) == 0

    @pytest.mark.parametrize("mode", ["theorem", "adaptive", "greedy-proper"])
    def test_modes_on_three_uniform(self, h3, mode):
        assert main(["color", h3, "--mode", mode, "--defect", "1"]) == 0

    def test_violating_assignment_exits_one(self, c5, tmp_path, capsys):
        bad = tmp_path / "bad.col"
        bad.write_text("".join(f"{v} 0\n" for v in range(5)))
        assert main(["verify", c5, str(bad), "--defect", "0"]) == 1
        out = capsys.readouterr().out
        assert "violating (5): 0 1 2 3 4" in out

    def test_assignment_order_is_irrelevant(self, c5, tmp_path):
        shuffled = tmp_path / "s.col"
        shuffled.write_text("4 1\n0 0\n2 0\n1 1\n3 0\n# comment\n")
        assert main(["verify", c5, str(shuffled), "--defect", "1"]) == 0

    def test_assignment_errors(self, c5, tmp_path, capsys):
        for text in ("0 0\n", "0 0\n0 1\n1 0\n2 0\n3 0\n4 0\n", "0 zero\n"):
            f = tmp_path / "a.col"
            f.write_text(text)
            assert main(["verify", c5, str(f), "--defect", "0"]) == 2

    @pytest.mark.parametrize("text, message", [
        ("0 0\n1 1 2\n", "expected 'vertex colour', got '1 1 2'"),
        ("0 0\n5 1\n", "vertex 5 outside 0..4"),
        ("0 0\n1 -1\n", "colour -1 is negative"),
    ], ids=["three-fields", "vertex-out-of-range", "negative-colour"])
    def test_assignment_line_errors_name_the_line(self, text, message, c5, tmp_path, capsys):
        f = tmp_path / "a.col"
        f.write_text(text)
        assert main(["verify", c5, str(f), "--defect", "0"]) == 2
        assert capsys.readouterr().err == f"error: line 2: {message}\n"

    def test_unassigned_vertex_names_the_file(self, c5, tmp_path, capsys):
        partial = tmp_path / "a.txt"
        partial.write_text("0 0\n1 1\n3 0\n4 1\n")
        assert main(["verify", c5, str(partial), "--defect", "1"]) == 2
        err = capsys.readouterr().err
        assert f"error: {partial}: 1 vertices unassigned (first: [2])" in err
        assert "line 0" not in err

    def test_huge_colour_labels_verify(self, c5, tmp_path, capsys):
        big = tmp_path / "big.col"
        big.write_text("".join(f"{v} {2**70 + v % 2}\n" for v in range(5)))
        assert main(["verify", c5, str(big), "--defect", "1"]) == 0
        assert main(["verify", c5, str(big), "--defect", "0"]) == 1
        assert "max mono degree  : 1" in capsys.readouterr().out

    def test_budget_exhaustion_exits_one(self, h3, monkeypatch, capsys):
        def explode(hg, config):
            raise BudgetExhaustedError("out of resamples")

        monkeypatch.setattr("defcol.cli.run_engine", explode)
        assert main(["color", h3, "--mode", "naive-lll", "--defect", "0"]) == 1
        assert "out of resamples" in capsys.readouterr().err

    def test_invalid_engine_colouring_exits_one(self, c5, monkeypatch, capsys):
        monkeypatch.setattr("defcol.cli.run_engine", monochrome_engine)
        assert main(["color", c5, "--mode", "theorem", "--defect", "0"]) == 1
        out, err = capsys.readouterr()
        assert "verifier: ok" not in out
        assert err == "INVALID: violating vertices [0, 1, 2, 3, 4]\n"

    @pytest.mark.parametrize("mode", ["graph-maxcut", "greedy-proper"])
    def test_budget_on_a_mode_that_never_resamples_is_a_usage_error(self, mode, c5, tmp_path, capsys):
        rec = tmp_path / "r.json"
        argv = ["color", c5, "--mode", mode, "--defect", "1", "--budget", "5", "--json", str(rec)]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: budget does not apply to mode {mode}: it never resamples\n")
        assert not rec.exists()
        assert main(argv[:-4] + argv[-2:]) == 0  # the same call without --budget


class TestExactAndProbe:
    def test_exact_spot(self, c5, capsys):
        assert main(["exact", c5, "--defect", "0"]) == 0
        assert "defective chromatic number (d=0): 3" in capsys.readouterr().out

    def test_exact_limit(self, c5, capsys):
        assert main(["exact", c5, "--defect", "0", "--limit", "2"]) == 0
        assert "no 0-defective colouring with <= 2" in capsys.readouterr().out

    def test_exact_negative_limit_is_a_usage_error(self, c5, tmp_path, capsys):
        rec = tmp_path / "r.json"
        assert main(["exact", c5, "--defect", "0", "--limit", "-1", "--json", str(rec)]) == 2
        assert capsys.readouterr() == ("", "error: limit must be >= 0, got -1\n")
        assert not rec.exists()

    @pytest.mark.parametrize("argv", [
        ["color", "{c5}", "--mode", "naive-lll", "--defect", "0"],
        ["probe", "{c5}", "--what", "mono-edge", "--k", "3", "--trials", "10"],
        ["probe", "{c5}", "--what", "bad-vertex", "--k", "3", "--trials", "10"],
    ], ids=["naive-lll", "probe-mono-edge", "probe-bad-vertex"])
    def test_negative_seed_is_a_usage_error_that_names_it(self, argv, c5, capsys):
        assert main([a.format(c5=c5) for a in argv] + ["--seed", "-3"]) == 2
        assert capsys.readouterr() == ("", "error: seed must be >= 0, got -3\n")

    @pytest.mark.parametrize("mode", ["theorem", "adaptive", "graph-maxcut", "greedy-proper"])
    def test_other_modes_still_take_a_negative_seed(self, mode, c5):
        assert main(["color", c5, "--mode", mode, "--defect", "0", "--seed", "-3"]) == 0

    def test_exact_negative_defect_is_a_usage_error(self, tmp_path, capsys):
        k6 = tmp_path / "k6.txt"
        k6.write_text(format_instance(defcol.complete(6, 3)))
        rec = tmp_path / "r.json"
        assert main(["exact", str(k6), "--defect", "-1", "--limit", "0", "--json", str(rec)]) == 2
        assert capsys.readouterr() == ("", "error: defect must be >= 0, got -1\n")
        assert not rec.exists()

    def test_size_guard_maps_to_usage_error(self, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text(format_instance(Hypergraph(17, 2, [(0, 1)])))
        assert main(["exact", str(big), "--defect", "0"]) == 2
        assert main(["exact", str(big), "--defect", "0", "--force"]) == 0

    def test_exact_runs_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        deep = tmp_path / "deep.txt"
        deep.write_text(format_instance(defcol.random_bounded_degree(1500, 3, 4, 1500, seed=1)))
        assert main(["exact", str(deep), "--defect", "4", "--force"]) == 0
        assert ": 1" in capsys.readouterr().out

    def test_probe_mono_edge(self, h3, capsys):
        code = main(["probe", h3, "--what", "mono-edge", "--k", "4", "--trials", "2000"])
        assert code == 0
        assert "target 0.062500" in capsys.readouterr().out

    @pytest.mark.parametrize("what", ["mono-edge", "bad-vertex"])
    def test_probe_palette_past_int32_is_a_usage_error_that_names_k(self, what, h3, capsys):
        assert main(["probe", h3, "--what", what, "--k", "3000000000", "--trials", "10"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: need 1 <= k <= 2**31") and "k=3000000000" in err

    def test_probe_bad_vertex(self, h3, capsys):
        code = main(["probe", h3, "--what", "bad-vertex", "--k", "3",
                     "--defect", "1", "--vertex", "0", "--trials", "2000"])
        assert code == 0
        assert "Markov ceiling" in capsys.readouterr().out


class TestDecompositionCommands:
    def test_sunflower(self, h3, capsys):
        assert main(["sunflower", h3, "--petals", "3"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"leftover \d+ \(bound 48\)", out)

    def test_no_petals_is_a_usage_error(self, h3, tmp_path, capsys):
        rec = tmp_path / "r.json"
        assert main(["sunflower", h3, "--petals", "0", "--json", str(rec)]) == 2
        assert capsys.readouterr() == ("", "error: petal count must be >= 1, got 0\n")
        assert not rec.exists()

    def test_maxcut(self, h3, tmp_path, capsys):
        parts = tmp_path / "p.txt"
        assert main(["maxcut", h3, "--parts", "3", "--out", str(parts)]) == 0
        out = capsys.readouterr().out
        assert "pair objective:" in out
        lines = parts.read_text().splitlines()
        assert len(lines) == 14


class TestBench:
    @pytest.mark.parametrize("suite", ["graphs-small", "uniform3-small", "linear3-small", "grid-small"])
    def test_suites_run(self, suite, capsys):
        assert main(["bench", "--suite", suite, "--limit", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("instance")
        assert len(out) == 2

    def test_empty_table(self, capsys):
        assert main(["bench", "--suite", "graphs-small", "--limit", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1

    def test_graph_rows_match_floor_formula(self, tmp_path):
        rec = tmp_path / "b.json"
        assert main(["bench", "--suite", "graphs-small", "--json", str(rec)]) == 0
        record = json.loads(rec.read_text())
        for row in record["outcome"]["rows"]:
            assert isinstance(row["seconds"], float) and row["seconds"] >= 0
            assert row["colours"] == row["max_degree"] // (row["d"] + 1) + 1
            if row["max_degree"] >= 1:
                assert row["ratio"] > 0

    def test_unknown_suite(self):
        assert main(["bench", "--suite", "nope"]) == 2

    def test_invalid_colouring_exits_one_without_a_record(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("defcol.cli.run_engine", monochrome_engine)
        rec = tmp_path / "b.json"
        assert main(["bench", "--suite", "graphs-small", "--json", str(rec)]) == 1
        assert capsys.readouterr().err == "INVALID colouring on graph-n20\n"
        assert not rec.exists()

    def test_budget_exhaustion_exits_one(self, tmp_path, monkeypatch, capsys):
        def explode(hg, config):
            raise BudgetExhaustedError("out of resamples")

        monkeypatch.setattr("defcol.cli.run_engine", explode)
        rec = tmp_path / "b.json"
        assert main(["bench", "--suite", "uniform3-small", "--json", str(rec)]) == 1
        out, err = capsys.readouterr()
        assert out.startswith("instance") and len(out.splitlines()) == 1  # the header, no row
        assert err == "error: out of resamples\n"
        assert not rec.exists()


# subcommand: (argv, the record's params but for "command").  Placeholders name
# the h3 instance, an assignment file and an --out path
RECORD_CASES = {
    "generate": (
        ["generate", "--family", "complete", "--n", "6", "--u", "3", "--out", "{out}"],
        {"family": "complete", "n": 6, "u": 3, "r": 2, "max_degree": 6, "edges": 12, "seed": 0,
         "out": "{out}", "force": False},
    ),
    "sunflower": (["sunflower", "{h3}", "--petals", "3"], {"instance": "{h3}", "petals": 3, "seed": 0}),
    "maxcut": (
        ["maxcut", "{h3}", "--parts", "2", "--seed", "4"],
        {"instance": "{h3}", "parts": 2, "seed": 4, "out": None},
    ),
    "color": (
        ["color", "{h3}", "--mode", "greedy-proper", "--defect", "0", "--out", "{out}"],
        {"instance": "{h3}", "mode": "greedy-proper", "defect": 0, "seed": 0, "budget": None, "out": "{out}"},
    ),
    "verify": (
        ["verify", "{h3}", "{assignment}", "--defect", "1"],
        {"instance": "{h3}", "assignment": "{assignment}", "defect": 1, "seed": 0},
    ),
    "exact": (
        ["exact", "{h3}", "--defect", "1", "--limit", "3"],
        {"instance": "{h3}", "defect": 1, "limit": 3, "force": False, "seed": 0},
    ),
    "probe": (
        ["probe", "{h3}", "--what", "mono-edge", "--k", "3", "--trials", "500", "--seed", "2"],
        {"instance": "{h3}", "what": "mono-edge", "k": 3, "defect": 0, "vertex": 0, "trials": 500, "seed": 2},
    ),
    "bench": (
        ["bench", "--suite", "grid-small", "--limit", "1", "--seed", "1"],
        {"suite": "grid-small", "seed": 1, "limit": 1},
    ),
}


class TestRecordsAndErrors:
    def test_records_differ_only_in_wall_clock(self, h3, tmp_path):
        masked = []
        for i in range(3):
            rec = tmp_path / f"r{i}.json"
            assert main(["color", h3, "--mode", "adaptive", "--defect", "1",
                         "--seed", "5", "--json", str(rec)]) == 0
            text = rec.read_text()
            masked.append(re.sub(r'"wall_clock_s": [0-9.e+-]+', '"wall_clock_s": 0', text))
        assert masked[0] == masked[1] == masked[2]

    @pytest.mark.parametrize("command", sorted(RECORD_CASES))
    def test_record_fields(self, command, h3, tmp_path):
        """Every subcommand writes the seven fields, its parsed flags as params, and its input's digest."""
        argv, params = RECORD_CASES[command]
        paths = {"h3": h3, "assignment": str(tmp_path / "a.col"), "out": str(tmp_path / "out.txt")}
        (tmp_path / "a.col").write_text("".join(f"{v} {v % 4}\n" for v in range(14)))
        rec = tmp_path / "r.json"
        assert main([a.format(**paths) for a in argv] + ["--json", str(rec)]) == 0
        record = json.loads(rec.read_text())
        assert set(record) == {"schema", "command", "params", "seed", "instance_digest", "outcome", "wall_clock_s"}
        assert record["schema"] == 1 and record["command"] == command
        expected = {k: v.format(**paths) if isinstance(v, str) else v for k, v in params.items()}
        assert record["params"] == {"command": command, **expected}
        assert record["seed"] == params["seed"]
        assert isinstance(record["outcome"], dict)
        if command in ("color", "verify"):
            assert record["outcome"]["valid"] is True
        assert isinstance(record["wall_clock_s"], float) and record["wall_clock_s"] >= 0
        source = {"generate": paths["out"], "bench": None}.get(command, h3)
        digest = source and "sha256:" + hashlib.sha256(open(source, "rb").read()).hexdigest()
        assert record["instance_digest"] == digest

    @pytest.mark.parametrize("argv", [
        ["color", "{bad}", "--defect", "0"],
        ["generate", "--family", "complete", "--n", "1000", "--u", "5"],
        ["exact", "{big}", "--defect", "0"],
        ["bench", "--suite", "graphs-small", "--limit", "-1"],
    ], ids=["malformed-instance", "generate-size-guard", "exact-size-guard", "negative-limit"])
    def test_usage_error_leaves_no_record(self, argv, tmp_path, capsys):
        paths = {"bad": str(tmp_path / "bad.txt"), "big": str(tmp_path / "big.txt")}
        (tmp_path / "bad.txt").write_text("3 2 2\n0 1\n0 0\n")
        (tmp_path / "big.txt").write_text(format_instance(Hypergraph(17, 2, [(0, 1)])))
        rec = tmp_path / "r.json"
        assert main([a.format(**paths) for a in argv] + ["--json", str(rec)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not rec.exists()

    def test_missing_file(self):
        assert main(["color", "/nonexistent/x.txt", "--defect", "0"]) == 2

    def test_malformed_instance_reports_line(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("3 2 2\n0 1\n0 0\n")
        assert main(["color", str(f), "--defect", "0"]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_usage_errors(self):
        assert main([]) == 2
        assert main(["bogus"]) == 2
        assert main(["color", "--defect"]) == 2

    def test_calls_share_one_parser_and_no_flags(self, h3, tmp_path, monkeypatch):
        """The parser is built at most once per process; each call starts from its defaults."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.prog == "defcol":
                built.append(self)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        bare = ["color", h3, "--mode", "theorem", "--defect", "1"]
        recs = [tmp_path / f"{name}.json" for name in ("a", "b", "c")]
        assert main(bare + ["--seed", "7", "--budget", "5", "--json", str(recs[0])]) in (0, 1)
        assert main(bare + ["--json", str(recs[1])]) == 0
        # parsing fails after --seed and --budget are read: exit 2, no record
        assert main(bare + ["--seed", "9", "--budget", "3", "--mode", "bogus", "--json", str(recs[2])]) == 2
        assert not recs[2].exists()
        assert main(bare + ["--json", str(recs[2])]) == 0
        first, *after = (json.loads(rec.read_text()) for rec in recs)
        assert (first["params"]["seed"], first["params"]["budget"]) == (7, 5)
        for record in after:
            assert (record["seed"], record["params"]["seed"], record["params"]["budget"]) == (0, 0, None)
        assert after[0]["params"] == after[1]["params"] and after[0]["outcome"] == after[1]["outcome"]
        assert len(built) <= 1

    def test_stdin_instance(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3 1 2\n0 1\n"))
        assert main(["exact", "-", "--defect", "0"]) == 0
        assert "(d=0): 2" in capsys.readouterr().out


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["bench", "--suite", "graphs-small", "--limit", "1"],
        ["generate", "--family", "complete", "--n", "6", "--u", "3"],
        ["exact", "{c5}", "--defect", "0"],
    ], ids=["bench", "generate", "exact"])
    def test_closed_pipe_ends_quietly_with_141(self, argv, c5, tmp_path, monkeypatch, capsys):
        rec = tmp_path / "r.json"
        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert main([a.format(c5=c5) for a in argv] + ["--json", str(rec)]) == 141
        assert capsys.readouterr().err == ""
        assert not rec.exists()

    def test_entry_exits_141_without_a_traceback(self):
        """A reader that closes at once: main's flush fails, then the exit flush must stay quiet."""
        src = Path(defcol.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # buffered, as in a shell
        env["PYTHONPATH"] = str(src)
        argv = ["bench", "--suite", "graphs-small", "--limit", "1"]  # two lines, held in the buffer
        proc = subprocess.Popen(
            [sys.executable, "-c", "from defcol.cli import entry; entry()", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
        assert err == ""


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_examples():
    """(command line, lines shown under it) for each ``$ defcol`` line of the README's CLI section."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```\n(.*?)```", section, re.S):
        for line in block.splitlines():
            if line.startswith("$ defcol "):
                examples.append((line.removeprefix("$ defcol "), []))
            else:
                examples[-1][1].append(line)
    return examples


def test_readme_cli_examples_match_the_cli(tmp_path, monkeypatch, capsys):
    """Each example runs in order in one directory and prints what the README shows.

    ``...`` ends what a listing shows; bench's seconds column is masked.
    """
    monkeypatch.chdir(tmp_path)
    examples = readme_cli_examples()
    assert [command.split()[0] for command, _ in examples] == [
        "generate", "color", "verify", "generate", "exact", "probe", "sunflower", "bench",
    ]
    for command, shown in examples:
        command, _, pipe = command.partition(" | ")
        capsys.readouterr()
        assert main(command.split()) == 0, command
        out = capsys.readouterr().out.splitlines()
        if pipe:
            assert pipe == "tail -1"
            out = out[-1:]
        if "..." in shown:
            shown, out = shown[: shown.index("...")], out[: shown.index("...")]
        if command.startswith("bench"):
            shown, out = [line[:-9] for line in shown], [line[:-9] for line in out]
        assert out == shown, command


def test_readme_library_example_prints_its_comments(capsys):
    """The Library use block runs as written, and each ``# ...`` line is what it prints there."""
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    capsys.readouterr()
    exec(block, {})
    shown = [line.removeprefix("# ") for line in block.splitlines() if line.startswith("# ")]
    assert capsys.readouterr().out.splitlines() == shown
