"""Command line behaviour: artifacts, exit codes, JSON run records."""

import json
import re
import time

import pytest

import defcol
from defcol import Hypergraph, format_instance, parse_instance
from defcol.cli import main
from defcol.engine import BudgetExhaustedError


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


class TestExactAndProbe:
    def test_exact_spot(self, c5, capsys):
        assert main(["exact", c5, "--defect", "0"]) == 0
        assert "defective chromatic number (d=0): 3" in capsys.readouterr().out

    def test_exact_limit(self, c5, capsys):
        assert main(["exact", c5, "--defect", "0", "--limit", "2"]) == 0
        assert "no 0-defective colouring with <= 2" in capsys.readouterr().out

    def test_size_guard_maps_to_usage_error(self, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text(format_instance(Hypergraph(17, 2, [(0, 1)])))
        assert main(["exact", str(big), "--defect", "0"]) == 2
        assert main(["exact", str(big), "--defect", "0", "--force"]) == 0

    def test_probe_mono_edge(self, h3, capsys):
        code = main(["probe", h3, "--what", "mono-edge", "--k", "4", "--trials", "2000"])
        assert code == 0
        assert "target 0.062500" in capsys.readouterr().out

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

    def test_record_fields(self, h3, tmp_path):
        rec = tmp_path / "r.json"
        main(["color", h3, "--mode", "greedy-proper", "--defect", "0", "--json", str(rec)])
        record = json.loads(rec.read_text())
        for field in ("schema", "command", "params", "seed", "instance_digest", "outcome", "wall_clock_s"):
            assert field in record
        assert record["outcome"]["valid"] is True

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

    def test_stdin_instance(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("3 1 2\n0 1\n"))
        assert main(["exact", "-", "--defect", "0"]) == 0
        assert "(d=0): 2" in capsys.readouterr().out
