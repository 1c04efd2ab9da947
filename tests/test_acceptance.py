"""Acceptance gate: nine end-to-end criteria with fixed tolerances.

Every criterion prints exactly one PASS or FAIL line on the real stdout
(capture is suspended around the print) so a log scan shows the whole
gate at a glance.  All randomness is seeded; reruns are exact repeats.
"""

import contextlib
import io
import random
import re
import time
from contextlib import contextmanager
from itertools import combinations

import defcol as dc
from defcol.cli import main
from defcol.engine import nibble_round
from helpers import edge_tuples, mono_degree, within_part_incident_count


@contextmanager
def gate(capfd, number: int, title: str, ceiling_s: float | None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if ceiling_s is not None and elapsed >= ceiling_s:
            raise AssertionError(
                f"criterion {number} took {elapsed:.2f}s, ceiling {ceiling_s:.0f}s"
            )
    except BaseException:
        with capfd.disabled():
            print(f"criterion {number} ({title}): FAIL", flush=True)
        raise
    budget = f", ceiling {ceiling_s:.0f}s" if ceiling_s is not None else ""
    with capfd.disabled():
        print(f"criterion {number} ({title}): PASS [{elapsed:.2f}s{budget}]", flush=True)


def test_criterion_1_graph_case_exactness(capfd):
    with gate(capfd, 1, "graph case exactness", 10):
        defects = (0, 1, 2, 5)
        for i in range(100):
            n = 60 + (i * 7) % 141
            cap = 8 + (i * 5) % 33
            hg = dc.random_bounded_degree(n, 2, cap, min(2 * n, n * cap // 3), seed=500 + i)
            d = defects[i % 4]
            colouring = dc.graph_maxcut_colouring(hg, d, seed=i)
            assert colouring.num_colours == hg.max_degree // (d + 1) + 1
            report = dc.verify(hg, colouring, d)
            assert len(report.violating) == 0


def test_criterion_2_sunflower_guarantee(capfd):
    with gate(capfd, 2, "sunflower guarantee", 30):
        petal_counts = (2, 3, 4, 5)
        for i in range(100):
            u = (3, 4)[i % 2]
            a = petal_counts[i % 4]
            n = 40 + (i * 7) % 41
            cap = 10 + (i * 3) % 16
            hg = dc.random_bounded_degree(n, u, cap, min(500, n * cap // u), seed=300 + i)
            result = dc.decompose(hg, a)
            edge_set = set(edge_tuples(hg))
            used = set()
            for sf in result.sunflowers:
                assert sf.petal_count == a
                for e in sf.edges():
                    assert e in edge_set
                    assert e not in used  # edge-disjoint
                    used.add(e)
            bound = dc.leftover_bound(u, a)
            assert len(result.leftover) <= bound
            assert bound < (u * a) ** u


def test_criterion_3_maxcut_guarantee(capfd):
    with gate(capfd, 3, "max-cut guarantee", 30):
        parts = (2, 3, 5, 10)
        for i in range(100):
            u = (2, 3)[i % 2]
            n = 30 + (i * 3) % 90
            hg = dc.random_bounded_degree(n, u, 12, 3 * n, seed=900 + i)
            ell = parts[i % 4]
            run = dc.max_cut_search(hg, ell, seed=i)
            assert run.moves <= run.initial_objective
            r = hg.u - 1
            for x in range(hg.n):
                within = within_part_incident_count(hg, run.partition, x)
                # integer form of within <= r * deg(x) / ell
                assert within * ell <= r * hg.degree([x])


def test_criterion_4_nibble_round_contract(capfd):
    with gate(capfd, 4, "nibble round contract", 60):
        shapes = [(40, 30, 160), (50, 24, 180), (60, 18, 200), (36, 30, 140), (48, 12, 150)]
        successes = 0
        for i in range(50):
            n, cap, target = shapes[i % len(shapes)]
            hg = dc.random_bounded_degree(n, 3, cap, target, seed=100 + i)
            d = (1, 2)[i % 2]
            threshold = hg.max_degree * 2.0 ** -(hg.u - 1)
            base = max(2, int((hg.max_degree / (d + 1)) ** 0.5))
            for k in (base, 2 * base, 4 * base):
                partial, residual, trace = nibble_round(hg, d, k, threshold, None, seed=7 * i + k)
                if not trace.succeeded:
                    continue
                successes += 1
                for v, c in enumerate(partial.colours):
                    if c is not None:
                        assert mono_degree(hg, partial, v) <= d
                if residual:
                    sub, _ = hg.induced(residual)
                    assert sub.max_degree <= threshold
                break
        assert successes >= 48, f"only {successes}/50 runs succeeded"  # 95% floor


def test_criterion_5_oracle_agreement(capfd):
    with gate(capfd, 5, "oracle agreement", 120):
        assert dc.exact_defective_chromatic(dc.complete(5, 3), 0) == 3
        assert dc.exact_defective_chromatic(dc.Hypergraph(3, 3, [(0, 1, 2)]), 0) == 2

        pool = list(combinations(range(6), 3))
        rng = random.Random(0)
        for i in range(10_000):
            hg = dc.Hypergraph(6, 3, rng.sample(pool, rng.randrange(0, 7)))
            linear = hg.is_linear()
            for d in (0, 1):
                minimum = dc.exact_defective_chromatic(hg, d)
                modes = ["theorem", "adaptive", "greedy-proper"]
                if linear:
                    modes.append("naive-lll")
                for mode in modes:
                    result = dc.run_engine(hg, dc.EngineConfig(mode=mode, defect=d, seed=i))
                    report = dc.verify(hg, result.colouring, d)
                    assert report.is_defective
                    assert result.colouring.distinct_used() >= minimum

        for n in range(3, 7):
            hg = dc.complete(n, 3)
            for d in (0, 1):
                minimum = dc.exact_defective_chromatic(hg, d)
                for k in range(1, 5):
                    if dc.complete_lowerbound(n, 3, k, d):
                        assert minimum > k


def test_criterion_6_tightness_witnesses(capfd):
    with gate(capfd, 6, "grid tightness witnesses", 10):
        side = 5
        total = side * side

        def coords(i):
            return dc.index_to_coords(i, side, 2)

        batteries = [
            tuple(0 for _ in range(total)),
            tuple(sum(coords(i)) % 2 for i in range(total)),
            tuple(0 if coords(i)[0] <= 2 else 1 for i in range(total)),
            tuple(coords(i)[1] % 2 for i in range(total)),
            tuple(0 if (coords(i)[0] >= 2 and coords(i)[1] >= 2) or coords(i) == (1, 1) else 1 for i in range(total)),
            tuple(1 if coords(i) == (3, 3) else 0 for i in range(total)),
        ]
        rng = random.Random(6)
        for _ in range(300):
            batteries.append(tuple(rng.randrange(2) for _ in range(total)))

        hg = dc.grid(side, 2)
        for cols in batteries:
            colouring = dc.Colouring(cols, max(cols) + 1)
            witness = dc.grid_defect_witness(side, 2, colouring, 0, hg=hg)
            assert witness is not None
            assert witness.mono_degree >= 1
            assert colouring.colours[witness.vertex] is not None


def test_criterion_7_probability_probes(capfd):
    with gate(capfd, 7, "probability probes", 60):
        trials = 100_000
        cases = [
            (dc.complete(6, 3), 5),
            (dc.complete(6, 3), 7),
            (dc.complete(5, 4), 3),
        ]
        for hg, k in cases:
            r = hg.u - 1
            stats = dc.probe_mono_edge(hg, k, trials, seed=k)
            assert abs(stats.estimate - float(k) ** -r) <= 4 * stats.se

        bad_cases = [
            (dc.complete(6, 3), 4, 1, 0),
            (dc.complete(6, 3), 5, 0, 0),
            (dc.complete(5, 4), 3, 0, 2),
        ]
        for hg, k, d, v in bad_cases:
            stats = dc.probe_bad_vertex(hg, k, d, v, trials, seed=k + d)
            ceiling = dc.bad_vertex_ceiling(hg, v, k, d)
            assert stats.estimate <= ceiling + 4 * stats.se


def test_criterion_8_end_to_end_validity(capfd, tmp_path):
    with gate(capfd, 8, "end-to-end validity", 120):
        families = {
            "graph": dc.random_bounded_degree(60, 2, 10, 150, seed=11),
            "uniform3": dc.random_bounded_degree(40, 3, 12, 100, seed=12),
            "linear3": dc.random_linear(50, 3, 8, 90, seed=13),
            "grid": dc.grid(4, 2),
            "complete": dc.complete(9, 3),
        }
        paths = {}
        for name, hg in families.items():
            p = tmp_path / f"{name}.txt"
            p.write_text(dc.format_instance(hg))
            paths[name] = str(p)

        plan = (
            [("graph", "graph-maxcut", 1)] * 30
            + [("graph", "greedy-proper", 0)] * 20
            + [("uniform3", "theorem", 1)] * 20
            + [("uniform3", "greedy-proper", 0)] * 10
            + [("linear3", "naive-lll", 1)] * 20
            + [("grid", "adaptive", 1)] * 10
            + [("complete", "theorem", 2)] * 10
            + [("grid", "theorem", 1)] * 5
        )
        assign = tmp_path / "out.col"
        for run in range(500):
            name, mode, d = plan[run % len(plan)]
            argv = ["color", paths[name], "--mode", mode, "--defect", str(d), "--seed", str(run)]
            independent_check = run % 10 == 0
            if independent_check:
                argv += ["--out", str(assign)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
                assert code == 0, (name, mode, run)
                if independent_check:
                    assert main(["verify", paths[name], str(assign), "--defect", str(d)]) == 0


def test_criterion_9_record_determinism(capfd, tmp_path):
    with gate(capfd, 9, "record determinism", None):
        instance = tmp_path / "inst.txt"
        instance.write_text(dc.format_instance(dc.random_bounded_degree(20, 3, 9, 50, seed=17)))
        commands = [
            ["color", str(instance), "--mode", "adaptive", "--defect", "1", "--seed", "3"],
            ["probe", str(instance), "--what", "mono-edge", "--k", "4", "--trials", "20000", "--seed", "2"],
            ["sunflower", str(instance), "--petals", "3"],
        ]
        for base in commands:
            variants = []
            for rep in range(3):
                record = tmp_path / f"rec{rep}.json"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(base + ["--json", str(record)])
                assert code == 0
                text = record.read_text()
                variants.append(re.sub(r'"wall_clock_s": [0-9.e+-]+', '"wall_clock_s": 0', text))
            assert variants[0] == variants[1] == variants[2]
