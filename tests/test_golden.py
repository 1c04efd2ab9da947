"""Golden records: seeded ``color`` runs must reproduce frozen digests.

Each case writes a small seeded instance, runs ``defcol color`` on it
through :func:`defcol.cli.main`, and hashes what a user gets back:

* the record digest covers the ``--json`` record (minus ``wall_clock_s``
  and the path-valued params) followed by the ``--out`` assignment;
* the trace digest covers the ``repr`` of the engine's round traces.

The digests were frozen from the engine before it was folded into a
single round driver, so a refactor that changes the RNG stream, a
palette, a probe count or a trace field fails here.

The ``theorem`` formula palette has at least 49 colours whenever a round
runs, so its failure path is out of reach of natural small instances.
Cases with a ``floor`` therefore swap ``defcol.engine.nibble_round`` for
a shim that forces every round with a palette below the floor to fail
(the real round with a negative threshold, so the RNG stream is the
real one), which drives the doubling and greedy-fallback paths.
"""

import hashlib
import json

import pytest

import defcol
from defcol import cli, engine
from defcol.cli import main

CASES = {
    # id: (instance, mode, defect, seed, budget, floor)
    "theorem-one-round": (("random", 60, 3, 40, 300, 1), "theorem", 1, 0, None, None),
    "theorem-greedy-endgame": (("random", 400, 2, 10, 2000, 7), "theorem", 0, 0, None, None),
    "theorem-two-rounds": (("random", 300, 2, 40, 6000, 3), "theorem", 0, 1, None, None),
    "theorem-single-endgame": (("random", 300, 2, 40, 6000, 3), "theorem", 1, 4, 3, None),
    "theorem-doubling": (("random", 60, 3, 40, 300, 1), "theorem", 1, 0, 2, 300),
    "theorem-fallback": (("random", 400, 2, 10, 2000, 7), "theorem", 0, 0, 2, 10**9),
    "adaptive-default": (("random", 24, 3, 12, 80, 3), "adaptive", 1, 0, None, None),
    "adaptive-budget": (("random", 36, 3, 22, 150, 100), "adaptive", 1, 2, 20, None),
    "adaptive-fallback": (("complete", 10, 2), "adaptive", 0, 2, 1, None),
    "adaptive-bisect-failures": (("random", 36, 3, 22, 150, 100), "adaptive", 1, 2, 20, 6),
    "naive-lll": (("linear", 30, 3, 6, 40, 2), "naive-lll", 1, 0, None, None),
    "naive-lll-exhausted": (("random", 400, 2, 10, 2000, 7), "naive-lll", 0, 0, 1, None),
    "graph-maxcut": (("random", 50, 2, 12, 150, 0), "graph-maxcut", 1, 3, None, None),
    "greedy-proper": (("random", 30, 3, 9, 70, 1), "greedy-proper", 0, 0, None, None),
}

RECORD_DIGESTS = {
    "adaptive-bisect-failures": "f08518f99ebf560f9312600296169ea68d5b002607365c1f897049f4dbaeb6aa",
    "adaptive-budget": "54d65cbf8ccc63395d89f7e70fd3f77b1944446a28aea929d451e497d8112f17",
    "adaptive-default": "51dcd5f4207718a30cc919d97a9bcaf748d6326eb2bc51525c42beaf9a408a07",
    "adaptive-fallback": "85576b258d3542a0a3a63f8eb4246a3dd63bf5dfc9fe82eb4e31ff45ea3eb4a9",
    "graph-maxcut": "6994f98625decdde1bce6ccaf03154791f716cd4f0136d717fca3bc16b21938e",
    "greedy-proper": "ca2609ec1ab93b35304eeebbf796a4fada025f0fe56cc4f850344bef8681d9d5",
    "naive-lll": "4e374929f62e0545a9eac0c6a0322b0fc1c61dfd386b30ecf6cf75d1599c7f54",
    "naive-lll-exhausted": "1923fc26723d7eebeaa2c2d80649bef5dc89dea91262e93421ae58ccbaf6c89a",
    "theorem-doubling": "1e6b86393a9c122142046d747e9c5013db86396aa621cc2b0d6f0bce8b2d8671",
    "theorem-fallback": "d328212a1f73093fc3b8890bdc9c8575d15dec37d7162d97b6803c4db755c907",
    "theorem-greedy-endgame": "190757cde8b8515663bb90b36c793d13d87534a76580840cf60460695df9ff66",
    "theorem-one-round": "1ff4a49729445e90aff230945972ecaf5431f14fd9da102462369e73399247d7",
    "theorem-single-endgame": "b985eb0592650c871c7bd6273d8d3e6cdbabbb5d8604efab44a5f87c254dbc7f",
    "theorem-two-rounds": "1cc2a71e5728c8fb70efaa3d1c998bfdf9c7b81ffb162bffc06afc229d95d297",
}

TRACE_DIGESTS = {
    "adaptive-bisect-failures": "eebbc5f30f140ffa63f9654a25c11d762e8c433aed705f4fc3bd27e062122376",
    "adaptive-budget": "26dcd6f4b0447edf6a4a89b99212ece7cca31166d52e2da677cc5de754f74a0e",
    "adaptive-default": "b6f7bfc795f6918990f5ad727fba26b11e71d1b46645b8717b61b21582b3271f",
    "adaptive-fallback": "1b6a6925d91e10f1a04b074fae09ce8d6eafef872add80be64e03e8b4253a572",
    "graph-maxcut": "1ac2265895b15b96bca9637698ab20133a9bc7bd3b2b797c1e5977225521d654",
    "greedy-proper": "073859a6b63ce4ab98b0fbfbed644ddfffbfbdc36098b37ceb153653d8e3847d",
    "naive-lll": "44770d0d744fcea53003b37b7961876f9799665e46008e0f023f3578b58a5105",
    "theorem-doubling": "a05dd01a8616436db4ceb2dd8c3db952602670c475f4709b4ba0a71bebb293e2",
    "theorem-fallback": "f2864799d95e24a0ec8258c41fb00e75339e0c2b956bc69a0d6ca2574ad414e5",
    "theorem-greedy-endgame": "ff7e9f49d3acb9086543e2e2c0a12733797644fb0eb35e1278c43006bd1a3e54",
    "theorem-one-round": "d05eee319315de0fda71dc686ffd4847e21bdd213337cb2dd89a35ea6253a56f",
    "theorem-single-endgame": "e4318ec44e9c4e6a1139c40c5112efe92572b0e7a0ba2b418c463c8d2026c42a",
    "theorem-two-rounds": "a14264fc052bb400bd57e2e0435ebb0fc649ef587be2a852d4e83b1c8e7f7d53",
}


def build(spec):
    family, *args = spec
    if family == "complete":
        return defcol.complete(*args)
    make = defcol.random_bounded_degree if family == "random" else defcol.random_linear
    return make(*args[:4], seed=args[4])


def failing_below(floor, real):
    def shim(hg, d, k, threshold=None, budget=None, seed=0):
        return real(hg, d, k, -1.0 if k < floor else threshold, budget, seed)

    return shim


def run_case(case_id, tmp_path, monkeypatch):
    """(exit code, record digest, engine result or exception) of one case."""
    spec, mode, d, seed, budget, floor = CASES[case_id]
    instance = tmp_path / "instance.txt"
    instance.write_text(defcol.format_instance(build(spec)))
    record_path, assignment = tmp_path / "record.json", tmp_path / "assignment.txt"
    if floor is not None:
        monkeypatch.setattr(engine, "nibble_round", failing_below(floor, engine.nibble_round))
    results = []
    real_run = cli.run_engine

    def recording_run(hg, config):
        try:
            results.append(real_run(hg, config))
        except Exception as exc:
            results.append(exc)
            raise
        return results[-1]

    monkeypatch.setattr(cli, "run_engine", recording_run)
    argv = ["color", str(instance), "--mode", mode, "--defect", str(d), "--seed", str(seed),
            "--json", str(record_path), "--out", str(assignment)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    code = main(argv)

    record = json.loads(record_path.read_text())
    del record["wall_clock_s"]
    del record["params"]["instance"], record["params"]["out"]
    text = json.dumps(record, sort_keys=True) + "\n"
    text += assignment.read_text() if assignment.exists() else ""
    return code, hashlib.sha256(text.encode()).hexdigest(), results[0]


def trace_digest(result):
    return hashlib.sha256(repr(result.traces).encode()).hexdigest()


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_color_matches_frozen_digests(case_id, tmp_path, monkeypatch, capsys):
    code, record_digest, result = run_case(case_id, tmp_path, monkeypatch)
    if case_id == "naive-lll-exhausted":
        assert code == 1
        assert isinstance(result, defcol.BudgetExhaustedError)
    else:
        assert code == 0
        assert trace_digest(result) == TRACE_DIGESTS[case_id]
    assert record_digest == RECORD_DIGESTS[case_id]
