"""Golden records: seeded runs of every ``defcol`` subcommand match frozen digests.

Each case writes a small seeded instance, runs ``defcol color`` on it
through :func:`defcol.cli.main`, and hashes what a user gets back:

* the record digest covers the ``--json`` record (minus ``wall_clock_s``
  and the path-valued params) followed by the ``--out`` assignment;
* the trace digest covers the ``repr`` of the engine's round traces.

The digests were frozen from the engine before it was folded into a
single round driver, so a refactor that changes the RNG stream, a
palette, a probe count or a trace field fails here.  The two
``adaptive-resample`` cases were frozen from the resample loop that
redrew one support per classification, before it classified batches.
``adaptive-default-a35`` was frozen from the kernel that offset each batch
row into one flat ``bincount``, before it classified batches vertex-major.
``adaptive-a35-d0-b3000`` was frozen from the vertex-major counting kernel,
before batches of 64 rows or more were classified bit-sliced.  Those two
a35 cases are the only ones that run the wide-batch path: their k=2 probes
spend whole budgets in batches of up to 1024 rows of one bit plane, and the
d=0 case's k=3 probe succeeds at row 150 of a 512-row batch of two bit
planes, so the generator is restored and the kept rows drawn again.

The ``maxcut`` and ``sunflower`` digests cover the ``--json`` record
(minus ``wall_clock_s`` and the path-valued params), then stdout, then
``maxcut``'s ``--out`` partition file; they were frozen from the max cut
search that walked the tuple views, before it read the edge array.  The
``graph-maxcut-sweeps`` case and the two ``maxcut`` cases past (u-1)*Δ+1
parts were frozen from the search that counted each visited vertex's
co-member parts afresh, before it kept a running tally per vertex.  The
two larger ``sunflower`` cases (m=1000 and K_12^(3)) were frozen from the
decomposition that rebuilt a Hypergraph per extraction, before it kept
one view of the alive rows.

The ``probe`` digests cover the same record and stdout of ``defcol probe``;
they were frozen from the bad-vertex probe that walked the incidence tuples
of the hypergraph, before it read the edge array.

The ``generate`` digests cover the instance text ``defcol generate`` writes
to stdout, and the stdout of an ``--out`` run followed by the file; they
were frozen from the sampler that called ``random.sample`` once per
candidate edge in pure Python, before it replayed the stream in numpy.

The ``verify``, ``exact``, ``generate --json`` and ``bench`` digests cover
the record (minus ``wall_clock_s``, the path-valued params and, for
``bench``, each row's ``seconds``) followed by stdout (``bench`` without its
seconds column, ``generate`` followed by the file it wrote); they were
frozen from the CLI whose eight subcommands each started the clock, loaded
the instance and wrote the record themselves, before one runner did.

The ``support`` digests cover, for every vertex of five instances, the
closed second neighbourhood ``nibble_round`` redraws and the closed first
neighbourhood ``naive-lll`` redraws; they were frozen from the engine that
kept a frozenset of neighbours per vertex, before it gathered supports
from one CSR neighbour index.

The ``greedy`` digests cover ``greedy_proper``'s colours on instances of
2000-5000 vertices, so the colouring crosses many blocks of vertices, and on
stars with the centre first and last; they were frozen from the greedy that
walked every edge as a Python tuple, before it marked blocks of vertices
in arrays.

The three larger ``generate-record-grid`` cases were frozen from the grid
builder that walked every base point and bump in Python, before it built
the edges as arrays.  The ``witness`` digests cover ``grid_defect_witness``
on seeded colourings at r = 1, 2 and 3 and d = 0, 1 and 4; they were frozen
from the witness that regrouped its survivors by axis line in dicts of
coordinate tuples, before it eroded a boolean grid.

The ``theorem`` formula palette has at least 49 colours whenever a round
runs, so its failure path is out of reach of natural small instances.
Cases with a ``floor`` therefore swap ``defcol.engine.nibble_round`` for
a shim that forces every round with a palette below the floor to fail
(the real round with a negative threshold, so the RNG stream is the
real one), which drives ``theorem``'s greedy fallback and ``adaptive``'s
bisection past failures.  ``theorem-fallback``'s trace digest was frozen
again when a failed formula probe stopped doubling the palette and went
straight to the greedy endgame: its one trace now counts 1 probe, not 6,
and its record digest did not change.
"""

import hashlib
import json
import random

import pytest
from helpers import edge_tuples, ref_neighbour_sets

import defcol
from defcol import cli, engine
from defcol.cli import main

CASES = {
    # id: (instance, mode, defect, seed, budget, floor)
    "theorem-one-round": (("random", 60, 3, 40, 300, 1), "theorem", 1, 0, None, None),
    "theorem-greedy-endgame": (("random", 400, 2, 10, 2000, 7), "theorem", 0, 0, None, None),
    "theorem-two-rounds": (("random", 300, 2, 40, 6000, 3), "theorem", 0, 1, None, None),
    "theorem-single-endgame": (("random", 300, 2, 40, 6000, 3), "theorem", 1, 4, 3, None),
    "theorem-fallback": (("random", 400, 2, 10, 2000, 7), "theorem", 0, 0, 2, 10**9),
    "adaptive-default": (("random", 24, 3, 12, 80, 3), "adaptive", 1, 0, None, None),
    "adaptive-budget": (("random", 36, 3, 22, 150, 100), "adaptive", 1, 2, 20, None),
    "adaptive-fallback": (("complete", 10, 2), "adaptive", 0, 2, 1, None),
    "adaptive-bisect-failures": (("random", 36, 3, 22, 150, 100), "adaptive", 1, 2, 20, 6),
    # sparse instances whose succeeding probe resamples 331 (u=2) and 169
    # (u=3) times while the target's support changes 219 and 120 times; the
    # u=3 case's k=2 probe also runs out of its budget of 200
    "adaptive-resample-u2": (("random", 40, 2, 12, 100, 2), "adaptive", 1, 1, 600, None),
    "adaptive-resample-u3": (("random", 60, 3, 10, 150, 2), "adaptive", 0, 1, 200, None),
    # the adaptive-resample benchmark's a35 instance at seed 7: every support is
    # the whole graph, so the k=2 probe spends all of its 2240 resamples in
    # batches that double up to 1024 rows and are kept whole
    "adaptive-default-a35": (("random", 35, 3, 18, 199, 7000), "adaptive", 1, 0, None, None),
    # the same instance at d=0: the k=2 probe spends its budget of 3000 in wide
    # batches of one bit plane, and the k=3 probe succeeds after 661 resamples
    # inside a batch of two bit planes and at least 64 rows, so its draws are
    # restored and drawn again
    "adaptive-a35-d0-b3000": (("random", 35, 3, 18, 199, 7000), "adaptive", 0, 0, 3000, None),
    "naive-lll": (("linear", 30, 3, 6, 40, 2), "naive-lll", 1, 0, None, None),
    "naive-lll-exhausted": (("random", 400, 2, 10, 2000, 7), "naive-lll", 0, 0, 1, None),
    "graph-maxcut": (("random", 50, 2, 12, 150, 0), "graph-maxcut", 1, 3, None, None),
    # 13 parts: the search takes 3 sweeps and 303 moves, and 14 vertices have
    # degree below 12, so fewer co-members than parts
    "graph-maxcut-sweeps": (("random", 600, 2, 24, 6000, 5), "graph-maxcut", 1, 0, None, None),
    "greedy-proper": (("random", 30, 3, 9, 70, 1), "greedy-proper", 0, 0, None, None),
}

RECORD_DIGESTS = {
    "adaptive-bisect-failures": "f08518f99ebf560f9312600296169ea68d5b002607365c1f897049f4dbaeb6aa",
    "adaptive-budget": "54d65cbf8ccc63395d89f7e70fd3f77b1944446a28aea929d451e497d8112f17",
    "adaptive-default": "51dcd5f4207718a30cc919d97a9bcaf748d6326eb2bc51525c42beaf9a408a07",
    "adaptive-a35-d0-b3000": "afc98d6e2296679108edfa3e905a0421d583ef6e5043358bab4ac782fbf35b48",
    "adaptive-default-a35": "949151e20d1b97505fae54982b08cbf71cf2a7e501394fbb21836cea8231036a",
    "adaptive-resample-u2": "aa40b810ed62b798e49aa50fb9fa8f43f21920297255eee5cdb6c505a9e6925b",
    "adaptive-resample-u3": "602f7b14bdf607f641cb66c0fcb4d59199116efe51d895171e0ff22b23f285ae",
    "adaptive-fallback": "85576b258d3542a0a3a63f8eb4246a3dd63bf5dfc9fe82eb4e31ff45ea3eb4a9",
    "graph-maxcut": "6994f98625decdde1bce6ccaf03154791f716cd4f0136d717fca3bc16b21938e",
    "graph-maxcut-sweeps": "397e404837bc8234b711457237b95ea0c564ce61f1c80029066deba063299ab4",
    "greedy-proper": "ca2609ec1ab93b35304eeebbf796a4fada025f0fe56cc4f850344bef8681d9d5",
    "naive-lll": "4e374929f62e0545a9eac0c6a0322b0fc1c61dfd386b30ecf6cf75d1599c7f54",
    "naive-lll-exhausted": "1923fc26723d7eebeaa2c2d80649bef5dc89dea91262e93421ae58ccbaf6c89a",
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
    "adaptive-a35-d0-b3000": "91e7f7c2fd7ffe357d4e35d45f446ee3c3e3d4fccaa8623ec30cf8783e8bc24d",
    "adaptive-default-a35": "b4833cefded4631405304d66fb0451e1a984e652a4c00e09a1ef56fed432a284",
    "adaptive-resample-u2": "92198a6aac29aa3d69913e117a3f97dd61a42ccd7d9c3c1384c0fcfab0a9f7c6",
    "adaptive-resample-u3": "0efe784ec7af9eec3c162ebc710c3ef143895a72808da52c93f1a091e39e942e",
    "adaptive-fallback": "1b6a6925d91e10f1a04b074fae09ce8d6eafef872add80be64e03e8b4253a572",
    "graph-maxcut": "1ac2265895b15b96bca9637698ab20133a9bc7bd3b2b797c1e5977225521d654",
    "graph-maxcut-sweeps": "64cdaf84962f9366219c8dd12dc106ddc984ca0b339340e2f31d1b8ee4ff43c2",
    "greedy-proper": "073859a6b63ce4ab98b0fbfbed644ddfffbfbdc36098b37ceb153653d8e3847d",
    "naive-lll": "44770d0d744fcea53003b37b7961876f9799665e46008e0f023f3578b58a5105",
    "theorem-fallback": "9b82c7020cf52de3ff78bbaa48da65bdbb5065b6e50d19db6207323df8bb91aa",
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


MAXCUT_CASES = {
    # id: (instance, parts, seed)
    "maxcut-graph": (("random", 50, 2, 12, 150, 0), 3, 1),
    "maxcut-u3": (("random", 40, 3, 12, 120, 2), 4, 0),
    "maxcut-u3-two-parts": (("random", 30, 3, 15, 110, 6), 2, 5),
    "maxcut-complete-8-3": (("complete", 8, 3), 3, 2),
    # max degree 6, so 20 parts lie past (u-1)*6+1 = 13 labels a vertex can see;
    # at 2**70 no two labels meet and nothing moves
    "maxcut-u3-parts-20": (("random", 60, 3, 6, 100, 3), 20, 0),
    "maxcut-u3-parts-2**70": (("random", 60, 3, 6, 100, 3), 2**70, 1),
}

SUNFLOWER_CASES = {
    # id: (instance, petals)
    "sunflower-graph": (("random", 14, 2, 8, 50, 4), 2),
    "sunflower-u3": (("random", 12, 3, 20, 70, 5), 3),
    "sunflower-u3-sparse": (("random", 60, 3, 12, 200, 5), 3),
    "sunflower-complete-8-3": (("complete", 8, 3), 3),
    "sunflower-u3-m1000": (("random", 300, 3, 12, 1000, 1), 3),
    "sunflower-complete-12-3": (("complete", 12, 3), 3),  # 15 links once the 3-matchings run out
}

SUBCOMMAND_DIGESTS = {
    "maxcut-complete-8-3": "2cb21479e0f2c486501aa0ff6705fc6801537714a508729f5e2de68c67d4eaf7",
    "maxcut-graph": "26dd53f5c2a7656d3df58d3519a6deff01bf1daf2e8c15af46b6c04c1312bc2d",
    "maxcut-u3": "53736484f5d82a07a7e0710e7adbc20fd4683d918b5dfba17e0e885e69690ee3",
    "maxcut-u3-two-parts": "c7406fbff4863879213a3ba40331e6a7a4f949ac10573a50335237a2bfad6630",
    "maxcut-u3-parts-20": "95c0f276231d54cd442cf6f8b79d3c58c27faf8f761213b9d0166c13c09d6659",
    "maxcut-u3-parts-2**70": "97d66bb698f8e244867ce6bf4d9131ad03952b923bef703775baaf8d4f35804d",
    "sunflower-complete-8-3": "9f93cade8fdd6a2db97347d586a0e45334935050ef83e69caf5c422e074d4595",
    "sunflower-complete-12-3": "2178c0e367dcb9a26f25b6ad5883d3ea9d956c496c0a62b0243b56cf6dbaa3ea",
    "sunflower-graph": "7dafbbecfa776a48eaa9beb583349fe519ba0fd6c425463c37f93717dc68e720",
    "sunflower-u3": "2e2960e74c4989ae5712ecd64cf32b7280439f41ef15e1b6b97f7563c463b7a6",
    "sunflower-u3-sparse": "973203aaa03414b5b34755a18cf6efb473756968db4f30af2fe3974a022fcb43",
    "sunflower-u3-m1000": "e05102bdfc6cbaa0539f14d1c2bf29d5ca96345b878473873a7f95466125435c",
}


def run_record(argv, tmp_path, capsys, *drop):
    """(exit code, record minus ``wall_clock_s`` and the params in drop, stdout) of one call."""
    record_path = tmp_path / "record.json"
    capsys.readouterr()
    code = main([*argv, "--json", str(record_path)])
    record = json.loads(record_path.read_text())
    del record["wall_clock_s"]
    for param in drop:
        del record["params"][param]
    return code, record, capsys.readouterr().out


def run_subcommand(spec, argv, tmp_path, capsys):
    """Digest of the record, stdout and ``--out`` file of one ``defcol`` call on spec's instance."""
    instance = tmp_path / "instance.txt"
    instance.write_text(defcol.format_instance(build(spec)))
    out = tmp_path / "out.txt"
    drop = ("instance", "out") if "--out" in argv else ("instance",)
    code, record, stdout = run_record([argv[0], str(instance), *argv[1:]], tmp_path, capsys, *drop)
    assert code == 0
    text = json.dumps(record, sort_keys=True) + "\n" + stdout
    text += out.read_text() if out.exists() else ""
    return hashlib.sha256(text.encode()).hexdigest()


PROBE_CASES = {
    # id: (instance, what, k, defect, vertex).  Vertex 12 of the u=3 instance has
    # degree 8, the cap, and vertex 8 lies on no edge
    "probe-bad-vertex-u3-busy": (("random", 50, 3, 8, 60, 4), "bad-vertex", 2, 2, 12),
    "probe-bad-vertex-u3-isolated": (("random", 50, 3, 8, 60, 4), "bad-vertex", 2, 0, 8),
    "probe-bad-vertex-complete-8-3": (("complete", 8, 3), "bad-vertex", 3, 4, 3),
    "probe-bad-vertex-u2": (("random", 40, 2, 10, 120, 3), "bad-vertex", 3, 2, 21),
    "probe-mono-edge-u3": (("random", 50, 3, 8, 60, 4), "mono-edge", 3, 0, 0),
}

PROBE_DIGESTS = {
    "probe-bad-vertex-complete-8-3": "836b41f30befec8bd77c614a3ae55e454e07d02e1ba55487493cb79a8b120a0b",
    "probe-bad-vertex-u2": "019e8e4306b8144c8283ca86cb35e82b689673b53c5d8b002a2e1ba5479dfb0d",
    "probe-bad-vertex-u3-busy": "0419b9e4ad5561a48d6576405f93909cf97f946b8fe7951006ee2d49d66e9a5a",
    "probe-bad-vertex-u3-isolated": "3b64b566c6e235c3a33996b177e01ffd726ff386a766fd12c27eab601daef51c",
    "probe-mono-edge-u3": "519e502989ec0dbc4c4d89bda9ea82f768c9093514b75c8a8f6b4e8cb22df21f",
}


def subcommand_argv(case_id, tmp_path):
    if case_id in PROBE_CASES:
        spec, what, k, d, v = PROBE_CASES[case_id]
        return spec, ["probe", "--what", what, "--k", str(k), "--defect", str(d), "--vertex", str(v),
                      "--trials", "20000", "--seed", "3"]
    if case_id in MAXCUT_CASES:
        spec, parts, seed = MAXCUT_CASES[case_id]
        return spec, ["maxcut", "--parts", str(parts), "--seed", str(seed), "--out", str(tmp_path / "out.txt")]
    spec, petals = SUNFLOWER_CASES[case_id]
    return spec, ["sunflower", "--petals", str(petals)]


@pytest.mark.parametrize("case_id", sorted(MAXCUT_CASES) + sorted(SUNFLOWER_CASES))
def test_maxcut_and_sunflower_match_frozen_digests(case_id, tmp_path, capsys):
    spec, argv = subcommand_argv(case_id, tmp_path)
    assert run_subcommand(spec, argv, tmp_path, capsys) == SUBCOMMAND_DIGESTS[case_id]


@pytest.mark.parametrize("case_id", sorted(PROBE_CASES))
def test_probe_matches_frozen_digests(case_id, tmp_path, capsys):
    spec, argv = subcommand_argv(case_id, tmp_path)
    assert run_subcommand(spec, argv, tmp_path, capsys) == PROBE_DIGESTS[case_id]


GENERATE_CASES = {
    # id: (family, n, u, max_degree, edges, seed).  They draw 10^5, 29205, 15474 and
    # 10^5 candidate edges, of which the degree cap rejects 89555, 17205, 5474 and
    # 90131, so acceptance crosses many chunks and settles many clashing rows
    "generate-random-u2": ("random", 2000, 2, 10, 10_000, 3),
    "generate-random-u3": ("random", 5000, 3, 8, 12_000, 7),
    "generate-random-u4": ("random", 4000, 4, 12, 10_000, -5),
    "generate-linear-u3": ("linear", 3000, 3, 10, 10_000, 11),
}

GENERATE_DIGESTS = {
    # case id: (stdout digest, digest of the `--out` run's stdout then file)
    "generate-linear-u3": (
        "e5cf5e7080614e79730dc3e40ec5d25b5ddf8aa5afc150623b68b32ce80943f1",
        "3ddf4f63656d91d99d920f4a0d92e26fa194a99174850ff05fc5f5137378dbc5",
    ),
    "generate-random-u2": (
        "ca3f7c4b2844ddffcc2b456c88e164174bba297a2074fa5ee3d5d2cb7c2f9492",
        "f8e3cc29ee25542d50c18f2a80b67ee5485c88c9ad0bd37c0f722fb928b3203f",
    ),
    "generate-random-u3": (
        "8dabba5f1d542b2cbaa1424bfebe986e59fee6538ca5b9baa470f57c3eae4791",
        "f88231f9b45b16a09dd2859cba74987c395a9b830182a5a1fc679012f8fcb2d0",
    ),
    "generate-random-u4": (
        "e121b018f3bce31f68af0f10de67f3227582779a56341519d6f5351549fb945d",
        "9b06a428f3c2e27e93f841014c57413421eab8d9c002ccb8f2aa2c90354931f1",
    ),
}


def generate_argv(case_id):
    family, n, u, max_degree, edges, seed = GENERATE_CASES[case_id]
    return ["generate", "--family", family, "--n", str(n), "--u", str(u), "--max-degree",
            str(max_degree), "--edges", str(edges), "--seed", str(seed)]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case_id", sorted(GENERATE_CASES))
def test_generate_matches_frozen_digests(case_id, tmp_path, capsys):
    capsys.readouterr()
    assert main(generate_argv(case_id)) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "instance.txt"
    assert main(generate_argv(case_id) + ["--out", str(out)]) == 0
    written = capsys.readouterr().out.replace(str(out), "OUT") + out.read_text()
    assert (sha256(stdout), sha256(written)) == GENERATE_DIGESTS[case_id]


VERIFY_CASES = {
    # id: (instance, colour of vertex v, defect, exit code).  On this instance
    # v % 4 leaves every mono degree at most 1 and v % 3 leaves five vertices at 2 or 3
    "verify-valid": (("random", 30, 3, 9, 70, 1), lambda v: v % 4, 1, 0),
    "verify-violating": (("random", 30, 3, 9, 70, 1), lambda v: v % 3, 1, 1),
    "verify-huge-labels": (("random", 30, 3, 9, 70, 1), lambda v: 2**70 + v % 4, 0, 1),
}

VERIFY_DIGESTS = {
    "verify-huge-labels": "eb858b55510a16e9e65e82ca1c868b366ead037763ada8d757c864b9212930f8",
    "verify-valid": "52dba78de4a7df99c0e1ee406c95efdd0129500ef75d03b4d7cd1f13338d2e9e",
    "verify-violating": "38fe64c25cddff55502942c184871cc8f0d976a7794efca1c228bfec64ce123d",
}


@pytest.mark.parametrize("case_id", sorted(VERIFY_CASES))
def test_verify_matches_frozen_digests(case_id, tmp_path, capsys):
    spec, colour, d, expected_code = VERIFY_CASES[case_id]
    hg = build(spec)
    instance, assignment = tmp_path / "instance.txt", tmp_path / "assignment.txt"
    instance.write_text(defcol.format_instance(hg))
    assignment.write_text("".join(f"{v} {colour(v)}\n" for v in range(hg.n)))
    argv = ["verify", str(instance), str(assignment), "--defect", str(d)]
    code, record, stdout = run_record(argv, tmp_path, capsys, "instance", "assignment")
    assert code == expected_code
    assert sha256(json.dumps(record, sort_keys=True) + "\n" + stdout) == VERIFY_DIGESTS[case_id]


EXACT_CASES = {
    # id: (instance, defect, limit).  K_5^(3) needs 2 colours at d=1 and 3 at d=0
    "exact-complete-5-3": (("complete", 5, 3), 1, None),
    "exact-none-under-limit": (("complete", 5, 3), 0, 2),
}

EXACT_DIGESTS = {
    "exact-complete-5-3": "e5ff1abaed808ea3940b150db0f6df89baaab2eaa6725991d3794d9e6021a8ac",
    "exact-none-under-limit": "ebe900a35889af84b55a39150e62885fe0e1b901fbd8c5c987cbb432b46ee4bf",
}


@pytest.mark.parametrize("case_id", sorted(EXACT_CASES))
def test_exact_matches_frozen_digests(case_id, tmp_path, capsys):
    spec, d, limit = EXACT_CASES[case_id]
    instance = tmp_path / "instance.txt"
    instance.write_text(defcol.format_instance(build(spec)))
    argv = ["exact", str(instance), "--defect", str(d)]
    argv += ["--limit", str(limit)] if limit is not None else []
    code, record, stdout = run_record(argv, tmp_path, capsys, "instance")
    assert code == 0
    assert sha256(json.dumps(record, sort_keys=True) + "\n" + stdout) == EXACT_DIGESTS[case_id]


GENERATE_RECORD_CASES = {
    # id: flags.  Neither passes --edges, so the records lock its default of 2n
    "generate-record-complete": ["--family", "complete", "--n", "7", "--u", "3"],
    "generate-record-grid": ["--family", "grid", "--n", "4", "--r", "2"],
    "generate-record-grid-7-2": ["--family", "grid", "--n", "7", "--r", "2"],
    "generate-record-grid-4-3": ["--family", "grid", "--n", "4", "--r", "3"],
    "generate-record-grid-2-5": ["--family", "grid", "--n", "2", "--r", "5"],
}

GENERATE_RECORD_DIGESTS = {
    "generate-record-complete": "45b3bf07fc31506b806835cdb41d77143dae6b05b6f0bff898d9b1d58b4da6a5",
    "generate-record-grid": "e734610d6e793d4db96ea6c59165feb4931a046992befc5c2bd1f1ebc2bf798c",
    "generate-record-grid-7-2": "0ab3872b82d6b819505ef90ea1d2f516b1f44c80d191e6b1deaf1a7bbd2c011f",
    "generate-record-grid-4-3": "98f9a7d13ebc3300302b06107ff6ad23630eadbe57870ed44f2447ba9e1e660c",
    "generate-record-grid-2-5": "1fbd3b292f23a0c433e836172dc011323fe5f2e22cba0a15a27e94765a8cf4da",
}


@pytest.mark.parametrize("case_id", sorted(GENERATE_RECORD_CASES))
def test_generate_record_matches_frozen_digest(case_id, tmp_path, capsys):
    out = tmp_path / "instance.txt"
    argv = ["generate", *GENERATE_RECORD_CASES[case_id], "--out", str(out)]
    code, record, stdout = run_record(argv, tmp_path, capsys, "out")
    assert code == 0
    text = json.dumps(record, sort_keys=True) + "\n" + stdout.replace(str(out), "OUT") + out.read_text()
    assert sha256(text) == GENERATE_RECORD_DIGESTS[case_id]


BENCH_DIGESTS = {
    # suite: digest of the record without each row's seconds, then stdout
    # without its seconds column
    "graphs-small": "6b05feb16ab60f5f740a82e18c91b177e57a35408f69d27211c84147ae6ba2bc",
    "grid-small": "3aa350f972780728c5330b7c504311b34d535397864bf13ef4f9f0878a01baff",
    "linear3-small": "db2a078281bbf8870aa10f92d5f4bf9d9932276095e599a41bb69bf496fa7b77",
    "uniform3-small": "682ed2b94b6d109ef7af0a81b4dc07a8ee8826d3d543541c21d09dee48fdb3ab",
}


@pytest.mark.parametrize("suite", sorted(BENCH_DIGESTS))
def test_bench_matches_frozen_digests(suite, tmp_path, capsys):
    code, record, stdout = run_record(["bench", "--suite", suite], tmp_path, capsys)
    assert code == 0
    for row in record["outcome"]["rows"]:
        del row["seconds"]
    table = "".join(line[: -len(" seconds")] + "\n" for line in stdout.splitlines())
    assert sha256(json.dumps(record, sort_keys=True) + "\n" + table) == BENCH_DIGESTS[suite]


SUPPORT_INSTANCES = {
    "r60-u3-d10": lambda: defcol.random_bounded_degree(60, 3, 10, 150, seed=2),
    "a35-u3-d18": lambda: defcol.random_bounded_degree(35, 3, 18, 199, seed=7000),
    "linear-200-u3": lambda: defcol.random_linear(200, 3, 6, 300, seed=1),
    "r100-u2-d5": lambda: defcol.random_bounded_degree(100, 2, 5, 200, seed=3),
    "isolated-9-u3": lambda: defcol.Hypergraph(9, 3, [(0, 1, 2), (2, 3, 4), (1, 5, 6)]),
}

SUPPORT_DIGESTS = {
    # id: (closed second neighbourhoods, closed first neighbourhoods), one per vertex
    "r60-u3-d10": ("77a70bf229488a0855bac476e75aea114bbc51549540bf64e9fccf8d5014f125",
                   "51e90d7783132f7a99131e656ad44c28836b2655bc0d98629cd2fb60f22b7835"),
    "a35-u3-d18": ("4c88c9785e5408b551eeda17bde0f57f812452fb83442fcf27cedf9349eeab16",
                   "ccff12c7405dc12df6c6ad52d0bfb4a6ff1a79a778005d0f68abb97329def3d3"),
    "linear-200-u3": ("7ffcd95fa17fc01ab33285268b912f54d8d8972068d2bd68d34a7118b87d87eb",
                      "69deff07c902796da12326006f5348552cf1570c1cc34d05c91844a6382489a9"),
    "r100-u2-d5": ("2dfe5058ed63c27c9b2f1735b887f1968c05b0321bc9e79a70b616c75e0ad9ab",
                   "7c6cb94db5ce4962e945f2ef64ef3e7b43c012c0feab052fa0b03fb027b03808"),
    "isolated-9-u3": ("8a2182ab23d94bac3af7685a2a99ce83790be8b31132a8151ed7bfaf0140b960",
                      "739ada200aa7b3b3b16fafb1533e787e52eafd4ab996e1c9fc416ce13f3526b2"),
}


@pytest.mark.parametrize("case_id", sorted(SUPPORT_INSTANCES))
def test_resample_supports_match_frozen_digests(case_id):
    """``nibble_round``'s support per vertex, and ``naive-lll``'s, as the engine and the reference build it."""
    hg = SUPPORT_INSTANCES[case_id]()
    second = tuple(defcol.closed_second_neighbourhood(hg, v) for v in range(hg.n))
    nbr = ref_neighbour_sets(hg.n, edge_tuples(hg))
    first = tuple(tuple(sorted(nbr[v] | {v})) for v in range(hg.n))
    assert (sha256(repr(second)), sha256(repr(first))) == SUPPORT_DIGESTS[case_id]
    gathered = tuple(tuple(engine._closed_neighbourhood(hg, v).tolist()) for v in range(hg.n))
    assert sha256(repr(gathered)) == SUPPORT_DIGESTS[case_id][1]


GREEDY_INSTANCES = {
    "r3000-u3-d30": lambda: defcol.random_bounded_degree(3000, 3, 30, 28000, seed=11),
    "r2000-u4-d20": lambda: defcol.random_bounded_degree(2000, 4, 20, 9000, seed=12),
    "linear-3000-u3": lambda: defcol.random_linear(3000, 3, 10, 8000, seed=13),
    "r5000-u2-d40": lambda: defcol.random_bounded_degree(5000, 2, 40, 95000, seed=14),
    "chain-2000-u3": lambda: defcol.Hypergraph(2000, 3, [(i, i + 1, i + 2) for i in range(1998)]),
    "star-2000-centre-first": lambda: defcol.Hypergraph(2001, 2, [(0, v) for v in range(1, 2001)]),
    "star-2000-centre-last": lambda: defcol.Hypergraph(2001, 2, [(v, 2000) for v in range(2000)]),
    "complete-12-3": lambda: defcol.complete(12, 3),
}

GREEDY_DIGESTS = {
    # id: (sha256 of the repr of the colours, palette)
    "r3000-u3-d30": ("12d2c216c8fd8fea41f9a9627f27a8ff8b31dd1b5e8ef395b93b9b65c6cb54ec", 6),
    "r2000-u4-d20": ("fa42777c07e10b278269b6fea86c70ffd2702c3448ac823568030f77953aae87", 4),
    "linear-3000-u3": ("6217eb510c37ba3e4191ea9c0b53db6d0e5adc71f473c49e9bc729752a8a2cd9", 4),
    "r5000-u2-d40": ("e650a79c3390536585031edce7da18a709cd6356365fafd3521dc201c7f81c39", 16),
    "chain-2000-u3": ("5a94b15b79913d9bad7405d4d87ebd98db3a17db26e63ca22462de6db078372f", 2),
    "star-2000-centre-first": ("cb3db0c1dd4db217c378ea5f0cb679a085034669a4e3a1f289246919d9189947", 2),
    "star-2000-centre-last": ("501e9046885dad4d55eaabbdbd9606c423c95c348ae7cf64db2373f7367eef94", 2),
    "complete-12-3": ("09b9ab9d815ff9790fb59d71c6f71ea4e300b486fb139aa203377aafa127aaa0", 6),
}


@pytest.mark.parametrize("case_id", sorted(GREEDY_INSTANCES))
def test_greedy_matches_frozen_digests(case_id):
    colouring = defcol.greedy_proper(GREEDY_INSTANCES[case_id]())
    assert (sha256(repr(colouring.colours)), colouring.num_colours) == GREEDY_DIGESTS[case_id]


WITNESS_CASES = {
    # id: (n, r, k, d).  Each vertex takes colour 0 with probability 1/2 and
    # a uniform colour of k otherwise, so one class is large and lines of it erode
    "r1-n7-k4-d0": (7, 1, 4, 0),
    "r1-n7-k4-d1": (7, 1, 4, 1),
    "r1-n7-k4-d4": (7, 1, 4, 4),
    "r2-n6-k2-d0": (6, 2, 2, 0),
    "r2-n6-k2-d1": (6, 2, 2, 1),
    "r2-n6-k2-d4": (6, 2, 2, 4),
    "r3-n5-k2-d0": (5, 3, 2, 0),
    "r3-n5-k2-d1": (5, 3, 2, 1),
    "r3-n5-k2-d4": (5, 3, 2, 4),
}

WITNESS_DIGESTS = {
    # id: sha256 of the repr of the witnesses (or None) on seeds 0-15.  At r = 3
    # a line survives d = 1 and d = 4 alike when it has 3 members, so those agree
    "r1-n7-k4-d0": "a96b223996bb19ac5408a85e231ac07db191bd16c17dd119b76b66637f5f3d98",
    "r1-n7-k4-d1": "d0175152d4e25cc19001b803c8241803f6b094270c48f4293a63967b7bf5bb1f",
    "r1-n7-k4-d4": "c490cca5b2e60724466b3b51072d457b16420adc369e9091e5439ec2c689bab6",
    "r2-n6-k2-d0": "1afa5372dcfb0660e18989c45e972a118f8b0355835b4f1dba895bcd8ec3d46f",
    "r2-n6-k2-d1": "2691d74a6d52741cab1e39054aa10c8866fb755b98b34faa5c0eda18d2b7f2ab",
    "r2-n6-k2-d4": "977d0cb8ad349189a2583f265c412caa434d75a4eda18580bd9953c7e6a290fc",
    "r3-n5-k2-d0": "2b0f6787bb1ab1fd462e0cb86e7e5268728f721e042cfa2cfe9b742dba14fbe1",
    "r3-n5-k2-d1": "7461e062f50abeb0d94ed3a32d538ef3988a434ef29abfef147201ec19eb79a7",
    "r3-n5-k2-d4": "7461e062f50abeb0d94ed3a32d538ef3988a434ef29abfef147201ec19eb79a7",
}


@pytest.mark.parametrize("case_id", sorted(WITNESS_CASES))
def test_grid_witness_matches_frozen_digests(case_id):
    n, r, k, d = WITNESS_CASES[case_id]
    witnesses = []
    for seed in range(16):
        rng = random.Random(seed)
        colours = tuple(0 if rng.random() < 0.5 else rng.randrange(k) for _ in range(n**r))
        witnesses.append(defcol.grid_defect_witness(n, r, defcol.Colouring(colours, k), d))
    assert sha256(repr(witnesses)) == WITNESS_DIGESTS[case_id]
