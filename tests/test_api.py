"""The public surface: the names ``defcol`` exports, a Hypergraph that is its edge array, and the import layers."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import defcol
from defcol import Hypergraph

PUBLIC_NAMES = [
    "BudgetExhaustedError", "Colouring", "DefectReport", "EngineConfig", "EngineResult",
    "GridWitness", "Hypergraph", "InstanceFormatError", "MODES", "MaxCutRun",
    "ProbeStats", "RoundTrace", "SizeGuardError", "Sunflower", "SunflowerDecomposition",
    "VertexSet", "__version__", "adaptive_colouring", "as_sunflower", "as_vertex_set",
    "bad_vertex_ceiling", "classify", "closed_second_neighbourhood", "complete",
    "complete_lowerbound", "coords_to_index", "decompose", "default_budget",
    "exact_defective_chromatic", "find_defective_colouring", "find_sunflower", "format_instance",
    "graph_maxcut_colouring", "greedy_proper", "grid", "grid_base_degree", "grid_defect_witness",
    "guarantee_bound", "index_to_coords", "leftover_bound", "linear_lll_colouring",
    "max_cut_search", "mono_counts", "nibble_colouring", "nibble_round", "pair_objective",
    "parse_instance", "probe_bad_vertex", "probe_mono_edge", "random_bounded_degree",
    "random_linear", "run_engine", "uniform_colouring", "verify", "within_part_incident_counts",
]


def test_exported_names_are_frozen():
    assert sorted(defcol.__all__) == PUBLIC_NAMES
    assert all(hasattr(defcol, name) for name in PUBLIC_NAMES)


def test_hypergraph_keeps_no_tuple_views():
    """Edges are read from ``edge_array``; the per-edge tuples and incidence lists are gone."""
    assert not hasattr(Hypergraph, "edges")
    assert not hasattr(Hypergraph, "incident")
    assert not hasattr(Hypergraph, "co_members")
    hg = Hypergraph(4, 3, [(2, 0, 1), (1, 2, 3)])
    hg.is_linear(), hg.neighbour_sets(), hg.incidence()
    # the array, its degrees, the neighbour index the resample supports read and the incidence the counts read
    assert sorted(vars(hg)) == ["_degrees", "_edges", "_incidence", "_max_degree", "_neighbour_sets", "n", "u"]


def _package_imports() -> dict[str, list[tuple[str, bool]]]:
    """Per module, the package modules it imports (all relatively), each flagged when a function body holds the import."""
    found = {}
    for path in Path(defcol.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        inner = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        found[path.stem] = [
            (node.module or alias.name, id(node) in inner)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        ]
    return found


def test_imports_form_layers():
    """The colouring vocabulary sits in ``hypergraph``, below every algorithm, so the imports have no cycle."""
    found = _package_imports()
    assert not [(module, target) for module, imports in found.items() for target, inner in imports if inner]
    graph = {module: {target for target, _ in imports} for module, imports in found.items()}
    assert graph["hypergraph"] == set()
    assert graph["partition"] == {"hypergraph"}
    TopologicalSorter(graph).prepare()  # raises CycleError on an import cycle
    assert defcol.engine.Colouring is defcol.Colouring
