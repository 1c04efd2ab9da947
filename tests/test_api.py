"""The public surface: the names ``defcol`` exports, and a Hypergraph that is its edge array."""

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
