"""The public surface of the package."""

import dataclasses
import types

import eigencut


def test_public_names_pinned():
    # A name joins this list on purpose, with a caller outside its own tests.
    names = {
        name
        for name, value in vars(eigencut).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == {
        "BranchParams", "CheegerCheck", "CutVertexWitness", "ExtremalSpec", "Graph",
        "Polynomial", "PriorBoundTable", "SpectralSummary", "SweepReport", "TheoremReport",
        "ThresholdResult", "VerificationError", "VerificationRecord", "VertexPartition",
        "adjacency_matrix", "articulation_points", "build_extremal", "char_poly",
        "cheeger_check", "complement", "complete", "construction_partition",
        "cut_branch_values", "cut_parameter_sweep", "cut_partition_quotient", "cycle",
        "cycles_union_complement", "edge_expansion",
        "eigenvalues_symmetric", "enumerate_connected_regular", "f0_poly", "f1_poly",
        "f2_poly", "from_graph6", "graph_from_edges", "is_connected", "is_equitable",
        "is_isomorphic", "is_regular", "lambda2_polynomial", "lambda2_value", "largest_root",
        "matching_complement", "monotonicity_chain", "optimal_branch", "prior_bounds",
        "quotient", "quotient_even_degree", "quotient_odd_degree", "random_connected_regular",
        "records_to_csv", "saturated_cut_reduction", "sequential_join", "spectrum",
        "threshold", "to_graph6", "tridiagonal_eigenvalues", "tridiagonal_reduce",
        "verify_theorem",
    }
    graph_methods = {name for name in vars(eigencut.Graph) if not name.startswith("_")}
    assert graph_methods == {"degree", "edge_count", "edges"}
    summary = [f.name for f in dataclasses.fields(eigencut.SpectralSummary)]
    assert summary == ["eigenvalues", "lambda2"]
    threshold = [f.name for f in dataclasses.fields(eigencut.ThresholdResult)]
    assert threshold == ["d", "c_star", "value", "poly"]
