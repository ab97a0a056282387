"""Second-largest adjacency eigenvalues and cut vertices of regular graphs.

A small numpy-backed library for building the extremal d-regular graphs
with a cut vertex, computing their lambda2 thresholds from closed-form
polynomials, and verifying the sharp-connectivity bound by exhaustive and
randomized sweeps over small regular graphs.
"""

from .enumeration import enumerate_connected_regular, random_connected_regular
from .extremal import (
    SweepReport,
    ThresholdResult,
    build_extremal,
    construction_partition,
    cut_parameter_sweep,
    cut_partition_quotient,
    f0_poly,
    f1_poly,
    f2_poly,
    lambda2_polynomial,
    lambda2_value,
    monotonicity_chain,
    optimal_branch,
    quotient_even_degree,
    quotient_odd_degree,
    saturated_cut_reduction,
    threshold,
)
from .graphs import (
    CutVertexWitness,
    Graph,
    articulation_points,
    complement,
    complete,
    cycle,
    cycles_union_complement,
    from_graph6,
    graph_from_edges,
    is_connected,
    is_isomorphic,
    is_regular,
    matching_complement,
    sequential_join,
    to_graph6,
)
from .spectra import (
    Polynomial,
    SpectralSummary,
    VertexPartition,
    adjacency_matrix,
    char_poly,
    eigenvalues_symmetric,
    is_equitable,
    largest_root,
    quotient,
    spectrum,
    tridiagonal_eigenvalues,
    tridiagonal_reduce,
)
from .verify import (
    CheegerCheck,
    PriorBoundTable,
    TheoremReport,
    VerificationError,
    VerificationRecord,
    cheeger_check,
    cut_branch_values,
    edge_expansion,
    prior_bounds,
    records_to_csv,
    verify_theorem,
)

__version__ = "0.1.0"
