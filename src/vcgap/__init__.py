"""Empirical stress-test pipeline for a sub-2 vertex cover approximation:
LP relaxation with half-integral kernelization, single and doubled-graph
semidefinite relaxations, product-threshold rounding with certificates, a
bipartite exact fallback, and an exact oracle for ratio measurement.
"""

from .graph_core import (
    Bipartition,
    Graph,
    OddCycle,
    bipartite_double_cover,
    duplicate_join,
    find_odd_cycle,
    induced_subgraph,
    parse_dimacs,
    verify_cover,
    write_dimacs,
)
from .lp_relax import (
    HalfIntegralDecomposition,
    LpProblem,
    LpSolution,
    build_vc_lp,
    classify_half_integral,
    cover_relaxation,
    extreme_point_refine,
    nt_decompose,
    recombine,
    simplex_solve,
)
from .sdp_solve import (
    CertifiedGram,
    GramSolution,
    SdpProblem,
    VectorEmbedding,
    admm_solve,
    build_sdp_doubled,
    build_sdp_single,
    extract_vectors,
    ipm_solve,
    psd_project,
)
from .rounding_geometry import (
    EpsilonSubgraph,
    PropertyReport,
    RatioCertificate,
    Thresholds,
    build_epsilon_subgraph,
    certify_theorem2,
    certify_theorem3,
    classify_property1,
    odd_cycle_probe,
    perpendicular_completion_check,
    theorem4_lower_bound,
    threshold_cut,
)
from .bipartite_vc import Matching, konig_cover, max_matching, maximal_matching_cover
from .exact_oracle import ExactResult, exact_vc
from .pipeline import PipelineConfig, RunTrace, evaluate_ratio, mahdis_run, two_approx_baseline
from .harness_cli import emit_report, generate_graph, run_batch

__version__ = "0.1.0"
