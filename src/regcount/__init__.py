"""Exact counting and bound verification for regular graphs.

Matching and independent-set counts as exact polynomials, closed forms for
complete bipartite graphs and their disjoint unions, entropy-style upper and
lower bounds in the log2 domain, exhaustive generation of regular graphs with
isomorph rejection, and verdict-producing verifiers wired into a CLI.
"""

from .bounds import (
    BoundParams,
    LogBound,
    balanced_profile,
    binary_entropy,
    block_miss_stats,
    gurvits_bound,
    independent_count_upper,
    independent_partition_upper,
    independent_upper_pm_exact,
    matching_count_upper,
    matching_partition_upper,
    occupancy_lambda,
    optimal_lambda,
    profile_matching_lower,
    stirling_rhs,
    stirling_term_check,
    union_independent_lower,
    union_matching_lower_explicit,
    union_small_t_exact,
)
from .counting import (
    CountPolynomial,
    brute_force_count,
    count_homomorphisms,
    eval_partition,
    independence_polynomial,
    matching_polynomial,
)
from .errors import DivisibilityError, DomainError, GraphError, ScaleError
from .generate import GenSpec, canonical_form, generate
from .graphs import (
    Bipartition,
    Graph,
    bipartition,
    build_graph,
    build_hardcore_target,
    build_kdd,
    build_kdd_union,
    disjoint_union,
    graph_from_text,
    graph_to_text,
    regular_degree,
)
from .kdd import (
    UnionParams,
    bregman_log_bound,
    kdd_independent_count,
    kdd_matching_count,
    union_independent_count,
    union_matching_count,
    union_params,
)

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "BoundParams",
    "CountPolynomial",
    "DivisibilityError",
    "DomainError",
    "GenSpec",
    "Graph",
    "GraphError",
    "LogBound",
    "ScaleError",
    "UnionParams",
    "__version__",
    "balanced_profile",
    "binary_entropy",
    "bipartition",
    "block_miss_stats",
    "bregman_log_bound",
    "brute_force_count",
    "build_graph",
    "build_hardcore_target",
    "build_kdd",
    "build_kdd_union",
    "canonical_form",
    "count_homomorphisms",
    "disjoint_union",
    "eval_partition",
    "generate",
    "graph_from_text",
    "graph_to_text",
    "gurvits_bound",
    "independence_polynomial",
    "independent_count_upper",
    "independent_partition_upper",
    "independent_upper_pm_exact",
    "kdd_independent_count",
    "kdd_matching_count",
    "matching_count_upper",
    "matching_partition_upper",
    "matching_polynomial",
    "occupancy_lambda",
    "optimal_lambda",
    "profile_matching_lower",
    "regular_degree",
    "stirling_rhs",
    "stirling_term_check",
    "union_independent_count",
    "union_matching_count",
    "union_matching_lower_explicit",
    "union_params",
    "union_small_t_exact",
]
