"""Exact counting and bound verification for regular graphs.

Matching and independent-set counts as exact polynomials, closed forms for
complete bipartite graphs and their disjoint unions, entropy-style upper and
lower bounds in the log2 domain, exhaustive generation of regular graphs with
isomorph rejection, and verdict-producing verifiers wired into a CLI.

Each public name is imported from its submodule on first use, so a command
of the CLI loads only the layers it runs.
"""

import importlib

# The one eager import.  The function shares its name with the submodule, and
# importing a submodule binds its name on the package; imported here, the
# submodule is loaded once and the function is bound over it for good.
from .generate import generate

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "Cleared",
        "LogBound",
        "balanced_profile",
        "binary_entropy",
        "block_miss_stats",
        "bregman_pm",
        "ind_count_upper_bipartite",
        "ind_count_upper_general",
        "ind_pf_upper_bipartite",
        "ind_pf_upper_general",
        "independent_upper_pm_exact",
        "match_count_upper",
        "match_pf_gurvits",
        "match_pf_upper",
        "optimal_lambda",
        "profile_matching_lower",
        "single_term",
        "stirling_rhs",
        "stirling_term_check",
        "union_ind_lower_markov",
        "union_ind_lower_small_t",
        "union_matching_lower_explicit",
        "union_small_t_exact",
    ),
    "counting": (
        "CountPolynomial",
        "count_homomorphisms",
        "eval_partition",
        "independence_polynomial",
        "matching_polynomial",
    ),
    "errors": ("DivisibilityError", "DomainError", "GraphError", "ScaleError"),
    "generate": ("GenSpec", "canonical_form", "generate"),
    "graphs": (
        "Bipartition",
        "Graph",
        "bipartition",
        "build_graph",
        "build_hardcore_target",
        "build_kdd",
        "graph_from_text",
        "graph_to_text",
        "regular_degree",
    ),
    "kdd": (
        "UnionParams",
        "kdd_independent_count",
        "kdd_matching_count",
        "union_independent_count",
        "union_matching_count",
        "union_params",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SUBMODULE, "__version__"])


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
