"""Verdict-producing checks: exact counts against closed forms and bounds.

Every check emits Verdict records instead of raising on a failed inequality,
so a potential counterexample is reported with reproduction data rather than
aborting a sweep.  `_verdict` is the one constructor of every Verdict, and
it holds the reproduction rule: a failed verdict about a given graph carries
that graph's text form as the "graph_text" param.

Every verdict is decided exactly, with zero slack, whether it reports exact
rationals or log2 values, by one rule, `_decide`: b <= a * 2^pow2 *
e^pow_e (or =) on nonnegative integers a and b.  One call to
`bounds.signed_log2_ratio` gives both the exact sign of the margin
log2(a / b * 2^pow2 * e^pow_e) / k, which decides the verdict, and the
margin itself, a float whose 12 printed digits are those of the exact
value.  `exact_le` and `exact_eq` pass it the cross-multiplied sides
of a comparison of rationals; `bound_verdict` the cleared sides of a
power-cleared inequality (`bounds.Cleared`), whose factor 2^pow2 * e^pow_e
may be irrational.  `_decide` alone holds the rule for a zero side.

Checks return their verdicts in check order; `sort_verdicts` gives the
report order, once per report.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, partial
from typing import Iterable, Sequence

from .bounds import (
    UPPER,
    Cleared,
    block_miss_stats,
    bregman_pm,
    check_domain,
    ind_count_upper_bipartite,
    ind_count_upper_general,
    ind_pf_upper_bipartite,
    ind_pf_upper_general,
    independent_upper_pm_exact,
    log2_ratio,
    match_count_upper,
    match_pf_gurvits,
    match_pf_upper,
    optimal_lambda,
    signed_log2_ratio,
    single_term,
    union_ind_lower_markov,
    union_ind_lower_small_t,
    union_small_t_exact,
)
from .counting import (
    MATCHING,
    count_homomorphisms,
    eval_partition,
    independence_polynomial,
    matching_polynomial,
)
from .errors import DomainError
from .generate import census_label, census_name
from .graphs import (
    Graph,
    bipartition,
    build_graph,
    build_hardcore_target,
    build_kdd,
    graph_to_text,
    regular_degree,
)
from .kdd import (
    has_union,
    union_block_misses,
    union_copies,
    union_independence_polynomial,
    union_matching_polynomial,
)
from .poly import evaluate, squarefree

DEFAULT_ROOT_TOL = 1e-7
ROOT_SUM_REL_TOL = 1e-6

DEFAULT_LAMBDA_GRID: tuple[Fraction, ...] = tuple(
    Fraction(2) ** k for k in range(-6, 7)
)
DEFAULT_C_GRID: tuple[Fraction, ...] = (Fraction(2), Fraction(4))


def lambda_values(lambda_grid: Iterable) -> list[Fraction]:
    """The distinct weights of lambda_grid, ascending, as Fractions; each
    must be positive."""
    grid = [Fraction(x) for x in lambda_grid]
    if any(x <= 0 for x in grid):
        raise DomainError("lambda grid must be positive")
    return sorted(set(grid))


def clique_size(c) -> int:
    """c as an int, if it is a positive integer, as a clique size of the
    hard-core target must be."""
    c = Fraction(c)
    if c.denominator != 1 or c < 1:
        raise DomainError(f"clique sizes must be positive integers, got {c}")
    return int(c)


def root_tolerance(tol: float) -> float:
    """tol, if it is finite and positive, as a root tolerance must be."""
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tolerance must be finite and positive, got {tol}")
    return tol


def format_number(x) -> str:
    """Canonical string form: integers and rationals verbatim, other reals at
    12 significant digits of their nearest float, infinities as
    'inf'/'-inf'.  Used by every report writer so reruns are byte-identical."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, Fraction)):
        return str(x)
    return f"{float(x):.12g}"


class Verdict(
    namedtuple("Verdict", "check_id graph_label params lhs rhs passed margin")
):
    """Outcome of one inequality or identity instance.

    params is a dict; lhs and rhs are the two compared quantities (exact
    integers or rationals for cleared comparisons, log2 values otherwise);
    margin is the log2 gap in the favorable direction, so a positive margin
    means slack remains.  The serialized key for the outcome flag is "pass".
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "graph_label": self.graph_label,
            "params": self.params,
            "lhs": format_number(self.lhs),
            "rhs": format_number(self.rhs),
            "pass": self.passed,
            "margin": format_number(self.margin),
        }

CSV_HEADER = ["check_id", "graph_label", "params", "lhs", "rhs", "pass", "margin"]


# json.dumps(params, sort_keys=True), without building an encoder per call.
_params_text = json.JSONEncoder(sort_keys=True).encode


# A census name (generate.census_name): its "nv-dr-" head, then its index.
_CENSUS_NAME = re.compile(r"(\d+v-\d+r-)(\d+)")


def sort_verdicts(verdicts: Iterable[Verdict]) -> list[Verdict]:
    """Report order: by graph label as text, but a census name's index as a
    number (14v-4r-2000 before 14v-4r-10000), check id, then the JSON text
    of the params with sorted keys.  The text orders numbers as strings, so
    a last param "size": 10 comes before "size": 1 and "size": 2; the golden
    reports and the pinned digests fix that order."""
    verdicts = list(verdicts)
    labels = {}
    for label in {v.graph_label for v in verdicts}:
        m = _CENSUS_NAME.fullmatch(label)
        labels[label] = (m[1], int(m[2])) if m else (label, -1)
    return sorted(
        verdicts,
        key=lambda v: (labels[v.graph_label], v.check_id, _params_text(v.params)),
    )


def _params(**kw) -> dict:
    out = {}
    for key, val in kw.items():
        if val is None:
            continue
        out[key] = val if isinstance(val, (int, str)) else format_number(val)
    return out


def _verdict(
    check_id: str,
    label: str,
    params: dict,
    lhs,
    rhs,
    passed: bool,
    margin,
    graph: Graph | None = None,
) -> Verdict:
    """The Verdict, with graph's text appended to params when it failed."""
    if graph is not None and not passed:
        params = {**params, "graph_text": graph_to_text(graph)}
    return Verdict(check_id, label, params, lhs, rhs, passed, margin)


def _decide(a: int, b: int, k: int = 1, pow2=0, pow_e=0, equal: bool = False):
    """The one decision rule: (passed, margin) for b <= a * 2^pow2 * e^pow_e,
    or b = a * 2^pow2 * e^pow_e when equal is set, on nonnegative integers a
    and b.  The margin is log2(a / b * 2^pow2 * e^pow_e) / k: 0 when both
    sides are 0, +inf when only b is, -inf when only a is, and otherwise
    from signed_log2_ratio, whose exact sign decides the verdict."""
    if not b:
        return not (a and equal), math.inf if a else 0.0
    if not a:
        return False, -math.inf
    sign, margin = signed_log2_ratio(a, b, k, pow2, pow_e)
    return (sign == 0 if equal else sign >= 0), margin


def exact_le(
    check_id: str,
    graph_label: str,
    params: dict,
    lhs,
    rhs,
    graph: Graph | None = None,
    *,
    equal: bool = False,
) -> Verdict:
    """Zero-slack verdict for lhs <= rhs, or lhs = rhs when equal is set,
    over exact integers or rationals, decided and measured on the
    cross-multiplied integers."""
    a = rhs.numerator * lhs.denominator
    b = rhs.denominator * lhs.numerator
    passed, margin = _decide(a, b, equal=equal)
    return _verdict(check_id, graph_label, params, lhs, rhs, passed, margin, graph)


def exact_eq(
    check_id: str,
    graph_label: str,
    params: dict,
    lhs,
    rhs,
    graph: Graph | None = None,
) -> Verdict:
    return exact_le(check_id, graph_label, params, lhs, rhs, graph, equal=True)


def bound_verdict(
    check_id: str,
    graph_label: str,
    params: dict,
    count: int,
    bound: Cleared,
    graph: Graph | None = None,
) -> Verdict:
    """Exact verdict comparing a count against a Cleared bound, reported in
    log2 with the bound's side first for a lower bound."""
    if count < 0:
        raise DomainError(f"counts are nonnegative, got {count}")
    # q^k * cofactor <= rhs * 2^pow2 * e^pow_e reads powered <= top *
    # 2^pow2 * e^pow_e over the integers, and a lower bound reads top <=
    # powered * 2^-pow2 * e^-pow_e.
    k, pow2, pow_e = bound.k, bound.pow2, bound.pow_e
    top = bound.rhs.numerator * bound.cofactor.denominator
    powered = bound.rhs.denominator * bound.cofactor.numerator * count**k
    value = bound.log_bound()
    # A zero count prints 0, log2 of 1, where log2 0 is -inf; the pinned
    # benchmark digest of verify-suite --n 12 --d 3 holds that 0.
    log_count = log2_ratio(count, 1) if count else 0
    if bound.direction == UPPER:
        passed, margin = _decide(top, powered, k, pow2, pow_e)
        lhs, rhs = log_count, value
    else:
        passed, margin = _decide(powered, top, k, -pow2, -pow_e)
        lhs, rhs = value, log_count
    return _verdict(check_id, graph_label, params, lhs, rhs, passed, margin, graph)


class GraphProfile:
    """One graph, the labels its verdicts carry, and its exact counts.

    Each property is computed on first use and then kept, so every check of
    the graph reads the same counts and none is computed twice.  index is
    the graph's position in a census, or None for a graph that comes from
    elsewhere.
    """

    def __init__(self, graph: Graph, index: int | None = None):
        self.graph = graph
        self.index = index

    @cached_property
    def degree(self) -> int | None:
        return regular_degree(self.graph)

    @cached_property
    def canonical_label(self) -> str:
        """Stable display label, generate.census_label's: verify-roots and
        verify-hom name graphs by it, in a census too."""
        return census_label(self.graph, self.degree, self.index)

    @cached_property
    def label(self) -> str:
        """The census name when the graph has an index, else the canonical
        label."""
        if self.index is None:
            return self.canonical_label
        return census_name(self.graph.vertex_count, self.degree, self.index)

    @cached_property
    def matching_polynomial(self):
        return matching_polynomial(self.graph)

    @cached_property
    def independence_polynomial(self):
        return independence_polynomial(self.graph)

    @cached_property
    def bipartite(self) -> bool:
        return bipartition(self.graph) is not None

    @cached_property
    def nu(self) -> int:
        """Maximum matching size: the degree of the trimmed matching
        polynomial."""
        return self.matching_polynomial.degree

    @property
    def has_perfect_matching(self) -> bool:
        return 2 * self.nu == self.graph.vertex_count


def _graph_verdicts(check, item) -> list[Verdict]:
    """check on the profile of one (index, graph) pair, as a list; a check
    may return a single verdict."""
    index, g = item
    out = check(GraphProfile(g, index))
    return [out] if isinstance(out, Verdict) else out


def sweep(graphs: Iterable[tuple[int | None, Graph]], check, map=map) -> list[Verdict]:
    """The verdicts of check on the profile of every (index, graph) pair, in
    the pairs' order (sort_verdicts gives report order).  index is the
    graph's census position, as from enumerate(generate(spec)), or None for
    a graph that comes from elsewhere, such as a file.  map(fn, items) runs
    the checks as the pairs come, so a census is checked while it is
    generated; a process pool's map fans them out, given a picklable check
    (a module-level function or a partial of one)."""
    batches = map(partial(_graph_verdicts, check), graphs)
    return [v for batch in batches for v in batch]


def back_degrees(g: Graph, perm: Sequence[int]) -> list[int]:
    """How many neighbours each vertex has placed before it, in perm's order;
    DomainError if perm is not a permutation of the vertices."""
    if sorted(perm) != list(range(g.vertex_count)):
        raise DomainError(f"not a permutation of 0..{g.vertex_count - 1}: {tuple(perm)}")
    placed, back = 0, []
    for v in perm:
        back.append((g.adj[v] & placed).bit_count())
        placed |= 1 << v
    return back


def verify_real_rooted(p: GraphProfile, tol: float = DEFAULT_ROOT_TOL) -> Verdict:
    """Numeric check that the matching partition function has only real
    negative roots, via companion-matrix eigenvalues.

    Repeated roots are separated exactly first, by `poly.squarefree`, and
    numpy gets each factor monic, as correctly rounded int / int floats:
    clustered eigenvalues of an m-fold root would otherwise report spurious
    imaginary parts of order eps^(1/m), which already exceeds any reasonable
    tolerance for the multiplicities produced by repeated connected
    components.  lhs is the worst relative imaginary part over all roots,
    rhs the tolerance; the margin also folds in the distance of the
    rightmost root from the imaginary axis.  The multiplicity-weighted
    reciprocal-root sum is checked against the edge count at
    ROOT_SUM_REL_TOL relative error.  An edgeless graph has a constant
    polynomial, which has no square-free factor and no root, so it passes
    with lhs 0 and margin tol.
    """
    tol = root_tolerance(tol)
    g = p.graph
    # Imported here, its only user, so other commands start without numpy.
    import numpy as np

    rel_imag = 0.0
    worst_real = -math.inf
    recip_sum = 0.0
    for factor, mult in squarefree(p.matching_polynomial.coefficients):
        roots = np.polynomial.polynomial.polyroots([c / factor[-1] for c in factor])
        rel_imag = max(
            rel_imag, max(abs(r.imag) / max(1.0, abs(r)) for r in roots)
        )
        worst_real = max(worst_real, max(r.real for r in roots))
        recip_sum += mult * float(sum(-1.0 / r for r in roots).real)
    sum_err = abs(recip_sum - g.edge_count) / max(1.0, g.edge_count)
    passed = rel_imag <= tol and worst_real < 0 and sum_err <= ROOT_SUM_REL_TOL
    margin = min(tol - rel_imag, -worst_real)
    params = _params(n=g.vertex_count, d=p.degree, tol=tol, root_sum_rel_err=sum_err)
    return _verdict(
        "match-poly-real-rooted", p.canonical_label, params, rel_imag, tol, passed, margin, g
    )


def verify_hom_inequality(
    p: GraphProfile, h: Graph, factors: Sequence[int], perms: Sequence[Sequence[int]], h_name: str
) -> list[Verdict]:
    """Exact check, one verdict per permutation in order, that hom(g, h)^d is
    at most the product of factors[b] over the back degrees b in that order
    (back_degrees).  factors is hom_targets' table for h, so only hom(g, h)
    is counted here, and g must be regular of its degree (DomainError);
    h_name names h in each verdict's target param.  At d = 0 both sides are 1."""
    g, d = p.graph, p.degree
    if d != len(factors) - 1:
        raise DomainError(f"source graph must be {len(factors) - 1}-regular, as the factors are")
    lhs = count_homomorphisms(g, h) ** d
    verdicts = []
    for perm in perms:
        rhs = math.prod(factors[b] for b in back_degrees(g, perm))
        params = _params(n=g.vertex_count, d=d, target=h_name, order=",".join(map(str, perm)))
        verdicts.append(exact_le("hom-order-product", p.canonical_label, params, lhs, rhs, graph=g))
    return verdicts


def verify_hardcore_hom_identity(p: GraphProfile, c: int, lam) -> Verdict:
    """Exact identity: homomorphism count into the hard-core target with c
    clique vertices and c*lambda independent vertices equals
    c^n * (independence partition function at lambda), cleared of
    denominators.  Requires c*lambda to be a nonnegative integer."""
    lam = Fraction(lam)
    c = clique_size(c)
    scaled = lam * c
    if lam < 0 or scaled.denominator != 1:
        raise DomainError(f"c*lambda must be a nonnegative integer, got {scaled}")
    a = int(scaled)
    h = build_hardcore_target(c, a)
    hom = count_homomorphisms(p.graph, h)
    n = p.graph.vertex_count
    poly = p.independence_polynomial
    cleared = evaluate(poly.coefficients, a, c) * c ** (n - poly.degree)
    params = _params(n=n, d=p.degree, c=c, lam=lam)
    return exact_eq(
        "hardcore-hom-identity", p.canonical_label, params, hom, cleared, graph=p.graph
    )


SuiteTable = namedtuple("SuiteTable", "n d rows union")
SuiteRow = namedtuple("SuiteRow", "check_id params reads bound needs in_log2")


def suite_table(
    n: int, d: int, lambda_grid: Iterable = DEFAULT_LAMBDA_GRID, sizes: Sequence[int] | None = None
) -> SuiteTable:
    """The rows of the bounds suite on d-regular graphs on n vertices, in
    check order, built once for a whole sweep: every bound depends on (n, d)
    and the weights of lambda_grid (lambda_values) alone.

    Each row holds its check id, its params, the graph quantity it reads,
    its bound, the GraphProfile flag it needs (None for every graph) and
    whether it is reported in log2.  A quantity is ("Z_M", lam) or
    ("Z_I", lam), the matching or independence partition function at lam,
    or ("m", s) or ("i", s), the size-s coefficient of that polynomial.  The
    one bound that depends on the graph, match-pf-gurvits through its nu, is
    None here and built per graph.  The perfect-matching references and the
    union's independent-set total are bounds Cleared(1, value): q <= value.

    Given sizes, each in 0..n/2 (check_domain), the table keeps only the
    rows that read a coefficient of one of those sizes, besides every row
    that reads a partition function.  union is the independence polynomial
    of the K_{d,d} union on (n, d) (kdd.has_union), else None.
    """
    grid = lambda_values(lambda_grid)
    for s in sizes or ():
        check_domain(n, d, s)
    sizes = range(n // 2 + 1) if sizes is None else sorted(set(sizes))
    union = union_independence_polynomial(n, d) if has_union(n, d) else None
    rows: list[SuiteRow] = []
    if d < 1:
        return SuiteTable(n, d, rows, union)

    def add(check_id, reads, bound, needs=None, in_log2=False, **params):
        rows.append(SuiteRow(check_id, _params(n=n, d=d, **params), reads, bound, needs, in_log2))

    best = {ell: optimal_lambda(n, d, ell) for ell in sizes if 0 < 2 * ell < n}
    matching = {lam: match_pf_upper(n, d, lam) for lam in dict.fromkeys([*grid, *best.values()])}
    # The single-term rows' (size, lam): each size at each grid weight, and
    # at its best weight, which may lie on the grid.
    pairs = dict.fromkeys([*((ell, lam) for lam in grid for ell in sizes), *best.items()])
    terms = {(ell, lam): single_term(matching[lam], ell, lam) for ell, lam in pairs}
    for lam in grid:
        add("match-pf-upper", ("Z_M", lam), matching[lam], lam=lam)
        add("match-pf-gurvits", ("Z_M", lam), None, lam=lam)
        add("ind-pf-upper-general", ("Z_I", lam), ind_pf_upper_general(n, d, lam), lam=lam)
        bound = ind_pf_upper_bipartite(n, d, lam)
        add("ind-pf-upper-bipartite", ("Z_I", lam), bound, "bipartite", lam=lam)
        for ell in sizes:
            add("match-single-term", ("m", ell), terms[ell, lam], size=ell, lam=lam)
    for ell, lam in best.items():
        add("match-single-term-opt", ("m", ell), terms[ell, lam], size=ell, lam=lam)
    for s in sizes:
        add("match-count-upper", ("m", s), match_count_upper(n, d, s), in_log2=True, size=s)
        bound = ind_count_upper_general(n, d, s)
        add("ind-count-upper-general", ("i", s), bound, in_log2=True, size=s)
        bound = ind_count_upper_bipartite(n, d, s)
        add("ind-count-upper-bipartite", ("i", s), bound, "bipartite", True, size=s)
    if n % 2 == 0:
        if n // 2 in sizes:
            add("bregman-pm", ("m", n // 2), bregman_pm(n, d), "bipartite")
        # i_t <= 2^t binom(n/2, t) on a graph with a perfect matching.
        for s in sizes:
            bound = Cleared(1, independent_upper_pm_exact(n, s))
            add("ind-count-vs-pm-bound", ("i", s), bound, "has_perfect_matching", size=s)
    if union is not None:
        # A bipartite graph has at most the union's independent sets, Z_I(1).
        total = sum(union.coefficients)
        add("ind-total-vs-kdd-power", ("Z_I", Fraction(1)), Cleared(1, total), "bipartite")
    return SuiteTable(n, d, rows, union)


def vs_union_table(n: int, d: int, kind: str) -> SuiteTable:
    """verify-umc's table on (n, d), 2d | n, for kind MATCHING, else
    verify-kahn's: a row per size s in 0..n/2, the degree of the K_{d,d}
    union's polynomial of that kind, that a graph's size-s count is at most
    the union's, as Friedland et al. and Kahn conjecture.  Its union is None."""
    if kind == MATCHING:
        check_id, read, union = "match-count-vs-union", "m", union_matching_polynomial(n, d)
    else:
        check_id, read, union = "ind-count-vs-union", "i", union_independence_polynomial(n, d)
    rows = [
        SuiteRow(check_id, _params(n=n, d=d, size=s), (read, s), Cleared(1, count), None, False)
        for s, count in enumerate(union.coefficients)
    ]
    return SuiteTable(n, d, rows, None)


def verify_union_lower_bounds(table: SuiteTable, c_grid: Sequence = DEFAULT_C_GRID) -> list[Verdict]:
    """Lower bounds and block statistics for the complete-bipartite union on
    the (n, d) of table (suite_table), read from its union.

    The Markov-style and small-size lower bounds are asserted against the
    exact union counts.  The distribution of missed blocks over the
    t-subsets of a side (kdd.union_block_misses) is checked against the
    union counts by the weighted identity, and its mean against the closed
    form of block_miss_stats.  c_grid is a set.  Verdicts come in check
    order.
    """
    n, d, union = table.n, table.d, table.union
    copies = union_copies(n, d)
    label = f"union-{n}v-{d}r"
    verdicts: list[Verdict] = []

    def add(build, check_id, a, b, **params):
        verdicts.append(build(check_id, label, _params(n=n, d=d, **params), a, b))

    grid = sorted(set(Fraction(c) for c in c_grid))
    for t, misses in enumerate(union_block_misses(n, d)):
        count = union.coefficient(t)
        for c in grid:
            bound = union_ind_lower_markov(n, d, t, c)
            add(bound_verdict, "union-ind-lower-markov", count, bound, size=t, c=c)
        if t <= copies:
            bound = union_ind_lower_small_t(n, d, t)
            add(bound_verdict, "union-ind-lower-small-t-log", count, bound, size=t)
            exact = union_small_t_exact(n, d, t)
            add(exact_le, "union-ind-lower-small-t-exact", exact, count, size=t)
        add(exact_eq, "union-block-identity", evaluate(misses, 1, 2), count, size=t)
        mu_exact = Fraction(sum(k * b for k, b in enumerate(misses)), math.comb(n // 2, t))
        mu_closed, mu_bound = block_miss_stats(n, d, t)
        add(exact_eq, "union-block-mean-closed-form", mu_exact, mu_closed, size=t)
        add(exact_le, "union-block-mean-markov", mu_closed, mu_bound, size=t)
    return verdicts


def suite_graph_verdicts(p: GraphProfile, table: SuiteTable) -> list[Verdict]:
    """One verdict per row of table (suite_table, vs_union_table) whose
    needed flag the graph has, in check order: the row's bound against the
    graph quantity it reads.  The graph must be d-regular on n vertices, as
    the table is (DomainError).

    Every bound is a power-cleared inequality and decided exactly.  The
    count bounds are reported in log2, the others with both sides as exact
    rationals.
    """
    g = p.graph
    if (g.vertex_count, p.degree) != (table.n, table.d):
        raise DomainError(f"the table needs a {table.d}-regular graph on {table.n} vertices")
    label = p.label
    values = {}
    verdicts: list[Verdict] = []
    for check_id, params, reads, bound, needs, in_log2 in table.rows:
        if needs and not getattr(p, needs):
            continue
        q = values.get(reads)
        if q is None:
            kind, x = reads
            poly = p.matching_polynomial if kind in ("Z_M", "m") else p.independence_polynomial
            q = values[reads] = eval_partition(poly, x) if kind[0] == "Z" else poly.coefficient(x)
        if bound is None:
            bound = match_pf_gurvits(g.edge_count, p.nu, reads[1])
        if in_log2:
            verdicts.append(bound_verdict(check_id, label, dict(params), q, bound, graph=g))
        else:
            verdicts.append(exact_le(check_id, label, dict(params), bound.lhs(q), bound.rhs, graph=g))
    return verdicts


def hom_targets(d: int) -> list[tuple[str, Graph, tuple[int, ...]]]:
    """Fixed target menu for the order-product inequality: small cliques, the
    fully permissive looped vertex, and two hard-core targets, each as
    (name, H, factors) with factors[b] = hom(K_{b,b}, H) for b in 0..d,
    factors[0] = 1: 5 d counts, once for a whole sweep at degree d."""
    menu = [
        ("K2", build_graph(2, [(0, 1)])),
        ("K3", build_graph(3, [(0, 1), (0, 2), (1, 2)])),
        ("K1-loop", build_graph(1, [(0, 0)], allow_loops=True)),
        ("hardcore-1-1", build_hardcore_target(1, 1)),
        ("hardcore-2-2", build_hardcore_target(2, 2)),
    ]
    return [
        (name, h, (1, *(count_homomorphisms(build_kdd(b), h) for b in range(1, d + 1))))
        for name, h in menu
    ]


def hom_graph_verdicts(
    p: GraphProfile,
    targets: Sequence[tuple[str, Graph, Sequence[int]]],
    random_orders: int = 5,
    seed: int = 0,
    c_grid: Sequence = DEFAULT_C_GRID,
) -> list[Verdict]:
    """Order-product inequality over every target of hom_targets(d) and
    several vertex orders, plus the hard-core homomorphism identity at a
    few (c, lambda) pairs.

    Orders tried: identity, reversed, and random_orders shuffles drawn from a
    seed that also hashes the census index, so reruns are reproducible.
    c_grid, each checked in the order given before any count, and each
    weight triple (0, 1, 1/c) are sets.  Verdicts come in check order.
    """
    cliques = sorted(set(map(clique_size, c_grid)))
    n = p.graph.vertex_count
    perms = [list(range(n)), list(range(n - 1, -1, -1))]
    rng = random.Random(f"{seed}:{n}:{p.degree}:{p.index}")
    for _ in range(random_orders):
        perm = list(range(n))
        rng.shuffle(perm)
        perms.append(perm)
    verdicts = []
    for name, h, factors in targets:
        verdicts.extend(verify_hom_inequality(p, h, factors, perms, h_name=name))
    for c in cliques:
        for lam in sorted({Fraction(0), Fraction(1), Fraction(1, c)}):
            verdicts.append(verify_hardcore_hom_identity(p, c, lam))
    return verdicts
