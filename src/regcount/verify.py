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
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations
from typing import Iterable, Sequence

from .bounds import (
    UPPER,
    Cleared,
    block_miss_stats,
    bregman_pm,
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
    count_homomorphisms,
    eval_partition,
    independence_polynomial,
    matching_polynomial,
)
from .errors import DomainError
from .generate import CANONICAL_FORM_LIMIT, GenSpec, canonical_form, generate
from .graphs import (
    Graph,
    adjacency_masks,
    bipartition,
    build_graph,
    build_hardcore_target,
    build_kdd,
    graph_to_text,
    regular_degree,
    relabel,
)
from .kdd import (
    union_independent_count,
    union_matching_count,
    union_params,
)

DEFAULT_ROOT_TOL = 1e-7
ROOT_SUM_REL_TOL = 1e-6

DEFAULT_LAMBDA_GRID: tuple[Fraction, ...] = tuple(
    Fraction(2) ** k for k in range(-6, 7)
)
DEFAULT_C_GRID: tuple[Fraction, ...] = (Fraction(2), Fraction(4))


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


def sort_verdicts(verdicts: Iterable[Verdict]) -> list[Verdict]:
    """Report order: by graph label, check id, then the JSON text of the
    params with sorted keys.  The text orders numbers as strings, so a last
    param "size": 10 comes before "size": 1 and "size": 2; the golden
    reports and the pinned digests fix that order."""
    return sorted(
        verdicts,
        key=lambda v: (v.graph_label, v.check_id, _params_text(v.params)),
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
        """Stable display label: the canonical form, or past
        CANONICAL_FORM_LIMIT the census name, or for a graph without an
        index the vertex and edge counts.  verify-roots and verify-hom name
        graphs by this label, in a census too."""
        g = self.graph
        if g.vertex_count <= CANONICAL_FORM_LIMIT:
            return canonical_form(g)
        if self.index is not None:
            return self.label
        return f"{g.vertex_count}v-{g.edge_count}e"

    @cached_property
    def label(self) -> str:
        """The census name when the graph has an index, else the canonical
        label."""
        if self.index is None:
            return self.canonical_label
        return f"{self.graph.vertex_count}v-{self.degree}r-{self.index:04d}"

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


def profile_verdicts(profile: GraphProfile, check) -> list[Verdict]:
    """check(profile) as a list; a check may return a single verdict."""
    out = check(profile)
    return [out] if isinstance(out, Verdict) else out


def _census_verdicts(check, item) -> list[Verdict]:
    index, g = item
    return profile_verdicts(GraphProfile(g, index), check)


def sweep(spec: GenSpec, check, map=map) -> list[Verdict]:
    """The verdicts of check on the profile of every graph that
    generate(spec) emits, in census order (sort_verdicts gives report
    order).  map(fn, items) runs the checks; a process pool's map fans them
    out, given a picklable check (a module-level function or a partial of
    one)."""
    items = list(enumerate(generate(spec)))
    batches = map(partial(_census_verdicts, check), items)
    return [v for batch in batches for v in batch]


class VertexOrder(namedtuple("VertexOrder", "permutation back_degrees")):
    """A total order on the vertices with each vertex's count of earlier
    neighbors; on a loop-free graph those counts sum to the edge count."""

    __slots__ = ()


def vertex_order(g: Graph, permutation: Sequence[int]) -> VertexOrder:
    perm = tuple(permutation)
    if sorted(perm) != list(range(g.vertex_count)):
        raise DomainError(f"not a permutation of 0..{g.vertex_count - 1}: {perm}")
    back = [0] * g.vertex_count
    for i, m in enumerate(relabel(adjacency_masks(g), perm)):
        back[perm[i]] = (m & ((1 << i) - 1)).bit_count()
    return VertexOrder(perm, tuple(back))


def _per_size(p: GraphProfile, check_id: str, poly, reference) -> list[Verdict]:
    """One exact verdict per size s in 0..n/2, in size order, that the
    coefficient of x^s in poly is at most reference(s)."""
    n = p.graph.vertex_count
    return [
        exact_le(
            check_id,
            p.label,
            _params(n=n, d=p.degree, size=s),
            poly.coefficient(s),
            reference(s),
            graph=p.graph,
        )
        for s in range(n // 2 + 1)
    ]


def umc_graph_verdicts(p: GraphProfile) -> list[Verdict]:
    """Matching counts of one d-regular graph on n vertices, 2d | n, against
    the complete-bipartite-union reference, one exact verdict per size."""
    union = union_params(p.graph.vertex_count, p.degree)
    reference = partial(union_matching_count, union)
    return _per_size(p, "match-count-vs-union", p.matching_polynomial, reference)


def kahn_graph_verdicts(p: GraphProfile) -> list[Verdict]:
    """Independent-set counts of one graph against the union reference."""
    union = union_params(p.graph.vertex_count, p.degree)
    reference = partial(union_independent_count, union)
    return _per_size(p, "ind-count-vs-union", p.independence_polynomial, reference)


def total_count_graph_verdicts(p: GraphProfile) -> list[Verdict]:
    """Exact check that a bipartite d-regular graph on n vertices, 2d | n,
    has at most (2^(d+1) - 1)^(n/2d) independent sets, the total of the
    union of n/2d copies of K_{d,d}; no verdict for any other graph."""
    n, d = p.graph.vertex_count, p.degree
    if not d or n % (2 * d) or not p.bipartite:
        return []
    return [
        exact_le(
            "ind-total-vs-kdd-power",
            p.label,
            _params(n=n, d=d),
            sum(p.independence_polynomial.coefficients),
            (2 ** (d + 1) - 1) ** (n // (2 * d)),
            graph=p.graph,
        )
    ]


def _poly_derivative(p: list[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(p)][1:]


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    if len(a) < len(b):
        return [], a
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        coef = a[i + len(b) - 1] / b[-1]
        q[i] = coef
        if coef:
            for j, bc in enumerate(b):
                a[i + j] -= coef * bc
    while a and a[-1] == 0:
        a.pop()
    return q, a


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    lead = a[-1]
    return [c / lead for c in a]


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    while out and out[-1] == 0:
        out.pop()
    return out


def _squarefree_factors(coeffs: Sequence[int]) -> list[tuple[list[Fraction], int]]:
    """Yun decomposition p = prod f_k^k into monic square-free coprime
    factors over the rationals, exactly."""
    f = [Fraction(c) for c in coeffs]
    df = _poly_derivative(f)
    g = _poly_gcd(f, df)
    w, _ = _poly_divmod(f, g)
    y, _ = _poly_divmod(df, g)
    z = _poly_sub(y, _poly_derivative(w))
    out: list[tuple[list[Fraction], int]] = []
    k = 1
    while len(w) > 1:
        gk = _poly_gcd(w, z)
        if len(gk) > 1:
            out.append((gk, k))
        w, rw = _poly_divmod(w, gk)
        y, rz = _poly_divmod(z, gk)
        if rw or rz:
            raise ArithmeticError("square-free decomposition: a gcd left a remainder")
        z = _poly_sub(y, _poly_derivative(w))
        k += 1
    if sum(m * (len(fk) - 1) for fk, m in out) != len(coeffs) - 1:
        raise ArithmeticError(
            "square-free decomposition: factor degrees do not sum to the degree"
        )
    return out


def verify_real_rooted(p: GraphProfile, tol: float = DEFAULT_ROOT_TOL) -> Verdict:
    """Numeric check that the matching partition function has only real
    negative roots, via companion-matrix eigenvalues.

    Repeated roots are separated exactly first (square-free decomposition
    over the rationals): clustered eigenvalues of an m-fold root would
    otherwise report spurious imaginary parts of order eps^(1/m), which
    already exceeds any reasonable tolerance for the multiplicities produced
    by repeated connected components.  lhs is the worst relative imaginary
    part over all roots, rhs the tolerance; the margin also folds in the
    distance of the rightmost root from the imaginary axis.  The
    multiplicity-weighted reciprocal-root sum is checked against the edge
    count at ROOT_SUM_REL_TOL relative error.  An edgeless graph has a
    constant polynomial, which has no square-free factor and no root, so it
    passes with lhs 0 and margin tol.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tolerance must be finite and positive, got {tol}")
    g = p.graph
    # Imported here, its only user, so other commands start without numpy.
    import numpy as np

    coeffs = p.matching_polynomial.coefficients
    rel_imag = 0.0
    worst_real = -math.inf
    recip_sum = 0.0
    for factor, mult in _squarefree_factors(coeffs):
        roots = np.polynomial.polynomial.polyroots(
            np.array([float(c) for c in factor])
        )
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
    p: GraphProfile, h: Graph, orders: Sequence[VertexOrder], h_name: str
) -> list[Verdict]:
    """Exact cross-multiplied check, one verdict per order in the given
    order, that hom(g, h)^d is at most the product over vertices v of
    hom(K_{b,b}, h) with b the back degree of v under that order.  The
    zero-by-zero block contributes an empty product of 1.  hom(g, h) and each
    hom(K_{b,b}, h) are counted once for all orders.  h_name names h in each
    verdict's target param.  At d = 0 both sides are 1.  A looped source
    raises GraphError from count_homomorphisms."""
    g, d = p.graph, p.degree
    if d is None:
        raise DomainError("source graph must be d-regular")
    lhs = count_homomorphisms(g, h) ** d
    factors = {0: 1}
    for order in orders:
        for b in order.back_degrees:
            if b not in factors:
                factors[b] = count_homomorphisms(build_kdd(b), h)
    verdicts = []
    for order in orders:
        rhs = math.prod(factors[b] for b in order.back_degrees)
        params = _params(
            n=g.vertex_count,
            d=d,
            target=h_name,
            order=",".join(str(v) for v in order.permutation),
        )
        verdicts.append(
            exact_le("hom-order-product", p.canonical_label, params, lhs, rhs, graph=g)
        )
    return verdicts


def verify_hardcore_hom_identity(p: GraphProfile, c: int, lam) -> Verdict:
    """Exact identity: homomorphism count into the hard-core target with c
    clique vertices and c*lambda independent vertices equals
    c^n * (independence partition function at lambda), cleared of
    denominators.  Requires c*lambda to be a nonnegative integer."""
    lam = Fraction(lam)
    if c < 1:
        raise DomainError(f"clique size must be >= 1, got {c}")
    scaled = lam * c
    if lam < 0 or scaled.denominator != 1:
        raise DomainError(f"c*lambda must be a nonnegative integer, got {scaled}")
    a = int(scaled)
    h = build_hardcore_target(c, a)
    hom = count_homomorphisms(p.graph, h)
    n = p.graph.vertex_count
    poly = p.independence_polynomial
    cleared = sum(
        poly.coefficient(t) * a**t * c ** (n - t) for t in range(n + 1)
    )
    params = _params(n=n, d=p.degree, c=c, lam=lam)
    return exact_eq(
        "hardcore-hom-identity", p.canonical_label, params, hom, cleared, graph=p.graph
    )


def verify_perfect_matching_bound(p: GraphProfile) -> list[Verdict]:
    """Exact check i_t <= 2^t binom(n/2, t) for every t, valid because the
    graph has a perfect matching; verdicts in check order."""
    if not p.has_perfect_matching:
        raise DomainError("graph has no perfect matching")
    return _per_size(
        p,
        "ind-count-vs-pm-bound",
        p.independence_polynomial,
        partial(independent_upper_pm_exact, p.graph.vertex_count),
    )


def verify_bounds_suite(
    p: GraphProfile,
    lambda_grid: Sequence = DEFAULT_LAMBDA_GRID,
) -> list[Verdict]:
    """Every applicable closed-form bound against the exact polynomials of
    the graph, one Verdict per (bound, size, lambda) instance, in check
    order.

    Every bound is a power-cleared inequality and decided exactly.  The
    count bounds are reported in log2, the others with both sides as exact
    rationals.
    """
    g, d, label = p.graph, p.degree, p.label
    if d is None:
        raise DomainError("bounds suite needs a regular graph")
    n = g.vertex_count
    grid = sorted(set(Fraction(x) for x in lambda_grid))
    if any(x <= 0 for x in grid):
        raise DomainError("lambda grid must be positive")
    verdicts: list[Verdict] = []
    if d < 1:
        return verdicts

    def exact(check_id, q, bound, params):
        verdicts.append(exact_le(check_id, label, params, bound.lhs(q), bound.rhs, graph=g))

    def in_log2(check_id, count, bound, params):
        verdicts.append(bound_verdict(check_id, label, params, count, bound, graph=g))

    mpoly, ipoly = p.matching_polynomial, p.independence_polynomial
    sizes = range(n // 2 + 1)
    # The verdicts of one lambda, or of one size, share one params dict;
    # _verdict copies it before adding to it.
    sized = [_params(n=n, d=d, size=s) for s in sizes]
    for lam in grid:
        zm, zi = eval_partition(mpoly, lam), eval_partition(ipoly, lam)
        at_lam = _params(n=n, d=d, lam=lam)
        matching = match_pf_upper(n, d, lam)
        exact("match-pf-upper", zm, matching, at_lam)
        exact("match-pf-gurvits", zm, match_pf_gurvits(g.edge_count, p.nu, lam), at_lam)
        exact("ind-pf-upper-general", zi, ind_pf_upper_general(n, d, lam), at_lam)
        if p.bipartite:
            exact("ind-pf-upper-bipartite", zi, ind_pf_upper_bipartite(n, d, lam), at_lam)
        # single_term(matching, ell, lam), its cofactor multiplied up by
        # lam^k from one size to the next.
        cofactor, step = matching.cofactor, lam**matching.k
        for ell in sizes:
            bound = Cleared(matching.k, matching.rhs, cofactor)
            params = {**sized[ell], "lam": at_lam["lam"]}
            exact("match-single-term", mpoly.coefficient(ell), bound, params)
            cofactor *= step
    for ell in range(1, (n - 1) // 2 + 1):
        lam = optimal_lambda(n, d, ell)
        bound = single_term(match_pf_upper(n, d, lam), ell, lam)
        params = _params(n=n, d=d, size=ell, lam=lam)
        exact("match-single-term-opt", mpoly.coefficient(ell), bound, params)
    for s in sizes:
        in_log2("match-count-upper", mpoly.coefficient(s), match_count_upper(n, d, s), sized[s])
        bound = ind_count_upper_general(n, d, s)
        in_log2("ind-count-upper-general", ipoly.coefficient(s), bound, sized[s])
        if p.bipartite:
            bound = ind_count_upper_bipartite(n, d, s)
            in_log2("ind-count-upper-bipartite", ipoly.coefficient(s), bound, sized[s])
    if p.bipartite and n % 2 == 0:
        exact("bregman-pm", mpoly.coefficient(n // 2), bregman_pm(n, d), _params(n=n, d=d))
    return verdicts


def verify_union_lower_bounds(
    n: int,
    d: int,
    c_grid: Sequence = DEFAULT_C_GRID,
) -> list[Verdict]:
    """Lower bounds and block statistics for the complete-bipartite union.

    The Markov-style and small-size lower bounds are asserted against the
    exact union counts; the block-miss statistics are recomputed by brute
    force and checked against the closed forms and the weighted identity.
    Verdicts come in check order.
    """
    p = union_params(n, d)
    label = f"union-{n}v-{d}r"
    half = n // 2
    verdicts: list[Verdict] = []

    def add(build, check_id, a, b, **params):
        verdicts.append(build(check_id, label, _params(n=n, d=d, **params), a, b))

    for t in range(half + 1):
        count = union_independent_count(p, t)
        for c in c_grid:
            c = Fraction(c)
            bound = union_ind_lower_markov(n, d, t, c)
            add(bound_verdict, "union-ind-lower-markov", count, bound, size=t, c=c)
        if t <= p.copies:
            bound = union_ind_lower_small_t(n, d, t)
            add(bound_verdict, "union-ind-lower-small-t-log", count, bound, size=t)
            exact = union_small_t_exact(n, d, t)
            add(exact_le, "union-ind-lower-small-t-exact", exact, count, size=t)
        # Brute-force block statistics over all t-subsets of the half set.
        blocks = [set(range(i * d, (i + 1) * d)) for i in range(p.copies)]
        misses = [0] * (p.copies + 1)
        for subset in combinations(range(half), t):
            chosen = set(subset)
            missed = sum(1 for blk in blocks if not blk & chosen)
            misses[missed] += 1
        identity = sum(b * 2 ** (p.copies - k) for k, b in enumerate(misses))
        add(exact_eq, "union-block-identity", identity, count, size=t)
        mu_exact = Fraction(
            sum(k * b for k, b in enumerate(misses)), math.comb(half, t)
        )
        mu_closed, mu_bound = block_miss_stats(n, d, t)
        add(exact_eq, "union-block-mean-closed-form", mu_exact, mu_closed, size=t)
        add(exact_le, "union-block-mean-markov", mu_closed, mu_bound, size=t)
    return verdicts


def suite_graph_verdicts(
    p: GraphProfile,
    lambda_grid: Sequence = DEFAULT_LAMBDA_GRID,
) -> list[Verdict]:
    """Full per-graph battery, in check order: the bounds suite, the
    perfect-matching bound when one exists, and the total-count bound when
    the graph is bipartite."""
    verdicts = verify_bounds_suite(p, lambda_grid)
    if p.graph.edge_count > 0 and p.has_perfect_matching:
        verdicts.extend(verify_perfect_matching_bound(p))
    verdicts.extend(total_count_graph_verdicts(p))
    return verdicts


def hom_targets() -> list[tuple[str, Graph]]:
    """Fixed target menu for the order-product inequality: small cliques, the
    fully permissive looped vertex, and two hard-core targets."""
    return [
        ("K2", build_graph(2, [(0, 1)])),
        ("K3", build_graph(3, [(0, 1), (0, 2), (1, 2)])),
        ("K1-loop", build_graph(1, [(0, 0)], allow_loops=True)),
        ("hardcore-1-1", build_hardcore_target(1, 1)),
        ("hardcore-2-2", build_hardcore_target(2, 2)),
    ]


def hom_graph_verdicts(
    p: GraphProfile,
    random_orders: int = 5,
    seed: int = 0,
    c_grid: Sequence = DEFAULT_C_GRID,
) -> list[Verdict]:
    """Order-product inequality over every target and several vertex orders,
    plus the hard-core homomorphism identity at a few (c, lambda) pairs.

    Orders tried: identity, reversed, and random_orders shuffles drawn from a
    seed that also hashes the census index, so reruns are reproducible.
    Verdicts come in check order.
    """
    g, n = p.graph, p.graph.vertex_count
    perms = [list(range(n)), list(range(n - 1, -1, -1))]
    rng = random.Random(f"{seed}:{n}:{p.degree}:{p.index}")
    for _ in range(random_orders):
        perm = list(range(n))
        rng.shuffle(perm)
        perms.append(perm)
    orders = [vertex_order(g, perm) for perm in perms]
    verdicts = []
    for name, h in hom_targets():
        verdicts.extend(verify_hom_inequality(p, h, orders, h_name=name))
    for c in c_grid:
        cf = Fraction(c)
        if cf.denominator != 1 or cf < 1:
            raise DomainError(f"clique sizes must be positive integers, got {cf}")
        c_int = int(cf)
        for lam in (Fraction(0), Fraction(1), Fraction(1, c_int)):
            verdicts.append(verify_hardcore_hom_identity(p, c_int, lam))
    return verdicts
