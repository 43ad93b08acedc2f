"""Closed-form bound formulas: frozen values, domain guards, and exact
power-cleared inequality checks against counts from test-local enumeration
or the oracle-tested polynomials.
"""

import math
import time
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import mpmath
import pytest
from mpmath import mpf

from regcount import (
    Cleared,
    DivisibilityError,
    DomainError,
    LogBound,
    balanced_profile,
    binary_entropy,
    block_miss_stats,
    bregman_pm,
    build_graph,
    eval_partition,
    ind_count_upper_bipartite,
    ind_count_upper_general,
    ind_pf_upper_bipartite,
    ind_pf_upper_general,
    independent_upper_pm_exact,
    match_count_upper,
    match_pf_gurvits,
    match_pf_upper,
    matching_polynomial,
    optimal_lambda,
    profile_matching_lower,
    single_term,
    stirling_rhs,
    stirling_term_check,
    union_ind_lower_markov,
    union_ind_lower_small_t,
    union_matching_lower_explicit,
    union_small_t_exact,
)
from regcount.bounds import _CTX, LOWER, UPPER, log2
from regcount.verify import DEFAULT_LAMBDA_GRID, GraphProfile, bound_verdict

TIGHT = 1e-30  # far above 40-digit rounding, far below any real discrepancy


@pytest.fixture
def bounds_precision():
    """Arithmetic on bound values in the test itself in the bounds' own
    decimal context, so that TIGHT can tell them apart."""
    with localcontext(_CTX):
        yield


def _mp(x):
    """A package Decimal as an mpf at the current mpmath precision."""
    return mpf(str(x))


def test_log2_and_entropy():
    assert abs(log2(Fraction(8)) - 3) < TIGHT
    assert abs(float(log2(Fraction(3, 4))) - math.log2(0.75)) < 1e-12
    with pytest.raises(DomainError):
        log2(Fraction(0))
    assert binary_entropy(Fraction(1, 2)) == 1
    assert binary_entropy(0) == 0
    assert binary_entropy(1) == 0
    assert abs(float(binary_entropy(Fraction(1, 4))) - (2 - 0.75 * math.log2(3))) < 1e-12
    with pytest.raises(DomainError):
        binary_entropy(Fraction(3, 2))
    # 40 digits whatever the caller's context; at 16 digits the log of 3^40
    # would be off by about 1e-14
    with localcontext(Context(prec=16)):
        got = [log2(3**40), log2(Fraction(3**40, 2**7)), binary_entropy(Fraction(1, 3))]
    with mpmath.workprec(120):
        ln3 = mpmath.log(3) / mpmath.log(2)
        want = [40 * ln3, 40 * ln3 - 7, ln3 - mpf(2) / 3]
        assert all(abs(_mp(g) - w) < TIGHT for g, w in zip(got, want))


def test_logbound_admits_slack(bounds_precision):
    up = LogBound(Decimal(3), UPPER)
    assert up.admits(Decimal(3))
    assert up.admits(Decimal(3) + Decimal(2) ** -41)
    assert not up.admits(Decimal(3) + Decimal(2) ** -39)
    lo = LogBound(Decimal(3), LOWER)
    assert lo.admits(Decimal(3) - Decimal(2) ** -41)
    assert not lo.admits(Decimal(3) - Decimal(2) ** -39)


def _case(definition, *args, name=None):
    name = name or "-".join(map(str, (definition.__name__,) + args))
    return pytest.param(definition, args, id=name)


@pytest.mark.parametrize(
    "definition, args",
    [
        _case(match_pf_upper, 0, 2, 1),
        _case(match_pf_upper, 8, -1, 1),
        _case(match_pf_upper, 8, 2, Fraction(-1)),
        _case(match_pf_gurvits, 0, 0, 1),
        _case(match_pf_gurvits, 8, 4, -1),
        _case(ind_pf_upper_general, 8, 0, 0),
        _case(ind_pf_upper_general, 8, 2, -1),
        _case(ind_pf_upper_bipartite, 8, 0, 1),
        _case(ind_pf_upper_bipartite, 8, 2, -1),
        _case(bregman_pm, 8, 0),
        _case(single_term, Cleared(2, 9), -1, 1, name="single_term-size-1"),
        _case(single_term, Cleared(2, 9), 1, -1, name="single_term-lam-1"),
        _case(match_count_upper, 8, 2, 5),
        _case(match_count_upper, 8, 2, -1),
        _case(match_count_upper, 8, 0, 2),
        _case(ind_count_upper_general, 8, 2, 5),
        _case(ind_count_upper_general, 8, 0, 2),
        _case(ind_count_upper_bipartite, 8, 2, 5),
        _case(ind_count_upper_bipartite, 8, 0, 2),
        _case(optimal_lambda, 8, 0, 2),
        _case(optimal_lambda, 8, 2, 5),
        _case(union_matching_lower_explicit, 8, 0, 2),
        _case(union_matching_lower_explicit, 8, 2, 5),
        _case(union_ind_lower_markov, 8, 0, 2, 2),
        _case(union_ind_lower_markov, 8, 2, 5, 2),
        _case(union_ind_lower_small_t, 8, 2, -1),
        _case(block_miss_stats, 8, 2, 5),
    ],
)
def test_definitions_reject_inputs_outside_their_domain(definition, args):
    # n >= 1, d >= 1, 0 <= size <= n/2 and lambda >= 0; outside that range a
    # formula can still return a number (match_count_upper(8, 2, 5) would
    # carry a float cofactor), so each definition checks its own inputs.
    with pytest.raises(DomainError):
        definition(*args)


def test_matching_partition_upper_against_cycle(c8, bounds_precision):
    b = match_pf_upper(8, 2, Fraction(1)).log_bound()
    assert b.direction == UPPER
    assert abs(b.value - 4 * log2(Fraction(3))) < TIGHT
    z = eval_partition(matching_polynomial(c8), Fraction(1))
    assert z == 47
    # power-cleared form of the same inequality, exactly: z^2 <= (1+d)^n
    assert z**2 <= 3**8
    assert b.admits(log2(Fraction(z)))


def test_optimal_lambda():
    assert optimal_lambda(8, 2, 2) == Fraction(1, 2)
    assert optimal_lambda(6, 3, 1) == Fraction(1, 6)
    with pytest.raises(DomainError):
        optimal_lambda(8, 2, 0)
    with pytest.raises(DomainError):
        optimal_lambda(8, 2, 4)
    with pytest.raises(DomainError):
        optimal_lambda(8, 0, 2)


def test_matching_count_upper_values(c8):
    # alpha = 1/2 at (8, 2, 2) gives exactly (n/2)(1/2 + H(1/2)) = 6
    b = match_count_upper(8, 2, 2).log_bound()
    assert abs(b.value - 6) < TIGHT
    assert b.admits(log2(Fraction(20)))
    assert matching_polynomial(c8).coefficient(2) == 20
    assert match_count_upper(8, 2, 0).log_bound().value == 0
    full = match_count_upper(8, 2, 4).log_bound()
    assert abs(full.value - 4) < TIGHT
    with pytest.raises(DomainError):
        match_count_upper(8, 0, 2)


def test_union_matching_lower_explicit_value():
    b = union_matching_lower_explicit(8, 2, 2)
    assert b.direction == LOWER
    want = 4 * (0.5 * 1 + 2 * 1 + 0.5 * (math.log2(0.5) - math.log2(math.e)))
    assert abs(float(b.value) - want) < 1e-12
    with pytest.raises(DomainError):
        union_matching_lower_explicit(8, 2, 0)
    with pytest.raises(DomainError):
        union_matching_lower_explicit(8, 2, 4)


def test_balanced_profile():
    assert balanced_profile(12, 3, 5) == (3, 2)
    assert balanced_profile(8, 2, 4) == (2, 2)
    assert balanced_profile(12, 2, 0) == (0, 0, 0)
    for n, d, ell in ((12, 3, 5), (16, 2, 7), (24, 4, 11)):
        prof = balanced_profile(n, d, ell)
        assert sum(prof) == ell
        assert max(prof) - min(prof) <= 1
    with pytest.raises(DivisibilityError):
        balanced_profile(10, 3, 2)
    with pytest.raises(DomainError):
        balanced_profile(8, 2, 5)


def test_stirling_check_holds_at_c_one_small_grid():
    # the acceptance suite sweeps d <= 64; this is the cheap sanity slice
    for d in range(1, 11):
        for a in range(d + 1):
            assert stirling_term_check(d, a, 1)
    with pytest.raises(DomainError):
        stirling_rhs(4, 2, Fraction(1, 2))
    with pytest.raises(DomainError):
        stirling_rhs(4, 5, 1)


def test_profile_lower_is_sum_of_terms_and_holds(bounds_precision):
    from regcount import union_matching_count, union_params

    prof = balanced_profile(8, 2, 2)
    b = profile_matching_lower(8, 2, prof, 1)
    assert b.direction == LOWER
    assert abs(b.value - sum(stirling_rhs(2, a, 1) for a in prof)) < TIGHT
    exact = union_matching_count(union_params(8, 2), 2)
    assert b.admits(log2(Fraction(exact)))


def test_gurvits_bound(c8, bounds_precision):
    b = match_pf_gurvits(c8.edge_count, GraphProfile(c8).nu, Fraction(1)).log_bound()
    # nu = 4 and |E|/nu = 2, so the bound is 4 log2(3); cleared: z <= 3^4
    assert abs(b.value - 4 * log2(Fraction(3))) < TIGHT
    z = eval_partition(matching_polynomial(c8), Fraction(1))
    assert z <= 3**4
    assert b.admits(log2(Fraction(z)))


def test_gurvits_bound_reads_nu_from_the_matching_polynomial():
    # the circulant C_40(1, 20), where a search over vertex sets blows up
    n = 40
    g = build_graph(n, {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in (1, 20)})
    start = time.perf_counter()
    b = match_pf_gurvits(g.edge_count, GraphProfile(g).nu, Fraction(1)).log_bound()
    assert time.perf_counter() - start < 1
    # nu = 20 and |E|/nu = 3, so the bound is 20 log2(4) = 40
    assert abs(b.value - 40) < TIGHT


def test_independent_partition_upper(c8, k33, bounds_precision):
    from regcount import independence_polynomial

    z8 = eval_partition(independence_polynomial(c8), Fraction(1))
    assert z8 == 47
    gen = ind_pf_upper_general(8, 2, Fraction(1)).log_bound()
    assert abs(gen.value - 8) < TIGHT
    assert gen.admits(log2(Fraction(z8)))
    bip = ind_pf_upper_bipartite(8, 2, Fraction(1)).log_bound()
    assert abs(bip.value - 2 * log2(Fraction(7))) < TIGHT
    assert z8**2 <= 7**4
    assert bip.admits(log2(Fraction(z8)))
    # K_{3,3} at lambda = 1: z = 1 + 6 + 6 + 2 = 15 and the bipartite form
    # is exactly log2(2 * 2^3 - 1) = log2 15, equality on the block
    z33 = eval_partition(independence_polynomial(k33), Fraction(1))
    assert z33 == 15
    bip33 = ind_pf_upper_bipartite(6, 3, Fraction(1)).log_bound()
    assert abs(bip33.value - log2(Fraction(15))) < TIGHT


def occupancy_lambda(n, t):
    """The weight with expected occupancy t on n/2 pairs: lambda = 2t/(n-2t)."""
    if not 0 <= t < n / 2:
        raise DomainError(f"need 0 <= t < n/2, got t={t}, n={n}")
    return Fraction(2 * t, n - 2 * t)


def test_occupancy_lambda():
    assert occupancy_lambda(8, 2) == 1
    assert occupancy_lambda(12, 2) == Fraction(1, 2)
    assert occupancy_lambda(8, 0) == 0
    with pytest.raises(DomainError):
        occupancy_lambda(8, 4)


def test_independent_upper_pm_exact(c8):
    from regcount import independence_polynomial

    assert independent_upper_pm_exact(8, 2) == 24
    assert independence_polynomial(c8).coefficient(2) == 20
    assert independent_upper_pm_exact(8, 0) == 1
    assert independent_upper_pm_exact(8, 4) == 2**4
    with pytest.raises(DomainError):
        independent_upper_pm_exact(7, 2)
    with pytest.raises(DomainError):
        independent_upper_pm_exact(8, 5)


def test_independent_count_upper_variants():
    pm = LogBound(log2(Fraction(independent_upper_pm_exact(8, 2))), UPPER)
    assert abs(pm.value - log2(Fraction(24))) < TIGHT
    gen = ind_count_upper_general(8, 2, 2).log_bound()
    assert abs(gen.value - 8) < TIGHT
    bip = ind_count_upper_bipartite(8, 2, 2)
    want = 4 * (1 + 0.5 - math.log2(math.e) / 4 * 0.25)
    assert abs(float(bip.value) - want) < 1e-12
    for b in (gen, bip, pm):
        assert b.admits(log2(Fraction(20)))


def test_union_small_t_exact_is_a_true_count():
    from regcount import union_independent_count, union_params

    assert union_small_t_exact(8, 2, 1) == 8
    assert union_small_t_exact(8, 2, 2) == 16
    assert union_small_t_exact(12, 3, 2) == 36
    # scattered sets are a subfamily, so the closed form never exceeds the count
    for n, d in ((8, 2), (12, 3), (12, 2)):
        p = union_params(n, d)
        for t in range(p.copies + 1):
            assert union_small_t_exact(n, d, t) <= union_independent_count(p, t)
    # at t = 1 every size-1 set is scattered
    assert union_small_t_exact(12, 2, 1) == union_independent_count(union_params(12, 2), 1)
    with pytest.raises(DomainError):
        union_small_t_exact(8, 2, 3)
    with pytest.raises(DivisibilityError):
        union_small_t_exact(10, 4, 1)


def test_union_independent_lower_variants():
    markov = union_ind_lower_markov(8, 2, 2, Fraction(2))
    assert markov.direction == LOWER
    assert abs(markov.value - log2(Fraction(6))) < TIGHT
    assert log2(Fraction(20)) >= markov.value
    small = union_ind_lower_small_t(8, 2, 2)
    # the product form gives exactly 12, weaker than the exact scattered
    # count 16 because it rounds each conditional factor down
    assert small.direction == LOWER
    assert Fraction(small.rhs, small.cofactor) == 12
    assert bound_verdict("union-ind-lower-small-t-log", "union-8v-2r", {}, 12, small).passed
    assert not bound_verdict("union-ind-lower-small-t-log", "union-8v-2r", {}, 11, small).passed
    assert abs(small.log_bound().value - log2(Fraction(12))) < TIGHT
    assert union_small_t_exact(8, 2, 2) == 16
    with pytest.raises(DomainError):
        union_ind_lower_markov(8, 2, 2, Fraction(1))
    with pytest.raises(DomainError):
        union_ind_lower_small_t(8, 2, 3)


def oracle_mean_missed_blocks(n, d, t):
    half = n // 2
    blocks = [set(range(i * d, (i + 1) * d)) for i in range(half // d)]
    total = 0
    subsets = 0
    for chosen in combinations(range(half), t):
        chosen = set(chosen)
        subsets += 1
        total += sum(1 for b in blocks if not (b & chosen))
    return Fraction(total, subsets)


def test_block_miss_stats_exact_and_bounded():
    for n, d, t in ((8, 2, 2), (12, 2, 3), (12, 3, 2), (16, 4, 3)):
        mu, bound = block_miss_stats(n, d, t)
        assert isinstance(mu, Fraction) and isinstance(bound, Fraction)
        assert mu == oracle_mean_missed_blocks(n, d, t)
        assert mu <= bound
    with pytest.raises(DivisibilityError):
        block_miss_stats(10, 4, 1)


def _entropy(a):
    return 0 if a in (0, 1) else -a * mpmath.log(a, 2) - (1 - a) * mpmath.log(1 - a, 2)


def test_log2_forms_match_the_closed_formulas():
    # The log2 values derive from power-cleared inequalities; here each is
    # compared with its closed formula, evaluated with mpmath alone.
    with mpmath.workprec(120):
        for d in range(1, 9):
            for n in range(d + 1, 41):
                half = mpf(n) / 2
                for s in range(n // 2 + 1):
                    a = mpf(2 * s) / n
                    want = half * (a * mpmath.log(d, 2) + _entropy(a))
                    got = _mp(match_count_upper(n, d, s).log_bound().value)
                    assert abs(got - want) < TIGHT, (n, d, s)
                    want = half * (_entropy(a) + mpf(2) / d)
                    got = _mp(ind_count_upper_general(n, d, s).log_bound().value)
                    assert abs(got - want) < TIGHT, (n, d, s)
                for lam in DEFAULT_LAMBDA_GRID:
                    x = mpf(lam.numerator) / lam.denominator
                    want = half * mpmath.log(1 + d * x, 2)
                    got = _mp(match_pf_upper(n, d, lam).log_bound().value)
                    assert abs(got - want) < TIGHT, (n, d, lam)
                    want = mpf(n) / d + half * mpmath.log(1 + x, 2)
                    got = _mp(ind_pf_upper_general(n, d, lam).log_bound().value)
                    assert abs(got - want) < TIGHT, (n, d, lam)
                    edges, nu = n * d // 2, n // 2
                    want = nu * mpmath.log(1 + x * edges / nu, 2)
                    got = _mp(match_pf_gurvits(edges, nu, lam).log_bound().value)
                    assert abs(got - want) < TIGHT, (n, d, lam)


def _ratio(bound):
    """A cleared bound up to a positive factor on both sides."""
    return bound.k, Fraction(bound.rhs, bound.cofactor)


def test_count_bounds_are_single_terms_at_the_best_weight():
    # Inside (0, n/2) each count bound is the single-term extraction at its
    # weight; at size 0 the weight is 0, and at n/2 the bound is the limit
    # of large weight.
    for d in range(1, 9):
        for n in range(d + 1, 41):
            for s in range(1, (n + 1) // 2):
                lam = optimal_lambda(n, d, s)
                want = single_term(match_pf_upper(n, d, lam), s, lam)
                assert _ratio(match_count_upper(n, d, s)) == _ratio(want)
                lam = occupancy_lambda(n, s)
                want = single_term(ind_pf_upper_general(n, d, lam), s, lam)
                assert _ratio(ind_count_upper_general(n, d, s)) == _ratio(want)
            assert _ratio(match_count_upper(n, d, 0)) == (2, 1)
            assert _ratio(ind_count_upper_general(n, d, 0)) == (2 * d, 4**n)
            if n % 2 == 0:
                assert _ratio(match_count_upper(n, d, n // 2)) == (2, d**n)
                assert _ratio(ind_count_upper_general(n, d, n // 2)) == (2 * d, 4**n)
