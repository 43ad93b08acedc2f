"""Closed-form bound formulas: frozen values, domain guards, and exact
power-cleared inequality checks against counts from test-local enumeration
or the oracle-tested polynomials.
"""

import math
import time
from fractions import Fraction
from itertools import combinations

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mpf

from regcount import (
    Cleared,
    DivisibilityError,
    DomainError,
    balanced_profile,
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
    stirling_term,
    union_ind_lower_markov,
    union_ind_lower_small_t,
    union_matching_lower_explicit,
    union_copies,
    union_small_t_exact,
)
from regcount.bounds import LOWER, UPPER, _ln_bounds, check_domain, log2, signed_log2_ratio
from regcount.cli import _bounds_rows
from regcount.kdd import union_block_misses
from regcount.verify import (
    DEFAULT_LAMBDA_GRID,
    GraphProfile,
    bound_verdict,
    exact_eq,
    exact_le,
    format_number,
)


def _mp_fraction(x):
    return mpf(x.numerator) / x.denominator


def _lg(x):
    """log2 of a positive int or Fraction at 1200 bits, with mpmath alone."""
    with mpmath.workprec(1200):
        return mpmath.log(_mp_fraction(Fraction(x)), 2)


def _near(got, want):
    """Is the log2 value got a float that prints as the float nearest want,
    a value from mpmath, prints?"""
    return isinstance(got, float) and format_number(got) == f"{float(want):.12g}"


def test_log2():
    assert log2(8) == log2(Fraction(8)) == 3.0
    with pytest.raises(DomainError):
        log2(Fraction(0))
    # 3^40 / 2^7 and 1 + 10^-50 cancel against a shift and against 1.
    for x in (Fraction(3, 4), 3**40, Fraction(3**40, 2**7), Fraction(10**50 + 1, 10**50)):
        got = log2(x)
        assert _near(got, _lg(x)), x
        assert abs(got - float(_lg(x))) <= 2 * math.ulp(got), x


def _sign(num, den, pow2=0, pow_e=0):
    """The sign of num / den - 2^pow2 * e^pow_e, as signed_log2_ratio gives
    it for log2(num / den * 2^-pow2 * e^-pow_e)."""
    return signed_log2_ratio(num, den, 1, -pow2, -pow_e)[0]


@st.composite
def _power_comparisons(draw):
    """(num, den, pow2, pow_e): a ratio anywhere, or within about 2^-bits of
    2^pow2 e^pow_e, or, with pow_e = 0 and pow2 an integer, next to or at
    2^pow2, or any ratio against exponents of opposite signs beyond float
    range, whose sum in log2 lies anywhere from about 2^-200 to beyond float
    range."""
    shape = draw(st.sampled_from(["any", "near", "exact", "huge"]))
    pow2 = Fraction(draw(st.integers(-400, 400)), draw(st.integers(1, 60)))
    pow_e = Fraction(draw(st.integers(-400, 400)), draw(st.integers(1, 60)))
    if shape == "exact":
        pow2, pow_e = Fraction(draw(st.integers(-400, 400))), Fraction(0)
    if shape == "huge":
        pow2 = Fraction(draw(st.integers(10**308, 10**400)), draw(st.integers(1, 60)))
        pow2 *= draw(st.sampled_from([1, -1]))
        scale = 2 ** draw(st.integers(0, 200))
        offset = draw(st.integers(-(2**1400), 2**1400)) >> draw(st.integers(0, 1400))
        with mpmath.workprec(1800):
            cancel = int(mpmath.nint(-_mp_fraction(pow2) * mpmath.log(2) * scale))
        pow_e = Fraction(cancel + offset, scale)
    if shape in ("any", "huge"):
        return draw(st.integers(1, 2**300)), draw(st.integers(1, 2**300)), pow2, pow_e
    bits = draw(st.integers(0, 200))
    with mpmath.workprec(1600):
        target = mpmath.power(2, _mp_fraction(pow2)) * mpmath.exp(_mp_fraction(pow_e))
        den = 2 ** max(0, bits - int(mpmath.floor(mpmath.log(target, 2))))
        num = int(mpmath.nint(target * den)) + draw(st.integers(-3, 3))
    assume(num >= 1)
    return num, den, pow2, pow_e


@settings(max_examples=300, deadline=None)
@given(_power_comparisons())
def test_signed_log2_ratio_sign_agrees_with_a_300_bit_oracle(case):
    # 300 bits past the magnitude of the exponents, which cancel in "huge".
    num, den, pow2, pow_e = case
    with mpmath.workprec(300 + int(abs(pow2) + abs(pow_e)).bit_length()):
        gap = mpmath.log(num) - mpmath.log(den) - _mp_fraction(pow2) * mpmath.log(2) - _mp_fraction(pow_e)
    if pow_e == 0 and pow2.denominator == 1 and num * 2 ** max(0, -pow2) == den * 2 ** max(0, pow2):
        want = 0
    else:
        assume(abs(gap) > mpf(2) ** -260)
        want = 1 if gap > 0 else -1
    sign, x = signed_log2_ratio(num, den, 1, -pow2, -pow_e)
    assert sign == want
    assert (x == 0) if want == 0 else (math.copysign(1, x) == want)


_RATIONALS = st.builds(Fraction, st.integers(1, 2**64), st.integers(1, 2**64))


@st.composite
def _verdict_cases(draw):
    """(count, bound): a Cleared bound of either direction and a count
    anywhere, or, with k = 1, next to the bound's value or at it."""
    k = draw(st.integers(1, 6))
    rhs, cofactor = draw(_RATIONALS), draw(_RATIONALS)
    pow2 = Fraction(draw(st.integers(-400, 400)), draw(st.integers(1, 60)))
    pow_e = Fraction(draw(st.integers(-400, 400)), draw(st.integers(1, 60)))
    if draw(st.booleans()):
        pow_e = Fraction(0)
    direction = draw(st.sampled_from([UPPER, LOWER]))
    if draw(st.booleans()):
        return draw(st.integers(0, 2**64)), Cleared(k, rhs, cofactor, direction, pow2, pow_e)
    pow2 = Fraction(draw(st.integers(-60, 60)))
    with mpmath.workprec(1200):
        value = _mp_fraction(rhs / cofactor) * mpmath.power(2, _mp_fraction(pow2)) * mpmath.exp(_mp_fraction(pow_e))
        count = int(mpmath.nint(value)) + draw(st.integers(-2, 2))
    assume(count >= 0)
    if not pow_e and draw(st.booleans()):
        cofactor = rhs * 2**pow2 / max(count, 1)  # a tie
    return count, Cleared(1, rhs, cofactor, direction, pow2, pow_e)


@st.composite
def _rational_pairs(draw):
    """(lhs, rhs): nonnegative rationals, independent, equal, or apart by
    one part in up to 2^128."""
    lhs = Fraction(draw(st.integers(0, 2**64)), draw(st.integers(1, 2**64)))
    shape = draw(st.sampled_from(["any", "equal", "near"]))
    if shape == "any":
        return lhs, Fraction(draw(st.integers(0, 2**64)), draw(st.integers(1, 2**64)))
    if shape == "equal":
        return lhs, lhs
    return lhs, lhs * (1 + Fraction(draw(st.sampled_from([1, -1])), draw(st.integers(2, 2**128))))


def _mp_sign(gap):
    assume(abs(gap) > mpf(2) ** -500)
    return 1 if gap > 0 else -1


def _agrees(verdict, want):
    """Do the verdict's pass flag and the sign of its margin match the
    sign want of its margin's exact value?"""
    return verdict.passed == (want >= 0) and (
        verdict.margin == 0 if want == 0 else math.copysign(1, verdict.margin) == want
    )


@settings(max_examples=300, deadline=None)
@given(_verdict_cases(), _rational_pairs())
def test_verdicts_agree_with_a_600_bit_sign(case, pair):
    count, bound = case
    k, rhs, cofactor, direction, pow2, pow_e = bound
    # v = ln(rhs 2^pow2 e^pow_e / (count^k cofactor)), negated for a lower
    # bound; exact where it is rational.
    if count == 0:
        want = 1
    elif not pow_e and pow2.denominator == 1:
        top, powered = rhs * 2**pow2, count**k * cofactor
        want = (top > powered) - (top < powered)
    else:
        with mpmath.workprec(600):
            want = _mp_sign(
                mpmath.log(_mp_fraction(rhs))
                - mpmath.log(_mp_fraction(cofactor))
                - k * mpmath.log(count)
                + _mp_fraction(pow2) * mpmath.log(2)
                + _mp_fraction(pow_e)
            )
    if direction == LOWER:
        want = -want
    assert _agrees(bound_verdict("demo", "g", {}, count, bound), want)
    # v = ln(rhs / lhs) for exact_le and exact_eq.
    lhs, rhs = pair
    if lhs == rhs:
        want = 0
    elif not (lhs and rhs):
        want = 1 if rhs else -1
    else:
        with mpmath.workprec(600):
            want = _mp_sign(mpmath.log(_mp_fraction(rhs)) - mpmath.log(_mp_fraction(lhs)))
    assert _agrees(exact_le("demo", "g", {}, lhs, rhs), want)
    assert exact_eq("demo", "g", {}, lhs, rhs).passed == (want == 0)


def test_ln_bounds_bracket_ln_within_a_bounded_width():
    # The one bracket signed_log2_ratio tightens.  Its width
    # is 4m + 3 for m series terms, and m <= (bits / log2 3 + 1) / 2.  Next
    # to 1, where no term survives the rounding, the bracket is [0, 3] and
    # the 3 alone covers 2^bits ln(num / den), up to 1.
    for bits in (1, 2, 7, 32, 64, 200, 1000):
        ratios = [(1, 1), (2, 1), (3, 2), (4, 3), (2**bits + 1, 2**bits), (2**1000 + 1, 2**1000)]
        ratios += [(2 * 3**600 - 1, 3**600), (3**630 + 5**400, 3**630), (7**356 + 1, 7**356)]
        with mpmath.workprec(2 * bits + 1200):
            for num, den in ratios:
                lo, hi = _ln_bounds(num, den, bits)
                assert lo <= mpmath.log(mpf(num) / den) * 2**bits <= hi, (bits, num, den)
                assert hi - lo <= 4 * bits / 3 + 5, (bits, num, den)


def test_signed_log2_ratio_exact_branch_and_domain():
    assert _sign(2**5, 1, 5) == 0
    assert _sign(2**5 - 1, 1, 5) == -1
    assert _sign(1, 2**5, Fraction(-5)) == 0
    assert _sign(3, 1, Fraction(3, 2)) == 1  # 3 > 2^(3/2)
    assert _sign(2, 1, 0, 1) == -1  # 2 < e
    assert _sign(1, 1, 0, Fraction(1, 10**6)) == -1
    # An integer exponent far from log2(num / den) decides the sign without
    # a shift of 10^30 bits.
    assert _sign(1, 1, 10**30) == -1
    assert _sign(3, 1, Fraction(-(10**30))) == 1
    with pytest.raises(DomainError):
        _sign(0, 1, 0, 1)
    # log2(1 + 2^-1100) underflows below 2^-1074: the float is a signed 0,
    # and the sign stays exact.
    for num, den, want in ((2**1100 + 1, 2**1100, 1), (2**1100, 2**1100 + 1, -1)):
        sign, x = signed_log2_ratio(num, den, 1, 0, 0)
        assert sign == want and x == 0 and math.copysign(1, x) == want


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


def _admits(count, bound):
    """Does the exact count, an integer or an integral Fraction, meet the
    Cleared bound, decided exactly?"""
    assert count.denominator == 1
    return bound_verdict("demo", "g", {}, int(count), bound).passed


def test_matching_partition_upper_against_cycle(c8):
    bound = match_pf_upper(8, 2, Fraction(1))
    assert bound.direction == UPPER
    assert _near(bound.log_bound(), 4 * _lg(3))
    z = eval_partition(matching_polynomial(c8), Fraction(1))
    assert z == 47
    # power-cleared form of the same inequality, exactly: z^2 <= (1+d)^n
    assert z**2 <= 3**8
    assert _admits(z, bound)


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
    assert _near(match_count_upper(8, 2, 2).log_bound(), 6)
    assert _admits(20, match_count_upper(8, 2, 2))
    assert matching_polynomial(c8).coefficient(2) == 20
    assert match_count_upper(8, 2, 0).log_bound() == 0
    assert _near(match_count_upper(8, 2, 4).log_bound(), 4)
    with pytest.raises(DomainError):
        match_count_upper(8, 0, 2)


def test_union_matching_lower_explicit_value():
    b = union_matching_lower_explicit(8, 2, 2)
    assert b.direction == LOWER
    # d^s n^(n-s) / ((2s)^s (n-2s)^(n-2s)) = 2^2 8^6 / (4^2 4^4) = 2^8, times e^-2
    assert (b.rhs, b.pow_e) == (256, -2)
    want = 4 * (0.5 * 1 + 2 * 1 + 0.5 * (math.log2(0.5) - math.log2(math.e)))
    assert abs(float(b.log_bound()) - want) < 1e-12
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


def _stirling_lhs(d, a):
    return math.comb(d, a) ** 2 * math.factorial(a)


def test_stirling_check_holds_at_c_one_small_grid():
    # the acceptance suite sweeps d <= 64; this is the cheap sanity slice
    for d in range(1, 11):
        for a in range(d + 1):
            assert _admits(_stirling_lhs(d, a), stirling_term(d, a, 1))
    with pytest.raises(DomainError):
        stirling_term(4, 2, 0)
    with pytest.raises(DomainError):
        stirling_term(4, 5, 1)


def _stirling_row(d, a, c):
    """The stirling-terms-ok value that `bounds` prints for one K_{d,d} at
    matching size a, where the balanced profile is (a,)."""
    [row] = [r for r in _bounds_rows(2 * d, d, [a], [], [], [c]) if r["name"] == "stirling-terms-ok"]
    return row["value"]


@pytest.mark.parametrize("d, a", [(1, 1), (2, 1), (5, 3), (16, 8), (64, 30)])
def test_stirling_terms_ok_is_decided_exactly(d, a):
    # binom(d, a)^2 a! meets the term d^(2d-1) e^-a / (c a^a (d-a)^(2(d-a)))
    # from the constant c* = d^(2d-1) e^-a / (a^a (d-a)^(2(d-a)) binom(d, a)^2
    # a!) up, found at 800 bits: the row is false at the largest multiple of
    # 2^-210 below c* and true one multiple up, where the two values of
    # log2(c d) differ by under 2^-200, far below a float's resolution.
    with mpmath.workprec(800):
        rest = d - a
        top = mpf(d) ** (2 * d - 1) * mpmath.exp(-a)
        threshold = top / (mpf(a) ** a * mpf(rest) ** (2 * rest) * _stirling_lhs(d, a))
        below = int(mpmath.floor(threshold * 2**210))
        gap = threshold * 2**210 - below
        assert 0 < threshold < 1 and 2**-80 < gap < 1 - 2**-80
    assert _stirling_row(d, a, Fraction(below, 2**210)) == "false"
    assert _stirling_row(d, a, Fraction(below + 1, 2**210)) == "true"


def test_profile_lower_is_sum_of_terms_and_holds():
    from regcount import union_matching_polynomial

    prof = balanced_profile(8, 2, 2)
    b = profile_matching_lower(8, 2, prof, 1)
    assert b.direction == LOWER
    with mpmath.workprec(120):
        assert _near(b.log_bound(), sum(_stirling_closed(2, a, 1) for a in prof))
    exact = union_matching_polynomial(8, 2).coefficient(2)
    assert log2(Fraction(exact)) >= b.log_bound()
    assert _admits(exact, b)


def test_gurvits_bound(c8):
    bound = match_pf_gurvits(c8.edge_count, GraphProfile(c8).nu, Fraction(1))
    # nu = 4 and |E|/nu = 2, so the bound is 4 log2(3); cleared: z <= 3^4
    assert _near(bound.log_bound(), 4 * _lg(3))
    z = eval_partition(matching_polynomial(c8), Fraction(1))
    assert z <= 3**4
    assert _admits(z, bound)


def test_gurvits_bound_reads_nu_from_the_matching_polynomial():
    # the circulant C_40(1, 20), where a search over vertex sets blows up
    n = 40
    g = build_graph(n, {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in (1, 20)})
    start = time.perf_counter()
    b = match_pf_gurvits(g.edge_count, GraphProfile(g).nu, Fraction(1)).log_bound()
    assert time.perf_counter() - start < 1
    # nu = 20 and |E|/nu = 3, so the bound is 20 log2(4) = 40
    assert _near(b, 40)


def test_independent_partition_upper(c8, k33):
    from regcount import independence_polynomial

    z8 = eval_partition(independence_polynomial(c8), Fraction(1))
    assert z8 == 47
    gen = ind_pf_upper_general(8, 2, Fraction(1))
    assert _near(gen.log_bound(), 8)
    assert _admits(z8, gen)
    bip = ind_pf_upper_bipartite(8, 2, Fraction(1))
    assert _near(bip.log_bound(), 2 * _lg(7))
    assert z8**2 <= 7**4
    assert _admits(z8, bip)
    # K_{3,3} at lambda = 1: z = 1 + 6 + 6 + 2 = 15 and the bipartite form
    # is exactly log2(2 * 2^3 - 1) = log2 15, equality on the block
    z33 = eval_partition(independence_polynomial(k33), Fraction(1))
    assert z33 == 15
    bip33 = ind_pf_upper_bipartite(6, 3, Fraction(1)).log_bound()
    assert _near(bip33, _lg(15))


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
    # The size range is check_domain's, at any degree.
    with pytest.raises(DomainError) as want:
        check_domain(8, 1, 5)
    with pytest.raises(DomainError) as got:
        independent_upper_pm_exact(8, 5)
    assert str(got.value) == str(want.value)


def test_independent_count_upper_variants():
    assert 20 <= independent_upper_pm_exact(8, 2) == 24
    gen = ind_count_upper_general(8, 2, 2)
    assert _near(gen.log_bound(), 8)
    bip = ind_count_upper_bipartite(8, 2, 2)
    want = 4 * (1 + 0.5 - math.log2(math.e) / 4 * 0.25)
    assert abs(float(bip.log_bound()) - want) < 1e-12
    for b in (gen, bip):
        assert _admits(20, b)


def test_union_small_t_exact_is_a_true_count():
    from regcount import union_independence_polynomial

    assert union_small_t_exact(8, 2, 1) == 8
    assert union_small_t_exact(8, 2, 2) == 16
    assert union_small_t_exact(12, 3, 2) == 36
    # scattered sets are a subfamily, so the closed form never exceeds the count
    for n, d in ((8, 2), (12, 3), (12, 2)):
        union = union_independence_polynomial(n, d)
        for t in range(union_copies(n, d) + 1):
            assert union_small_t_exact(n, d, t) <= union.coefficient(t)
    # at t = 1 every size-1 set is scattered
    assert union_small_t_exact(12, 2, 1) == union_independence_polynomial(12, 2).coefficient(1)
    with pytest.raises(DomainError):
        union_small_t_exact(8, 2, 3)
    with pytest.raises(DivisibilityError):
        union_small_t_exact(10, 4, 1)


def test_union_independent_lower_variants():
    markov = union_ind_lower_markov(8, 2, 2, Fraction(2))
    assert markov.direction == LOWER
    # (1 - 1/2) binom(4, 2) 2^((8/4)(1 - 2 (1/2)^2)) = 3 * 2 = 6, exactly
    assert _near(markov.log_bound(), _lg(6))
    assert _admits(20, markov) and _admits(6, markov) and not _admits(5, markov)
    small = union_ind_lower_small_t(8, 2, 2)
    # the product form gives exactly 12, weaker than the exact scattered
    # count 16 because it rounds each conditional factor down
    assert small.direction == LOWER
    assert Fraction(small.rhs, small.cofactor) == 12
    assert bound_verdict("union-ind-lower-small-t-log", "union-8v-2r", {}, 12, small).passed
    assert not bound_verdict("union-ind-lower-small-t-log", "union-8v-2r", {}, 11, small).passed
    assert _near(small.log_bound(), _lg(12))
    assert union_small_t_exact(8, 2, 2) == 16
    with pytest.raises(DomainError):
        union_ind_lower_markov(8, 2, 2, Fraction(1))


@pytest.mark.parametrize("n, d", [(8, 2), (12, 2), (24, 3)])
def test_small_t_bounds_share_one_size_rule(n, d):
    # One past the copies, inside [0, n/2], both small-t definitions raise
    # the same message.
    t = union_copies(n, d) + 1
    messages = set()
    for definition in (union_small_t_exact, union_ind_lower_small_t):
        with pytest.raises(DomainError) as got:
            definition(n, d, t)
        messages.add(str(got.value))
    assert messages == {f"small-t bound needs t <= {t - 1}, got {t}"}


def oracle_missed_blocks(n, d, t):
    """At k, how many t-subsets of 0..n/2-1 miss exactly k of its d-blocks,
    by listing every subset."""
    half = n // 2
    blocks = [set(range(i * d, (i + 1) * d)) for i in range(half // d)]
    misses = [0] * (len(blocks) + 1)
    for chosen in combinations(range(half), t):
        chosen = set(chosen)
        misses[sum(1 for b in blocks if not (b & chosen))] += 1
    return misses


def oracle_mean_missed_blocks(n, d, t):
    misses = oracle_missed_blocks(n, d, t)
    return Fraction(sum(k * m for k, m in enumerate(misses)), sum(misses))


# Every (n, d) with n <= 12 and 2d | n: acceptance criterion 11's union shapes.
BLOCK_SHAPES = [(n, d) for n in range(2, 13, 2) for d in range(1, n // 2 + 1) if n % (2 * d) == 0]


@pytest.mark.parametrize("n, d", BLOCK_SHAPES)
def test_block_misses_closed_form_equals_the_subset_census(n, d):
    assert union_block_misses(n, d) == [oracle_missed_blocks(n, d, t) for t in range(n // 2 + 1)]


@pytest.mark.parametrize(
    "definition", [balanced_profile, union_small_t_exact, union_ind_lower_small_t, block_miss_stats]
)
def test_union_shapes_are_checked_by_union_copies(definition):
    with pytest.raises(DivisibilityError) as want:
        union_copies(10, 4)
    with pytest.raises(DivisibilityError) as got:
        definition(10, 4, 1)
    assert str(got.value) == str(want.value)


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


def _stirling_closed(d, a, c):
    """a log2 d + a log2(a/d) - a log2 e + 2 H(a/d) d - log2(c d), with
    0 log2 0 = 0."""
    x = mpf(a) / d
    head = a * mpmath.log(d, 2) + a * mpmath.log(x, 2) if a else 0
    return head - a / mpmath.log(2) + 2 * _entropy(x) * d - mpmath.log(c * d, 2)


def test_log2_forms_match_the_closed_formulas():
    # The log2 values derive from power-cleared inequalities; here each is
    # compared with its closed formula, evaluated with mpmath alone.
    with mpmath.workprec(120):
        for d in range(1, 9):
            terms = {}
            for c in (1, Fraction(7, 3)):
                cm = mpf(c.numerator) / c.denominator
                for a in range(d + 1):
                    terms[a, c] = _stirling_closed(d, a, cm)
                    got = stirling_term(d, a, c).log_bound()
                    assert _near(got, terms[a, c]), (d, a, c)
            for n in range(d + 1, 41):
                half = mpf(n) / 2
                for s in range(n // 2 + 1):
                    a = mpf(2 * s) / n
                    want = half * (a * mpmath.log(d, 2) + _entropy(a))
                    got = match_count_upper(n, d, s).log_bound()
                    assert _near(got, want), (n, d, s)
                    want = half * (_entropy(a) + mpf(2) / d)
                    got = ind_count_upper_general(n, d, s).log_bound()
                    assert _near(got, want), (n, d, s)
                    miss = (1 - a) ** d
                    want = half * (_entropy(a) + mpf(1) / d - miss / (2 * d * mpmath.log(2)))
                    got = ind_count_upper_bipartite(n, d, s).log_bound()
                    assert _near(got, want), (n, d, s)
                    for c in (2, Fraction(7, 3)):
                        cm = mpf(c.numerator) / c.denominator if isinstance(c, Fraction) else mpf(c)
                        head = mpmath.log((1 - 1 / cm) * mpmath.binomial(n // 2, s), 2)
                        want = head + half / d * (1 - cm * miss)
                        got = union_ind_lower_markov(n, d, s, c).log_bound()
                        assert _near(got, want), (n, d, s, c)
                    if 0 < 2 * s < n:
                        want = half * (a * mpmath.log(d, 2) + 2 * _entropy(a) + a * mpmath.log(a / mpmath.e, 2))
                        got = union_matching_lower_explicit(n, d, s).log_bound()
                        assert _near(got, want), (n, d, s)
                    if n % (2 * d) == 0:
                        profile = balanced_profile(n, d, s)
                        for c in (1, Fraction(7, 3)):
                            want = sum(terms[x, c] for x in profile)
                            got = profile_matching_lower(n, d, profile, c).log_bound()
                            assert _near(got, want), (n, d, s, c)
                for lam in DEFAULT_LAMBDA_GRID:
                    x = mpf(lam.numerator) / lam.denominator
                    want = half * mpmath.log(1 + d * x, 2)
                    got = match_pf_upper(n, d, lam).log_bound()
                    assert _near(got, want), (n, d, lam)
                    want = mpf(n) / d + half * mpmath.log(1 + x, 2)
                    got = ind_pf_upper_general(n, d, lam).log_bound()
                    assert _near(got, want), (n, d, lam)
                    edges, nu = n * d // 2, n // 2
                    want = nu * mpmath.log(1 + x * edges / nu, 2)
                    got = match_pf_gurvits(edges, nu, lam).log_bound()
                    assert _near(got, want), (n, d, lam)


def _power_bound(bound, k):
    """The exact bound on q^k of a Cleared upper bound on q with no e factor,
    for k a multiple of bound.k at which 2^pow2 turns integral."""
    m, rem = divmod(k, bound.k)
    pow2 = bound.pow2 * m
    assert rem == 0 and bound.pow_e == 0 and pow2.denominator == 1
    return Fraction(bound.rhs, bound.cofactor) ** m * 2 ** int(pow2)


def test_count_bounds_are_single_terms_at_the_best_weight():
    # Inside (0, n/2) each count bound is the single-term extraction at its
    # weight; at size 0 the weight is 0, and at n/2 the bound is the limit
    # of large weight.  The independent-set bounds are the d-th roots of
    # the extraction's power-2d form, so they are compared at q^(2d).
    for d in range(1, 9):
        for n in range(d + 1, 41):
            for s in range(n // 2 + 1):
                match, general = match_count_upper(n, d, s), ind_count_upper_general(n, d, s)
                bipartite = ind_count_upper_bipartite(n, d, s)
                assert match.k == general.k == bipartite.k == 2
                assert general.pow2 == 2 * bipartite.pow2 == Fraction(2 * n, d)
                assert match.cofactor == general.cofactor == bipartite.cofactor
                assert general.rhs == bipartite.rhs == n**n
                assert bipartite.pow_e * d == -Fraction(n, 2) * Fraction(n - 2 * s, n) ** d
                if 0 < 2 * s < n:
                    lam = optimal_lambda(n, d, s)
                    want = single_term(match_pf_upper(n, d, lam), s, lam)
                    assert _power_bound(match, 2) == _power_bound(want, 2)
                    lam = occupancy_lambda(n, s)
                    want = single_term(ind_pf_upper_general(n, d, lam), s, lam)
                    assert _power_bound(general, 2 * d) == _power_bound(want, 2 * d)
            assert _power_bound(match_count_upper(n, d, 0), 2) == 1
            assert _power_bound(ind_count_upper_general(n, d, 0), 2 * d) == 4**n
            if n % 2 == 0:
                assert _power_bound(match_count_upper(n, d, n // 2), 2) == d**n
                assert _power_bound(ind_count_upper_general(n, d, n // 2), 2 * d) == 4**n
