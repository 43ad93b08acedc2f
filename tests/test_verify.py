"""Verdict plumbing and the conjecture/bound verifiers on small graphs.

Every asserted number is recomputed inside the test from the oracle-tested
polynomials or from first principles.
"""

import hashlib
import json
import math
import random
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import combinations

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mpf

from regcount import (
    DivisibilityError,
    DomainError,
    GenSpec,
    GraphError,
    build_graph,
    build_hardcore_target,
    build_kdd,
    canonical_form,
    count_homomorphisms,
    generate,
    graph_from_text,
    independence_polynomial,
    matching_polynomial,
)
from regcount.bounds import (
    LOWER,
    UPPER,
    Cleared,
    log2,
    log2_ratio,
    profile_matching_lower,
    union_ind_lower_markov,
)
from regcount.counting import INDEPENDENT_SET, MATCHING
from regcount.kdd import kdd_matching_count, union_independence_polynomial
from regcount.verify import (
    DEFAULT_LAMBDA_GRID,
    GraphProfile,
    Verdict,
    _params,
    back_degrees,
    bound_verdict,
    exact_eq,
    exact_le,
    format_number,
    hardcore_identities,
    hom_graph_verdicts,
    hom_targets,
    sort_verdicts,
    suite_graph_verdicts,
    suite_table,
    sweep,
    verify_real_rooted,
    verify_union_lower_bounds,
    vs_union_table,
)

from conftest import build_kdd_union, common_root, disjoint_union, poly_product

SMALL_GRID = (Fraction(1, 2), Fraction(1), Fraction(2))


def _umc(n, d):
    return partial(suite_graph_verdicts, table=vs_union_table(n, d, MATCHING))


def _kahn(n, d):
    return partial(suite_graph_verdicts, table=vs_union_table(n, d, INDEPENDENT_SET))


def _suite(p, lambda_grid=DEFAULT_LAMBDA_GRID):
    """suite_graph_verdicts on p, with the table of p's graph."""
    g = p.graph
    return suite_graph_verdicts(p, suite_table(g.vertex_count, p.degree, lambda_grid))


def test_format_number():
    assert format_number(True) == "true"
    assert format_number(False) == "false"
    assert format_number(17) == "17"
    assert format_number(Fraction(3, 4)) == "3/4"
    assert format_number(Decimal("Infinity")) == "inf"
    assert format_number(Decimal("-Infinity")) == "-inf"
    assert format_number(Decimal(1) / 3) == "0.333333333333"
    assert format_number(Decimal(2)) == "2"
    assert format_number(1 / 3) == "0.333333333333"
    assert format_number(2.0) == "2"
    assert format_number(-1.5e-50) == "-1.5e-50"
    assert format_number(float("inf")) == "inf"
    assert format_number(float("-inf")) == "-inf"


def _log2_exact(a, b, k=1, pow2=0, pow_e=0):
    """log2(a / b * 2^pow2 * e^pow_e) / k at 800 bits, rounded to the
    nearest float."""
    with mpmath.workprec(800):
        pow2, pow_e = (mpf(x.numerator) / x.denominator for x in (Fraction(pow2), Fraction(pow_e)))
        return float((mpmath.log(mpf(a) / mpf(b), 2) + pow2 + pow_e / mpmath.ln2) / k)


def _log2_oracle(a, b, k=1, pow2=0, pow_e=0) -> str:
    """log2(a / b * 2^pow2 * e^pow_e) / k at 800 bits, at the 12 digits of
    format_number."""
    return f"{_log2_exact(a, b, k, pow2, pow_e):.12g}"


def _ratio_at(value, k, pow2, pow_e, bits):
    """Integers a and b with log2(a / b * 2^pow2 * e^pow_e) / k within
    about 2^-bits of the decimal string value, b a power of 2."""
    with mpmath.workprec(800):
        pow2, pow_e = (mpf(x.numerator) / x.denominator for x in (Fraction(pow2), Fraction(pow_e)))
        ratio = mpmath.power(2, k * mpf(value) - pow2) * mpmath.exp(-pow_e)
        b = 2 ** max(0, bits - int(mpmath.floor(mpmath.log(ratio, 2))))
        return int(mpmath.nint(ratio * b)), b


@pytest.mark.parametrize(
    "lhs, rhs, want",
    [
        (10**50, 10**50 + 1, "1.44269504089e-50"),
        (3**200, 3**200 + 3**150, "2.00961009172e-24"),
    ],
)
def test_near_tie_margins(lhs, rhs, want):
    # The difference of two 40-digit logs of numbers this large keeps none of
    # the margin's digits; the margin comes from the exact ratio instead.
    v = exact_le("demo", "g", {}, lhs, rhs)
    assert v.passed
    assert format_number(v.margin) == want == _log2_oracle(rhs, lhs)
    flipped = exact_le("demo", "g", {}, rhs, lhs)
    assert not flipped.passed
    assert format_number(flipped.margin) == "-" + want


@pytest.mark.parametrize("m", [1, 2, 30, 52, 53, 54, 64, 200, 500])
def test_margin_of_a_ratio_just_under_2_to_1(m):
    # a / b = 2^m / (2^m - 1) lies just above 1, where the bit lengths of a
    # and b differ by one: a shift of 1 would cancel against a log near -1.
    a, b = 2**m, 2**m - 1
    assert format_number(exact_le("demo", "g", {}, b, a).margin) == _log2_oracle(a, b)
    assert format_number(exact_le("demo", "g", {}, a, b).margin) == _log2_oracle(b, a)
    # And the ratios just under 2 and just over 1/2.
    assert format_number(log2_ratio(2 * b, a)) == _log2_oracle(2 * b, a)
    assert format_number(log2_ratio(a, 2 * b)) == _log2_oracle(a, 2 * b)


@st.composite
def _ratios(draw):
    """Positive integer ratios, many near 1 or near a power of 2."""
    a = draw(st.integers(1, 2**400))
    shape = draw(st.sampled_from(["any", "near-1", "near-power-of-2"]))
    if shape == "any":
        b = draw(st.integers(1, 2**400))
    else:
        scale = 1 if shape == "near-1" else 2 ** draw(st.integers(1, 300))
        b = a * scale + draw(st.integers(-(2**40), 2**40))
    assume(b >= 1)
    return (b, a) if draw(st.booleans()) else (a, b)


_EXPONENTS = st.one_of(
    st.just(Fraction(0)),
    st.integers(-300, 300).map(Fraction),
    st.builds(Fraction, st.integers(-400, 400), st.integers(1, 60)),
)


@st.composite
def _log2_cases(draw):
    """(a, b, k, pow2, pow_e): a ratio from _ratios times 2^pow2 * e^pow_e,
    with integer or rational exponents or none, or a ratio that puts the
    value within about 2^-bits of a midpoint between two 12-digit values."""
    k = draw(st.integers(1, 16))
    pow2, pow_e = draw(_EXPONENTS), draw(_EXPONENTS)
    if draw(st.booleans()):
        return (*draw(_ratios()), k, pow2, pow_e)
    digits = draw(st.integers(10**11, 10**12 - 1))
    sign = draw(st.sampled_from(["", "-"]))
    value = f"{sign}{digits}5e{draw(st.integers(-42, -10))}"
    a, b = _ratio_at(value, k, pow2, pow_e, draw(st.integers(60, 300)))
    assume(a >= 1)
    return a, b, k, pow2, pow_e


@settings(max_examples=600, deadline=None)
@given(_log2_cases())
def test_log2_ratio_agrees_with_an_800_bit_oracle(case):
    a, b, k, pow2, pow_e = case
    x = log2_ratio(a, b, k, pow2, pow_e)
    assert isinstance(x, float)
    assert format_number(x) == _log2_oracle(a, b, k, pow2, pow_e)
    if pow2 == pow_e == 0 and a != b:
        with mpmath.workprec(800):
            exact = mpmath.log(mpf(a) / mpf(b), 2) / k
            assert abs(x - exact) <= 8 * math.ulp(x)


def test_log2_ratio_falls_back_next_to_a_rounding_boundary():
    # The value within about 2^-200 of the target, halfway between two
    # 12-digit values: no float error bound can settle the digit, so the
    # value comes from the brackets on ln, as the float nearest the exact
    # value.  Near 1, as at the second target, a / b cancels about 100 bits;
    # at the third, log2(a / b) cancels against the irrational factor.
    cases = [
        ("1.000000000005", 0, 0),
        ("1.000000000005e-30", 0, 0),
        ("2.000000000005e-20", Fraction(7, 3), Fraction(-5, 2)),
    ]
    for target, pow2, pow_e in cases:
        a, b = _ratio_at(target, 1, pow2, pow_e, 200)
        x = log2_ratio(a, b, 1, pow2, pow_e)
        assert x == _log2_exact(a, b, 1, pow2, pow_e), target
        assert format_number(x) == _log2_oracle(a, b, 1, pow2, pow_e), target
    with pytest.raises(DomainError):
        log2_ratio(0, 1)


def test_log2_ratio_beyond_float_range_is_infinite():
    # A Markov constant of 400 digits puts 2^pow2 far past any float; the
    # nearest float to its log2 is -inf, as the bounds row prints it.
    assert log2_ratio(3, 1, 2, Fraction(-(10**400), 7)) == -math.inf
    assert log2_ratio(3, 1, 2, Fraction(10**400, 7), Fraction(1, 2)) == math.inf


def test_beyond_float_range_the_sign_is_the_values_not_the_exponents():
    # 10^400 (1 - 0.7 log2 e) < 0, though pow2 + pow_e > 0.
    assert log2_ratio(1, 1, 1, Fraction(10**400), Fraction(-7 * 10**399)) == -math.inf
    verdict = bound_verdict("demo", "g", {}, 1, Cleared(1, Fraction(1), pow2=10**400, pow_e=-7 * 10**399))
    assert not verdict.passed and verdict.margin == verdict.rhs == -math.inf


def test_beyond_float_range_the_brackets_quotient_is_infinite():
    # float(pow_e) / ln 2 overflows to inf, and so does the bracket's
    # int / int quotient, which raises rather than round.
    assert log2_ratio(1, 1, 1, 0, Fraction(15 * 10**307)) == math.inf
    verdict = bound_verdict("demo", "g", {}, 1, Cleared(1, Fraction(1), pow_e=Fraction(15 * 10**307)))
    assert verdict.passed and verdict.margin == verdict.rhs == math.inf


def test_log2_ratio_of_a_large_integer_power_of_2():
    # An integer exponent is added as a float, not shifted into a or b.
    assert log2_ratio(1, 1, 1, -(10**30)) == -1e30
    assert format_number(log2_ratio(3, 1, 2, 10**30)) == "5e+29"


def test_verdict_serialization(c4):
    v = exact_le("demo", "g", {"n": 4}, 3, 5)
    d = v.to_json_dict()
    assert d["pass"] is True
    assert d["lhs"] == "3" and d["rhs"] == "5"
    assert list(d) == ["check_id", "graph_label", "params", "lhs", "rhs", "pass", "margin"]


def test_exact_verdicts_and_margins():
    v = exact_le("demo", "g", {}, 5, 40)
    assert v.passed and abs(v.margin - 3) < 1e-12
    assert exact_le("demo", "g", {}, 0, 0).margin == 0
    assert exact_le("demo", "g", {}, 0, 7).margin == math.inf
    # A constructor keeps the params it is given, failed or not: sweep alone
    # appends a failed row's graph_text (test_sweep_attaches_graph_text_to_failed_rows).
    bad = exact_le("demo", "g", {"n": 4}, 7, 0)
    assert not bad.passed and bad.margin == -math.inf
    assert bad.params == {"n": 4}
    ok = exact_le("demo", "g", {"n": 4}, 7, 9)
    assert ok.passed and ok.params == {"n": 4}
    eq = exact_eq("demo", "g", {}, Fraction(1, 3), Fraction(1, 3))
    assert eq.passed and eq.margin == 0
    for lhs, rhs in ((Fraction(1, 3), Fraction(2, 3)), (2, 1)):
        ne = exact_eq("demo", "g", {}, lhs, rhs)
        assert not ne.passed and ne.margin == (1 if lhs < rhs else -1)


def test_bound_verdict_directions():
    up = bound_verdict("demo", "g", {}, 8, Cleared(1, Fraction(16)))
    assert up.passed and up.margin == 1
    assert up.lhs == 3 and up.rhs == 4  # log2(count) on the left for upper bounds
    lo = bound_verdict("demo", "g", {}, 8, Cleared(1, Fraction(4), direction=LOWER))
    assert lo.passed and lo.margin == 1 and lo.lhs == 2 and lo.rhs == 3
    zero_up = bound_verdict("demo", "g", {}, 0, Cleared(1, Fraction(16)))
    assert zero_up.passed and zero_up.margin == math.inf
    zero_lo = bound_verdict("demo", "g", {}, 0, Cleared(1, Fraction(1), direction=LOWER))
    assert not zero_lo.passed and zero_lo.margin == -math.inf
    assert zero_lo.params == {}
    with pytest.raises(DomainError):
        bound_verdict("demo", "g", {}, -1, Cleared(1, Fraction(16)))
    # A cleared lower bound, count >= 24 / 2, is decided on integers, with
    # the bound's side first.
    twelve = Cleared(1, Fraction(24), Fraction(2), direction=LOWER)
    meets = bound_verdict("demo", "g", {}, 12, twelve)
    assert meets.passed and format_number(meets.margin) == "0"
    above = bound_verdict("demo", "g", {}, 48, twelve)
    assert above.passed and format_number(above.margin) == "2"
    assert format_number(above.lhs) == "3.58496250072"
    assert format_number(above.rhs) == "5.58496250072"
    below = bound_verdict("demo", "g", {}, 11, twelve)
    assert not below.passed and below.params == {}
    assert format_number(below.margin) == _log2_oracle(11, 12)
    zero = bound_verdict("demo", "g", {}, 0, twelve)
    assert not zero.passed and zero.margin == -math.inf
    # count <= e = 2.718..., and count >= 2^(3/2) = 2.828..., are decided
    # exactly, and so are the 12 printed digits of their log2 values and
    # margins.
    e = Cleared(1, Fraction(1), pow_e=Fraction(1))
    assert bound_verdict("demo", "g", {}, 2, e).passed
    assert not bound_verdict("demo", "g", {}, 3, e).passed
    with mpmath.workprec(800):
        want = f"{float(mpmath.log(mpmath.e / 2, 2)):.12g}"
    assert format_number(bound_verdict("demo", "g", {}, 2, e).margin) == want
    root8 = Cleared(1, Fraction(1), direction=LOWER, pow2=Fraction(3, 2))
    assert bound_verdict("demo", "g", {}, 3, root8).passed
    below = bound_verdict("demo", "g", {}, 2, root8)
    assert not below.passed and format_number(below.margin) == "-0.5"
    assert format_number(below.lhs) == "1.5"


_nonnegative = st.builds(Fraction, st.integers(0, 10**6), st.integers(1, 10**6))
_positive = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))


@settings(max_examples=400, deadline=None)
@given(_nonnegative, _nonnegative)
def test_exact_verdicts_decide_like_fractions(x, y):
    assert exact_le("demo", "g", {}, x, y).passed == (x <= y)
    assert exact_eq("demo", "g", {}, x, y).passed == (x == y)
    assert exact_eq("demo", "g", {}, x, x).passed


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 10**4),
    st.integers(1, 3),
    _positive,
    _positive,
    st.sampled_from([UPPER, LOWER]),
    st.integers(-40, 40),
)
def test_bound_verdicts_decide_like_fractions(q, k, r, cof, direction, pow2):
    bound = Cleared(k, r, cof, direction, pow2=pow2)
    lhs, rhs = q**k * cof, r * Fraction(2) ** pow2
    want = lhs <= rhs if direction == UPPER else lhs >= rhs
    assert bound_verdict("demo", "g", {}, q, bound).passed == want


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10**6), _positive)
def test_bound_verdict_and_exact_le_share_one_margin(q, r):
    assert bound_verdict("demo", "g", {}, q, Cleared(1, r)).margin == exact_le("demo", "g", {}, q, r).margin


def _report_rows(verdicts):
    return [v.to_json_dict() for v in sort_verdicts(verdicts)]


def test_sort_orders_params_by_their_json_text():
    # The params key is the JSON text with sorted keys, where "10}" sorts
    # before "1}" and "2}"; every report and pinned digest has this order.
    # Sorting by the values would put 1 and 2 first.
    verdicts = [exact_le("demo", "g", _params(n=24, d=3, size=s), 1, 2) for s in (2, 10, 1, 11)]
    assert [v.params["size"] for v in sort_verdicts(verdicts)] == [10, 11, 1, 2]


def test_sort_orders_census_indices_as_numbers():
    # Past index 9999 a census name has five digits; as text, 14v-4r-10000
    # would come before 14v-4r-2000.  Union rows follow every census row,
    # and other labels keep their text order.
    labels = ["union-14v-4r", "14v-4r-10000", "14v-14e", "14v-4r-2000", "12:ff", "14v-4r-0001"]
    verdicts = [exact_le("demo", label, {}, 1, 2) for label in labels]
    assert [v.graph_label for v in sort_verdicts(verdicts)] == [
        "12:ff",
        "14v-14e",
        "14v-4r-0001",
        "14v-4r-2000",
        "14v-4r-10000",
        "union-14v-4r",
    ]


def test_sorting_and_jsonl_are_canonical(c8):
    verdicts = _umc(8, 2)(GraphProfile(c8, 0)) + _kahn(8, 2)(GraphProfile(c8, 0))
    rows = _report_rows(verdicts)
    shuffled = verdicts[:]
    random.Random(5).shuffle(shuffled)
    assert _report_rows(shuffled) == rows
    assert len(rows) == len(verdicts)
    assert all(row["pass"] is True for row in rows)
    assert [v.check_id for v in sort_verdicts(shuffled)] == sorted(
        v.check_id for v in verdicts
    )


def test_graph_label_forms(c4):
    assert GraphProfile(c4, 3).label == "4v-2r-0003"
    assert GraphProfile(c4).label == GraphProfile(c4).canonical_label == canonical_form(c4)
    big = build_graph(14, [(i, (i + 1) % 14) for i in range(14)])
    assert GraphProfile(big).canonical_label == "14v-14e"
    # Past CANONICAL_FORM_LIMIT a census graph keeps its census name.
    assert GraphProfile(big, 7).canonical_label == GraphProfile(big, 7).label == "14v-2r-0007"


def test_back_degrees(c4):
    # Listed in the order placed: around the cycle, then opposite corners first.
    assert back_degrees(c4, [0, 1, 2, 3]) == [0, 1, 1, 2]
    assert back_degrees(c4, [3, 2, 1, 0]) == [0, 1, 1, 2]
    assert back_degrees(c4, [0, 2, 1, 3]) == [0, 0, 2, 2]
    for bad in ([0, 1, 2, 2], [0, 1, 2], [0, 1, 2, 3, 4], [1, 2, 3, 4]):
        with pytest.raises(DomainError):
            back_degrees(c4, bad)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_back_degrees_count_earlier_neighbours(data):
    n = data.draw(st.integers(0, 10))
    pairs = list(combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = build_graph(n, sorted(edges))
    perm = data.draw(st.permutations(range(n)))
    position = {v: i for i, v in enumerate(perm)}
    earlier = tuple(
        sum(1 for u in range(n) if g.has_edge(u, v) and position[u] < position[v])
        for v in range(n)
    )
    back = back_degrees(g, perm)
    assert back == [earlier[v] for v in perm]
    assert sum(back) == g.edge_count


def test_umc_and_kahn_sweeps(c8):
    umc = sweep(enumerate(generate(GenSpec(8, 2))), _umc(8, 2))
    kahn = sweep(enumerate(generate(GenSpec(8, 2))), _kahn(8, 2))
    # 3 isomorphism classes, sizes 0..4
    assert len(umc) == len(kahn) == 15
    assert all(v.passed for v in umc + kahn)
    assert {v.check_id for v in umc} == {"match-count-vs-union"}
    assert {v.check_id for v in kahn} == {"ind-count-vs-union"}
    # the reference graph itself is in the census, so equality occurs
    assert any(v.margin == 0 and v.params["size"] == 2 for v in umc)
    # spot value on the cycle: m_2(C8) = 20 against the union's 20
    spot = [v for v in _umc(8, 2)(GraphProfile(c8, 0)) if v.params["size"] == 2]
    assert spot[0].lhs == 20 and spot[0].rhs == 20


# A table row made to fail on every (8, 2) census graph: (the table, the
# row's check id and the quantity it reads, a bound below that quantity).
_FAILING_ROWS = {
    "suite-exact": (partial(suite_table, 8, 2, (1,)), "match-pf-upper", ("Z_M", 1), 1),
    "suite-log2": (partial(suite_table, 8, 2, (1,)), "match-count-upper", ("m", 1), 1),
    "vs-union": (partial(vs_union_table, 8, 2, MATCHING), "match-count-vs-union", ("m", 2), 19),
}


def _failing_check(kind, monkeypatch):
    """A check on the (8, 2) census with one kind of row made to fail, and
    that row's check id."""
    import regcount.verify as verify_mod

    if kind == "hom-order-product":
        # hom(G, K2)^2 <= 1 fails on a bipartite G: hom(G, K2) = 2^components.
        targets = [(name, h, (1, 1, 1) if name == "K2" else f) for name, h, f in hom_targets(2)]
        return partial(hom_graph_verdicts, targets=targets, identities=hardcore_identities((1,))), kind
    if kind == "match-poly-real-rooted":
        # C8's matching polynomial stands for x^2 + 1, whose roots are +-i.
        real = verify_mod.squarefree

        def squarefree(poly):
            return [((1, 0, 1), 1)] if poly == (1, 8, 20, 16, 2) else real(poly)

        monkeypatch.setattr(verify_mod, "squarefree", squarefree)
        return verify_real_rooted, kind
    build, check_id, reads, value = _FAILING_ROWS[kind]
    table, bound = build(), Cleared(1, Fraction(value))
    rows = [
        row._replace(bound=bound) if (row.check_id, row.reads) == (check_id, reads) else row
        for row in table.rows
    ]
    assert rows != table.rows
    return partial(suite_graph_verdicts, table=table._replace(rows=rows)), check_id


@pytest.mark.parametrize(
    "kind", [*_FAILING_ROWS, "hom-order-product", "match-poly-real-rooted"]
)
def test_sweep_attaches_graph_text_to_failed_rows(monkeypatch, kind):
    check, check_id = _failing_check(kind, monkeypatch)
    outcomes = set()
    for index, g in enumerate(generate(GenSpec(8, 2))):
        swept = sweep([(index, g)], check)
        unswept = check(GraphProfile(g, index))
        assert len(swept) == len(unswept)
        for v, plain in zip(swept, unswept):
            outcomes.add(v.passed)
            assert "graph_text" not in plain.params
            if v.passed:
                assert v == plain
                continue
            # The row's own params, then the swept graph's text, last.
            assert v.check_id == check_id
            assert v == plain._replace(params={**plain.params, "graph_text": v.params["graph_text"]})
            assert list(v.params)[-1] == "graph_text"
            assert graph_from_text(v.params["graph_text"]) == g
            # A failed row is reported as any other: its pass flag is a bool.
            assert json.loads(json.dumps(v.to_json_dict()))["pass"] is False
    assert outcomes == {True, False}


def test_vs_union_tables_refuse_a_graph_of_another_shape(c8):
    # C8 is 2-regular on 8 vertices; a union of another (n, d) is no
    # reference for it, nor for a graph that is not regular.
    path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    for check in (_umc, _kahn):
        for n, d in ((12, 2), (8, 4), (4, 2)):
            with pytest.raises(DomainError, match=f"{d}-regular graph on {n} vertices"):
                check(n, d)(GraphProfile(c8, 0))
        with pytest.raises(DomainError):
            check(4, 2)(GraphProfile(path))


def test_bipartite_total_count():
    census = enumerate(generate(GenSpec(8, 2, bipartite_only=True)))
    check = partial(suite_graph_verdicts, table=suite_table(8, 2))
    verdicts = [v for v in sweep(census, check) if v.check_id == "ind-total-vs-kdd-power"]
    # bipartite 2-regular graphs on 8 vertices: C8 and C4 + C4
    assert len(verdicts) == 2
    assert all(v.passed for v in verdicts)
    assert {v.lhs for v in verdicts} == {47, 49}
    assert {v.rhs for v in verdicts} == {49}
    assert any(v.margin == 0 for v in verdicts)


@pytest.mark.parametrize("n,d,rows", [(12, 3, 178), (16, 4, 214), (24, 3, 286)])
def test_union_meets_its_exact_ties(n, d, rows):
    # The K_{d,d} union passes the whole suite, and meets exactly 19 bounds
    # with equality: Kahn's bound at every weight of the default grid,
    # Bregman's, its own count at size n/2 and its own total, and three rows
    # that every graph they apply to meets at sizes 0 and 1.
    p = GraphProfile(build_kdd_union(n, d))
    verdicts = suite_graph_verdicts(p, suite_table(n, d))
    assert len(verdicts) == rows
    assert all(v.passed for v in verdicts)
    ties = sorted((v.check_id, v.params.get("size")) for v in verdicts if v.margin == 0)
    assert ties == sorted(
        [("ind-pf-upper-bipartite", None)] * len(DEFAULT_LAMBDA_GRID)
        + [
            ("bregman-pm", None),
            ("ind-count-upper-bipartite", n // 2),
            ("ind-total-vs-kdd-power", None),
            ("match-count-upper", 0),
            ("ind-count-vs-pm-bound", 0),
            ("ind-count-vs-pm-bound", 1),
        ]
    )
    # The DP's polynomials equal the closed forms, coefficient by coefficient.
    for check in (_umc, _kahn):
        verdicts = check(n, d)(p)
        assert len(verdicts) == n // 2 + 1
        assert all(v.passed and v.margin == 0 for v in verdicts)


def test_real_rooted(c4, c8, petersen):
    for g in (c8, petersen):
        [v] = verify_real_rooted(GraphProfile(g))
        assert v.passed
        assert v.check_id == "match-poly-real-rooted"
        assert v.margin > 0
    # edgeless: a constant polynomial has no roots, so it passes at margin tol
    for n in (0, 3):
        [empty] = verify_real_rooted(GraphProfile(build_graph(n, [])))
        assert empty.to_json_dict() == {
            "check_id": "match-poly-real-rooted",
            "graph_label": canonical_form(build_graph(n, [])),
            "params": {"n": n, "d": 0, "tol": "1e-07", "root_sum_rel_err": "0"},
            "lhs": "0",
            "rhs": "1e-07",
            "pass": True,
            "margin": "1e-07",
        }
    # high-multiplicity roots from repeated components must stay clean:
    # naive companion eigenvalues of (1+x)^5 carry ~eps^(1/5) imaginary dirt
    k2 = build_graph(2, [(0, 1)])
    five_k2 = k2
    for _ in range(4):
        five_k2 = disjoint_union(five_k2, k2)
    [v] = verify_real_rooted(GraphProfile(five_k2), tol=1e-7)
    assert v.passed
    triple_c4 = disjoint_union(disjoint_union(c4, c4), c4)
    [v] = verify_real_rooted(GraphProfile(triple_c4), tol=1e-7)
    assert v.passed
    with pytest.raises(DomainError):
        verify_real_rooted(GraphProfile(c8), tol=0)


def _monic(factors):
    """poly.squarefree's primitive factors made monic over the rationals."""
    return [([Fraction(c, f[-1]) for c in f], m) for f, m in factors]


def test_squarefree_decomposition():
    from regcount.poly import squarefree

    # (1+x)^5
    assert _monic(squarefree((1, 5, 10, 10, 5, 1))) == [
        ([Fraction(1), Fraction(1)], 5)
    ]
    # (1+4x+2x^2)^2 normalizes monic
    assert _monic(squarefree((1, 8, 20, 16, 4))) == [
        ([Fraction(1, 2), Fraction(2), Fraction(1)], 2)
    ]
    # squarefree input comes back whole at multiplicity 1
    [(f, m)] = squarefree((2, 5, 3))
    assert m == 1 and len(f) == 3
    # mixed multiplicities: (1+x)(1+2x)^2
    mixed = squarefree((1, 5, 8, 4))
    assert sorted((len(f) - 1, m) for f, m in mixed) == [(1, 1), (1, 2)]


def test_squarefree_decomposition_checks_its_invariants(monkeypatch):
    """The invariants are explicit raises, so they hold under python -O.
    A gcd that is right once, for gcd(p, p'), and then says 1, splits off
    too little of (1+x)^5, so the factor degrees fall short of 5."""
    from regcount import poly

    true_gcd, calls = poly.gcd, []

    def right_once(a, b):
        calls.append(a)
        return true_gcd(a, b) if len(calls) == 1 else (1,)

    monkeypatch.setattr(poly, "gcd", right_once)
    with pytest.raises(ArithmeticError, match="degrees"):
        poly.squarefree((1, 5, 10, 10, 5, 1))


def _squarefree_cases():
    for n in (8, 10, 12):
        for g in generate(GenSpec(n, 3)):
            yield matching_polynomial(g)
    k4, k33 = build_graph(4, list(combinations(range(4), 2))), build_kdd(3)
    for parts in ([k4] * 4, [k33] * 3, [k4, k4, k33, k33, k33], [k4, k4, k4, k33, k33]):
        g = parts[0]
        for part in parts[1:]:
            g = disjoint_union(g, part)
        yield matching_polynomial(g)


def test_squarefree_factors_rebuild_p_from_monic_squarefree_coprime_parts():
    """Checked without gcds: the parts' product by convolution, and shared
    roots by Sylvester matrices."""
    from regcount.poly import squarefree

    for coeffs in _squarefree_cases():
        factors = _monic(squarefree(coeffs))
        rebuilt = [1]
        for f, k in factors:
            assert len(f) > 1 and f[-1] == 1, (coeffs, f)
            assert not common_root(f, [i * c for i, c in enumerate(f)][1:]), (coeffs, f)
            for _ in range(k):
                rebuilt = poly_product(rebuilt, f)
        assert rebuilt == [Fraction(c, coeffs[-1]) for c in coeffs]
        for (f, _), (g, _) in combinations(factors, 2):
            assert not common_root(f, g), (coeffs, f, g)


def test_common_root_finds_shared_and_repeated_roots():
    assert common_root([1, 2, 1], [2, 2])  # (1 + x)^2 and its derivative
    assert common_root([2, 3, 1], [3, 4, 1])  # (1 + x)(2 + x) and (1 + x)(3 + x)
    assert not common_root([2, 3, 1], [12, 7, 1])  # (1 + x)(2 + x) and (3 + x)(4 + x)
    assert not common_root([1, 1], [1])


def _factors(h, d):
    """hom(K_{b,b}, h) for b in 0..d, counted here one by one."""
    return [1] + [count_homomorphisms(build_kdd(b), h) for b in range(1, d + 1)]


def _two_orders(g, target):
    """The hom-order-product rows of g against the one target (name, H,
    factors), at the identity and the reversed order."""
    return hom_graph_verdicts(GraphProfile(g), [target], [], random_orders=0)


def test_hom_inequality_examples(c4, k33):
    k2 = build_graph(2, [(0, 1)])
    [v, _] = _two_orders(c4, ("K2", k2, [1, 2, 2]))
    # hom(C4, K2)^2 = 4 against 1 * 2 * 2 * 2 from back degrees (0,1,1,2)
    assert v.lhs == 4 and v.rhs == 8 and v.passed
    assert v.params["order"] == "0,1,2,3" and v.params["target"] == "K2"
    # class order on a complete bipartite block gives equality
    block = build_kdd(2)
    [vb, _] = _two_orders(block, ("K2", k2, _factors(k2, 2)))
    assert vb.lhs == vb.rhs == count_homomorphisms(block, k2) ** 2
    # the all-permissive looped vertex gives 1 on both sides
    loop = build_graph(1, [(0, 0)], allow_loops=True)
    [vl, _] = _two_orders(k33, ("K1-loop", loop, _factors(loop, 3)))
    assert vl.params["order"] == "0,1,2,3,4,5"
    assert vl.lhs == 1 and vl.rhs == 1 and vl.passed
    # a graph that is not regular, or not of the table's degree
    path = build_graph(3, [(0, 1)])
    with pytest.raises(DomainError):
        _two_orders(path, ("K2", k2, _factors(k2, 1)))
    with pytest.raises(DomainError):
        _two_orders(c4, ("K2", k2, _factors(k2, 3)))
    # an order that is not a permutation
    with pytest.raises(DomainError):
        back_degrees(c4, [0, 1, 2, 2])
    # a looped source is refused by the homomorphism count itself
    looped = build_graph(1, [(0, 0)], allow_loops=True)
    with pytest.raises(GraphError, match="count_homomorphisms requires a loop-free source graph"):
        _two_orders(looped, ("K2", k2, _factors(k2, 1)))


def _identity_rows(g, c_grid):
    """The hard-core identity's rows on g at c_grid, by (c, printed lam)."""
    verdicts = hom_graph_verdicts(GraphProfile(g), [], hardcore_identities(c_grid))
    return {(v.params["c"], v.params["lam"]): v for v in verdicts}


def test_hardcore_hom_identity(c4, k33):
    rows = _identity_rows(c4, [1, 2])
    assert list(rows) == [(1, "0"), (1, "1"), (2, "0"), (2, "1/2"), (2, "1")]
    v = rows[1, "1"]
    assert v.passed
    assert v.lhs == sum(independence_polynomial(c4)) == 7
    v2 = rows[2, "1/2"]
    # a = 1, c = 2: sum_t i_t 2^(4-t) = 16 + 4*8 + 2*4 = 56
    assert v2.passed and v2.lhs == 56
    rows = _identity_rows(k33, [2, 3])
    assert rows[2, "1"].passed and rows[3, "0"].passed
    assert all(v.passed for v in rows.values())
    with pytest.raises(DomainError):
        hardcore_identities([0])


def test_hardcore_identities_come_in_check_order():
    identities = hardcore_identities([3, 1, 3])
    assert [(c, lam) for c, lam, _ in identities] == [
        (1, 0), (1, 1), (3, 0), (3, Fraction(1, 3)), (3, 1)
    ]
    assert all(h == build_hardcore_target(c, int(c * lam)) for c, lam, h in identities)


def test_perfect_matching_bound(c8):
    def pm_rows(g):
        return [v for v in _suite(GraphProfile(g)) if v.check_id == "ind-count-vs-pm-bound"]

    verdicts = pm_rows(c8)
    assert len(verdicts) == 5
    assert all(v.passed for v in verdicts)
    at2 = [v for v in verdicts if v.params["size"] == 2][0]
    assert at2.lhs == 20 and at2.rhs == 24
    # two triangles have no perfect matching, so no such row
    triangles = build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert pm_rows(triangles) == []


def test_bounds_suite_inventory_and_passes(c8, k33, prism, petersen):
    bip_only = {"ind-pf-upper-bipartite", "ind-count-upper-bipartite", "bregman-pm"}
    for g, bip in ((c8, True), (k33, True), (prism, False), (petersen, False)):
        verdicts = _suite(GraphProfile(g), SMALL_GRID)
        assert all(v.passed for v in verdicts), [v for v in verdicts if not v.passed]
        ids = {v.check_id for v in verdicts}
        core = {
            "match-pf-upper",
            "match-pf-gurvits",
            "ind-pf-upper-general",
            "match-single-term",
            "match-single-term-opt",
            "match-count-upper",
            "ind-count-upper-general",
        }
        assert core <= ids
        assert (bip_only <= ids) == bip
        assert bool(bip_only & ids) == bip
    with pytest.raises(DomainError):
        suite_graph_verdicts(GraphProfile(build_graph(3, [(0, 1)])), suite_table(3, 1, SMALL_GRID))
    with pytest.raises(DomainError):
        suite_graph_verdicts(GraphProfile(c8), suite_table(8, 3, SMALL_GRID))
    with pytest.raises(DomainError):
        suite_table(8, 2, (Fraction(0), Fraction(1)))


@pytest.mark.parametrize(
    "n, d, sizes",
    [
        (8, 2, [0]),
        (8, 2, [4, 0, 2]),
        (12, 3, [6]),
        (12, 3, [3, 1, 3]),
        (24, 3, [12, 0, 5]),
        (40, 4, [20, 7, 0, 13]),
        (40, 4, []),
    ],
)
def test_sized_table_is_the_full_table_filtered(n, d, sizes):
    # A row that reads a coefficient is kept when its size is given, in the
    # full table's order; a row that reads a partition function always is.
    grid = (Fraction(5), Fraction(1, 3), Fraction(1))
    full = suite_table(n, d, grid)
    sized = suite_table(n, d, grid, sizes)
    kept = [row for row in full.rows if row.reads[0] in ("Z_M", "Z_I") or row.reads[1] in sizes]
    assert sized.rows == kept
    assert sized.union == full.union == union_independence_polynomial(n, d)
    assert ("bregman-pm" in {row.check_id for row in sized.rows}) == (n // 2 in sizes)


def _integer_root(x, k):
    """The largest integer r with r^k <= x."""
    r = int(round(float(x) ** (1 / k)))
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


@pytest.mark.parametrize(
    "check_id, size, excess",
    [
        ("match-count-upper", 12, 1),
        ("ind-count-upper-general", 12, 1),
        ("match-count-upper", 0, 0),
    ],
)
def test_count_bounds_are_decided_exactly(check_id, size, excess):
    # A 4-regular graph on 64 vertices whose size-12 count is one more than
    # the largest count the bound admits.  The bound exceeds 2^42, so that
    # count lies within the 2^-40 log2 slack.  At size 0 the bound is 1,
    # which the count meets with equality.
    n, d = 64, 4
    spread = (2 * size) ** (2 * size) * (n - 2 * size) ** (n - 2 * size)
    if check_id == "match-count-upper":
        k, rhs, cofactor = 2, d ** (2 * size) * n**n, spread
    else:
        k, rhs, cofactor = 2 * d, 2 ** (2 * n) * n ** (n * d), spread**d
    count = _integer_root(rhs // cofactor, k) + excess
    assert (count**k * cofactor <= rhs) == (excess == 0)
    with mpmath.workprec(120):
        log_bound = (mpmath.log(rhs) - mpmath.log(cofactor)) / (k * mpmath.log(2))
        assert mpmath.log(count, 2) <= log_bound + mpf(2) ** -40
    g = build_graph(n, sorted({tuple(sorted((i, (i + o) % n))) for i in range(n) for o in (1, 2)}))
    profile = GraphProfile(g)
    coefficients = (1,) * size + (count, 1)
    profile.matching_polynomial = coefficients
    profile.independence_polynomial = coefficients
    [v] = [
        v
        for v in _suite(profile, (Fraction(1),))
        if v.check_id == check_id and v.params["size"] == size
    ]
    # The profile's counts are injected, so the failed row's graph_text,
    # which sweep appends, is asserted in test_sweep_attaches_graph_text_to_failed_rows.
    if excess:
        assert not v.passed
    else:
        assert v.passed and format_number(v.margin) == "0"


def _entropy_bits(a):
    return -a * mpmath.log(a, 2) - (1 - a) * mpmath.log(1 - a, 2)


def test_bipartite_count_bound_is_decided_exactly():
    # Kahn's bound on the size-18 count of a bipartite 4-regular graph on 72
    # vertices, about 2^44.6, from its closed formula at 256 bits: the
    # largest count it admits passes and one more fails.  Above 2^42 the
    # larger count lies within a 2^-40 log2 slack.
    n, d, size = 72, 4, 18
    with mpmath.workprec(256):
        a = mpf(2 * size) / n
        log_bound = n / 2 * (_entropy_bits(a) + mpf(1) / d - (1 - a) ** d / (2 * d * mpmath.log(2)))
        bound = mpmath.power(2, log_bound)
        largest = int(mpmath.floor(bound))
        assert bound > 2**42 and 2**-100 < bound - largest < 1 - 2**-100
    g = build_graph(n, sorted({tuple(sorted((i, (i + o) % n))) for i in range(n) for o in (1, 3)}))
    for count, admitted in ((largest, True), (largest + 1, False)):
        profile = GraphProfile(g)
        assert profile.bipartite
        coefficients = (1,) * size + (count, 1)
        profile.matching_polynomial = coefficients
        profile.independence_polynomial = coefficients
        [v] = [
            v
            for v in _suite(profile, (Fraction(1),))
            if v.check_id == "ind-count-upper-bipartite" and v.params["size"] == size
        ]
        assert v.passed == admitted


@pytest.mark.parametrize("c", [Fraction(2), Fraction(7, 3)])
def test_markov_lower_bound_is_decided_exactly(c):
    # The Markov-style lower bound on the size-24 count of the K_{4,4} union
    # on 96 vertices, (1 - 1/c) binom(48, 24) 2^(12 (1 - c / 16)), about
    # 2^54 with a non-integer exponent, at 256 bits: the smallest count it
    # admits passes and one less fails, which a 2^-40 log2 slack would admit.
    n, d, t = 96, 4, 24
    with mpmath.workprec(256):
        cm = mpf(c.numerator) / c.denominator
        exponent = mpf(n) / (2 * d) * (1 - cm * (1 - mpf(2 * t) / n) ** d)
        bound = (1 - 1 / cm) * mpmath.binomial(n // 2, t) * mpmath.power(2, exponent)
        smallest = int(mpmath.ceil(bound))
        assert bound > 2**42 and 2**-100 < smallest - bound < 1 - 2**-100
    markov = union_ind_lower_markov(n, d, t, c)
    assert bound_verdict("union-ind-lower-markov", "u", {}, smallest, markov).passed
    assert not bound_verdict("union-ind-lower-markov", "u", {}, smallest - 1, markov).passed


def test_suite_graph_verdicts_adds_conditional_checks(c8, prism):
    ids8 = {v.check_id for v in _suite(GraphProfile(c8, 0), SMALL_GRID)}
    assert "ind-count-vs-pm-bound" in ids8  # C8 has a perfect matching
    assert "ind-total-vs-kdd-power" in ids8  # bipartite with 2d | n
    ids_prism = {v.check_id for v in _suite(GraphProfile(prism, 0), SMALL_GRID)}
    assert "ind-count-vs-pm-bound" in ids_prism
    assert "ind-total-vs-kdd-power" not in ids_prism  # not bipartite


def test_suite_verdicts_share_no_params_dict(k33):
    # K_{3,3} is bipartite with a perfect matching, so every family runs.
    verdicts = _suite(GraphProfile(k33, 0))
    assert {"bregman-pm", "ind-total-vs-kdd-power"} <= {v.check_id for v in verdicts}
    assert len({id(v.params) for v in verdicts}) == len(verdicts)


def _count_calls(monkeypatch, *names, module="regcount.verify"):
    """Wrap the module's global names with call counters."""
    import importlib

    verify_module = importlib.import_module(module)
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(verify_module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(verify_module, name, counted)
    return calls


def test_suite_counts_each_polynomial_once(monkeypatch, prism):
    table = suite_table(6, 3)
    calls = _count_calls(monkeypatch, "matching_polynomial", "independence_polynomial")
    ids = {v.check_id for v in suite_graph_verdicts(GraphProfile(prism, 0), table)}
    assert "ind-count-vs-pm-bound" in ids  # reads the independence polynomial again
    assert calls == {"matching_polynomial": 1, "independence_polynomial": 1}


def test_hom_checks_label_and_count_once(monkeypatch, prism):
    targets = hom_targets(3)
    calls = _count_calls(monkeypatch, "independence_polynomial")
    labels = _count_calls(monkeypatch, "canonical_form", module="regcount.generate")
    verdicts = hom_graph_verdicts(GraphProfile(prism, 0), targets, hardcore_identities())
    assert len(verdicts) == 5 * 7 + 6
    assert {v.graph_label for v in verdicts} == {canonical_form(prism)}
    assert calls == {"independence_polynomial": 1} and labels == {"canonical_form": 1}


def test_hom_checks_count_each_homomorphism_once(monkeypatch):
    # hom_targets counts hom(K_{b,b}, h) for b in 1..d, once per sweep, and
    # hardcore_identities counts nothing; each graph then counts hom(g, h)
    # once per distinct target, for all seven orders and six hard-core
    # identities: hardcore-2-2 is the identity's target at c = 2, lam = 1.
    calls = _count_calls(monkeypatch, "count_homomorphisms")
    for d in (0, 1, 3, 4):
        calls["count_homomorphisms"] = 0
        targets = hom_targets(d)
        assert calls["count_homomorphisms"] == 5 * d
    identities = hardcore_identities()
    assert calls["count_homomorphisms"] == 5 * 4
    targets = hom_targets(3)
    for index, g in enumerate(generate(GenSpec(8, 3))):
        calls["count_homomorphisms"] = 0
        hom_graph_verdicts(GraphProfile(g, index), targets, identities)
        assert calls["count_homomorphisms"] == 5 + 6 - 1


def test_hom_checks_read_each_order_once(monkeypatch):
    # Seven orders at the default --orders, each read once for all five
    # targets; the identities' targets and clique sizes come built.
    targets, identities = hom_targets(3), hardcore_identities()
    calls = _count_calls(monkeypatch, "back_degrees")

    def no_build(*args):
        raise AssertionError("built for a graph")

    monkeypatch.setattr("regcount.verify.build_hardcore_target", no_build)
    monkeypatch.setattr("regcount.verify.clique_size", no_build)
    for index, g in enumerate(generate(GenSpec(8, 3))):
        calls["back_degrees"] = 0
        verdicts = hom_graph_verdicts(GraphProfile(g, index), targets, identities)
        assert len(verdicts) == 5 * 7 + 6
        assert calls["back_degrees"] == 7


def test_profile_computes_only_what_a_check_reads(c8):
    umc = GraphProfile(c8, 0)
    _umc(8, 2)(umc)
    assert "independence_polynomial" not in vars(umc)
    roots = GraphProfile(c8)
    verify_real_rooted(roots)
    computed = set(vars(roots)) - {"graph", "index"}
    assert computed == {"degree", "canonical_label", "matching_polynomial"}


def test_union_lower_bounds():
    verdicts = verify_union_lower_bounds(suite_table(8, 2))
    assert all(v.passed for v in verdicts), [v for v in verdicts if not v.passed]
    ids = {v.check_id for v in verdicts}
    assert ids == {
        "union-ind-lower-markov",
        "union-ind-lower-small-t-log",
        "union-ind-lower-small-t-exact",
        "union-block-identity",
        "union-block-mean-closed-form",
        "union-block-mean-markov",
    }
    markov2 = [
        v
        for v in verdicts
        if v.check_id == "union-ind-lower-markov"
        and v.params["size"] == 2
        and v.params["c"] == "2"
    ][0]
    assert abs(float(markov2.lhs) - math.log2(6)) < 1e-10
    assert abs(float(markov2.rhs) - math.log2(20)) < 1e-10
    exact1 = [
        v
        for v in verdicts
        if v.check_id == "union-ind-lower-small-t-exact" and v.params["size"] == 1
    ][0]
    assert exact1.lhs == exact1.rhs == 8 and exact1.margin == 0
    # At sizes 0 and 1 the small-size bound is the count itself, and the
    # integer verdict prints the tie as a zero margin, not as rounding noise.
    ties = [
        v.to_json_dict()
        for n, d in ((8, 2), (16, 4), (24, 4), (24, 3))
        for v in verify_union_lower_bounds(suite_table(n, d))
        if v.check_id == "union-ind-lower-small-t-log" and v.params["size"] <= 1
    ]
    assert len(ties) == 8
    assert all(r["pass"] and r["margin"] == "0" and r["lhs"] == r["rhs"] for r in ties)
    with pytest.raises(DomainError):
        verify_union_lower_bounds(suite_table(8, 2), c_grid=(Fraction(1),))
    table = suite_table(8, 3)
    assert table.union is None
    with pytest.raises(DivisibilityError):
        verify_union_lower_bounds(table)


def test_union_lower_bounds_are_decided_at_the_table_sizes_alone():
    # bounds builds its table at its own sizes; verify-suite's holds every size.
    full = verify_union_lower_bounds(suite_table(24, 3))
    sized = verify_union_lower_bounds(suite_table(24, 3, sizes=[3, 0]))
    assert sized == [v for v in full if v.params["size"] in (0, 3)]
    assert {v.params["size"] for v in full} == set(range(13))
    assert vs_union_table(24, 3, MATCHING).sizes == range(13)


def test_union_lower_bounds_at_64_8_need_no_subset_census():
    # A side of the union holds 32 vertices: the rows are closed forms, not
    # a census of its 2^32 subsets.
    verdicts = verify_union_lower_bounds(suite_table(64, 8))
    assert len(verdicts) == 175
    assert all(v.passed for v in verdicts), [v for v in verdicts if not v.passed]


def test_union_lower_bound_rows_are_pinned():
    # No golden report holds these rows: verify-suite adds them only when
    # 2d | n, and the golden verify-suite census is (8,3).
    shapes = [(4, 2), (8, 2), (12, 2), (12, 3), (16, 4), (18, 3), (20, 5), (24, 4), (24, 3)]
    rows = [
        v.to_json_dict() for n, d in shapes for v in verify_union_lower_bounds(suite_table(n, d))
    ]
    assert len(rows) == 452
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "7b2caedb2dca0077d2b5d046874eecce2b02a40200a76370929424c7bc0458e9"
    )


def test_hom_clique_sizes_are_checked_before_any_count(monkeypatch, c4):
    def no_count(*args):
        raise AssertionError("a homomorphism was counted")

    monkeypatch.setattr("regcount.verify.count_homomorphisms", no_count)
    # the first bad size as given is named, not the smallest
    for c_grid, bad in (([Fraction(3, 2)], "3/2"), ([2, Fraction(5, 2), 0], "5/2")):
        with pytest.raises(DomainError) as err:
            hardcore_identities(c_grid)
        assert str(err.value) == f"clique sizes must be positive integers, got {bad}"


def test_hom_graph_verdicts_reproducible(c4):
    targets, identities = hom_targets(2), hardcore_identities()
    a = hom_graph_verdicts(GraphProfile(c4, 0), targets, identities)
    b = hom_graph_verdicts(GraphProfile(c4, 0), targets, identities)
    assert _report_rows(a) == _report_rows(b)
    assert all(v.passed for v in a)
    # 5 targets x (identity + reversed + 5 shuffles) + 2 clique sizes x 3 weights
    assert len(a) == 5 * 7 + 6
    other = hom_graph_verdicts(GraphProfile(c4, 0), targets, identities, seed=1)
    assert {v.check_id for v in other} == {v.check_id for v in a}


def test_hom_sweep_passes_on_the_10_3_census():
    check = partial(hom_graph_verdicts, targets=hom_targets(3), identities=hardcore_identities())
    verdicts = sweep(enumerate(generate(GenSpec(10, 3))), check)
    assert len(verdicts) == 21 * (5 * 7 + 6)
    assert all(v.passed for v in verdicts), [v for v in verdicts if not v.passed]


def test_hom_targets_fixed_menu():
    targets = hom_targets(4)
    assert [name for name, _, _ in targets] == [
        "K2", "K3", "K1-loop", "hardcore-1-1", "hardcore-2-2"
    ]
    for _, h, factors in targets:
        assert h.vertex_count >= 1
        assert list(factors) == _factors(h, 4)
    # K2: the two 2-colourings of the connected K_{b,b}; K1-loop: one map.
    assert list(targets[0][2]) == [1, 2, 2, 2, 2]
    assert list(targets[2][2]) == [1, 1, 1, 1, 1]
    assert [f for _, _, (f,) in hom_targets(0)] == [1] * 5


def test_matching_lower_gap_measured_values():
    # On one K_{d,d} block at size d // 2 the profile lower bound holds; its
    # margin less its per-copy correction log2(c d) is the gap of the
    # uncorrected estimate: log2 of the exact count less that estimate.
    pinned = {2: -0.5574, 3: -0.5659, 4: -0.4726, 5: -0.5086}
    for d, want in pinned.items():
        for c in (2, 4):
            bound = profile_matching_lower(2 * d, d, (d // 2,), c)
            v = bound_verdict("", "", {}, kdd_matching_count(d, d // 2), bound)
            assert v.passed and v.margin > 0
            gap = v.margin - log2(c * d)
            assert gap < 0
            assert abs(gap / log2(d) - want) < 5e-4


def test_default_lambda_grid_shape():
    assert len(DEFAULT_LAMBDA_GRID) == 13
    assert DEFAULT_LAMBDA_GRID[0] == Fraction(1, 64)
    assert DEFAULT_LAMBDA_GRID[-1] == 64
