"""Acceptance suite: twelve criteria, one test each, at pinned tolerances.

The corpus is every d-regular isomorphism class on n <= 10 vertices (all d);
the conjecture sweeps additionally use (12, 2) and (12, 3).  Criteria with a
stated runtime budget assert wall-clock time.  Regression constants measured
on the first full run are pinned here with comments saying so.
"""

import json
import math
import time
from fractions import Fraction
from functools import partial

from regcount import (
    GenSpec,
    eval_partition,
    generate,
    independence_polynomial,
    match_count_upper,
    matching_polynomial,
    stirling_term,
    union_independence_polynomial,
    union_matching_polynomial,
)
from regcount.bounds import log2
from regcount.cli import main
from regcount.counting import INDEPENDENT_SET, MATCHING
from regcount.verify import (
    DEFAULT_C_GRID,
    DEFAULT_LAMBDA_GRID,
    DEFAULT_ROOT_TOL,
    ROOT_SUM_REL_TOL,
    GraphProfile,
    hardcore_identities,
    hom_graph_verdicts,
    hom_targets,
    bound_verdict,
    suite_graph_verdicts,
    suite_table,
    sweep,
    verify_real_rooted,
    verify_union_lower_bounds,
    vs_union_table,
)

from conftest import oracle_independent_counts, oracle_matching_counts

CONJECTURE_GRID = ((4, 2), (8, 2), (12, 2), (6, 3), (12, 3))

# (n, d) with 2d | n inside the n <= 10 corpus: the union reference exists
UNION_SHAPES = (
    (2, 1), (4, 1), (6, 1), (8, 1), (10, 1),
    (4, 2), (8, 2), (6, 3), (8, 4), (10, 5),
)

# criterion 11 wants every (N, d, t) with N <= 12 and 2d | N
BLOCK_SHAPES = UNION_SHAPES + ((12, 1), (12, 2), (12, 3), (12, 6))


def test_criterion_01_polynomials_equal_brute_force(small_corpus):
    start = time.perf_counter()
    checked = 0
    for n, d, idx, g in small_corpus:
        assert list(matching_polynomial(g)) == oracle_matching_counts(g)
        assert list(independence_polynomial(g)) == oracle_independent_counts(g)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 250
    assert elapsed < 120, f"criterion 1 runtime {elapsed:.1f}s exceeds 2 minutes"


def test_criterion_02_matching_counts_never_beat_union(corpus, c8):
    start = time.perf_counter()
    for n, d in CONJECTURE_GRID:
        check = partial(suite_graph_verdicts, table=vs_union_table(n, d, MATCHING))
        verdicts = sweep(enumerate(generate(GenSpec(n, d))), check)
        assert len(verdicts) == len(corpus[(n, d)]) * (n // 2 + 1)
        bad = [v for v in verdicts if not v.passed]
        assert not bad, bad[:3]
    elapsed = time.perf_counter() - start
    # spot: m_4(C8) = 2 against the union's 4
    assert matching_polynomial(c8)[4] == 2
    assert union_matching_polynomial(8, 2)[4] == 4
    assert elapsed < 600, f"criterion 2 runtime {elapsed:.1f}s exceeds 10 minutes"


def test_criterion_03_independent_counts_never_beat_union(corpus, c8):
    for n, d in CONJECTURE_GRID:
        check = partial(suite_graph_verdicts, table=vs_union_table(n, d, INDEPENDENT_SET))
        verdicts = sweep(enumerate(generate(GenSpec(n, d))), check)
        assert len(verdicts) == len(corpus[(n, d)]) * (n // 2 + 1)
        bad = [v for v in verdicts if not v.passed]
        assert not bad, bad[:3]
    # spot: i_4(C8) = 2 against the union's 4
    assert independence_polynomial(c8)[4] == 2
    assert union_independence_polynomial(8, 2)[4] == 4


def test_criterion_04_matching_partition_bound_exact(small_corpus, c4):
    for n, d, idx, g in small_corpus:
        if d < 1:
            continue
        poly = matching_polynomial(g)
        for lam in DEFAULT_LAMBDA_GRID:
            z = eval_partition(poly, lam)
            assert z * z <= (1 + d * lam) ** n, (n, d, idx, lam)
    # spot: Z_1(C4) = 7 against bound 9, strictly
    z = eval_partition(matching_polynomial(c4), Fraction(1))
    assert z == 7 and z < 9 and z * z <= 3**4


def test_criterion_05_matching_count_entropy_bound(small_corpus):
    for n, d, idx, g in small_corpus:
        poly = matching_polynomial(g)
        if d < 1:
            assert poly == (1,)
            continue
        # A size past the degree counts 0 and would be skipped: stop at the degree.
        for ell, count in enumerate(poly):
            if count == 0:
                continue
            bound = match_count_upper(n, d, ell)
            verdict = bound_verdict("match-count-upper", "", {}, count, bound)
            assert verdict.passed, (n, d, idx, ell)
    # spot: log2 20 <= 6.0 at (8, 2, 2)
    bound = match_count_upper(8, 2, 2).log_bound()
    assert abs(bound - 6) < 1e-30
    assert math.log2(20) < 6


def test_criterion_06_explicit_lower_gap_trend(capsys):
    # The gap of the lower estimate without its correction term: regression
    # values measured on the first full run and pinned; the band and the
    # per-parity shrinking of |gap| are the acceptance property
    pinned_ratio = {
        2: -0.557305,
        3: -0.566042,
        4: -0.472342,
        5: -0.508310,
        6: -0.463443,
        7: -0.490308,
        8: -0.461897,
    }
    # The gap is read from the bounds command's rows on one K_{d,d} block at
    # size d // 2: union-match-count-log2 less profile-match-lower at c = 2,
    # less that bound's per-copy correction log2(c d); over d (per block
    # column) and over log2 d.
    gaps = {}
    for d in range(2, 9):
        argv = ["bounds", "--n", str(2 * d), "--d", str(d), "--ell", str(d // 2)]
        argv += ["--t", "0", "--c", "2"]
        assert main(argv) == 0
        value = {r["name"]: r["value"] for r in json.loads(capsys.readouterr().out)["rows"]}
        count, lower = float(value["union-match-count-log2"]), float(value["profile-match-lower"])
        total = count - lower - log2(2 * d)
        gaps[d] = total / d
        ratio = total / log2(d)
        assert -0.60 <= ratio <= -0.40, (d, ratio)
        assert abs(ratio - pinned_ratio[d]) < 5e-4, (d, ratio)
    # |gap| decreases with d within each parity class (the discrete alpha
    # differs between parities, so the classes are not interleaved)
    for seq in ((2, 4, 6, 8), (3, 5, 7)):
        for a, b in zip(seq, seq[1:]):
            assert abs(gaps[b]) < abs(gaps[a]), (a, b, gaps)


def _total_count_verdicts(n, d):
    """The ind-total-vs-kdd-power rows of the suite on the bipartite
    d-regular graphs on n vertices."""
    census = enumerate(generate(GenSpec(n, d, bipartite_only=True)))
    verdicts = sweep(census, partial(suite_graph_verdicts, table=suite_table(n, d)))
    return [v for v in verdicts if v.check_id == "ind-total-vs-kdd-power"]


def test_criterion_07_bipartite_total_count():
    for n, d in UNION_SHAPES:
        verdicts = _total_count_verdicts(n, d)
        assert verdicts, (n, d)
        bad = [v for v in verdicts if not v.passed]
        assert not bad, bad[:3]
    # equality at the reference graph itself: total count of C4 is 7 = 2*2^2-1
    [only] = _total_count_verdicts(4, 2)
    assert only.lhs == only.rhs == 7 and only.margin == 0


def test_criterion_08_bound_suite_and_union_lowers(small_corpus):
    tables = {}
    for n, d, idx, g in small_corpus:
        if (n, d) not in tables:
            tables[n, d] = suite_table(n, d)
        verdicts = suite_graph_verdicts(GraphProfile(g, idx), tables[n, d])
        bad = [v for v in verdicts if not v.passed]
        assert not bad, (n, d, idx, bad[:3])
    for n, d in UNION_SHAPES:
        verdicts = verify_union_lower_bounds(suite_table(n, d), DEFAULT_C_GRID)
        bad = [v for v in verdicts if not v.passed]
        assert not bad, (n, d, bad[:3])
    # spots at (8, 2): scattered-set count equals i_1 exactly; the Markov
    # form gives log2 6 ~ 2.585 below log2 20
    verdicts = verify_union_lower_bounds(suite_table(8, 2), DEFAULT_C_GRID)
    [eq] = [
        v
        for v in verdicts
        if v.check_id == "union-ind-lower-small-t-exact" and v.params["size"] == 1
    ]
    assert eq.lhs == eq.rhs == 8 and eq.margin == 0
    [markov] = [
        v
        for v in verdicts
        if v.check_id == "union-ind-lower-markov"
        and v.params["size"] == 2
        and v.params["c"] == "2"
    ]
    assert abs(float(markov.lhs) - math.log2(6)) < 1e-10
    assert abs(float(markov.rhs) - math.log2(20)) < 1e-10


def test_criterion_09_real_rootedness(small_corpus):
    assert DEFAULT_ROOT_TOL == 1e-7
    assert ROOT_SUM_REL_TOL == 1e-6
    for n, d, idx, g in small_corpus:
        [v] = verify_real_rooted(GraphProfile(g), tol=1e-7)
        assert v.passed, (n, d, idx, v.params)


def test_criterion_10_hom_inequality_and_identity(small_corpus):
    menus = {}  # hom_targets(d), counted once per degree as a sweep does
    identities = hardcore_identities((1, 2))
    for n, d, idx, g in small_corpus:
        if n > 8:
            continue
        if d not in menus:
            menus[d] = hom_targets(d)
        verdicts = hom_graph_verdicts(
            GraphProfile(g, idx), menus[d], identities, random_orders=5, seed=0
        )
        bad = [v for v in verdicts if not v.passed]
        assert not bad, (n, d, idx, bad[:3])
        if d >= 1:
            targets = {v.params.get("target") for v in verdicts if "target" in v.params}
            assert targets == {"K2", "K3", "K1-loop", "hardcore-1-1", "hardcore-2-2"}
        else:
            # degenerate exponent: only the hard-core identity is informative
            weights = {
                (v.params["c"], v.params["lam"])
                for v in verdicts
                if v.check_id == "hardcore-hom-identity"
            }
            assert {(1, "1"), (2, "1")} <= weights


def test_criterion_11_block_statistics():
    wanted = {
        "union-block-identity",
        "union-block-mean-closed-form",
        "union-block-mean-markov",
    }
    for n, d in BLOCK_SHAPES:
        verdicts = verify_union_lower_bounds(suite_table(n, d), DEFAULT_C_GRID)
        bad = [v for v in verdicts if not v.passed]
        assert not bad, (n, d, bad[:3])
        assert wanted <= {v.check_id for v in verdicts}
        # one instance of each block check per size t
        per_id = {
            cid: sum(1 for v in verdicts if v.check_id == cid) for cid in wanted
        }
        assert all(count == n // 2 + 1 for count in per_id.values()), (n, d, per_id)


def test_criterion_12_stirling_constant_exists():
    # c = 1 was the smallest integer passing the sweep on the first full run;
    # pinned as the regression constant (larger c only loosens the bound)
    pinned_c = 1
    for d in range(1, 65):
        for a in range(d + 1):
            lhs = math.comb(d, a) ** 2 * math.factorial(a)
            assert bound_verdict("stirling-terms-ok", "", {}, lhs, stirling_term(d, a, pinned_c)).passed, (d, a)
