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
from itertools import combinations

from regcount import (
    GenSpec,
    eval_partition,
    independence_polynomial,
    match_count_upper,
    matching_polynomial,
    stirling_term,
)
from regcount.bounds import log2
from regcount.cli import main
from regcount.verify import (
    DEFAULT_C_GRID,
    DEFAULT_LAMBDA_GRID,
    DEFAULT_ROOT_TOL,
    ROOT_SUM_REL_TOL,
    GraphProfile,
    hom_graph_verdicts,
    kahn_graph_verdicts,
    bound_verdict,
    suite_graph_verdicts,
    sweep,
    total_count_graph_verdicts,
    umc_graph_verdicts,
    verify_hardcore_hom_identity,
    verify_real_rooted,
    verify_union_lower_bounds,
)

CONJECTURE_GRID = ((4, 2), (8, 2), (12, 2), (6, 3), (12, 3))

# (n, d) with 2d | n inside the n <= 10 corpus: the union reference exists
UNION_SHAPES = (
    (2, 1), (4, 1), (6, 1), (8, 1), (10, 1),
    (4, 2), (8, 2), (6, 3), (8, 4), (10, 5),
)

# criterion 11 wants every (N, d, t) with N <= 12 and 2d | N
BLOCK_SHAPES = UNION_SHAPES + ((12, 1), (12, 2), (12, 3), (12, 6))


def brute_matching_counts(g):
    edges = list(g.edges)
    counts = [0] * (g.vertex_count // 2 + 1)
    for k in range(len(counts)):
        for subset in combinations(edges, k):
            seen = set()
            for u, v in subset:
                if u in seen or v in seen:
                    break
                seen.add(u)
                seen.add(v)
            else:
                counts[k] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def brute_independent_counts(g):
    counts = [0] * (g.vertex_count + 1)
    for t in range(len(counts)):
        for subset in combinations(range(g.vertex_count), t):
            if all(not g.has_edge(u, v) for u, v in combinations(subset, 2)):
                counts[t] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def test_criterion_01_polynomials_equal_brute_force(small_corpus):
    start = time.perf_counter()
    checked = 0
    for n, d, idx, g in small_corpus:
        assert list(matching_polynomial(g).coefficients) == brute_matching_counts(g)
        assert list(independence_polynomial(g).coefficients) == brute_independent_counts(g)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 250
    assert elapsed < 120, f"criterion 1 runtime {elapsed:.1f}s exceeds 2 minutes"


def test_criterion_02_matching_counts_never_beat_union(corpus, c8):
    start = time.perf_counter()
    for n, d in CONJECTURE_GRID:
        verdicts = sweep(GenSpec(n, d), umc_graph_verdicts)
        assert len(verdicts) == len(corpus[(n, d)]) * (n // 2 + 1)
        bad = [v for v in verdicts if not v.passed]
        assert not bad, bad[:3]
    elapsed = time.perf_counter() - start
    # spot: m_4(C8) = 2 against the union's 4
    from regcount import union_matching_count, union_params

    assert matching_polynomial(c8).coefficient(4) == 2
    assert union_matching_count(union_params(8, 2), 4) == 4
    assert elapsed < 600, f"criterion 2 runtime {elapsed:.1f}s exceeds 10 minutes"


def test_criterion_03_independent_counts_never_beat_union(corpus, c8):
    for n, d in CONJECTURE_GRID:
        verdicts = sweep(GenSpec(n, d), kahn_graph_verdicts)
        assert len(verdicts) == len(corpus[(n, d)]) * (n // 2 + 1)
        bad = [v for v in verdicts if not v.passed]
        assert not bad, bad[:3]
    # spot: i_4(C8) = 2 against the union's 4
    from regcount import union_independent_count, union_params

    assert independence_polynomial(c8).coefficient(4) == 2
    assert union_independent_count(union_params(8, 2), 4) == 4


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
            assert poly.coefficients == (1,)
            continue
        for ell in range(n // 2 + 1):
            count = poly.coefficient(ell)
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
    # regression values measured on the first full run and pinned; the band
    # and the per-parity shrinking of |gap| are the acceptance property
    pinned_ratio = {
        2: -0.557305,
        3: -0.566042,
        4: -0.472342,
        5: -0.508310,
        6: -0.463443,
        7: -0.490308,
        8: -0.461897,
    }
    # The gap is the bounds command's explicit-gap-log2 row on one K_{d,d}
    # block at size d // 2, over d (per block column) and over log2 d.
    gaps = {}
    for d in range(2, 9):
        argv = ["bounds", "--n", str(2 * d), "--d", str(d), "--ell", str(d // 2), "--t", "0"]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        [total] = [float(r["value"]) for r in rows if r["name"] == "explicit-gap-log2"]
        gaps[d] = total / d
        ratio = total / log2(d)
        assert -0.60 <= ratio <= -0.40, (d, ratio)
        assert abs(ratio - pinned_ratio[d]) < 5e-4, (d, ratio)
    # |gap| decreases with d within each parity class (the discrete alpha
    # differs between parities, so the classes are not interleaved)
    for seq in ((2, 4, 6, 8), (3, 5, 7)):
        for a, b in zip(seq, seq[1:]):
            assert abs(gaps[b]) < abs(gaps[a]), (a, b, gaps)


def test_criterion_07_bipartite_total_count():
    for n, d in UNION_SHAPES:
        verdicts = sweep(GenSpec(n, d, bipartite_only=True), total_count_graph_verdicts)
        assert verdicts, (n, d)
        bad = [v for v in verdicts if not v.passed]
        assert not bad, bad[:3]
    # equality at the reference graph itself: total count of C4 is 7 = 2*2^2-1
    [only] = sweep(GenSpec(4, 2, bipartite_only=True), total_count_graph_verdicts)
    assert only.lhs == only.rhs == 7 and only.margin == 0


def test_criterion_08_bound_suite_and_union_lowers(small_corpus):
    for n, d, idx, g in small_corpus:
        verdicts = suite_graph_verdicts(GraphProfile(g, idx))
        bad = [v for v in verdicts if not v.passed]
        assert not bad, (n, d, idx, bad[:3])
    for n, d in UNION_SHAPES:
        verdicts = verify_union_lower_bounds(n, d, DEFAULT_C_GRID)
        bad = [v for v in verdicts if not v.passed]
        assert not bad, (n, d, bad[:3])
    # spots at (8, 2): scattered-set count equals i_1 exactly; the Markov
    # form gives log2 6 ~ 2.585 below log2 20
    verdicts = verify_union_lower_bounds(8, 2, DEFAULT_C_GRID)
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
        v = verify_real_rooted(GraphProfile(g), tol=1e-7)
        assert v.passed, (n, d, idx, v.params)


def test_criterion_10_hom_inequality_and_identity(small_corpus):
    for n, d, idx, g in small_corpus:
        if n > 8:
            continue
        if d >= 1:
            verdicts = hom_graph_verdicts(
                GraphProfile(g, idx), random_orders=5, seed=0, c_grid=(1, 2)
            )
            bad = [v for v in verdicts if not v.passed]
            assert not bad, (n, d, idx, bad[:3])
            targets = {v.params.get("target") for v in verdicts if "target" in v.params}
            assert targets == {"K2", "K3", "K1-loop", "hardcore-1-1", "hardcore-2-2"}
        else:
            # degenerate exponent: only the hard-core identity is informative
            assert verify_hardcore_hom_identity(GraphProfile(g), 1, Fraction(1)).passed
            assert verify_hardcore_hom_identity(GraphProfile(g), 2, Fraction(1)).passed


def test_criterion_11_block_statistics():
    wanted = {
        "union-block-identity",
        "union-block-mean-closed-form",
        "union-block-mean-markov",
    }
    for n, d in BLOCK_SHAPES:
        verdicts = verify_union_lower_bounds(n, d, DEFAULT_C_GRID)
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
