"""Closed-form bounds on matching and independent-set counts.

Each bound is defined once, by a function named after its check id, as a
power-cleared inequality q^k * cofactor <= rhs * 2^pow2 * e^pow_e, or >= for
a lower bound, with rhs and cofactor positive rationals and pow2 and pow_e
rationals (`Cleared`); the factor 2^pow2 * e^pow_e carries the log2 e of
Kahn's bound for bipartite graphs and of the Stirling-style lower bounds on
the K_{d,d} union, and the rational power of 2 of its Markov-style lower
bound.  One evaluation, `signed_log2_ratio`, gives the exact sign of every
comparison, which decides its verdict, and the float every report prints
for it; `Cleared.log_bound()`, the bound on log2 q, and every other log2
value come from it through `log2_ratio`.  Its high precision comes from one
routine, `_ln_bounds`, which brackets a logarithm between integers at a
chosen number of bits.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction

from .errors import DomainError
from .kdd import union_copies

_LN2 = math.log(2)

UPPER = "upper"
LOWER = "lower"


def check_domain(n: int, d: int, size: int = 0, lam=0) -> None:
    """Reject inputs outside the domain the bounds are stated on: n >= 1,
    d >= 1, 0 <= size <= n/2 and lambda >= 0."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if d < 1:
        raise DomainError(f"need d >= 1, got {d}")
    if not 0 <= 2 * size <= n:
        raise DomainError(f"size must lie in [0, n/2] = [0, {n / 2}], got {size}")
    if lam < 0:
        raise DomainError(f"lambda must be nonnegative, got {lam}")


def _ln_bounds(num: int, den: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits ln(num / den) <= hi for integers with
    1 <= num / den <= 2, summing ln x = 2 sum over j >= 0 of
    z^(2j+1) / (2j+1), z = (num - den) / (num + den) <= 1/3, in units of
    2^-bits with floors.

    p_0 = floor(2^bits z) is short by e_0 < 1, and w = floor(p_0^2 / 2^bits)
    of 2^bits z^2 by under 2z + 1 <= 5/3, so p_(j+1) = floor(p_j w / 2^bits)
    is short of 2^bits z^(2j+3) by e_(j+1) < e_j / 9 + (1/3)(5/3) + 1: every
    e_j < 7/4, and each quotient by 2j + 1 by under 2.  The sum stops at the
    first p_m = 0, where 2^bits z^(2m+1) < 7/4 (1 at m = 0), so the tail,
    under that over (2m + 1)(1 - z^2), is below 9/8.  Twice the shortfalls
    stay below 4m + 9/4, so hi = lo + 4m + 3.
    """
    z = ((num - den) << bits) // (num + den)
    w = z * z >> bits
    total, power, j = 0, z, 1
    while power:
        total += power // j
        power = power * w >> bits
        j += 2
    # j = 2m + 1 once the sum stops.
    return 2 * total, 2 * total + 2 * j + 1


def _ln_interval(num: int, den: int, pow2, pow_e, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits (ln(num / den) + pow2 ln 2 + pow_e) <= hi for
    positive integers num and den and rationals pow2 and pow_e, from
    num / den = 2^s u with 1 <= u < 2 and the brackets of ln u and ln 2."""
    s = num.bit_length() - den.bit_length()
    if s > 0:
        den <<= s
    elif s < 0:
        num <<= -s
    if num < den:
        num, s = num << 1, s - 1
    lo, hi = _ln_bounds(num, den, bits)
    lo2, hi2 = _ln_bounds(2, 1, bits)
    c, shifted = s + pow2, pow_e * (1 << bits)
    if c < 0:
        lo2, hi2 = hi2, lo2
    return lo + math.floor(c * lo2 + shifted), hi + math.ceil(c * hi2 + shifted)


def log2(x) -> float:
    """log2 of a positive int or Fraction, as log2_ratio gives it."""
    return log2_ratio(x.numerator, x.denominator)


def log2_ratio(a: int, b: int, k: int = 1, pow2=0, pow_e=0) -> float:
    """log2(a / b * 2^pow2 * e^pow_e) / k, as signed_log2_ratio gives it."""
    return signed_log2_ratio(a, b, k, pow2, pow_e)[1]


def _float(num: int, den: int) -> float:
    """num / den for den > 0, rounded to the nearest float, and +-inf beyond
    float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def signed_log2_ratio(a: int, b: int, k: int, pow2, pow_e) -> tuple[int, float]:
    """v = log2(a / b * 2^pow2 * e^pow_e) / k for positive integers a, b and
    k and rationals pow2 and pow_e: the exact sign of v (-1, 0 or 1), and a
    float whose 12-digit form is that of the float nearest v.

    The estimate is (t + p + q) / k, with p = float(pow2), q = float(pow_e)
    / ln 2 and t = shift + log1p(a' / b' - 1) / ln 2 for a' / b' the ratio
    scaled by 2^-shift into (1/2, 2); shift is 0 where a / b already lies
    there, so a ratio near 1 keeps its relative accuracy, and elsewhere
    shares the sign of the log1p term, so |t| >= 1.  t is off by under 4
    ulps of t: the rounded quotient, amplified at most 1.45-fold by log1p on
    (-1/2, 1), log1p's own ulp, and the roundings of ln 2 and of each
    operation.  q is off by under 4 ulps of q and p by half an ulp of p; the
    two sums add under 3 ulps of t, p and q, and the division by k half an
    ulp of the result.

    Where pow_e = 0 and a / b is a power of 2, v is rational, and its sign
    and its rounding are exact.  Where the estimate x, give or take err = 16
    ulps of t, p and q over k and 1 ulp of x, prints one set of 12 digits,
    both ends of [x - err, x + err] share one nonzero sign, so v has it.
    Elsewhere, an exponent or the estimate beyond float range included,
    `_ln_interval` and the ln 2 bracket, at twice the bits each round, bound
    v until the bracket excludes 0 and both ends round to one float, +-inf
    beyond float range.  Every such v is irrational (2^pow2 for a
    non-integer pow2, and e^pow_e for pow_e != 0 by Lindemann's theorem), so
    neither 0 nor halfway between two floats, and the loop ends.
    """
    if a <= 0 or b <= 0:
        raise DomainError(f"log2 needs a positive ratio, got {a}/{b}")
    shift = 0
    if not (b < 2 * a and a < 2 * b):
        shift = a.bit_length() - b.bit_length()
        if shift > 0:
            b <<= shift
        else:
            a <<= -shift
    if a == b and not pow_e:
        v = Fraction(shift + pow2, k)
        return (v > 0) - (v < 0), _float(v.numerator, v.denominator)
    t = shift + math.log1p((a - b) / b) / _LN2
    try:
        p, q = float(pow2), float(pow_e) / _LN2
    except OverflowError:  # an exponent beyond float range
        p = q = math.inf
    x = (t + p + q) / k
    err = 16 * (math.ulp(t) + math.ulp(p) + math.ulp(q)) / k + math.ulp(x)
    # An infinite x makes one end nan, so the loop decides it.
    if f"{x - err:.12g}" == f"{x + err:.12g}":
        return (1 if x > 0 else -1), x
    bits = 64
    while True:
        lo, hi = _ln_interval(a, b, shift + pow2, pow_e, bits)
        if lo > 0 or hi < 0:
            # Over k ln 2, the end nearer 0 shrinks most at hi2, the other
            # grows most at lo2.
            lo2, hi2 = _ln_bounds(2, 1, bits)
            near, far = (lo, hi) if lo > 0 else (hi, lo)
            x = _float(near, k * hi2)
            if x == _float(far, k * lo2):
                return (1 if lo > 0 else -1), x
        bits *= 2


class Cleared(
    namedtuple(
        "Cleared",
        "k rhs cofactor direction pow2 pow_e",
        defaults=(Fraction(1), UPPER, Fraction(0), Fraction(0)),
    )
):
    """The bound q^k * cofactor <= rhs * 2^pow2 * e^pow_e (direction UPPER)
    or >= (LOWER) on a nonnegative quantity q, cleared of roots and of every
    logarithm but those of 2 and e; rhs and cofactor are positive rationals,
    pow2 and pow_e rationals."""

    __slots__ = ()

    def lhs(self, q) -> Fraction:
        """q^k * cofactor for an integer or rational q, reduced once."""
        return Fraction(
            q.numerator**self.k * self.cofactor.numerator,
            q.denominator**self.k * self.cofactor.denominator,
        )

    def log_bound(self):
        """The bound on log2 q, (log2(rhs / cofactor) + pow2 + pow_e log2 e)
        / k, as log2_ratio gives it."""
        top = self.rhs.numerator * self.cofactor.denominator
        bottom = self.rhs.denominator * self.cofactor.numerator
        return log2_ratio(top, bottom, self.k, self.pow2, self.pow_e)


def match_pf_upper(n: int, d: int, lam) -> Cleared:
    """match-pf-upper: Z_m(lambda)^2 <= (1 + d lambda)^n."""
    check_domain(n, d, lam=lam)
    return Cleared(2, (1 + d * lam) ** n)


def match_pf_gurvits(edges: int, nu: int, lam) -> Cleared:
    """match-pf-gurvits: Z_m(lambda) <= (1 + lambda |E| / nu)^nu, with nu the
    maximum matching size."""
    if nu < 1:
        raise DomainError(f"match-pf-gurvits needs at least one edge, got nu={nu}")
    if lam < 0:
        raise DomainError(f"lambda must be nonnegative, got {lam}")
    return Cleared(1, (1 + lam * Fraction(edges, nu)) ** nu)


def ind_pf_upper_general(n: int, d: int, lam) -> Cleared:
    """ind-pf-upper-general: Z_i(lambda)^(2d) <= 2^(2n) (1 + lambda)^(nd)."""
    check_domain(n, d, lam=lam)
    return Cleared(2 * d, 4**n * (1 + lam) ** (n * d))


def ind_pf_upper_bipartite(n: int, d: int, lam) -> Cleared:
    """ind-pf-upper-bipartite: Z_i(lambda)^(2d) <= (2 (1 + lambda)^d - 1)^n,
    for bipartite graphs."""
    check_domain(n, d, lam=lam)
    return Cleared(2 * d, (2 * (1 + lam) ** d - 1) ** n)


def bregman_pm(n: int, d: int) -> Cleared:
    """bregman-pm: pm^(2d) <= (d!)^n for the perfect matchings of a bipartite
    d-regular graph."""
    check_domain(n, d)
    return Cleared(2 * d, math.factorial(d) ** n)


def single_term(bound: Cleared, size: int, lam) -> Cleared:
    """The single-term extraction: Z(lambda) >= c_s lambda^s, so a bound
    Z^k * cofactor <= rhs on a partition function gives
    c_s^k * (cofactor lambda^(ks)) <= rhs on its size-s coefficient, for an
    integer or rational lambda."""
    if size < 0 or lam < 0:
        raise DomainError(f"need size >= 0 and lambda >= 0, got {size} and {lam}")
    return Cleared(bound.k, bound.rhs, bound.cofactor * lam ** (bound.k * size))


def optimal_lambda(n: int, d: int, size: int) -> Fraction:
    """The weight ell/(d(n/2 - ell)) minimizing the single-term extraction bound."""
    check_domain(n, d, size)
    if not 0 < 2 * size < n:
        raise DomainError(
            f"optimal lambda is degenerate at size {size} (needs 0 < size < n/2)"
        )
    return Fraction(2 * size, d * (n - 2 * size))


def _size_cofactor(n: int, d: int, size: int) -> int:
    """X = (2s)^(2s) (n - 2s)^(n - 2s), s = size and 0^0 = 1, once check_domain
    passes: each count bound reads q^2 X <= F n^n 2^pow2 e^pow_e."""
    check_domain(n, d, size)
    return (2 * size) ** (2 * size) * (n - 2 * size) ** (n - 2 * size)


def match_count_upper(n: int, d: int, ell: int) -> Cleared:
    """match-count-upper: single_term(match_pf_upper(n, d, lam), ell, lam) at
    lam = 2ell / (d(n - 2ell)) (optimal_lambda), both sides multiplied by
    d^(2ell) (n - 2ell)^n:  m_ell^2 X <= d^(2ell) n^n with X =
    (2ell)^(2ell) (n - 2ell)^(n - 2ell) (_size_cofactor).  With 0^0 = 1 it
    holds at ell = 0 and, in the limit of large lam, at ell = n/2.  In log2
    it reads (n/2)(alpha log2 d + H(alpha)) with alpha = 2ell/n."""
    return Cleared(2, d ** (2 * ell) * n**n, _size_cofactor(n, d, ell))


def ind_count_upper_general(n: int, d: int, t: int) -> Cleared:
    """ind-count-upper-general: single_term(ind_pf_upper_general(n, d, lam),
    t, lam) at lam = 2t / (n - 2t), the weight with expected occupancy t on
    n/2 pairs, both sides multiplied by (n - 2t)^(nd) and then taken to the
    d-th root:  i_t^2 X <= n^n 2^(2n/d) with X = (2t)^(2t) (n - 2t)^(n - 2t)
    (_size_cofactor).  With 0^0 = 1 it holds at t = 0 and, in the limit of
    large lam, at t = n/2.  In log2 it reads (n/2)(H(2t/n) + 2/d)."""
    return Cleared(2, n**n, _size_cofactor(n, d, t), pow2=Fraction(2 * n, d))


def ind_count_upper_bipartite(n: int, d: int, t: int) -> Cleared:
    """ind-count-upper-bipartite: log2 i_t <= (n/2)(H(2t/n) + 1/d -
    (log2 e / 2d)(1 - 2t/n)^d), for bipartite graphs, cleared as
    ind_count_upper_general is:  i_t^2 X <= n^n 2^(n/d)
    e^(-(n/2d)(1 - 2t/n)^d), with 0^0 = 1."""
    cofactor = _size_cofactor(n, d, t)
    pow_e = -Fraction(n, 2 * d) * Fraction(n - 2 * t, n) ** d
    return Cleared(2, n**n, cofactor, pow2=Fraction(n, d), pow_e=pow_e)


def balanced_profile(n: int, d: int, ell: int) -> tuple[int, ...]:
    """Per-copy matching sizes a_i, each floor or ceil of alpha*d, summing to ell."""
    copies = union_copies(n, d)
    check_domain(n, d, ell)
    q, r = divmod(ell, copies)
    return tuple([q + 1] * r + [q] * (copies - r))


def stirling_term(d: int, a: int, c) -> Cleared:
    """The per-copy Stirling-style estimate, a lower bound on
    binom(d, a)^2 a!: a log2 d + a log2(a/d) - a log2 e + 2 H(a/d) d -
    log2(c d), cleared: d^(2d-1) e^(-a) / (c a^a (d - a)^(2(d - a))), with
    0^0 = 1, for c > 0."""
    if d < 1 or not 0 <= a <= d:
        raise DomainError(f"need 1 <= d and 0 <= a <= d, got d={d}, a={a}")
    c = Fraction(c)
    if c <= 0:
        raise DomainError(f"need c > 0, got {c}")
    rest = d - a
    return Cleared(1, d ** (2 * d - 1) / (c * a**a * rest ** (2 * rest)), direction=LOWER, pow_e=-a)


def profile_matching_lower(n: int, d: int, profile, c) -> Cleared:
    """Lower bound on the size-ell matching count of the K_{d,d} union, the
    product of the Stirling-style estimates (stirling_term) over one witness
    profile summing to ell.

    Valid whenever each estimate holds, binom(d, a)^2 a! meeting
    stirling_term(d, a, c) for every a in the profile; the acceptance suite
    pins such a c.
    """
    rhs = math.prod(stirling_term(d, a, c).rhs ** k for a, k in Counter(profile).items())
    return Cleared(1, rhs, direction=LOWER, pow_e=-sum(profile))


def independent_upper_pm_exact(n: int, t: int) -> int:
    """Exact form 2^t binom(n/2, t) of the perfect-matching upper bound."""
    check_domain(n, 1, t)
    if n % 2 != 0:
        raise DomainError(f"perfect-matching bound needs even n, got {n}")
    return 2**t * math.comb(n // 2, t)


def _small_t_copies(n: int, d: int, t: int) -> int:
    """union_copies(n, d), once t lies in [0, n/2d], the small-t bounds' range."""
    copies = union_copies(n, d)
    check_domain(n, d, t)
    if t > copies:
        raise DomainError(f"small-t bound needs t <= {copies}, got {t}")
    return copies


def union_small_t_exact(n: int, d: int, t: int) -> int:
    """Exact count (2d)^t binom(n/2d, t) of the scattered independent sets:
    one vertex in each of t distinct K_{d,d} copies."""
    return (2 * d) ** t * math.comb(_small_t_copies(n, d, t), t)


def markov_constant(c) -> Fraction:
    """c as a Fraction, if it exceeds 1, as the constant of
    union_ind_lower_markov must."""
    c = Fraction(c)
    if c <= 1:
        raise DomainError(f"Markov constant must exceed 1, got {c}")
    return c


def union_ind_lower_markov(n: int, d: int, t: int, c) -> Cleared:
    """union-ind-lower-markov: the size-t independent-set count of the K_{d,d}
    union is at least (1 - 1/c) binom(n/2, t) 2^((n/2d)(1 - c(1 - 2t/n)^d)),
    for c > 1; in log2, log2[(1 - 1/c) binom(n/2, t)] + (n/2)(1/d - (c/d)(1 -
    2t/n)^d)."""
    check_domain(n, d, t)
    c = markov_constant(c)
    tail = Fraction(n, 2 * d) * (1 - c * (1 - Fraction(2 * t, n)) ** d)
    return Cleared(1, (1 - 1 / c) * math.comb(n // 2, t), direction=LOWER, pow2=tail)


def union_ind_lower_small_t(n: int, d: int, t: int) -> Cleared:
    """union-ind-lower-small-t-log: the size-t independent-set count of the
    K_{d,d} union is at least 2^t binom(n/2, t) prod_{k=1}^{t-1}(1 - 2kd/n),
    for t <= n/2d; a rational, so the verdict is exact.  At t <= 1 the
    bound is the count itself."""
    _small_t_copies(n, d, t)
    scattered = math.prod(Fraction(n - 2 * k * d, n) for k in range(1, t))
    return Cleared(1, 2**t * math.comb(n // 2, t) * Fraction(scattered), direction=LOWER)


def block_miss_stats(n: int, d: int, size: int) -> tuple[Fraction, Fraction]:
    """Expected number of d-blocks missed by a random size-subset of n/2
    items: exact mu = (n/2d) binom(n/2-d, size)/binom(n/2, size), and its
    analytic bound (n/2d)(1 - 2 size/n)^d.  Both are rational, so the
    comparison is exact."""
    union_copies(n, d)
    check_domain(n, d, size)
    half = n // 2
    mu = Fraction(n, 2 * d) * Fraction(math.comb(half - d, size), math.comb(half, size))
    bound = Fraction(n, 2 * d) * (1 - Fraction(2 * size, n)) ** d
    return mu, bound
