"""Closed-form bounds on matching and independent-set counts.

Each bound is defined once, by a function named after its check id, as a
power-cleared inequality q^k * cofactor <= rhs * 2^pow2 * e^pow_e, or >= for
a lower bound, with rhs and cofactor positive rationals and pow2 and pow_e
rationals (`Cleared`); the factor 2^pow2 * e^pow_e carries the log2 e of
Kahn's bound for bipartite graphs and of the entropy-form lower bounds on
the K_{d,d} union, and the rational power of 2 of its Markov-style lower
bound.  Every verdict is exact: over the integers where the factor is
rational, and by `compare_power` where it is not.  `Cleared.log_bound()` is
the bound on log2 q, and `log2_ratio` computes it, as it computes every
log2 value a report prints.

Decimal serves only to print values; no verdict reads one.  Where a log2
value needs one, it is computed in `_CTX`, a context of 40 significant
digits (about 133 bits), whatever the caller's decimal context is; importing
this module leaves that context as it was.
"""

from __future__ import annotations

import math
from collections import namedtuple
from decimal import Context, Decimal, localcontext
from fractions import Fraction

from .errors import DivisibilityError, DomainError
from .kdd import kdd_matching_count

_CTX = Context(prec=40)

_LOG2E = _CTX.divide(1, _CTX.ln(2))
_LN2 = math.log(2)
# Bound, in ulps of the result, on the error of log2_ratio's float.
_LOG2_ULPS = 16

UPPER = "upper"
LOWER = "lower"


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _dec(x: Fraction) -> Decimal:
    """A rational as a Decimal, rounded once in the current context."""
    return Decimal(x.numerator) / x.denominator


def _check(n: int, d: int, size: int = 0, lam=0) -> None:
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


def log2(x) -> Decimal:
    """log2 of a positive int, float, Decimal or Fraction, as a Decimal
    rounded to _CTX's 40 digits whatever the caller's context.  The argument
    enters exactly, a Fraction as its quotient rounded to 40 digits.
    Arithmetic on the result runs in the caller's context."""
    if x <= 0:
        raise DomainError(f"log2 needs a positive argument, got {x}")
    if isinstance(x, Fraction):
        x = _CTX.divide(x.numerator, x.denominator)
    return _CTX.multiply(_CTX.ln(Decimal(x)), _LOG2E)


def log2_ratio(a: int, b: int, k: int = 1, pow2=0, pow_e=0):
    """log2(a / b * 2^pow2 * e^pow_e) / k for positive integers a, b and k
    and rationals pow2 and pow_e.  Where the factor 2^pow2 * e^pow_e is
    irrational it is a Decimal in _CTX.  Elsewhere, the factor shifted into
    a or b, it is a float whose 12-digit form is that of the exact value,
    or, where no float within the error bound of the computed one can
    promise that, a Decimal.

    The float is shift + log1p(r) / ln 2, where r = a' / b' - 1 for a' / b'
    the ratio scaled by 2^-shift into (1/2, 2).  shift is 0 whenever a / b
    already lies in (1/2, 2), so a ratio near 1 keeps its relative accuracy
    instead of cancelling against a shift of 1; elsewhere the result is at
    least 1 in size, so the error of log1p's term, below 1, stays relative.
    That error comes from rounding r, amplified at most 1.45-fold by log1p
    on (-1/2, 1), log1p's own error of at most 1 ulp, and the roundings of
    ln 2 and of each operation: under 8 ulps of the result in all, against
    the _LOG2_ULPS checked.

    The Decimal fallback is (shift + ln(a' / b') log2 e) / k in _CTX, its
    precision raised by the digits that a ratio near 1 cancels: a' / b' =
    1 + r with |r| above 2^-(bit length of b' - bit length of |a' - b'| + 1),
    and ln(1 + r) is about r, so a' / b' rounded to that many more digits
    keeps _CTX's digits of r.
    """
    if a <= 0 or b <= 0:
        raise DomainError(f"log2 needs a positive ratio, got {a}/{b}")
    if pow_e or pow2.denominator != 1:
        with localcontext(_CTX):
            return (log2(Fraction(a, b)) + _dec(pow2) + _dec(pow_e) * _LOG2E) / k
    if pow2 > 0:
        a <<= int(pow2)
    elif pow2 < 0:
        b <<= int(-pow2)
    if a == b:
        return 0.0
    shift = 0
    if not (b < 2 * a and a < 2 * b):
        shift = a.bit_length() - b.bit_length()
        if shift > 0:
            b <<= shift
        else:
            a <<= -shift
    x = (shift + math.log1p((a - b) / b) / _LN2) / k
    err = _LOG2_ULPS * math.ulp(x)
    if f"{x - err:.12g}" == f"{x + err:.12g}":
        return x
    cancelled = b.bit_length() - abs(a - b).bit_length() + 1
    with localcontext(_CTX) as ctx:
        ctx.prec += max(0, cancelled) * 30103 // 100000 + 1
        return (shift + (Decimal(a) / b).ln() * _LOG2E) / k


def _ln2_bounds(bits: int) -> tuple[int, int]:
    """Integers lo and hi with lo <= 2^bits ln 2 <= hi = lo + bits + 1: lo
    sums the first `bits` terms of ln 2 = sum over j >= 1 of 1 / (j 2^j),
    each times 2^bits and rounded down, and hi adds one unit per rounded
    term and the tail, below 1 / ((bits + 1) 2^bits)."""
    lo = sum((1 << bits) // (j << j) for j in range(1, bits + 1))
    return lo, lo + bits + 1


def _exp_bounds(p: int, bits: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= e^w <= hi for w = p / 2^bits with |w| <= 1: the Taylor
    sum of e^w up to w^(m-1) / (m-1)!, less and plus the bound
    e^|w| |w|^m / m! < 3 / m! on its remainder, with m! above 3 * 2^bits.
    Over the denominator 2^(bits (m-1)) m!, the term of w^i is the integer
    p^i 2^(bits (m-1-i)) m! / i!, and each but the unused last divides
    exactly into the next."""
    m, fact = 1, 1
    while fact <= 3 << bits:
        m += 1
        fact *= m
    term = denominator = fact << (bits * (m - 1))
    total = 0
    for i in range(1, m + 1):
        total += term
        term = term * p // (i << bits)
    rest = 3 << (bits * (m - 1))
    return Fraction(total - rest, denominator), Fraction(total + rest, denominator)


def compare_power(num: int, den: int, pow2=0, pow_e=0) -> int:
    """The sign (-1, 0 or 1) of num / den - 2^pow2 * e^pow_e, exactly, for
    positive integers num and den and rationals pow2 and pow_e.

    Where pow_e = 0 and pow2 is an integer the comparison is over the
    integers.  Elsewhere num / den = 2^s u with 1 <= u < 2, and u is compared
    with e^w, w = (pow2 - s) ln 2 + pow_e, between rational bounds on ln 2
    and on e^w that tighten, twice the bits each round, until u lies outside
    them.  The factor is then irrational (2^pow2 for a non-integer pow2, and
    e^pow_e for pow_e != 0 by Lindemann's theorem), so never equal to u, and
    the loop ends.
    """
    if num <= 0 or den <= 0:
        raise DomainError(f"need a positive ratio, got {num}/{den}")
    if not pow_e and pow2.denominator == 1:
        if pow2 > 0:
            den <<= int(pow2)
        elif pow2 < 0:
            num <<= int(-pow2)
        return (num > den) - (num < den)
    s = num.bit_length() - den.bit_length()
    u = Fraction(num, den << s) if s >= 0 else Fraction(num << -s, den)
    if u < 1:
        u, s = 2 * u, s - 1
    c = pow2 - s
    bits = 32
    while True:
        lo2, hi2 = _ln2_bounds(bits)
        if c < 0:
            lo2, hi2 = hi2, lo2
        # w lies in [lo, hi] / 2^bits.
        one, shifted = 1 << bits, pow_e * (1 << bits)
        lo, hi = math.floor(c * lo2 + shifted), math.ceil(c * hi2 + shifted)
        if hi < 0:  # e^w < 1 <= u
            return 1
        if lo >= one:  # e^w > 2 > u
            return -1
        if -one < lo and hi <= one:
            if u < _exp_bounds(lo, bits)[0]:
                return -1
            if u > _exp_bounds(hi, bits)[1]:
                return 1
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
        / k, as log2_ratio gives it: a float or a Decimal."""
        top = self.rhs.numerator * self.cofactor.denominator
        bottom = self.rhs.denominator * self.cofactor.numerator
        return log2_ratio(top, bottom, self.k, self.pow2, self.pow_e)


def match_pf_upper(n: int, d: int, lam) -> Cleared:
    """match-pf-upper: Z_m(lambda)^2 <= (1 + d lambda)^n."""
    _check(n, d, lam=lam)
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
    _check(n, d, lam=lam)
    return Cleared(2 * d, 4**n * (1 + lam) ** (n * d))


def ind_pf_upper_bipartite(n: int, d: int, lam) -> Cleared:
    """ind-pf-upper-bipartite: Z_i(lambda)^(2d) <= (2 (1 + lambda)^d - 1)^n,
    for bipartite graphs."""
    _check(n, d, lam=lam)
    return Cleared(2 * d, (2 * (1 + lam) ** d - 1) ** n)


def bregman_pm(n: int, d: int) -> Cleared:
    """bregman-pm: pm^(2d) <= (d!)^n for the perfect matchings of a bipartite
    d-regular graph."""
    _check(n, d)
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
    _check(n, d, size)
    if not 0 < 2 * size < n:
        raise DomainError(
            f"optimal lambda is degenerate at size {size} (needs 0 < size < n/2)"
        )
    return Fraction(2 * size, d * (n - 2 * size))


def match_count_upper(n: int, d: int, ell: int) -> Cleared:
    """match-count-upper: single_term(match_pf_upper(n, d, lam), ell, lam) at
    lam = 2ell / (d(n - 2ell)) (optimal_lambda), both sides multiplied by
    d^(2ell) (n - 2ell)^n:  m_ell^2 (2ell)^(2ell) (n - 2ell)^(n - 2ell) <=
    d^(2ell) n^n.  With 0^0 = 1 it holds at ell = 0 and, in the limit of
    large lam, at ell = n/2.  In log2 it reads (n/2)(alpha log2 d + H(alpha))
    with alpha = 2ell/n."""
    _check(n, d, ell)
    rest = n - 2 * ell
    return Cleared(2, d ** (2 * ell) * n**n, (2 * ell) ** (2 * ell) * rest**rest)


def ind_count_upper_general(n: int, d: int, t: int) -> Cleared:
    """ind-count-upper-general: single_term(ind_pf_upper_general(n, d, lam),
    t, lam) at lam = 2t / (n - 2t), the weight with expected occupancy t on
    n/2 pairs, both sides multiplied by (n - 2t)^(nd):
    i_t^(2d) ((2t)^(2t) (n - 2t)^(n - 2t))^d <= 2^(2n) n^(nd).  With 0^0 = 1
    it holds at t = 0 and, in the limit of large lam, at t = n/2.  In log2
    it reads (n/2)(H(2t/n) + 2/d)."""
    _check(n, d, t)
    rest = n - 2 * t
    return Cleared(2 * d, 4**n * n ** (n * d), ((2 * t) ** (2 * t) * rest**rest) ** d)


def ind_count_upper_bipartite(n: int, d: int, t: int) -> Cleared:
    """ind-count-upper-bipartite: log2 i_t <= (n/2)(H(2t/n) + 1/d -
    (log2 e / 2d)(1 - 2t/n)^d), for bipartite graphs, cleared as
    ind_count_upper_general is: i_t^(2d) ((2t)^(2t) (n - 2t)^(n - 2t))^d <=
    2^n n^(nd) e^(-(n/2)(1 - 2t/n)^d), with 0^0 = 1."""
    _check(n, d, t)
    rest = n - 2 * t
    pow_e = -Fraction(n, 2) * Fraction(rest, n) ** d
    return Cleared(2 * d, 2**n * n ** (n * d), ((2 * t) ** (2 * t) * rest**rest) ** d, pow_e=pow_e)


def union_matching_lower_explicit(n: int, d: int, size: int) -> Cleared:
    """Explicit part of the matching lower bound on the K_{d,d}-union reference
    graph: (n/2)[alpha log2 d + 2H(alpha) + alpha log2(alpha/e)] with
    alpha = 2s/n, s = size, cleared: q >= d^s n^(n-s) e^(-s) / ((2s)^s
    (n - 2s)^(n - 2s)).

    The remaining correction term of order log(d)/d carries an unspecified
    constant, so it is never fabricated here; callers report the measured gap
    against the exact count instead.
    """
    _check(n, d, size)
    if not 0 < 2 * size < n:
        raise DomainError(f"alpha must lie strictly inside (0,1), got {Fraction(2 * size, n)}")
    rest = n - 2 * size
    rhs = Fraction(d**size * n ** (n - size), (2 * size) ** size * rest**rest)
    return Cleared(1, rhs, direction=LOWER, pow_e=-size)


def matching_lower_gap(d: int) -> tuple:
    """Measured per-block-column gap, for a single complete bipartite block
    at its central matching size, between log2 of the exact count and the
    explicit entropy-form lower value; also the gap scaled by d / log2(d).
    Both are Decimals in _CTX.

    The explicit form carries an unstated O(log d / d) per-vertex deficit at
    small d; this helper measures it rather than asserting the inequality.
    """
    if d < 2:
        raise DomainError(f"gap measurement needs d >= 2, got {d}")
    ell = d // 2
    rhs = union_matching_lower_explicit(2 * d, d, ell).rhs
    # log2(count / rhs) + ell log2 e, the count over the explicit value.
    total = log2_ratio(kdd_matching_count(d, ell) * rhs.denominator, rhs.numerator, 1, 0, ell)
    return _CTX.divide(total, d), _CTX.divide(total, log2(d))


def balanced_profile(n: int, d: int, ell: int) -> tuple[int, ...]:
    """Per-copy matching sizes a_i, each floor or ceil of alpha*d, summing to ell."""
    if d < 1 or n % (2 * d) != 0:
        raise DivisibilityError(f"need 2d | n with d >= 1, got n={n}, d={d}")
    copies = n // (2 * d)
    if not 0 <= ell <= n // 2:
        raise DomainError(f"ell must lie in [0, {n // 2}], got {ell}")
    q, r = divmod(ell, copies)
    return tuple([q + 1] * r + [q] * (copies - r))


def stirling_term(d: int, a: int, c) -> Cleared:
    """The per-copy Stirling-style estimate, a lower bound on
    binom(d, a)^2 a!: a log2 d + a log2(a/d) - a log2 e + 2 H(a/d) d -
    log2(c d), cleared: d^(2d-1) e^(-a) / (c a^a (d - a)^(2(d - a))), with
    0^0 = 1, for c > 0."""
    if d < 1 or not 0 <= a <= d:
        raise DomainError(f"need 1 <= d and 0 <= a <= d, got d={d}, a={a}")
    c = _as_fraction(c)
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
    rhs = math.prod(stirling_term(d, a, c).rhs for a in profile)
    return Cleared(1, rhs, direction=LOWER, pow_e=-sum(profile))


def independent_upper_pm_exact(n: int, t: int) -> int:
    """Exact form 2^t binom(n/2, t) of the perfect-matching upper bound."""
    if n % 2 != 0:
        raise DomainError(f"perfect-matching bound needs even n, got {n}")
    if not 0 <= t <= n // 2:
        raise DomainError(f"t must lie in [0, {n // 2}], got {t}")
    return 2**t * math.comb(n // 2, t)


def union_small_t_exact(n: int, d: int, t: int) -> int:
    """Exact count (2d)^t binom(n/2d, t) of the scattered independent sets:
    one vertex in each of t distinct K_{d,d} copies."""
    if d < 1 or n % (2 * d) != 0:
        raise DivisibilityError(f"need 2d | n with d >= 1, got n={n}, d={d}")
    copies = n // (2 * d)
    if not 0 <= t <= copies:
        raise DomainError(f"small-t bound needs t <= {copies}, got {t}")
    return (2 * d) ** t * math.comb(copies, t)


def union_ind_lower_markov(n: int, d: int, t: int, c) -> Cleared:
    """union-ind-lower-markov: the size-t independent-set count of the K_{d,d}
    union is at least (1 - 1/c) binom(n/2, t) 2^((n/2d)(1 - c(1 - 2t/n)^d)),
    for c > 1; in log2, log2[(1 - 1/c) binom(n/2, t)] + (n/2)(1/d - (c/d)(1 -
    2t/n)^d)."""
    _check(n, d, t)
    c = _as_fraction(c)
    if c <= 1:
        raise DomainError(f"Markov constant must exceed 1, got {c}")
    tail = Fraction(n, 2 * d) * (1 - c * (1 - Fraction(2 * t, n)) ** d)
    return Cleared(1, (1 - 1 / c) * math.comb(n // 2, t), direction=LOWER, pow2=tail)


def union_ind_lower_small_t(n: int, d: int, t: int) -> Cleared:
    """union-ind-lower-small-t-log: the size-t independent-set count of the
    K_{d,d} union is at least 2^t binom(n/2, t) prod_{k=1}^{t-1}(1 - 2kd/n),
    for t <= n/2d; a rational, so the verdict is exact.  At t <= 1 the
    bound is the count itself."""
    _check(n, d, t)
    if n % (2 * d) != 0:
        raise DivisibilityError(f"need 2d | n, got n={n}, d={d}")
    if t > n // (2 * d):
        raise DomainError(f"small-t bound needs t <= {n // (2 * d)}, got {t}")
    scattered = math.prod(Fraction(n - 2 * k * d, n) for k in range(1, t))
    return Cleared(1, 2**t * math.comb(n // 2, t) * Fraction(scattered), direction=LOWER)


def block_miss_stats(n: int, d: int, size: int) -> tuple[Fraction, Fraction]:
    """Expected number of d-blocks missed by a random size-subset of n/2
    items: exact mu = (n/2d) binom(n/2-d, size)/binom(n/2, size), and its
    analytic bound (n/2d)(1 - 2 size/n)^d.  Both are rational, so the
    comparison is exact."""
    if d < 1 or n % (2 * d) != 0:
        raise DivisibilityError(f"need 2d | n with d >= 1, got n={n}, d={d}")
    _check(n, d, size)
    half = n // 2
    mu = Fraction(n, 2 * d) * Fraction(math.comb(half - d, size), math.comb(half, size))
    bound = Fraction(n, 2 * d) * (1 - Fraction(2 * size, n)) ** d
    return mu, bound
