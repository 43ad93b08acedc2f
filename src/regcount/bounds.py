"""Closed-form bounds on matching and independent-set counts.

Each bound is defined once, by a function named after its check id.  The
bounds the per-graph suite decides exactly are power-cleared inequalities
q^k * cofactor <= rhs over exact rationals (`Cleared`): a partition-function
bound, Bregman's bound, or a single-term extraction from a
partition-function bound.  The verdict is the exact comparison, and
`Cleared.log_bound()` is the bound on log2 q, log2(rhs / cofactor) / k.

A `Cleared` bound may also run the other way, q^k * cofactor >= rhs: the
small-size lower bound on the K_{d,d} union (union-ind-lower-small-t-log)
is a rational lower bound on a count.

The other bounds, those that involve log2 e and the Markov-style lower bound
on the K_{d,d} union, are `LogBound` values in log2, compared under a uniform
slack of 2^-40 applied in the direction favorable to the inequality under
test.

Every log2 value here is a `decimal.Decimal` computed in `_CTX`, a context
of 40 significant digits (about 133 bits, far above the 64 fractional bits
the comparisons need), whatever the caller's decimal context is; importing
this module leaves that context as it was.  Each function that does Decimal
arithmetic runs in `_CTX` for its own duration (`_precise`), and `log2`
calls `_CTX`'s methods directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction

from .errors import DivisibilityError, DomainError

_CTX = Context(prec=40)

SLACK = _CTX.power(2, -40)
_LOG2E = _CTX.divide(1, _CTX.ln(2))

UPPER = "upper"
LOWER = "lower"


def _precise(fn):
    """fn, run in _CTX whatever the caller's decimal context."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        with localcontext(_CTX):
            return fn(*args, **kwargs)

    return run


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


@dataclass(frozen=True)
class LogBound:
    """A bound held in log2 domain with its direction.  value is a
    `decimal.Decimal`; arithmetic on it runs in the caller's context."""

    value: Decimal
    direction: str

    @_precise
    def admits(self, log_count) -> bool:
        """Does the exact count (given as log2) satisfy this bound, up to
        SLACK?"""
        if self.direction == UPPER:
            return log_count <= self.value + SLACK
        return log_count >= self.value - SLACK


@dataclass(frozen=True)
class Cleared:
    """The bound q^k * cofactor <= rhs (direction UPPER) or >= rhs (LOWER)
    on a nonnegative quantity q, cleared of roots and logarithms; rhs and
    cofactor are positive rationals."""

    k: int
    rhs: Fraction
    cofactor: Fraction = Fraction(1)
    direction: str = UPPER

    def lhs(self, q) -> Fraction:
        """q^k * cofactor for an integer or rational q, reduced once."""
        return Fraction(
            q.numerator**self.k * self.cofactor.numerator,
            q.denominator**self.k * self.cofactor.denominator,
        )

    def holds(self, q) -> bool:
        """The exact verdict for q."""
        if self.direction == UPPER:
            return self.lhs(q) <= self.rhs
        return self.lhs(q) >= self.rhs

    @_precise
    def log_bound(self) -> LogBound:
        """The bound on log2 q: log2(rhs / cofactor) / k, the ratio reduced
        first."""
        return LogBound(log2(Fraction(self.rhs, self.cofactor)) / self.k, self.direction)


@_precise
def binary_entropy(x) -> Decimal:
    """H(x) = -x log2 x - (1-x) log2 (1-x), with H(0) = H(1) = 0, for x
    taken exactly."""
    x = _as_fraction(x)
    if not 0 <= x <= 1:
        raise DomainError(f"entropy argument must lie in [0,1], got {x}")
    if x == 0 or x == 1:
        return Decimal(0)
    return -_dec(x) * log2(x) - _dec(1 - x) * log2(1 - x)


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
    t, lam) at lam = 2t / (n - 2t) (occupancy_lambda), both sides multiplied
    by (n - 2t)^(nd):  i_t^(2d) ((2t)^(2t) (n - 2t)^(n - 2t))^d <= 2^(2n) n^(nd).
    With 0^0 = 1 it holds at t = 0 and, in the limit of large lam, at
    t = n/2.  In log2 it reads (n/2)(H(2t/n) + 2/d)."""
    _check(n, d, t)
    rest = n - 2 * t
    return Cleared(2 * d, 4**n * n ** (n * d), ((2 * t) ** (2 * t) * rest**rest) ** d)


@_precise
def ind_count_upper_bipartite(n: int, d: int, t: int) -> LogBound:
    """ind-count-upper-bipartite: log2 i_t <= (n/2)(H(2t/n) + 1/d -
    (log2 e / 2d)(1 - 2t/n)^d), for bipartite graphs.  At t = n/2 the
    entropy term vanishes and the formula is evaluated as written."""
    _check(n, d, t)
    alpha = Fraction(2 * t, n)
    half = Decimal(n) / 2
    ent = binary_entropy(alpha)
    miss = _dec((1 - alpha) ** d)
    return LogBound(half * (ent + Decimal(1) / d - _LOG2E / (2 * d) * miss), UPPER)


@_precise
def union_matching_lower_explicit(n: int, d: int, size: int) -> LogBound:
    """Explicit part of the matching lower bound on the K_{d,d}-union reference
    graph: (n/2)[alpha log2 d + 2H(alpha) + alpha log2(alpha/e)], with
    alpha = 2 size / n.

    The remaining correction term of order log(d)/d carries an unspecified
    constant, so it is never fabricated here; callers report the measured gap
    against the exact count instead.
    """
    _check(n, d, size)
    a = Fraction(2 * size, n)
    if a == 0 or a == 1:
        raise DomainError(f"alpha must lie strictly inside (0,1), got {a}")
    av = _dec(a)
    value = Decimal(n) / 2 * (av * log2(d) + 2 * binary_entropy(a) + av * (log2(a) - _LOG2E))
    return LogBound(value, LOWER)


def balanced_profile(n: int, d: int, ell: int) -> tuple[int, ...]:
    """Per-copy matching sizes a_i, each floor or ceil of alpha*d, summing to ell."""
    if d < 1 or n % (2 * d) != 0:
        raise DivisibilityError(f"need 2d | n with d >= 1, got n={n}, d={d}")
    copies = n // (2 * d)
    if not 0 <= ell <= n // 2:
        raise DomainError(f"ell must lie in [0, {n // 2}], got {ell}")
    q, r = divmod(ell, copies)
    return tuple([q + 1] * r + [q] * (copies - r))


@_precise
def stirling_rhs(d: int, a: int, c) -> Decimal:
    """Right side of the per-copy Stirling-style estimate:
    a log2 d + a log2(a/d) - a log2 e + 2 H(a/d) d - log2(c d)."""
    if d < 1 or not 0 <= a <= d:
        raise DomainError(f"need 1 <= d and 0 <= a <= d, got d={d}, a={a}")
    c = _as_fraction(c)
    if c < 1:
        raise DomainError(f"need c >= 1, got {c}")
    if a == 0:
        main = Decimal(0)
    else:
        af = Fraction(a, d)
        main = a * log2(d) + a * log2(af) - a * _LOG2E + 2 * binary_entropy(af) * d
    return main - log2(c * d)


def stirling_term_check(d: int, a: int, c) -> bool:
    """Does log2(binom(d,a)^2 a!) dominate the Stirling-style right side?"""
    lhs = log2(math.comb(d, a) ** 2 * math.factorial(a))
    return lhs >= stirling_rhs(d, a, c)


@_precise
def profile_matching_lower(n: int, d: int, profile, c) -> LogBound:
    """Lower bound on log2 of the size-ell matching count of the K_{d,d} union,
    summing the Stirling-style estimate over one witness profile.

    Valid whenever stirling_term_check(d, a, c) holds for every a in the
    profile; the acceptance suite pins such a c.
    """
    value = Decimal(0)
    for a in profile:
        value += stirling_rhs(d, a, c)
    return LogBound(value, LOWER)


def occupancy_lambda(n: int, t: int) -> Fraction:
    """The weight with expected occupancy t on n/2 pairs: lambda = 2t/(n-2t)."""
    if not 0 <= t < n / 2:
        raise DomainError(f"need 0 <= t < n/2, got t={t}, n={n}")
    return Fraction(2 * t, n - 2 * t)


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


@_precise
def union_ind_lower_markov(n: int, d: int, t: int, c) -> LogBound:
    """union-ind-lower-markov: log2 of the size-t independent-set count of
    the K_{d,d} union is at least
    log2[(1 - 1/c) binom(n/2, t)] + (n/2)(1/d - (c/d)(1 - 2t/n)^d), for c > 1."""
    _check(n, d, t)
    c = _as_fraction(c)
    if c <= 1:
        raise DomainError(f"Markov constant must exceed 1, got {c}")
    head = log2(Fraction(1 - Fraction(1, c)) * math.comb(n // 2, t))
    tail = Fraction(n, 2 * d) * (1 - c * (1 - Fraction(2 * t, n)) ** d)
    return LogBound(head + _dec(tail), LOWER)


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
