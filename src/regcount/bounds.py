"""Closed-form bounds on matching and independent-set counts.

Each bound the per-graph suite checks is defined once, as a power-cleared
inequality q^k * cofactor <= rhs over exact rationals (`Cleared`), by a
function named after its check id: a partition-function bound, Bregman's
bound, or a single-term extraction from a partition-function bound.  Its
verdict is the exact comparison, and its log2 value log2(rhs / cofactor) / k
is the number `matching_partition_upper`, `matching_count_upper` and the
other log2 forms return.

The other bounds, those that involve log2 e and the log2-form lower bounds
on the K_{d,d} union, are evaluated in log2 with mpmath at 120-bit
precision (far above the 64 fractional bits the comparisons need) and
compared under a uniform slack of 2^-40, applied in the direction favorable
to the inequality under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp, mpf

from .errors import DivisibilityError, DomainError
from .counting import matching_polynomial
from .graphs import Graph

mp.prec = max(mp.prec, 120)

SLACK = mpf(2) ** -40
_LOG2E = 1 / mp.log(2)

UPPER = "upper"
LOWER = "lower"


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _mpf_of(x) -> mpf:
    if isinstance(x, Fraction):
        return mpf(x.numerator) / mpf(x.denominator)
    return mpf(x)


def log2(x) -> mpf:
    """High-precision log base 2 of a positive number or Fraction."""
    if isinstance(x, Fraction):
        if x <= 0:
            raise DomainError(f"log2 needs a positive argument, got {x}")
        return (mp.log(x.numerator) - mp.log(x.denominator)) * _LOG2E
    return mp.log(x) * _LOG2E


@dataclass(frozen=True)
class LogBound:
    """A bound held in log2 domain with its direction and comparison slack."""

    value: object  # mpf
    direction: str
    slack: object = field(default_factory=lambda: SLACK)

    def admits(self, log_count) -> bool:
        """Does the exact count (given as log2) satisfy this bound with slack?"""
        if self.direction == UPPER:
            return log_count <= self.value + self.slack
        return log_count >= self.value - self.slack


@dataclass(frozen=True)
class Cleared:
    """The upper bound q^k * cofactor <= rhs on a nonnegative quantity q,
    cleared of roots and logarithms; rhs and cofactor are positive
    rationals."""

    k: int
    rhs: Fraction
    cofactor: Fraction = Fraction(1)

    def lhs(self, q) -> Fraction:
        return Fraction(q) ** self.k * self.cofactor

    def holds(self, q) -> bool:
        """The exact verdict for q."""
        return self.lhs(q) <= self.rhs

    def log_bound(self) -> LogBound:
        """The bound on log2 q: log2(rhs / cofactor) / k, the ratio reduced
        first."""
        return LogBound(log2(Fraction(self.rhs, self.cofactor)) / self.k, UPPER)


@dataclass(frozen=True)
class BoundParams:
    """Scalar inputs shared by the bound formulas.

    size plays the role of the matching size or the independent-set size
    depending on the consumer; alpha = 2*size/n is derived exactly.
    """

    n: int
    d: int
    size: int = 0
    lam: Fraction = Fraction(0)
    c: Fraction = Fraction(2)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need n >= 1, got {self.n}")
        if self.d < 0:
            raise DomainError(f"need d >= 0, got {self.d}")
        if not 0 <= self.size <= self.n / 2:
            raise DomainError(
                f"size must lie in [0, n/2] = [0, {self.n / 2}], got {self.size}"
            )
        object.__setattr__(self, "lam", _as_fraction(self.lam))
        object.__setattr__(self, "c", _as_fraction(self.c))
        if self.lam < 0:
            raise DomainError(f"lambda must be nonnegative, got {self.lam}")

    @property
    def alpha(self) -> Fraction:
        return Fraction(2 * self.size, self.n)


def binary_entropy(x) -> mpf:
    """H(x) = -x log2 x - (1-x) log2 (1-x), with H(0) = H(1) = 0."""
    xf = _as_fraction(x) if isinstance(x, (int, Fraction)) else None
    xv = _mpf_of(xf) if xf is not None else mpf(x)
    if not 0 <= xv <= 1:
        raise DomainError(f"entropy argument must lie in [0,1], got {x}")
    if xv == 0 or xv == 1:
        return mpf(0)
    return -xv * log2(xv) - (1 - xv) * log2(1 - xv)


def match_pf_upper(n: int, d: int, lam) -> Cleared:
    """match-pf-upper: Z_m(lambda)^2 <= (1 + d lambda)^n."""
    return Cleared(2, (1 + d * lam) ** n)


def match_pf_gurvits(edges: int, nu: int, lam) -> Cleared:
    """match-pf-gurvits: Z_m(lambda) <= (1 + lambda |E| / nu)^nu, with nu the
    maximum matching size."""
    return Cleared(1, (1 + lam * Fraction(edges, nu)) ** nu)


def ind_pf_upper_general(n: int, d: int, lam) -> Cleared:
    """ind-pf-upper-general: Z_i(lambda)^(2d) <= 2^(2n) (1 + lambda)^(nd)."""
    return Cleared(2 * d, 4**n * (1 + lam) ** (n * d))


def ind_pf_upper_bipartite(n: int, d: int, lam) -> Cleared:
    """ind-pf-upper-bipartite: Z_i(lambda)^(2d) <= (2 (1 + lambda)^d - 1)^n,
    for bipartite graphs."""
    return Cleared(2 * d, (2 * (1 + lam) ** d - 1) ** n)


def bregman_pm(n: int, d: int) -> Cleared:
    """bregman-pm: pm^(2d) <= (d!)^n for the perfect matchings of a bipartite
    d-regular graph."""
    return Cleared(2 * d, math.factorial(d) ** n)


def single_term(bound: Cleared, size: int, lam) -> Cleared:
    """The single-term extraction: Z(lambda) >= c_s lambda^s, so a bound
    Z^k * cofactor <= rhs on a partition function gives
    c_s^k * (cofactor lambda^(ks)) <= rhs on its size-s coefficient."""
    return Cleared(bound.k, bound.rhs, bound.cofactor * Fraction(lam) ** (bound.k * size))


def match_count_upper(n: int, d: int, ell: int) -> Cleared:
    """match-count-upper: single_term(match_pf_upper(n, d, lam), ell, lam) at
    lam = 2ell / (d(n - 2ell)) (optimal_lambda), both sides multiplied by
    d^(2ell) (n - 2ell)^n:  m_ell^2 (2ell)^(2ell) (n - 2ell)^(n - 2ell) <=
    d^(2ell) n^n.  With 0^0 = 1 it holds at ell = 0 and, in the limit of
    large lam, at ell = n/2."""
    rest = n - 2 * ell
    return Cleared(2, d ** (2 * ell) * n**n, (2 * ell) ** (2 * ell) * rest**rest)


def ind_count_upper_general(n: int, d: int, t: int) -> Cleared:
    """ind-count-upper-general: single_term(ind_pf_upper_general(n, d, lam),
    t, lam) at lam = 2t / (n - 2t) (occupancy_lambda), both sides multiplied
    by (n - 2t)^(nd):  i_t^(2d) ((2t)^(2t) (n - 2t)^(n - 2t))^d <= 2^(2n) n^(nd).
    With 0^0 = 1 it holds at t = 0 and, in the limit of large lam, at
    t = n/2."""
    rest = n - 2 * t
    return Cleared(2 * d, 4**n * n ** (n * d), ((2 * t) ** (2 * t) * rest**rest) ** d)


def matching_partition_upper(p: BoundParams) -> LogBound:
    """Upper bound (n/2) log2(1 + d*lambda) on the matching partition function."""
    return match_pf_upper(p.n, p.d, p.lam).log_bound()


def optimal_lambda(p: BoundParams) -> Fraction:
    """The weight ell/(d(n/2 - ell)) minimizing the single-term extraction bound."""
    if p.d < 1:
        raise DomainError(f"need d >= 1, got {p.d}")
    if not 0 < p.size < p.n / 2:
        raise DomainError(
            f"optimal lambda is degenerate at size {p.size} (needs 0 < size < n/2)"
        )
    return Fraction(2 * p.size, p.d * (p.n - 2 * p.size))


def matching_count_upper(p: BoundParams) -> LogBound:
    """Upper bound (n/2)(alpha log2 d + H(alpha)) on log2 of the size-ell matching count."""
    if p.d < 1:
        raise DomainError(f"need d >= 1, got {p.d}")
    return match_count_upper(p.n, p.d, p.size).log_bound()


def union_matching_lower_explicit(p: BoundParams) -> LogBound:
    """Explicit part of the matching lower bound on the K_{d,d}-union reference
    graph: (n/2)[alpha log2 d + 2H(alpha) + alpha log2(alpha/e)].

    The remaining correction term of order log(d)/d carries an unspecified
    constant, so it is never fabricated here; callers report the measured gap
    against the exact count instead.
    """
    if p.d < 1:
        raise DomainError(f"need d >= 1, got {p.d}")
    a = p.alpha
    if a == 0 or a == 1:
        raise DomainError(f"alpha must lie strictly inside (0,1), got {a}")
    av = _mpf_of(a)
    value = (
        mpf(p.n)
        / 2
        * (av * log2(p.d) + 2 * binary_entropy(a) + av * (log2(a) - _LOG2E))
    )
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


def stirling_rhs(d: int, a: int, c) -> mpf:
    """Right side of the per-copy Stirling-style estimate:
    a log2 d + a log2(a/d) - a log2 e + 2 H(a/d) d - log2(c d)."""
    if d < 1 or not 0 <= a <= d:
        raise DomainError(f"need 1 <= d and 0 <= a <= d, got d={d}, a={a}")
    c = _as_fraction(c)
    if c < 1:
        raise DomainError(f"need c >= 1, got {c}")
    if a == 0:
        main = mpf(0)
    else:
        af = Fraction(a, d)
        main = a * log2(d) + a * log2(af) - a * _LOG2E + 2 * binary_entropy(af) * d
    return main - log2(c * d)


def stirling_term_check(d: int, a: int, c) -> bool:
    """Does log2(binom(d,a)^2 a!) dominate the Stirling-style right side?"""
    lhs = log2(math.comb(d, a) ** 2 * math.factorial(a))
    return lhs >= stirling_rhs(d, a, c)


def profile_matching_lower(n: int, d: int, profile, c) -> LogBound:
    """Lower bound on log2 of the size-ell matching count of the K_{d,d} union,
    summing the Stirling-style estimate over one witness profile.

    Valid whenever stirling_term_check(d, a, c) holds for every a in the
    profile; the acceptance suite pins such a c.
    """
    value = mpf(0)
    for a in profile:
        value += stirling_rhs(d, a, c)
    return LogBound(value, LOWER)


def gurvits_bound(g: Graph, lam) -> LogBound:
    """Upper bound nu * log2(1 + lambda |E| / nu) on the matching partition
    function, with nu the degree of the matching polynomial."""
    lam = _as_fraction(lam)
    if lam < 0:
        raise DomainError(f"lambda must be nonnegative, got {lam}")
    if g.edge_count == 0:
        raise DomainError("gurvits_bound needs at least one edge")
    return match_pf_gurvits(g.edge_count, matching_polynomial(g).degree, lam).log_bound()


def independent_partition_upper(p: BoundParams, bipartite: bool) -> LogBound:
    """Upper bound on the independent-set partition function.

    bipartite: (n/2d) log2(2(1+lambda)^d - 1); general: n/d + (n/2) log2(1+lambda).
    """
    if p.d < 1:
        raise DomainError(f"need d >= 1, got {p.d}")
    bound = ind_pf_upper_bipartite if bipartite else ind_pf_upper_general
    return bound(p.n, p.d, p.lam).log_bound()


GENERAL = "general"
BIPARTITE = "bipartite"
PERFECT_MATCHING = "perfect-matching"


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


def independent_count_upper(p: BoundParams, variant: str) -> LogBound:
    """Upper bound on log2 of the size-t independent-set count.

    general:          (n/2)(H(2t/n) + 2/d)
    bipartite:        (n/2)(H(2t/n) + 1/d - (log2 e / 2d)(1 - 2t/n)^d)
    perfect-matching: t + log2 binom(n/2, t)
    Variant applicability (bipartiteness, a perfect matching) is the caller's
    duty.  At t = n/2 the entropy term vanishes and each formula is evaluated
    as written.
    """
    t = p.size
    if variant == PERFECT_MATCHING:
        return LogBound(log2(Fraction(independent_upper_pm_exact(p.n, t))), UPPER)
    if p.d < 1:
        raise DomainError(f"need d >= 1, got {p.d}")
    if variant == GENERAL:
        return ind_count_upper_general(p.n, p.d, t).log_bound()
    if variant == BIPARTITE:
        half = mpf(p.n) / 2
        ent = binary_entropy(p.alpha)
        miss = _mpf_of(1 - p.alpha) ** p.d
        return LogBound(
            half * (ent + mpf(1) / p.d - _LOG2E / (2 * p.d) * miss), UPPER
        )
    raise DomainError(f"unknown variant {variant!r}")


MARKOV = "markov"
SMALL_T = "small-t"


def union_small_t_exact(n: int, d: int, t: int) -> int:
    """Exact count (2d)^t binom(n/2d, t) of the scattered independent sets:
    one vertex in each of t distinct K_{d,d} copies."""
    if d < 1 or n % (2 * d) != 0:
        raise DivisibilityError(f"need 2d | n with d >= 1, got n={n}, d={d}")
    copies = n // (2 * d)
    if not 0 <= t <= copies:
        raise DomainError(f"small-t bound needs t <= {copies}, got {t}")
    return (2 * d) ** t * math.comb(copies, t)


def union_independent_lower(p: BoundParams, variant: str) -> LogBound:
    """Lower bound on log2 of the size-t independent-set count of the
    K_{d,d} union.

    markov:  log2[(1 - 1/c) binom(n/2, t)] + (n/2)(1/d - (c/d)(1 - 2t/n)^d)
    small-t: log2[2^t binom(n/2, t) prod_{k=1}^{t-1}(1 - 2kd/n)], for t <= n/2d
    """
    if p.d < 1:
        raise DomainError(f"need d >= 1, got {p.d}")
    t = p.size
    if variant == MARKOV:
        if p.c <= 1:
            raise DomainError(f"Markov constant must exceed 1, got {p.c}")
        head = log2(Fraction(1 - Fraction(1, p.c)) * math.comb(p.n // 2, t))
        tail = (
            mpf(p.n)
            / 2
            * (mpf(1) / p.d - _mpf_of(p.c) / p.d * _mpf_of(1 - p.alpha) ** p.d)
        )
        return LogBound(head + tail, LOWER)
    if variant == SMALL_T:
        if p.n % (2 * p.d) != 0:
            raise DivisibilityError(f"need 2d | n, got n={p.n}, d={p.d}")
        if t > p.n // (2 * p.d):
            raise DomainError(
                f"small-t bound needs t <= {p.n // (2 * p.d)}, got {t}"
            )
        value = mpf(t) + log2(Fraction(math.comb(p.n // 2, t)))
        for k in range(1, t):
            value += log2(1 - Fraction(2 * k * p.d, p.n))
        return LogBound(value, LOWER)
    raise DomainError(f"unknown variant {variant!r}")


def block_miss_stats(p: BoundParams) -> tuple[Fraction, Fraction]:
    """Expected number of d-blocks missed by a random t-subset of n/2 items:
    exact mu = (n/2d) binom(n/2-d, t)/binom(n/2, t), and its analytic bound
    (n/2d)(1 - 2t/n)^d.  Both are rational, so the comparison is exact."""
    if p.d < 1 or p.n % (2 * p.d) != 0:
        raise DivisibilityError(f"need 2d | n with d >= 1, got n={p.n}, d={p.d}")
    half = p.n // 2
    t = p.size
    mu = Fraction(p.n, 2 * p.d) * Fraction(math.comb(half - p.d, t), math.comb(half, t))
    bound = Fraction(p.n, 2 * p.d) * (1 - p.alpha) ** p.d
    return mu, bound
