"""Exact matching/independence polynomials, partition-function evaluation,
and homomorphism counting.

Every count is an arbitrary-precision integer; no floating point enters this
module.  Every count comes from one dynamic program, _subset_dp, that places
the source's vertices one at a time in graphs.placement_order, with a table
local to each call; it needs no canonical labels and keeps no cache between
calls.  Its state records, for each unplaced vertex, what is still open to
it: whether it is still free, for the two polynomials, or the target
vertices it may still map to, for homomorphisms.  Inputs whose DP would
reach more than DP_STATE_LIMIT states in all raise ScaleError.  The DP reads
each graph's adjacency masks, Graph.adj, as they are stored.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError, GraphError, ScaleError
from .graphs import DP_STATE_LIMIT, Graph, placement_order, relabel

_TOO_MANY_STATES = (
    f"instance too large: the counting DP needs more than {DP_STATE_LIMIT} states"
)

MATCHING = "matching"
INDEPENDENT_SET = "independent-set"
HOMOMORPHISM = "homomorphism"


class CountPolynomial(namedtuple("CountPolynomial", "coefficients kind")):
    """coefficients[k] = exact number of size-k objects, a tuple of ints with
    trailing zeros trimmed; kind is MATCHING or INDEPENDENT_SET."""

    __slots__ = ()

    def coefficient(self, k: int) -> int:
        if k < 0:
            raise DomainError(f"size must be nonnegative, got {k}")
        return self.coefficients[k] if k < len(self.coefficients) else 0

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def to_json_strings(self) -> list[str]:
        return [str(c) for c in self.coefficients]


def _subset_dp(
    g: Graph, kind: str, refusal: str, target: Graph | None = None, width: int = 1
) -> int:
    """The weight of the empty state of a DP over the unplaced vertices of a
    loop-free graph; GraphError(refusal) if g has a loop.

    Vertices are renamed in placement order first, which keeps the states
    few while the search frontier is narrow.  A state is one int with a slot
    of `slot` bits per vertex.  The slot's lowest bit is set while the vertex
    is unplaced, so for the polynomials, whose slot is that bit alone, the
    state is the remaining set S.  For homomorphisms the |V(target)| bits above
    it hold the target vertices still open to the vertex: the intersection
    of the target neighbourhoods of its placed neighbours' images.  Each step
    takes out the lowest unplaced vertex v:
      matching:      M(S) = M(S - v) + x * sum_{u in N(v) & S} M(S - v - u)
      independence:  I(S) = I(S - v) + x * I(S - N[v])
      homomorphism:  v takes an open image c, and each later neighbour keeps
                     only the images adjacent to c.
    The table runs forward from the state with every slot full, so a state's
    weight counts the partial matchings (independent sets, maps) that lead
    to it; states are kept by their lowest set bit and expanded in vertex
    order, each once.  Images that leave the same slots move together, so a
    vertex with no later neighbour adds weight x open images to one state.
    A map that leaves a later neighbour no image cannot be extended, so it is
    dropped at once rather than carried to that neighbour.

    A polynomial weight is packed into one integer, `width` bits per
    coefficient, as _polynomial unpacks it.

    The path that takes nothing visits one state per vertex, so a graph with
    more than DP_STATE_LIMIT vertices is refused before anything is built.
    """
    n = g.vertex_count
    if n > DP_STATE_LIMIT:
        raise ScaleError(_TOO_MANY_STATES)
    if any(m >> v & 1 for v, m in enumerate(g.adj)):
        raise GraphError(refusal)
    adj = relabel(g.adj, placement_order(g.adj))
    if kind == HOMOMORPHISM:
        hadj = target.adj
        full = (1 << len(hadj)) - 1
        slot = len(hadj) + 1
    else:
        slot = 1
    # pending[i]: the states whose lowest set bit is i, the first bit of the
    # lowest unplaced vertex's slot.  The empty state has
    # (0 & -0).bit_length() - 1 == -1, so it lands in pending[n * slot], the last.
    pending: list[dict[int, int]] = [{} for _ in range(n * slot + 1)]
    pending[0][(1 << n * slot) - 1] = 1
    states = 1
    for v in range(n):
        shift = v * slot
        bit = 1 << v
        nbrs = adj[v]
        if kind == HOMOMORPHISM:
            # later: the offsets of the image bits of v's later neighbours.
            # moves: each mask that an image c leaves on them, clearing the
            # images outside hadj[c], with every c that leaves it.
            later = []
            m = nbrs >> v + 1
            while m:
                low = m & -m
                m ^= low
                later.append((v + low.bit_length()) * slot + 1)
            moves: dict[int, int] = {}
            for c, hn in enumerate(hadj):
                keep = ~sum((full ^ hn) << u for u in later)
                moves[keep] = moves.get(keep, 0) | 1 << c
        for s, w in pending[shift].items():
            if states > DP_STATE_LIMIT:
                raise ScaleError(_TOO_MANY_STATES)
            if kind == MATCHING:
                rest = s ^ bit
                succ = [(rest, w)]
                w <<= width
                m = nbrs & rest
                while m:
                    low = m & -m
                    m ^= low
                    succ.append((rest ^ low, w))
            elif kind == INDEPENDENT_SET:
                rest = s ^ bit
                succ = [(rest, w), (rest & ~nbrs, w << width)]
            else:
                images = s >> shift + 1 & full
                rest = s >> shift + slot << shift + slot
                succ = []
                for keep, members in moves.items():
                    kept = rest & keep
                    k = (images & members).bit_count()
                    if k and all(kept >> u & full for u in later):
                        succ.append((kept, w * k))
            for t, x in succ:
                table = pending[(t & -t).bit_length() - 1]
                if t in table:
                    table[t] += x
                else:
                    table[t] = x
                    states += 1
        pending[shift] = {}
    return pending[-1].get(0, 0)


def _polynomial(g: Graph, kind: str, refusal: str) -> CountPolynomial:
    """The count polynomial of the given kind, unpacked from _subset_dp's
    weight at width bits a coefficient: no partial count exceeds the number
    of matchings (< 2^|E|) or independent sets (< 2^n) of g."""
    width = g.edge_count + 1 if kind == MATCHING else g.vertex_count + 1
    packed = _subset_dp(g, kind, refusal, width=width)
    mask = (1 << width) - 1
    coeffs = []
    while packed:
        coeffs.append(packed & mask)
        packed >>= width
    return CountPolynomial(tuple(coeffs), kind)


def matching_polynomial(g: Graph) -> CountPolynomial:
    """coefficients[k] = number of k-edge matchings of g."""
    return _polynomial(g, MATCHING, "matching_polynomial requires a loop-free graph")


def independence_polynomial(g: Graph) -> CountPolynomial:
    """coefficients[t] = number of independent vertex sets of size t."""
    refusal = "independence_polynomial requires a loop-free graph"
    return _polynomial(g, INDEPENDENT_SET, refusal)


def eval_partition(p: CountPolynomial, lam):
    """Exact partition-function value sum_k coeff_k * lam^k at rational lam >= 0,
    as a Fraction, through poly.evaluate (imported here, as count never calls it)."""
    from fractions import Fraction

    from .poly import evaluate

    lam = Fraction(lam)
    if lam < 0:
        raise DomainError(f"lambda must be nonnegative, got {lam}")
    num, den = lam.numerator, lam.denominator
    return Fraction(evaluate(p.coefficients, num, den), den ** max(p.degree, 0))


def count_homomorphisms(g: Graph, h: Graph) -> int:
    """Number of adjacency-preserving maps V(g) -> V(h).

    A loop on w in h permits mapping adjacent source vertices to w.  The
    source must be loop-free.  The maps are counted by _subset_dp, whose
    state holds the images still open to each unplaced vertex.
    """
    refusal = "count_homomorphisms requires a loop-free source graph"
    return _subset_dp(g, HOMOMORPHISM, refusal, h)
