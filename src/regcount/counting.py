"""Exact matching/independence polynomials, partition-function evaluation,
and homomorphism counting.

Every count is an arbitrary-precision integer; no floating point enters this
module.  Every count comes from a dynamic program that places the graph's
vertices in breadth-first order, with a table local to each call; none needs
canonical labels or keeps a cache between calls.  Both polynomials share one
DP over induced vertex subsets, and homomorphisms are counted by a DP over
the images of the placed vertices that still have an unplaced neighbour.
Inputs whose DP would reach more than DP_STATE_LIMIT states (in all for the
polynomials, in one table for homomorphisms) raise ScaleError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, GraphError, ScaleError
from .graphs import Graph, adjacency_masks

# Cap on the states a counting DP may reach: vertex subsets in one call of
# the polynomial DP, frontier images in one table of the homomorphism DP.
DP_STATE_LIMIT = 1_000_000

_TOO_MANY_STATES = (
    f"instance too large: the counting DP needs more than {DP_STATE_LIMIT} states"
)

MATCHING = "matching"
INDEPENDENT_SET = "independent-set"


@dataclass(frozen=True)
class CountPolynomial:
    """coefficients[k] = exact number of size-k objects; trailing zeros trimmed."""

    coefficients: tuple[int, ...]
    kind: str

    def coefficient(self, k: int) -> int:
        if k < 0:
            raise DomainError(f"size must be nonnegative, got {k}")
        return self.coefficients[k] if k < len(self.coefficients) else 0

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def to_json_strings(self) -> list[str]:
        return [str(c) for c in self.coefficients]


def _bfs_order(adj: tuple[int, ...]) -> tuple[int, ...]:
    """Vertices in breadth-first order, each component searched from its
    lowest unvisited vertex."""
    order: list[int] = []
    seen = 0
    for root in range(len(adj)):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        queue = [root]
        for v in queue:
            fresh = adj[v] & ~seen
            seen |= fresh
            while fresh:
                queue.append((fresh & -fresh).bit_length() - 1)
                fresh &= fresh - 1
        order.extend(queue)
    return tuple(order)


def _relabel(adj: tuple[int, ...], order: tuple[int, ...]) -> tuple[int, ...]:
    """Adjacency masks with vertex order[i] renamed i, built from the set bits
    of each mask, so in time proportional to the edges."""
    index = [0] * len(adj)
    for i, v in enumerate(order):
        index[v] = i
    out = []
    for v in order:
        m = 0
        rest = adj[v]
        while rest:
            low = rest & -rest
            m |= 1 << index[low.bit_length() - 1]
            rest ^= low
        out.append(m)
    return tuple(out)


def _subset_dp(g: Graph, kind: str) -> tuple[int, ...]:
    """Count polynomial of a loop-free graph by a DP over vertex subsets.

    Each step takes out the lowest vertex v of the remaining set S:
      matching:      M(S) = M(S - v) + x * sum_{u in N(v) & S} M(S - v - u)
      independence:  I(S) = I(S - v) + x * I(S - N[v])
    The table runs forward from S = V, so a state's weight counts the partial
    matchings (independent sets) that leave S; states are kept by their
    lowest vertex and expanded in vertex order, each once.  Vertices are
    renumbered in breadth-first order first, which keeps the reachable S few
    while the search frontier is narrow.

    A weight is a polynomial packed into one integer, `width` bits per
    coefficient: no partial count exceeds the graph's number of matchings
    (< 2^|E|) or independent sets (< 2^n), so no coefficient spills over.

    The path that takes nothing visits one state per vertex, so a graph with
    more than DP_STATE_LIMIT vertices is refused before anything is built.
    """
    n = g.vertex_count
    if n > DP_STATE_LIMIT:
        raise ScaleError(_TOO_MANY_STATES)
    adj = adjacency_masks(g)
    adj = _relabel(adj, _bfs_order(adj))
    if kind == MATCHING:
        width = sum(m.bit_count() for m in adj) // 2 + 1
    else:
        width = n + 1
    # pending[v]: the states whose lowest vertex is v.  The empty set has
    # (0 & -0).bit_length() - 1 == -1, so it lands in pending[n], the last.
    pending: list[dict[int, int]] = [{} for _ in range(n + 1)]
    pending[0][(1 << n) - 1] = 1
    states = 1
    for v in range(n):
        bit = 1 << v
        nbrs = adj[v]
        for s, w in pending[v].items():
            if states > DP_STATE_LIMIT:
                raise ScaleError(_TOO_MANY_STATES)
            rest = s ^ bit
            succ = [(rest, w)]
            w <<= width
            if kind == MATCHING:
                m = nbrs & rest
                while m:
                    low = m & -m
                    m ^= low
                    succ.append((rest ^ low, w))
            else:
                succ.append((rest & ~nbrs, w))
            for t, x in succ:
                table = pending[(t & -t).bit_length() - 1]
                if t in table:
                    table[t] += x
                else:
                    table[t] = x
                    states += 1
        pending[v] = {}
    packed = pending[-1][0]
    mask = (1 << width) - 1
    coeffs = []
    while packed:
        coeffs.append(packed & mask)
        packed >>= width
    return tuple(coeffs)


def matching_polynomial(g: Graph) -> CountPolynomial:
    """coefficients[k] = number of k-edge matchings of g."""
    if any(u == v for u, v in g.edges):
        raise GraphError("matching_polynomial requires a loop-free graph")
    return CountPolynomial(_subset_dp(g, MATCHING), MATCHING)


def independence_polynomial(g: Graph) -> CountPolynomial:
    """coefficients[t] = number of independent vertex sets of size t."""
    if any(u == v for u, v in g.edges):
        raise GraphError("independence_polynomial requires a loop-free graph")
    return CountPolynomial(_subset_dp(g, INDEPENDENT_SET), INDEPENDENT_SET)


def eval_partition(p: CountPolynomial, lam) -> Fraction:
    """Exact partition-function value sum_k coeff_k * lam^k at rational lam >= 0."""
    lam = Fraction(lam)
    if lam < 0:
        raise DomainError(f"lambda must be nonnegative, got {lam}")
    # Horner's rule on sum_k coeff_k num^k den^(m - k), m the degree.
    num, den = lam.numerator, lam.denominator
    total, scale = 0, 1
    for c in reversed(p.coefficients):
        total = total * num + c * scale
        scale *= den
    return Fraction(total * den, scale)


def count_homomorphisms(g: Graph, h: Graph) -> int:
    """Number of adjacency-preserving maps V(g) -> V(h).

    A loop on w in h permits mapping adjacent source vertices to w.  The
    source must be loop-free.  The maps are counted by a DP that places the
    source's vertices in breadth-first order: its table maps the images of
    the frontier (the placed vertices that still have an unplaced neighbour)
    to the number of partial maps that agree with them.  Placing v
    intersects the target neighbourhoods of the images of v's placed
    neighbours, which all lie in the frontier, and a vertex leaves the key
    once its last neighbour is placed.  A component or an isolated vertex
    starts from an empty frontier and so needs no special case.  A table of
    more than DP_STATE_LIMIT frontier images raises ScaleError.
    """
    if any(u == v for u, v in g.edges):
        raise GraphError("count_homomorphisms requires a loop-free source graph")
    n, nh = g.vertex_count, h.vertex_count
    if n == 0:
        return 1
    if nh == 0:
        return 0
    # Target adjacency with loops folded in as self-bits.
    hadj = [0] * nh
    for u, v in h.edges:
        hadj[u] |= 1 << v
        hadj[v] |= 1 << u
    full = (1 << nh) - 1
    adj = adjacency_masks(g)
    order = _bfs_order(adj)
    step = [0] * n
    for i, v in enumerate(order):
        step[v] = i
    # leave[v]: the step after which v is in no key, the later of its own
    # step and its last neighbour's.
    leave = step[:]
    for u, v in g.edges:
        leave[u] = max(leave[u], step[v])
        leave[v] = max(leave[v], step[u])
    frontier: list[int] = []
    table: dict[tuple[int, ...], int] = {(): 1}
    for i, v in enumerate(order):
        # Key positions of v's placed neighbours, and of the vertices kept.
        nbrs = [j for j, u in enumerate(frontier) if adj[v] >> u & 1]
        keep = [j for j, u in enumerate(frontier) if leave[u] > i]
        frontier = [frontier[j] for j in keep]
        stays = leave[v] > i
        if stays:
            frontier.append(v)
        nxt: dict[tuple[int, ...], int] = {}
        for key, count in table.items():
            cand = full
            for j in nbrs:
                cand &= hadj[key[j]]
            if not cand:
                continue
            base = tuple([key[j] for j in keep])
            if stays:
                while cand:
                    low = cand & -cand
                    cand ^= low
                    t = base + (low.bit_length() - 1,)
                    nxt[t] = nxt.get(t, 0) + count
            else:
                nxt[base] = nxt.get(base, 0) + count * cand.bit_count()
            if len(nxt) > DP_STATE_LIMIT:
                raise ScaleError(
                    f"instance too large: the homomorphism DP needs more than "
                    f"{DP_STATE_LIMIT} frontier states"
                )
        if not nxt:
            return 0
        table = nxt
    return table[()]
