"""Exact matching/independence polynomials, partition-function evaluation,
brute-force oracles, and homomorphism counting.

Every count is an arbitrary-precision integer; no floating point enters this
module.  Both polynomials come from one dynamic program over induced vertex
subsets, run in breadth-first vertex order with a table local to each call;
it needs no canonical labels and keeps no cache between calls.  Inputs whose
DP would reach more than DP_STATE_LIMIT states raise ScaleError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from ._canon import induced_masks
from .errors import DomainError, GraphError, ScaleError
from .graphs import Graph, adjacency_masks

# Cap on the vertex subsets (states) the counting DP may reach in one call.
DP_STATE_LIMIT = 1_000_000
# Guard for the subset-enumeration oracle: number of subsets actually walked.
BRUTE_FORCE_SUBSET_LIMIT = 40_000_000
HOM_SEARCH_LIMIT = 10**12

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


def _components(adj: tuple[int, ...]) -> list[tuple[int, ...]]:
    n = len(adj)
    seen = 0
    comps = []
    for root in range(n):
        if seen >> root & 1:
            continue
        frontier = 1 << root
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            m = frontier
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                nxt |= adj[v]
            frontier = nxt & ~comp
        seen |= comp
        comps.append(tuple(v for v in range(n) if comp >> v & 1))
    return comps


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


def _subset_dp(adj: tuple[int, ...], kind: str) -> tuple[int, ...]:
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
    """
    adj = induced_masks(adj, _bfs_order(adj))
    n = len(adj)
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
                raise ScaleError(
                    f"instance too large: the counting DP needs more than "
                    f"{DP_STATE_LIMIT} states"
                )
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
    return CountPolynomial(_subset_dp(adjacency_masks(g), MATCHING), MATCHING)


def independence_polynomial(g: Graph) -> CountPolynomial:
    """coefficients[t] = number of independent vertex sets of size t."""
    if any(u == v for u, v in g.edges):
        raise GraphError("independence_polynomial requires a loop-free graph")
    return CountPolynomial(
        _subset_dp(adjacency_masks(g), INDEPENDENT_SET), INDEPENDENT_SET
    )


def eval_partition(p: CountPolynomial, lam) -> Fraction:
    """Exact partition-function value sum_k coeff_k * lam^k at rational lam >= 0."""
    lam = Fraction(lam)
    if lam < 0:
        raise DomainError(f"lambda must be nonnegative, got {lam}")
    total = Fraction(0)
    power = Fraction(1)
    for c in p.coefficients:
        total += c * power
        power *= lam
    return total


def brute_force_count(g: Graph, kind: str, size: int) -> int:
    """Independent oracle: enumerate all size-subsets and test the property.

    Deliberately ignorant of the recursion machinery above.  The feasibility
    guard caps the number of enumerated subsets rather than raw edge/vertex
    counts, so dense-but-small instances (K_10 and friends) stay in reach.
    """
    if size < 0:
        raise DomainError(f"size must be nonnegative, got {size}")
    if any(u == v for u, v in g.edges):
        raise GraphError("brute_force_count requires a loop-free graph")
    if kind == MATCHING:
        pool = [((1 << u) | (1 << v)) for u, v in g.sorted_edges()]
    elif kind == INDEPENDENT_SET:
        pool = list(range(g.vertex_count))
    else:
        raise DomainError(f"unknown kind {kind!r}")
    if size > len(pool):
        return 0
    if math.comb(len(pool), size) > BRUTE_FORCE_SUBSET_LIMIT:
        raise ScaleError(
            f"instance too large: C({len(pool)}, {size}) subsets exceed "
            f"the enumeration limit"
        )
    count = 0
    if kind == MATCHING:
        for combo in combinations(pool, size):
            acc = 0
            for mask in combo:
                if acc & mask:
                    break
                acc |= mask
            else:
                count += 1
    else:
        adj = adjacency_masks(g)
        for combo in combinations(pool, size):
            acc = 0
            for v in combo:
                if adj[v] & acc:
                    break
                acc |= 1 << v
            else:
                count += 1
    return count


def count_homomorphisms(g: Graph, h: Graph) -> int:
    """Number of adjacency-preserving maps V(g) -> V(h).

    A loop on w in h permits mapping adjacent source vertices to w.  The
    source must be loop-free.  Counts factor over source components;
    within a component a BFS order keeps the backtracking pruned.
    """
    if any(u == v for u, v in g.edges):
        raise GraphError("count_homomorphisms requires a loop-free source graph")
    nh = h.vertex_count
    if nh ** max(g.vertex_count, 1) > HOM_SEARCH_LIMIT:
        raise ScaleError(
            f"instance too large: {nh}^{g.vertex_count} assignments exceed "
            f"the search limit"
        )
    if g.vertex_count == 0:
        return 1
    if nh == 0:
        return 0
    gadj = adjacency_masks(g)
    # Target adjacency with loops folded in as self-bits.
    hadj = [0] * nh
    for u, v in h.edges:
        hadj[u] |= 1 << v
        hadj[v] |= 1 << u
    full = (1 << nh) - 1

    total = 1
    for verts in _components(gadj):
        if len(verts) == 1:
            total *= nh
            continue
        sub = induced_masks(gadj, verts)
        k = len(sub)
        # BFS order: after the root, every vertex has an assigned neighbor.
        order = [0]
        placed = 1
        while len(order) < k:
            frontier = [
                w
                for w in range(k)
                if not placed >> w & 1 and any(sub[w] >> x & 1 for x in order)
            ]
            order.extend(frontier)
            for w in frontier:
                placed |= 1 << w
        assigned_images = [0] * k

        def walk(pos: int) -> int:
            if pos == k:
                return 1
            v = order[pos]
            cand = full
            for u in order[:pos]:
                if sub[v] >> u & 1:
                    cand &= hadj[assigned_images[u]]
            found = 0
            m = cand
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                assigned_images[v] = w
                found += walk(pos + 1)
            return found

        total *= walk(0)
        if total == 0:
            return 0
    return total
