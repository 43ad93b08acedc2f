"""Exhaustive generation of d-regular graphs, with isomorph rejection.

The search builds the adjacency matrix one vertex at a time: the column of
vertex k is its neighbor set among 0..k-1.  Degree-residual feasibility checks
prune branches that cannot complete to a d-regular graph on n vertices.

With isomorph rejection on, the search additionally keeps only prefixes whose
identity ordering achieves the lexicographically maximal column code among all
orderings of the partial graph.  Any completed graph then carries its own
canonical ordering, so each isomorphism class is emitted exactly once: the
maximal full code must maximize every prefix, hence the canonical ordering of
any d-regular graph survives every prefix check, and two surviving leaves are
never isomorphic because each equals its class's unique maximal matrix.  A
plain generate-then-dedup pass over all labeled graphs would visit billions of
leaves already at n = 12, d = 3.

Emission is not re-checked at run time: the guarantee above is a property
of the search, not of any input, so a per-leaf duplicate check would only
re-prove it on every run.  The tests prove it on censuses up to 12 vertices
instead, through the automorphism-orbit identity, the published census sizes,
the subset oracle and pairwise-distinct canonical labels.

The public canonical_form reports the lexicographically minimal adjacency
bit-string (computed in _canon via the complement identity), which is the
label contract the rest of the package relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from ._canon import min_code
from .errors import DomainError, ScaleError
from .graphs import Graph, adjacency_masks, bipartition

ISO_VERTEX_LIMIT = 14
CANONICAL_FORM_LIMIT = 12


@dataclass(frozen=True)
class GenSpec:
    n: int
    d: int
    bipartite_only: bool = False
    isomorph_reject: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need n >= 1, got {self.n}")
        if not 0 <= self.d < self.n:
            raise DomainError(f"need 0 <= d < n, got d={self.d}, n={self.n}")
        if self.n * self.d % 2 != 0:
            raise DomainError(
                f"parity violation: n*d must be even, got n={self.n}, d={self.d}"
            )
        if self.isomorph_reject and self.n > ISO_VERTEX_LIMIT:
            raise ScaleError(
                f"isomorph rejection supports n <= {ISO_VERTEX_LIMIT}, got {self.n}"
            )


def _beats_identity(k: int, adj: list[int], cols_rev: list[int]) -> bool:
    """Is there an ordering of the k placed vertices whose column code exceeds
    the identity ordering's code?  Columns compare as integers with the
    earliest-placed vertex in the highest bit.  Candidates that are twins of
    an already-tried candidate are skipped: swapping twins is an automorphism,
    so their subtrees reach the same codes."""
    order: list[int] = []
    used = 0

    def dfs(pos: int) -> bool:
        nonlocal used
        if pos == k:
            return False
        target = cols_rev[pos]
        tried: list[int] = []
        for v in range(k):
            if used >> v & 1:
                continue
            av = adj[v]
            if any(
                (av & ~(1 << w)) == (adj[w] & ~(1 << v)) for w in tried
            ):
                continue
            col = 0
            for i, u in enumerate(order):
                if av >> u & 1:
                    col |= 1 << (pos - 1 - i)
            if col > target:
                return True
            if col == target:
                tried.append(v)
                order.append(v)
                used |= 1 << v
                hit = dfs(pos + 1)
                order.pop()
                used &= ~(1 << v)
                if hit:
                    return True
        return False

    return dfs(0)


def _regular_stream(n: int, d: int, iso: bool) -> Iterator[Graph]:
    adj = [0] * n
    degs = [0] * n
    # Column of vertex k (its neighbors among 0..k-1), keyed for
    # lexicographic order: vertex 0 in the highest bit.
    cols_rev: list[int] = [0] * n

    def place(k: int) -> Iterator[Graph]:
        if k == n:
            edges = []
            for v in range(n):
                m = adj[v] & ((1 << v) - 1)
                while m:
                    u = (m & -m).bit_length() - 1
                    m &= m - 1
                    edges.append((u, v))
            yield Graph(n, frozenset(edges))
            return
        m_future = n - k - 1
        eligible = [j for j in range(k) if degs[j] < d]
        candidates: list[tuple[int, tuple[int, ...]]] = []
        for size in range(min(d, len(eligible)) + 1):
            for subset in combinations(eligible, size):
                rev = 0
                for j in subset:
                    rev |= 1 << (k - 1 - j)
                candidates.append((rev, subset))
        candidates.sort(reverse=True)
        for rev, subset in candidates:
            # Residual feasibility: placed vertices can only reach future ones.
            back = len(subset)
            residuals_ok = d - back <= m_future
            if residuals_ok:
                total_resid = d - back
                for j in range(k):
                    r = d - degs[j] - (1 if j in subset else 0)
                    if r > m_future:
                        residuals_ok = False
                        break
                    total_resid += r
            if not residuals_ok:
                continue
            if total_resid > m_future * d:
                continue
            future_internal = m_future * d - total_resid
            if future_internal > m_future * (m_future - 1):
                continue
            if d > m_future - 1 and total_resid < m_future * (d - m_future + 1):
                continue
            for j in subset:
                adj[j] |= 1 << k
                degs[j] += 1
            adj[k] = 0
            for j in subset:
                adj[k] |= 1 << j
            degs[k] = back
            cols_rev[k] = rev
            if not (iso and _beats_identity(k + 1, adj, cols_rev)):
                yield from place(k + 1)
            for j in subset:
                adj[j] &= ~(1 << k)
                degs[j] -= 1
            adj[k] = 0
            degs[k] = 0
            cols_rev[k] = 0

    yield from place(0)


def _complement(g: Graph) -> Graph:
    n = g.vertex_count
    edges = frozenset(
        (u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)
    )
    return Graph(n, edges)


def generate(spec: GenSpec) -> Iterator[Graph]:
    """Stream every d-regular graph on n vertices matching the given flags.

    With isomorph_reject on, exactly one representative per isomorphism class
    is emitted; otherwise every labeled graph appears.  Emission order is
    deterministic.  Dense degrees run through the complement, which preserves
    both labeled counts and isomorphism classes.
    """
    n, d = spec.n, spec.d
    use_complement = n - 1 - d < d
    inner_d = n - 1 - d if use_complement else d
    for g in _regular_stream(n, inner_d, spec.isomorph_reject):
        if use_complement:
            g = _complement(g)
        if spec.bipartite_only and bipartition(g) is None:
            continue
        yield g


def canonical_form(g: Graph) -> str:
    """Permutation-invariant label: equal labels iff isomorphic.

    The label packs the lexicographically minimal adjacency bit-string (per
    vertex: loop bit, then adjacency to earlier vertices) as hex, prefixed
    with the vertex count.
    """
    n = g.vertex_count
    if n > CANONICAL_FORM_LIMIT:
        raise ScaleError(
            f"canonical_form supports n <= {CANONICAL_FORM_LIMIT}, got {n}"
        )
    masks = list(adjacency_masks(g))
    for u, v in g.edges:
        if u == v:
            masks[u] |= 1 << u
    code = min_code(n, tuple(masks))
    packed = 0
    for level, col in enumerate(code):
        packed = (packed << (level + 1)) | col
    return f"{n}:{packed:x}"
