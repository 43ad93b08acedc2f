"""Exhaustive generation of d-regular graphs, with isomorph rejection.

The search builds the adjacency matrix one vertex at a time: the column of
vertex k is its neighbor set among 0..k-1.  The candidate columns of each
level (every subset of at most d earlier vertices, in descending column
order) are listed once per stream; each node keeps those that avoid vertices
already of degree d.  Degree-residual feasibility checks, O(1) per candidate
from sums taken once per node, prune branches that cannot complete to a
d-regular graph on n vertices.  An emitted Graph is a copy of the search's
adjacency masks.

With isomorph rejection on, the search keeps only the graphs whose identity
ordering achieves the lexicographically maximal column code among all
orderings.  Each isomorphism class is then emitted exactly once: the
canonical ordering of any d-regular graph is one the search builds, and two
emitted graphs are never isomorphic because each equals its class's unique
maximal matrix.  A plain generate-then-dedup pass over all labeled graphs
would visit billions of leaves already at n = 12, d = 3.

Non-canonicity carries down (orderly generation; Read 1978, Faradzev 1978):
if some ordering of the prefix on 0..k-1 beats the identity, that ordering
with vertex k put last beats it on 0..k, since column p of a code depends
only on positions 0..p.  So a beaten prefix has no canonical extension, and
place searches a prefix only where the answer can prune more than one
subtree.  Once the candidate columns of vertex k are filtered, a prefix with
two or more of them is searched before branching; one with a single
candidate passes on untested, since its child's own verdict decides it; one
with none is a dead end and is dropped unsearched; a complete graph is
searched before it is emitted.  A leaf is emitted exactly when it is
canonical, as when every prefix was searched, and the depth-first order is
the same, so the census and its emission order are unchanged.  On (12,3)
that is 2,205 searches instead of 5,836 (one per prefix).

The test is the one code search of _canon, better_codes, started from a
copy of the identity ordering's columns: the prefix is rejected at its first
yield, the first ordering found to beat the identity.  Generation's columns
are _canon's with the loop bit 0, so the search starts from one cell holding
the placed vertices, splits the cells by each placed vertex's neighbours,
and drops a branch as soon as its next column falls below the identity's; an
accepted prefix is one where every branch ties or falls below.

Before any search, place skips any candidate column of vertex k that the
adjacent swap of vertices k-1 and k would beat.  The swap leaves columns
0..k-2 alone and gives position k-1 vertex k's column without its last bit,
rev >> 1; if that exceeds column k-1, the swapped ordering's code exceeds the
identity's, which is exactly what the search would find.  So the test skips
only prefixes the search would reject, and the census and its emission order
are unchanged.  On (12,3) it skips about 57,400 candidates that pass every
other filter, while the searches reject 1,018 prefixes.  Labeled generation
does not use it.

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

from bisect import bisect_left
from collections import namedtuple
from itertools import combinations
from typing import Iterator

from ._canon import better_codes, min_code
from .errors import DomainError, ScaleError
from .graphs import Graph, bipartition

ISO_VERTEX_LIMIT = 14
CANONICAL_FORM_LIMIT = 12


class GenSpec(namedtuple("GenSpec", "n d bipartite_only isomorph_reject")):
    """What generate emits: the d-regular graphs on n vertices, only the
    bipartite ones if bipartite_only, one per isomorphism class if
    isomorph_reject.  Validated on construction."""

    __slots__ = ()

    def __new__(cls, n: int, d: int, bipartite_only: bool = False, isomorph_reject: bool = True):
        if n < 1:
            raise DomainError(f"need n >= 1, got {n}")
        if not 0 <= d < n:
            raise DomainError(f"need 0 <= d < n, got d={d}, n={n}")
        if n * d % 2 != 0:
            raise DomainError(f"parity violation: n*d must be even, got n={n}, d={d}")
        if isomorph_reject and n > ISO_VERTEX_LIMIT:
            raise ScaleError(
                f"isomorph rejection supports n <= {ISO_VERTEX_LIMIT}, got {n}"
            )
        return super().__new__(cls, n, d, bipartite_only, isomorph_reject)


def _candidate_lists(n: int, d: int) -> list[list[tuple[int, int, tuple[int, ...]]]]:
    """For each level k, every back-neighbor set of vertex k (a subset of
    0..k-1 with at most d members) as (rev, mask, subset), in the order the
    search tries them: descending rev, the column with vertex 0 highest."""
    levels = []
    for k in range(n):
        cands = []
        for size in range(min(d, k) + 1):
            for subset in combinations(range(k), size):
                rev = mask = 0
                for j in subset:
                    rev |= 1 << (k - 1 - j)
                    mask |= 1 << j
                cands.append((rev, mask, subset))
        cands.sort(reverse=True)
        levels.append(cands)
    return levels


def _regular_stream(n: int, d: int, iso: bool) -> Iterator[Graph]:
    adj = [0] * n
    degs = [0] * n
    # Column of vertex k (its neighbors among 0..k-1), keyed for
    # lexicographic order: vertex 0 in the highest bit.
    cols_rev: list[int] = [0] * n
    levels = _candidate_lists(n, d)
    neg_revs = [[-rev for rev, _, _ in cands] for cands in levels]

    def place(k: int) -> Iterator[Graph]:
        if k == n:
            # Ancestors were searched only where they branched.
            if iso and next(better_codes(adj, cols_rev[:]), None) is not None:
                return
            yield Graph(tuple(adj))
            return
        m_future = n - k - 1
        # Residual feasibility: placed vertices can only reach future ones,
        # so one that still needs m_future + 1 edges must take vertex k.
        full = forced = resid = 0
        for j in range(k):
            need = d - degs[j]
            if need > m_future + 1:
                return
            if need > m_future:
                forced |= 1 << j
            elif need == 0:
                full |= 1 << j
            resid += need
        children = []
        # Adjacent swap: exchanging vertices k-1 and k keeps columns 0..k-2
        # and makes column k-1 equal to rev >> 1 (vertex k's column without
        # its bit for k-1).  If that exceeds the present column k-1, that
        # is, if rev > 2 cols_rev[k-1] + 1, the swapped ordering beats the
        # identity, so the code search would reject this prefix anyway.
        # levels[k] descends in rev, so those candidates are a prefix,
        # skipped in one step.  At k < 2 rev >> 1 is 0, so none is skipped.
        start = bisect_left(neg_revs[k], -2 * cols_rev[k - 1] - 1) if iso else 0
        for cand in levels[k][start:]:
            rev, mask, subset = cand
            if mask & full or forced & ~mask:
                continue
            back = len(subset)
            if d - back > m_future:
                continue
            # Vertex k's residual, plus the placed ones' once it takes subset.
            total_resid = d - back + resid - back
            if total_resid > m_future * d:
                continue
            future_internal = m_future * d - total_resid
            if future_internal > m_future * (m_future - 1):
                continue
            children.append(cand)
        # One search decides every child of a branch point; a single child
        # is left to its own search, a dead end to none.
        if iso and len(children) > 1 and next(better_codes(adj, cols_rev[:k]), None) is not None:
            return
        for rev, mask, subset in children:
            back = len(subset)
            for j in subset:
                adj[j] |= 1 << k
                degs[j] += 1
            adj[k] = mask
            degs[k] = back
            cols_rev[k] = rev
            yield from place(k + 1)
            for j in subset:
                adj[j] &= ~(1 << k)
                degs[j] -= 1
            adj[k] = 0
            degs[k] = 0
            cols_rev[k] = 0

    yield from place(0)


def _complement(g: Graph) -> Graph:
    """The complement of a loop-free graph: every mask flipped but its own bit."""
    full = (1 << g.vertex_count) - 1
    return Graph(tuple(m ^ full ^ 1 << v for v, m in enumerate(g.adj)))


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


def census_name(n: int, d: int, index: int) -> str:
    """The name of the index-th graph that generate emits for n and d."""
    return f"{n}v-{d}r-{index:04d}"


def census_label(g: Graph, d: int | None, index: int | None) -> str:
    """The label of a graph in a census report: its canonical form up to
    CANONICAL_FORM_LIMIT vertices, else the census name of its index at
    degree d, or for a graph without an index its vertex and edge counts."""
    n = g.vertex_count
    if n <= CANONICAL_FORM_LIMIT:
        return canonical_form(g)
    if index is not None:
        return census_name(n, d, index)
    return f"{n}v-{g.edge_count}e"


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
    code = min_code(n, g.adj)
    packed = 0
    for level, col in enumerate(code):
        packed = (packed << (level + 1)) | col
    return f"{n}:{packed:x}"
