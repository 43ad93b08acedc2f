"""The lexicographic search for the maximal column code, and canonical codes.

The code of a graph under a vertex ordering v_0..v_{n-1} is the concatenation
of per-vertex columns; the column of v_k holds the loop bit of v_k followed by
its adjacency bits to v_0..v_{k-1} (v_0 most significant).  The canonical form
is the lexicographic minimum of the code over all orderings.

There is one search, better_codes, which raises an incumbent code in place
and yields after each raise.  Orderly generation starts it from the identity
ordering's code and stops at the first yield; min_code starts it below every
code and runs it to the end.  The minimum goes through the complement:
flipping every adjacency and loop bit maps the code bit-for-bit, and bitwise
NOT reverses lexicographic order, hence
min_code(G) = bitflip(max_code(complement(G))).  A direct minimum search would
take exactly the same steps (complementing preserves column ties and twins),
so one direction serves every density.
"""

from __future__ import annotations

from typing import Iterator, Sequence


def _twin_classes(n: int, adj: Sequence[int]) -> list[int]:
    """Name the twin class of each of vertices 0..n-1 by its least member.

    Swapping two twins is an automorphism: they share their loop bit and
    their adjacency to every other vertex.  Non-adjacent twins share their
    open neighbourhood, adjacent twins their closed one, and a class never
    mixes the two kinds, so one dict over both keys finds them.  An open key
    lacks the vertex's own bit, which a closed key equal to it would hold.
    Each key carries the loop bit at bit n.
    """
    first: dict[int, int] = {}
    twin: list[int] = []
    for v in range(n):
        key = adj[v] & ~(1 << v) | (adj[v] >> v & 1) << n
        t = first.setdefault(key, v)
        if t == v:
            t = first.setdefault(key | 1 << v, v)
        twin.append(t)
    return twin


def better_codes(adj: Sequence[int], best: list[int]) -> Iterator[list[int]]:
    """Raise `best` to the maximal column code over the orderings of vertices
    0..len(best)-1, in place, yielding it after each raise.

    adj[v] is v's neighbour bitmask, bit v marking a loop; an entry -1 in
    `best` lies below every column.  Codes compare column by column, so the
    depth-first search follows only candidates whose column ties the
    incumbent's.  A greater column beats the incumbent whatever follows: it
    is raised, the later columns reset to -1.  Each branch carries its
    unplaced vertices' columns as (column, vertex) pairs, extended by one bit
    per placed vertex.  Swapping two unplaced twins fixes the placed prefix,
    so one member of each twin class is tried per position.
    """
    n = len(best)
    twin = _twin_classes(n, adj)

    def search(pos: int, cands: list[tuple[int, int]]) -> Iterator[list[int]]:
        top = max(cands)[0]
        if top < best[pos]:
            return
        if top > best[pos]:
            best[pos] = top
            best[pos + 1:] = [-1] * (n - pos - 1)
            yield best
        if pos + 1 == n:
            return
        tried = 0
        for col, v in cands:
            if col != top or tried >> twin[v] & 1:
                continue
            tried |= 1 << twin[v]
            yield from search(
                pos + 1, [((c << 1) | (adj[w] >> v & 1), w) for c, w in cands if w != v]
            )

    if n:
        yield from search(0, [(adj[v] >> v & 1, v) for v in range(n)])


def min_code(n: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically minimal column code over all vertex orderings.

    adj[v] is v's neighbor bitmask; bit v of adj[v] marks a loop.
    """
    full = (1 << n) - 1
    best = [-1] * n
    for _ in better_codes(tuple(full & ~m for m in adj), best):
        pass
    return tuple(((1 << (level + 1)) - 1) ^ col for level, col in enumerate(best))
