"""The lexicographic search for the maximal column code, and canonical codes.

The code of a graph under a vertex ordering v_0..v_{n-1} is the concatenation
of per-vertex columns; the column of v_k holds the loop bit of v_k followed by
its adjacency bits to v_0..v_{k-1} (v_0 most significant).  The canonical form
is the lexicographic minimum of the code over all orderings.

There is one search, better_codes, which raises an incumbent code in place
and yields after each raise.  Orderly generation starts it from the identity
ordering's code and stops at the first yield; min_code starts it below every
code and runs it to the end.

Each search node keeps its unplaced vertices as the ordered partition of
individualisation-refinement (McKay & Piperno 2014, "Practical graph
isomorphism, II"): cells of vertices with equal column, each a (column,
bitmask) pair, in descending column order.  The first cell holds the
vertices tied for the next position.  Placing a vertex v takes it out of
that cell and splits every cell by adj[v], the part adjacent to v first, its
column extended by bit 1; the rest get bit 0.  Appending one bit to distinct
columns keeps their order, so the split cells need no sort and no max.  A
child's top column, its first nonempty cell's column extended by one bit, is
known before the child is built, and a child whose top column falls below the
incumbent is skipped unbuilt.

The minimum goes through the complement:
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
    depth-first search follows only children whose column ties the
    incumbent's.  A greater column beats the incumbent whatever follows: it
    is raised, the later columns reset to -1.

    Each node holds its unplaced vertices as an ordered partition: cells of
    equal column, (column, bitmask) pairs in descending column order, so the
    first cell holds the candidates for the next position.  Placing v takes
    it out of that cell and splits every cell by adj[v], the adjacent part
    first with bit 1 appended to its column; appending a bit keeps the cells
    in order.  A child's top column is known before it is built, from its
    first nonempty cell, so a child below the incumbent is skipped unbuilt.
    Swapping two unplaced twins fixes the placed prefix, and twins always
    share a cell, so one member of each twin class is tried per position.
    """
    n = len(best)
    twin = _twin_classes(n, adj)

    def search(pos: int, cells: list[tuple[int, int]]) -> Iterator[list[int]]:
        top, first = cells[0]
        if top > best[pos]:
            best[pos] = top
            best[pos + 1:] = [-1] * (n - pos - 1)
            yield best
        if pos + 1 == n:
            return
        tried = 0
        m = first
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if tried >> twin[v] & 1:
                continue
            tried |= 1 << twin[v]
            a = adj[v]
            rest = first ^ low
            # The child's top column comes from its first nonempty cell.
            col, cell = (top, rest) if rest else cells[1]
            if col << 1 | (cell & a != 0) < best[pos + 1]:
                continue
            child = []
            for col, cell in (top, rest), *cells[1:]:
                hit = cell & a
                if hit:
                    child.append((col << 1 | 1, hit))
                if cell != hit:
                    child.append((col << 1, cell ^ hit))
            yield from search(pos + 1, child)

    # Before any vertex is placed, a column is just the loop bit.
    loops = sum(adj[v] & 1 << v for v in range(n))
    cells = [(c, m) for c, m in ((1, loops), (0, ((1 << n) - 1) ^ loops)) if m]
    if cells and cells[0][0] >= best[0]:
        yield from search(0, cells)


def min_code(n: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically minimal column code over all vertex orderings.

    adj[v] is v's neighbor bitmask; bit v of adj[v] marks a loop.
    """
    full = (1 << n) - 1
    best = [-1] * n
    for _ in better_codes(tuple(full & ~m for m in adj), best):
        pass
    return tuple(((1 << (level + 1)) - 1) ^ col for level, col in enumerate(best))
