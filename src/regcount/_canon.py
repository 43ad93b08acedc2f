"""Canonical labeling by extremizing the adjacency bit-string over orderings.

The code of a graph under a vertex ordering v_0..v_{n-1} is the concatenation
of per-vertex columns; the column of v_k holds the loop bit of v_k followed by
its adjacency bits to v_0..v_{k-1} (v_0 most significant).  The canonical form
is the lexicographic minimum of the code over all orderings.

There is one search, _max_code: a greedy level-by-level maximization,
branching only on ties, with interchangeable twin vertices collapsed.  The
minimum goes through the complement: flipping every adjacency and loop bit
maps the code bit-for-bit, and bitwise NOT reverses lexicographic order, hence
min_code(G) = bitflip(max_code(complement(G))).  A direct minimum search would
take exactly the same steps (complementing preserves column ties and twins),
so one direction serves every density.
"""

from __future__ import annotations


def _max_code(n: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    """Greedy per-level maximization of the column code, branching on ties.

    Valid because a code is compared column by column: the maximal full code
    must maximize every prefix, so non-maximal partial orderings can never
    recover.
    """
    # Each state is one ordering achieving the maximal code prefix so far.
    states: list[tuple[tuple[int, ...], int]] = [((), 0)]
    code: list[int] = []
    for level in range(n):
        best_col = -1
        new_states: list[tuple[tuple[int, ...], int]] = []
        for order, used in states:
            by_col: dict[int, list[int]] = {}
            for v in range(n):
                if used >> v & 1:
                    continue
                av = adj[v]
                col = (av >> v & 1) << level
                for i, u in enumerate(order):
                    if av >> u & 1:
                        col |= 1 << (level - 1 - i)
                by_col.setdefault(col, []).append(v)
            col = max(by_col)
            if col >= best_col:
                if col > best_col:
                    best_col = col
                    new_states = []
                reps: list[int] = []
                for v in by_col[col]:
                    # Skip v if swapping it with an already-kept candidate is
                    # an automorphism (equal adjacency outside the pair, equal
                    # loop status): both continuations yield the same code.
                    for w in reps:
                        pair = (1 << v) | (1 << w)
                        if (adj[v] & ~pair) == (adj[w] & ~pair) and (
                            adj[v] >> v & 1
                        ) == (adj[w] >> w & 1):
                            break
                    else:
                        reps.append(v)
                new_states.extend(
                    (order + (v,), used | (1 << v)) for v in reps
                )
        code.append(best_col)
        states = new_states
    return tuple(code)


def min_code(n: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically minimal column code over all vertex orderings.

    adj[v] is v's neighbor bitmask; bit v of adj[v] marks a loop.
    """
    full = (1 << n) - 1
    flipped = _max_code(n, tuple(full & ~m for m in adj))
    return tuple(((1 << (level + 1)) - 1) ^ col for level, col in enumerate(flipped))


def induced_masks(adj: tuple[int, ...], verts: tuple[int, ...]) -> tuple[int, ...]:
    """Adjacency masks of the subgraph induced on verts, relabeled to 0..k-1."""
    index = {v: i for i, v in enumerate(verts)}
    out = []
    for v in verts:
        m = 0
        av = adj[v]
        for u, i in index.items():
            if av >> u & 1:
                m |= 1 << i
        out.append(m)
    return tuple(out)
