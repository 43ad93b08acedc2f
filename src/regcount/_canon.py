"""Canonical labeling by extremizing the adjacency bit-string over orderings.

The code of a graph under a vertex ordering v_0..v_{n-1} is the concatenation
of per-vertex columns; the column of v_k holds the loop bit of v_k followed by
its adjacency bits to v_0..v_{k-1} (v_0 most significant).  The canonical form
is the lexicographic minimum of the code over all orderings.

There is one search, _max_code: a greedy level-by-level maximization,
branching only on ties, with interchangeable twin vertices collapsed.  Each
branch carries its unplaced vertices' columns, extended by one bit per placed
vertex, so a candidate's column is read in O(1) rather than rebuilt.  The
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

    Each state holds its unplaced vertices with their columns against the
    state's ordering so far, as (column, vertex) pairs.  A column starts as
    the vertex's loop bit; placing u shifts every column left and appends the
    bit for u, so at each level the loop bit sits at bit `level` and a
    candidate's column is read, not rebuilt from the ordering.
    """
    # Each state is one ordering achieving the maximal code prefix so far.
    states = [[(adj[v] >> v & 1, v) for v in range(n)]]
    code: list[int] = []
    for _ in range(n):
        best_col = max(max(cands)[0] for cands in states)
        new_states: list[list[tuple[int, int]]] = []
        for cands in states:
            reps: list[int] = []
            for col, v in cands:
                if col != best_col:
                    continue
                # Skip v if swapping it with an already-kept candidate is an
                # automorphism (equal adjacency outside the pair; their loop
                # bits agree, as their columns do): both continuations yield
                # the same code.
                for w in reps:
                    pair = (1 << v) | (1 << w)
                    if (adj[v] & ~pair) == (adj[w] & ~pair):
                        break
                else:
                    reps.append(v)
                    new_states.append(
                        [((c << 1) | (adj[w] >> v & 1), w) for c, w in cands if w != v]
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
