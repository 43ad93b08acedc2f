"""Graph representation, structural predicates, and named constructions.

A graph is its adjacency bitmasks on vertices 0..n-1: bit u of mask v is set
when u and v are adjacent, and bit v of mask v marks a loop, legal only with
allow_loops.  Loops appear only on homomorphism target graphs; every counting
routine works on simple graphs.  The counting DP and bipartition visit the
vertices in one order, placement_order; relabel renames the masks so that a
walk's i-th vertex is vertex i.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError, GraphError, ScaleError

# Cap on the states (at least one per vertex) that one call of the counting DP
# may reach; here, so that graph_from_text can refuse a larger header early.
DP_STATE_LIMIT = 1_000_000


class Graph(namedtuple("Graph", "adj allow_loops", defaults=(False,))):
    """Immutable undirected graph; safe to share across workers.

    A Graph is the tuple (adj, allow_loops): adj[v] is vertex v's neighbour
    bitmask, bit v set for a loop.  Every other view is read from the masks."""

    __slots__ = ()

    @property
    def vertex_count(self) -> int:
        return len(self.adj)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """The edges (u, v) with u <= v, sorted: the text form's order."""
        out = []
        for u, m in enumerate(self.adj):
            m >>= u
            while m:
                low = m & -m
                m ^= low
                out.append((u, u + low.bit_length() - 1))
        return out

    @property
    def edge_count(self) -> int:
        # Each mask counts its loop once and every other edge at both ends.
        ends = sum(map(int.bit_count, self.adj))
        if self.allow_loops:
            ends += sum(m >> v & 1 for v, m in enumerate(self.adj))
        return ends // 2

    def degree_sequence(self) -> list[int]:
        """Neighbour counts, a loop counted once."""
        return [m.bit_count() for m in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether u and v are adjacent; False if either is not a vertex."""
        n = len(self.adj)
        return 0 <= u < n and 0 <= v < n and bool(self.adj[u] >> v & 1)


class Bipartition(namedtuple("Bipartition", "class_a class_b")):
    """A two-coloring witness: every edge crosses between the classes, two
    frozensets of vertices."""

    __slots__ = ()


def build_graph(n: int, edges, allow_loops: bool = False) -> Graph:
    """Validate and build a Graph on vertices 0..n-1.

    Raises GraphError on an out-of-range endpoint, a duplicate edge, or a
    loop when allow_loops is false.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge endpoint out of range: ({u}, {v}) with n={n}")
        if u == v and not allow_loops:
            raise GraphError(f"loop on vertex {u} but allow_loops is false")
        if adj[u] >> v & 1:
            raise GraphError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(tuple(adj), allow_loops)


def placement_order(adj: tuple[int, ...]) -> tuple[int, ...]:
    """The order in which the counting DP and bipartition place the
    vertices: breadth first, each component searched from its lowest
    unvisited vertex."""
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


def relabel(adj: tuple[int, ...], order: tuple[int, ...]) -> tuple[int, ...]:
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


def regular_degree(g: Graph) -> int | None:
    """The common degree d if g is regular, else None."""
    degs = g.degree_sequence()
    if not degs:
        return 0
    d = degs[0]
    return d if all(x == d for x in degs) else None


def bipartition(g: Graph) -> Bipartition | None:
    """Two-color g in placement order; None if an odd cycle exists.

    Each vertex takes the side opposite its placed neighbors, so a
    component's lowest vertex, placed first, goes to class_a; placed
    neighbors on both sides close an odd cycle.  The empty graph puts every
    vertex in class_a.
    """
    adj = g.adj
    if any(m >> v & 1 for v, m in enumerate(adj)):
        raise GraphError("bipartition requires a loop-free graph")
    placed = side_b = 0
    for v in placement_order(adj):
        back = adj[v] & placed
        placed |= 1 << v
        if back & -back & ~side_b:
            side_b |= 1 << v
        if back & (side_b if side_b >> v & 1 else ~side_b):
            return None
    return Bipartition(
        frozenset(v for v in range(g.vertex_count) if not side_b >> v & 1),
        frozenset(v for v in range(g.vertex_count) if side_b >> v & 1),
    )


def build_kdd(d: int) -> Graph:
    """Complete bipartite graph K_{d,d}: classes {0..d-1} and {d..2d-1}."""
    if d < 1:
        raise DomainError(f"K_dd needs d >= 1, got {d}")
    side = (1 << d) - 1
    return Graph((side << d,) * d + (side,) * d)


def build_hardcore_target(clique_size: int, independent_size: int) -> Graph:
    """Hom target encoding the hard-core model: an independent set completely
    joined to a complete looped clique.

    Vertices 0..independent_size-1 form the independent group; the clique with
    loops follows.  Counting maps into this target recovers the weighted
    independent-set partition function.
    """
    if clique_size < 1:
        raise DomainError(f"clique size must be >= 1, got {clique_size}")
    if independent_size < 0:
        raise DomainError(f"independent size must be >= 0, got {independent_size}")
    k = independent_size
    everything = (1 << k + clique_size) - 1
    clique = everything >> k << k
    return Graph((clique,) * k + (everything,) * clique_size, allow_loops=True)


def graph_to_text(g: Graph) -> str:
    """Bit-exact text form: 'N M L' then M lines 'u v' (u <= v), sorted, LF."""
    edges = g.edges
    lines = [f"{g.vertex_count} {len(edges)} {1 if g.allow_loops else 0}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


_FIELD_CHARS = frozenset("0123456789 \t")


def _fields(line: str, what: str, form: str) -> list[int]:
    """The integers on one line of the text form, one per name in form.
    After one trailing carriage return is dropped, the line may hold only
    ASCII digits, spaces and tabs: int() and str.split() alone would also
    take signs, underscores, other scripts' digits and other whitespace, and
    int() refuses numbers past its digit limit."""
    line = line.removesuffix("\r")
    fields = line.split()
    if len(fields) != len(form.split()):
        raise GraphError(f"{what} must be '{form}', got {line!r}")
    try:
        if _FIELD_CHARS.issuperset(line):
            return [int(f) for f in fields]
    except ValueError:
        pass
    raise GraphError(f"{what} fields must be ASCII digits, got {line!r}")


def graph_from_text(text: str) -> Graph:
    """Parse the text form; raises GraphError on any malformation, and
    ScaleError before building on more than DP_STATE_LIMIT vertices."""
    lines = text.strip("\n").split("\n") if text.strip() else []
    if not lines:
        raise GraphError("empty graph text")
    n, m, loops_flag = _fields(lines[0], "header", "N M L")
    if loops_flag not in (0, 1):
        raise GraphError(f"loops flag must be 0 or 1, got {loops_flag}")
    if n > DP_STATE_LIMIT:
        raise ScaleError(f"graph too large: {n} vertices, more than {DP_STATE_LIMIT}")
    if len(lines) - 1 != m:
        raise GraphError(f"header promises {m} edges, found {len(lines) - 1} lines")
    edges = []
    for line in lines[1:]:
        u, v = _fields(line, "edge line", "u v")
        if u > v:
            raise GraphError(f"edge line not normalized (u <= v): {line!r}")
        edges.append((u, v))
    if edges != sorted(edges):
        raise GraphError("edge lines not sorted lexicographically")
    return build_graph(n, edges, allow_loops=bool(loops_flag))
