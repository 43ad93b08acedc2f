"""Graph representation, structural predicates, and named constructions.

Vertices are 0-indexed contiguous integers.  Edges are unordered pairs stored
as (u, v) tuples with u <= v; a loop is the pair (v, v) and is legal only when
the graph was built with allow_loops set.  Loops appear only on homomorphism
target graphs; every counting routine works on simple graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, GraphError


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph; safe to share across workers."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]
    allow_loops: bool = False

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree_sequence(self) -> list[int]:
        degs = [0] * self.vertex_count
        for u, v in self.edges:
            degs[u] += 1
            if v != u:
                degs[v] += 1
        return degs

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class Bipartition:
    """A two-coloring witness: every edge crosses between the classes."""

    class_a: frozenset[int]
    class_b: frozenset[int]


def build_graph(n: int, edges, allow_loops: bool = False) -> Graph:
    """Validate and build a Graph on vertices 0..n-1.

    Raises GraphError on an out-of-range endpoint, a duplicate edge, or a
    loop when allow_loops is false.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge endpoint out of range: ({u}, {v}) with n={n}")
        if u == v and not allow_loops:
            raise GraphError(f"loop on vertex {u} but allow_loops is false")
        e = _normalize_edge(u, v)
        if e in seen:
            raise GraphError(f"duplicate edge ({e[0]}, {e[1]})")
        seen.add(e)
    return Graph(n, frozenset(seen), allow_loops)


def adjacency_masks(g: Graph) -> tuple[int, ...]:
    """Per-vertex neighbor bitmasks (loops excluded)."""
    masks = [0] * g.vertex_count
    for u, v in g.edges:
        if u != v:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return tuple(masks)


def regular_degree(g: Graph) -> int | None:
    """The common degree d if g is regular, else None."""
    degs = g.degree_sequence()
    if not degs:
        return 0
    d = degs[0]
    return d if all(x == d for x in degs) else None


def bipartition(g: Graph) -> Bipartition | None:
    """Two-color g by BFS; None if an odd cycle exists.

    Deterministic: components are rooted at their smallest vertex, the root
    goes to class_a.  The empty graph puts every vertex in class_a.
    """
    if any(u == v for u, v in g.edges):
        raise GraphError("bipartition requires a loop-free graph")
    n = g.vertex_count
    adj = adjacency_masks(g)
    color = [-1] * n
    for root in range(n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            u = queue.pop()
            mask = adj[u]
            while mask:
                v = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return Bipartition(
        frozenset(v for v in range(n) if color[v] == 0),
        frozenset(v for v in range(n) if color[v] == 1),
    )


def build_kdd(d: int) -> Graph:
    """Complete bipartite graph K_{d,d}: classes {0..d-1} and {d..2d-1}."""
    if d < 1:
        raise DomainError(f"K_dd needs d >= 1, got {d}")
    return Graph(2 * d, frozenset((a, d + b) for a in range(d) for b in range(d)))


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
    edges = set()
    clique = range(k, k + clique_size)
    for w in clique:
        edges.add((w, w))
        edges.update(_normalize_edge(w, x) for x in clique if x != w)
        edges.update((v, w) for v in range(k))
    return Graph(k + clique_size, frozenset(edges), allow_loops=True)


def graph_to_text(g: Graph) -> str:
    """Bit-exact text form: 'N M L' then M lines 'u v' (u <= v), sorted, LF."""
    lines = [f"{g.vertex_count} {g.edge_count} {1 if g.allow_loops else 0}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
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
    """Parse the text form; raises GraphError on any malformation."""
    lines = text.strip("\n").split("\n") if text.strip() else []
    if not lines:
        raise GraphError("empty graph text")
    n, m, loops_flag = _fields(lines[0], "header", "N M L")
    if loops_flag not in (0, 1):
        raise GraphError(f"loops flag must be 0 or 1, got {loops_flag}")
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
