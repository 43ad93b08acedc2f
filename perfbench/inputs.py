"""Seeded input graphs for the count commands of count-large-hom-8-3.

The inputs are larger than the census: a circular ladder, whose deletion
recursion keeps meeting the same small fragments, and random regular graphs,
which share little.  Each is written in regcount's text format and checked
to read back unchanged and d-regular before anything is timed.
"""

from __future__ import annotations

import hashlib
import os
import random

from regcount.graphs import build_graph, graph_from_text, graph_to_text, regular_degree

LADDER_RUNGS = 12
RANDOM_SIZES = ((20, 3), (22, 3), (24, 3), (16, 4), (18, 4))
# The random graphs are drawn from this seed, not from the run's --seed: the
# counting time depends so much on the drawn graphs and their labels that
# runs on different inputs spread by a quarter or more, beyond any useful
# bound.  pinned.json holds the digests of the counts of these graphs.
INPUT_SEED = 2012


def circular_ladder(rungs: int):
    """The prism C_rungs x K_2: two cycles joined by a perfect matching."""
    edges = []
    for i in range(rungs):
        j = (i + 1) % rungs
        edges += [(i, j), (rungs + i, rungs + j), (i, rungs + i)]
    return build_graph(2 * rungs, edges)


def configuration_model(n: int, d: int, rng: random.Random):
    """Uniform random simple d-regular graph on n vertices: pair n*d stubs at
    random and start again whenever the pairing has a loop or a repeated
    edge."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        for u, v in zip(stubs[::2], stubs[1::2]):
            e = (min(u, v), max(u, v))
            if u == v or e in edges:
                break
            edges.add(e)
        else:
            return build_graph(n, sorted(edges))


def write_inputs(directory: str) -> list[dict]:
    """Write the count-large graphs drawn from INPUT_SEED; return one record
    per file with its name, path, size and SHA-256."""
    rng = random.Random(INPUT_SEED)
    graphs = [(f"ladder-{2 * LADDER_RUNGS}-3", 3, circular_ladder(LADDER_RUNGS))]
    graphs += [(f"random-{n}-{d}", d, configuration_model(n, d, rng)) for n, d in RANDOM_SIZES]
    records = []
    for name, d, g in graphs:
        text = graph_to_text(g)
        back = graph_from_text(text)
        if back != g or regular_degree(back) != d:
            raise ValueError(f"input {name} does not read back as the same {d}-regular graph")
        path = os.path.join(directory, f"{name}.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        records.append(
            {
                "name": name,
                "path": path,
                "vertices": g.vertex_count,
                "edges": g.edge_count,
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
            }
        )
    return records
