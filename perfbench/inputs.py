"""Benchmark inputs: graphs, their seeded relabellings, and the workloads.

Everything here is written independently of the `folkman` package.  The
benchmark builds each instance itself, hands the program only a graph6
string (or a builtin name), and checks the program's answers against its
own model of the graph.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on 0..n-1, edges stored as sorted (u, v), u < v."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def of(n: int, pairs) -> "Graph":
        return Graph(n, tuple(sorted({(min(u, v), max(u, v)) for u, v in pairs})))

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2


def complete(n: int) -> Graph:
    return Graph.of(n, combinations(range(n), 2))


def cycle(n: int) -> Graph:
    return Graph.of(n, ((i, (i + 1) % n) for i in range(n)))


def greenwood_gleason_q() -> Graph:
    """Q: the complement of the 13-vertex circulant with offsets {1, 5}."""
    off = {(i, (i + d) % 13) for i in range(13) for d in (1, 5)}
    off |= {(v, u) for u, v in off}
    return Graph.of(13, (p for p in combinations(range(13), 2) if p not in off))


def join(*parts: Graph) -> Graph:
    """Disjoint union plus every cross edge; earlier parts take lower indices."""
    pairs, offsets, n = [], [], 0
    for g in parts:
        offsets.append(n)
        pairs += [(u + n, v + n) for u, v in g.edges]
        n += g.n
    for i, j in combinations(range(len(parts)), 2):
        pairs += [(offsets[i] + u, offsets[j] + v)
                  for u in range(parts[i].n) for v in range(parts[j].n)]
    return Graph.of(n, pairs)


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph.of(g.n, ((perm[u], perm[v]) for u, v in g.edges))


def emit_graph6(g: Graph) -> str:
    """Standard graph6 for n <= 62: upper triangle, column by column."""
    if not 1 <= g.n <= 62:
        raise ValueError(f"graph6 writer supports 1..62 vertices, got {g.n}")
    present = set(g.edges)
    bits = [int((u, v) in present) for v in range(1, g.n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[i:i + 6])), 2))
                   for i in range(0, len(bits), 6))
    return chr(63 + g.n) + body


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    n = ord(s[0]) - 63
    if not 1 <= n <= 62:
        raise ValueError(f"graph6 reader supports 1..62 vertices: {s!r}")
    bits = [ord(ch) - 63 >> k & 1 for ch in s[1:] for k in range(5, -1, -1)]
    slots = [(u, v) for v in range(1, n) for u in range(v)]
    if len(bits) < len(slots):
        raise ValueError(f"truncated graph6 string {s!r}")
    return Graph.of(n, (p for p, b in zip(slots, bits) if b))


# --- instances ----------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    """One arrowing question the benchmark asks the CLI.

    `source` is what goes after `--graph`: a builtin name, or None to pass
    the (possibly relabelled) graph as graph6.  `expect` is "arrows" or
    "free"; `max_nodes` is the node limit passed with `--max-nodes`.
    """

    label: str
    graph: Graph
    spec: tuple[int, int]
    expect: str
    max_nodes: int
    graph6: str
    source: str | None = None


def instance_for_round(inst: Instance, seed: int, round_no: int) -> tuple[Instance, str]:
    """The instance as round `round_no` of a seed-`seed` run presents it.

    Seed 0 keeps the built-in labelling.  Any other seed relabels each
    non-complete graph that is passed as graph6, with a permutation drawn
    afresh for every round, so one run averages over many labellings.
    Returns the instance and the graph6 string to pass.
    """
    if seed == 0 or inst.source is not None or inst.graph.is_complete():
        return inst, inst.graph6
    perm = list(range(inst.graph.n))
    random.Random(f"{seed}/{round_no}/{inst.label}").shuffle(perm)
    g = relabel(inst.graph, perm)
    moved = Instance(inst.label, g, inst.spec, inst.expect, inst.max_nodes,
                     emit_graph6(g))
    return moved, moved.graph6


def pinned_instance(label, graph, spec, expect, max_nodes, pinned_graph6, source=None):
    """An instance whose graph, as the benchmark builds it, must have the
    graph6 of the program's own construction (checked again at set-up)."""
    g6 = emit_graph6(graph)
    if g6 != pinned_graph6:
        raise RuntimeError(f"{label}: built {g6}, pinned {pinned_graph6}")
    return Instance(label, graph, spec, expect, max_nodes, g6, source)


Q = greenwood_gleason_q()
C5 = cycle(5)

# Node limits.  `exhaust` gets a generous cap (about 7x the larger tree) so a
# broken search cannot hang the run.  `witness` uses one limit that is a
# latency limit: every seed-0 search fits under it (the largest needs
# 100,505 nodes), a relabelled search that needs more is a miss.
EXHAUST_MAX_NODES = 5_000_000
WITNESS_MAX_NODES = 150_000

THEOREM_SPEC = (3, 5)
THEOREM_Q = 13
THEOREM_BOUND = "F_e(3,5;13) <= 21"
# `encode --graph theorem-graph --spec 3,5` at the paper's labelling.
THEOREM_DIMACS = {"sha256": "1db983c4daf1e0fb098631f12433725bbed4c16f61082756f81ea39502e98325",
                  "vars": 184, "clauses": 7288}

INSTANCES = {
    "exhaust": (
        pinned_instance("K9", complete(9), (3, 4), "arrows", EXHAUST_MAX_NODES, "H~~~~~~"),
        pinned_instance("C5+C5+C5", join(C5, C5, C5), (3, 3), "arrows",
                        EXHAUST_MAX_NODES, "Nhf~~vx~N~~~~|~{~~G"),
    ),
    "witness": (
        pinned_instance("K2+Q", join(complete(2), Q), (3, 4), "free",
                        WITNESS_MAX_NODES, "N}zvuzm|uv\\m|m}vZlo"),
        pinned_instance("K3+Q", join(complete(3), Q), (3, 5), "free",
                        WITNESS_MAX_NODES, "O~zvvzm|vv\\m|m}v^lv\\m"),
        pinned_instance("K3+C5+C5", join(complete(3), C5, C5), (3, 4), "free",
                        WITNESS_MAX_NODES, "L~~nNf~~~}~x~x"),
    ),
    # The theorem graph goes by its builtin name: the name is what makes the
    # CLI rebuild Q through its validation gate, the path this workload
    # measures.  A relabelled copy would have to go as graph6 and would skip
    # that gate, so this workload is the same at every seed.  It runs no
    # search, so it has no node limit.
    "theorem": (
        pinned_instance("K8+Q", join(complete(8), Q), THEOREM_SPEC, "arrows", 0,
                        "T~~~~~~~v~^}~}~v^|v~m~uz~lv~lv~uz~\\m", source="theorem-graph"),
    ),
}
