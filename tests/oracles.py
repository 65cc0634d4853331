"""Independent brute-force oracles for the test suite.

Deliberately naive: subset filtering with itertools and vectorized full
enumeration with numpy.  Nothing here shares code paths with the package's
search or clique machinery.
"""
from itertools import combinations, permutations, product
from operator import itemgetter

import numpy as np

from folkman.graphs import Graph


def edge_set(g: Graph) -> set[tuple[int, int]]:
    """Edges (u, v), u < v, read straight off the adjacency bitmasks."""
    return {(u, v) for u in range(g.n) for v in range(u + 1, g.n)
            if g.adj[u] >> v & 1}


def is_clique(g: Graph, vs) -> bool:
    es = edge_set(g)
    return all(tuple(sorted(p)) in es for p in combinations(vs, 2))


def brute_cliques(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All k-cliques by filtering every k-subset, in lexicographic order."""
    return [vs for vs in combinations(range(g.n), k) if is_clique(g, vs)]


def brute_clique_number(g: Graph) -> int:
    for k in range(g.n, 0, -1):
        if brute_cliques(g, k):
            return k
    return 0


def brute_independence_number(g: Graph) -> int:
    es = edge_set(g)
    best = 0
    for k in range(g.n, 0, -1):
        for vs in combinations(range(g.n), k):
            if all(tuple(sorted(p)) not in es for p in combinations(vs, 2)):
                return k
    return best


def brute_is_free_edge_coloring(g: Graph, sizes, coloring: dict) -> bool:
    """coloring: dict (u,v) -> color (1-based)."""
    for i, a in enumerate(sizes, start=1):
        for vs in brute_cliques(g, a):
            if all(coloring[tuple(sorted(p))] == i for p in combinations(vs, 2)):
                return False
    return True


def brute_arrows_edges_2color(g: Graph, sizes) -> tuple[bool, dict | None]:
    """Exhaust all 2^|E| two-colorings, vectorized over edge bitmaps.

    Bit e set means edge e has color 1.  Returns (arrows, free witness dict).
    """
    assert len(sizes) == 2
    elist = sorted(edge_set(g))
    m = len(elist)
    eidx = {e: i for i, e in enumerate(elist)}
    dtype = np.uint32 if m <= 31 else np.uint64
    assigns = np.arange(1 << m, dtype=dtype)
    bad = np.zeros(1 << m, dtype=bool)
    for vs in brute_cliques(g, sizes[0]):
        mask = dtype(sum(1 << eidx[tuple(sorted(p))] for p in combinations(vs, 2)))
        bad |= (assigns & mask) == mask        # all edges color 1
    for vs in brute_cliques(g, sizes[1]):
        mask = dtype(sum(1 << eidx[tuple(sorted(p))] for p in combinations(vs, 2)))
        bad |= (assigns & mask) == 0           # all edges color 2
    free = np.flatnonzero(~bad)
    if free.size == 0:
        return True, None
    a = int(free[0])
    return False, {e: 1 if a >> i & 1 else 2 for e, i in eidx.items()}


def brute_arrows_edges(g: Graph, sizes) -> tuple[bool, dict | None]:
    """Plain product enumeration; only for very small edge counts."""
    elist = sorted(edge_set(g))
    for colors in product(range(1, len(sizes) + 1), repeat=len(elist)):
        coloring = dict(zip(elist, colors))
        if brute_is_free_edge_coloring(g, sizes, coloring):
            return False, coloring
    return True, None


def _color_choices(order, r: int, fixed: dict | None):
    # Per position of `order`, the colors it may take: its color in
    # `fixed`, else 1..r.
    fixed = fixed or {}
    return [(fixed[x],) if x in fixed else range(1, r + 1) for x in order]


def brute_first_free_coloring(g: Graph, sizes, order, fixed=None) -> dict | None:
    """The first free coloring, dict (u,v) -> color, in the lexicographic
    order of the color sequences over the edge list `order` (colors
    ascending), or None if G arrows `sizes`.  With `fixed`, a dict edge ->
    color, only colorings that give those edges those colors count.  Plain
    product enumeration."""
    position = {e: i for i, e in enumerate(order)}
    # One (getter, value) per forbidden clique: the clique is monochromatic
    # in `color` iff reading its edges' colors gives what reading them off
    # the all-`color` sequence gives.
    forbidden = []
    for color, a in enumerate(sizes, start=1):
        for vs in brute_cliques(g, a):
            get = itemgetter(*(position[p] for p in combinations(vs, 2)))
            forbidden.append((get, get((color,) * len(order))))
    for colors in product(*_color_choices(order, len(sizes), fixed)):
        if not any(get(colors) == value for get, value in forbidden):
            return dict(zip(order, colors))
    return None


def brute_first_free_vertex_coloring(g: Graph, sizes, order,
                                     fixed=None) -> dict | None:
    """The first free vertex coloring, dict v -> color, in the lexicographic
    order of the color sequences over the vertex list `order` (colors
    ascending), or None if G vertex-arrows `sizes`.  With `fixed`, a dict
    vertex -> color, only colorings that give those vertices those colors
    count.  Plain product enumeration."""
    forbidden = [(color, vs) for color, a in enumerate(sizes, start=1)
                 for vs in brute_cliques(g, a)]
    for colors in product(*_color_choices(order, len(sizes), fixed)):
        coloring = dict(zip(order, colors))
        if not any(all(coloring[v] == color for v in vs) for color, vs in forbidden):
            return coloring
    return None


def brute_arrows_vertices(g: Graph, sizes) -> bool:
    for colors in product(range(1, len(sizes) + 1), repeat=g.n):
        free = True
        for i, a in enumerate(sizes, start=1):
            cls = [v for v in range(g.n) if colors[v] == i]
            if any(is_clique(g, vs) for vs in combinations(cls, a)):
                free = False
                break
        if free:
            return False
    return True


def brute_cnf_satisfiable(num_vars: int, clauses) -> bool:
    """Vectorized truth-table check of a CNF; bit v-1 set means var v true."""
    dtype = np.uint32 if num_vars <= 31 else np.uint64
    assigns = np.arange(1 << num_vars, dtype=dtype)
    violated = np.zeros(1 << num_vars, dtype=bool)
    for cl in clauses:
        pos = dtype(sum(1 << (lit - 1) for lit in cl if lit > 0))
        neg = dtype(sum(1 << (-lit - 1) for lit in cl if lit < 0))
        violated |= ((assigns & pos) == 0) & ((assigns & neg) == neg)
    return bool((~violated).any())


def brute_automorphisms(g: Graph) -> set[tuple[int, ...]]:
    """Every vertex permutation p (p[v] = image of v) that maps edges onto
    edges, by scanning all n! permutations; for n <= 7."""
    assert g.n <= 7
    es = edge_set(g)
    return {p for p in permutations(range(g.n))
            if all(tuple(sorted((p[u], p[v]))) in es for u, v in es)}


def is_automorphism(g: Graph, perm) -> bool:
    """Is `perm` (perm[v] = image of v) a permutation of 0..n-1 whose image
    of the edge set is the edge set?"""
    if sorted(perm) != list(range(g.n)):
        return False
    es = edge_set(g)
    return {tuple(sorted((perm[u], perm[v]))) for u, v in es} == es


def generated_group(n: int, gens) -> set[tuple[int, ...]]:
    """The permutation group the permutations `gens` of 0..n-1 generate,
    by closing the identity under composition."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        fresh = []
        for p in frontier:
            for s in gens:
                q = tuple(s[p[i]] for i in range(n))
                if q not in group:
                    group.add(q)
                    fresh.append(q)
        frontier = fresh
    return group


def relabelled(g: Graph, rng) -> Graph:
    """g with its vertices renamed by a random permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in edge_set(g)])


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """a and b side by side, b's vertices after a's, with no edge between."""
    return Graph(a.n + b.n, a.adj + tuple(row << a.n for row in b.adj))


def random_graph(rng, n: int, p: float = 0.5, max_edges: int | None = None) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = [e for e in pairs if rng.random() < p]
    if max_edges is not None and len(chosen) > max_edges:
        chosen = rng.sample(chosen, max_edges)
    return Graph.from_edges(n, chosen)
