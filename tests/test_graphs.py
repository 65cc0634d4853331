import hashlib
import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from folkman.bounds import build_q, build_theorem_graph
from folkman.graphs import (Graph, GraphError, Graph6Error, complete, cycle,
                            circulant, complement, join, edges,
                            has_clique, max_clique, enumerate_cliques,
                            parse_graph6, emit_graph6, automorphism_generators,
                            _individualize, _maps_edges, _orbit, _refine)
from oracles import (brute_automorphisms, brute_cliques, brute_clique_number,
                     brute_independence_number, disjoint_union, generated_group,
                     is_automorphism, random_graph, relabelled)


def test_complete():
    k1 = complete(1)
    assert k1.n == 1 and k1.edge_count == 0
    k8 = complete(8)
    assert k8.n == 8 and k8.edge_count == 28
    assert len(max_clique(k8)) == 8


def test_complete_range():
    with pytest.raises(GraphError):
        complete(0)
    with pytest.raises(GraphError):
        complete(129)


def test_cycle():
    c5 = cycle(5)
    assert c5.n == 5 and c5.edge_count == 5
    assert len(max_clique(c5)) == 2
    assert len(max_clique(complement(c5))) == 2
    with pytest.raises(GraphError):
        cycle(2)


def test_circulant():
    assert circulant(5, {1}) == cycle(5)
    c = circulant(13, {1, 5})
    assert c.n == 13 and c.edge_count == 26
    with pytest.raises(GraphError):
        circulant(13, {7})
    with pytest.raises(GraphError):
        circulant(13, {0})


def test_circulant_needs_an_offset():
    # With no offset the label would be `C5()`, which no source reads back.
    with pytest.raises(GraphError, match="at least one offset"):
        circulant(5, [])


def test_complement():
    assert complement(complete(5)).edge_count == 0
    assert complement(complement(cycle(5))) == cycle(5)
    # No graph source reads a `~C5` label back, so a complement has none.
    assert complement(cycle(5)).label == ""


def test_complement_duality_random():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 9))
        assert len(max_clique(complement(g))) == brute_independence_number(g)


def test_join_basics():
    g = join(complete(1), complete(1))
    assert g == complete(2)
    k8 = complete(8)
    c5 = cycle(5)
    j = join(k8, c5)
    assert j.n == 13
    assert j.edge_count == 28 + 5 + 40
    # normative vertex order: g1 first
    assert [row & 0xFF for row in j.adj[:8]] == list(k8.adj)
    assert [row >> 8 for row in j.adj[8:]] == list(c5.adj)
    # every cross pair adjacent
    assert all(j.adj[u] >> v & 1 for u in range(8) for v in range(8, 13))


def test_join_overflow():
    with pytest.raises(GraphError, match="vertex count 129 outside 1..128"):
        join(complete(100), complete(29))


def test_from_edges_checks_the_vertex_count_first():
    # Every builder from pairs goes through `from_edges`, which refuses an
    # out-of-range vertex count before it reads a pair or builds a row.
    spy = iter([(0, 1), (1, 2)])
    for n in (0, 200):
        with pytest.raises(GraphError, match=f"vertex count {n} outside 1..128"):
            Graph.from_edges(n, spy)
    assert next(spy) == (0, 1)


def test_join_clique_additivity_random():
    rng = random.Random(1)
    for _ in range(100):
        a = random_graph(rng, rng.randint(1, 8))
        b = random_graph(rng, rng.randint(1, 8))
        assert len(max_clique(join(a, b))) == len(max_clique(a)) + len(max_clique(b))


def test_graph_validation():
    for n in (0, 129):
        with pytest.raises(GraphError, match=f"vertex count {n} outside 1..128"):
            Graph(n, (0,) * n)
    with pytest.raises(GraphError, match="row count"):
        Graph(3, (0, 0))
    with pytest.raises(GraphError, match="asymmetric adjacency between 0 and 1"):
        Graph(2, (0b10, 0))
    with pytest.raises(GraphError):
        Graph(1, (1,))  # loop
    with pytest.raises(GraphError):
        Graph(2, (4, 0))  # out of range
    with pytest.raises(GraphError, match="loop at vertex 0"):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError, match=r"edge \(0,3\) out of range for n=3"):
        Graph.from_edges(3, [(0, 3)])


def test_clique_number_vs_bruteforce():
    rng = random.Random(42)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 10))
        assert len(max_clique(g)) == brute_clique_number(g)


def test_max_clique_witness_valid():
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 12))
        w = max_clique(g)
        assert w == sorted(w)
        assert all(g.adj[u] >> v & 1 for u, v in combinations(w, 2))
        # no larger clique
        assert enumerate_cliques(g, len(w) + 1) == []


def test_max_clique_deterministic():
    rng = random.Random(9)
    g = random_graph(rng, 12)
    assert max_clique(g) == max_clique(g)


def test_enumerate_cliques():
    assert len(enumerate_cliques(complete(6), 3)) == 20
    assert enumerate_cliques(cycle(5), 3) == []
    assert enumerate_cliques(complete(3), 1) == [(0,), (1,), (2,)]
    with pytest.raises(GraphError):
        enumerate_cliques(complete(3), 0)


def test_enumerate_cliques_vs_subset_filter():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 10))
        for k in range(1, 5):
            assert enumerate_cliques(g, k) == brute_cliques(g, k)


def test_has_clique_vs_subset_filter():
    rng = random.Random(19)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), p=rng.choice((0.4, 0.7)))
        full = (1 << g.n) - 1
        masks = [0, full] + [rng.randrange(full + 1) for _ in range(6)]
        for mask in masks:
            for k in range(7):
                want = any(all(mask >> v & 1 for v in vs) for vs in brute_cliques(g, k))
                assert has_clique(g, mask, k) == want, (edges(g), mask, k)
    with pytest.raises(GraphError):
        has_clique(complete(3), 7, -1)


def test_enumerate_cliques_lexicographic():
    g = complete(5)
    tris = enumerate_cliques(g, 3)
    assert tris == sorted(tris)


# --- graph6 -------------------------------------------------------------------

def test_graph6_known_string():
    g = parse_graph6("D?{")
    assert emit_graph6(g) == "D?{"
    assert g.n == 5


def test_graph6_roundtrip_random():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 20))
        assert parse_graph6(emit_graph6(g)) == g


def test_graph6_large_n_header():
    g = complete(70)
    s = emit_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


def test_graph6_against_networkx():
    rng = random.Random(13)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 15))
        h = nx.from_graph6_bytes(emit_graph6(g).encode())
        assert set(h.edges()) == set(edges(g))
        ours = parse_graph6(nx.to_graph6_bytes(h, header=False).decode().strip())
        assert ours == g


def test_graph6_errors():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("D?")  # truncated
    with pytest.raises(Graph6Error):
        parse_graph6("D?{{")  # too long
    with pytest.raises(Graph6Error):
        parse_graph6("\x1f??")  # byte below range
    with pytest.raises(Graph6Error, match="size header"):
        parse_graph6("~~??????")  # n = 0 in the 8-byte header
    with pytest.raises(Graph6Error, match="padding bits"):
        parse_graph6("A@")


@given(st.integers(1, 16), st.integers(0, 2**60))
@settings(max_examples=200, deadline=None)
def test_graph6_roundtrip_property(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n)
    assert parse_graph6(emit_graph6(g)) == g


@given(st.integers(1, 9), st.integers(0, 2**60))
@settings(max_examples=150, deadline=None)
def test_complement_duality_property(n, seed):
    g = random_graph(random.Random(seed), n)
    assert len(max_clique(complement(g))) == brute_independence_number(g)


# --- automorphisms -------------------------------------------------------------

def test_automorphism_generators_vs_brute_force():
    # The generators generate exactly the automorphism group, on random
    # graphs and on symmetric families (circulants, joins, disjoint unions,
    # complete and edgeless graphs), as built and relabelled.
    rng = random.Random(53)
    families = [complete(n) for n in range(1, 8)]
    families += [complement(complete(n)) for n in range(2, 8)]
    families += [circulant(n, offs) for n in range(3, 8)
                 for k in range(1, n // 2 + 1)
                 for offs in combinations(range(1, n // 2 + 1), k)]
    families += [join(complete(a), cycle(b)) for a in (1, 2, 3) for b in (3, 4)
                 if a + b <= 7]
    families += [join(cycle(3), cycle(4)), join(complement(complete(2)), cycle(5)),
                 disjoint_union(cycle(3), cycle(4)), disjoint_union(cycle(3), cycle(3)),
                 disjoint_union(complete(2), cycle(5)),
                 disjoint_union(complete(3), complete(3))]
    graphs = families + [relabelled(g, rng) for g in families]
    graphs += [random_graph(rng, rng.randint(1, 7), p=rng.choice((0.2, 0.5, 0.8)))
               for _ in range(200)]
    assert len(graphs) >= 250
    for g in graphs:
        gens = automorphism_generators(g)
        assert all(is_automorphism(g, perm) for perm in gens), edges(g)
        assert generated_group(g.n, gens) == brute_automorphisms(g), edges(g)


def hypercube(d: int) -> Graph:
    return Graph.from_edges(1 << d, [(u, u | 1 << i) for u in range(1 << d)
                                     for i in range(d) if not u >> i & 1])


def rook(k: int) -> Graph:
    # Cells of a k x k board, adjacent when they share a row or a column.
    return Graph.from_edges(k * k, [(a, b) for a, b in combinations(range(k * k), 2)
                                    if a // k == b // k or a % k == b % k])


def petersen() -> Graph:
    # The 2-subsets of {0..4}, adjacent when disjoint.
    pairs = list(combinations(range(5), 2))
    return Graph.from_edges(10, [(i, j) for i, j in combinations(range(10), 2)
                                 if not set(pairs[i]) & set(pairs[j])])


@pytest.mark.parametrize("name,order", [("Q", 52), ("K2+Q", 104),
                                        ("K3+C5+C5", 1200), ("C5+C5+C5", 6000),
                                        ("Petersen", 120), ("4-cube", 384),
                                        ("rook 4x4", 1152), ("Paley(13)", 78),
                                        ("C12", 24)])
def test_automorphism_group_orders(name, order):
    # Aut(Q) is the 13 rotations times the 4 multipliers {1, 5, 8, 12} of
    # the circulant.  A join's group is its parts' groups together with the
    # swaps of isomorphic parts (K_n is n joined K1s): K2+Q 2! * 52,
    # K3+C5+C5 3! * 10^2 * 2!, C5+C5+C5 10^3 * 3!, under any labelling.
    # A vertex-transitive graph's root partition is one cell, so each
    # individualization's refinement cascades from its one splitter:
    # Petersen S5, the 4-cube 2^4 * 4!, the rook graph 2 * 4!^2, Paley(13)
    # 13 * 6 (translations and multiplication by the squares), C12 the
    # dihedral group of order 24.
    q, c5 = build_q(), cycle(5)
    g = {"Q": q, "K2+Q": join(complete(2), q),
         "K3+C5+C5": join(complete(3), join(c5, c5)),
         "C5+C5+C5": join(c5, join(c5, c5)),
         "Petersen": petersen(), "4-cube": hypercube(4), "rook 4x4": rook(4),
         "Paley(13)": circulant(13, {1, 3, 4}), "C12": cycle(12)}[name]
    rng = random.Random(59)
    for h in (g, relabelled(g, rng), relabelled(g, rng)):
        assert len(generated_group(h.n, automorphism_generators(h))) == order


def test_generators_reject_leaves_that_are_not_automorphisms(monkeypatch):
    # The Shrikhande graph, the Cayley graph of Z4 x Z4 on +-(0,1), +-(1,0)
    # and +-(1,1), is strongly regular (16,6,2,2): refinement cannot tell
    # its vertices apart, so some leaves the search matches map an edge to
    # a non-edge, and `_maps_edges` must turn them down.
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    g = Graph.from_edges(16, [(u, v) for u, v in combinations(range(16), 2)
                              if ((v // 4 - u // 4) % 4, (v - u) % 4) in steps])
    assert emit_graph6(g) == "OlfJHsHBGK_\\oHWKeBK_\\"
    seen = []
    monkeypatch.setattr("folkman.graphs._maps_edges",
                        lambda g, perm: seen.append(_maps_edges(g, perm)) or seen[-1])
    gens = automorphism_generators(g)
    assert False in seen and True in seen
    assert all(is_automorphism(g, perm) for perm in gens)
    inverses = {tuple(sorted(range(16), key=perm.__getitem__)) for perm in gens}
    assert inverses == set(gens)
    assert len(generated_group(16, gens)) == 192


def test_orbit_maps_each_vertex_of_the_orbit():
    # `_orbit(v, gens, n)` keys v's orbit in the group gens generate, v
    # first with the identity, and each value is a composition of gens,
    # so an automorphism, that carries v to its key.
    c5 = cycle(5)
    for g in (cycle(12), petersen(), join(complete(3), join(c5, c5))):
        gens = automorphism_generators(g)
        group = generated_group(g.n, gens)
        for v in range(g.n):
            reach = _orbit(v, gens, g.n)
            assert next(iter(reach.items())) == (v, tuple(range(g.n)))
            assert set(reach) == {p[v] for p in group}
            for x, perm in reach.items():
                assert perm in group and perm[v] == x


def is_equitable(g: Graph, cells: list[int]) -> bool:
    """Do the cells partition the vertices so that, within each cell, every
    vertex has as many neighbors in each cell?"""
    members = [[v for v in range(g.n) if cell >> v & 1] for cell in cells]
    if sorted(v for vs in members for v in vs) != list(range(g.n)):
        return False
    return all(len({sum(g.adj[v] >> u & 1 for u in other) for v in vs}) == 1
               for vs in members for other in members)


def test_individualize_refines_from_one_splitter():
    # `_individualize` refines with {v} as the only splitter, because the
    # partition it starts from is equitable.  For every vertex of every
    # non-singleton cell of the root partition, its result must be
    # equitable and, as a set of cells, the partition that refining with
    # every cell as a splitter gives.
    rng = random.Random(61)
    q, c5 = complement(circulant(13, {1, 5})), cycle(5)  # Q, without its gate's search
    graphs = [random_graph(rng, rng.randint(1, 12), p=rng.choice((0.2, 0.5, 0.8)))
              for _ in range(300)]
    graphs += [q, join(complete(8), q), join(c5, join(c5, c5)),
               join(complete(3), join(c5, c5))]
    checked = 0
    for g in graphs:
        full = (1 << g.n) - 1
        root, _ = _refine(g.adj, [full], [full])
        assert is_equitable(g, root)
        for t, cell in enumerate(root):
            for v in (v for v in range(g.n) if cell & (cell - 1) and cell >> v & 1):
                cells, _ = _individualize(g.adj, root, t, v)
                assert is_equitable(g, cells), (edges(g), v)
                cut = root[:t] + [1 << v, cell & ~(1 << v)] + root[t + 1:]
                assert set(cells) == set(_refine(g.adj, cut, list(cut))[0])
                checked += 1
    assert checked == 890  # individualizations checked


# sha256 of the repr of the benchmark graphs' `automorphism_generators`
# lists, the graphs as the package builds them.  The exhaust and witness
# node counts depend on the exact permutations (generators and transversal
# elements), not only on the group they generate.  Re-pin only with the
# reason given in CHANGES.md.
GENERATORS_SHA256 = "ea5f294d7137d47eecadbc8eec8a9f0cb63cb9340728fdbb1be3a49ff7bb121b"


def test_benchmark_graph_generators_are_pinned():
    q, c5 = build_q(), cycle(5)
    benchmark_graphs = [complete(9), join(c5, join(c5, c5)), join(complete(2), q),
                        join(complete(3), q), join(complete(3), join(c5, c5)),
                        build_theorem_graph(), join(complete(8), join(c5, c5))]
    gens = [automorphism_generators(g) for g in benchmark_graphs]
    assert [len(perms) for perms in gens] == [8, 49, 25, 26, 25, 31, 30]
    assert hashlib.sha256(repr(gens).encode()).hexdigest() == GENERATORS_SHA256


def twin_blowup(rng, h: Graph) -> Graph:
    """h with each vertex replaced by a class of 1-3 mutual twins, adjacent
    or not, and each edge of h by all edges between the two classes."""
    classes, n = [], 0
    for _ in range(h.n):
        size = rng.randint(1, 3)
        classes.append(range(n, n + size))
        n += size
    es = [(a, b) for u, v in edges(h) for a in classes[u] for b in classes[v]]
    for cls in classes:
        if rng.random() < 0.5:
            es += combinations(cls, 2)
    return Graph.from_edges(n, es)


# sha256 of the repr of `automorphism_generators` over a seeded sweep of
# random graphs and twin blow-ups, each relabelled: the lists, not only the
# groups they generate, as `GENERATORS_SHA256` pins them on the benchmark
# graphs.  Re-pin only with the reason given in CHANGES.md.
GENERATORS_SWEEP_SHA256 = "7bd05c23ae3b788ab9d23b387df6e19a539c1881d77882719a8a96b0eba24fbe"


def test_generators_sweep_is_pinned():
    rng = random.Random(67)
    graphs = [random_graph(rng, rng.randint(1, 12), p=rng.choice((0.2, 0.5, 0.8)))
              for _ in range(1000)]
    graphs += [twin_blowup(rng, random_graph(rng, rng.randint(2, 5)))
               for _ in range(1000)]
    gens = [automorphism_generators(relabelled(g, rng)) for g in graphs]
    assert sum(map(len, gens)) > 5000
    assert hashlib.sha256(repr(gens).encode()).hexdigest() == GENERATORS_SWEEP_SHA256


def test_automorphism_generators_twin_classes():
    # Every vertex of K_n is a twin of every other: the generators are the
    # adjacent transpositions, with no search.
    gens = automorphism_generators(complete(128))
    assert gens == [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, 128))
                    for i in range(127)]
    # K32,32: 63 generators, the twin swaps within each side and one swap
    # of the sides, then the one level's transversal (vertex 0's orbit is
    # all 64 vertices) with inverses; 4 of those 126 are generators or
    # repeats.
    g = Graph.from_edges(64, [(u, 32 + v) for u in range(32) for v in range(32)])
    gens = automorphism_generators(g)
    assert len(gens) == 63 + 122
    assert any(perm[0] >= 32 for perm in gens[:63])
    assert {perm[0] for perm in gens} == set(range(64))
