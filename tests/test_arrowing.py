import hashlib
import json
import random
import re
import time
import types

import pytest

from folkman import arrowing
from folkman.arrowing import (ArrowInstance, ArrowSpec, ColoringError,
                              EdgeColoring, SearchBudget, Verdict,
                              VertexColoring, VertexInstance, _search,
                              arrows_edges, arrows_vertices,
                              decimal, is_free_edge_coloring)
from folkman.graphs import (Graph, _individualize, _refine, _target, _twin_classes,
                            automorphism_generators, circulant, complete, cycle,
                            edges, join, mask_of)
from folkman.bounds import bound_certificate, build_lin_graph, build_q, build_theorem_graph
from folkman.cnf import (CnfError, decode_model, dimacs_sha256, emit_dimacs,
                         encode_edge_arrowing)
from oracles import (brute_arrows_edges, brute_arrows_edges_2color,
                     brute_arrows_vertices, brute_cliques, brute_first_free_coloring,
                     brute_first_free_vertex_coloring, disjoint_union,
                     generated_group, is_automorphism, random_graph, relabelled)


def unbounded(g: Graph, spec: ArrowSpec) -> ArrowInstance:
    """The edge instance with no neighborhood test in its search."""
    inst = ArrowInstance(g, spec)
    inst.bounds = None
    return inst


def pentagon_pentagram(k5: Graph) -> EdgeColoring:
    # Classical R(3,3) > 5 witness: 5-cycle blue, diagonals red.
    ring = {(i, (i + 1) % 5) for i in range(5)}
    ring = {tuple(sorted(e)) for e in ring}
    return EdgeColoring(k5, tuple(1 if e in ring else 2 for e in edges(k5)))


def test_arrow_spec_validation():
    with pytest.raises(ValueError):
        ArrowSpec((1, 3))
    with pytest.raises(ValueError):
        ArrowSpec((3, 3, 3, 3, 3))
    assert ArrowSpec.parse("3,5").sizes == (3, 5)
    assert ArrowSpec.parse(" 3 , 5 ").sizes == (3, 5)
    assert ArrowSpec.parse("03,4").sizes == (3, 4)
    # Each size is ASCII digits: int() alone would read `1_0` as 10,
    # fullwidth digits as ASCII ones and `+3` as 3.
    for text, size in [("1_0,3", "1_0"), ("\uff13,\uff15", "\uff13"), ("+3,4", "+3"),
                       ("-3,4", "-3"), ("3,x", "x"), ("3,4,", ""), ("3,,4", ""),
                       ("", ""), ("3.0,4", "3.0"), ("\u00b3,4", "\u00b3")]:
        with pytest.raises(ValueError, match=re.escape(
                f"spec size: {size!r} is not a decimal integer")):
            ArrowSpec.parse(text)
    # More digits than int() converts is named, not int()'s own message.
    with pytest.raises(ValueError, match="^spec size: 5000 digits, too many for int"):
        ArrowSpec.parse("3," + "9" * 5000)


def test_graphs_and_specs_are_values():
    # Equal graphs and equal specs hash alike, so each pair is one set
    # element; neither equals a value of another type, and each repr reads
    # back as an equal value.  A graph's label is a name, not part of it.
    k3 = complete(3)
    assert len({k3, k3.relabel("triangle"), Graph(3, k3.adj)}) == 1
    assert len({ArrowSpec((3, 4)), ArrowSpec.parse("3,4")}) == 1
    assert complete(3) != "K3"
    assert ArrowSpec((3, 3)) != (3, 3)
    names = {"Graph": Graph, "ArrowSpec": ArrowSpec}
    for value in (k3, ArrowSpec((3, 4))):
        assert eval(repr(value), names) == value
    assert eval(repr(k3), names).label == "K3"


def test_decimal_reads_ascii_digits_only():
    # The package's one rule for text that is a number.
    for text, value in [("13", 13), (" 100", 100), ("7 ", 7), ("007", 7), ("0", 0)]:
        assert decimal(text) == value
    for text in ("\u0661\u0663", "1_3", "\uff15", "+7", " +7", "-1", "", " ", "1 3",
                 "1e3", "0x1f", "\u00b3"):
        with pytest.raises(ValueError, match=re.escape(
                f"flag: {text!r} is not a decimal integer")):
            decimal(text, "flag")
    with pytest.raises(ValueError) as info:
        decimal("9" * 5000, "flag")
    assert str(info.value) == "flag: 5000 digits, too many for int()"


def test_is_free_edge_coloring_pentagon():
    k5 = complete(5)
    ok, violation = is_free_edge_coloring(k5, ArrowSpec((3, 3)), pentagon_pentagram(k5))
    assert ok and violation is None


def test_is_free_edge_coloring_monochromatic_triangle():
    k3 = complete(3)
    ok, violation = is_free_edge_coloring(k3, ArrowSpec((3, 3)),
                                          EdgeColoring(k3, (1, 1, 1)))
    assert not ok
    assert violation == (1, (0, 1, 2))


def test_is_free_edge_coloring_planted_red_k5():
    g = build_theorem_graph()
    colors = list(1 for _ in edges(g))
    # plant an all-red K5 on the K8 part
    idx = {e: i for i, e in enumerate(edges(g))}
    planted = [0, 1, 2, 3, 4]
    for i, u in enumerate(planted):
        for v in planted[i + 1:]:
            colors[idx[(u, v)]] = 2
    ok, violation = is_free_edge_coloring(g, ArrowSpec((3, 5)),
                                          EdgeColoring(g, tuple(colors)))
    assert not ok
    assert violation[0] in (1, 2)
    if violation[0] == 2:
        assert violation[1] == tuple(planted)


def test_is_free_edge_coloring_partial_rejected():
    k3 = complete(3)
    with pytest.raises(ColoringError):
        EdgeColoring(k3, (1, 1))
    with pytest.raises(ColoringError, match="2 colors for 3 vertices"):
        VertexColoring(k3, (1, 2))
    with pytest.raises(ColoringError):
        is_free_edge_coloring(k3, ArrowSpec((3, 3)), EdgeColoring(k3, (1, 1, 5)))
    with pytest.raises(ColoringError, match="different graph"):
        is_free_edge_coloring(complete(4), ArrowSpec((3, 3)),
                              EdgeColoring(cycle(4), (1, 2, 1, 2)))
    # A vertex coloring is not read as edge colors, whether its length
    # happens to match the edge count (K3) or not (K4).
    for g, colors in [(k3, (1, 2, 1)), (complete(4), (1, 2, 1, 2))]:
        with pytest.raises(ColoringError, match="not of edges"):
            is_free_edge_coloring(g, ArrowSpec((3, 3)), VertexColoring(g, colors))


def test_vertex_violation():
    assert VertexInstance(complete(4), ArrowSpec((3, 3))).violation((1, 1, 2, 2)) is None
    k5 = VertexInstance(complete(5), ArrowSpec((3, 3)))
    # The first violation in color order, then lexicographic clique order.
    for colors, first in [((1, 1, 1, 2, 2), (1, (0, 1, 2))),
                          ((1, 2, 1, 2, 1), (1, (0, 2, 4))),
                          ((2, 2, 2, 2, 2), (2, (0, 1, 2))),
                          ((2, 1, 1, 1, 1), (1, (1, 2, 3)))]:
        assert k5.violation(colors) == first


def test_free_checks_report_the_first_violation():
    # The instance keeps only each clique's item ids; the reported clique is
    # still the first monochromatic one in color, then lexicographic, order.
    rng = random.Random(83)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9), p=rng.choice((0.4, 0.7, 1.0)))
        sizes = tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 4)))
        spec = ArrowSpec(sizes)
        elist = edges(g)
        ecolors = tuple(rng.randint(1, spec.r) for _ in elist)
        vcolors = tuple(rng.randint(1, spec.r) for _ in range(g.n))
        edge_color = dict(zip(elist, ecolors))
        first_edge = next(((c, q) for c, a in enumerate(sizes, start=1)
                           for q in brute_cliques(g, a)
                           if all(edge_color[u, v] == c for i, u in enumerate(q)
                                  for v in q[i + 1:])), None)
        first_vertex = next(((c, q) for c, a in enumerate(sizes, start=1)
                             for q in brute_cliques(g, a)
                             if all(vcolors[v] == c for v in q)), None)
        assert is_free_edge_coloring(g, spec, EdgeColoring(g, ecolors)) == (
            first_edge is None, first_edge), (g.adj, sizes, ecolors)
        assert VertexInstance(g, spec).violation(vcolors) == first_vertex, (
            g.adj, sizes, vcolors)
        if spec.r == 2:
            model = [e if c == 1 else -e for e, c in enumerate(ecolors, start=1)]
            if first_edge is None:
                assert decode_model(g, spec, model).colors == ecolors
            else:
                with pytest.raises(CnfError, match=re.escape(
                        f"clique {first_edge[1]} is monochromatic in color "
                        f"{first_edge[0]}")):
                    decode_model(g, spec, model)


def test_arrows_vertices_q():
    out = arrows_vertices(build_q(), ArrowSpec((3, 4)))
    assert out.verdict is Verdict.ARROWS
    # The counts pin the vertex search's order, propagation and symmetry
    # test: 24 of Q's 52 automorphisms (its two generators, and a
    # transversal of the root level, the 13 rotations, with inverses) cut 6
    # branches (72 nodes and 223 propagations without them).
    assert (out.stats.nodes, out.stats.propagations) == (32, 72)
    assert out.stats.prunings == {"clique": 11, "symmetry": 6}
    assert out.stats.generators == 24


def test_arrows_vertices_pigeonhole():
    # K_n vertex-arrows (a,b) iff n >= a+b-1
    for a in range(2, 5):
        for b in range(2, 5):
            for n in range(max(a, b), a + b + 1):
                out = arrows_vertices(complete(n), ArrowSpec((a, b)))
                expected = Verdict.ARROWS if n >= a + b - 1 else Verdict.FREE_COLORING
                assert out.verdict is expected, (n, a, b)
                if out.verdict is Verdict.FREE_COLORING:
                    assert VertexInstance(complete(n), ArrowSpec((a, b))).violation(
                        out.witness.colors) is None


def test_arrows_vertices_vs_bruteforce():
    rng = random.Random(17)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6))
        spec = ArrowSpec((3, 3))
        out = arrows_vertices(g, spec)
        assert (out.verdict is Verdict.ARROWS) == brute_arrows_vertices(g, spec.sizes)


def symmetric_graphs(max_n: int, max_edges: int) -> list[Graph]:
    """Circulants, K_a + C_b, C5 + C5 and disjoint unions within the size
    limits, each as built and once relabelled."""
    rng = random.Random(61)
    c5 = cycle(5)
    graphs = [circulant(n, offs) for n in range(4, 10)
              for offs in ((1,), (2,), (1, 2), (1, n // 2), (2, n // 2))
              if len(set(offs)) == len(offs) and max(offs) <= n // 2]
    graphs += [join(complete(a), cycle(b)) for a in (1, 2, 3) for b in (3, 4, 5)]
    graphs += [join(c5, c5), disjoint_union(c5, c5), disjoint_union(complete(3), c5),
               disjoint_union(complete(3), complete(4)),
               disjoint_union(complete(4), complete(4)),
               disjoint_union(cycle(4), complete(3))]
    graphs = [g for g in graphs if g.n <= max_n and g.edge_count <= max_edges]
    return graphs + [relabelled(g, rng) for g in graphs]


def test_arrows_vertices_witness_is_first_free_coloring():
    # The vertex search returns the lexicographically first free coloring
    # in its vertex order, colors ascending.  With a = 2 a color class must
    # be independent; that color is not banned outright, as it is for edges.
    # Random graphs seldom have automorphisms, so symmetric ones are added
    # to check the symmetry cut.
    rng = random.Random(43)
    graphs = [random_graph(rng, rng.randint(1, 8), p=rng.choice((0.3, 0.5, 0.8)))
              for _ in range(60)]
    # A free coloring found after a symmetry cut.
    graphs.append(relabelled(disjoint_union(join(cycle(5), cycle(5)), complete(3)),
                             random.Random(0)))
    # With 4 colors the cut compares colors 3 and 4 as well (K6 makes 15
    # such cuts).
    symmetry_cuts = [0] * 5  # by number of colors
    for g in graphs + symmetric_graphs(max_n=10, max_edges=45):
        order = sorted(range(g.n), key=lambda v: (-g.adj[v].bit_count(), v))
        for sizes in ((2, 2), (2, 3), (3, 3), (3, 4), (2, 3, 4), (3, 3, 3), (4,),
                      (2, 2, 2, 3)):
            if len(sizes) == 3 and g.n > 8 or len(sizes) == 4 and g.n > 7:
                continue  # r^n colorings for the oracle
            want = brute_first_free_vertex_coloring(g, sizes, order)
            out = arrows_vertices(g, ArrowSpec(sizes))
            assert (out.verdict is Verdict.ARROWS) == (want is None)
            got = None if out.witness is None else dict(enumerate(out.witness.colors))
            assert got == want, (edges(g), sizes)
            symmetry_cuts[len(sizes)] += out.stats.prunings.get("symmetry", 0)
    assert sum(symmetry_cuts[:4]) > 0 and symmetry_cuts[4] > 0


def test_arrows_edges_thresholds_33():
    for n in range(3, 6):
        assert arrows_edges(complete(n), ArrowSpec((3, 3))).verdict is Verdict.FREE_COLORING
    assert arrows_edges(complete(6), ArrowSpec((3, 3))).verdict is Verdict.ARROWS


def test_arrows_edges_thresholds_34():
    assert arrows_edges(complete(8), ArrowSpec((3, 4))).verdict is Verdict.FREE_COLORING
    out = arrows_edges(complete(9), ArrowSpec((3, 4)))
    assert out.verdict is Verdict.ARROWS
    # The 8 adjacent transpositions of S_9 cut the tree from 21,458 nodes
    # and 51,403 propagations.
    assert (out.stats.nodes, out.stats.propagations) == (98, 46)
    assert out.stats.generators == 8
    assert out.stats.prunings["symmetry"] == 27


def test_arrows_edges_witness_sound():
    g = complete(5)
    out = arrows_edges(g, ArrowSpec((3, 3)))
    assert out.verdict is Verdict.FREE_COLORING
    ok, _ = is_free_edge_coloring(g, ArrowSpec((3, 3)), out.witness)
    assert ok


def test_arrows_edges_vs_bruteforce_all_small_graphs():
    # all graphs on <= 5 vertices (as edge subsets of K5, one per mask sample)
    spec33, spec34 = ArrowSpec((3, 3)), ArrowSpec((3, 4))
    for n in range(2, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            for spec in (spec33, spec34):
                got = arrows_edges(g, spec).verdict is Verdict.ARROWS
                want, _ = brute_arrows_edges_2color(g, spec.sizes)
                assert got == want, (n, mask, spec.sizes)


def test_arrows_edges_vs_bruteforce_random():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randint(4, 8), p=0.6, max_edges=16)
        for spec in (ArrowSpec((3, 3)), ArrowSpec((3, 4))):
            got = arrows_edges(g, spec).verdict is Verdict.ARROWS
            want, _ = brute_arrows_edges_2color(g, spec.sizes)
            assert got == want


def test_arrows_edges_witness_is_first_free_coloring():
    # The search returns the lexicographically first free coloring in its
    # edge order, colors ascending: pruning and propagation may only cut
    # subtrees that hold no free coloring.
    # Random graphs seldom have automorphisms, so symmetric ones are added
    # to check the symmetry cut.  Within the oracle's reach it cuts only
    # ARROWS trees (K3+C3 = K6 here): these free colorings are found before
    # any branch that an automorphism maps to a smaller one.  (4,5) and
    # (3,7) take their neighborhood caps from R(4,4) and R(3,6).
    rng = random.Random(41)
    graphs = [random_graph(rng, rng.randint(3, 7), p=0.6, max_edges=12)
              for _ in range(200)]
    symmetry_cuts = 0
    for g in graphs + symmetric_graphs(max_n=10, max_edges=15):
        for sizes in ((2, 3), (3, 3), (3, 4), (4, 5), (3, 7), (3, 3, 3)):
            if len(sizes) == 3 and g.edge_count > 12:
                continue  # 3^m colorings for the oracle
            spec = ArrowSpec(sizes)
            inst = ArrowInstance(g, spec)
            want = brute_first_free_coloring(g, sizes,
                                             [inst.items[e] for e in inst.order])
            for pruned, out in ((True, arrows_edges(g, spec)),
                                (False, _search(unbounded(g, spec), None))):
                assert (out.verdict is Verdict.ARROWS) == (want is None)
                got = None if out.witness is None else {
                    (u, v): c for u, v, c in out.witness.to_json_obj()}
                assert got == want, (edges(g), sizes, pruned)
                symmetry_cuts += out.stats.prunings.get("symmetry", 0)
    assert symmetry_cuts > 0


def test_arrows_edges_three_colors():
    # tiny r=3 case against plain enumeration
    g = complete(3)
    spec = ArrowSpec((2, 2, 3))
    got = arrows_edges(g, spec).verdict is Verdict.ARROWS
    want, _ = brute_arrows_edges(g, spec.sizes)
    assert got == want


def test_arrows_edges_monotone_under_edge_addition():
    rng = random.Random(29)
    spec = ArrowSpec((3, 3))
    for _ in range(20):
        g = random_graph(rng, 6, p=0.7)
        if arrows_edges(g, spec).verdict is not Verdict.ARROWS:
            continue
        non_edges = [(u, v) for u in range(6) for v in range(u + 1, 6)
                     if not g.adj[u] >> v & 1]
        for extra in non_edges:
            h = Graph.from_edges(6, edges(g) + [extra])
            assert arrows_edges(h, spec).verdict is Verdict.ARROWS


def test_arrows_edges_pruning_verdict_invariant():
    rng = random.Random(31)
    neighborhood_cuts = 0
    for _ in range(25):
        g = random_graph(rng, rng.randint(4, 7))
        for spec in (ArrowSpec((3, 3)), ArrowSpec((3, 4))):
            a = arrows_edges(g, spec)
            b = _search(unbounded(g, spec), None)
            assert a.verdict == b.verdict
            assert "neighborhood" not in b.stats.prunings
            neighborhood_cuts += a.stats.prunings.get("neighborhood", 0)
    assert neighborhood_cuts > 0
    # R(3,6) = 18 caps a (3,7) search's color-1 neighborhoods at cliques of
    # 6, which cuts on K8 and up; the cut changes neither verdict nor witness.
    for n in (8, 9, 10):
        g, spec = complete(n), ArrowSpec((3, 7))
        a, b = arrows_edges(g, spec), _search(unbounded(g, spec), None)
        assert a.witness.colors == b.witness.colors
        assert a.stats.prunings["neighborhood"] > 0


def test_instance_decides_the_neighborhood_test():
    # 2-color edge instances carry the Ramsey caps; 3-color and vertex
    # instances carry none, so their searches make no neighborhood cut.
    k6 = complete(6)
    assert ArrowInstance(k6, ArrowSpec((3, 5))).bounds == (4, 8)
    assert ArrowInstance(k6, ArrowSpec((3, 3, 3))).bounds is None
    assert VertexInstance(k6, ArrowSpec((3, 3))).bounds is None


def test_instance_decides_the_domains():
    # Bit c of domains[e] lets item e take color c.  a = 2 bans a color
    # from every edge; equal sizes leave the first item in the order only
    # color 1; a vertex is never a clique of 2 or more, so keeps them all.
    k4 = complete(4)
    assert ArrowInstance(k4, ArrowSpec((2, 3, 3))).domains == (0b1100,) * 6
    inst = ArrowInstance(k4, ArrowSpec((3, 3)))
    first = inst.order[0]
    assert inst.domains[first] == 0b10
    assert [d for e, d in enumerate(inst.domains) if e != first] == [0b110] * 5
    assert ArrowInstance(k4, ArrowSpec((3, 4))).domains == (0b110,) * 6
    assert VertexInstance(k4, ArrowSpec((3, 4))).domains == (0b110,) * 4


@pytest.mark.parametrize("kind", ["edges", "vertices"])
def test_pinned_domain_is_a_cube(kind):
    # A cube is a set of initial domains, not a second search: with one
    # item pinned to one color through `domains`, and no automorphisms
    # (they need not preserve the pin), the search returns the first free
    # coloring among those that give the item that color.
    rng = random.Random(53)
    graphs = [random_graph(rng, rng.randint(3, 6), p=0.7, max_edges=10)
              for _ in range(30)]
    graphs += [complete(5), join(complete(1), cycle(4))]
    make = ArrowInstance if kind == "edges" else VertexInstance
    moved = 0  # cases where the pin changes the outcome
    for g in graphs:
        for sizes in ((2, 3), (3, 3), (3, 4), (2, 3, 3), (3, 3, 3)):
            spec = ArrowSpec(sizes)
            inst = make(g, spec)
            if not inst.items or (spec.r == 3 and len(inst.items) > 8):
                continue  # nothing to pin, or 3^m colorings for the oracle
            order = [inst.items[x] for x in inst.order]
            x, c = rng.randrange(len(inst.items)), rng.randint(1, spec.r)
            fixed = {inst.items[x]: c}
            if len(set(sizes)) == 1:  # the instance keeps color 1 first
                fixed.setdefault(order[0], 1)
            inst.symmetries = ()
            free = _search(inst, None)
            domains = list(inst.domains)
            domains[x] = 1 << c
            inst.domains = tuple(domains)
            out = _search(inst, None)
            if kind == "edges":
                want = brute_first_free_coloring(g, sizes, order, fixed)
                got = None if out.witness is None else {
                    (u, v): col for u, v, col in out.witness.to_json_obj()}
            else:
                want = brute_first_free_vertex_coloring(g, sizes, order, fixed)
                got = None if out.witness is None else dict(enumerate(out.witness.colors))
            assert (out.verdict is Verdict.ARROWS) == (want is None)
            assert got == want, (edges(g), sizes, x, c)
            moved += ((out.witness and out.witness.colors)
                      != (free.witness and free.witness.colors))
    assert moved > 0


def test_arrows_edges_budget_exhaustion():
    # C5+C5+C5 -> (3,3) takes thousands of nodes; K9 -> (3,4) now takes 98.
    c5 = cycle(5)
    out = arrows_edges(join(c5, join(c5, c5)), ArrowSpec((3, 3)),
                       budget=SearchBudget(max_nodes=100))
    assert out.verdict is Verdict.BUDGET_EXHAUSTED
    assert out.witness is None
    assert out.stats.nodes == 100


def test_time_budget_is_checked_at_every_node(monkeypatch):
    # A clock that gains a second per read: with a 2.5 s budget the search
    # must stop within a few nodes, not run K6's 13 to the verdict.
    ticks = iter(range(10**6))
    clock = types.SimpleNamespace(monotonic=lambda: float(next(ticks)))
    monkeypatch.setattr(arrowing, "time", clock)
    out = arrows_edges(complete(6), ArrowSpec((3, 3)), SearchBudget(max_seconds=2.5))
    assert out.verdict is Verdict.BUDGET_EXHAUSTED
    assert out.stats.nodes <= 3


@pytest.mark.parametrize("search,g,sizes,nodes", [
    (arrows_edges, complete(6), (3, 3), 13),
    (arrows_vertices, build_q(), (3, 4), 32),
    (arrows_edges, complete(6), (2, 3, 3), 16),
])
def test_node_budget_is_exact(search, g, sizes, nodes):
    # A budget of N nodes tries N: it is checked before a node is counted,
    # so a search that takes exactly N nodes finishes within it.
    spec = ArrowSpec(sizes)
    out = search(g, spec, SearchBudget(max_nodes=nodes))
    assert (out.verdict, out.stats.nodes) == (Verdict.ARROWS, nodes)
    for cap in (nodes - 1, 1):
        out = search(g, spec, SearchBudget(max_nodes=cap))
        assert (out.verdict, out.stats.nodes) == (Verdict.BUDGET_EXHAUSTED, cap)


def test_search_with_no_items_or_no_colors():
    # With no items there is no decision to make: the coloring is free and
    # empty at 0 nodes, whatever the budget.  An item whose domain is empty
    # exhausts the root decision at once: ARROWS at 0 nodes.
    for g in (Graph(3, (0, 0, 0)), complete(1)):
        for budget in (None, SearchBudget(max_nodes=1)):
            out = arrows_edges(g, ArrowSpec((3, 3)), budget)
            assert out.verdict is Verdict.FREE_COLORING
            assert (out.witness.colors, out.stats.nodes) == ((), 0)
    out = arrows_edges(complete(2), ArrowSpec((2, 2)))
    assert (out.verdict, out.stats.nodes) == (Verdict.ARROWS, 0)


def test_setup_time_is_kept_apart_from_search_time(monkeypatch):
    # The index build (here its automorphisms, made slow) counts as setup;
    # `seconds`, which the time budget bounds, starts with the search loop.
    def slow_generators(g):
        time.sleep(0.2)
        return find_generators(g)

    find_generators = arrowing.automorphism_generators
    monkeypatch.setattr(arrowing, "automorphism_generators", slow_generators)
    for search in (arrows_edges, arrows_vertices):
        out = search(complete(5), ArrowSpec((3, 3)), SearchBudget(max_seconds=0.1))
        assert out.verdict is not Verdict.BUDGET_EXHAUSTED
        assert out.stats.setup_seconds >= 0.2 > out.stats.seconds
        assert out.to_json_obj()["stats"]["setup_seconds"] >= 0.2


def test_search_set_up_covers_the_clique_enumeration(monkeypatch):
    # An instance holds its graph and spec until a view is read, so the
    # cliques are enumerated on first read: a search on a fresh instance
    # does it inside its own set-up, and `setup_seconds` covers it.
    delay = 0.02
    calls = []
    real = arrowing.enumerate_cliques

    def slow(g, k):
        calls.append(k)
        time.sleep(delay)
        return real(g, k)

    monkeypatch.setattr(arrowing, "enumerate_cliques", slow)
    g, spec = join(complete(2), cycle(5)), ArrowSpec((3, 4))
    for kind in (ArrowInstance, VertexInstance):
        inst = kind(g, spec)
        assert calls == [], kind
        assert _search(inst, None).stats.setup_seconds >= 2 * delay, kind
        assert sorted(calls) == [3, 4], kind
        calls.clear()
    for search in (arrows_edges, arrows_vertices):
        assert search(g, spec).stats.setup_seconds >= 2 * delay, search
        assert len(calls) == 2, search
        calls.clear()


def test_budget_refuses_non_finite_seconds():
    # nan <= 0 is false, so a NaN budget was accepted and never ran out.
    for seconds in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="max_seconds"):
            SearchBudget(max_seconds=seconds)
    assert SearchBudget(max_seconds=0.5).max_seconds == 0.5
    with pytest.raises(ValueError, match="max_nodes must be positive"):
        SearchBudget(max_nodes=0)


def test_arrows_vertices_budget_exhaustion():
    out = arrows_vertices(build_q(), ArrowSpec((3, 4)),
                          budget=SearchBudget(max_nodes=10))
    assert out.verdict is Verdict.BUDGET_EXHAUSTED


def test_deterministic_witness_reproducible():
    g = complete(8)
    spec = ArrowSpec((3, 4))
    w1 = arrows_edges(g, spec).witness
    w2 = arrows_edges(g, spec).witness
    assert w1.colors == w2.colors


def test_arrows_edges_search_pins():
    # Node, propagation and pruning counts and the witness pin the search
    # itself: edge order, propagation, pruning tests, the first edge's
    # single color and the automorphism test.  Without the automorphism
    # test, K6 took 19 nodes, 6 propagations and {"neighborhood": 10},
    # K1+C5+C5 93, 77 and {"neighborhood": 47}; K8 and C5+C5 find their
    # witness before any symmetry cut, so their counts and the witness are
    # unchanged.
    out = arrows_edges(complete(6), ArrowSpec((3, 3)))
    assert out.verdict is Verdict.ARROWS
    assert (out.stats.nodes, out.stats.prunings) == (
        13, {"neighborhood": 5, "symmetry": 2})
    assert (out.stats.propagations, out.stats.generators) == (5, 5)
    # Without the neighborhood test the clique checks make up the cuts.
    out = _search(unbounded(complete(6), ArrowSpec((3, 3))), None)
    assert out.verdict is Verdict.ARROWS
    assert (out.stats.nodes, out.stats.prunings) == (
        13, {"clique": 5, "symmetry": 2})
    assert (out.stats.propagations, out.stats.generators) == (15, 5)
    out = arrows_edges(complete(8), ArrowSpec((3, 4)))
    assert out.verdict is Verdict.FREE_COLORING
    assert (out.stats.nodes, out.stats.propagations) == (31, 17)
    assert out.stats.prunings == {"clique": 2, "neighborhood": 9}
    digest = hashlib.sha256(json.dumps(out.witness.to_json_obj()).encode())
    assert digest.hexdigest() == (
        "0cfb1e2e88f2a4f386dd39cc8cb552cbb7dcf62e90f7c6cb03c9a4d8f7b82ad3")
    # In K_n every edge lies in equally many forbidden cliques, so the
    # order is lexicographic there; these joins pin the order by how many
    # of the instance's forbidden cliques hold each edge.
    c5c5 = join(cycle(5), cycle(5))
    out = arrows_edges(c5c5, ArrowSpec((3, 3)))
    assert out.verdict is Verdict.FREE_COLORING
    assert (out.stats.nodes, out.stats.prunings) == (19, {})
    assert out.stats.propagations == 16
    out = arrows_edges(join(complete(1), c5c5), ArrowSpec((3, 3)),
                       budget=SearchBudget(max_nodes=10_000))
    assert out.verdict is Verdict.ARROWS
    assert (out.stats.nodes, out.stats.propagations) == (61, 66)
    assert out.stats.prunings == {"neighborhood": 23, "symmetry": 8}
    assert out.stats.generators == 23
    # A decision tries only the colors in its edge's domain: with (2,3,3)
    # color 1 is in no domain, so no edge of K5 is tried in it; in K7
    # (3,3,3) the colors propagation took out of a domain are not tried.
    out = arrows_edges(complete(5), ArrowSpec((2, 3, 3)))
    assert out.verdict is Verdict.FREE_COLORING
    assert (out.stats.nodes, out.stats.propagations) == (7, 9)
    assert out.stats.prunings == {"clique": 2}
    out = arrows_edges(complete(7), ArrowSpec((3, 3, 3)))
    assert out.verdict is Verdict.FREE_COLORING
    assert (out.stats.nodes, out.stats.propagations) == (35, 25)
    assert out.stats.prunings == {"clique": 7, "symmetry": 4}


# Totals over `sweep_graphs()` per (search, sizes): nodes, propagations,
# prunings by cause, generators.  Re-pin only for a change that means to
# move them, such as a new forcing order (ROADMAP item 5), and give the
# reason in CHANGES.md.
SWEEP_PINS = {
    ("edges", (3,)): (587, 0, {"clique": 132}, 887),
    ("edges", (2, 3)): (587, 0, {"neighborhood": 132}, 887),
    ("edges", (3, 3)): (1296, 482, {"neighborhood": 92, "symmetry": 8}, 887),
    ("edges", (3, 4)): (1178, 545, {"neighborhood": 23}, 887),
    ("edges", (2, 3, 3)): (1308, 673, {"clique": 92, "symmetry": 16}, 887),
    ("edges", (3, 3, 3)): (1646, 148, {"clique": 25, "symmetry": 4}, 887),
    ("edges", (2, 2, 3, 3)): (1308, 673, {"clique": 92, "symmetry": 16}, 887),
    ("edges", (3, 3, 3, 3)): (1681, 34, {"clique": 5}, 887),
    ("vertices", (2,)): (263, 0, {"clique": 206}, 965),
    ("vertices", (3,)): (727, 0, {"clique": 132}, 965),
    ("vertices", (2, 3)): (636, 1298, {"clique": 205}, 965),
    ("vertices", (3, 3)): (972, 440, {"clique": 51}, 965),
    ("vertices", (2, 2, 3)): (1129, 720, {"clique": 137, "symmetry": 34}, 965),
    ("vertices", (2, 3, 4)): (1186, 148, {"clique": 12, "symmetry": 12}, 965),
    ("vertices", (2, 2, 2, 3)): (1313, 266, {"clique": 60, "symmetry": 60}, 965),
    ("vertices", (2, 2, 2, 2)): (1260, 437, {"clique": 120}, 965),
}
# sha256 over (search, sizes, verdict) of every case, in order.  A search
# order or a cut may move the counts and witnesses, never a verdict.
SWEEP_VERDICT_SHA256 = "11fa2c9bae7c42408eac72216d17507dfe74ad3f4120ac29f2e053f03ba97763"
# sha256 over (search, sizes, verdict, witness colors) of every case, in order.
SWEEP_WITNESS_SHA256 = "9076db5403005d1f810b7480a7da2d5f4f68e927afe30eee45ab8092b5ac6119"


def sweep_graphs() -> list[Graph]:
    rng = random.Random(97)
    graphs = [random_graph(rng, rng.randint(1, 8), p=rng.choice((0.3, 0.5, 0.8)),
                           max_edges=14) for _ in range(150)]
    return (graphs + symmetric_graphs(max_n=10, max_edges=20)
            + [complete(n) for n in range(2, 8)])


def test_sweep_counts_are_pinned():
    # Both searches, 1 to 4 colors, random and symmetric graphs: every
    # count and witness of the search loop, summed.
    graphs = sweep_graphs()
    verdicts, digest = hashlib.sha256(), hashlib.sha256()
    got = {}
    for search, sizes in SWEEP_PINS:
        run = arrows_edges if search == "edges" else arrows_vertices
        nodes = propagations = generators = 0
        prunings: dict[str, int] = {}
        for g in graphs:
            out = run(g, ArrowSpec(sizes))
            nodes += out.stats.nodes
            propagations += out.stats.propagations
            generators += out.stats.generators
            for cause, count in out.stats.prunings.items():
                prunings[cause] = prunings.get(cause, 0) + count
            colors = None if out.witness is None else out.witness.colors
            verdicts.update(repr((search, sizes, out.verdict.value)).encode())
            digest.update(repr((search, sizes, out.verdict.value, colors)).encode())
        got[search, sizes] = (nodes, propagations, prunings, generators)
    assert verdicts.hexdigest() == SWEEP_VERDICT_SHA256
    assert got == SWEEP_PINS
    assert digest.hexdigest() == SWEEP_WITNESS_SHA256


def test_arrows_edges_deep_search_no_recursion_limit():
    # K32,32 has 1024 edges, one search depth each, past Python's default
    # recursion limit.  It is triangle-free, so the first coloring tried is
    # free and the search visits one node per edge.
    g = Graph.from_edges(64, [(u, 32 + v) for u in range(32) for v in range(32)])
    out = arrows_edges(g, ArrowSpec((3, 3)))
    assert out.verdict is Verdict.FREE_COLORING
    assert out.stats.nodes == 1024


@pytest.mark.parametrize("kind,g,sizes", [
    ("edges", complete(6), (3, 3)),
    ("edges", join(complete(1), join(cycle(5), cycle(5))), (3, 3)),
    ("edges", join(complete(3), join(cycle(5), cycle(5))), (3, 4)),
    ("edges", complete(7), (3, 3, 3)),
    ("edges", circulant(7, (1, 2, 3)), (3, 3, 3)),
    ("vertices", build_q(), (3, 4)),
    ("vertices", relabelled(disjoint_union(join(cycle(5), cycle(5)), complete(3)),
                            random.Random(0)), (3, 4)),
    ("vertices", complete(6), (2, 2, 3)),
    ("vertices", complete(7), (3, 3, 3)),
])
def test_symmetry_cut_keeps_verdict_and_witness(kind, g, sizes):
    # Without generators the search explores the full tree; the symmetry
    # cut may only shrink it.  Each case here makes at least one cut.
    spec = ArrowSpec(sizes)
    make = ArrowInstance if kind == "edges" else VertexInstance
    full = make(g, spec)
    full.symmetries = ()
    plain = _search(full, None)
    cut = _search(make(g, spec), None)
    assert cut.verdict is plain.verdict
    assert (cut.witness is None) == (plain.witness is None)
    if cut.witness is not None:
        assert cut.witness.colors == plain.witness.colors
    assert cut.stats.nodes <= plain.stats.nodes
    assert cut.stats.prunings.get("symmetry", 0) > 0 and cut.stats.generators > 0
    assert "symmetry" not in plain.stats.prunings and plain.stats.generators == 0


def first_path(g: Graph) -> list[int]:
    """The vertices v_0, v_1, ... that the first path of
    `automorphism_generators` individualizes, rebuilt from its helpers."""
    twins = [1 << v for v in range(g.n)]
    for cls in _twin_classes(g):
        for v in cls:
            twins[v] = mask_of(cls)
    full = (1 << g.n) - 1
    cells, _ = _refine(g.adj, [full], [full])
    path = []
    t = _target(cells, twins)
    while t is not None:
        v = (cells[t] & -cells[t]).bit_length() - 1
        path.append(v)
        cells, _ = _individualize(g.adj, cells, t, v)
        t = _target(cells, twins)
    return path


def test_automorphisms_hold_a_transversal_of_each_level():
    # The search compares each partial coloring with its images under every
    # permutation `automorphism_generators` returns.  They are automorphisms,
    # none twice, and closed under inverses.  For each level d of the first
    # path, those that fix v_0..v_{d-1} carry v_d onto every vertex of its
    # orbit: the images are closed under them and, where the group is small
    # enough to list, they are the orbit of v_d in the prefix's stabilizer.
    rng = random.Random(71)
    q, c5 = build_q(), cycle(5)
    graphs = [random_graph(rng, rng.randint(1, 9), p=rng.choice((0.2, 0.5, 0.8)))
              for _ in range(200)]
    graphs += symmetric_graphs(max_n=10, max_edges=45)
    graphs += [complete(9), join(c5, join(c5, c5)), join(complete(2), q),
               join(complete(3), q), join(complete(3), join(c5, c5)),
               build_theorem_graph(), build_lin_graph()]
    levels = compared = 0
    for g in graphs:
        perms = automorphism_generators(g)
        assert all(is_automorphism(g, perm) for perm in perms), edges(g)
        assert len(set(perms)) == len(perms)
        inverses = {tuple(sorted(range(g.n), key=perm.__getitem__)) for perm in perms}
        assert inverses == set(perms), edges(g)
        group = generated_group(g.n, perms) if g.n <= 7 else None
        path = first_path(g)
        for d, v in enumerate(path):
            fixing = [p for p in perms if all(p[x] == x for x in path[:d])]
            orbit = {v} | {p[v] for p in fixing}
            assert all(p[x] in orbit for p in fixing for x in orbit), (edges(g), d)
            if group is not None:
                stabilizer = [p for p in group if all(p[x] == x for x in path[:d])]
                assert orbit == {p[v] for p in stabilizer}, (edges(g), d)
                compared += 1
            levels += 1
    assert (levels, compared) == (196, 87)


def test_symmetries_act_on_the_items_as_automorphisms():
    # The lex-leader cut is sound only if each entry of `symmetries` is the
    # action of an automorphism on the items: its pairs (e, s(e)) list the
    # items it moves along `order`, and the item map they give, identity
    # elsewhere, carries every forbidden clique onto one of the same color
    # list.  `_image` checks the vertex permutation as it builds the item
    # image; this checks the item image itself.
    q, c5 = build_q(), cycle(5)
    theorem = build_theorem_graph()
    cases = [(ArrowInstance, complete(9), (3, 4)),
             (ArrowInstance, join(c5, join(c5, c5)), (3, 3)),
             (ArrowInstance, join(complete(2), q), (3, 4)),
             (ArrowInstance, join(complete(3), join(c5, c5)), (3, 4)),
             (ArrowInstance, theorem, (3, 5)),
             (ArrowInstance, relabelled(theorem, random.Random(1)), (3, 5)),
             (ArrowInstance, relabelled(theorem, random.Random(2)), (3, 5)),
             (VertexInstance, q, (3, 4))]
    for make, g, sizes in cases:
        inst = make(g, ArrowSpec(sizes))
        where = {e: i for i, e in enumerate(inst.order)}
        forbidden = [{tuple(sorted(ids)) for ids in constraints}
                     for constraints in inst.cliques]
        entries = inst.symmetries
        assert entries and len(set(entries)) == len(entries), (g.label, sizes)
        for pairs in entries:
            moved = [e for e, _ in pairs]
            assert all(e != f for e, f in pairs)
            assert [where[e] for e in moved] == sorted(set(where[e] for e in moved))
            assert sorted(f for _, f in pairs) == sorted(moved)
            image = list(range(len(inst.items)))
            for e, f in pairs:
                image[e] = f
            for constraints, cliques in zip(inst.cliques, forbidden):
                for ids in constraints:
                    assert tuple(sorted(image[e] for e in ids)) in cliques
        out = _search(inst, SearchBudget(max_nodes=1))
        assert out.stats.generators == len(entries)


def test_relabelled_c5c5c5_trees_are_pinned():
    # The lex-leader test takes a transversal of every stabilizer level, so
    # C5+C5+C5 (3,3) takes 1,605 nodes as built (2,973 with the generators
    # alone) and 36,684 over the 24 relabellings that the benchmark's
    # `exhaust` workload gives it at seed 701 (92,298 with the generators).
    c5 = cycle(5)
    g = join(c5, join(c5, c5))
    out = arrows_edges(g, ArrowSpec((3, 3)))
    assert (out.verdict, out.stats.nodes) == (Verdict.ARROWS, 1605)
    total = 0
    for r in range(24):
        perm = list(range(g.n))  # perfbench/inputs.py's instance_for_round
        random.Random(f"701/{r}/C5+C5+C5").shuffle(perm)
        h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in edges(g)])
        out = arrows_edges(h, ArrowSpec((3, 3)))
        assert out.verdict is Verdict.ARROWS
        total += out.stats.nodes
    assert total == 36684


def test_search_refuses_a_non_automorphism(monkeypatch):
    # The hub 0 of the wheel K1+C5 has degree 5 and vertex 1 degree 3, so
    # swapping them is no automorphism; the search must not use it.
    wheel = join(complete(1), cycle(5))
    monkeypatch.setattr(arrowing, "automorphism_generators",
                        lambda g: [(1, 0) + tuple(range(2, g.n))])
    with pytest.raises(RuntimeError, match="not an automorphism"):
        ArrowInstance(wheel, ArrowSpec((3, 3))).symmetries
    with pytest.raises(RuntimeError, match="not an automorphism"):
        arrows_edges(wheel, ArrowSpec((3, 3)))
    with pytest.raises(RuntimeError, match="not an automorphism"):
        arrows_vertices(wheel, ArrowSpec((2, 3)))
    with pytest.raises(RuntimeError, match="not an automorphism"):
        VertexInstance(wheel, ArrowSpec((2, 3))).symmetries


def test_symmetries_refuse_a_non_automorphism(monkeypatch):
    # Each permutation the search takes is checked in the pass that builds
    # its item image, for edge and vertex items alike: a permutation of C4
    # that is no automorphism, one too short and one that is no permutation
    # are each refused before any search; the rotation passes.
    c4, spec = cycle(4), ArrowSpec((3, 3))
    monkeypatch.setattr(arrowing, "automorphism_generators", lambda g: [(1, 2, 3, 0)])
    assert is_automorphism(c4, (1, 2, 3, 0))
    assert ArrowInstance(c4, spec).symmetries and VertexInstance(c4, spec).symmetries
    for perm in [(1, 0, 2, 3), (0, 1, 2), (0, 0, 1, 2)]:
        assert not is_automorphism(c4, perm)
        monkeypatch.setattr(arrowing, "automorphism_generators", lambda g: [perm])
        for make, search in [(ArrowInstance, arrows_edges), (VertexInstance, arrows_vertices)]:
            with pytest.raises(RuntimeError, match="not an automorphism"):
                make(c4, spec).symmetries
            with pytest.raises(RuntimeError, match="not an automorphism"):
                search(c4, spec)


def test_only_the_search_finds_automorphisms(monkeypatch):
    # Encoding, decoding and the free-coloring checks read the instance's
    # cliques only; the automorphisms are built for the search.
    def refuse(g):
        raise AssertionError("automorphisms built outside the search")
    monkeypatch.setattr(arrowing, "automorphism_generators", refuse)
    k5, spec = complete(5), ArrowSpec((3, 3))
    formula = encode_edge_arrowing(k5, spec)
    assert formula.num_vars == 10
    model = [e + 1 if c == 1 else -(e + 1)
             for e, c in enumerate(pentagon_pentagram(k5).colors)]
    coloring = decode_model(k5, spec, model)
    assert is_free_edge_coloring(k5, spec, coloring) == (True, None)
    assert VertexInstance(k5, spec).violation((1, 1, 2, 2, 2)) is not None
    with pytest.raises(AssertionError, match="outside the search"):
        arrows_edges(k5, spec)


def test_only_the_search_builds_clique_masks(monkeypatch):
    # The encoder, `certify`'s solver route, the free-coloring check and the
    # decoder read each clique's item ids only; the item bitmasks are built
    # on first read of the search's `by_edge`, so a fault in them cannot
    # reach the check of the search's result.
    k5, spec = complete(5), ArrowSpec((3, 3))
    planted = list(pentagon_pentagram(k5).colors)
    planted[edges(k5).index((0, 1))] = 2  # closes the color-2 triangle 0, 1, 3
    planted = EdgeColoring(k5, tuple(planted))
    model = [e + 1 if c == 1 else -(e + 1) for e, c in enumerate(planted.colors)]

    calls = []
    real = arrowing.mask_of
    monkeypatch.setattr(arrowing, "mask_of", lambda ids: calls.append(ids) or real(ids))
    assert encode_edge_arrowing(k5, spec).num_vars == 10
    k6 = complete(6)
    sha = dimacs_sha256(emit_dimacs(encode_edge_arrowing(k6, spec)))
    cert = bound_certificate(k6, spec, 7, {"status": "UNSAT", "dimacs_sha256": sha})
    assert cert["evidence"]["dimacs_sha256"] == sha
    assert is_free_edge_coloring(k5, spec, planted) == (False, (2, (0, 1, 3)))
    with pytest.raises(CnfError, match=r"clique \(0, 1, 3\) is monochromatic in color 2"):
        decode_model(k5, spec, model)
    pentagon = pentagon_pentagram(k5)
    model = [e + 1 if c == 1 else -(e + 1) for e, c in enumerate(pentagon.colors)]
    assert decode_model(k5, spec, model).colors == pentagon.colors
    assert calls == []
    arrows_edges(k5, spec)
    # Once per triangle of K5: the two colors' sizes are equal, so they
    # share one clique list and its masks.
    assert len(calls) == 10


def test_order_reads_the_instance_cliques(monkeypatch):
    # The edge order counts the forbidden cliques the instance already
    # holds: CP(4), K8 less a perfect matching, has 16 maximum 4-cliques,
    # and building its (3,3) order enumerates the triangles alone.
    cp4 = Graph.from_edges(8, [(u, v) for u in range(8) for v in range(u + 1, 8)
                               if v != u + 4])
    sizes = []
    real = arrowing.enumerate_cliques
    monkeypatch.setattr(arrowing, "enumerate_cliques",
                        lambda g, k: sizes.append(k) or real(g, k))
    inst = ArrowInstance(cp4, ArrowSpec((3, 3)))
    assert sorted(inst.order) == list(range(24))
    assert sizes == [3]


def test_clique_item_ids_name_its_edges():
    rng = random.Random(59)
    for _ in range(40):
        g = relabelled(random_graph(rng, rng.randint(1, 11), p=rng.choice((0.4, 0.7, 1.0))),
                       rng)
        elist = edges(g)
        inst = ArrowInstance(g, ArrowSpec((2, 3, 4)))
        for a, constraints, per_item in zip((2, 3, 4), inst.cliques, inst.by_edge):
            assert [tuple(sorted({v for e in ids for v in elist[e]})) for ids in constraints
                    ] == brute_cliques(g, a), g.adj
            through = [[] for _ in elist]
            for ids in constraints:
                assert list(ids) == sorted(set(ids)), (g.adj, ids)
                clique = sorted({v for e in ids for v in elist[e]})
                pairs = [(u, v) for i, u in enumerate(clique) for v in clique[i + 1:]]
                assert sorted(elist[e] for e in ids) == pairs, (g.adj, clique)
                mask = per_item[ids[0]][len(through[ids[0]])]
                assert mask == sum(1 << e for e in ids), (g.adj, clique)
                for e in ids:  # one int, shared by all of the clique's items
                    assert per_item[e][len(through[e])] is mask, (g.adj, clique)
                    through[e].append(mask)
            assert per_item == through, g.adj


def test_vertex_instance_keeps_the_enumerated_cliques(monkeypatch):
    # A vertex clique's item ids are its vertices, so the vertex instance
    # holds the very lists `enumerate_cliques` returned and builds nothing.
    returned = []
    real = arrowing.enumerate_cliques
    monkeypatch.setattr(arrowing, "enumerate_cliques",
                        lambda g, k: returned.append(real(g, k)) or returned[-1])
    g = join(complete(2), cycle(5))
    held = VertexInstance(g, ArrowSpec((2, 3, 4))).cliques
    assert len(returned) == 3
    for constraints, cliques, a in zip(held, returned, (2, 3, 4)):
        assert constraints is cliques
        assert constraints == brute_cliques(g, a)


def test_non_free_witness_raises(monkeypatch):
    # The witness checks must survive `python -O`, so they cannot be asserts.
    monkeypatch.setattr(ArrowInstance, "violation",
                        lambda self, colors: (1, (0, 1, 2)))
    with pytest.raises(RuntimeError, match="non-free witness"):
        arrows_edges(complete(5), ArrowSpec((3, 3)))
    with pytest.raises(RuntimeError, match="non-free witness"):
        arrows_vertices(complete(4), ArrowSpec((3, 3)))


# --- neighborhood caps ----------------------------------------------------------

# sha256 of the JSON list of [sizes, bounds] over every spec (a_1, a_2) with
# 2 <= a_i <= 15, then (3,3,3), (2,3,4) and (3,), as the caps were computed
# before they moved into `ArrowInstance.bounds`.
CAPS_SHA256 = "173f503ea7208874aaa889b5c4a994aab298defa1d452448fe9e755aea72aa13"


def _caps(*sizes):
    # bounds = (R(a_1-1, a_2) - 1, R(a_1, a_2-1) - 1) for 2-color specs.
    return ArrowInstance(complete(3), ArrowSpec(sizes)).bounds


def test_ramsey_known():
    # each Ramsey value the caps read, through the spec that reads it
    assert _caps(4, 3)[0] == 6 - 1  # R(3,3) = 6
    assert _caps(3, 5)[1] == 9 - 1  # R(3,4) = 9
    assert _caps(5, 3)[0] == 9 - 1  # R(4,3) = R(3,4)
    assert _caps(3, 6)[1] == 14 - 1  # R(3,5) = 14
    assert _caps(3, 5)[0] == 5 - 1  # R(2,5) = 5
    assert _caps(5, 3)[1] == 5 - 1  # R(5,2) = 5
    assert _caps(2, 7)[0] == 1 - 1  # R(1,7) = 1
    assert _caps(4, 5)[1] == 18 - 1  # R(4,4) = 18
    assert _caps(3, 7)[1] == _caps(7, 3)[0] == 18 - 1  # R(3,6) = R(6,3) = 18
    assert _caps(6, 5) is None  # R(5,5) is open


def test_neighborhood_clique_bounds():
    assert _caps(3, 5) == (4, 8)  # R(2,5) = 5, R(3,4) = 9: the theorem's caps
    assert _caps(3, 3) == (2, 2)
    assert _caps(3, 4) == (3, 5)
    assert _caps(4, 4) == (8, 8)
    assert _caps(4, 5) == (13, 17)
    assert _caps(3, 7) == (6, 17)
    assert _caps(5, 3) == (8, 4)
    assert _caps(7, 3) == (17, 6)
    assert _caps(2, 7) == (0, 5)
    assert _caps(5, 5) is None  # needs R(4,5)
    assert _caps(3, 3, 3) is None
    specs = [(a, b) for a in range(2, 16) for b in range(2, 16)] + [(3, 3, 3), (2, 3, 4), (3,)]
    text = json.dumps([[list(s), _caps(*s)] for s in specs])
    assert hashlib.sha256(text.encode()).hexdigest() == CAPS_SHA256


def _same_color_neighbors(g, coloring, v, color):
    col = {e: k for e, k in zip(edges(g), coloring.colors)}
    return [u for u in range(g.n) if u != v and g.adj[u] >> v & 1
            and col[tuple(sorted((u, v)))] == color]


def test_bounds_hold_on_k5_pentagon():
    # cross-check the (2,2) caps on the classical free coloring
    from folkman.graphs import has_clique, mask_of
    k5 = complete(5)
    c = pentagon_pentagram(k5)
    for v in range(5):
        for color, cap in ((1, 2), (2, 2)):
            same = _same_color_neighbors(k5, c, v, color)
            if same:
                assert not has_clique(k5, mask_of(same), cap + 1)


def test_bounds_hold_on_free_colorings_of_k8():
    spec = ArrowSpec((3, 4))
    g = complete(8)
    b1, b2 = ArrowInstance(g, spec).bounds
    out = arrows_edges(g, spec)
    assert out.verdict is Verdict.FREE_COLORING
    for v in range(8):
        for color, cap in ((1, b1), (2, b2)):
            # in K8 every subset is a clique, so the cap bounds the degree
            assert len(_same_color_neighbors(g, out.witness, v, color)) <= cap


def test_caps_from_r2t_prune_nothing_propagation_keeps():
    # With a_1 = 3 the color-1 cap is R(2, a_2) - 1: it cuts a node whose
    # edge uv leaves an a_2-clique in u's color-1 neighborhood.  Each edge of
    # that clique closes a color-1 triangle through u, so propagation forces
    # it to color 2, and the clique is then a color-2 a_2-clique: the same
    # node dies for cause "clique".  Likewise for color 2 when a_2 = 3.  So
    # lifting those caps (above n, where no clique reaches them) keeps the
    # tree, and the prunes move only between "neighborhood" and "clique".
    rng = random.Random(97)
    specs = [(3, 3), (3, 4), (3, 5), (4, 3), (5, 3)]
    moved = 0
    for case in range(300):
        spec = ArrowSpec(specs[case % len(specs)])
        g = relabelled(random_graph(rng, rng.randint(5, 10), p=rng.choice((0.6, 0.8, 1.0))),
                       rng)
        budget = SearchBudget(max_nodes=3000)
        capped = _search(ArrowInstance(g, spec), budget)
        inst = ArrowInstance(g, spec)
        inst.bounds = tuple(g.n + 1 if a == 3 else b
                            for a, b in zip(spec.sizes, inst.bounds))
        lifted = _search(inst, budget)
        assert lifted.verdict is capped.verdict, (g.adj, spec)
        assert (lifted.witness and lifted.witness.colors) == (
            capped.witness and capped.witness.colors), (g.adj, spec)
        assert lifted.stats.nodes == capped.stats.nodes, (g.adj, spec)
        cut, kept = capped.stats.prunings, lifted.stats.prunings
        assert kept.get("symmetry", 0) == cut.get("symmetry", 0), (g.adj, spec)
        assert sum(kept.values()) == sum(cut.values()), (g.adj, spec)
        moved += cut.get("neighborhood", 0) != kept.get("neighborhood", 0)
    assert moved >= 100  # the caps lifted did cut nodes in the capped runs


def test_theorem_graph_random_colorings_never_audit_clean():
    # the theorem says no free coloring exists, so random colorings must
    # fail the free check (we fuzz a handful)
    g = build_theorem_graph()
    spec = ArrowSpec((3, 5))
    rng = random.Random(37)
    m = g.edge_count
    for _ in range(10):
        c = EdgeColoring(g, tuple(rng.choice((1, 2)) for _ in range(m)))
        ok, _ = is_free_edge_coloring(g, spec, c)
        assert not ok
