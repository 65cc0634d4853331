import random
import re

import pytest

from folkman.arrowing import ArrowSpec, Verdict, arrows_edges
from folkman.cnf import (CnfError, CnfFormula, decode_model, dimacs_sha256,
                         emit_dimacs, encode_edge_arrowing, parse_dimacs,
                         parse_model)
from folkman.graphs import complete, edges
from folkman.bounds import build_theorem_graph
from oracles import (brute_arrows_edges_2color, brute_cliques,
                     brute_cnf_satisfiable, random_graph)


def test_encode_k3():
    f = encode_edge_arrowing(complete(3), ArrowSpec((3, 3)))
    assert f.num_vars == 3
    assert f.clauses == [[-1, -2, -3], [1, 2, 3]]
    assert brute_cnf_satisfiable(f.num_vars, f.clauses)


def test_encode_k6_counts():
    f = encode_edge_arrowing(complete(6), ArrowSpec((3, 3)))
    assert f.num_vars == 15
    assert len(f.clauses) == 40  # C(6,3) triangles, each forbidden in both colors
    assert not brute_cnf_satisfiable(f.num_vars, f.clauses)


def test_encode_requires_two_colors():
    with pytest.raises(CnfError):
        encode_edge_arrowing(complete(3), ArrowSpec((3, 3, 3)))


def test_variable_numbering_is_lexicographic():
    # Variable i is the i-th edge of `edges(g)`, which lists the edges
    # lexicographically; the encoder's comments name each variable's edge.
    g = complete(4)
    var = {e: i for i, e in enumerate(edges(g), start=1)}
    assert list(var) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    f = encode_edge_arrowing(g, ArrowSpec((3, 3)))
    assert [c for c in f.comments if c.startswith("edge ")] == [
        f"edge {i} {u} {v}" for (u, v), i in var.items()]
    assert f.clauses[0] == [-var[0, 1], -var[0, 2], -var[1, 2]]


def test_emit_header_and_roundtrip():
    f = encode_edge_arrowing(complete(3), ArrowSpec((3, 3)))
    text = emit_dimacs(f)
    assert "p cnf 3 2" in text.splitlines()
    back = parse_dimacs(text)
    assert (back.num_vars, back.clauses) == (f.num_vars, f.clauses)
    assert parse_dimacs("p cnf 1 1\n\n1 0\n").clauses == [[1]]  # a blank line is skipped


def test_emit_byte_stable():
    g = build_theorem_graph()
    f1 = emit_dimacs(encode_edge_arrowing(g, ArrowSpec((3, 5))))
    f2 = emit_dimacs(encode_edge_arrowing(build_theorem_graph(), ArrowSpec((3, 5))))
    assert f1 == f2
    assert dimacs_sha256(f1) == (
        "1db983c4daf1e0fb098631f12433725bbed4c16f61082756f81ea39502e98325")


@pytest.mark.parametrize("brk", ["\n", "\r", "\x0c", "\u2028"])
def test_emit_refuses_a_comment_with_a_line_break(brk):
    # Every break `parse_dimacs` splits lines at would leave part of the
    # comment on a line of its own.
    f = CnfFormula(1, [[1]], [f"graph bad{brk}name"])
    with pytest.raises(CnfError, match="line break"):
        emit_dimacs(f)
    assert len(f"c graph bad{brk}name".splitlines()) == 2


def test_parse_dimacs_errors():
    with pytest.raises(CnfError):
        parse_dimacs("1 2 0\n")  # clause before header
    with pytest.raises(CnfError):
        parse_dimacs("p cnf 2 1\n1 2\n")  # unterminated clause
    with pytest.raises(CnfError):
        parse_dimacs("p cnf 2 2\n1 2 0\n")  # clause count mismatch
    with pytest.raises(CnfError):
        parse_dimacs("p cnf 1 1\n1 2 0\n")  # variable out of range
    with pytest.raises(CnfError, match="malformed problem line: 'p cnf 3'"):
        parse_dimacs("p cnf 3\n")
    with pytest.raises(CnfError, match="missing problem line"):
        parse_dimacs("c only a comment\n")
    with pytest.raises(CnfError, match="second problem line"):
        parse_dimacs("p cnf 3 1\n1 2 0\np cnf 2 1\n")
    for header in ("p cnf -1 0\n", "p cnf 2 -1\n"):
        with pytest.raises(CnfError, match="negative count"):
            parse_dimacs(header)
    for text, message in (
            ("p cnf 2 1\n1 x 0\n", "line 2: non-integer token in '1 x 0'"),
            ("p cnf two 1\n1 2 0\n", "line 1: non-integer token in 'p cnf two 1'"),
            # int() alone reads these as [[10]] and [[1, 2]].
            ("p cnf 10 1\n1_0 0\n", "line 2: non-integer token in '1_0 0'"),
            ("p cnf 2 1\n+1 \uff12 0\n", "line 2: non-integer token in '+1 \uff12 0'"),
            ("p cnf 2 1\n1 \u0662 0\n", "line 2: non-integer token in '1 \u0662 0'"),
            ("p cnf +2 1\n1 0\n", "line 1: non-integer token in 'p cnf +2 1'"),
            ("p cnf 2 1\n1 " + "1" * 5000 + " 0\n", "line 2: non-integer token")):
        with pytest.raises(CnfError, match=re.escape(message)):
            parse_dimacs(text)


def test_satisfiability_matches_search_small():
    rng = random.Random(41)
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 7), p=0.6, max_edges=15)
        for spec in (ArrowSpec((3, 3)), ArrowSpec((3, 4))):
            f = encode_edge_arrowing(g, spec)
            sat = brute_cnf_satisfiable(f.num_vars, f.clauses)
            verdict = arrows_edges(g, spec).verdict
            assert sat == (verdict is Verdict.FREE_COLORING)


def test_clause_counts_match_clique_counts():
    rng = random.Random(43)
    for _ in range(15):
        g = random_graph(rng, rng.randint(3, 9))
        spec = ArrowSpec((3, 4))
        f = encode_edge_arrowing(g, spec)
        assert f.num_vars == g.edge_count
        assert len(f.clauses) == len(brute_cliques(g, 3)) + len(brute_cliques(g, 4))


def test_violated_clauses_are_exactly_monochromatic_cliques():
    rng = random.Random(47)
    g = random_graph(rng, 7)
    spec = ArrowSpec((3, 3))
    f = encode_edge_arrowing(g, spec)
    elist = edges(g)
    for _ in range(50):
        assignment = {i + 1: rng.random() < 0.5 for i in range(len(elist))}
        violated = [cl for cl in f.clauses
                    if all((lit > 0) != assignment[abs(lit)] for lit in cl)]
        coloring = {e: 1 if assignment[i + 1] else 2 for i, e in enumerate(elist)}
        mono = []
        for i, a in enumerate(spec.sizes, start=1):
            for vs in brute_cliques(g, a):
                pairs = [(vs[x], vs[y]) for x in range(len(vs))
                         for y in range(x + 1, len(vs))]
                if all(coloring[p] == i for p in pairs):
                    mono.append((i, vs))
        assert len(violated) == len(mono)


def test_decode_model_k5():
    g = complete(5)
    spec = ArrowSpec((3, 3))
    # obtain a model from the independent brute-force route
    arrows, witness = brute_arrows_edges_2color(g, spec.sizes)
    assert not arrows
    model = [i if witness[e] == 1 else -i for i, e in enumerate(edges(g), start=1)]
    coloring = decode_model(g, spec, model)
    assert coloring.colors == tuple(witness[e] for e in edges(g))


def test_decode_model_rejects_non_free():
    g = complete(3)
    with pytest.raises(CnfError, match="non-free"):
        decode_model(g, ArrowSpec((3, 3)), [1, 2, 3])


def test_decode_model_rejects_incomplete():
    g = complete(3)
    with pytest.raises(CnfError, match="unassigned"):
        decode_model(g, ArrowSpec((3, 3)), [1, -2])
    with pytest.raises(CnfError, match="unassigned"):
        decode_model(g, ArrowSpec((3, 3)), [])


def test_decode_model_rejects_foreign_model():
    # A model for another formula is refused, not decoded by last literal.
    g = complete(3)
    with pytest.raises(CnfError, match="variable 1 both"):
        decode_model(g, ArrowSpec((3, 3)), [1, -1, 2, 3])
    with pytest.raises(CnfError, match="variable 1 both"):
        decode_model(g, ArrowSpec((3, 3)), [-1, 2, 3, 1])
    with pytest.raises(CnfError, match="variable 999, outside 1..3"):
        decode_model(g, ArrowSpec((3, 3)), [-1, 2, 3, 999])
    with pytest.raises(CnfError, match="2-color specs only"):
        decode_model(g, ArrowSpec((3, 3, 3)), [-1, 2, 3])
    # A literal repeated with the same sign is the same assignment.
    assert decode_model(g, ArrowSpec((3, 3)), [-1, 2, 3, -1]).colors == (2, 1, 1)


def test_parse_model():
    text = "c comment\ns SATISFIABLE\nv 1 -2 3\nv -4 0\n"
    assert parse_model(text) == [1, -2, 3, -4]
    # The empty model of a formula with no variables.
    assert parse_model("s SATISFIABLE\nv 0\n") == []
    with pytest.raises(CnfError):
        parse_model("s UNSATISFIABLE\n")
    for text, message in (("v 1 x 0\n", "line 1: non-integer token in 'v 1 x 0'"),
                          ("s SATISFIABLE\nv 1 1_0 0\n",
                           "line 2: non-integer token in 'v 1 1_0 0'"),
                          ("v +1 0\n", "line 1: non-integer token in 'v +1 0'"),
                          ("v \uff11 0\n", "line 1: non-integer token in 'v \uff11 0'")):
        with pytest.raises(CnfError, match=re.escape(message)):
            parse_model(text)


def test_signed_tokens():
    # A token is an optional minus sign and ASCII digits, and nothing else.
    assert parse_dimacs("p cnf 2 2\n-1 2 0\n-2 -0\n").clauses == [[-1, 2], [-2]]
    assert parse_model("v -1 2 -0\n") == [-1, 2]
    for token in ("-", "--1", "-+1", "+-1", "-\uff11", "-1_0", "1-"):
        with pytest.raises(CnfError, match="non-integer token"):
            parse_dimacs(f"p cnf 2 1\n{token} 0\n")
        with pytest.raises(CnfError, match="non-integer token"):
            parse_model(f"v {token} 0\n")


def test_formula_validation():
    # `parse_dimacs` checks each clause as it reads it, and names its line.
    with pytest.raises(CnfError, match="line 3: empty clause"):
        parse_dimacs("p cnf 2 2\n1 0\n0\n")
    with pytest.raises(CnfError, match="line 2: literal -3 out of range for 2"):
        parse_dimacs("p cnf 2 1\n1 -3 0\n")
    # `emit_dimacs` writes each literal from a table of the valid ones; a
    # list indexed by the literal would print [3] as "-2" and [0, 1] as "0 1".
    for clauses in ([[3]], [[0, 1]], [[-3]], [[1], [2, -3]]):
        with pytest.raises(CnfError, match="out of range for 2 variables"):
            emit_dimacs(CnfFormula(2, clauses))
