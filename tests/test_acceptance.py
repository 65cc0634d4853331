"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.
"""
import os
import random
import time
from math import comb

import pytest

from folkman.arrowing import (ArrowSpec, SearchBudget, Verdict, arrows_edges,
                              arrows_vertices)
from folkman.bounds import (CertificateError, bound_certificate, build_q,
                            build_theorem_graph)
from folkman.cnf import dimacs_sha256, emit_dimacs, encode_edge_arrowing
from folkman.graphs import Graph, complement, complete, edges, join, max_clique
from folkman.cli import main as cli_main
from oracles import brute_arrows_edges_2color, brute_cliques, random_graph


def report(n, text):
    print(f"\nACCEPTANCE criterion {n}: PASS - {text}")


def test_criterion_1_q_validation_gate():
    t0 = time.monotonic()
    q = build_q()  # the gate itself re-checks all three properties
    assert len(max_clique(q)) == 4
    assert len(max_clique(complement(q))) == 2
    assert arrows_vertices(q, ArrowSpec((3, 4))).verdict is Verdict.ARROWS
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"Q gate: cl=4, alpha=2, Q ->v (3,4) in {elapsed:.2f}s")


def test_criterion_2_ramsey_thresholds():
    t0 = time.monotonic()
    assert arrows_edges(complete(5), ArrowSpec((3, 3))).verdict is Verdict.FREE_COLORING
    assert arrows_edges(complete(6), ArrowSpec((3, 3))).verdict is Verdict.ARROWS
    small = time.monotonic() - t0
    assert small < 1.0
    t1 = time.monotonic()
    assert arrows_edges(complete(8), ArrowSpec((3, 4))).verdict is Verdict.FREE_COLORING
    assert arrows_edges(complete(9), ArrowSpec((3, 4))).verdict is Verdict.ARROWS
    big = time.monotonic() - t1
    assert big < 600
    report(2, f"R(3,3)=6 reproduced in {small:.2f}s, R(3,4)=9 in {big:.2f}s")


def test_criterion_3_join_identity():
    rng = random.Random(2024)
    failures = 0
    for _ in range(1000):
        a = random_graph(rng, rng.randint(1, 10), p=rng.uniform(0.2, 0.9))
        b = random_graph(rng, rng.randint(1, 10), p=rng.uniform(0.2, 0.9))
        if len(max_clique(join(a, b))) != len(max_clique(a)) + len(max_clique(b)):
            failures += 1
    assert failures == 0
    report(3, "cl(a+b) = cl(a)+cl(b) on 1000 random pairs, zero failures")


def test_criterion_4_oracle_equivalence():
    specs = (ArrowSpec((3, 3)), ArrowSpec((3, 4)))
    disagreements = 0
    checked = 0
    # every graph on <= 5 vertices
    for n in range(2, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, [e for i, e in enumerate(pairs)
                                     if mask >> i & 1])
            for spec in specs:
                want, _ = brute_arrows_edges_2color(g, spec.sizes)
                got = arrows_edges(g, spec).verdict is Verdict.ARROWS
                checked += 1
                disagreements += got != want
    # 200 random graphs with <= 18 edges
    rng = random.Random(99)
    for _ in range(200):
        g = random_graph(rng, rng.randint(5, 10), p=rng.uniform(0.3, 0.8),
                         max_edges=18)
        for spec in specs:
            want, _ = brute_arrows_edges_2color(g, spec.sizes)
            got = arrows_edges(g, spec).verdict is Verdict.ARROWS
            checked += 1
            disagreements += got != want
    assert disagreements == 0
    report(4, f"search matches 2^|E| enumeration on {checked} instances")


def test_criterion_5_cnf_correctness():
    g = build_theorem_graph()
    f = encode_edge_arrowing(g, ArrowSpec((3, 5)))
    triangles = len(brute_cliques(g, 3))
    five_cliques = len(brute_cliques(g, 5))
    assert f.num_vars == g.edge_count == len(edges(g))
    assert len(f.clauses) == triangles + five_cliques
    # small encodings: satisfiability matches search verdicts (also covered
    # exhaustively in test_cnf.py)
    from oracles import brute_cnf_satisfiable
    rng = random.Random(77)
    for _ in range(40):
        h = random_graph(rng, rng.randint(3, 8), p=0.6, max_edges=18)
        for spec in (ArrowSpec((3, 3)), ArrowSpec((3, 4))):
            ff = encode_edge_arrowing(h, spec)
            sat = brute_cnf_satisfiable(ff.num_vars, ff.clauses)
            assert sat == (arrows_edges(h, spec).verdict is Verdict.FREE_COLORING)
    report(5, f"theorem-graph CNF: {f.num_vars} vars, "
              f"{len(f.clauses)} clauses = {triangles} triangles + "
              f"{five_cliques} 5-cliques (oracle-counted); small SAT == search")


def test_criterion_5_literal_variable_count():
    # One variable per edge of K8+Q.  Q is the complement of the circulant
    # C13(1,5); offsets 1 and 5 each give 13 distinct pairs, so Q has
    # C(13,2) - 26 = 52 edges, and |E(K8+Q)| = C(8,2) + 52 + 8*13
    # = 28 + 52 + 104 = 184.  Equivalently C(21,2) - 26: every pair of the
    # 21 vertices except Q's 26 non-edges.  C(21,2) = 210 would be K21,
    # whose clique number 21 >= 13 cannot carry the bound.
    assert comb(8, 2) + (comb(13, 2) - 2 * 13) + 8 * 13 == 184
    assert comb(21, 2) - 26 == 184
    g = build_theorem_graph()
    f = encode_edge_arrowing(g, ArrowSpec((3, 5)))
    assert f.num_vars == 184
    # 7288 = 914 triangles + 6374 5-cliques (oracle-counted in the test above)
    header = [line for line in emit_dimacs(f).splitlines()
              if line.startswith("p ")]
    assert header == ["p cnf 184 7288"]
    report(5, "theorem-graph CNF header 'p cnf 184 7288'; "
              "184 vars = 28 + 52 + 104")


THEOREM_RUN = os.environ.get("FOLKMAN_RUN_THEOREM", "")


@pytest.mark.skipif(not THEOREM_RUN, reason="long-running optional tier: no "
                    "external SAT solver in this environment; set "
                    "FOLKMAN_RUN_THEOREM=<max_seconds> to attempt the native "
                    "search")
def test_criterion_6_theorem_verification():
    g = build_theorem_graph()
    spec = ArrowSpec((3, 5))
    budget = SearchBudget(max_seconds=float(THEOREM_RUN))
    outcome = arrows_edges(g, spec, budget=budget)
    assert outcome.verdict is Verdict.ARROWS, (
        f"native search did not exhaust within budget: {outcome.verdict.value}")
    cert = bound_certificate(g, spec, 13, outcome)
    assert cert["bound"] == "F_e(3,5;13) <= 21"
    report(6, "theorem graph arrows (3,5); certificate F_e(3,5;13) <= 21")


def test_criterion_7_certificate_soundness():
    spec33 = ArrowSpec((3, 3))
    free = arrows_edges(complete(5), spec33)
    assert free.verdict is Verdict.FREE_COLORING
    with pytest.raises(CertificateError):
        bound_certificate(complete(5), spec33, 7, free)
    exhausted = arrows_edges(complete(9), ArrowSpec((3, 4)),
                             budget=SearchBudget(max_nodes=10))
    assert exhausted.verdict is Verdict.BUDGET_EXHAUSTED
    with pytest.raises(CertificateError):
        bound_certificate(complete(9), ArrowSpec((3, 4)), 10, exhausted)
    arrows = arrows_edges(complete(6), spec33)
    with pytest.raises(CertificateError):
        bound_certificate(complete(6), spec33, 6, arrows)  # cl(K6) = 6 >= q
    report(7, "free-coloring, exhausted-budget, and cl>=q evidence all rejected")


def test_criterion_8_determinism(tmp_path, capsys):
    blobs = []
    for i in range(2):
        w = tmp_path / f"w{i}.json"
        d = tmp_path / f"d{i}.cnf"
        code = cli_main(["arrows", "edges", "--graph", "K8", "--spec", "3,4",
                         "--witness", str(w)])
        assert code == 1
        code = cli_main(["encode", "--graph", "theorem-graph", "--spec", "3,5",
                         "-o", str(d)])
        assert code == 0
        blobs.append((w.read_bytes(), d.read_bytes()))
    capsys.readouterr()
    assert blobs[0] == blobs[1]
    report(8, "witness and DIMACS files byte-identical across runs; sha256 "
              + dimacs_sha256(blobs[0][1].decode())[:16])
