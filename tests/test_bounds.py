import pytest

from folkman.arrowing import (ArrowSpec, SearchBudget, Verdict, arrows_edges,
                              arrows_vertices)
from folkman.bounds import (CertificateError, bound_certificate, build_lin_graph,
                            build_q, build_theorem_graph, known_numbers,
                            lookup_known)
from folkman.graphs import (clique_number, complete, emit_graph6,
                            independence_number, parse_graph6)


def test_build_q_gate():
    q = build_q()
    assert q.n == 13
    assert clique_number(q) == 4
    assert independence_number(q) == 2
    assert arrows_vertices(q, ArrowSpec((3, 4))).verdict is Verdict.ARROWS


def test_build_q_deterministic():
    assert build_q() == build_q()
    assert emit_graph6(build_q()) == emit_graph6(build_q())


def test_theorem_graph():
    g = build_theorem_graph()
    assert g.n == 21
    assert g.edge_count == 28 + 52 + 8 * 13  # = 184
    assert clique_number(g) == 12


def test_lin_graph():
    g = build_lin_graph()
    assert g.n == 18
    assert clique_number(g) == 12


def test_certificate_k6():
    spec = ArrowSpec((3, 3))
    outcome = arrows_edges(complete(6), spec)
    assert outcome.verdict is Verdict.ARROWS
    cert = bound_certificate(complete(6), spec, 7, outcome)
    assert cert.bound == "F_e(3,3;7) <= 6"
    assert cert.clique_number == 6
    assert parse_graph6(cert.graph6) == complete(6)
    obj = cert.to_json_obj()
    assert obj["schema"] == "folkman-certificate/1"
    assert obj["evidence"]["kind"] == "native-search"


def test_certificate_rejects_ineligible_clique():
    spec = ArrowSpec((3, 3))
    outcome = arrows_edges(complete(6), spec)
    with pytest.raises(CertificateError, match="ineligible"):
        bound_certificate(complete(6), spec, 6, outcome)


def test_certificate_rejects_free_coloring_evidence():
    spec = ArrowSpec((3, 3))
    outcome = arrows_edges(complete(5), spec)
    assert outcome.verdict is Verdict.FREE_COLORING
    with pytest.raises(CertificateError):
        bound_certificate(complete(5), spec, 7, outcome)


def test_certificate_rejects_budget_exhausted_evidence():
    spec = ArrowSpec((3, 4))
    outcome = arrows_edges(complete(9), spec, budget=SearchBudget(max_nodes=50))
    assert outcome.verdict is Verdict.BUDGET_EXHAUSTED
    with pytest.raises(CertificateError):
        bound_certificate(complete(9), spec, 10, outcome)


def test_certificate_accepts_solver_unsat_record():
    record = {"status": "UNSAT", "solver": "some-external-solver",
              "dimacs_sha256": "0" * 64}
    cert = bound_certificate(complete(6), ArrowSpec((3, 3)), 7, record)
    assert cert.evidence["kind"] == "solver-unsat"


def test_certificate_ties_records_to_instance():
    spec = ArrowSpec((3, 3))
    g6 = emit_graph6(complete(6))
    with pytest.raises(CertificateError, match="lacks graph6, spec"):
        bound_certificate(complete(6), spec, 7, {"verdict": "arrows"})
    with pytest.raises(CertificateError, match="lacks spec"):
        bound_certificate(complete(6), spec, 7, {"verdict": "arrows", "graph6": g6})
    with pytest.raises(CertificateError, match="lacks search"):
        bound_certificate(complete(6), spec, 7, {
            "verdict": "arrows", "graph6": g6, "spec": [3, 3]})
    with pytest.raises(CertificateError, match="'vertices' search"):
        bound_certificate(complete(6), spec, 7, {
            "verdict": "arrows", "graph6": g6, "spec": [3, 3],
            "search": "vertices"})
    with pytest.raises(CertificateError, match="different graph"):
        bound_certificate(complete(6), spec, 7, {
            "verdict": "arrows", "graph6": emit_graph6(complete(7)), "spec": [3, 3],
            "search": "edges"})
    with pytest.raises(CertificateError, match="different spec"):
        bound_certificate(complete(6), spec, 7, {
            "verdict": "arrows", "graph6": g6, "spec": [3, 4], "search": "edges"})
    with pytest.raises(CertificateError, match="different graph"):
        bound_certificate(complete(6), spec, 7, {
            "status": "UNSAT", "graph6": emit_graph6(complete(7))})
    cert = bound_certificate(complete(6), spec, 7, {
        "verdict": "arrows", "graph6": g6, "spec": [3, 3], "search": "edges"})
    assert cert.evidence["kind"] == "native-search"


def test_certificate_checks_in_process_outcome_as_a_record():
    # An in-process outcome passes the same record check as a file: an
    # edge search on K6 proves nothing about K5 (F_e(3,3;7) = R(3,3) = 6).
    spec = ArrowSpec((3, 3))
    k6 = arrows_edges(complete(6), spec)
    with pytest.raises(CertificateError, match="different graph"):
        bound_certificate(complete(5), spec, 7, k6)
    with pytest.raises(CertificateError, match="different spec"):
        bound_certificate(complete(6), ArrowSpec((3, 4)), 7, k6)
    # A vertex search that arrows is no evidence for an edge bound.
    k5_vertices = arrows_vertices(complete(5), spec)
    assert k5_vertices.verdict is Verdict.ARROWS
    with pytest.raises(CertificateError, match="'vertices' search"):
        bound_certificate(complete(5), spec, 7, k5_vertices)
    evidence = bound_certificate(complete(6), spec, 7, k6).evidence
    assert evidence == {"kind": "native-search", **k6.to_json_obj()}
    assert evidence["search"] == "edges"


def test_certificate_catalog_gate():
    spec = ArrowSpec((3, 5))

    def tied(g):
        return {"verdict": "arrows", "graph6": emit_graph6(g), "spec": [3, 5],
                "search": "edges"}

    lin = build_lin_graph()  # 18 vertices: open problem, below the best 21
    with pytest.raises(CertificateError, match="best published upper bound 21"):
        bound_certificate(lin, spec, 13, tied(lin))
    with pytest.raises(CertificateError, match="known lower bound 18"):
        bound_certificate(complete(12), spec, 13, tied(complete(12)))
    cert = bound_certificate(build_theorem_graph(), spec, 13,
                             {"status": "UNSAT", "dimacs_sha256": "0" * 64})
    assert cert.bound == "F_e(3,5;13) <= 21"


def test_certificate_rejects_sat_solver_record():
    with pytest.raises(CertificateError):
        bound_certificate(complete(6), ArrowSpec((3, 3)), 7, {"status": "SAT"})
    with pytest.raises(CertificateError):
        bound_certificate(complete(6), ArrowSpec((3, 3)), 7, {"status": 1})


def test_known_numbers_catalog():
    entries = known_numbers()
    assert lookup_known((3, 4), 9).exact == 14
    assert lookup_known((3, 3), 6).exact == 8
    assert lookup_known((3, 5), 14).exact == 16
    assert lookup_known((3, 3, 3), 14).exact == 25
    assert lookup_known((9, 9), 9) is None
    e = lookup_known((3, 5), 13)
    assert (e.low, e.high) == (18, 21)
    assert e.exact is None
    # every equality entry is a degenerate interval
    for entry in entries:
        assert entry.low <= entry.high
        if entry.sizes != (3, 5) or entry.q != 13:
            assert entry.exact is not None


def test_catalog_interval_validation():
    from folkman.bounds import KnownValueEntry
    with pytest.raises(ValueError):
        KnownValueEntry((3, 3), 6, 9, 8, ("x",))
