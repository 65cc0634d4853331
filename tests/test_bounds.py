import re

import pytest

import folkman
from folkman.arrowing import (ArrowSpec, SearchBudget, Verdict, arrows_edges,
                              arrows_vertices)
from folkman.bounds import (CATALOG, CertificateError, ConstructionError,
                            bound_certificate, build_lin_graph, build_q,
                            build_theorem_graph, check_bound_instance)
from folkman.cnf import dimacs_sha256, emit_dimacs, encode_edge_arrowing
from folkman.graphs import (circulant, complement, complete, cycle, emit_graph6,
                            max_clique, parse_graph6)

THEOREM_SHA256 = "1db983c4daf1e0fb098631f12433725bbed4c16f61082756f81ea39502e98325"


def test_build_q_gate():
    q = build_q()
    assert q.n == 13
    assert len(max_clique(q)) == 4
    assert len(max_clique(complement(q))) == 2
    assert arrows_vertices(q, ArrowSpec((3, 4))).verdict is Verdict.ARROWS


@pytest.mark.parametrize("target, replacement, message", [
    # complement(C13) has clique number 6
    ("circulant", lambda n, offsets: circulant(13, {1}), "Q gate: clique number 6 != 4"),
    ("circulant", lambda n, offsets: circulant(13, {1, 2}),
     "Q gate: independence number != 2"),
    # Q does not vertex-arrow (4,4), so this search finds a free coloring
    ("arrows_vertices", lambda g, spec: arrows_vertices(g, ArrowSpec((4, 4))),
     r"Q gate: Q does not vertex-arrow \(3,4\)"),
], ids=["clique", "independence", "arrowing"])
def test_build_q_gate_refuses(monkeypatch, target, replacement, message):
    # Each of the gate's three checks refuses a graph that fails it.
    monkeypatch.setattr(f"folkman.bounds.{target}", replacement)
    with pytest.raises(ConstructionError, match=message):
        build_q()


def test_build_q_deterministic():
    assert build_q() == build_q()
    assert emit_graph6(build_q()) == emit_graph6(build_q())


def test_theorem_graph():
    g = build_theorem_graph()
    assert g.n == 21
    assert g.edge_count == 28 + 52 + 8 * 13  # = 184
    assert len(max_clique(g)) == 12


def test_lin_graph():
    g = build_lin_graph()
    assert g.n == 18
    assert len(max_clique(g)) == 12


def solver_record(g, spec, **keys):
    """An UNSAT record carrying the sha256 of `folkman encode` on (g, spec)."""
    text = emit_dimacs(encode_edge_arrowing(g, spec))
    return {"status": "UNSAT", "dimacs_sha256": dimacs_sha256(text), **keys}


def test_certificate_k6():
    spec = ArrowSpec((3, 3))
    outcome = arrows_edges(complete(6), spec)
    assert outcome.verdict is Verdict.ARROWS
    cert = bound_certificate(complete(6), spec, 7, outcome)
    assert cert["bound"] == "F_e(3,3;7) <= 6"
    assert cert["clique_number"] == 6
    assert parse_graph6(cert["graph"]["graph6"]) == complete(6)
    assert cert["schema"] == "folkman-certificate/1"
    assert cert["folkman_version"] == folkman.__version__
    assert cert["evidence"]["kind"] == "native-search"
    assert cert["evidence"]["checked"] is True
    # 19 nodes before the symmetry cut; K6's 5 generators cut 2 branches.
    assert cert["evidence"]["stats"]["nodes"] == 13
    assert cert["evidence"]["stats"]["generators"] == 5


def test_certificate_rejects_ineligible_clique():
    spec = ArrowSpec((3, 3))
    outcome = arrows_edges(complete(6), spec)
    with pytest.raises(CertificateError, match="ineligible"):
        bound_certificate(complete(6), spec, 6, outcome)


def test_certificate_rejects_free_coloring_evidence():
    spec = ArrowSpec((3, 3))
    outcome = arrows_edges(complete(5), spec)
    assert outcome.verdict is Verdict.FREE_COLORING
    # A free coloring refutes the arrowing: it is not an inconclusive run.
    with pytest.raises(CertificateError, match=re.escape(
            "the search found a free coloring, so the graph does not arrow (3,3)")):
        bound_certificate(complete(5), spec, 7, outcome)


def test_certificate_rejects_budget_exhausted_evidence():
    spec = ArrowSpec((3, 4))
    outcome = arrows_edges(complete(9), spec, budget=SearchBudget(max_nodes=50))
    assert outcome.verdict is Verdict.BUDGET_EXHAUSTED
    with pytest.raises(CertificateError,
                       match="search outcome is inconclusive: budget-exhausted"):
        bound_certificate(complete(9), spec, 10, outcome)


def test_certificate_accepts_solver_unsat_record():
    spec = ArrowSpec((3, 3))
    record = solver_record(complete(6), spec, solver="some-external-solver")
    cert = bound_certificate(complete(6), spec, 7, record)
    assert cert["evidence"] == {**record, "kind": "solver-unsat", "checked": False}


def test_certificate_ties_records_to_instance():
    # Only a solver record counts, and only through the sha256 of a fresh
    # encoding of this graph and spec; arrows run records are logs.
    spec = ArrowSpec((3, 3))
    k6 = complete(6)
    run_record = arrows_edges(k6, spec).to_json_obj()
    with pytest.raises(CertificateError, match="not a solver UNSAT record"):
        bound_certificate(k6, spec, 7, run_record)
    with pytest.raises(CertificateError, match="not a solver UNSAT record"):
        bound_certificate(k6, spec, 7, {"verdict": "arrows"})
    with pytest.raises(CertificateError, match="unsupported evidence type list"):
        bound_certificate(k6, spec, 7, ["UNSAT"])
    for record in ({"status": "UNSAT"},
                   {"status": "UNSAT", "dimacs_sha256": "0" * 64},
                   solver_record(complete(7), spec),
                   solver_record(k6.relabel("other"), spec),
                   solver_record(k6, ArrowSpec((3, 4)))):
        with pytest.raises(CertificateError, match="dimacs_sha256"):
            bound_certificate(k6, spec, 7, record)
    cert = bound_certificate(k6, spec, 7, solver_record(k6, spec))
    assert cert["evidence"]["kind"] == "solver-unsat"


def test_certificate_checks_in_process_outcome_as_a_record():
    # An in-process outcome is checked field by field: an edge search on K6
    # proves nothing about K5 (F_e(3,3;7) = R(3,3) = 6).
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
    evidence = bound_certificate(complete(6), spec, 7, k6)["evidence"]
    assert evidence == {"kind": "native-search", "checked": True,
                        "stats": k6.stats.to_json_obj()}


def test_certificate_record_keys_do_not_override_its_own():
    spec = ArrowSpec((3, 3))
    record = solver_record(complete(6), spec, kind="native-search", checked=True)
    evidence = bound_certificate(complete(6), spec, 7, record)["evidence"]
    assert (evidence["kind"], evidence["checked"]) == ("solver-unsat", False)
    assert evidence["dimacs_sha256"] == record["dimacs_sha256"]


def test_certificate_refuses_undefined_q():
    # F_e(3,3;q) needs q > 3; C5 does not even arrow (3,3).
    spec = ArrowSpec((3, 3))
    for q in (2, 3):
        with pytest.raises(CertificateError, match="undefined"):
            bound_certificate(cycle(5), spec, q, solver_record(cycle(5), spec))
    with pytest.raises(CertificateError, match="undefined"):
        check_bound_instance(complete(6), ArrowSpec((3, 5)), 5)


def test_certificate_refuses_solver_record_without_cnf():
    # Only 2-color specs are encoded, so a 3-color UNSAT record cannot be
    # tied to anything (F_e(3,3,3;6) is R(3,3,3) = 17, not 5).
    with pytest.raises(CertificateError, match="2-color"):
        bound_certificate(complete(5), ArrowSpec((3, 3, 3)), 6,
                          {"status": "UNSAT", "dimacs_sha256": "0" * 64})


def test_certificate_catalog_gate():
    lin = build_lin_graph()  # 18 vertices: open problem, below the best 21
    for sizes in ((3, 5), (5, 3)):
        spec = ArrowSpec(sizes)
        with pytest.raises(CertificateError, match="best published upper bound 21"):
            bound_certificate(lin, spec, 13, solver_record(lin, spec))
        with pytest.raises(CertificateError, match="known lower bound 18"):
            bound_certificate(complete(12), spec, 13,
                              solver_record(complete(12), spec))
    g = build_theorem_graph()
    spec = ArrowSpec((3, 5))
    cert = bound_certificate(g, spec, 13, solver_record(g, spec))
    assert cert["bound"] == "F_e(3,5;13) <= 21"
    assert cert["evidence"]["dimacs_sha256"] == THEOREM_SHA256


def test_certificate_rejects_sat_solver_record():
    with pytest.raises(CertificateError):
        bound_certificate(complete(6), ArrowSpec((3, 3)), 7, {"status": "SAT"})
    with pytest.raises(CertificateError):
        bound_certificate(complete(6), ArrowSpec((3, 3)), 7, {"status": 1})


def test_known_numbers_catalog():
    values = {(tuple(row["spec"]), row["q"]): row["value"] for row in CATALOG}
    assert len(values) == len(CATALOG)  # one row per (spec, q)
    assert values[(3, 4), 9] == 14
    assert values[(3, 3), 6] == 8
    assert values[(3, 5), 14] == 16
    assert values[(3, 3, 3), 14] == 25
    assert ((9, 9), 9) not in values
    assert values[(3, 5), 13] == [18, 21]
    for row in CATALOG:
        if (row["spec"], row["q"]) != ([3, 5], 13):
            # Every other row is an exact value.
            assert isinstance(row["value"], int), row


def test_catalog_interval_validation():
    intervals = [row for row in CATALOG if not isinstance(row["value"], int)]
    assert [(row["spec"], row["q"]) for row in intervals] == [([3, 5], 13)]
    for row in intervals:
        low, high = row["value"]
        assert low < high, row
    for row in CATALOG:
        # The gate sorts the spec it looks up, so an unsorted row never matches.
        assert row["spec"] == sorted(row["spec"]), row
        assert row["sources"], row
