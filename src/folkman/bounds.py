"""Named graph constructions, the known-values catalog, and bound certificates.

An upper bound F_e(a_1,...,a_r; q) <= n is certified by exhibiting an
n-vertex graph with clique number below q together with conclusive evidence
that it edge-arrows (a_1,...,a_r): either an exhausted native edge search on
that graph, or an external solver's UNSAT result whose DIMACS hash matches a
fresh encoding of it.
"""
from __future__ import annotations

from . import __version__
from .graphs import (Graph, circulant, complement, complete, cycle,
                     emit_graph6, join, max_clique)
from .arrowing import ArrowSpec, SearchOutcome, Verdict, arrows_vertices

CERTIFICATE_SCHEMA = "folkman-certificate/1"


class ConstructionError(ValueError):
    """A named construction failed its published-property validation gate."""


class CertificateError(ValueError):
    """Ineligible graph or inconclusive evidence."""


def build_q() -> Graph:
    """The 13-vertex Greenwood-Gleason graph Q: complement of the circulant
    with offsets {1, 5}.

    Only Q's complement is pictured in the literature, so the construction
    is gated on Q's three published properties: cl(Q) = 4, independence
    number 2, and Q vertex-arrows (3,4).  Failing any check aborts rather
    than silently returning the wrong graph.
    """
    q = complement(circulant(13, {1, 5})).relabel("Q")
    clique_number = len(max_clique(q))
    if clique_number != 4:
        raise ConstructionError(f"Q gate: clique number {clique_number} != 4")
    if len(max_clique(complement(q))) != 2:
        raise ConstructionError("Q gate: independence number != 2")
    outcome = arrows_vertices(q, ArrowSpec((3, 4)))
    if outcome.verdict is not Verdict.ARROWS:
        raise ConstructionError("Q gate: Q does not vertex-arrow (3,4)")
    return q


def build_theorem_graph() -> Graph:
    """K_8 + Q: 21 vertices, clique number 12; the carrier of F_e(3,5;13) <= 21."""
    return join(complete(8), build_q())


def build_lin_graph() -> Graph:
    """K_8 + C_5 + C_5: the unique 18-vertex candidate for F_e(3,5;13) = 18.

    Whether it edge-arrows (3,5) is an open problem.  `bound_certificate`
    refuses the bound it would give, 18 < 21, the best published upper bound.
    """
    return join(complete(8), join(cycle(5), cycle(5)))


BUILTIN_GRAPHS = {
    "q": build_q,
    "Q": build_q,  # Q's label
    "theorem-graph": build_theorem_graph,
    "lin-graph": build_lin_graph,
}


# --- known-values catalog -----------------------------------------------------

# The rows `folkman catalog` prints: `spec` ascending, `value` the exact
# F_e(spec; q) or its interval [low, high].
CATALOG = (
    {"spec": [3, 3], "q": 6, "value": 8, "sources": ["G"]},
    {"spec": [3, 4], "q": 9, "value": 14, "sources": ["N349"]},
    {"spec": [3, 5], "q": 14, "value": 16, "sources": ["L"]},
    {"spec": [4, 4], "q": 18, "value": 20, "sources": ["L"]},
    {"spec": [3, 3, 3], "q": 17, "value": 19, "sources": ["L"]},
    {"spec": [3, 4], "q": 8, "value": 16, "sources": ["KNdokl", "KNgod"]},
    {"spec": [3, 3], "q": 5, "value": 15, "sources": ["N335", "PRU"]},
    {"spec": [3, 3, 3], "q": 16, "value": 21, "sources": ["L", "N33316"]},
    {"spec": [3, 3, 3], "q": 15, "value": 23, "sources": ["N33315"]},
    {"spec": [3, 3, 3], "q": 14, "value": 25, "sources": ["N33314"]},
    {"spec": [3, 5], "q": 13, "value": [18, 21], "sources": ["L", "K8+Q"],
     "note": "lower bound from Lin; upper bound 21 from the K8+Q "
             "construction, improving the previous 24 (KNgod); "
             "the source abstract misprints the bound as "
             "F_e(3,5;8) <= 21, the body and corollary use q=13"},
)


# --- bound certificates -------------------------------------------------------

def check_bound_instance(g: Graph, spec: ArrowSpec, q: int) -> int:
    """Refuse (g, spec, q) unless F_e(spec; q) <= |V(g)| could be certified
    from evidence that g edge-arrows spec; return g's clique number.

    F_e(spec; q) needs q > max(spec); g needs clique number below q,
    recomputed here, never trusted from the caller; and the bound may not
    fall below the catalog's best published upper bound for (spec, q).
    """
    if q <= max(spec.sizes):
        raise CertificateError(
            f"F_e({spec};{q}) is undefined: q must exceed every clique size")
    cl = len(max_clique(g))
    if cl >= q:
        raise CertificateError(f"clique number {cl} >= q={q}: graph ineligible")
    # A bound below the best published upper bound is refused along with
    # one that contradicts a published lower bound: a new bound should not
    # rest on evidence no independent checker has seen.
    sizes = sorted(spec.sizes)  # F_e is symmetric in the a_i
    for row in CATALOG:
        if row["spec"] == sizes and row["q"] == q:
            value = row["value"]
            low, high = (value, value) if isinstance(value, int) else value
            if g.n < low:
                raise CertificateError(
                    f"F_e({spec};{q}) <= {g.n} contradicts the known lower bound "
                    f"{low} ({', '.join(row['sources'])})")
            if g.n < high:
                raise CertificateError(
                    f"F_e({spec};{q}) <= {g.n} would beat the best published upper "
                    f"bound {high}; a new bound is not certified here")
    return cl


def _evidence_record(g: Graph, spec: ArrowSpec, evidence) -> dict:
    if isinstance(evidence, SearchOutcome):
        if evidence.graph != g:
            raise CertificateError("search outcome is for a different graph")
        if evidence.spec != spec:
            raise CertificateError("search outcome is for a different spec")
        if evidence.search != "edges":
            raise CertificateError(
                f"search outcome is from a {evidence.search!r} search; an edge "
                "Folkman bound needs an 'edges' search")
        if evidence.verdict is Verdict.FREE_COLORING:
            raise CertificateError(
                f"the search found a free coloring, so the graph does not arrow ({spec})")
        if evidence.verdict is not Verdict.ARROWS:
            raise CertificateError(
                f"search outcome is inconclusive: {evidence.verdict.value}")
        return {"kind": "native-search", "checked": True,
                "stats": evidence.stats.to_json_obj()}
    if not isinstance(evidence, dict):
        raise CertificateError(f"unsupported evidence type {type(evidence).__name__}")
    status = evidence.get("status")
    if not (isinstance(status, str) and status.upper() == "UNSAT"):
        raise CertificateError(
            f"evidence is not a solver UNSAT record (status {status!r}); an "
            "arrows run record is a log, not evidence")
    from . import cnf  # only the solver route encodes
    try:
        formula = cnf.encode_edge_arrowing(g, spec)
        sha = cnf.dimacs_sha256(cnf.emit_dimacs(formula))
    except cnf.CnfError as exc:
        raise CertificateError(f"solver record cannot be checked: {exc}") from exc
    if evidence.get("dimacs_sha256") != sha:
        # The graph's label is part of the hashed DIMACS text, so a graph
        # given by name and by graph6 encodes to different bytes.
        raise CertificateError(
            f"solver record's dimacs_sha256 {evidence.get('dimacs_sha256')!r} is "
            f"not {sha}, the sha256 of `folkman encode` for this graph and spec, "
            f"whose DIMACS names the graph in `c {formula.comments[0]}`; encode "
            "and certify need the same graph source or label (graph6 has none)")
    # UNSAT is still the solver's word: no proof of it is checked here.
    return {**evidence, "kind": "solver-unsat", "checked": False,
            "dimacs_sha256": sha}


def bound_certificate(g: Graph, spec: ArrowSpec, q: int, evidence) -> dict:
    """The machine-checkable record for F_e(spec; q) <= |V(g)|, as the
    JSON object `certify` writes; `folkman_version` names the package
    version that checked the evidence.

    `check_bound_instance` must pass, and the evidence must be one of:
    an in-process SearchOutcome of an edge search on exactly this graph and
    spec with verdict ARROWS (marked "checked": true), or an external
    solver's record whose status is UNSAT and whose `dimacs_sha256` is that
    of a fresh `cnf.encode_edge_arrowing` of this graph and spec (marked
    "checked": false, since the UNSAT itself is not checked).
    """
    cl = check_bound_instance(g, spec, q)
    record = _evidence_record(g, spec, evidence)
    return {
        "schema": CERTIFICATE_SCHEMA,
        "folkman_version": __version__,
        "graph": {"label": g.label or "unlabeled", "graph6": emit_graph6(g), "n": g.n},
        "spec": list(spec.sizes),
        "q": q,
        "clique_number": cl,
        "evidence": record,
        "bound": f"F_e({spec};{q}) <= {g.n}",
    }
