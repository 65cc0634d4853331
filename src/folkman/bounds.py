"""Named graph constructions, the known-values catalog, and bound certificates.

An upper bound F_e(a_1,...,a_r; q) <= n is certified by exhibiting an
n-vertex graph with clique number below q together with conclusive evidence
that it edge-arrows (a_1,...,a_r): either an exhausted native search or an
external solver's UNSAT result on the emitted CNF.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
    if len(max_clique(q)) != 4:
        raise ConstructionError(f"Q gate: clique number {len(max_clique(q))} != 4")
    if len(max_clique(complement(q))) != 2:
        raise ConstructionError("Q gate: independence number != 2")
    outcome = arrows_vertices(q, ArrowSpec((3, 4)))
    if outcome.verdict is not Verdict.ARROWS:
        raise ConstructionError("Q gate: Q does not vertex-arrow (3,4)")
    return q


def build_theorem_graph() -> Graph:
    """K_8 + Q: 21 vertices, clique number 12; the carrier of F_e(3,5;13) <= 21."""
    return join(complete(8), build_q()).relabel("K8+Q")


def build_lin_graph() -> Graph:
    """K_8 + C_5 + C_5: the unique 18-vertex candidate for F_e(3,5;13) = 18.

    Whether it edge-arrows (3,5) is an open problem.  `bound_certificate`
    refuses the bound it would give, 18 < 21, the best published upper bound.
    """
    return join(complete(8), join(cycle(5), cycle(5))).relabel("K8+C5+C5")


BUILTIN_GRAPHS = {
    "q": build_q,
    "theorem-graph": build_theorem_graph,
    "lin-graph": build_lin_graph,
}


# --- known-values catalog -----------------------------------------------------

@dataclass(frozen=True)
class KnownValueEntry:
    sizes: tuple[int, ...]
    q: int
    low: int
    high: int
    sources: tuple[str, ...]
    note: str = ""

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError(f"interval [{self.low}, {self.high}] is empty")

    @property
    def exact(self) -> int | None:
        return self.low if self.low == self.high else None

    def to_json_obj(self) -> dict:
        obj = {"spec": list(self.sizes), "q": self.q,
               "value": self.exact if self.exact is not None
               else [self.low, self.high],
               "sources": list(self.sources)}
        if self.note:
            obj["note"] = self.note
        return obj


_KNOWN = (
    KnownValueEntry((3, 3), 6, 8, 8, ("G",)),
    KnownValueEntry((3, 4), 9, 14, 14, ("N349",)),
    KnownValueEntry((3, 5), 14, 16, 16, ("L",)),
    KnownValueEntry((4, 4), 18, 20, 20, ("L",)),
    KnownValueEntry((3, 3, 3), 17, 19, 19, ("L",)),
    KnownValueEntry((3, 4), 8, 16, 16, ("KNdokl", "KNgod")),
    KnownValueEntry((3, 3), 5, 15, 15, ("N335", "PRU")),
    KnownValueEntry((3, 3, 3), 16, 21, 21, ("L", "N33316")),
    KnownValueEntry((3, 3, 3), 15, 23, 23, ("N33315",)),
    KnownValueEntry((3, 3, 3), 14, 25, 25, ("N33314",)),
    KnownValueEntry((3, 5), 13, 18, 21, ("L", "K8+Q"),
                    note="lower bound from Lin; upper bound 21 from the K8+Q "
                         "construction, improving the previous 24 (KNgod); "
                         "the source abstract misprints the bound as "
                         "F_e(3,5;8) <= 21, the body and corollary use q=13"),
)


def known_numbers() -> list[KnownValueEntry]:
    return list(_KNOWN)


def lookup_known(sizes, q: int) -> KnownValueEntry | None:
    sizes = tuple(sizes)
    for entry in _KNOWN:
        if entry.sizes == sizes and entry.q == q:
            return entry
    return None


# --- bound certificates -------------------------------------------------------

@dataclass(frozen=True)
class BoundCertificate:
    schema: str
    label: str
    graph6: str
    vertex_count: int
    sizes: tuple[int, ...]
    q: int
    clique_number: int
    evidence: dict
    bound: str

    def to_json_obj(self) -> dict:
        return {
            "schema": self.schema,
            "graph": {"label": self.label, "graph6": self.graph6,
                      "n": self.vertex_count},
            "spec": list(self.sizes),
            "q": self.q,
            "clique_number": self.clique_number,
            "evidence": self.evidence,
            "bound": self.bound,
        }


def _evidence_record(evidence, graph6: str, spec: ArrowSpec) -> dict:
    if not isinstance(evidence, dict):
        raise CertificateError(f"unsupported evidence type {type(evidence).__name__}")
    status = evidence.get("status")
    if isinstance(status, str) and status.upper() == "UNSAT":
        kind = "solver-unsat"
    elif evidence.get("verdict") == Verdict.ARROWS.value:
        kind = "native-search"
        # A run record says nothing unless it names the instance it ran on.
        missing = [k for k in ("graph6", "spec", "search") if k not in evidence]
        if missing:
            raise CertificateError(
                f"native-search record lacks {', '.join(missing)}: it is not "
                "tied to a graph, spec and search")
        if evidence["search"] != "edges":
            raise CertificateError(
                f"native-search record is from a {evidence['search']!r} search; "
                "an edge Folkman bound needs an 'edges' search")
    else:
        raise CertificateError(
            "evidence record is neither a solver UNSAT result nor an "
            f"arrows search run: {status or evidence.get('verdict')!r}")
    if evidence.get("graph6", graph6) != graph6:
        raise CertificateError("evidence record is for a different graph")
    if evidence.get("spec", list(spec.sizes)) != list(spec.sizes):
        raise CertificateError("evidence record is for a different spec")
    return {"kind": kind, **evidence}


def _check_catalog(spec: ArrowSpec, q: int, n: int):
    # No evidence kind accepted here is checked independently yet, so a
    # bound below the best published upper bound is refused along with one
    # that contradicts a published lower bound.
    entry = lookup_known(spec.sizes, q)
    if entry is None:
        return
    if n < entry.low:
        raise CertificateError(
            f"F_e({spec};{q}) <= {n} contradicts the known lower bound "
            f"{entry.low} ({', '.join(entry.sources)})")
    if n < entry.high:
        raise CertificateError(
            f"F_e({spec};{q}) <= {n} would beat the best published upper "
            f"bound {entry.high}; no evidence kind accepted here is "
            "independently checked yet")


def bound_certificate(g: Graph, spec: ArrowSpec, q: int,
                      evidence) -> BoundCertificate:
    """Build the machine-checkable record for F_e(spec; q) <= |V(g)|.

    The clique number is recomputed here, never trusted from the caller, and
    the evidence must be conclusive: an arrows run record of an edge search
    on this graph and spec, or an external solver UNSAT record (which, if it
    names a graph6 or spec, must name these).  An in-process SearchOutcome
    is first turned into its run record, so it passes the same check.  A
    bound below the catalog's best published upper bound for (spec, q) is
    refused.
    """
    graph6 = emit_graph6(g)
    if isinstance(evidence, SearchOutcome):
        evidence = evidence.to_json_obj()
    record = _evidence_record(evidence, graph6, spec)
    cl = len(max_clique(g))
    if cl >= q:
        raise CertificateError(f"clique number {cl} >= q={q}: graph ineligible")
    _check_catalog(spec, q, g.n)
    bound = f"F_e({spec};{q}) <= {g.n}"
    return BoundCertificate(
        schema=CERTIFICATE_SCHEMA,
        label=g.label or "unlabeled",
        graph6=graph6,
        vertex_count=g.n,
        sizes=spec.sizes,
        q=q,
        clique_number=cl,
        evidence=record,
        bound=bound,
    )
