"""Ramsey arrowing and Folkman-number bound verification toolkit."""

from .graphs import (Graph, GraphError, Graph6Error, complete, cycle,
                     circulant, complement, join, induced, edges, max_clique,
                     clique_number, max_independent_set, independence_number,
                     enumerate_cliques, parse_graph6, emit_graph6)
from .arrowing import (ArrowSpec, EdgeColoring, VertexColoring, Verdict,
                       SearchBudget, SearchOutcome, ColoringError,
                       is_free_edge_coloring, is_free_vertex_coloring,
                       arrows_edges, arrows_vertices, ramsey_known,
                       neighborhood_clique_bounds)
from .cnf import (CnfFormula, CnfError, encode_edge_arrowing, emit_dimacs,
                  parse_dimacs, parse_model, decode_model)
from .bounds import (BoundCertificate, CertificateError, ConstructionError,
                     KnownValueEntry, build_q, build_theorem_graph,
                     build_lin_graph, bound_certificate, check_bound_instance,
                     known_numbers, lookup_known)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
