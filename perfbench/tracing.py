"""Traced replay: the jobs' calls into folkman's public functions, with spans.

Spans are recorded here, around each call into a module (`cli`, `graphs`,
`bounds`, `arrowing`, `cnf`); nothing is added inside the package.  A
replay makes the calls a CLI job makes, in the order it makes them,
starting from the same argument list.  A probe is an extra call that
times work a replayed call does internally (clique enumeration, the
search's index build, the witness check); probes are kept out of the
self-time accounting.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

import checks
import cli_jobs
from inputs import THEOREM_DIMACS, THEOREM_Q, Instance

LAYERS = ("graphs", "bounds", "arrowing", "cnf")
# K8+Q -> (3,5) cannot be decided today, so the probe stops at a fixed node
# budget and reports only per-node cost and pruning rate.
THEOREM_PROBE_NODES = 20_000


class Recorder:
    """Spans kept in memory: name, kind, start, end, parent and job id."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.job: str | None = None

    @contextmanager
    def span(self, name: str, kind: str = "call"):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name, "kind": kind, "job": self.job,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def in_job(self, job_id: str):
        """Spans opened inside belong to job `job_id`."""
        self.job = job_id
        try:
            yield
        finally:
            self.job = None

    @contextmanager
    def job_span(self, job_id: str):
        with self.in_job(job_id), self.span("job", kind="job"):
            yield


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the time its child spans cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


class Replayer:
    """Replays jobs through the package's public functions."""

    def __init__(self, folkman_modules, rec: Recorder):
        self.graphs, self.bounds, self.arrowing, self.cnf, self.cli = folkman_modules
        self.rec = rec

    def _command(self, argv):
        with self.rec.span("cli.parse_args"):
            return self.cli.build_parser().parse_args(argv)

    def setup(self, labels, build_graphs):
        """The set-up step: build the workload's graphs, emit their graph6."""
        span = self.rec.span
        with self.rec.job_span("setup"):
            built = build_graphs(labels, span)
            for g in built.values():
                with span("graphs.graph6"):
                    self.graphs.emit_graph6(g)

    def arrows(self, inst: Instance, graph6: str, job_id: str):
        """`arrows edges`, then `decode` of its witness.  Returns (graph,
        spec, outcome)."""
        span, ar, cnf = self.rec.span, self.arrowing, self.cnf
        with self.rec.job_span(job_id):
            args = self._command(cli_jobs.arrows_argv(inst, graph6))
            with span("graphs.graph6"):
                g = self.graphs.parse_graph6(args.graph)
            with span("arrowing.spec"):
                spec = ar.ArrowSpec.parse(args.spec)
            with span("arrowing.search"):
                out = ar.arrows_edges(g, spec, ar.SearchBudget(max_nodes=args.max_nodes))
            if out.verdict is ar.Verdict.FREE_COLORING:
                col = {(u, v): c for u, v, c in out.witness.to_json_obj()}
                model = checks.model_text(inst.graph, col)
                args = self._command(cli_jobs.decode_argv(inst, graph6))
                with span("graphs.graph6"):
                    g2 = self.graphs.parse_graph6(args.graph)
                with span("arrowing.spec"):
                    spec2 = ar.ArrowSpec.parse(args.spec)
                with span("cnf.parse"):
                    lits = cnf.parse_model(model)
                with span("cnf.decode"):
                    back = cnf.decode_model(g2, spec2, lits)
                if back.colors != out.witness.colors:
                    raise ValueError(f"{inst.label}: in-process decode differs from witness")
        return g, spec, out

    def arrows_probes(self, g, spec, out, job_id: str) -> int:
        """Time the work `arrows_edges` does inside: max clique (edge order),
        clique enumeration and index build, and the witness check.  Returns
        the number of cliques enumerated."""
        span, ar = self.rec.span, self.arrowing
        with self.rec.in_job(job_id):
            count = self._clique_probes(g, spec)
            with span("arrowing.index", "probe"):
                ar.arrows_edges(g, spec, ar.SearchBudget(max_nodes=1))
            if out.witness is not None:
                with span("arrowing.verify", "probe"):
                    ok, _ = ar.is_free_edge_coloring(g, spec, out.witness)
                if not ok:
                    raise ValueError("in-process witness is not free")
        return count

    def _clique_probes(self, g, spec) -> int:
        with self.rec.span("graphs.max_clique", "probe"):
            self.graphs.max_clique(g)
        with self.rec.span("graphs.cliques", "probe"):
            return sum(len(self.graphs.enumerate_cliques(g, a)) for a in spec.sizes)

    def theorem(self, inst: Instance, job_id: str):
        """`encode -o` then `certify` on the theorem graph.  Returns (graph,
        spec, DIMACS text)."""
        span, cnf = self.rec.span, self.cnf
        with self.rec.job_span(job_id):
            g, spec = self._theorem_graph(cli_jobs.encode_argv(inst))
            with span("cnf.encode"):
                formula = cnf.encode_edge_arrowing(g, spec)
            with span("cnf.emit"):
                text = cnf.emit_dimacs(formula)
                sha = cnf.dimacs_sha256(text)
            if sha != THEOREM_DIMACS["sha256"]:
                raise ValueError(f"in-process DIMACS sha256 {sha} differs from the pin")
            g, spec = self._theorem_graph(cli_jobs.certify_argv(inst))
            with span("graphs.graph6"):
                self.graphs.emit_graph6(g)
            with span("bounds.certify"):
                self.bounds.bound_certificate(
                    g, spec, THEOREM_Q, {"status": "UNSAT", "dimacs_sha256": sha})
        return g, spec, text

    def _theorem_graph(self, argv):
        # What `--graph theorem-graph` resolves to: Q through its gate, then K8+Q.
        span = self.rec.span
        args = self._command(argv)
        with span("bounds.q_gate"):
            q = self.bounds.build_q()
        with span("graphs.build"):
            g = self.graphs.join(self.graphs.complete(8), q)
        with span("arrowing.spec"):
            spec = self.arrowing.ArrowSpec.parse(args.spec)
        return g, spec

    def theorem_probes(self, g, spec, text: str, job_id: str) -> int:
        with self.rec.in_job(job_id):
            count = self._clique_probes(g, spec)
            with self.rec.span("cnf.parse", "probe"):
                self.cnf.parse_dimacs(text)
        return count

    def theorem_search_probe(self) -> dict:
        """K8+Q -> (3,5) at a fixed node budget: index build and per-node cost."""
        span, ar = self.rec.span, self.arrowing
        g = self.bounds.build_theorem_graph()
        spec = ar.ArrowSpec((3, 5))
        with self.rec.in_job("theorem-probe"):
            with span("arrowing.theorem_index", "probe"):
                ar.arrows_edges(g, spec, ar.SearchBudget(max_nodes=1))
            with span("arrowing.theorem_search", "probe"):
                out = ar.arrows_edges(g, spec, ar.SearchBudget(max_nodes=THEOREM_PROBE_NODES))
        return {"nodes": out.stats.nodes, "prunings": sum(out.stats.prunings.values())}
