"""Command-line front door.

Exit codes for search commands: 0 = Arrows, 1 = FreeColoring (witness
written), 2 = BudgetExhausted.  Every command exits 3 on a usage or input
error (bad arguments, graph, spec, evidence or files; the message goes to
standard error as `error: ...`) and 4 on an internal error (the traceback
goes to standard error), so a failure never reads as a verdict.  Standard
output is machine-parseable key/value lines; progress goes to standard
error.

`certify` prints a bound from one of two kinds of evidence.  With no
`--evidence` it runs the edge search on the graph and spec itself, within
`--max-nodes`/`--max-seconds` if given (out of budget: exit 2 and no
certificate), and that verdict is checked evidence.  With `--evidence` the
file must be a solver UNSAT record whose `dimacs_sha256` matches a fresh
`encode` of that graph and spec, and the budget flags are refused; the
hash ties the record to the formula, but the UNSAT claim is the solver's
and is not checked (`"checked": false`).  `arrows --evidence-out` files
are run logs, not evidence.

Every process pays for the modules it imports, so `cnf`, `bounds` and
`json` are imported inside the commands that use them.
"""
from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import graphs
from .arrowing import (ArrowSpec, SearchBudget, SearchOutcome, Verdict,
                       arrows_edges, arrows_vertices, decimal)
from .graphs import Graph, complete, cycle, circulant, emit_graph6, join, max_clique

EXIT_ARROWS = 0
EXIT_FREE = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

WITNESS_SCHEMA = "folkman-witness/1"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the
    # BudgetExhausted exit code; remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def resolve_graph(source: str) -> Graph:
    """The graph a command-line source names, read as the package's labels
    are written, trying in order:

    - `@path` to a graph6 file, the rest of the source taken whole as the
      path; like a literal graph6 string it carries no label, since a file
      name is not a graph source and the file can change;
    - `A+B+...`, split at each `+` outside parentheses: each part resolved
      here, joined left to right;
    - `C<n>(<d>,...)`, the circulant on n vertices with those offsets;
    - `K<n>` or `C<n>`, when an ASCII digit follows the letter;
    - a literal graph6 string;
    - a name in `bounds.BUILTIN_GRAPHS` (`q` or `Q`, `theorem-graph`,
      `lin-graph`).

    Numbers are read by `decimal`.  No graph6 string or builtin name holds
    `+`, `(`, `)` or `,`.  So every label a constructor writes, such as
    `K8+Q` or `C13(1,5)+K2`, reads back as its graph with that label."""
    if source.startswith("@"):
        text = Path(source[1:]).read_text()
        try:
            return graphs.parse_graph6(text)
        except graphs.Graph6Error as exc:
            raise ValueError(f"bad graph6 file {source[1:]}: {exc}")
    first, *rest = re.split(r"\+(?![^(]*\))", source)
    if rest:
        g = resolve_graph(first)
        for part in rest:
            g = join(g, resolve_graph(part))
        return g
    kind, digit = source[:1], source[1:2]
    if kind == "C" and source.endswith(")") and "(" in source:
        n, _, offsets = source[1:-1].partition("(")
        return circulant(decimal(n, "circulant n"),
                         [decimal(d, "circulant offset") for d in offsets.split(",")])
    if kind in ("K", "C") and digit.isascii() and digit.isdigit():
        n = decimal(source[1:], f"graph source {kind}<n>")
        return complete(n) if kind == "K" else cycle(n)
    try:
        return graphs.parse_graph6(source)
    except graphs.Graph6Error as exc:
        error = exc
    from .bounds import BUILTIN_GRAPHS
    if source in BUILTIN_GRAPHS:
        return BUILTIN_GRAPHS[source]()
    raise ValueError(f"unknown graph source {source!r}: {error}")


def _dump_json(obj, path: str) -> None:
    import json
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _witness_obj(g: Graph, spec: ArrowSpec, witness) -> dict:
    return {"schema": WITNESS_SCHEMA, "graph6": emit_graph6(g),
            "label": g.label, "spec": list(spec.sizes),
            "kind": witness.kind, "coloring": witness.to_json_obj()}


def cmd_construct(args) -> int:
    g = resolve_graph(args.graph)
    clique = max_clique(g)
    indep = max_clique(graphs.complement(g))
    print(f"graph6 {emit_graph6(g)}")
    print(f"label {g.label or '-'}")
    print(f"n {g.n}")
    print(f"edges {g.edge_count}")
    print(f"clique_number {len(clique)}")
    print(f"clique_witness {clique}")
    print(f"independence_number {len(indep)}")
    print(f"independent_set_witness {indep}")
    return 0


def _report_outcome(outcome: SearchOutcome, args) -> int:
    print(f"verdict {outcome.verdict.value}")
    print(f"nodes {outcome.stats.nodes}")
    print(f"propagations {outcome.stats.propagations}")
    print(f"generators {outcome.stats.generators}")
    for cause, count in sorted(outcome.stats.prunings.items()):
        print(f"prunings.{cause} {count}")
    print(f"setup_seconds {outcome.stats.setup_seconds:.3f}", file=sys.stderr)
    print(f"seconds {outcome.stats.seconds:.3f}", file=sys.stderr)
    if args.evidence_out:
        _dump_json(outcome.to_json_obj(), args.evidence_out)
        print(f"evidence {args.evidence_out}")
    if outcome.verdict is Verdict.FREE_COLORING:
        if args.witness:
            _dump_json(_witness_obj(outcome.graph, outcome.spec, outcome.witness),
                       args.witness)
            print(f"witness {args.witness}")
        return EXIT_FREE
    return EXIT_ARROWS if outcome.verdict is Verdict.ARROWS else EXIT_BUDGET


def cmd_arrows(args) -> int:
    search = arrows_vertices if args.kind == "vertices" else arrows_edges
    outcome = search(resolve_graph(args.graph), ArrowSpec.parse(args.spec),
                     SearchBudget(args.max_nodes, args.max_seconds), args.progress)
    return _report_outcome(outcome, args)


def cmd_encode(args) -> int:
    from . import cnf
    g = resolve_graph(args.graph)
    spec = ArrowSpec.parse(args.spec)
    formula = cnf.encode_edge_arrowing(g, spec)
    text = cnf.emit_dimacs(formula)
    if args.output:
        Path(args.output).write_text(text)
        print(f"dimacs {args.output}")
        print(f"vars {formula.num_vars}")
        print(f"clauses {len(formula.clauses)}")
        print(f"sha256 {cnf.dimacs_sha256(text)}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_decode(args) -> int:
    from . import cnf
    g = resolve_graph(args.graph)
    spec = ArrowSpec.parse(args.spec)
    model = cnf.parse_model(Path(args.model).read_text())
    coloring = cnf.decode_model(g, spec, model)
    print("verdict free-coloring")
    if args.witness:
        _dump_json(_witness_obj(g, spec, coloring), args.witness)
        print(f"witness {args.witness}")
    return 0


def cmd_certify(args) -> int:
    from . import bounds
    g = resolve_graph(args.graph)
    spec = ArrowSpec.parse(args.spec)
    if args.evidence:
        if args.max_nodes is not None or args.max_seconds is not None:
            raise ValueError("--max-nodes and --max-seconds bound the search that "
                             "certify runs without --evidence")
        import json
        evidence = json.loads(Path(args.evidence).read_text())
    else:
        bounds.check_bound_instance(g, spec, args.q)  # refuse before searching
        evidence = arrows_edges(g, spec, SearchBudget(args.max_nodes, args.max_seconds))
        if evidence.verdict is Verdict.BUDGET_EXHAUSTED:
            print(f"verdict {evidence.verdict.value}")
            return EXIT_BUDGET
    cert = bounds.bound_certificate(g, spec, args.q, evidence)
    if args.output:
        _dump_json(cert, args.output)
        print(f"certificate {args.output}")
    print(f"bound {cert['bound']}")
    return 0


def cmd_catalog(args) -> int:
    import json
    from . import bounds
    sys.stdout.write(json.dumps(bounds.CATALOG, indent=2) + "\n")
    return 0


def _integer(text: str) -> int:
    """argparse `type=` for the integer flags: `decimal`.  Its refusal is
    raised as an `ArgumentTypeError`, which argparse prints as it is:
    `invalid decimal value: <the input>`, as argparse itself words it, or,
    for ASCII digits too many for `int()`, `decimal`'s message, which gives
    their count, not the digits."""
    try:
        return decimal(text)
    except ValueError as exc:
        digits = text.strip()  # if all ASCII digits, too many of them
        too_long = digits.isascii() and digits.isdigit()
        raise argparse.ArgumentTypeError(
            str(exc) if too_long else f"invalid decimal value: {text!r}") from None


def _seconds(text: str) -> float:
    """argparse `type=` for `--max-seconds`: ASCII digits with at most one
    `.`, and optional spaces around them.  `float()` alone would also take
    `1_0`, non-ASCII digits, `1e3`, `inf` and `nan`."""
    digits = text.strip()
    if not (digits.isascii() and digits.replace(".", "", 1).isdigit()):
        raise argparse.ArgumentTypeError(
            f"max_seconds must be positive and finite, in ASCII digits with at "
            f"most one '.', got {text!r}")
    return float(digits)


def _add_budget_flags(p):
    p.add_argument("--max-nodes", type=_integer, default=None,
                   help="node budget")
    p.add_argument("--max-seconds", type=_seconds, default=None,
                   help="wall-time budget in seconds")


def _add_search_flags(p):
    _add_budget_flags(p)
    p.add_argument("--progress", type=_integer, default=0, metavar="N",
                   help="print progress to stderr every N nodes")
    p.add_argument("--witness", help="path for the free-coloring witness JSON")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="folkman",
                  description="Ramsey arrowing and Folkman bound verification")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a graph from its source, print invariants")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("arrows", help="decide vertex/edge arrowing by search")
    p.add_argument("kind", choices=["vertices", "edges"])
    p.add_argument("--graph", required=True)
    p.add_argument("--spec", required=True, help="a1,a2[,a3,a4]")
    _add_search_flags(p)
    p.add_argument("--evidence-out", help="path for the arrows run record JSON")
    p.set_defaults(fn=cmd_arrows)

    p = sub.add_parser("encode", help="emit a DIMACS CNF for edge arrowing")
    p.add_argument("--graph", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("-o", "--output", help="write DIMACS here instead of stdout")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="decode and re-verify a solver model")
    p.add_argument("--graph", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--model", required=True, help="solver output with v-lines")
    p.add_argument("--witness", help="path for the verified coloring JSON")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("certify", help="emit a Folkman bound certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--q", type=_integer, required=True)
    p.add_argument("--evidence",
                   help="solver UNSAT record (JSON) with the encoded CNF's "
                        "dimacs_sha256; without it, certify runs the edge search")
    _add_budget_flags(p)
    p.add_argument("-o", "--output", help="certificate path")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("catalog", help="dump the known Folkman values as JSON")
    p.set_defaults(fn=cmd_catalog)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # The one place errors become exit codes.  ValueError covers bad input
    # found by the package (graph, spec, CNF, certificate) or by a command
    # (graph source, flags), and bad JSON.
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        import traceback  # imported here: CLI start-up time is measured
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
