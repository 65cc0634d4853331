"""Set-up step of a workload, timed from outside in a fresh interpreter.

Usage: PYTHONPATH=src python3 perfbench/setup_probe.py <label> [<label> ...]

Imports `folkman.cli` the way every CLI command does, builds each named
graph with the package's own constructions (Q through its validation
gate), and prints the package version and each graph's graph6 so the
benchmark can check the program builds the graphs it expects.
"""
from __future__ import annotations

import sys
from contextlib import nullcontext


def build_graphs(labels, span=lambda name: nullcontext()):
    """Build each labelled graph with folkman's constructions; returns
    {label: graph}.  `span(name)` wraps each call into the package."""
    from folkman import bounds, graphs

    def q():
        if "q" not in memo:
            with span("bounds.q_gate"):
                memo["q"] = bounds.build_q()
        return memo["q"]

    memo = {}
    c5 = graphs.cycle
    recipes = {
        "K9": lambda: graphs.complete(9),
        "C5+C5+C5": lambda: graphs.join(c5(5), graphs.join(c5(5), c5(5))),
        "K2+Q": lambda: graphs.join(graphs.complete(2), q()),
        "K3+Q": lambda: graphs.join(graphs.complete(3), q()),
        "K3+C5+C5": lambda: graphs.join(graphs.complete(3), graphs.join(c5(5), c5(5))),
        "K8+Q": lambda: graphs.join(graphs.complete(8), q()),
        "K5": lambda: graphs.complete(5),
        "K6": lambda: graphs.complete(6),
    }
    built = {}
    for label in labels:
        if label.endswith("Q"):
            q()  # the gate is its own layer; build it outside the build span
        with span("graphs.build"):
            built[label] = recipes[label]()
    return built


def main(labels) -> int:
    import folkman
    import folkman.cli  # noqa: F401  (the import every CLI command pays)
    from folkman.graphs import emit_graph6

    built = build_graphs(labels)
    print(f"folkman {folkman.__version__} {folkman.__file__}")
    for label in labels:
        print(f"graph {label} {emit_graph6(built[label])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
