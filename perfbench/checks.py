"""Independent checks of the program's outputs.

Nothing here imports `folkman`: a witness is checked by brute force over
vertex subsets, a DIMACS file by its own hash, header and clause shapes.
"""
from __future__ import annotations

import functools
import hashlib
from itertools import combinations

from inputs import Graph


def coloring_from_witness(g: Graph, obj: dict) -> dict[tuple[int, int], int]:
    """Edge -> colour from a witness JSON object; raises ValueError unless the
    colouring covers exactly the edges of `g` with colours 1 and 2."""
    if obj.get("kind") != "edges":
        raise ValueError(f"witness kind {obj.get('kind')!r}, expected 'edges'")
    col = {}
    for u, v, c in obj["coloring"]:
        e = (min(u, v), max(u, v))
        if e in col or c not in (1, 2):
            raise ValueError(f"bad witness entry {[u, v, c]}")
        col[e] = c
    if sorted(col) != list(g.edges):
        raise ValueError("witness does not colour exactly the graph's edges")
    return col


def monochromatic_clique(g: Graph, spec, col) -> tuple[int, tuple[int, ...]] | None:
    """First (colour, vertex set) whose every pair is an edge of that colour,
    found by trying every vertex subset of the forbidden size; None if free."""
    for colour, size in enumerate(spec, start=1):
        for vs in combinations(range(g.n), size):
            if all(col.get(p) == colour for p in combinations(vs, 2)):
                return colour, vs
    return None


def model_text(g: Graph, col) -> str:
    """SAT-competition model of a colouring: variable i is the i-th edge in
    lexicographic order, true meaning colour 1."""
    lits = [i if col[e] == 1 else -i for i, e in enumerate(g.edges, start=1)]
    return "s SATISFIABLE\nv " + " ".join(map(str, lits)) + " 0\n"


def dimacs_summary(data: bytes) -> dict:
    """sha256, byte count, header counts and clause shapes of a DIMACS file."""
    nvars = nclauses = None
    shapes: dict[str, int] = {}
    for line in data.decode().splitlines():
        if line.startswith("c"):
            continue
        if line.startswith("p"):
            _, _, nv, nc = line.split()
            nvars, nclauses = int(nv), int(nc)
            continue
        lits = [int(t) for t in line.split()]
        if not lits or lits[-1] != 0:
            raise ValueError(f"clause line not 0-terminated: {line[:40]!r}")
        body = lits[:-1]
        sign = "-" if all(x < 0 for x in body) else "+" if all(x > 0 for x in body) else "mixed"
        key = f"{sign}{len(body)}"
        shapes[key] = shapes.get(key, 0) + 1
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
            "vars": nvars, "clauses": nclauses, "clause_lines": sum(shapes.values()),
            "shapes": shapes}


@functools.lru_cache(maxsize=4)
def expected_clause_shapes(g: Graph, spec) -> dict[str, int]:
    """One all-negative clause per a1-clique, one all-positive per a2-clique,
    each with one literal per clique edge, counted by subset enumeration."""
    edges = set(g.edges)
    out = {}
    for sign, size in zip("-+", spec):
        count = sum(1 for vs in combinations(range(g.n), size)
                    if all(p in edges for p in combinations(vs, 2)))
        out[f"{sign}{size * (size - 1) // 2}"] = count
    return out
