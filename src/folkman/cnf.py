"""CNF encoding of 2-color edge-arrowing instances for external SAT solvers.

The formula is satisfiable iff a free coloring exists.  One variable per
edge; true means color 1 (blue).  Color 1 carries the smaller clique size in
our instances, so the short clauses come out all-negative, which solver
preprocessors recognize well.  Solving stays out of process: this module
only writes DIMACS, reads models back, and re-verifies them.
"""
from __future__ import annotations

from .graphs import Graph
from .arrowing import ArrowInstance, ArrowSpec, EdgeColoring, decimal


class CnfError(ValueError):
    """Malformed formula, DIMACS text, or model."""


class CnfFormula:
    __slots__ = ("num_vars", "clauses", "comments")

    def __init__(self, num_vars: int, clauses: list[list[int]], comments: list[str]):
        self.num_vars = num_vars
        self.clauses = clauses
        self.comments = comments


def encode_edge_arrowing(g: Graph, spec: ArrowSpec) -> CnfFormula:
    """One clause per forbidden clique: all-blue forbidden for size a_1
    (all literals negative), all-red forbidden for size a_2 (all positive).
    Clause order follows the lexicographic clique enumeration, so two
    encodings of the same instance are identical."""
    if spec.r != 2:
        raise CnfError("CNF encoding supports 2-color specs only")
    inst = ArrowInstance(g, spec)
    blue, red = inst.cliques
    clauses = [[-(e + 1) for e in eids] for eids in blue]
    clauses += [[e + 1 for e in eids] for eids in red]
    comments = [
        f"graph {g.label or 'unlabeled'} n={g.n} m={g.edge_count}",
        f"spec {spec} (true = color 1 = blue, false = color 2 = red)",
        "satisfiable iff a free edge coloring exists",
    ]
    comments += [f"edge {i} {u} {v}" for i, (u, v) in enumerate(inst.items, start=1)]
    return CnfFormula(len(inst.items), clauses, comments)


# The characters `str.splitlines` breaks a line at, so `parse_dimacs` too.
_LINE_BREAKS = frozenset("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def emit_dimacs(f: CnfFormula) -> str:
    """DIMACS text: one `c` line per comment, the problem line, one line
    per clause.  A comment that holds a line break would spill onto a line
    `parse_dimacs` reads as a clause, so it is refused.  The clauses are
    not checked in a pass of their own: a literal out of range (0, or past
    `num_vars` either way) has no entry in the literal table, and that is
    refused as it is written."""
    for c in f.comments:
        if not _LINE_BREAKS.isdisjoint(c):
            raise CnfError(f"comment {c!r} holds a line break")
    # Each literal's text, formatted once, keyed by the literal.
    nv = f.num_vars
    lit = {x: str(x) for x in range(-nv, nv + 1) if x}
    lines = [f"c {c}" for c in f.comments]
    lines.append(f"p cnf {nv} {len(f.clauses)}")
    try:
        lines += [" ".join(map(lit.__getitem__, cl)) + " 0" for cl in f.clauses]
    except KeyError as bad:
        raise CnfError(f"literal {bad.args[0]} out of range for {nv} variables") from None
    return "\n".join(lines) + "\n"


def _ints(tokens, number: int, line: str) -> list[int]:
    """The integers `tokens` spell; the tokenizer of `parse_dimacs` and
    `parse_model`.  A token is an optional `-` and then what `decimal`
    reads (tokens hold no spaces); any other is refused, naming line
    `number` and its text."""
    try:
        return [-decimal(t[1:]) if t[:1] == "-" else decimal(t) for t in tokens]
    except ValueError:
        raise CnfError(f"line {number}: non-integer token in {line!r}") from None


def parse_dimacs(text: str) -> CnfFormula:
    """The formula DIMACS text holds, checked in the one pass that reads
    it.  A missing or second problem line, a negative count in it, a token
    that is not an integer, a clause before the problem line, empty or left
    without its 0, a literal out of range and a clause count other than the
    header's are refused."""
    comments: list[str] = []
    clauses: list[list[int]] = []
    num_vars = num_clauses = None
    pending: list[int] = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("c"):
            comments.append(line[2:] if line.startswith("c ") else line[1:])
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfError(f"malformed problem line: {line!r}")
            if num_vars is not None:
                raise CnfError(f"line {number}: second problem line {line!r}")
            num_vars, num_clauses = _ints(parts[2:], number, line)
            if num_vars < 0 or num_clauses < 0:
                raise CnfError(f"line {number}: negative count in {line!r}")
            continue
        if num_vars is None:
            raise CnfError("clause before problem line")
        for lit in _ints(line.split(), number, line):
            if lit == 0:
                if not pending:
                    raise CnfError(f"line {number}: empty clause")
                clauses.append(pending)
                pending = []
            elif abs(lit) <= num_vars:
                pending.append(lit)
            else:
                raise CnfError(f"line {number}: literal {lit} out of range for "
                               f"{num_vars} variables")
    if pending:
        raise CnfError("trailing clause not terminated by 0")
    if num_vars is None:
        raise CnfError("missing problem line")
    if len(clauses) != num_clauses:
        raise CnfError(f"header promises {num_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, clauses, comments)


def parse_model(text: str) -> list[int]:
    """SAT-competition model output: literals from 'v ' lines, 0-terminated.
    The model of a formula with no variables is empty: a lone `v 0`.  A
    token that is not an integer is refused."""
    lits: list[int] = []
    seen = done = False
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line.startswith("v"):
            continue
        seen = True
        for lit in _ints(line[1:].split(), number, line):
            if lit == 0:
                done = True
                break
            lits.append(lit)
        if done:
            break
    if not seen:
        raise CnfError("no 'v' model lines found")
    return lits


def decode_model(g: Graph, spec: ArrowSpec, model) -> EdgeColoring:
    """Rebuild the edge coloring a model encodes and re-verify it.

    A model that decodes to a non-free coloring means the encoder and the
    solver disagree about the formula; that is an error, never a witness.
    So is a model that is not one for this formula: one that sets a
    variable both ways or names a variable the formula does not have.
    """
    if spec.r != 2:
        raise CnfError("decoding supports 2-color specs only")
    inst = ArrowInstance(g, spec)
    num_vars = len(inst.items)
    assignment: dict[int, bool] = {}
    for lit in model:
        var = abs(lit)
        if var > num_vars:
            raise CnfError(f"model names variable {var}, outside 1..{num_vars}")
        if assignment.setdefault(var, lit > 0) != (lit > 0):
            raise CnfError(f"model sets variable {var} both true and false")
    missing = [i for i in range(1, num_vars + 1) if i not in assignment]
    if missing:
        raise CnfError(f"model leaves variables unassigned: {missing[:5]}")
    colors = tuple(1 if assignment[i] else 2 for i in range(1, num_vars + 1))
    violation = inst.violation(colors)
    if violation is not None:
        raise CnfError(
            f"model decodes to a non-free coloring: clique {violation[1]} is "
            f"monochromatic in color {violation[0]} (encoder/solver inconsistency)")
    return EdgeColoring(g, colors)


def dimacs_sha256(text: str) -> str:
    import hashlib  # imported here: CLI start-up time is measured
    return hashlib.sha256(text.encode()).hexdigest()
