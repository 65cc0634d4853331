"""Rules the package source keeps, checked on its syntax tree."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "folkman"
MODULES = sorted(SRC.glob("*.py"))


def test_sources_found():
    # A wrong path would leave the rule below with nothing to check.
    assert {p.name for p in MODULES} >= {"arrowing.py", "bounds.py", "cli.py",
                                         "cnf.py", "graphs.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips asserts, so no safety check may live in one.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statement on line(s) {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    # Every CLI command pays the package's import time, which is measured:
    # `dataclasses` loads `inspect` and builds each class at import, so the
    # classes are plain `__slots__` classes.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Import)
                 and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
             or (isinstance(node, ast.ImportFrom) and not node.level
                 and (node.module or "").split(".")[0] == "dataclasses")]
    assert lines == [], f"{path.name}: dataclasses imported on line(s) {lines}"


def test_arrowing_defines_no_nested_functions():
    # Every search in arrowing.py is the one iterative loop: no recursive
    # closure, and so no recursion limit.
    tree = ast.parse((SRC / "arrowing.py").read_text())
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    nested = [inner.name for outer in ast.walk(tree) if isinstance(outer, defs)
              for inner in ast.walk(outer) if inner is not outer and isinstance(inner, defs)]
    assert nested == [], f"arrowing.py: nested function(s) {nested}"


def test_search_reads_no_spec_sizes():
    # The instance decides what the search may do: its `domains` give each
    # item's colors and its cliques, `bounds` and `symmetries` every prune,
    # so `_search` has no rule of its own keyed on the clique sizes.
    tree = ast.parse((SRC / "arrowing.py").read_text())
    search = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_search")
    lines = [node.lineno for node in ast.walk(search)
             if isinstance(node, ast.Attribute) and node.attr == "sizes"]
    assert lines == [], f"_search reads .sizes on line(s) {lines}"


def test_search_has_one_pop_and_one_cut():
    # One point where a decision prefix is exhausted (its frame is popped)
    # and one where a tried color is cut, with its cause: a refutation log
    # or a progress observer hooks each at that one place.
    tree = ast.parse((SRC / "arrowing.py").read_text())
    search = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_search")
    pops = [node.lineno for node in ast.walk(search)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop" and getattr(node.func.value, "id", None) == "frames"]
    cuts = [node.lineno for node in ast.walk(search)
            if isinstance(node, (ast.Assign, ast.AugAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Subscript)
            and ast.unparse(target.value) == "stats.prunings"]
    assert len(pops) == 1, f"_search pops frames on line(s) {pops}"
    assert len(cuts) == 1, f"_search counts prunings on line(s) {cuts}"


SEARCH_ONLY = {"by_edge", "order", "domains", "bounds", "symmetries", "mask_of"}


def names_read(tree) -> list[tuple[int, str]]:
    """(line, name) for each attribute, name and imported name in `tree`."""
    return [(node.lineno, name) for node in ast.walk(tree)
            for name in ([node.attr] if isinstance(node, ast.Attribute)
                         else [node.id] if isinstance(node, ast.Name)
                         else [a.name for a in node.names]
                         if isinstance(node, ast.ImportFrom) else [])]


def definitions(tree):
    """Each top-level function and class in `tree`, and each method of a
    top-level class that is not a dunder."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, defs)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def test_every_definition_is_named_outside_itself():
    # Only code that a command, `certify` or the benchmark runs stays in the
    # package, so each definition is named somewhere in the package or the
    # benchmark other than in its own body.
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    trees = {path: ast.parse(path.read_text())
             for path in MODULES + sorted(bench.glob("*.py"))}
    named = [(path, line, name) for path, tree in trees.items()
             for line, name in names_read(tree)]
    unnamed = [f"{path.name}:{node.lineno} {node.name}"
               for path in MODULES for node in definitions(trees[path])
               if not any(name == node.name and not (
                   where == path and node.lineno <= line <= node.end_lineno)
                   for where, line, name in named)]
    assert len(list(definitions(trees[SRC / "arrowing.py"]))) > 10
    assert unnamed == [], f"defined but never named elsewhere: {unnamed}"


def test_encoder_reads_no_search_data():
    # Encoding pays only for the instance's cliques and their item ids: the
    # search index, which holds the clique bitmasks, is built on first read,
    # and cnf.py must not be that reader.  `masks`, the bitmasks' former
    # home, stays forbidden so that it cannot come back unnoticed.
    tree = ast.parse((SRC / "cnf.py").read_text())
    read = [(line, name) for line, name in names_read(tree)
            if name in SEARCH_ONLY | {"masks"}]
    assert read == [], f"cnf.py reads search-only data: {read}"


def test_free_coloring_check_reads_no_search_data():
    # `violation` checks every witness the search returns, so it reads the
    # cliques' item ids and the colors, and shares no data with the search.
    tree = ast.parse((SRC / "arrowing.py").read_text())
    instance = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == "ArrowInstance")
    check = next(node for node in instance.body
                 if isinstance(node, ast.FunctionDef) and node.name == "violation")
    read = [(line, name) for line, name in names_read(check) if name in SEARCH_ONLY]
    assert read == [], f"ArrowInstance.violation reads search-only data: {read}"


def scopes(tree, match) -> list[str]:
    """The function holding each node in `tree` that `match` accepts, as a
    dotted path of its enclosing classes and functions."""
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    out = []
    for node in ast.walk(tree):
        if match(node):
            scope, up = [], node
            while up in parents:
                up = parents[up]
                if isinstance(up, (ast.ClassDef, ast.FunctionDef)):
                    scope.insert(0, up.name)
            out.append(".".join(scope))
    return out


def callers(tree, name: str) -> list[str]:
    """The function holding each call to `name` in `tree`."""
    return scopes(tree, lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def symmetries_of(tree):
    """The definition of `ArrowInstance.symmetries` in arrowing.py's tree."""
    instance = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == "ArrowInstance")
    return next(node for node in instance.body
                if isinstance(node, ast.FunctionDef) and node.name == "symmetries")


def test_every_automorphism_is_checked_where_the_search_takes_it():
    # `automorphism_generators` does not check its own permutations.  The
    # one place that takes them, `ArrowInstance.symmetries`, passes each
    # through `_image`, whose pass that builds the item image is the check,
    # and reads it nowhere else, so no second walk checks it again; the
    # vertex instance's `_image` runs the edge instance's.  `_maps_edges`
    # tests only the finder's own matches.
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    taken = [(module, scope) for module, tree in trees.items()
             for scope in callers(tree, "automorphism_generators")]
    assert taken == [("arrowing.py", "ArrowInstance.symmetries")]
    loops = [node for node in ast.walk(symmetries_of(trees["arrowing.py"]))
             if isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
             and getattr(node.iter.func, "id", None) == "automorphism_generators"]
    assert len(loops) == 1 and isinstance(loops[0].target, ast.Name)
    perm = loops[0].target.id
    reads = [node for node in ast.walk(loops[0]) if isinstance(node, ast.Name)
             and node.id == perm and isinstance(node.ctx, ast.Load)]
    images = [node.args[0] for node in ast.walk(loops[0]) if isinstance(node, ast.Call)
              and getattr(node.func, "attr", None) == "_image" and len(node.args) == 1]
    assert len(reads) == 1 and images == reads, \
        f"symmetries reads {perm} on line(s) {[node.lineno for node in reads]}"
    assert sorted(callers(trees["arrowing.py"], "_image")) == [
        "ArrowInstance.symmetries", "VertexInstance._image"]
    checks = [(module, scope) for module, tree in trees.items()
              for scope in callers(tree, "_maps_edges")]
    assert checks == [("graphs.py", "_match_below")]


def test_automorphisms_are_kept_as_item_pairs():
    # `symmetries` keeps each automorphism as its (e, s(e)) item pairs: the
    # search's color list says whether an item is colored, so no bitmask is
    # built per pair, by a shift or by `mask_of`.
    symmetries = symmetries_of(ast.parse((SRC / "arrowing.py").read_text()))
    shifts = [node.lineno for node in ast.walk(symmetries)
              if isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.LShift)]
    read = [line for line, name in names_read(symmetries) if name == "mask_of"]
    assert shifts == [], f"ArrowInstance.symmetries shifts on line(s) {shifts}"
    assert read == [], f"ArrowInstance.symmetries reads mask_of on line(s) {read}"


def test_search_order_reads_the_instance_cliques():
    # The instance enumerates its forbidden cliques once, on first read,
    # and the search index, `order` included, reads those; no other part of
    # arrowing.py enumerates cliques or asks for the clique number.
    tree = ast.parse((SRC / "arrowing.py").read_text())
    assert callers(tree, "enumerate_cliques") == ["ArrowInstance.cliques"]
    read = [(line, name) for line, name in names_read(tree) if name == "max_clique"]
    assert read == [], f"arrowing.py reads max_clique: {read}"


def test_edge_list_is_the_two_cliques():
    # CNF variables, witnesses and clauses index edges in one order, so the
    # canonical edge list is `enumerate_cliques` at k = 2, with no walk of
    # its own that could drift from the clique order.
    tree = ast.parse((SRC / "graphs.py").read_text())
    edges = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "edges")
    calls = [ast.unparse(node) for node in ast.walk(edges) if isinstance(node, ast.Call)]
    loops = [node.lineno for node in ast.walk(edges)
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert calls == ["enumerate_cliques(g, 2)"], calls
    assert loops == [], f"graphs.edges loops on line(s) {loops}"


def test_graphs_are_built_from_text_in_one_function():
    # Every command reads its graph through `cli.resolve_graph`, so one
    # grammar names every graph and every label it writes reads back.
    tree = ast.parse((SRC / "cli.py").read_text())
    for builder in ("join", "circulant", "complete", "cycle", "parse_graph6"):
        assert set(callers(tree, builder)) == {"resolve_graph"}, builder


def converts_with_int(call) -> bool:
    """Is `call` a call that calls `int` or hands it on as a converter
    (`map(int, ...)`, argparse's `type=int`)?  `isinstance(x, int)` is a
    type test."""
    if (not isinstance(call, ast.Call)
            or getattr(call.func, "id", None) in ("isinstance", "issubclass")):
        return False
    used = [call.func, *call.args, *(k.value for k in call.keywords)]
    return any(isinstance(u, ast.Name) and u.id == "int" for u in used)


def test_text_becomes_an_int_in_one_function():
    # `int()` also reads `+3`, `1_0` and non-ASCII digits, so text becomes
    # an int only in `arrowing.decimal`.  `int` in annotations is no call.
    found = [(path.name, scope) for path in MODULES
             for scope in scopes(ast.parse(path.read_text()), converts_with_int)]
    assert found == [("arrowing.py", "decimal")], found


def reads_ramsey(node) -> bool:
    """Does `node` read `_RAMSEY`, by name, as an attribute or by import?"""
    return (isinstance(node, ast.Name) and node.id == "_RAMSEY"
            and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr == "_RAMSEY"
            or isinstance(node, ast.ImportFrom)
            and any(alias.name == "_RAMSEY" for alias in node.names))


def test_ramsey_table_is_read_only_by_the_caps():
    # The neighborhood caps, the only prunes that use Ramsey numbers, are
    # decided in `ArrowInstance.bounds` alone, so a refutation log that must
    # tell a RUP cap from one that is not changes them in one place.
    found = [(path.name, scope) for path in MODULES
             for scope in scopes(ast.parse(path.read_text()), reads_ramsey)]
    assert found == [("arrowing.py", "ArrowInstance.bounds")], found


def test_oracles_import_only_graph_from_package():
    # The oracles check the package, so they share no code with it beyond
    # the Graph they are handed.
    path = Path(__file__).resolve().parent / "oracles.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "folkman"}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "folkman"):
            imported |= {(node.module, alias.name) for alias in node.names}
    assert {name for _, name in imported} <= {"Graph"}, imported


def top_level(tree, name: str):
    """The top-level function or class `name` in `tree`."""
    return next(node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)


@pytest.mark.parametrize("builder", ["cycle", "circulant", "parse_graph6"])
def test_graphs_from_pairs_are_built_by_from_edges(builder):
    # Pairs become adjacency rows in `Graph.from_edges` alone, which checks
    # the vertex count before it reads a pair, so no builder sets a row bit
    # itself or builds rows before that check.
    node = top_level(ast.parse((SRC / "graphs.py").read_text()), builder)
    returns = [ret for ret in ast.walk(node) if isinstance(ret, ast.Return)]
    ors = [n.lineno for n in ast.walk(node)
           if isinstance(n, ast.AugAssign) and isinstance(n.op, ast.BitOr)]
    assert len(returns) == 1 and isinstance(returns[0].value, ast.Call)
    assert ast.unparse(returns[0].value.func) == "Graph.from_edges"
    assert ors == [], f"{builder} sets bits with |= on line(s) {ors}"


def test_graph6_pair_order_is_written_once():
    # The emitter and the parser both take graph6's bit order from `_pairs`.
    tree = ast.parse((SRC / "graphs.py").read_text())
    for function in ("emit_graph6", "parse_graph6"):
        read = [name for _, name in names_read(top_level(tree, function))]
        assert "_pairs" in read, function


def test_search_budget_holds_only_its_limits():
    # `_search` reads the limits once and compares them before each color,
    # so the budget is data: no method of its own decides when to stop.
    budget = top_level(ast.parse((SRC / "arrowing.py").read_text()), "SearchBudget")
    methods = [node.name for node in budget.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert methods == ["__init__"], methods


def annotations(tree):
    """Every annotation in `tree`: of arguments, returns and annotated names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def union_members(node) -> set[str]:
    """The members of a union annotation (`A | B`, `Optional[A]`,
    `Union[A, B]`), each as its source text."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return union_members(node.left) | union_members(node.right)
    if isinstance(node, ast.Subscript) and ast.unparse(node.value) in ("Optional", "Union"):
        inner = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        members = set().union(*map(union_members, inner))
        return members | {"None"} if ast.unparse(node.value) == "Optional" else members
    return {ast.unparse(node)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_budget_may_be_none(path):
    # `SearchBudget()` is the one spelling of "no limit", so no budget is
    # annotated as possibly None.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in annotations(tree)
             if {"SearchBudget", "None"} <= union_members(node)]
    assert lines == [], f"{path.name}: a budget may be None on line(s) {lines}"


def test_search_reads_the_budget_only_through_its_limits():
    # `_search` reads `budget.max_nodes` and `budget.max_seconds` and never
    # tests the budget itself (`if budget`, `budget is None`): a budget is
    # always a `SearchBudget`, and `SearchBudget()` has no limit.
    search = top_level(ast.parse((SRC / "arrowing.py").read_text()), "_search")
    fields = {id(node.value) for node in ast.walk(search)
              if isinstance(node, ast.Attribute)
              and node.attr in ("max_nodes", "max_seconds")}
    bare = [node.lineno for node in ast.walk(search)
            if isinstance(node, ast.Name) and node.id == "budget"
            and id(node) not in fields]
    assert bare == [], f"_search reads budget itself on line(s) {bare}"
