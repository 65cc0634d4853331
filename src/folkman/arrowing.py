"""Vertex and edge arrowing decisions by pruned backtracking search.

G arrows (a_1,...,a_r) on edges iff no r-coloring of E(G) avoids a
monochromatic a_i-clique in every color i, and on vertices likewise with
colorings of V(G); a coloring that does avoid them all is "free".  Both
questions are an `ArrowInstance` and are decided by one search loop,
`_search`.  It is exhaustive (a verdict of Arrows is only reported after
the whole tree is exhausted); budgets turn into an explicit BudgetExhausted
verdict, never a wrong answer.  It also propagates: an item (edge or
vertex) whose other colors would each complete a forbidden clique is
colored at once, without a decision.  And it breaks symmetry: a branch is
cut when an automorphism of G maps its partial coloring to a
lexicographically smaller one (lex-leader symmetry breaking; Crawford,
Ginsberg, Luks & Roy, KR 1996), with the automorphisms from
`graphs.automorphism_generators`: generators and a transversal of each
level of the stabilizer chain.
"""
from __future__ import annotations

import enum
import math
import sys
import time
from functools import cached_property
from itertools import combinations

from .graphs import (Graph, automorphism_generators, bits_of, edges, emit_graph6,
                     enumerate_cliques, has_clique, mask_of)


class ColoringError(ValueError):
    """Partial or out-of-range coloring."""


def decimal(text: str, what: str = "number") -> int:
    """`text` as an int: ASCII digits with optional spaces around them, and
    no more digits than `int()` converts.  `int()` alone would also take
    `+3`, `1_0` and non-ASCII digits.  The one place where the package turns
    text into an int (a source rule checks this): spec sizes, graph
    sources, the integer flags and DIMACS tokens all come here.  `what`
    names the input in the error, which gives an over-long number's digit
    count, not its text."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what}: {text!r} is not a decimal integer")
    try:
        return int(digits)
    except ValueError:  # over int()'s digit limit
        raise ValueError(f"{what}: {len(digits)} digits, too many for int()") from None


class ArrowSpec:
    """Clique sizes (a_1,...,a_r) to avoid, one per color; colors are 1-based.
    Two specs are equal, and hash alike, when their sizes are."""

    __slots__ = ("sizes",)

    def __init__(self, sizes: tuple[int, ...]):
        self.sizes = sizes
        if not 1 <= len(self.sizes) <= 4:
            raise ValueError(f"spec arity {len(self.sizes)} outside 1..4")
        if any(a < 2 for a in self.sizes):
            raise ValueError(f"all clique sizes must be >= 2, got {self.sizes}")

    @property
    def r(self) -> int:
        return len(self.sizes)

    @staticmethod
    def parse(text: str) -> "ArrowSpec":
        """The spec `text` spells: comma-separated sizes, each read by
        `decimal`."""
        return ArrowSpec(tuple(decimal(t, "spec size") for t in text.split(",")))

    def __str__(self):
        return ",".join(map(str, self.sizes))

    def __eq__(self, other):
        if not isinstance(other, ArrowSpec):
            return NotImplemented
        return self.sizes == other.sizes

    def __hash__(self):
        return hash(self.sizes)

    def __repr__(self):
        return f"ArrowSpec({self.sizes!r})"


class EdgeColoring:
    """Total color assignment on E(host), aligned to the canonical edge list."""

    __slots__ = ("host", "colors")
    kind = "edges"

    def __init__(self, host: Graph, colors: tuple[int, ...]):
        self.host = host
        self.colors = colors
        if len(self.colors) != self.host.edge_count:
            raise ColoringError(
                f"{len(self.colors)} colors for {self.host.edge_count} edges")

    def to_json_obj(self) -> list[list[int]]:
        """[u, v, color] per edge, in canonical edge order."""
        return [[u, v, c] for (u, v), c in zip(edges(self.host), self.colors)]


class VertexColoring:
    """Total color assignment on V(host)."""

    __slots__ = ("host", "colors")
    kind = "vertices"

    def __init__(self, host: Graph, colors: tuple[int, ...]):
        self.host = host
        self.colors = colors
        if len(self.colors) != self.host.n:
            raise ColoringError(f"{len(self.colors)} colors for {self.host.n} vertices")

    def to_json_obj(self) -> list[int]:
        """The color of each vertex, by index."""
        return list(self.colors)


class Verdict(enum.Enum):
    ARROWS = "arrows"
    FREE_COLORING = "free-coloring"
    BUDGET_EXHAUSTED = "budget-exhausted"


class SearchStats:
    """`nodes`: colors tried at decisions, what a node budget bounds; a
    decision tries only the colors in its item's domain
    (`ArrowInstance.domains`, narrowed by propagation).
    `propagations`: items (edges or vertices) colored by propagation.
    `generators`: automorphisms the symmetry test compared with, the
    entries of `ArrowInstance.symmetries`: the generators of Aut(G) and a
    transversal of each level of its stabilizer chain, with inverses, that
    move some item, each with a distinct action on the items.
    `prunings`: tried colors cut, by cause ("clique", "neighborhood",
    "symmetry").
    `setup_seconds`: building the instance's views that the search reads
    (forbidden cliques, `by_edge`, `order`, `domains`, `symmetries`);
    `seconds`: the search loop after it."""

    __slots__ = ("nodes", "propagations", "generators", "prunings",
                 "setup_seconds", "seconds")

    def __init__(self):
        self.nodes = 0
        self.propagations = 0
        self.generators = 0
        self.prunings: dict[str, int] = {}
        self.setup_seconds = 0.0
        self.seconds = 0.0

    def to_json_obj(self) -> dict:
        return {"nodes": self.nodes, "propagations": self.propagations,
                "generators": self.generators, "prunings": self.prunings,
                "setup_seconds": round(self.setup_seconds, 3),
                "seconds": round(self.seconds, 3)}


class SearchBudget:
    """The limits of one search: it tries at most `max_nodes` nodes, and
    tries no node once `max_seconds` have passed since its loop started.
    `_search` compares both before each color it tries, so a search stops
    within one node of its deadline.  None means no limit."""

    __slots__ = ("max_nodes", "max_seconds")

    def __init__(self, max_nodes: int | None = None, max_seconds: float | None = None):
        self.max_nodes = max_nodes
        self.max_seconds = max_seconds
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.max_seconds is not None and not (math.isfinite(self.max_seconds)
                                                 and self.max_seconds > 0):
            raise ValueError(f"max_seconds must be positive and finite, "
                             f"got {self.max_seconds}")


class SearchOutcome:
    """The verdict of one search and the instance it decided: `search` is
    the `kind` of the colorings searched, "edges" or "vertices"."""

    __slots__ = ("verdict", "witness", "stats", "graph", "spec", "search")

    def __init__(self, verdict: Verdict, witness: EdgeColoring | VertexColoring | None,
                 stats: SearchStats, graph: Graph, spec: ArrowSpec, search: str):
        self.verdict = verdict
        self.witness = witness
        self.stats = stats
        self.graph = graph
        self.spec = spec
        self.search = search

    def to_json_obj(self) -> dict:
        """The run record `arrows --evidence-out` writes: a log of the run.
        `bounds.bound_certificate` does not accept it as evidence."""
        return {
            "schema": "folkman-arrows-run/2",
            "graph6": emit_graph6(self.graph),
            "label": self.graph.label,
            "spec": list(self.spec.sizes),
            "search": self.search,
            "verdict": self.verdict.value,
            "stats": self.stats.to_json_obj(),
        }


# --- the constraint core of an arrowing instance -----------------------------

# Classical two-color Ramsey numbers R(s, t), s <= t, for the caps in
# `ArrowInstance.bounds`.
_RAMSEY = {(3, 3): 6, (3, 4): 9, (3, 5): 14, (3, 6): 18, (4, 4): 18}


class ArrowInstance:
    """The constraints of one edge-arrowing question G -> (a_1,...,a_r).

    Built once per (graph, spec) and read by the search, the free-coloring
    check, the CNF encoder and the model decoder.  An item is what gets
    colored: here an edge; `VertexInstance` asks the question of vertices.
    `items` lists them, here the canonical edge list `edges(g)`, and an item
    id is an index into it.  `cliques[i]` holds every forbidden clique of
    color i+1 once, as the ascending tuple of its item ids, in the
    lexicographic order of the cliques' vertex tuples; that order fixes the
    CNF clause order and which violation is reported first.  Colors with
    equal clique sizes share one list, built once.  A clique's
    vertices are not kept: `violation` works them out from `items` for the
    one clique it reports.  `coloring` is the class of its colorings.

    The instance holds only `g` and `spec`; every view of them is built on
    first read and kept.  `items` and `cliques` serve every reader.  The
    search-only data `by_edge` (which holds the cliques' item bitmasks),
    `order`, `domains`, `bounds` and `symmetries` are read by the search
    alone, so encoding and the free-coloring check (`violation`, which
    reads the cliques' item ids) never pay for them.
    """

    coloring = EdgeColoring

    def __init__(self, g: Graph, spec: ArrowSpec):
        self.g = g
        self.spec = spec

    @cached_property
    def items(self) -> list[tuple[int, int]]:
        return self._edges

    @cached_property
    def cliques(self) -> tuple[list[tuple[int, ...]], ...]:
        lists = {a: self._ids(enumerate_cliques(self.g, a)) for a in set(self.spec.sizes)}
        return tuple(lists[a] for a in self.spec.sizes)

    @cached_property
    def _edges(self) -> list[tuple[int, int]]:
        # The canonical edge list: the items here, and what `_image` checks
        # a vertex permutation on for either kind of instance.
        return edges(self.g)

    @cached_property
    def _edge_ids(self) -> list[list[int]]:
        # The n x n edge-id table: row u holds the id of edge {u, v} at
        # column v, and -1 where u and v are not adjacent.
        n = self.g.n
        rows = [[-1] * n for _ in range(n)]
        for e, (u, v) in enumerate(self._edges):
            rows[u][v] = rows[v][u] = e
        return rows

    def _ids(self, cliques) -> list[tuple[int, ...]]:
        # Each clique's edge ids, from its ascending vertex tuple.  The pairs
        # of such a tuple come out in lexicographic order, hence in
        # ascending edge id.
        rows = self._edge_ids
        return [tuple([rows[u][v] for u, v in combinations(c, 2)]) for c in cliques]

    def _vertices(self, ids) -> tuple[int, ...]:
        # The clique whose edge ids are `ids`: their endpoints, ascending.
        return tuple(sorted({v for e in ids for v in self.items[e]}))

    @cached_property
    def by_edge(self) -> tuple[list[list[int]], ...]:
        """by_edge[i][e]: the item bitmask of each color-(i+1) clique
        containing item e, in clique order; a clique's one int is shared by
        all of its items.  Coloring e with color i+1 completes the clique
        iff all of its other items already have that color; the search's
        propagation looks here for cliques left one uncolored item short.
        Colors with equal clique sizes share one list, as they share
        `cliques`; these lists are static, so per-color search state (such
        as watched items) must not live in them."""
        shared: dict[int, list[list[int]]] = {}
        for a, constraints in zip(self.spec.sizes, self.cliques):
            if a in shared:
                continue
            per_item: list[list[int]] = [[] for _ in self.items]
            for ids in constraints:
                mask = mask_of(ids)
                for e in ids:
                    per_item[e].append(mask)
            shared[a] = per_item
        return tuple(shared[a] for a in self.spec.sizes)

    @cached_property
    def order(self) -> list[int]:
        """Static search order: edges in the most forbidden cliques first,
        ties in lexicographic order, so monochromatic-clique constraints
        complete as early as possible.  An edge's count is the summed
        length of its `by_edge` lists, one per color, so a list that colors
        with equal sizes share counts once per color."""
        count = [sum(map(len, lists)) for lists in zip(*self.by_edge)]
        return sorted(range(len(self.items)), key=lambda e: -count[e])

    @cached_property
    def domains(self) -> tuple[int, ...]:
        """Initial color domains: domains[e] has bit c set for each color c
        that item e may take, and a search decision on e tries exactly
        these colors, ascending.  Color c is left out of every item's
        domain when color c's cliques are single items (a_c = 2 on edges:
        each edge alone is a forbidden clique).  When all forbidden
        sizes are equal the colors are interchangeable, so `order[0]` keeps
        only its lowest color: the lexicographically first free coloring
        has it, which cuts the tree by a factor r and loses no verdict.

        An override (a cube: some items pinned) decides the colorings of
        those domains only.  It is sound with the lex-leader cut only if
        every automorphism in `symmetries` maps each item's domain onto its
        image's, so the colorings searched are closed under them: dom[e] ==
        dom[f] for each of its pairs (e, f), which list every item it
        moves.  Otherwise `symmetries` must be restricted to the
        automorphisms that pass this filter."""
        colors = (1 << (self.spec.r + 1)) - 2
        for c, constraints in enumerate(self.cliques, start=1):
            if constraints and len(constraints[0]) == 1:  # then each item is one
                colors &= ~(1 << c)
        dom = [colors] * len(self.items)
        if len(set(self.spec.sizes)) == 1 and dom:
            first = self.order[0]
            dom[first] &= -dom[first]  # its lowest color
        return tuple(dom)

    @cached_property
    def bounds(self) -> tuple[int, int] | None:
        """Per-color caps on the clique number of a vertex's same-color
        neighborhood that any free 2-coloring obeys: R(a_1-1, a_2) - 1 for
        color 1 and R(a_1, a_2-1) - 1 for color 2.

        A clique of size R(a_1-1, a_2) inside v's color-1 neighborhood forces
        a monochromatic clique no matter how its edges end up colored (a
        color-1 edge closes an a_1-clique through v; otherwise the clique is
        a color-2 a_2-clique), and symmetrically for color 2.  R is symmetric,
        R(1, t) = 1 and R(2, t) = t; other values come from `_RAMSEY`.  None,
        and no neighborhood test in the search, unless the spec has exactly 2
        colors and `_RAMSEY` holds every value needed."""
        if self.spec.r != 2:
            return None
        a1, a2 = self.spec.sizes
        caps = []
        for s, t in sorted((a1 - 1, a2)), sorted((a1, a2 - 1)):
            ramsey = 1 if s == 1 else t if s == 2 else _RAMSEY.get((s, t))
            if ramsey is None:
                return None
            caps.append(ramsey - 1)
        return tuple(caps)

    def _image(self, perm) -> tuple[int, ...]:
        # The image of each item under the vertex permutation perm, and the
        # check that perm is an automorphism: a permutation of 0..n-1 (so
        # no entry indexes a row from its end) under which no edge's image
        # is -1, a non-edge.  Such a map is one-to-one on vertex pairs, so
        # it maps the edges onto the edges.
        rows = self._edge_ids
        if sorted(perm) == list(range(self.g.n)):
            image = tuple([rows[perm[u]][perm[v]] for u, v in self._edges])
            if -1 not in image:
                return image
        raise RuntimeError(f"not an automorphism of the graph: {perm}")

    @cached_property
    def symmetries(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per automorphism s of `automorphism_generators(g)`, the items e
        that s moves, listed along `order`, as the pairs (e, s(e)) that the
        search reads: s's action on the items, identity elsewhere.  Each
        permutation passes through `_image`, which checks that it is an
        automorphism in the pass that builds its item image, before the
        search can use it.  Automorphisms that move no item, or move them
        as an earlier one does, are left out."""
        out = {}  # keyed by the pairs, in first-seen order
        for perm in automorphism_generators(self.g):
            image = self._image(perm)
            pairs = tuple([(e, image[e]) for e in self.order if image[e] != e])
            if pairs:
                out[pairs] = None
        return tuple(out)

    def violation(self, colors) -> tuple[int, tuple[int, ...]] | None:
        """The first (color, clique) whose items all carry that color under
        the total coloring `colors` (aligned to `items`), or None if free;
        the clique is its ascending vertex tuple.  It compares each clique's
        item ids with the colors, reads none of the search's data, and
        works out the vertices only of the clique it reports."""
        for i, constraints in enumerate(self.cliques, start=1):
            for ids in constraints:
                for e in ids:
                    if colors[e] != i:
                        break
                else:
                    return i, self._vertices(ids)
        return None


class VertexInstance(ArrowInstance):
    """The vertex-arrowing question: the items are the vertices 0..n-1, so
    a clique's item ids are its own vertices, and `cliques` holds the
    tuples `enumerate_cliques` returns.  The neighborhood caps are about
    edge colorings, so `bounds` is None."""

    coloring = VertexColoring
    bounds = None

    @cached_property
    def items(self) -> range:
        return range(self.g.n)

    def _ids(self, cliques) -> list[tuple[int, ...]]:
        return cliques

    _vertices = _ids  # a vertex clique's item ids are its vertices

    def _image(self, perm) -> tuple[int, ...]:
        # The edge instance's check, on the edge image; the vertex items'
        # image is perm itself.
        super()._image(perm)
        return perm

    @cached_property
    def order(self) -> list[int]:
        """Static search order: descending degree, ties by index."""
        return sorted(range(self.g.n), key=lambda v: (-self.g.adj[v].bit_count(), v))


# --- free-coloring verification ---------------------------------------------

def is_free_edge_coloring(g: Graph, spec: ArrowSpec, c: EdgeColoring):
    """(True, None) if no color class contains all edges of a forbidden
    clique, else (False, (color, clique)) for the first such clique in
    color, then lexicographic, order."""
    if c.kind != "edges":
        raise ColoringError(f"a coloring of {c.kind}, not of edges")
    if c.host is not g and c.host != g:
        raise ColoringError("coloring belongs to a different graph")
    for color in c.colors:
        if not 1 <= color <= spec.r:
            raise ColoringError(f"color {color} outside 1..{spec.r}")
    violation = ArrowInstance(g, spec).violation(c.colors)
    return violation is None, violation


# --- the search --------------------------------------------------------------

def _search(inst: ArrowInstance, budget: SearchBudget | None,
            progress_every: int = 0) -> SearchOutcome:
    """Backtracking over colorings of `inst.items` with unit propagation;
    both the vertex and the edge search are this loop.  Every item's
    initial colors and every prune it makes are read from `inst`: the
    `domains`, the forbidden cliques, the neighborhood `bounds` and the
    `symmetries`.

    Decisions take the items in `inst.order` and skip an item that
    propagation has already colored.  `dom[e]` is the bitmask of colors an
    uncolored item e may still take (bit c for color c); it starts as
    `inst.domains[e]`, and a decision on e tries the colors left in it,
    ascending, and no other.  `col[e]` is e's color while e is colored, by
    a decision or by propagation, and 0 while it is not: a restore sets it
    back to 0 for each item colored since the frame was made, so it alone
    answers "is e colored?" in the symmetry test and in the descent to the
    next decision.  Giving an item color c visits every forbidden
    color-c clique through it, reading the clique's whole item bitmask from
    `inst.by_edge` (the item itself has color c, so it is neither of
    another color nor uncolored): once all items of such a clique but one
    uncolored item f have color c, c leaves f's domain.  An empty domain is
    a conflict; a single color left forces f to it at once, and forcing
    cascades within the same decision.  With `inst.bounds` set (edge
    searches, 2 colors), every edge assignment, decided or forced, also
    passes the neighborhood test when its cliques are visited.  Propagation
    only cuts subtrees that hold no free coloring.

    After propagation succeeds, each automorphism s of `inst.symmetries`,
    held as its pairs (e, s(e)), is compared: with c the partial coloring
    and s(c) the coloring that reads c(s(e)) at each item e, a node is cut,
    for cause "symmetry", when at the first pair along `inst.order` where c
    and s(c) differ both items are colored (col[e] and col[s(e)] nonzero)
    and s(c) is smaller there: col[s(e)] < col[e].  Every
    completion of c is then larger than its image, so none is the
    lexicographically first free coloring, which is the least in its orbit.
    This holds for any set of automorphisms, so `inst.symmetries` may hold
    more than generators.  A frame keeps, per automorphism still active on
    its branch, how many of its items are known equal to their images; an
    automorphism whose image is found larger is dropped for the subtree.
    So the first free coloring found is still the lexicographically first
    in `inst.order`, and the verdict is that of the full tree.

    One loop runs over a stack of frames, one per decision; the root frame,
    on `order[0]`, is made before it, and with no items there is none, so
    the empty coloring is free.  Each pass takes the innermost frame.  With
    no color above the one last tried left in its item's domain, the
    decision prefix is exhausted: the frame is popped, and the next pass
    restores from the frame below.  Otherwise the pass restores what the
    previous color assigned, tries the next color, propagates it and
    compares the automorphisms; a color that either step cuts is counted,
    by its cause, at one place.  A color that passes descends: the next
    uncolored item along `order` gets a frame, and past the end of `order`
    every item is colored and the coloring is free.  A frame holds its
    depth, the color last tried there (the next is the least color above
    it in the item's domain) and what to restore before the next color:
    the color masks, the colored neighborhoods, the assigned-item mask
    (the items colored since get col 0 again), the length of `trail`, which
    records (item, old domain) for each domain change that leaves a choice
    (only possible with three or more colors), and the active automorphisms
    with their positions.  The witness is `col` itself.

    `nodes` counts colors tried at decisions; each is either pruned, for
    one cause, or entered, and a color outside the item's domain is neither
    tried nor counted.  The budget is read once, as a node limit and a
    deadline (the loop's start plus `max_seconds`), and both are compared
    before each color is tried, so a node budget of N tries N and a search
    stops within one node of its deadline; the clock is read there only
    when a deadline is set.  `propagations` counts forced
    assignments.  With `progress_every` N > 0 a progress line goes to
    standard error every N nodes.  A free coloring found is checked against
    the instance before it is returned, by `inst.violation`, which reads the
    cliques' item ids and none of the bitmasks the search read.

    `stats.setup_seconds` runs from the call to the start of the loop, so
    it covers every view of `inst` first read there: a fresh instance's
    clique enumeration, `by_edge`, `order`, `domains` and `symmetries`;
    `stats.seconds` and the time budget cover the loop."""
    setup_start = time.monotonic()
    if progress_every < 0:
        raise ValueError(f"progress interval must be >= 0, got {progress_every}")
    g, spec = inst.g, inst.spec
    elist, order, bounds = inst.items, inst.order, inst.bounds
    by_edge = (None,) + inst.by_edge  # indexed by color
    adj, n, m, r = g.adj, g.n, len(elist), spec.r

    dom = list(inst.domains)
    col = [0] * m  # col[e]: item e's color, 0 while e is uncolored
    # Each automorphism still active on this branch, as its pairs (e, s(e))
    # along `order`, and how many of them are known to be equal.
    sym = [(pairs, 0) for pairs in inst.symmetries]
    assigned = 0
    color_mask = [0] * (r + 1)
    nbr = [0] * ((r + 1) * n)  # nbr[c * n + u]: u's neighbors by color-c edges
    trail: list[tuple[int, int]] = []
    # The root decision, on order[0]; with no items there is none.
    frames = [[0, 0, tuple(color_mask), tuple(nbr), assigned, 0, sym]] if m else []
    stats = SearchStats()
    nodes = propagations = 0
    start = time.monotonic()
    max_nodes, seconds = (budget.max_nodes, budget.max_seconds) if budget else (None, None)
    deadline = None if seconds is None else start + seconds
    verdict = Verdict.ARROWS if m else Verdict.FREE_COLORING
    while frames:  # try the next color at the innermost decision
        frame = frames[-1]
        depth, c, saved_masks, saved_nbr, saved_assigned, mark, saved_sym = frame
        eid = order[depth]
        # eid stays colored below this frame, so propagation has not
        # narrowed its domain: dom[eid] is read before the restore.
        left = dom[eid] >> (c + 1)  # the colors above c in eid's domain
        if not left:
            frames.pop()  # exhausted: the frame below restores the state
            continue
        if c:  # undo what the previous color assigned
            color_mask[:] = saved_masks
            nbr[:] = saved_nbr
            for e in bits_of(assigned & ~saved_assigned):
                col[e] = 0
            assigned = saved_assigned
            while len(trail) > mark:
                e, old = trail.pop()
                dom[e] = old
        if (max_nodes is not None and nodes >= max_nodes
                or deadline is not None and time.monotonic() > deadline):
            verdict = Verdict.BUDGET_EXHAUSTED
            break
        c += (left & -left).bit_length()
        frame[1] = c
        nodes += 1
        if progress_every and nodes % progress_every == 0:
            print(f"progress nodes={nodes} depth={depth}",
                  *(f"prunings.{cause}={count}"
                    for cause, count in sorted(stats.prunings.items())),
                  file=sys.stderr)
        assigned |= 1 << eid
        color_mask[c] |= 1 << eid
        col[eid] = c
        cause = None
        queue = [(eid, c)]
        for f, d in queue:  # grows while it is read
            if bounds is not None:
                # Each earlier assignment passed this test, so a new
                # (b+1)-clique in u's color-d neighborhood contains v.
                u, v = elist[f]
                b = bounds[d - 1]
                x = nbr[d * n + u] & adj[v]
                y = nbr[d * n + v] & adj[u]
                if ((x.bit_count() >= b and has_clique(g, x, b))
                        or (y.bit_count() >= b and has_clique(g, y, b))):
                    cause = "neighborhood"
                    break
                nbr[d * n + u] |= 1 << v
                nbr[d * n + v] |= 1 << u
            other = assigned & ~color_mask[d]  # items of another color
            free = ~assigned
            dbit = 1 << d
            for mask in by_edge[d][f]:
                if mask & other:
                    continue
                miss = mask & free  # the clique's items not colored yet
                if miss & (miss - 1):
                    continue
                if not miss:  # all colored d: two forced items closed it
                    cause = "clique"
                    break
                h = miss.bit_length() - 1
                left = dom[h] & ~dbit
                if left & (left - 1):  # a choice is left (r >= 3)
                    if left != dom[h]:
                        trail.append((h, dom[h]))
                        dom[h] = left
                    continue
                if not left:
                    cause = "clique"
                    break
                k = left.bit_length() - 1
                assigned |= miss
                color_mask[k] |= miss
                col[h] = k
                other |= miss
                propagations += 1
                queue.append((h, k))
            if cause:
                break
        if not cause:
            sym = []
            for entry in saved_sym:
                pairs, pos = entry
                e, f = pairs[pos]
                while col[e] and col[f]:  # both colored
                    if col[e] != col[f]:  # the first difference
                        if col[f] < col[e]:  # the image is smaller
                            cause = "symmetry"
                        break  # else larger: drop s for the subtree
                    pos += 1
                    if pos == len(pairs):  # equal on every item s moves
                        break
                    e, f = pairs[pos]
                else:
                    sym.append(entry if pos == entry[1] else (pairs, pos))
                if cause:
                    break
        if cause:  # the one cut: the color tried here is pruned
            stats.prunings[cause] = stats.prunings.get(cause, 0) + 1
            continue
        while depth < m and col[order[depth]]:
            depth += 1  # descend to the next uncolored item
        if depth == m:
            verdict = Verdict.FREE_COLORING
            break
        frames.append([depth, 0, tuple(color_mask), tuple(nbr), assigned, len(trail),
                       sym])
    stats.nodes = nodes
    stats.propagations = propagations
    stats.generators = len(inst.symmetries)
    stats.setup_seconds = start - setup_start
    stats.seconds = time.monotonic() - start
    if verdict is not Verdict.FREE_COLORING:
        return SearchOutcome(verdict, None, stats, g, spec, inst.coloring.kind)
    colors = tuple(col)
    if inst.violation(colors) is not None:
        raise RuntimeError("search produced a non-free witness")
    return SearchOutcome(verdict, inst.coloring(g, colors), stats, g, spec,
                         inst.coloring.kind)


def arrows_vertices(g: Graph, spec: ArrowSpec, budget: SearchBudget | None = None,
                    progress_every: int = 0) -> SearchOutcome:
    """Exhaustive backtracking over vertex colorings, with unit propagation.

    Decides the vertices in descending-degree order (ties by index), colors
    ascending.  A branch dies when a vertex completes a monochromatic
    forbidden clique or is left with no color; a vertex left with a single
    color is forced to it, and a branch that an automorphism maps to a
    smaller coloring is cut.  A free coloring returned is the
    lexicographically first in that order.  With `progress_every` N > 0, a
    progress line goes to standard error every N nodes.
    """
    return _search(VertexInstance(g, spec), budget, progress_every)


def arrows_edges(g: Graph, spec: ArrowSpec, budget: SearchBudget | None = None,
                 progress_every: int = 0) -> SearchOutcome:
    """Exhaustive pruned backtracking over edge colorings, with unit
    propagation.

    Decides the uncolored edges one at a time in a static order, colors
    ascending.  An edge left with a single color that completes no
    monochromatic forbidden clique is forced to it without a decision.  A
    branch is pruned when it completes such a clique or (for 2-color specs)
    when a vertex's same-color neighborhood contains a clique beyond the
    Ramsey-derived cap, or when an automorphism of G maps its partial
    coloring to a smaller one.  A free coloring returned is the
    lexicographically first in that order.  Runs in one process and is
    fully deterministic.  With `progress_every` N > 0, a progress line goes
    to standard error every N nodes.
    """
    return _search(ArrowInstance(g, spec), budget, progress_every)
