"""Immutable small graphs with bitmask adjacency, clique machinery, graph6 I/O.

Vertices are dense indices 0..n-1; each adjacency row is an int bitmask,
which keeps every set operation a single machine word pair for n <= 128.
"""
from __future__ import annotations

from itertools import compress
from operator import itemgetter


MAX_VERTICES = 128


class GraphError(ValueError):
    """Invalid graph construction or out-of-range argument."""


class Graph:
    """Simple undirected graph; not changed after construction.

    adj[v] is the neighbor bitmask of v.  Symmetry and irreflexivity are
    enforced at construction time, so instances can be shared freely.
    Two graphs are equal, and hash alike, when their adjacency is; the
    label is a name, not part of the graph.
    """

    __slots__ = ("n", "adj", "label")

    def __init__(self, n: int, adj: tuple[int, ...], label: str = ""):
        self.n = n
        self.adj = adj
        self.label = label
        if not 1 <= self.n <= MAX_VERTICES:
            raise GraphError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise GraphError("adjacency row count does not match n")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise GraphError(f"adjacency of {v} references vertex >= {self.n}")
            if row >> v & 1:
                raise GraphError(f"loop at vertex {v}")
        for v, row in enumerate(self.adj):
            for u in bits_of(row):
                if not self.adj[u] >> v & 1:
                    raise GraphError(f"asymmetric adjacency between {v} and {u}")

    @staticmethod
    def from_edges(n: int, edge_list, label: str = "") -> "Graph":
        """The graph on n vertices whose edges are the pairs of `edge_list`,
        any iterable, in either order and listed any number of times.  Every
        builder that makes a graph from pairs calls this, and n is checked
        before the first pair is read, so a vertex count out of range costs
        no pair and no row."""
        if not 1 <= n <= MAX_VERTICES:
            raise GraphError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        adj = [0] * n
        for u, v in edge_list:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj), label)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def relabel(self, label: str) -> "Graph":
        return Graph(self.n, self.adj, label)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph({self.n}, {self.adj!r}, {self.label!r})"


def edges(g: Graph) -> list[tuple[int, int]]:
    """Canonical edge list: (u, v) with u < v, sorted lexicographically,
    which is the clique order of `enumerate_cliques` at k = 2.

    This ordering is normative downstream: CNF variable numbering and
    witness serialization both index into it.
    """
    return enumerate_cliques(g, 2)


def complete(n: int) -> Graph:
    if not 1 <= n <= MAX_VERTICES:
        raise GraphError(f"K_n needs 1 <= n <= {MAX_VERTICES}, got {n}")
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)), f"K{n}")


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"C_n needs n >= 3, got {n}")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)), f"C{n}")


def circulant(n: int, connections) -> Graph:
    offs = sorted(set(connections))
    for d in offs:
        if not 1 <= d <= n // 2:
            raise GraphError(f"circulant offset {d} outside 1..{n // 2}")
    name = f"C{n}({','.join(map(str, offs))})"
    return Graph.from_edges(n, ((i, (i + d) % n) for i in range(n) for d in offs), name)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    adj = tuple(full & ~g.adj[v] & ~(1 << v) for v in range(g.n))
    return Graph(g.n, adj)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all cross edges; g1's vertices keep indices 0..n1-1.

    The g1-before-g2 vertex order is normative: edge numbering in the CNF
    encoder depends on it.
    """
    n = g1.n + g2.n
    lo = (1 << g1.n) - 1
    hi = ((1 << n) - 1) & ~lo
    adj = [g1.adj[v] | hi for v in range(g1.n)]
    adj += [(g2.adj[v] << g1.n) | lo for v in range(g2.n)]
    name = f"{g1.label}+{g2.label}" if g1.label and g2.label else ""
    return Graph(n, tuple(adj), name)


def bits_of(mask: int):
    """Iterate set bit positions in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# --- clique machinery -------------------------------------------------------

def _greedy_color(adj, cand: int) -> list[tuple[int, int]]:
    # Sequential greedy coloring of the candidate set, lowest index first.
    # Returns (vertex, color) pairs in coloring order; the color is an upper
    # bound on the clique size among the vertices colored so far.
    out = []
    uncolored = cand
    color = 0
    while uncolored:
        color += 1
        avail = uncolored
        while avail:
            v = (avail & -avail).bit_length() - 1
            out.append((v, color))
            uncolored &= ~(1 << v)
            avail &= ~adj[v] & ~(1 << v)
    return out


def max_clique(g: Graph) -> list[int]:
    """One maximum clique, as an ascending vertex list.

    Branch and bound with a greedy-coloring bound; exact, and deterministic
    so witnesses are reproducible.  Of several maximum cliques it returns
    the first the search meets, and the search branches on the candidates
    in reverse order of a greedy coloring that takes the lowest index
    first, so a tie need not go to the smallest indices: C5 gives [3, 4]
    and 2K2 gives [2, 3].
    """
    adj = g.adj
    best: list[int] = []
    current: list[int] = []

    def expand(cand: int):
        nonlocal best
        colored = _greedy_color(adj, cand)
        for v, bound in reversed(colored):
            if len(current) + bound <= len(best):
                return
            current.append(v)
            nxt = cand & adj[v]
            if nxt:
                expand(nxt)
            elif len(current) > len(best):
                best = current.copy()
            current.pop()
            cand &= ~(1 << v)

    expand((1 << g.n) - 1)
    return sorted(best)


def has_clique(g: Graph, mask: int, k: int) -> bool:
    """Does g restricted to the vertex bitmask `mask` contain a k-clique?"""
    if k < 0:
        raise GraphError("clique size must be nonnegative")
    adj = g.adj
    stack = [(mask, k)]  # (candidates, clique vertices still needed)
    while stack:
        m, need = stack.pop()
        if m.bit_count() < need:
            continue
        if need <= 1:
            return True
        v = (m & -m).bit_length() - 1
        m &= m - 1
        stack.append((m, need))  # cliques without v, tried after those with it
        stack.append((m & adj[v], need - 1))
    return False


def enumerate_cliques(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All k-cliques as ascending tuples, in lexicographic order.

    The order is normative: CNF clause order follows it, keeping emitted
    DIMACS files reproducible byte for byte, and the 2-cliques are the
    canonical edge list (`edges`) that CNF variables and witnesses index.
    """
    if k < 1:
        raise GraphError(f"clique size must be >= 1, got {k}")
    adj = g.adj
    out: list[tuple[int, ...]] = []

    def extend(acc: list[int], cand: int, need: int):
        if need == 0:
            out.append(tuple(acc))
            return
        while cand.bit_count() >= need:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            acc.append(v)
            extend(acc, cand & adj[v], need - 1)
            acc.pop()

    extend([], (1 << g.n) - 1, k)
    return out


# --- graph6 -----------------------------------------------------------------

class Graph6Error(ValueError):
    """Malformed graph6 input."""


def _pairs(n: int):
    """The vertex pairs (u, v), u < v, in graph6's bit order: by v, then u."""
    return ((u, v) for v in range(1, n) for u in range(v))


def emit_graph6(g: Graph) -> str:
    if g.n <= 62:
        head = chr(g.n + 63)
    else:
        head = "~" + "".join(chr((g.n >> s & 63) + 63) for s in (12, 6, 0))
    bits = [g.adj[u] >> v & 1 for u, v in _pairs(g.n)]
    while len(bits) % 6:
        bits.append(0)
    body = "".join(
        chr(63 + (bits[i] << 5 | bits[i + 1] << 4 | bits[i + 2] << 3
                  | bits[i + 3] << 2 | bits[i + 4] << 1 | bits[i + 5]))
        for i in range(0, len(bits), 6)
    )
    return head + body


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"byte {ord(ch)} outside graph6 range 63..126")
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise Graph6Error("unsupported or truncated graph6 size header")
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if not 1 <= n <= MAX_VERTICES:
        raise Graph6Error(f"graph6 vertex count {n} outside 1..{MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise Graph6Error(
            f"graph6 body has {len(body)} bytes, expected {(nbits + 5) // 6} for n={n}")
    bits = []
    for ch in body:
        x = ord(ch) - 63
        bits.extend((x >> s_ & 1) for s_ in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits in graph6 body")
    return Graph.from_edges(n, compress(_pairs(n), bits))


# --- automorphisms ----------------------------------------------------------

def _twin_classes(g: Graph) -> list[list[int]]:
    """The classes of two or more mutual twins, ascending: x and y are twins
    when adj[x] - {y} == adj[y] - {x}.  Twins share their open neighborhood
    (non-adjacent twins) or their closed one (adjacent twins), and no vertex
    has twins of both kinds, so the classes are disjoint.  Swapping two
    twins is an automorphism."""
    groups: dict[tuple[int, int], list[int]] = {}
    for v, row in enumerate(g.adj):
        groups.setdefault((row, 0), []).append(v)
        groups.setdefault((row | 1 << v, 1), []).append(v)
    return sorted(vs for vs in groups.values() if len(vs) > 1)


def _maps_edges(g: Graph, perm) -> bool:
    # A permutation perm is an automorphism iff it carries every edge onto
    # an edge: it is one-to-one on vertex pairs, and there are as many edges
    # as images.  So each row's bits above the diagonal are looked up in the
    # row of its image: O(m), however many vertices perm moves.
    adj = g.adj
    for v, row in enumerate(adj):
        image = adj[perm[v]]
        row = row >> (v + 1) << (v + 1)
        while row:
            b = row & -row
            if not image >> perm[b.bit_length() - 1] & 1:
                return False
            row ^= b
    return True


def _refine(adj, cells: list[int], splitters: list[int]) -> tuple[list[int], tuple]:
    """Split the ordered cells (vertex bitmasks) by each splitter in turn:
    a cell splits into parts by its vertices' neighbor counts in the
    splitter, in ascending count, in its place, and the parts join the end
    of `splitters` (the caller's list), which grows while it is read.
    The cells come out equitable (within a cell every vertex has as many
    neighbors in each cell) when every input cell is a splitter, or when
    the input is an equitable partition with one cell cut in two and one
    part a splitter.  Returns the cells and the trace of splits, which,
    like the cells, any relabelling of the graph carries along."""
    trace = []
    for splitter in splitters:
        out = []
        for i, cell in enumerate(cells):
            if not cell & (cell - 1):
                out.append(cell)
                continue
            parts: dict[int, int] = {}
            m = cell
            while m:
                b = m & -m
                m ^= b
                k = (adj[b.bit_length() - 1] & splitter).bit_count()
                parts[k] = parts.get(k, 0) | b
            if len(parts) == 1:
                out.append(cell)
                continue
            counts = sorted(parts)
            split = [parts[k] for k in counts]
            out += split
            splitters += split
            trace.append((i, tuple((k, parts[k].bit_count()) for k in counts)))
        cells = out
    return cells, tuple(trace)


def _individualize(adj, cells: list[int], t: int, v: int) -> tuple[list[int], tuple]:
    """Split vertex v off, first, from cell t of the equitable cells and
    refine with {v} as the only splitter.  Returns the cells and the new
    node's invariant: the trace and the cell sizes."""
    split = [1 << v, cells[t] & ~(1 << v)]
    cells, trace = _refine(adj, cells[:t] + split + cells[t + 1:], [1 << v])
    return cells, (trace, tuple(c.bit_count() for c in cells))


def _target(cells: list[int], twins: list[int]) -> int | None:
    """The index of the first cell that is not a set of mutual twins (so
    not a singleton either): twins[v] is v's twin class as a mask, or v
    alone if v has no twin."""
    for t, cell in enumerate(cells):
        if cell & ~twins[(cell & -cell).bit_length() - 1]:
            return t
    return None


def _orbit(v: int, known, n: int) -> dict[int, tuple[int, ...]]:
    """v's orbit under the group that the permutations `known` generate,
    by breadth-first search from v: {x: a composition of `known` carrying
    v to x}, v first, with the identity.  A composition is `itemgetter` of
    n indices, a tuple for n >= 2 (a graph with a path has n >= 3)."""
    reach = {v: tuple(range(n))}
    queue = [v]
    for x in queue:  # grows while it is read
        for s in known:
            if s[x] not in reach:
                reach[s[x]] = itemgetter(*reach[x])(s)
                queue.append(s[x])
    return reach


def _match_below(g: Graph, path, invariants, bottom, d: int, w: int):
    """Search the subtree that individualizes w at level d of the first
    path for a node at the bottom depth whose cells, matched in order and
    in ascending vertex order to the bottom node's, give an automorphism;
    a node whose invariant differs from the path's at its depth is cut."""
    adj, k = g.adj, len(path)
    stack = [(d, path[d][0], path[d][1], w)]
    while stack:
        j, cells, t, u = stack.pop()
        cells, invariant = _individualize(adj, cells, t, u)
        if invariant != invariants[j]:
            continue
        j += 1
        if j < k:
            t = path[j][1]
            stack.extend((j, cells, t, x) for x in reversed(list(bits_of(cells[t]))))
            continue
        perm = [0] * g.n
        for a, b in zip(bottom, cells):
            for x, y in zip(bits_of(a), bits_of(b)):
                perm[x] = y
        if _maps_edges(g, perm):
            return tuple(perm)
    return None


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Vertex permutations (perm[v] = image of v): generators of Aut(G),
    then a transversal of each level of its stabilizer chain, with
    inverses.  No permutation is listed twice, the identity never, and
    the list is closed under inverses.

    Individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism, II", J. Symb. Comput. 60, 2014), iterative.  The first path
    individualizes v_0, v_1, ...: at each level the lowest vertex of the
    first non-singleton cell of the equitable partition that is not a set
    of mutual twins.  It stops once every non-singleton cell is one: all
    permutations of such cells are automorphisms, and the adjacent
    transpositions within each twin class generate them.  Then, level by
    level from the bottom, one orbit map serves level d: `_orbit` of v_d
    under the automorphisms known to fix v_0..v_{d-1} (the generators found
    so far, then the twin swaps that fix that prefix; a prefix vertex is
    the lowest left in its twin class, so the other swaps join the rest of
    the class without it).  Each vertex w of level d's target cell outside
    v_d's orbit, and outside the orbits of the vertices that failed, is
    tried by `_match_below`.  A match is one more generator, and v_d's
    orbit is mapped again; a failure's orbit holds no image of v_d.  The
    generators found at a level and below generate the stabilizer of the
    level's prefix, so at level 0 they generate Aut(G).  The final orbit
    map carries v_d to each vertex of its orbit in that stabilizer: the
    level's transversal.

    The list holds the generators found, then the twin swaps, then each
    level's transversal, from the bottom level up, each element followed
    by its inverse, less those listed before.  Each generator found at
    level d carries v_d to a vertex no earlier one reached, so it is its
    level's transversal element for that vertex, and its inverse follows;
    a twin swap is its own inverse.  K_n has no path: its list is the n-1
    adjacent transpositions.  Nothing here checks the list again:
    `_match_below` tests each match with `_maps_edges`, a twin swap is an
    automorphism by definition, and a transversal element is composed of
    automorphisms.  `ArrowInstance.symmetries`, where the search takes the
    permutations, checks every one in the pass that builds its item image
    (`ArrowInstance._image`) before it is used.
    """
    n, adj = g.n, g.adj
    twins = [1 << v for v in range(n)]
    swaps = []
    for cls in _twin_classes(g):
        mask = mask_of(cls)
        for v in cls:
            twins[v] = mask
        for a, b in zip(cls, cls[1:]):
            perm = list(range(n))
            perm[a], perm[b] = b, a
            swaps.append(tuple(perm))
    cells, _ = _refine(adj, [(1 << n) - 1], [(1 << n) - 1])
    path = []        # per level: (cells, target cell index, vertex split off)
    invariants = []  # invariants[d]: of the path's node below level d
    t = _target(cells, twins)
    while t is not None:
        v = (cells[t] & -cells[t]).bit_length() - 1
        path.append((cells, t, v))
        cells, invariant = _individualize(adj, cells, t, v)
        invariants.append(invariant)
        t = _target(cells, twins)
    bottom = cells
    found = []
    transversal = []
    for d in range(len(path) - 1, -1, -1):
        cells, t, v = path[d]
        prefix = [path[j][2] for j in range(d)]
        fixing = [s for s in swaps if all(s[x] == x for x in prefix)]
        orbit = _orbit(v, found + fixing, n)
        dead = set()  # the orbits of the candidates that failed
        for w in bits_of(cells[t]):
            if w in orbit or w in dead:
                continue
            perm = _match_below(g, path, invariants, bottom, d, w)
            if perm is None:
                dead.update(_orbit(w, found + fixing, n))
            else:
                found.append(perm)
                orbit = _orbit(v, found + fixing, n)
        for u in list(orbit.values())[1:]:  # all but v's identity
            inverse = [0] * n
            for x, y in enumerate(u):
                inverse[y] = x
            transversal += (u, tuple(inverse))
    return list(dict.fromkeys(found + swaps + transversal))  # each once, in order
