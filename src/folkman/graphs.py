"""Immutable small graphs with bitmask adjacency, clique machinery, graph6 I/O.

Vertices are dense indices 0..n-1; each adjacency row is an int bitmask,
which keeps every set operation a single machine word pair for n <= 128.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

MAX_VERTICES = 128


class GraphError(ValueError):
    """Invalid graph construction or out-of-range argument."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; immutable after construction.

    adj[v] is the neighbor bitmask of v.  Symmetry and irreflexivity are
    enforced at construction time, so instances can be shared freely.
    """

    n: int
    adj: tuple[int, ...]
    label: str = ""

    def __post_init__(self):
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
            m = row
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if not self.adj[u] >> v & 1:
                    raise GraphError(f"asymmetric adjacency between {v} and {u}")

    @staticmethod
    def from_edges(n: int, edge_list, label: str = "") -> "Graph":
        adj = [0] * n
        for u, v in edge_list:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj), label)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

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


def edges(g: Graph) -> list[tuple[int, int]]:
    """Canonical edge list: (u, v) with u < v, sorted lexicographically.

    This ordering is normative downstream: CNF variable numbering and
    witness serialization both index into it.
    """
    out = []
    for u in range(g.n):
        m = g.adj[u] >> (u + 1) << (u + 1)
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            out.append((u, v))
    return out


def complete(n: int) -> Graph:
    if not 1 <= n <= MAX_VERTICES:
        raise GraphError(f"K_n needs 1 <= n <= {MAX_VERTICES}, got {n}")
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)), f"K{n}")


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"C_n needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)], f"C{n}")


def circulant(n: int, connections) -> Graph:
    offs = sorted(set(connections))
    for d in offs:
        if not 1 <= d <= n // 2:
            raise GraphError(f"circulant offset {d} outside 1..{n // 2}")
    e = set()
    for i in range(n):
        for d in offs:
            e.add(tuple(sorted((i, (i + d) % n))))
    name = f"C{n}({','.join(map(str, offs))})"
    return Graph.from_edges(n, e, name)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    adj = tuple(full & ~g.adj[v] & ~(1 << v) for v in range(g.n))
    return Graph(g.n, adj, f"~{g.label}" if g.label else "")


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all cross edges; g1's vertices keep indices 0..n1-1.

    The g1-before-g2 vertex order is normative: edge numbering in the CNF
    encoder depends on it.
    """
    n = g1.n + g2.n
    if n > MAX_VERTICES:
        raise GraphError(f"join has {n} vertices, exceeds {MAX_VERTICES}")
    lo = (1 << g1.n) - 1
    hi = ((1 << n) - 1) & ~lo
    adj = [g1.adj[v] | hi for v in range(g1.n)]
    adj += [(g2.adj[v] << g1.n) | lo for v in range(g2.n)]
    name = f"{g1.label}+{g2.label}" if g1.label and g2.label else ""
    return Graph(n, tuple(adj), name)


def induced(g: Graph, members) -> Graph:
    """Subgraph induced by `members`, relabeled 0..k-1 in ascending original order."""
    vs = sorted(set(members))
    if not vs:
        raise GraphError("induced subgraph needs at least one vertex")
    if vs[0] < 0 or vs[-1] >= g.n:
        raise GraphError(f"vertex set {vs} out of range for n={g.n}")
    index = {v: i for i, v in enumerate(vs)}
    adj = [0] * len(vs)
    for v in vs:
        m = g.adj[v]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            if u in index:
                adj[index[v]] |= 1 << index[u]
    return Graph(len(vs), tuple(adj))


def neighborhood(g: Graph, v: int) -> frozenset[int]:
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range for n={g.n}")
    return frozenset(bits_of(g.adj[v]))


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
    (ties broken by smallest vertex index) so witnesses are reproducible.
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


def clique_number(g: Graph) -> int:
    return len(max_clique(g))


def max_independent_set(g: Graph) -> list[int]:
    return max_clique(complement(g))


def independence_number(g: Graph) -> int:
    return len(max_independent_set(g))


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
    DIMACS files reproducible byte for byte.
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


def emit_graph6(g: Graph) -> str:
    if g.n <= 62:
        head = chr(g.n + 63)
    else:
        head = "~" + "".join(chr((g.n >> s & 63) + 63) for s in (12, 6, 0))
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(g.adj[u] >> v & 1)
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
    adj = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            i += 1
    return Graph(n, tuple(adj))
