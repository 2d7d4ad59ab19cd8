"""Core graph type and exact structural queries for graphs of order up to
``MAX_ORDER``.

A graph is stored as one Python int bitmask per vertex: bit ``j`` of row
``i`` is set iff ``ij`` is an edge. Every operation in this package is
exact; nothing here samples or approximates. ``MAX_ORDER`` is the one order
cap, checked only here: by :func:`build_graph` (before it reads an edge),
:func:`graph_from_bits` and the graph6 codec. It bounds recursion depth:
the path DFS of ``checks`` and the canonizer recurse once per vertex, and
first hit CPython's default limit between orders 900 and 1000.

graph6 follows McKay's ``formats.txt``: the order byte ``order + 63`` up to
62, above it byte 126 and the order in three 6-bit groups; then the upper
triangle read column by column, packed into 6-bit groups. So each graph has
one graph6 string: a long form of an order below 63 is rejected, and so is
the 8-byte form (orders above 258047).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

MAX_ORDER = 256
_GRAPH6_HEADER = ">>graph6<<"
_GRAPH6_BITS = {c: f"{c - 63:06b}" for c in range(63, 127)}


class GraphError(ValueError):
    """Raised for invalid graph construction or queries on unsuitable graphs."""


class Graph6Error(GraphError):
    """Malformed graph6 input; ``offset`` is the 0-based byte position at fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Edge(NamedTuple):
    """Undirected edge with endpoints normalised to ``u < v``."""

    u: int
    v: int

    @classmethod
    def of(cls, a: int, b: int) -> "Edge":
        if a == b:
            raise GraphError(f"loop at vertex {a} is not a valid edge")
        return cls(a, b) if a < b else cls(b, a)


class Graph:
    """Immutable simple undirected graph on ``order`` vertices (0-based)."""

    __slots__ = ("order", "adj", "size")

    order: int
    adj: tuple[int, ...]
    size: int

    def __init__(self, order: int, adj: tuple[int, ...]):
        # Trusted constructor: build_graph and the module's own operations
        # validate inputs; adj must already be symmetric and loop-free.
        self.order = order
        self.adj = adj
        self.size = sum(row.bit_count() for row in adj) // 2

    # -- queries ---------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def neighbors(self, v: int) -> Iterator[int]:
        row = self.adj[v]
        while row:
            low = row & -row
            yield low.bit_length() - 1
            row ^= low

    def edges(self) -> Iterator[Edge]:
        for u in range(self.order):
            row = self.adj[u] >> (u + 1)
            v = u + 1
            while row:
                if row & 1:
                    yield Edge(u, v)
                row >>= 1
                v += 1

    # -- derived graphs --------------------------------------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        _check_pair(self.order, u, v)
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.order, tuple(rows))

    def without_edge(self, u: int, v: int) -> "Graph":
        _check_pair(self.order, u, v)
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.order, tuple(rows))

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """Image under ``perm``: vertex ``v`` of self becomes ``perm[v]``."""
        perm = list(perm)
        if sorted(perm) != list(range(self.order)):
            raise GraphError("relabeling is not a permutation of the vertex set")
        rows = [0] * self.order
        for v in range(self.order):
            old = self.adj[v]
            new = 0
            while old:
                low = old & -old
                new |= 1 << perm[low.bit_length() - 1]
                old ^= low
            rows[perm[v]] = new
        return Graph(self.order, tuple(rows))

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.order == other.order
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.order, self.adj))

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, size={self.size})"


def _check_pair(order: int, u: int, v: int) -> None:
    if not (0 <= u < order and 0 <= v < order):
        raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{order - 1}")
    if u == v:
        raise GraphError(f"loop at vertex {u} is not allowed")


def _check_order(order: int) -> None:
    if not 0 <= order <= MAX_ORDER:
        raise GraphError(f"order {order} outside supported range 0..{MAX_ORDER}")


def build_graph(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph, validating order, endpoints, loops and duplicates.
    The order is checked before the first edge is read."""
    _check_order(order)
    rows = [0] * order
    for a, b in edges:
        _check_pair(order, a, b)
        if (rows[a] >> b) & 1:
            raise GraphError(f"duplicate edge ({min(a, b)}, {max(a, b)})")
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return Graph(order, tuple(rows))


# -- graph6 ---------------------------------------------------------------


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string, tolerating the standard header.

    Raises :class:`Graph6Error` with the offending byte offset for anything
    malformed: characters outside 63..126, a long-form order that is
    truncated or outside 63..``MAX_ORDER`` (at its byte 126), truncated or
    overlong payloads, or nonzero padding bits.
    """
    base = 0
    line = text
    if line.startswith(_GRAPH6_HEADER):
        base = len(_GRAPH6_HEADER)
        line = line[base:]
    line = line.rstrip("\n")
    if not line:
        raise Graph6Error("empty graph6 string", base)
    for i, ch in enumerate(line):
        code = ord(ch)
        if code < 63 or code > 126:
            raise Graph6Error(f"character {ch!r} outside graph6 range 63..126", base + i)
    n, start = ord(line[0]) - 63, 1
    if n == 63:  # the long form: the order in the next three 6-bit groups
        n, start = int(line[1:4].translate(_GRAPH6_BITS) or "0", 2), 4
        if len(line) < 4 or not 63 <= n <= MAX_ORDER:
            raise Graph6Error(f"graph6 long form needs a 3-byte order in 63..{MAX_ORDER}", base)
    need = (n * (n - 1) // 2 + 5) // 6
    body = line[start:]
    if len(body) < need:
        raise Graph6Error(
            f"truncated graph6 body: need {need} bytes for order {n}, got {len(body)}",
            base + len(line),
        )
    if len(body) > need:
        raise Graph6Error(
            f"overlong graph6 body: need {need} bytes for order {n}, got {len(body)}",
            base + start + need,
        )
    # Each byte is six bits of the column-major upper triangle, first entry
    # most significant; the last byte's low bits are padding.
    bits = int(body.translate(_GRAPH6_BITS) or "0", 2)
    pad = 6 * need - n * (n - 1) // 2
    if bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bit in graph6 body", base + start + need - 1)
    return graph_from_bits(n, bits >> pad)


def emit_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string, in the long form above order 62."""
    n = g.order
    # Bit i of ``low`` is entry i of the column-major upper triangle; graph6
    # reads entry 0 first, so the bit string is reversed.
    low = 0
    for v in range(1, n):
        low |= (g.adj[v] & ((1 << v) - 1)) << (v * (v - 1) // 2)
    return graph6_from_bits(n, int(f"{low:0{n * (n - 1) // 2}b}"[::-1], 2))


def graph6_from_bits(n: int, bits: int) -> str:
    """The graph6 string of the order-``n`` graph whose column-major upper
    triangle is the ``n(n-1)/2``-bit integer ``bits``, first entry most
    significant."""
    _check_order(n)
    head = chr(n + 63) if n < 63 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    nbits = n * (n - 1) // 2
    shift = -nbits % 6  # graph6 pads the last group at the end
    bits <<= shift
    return head + "".join(
        chr((bits >> s & 63) + 63) for s in range(nbits + shift - 6, -1, -6)
    )


def graph_from_bits(n: int, bits: int) -> Graph:
    """The order-``n`` graph whose column-major upper triangle is the
    ``n(n-1)/2``-bit integer ``bits``, first entry most significant: the
    inverse of :func:`graph6_from_bits`, and the graph of a canonical code."""
    nbits = n * (n - 1) // 2
    if not 0 <= n <= MAX_ORDER or bits < 0 or bits >> nbits:
        raise GraphError(f"{bits} is not an upper triangle of order {n}")
    # Reversed, entry i of the triangle is bit i, and column v is the v bits
    # from v(v-1)/2 on: row v's neighbours below v.
    low = int(f"{bits:0{nbits}b}"[::-1], 2)
    rows = [0] * n
    for v in range(1, n):
        col = (low >> (v * (v - 1) // 2)) & ((1 << v) - 1)
        rows[v] |= col
        while col:
            bit = col & -col
            rows[bit.bit_length() - 1] |= 1 << v
            col ^= bit
    return Graph(n, tuple(rows))


def emit_dot(g: Graph) -> str:
    """Render as Graphviz DOT with deterministic vertex and edge order."""
    lines = ["graph g {"]
    for v in range(g.order):
        lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- distances ------------------------------------------------------------


@dataclass(frozen=True)
class DistanceLayers:
    """BFS layers ``V_0 = {source}, V_1, ..., V_ecc`` from a source vertex."""

    source: int
    layers: tuple[frozenset[int], ...]

    @property
    def eccentricity(self) -> int:
        return len(self.layers) - 1

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)


def _bfs_masks(adj: tuple[int, ...], source: int) -> list[int]:
    """Layer bitmasks ``V_0 = {source}, V_1, ...`` of BFS from ``source``,
    up to the last nonempty layer. The layers are disjoint."""
    seen = frontier = 1 << source
    layers = [frontier]
    while True:
        f = frontier
        nxt = 0
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        if not frontier:
            return layers
        layers.append(frontier)
        seen |= frontier


def _spanning_masks(g: Graph, source: int) -> list[int]:
    """BFS layer bitmasks from ``source``; raises unless they reach every
    vertex."""
    if not (0 <= source < g.order):
        raise GraphError(f"source vertex {source} outside 0..{g.order - 1}")
    masks = _bfs_masks(g.adj, source)
    missing = ((1 << g.order) - 1) & ~sum(masks)
    if missing:
        v = (missing & -missing).bit_length() - 1
        raise GraphError(f"graph is disconnected: vertex {v} unreachable from {source}")
    return masks


def distance_layers(g: Graph, source: int) -> DistanceLayers:
    """Exact distance layers from ``source``; raises if any vertex is unreached."""
    layers = tuple(
        frozenset(v for v in range(g.order) if m >> v & 1)
        for m in _spanning_masks(g, source)
    )
    return DistanceLayers(source=source, layers=layers)


def eccentricity(g: Graph, source: int) -> int:
    """Largest distance from ``source``: its number of BFS layers minus one.
    Raises like :func:`distance_layers`, and builds no layer sets."""
    return len(_spanning_masks(g, source)) - 1


def is_connected(g: Graph) -> bool:
    return g.order == 0 or sum(_bfs_masks(g.adj, 0)) == (1 << g.order) - 1


def diameter(g: Graph) -> int:
    """Largest eccentricity; requires a connected graph of order >= 1."""
    if g.order == 0:
        raise GraphError("diameter of the empty graph is undefined")
    return max(eccentricity(g, v) for v in range(g.order))


def min_degree(g: Graph) -> int:
    if g.order == 0:
        raise GraphError("minimum degree of the empty graph is undefined")
    return min(row.bit_count() for row in g.adj)


# -- biconnected blocks ----------------------------------------------------


class Block(NamedTuple):
    """A block (maximal 2-connected subgraph, or a bridge) as its vertex
    bitmask; the block is the subgraph that mask induces."""

    mask: int
    bipartite: bool

    @property
    def order(self) -> int:
        return self.mask.bit_count()


def edge_blocks(g: Graph) -> dict[Edge, Block]:
    """The block of every edge: Hopcroft & Tarjan's depth-first pass, run on
    an explicit stack so that no order reaches the recursion limit.

    ``low[v]`` is the least depth that a back edge from v's DFS subtree
    reaches; a tree edge pw closes the block on top of the edge stack when
    ``low[w] >= depth[p]``. Within a block the DFS tree edges span it, so
    the block is bipartite iff each of its edges joins depths of opposite
    parity.
    """
    adj = g.adj
    depth = [-1] * g.order
    low = [0] * g.order
    parent = [-1] * g.order
    todo = list(adj)  # neighbours not yet scanned, per vertex
    pending: list[tuple[int, int]] = []  # edges of the blocks still open
    blocks: dict[Edge, Block] = {}
    for root in range(g.order):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        stack = [root]
        while stack:
            v = stack[-1]
            rest = todo[v]
            if rest:
                bit = rest & -rest
                todo[v] = rest ^ bit
                w = bit.bit_length() - 1
                if depth[w] < 0:
                    depth[w] = low[w] = depth[v] + 1
                    parent[w] = v
                    pending.append((v, w))
                    stack.append(w)
                elif depth[w] < depth[v] and w != parent[v]:
                    low[v] = min(low[v], depth[w])
                    pending.append((v, w))
                continue
            stack.pop()
            if not stack:
                break
            p = stack[-1]
            if low[v] < depth[p]:
                low[p] = min(low[p], low[v])
                continue
            mask = 0
            bipartite = True
            members = []
            while True:
                x, y = pending.pop()
                mask |= (1 << x) | (1 << y)
                bipartite = bipartite and (depth[x] ^ depth[y]) & 1 == 1
                members.append(Edge.of(x, y))
                if x == p and y == v:
                    break
            block = Block(mask, bipartite)
            for e in members:
                blocks[e] = block
    return blocks


# -- vertex connectivity ---------------------------------------------------


def _local_connectivity(g: Graph, s: int, t: int, cutoff: int) -> int:
    # Number of internally vertex-disjoint s-t paths for non-adjacent s, t,
    # computed as max flow in the split digraph (v_in -> v_out, capacity 1;
    # edge arcs have capacity 1 as well, which is equivalent here because
    # every arc is throttled by a unit vertex anyway). Stops at ``cutoff``.
    n = g.order
    succ: list[set[int]] = [set() for _ in range(2 * n)]
    for v in range(n):
        succ[2 * v].add(2 * v + 1)
    for u, v in g.edges():
        succ[2 * u + 1].add(2 * v)
        succ[2 * v + 1].add(2 * u)
    src = 2 * s + 1
    snk = 2 * t
    flow = 0
    while flow < cutoff:
        prev = {src: -1}
        queue = deque([src])
        found = False
        while queue:
            x = queue.popleft()
            if x == snk:
                found = True
                break
            for y in succ[x]:
                if y not in prev:
                    prev[y] = x
                    queue.append(y)
        if not found:
            break
        y = snk
        while y != src:
            x = prev[y]
            succ[x].discard(y)
            succ[y].add(x)
            y = x
        flow += 1
    return flow


def vertex_connectivity(g: Graph, *, cutoff: int | None = None) -> int:
    """Exact vertex connectivity via Menger: the least local connectivity
    kappa(s, t) over non-adjacent pairs, s among the first ``best`` vertices
    (after Even, SIAM J. Comput. 4(3), 1975).

    ``best`` starts at min(cutoff, minimum degree), an upper bound, and
    only falls to a local connectivity, so it never drops below
    min(kappa, cutoff). If kappa < cutoff, a minimum separator S has kappa
    vertices, so one of the kappa + 1 sources 0 .. kappa lies outside S; a
    vertex t in a component of G - S without s is not adjacent to s, and
    kappa(s, t) <= |S| = kappa. Until ``best`` has fallen to kappa it is at
    least kappa + 1, so those sources are all tried. Each source is paired
    with the vertices above it: a t below s is itself a source, and the
    pair was tried from t.

    ``cutoff`` truncates the answer from above: the return value is
    ``min(kappa, cutoff)``, which is what threshold predicates need.
    Complete graphs give ``order - 1`` by convention. Requires order >= 2.
    """
    n = g.order
    if n < 2:
        raise GraphError("vertex connectivity needs at least 2 vertices")
    if cutoff is None:
        cutoff = n - 1
    if cutoff <= 0:
        return 0
    if all(row.bit_count() == n - 1 for row in g.adj):
        return min(n - 1, cutoff)
    if not is_connected(g):
        return 0
    best = min(cutoff, min_degree(g))
    s = 0
    while s < best:
        for t in range(s + 1, n):
            if not g.has_edge(s, t):
                best = min(best, _local_connectivity(g, s, t, best))
        s += 1
    return best


def is_k_connected(g: Graph, k: int) -> bool:
    """Whether the vertex connectivity is at least ``k`` (k = 0 always holds)."""
    if k <= 0:
        return True
    if g.order < 2:
        return False
    return vertex_connectivity(g, cutoff=k) >= k
