"""Constructors for the graph families the toolkit studies.

Vertices are 0-based integers everywhere. Families whose structure has
named parts (rim/spoke vertices, fan centres, block shares) also return a
label map from conventional names like ``v1`` or ``u3`` to vertex indices,
so the CLI's ``--labels`` line and the property batteries can point at the
right vertices. Vertex numbering inside each constructor is fixed and
documented inline. A constructor checks only the least order or k it
needs; :func:`build_graph` checks the order cap before it reads an edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

from .graphs import Edge, Graph, GraphError, build_graph


class Labeled(NamedTuple):
    """A constructed graph together with its name-to-vertex map."""

    graph: Graph
    labels: dict[str, int]


# -- basic families ----------------------------------------------------------


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs order >= 3, got {n}")
    return build_graph(n, ((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"path needs order >= 1, got {n}")
    return build_graph(n, ((i, i + 1) for i in range(n - 1)))


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"complete graph needs order >= 1, got {n}")
    return build_graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def empty(n: int) -> Graph:
    if n < 0:
        raise GraphError(f"empty graph needs order >= 0, got {n}")
    return build_graph(n, [])


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two parts (g first)."""
    return sequential_join([g, h])


def sequential_join(parts: list[Graph]) -> Graph:
    """Join of consecutive parts: part i is fully joined to part i + 1 only."""
    if not parts:
        raise GraphError("sequential join needs at least one part")
    total = sum(p.order for p in parts)
    edges = []
    offset = 0
    offsets = []
    for p in parts:
        offsets.append(offset)
        edges += [(u + offset, v + offset) for u, v in p.edges()]
        offset += p.order
    for i in range(len(parts) - 1):
        a, b = offsets[i], offsets[i + 1]
        edges += [
            (a + u, b + v)
            for u in range(parts[i].order)
            for v in range(parts[i + 1].order)
        ]
    return build_graph(total, edges)


def wheel(n: int) -> Graph:
    """Hub joined to an (n-1)-cycle; vertex 0 is the hub."""
    if n < 4:
        raise GraphError(f"wheel needs order >= 4, got {n}")
    rim = ((v, v % (n - 1) + 1) for v in range(1, n))
    return build_graph(n, chain(((0, v) for v in range(1, n)), rim))


def fan(n: int) -> Graph:
    """Hub joined to an (n-1)-path; vertex 0 is the hub."""
    if n < 2:
        raise GraphError(f"fan needs order >= 2, got {n}")
    spine = ((v, v + 1) for v in range(1, n - 1))
    return build_graph(n, chain(((0, v) for v in range(1, n)), spine))


# -- the extremal families ----------------------------------------------------


def a_graph(n: int) -> Labeled:
    """Rim cycle v1..vq (q = n/2) with a private triangle vertex on each rim
    edge: ui adjacent to vi and v(i+1). Order n, size 3n/2.

    Numbering: vi -> i - 1 for 1 <= i <= q, ui -> q + i - 1.
    """
    if n < 8 or n % 2:
        raise GraphError(f"this family needs even order >= 8, got {n}")
    q = n // 2
    edges = []
    labels = {}
    for i in range(q):
        labels[f"v{i + 1}"] = i
        labels[f"u{i + 1}"] = q + i
        edges.append((i, (i + 1) % q))
        edges.append((q + i, i))
        edges.append((q + i, (i + 1) % q))
    return Labeled(build_graph(n, edges), labels)


def odd_extremal(kind: str, n: int) -> Labeled:
    """The three odd-order extremal graphs, each the even family on n - 1
    vertices plus one more vertex; size (3n + 1) / 2.

    kind "F": new vertex x adjacent to v1 and v2.
    kind "G": new vertex y adjacent to u1 and v1.
    kind "H": rim edge v1v2 subdivided by z, plus the edge z-u1.
    """
    if n < 9 or n % 2 == 0:
        raise GraphError(f"this family needs odd order >= 9, got {n}")
    if kind not in ("F", "G", "H"):
        raise GraphError(f"kind must be F, G or H, got {kind!r}")
    base = a_graph(n - 1)
    labels = dict(base.labels)
    v1, v2, u1 = labels["v1"], labels["v2"], labels["u1"]
    extra = n - 1
    edges = [(u, v) for u, v in base.graph.edges()]
    if kind == "F":
        labels["x"] = extra
        edges += [(extra, v1), (extra, v2)]
    elif kind == "G":
        labels["y"] = extra
        edges += [(extra, u1), (extra, v1)]
    else:
        labels["z"] = extra
        edges.remove((min(v1, v2), max(v1, v2)))
        edges += [(extra, v1), (extra, v2), (extra, u1)]
    return Labeled(build_graph(n, edges), labels)


def h_block(k: int) -> Labeled:
    """Two fans on 3k - 2 vertices (centres v and u, paths v1..v(3k-3) and
    u1..u(3k-3)) plus the edges vu, v-u(3k-3) and u-v(3k-3). Order 6k - 4,
    size 12k - 11.

    Numbering: v -> 0, vi -> i, u -> 3k - 2, ui -> 3k - 2 + i.
    """
    if k < 3:
        raise GraphError(f"the two-fan block needs k >= 3, got {k}")
    t = 3 * k - 3
    v, u = 0, 3 * k - 2
    labels = {"v": v, "u": u}
    edges = [(v, u)]
    for i in range(1, t + 1):
        labels[f"v{i}"] = v + i
        labels[f"u{i}"] = u + i
        edges.append((v, v + i))
        edges.append((u, u + i))
        if i < t:
            edges.append((v + i, v + i + 1))
            edges.append((u + i, u + i + 1))
    edges.append((v, u + t))
    edges.append((u, v + t))
    return Labeled(build_graph(6 * k - 4, edges), labels)


def h_block_spine_edges(block: Labeled) -> tuple[Edge, ...]:
    """The distinguished edge set of the two-fan block: every spoke vvi, the
    far-fan path edges vi v(i+1), and the two edges vu and v-u(3k-3)."""
    names = block.labels
    v, u = names["v"], names["u"]
    t = max(int(name[1:]) for name in names if name.startswith("v") and len(name) > 1)
    out = [Edge.of(v, names[f"v{i}"]) for i in range(1, t + 1)]
    out += [Edge.of(names[f"v{i}"], names[f"v{i + 1}"]) for i in range(1, t)]
    out.append(Edge.of(v, u))
    out.append(Edge.of(v, names[f"u{t}"]))
    return tuple(out)


def g_ring(k: int) -> Labeled:
    """Ring of k two-fan blocks: block i runs between ring vertices x_i and
    x_{i+1}, identified with that block's v1 and u1. Order 6k^2 - 5k, size
    2(6k^2 - 5k) - k; the order cap admits k = 3..6 (orders 39..186).

    Numbering: ring vertices x1..xk -> 0..k-1; block i's interior vertices
    follow in block order, labelled "b{i}.v", "b{i}.v2", ... etc.
    """
    if k < 3:
        raise GraphError(f"the ring family needs k >= 3, got {k}")
    labels = {f"x{i + 1}": i for i in range(k)}

    def edges():
        # build_graph reads these, filling labels, only past its order check.
        block = h_block(k)
        nxt = k
        for i in range(k):
            mapping = {block.labels["v1"]: i, block.labels["u1"]: (i + 1) % k}
            for name, local in block.labels.items():
                if local not in mapping:
                    mapping[local] = labels[f"b{i + 1}.{name}"] = nxt
                    nxt += 1
            yield from ((mapping[a], mapping[b]) for a, b in block.graph.edges())

    return Labeled(build_graph(6 * k * k - 5 * k, edges()), labels)


def q_graph(n: int) -> Graph:
    """Sequential join of small blocks realizing diameter floor(2n/5) while
    staying edge-pancyclic; n >= 10. The block sequence depends on n mod 5
    (K1/K2 caps, triangles alternating with edgeless pairs)."""
    if n < 10:
        raise GraphError(f"this family is built for n >= 10, got {n}")
    k, r = divmod(n, 5)
    k1, k2, c3, e2 = complete(1), complete(2), cycle(3), empty(2)
    head, tail = ((k1, [k1]), (k1, [k2]), (k2, [k2]), (k1, [c3, k1]), (k1, [c3, k2]))[r]
    return sequential_join([head] + [c3, e2] * (k - 1) + [c3] + tail)


# -- family dispatch (CLI surface) -------------------------------------------


_BASIC_TOKENS = {"K": complete, "C": cycle, "P": path, "E": empty}


def part_from_token(token: str) -> Graph:
    """Parse a block token like K3, C5, P4 or E2 into its graph."""
    token = token.strip()
    if len(token) < 2 or token[0].upper() not in _BASIC_TOKENS:
        raise GraphError(f"unknown part token {token!r} (expected K/C/P/E + order)")
    try:
        order = int(token[1:])
    except ValueError as exc:
        raise GraphError(f"bad order in part token {token!r}") from exc
    return _BASIC_TOKENS[token[0].upper()](order)


def _join_parts(parts: Sequence[str]) -> Graph:
    """Join of the graphs of exactly two part tokens."""
    if len(parts) != 2:
        raise GraphError("family 'join' needs exactly two --parts tokens")
    return join(*(part_from_token(t) for t in parts))


def _sequential_join_parts(parts: Sequence[str]) -> Graph:
    """Sequential join of the graphs of the part tokens, in order."""
    return sequential_join([part_from_token(t) for t in parts])


# Each family by name, with its constructor and the options it reads, all of
# them required. A constructor is held by name and looked up in this module
# when it runs, so a wrapper set on the module attribute is what runs.
FAMILIES: dict[str, tuple[str, tuple[str, ...]]] = {
    "cycle": ("cycle", ("n",)),
    "path": ("path", ("n",)),
    "complete": ("complete", ("n",)),
    "empty": ("empty", ("n",)),
    "wheel": ("wheel", ("n",)),
    "fan": ("fan", ("n",)),
    "even-extremal": ("a_graph", ("n",)),
    "odd-extremal": ("odd_extremal", ("kind", "n")),
    "h-block": ("h_block", ("k",)),
    "g-ring": ("g_ring", ("k",)),
    "q-diameter": ("q_graph", ("n",)),
    "join": ("_join_parts", ("parts",)),
    "seq-join": ("_sequential_join_parts", ("parts",)),
}
FAMILY_NAMES = tuple(FAMILIES)


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its parameters; ``build`` calls the family's
    constructor and normalizes the (graph, labels) shape."""

    family: str
    n: int | None = None
    k: int | None = None
    kind: str | None = None
    parts: Sequence[str] | None = None

    def build(self) -> tuple[Graph, dict[str, int] | None]:
        if self.family not in FAMILIES:
            raise GraphError(f"unknown family {self.family!r}")
        constructor, reads = FAMILIES[self.family]
        for opt in reads:
            if getattr(self, opt) is None:
                raise GraphError(f"family {self.family!r} needs --{opt}")
        out = globals()[constructor](**{opt: getattr(self, opt) for opt in reads})
        return (out.graph, out.labels) if isinstance(out, Labeled) else (out, None)
