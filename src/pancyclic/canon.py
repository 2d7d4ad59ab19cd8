"""Canonical forms for isomorphism testing and isomorph-free generation.

The canonical form is computed by iterated equitable refinement of the
degree partition plus backtracking over the orderings of the first
non-singleton cell of largest degree. Each fully discrete partition reads
off a relabeling; the canonical labeling is the one whose relabeled
adjacency matrix has the lexicographically smallest upper-triangle bit
string (column-major, the graph6 bit order). Two graphs receive equal
codes iff they are isomorphic.

Automorphisms discovered when two branches reach the same leaf code are
used to skip equivalent branches, which keeps highly symmetric graphs
(empty, complete, unions of equal components) from exploding the search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphError


@dataclass(frozen=True)
class CanonicalCode:
    """Order plus packed canonical upper-triangle bit string; equality <=> isomorphism."""

    order: int
    bits: bytes

    def hex(self) -> str:
        return self.bits.hex()


def _refine(adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    # Equitable refinement to a fixpoint: repeatedly split every cell by the
    # count of neighbours in every cell. Deterministic: splitter order is the
    # current cell order, subcells sorted by count descending.
    changed = True
    while changed:
        changed = False
        masks = [0] * len(cells)
        for i, cell in enumerate(cells):
            m = 0
            for v in cell:
                m |= 1 << v
            masks[i] = m
        for smask in masks:
            out = []
            split = False
            for cell in cells:
                if len(cell) == 1:
                    out.append(cell)
                    continue
                groups: dict[int, list[int]] = {}
                for v in cell:
                    groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
                if len(groups) == 1:
                    out.append(cell)
                else:
                    split = True
                    for key in sorted(groups, reverse=True):
                        out.append(groups[key])
            cells = out
            if split:
                changed = True
                break
    return cells


def _perm_code(adj: tuple[int, ...], perm: list[int]) -> int:
    # Upper triangle of the relabeled adjacency matrix, column-major,
    # packed MSB-first so int comparison is lexicographic comparison.
    code = 0
    for j in range(1, len(perm)):
        row = adj[perm[j]]
        for i in range(j):
            code = (code << 1) | ((row >> perm[i]) & 1)
    return code


class _Canonizer:
    __slots__ = ("adj", "n", "degs", "best_code", "best_perm", "first_code",
                 "first_perm", "gens")

    def __init__(self, g: Graph):
        self.adj = g.adj
        self.n = g.order
        self.degs = g.degrees()
        self.best_code: int | None = None
        self.best_perm: list[int] | None = None
        self.first_code: int | None = None
        self.first_perm: list[int] | None = None
        self.gens: list[list[int]] = []

    def run(self) -> None:
        if self.n == 0:
            self.best_code = 0
            self.best_perm = []
            return
        self._node([list(range(self.n))], [])

    def _leaf(self, cells: list[list[int]]) -> None:
        perm = [c[0] for c in cells]
        code = _perm_code(self.adj, perm)
        if self.first_code is None:
            self.first_code = code
            self.first_perm = perm
        elif code == self.first_code:
            self._record_aut(self.first_perm, perm)
        if self.best_code is None or code < self.best_code:
            self.best_code = code
            self.best_perm = perm
        elif code == self.best_code and perm != self.best_perm:
            self._record_aut(self.best_perm, perm)

    def _record_aut(self, pa: list[int], pb: list[int]) -> None:
        # Both labelings produce the identical matrix, so pa[i] -> pb[i]
        # is an automorphism. Keep it if it is new and not the identity.
        gamma = [0] * self.n
        ident = True
        for i in range(self.n):
            gamma[pa[i]] = pb[i]
            if pa[i] != pb[i]:
                ident = False
        if not ident and gamma not in self.gens:
            self.gens.append(gamma)

    def _node(self, cells: list[list[int]], fixed: list[int]) -> None:
        cells = _refine(self.adj, cells)
        target = -1
        target_deg = -1
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                d = self.degs[cell[0]]
                if d > target_deg:
                    target = i
                    target_deg = d
        if target < 0:
            self._leaf(cells)
            return
        cell = cells[target]
        tried: list[int] = []
        for v in cell:
            if tried and self._in_tried_orbit(v, tried, fixed):
                continue
            tried.append(v)
            rest = [w for w in cell if w != v]
            child = cells[:target] + [[v], rest] + cells[target + 1:]
            fixed.append(v)
            self._node(child, fixed)
            fixed.pop()

    def _in_tried_orbit(self, v: int, tried: list[int], fixed: list[int]) -> bool:
        # Union orbits of all stored automorphisms that fix the individualized
        # prefix pointwise; skip v when an already tried vertex is in its orbit.
        useful = [g for g in self.gens if all(g[f] == f for f in fixed)]
        if not useful:
            return False
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in useful:
            for a in range(self.n):
                ra, rb = find(a), find(g[a])
                if ra != rb:
                    parent[ra] = rb
        rv = find(v)
        return any(find(u) == rv for u in tried)


def _canonize(g: Graph) -> tuple[int, list[int]]:
    """Canonical (code_int, labeling) where labeling maps position -> vertex."""
    c = _Canonizer(g)
    c.run()
    assert c.best_perm is not None
    return c.best_code, c.best_perm


def _pack(order: int, code: int) -> bytes:
    nbits = order * (order - 1) // 2
    return code.to_bytes((nbits + 7) // 8, "big") if nbits else b""


def canonical_code(g: Graph) -> CanonicalCode:
    """Canonical code of ``g``; equal codes certify isomorphism."""
    code, _ = _canonize(g)
    return CanonicalCode(order=g.order, bits=_pack(g.order, code))


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """Permutation sending ``g`` to canonical form: vertex ``v`` -> new label."""
    _, perm = _canonize(g)
    inv = [0] * g.order
    for pos, v in enumerate(perm):
        inv[v] = pos
    return tuple(inv)


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled copy of ``g``."""
    return g.relabel(canonical_labeling(g))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test through canonical codes, with cheap prechecks."""
    if g.order != h.order or g.size != h.size:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_code(g) == canonical_code(h)
