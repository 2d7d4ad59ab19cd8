"""Canonical forms for isomorphism testing and isomorph-free generation.

The canonical form is computed by iterated equitable refinement of the
degree partition plus backtracking over the orderings of the first
non-singleton cell of largest degree. Each fully discrete partition reads
off a relabeling; the canonical labeling is the one whose relabeled
adjacency matrix has the lexicographically smallest upper-triangle bit
string (column-major, the graph6 bit order). Two graphs receive equal
codes iff they are isomorphic.

Two leaves with the same code give an automorphism: the map between
their labelings. The search skips every branch that such an automorphism
maps onto a branch already searched, in two ways: the orbit skip and the
backjump to the first path (both below). This keeps highly symmetric
graphs (empty, complete, unions of equal components) from exploding the
search: K_n and the empty graph take n leaves.

:func:`_canonize` returns the code, the labeling and these automorphisms.
They generate Aut(g) (see the backjump below). A caller that skips work by
symmetry needs less: a subgroup orbit lies inside an orbit of the whole
group, so the points it joins are equivalent.

The root of the search is the equitable refinement of the unit partition
(:func:`_root`). Its first split is by degree, highest first, and every
later step, in refinement or below the root, only splits a cell in place,
ordering the parts by neighbour counts that do not depend on the labels.
So the root cell order is an isomorphism invariant, an automorphism maps
each root cell onto itself, and every labeling, the canonical one
included, respects it: ``cell u < cell v`` implies ``sigma(u) <
sigma(v)``, and ``deg u > deg v`` implies ``cell u < cell v``. The
augmentation trees in :mod:`.search` read these ranks to reject children
before canonizing them. A caller that has computed the root passes it to
:func:`_canonize`, which resumes from it (it copies the root's stable set
and changes nothing in it), so the root is refined once; the search is
then the same as without it.

Three bookkeeping devices make this cheaper. The first two change
neither which nodes are visited, in which order, nor what each node
computes. The third skips nodes, but no code, labeling or generated group
changes, so every code and every labeling is the same as with the plain
loops:

* Stable splitters. Refinement scans the cells in order and splits by the
  first cell mask S under which some cell has vertices with different
  neighbour counts in S, then rescans. Once S has been tried, every cell
  is uniform with respect to S (either it was already, or the split just
  made it so). Refinement and individualization only ever split cells,
  and a subset of a uniform cell is uniform, so S can never split again
  in this node or below it. Such masks go into a ``stable`` set and are
  skipped without a scan; a child starts from its parent's set. Skipping
  a mask that would split nothing leaves the sequence of splits, and
  hence the partition, exactly as the full rescan would. For the same
  reason a rescan resumes at the first cell not yet known to be stable:
  the cells before it are the ones the full rescan would pass over.
* Orbit cache. A vertex of the target cell is skipped when an
  automorphism fixing the individualized prefix pointwise maps it to a
  vertex already tried there. Each node keeps one union-find of the
  orbits of such automorphisms and adds only the generators found since
  its last check. Orbits of a set of permutations do not depend on the
  order in which they are merged, so each check answers exactly as a
  union-find rebuilt from all generators would.
* Backjump to the first path (McKay, "Practical graph isomorphism",
  1981; McKay & Piperno 2014). The first path runs from the root through
  the first child tried at each node to the first leaf. Say a later leaf
  has the first leaf's code, and its nearest first-path ancestor lies at
  level k. The map gamma between the two labelings is an automorphism
  that fixes the ancestor's individualized vertices, and it maps the
  first-path node at level k+1 onto the current path's node at level k+1.
  Every node below the ancestor returns at once, and the ancestor goes on
  with its next child. The subtree left unvisited is the gamma-image of a
  subtree already searched, so every leaf in it has the code of a leaf
  already visited. The first minimal leaf in DFS order is never skipped,
  so every code and every labeling is unchanged. The group is unchanged
  too. The leaf that triggers the jump gives a coset representative: it
  maps the first child onto this child, and it fixes the prefix, so the
  orbit skip at the ancestor uses it. At each first-path node, each child
  in the orbit of the first child under the automorphisms that fix the
  prefix is either skipped by the orbit test or reached by such a leaf.
  By induction up the first path, the recorded automorphisms generate
  Aut(g) (McKay's argument), with or without the jump, so the orbits that
  :mod:`.search` reads, and every move it skips, stay the same.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, graph6_from_bits, graph_from_bits


@dataclass(frozen=True)
class CanonicalCode:
    """Order plus packed canonical upper-triangle bit string; equality <=> isomorphism."""

    order: int
    bits: bytes

    def hex(self) -> str:
        return self.bits.hex()

    def graph6(self) -> str:
        """The canonical graph's graph6 string: the code's bits are its body,
        zero-padded at the front instead of at the end."""
        return graph6_from_bits(self.order, int.from_bytes(self.bits, "big"))


# cells, their masks, the non-singleton cell indices, the stable masks
_Root = tuple[list[list[int]], list[int], list[int], set[int]]


def _mask(cell: list[int]) -> int:
    m = 0
    for v in cell:
        m |= 1 << v
    return m


def _first_split(adj: tuple[int, ...], cells: list[list[int]], multi: list[int], smask: int) -> int:
    # Index of the first cell (among the non-singletons ``multi``) whose
    # vertices differ in their number of neighbours in ``smask``; -1 if none.
    for j in multi:
        cell = cells[j]
        c0 = (adj[cell[0]] & smask).bit_count()
        for v in cell:
            if (adj[v] & smask).bit_count() != c0:
                return j
    return -1


def _refine(
    adj: tuple[int, ...], cells: list[list[int]], masks: list[int], stable: set[int],
    start: int,
) -> tuple[list[list[int]], list[int], list[int]]:
    # Equitable refinement to a fixpoint. Scan the cells in order; the first
    # cell whose vertex mask splits some cell by neighbour count splits every
    # cell it can (subcells sorted by count descending), then the scan
    # restarts from the first cell. Masks in ``stable`` split nothing and are
    # skipped, and every cell before ``start`` is stable (see the module
    # docstring). ``masks`` runs parallel to ``cells``; ``stable`` is updated
    # in place. Returns the cells, their masks and the non-singleton indices.
    while True:
        multi = [j for j, cell in enumerate(cells) if len(cell) > 1]
        if not multi:
            return cells, masks, multi
        for i in range(start, len(cells)):
            smask = masks[i]
            if smask not in stable:
                stable.add(smask)
                j = _first_split(adj, cells, multi, smask)
                if j >= 0:
                    break
        else:
            return cells, masks, multi
        # Split every cell from ``j`` on. Every cell before ``j`` and up to
        # ``i`` is stable, so the restart from the first cell resumes at the
        # smaller of the two.
        out, out_masks = cells[:j], masks[:j]
        for cell, mask in zip(cells[j:], masks[j:]):
            if len(cell) > 1:
                counts = [(adj[v] & smask).bit_count() for v in cell]
                if counts.count(counts[0]) != len(counts):
                    groups: dict[int, list[int]] = {}
                    for v, c in zip(cell, counts):
                        groups.setdefault(c, []).append(v)
                    for key in sorted(groups, reverse=True):
                        sub = groups[key]
                        out.append(sub)
                        out_masks.append(_mask(sub))
                    continue
            out.append(cell)
            out_masks.append(mask)
        cells, masks, start = out, out_masks, min(i + 1, j)


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
                 "first_perm", "gens", "gen_set")

    def __init__(self, g: Graph):
        self.adj = g.adj
        self.n = g.order
        self.degs = g.degrees()
        self.best_code: int | None = None
        self.best_perm: list[int] | None = None
        self.first_code: int | None = None
        self.first_perm: list[int] | None = None
        self.gens: list[tuple[int, list[tuple[int, int]]]] = []
        self.gen_set: set[tuple[int, ...]] = set()

    def run(self, root: _Root) -> None:
        cells, masks, multi, stable = root
        self._node(cells, masks, multi, set(stable), 0, True)

    def _leaf(self, cells: list[list[int]]) -> bool:
        # True when a leaf after the first has the first leaf's code: the
        # automorphism between them sends the first path into this one.
        perm = [c[0] for c in cells]
        code = _perm_code(self.adj, perm)
        jump = False
        if self.first_code is None:
            self.first_code = code
            self.first_perm = perm
        elif code == self.first_code:
            self._record_aut(self.first_perm, perm)
            jump = True
        if self.best_code is None or code < self.best_code:
            self.best_code = code
            self.best_perm = perm
        elif code == self.best_code and perm != self.best_perm:
            self._record_aut(self.best_perm, perm)
        return jump

    def _record_aut(self, pa: list[int], pb: list[int]) -> None:
        # Both labelings produce the identical matrix, so pa[i] -> pb[i]
        # is an automorphism. Keep it if it is new and not the identity,
        # as its support mask and its moved points.
        if pa == pb:
            return
        gamma = [0] * self.n
        for i in range(self.n):
            gamma[pa[i]] = pb[i]
        key = tuple(gamma)
        if key not in self.gen_set:
            self.gen_set.add(key)
            moves = [(a, b) for a, b in enumerate(gamma) if a != b]
            support = 0
            for a, _ in moves:
                support |= 1 << a
            self.gens.append((support, moves))

    def _node(
        self, cells: list[list[int]], masks: list[int], multi: list[int], stable: set[int],
        fixed: int, first: bool,
    ) -> bool:
        # ``cells`` is equitable and ``multi`` lists its non-singleton cells;
        # ``first`` says whether this node lies on the first path. Returns
        # True while a backjump is under way: a leaf below proved an
        # automorphism, and every node returns at once up to the nearest
        # first-path ancestor, which goes on with its next child.
        if not multi:
            return self._leaf(cells)
        degs = self.degs
        target = multi[0]
        target_deg = degs[cells[target][0]]
        for i in multi:
            d = degs[cells[i][0]]
            if d > target_deg:
                target = i
                target_deg = d
        cell = cells[target]
        tmask = masks[target]
        stable.discard(tmask)
        head, tail = cells[:target], cells[target + 1:]
        mhead, mtail = masks[:target], masks[target + 1:]
        # Orbits of the automorphisms found so far that fix the vertices in
        # ``fixed`` pointwise, as a union-find grown by the generators added
        # since the last check (None until one such generator exists).
        parent: list[int] | None = None
        seen = 0
        gens = self.gens
        tried: list[int] = []
        for v in cell:
            if tried:
                for support, moves in gens[seen:]:
                    if not support & fixed:
                        if parent is None:
                            parent = list(range(self.n))
                        for a, b in moves:
                            a, b = _find(parent, a), _find(parent, b)
                            if a != b:
                                parent[a] = b
                seen = len(gens)
                if parent is not None:
                    rv = _find(parent, v)
                    if any(_find(parent, u) == rv for u in tried):
                        continue
            tried.append(v)
            bit = 1 << v
            sub = stable.copy()
            ccells, cmasks, cmulti = _refine(
                self.adj,
                head + [[v], [w for w in cell if w != v]] + tail,
                mhead + [bit, tmask ^ bit] + mtail,
                sub,
                target,
            )
            jump = self._node(ccells, cmasks, cmulti, sub, fixed | bit, first and len(tried) == 1)
            if jump and not first:
                return True
        return False


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _root(g: Graph) -> _Root:
    """The root of the search tree of ``g``: its equitable refinement of the
    unit partition, as ``(cells, masks, multi, stable)``, the cells in order,
    their vertex masks, the indices of the non-singleton cells and the masks
    known to split nothing. The cell order is an isomorphism invariant, and
    every labeling, the canonical one included, respects it (see the module
    docstring). :func:`_canonize` resumes from it without changing it."""
    cells = [list(range(g.order))] if g.order else []
    stable: set[int] = set()
    cells, masks, multi = _refine(g.adj, cells, [_mask(c) for c in cells], stable, 0)
    return cells, masks, multi, stable


def _canonize(
    g: Graph, root: _Root | None = None
) -> tuple[int, list[int], tuple[tuple[int, ...], ...]]:
    """Canonical ``(code_int, labeling, generators)``: the labeling maps
    position -> vertex; each generator ``gamma`` is an automorphism of ``g``
    sending ``v`` to ``gamma[v]``, and together they generate Aut(g) (see
    the module docstring). ``root``, if given, is ``_root(g)``,
    computed earlier by a caller that read the cells; the result is the same
    as without it."""
    c = _Canonizer(g)
    c.run(_root(g) if root is None else root)
    assert c.best_perm is not None
    return c.best_code, c.best_perm, tuple(c.gen_set)


def _pack(order: int, code: int) -> bytes:
    nbits = order * (order - 1) // 2
    return code.to_bytes((nbits + 7) // 8, "big") if nbits else b""


def canonical_code(g: Graph) -> CanonicalCode:
    """Canonical code of ``g``; equal codes certify isomorphism."""
    code, _, _ = _canonize(g)
    return CanonicalCode(order=g.order, bits=_pack(g.order, code))


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """Permutation sending ``g`` to canonical form: vertex ``v`` -> new label."""
    _, perm, _ = _canonize(g)
    inv = [0] * g.order
    for pos, v in enumerate(perm):
        inv[v] = pos
    return tuple(inv)


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled copy of ``g``: the graph of its code."""
    return graph_from_bits(g.order, _canonize(g)[0])


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test through canonical codes, with cheap prechecks."""
    if g.order != h.order or g.size != h.size:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_code(g) == canonical_code(h)
