"""Isomorph-free exhaustive generation and the extremal searches built on it.

Two canonical-augmentation trees in McKay's sense share one acceptance step,
:func:`_accepted_children`: a child is kept iff undoing its canonical
removal returns its parent, so every isomorphism class appears exactly
once, with no global seen-set. A node is a graph with no isolated vertex on
its active vertices. A move completes a clique on k vertices, k = 2 in the
edge tree and 3 in the triangle tree; its vertices may include the lowest
unused ones, which are isolated and so interchangeable, and both trees list
their vertex sets by one rule (:func:`_clique_sets`). A tree's universe
names its candidate edge sets and which of them are removable; in both
trees the canonical removal is the removable set of largest key under the
canonical labeling (:func:`_canonical_removal`). A node carries its
canonical code, and every graph a tree yields is read out of that code.

* :func:`enumerate_graphs` adds one edge; its candidate sets are the single
  edges, all removable, so it removes the edge with the largest relabeled
  pair. The tree reaches every graph with no isolated vertex on k <= n
  vertices; padding each with n - k isolated vertices gives every graph of
  order n once. Good up to n = 12 or so.

* :func:`enumerate_covered_graphs` adds one triangle (creating 1..3 missing
  edges) over the universe of graphs in which every edge lies in a
  triangle. Its candidate sets are the nonempty edge sets inside one
  triangle, removable when every other edge stays in a triangle. Every
  search target here (triangle cover, edge-pancyclic) lives inside that
  universe, which is exponentially sparser than the unrestricted one, and
  that is what makes order 10 to 12 searches feasible in pure Python.

Why the triangle tree covers its universe: every nonempty covered graph C
has a removable nonempty edge subset E inside one triangle with C - E still
covered. If some edge of C lies in exactly one triangle T, take E = the
edges of T lying in no other triangle; removing them cannot destroy a
triangle of any surviving edge. Otherwise every edge lies in >= 2
triangles, and removing any single edge e kills at most one triangle of
each survivor, leaving each at least one. Induction then walks every
covered graph down to the empty graph, so the forward tree reaches all of
them.

Most children are thrown away, so the acceptance step rejects what it can
before canonizing a child (McKay's cheap rejection); both rejections are
exact, and every class, count and witness is the same as without them:

* Orbit pruning. A node carries the automorphism generators its
  canonization found. A parent automorphism that fixes the fresh vertices
  maps a move to a move with an isomorphic child, so a move in the orbit of
  an earlier one is skipped: the plain step would have dropped its child as
  a repeated code, or rejected it as it rejected the earlier one.
* Rank pre-filter (:func:`_rejects`). A rank is a vertex invariant of the
  child that every canonical labeling respects: a vertex of smaller rank
  gets a smaller position. Let t be the smallest rank of an endpoint of an
  added edge. A removable set whose endpoints all rank above t has a
  larger key than the added set and than every set in its orbit, since
  each of those holds an edge with an endpoint of rank t, placed before
  all of that set's endpoints; so the canonical removal is not in that
  orbit and the child is rejected. If the child's class has this parent,
  another move of the parent adds a set that an isomorphism maps onto the
  canonical removal, passes the filter, and reaches the class. The filter
  runs twice: on negated degrees, then on the cell index in the child's
  root equitable partition, which canon splits by degree first and then
  only refines (:mod:`.canon`). So the cell pass rejects every child the
  degree pass rejects, and more; the degree pass runs first because it
  needs no refinement. A child that passes both is canonized from that
  same root, so it is refined once.

Every covered-tree search is one :class:`_Tree` spec, one walk and one
:func:`_extremal` reduction; :func:`_leaf_filter` is the one place where
the degree and connectivity floors that prune the walk are argued.
Searches ascend size from the theoretical floor for their predicate and
report per-size class counts, witnesses in canonical graph6 form, and an
``exhaustive`` flag. With several workers the tree is expanded
breadth-first from the root until a fixed number of nodes per worker wait
in the queue, and each waiting node's subtree is one worker task (see
:func:`_survey_covered`). Each class lives in exactly one subtree, so the
per-task results sum exactly; merged results are sorted by canonical code,
so the outcome is identical for any worker count.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Iterator

from . import checks, families
from .canon import _canonize, _root, canonical_graph
from .graphs import (
    Graph,
    Graph6Error,
    GraphError,
    build_graph,  # unused here; perfbench/tracer.py wraps search.build_graph
    diameter,
    emit_graph6,
    graph_from_bits,
    is_k_connected,
    min_degree,
    parse_graph6,
)

WORKERS_ENV = "PANCYCLIC_WORKERS"
_BUILTIN_MAX_ORDER = 12
_TASKS_PER_WORKER = 16  # split frontier: queued tree nodes per worker process

# Outcomes stopped early by a class budget carry exactly this note; the CLI
# maps it to its own exit code.
BUDGET_NOTE = "budget exhausted before full coverage"


@dataclass(frozen=True)
class GraphFilter:
    """Picklable leaf filter: minimum degree, connectivity, then predicate.

    Cheap tests run first; the predicate probe dominates cost and runs last.
    """

    min_degree: int = 0
    connectivity: int = 0
    predicate: str | None = None  # a key of checks.PREDICATES

    def passes(self, g: Graph) -> bool:
        if self.min_degree > 0 and (g.order == 0 or min_degree(g) < self.min_degree):
            return False
        if self.connectivity > 0 and not is_k_connected(g, self.connectivity):
            return False
        if self.predicate is not None and not _predicate_holds(self.predicate, g):
            return False
        return True


def _predicate_holds(name: str, g: Graph) -> bool:
    return checks.check(name, g).verdict is True


@dataclass
class SearchOutcome:
    """Result of one extremal search; ``counts`` documents coverage per size."""

    objective: str
    order: int
    value: int | None
    witnesses: list[str]
    exhaustive: bool
    counts: dict
    notes: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "objective": self.objective,
            "order": self.order,
            "value": self.value,
            "witnesses": self.witnesses,
            "exhaustive": self.exhaustive,
            "counts": self.counts,
        }
        if self.notes:
            out["notes"] = self.notes
        return out


def resolve_workers(workers: int | None = None) -> int:
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise GraphError(
                    f"{WORKERS_ENV} must be a positive integer, got {env!r}"
                ) from None
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise GraphError(f"worker count must be positive, got {workers}")
    return workers


# -- the shared acceptance step -----------------------------------------------

# rows, active vertices, size, canonical code, automorphism generators
_Node = tuple[list[int], int, int, int, tuple[tuple[int, ...], ...]]
_Edges = tuple[tuple[int, int], ...]  # (a, b) pairs with a < b
_Move = tuple[list[int], int, int, _Edges]  # rows, act, size, added edges
_Sets = Callable[[list[int], int, int], Iterable[_Edges]]
_Removable = Callable[[list[int], _Edges], bool]


def _compact(rows: list[int], act: int) -> tuple[int, tuple[int, ...]]:
    # Drop zero-degree vertices, preserving relative order of the rest.
    keep = [v for v in range(act) if rows[v]]
    remap = {v: i for i, v in enumerate(keep)}
    out = []
    for v in keep:
        row = rows[v]
        acc = 0
        while row:
            low = row & -row
            acc |= 1 << remap[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return len(keep), tuple(out)


def _add_orbit(
    seen: set[frozenset[tuple[int, int]]], move: frozenset[tuple[int, int]],
    gens: tuple[tuple[int, ...], ...], act: int,
) -> None:
    # Add the orbit of the edge set ``move`` under the group generated by
    # ``gens`` (automorphisms of the parent on its ``act`` active vertices,
    # extended by fixing every fresh vertex) to ``seen``, a union of orbits.
    seen.add(move)
    todo = [move]
    while todo:
        edges = todo.pop()
        for gamma in gens:
            image = []
            for a, b in edges:
                a = gamma[a] if a < act else a
                b = gamma[b] if b < act else b
                image.append((a, b) if a < b else (b, a))
            img = frozenset(image)
            if img not in seen:
                seen.add(img)
                todo.append(img)


def _accepted_children(
    node: _Node, moves: Iterable[_Move], sets: _Sets, removable: _Removable,
) -> Iterator[_Node]:
    """The children of ``node`` among ``moves`` that McKay's test accepts,
    one per class, each with its canonical code and automorphism generators.

    A universe is its moves and its removable sets: ``sets(rows, a, b)``
    yields the candidate edge sets that hold edge ab, and ``removable(rows,
    cand)`` tells whether the graph less ``cand`` is still in the universe.
    A child is accepted iff undoing its :func:`_canonical_removal` gives a
    graph isomorphic to ``node``; a parent other than ``node`` is told by its
    sorted degree sequence (hence active count and size) before it is
    canonized. Two exact rejections run before a child is canonized, the
    second in two passes:

    * Orbit pruning. ``seen_moves``, the added edge sets met so far, is
      closed under the generators of ``node``, with every fresh vertex fixed.
      A parent automorphism fixing the fresh vertices maps a move to a move
      whose child is isomorphic, so a move whose added set is in
      ``seen_moves`` repeats the class of the first move of its orbit. That
      move was canonized, and the plain step would have dropped this child
      as a repeated code, or it was rejected by :func:`_rejects`, which
      answers alike on a whole orbit. The argument needs only a subgroup
      of Aut(node); smaller orbits would only skip fewer moves.
    * :func:`_rejects`, the rank pre-filter, first on negated degrees, then
      on the cells of the child's root partition (:func:`.canon._root`,
      which :func:`_canonize` then resumes from), is True only if the
      child's canonical removal lies outside the orbit of ``added`` under
      Aut(child); it reads invariants of the child with ``added`` marked,
      so it answers alike on an orbit. A rejected child is not lost: if
      undoing its canonical removal gives ``node``, an isomorphism from that
      graph onto ``node`` turns the removal into a move of ``node`` whose
      added set is, up to isomorphism, the canonical removal, and that move
      passes :func:`_rejects`. So the class is accepted, possibly through a
      later move with other labels.
    """
    rows, act, _, code, gens = node
    degrees = sorted(r.bit_count() for r in rows)
    seen_moves: set[frozenset[tuple[int, int]]] = set()
    seen_codes: set[tuple[int, int]] = set()
    for child, new_act, new_m, added in moves:
        move = frozenset(added)
        if move in seen_moves:
            continue
        _add_orbit(seen_moves, move, gens, act)
        if _rejects([-r.bit_count() for r in child], child, new_act, added, sets, removable):
            continue
        g = Graph(new_act, tuple(child))
        root = _root(g)
        cell = [0] * new_act
        for i, vs in enumerate(root[0]):
            for v in vs:
                cell[v] = i
        if _rejects(cell, child, new_act, added, sets, removable):
            continue
        ccode, perm, cgens = _canonize(g, root)
        if (new_act, ccode) in seen_codes:
            continue
        seen_codes.add((new_act, ccode))
        sigma = [0] * new_act
        for pos, vert in enumerate(perm):
            sigma[vert] = pos
        removal = _canonical_removal(child, new_act, tuple(sigma), sets, removable)
        if frozenset(removal) != move:
            back = child[:]
            for a, b in removal:
                back[a] &= ~(1 << b)
                back[b] &= ~(1 << a)
            back_act, back_rows = _compact(back, new_act)
            back_degrees = sorted(r.bit_count() for r in back_rows)
            if back_degrees != degrees or _canonize(Graph(back_act, back_rows))[0] != code:
                continue
        yield child, new_act, new_m, ccode, cgens


def _canonical_removal(
    rows: list[int], act: int, sigma: tuple[int, ...], sets: _Sets, removable: _Removable,
) -> _Edges:
    """The canonical removal: of the removable candidate sets, the one with
    the largest key, as ``(a, b)`` pairs with ``a < b`` in sorted order (the
    orientation of the added edges that the walk compares it with).

    A set's key is the sorted tuple of its relabeled pairs
    ``(min(sigma[a], sigma[b]), max(sigma[a], sigma[b]))``; sigma is a
    bijection, so distinct sets have distinct keys. A key starts with the
    pair of the set's smallest edge, so every set whose smallest edge is e
    has a larger key than every set whose smallest edge comes before e. So
    the edges in descending key order, each followed by the sets whose
    smallest edge it is in descending key order, list every candidate in
    descending order, and the first removable one is the maximum.
    """
    perm = [0] * act
    for v in range(act):
        perm[sigma[v]] = v
    # Edge keys (i, j), i < j, descending: i from the last label down, and
    # for each i, j from the last label down.
    for i in range(act - 2, -1, -1):
        a = perm[i]
        for j in range(act - 1, i, -1):
            b = perm[j]
            if not (rows[a] >> b) & 1:
                continue
            cands = []
            for cand in sets(rows, *((a, b) if a < b else (b, a))):
                key = []
                for u, v in cand:
                    su, sv = sigma[u], sigma[v]
                    key.append((su, sv) if su < sv else (sv, su))
                key.sort()
                if key[0] == (i, j):
                    cands.append((key, cand))
            cands.sort(reverse=True)
            for _, cand in cands:
                if removable(rows, cand):
                    return tuple(sorted(cand))
    raise AssertionError("every nonempty graph of a universe has a removable set")


def _rejects(
    rank: list[int], rows: list[int], act: int, added: _Edges, sets: _Sets,
    removable: _Removable,
) -> bool:
    """The rank pre-filter: True if some removable set has every endpoint's
    rank above t, the smallest rank of an endpoint of an added edge.

    ``rank`` must be an isomorphism invariant of the child that every
    canonical labeling sigma respects: rank u < rank v implies sigma(u) <
    sigma(v). Two ranks qualify (see :mod:`.canon`): negated degrees, and the
    cell index in the child's root equitable partition. Each set in the
    orbit of ``added`` under Aut(child) has an endpoint x of rank t, since an
    automorphism keeps ranks. Every endpoint of such a removable set comes
    after x under sigma, so the relabeled pair of x's edge comes before the
    pair of every edge of that set; so that set's key, which starts with its
    smallest pair, is larger than the key of every set in the orbit, and the
    canonical removal, the set of largest key, lies outside the orbit.
    """
    t = rank[added[0][0]]
    for a, b in added:
        if rank[a] < t:
            t = rank[a]
        if rank[b] < t:
            t = rank[b]
    for a in range(act):
        if rank[a] > t:
            nb = rows[a] & -(2 << a)  # each edge once, from its smaller end
            while nb:
                bit = nb & -nb
                b = bit.bit_length() - 1
                nb ^= bit
                if rank[b] > t:
                    for cand in sets(rows, a, b):
                        for u, v in cand:
                            if rank[u] <= t or rank[v] <= t:
                                break
                        else:
                            if removable(rows, cand):
                                return True
    return False


def _clique_sets(act: int, n: int, k: int) -> Iterator[tuple[int, ...]]:
    """The vertex sets of a node's moves, each of which completes a clique on
    k vertices: active vertices plus the lowest fresh ones (which are
    isolated, so any others would give the same classes). The all-active
    sets come first in lexicographic order, then those with 1, 2, ... fresh
    vertices, each in the lexicographic order of its active part."""
    for f in range(min(k, n - act) + 1):
        fresh = tuple(range(act, act + f))
        for active in combinations(range(act), k - f):
            yield active + fresh


# -- unrestricted generator: canonical augmentation by one edge -------------


def _edge_children(rows: list[int], act: int, m: int, n: int) -> Iterator[_Move]:
    # All edge moves: non-adjacent pairs over active vertices plus up to 2
    # fresh ones.
    padded = rows + [0, 0]
    for u, v in _clique_sets(act, n, 2):
        if not (padded[u] >> v) & 1:
            new_act = max(act, v + 1)
            child = padded[:new_act]
            child[u] |= 1 << v
            child[v] |= 1 << u
            yield child, new_act, m + 1, ((u, v),)


def _edge_sets(rows: list[int], a: int, b: int) -> tuple[_Edges]:
    # The edge tree's candidate sets through ab: the edge alone.
    return (((a, b),),)


def _always_removable(rows: list[int], cand: _Edges) -> bool:
    # Every edge set leaves a graph.
    return True


def enumerate_graphs(
    n: int,
    size_range: tuple[int, int] | None = None,
    graph_filter: GraphFilter | None = None,
) -> Iterator[Graph]:
    """Exactly one canonical representative per isomorphism class.

    Built-in generation handles n <= 12."""
    if not (0 <= n <= _BUILTIN_MAX_ORDER):
        raise GraphError(f"built-in enumeration supports 0 <= n <= {_BUILTIN_MAX_ORDER}")
    nbits = n * (n - 1) // 2
    lo, hi = size_range if size_range is not None else (0, nbits)
    if not 0 <= lo <= hi <= nbits:
        raise GraphError(f"size range {size_range} out of range for order {n}")
    stack: list[_Node] = [([], 0, 0, 0, ())]
    while stack:
        node = stack.pop()
        rows, act, m, code, _ = node
        if m >= lo:
            # The canonical graph of the node padded with isolated vertices:
            # they sort last, so the padded columns add only zero bits.
            g = graph_from_bits(n, code << (nbits - act * (act - 1) // 2))
            if graph_filter is None or graph_filter.passes(g):
                yield g
        if m < hi:
            stack.extend(_accepted_children(
                node, _edge_children(rows, act, m, n), _edge_sets, _always_removable
            ))


def _filter_stream(n: int, stream: Iterable[str]) -> Iterator[Graph]:
    # The stream's graphs, parsed, order-checked and deduplicated by
    # canonical code, as canonical graphs.
    seen: set[int] = set()
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            g = parse_graph6(line)
        except Graph6Error as exc:
            raise GraphError(f"stream line {lineno}: {exc}") from exc
        if g.order != n:
            raise GraphError(f"stream line {lineno}: order {g.order}, expected {n}")
        code = _canonize(g)[0]
        if code in seen:
            continue
        seen.add(code)
        yield graph_from_bits(n, code)


# -- covered universe: canonical augmentation by triangle moves -------------


def _covered_after_removal(rows: list[int], removed: _Edges) -> bool:
    # Only edges incident to an endpoint of a removed edge can lose coverage.
    tmp = rows[:]
    touched = 0
    for a, b in removed:
        tmp[a] &= ~(1 << b)
        tmp[b] &= ~(1 << a)
        touched |= (1 << a) | (1 << b)
    while touched:
        low = touched & -touched
        v = low.bit_length() - 1
        touched ^= low
        nb = tmp[v]
        while nb:
            nlow = nb & -nb
            w = nlow.bit_length() - 1
            nb ^= nlow
            if not tmp[v] & tmp[w]:
                return False
    return True


def _covered_sets(rows: list[int], a: int, b: int) -> Iterator[_Edges]:
    # The nonempty edge sets inside one triangle that hold ab: {ab}, then for
    # each common neighbour c, {ab, ac}, {ab, bc} and {ab, ac, bc}.
    e = (a, b)
    yield (e,)
    common = rows[a] & rows[b]
    while common:
        low = common & -common
        c = low.bit_length() - 1
        common ^= low
        fa = (a, c) if a < c else (c, a)
        fb = (b, c) if b < c else (c, b)
        yield e, fa
        yield e, fb
        yield e, fa, fb


@dataclass(frozen=True)
class _Tree:
    """One covered-universe walk: order ``n``, size cap ``m_hi``, the leaf
    filter ``keep`` (whose ``min_degree`` also prunes the walk), and the
    smallest leaf size ``size_lo`` that is counted and filtered."""

    n: int
    m_hi: int
    keep: GraphFilter
    size_lo: int = 0


@dataclass
class _CoveredSurvey:
    """Aggregate of one covered-universe tree walk."""

    classes_seen: int = 0
    exact_order_by_size: Counter = field(default_factory=Counter)
    survivors: list[int] = field(default_factory=list)  # canonical codes


def _covered_children(rows: list[int], act: int, m: int, tree: _Tree) -> Iterator[_Move]:
    # All triangle moves within the size cap: triples over active vertices
    # plus up to 3 fresh ones, adding their missing edges.
    n, m_hi, floor = tree.n, tree.m_hi, tree.keep.min_degree
    budget = m_hi - m
    if budget <= 0:
        return
    padded = rows + [0, 0, 0]
    # Each vertex's shortfall below the leaf filter's degree floor, and their
    # total over all n vertices; a move lowers it only at its 3 vertices, and
    # cut[x][g] is how much g new edges at x lower it.
    short = [max(floor - r.bit_count(), 0) for r in padded]
    total = sum(short[:act]) + floor * (n - act)
    cut = [(0, min(s, 1), min(s, 2)) for s in short]
    for u, v, w in _clique_sets(act, n, 3):
        uv = not (padded[u] >> v) & 1
        uw = not (padded[u] >> w) & 1
        vw = not (padded[v] >> w) & 1
        k = uv + uw + vw
        if not k or k > budget:
            continue
        new_act = max(act, w + 1)
        new_m = m + k
        # Activation bound: each future edge activates at most one vertex.
        if new_act + (m_hi - new_m) < n:
            continue
        # Degree bound: each future edge cuts the total shortfall by at most 2.
        deficit = total - cut[u][uv + uw] - cut[v][uv + vw] - cut[w][uw + vw]
        if deficit > 2 * (m_hi - new_m):
            continue
        missing = []
        if uv:
            missing.append((u, v))
        if uw:
            missing.append((u, w))
        if vw:
            missing.append((v, w))
        child = padded[:new_act]
        for a, b in missing:
            child[a] |= 1 << b
            child[b] |= 1 << a
        yield child, new_act, new_m, tuple(missing)


def _walk_covered(
    tree: _Tree, root: _Node, survey: _CoveredSurvey,
    class_budget: int | None = None, frontier: int | None = None,
) -> list[_Node] | None:
    # Depth-first walk. With ``frontier`` set, the walk is breadth-first
    # instead and stops once that many nodes wait in its queue; the waiting
    # nodes, each with its canonical code, are returned as subtree roots
    # (parallel split points). A tree that ends first returns none. Returns
    # None when ``class_budget`` stops the walk.
    n, keep = tree.n, tree.keep
    queue: deque[_Node] = deque([root])
    pop = queue.pop if frontier is None else queue.popleft
    while queue and (frontier is None or len(queue) < frontier):
        node = pop()
        rows, act, m, code, _ = node
        survey.classes_seen += 1
        if class_budget is not None and survey.classes_seen > class_budget:
            return None
        if act == n and m >= tree.size_lo:
            survey.exact_order_by_size[m] += 1
            if keep.passes(Graph(act, tuple(rows))):
                survey.survivors.append(code)
        queue.extend(_accepted_children(
            node, _covered_children(rows, act, m, tree), _covered_sets, _covered_after_removal
        ))
    return list(queue)


def enumerate_covered_graphs(
    n: int, max_size: int, *, min_deg_final: int = 2
) -> Iterator[Graph]:
    """Every graph of order exactly ``n`` (no isolated vertices) in which each
    edge lies in a triangle, with at most ``max_size`` edges and minimum
    degree at least ``min_deg_final``. One canonical representative per
    isomorphism class.

    ``min_deg_final`` is a floor on every yielded graph; it also prunes the
    walk, and a negative one is an error. Each edge in a triangle already
    gives minimum degree 2, so the default of 2 filters nothing. Built-in
    generation handles n <= 12."""
    if not 0 <= n <= _BUILTIN_MAX_ORDER:
        raise GraphError(f"covered enumeration supports 0 <= n <= {_BUILTIN_MAX_ORDER}")
    if max_size < 0:
        raise GraphError(f"size cap must be >= 0, got {max_size}")
    if min_deg_final < 0:
        raise GraphError(f"degree floor must be >= 0, got {min_deg_final}")
    tree = _Tree(n, max_size, GraphFilter(min_degree=min_deg_final))
    survey, _ = _survey_covered(tree, workers=1)
    for code in survey.survivors:
        yield graph_from_bits(n, code)


# -- survey plumbing: leaf filters, worker split, deterministic merge --------


def _leaf_filter(predicate: str, n: int, kappa: int = 0) -> GraphFilter:
    """The leaf filter of a search for order-``n`` graphs that satisfy
    ``predicate`` and are ``kappa``-connected.

    Its ``min_degree`` also prunes the tree walk, so each floor here must hold
    for every graph the search is after:

    * every edge lies in a triangle, so a vertex with an edge has two
      neighbours: minimum degree >= 2;
    * an edge-pancyclic graph is Hamiltonian, hence 2-connected; and for
      n >= 4 it has minimum degree >= 3: if v had only the neighbours a and b,
      the edge va lies in a triangle, so ab is an edge, and a Hamilton cycle
      through ab passes v along a-v-b, so it is that triangle and n = 3;
    * a ``kappa``-connected graph has minimum degree >= ``kappa`` (Whitney).
    """
    floor = 2
    if predicate == "edge-pancyclic":
        kappa = max(kappa, 2)
        if n >= 4:
            floor = 3
    return GraphFilter(
        min_degree=max(floor, kappa), connectivity=kappa, predicate=predicate
    )


def _subtree_survey(task: tuple[_Tree, _Node]) -> tuple[int, Counter, list[int]]:
    tree, node = task
    survey = _CoveredSurvey()
    _walk_covered(tree, node, survey)
    return survey.classes_seen, survey.exact_order_by_size, survey.survivors


def _check_class_budget(class_budget: int | None) -> None:
    if class_budget is not None and class_budget < 0:
        raise GraphError(f"class budget must be >= 0, got {class_budget}")


def _survey_covered(
    tree: _Tree, *, workers: int | None = None, class_budget: int | None = None
) -> tuple[_CoveredSurvey, bool]:
    """Walk the whole covered-universe tree of ``tree``.

    Returns the survey and a completeness flag (False iff ``class_budget``
    stopped the walk early). Budgeted walks run sequentially so the budget is
    a single global counter. Unbudgeted walks with several workers expand the
    tree breadth-first from the root until ``_TASKS_PER_WORKER`` nodes per
    worker wait in the queue; each waiting node is the root of one worker
    task. Subtree sizes are very uneven, so many tasks per worker, shallow
    ones (as a rule the largest) first, keep every worker busy to the end. A
    tree that ends before its queue fills has no tasks and is walked here.
    Any frontier merges exactly: the nodes walked before it and the subtrees
    below it partition the tree, and each isomorphism class lives in exactly
    one tree node, so merging is plain summation with no dedup.
    """
    _check_class_budget(class_budget)
    survey = _CoveredSurvey()
    if tree.n < 3 or tree.m_hi < 3:
        return survey, True
    nworkers = resolve_workers(workers)
    split = nworkers > 1 and class_budget is None
    pending = _walk_covered(
        tree, ([], 0, 0, 0, ()), survey, class_budget,
        frontier=_TASKS_PER_WORKER * nworkers if split else None,
    )
    if pending is None:
        return survey, False
    if pending:
        with multiprocessing.Pool(nworkers) as pool:
            parts = pool.map(_subtree_survey, [(tree, node) for node in pending])
        for seen, by_size, survivors in parts:
            survey.classes_seen += seen
            survey.exact_order_by_size.update(by_size)
            survey.survivors.extend(survivors)
    return survey, True


def _survivor_graphs(n: int, survey: _CoveredSurvey) -> list[Graph]:
    # Canonical form plus a total sort order makes results independent of
    # walk order and hence of the worker count.
    out = [graph_from_bits(n, code) for code in survey.survivors]
    out.sort(key=lambda g: (g.size, emit_graph6(g)))
    return out


def _extremal(
    graphs: Iterable[Graph],
    keep: GraphFilter,
    key: Callable[[Graph], int],
    best: Callable[[Iterable[int]], int],
) -> tuple[int | None, list[str], dict[int, int]]:
    """Group ``graphs`` by ``key``; return the ``best`` key (``min`` or
    ``max``), that group's sorted graph6 witnesses and every group's size.

    Witnesses are re-verified against ``keep`` on their canonical relabeling
    before emission; a failure means the generator and the checker disagree.
    """
    groups: dict[int, list[Graph]] = {}
    for g in graphs:
        groups.setdefault(key(g), []).append(g)
    sizes = {k: len(v) for k, v in sorted(groups.items())}
    if not groups:
        return None, [], sizes
    value = best(groups)
    group = sorted(groups[value], key=emit_graph6)
    for g in group:
        if not keep.passes(g):
            raise GraphError(f"witness failed re-verification: {emit_graph6(g)}")
    return value, [emit_graph6(g) for g in group], sizes


# -- the extremal searches ---------------------------------------------------


def _ascend_min_size(
    objective: str,
    n: int,
    start_hi: int,
    floor: int,
    keep: GraphFilter,
    workers: int | None,
    class_budget: int | None,
) -> SearchOutcome:
    """Smallest size admitting a graph passing ``keep``, with all witnesses.

    One tree walk capped at ``start_hi`` covers every size below it, so the
    smallest non-empty bucket is the minimum. The cap only grows (rare: the
    theoretical floor was wrong) until a witness appears or the complete
    graph is reached.
    """
    max_size = n * (n - 1) // 2
    m_hi = min(start_hi, max_size)
    tree_nodes = 0
    while True:
        survey, complete = _survey_covered(
            _Tree(n, m_hi, keep), workers=workers, class_budget=class_budget
        )
        tree_nodes += survey.classes_seen
        passing = _survivor_graphs(n, survey)
        value, witnesses, by_size = _extremal(passing, keep, lambda g: g.size, min)
        counts = {
            "floor": floor,
            "size_cap": m_hi,
            "tree_nodes": tree_nodes,
            "explored_by_size": dict(sorted(survey.exact_order_by_size.items())),
            "passing_by_size": by_size,
        }
        if not complete:
            return SearchOutcome(
                objective, n, value, witnesses, False, counts, notes=BUDGET_NOTE
            )
        if value is not None:
            return SearchOutcome(objective, n, value, witnesses, True, counts)
        if m_hi >= max_size:
            return SearchOutcome(
                objective, n, None, [], True, counts,
                notes="no graph of this order satisfies the predicate",
            )
        m_hi += 1


def min_size_edge_pancyclic(
    n: int,
    *,
    stream: Iterable[str] | None = None,
    workers: int | None = None,
    class_budget: int | None = None,
) -> SearchOutcome:
    """Minimum size of an edge-pancyclic graph of order ``n``, all witnesses.

    Every edge-pancyclic graph has each edge in a triangle, so the
    covered-universe tree, with the floors of :func:`_leaf_filter`, is a
    complete search space. A stream is read whole in this process, so
    ``workers`` and ``class_budget`` may not be given with it.
    """
    objective = "min-size edge-pancyclic"
    keep = _leaf_filter("edge-pancyclic", n)
    if stream is not None:
        if workers is not None or class_budget is not None:
            raise GraphError("stream mode takes neither workers nor a class budget")
        classes, passing = 0, []
        for classes, g in enumerate(_filter_stream(n, stream), start=1):
            if keep.passes(g):
                passing.append(g)
        value, witnesses, by_size = _extremal(passing, keep, lambda g: g.size, min)
        counts = {"stream_classes": classes, "passing_by_size": by_size}
        return SearchOutcome(
            objective, n, value, witnesses, False, counts,
            notes="stream mode: coverage of the search space is the stream producer's claim",
        )
    if not 4 <= n <= _BUILTIN_MAX_ORDER:
        raise GraphError(
            f"built-in search supports 4 <= n <= {_BUILTIN_MAX_ORDER}; "
            f"supply a graph6 stream for larger orders"
        )
    return _ascend_min_size(
        objective, n,
        start_hi=2 * n - 2,
        floor=-(-3 * n // 2),
        keep=keep,
        workers=workers,
        class_budget=class_budget,
    )


_TC_FLOOR = {
    1: lambda n: (3 * n - 2) // 2,
    2: lambda n: -(-3 * n // 2),
    3: lambda n: 2 * n - 2,
}
_TC_MIN_ORDER = {1: 2, 2: 3, 3: 4}


def min_size_triangle_cover(
    n: int,
    kappa: int,
    *,
    workers: int | None = None,
    class_budget: int | None = None,
) -> SearchOutcome:
    """Minimum size of a ``kappa``-connected order-``n`` graph in which every
    edge lies in a triangle, with the complete extremal witness set."""
    if kappa not in (1, 2, 3):
        raise GraphError(f"kappa must be 1, 2 or 3, got {kappa}")
    if not _TC_MIN_ORDER[kappa] <= n <= _BUILTIN_MAX_ORDER:
        raise GraphError(
            f"triangle-cover search with kappa={kappa} supports "
            f"{_TC_MIN_ORDER[kappa]} <= n <= {_BUILTIN_MAX_ORDER}"
        )
    floor = _TC_FLOOR[kappa](n)
    return _ascend_min_size(
        f"min-size triangle-cover kappa={kappa}", n,
        start_hi=floor,
        floor=floor,
        keep=_leaf_filter("triangle-cover", n, kappa),
        workers=workers,
        class_budget=class_budget,
    )


def _diameter_witness(n: int) -> tuple[Graph | None, str]:
    if n == 3:
        return families.cycle(3), "triangle"
    if 4 <= n <= 7:
        return families.wheel(n), "wheel"
    if n >= 10:
        return families.q_graph(n), "q-graph"
    return None, ""  # n in {8, 9}: no closed-form witness, search instead


def max_diameter_edge_pancyclic(
    n: int,
    *,
    mode: str = "auto",
    workers: int | None = None,
    class_budget: int | None = None,
) -> SearchOutcome:
    """Maximum diameter over edge-pancyclic graphs of order ``n``.

    Exhaustive mode (n <= 9) walks the covered universe at all sizes and
    returns the full census at the maximum. Witness mode returns one
    constructed graph achieving 2n/5 rounded down; for n in {8, 9} no family
    is defined here, so witness requests fall back to the exhaustive search.
    """
    if mode not in ("auto", "exhaustive", "witness"):
        raise GraphError(f"unknown mode {mode!r}")
    if n < 3:
        raise GraphError("maximum-diameter search needs order at least 3")
    # Checked before the mode branch, so a bad value fails in every mode.
    _check_class_budget(class_budget)
    resolve_workers(workers)
    objective = "max-diameter edge-pancyclic"
    target = 2 * n // 5
    keep = _leaf_filter("edge-pancyclic", n)
    if mode == "auto":
        mode = "exhaustive" if n <= 8 else "witness"
    if mode == "witness":
        g, name = _diameter_witness(n)
        if g is not None:
            d, witnesses, _ = _extremal([canonical_graph(g)], keep, diameter, max)
            if d != target:
                raise GraphError(
                    f"{name} witness has diameter {d}, expected {target}"
                )
            return SearchOutcome(
                objective, n, d, witnesses, False,
                {"target": target, "witness_family": name},
                notes="witness construction; upper bound not searched",
            )
        mode = "exhaustive"
    if not 3 <= n <= 9:
        raise GraphError(
            "exhaustive diameter search supports 3 <= n <= 9; "
            "use witness mode for larger orders"
        )
    survey, complete = _survey_covered(
        _Tree(n, n * (n - 1) // 2, keep), workers=workers, class_budget=class_budget
    )
    passing = _survivor_graphs(n, survey)
    value, witnesses, by_diameter = _extremal(passing, keep, diameter, max)
    counts = {
        "target": target,
        "tree_nodes": survey.classes_seen,
        "edge_pancyclic_total": len(passing),
        "by_diameter": by_diameter,
    }
    return SearchOutcome(
        objective, n, value, witnesses, complete, counts,
        notes=None if complete else BUDGET_NOTE,
    )


def extremal_census(
    n: int,
    predicate: str,
    *,
    kappa: int = 0,
    size: int | None = None,
    workers: int | None = None,
) -> list[Graph]:
    """All isomorphism classes of order ``n`` graphs satisfying ``predicate``
    (and ``kappa``-connectivity), at exactly ``size`` edges, or at every size
    when ``size`` is None. Canonical graphs, sorted by (size, graph6)."""
    if predicate not in ("triangle-cover", "edge-pancyclic"):
        raise GraphError(f"census predicate must name a cover check, got {predicate!r}")
    if not 3 <= n <= _BUILTIN_MAX_ORDER:
        raise GraphError(f"census supports 3 <= n <= {_BUILTIN_MAX_ORDER}")
    if kappa < 0:
        raise GraphError(f"kappa must be >= 0, got {kappa}")
    max_size = n * (n - 1) // 2
    lo, hi = (0, max_size) if size is None else (size, size)
    if not 0 <= hi <= max_size:
        raise GraphError(f"size {size} out of range for order {n}")
    tree = _Tree(n, hi, _leaf_filter(predicate, n, kappa), size_lo=lo)
    survey, _ = _survey_covered(tree, workers=workers)
    return _survivor_graphs(n, survey)
