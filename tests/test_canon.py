"""Canonical labeling: invariance, agreement with brute force, class counts."""

from __future__ import annotations

import hashlib
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings

from pancyclic import (
    are_isomorphic,
    build_graph,
    canonical_code,
    canonical_graph,
    canonical_labeling,
    complete,
    cycle,
    emit_graph6,
    empty,
    join,
)
from pancyclic import search
from pancyclic.canon import _Canonizer, _canonize, _pack, _root
from conftest import random_graph
from oracles import (
    NoBackjumpCanonizer,
    burnside_class_count,
    iter_labeled_graphs,
    normalized,
    perm_isomorphic,
    reference_canonize,
)
from test_graphs import graphs, petersen


def shuffled(rng: random.Random, g):
    perm = list(range(g.order))
    rng.shuffle(perm)
    return g.relabel(tuple(perm))


def test_code_invariant_under_relabeling():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(0, 11)
        g = random_graph(rng, n, rng.random())
        code = canonical_code(g)
        for _ in range(10):
            assert canonical_code(shuffled(rng, g)) == code


def test_canonical_graph_is_isomorphic_relabeling():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, 0.5)
        cg = canonical_graph(g)
        assert cg.order == g.order and cg.size == g.size
        assert sorted(cg.degrees()) == sorted(g.degrees())
        assert perm_isomorphic(n, g.edges(), cg.edges())


def test_canonical_labeling_realizes_canonical_graph():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, 0.4)
        lab = canonical_labeling(g)
        assert sorted(lab) == list(range(n))
        assert g.relabel(tuple(lab)) == canonical_graph(g)


def test_are_isomorphic_against_brute_force():
    rng = random.Random(4)
    hits = misses = 0
    while hits < 40 or misses < 40:
        n = rng.randint(2, 6)
        a = random_graph(rng, n, 0.5)
        b = shuffled(rng, a) if rng.random() < 0.5 else random_graph(rng, n, 0.5)
        want = perm_isomorphic(n, a.edges(), b.edges())
        assert are_isomorphic(a, b) == want
        hits += want
        misses += not want


def test_are_isomorphic_against_networkx():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 9)
        a, b = random_graph(rng, n, 0.5), random_graph(rng, n, 0.5)
        ha, hb = nx.Graph(), nx.Graph()
        ha.add_nodes_from(range(n))
        hb.add_nodes_from(range(n))
        ha.add_edges_from(a.edges())
        hb.add_edges_from(b.edges())
        assert are_isomorphic(a, b) == nx.is_isomorphic(ha, hb)


def test_naive_dedup_matches_burnside_small():
    # Group every labeled graph by canonical code; class counts must match
    # the cycle-index formula, which involves no canonical labeling at all.
    for n, expected in ((1, 1), (2, 2), (3, 4), (4, 11), (5, 34)):
        classes: dict[bytes, tuple] = {}
        for order, edges in iter_labeled_graphs(n):
            g = build_graph(order, edges)
            classes.setdefault(canonical_code(g).bits, (order, edges))
        assert len(classes) == expected
        assert burnside_class_count(n) == expected


def test_distinct_codes_are_non_isomorphic():
    rng = random.Random(6)
    reps = {}
    for order, edges in iter_labeled_graphs(4):
        g = build_graph(order, edges)
        reps.setdefault(canonical_code(g).bits, g)
    graphs_ = list(reps.values())
    for i in range(len(graphs_)):
        for j in range(i + 1, len(graphs_)):
            assert not perm_isomorphic(4, graphs_[i].edges(), graphs_[j].edges())


def test_code_regression_vectors():
    # Frozen values: exchanged codes must stay stable across releases.
    k4 = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert canonical_code(k4).hex() == "3f"
    assert emit_graph6(canonical_graph(k4)) == "C~"
    assert canonical_code(c5).hex() == "0323"
    assert emit_graph6(canonical_graph(c5)) == "DqK"
    assert canonical_code(petersen()).hex() == "1a220a24322c"
    assert emit_graph6(canonical_graph(petersen())) == "IsP@PGXD_"


def test_code_orders_differ():
    g1 = build_graph(2, [])
    g2 = build_graph(3, [])
    assert canonical_code(g1) != canonical_code(g2)
    assert not are_isomorphic(g1, g2)


def _union(g, copies: int):
    n = g.order
    return build_graph(
        n * copies, [(u + i * n, v + i * n) for i in range(copies) for u, v in g.edges()]
    )


def _circulant(n: int, jumps: tuple[int, ...]):
    return build_graph(
        n, sorted({(min(i, (i + j) % n), max(i, (i + j) % n)) for i in range(n) for j in jumps})
    )


def _cube(d: int):
    n = 1 << d
    return build_graph(
        n, [(u, u ^ (1 << b)) for u in range(n) for b in range(d) if u < u ^ (1 << b)]
    )


def _symmetric_corpus():
    # Symmetric worst cases from the perfbench batch stream (K6,6, Q4,
    # unions of equal components, its circulants) and the Petersen graph.
    return [
        join(empty(6), empty(6)),
        _cube(4),
        _union(complete(4), 3),
        _union(complete(7), 2),
        _union(cycle(7), 2),
        _circulant(10, (1, 2)),
        _circulant(11, (1, 2)),
        _circulant(12, (1, 4)),
        _circulant(13, (1, 5)),
        _circulant(14, (1, 2, 4)),
        petersen(),
    ]


class _Counts:
    """Counts the nodes (leaves included) and the leaves a canonizer visits."""

    def __init__(self, g):
        super().__init__(g)
        self.nodes = self.leaves = 0

    def _node(self, *args):
        self.nodes += 1
        return super()._node(*args)

    def _leaf(self, cells):
        self.leaves += 1
        return super()._leaf(cells)


class _Counted(_Counts, _Canonizer):
    pass


class _CountedOracle(_Counts, NoBackjumpCanonizer):
    pass


def _counted_run(cls, g):
    c = cls(g)
    c.run(_root(g))
    return c


def test_symmetric_worst_cases_complete_quickly():
    # Highly symmetric graphs exercise the orbit pruning and the backjump;
    # each code must survive a relabeling. K_n and the empty graph take n
    # leaves: the first leaf, then one at each of the n - 1 first-path nodes
    # above it, whose second child reaches a leaf that proves an
    # automorphism and jumps back; the orbit skip then covers every other
    # child (without the backjump they took n(n-1)/2 + 1).
    rng = random.Random(12)
    cases = [complete(14), empty(14), *_symmetric_corpus()]
    for g in cases:
        code = canonical_code(g)
        assert code.order == g.order
        assert canonical_code(shuffled(rng, g)) == code
        assert canonical_code(g.relabel(tuple(reversed(range(g.order))))) == code
    for n in range(3, 15):
        for g in (complete(n), empty(n)):
            assert _counted_run(_Counted, g).leaves == n, (n, g.size)


def _canon_corpus():
    rng = random.Random(13)
    cases = [random_graph(rng, rng.randint(0, 11), rng.random()) for _ in range(300)]
    return cases + [complete(10), empty(10), *_symmetric_corpus()]


def test_canonize_matches_reference_loops():
    # Skipping stable splitters and caching orbits must leave the search
    # tree, and so the code and the labeling, exactly as the plain loops.
    for g in _canon_corpus():
        code, perm, _ = _canonize(g)
        assert (code, perm) == reference_canonize(g.order, g.edges()), g.edges()


def test_canonize_from_the_root_matches_the_plain_call():
    # The covered walk computes a child's root partition first and resumes
    # canon from it: code, labeling and generator set are the same, and the
    # root is left as it was.
    for g in _canon_corpus():
        root = _root(g)
        before = repr(root)
        code, perm, gens = _canonize(g, root)
        want_code, want_perm, want_gens = _canonize(g)
        assert (code, perm, set(gens)) == (want_code, want_perm, set(want_gens)), g.edges()
        assert repr(root) == before


def _cells(g):
    cell = [0] * g.order
    for i, vs in enumerate(_root(g)[0]):
        for v in vs:
            cell[v] = i
    return cell


@settings(max_examples=200, deadline=None)
@given(graphs(max_order=10))
def test_root_cells_order_every_labeling_property(g):
    # The rank pre-filter of the augmentation trees rests on these two
    # facts: the canonical labeling puts a vertex of an earlier root cell at
    # a smaller position, and a vertex of higher degree lies in an earlier
    # root cell. Both hold for a relabeled copy too, whose root cells are
    # the relabeled root cells.
    rng = random.Random(g.size)
    moved = list(range(g.order))
    rng.shuffle(moved)
    copy = g.relabel(tuple(moved))
    copy_cell = _cells(copy)
    assert [copy_cell[moved[v]] for v in range(g.order)] == _cells(g), g.edges()
    for h in (g, copy):
        cell = _cells(h)
        _, perm, _ = _canonize(h)
        sigma = [0] * h.order
        for pos, v in enumerate(perm):
            sigma[v] = pos
        for u in range(h.order):
            for v in range(h.order):
                if cell[u] < cell[v]:
                    assert sigma[u] < sigma[v], (h.edges(), u, v)
                if h.degree(u) > h.degree(v):
                    assert cell[u] < cell[v], (h.edges(), u, v)


def test_canonize_generators_are_automorphisms():
    # The search skips moves by these generators, so each must map every
    # edge to an edge; the symmetric graphs must yield some.
    with_gens = 0
    for g in _canon_corpus():
        _, _, gens = _canonize(g)
        with_gens += bool(gens)
        for gamma in gens:
            assert sorted(gamma) == list(range(g.order)) and list(gamma) != sorted(gamma)
            assert g.relabel(gamma) == g, (g.edges(), gamma)
    assert with_gens > 20


def test_canonical_labeling_respects_degree_order():
    # deg u > deg v puts u at a smaller position; the augmentation trees'
    # cheap rejection rests on this.
    for g in _canon_corpus():
        _, perm, _ = _canonize(g)
        degs = [g.degree(v) for v in perm]
        assert degs == sorted(degs, reverse=True), g.edges()


# SHA-256 of every (code, labeling) over _frozen_corpus(). Canonical codes
# and labelings are exchanged between runs, so a change to canon that moves
# this digest changes the canonical form.
FROZEN_CORPUS_SHA256 = "11feeab758681bae15210e094346b5dd8bada396260f46640c1ba19917e4c6bc"


def _frozen_corpus():
    rng = random.Random(7)
    out = []
    for n in range(1, 15):
        for p in (0.15, 0.3, 0.5, 0.7):
            g = random_graph(rng, n, p)
            out += [g, shuffled(rng, g)]
        out += [complete(n), empty(n)]
    for g in _symmetric_corpus():
        out += [g, shuffled(rng, g)]
    return out


def test_canonical_labeling_frozen_corpus():
    digest = hashlib.sha256()
    corpus = _frozen_corpus()
    assert len(corpus) == 162
    for g in corpus:
        lab = ",".join(map(str, canonical_labeling(g)))
        digest.update(f"{g.order}:{canonical_code(g).hex()}:{lab}\n".encode())
    assert digest.hexdigest() == FROZEN_CORPUS_SHA256


def test_frozen_corpus_through_the_root_path():
    # The same digest when every graph is canonized from its root partition,
    # as the augmentation trees do.
    digest = hashlib.sha256()
    for g in _frozen_corpus():
        code, perm, _ = _canonize(g, _root(g))
        lab = [0] * g.order
        for pos, v in enumerate(perm):
            lab[v] = pos
        text = f"{g.order}:{_pack(g.order, code).hex()}:{','.join(map(str, lab))}\n"
        digest.update(text.encode())
    assert digest.hexdigest() == FROZEN_CORPUS_SHA256


@settings(max_examples=150, deadline=None)
@given(graphs(max_order=10))
def test_code_equality_iff_isomorphic_property(g):
    # A relabeling never changes the code; adding one edge always does.
    rng = random.Random(g.size)
    assert canonical_code(shuffled(rng, g)) == canonical_code(g)
    missing = [
        (u, v)
        for u in range(g.order)
        for v in range(u + 1, g.order)
        if not g.has_edge(u, v)
    ]
    if missing:
        h = g.with_edge(*missing[0])
        assert canonical_code(h) != canonical_code(g)


def _on_vertex(gamma, v):
    return gamma[v]


def _on_pair(gamma, pair):
    u, v = gamma[pair[0]], gamma[pair[1]]
    return (u, v) if u < v else (v, u)


def _orbit_labels(points, gens, image):
    # Smallest point of each point's orbit under ``gens``; ``image(gamma, p)``
    # is where gamma sends p.
    index = {p: i for i, p in enumerate(points)}
    parent = list(range(len(points)))
    for gamma in gens:
        for p in points:
            a, b = _find_root(parent, index[p]), _find_root(parent, index[image(gamma, p)])
            if a != b:
                parent[max(a, b)] = min(a, b)
    return [points[_find_root(parent, i)] for i in range(len(points))]


def _find_root(parent, x):
    while parent[x] != x:
        x = parent[x]
    return x


def _group_order(n, gens):
    # Closure of the generators: every product, by breadth-first search.
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for gamma in gens:
                q = tuple(gamma[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def _automorphism_count(g):
    edges = set(g.edges())
    return sum(
        all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in edges)
        for p in itertools.permutations(range(g.order))
    )


def _search_canonized(monkeypatch):
    # Every graph that min_size_edge_pancyclic(8) canonizes, in call order.
    seen = []
    canonize = search._canonize

    def recording(g, root=None):
        seen.append(g)
        return canonize(g, root)

    monkeypatch.setattr(search, "_canonize", recording)
    search.min_size_edge_pancyclic(8, workers=1)
    monkeypatch.undo()
    return seen


def test_backjump_matches_the_no_backjump_oracle(monkeypatch):
    # The backjump skips only subtrees that an automorphism maps onto
    # subtrees already searched: the code, the labeling and the generated
    # group stay the same, and no node or leaf is added.
    rng = random.Random(22)
    randoms = [random_graph(rng, n, rng.random()) for n in range(1, 15) for _ in range(20)]
    corpus = [*_frozen_corpus(), *_symmetric_corpus(), *randoms, *_search_canonized(monkeypatch)]
    assert len(corpus) > 600
    nodes = oracle_nodes = 0
    for g in corpus:
        n = g.order
        new, old = _counted_run(_Counted, g), _counted_run(_CountedOracle, g)
        assert (new.best_code, new.best_perm) == (old.best_code, old.best_perm), g.edges()
        vertices = list(range(n))
        pairs = list(itertools.combinations(vertices, 2))
        for points, image in ((vertices, _on_vertex), (pairs, _on_pair)):
            assert _orbit_labels(points, new.gen_set, image) == _orbit_labels(
                points, old.gen_set, image
            ), g.edges()
        if n <= 8:
            order = _group_order(n, new.gen_set)
            assert order == _group_order(n, old.gen_set), g.edges()
            if n <= 6:
                assert order == _automorphism_count(g), g.edges()
        assert new.nodes <= old.nodes and new.leaves <= old.leaves, g.edges()
        nodes += new.nodes
        oracle_nodes += old.nodes
    assert nodes < oracle_nodes
