"""Constructed families: orders, sizes, labels, basic structural facts."""

from __future__ import annotations

import hashlib

import pytest

from pancyclic import (
    FAMILY_NAMES,
    MAX_ORDER,
    FamilySpec,
    GraphError,
    a_graph,
    are_isomorphic,
    build_graph,
    complete,
    cycle,
    diameter,
    emit_dot,
    emit_graph6,
    empty,
    fan,
    g_ring,
    h_block,
    h_block_spine_edges,
    has_triangle_cover,
    is_k_connected,
    join,
    odd_extremal,
    part_from_token,
    path,
    q_graph,
    sequential_join,
    wheel,
)


def test_basic_families():
    assert (cycle(5).order, cycle(5).size) == (5, 5)
    assert (path(5).order, path(5).size) == (5, 4)
    assert (complete(6).order, complete(6).size) == (6, 15)
    assert (empty(4).order, empty(4).size) == (4, 0)
    with pytest.raises(GraphError):
        cycle(2)
    with pytest.raises(GraphError):
        path(0)


def test_wheel_structure():
    for n in range(4, 10):
        w = wheel(n)
        assert (w.order, w.size) == (n, 2 * n - 2)
        assert w.degree(0) == n - 1  # hub
        assert sorted(w.degrees())[:-1] == [3] * (n - 1)
    assert are_isomorphic(wheel(4), complete(4))
    with pytest.raises(GraphError):
        wheel(3)


def test_fan_structure():
    for n in range(3, 8):
        f = fan(n)
        assert (f.order, f.size) == (n, 2 * n - 3)
        assert f.degree(0) == n - 1


def test_join_against_wheel():
    assert are_isomorphic(join(complete(1), cycle(4)), wheel(5))
    g = join(path(2), empty(3))
    assert (g.order, g.size) == (5, 1 + 6)


def test_join_is_the_two_part_sequential_join():
    # Same vertex numbering, not only the same class: g's vertices first,
    # then h's shifted by g.order, and every edge between the two parts.
    for g, h in ((complete(1), cycle(4)), (path(2), empty(3)), (cycle(5), complete(2))):
        n = g.order + h.order
        edges = list(g.edges()) + [(u + g.order, v + g.order) for u, v in h.edges()]
        edges += [(u, g.order + v) for u in range(g.order) for v in range(h.order)]
        assert join(g, h) == sequential_join([g, h]) == build_graph(n, edges)
    with pytest.raises(GraphError, match=f"order {MAX_ORDER + 1} outside"):
        join(complete(40), empty(MAX_ORDER - 39))


def test_constructions_match_their_frozen_text():
    # graph6 and DOT of the joins and of the families built on them, as one
    # digest: a change to any vertex numbering or to the DOT text shows here.
    graphs = [
        wheel(4), wheel(9), fan(7), join(complete(1), cycle(4)), join(path(2), empty(3)),
        join(cycle(5), complete(2)),
        sequential_join([complete(1), cycle(3), empty(2), complete(2)]),
        q_graph(13), h_block(3).graph,
    ]
    for name, options in (
        ("join", {"parts": ["K1", "C5"]}), ("seq-join", {"parts": ["K2", "C3", "E2", "K1"]}),
        ("wheel", {"n": 7}), ("fan", {"n": 6}),
    ):
        graphs.append(FamilySpec(name, **options).build()[0])
    text = "".join(emit_graph6(g) + "\n" + emit_dot(g) for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a47ebb9256e2de917f6a000523a01de577dbdea6943de1825e3b307ac6ed0092"
    )


def test_sequential_join_chains_consecutive_parts_only():
    g = sequential_join([complete(1), cycle(3), complete(1)])
    # 3 cycle edges + 3 + 3 join edges; the two K1 ends are non-adjacent
    assert (g.order, g.size) == (5, 9)
    assert not g.has_edge(0, 4)
    assert are_isomorphic(sequential_join([complete(1), cycle(4)]), wheel(5))


def test_part_from_token():
    assert are_isomorphic(part_from_token("K3"), complete(3))
    assert are_isomorphic(part_from_token("C5"), cycle(5))
    assert are_isomorphic(part_from_token("P4"), path(4))
    assert are_isomorphic(part_from_token("E2"), empty(2))
    for bad in ("X3", "K", "C2", "", f"K{MAX_ORDER + 1}"):
        with pytest.raises(GraphError):
            part_from_token(bad)


def test_even_extremal_family():
    for n in (8, 10, 12):
        lab = a_graph(n)
        g = lab.graph
        assert (g.order, g.size) == (n, 3 * n // 2)
        assert has_triangle_cover(g).verdict is True
        assert is_k_connected(g, 2)
        q = n // 2
        for i in range(1, q + 1):
            u = lab.labels[f"u{i}"]
            assert g.degree(u) == 2
    with pytest.raises(GraphError):
        a_graph(9)
    with pytest.raises(GraphError):
        a_graph(6)


def test_odd_extremal_families():
    for n in (9, 11):
        graphs = {}
        for kind in "FGH":
            lab = odd_extremal(kind, n)
            g = lab.graph
            assert (g.order, g.size) == (n, (3 * n + 1) // 2)
            assert has_triangle_cover(g).verdict is True
            assert is_k_connected(g, 2)
            graphs[kind] = g
        assert not are_isomorphic(graphs["F"], graphs["G"])
        assert not are_isomorphic(graphs["F"], graphs["H"])
        assert not are_isomorphic(graphs["G"], graphs["H"])
    with pytest.raises(GraphError):
        odd_extremal("F", 8)
    with pytest.raises(GraphError):
        odd_extremal("X", 9)


def test_h_block_shape():
    for k in (3, 4, 5, 6):
        lab = h_block(k)
        g = lab.graph
        assert (g.order, g.size) == (6 * k - 4, 12 * k - 11)
        spine = h_block_spine_edges(lab)
        assert len(spine) == 6 * k - 5
        for u, v in spine:
            assert g.has_edge(u, v)
        for name in ("v", "u", "v1", "u1"):
            assert name in lab.labels
        assert g.has_edge(lab.labels["v"], lab.labels["u"])
    with pytest.raises(GraphError):
        h_block(2)


def test_ring_construction():
    for k in (3, 4):
        g = g_ring(k).graph
        assert (g.order, g.size) == (6 * k * k - 5 * k, 2 * (6 * k * k - 5 * k) - k)
        assert has_triangle_cover(g).verdict is True
    with pytest.raises(GraphError):
        g_ring(2)
    # k = 7 has order 259, over the cap; the error names the ring's order.
    with pytest.raises(GraphError, match="order 259 outside"):
        g_ring(7)


def test_diameter_family_order_and_diameter():
    for n in range(10, 26):
        g = q_graph(n)
        assert g.order == n
        assert diameter(g) == 2 * n // 5
    assert diameter(q_graph(MAX_ORDER)) == 2 * MAX_ORDER // 5
    with pytest.raises(GraphError):
        q_graph(9)
    with pytest.raises(GraphError):
        q_graph(MAX_ORDER + 1)


def test_family_spec_dispatch():
    g, labels = FamilySpec("wheel", n=6).build()
    assert are_isomorphic(g, wheel(6)) and labels is None
    g, labels = FamilySpec("h-block", k=3).build()
    assert g.order == 14 and labels["v"] == 0
    g, labels = FamilySpec("odd-extremal", n=9, kind="G").build()
    assert g.size == 14
    g, _ = FamilySpec("seq-join", parts=("K1", "C4")).build()
    assert are_isomorphic(g, wheel(5))
    g, _ = FamilySpec("join", parts=("K1", "C4")).build()
    assert are_isomorphic(g, wheel(5))
    with pytest.raises(GraphError):
        FamilySpec("wheel").build()  # --n missing
    with pytest.raises(GraphError):
        FamilySpec("no-such-family", n=5).build()
    for name in FAMILY_NAMES:
        assert isinstance(name, str) and name
