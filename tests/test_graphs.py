"""Graph core: construction, graph6, layers, connectivity."""

from __future__ import annotations

import random
from itertools import chain

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pancyclic import (
    MAX_ORDER,
    Edge,
    Graph,
    Graph6Error,
    GraphError,
    GraphFilter,
    build_graph,
    canonical_code,
    cycle,
    diameter,
    distance_layers,
    eccentricity,
    emit_dot,
    edge_cycle_lengths,
    emit_graph6,
    empty,
    enumerate_graphs,
    is_connected,
    is_k_connected,
    min_degree,
    parse_graph6,
    vertex_connectivity,
    wheel,
)
from pancyclic.graphs import Block, edge_blocks, graph6_from_bits, graph_from_bits
from conftest import random_graph
from oracles import connectivity_by_deletion, normalized


def petersen() -> "Graph":
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return build_graph(10, edges)


# -- construction and accessors ----------------------------------------------


def test_build_graph_basic():
    g = build_graph(4, [(0, 1), (2, 3), (1, 2)])
    assert g.order == 4
    assert g.size == 3
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degrees() == (1, 2, 2, 1)
    assert list(g.neighbors(1)) == [0, 2]
    assert list(g.edges()) == [Edge(0, 1), Edge(1, 2), Edge(2, 3)]


def test_build_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        build_graph(-1, [])
    with pytest.raises(GraphError):
        build_graph(MAX_ORDER + 1, [])
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        build_graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1), (1, 0)])


def test_edge_normalisation():
    assert Edge.of(3, 1) == Edge(1, 3)
    assert Edge.of(1, 3) == (1, 3)


def test_with_and_without_edge():
    g = build_graph(3, [(0, 1)])
    g2 = g.with_edge(1, 2)
    assert g2.size == 2 and g2.has_edge(1, 2)
    assert g.size == 1  # immutable
    g3 = g2.without_edge(0, 1)
    assert g3.size == 1 and not g3.has_edge(0, 1)


def test_relabel_maps_edges():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    perm = (2, 0, 3, 1)  # vertex v -> perm[v]
    h = g.relabel(perm)
    want = normalized((perm[u], perm[v]) for u, v in g.edges())
    assert normalized(h.edges()) == want


# -- graph6 hand vectors (format spec worked out by hand) ---------------------


def test_graph6_hand_vectors():
    k1 = parse_graph6("@")
    assert (k1.order, k1.size) == (1, 0)
    k4 = parse_graph6("C~")
    assert (k4.order, k4.size) == (4, 6)
    assert all(k4.has_edge(u, v) for u in range(4) for v in range(u + 1, 4))
    c5 = parse_graph6("Dhc")
    assert (c5.order, c5.size) == (5, 5)
    assert normalized(c5.edges()) == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}


def test_graph6_emit_matches_hand_vectors():
    assert emit_graph6(build_graph(1, [])) == "@"
    assert emit_graph6(build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])) == "C~"
    assert emit_graph6(build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])) == "Dhc"


def test_graph6_optional_header():
    assert parse_graph6(">>graph6<<C~").size == 6


def test_graph6_error_offsets():
    with pytest.raises(Graph6Error) as e:
        parse_graph6("C")  # truncated body
    assert e.value.offset == 1
    with pytest.raises(Graph6Error) as e:
        parse_graph6("C~~~")  # overlong body
    assert e.value.offset == 2
    with pytest.raises(Graph6Error) as e:
        parse_graph6("~??")  # extended order form
    assert e.value.offset == 0
    with pytest.raises(Graph6Error) as e:
        parse_graph6("Dhc\x01")  # byte outside printable range
    assert e.value.offset == 3
    with pytest.raises(Graph6Error) as e:
        parse_graph6("B?\x1f")
    assert "offset" in str(e.value)


def test_graph6_padding_must_be_zero():
    # order 2: one pair bit, five padding bits; 'A' + chr(63 + 0b011111)
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(63 + 0b011111))


def test_graph6_roundtrip_random():
    rng = random.Random(42)
    for _ in range(1500):
        n = rng.randint(0, 20)
        g = random_graph(rng, n, rng.random())
        assert parse_graph6(emit_graph6(g)) == g
    for n in (32, 61, 62):
        g = random_graph(rng, n, 0.2)
        assert parse_graph6(emit_graph6(g)) == g


def test_graph_from_bits_inverts_graph6_from_bits():
    # The bits-to-graph read-out against both encoders, on random graphs of
    # every short-form order and some long-form ones, and on the empty and
    # complete extremes.
    rng = random.Random(5)
    for n in chain((rng.randint(0, 62) for _ in range(400)), (63, 64, 100, MAX_ORDER)):
        nbits = n * (n - 1) // 2
        bits = rng.getrandbits(nbits)
        for b in (bits, 0, (1 << nbits) - 1):
            g = graph_from_bits(n, b)
            assert g.order == n and g.size == b.bit_count()
            assert graph6_from_bits(n, b) == emit_graph6(g)
            assert parse_graph6(emit_graph6(g)) == g
        h = random_graph(rng, n, rng.random())
        triangle = 0  # h's upper triangle, column by column, first entry high
        for v in range(1, n):
            for u in range(v):
                triangle = (triangle << 1) | h.has_edge(u, v)
        assert graph_from_bits(n, triangle) == h
        assert graph6_from_bits(n, triangle) == emit_graph6(h)
    for n, bits in ((3, 8), (3, -1), (MAX_ORDER + 1, 0), (-1, 0)):
        with pytest.raises(GraphError):
            graph_from_bits(n, bits)


def test_graph6_long_form_round_trips():
    # Orders 63 up take the long form: byte 126, then the order in three
    # 6-bit groups.
    for n in (63, 64, MAX_ORDER):
        for g in (build_graph(n, []), wheel(n)):
            text = emit_graph6(g)
            assert text[:4] == "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
            assert parse_graph6(text) == g
    with pytest.raises(GraphError, match=f"order {MAX_ORDER + 1} "):
        graph6_from_bits(MAX_ORDER + 1, 0)


def test_graph6_long_form_rejections():
    # Each names byte 126, the start of the order field, with or without
    # the optional header: a long form of a short-form order, an order over
    # the cap, the 8-byte form, a truncated order field.
    body = "?" * ((63 * 62 // 2 + 5) // 6)
    cases = (
        "~??}" + "?" * ((62 * 61 // 2 + 5) // 6),
        "~" + "".join(chr(((MAX_ORDER + 1) >> s & 63) + 63) for s in (12, 6, 0)),
        "~~?????~" + body,
        "~",
        "~?",
    )
    for text in cases:
        for header in ("", ">>graph6<<"):
            with pytest.raises(Graph6Error) as e:
                parse_graph6(header + text)
            assert e.value.offset == len(header), text
    # Past the long header, offsets count its four bytes.
    with pytest.raises(Graph6Error) as e:
        parse_graph6("~??~" + body + "?")
    assert e.value.offset == 4 + len(body)
    with pytest.raises(Graph6Error) as e:
        parse_graph6("~??~" + body[:-1] + "@")  # order 63: 1953 bits, 3 padding
    assert e.value.offset == 3 + len(body)


def test_max_order_fits_the_recursion_depth():
    # The cap's reason: the path DFS recurses once per path vertex and the
    # canonizer once per individualized vertex, at the default limit.
    assert edge_cycle_lengths(cycle(MAX_ORDER), (0, 1)) == {MAX_ORDER}
    assert canonical_code(empty(MAX_ORDER)).graph6() == emit_graph6(empty(MAX_ORDER))


def test_graph6_against_networkx():
    rng = random.Random(7)
    for n in chain((rng.randint(1, 15) for _ in range(300)), (62, 63, 64, 100, MAX_ORDER)):
        g = random_graph(rng, n, rng.random())
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        ours = emit_graph6(g)
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert normalized(back.edges()) == normalized(g.edges())


def test_emit_dot_deterministic():
    g = build_graph(3, [(0, 1), (1, 2)])
    out = emit_dot(g)
    assert out == emit_dot(g)
    assert "0 -- 1" in out and "1 -- 2" in out


def test_emit_dot_text_of_wheel_4():
    # Every vertex line in order, then every edge (u < v) in row order.
    assert emit_dot(wheel(4)) == (
        "graph g {\n"
        "  0;\n  1;\n  2;\n  3;\n"
        "  0 -- 1;\n  0 -- 2;\n  0 -- 3;\n  1 -- 2;\n  1 -- 3;\n  2 -- 3;\n"
        "}\n"
    )


# -- layers, connectivity ------------------------------------------------------


def test_distance_layers_wheel():
    hub_to_rim = [(0, i) for i in range(1, 6)]
    rim = [(i, i % 5 + 1) for i in range(1, 6)]
    w6 = build_graph(6, hub_to_rim + rim)
    from_hub = distance_layers(w6, 0)
    assert [sorted(layer) for layer in from_hub.layers] == [[0], [1, 2, 3, 4, 5]]
    assert from_hub.eccentricity == 1
    from_rim = distance_layers(w6, 1)
    assert from_rim.sizes() == (1, 3, 2)
    assert from_rim.eccentricity == 2
    assert eccentricity(w6, 0) == 1
    assert diameter(w6) == 2


def test_distance_layers_unreachable_named():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(GraphError) as e:
        distance_layers(g, 0)
    assert "2" in str(e.value)
    with pytest.raises(GraphError, match="vertex 2 unreachable from 1"):
        eccentricity(g, 1)
    for source in (-1, 3):
        with pytest.raises(GraphError, match=f"source vertex {source} outside 0..2"):
            eccentricity(g, source)


def test_connectivity_hand_values():
    k5 = build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    assert vertex_connectivity(k5) == 4
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert vertex_connectivity(c6) == 2
    p5 = build_graph(5, [(i, i + 1) for i in range(4)])
    assert vertex_connectivity(p5) == 1
    two_parts = build_graph(4, [(0, 1), (2, 3)])
    assert vertex_connectivity(two_parts) == 0
    k33 = build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    assert vertex_connectivity(k33) == 3
    assert vertex_connectivity(petersen()) == 3
    with pytest.raises(GraphError):
        vertex_connectivity(build_graph(1, []))


def test_connectivity_against_deletion_oracle():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.choice((0.3, 0.5, 0.8)))
        assert vertex_connectivity(g) == connectivity_by_deletion(n, g.edges())
    # Every connected graph up to order 7, at every cutoff. The flow sources
    # are the lowest labels, so each class also runs randomly relabeled.
    count = 0
    for n in range(2, 8):
        for g in enumerate_graphs(n, graph_filter=GraphFilter(connectivity=1)):
            kappa = connectivity_by_deletion(n, g.edges())
            perm = list(range(n))
            rng.shuffle(perm)
            for h in (g, g.relabel(perm)):
                assert vertex_connectivity(h) == kappa
                for cutoff in range(n):
                    assert vertex_connectivity(h, cutoff=cutoff) == min(kappa, cutoff)
            count += 1
    assert count == 1 + 2 + 6 + 21 + 112 + 853


def test_is_k_connected_matches_kappa():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, 0.5)
        kappa = vertex_connectivity(g)
        for k in range(0, n):
            assert is_k_connected(g, k) == (kappa >= k)


def test_is_connected():
    assert is_connected(build_graph(1, []))
    assert is_connected(build_graph(3, [(0, 1), (1, 2)]))
    assert not is_connected(build_graph(3, [(0, 1)]))
    with pytest.raises(GraphError):
        diameter(build_graph(3, [(0, 1)]))


# -- biconnected blocks ---------------------------------------------------------


def networkx_blocks(g) -> dict:
    nxg = nx.Graph(list(g.edges()))
    want = {}
    for comp in nx.biconnected_component_edges(nxg):
        comp = list(comp)
        mask = 0
        for u, v in comp:
            mask |= (1 << u) | (1 << v)
        block = Block(mask, nx.is_bipartite(nx.Graph(comp)))
        for u, v in comp:
            want[Edge.of(u, v)] = block
    return want


def test_edge_blocks_hand_cases():
    bowtie = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    blocks = edge_blocks(bowtie)
    assert blocks[Edge(0, 1)] == Block(0b00111, False)
    assert blocks[Edge(3, 4)] == Block(0b11100, False)
    bridged = build_graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    assert edge_blocks(bridged)[Edge(2, 3)] == Block(0b001100, True)
    assert edge_blocks(bridged)[Edge(2, 3)].order == 2
    square = edge_blocks(build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert set(square.values()) == {Block(0b1111, True)}
    assert edge_blocks(build_graph(3, [])) == {}
    assert set(edge_blocks(petersen()).values()) == {Block((1 << 10) - 1, False)}


def test_edge_blocks_against_networkx():
    rng = random.Random(41)
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 14), rng.choice((0.1, 0.2, 0.35, 0.6)))
        assert edge_blocks(g) == networkx_blocks(g)


def test_edge_blocks_need_no_recursion():
    # Order 3000 runs a DFS deeper than the recursion limit; the 64-vertex
    # cap of build_graph is bypassed through the trusted constructor.
    n = 3000
    rows = [0] * n
    for i in range(n - 1):
        rows[i] |= 1 << (i + 1)
        rows[i + 1] |= 1 << i
    path = edge_blocks(Graph(n, tuple(rows)))
    assert len(path) == n - 1
    for e, block in path.items():
        assert block == Block((1 << e.u) | (1 << e.v), True) and block.order == 2
    rows[0] |= 1 << (n - 1)
    rows[n - 1] |= 1
    ring = edge_blocks(Graph(n, tuple(rows)))
    assert len(ring) == n
    assert set(ring.values()) == {Block((1 << n) - 1, True)}
    rows = [0] * (n - 1)  # an odd cycle is one block, not bipartite
    for i in range(n - 1):
        j = (i + 1) % (n - 1)
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    assert set(edge_blocks(Graph(n - 1, tuple(rows))).values()) == {
        Block((1 << (n - 1)) - 1, False)
    }


# -- property-based -----------------------------------------------------------


@st.composite
def graphs(draw, max_order=12):
    n = draw(st.integers(min_value=0, max_value=max_order))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return build_graph(n, picks)


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_roundtrip_property(g):
    assert parse_graph6(emit_graph6(g)) == g


@settings(max_examples=100, deadline=None)
@given(graphs(max_order=9))
def test_whitney_inequality(g):
    # vertex connectivity never exceeds minimum degree
    if g.order >= 2:
        assert vertex_connectivity(g) <= min_degree(g)


@settings(max_examples=100, deadline=None)
@given(graphs(max_order=9))
def test_diameter_is_max_eccentricity(g):
    if g.order >= 1 and is_connected(g):
        assert diameter(g) == max(eccentricity(g, v) for v in range(g.order))
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.order))
        nxg.add_edges_from(g.edges())
        assert diameter(g) == nx.diameter(nxg)  # an oracle outside the module
        ecc = nx.eccentricity(nxg)
        assert all(eccentricity(g, v) == ecc[v] for v in range(g.order))
