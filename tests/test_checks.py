"""Predicate checks against brute-force enumeration oracles."""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings

from pancyclic import (
    Edge,
    GraphError,
    a_graph,
    checks,
    build_graph,
    complete,
    cycle,
    cycle_spectrum,
    edge_cycle_lengths,
    empty,
    enumerate_graphs,
    families,
    g_ring,
    h_block,
    has_triangle_cover,
    is_edge_pancyclic,
    is_pancyclic,
    is_vertex_pancyclic,
    join,
    path,
    path_length_set,
    q_graph,
    verify_distance_layer_bounds,
    verify_h_block_properties,
    wheel,
    GraphFilter,
)
from conftest import random_connected_graph, random_graph
from oracles import (
    ExchangeOnlyProbes,
    NoHamiltonCertificateProbes,
    PlainProbes,
    ReuseOnlyProbes,
    TwoTableProbes,
    all_simple_paths_between,
    edge_spectrum,
    normalized,
    plain_find_exact_path,
)
from test_graphs import graphs


# -- spectra against full cycle enumeration -----------------------------------


def assert_spectrum_matches_oracle(g):
    want = edge_spectrum(g.order, g.edges())
    got = cycle_spectrum(g)
    assert got.complete
    assert {tuple(e) for e in got.lengths_by_edge} == set(want)
    for e, lengths in got.lengths_by_edge.items():
        assert set(lengths) == want[tuple(e)], f"edge {e}"


def test_spectrum_oracle_all_connected_up_to_6():
    count = 0
    for n in range(2, 7):
        flt = GraphFilter(connectivity=1)
        for g in enumerate_graphs(n, graph_filter=flt):
            assert_spectrum_matches_oracle(g)
            count += 1
    assert count == 1 + 2 + 6 + 21 + 112


def test_spectrum_oracle_random_orders_7_to_9():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(7, 9)
        g = random_connected_graph(rng, n, rng.choice((0.25, 0.5)))
        assert_spectrum_matches_oracle(g)


def test_spectrum_hand_cases():
    assert set(edge_cycle_lengths(cycle(5), (0, 1))) == {5}
    assert set(edge_cycle_lengths(complete(4), (0, 1))) == {3, 4}
    assert set(edge_cycle_lengths(wheel(6), (0, 1))) == {3, 4, 5, 6}
    with pytest.raises(GraphError):
        edge_cycle_lengths(cycle(4), (0, 2))


def test_probe_edges_outside_the_graph_raise():
    # Out of range, a negative shift, and a negative index that reads the
    # last vertex's row: each is refused before any probe.
    g = wheel(6)
    for e in ((20, 0), (0, -1), (-1, 0)):
        with pytest.raises(GraphError):
            edge_cycle_lengths(g, e)
        with pytest.raises(GraphError):
            cycle_spectrum(g, edges=[e])


def test_path_length_set_against_oracle():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, 0.5)
        a, b = rng.sample(range(n), 2)
        want = {len(p) - 1 for p in all_simple_paths_between(n, g.edges(), a, b)}
        assert path_length_set(g, a, b) == want
        targets = (2, 3)
        assert path_length_set(g, a, b, targets) == want & set(targets)


# -- named predicates ----------------------------------------------------------


def test_triangle_cover_hand_cases():
    assert has_triangle_cover(cycle(3)).verdict is True
    rep = has_triangle_cover(cycle(4))
    assert rep.verdict is False
    assert rep.evidence["uncovered_edges"]
    assert has_triangle_cover(complete(4)).verdict is True
    bowtie = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert has_triangle_cover(bowtie).verdict is True
    # no edges: vacuously covered
    assert has_triangle_cover(build_graph(3, [])).verdict is True


def test_triangle_cover_equals_three_in_every_spectrum():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 7), 0.5)
        spectrum = cycle_spectrum(g)
        want = all(3 in ls for ls in spectrum.lengths_by_edge.values())
        assert has_triangle_cover(g).verdict is want


def test_edge_pancyclic_families():
    for n in range(4, 10):
        assert is_edge_pancyclic(wheel(n)).verdict is True
    rep = is_edge_pancyclic(cycle(4))
    assert rep.verdict is False
    assert rep.evidence["missing_length"] == 3
    assert tuple(rep.evidence["missing_edge"]) == (0, 1)
    assert is_edge_pancyclic(complete(4)).verdict is True
    assert is_edge_pancyclic(cycle(3)).verdict is True


def test_edge_pancyclic_witnesses_are_real_cycles():
    g = wheel(7)
    rep = is_edge_pancyclic(g, witnesses=True)
    assert rep.verdict is True
    witnesses = rep.evidence["witnesses"]
    assert len(witnesses) == g.size
    for key, by_length in witnesses.items():
        u, v = (int(x) for x in key.split("-"))
        assert g.has_edge(u, v)
        assert sorted(int(k) for k in by_length) == list(range(3, g.order + 1))
        for length, verts in by_length.items():
            assert len(verts) == int(length) == len(set(verts))
            assert {u, v}.issubset(verts)
            for i in range(len(verts)):
                assert g.has_edge(verts[i], verts[(i + 1) % len(verts)])
            cyc_edges = normalized(
                (verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))
            )
            assert (u, v) in cyc_edges


def test_predicate_separations():
    # vertex-pancyclic but not edge-pancyclic: K4 plus a vertex on one edge
    g = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 0), (4, 1)])
    assert is_pancyclic(g).verdict is True
    assert is_vertex_pancyclic(g).verdict is True
    rep = is_edge_pancyclic(g)
    assert rep.verdict is False
    # pancyclic but not vertex-pancyclic: wheel missing one spoke
    h = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (4, 1)])
    assert is_pancyclic(h).verdict is True
    rep = is_vertex_pancyclic(h)
    assert rep.verdict is False
    assert rep.evidence == {"missing_vertex": 4, "missing_length": 3}
    rep = is_vertex_pancyclic(h, budget=0)
    assert rep.verdict is None
    assert rep.evidence == {"undecided_vertex": 0, "undecided_length": 3}
    # not pancyclic at all
    rep = is_pancyclic(cycle(5))
    assert rep.verdict is False
    assert rep.evidence == {"missing_length": 3}
    rep = is_pancyclic(h, budget=0)
    assert rep.verdict is None
    assert rep.evidence == {"undecided_length": 3}


def test_predicate_implication_chain():
    rng = random.Random(29)
    seen_ep = 0
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(4, 7), 0.6)
        ep = is_edge_pancyclic(g).verdict
        vp = is_vertex_pancyclic(g).verdict
        p = is_pancyclic(g).verdict
        if ep:
            assert vp and p
            seen_ep += 1
        if vp:
            assert p
    assert seen_ep > 0


# -- budget semantics ----------------------------------------------------------


def test_budget_yields_unknown_not_wrong():
    rep = is_edge_pancyclic(q_graph(20), budget=5)
    assert rep.verdict is None
    assert any(k.startswith("undecided") for k in rep.evidence)
    rng = random.Random(31)
    undecided = set()
    # 11 is the largest budget at which every check below leaves some graph
    # undecided.
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(4, 7), 0.5)
        for check in (is_edge_pancyclic, is_vertex_pancyclic, is_pancyclic):
            budgeted = check(g, budget=11).verdict
            if budgeted is None:
                undecided.add(check.__name__)
            else:
                assert budgeted == check(g).verdict
        full = cycle_spectrum(g).lengths_by_edge
        part = cycle_spectrum(g, budget=11)
        for e, lengths in part.lengths_by_edge.items():
            assert lengths <= full[e]
        if part.complete:
            assert part.lengths_by_edge == full
        else:
            undecided.add("cycle_spectrum")
    assert len(undecided) == 4
    for call in (
        lambda: is_edge_pancyclic(wheel(5), budget=-1),
        lambda: is_vertex_pancyclic(wheel(5), budget=-1),
        lambda: is_pancyclic(wheel(5), budget=-1),
        lambda: cycle_spectrum(wheel(5), budget=-1),
        lambda: verify_h_block_properties(3, budget=-1),
    ):
        with pytest.raises(GraphError):
            call()


class _CountingProbe:
    """Stands in for ``checks._probe``: counts its calls and the DFS nodes
    they expand, then runs the real probe."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.nodes = 0
        self.seen = []  # (a, b, path length) of every call
        self.marks = []  # nodes expanded before every call
        self._probe = checks._probe
        monkeypatch.setattr(checks, "_probe", self)

    def __call__(self, adj, a, b, length, budget, required=None):
        self.calls += 1
        self.seen.append((a, b, length))
        self.marks.append(self.nodes)
        counted = _CountingBudget(budget)
        try:
            return self._probe(adj, a, b, length, counted, required)
        finally:
            self.nodes += counted.nodes


class _CountingBudget:
    """A node budget proxy: counts the nodes that the wrapped budget grants."""

    def __init__(self, inner):
        self.inner = inner
        self.nodes = 0

    def spend(self):
        ok = self.inner.spend()
        self.nodes += ok
        return ok


def test_probe_count_matches_probe_calls(monkeypatch):
    counter = _CountingProbe(monkeypatch)
    sample = [wheel(7), q_graph(10), cycle(6), complete(5)]
    runs = [
        lambda g, b: is_edge_pancyclic(g, budget=b),
        lambda g, b: is_edge_pancyclic(g, budget=b, witnesses=True),
        lambda g, b: is_vertex_pancyclic(g, budget=b),
        lambda g, b: is_pancyclic(g, budget=b),
    ]
    for g in sample:
        for run in runs:
            for budget in (None, 40, 300):
                before = counter.calls
                rep = run(g, budget)
                assert rep.stats["probes"] == counter.calls - before
    for budget in (None, 300, 4520):
        before = counter.calls
        rep = verify_h_block_properties(3, budget=budget)
        assert rep.stats["probes"] == counter.calls - before


def battery_nodes(monkeypatch, k=3):
    """The DFS nodes that the unbudgeted battery for ``k`` expands: the
    total, and the nodes expanded before and after the probe of P5's
    spectrum at length 3k, the first length past P5's own need."""
    with monkeypatch.context() as m:
        counter = _CountingProbe(m)
        assert verify_h_block_properties(k).verdict is True
    names = families.h_block(k).labels
    i = counter.seen.index((names["v"], names["u"], 3 * k - 1))
    marks = counter.marks + [counter.nodes]
    return counter.nodes, marks[i], marks[i + 1]


def test_block_battery_budget_covers_p5_spectrum(monkeypatch):
    total, tail_start, tail_end = battery_nodes(monkeypatch)
    assert tail_start + 1 < tail_end  # the probe at length 9 expands nodes
    counter = _CountingProbe(monkeypatch)
    # A budget one node short stops the battery after P5's spectrum.
    rep = verify_h_block_properties(3, budget=total - 1)
    assert counter.nodes <= total - 1
    assert rep.verdict is None
    assert rep.stats["budget_left"] == 0
    assert "undecided" in rep.evidence and "failed" not in rep.evidence
    assert "P5" in rep.evidence
    # A stop inside the spectrum tail (lengths 3k .. 6k-4) leaves P5 undecided.
    rep = verify_h_block_properties(3, budget=(tail_start + tail_end) // 2)
    assert rep.verdict is None
    assert rep.evidence["undecided"] == {"property": "P5", "length": 9}
    assert "P4" in rep.evidence and "P5" not in rep.evidence


# -- block and parity certificates ---------------------------------------------


class _UnmaskedProbes(checks._Probes):
    """The unpruned engine, the oracle for the block certificates: every
    cycle probe that no recorded cycle answers runs the DFS on the whole
    graph without the edge."""

    def _search(self, a, b, length):
        self.probes += 1
        return checks._probe(self.g.without_edge(a, b).adj, a, b, length - 1, self.shared)


def unmasked(monkeypatch, run):
    with monkeypatch.context() as m:
        m.setattr(checks, "_Probes", _UnmaskedProbes)
        return run()


def disjoint(*parts):
    edges, base = [], 0
    for g in parts:
        edges += [(u + base, v + base) for u, v in g.edges()]
        base += g.order
    return build_graph(base, edges)


def hypercube(d):
    n = 1 << d
    return build_graph(n, [(v, v ^ (1 << i)) for v in range(n) for i in range(d) if v < v ^ (1 << i)])


K25 = join(empty(2), empty(5))
K34 = join(empty(3), empty(4))
TWO_TRIANGLES_BRIDGED = build_graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
BOWTIE = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
# K4 on 0..3 and C4 on 3..6 share vertex 3: the largest block has order 4 of 7.
K4_C4 = build_graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                        (3, 4), (4, 5), (5, 6), (3, 6)])
NAMED = [K25, K34, hypercube(3), cycle(8), TWO_TRIANGLES_BRIDGED, BOWTIE, K4_C4,
         disjoint(complete(4), complete(4)), disjoint(cycle(5), cycle(5))]

_CHECKS = (
    lambda g, b: is_edge_pancyclic(g, budget=b, witnesses=True),
    lambda g, b: is_vertex_pancyclic(g, budget=b),
    lambda g, b: is_pancyclic(g, budget=b),
)


def test_block_certificates_match_unmasked_probes(monkeypatch):
    corpus = list(NAMED)
    for n in range(3, 8):
        corpus += enumerate_graphs(n, graph_filter=GraphFilter(connectivity=1))
    assert len(corpus) == len(NAMED) + 2 + 6 + 21 + 112 + 853
    for g in corpus:
        assert cycle_spectrum(g) == unmasked(monkeypatch, lambda: cycle_spectrum(g))
        for check in _CHECKS:
            full = check(g, None)
            ref = unmasked(monkeypatch, lambda: check(g, None))
            assert (full.verdict, full.evidence) == (ref.verdict, ref.evidence)
            # Every cycle probe of the oracle is a DFS or a certificate here.
            assert full.stats["probes"] + full.stats["certified"] == ref.stats["probes"]
            assert ref.stats["certified"] == 0
            for budget in (5, 40, 300):
                got = check(g, budget)
                ref = unmasked(monkeypatch, lambda: check(g, budget))
                if got.verdict is not None:
                    assert got.verdict == full.verdict
                if ref.verdict is not None:  # decided there, decided alike here
                    assert (got.verdict, got.evidence) == (ref.verdict, ref.evidence)
                    assert got.stats["budget_left"] >= ref.stats["budget_left"]
        # A spectrum that the oracle completes within a budget completes here too.
        for budget in (5, 40, 300):
            ref = unmasked(monkeypatch, lambda: cycle_spectrum(g, budget=budget))
            if ref.complete:
                assert cycle_spectrum(g, budget=budget) == ref


def test_certified_lengths_never_reach_the_dfs(monkeypatch):
    counter = _CountingProbe(monkeypatch)
    reused = []  # each cycle pair that a recorded cycle answered

    class Logged(checks._Probes):
        def _answer(self, a, b, length):
            before = self.reused
            out = super()._answer(a, b, length)
            if self.reused > before:
                reused.append((Edge.of(a, b), length))
            return out

    monkeypatch.setattr(checks, "_Probes", Logged)
    # Cycle lengths that must still be probed or reused, per edge; all
    # others are certified: odd lengths in a bipartite block, every length
    # through a bridge, and lengths above the order of the edge's block.
    cases = [
        (K34, {e: {4, 6} for e in K34.edges()}),
        (TWO_TRIANGLES_BRIDGED,
         {e: set() if e == (2, 3) else {3} for e in TWO_TRIANGLES_BRIDGED.edges()}),
        (K4_C4, {e: {3, 4} if e.v <= 3 else {4} for e in K4_C4.edges()}),
    ]
    for g, probed in cases:
        start, reused_start = counter.calls, len(reused)
        spec = cycle_spectrum(g)
        assert spec.complete
        got = [(Edge.of(a, b), length + 1) for a, b, length in counter.seen[start:]]
        got += reused[reused_start:]
        assert sorted(got) == sorted((e, p) for e, ps in probed.items() for p in ps)
        for check in _CHECKS:
            rep = check(g, None)
            ref = unmasked(monkeypatch, lambda: check(g, None))
            assert rep.stats["certified"] > 0
            assert rep.stats["probes"] + rep.stats["certified"] == ref.stats["probes"]
    # A path is all bridges: its spectrum needs no DFS at all.
    start = counter.calls
    assert cycle_spectrum(path(6), edges=[(0, 1)]).lengths_by_edge == {Edge(0, 1): frozenset()}
    assert counter.calls == start


def test_path_kernel_matches_plain_dfs():
    # Every (a, b, length), without a required edge and through a random
    # one, against the DFS without the sink, early-stop and one-step-close
    # shortcuts: the same witness or None, no more nodes, and a budget of
    # the plain DFS's node count always decides.
    rng = random.Random(37)
    corpus = list(NAMED) + [
        random_connected_graph(rng, n, density)
        for n in range(4, 12)
        for density in (0.1, 0.25, 0.4, 0.6)
        for _ in range(2)
    ]
    probes = nodes = plain_nodes = 0
    for g in corpus:
        edges = [tuple(e) for e in g.edges()]
        for a in range(g.order):
            for b in range(g.order):
                if a == b:
                    continue
                for length in range(1, g.order):
                    for required in (None, rng.choice(edges)):
                        ref = _CountingBudget(checks._Budget(None))
                        want = plain_find_exact_path(g.adj, a, b, length, ref, required)
                        got = _CountingBudget(checks._Budget(None))
                        assert checks._find_exact_path(g.adj, a, b, length, got, required) == want
                        assert got.nodes <= ref.nodes
                        tight = checks._Budget(ref.nodes)
                        assert checks._probe(g.adj, a, b, length, tight, required) == (
                            want is not None, want)
                        probes += 1
                        nodes += got.nodes
                        plain_nodes += ref.nodes
    assert probes > 50_000
    assert nodes < plain_nodes


def plain(monkeypatch, run):
    with monkeypatch.context() as m:
        m.setattr(checks, "_Probes", PlainProbes)
        return run()


def assert_cycle_witness(g, a, b, length, walk):
    """``walk`` runs from a to b and closes, by edge ab, a simple cycle of ``length``."""
    assert len(walk) == len(set(walk)) == length
    assert (walk[0], walk[-1]) == (a, b)
    assert all(g.has_edge(x, y) for x, y in zip(walk, walk[1:] + walk[:1]))


def test_ring_k4_witnesses_hold_on_the_adjacency():
    # g_ring(4) (order 76) is past the short graph6 form; each witness of
    # its edge-pancyclic report, one per (edge, length), is re-checked.
    ring = g_ring(4).graph
    report = is_edge_pancyclic(ring, witnesses=True)
    assert report.verdict is True
    witnesses = report.evidence["witnesses"]
    assert set(witnesses) == {f"{e.u}-{e.v}" for e in ring.edges()}
    for e in ring.edges():
        by_length = witnesses[f"{e.u}-{e.v}"]
        assert sorted(by_length) == list(range(3, ring.order + 1))
        for length, walk in by_length.items():
            assert_cycle_witness(ring, e.u, e.v, length, walk)


def without_witnesses(evidence):
    return {key: val for key, val in evidence.items() if key != "witnesses"}


def test_witness_reuse_matches_plain_probes(monkeypatch):
    corpus = list(NAMED) + [wheel(30), q_graph(25)]
    for n in range(3, 8):
        corpus += enumerate_graphs(n, graph_filter=GraphFilter(connectivity=1))
    reused = 0
    for g in corpus:
        # Every pair in the order is_edge_pancyclic asks them, each witness
        # checked, against the plain engine's answers.
        probes, ref = checks._Probes(g), PlainProbes(g)
        for e in g.edges():
            for length in range(3, g.order + 1):
                found, walk = probes.cycle(e.u, e.v, length)
                assert found == ref.cycle(e.u, e.v, length)[0]
                if found:
                    assert_cycle_witness(g, e.u, e.v, length, walk)
        assert probes.probes + probes.reused == ref.probes
        assert probes.certified == ref.certified
        reused += probes.reused
        assert cycle_spectrum(g) == plain(monkeypatch, lambda: cycle_spectrum(g))
        for check in _CHECKS:
            got = check(g, None)
            ref = plain(monkeypatch, lambda: check(g, None))
            assert got.verdict == ref.verdict
            assert without_witnesses(got.evidence) == without_witnesses(ref.evidence)
            assert got.stats["probes"] + got.stats["reused"] == ref.stats["probes"]
            assert got.stats["certified"] == ref.stats["certified"]
            assert ref.stats["reused"] == 0
        for check in _CHECKS:
            for budget in (5, 40, 300):
                got = check(g, budget)
                ref = plain(monkeypatch, lambda: check(g, budget))
                assert got.stats["budget_left"] >= ref.stats["budget_left"]
                if ref.verdict is not None:  # decided there, decided alike here
                    assert got.verdict == ref.verdict
                    assert without_witnesses(got.evidence) == without_witnesses(ref.evidence)
        for budget in (5, 40, 300):
            ref = plain(monkeypatch, lambda: cycle_spectrum(g, budget=budget))
            if ref.complete:
                assert cycle_spectrum(g, budget=budget) == ref
    assert reused > 0


def test_recorded_cycles_ignore_caller_edits():
    probes = checks._Probes(wheel(6))
    found, walk = probes.cycle(0, 1, 6)
    assert found and probes.reused == 0
    walk[:] = [0, 0, 0, 0, 0, 1]
    for a, b in ((1, 0), (0, 1)):
        found, again = probes.cycle(a, b, 6)
        assert found
        assert_cycle_witness(wheel(6), a, b, 6, again)
    assert probes.reused == 2


def test_chord_of_a_recorded_cycle_needs_no_dfs():
    # wheel(7): hub 0 and rim 1 .. 6. On the ring 0, 1, .., 6 the spoke 0-5
    # takes the first exchange (1-6 is a rim edge) and 0-2 the second (6-1).
    g = wheel(7)
    probes = checks._Probes(g)
    probes._record(tuple(range(7)), 7)
    for a, b, want in ((0, 5, [0, 6, 1, 2, 3, 4, 5]), (2, 0, [2, 3, 4, 5, 6, 1, 0])):
        found, walk = probes.cycle(a, b, 7)
        assert found and walk == want
        assert_cycle_witness(g, a, b, 7, walk)
    assert (probes.probes, probes.reused) == (0, 2)
    # complete(7): one Hamiltonian cycle found by the DFS answers a chord.
    g = complete(7)
    probes = checks._Probes(g)
    found, walk = probes.cycle(0, 1, 7)
    assert found and probes.probes == 1 and probes.reused == 0
    a, b = walk[1], walk[3]
    found, chord = probes.cycle(a, b, 7)
    assert found
    assert_cycle_witness(g, a, b, 7, chord)
    assert (probes.probes, probes.reused) == (1, 1)


def assert_engine_matches_plain(monkeypatch, g, weaker):
    """The engine on ``g`` against the plain one and against ``weaker``, an
    engine with some reuse step turned off: the same answer for every pair,
    each witness a real cycle, the same counts, spectra, verdicts and
    evidence, and at least as much budget left as the plain engine at
    budgets 5, 40 and 300. Returns the DFS probes of the engine and of
    ``weaker``."""
    probes, ref, other = checks._Probes(g), PlainProbes(g), weaker(g)
    for e in g.edges():
        for length in range(3, g.order + 1):
            found, walk = probes.cycle(e.u, e.v, length)
            assert found == ref.cycle(e.u, e.v, length)[0]
            assert found == other.cycle(e.u, e.v, length)[0]
            if found:
                assert_cycle_witness(g, e.u, e.v, length, walk)
    assert probes.probes + probes.reused == ref.probes
    assert probes.certified == ref.certified
    assert cycle_spectrum(g) == plain(monkeypatch, lambda: cycle_spectrum(g))
    for check in _CHECKS:
        got = check(g, None)
        ref = plain(monkeypatch, lambda: check(g, None))
        assert got.verdict == ref.verdict
        assert without_witnesses(got.evidence) == without_witnesses(ref.evidence)
        assert got.stats["probes"] + got.stats["reused"] == ref.stats["probes"]
        assert got.stats["certified"] == ref.stats["certified"]
        for budget in (5, 40, 300):
            got = check(g, budget)
            ref = plain(monkeypatch, lambda: check(g, budget))
            assert got.stats["budget_left"] >= ref.stats["budget_left"]
            if ref.verdict is not None:
                assert got.verdict == ref.verdict
                assert without_witnesses(got.evidence) == without_witnesses(ref.evidence)
    for budget in (5, 40, 300):
        ref = plain(monkeypatch, lambda: cycle_spectrum(g, budget=budget))
        if ref.complete:
            assert cycle_spectrum(g, budget=budget) == ref
    return probes.probes, other.probes


def test_chord_exchange_matches_plain_and_reuse_only_probes(monkeypatch):
    rng = random.Random(53)
    corpus = [
        random_connected_graph(rng, n, density)
        for n in range(8, 13)
        for density in (0.3, 0.4, 0.5, 0.6)
        for _ in range(4)
    ]
    probed = reuse_only_probed = 0
    for g in corpus:
        got, reuse_only = assert_engine_matches_plain(monkeypatch, g, ReuseOnlyProbes)
        probed += got
        reuse_only_probed += reuse_only
    assert probed < reuse_only_probed


def test_substitution_of_a_vertex_off_a_recorded_cycle_needs_no_dfs():
    # The ring 0 .. 5 of cycle(6), probed at the edge 2-6 with 6 off it.
    # 6 ~ 4 puts 6 in place of 3, two steps after 2; 6 ~ 0 only puts it in
    # place of 1, two steps before; with both, the step after 2 is taken.
    for extra, want in (
        ([(2, 6), (4, 6)], [2, 1, 0, 5, 4, 6]),
        ([(2, 6), (0, 6)], [2, 3, 4, 5, 0, 6]),
        ([(2, 6), (4, 6), (0, 6)], [2, 1, 0, 5, 4, 6]),
    ):
        g = build_graph(7, [(v, (v + 1) % 6) for v in range(6)] + extra)
        probes = checks._Probes(g)
        probes._record(tuple(range(6)), 6)
        found, walk = probes.cycle(2, 6, 6)
        assert found and walk == want
        assert_cycle_witness(g, 2, 6, 6, walk)
        assert (probes.probes, probes.reused) == (0, 1)


def test_insertion_into_a_shorter_recorded_cycle_needs_no_dfs():
    # The 5-ring 0 .. 4 has the edge 0-1 on it. 5 is a common neighbour of
    # the ends of 0-1 and of 3-4, and 6 of 3-4 and of 4-0; 1-2 and 2-3 have
    # none off the ring. The first ring edge other than ab with one is 3-4,
    # and its lowest is 5: the 6-ring 0, 1, 2, 3, 5, 4.
    g = build_graph(7, [(v, (v + 1) % 5) for v in range(5)]
                    + [(5, 0), (5, 1), (5, 3), (5, 4), (6, 3), (6, 4), (6, 0)])
    for a, b, want in ((0, 1, [0, 4, 5, 3, 2, 1]), (1, 0, [1, 2, 3, 5, 4, 0])):
        probes = checks._Probes(g)
        probes._record(tuple(range(5)), 5)
        found, walk = probes.cycle(a, b, 6)
        assert found and walk == want
        assert_cycle_witness(g, a, b, 6, walk)
        assert (probes.probes, probes.reused) == (0, 1)


def test_ring_reshaping_matches_plain_and_exchange_only_probes(monkeypatch):
    rng = random.Random(59)
    corpus = list(NAMED) + [wheel(30), q_graph(25)] + [
        random_connected_graph(rng, n, density)
        for n in range(8, 13)
        for density in (0.1, 0.25, 0.4, 0.6)
        for _ in range(2)
    ]
    probed = exchange_only_probed = 0
    for g in corpus:
        got, exchange_only = assert_engine_matches_plain(monkeypatch, g, ExchangeOnlyProbes)
        probed += got
        exchange_only_probed += exchange_only
    assert probed < exchange_only_probed


def without_elapsed(report):
    stats = {key: val for key, val in report.stats.items() if key != "elapsed_ms"}
    return report.verdict, report.evidence, stats


def test_one_ring_index_matches_the_two_table_engine(monkeypatch):
    # The engine that keeps each ring only in the per-vertex lists gives
    # every answer, witness, counter and budget of the one that also keeps
    # a pair table: the first listed ring with b next to a is the ring the
    # table kept, and an exchange is taken only when no ring has ab on it.
    # The two-table engine predates vertex substitution and insertion, so
    # it is compared with the engine that has both turned off.
    rng = random.Random(53)
    corpus = list(NAMED) + [wheel(30), q_graph(25)] + [
        random_connected_graph(rng, n, density)
        for n in range(8, 13)
        for density in (0.3, 0.4, 0.5, 0.6)
        for _ in range(4)
    ]
    reused = 0
    for g in corpus:
        probes, ref = ExchangeOnlyProbes(g), TwoTableProbes(g)
        for e in g.edges():
            for length in range(3, g.order + 1):
                assert probes.cycle(e.u, e.v, length) == ref.cycle(e.u, e.v, length)
        assert (probes.probes, probes.reused, probes.certified) == (
            ref.probes, ref.reused, ref.certified)
        reused += probes.reused
        runs = []
        for engine in (TwoTableProbes, ExchangeOnlyProbes):
            with monkeypatch.context() as m:
                m.setattr(checks, "_Probes", engine)
                runs.append([without_elapsed(check(g, budget))
                             for check in _CHECKS for budget in (None, 5, 40, 300)])
        assert runs[1] == runs[0]
    assert reused > 0


def with_engine(monkeypatch, engine, run):
    with monkeypatch.context() as m:
        m.setattr(checks, "_Probes", engine)
        return run()


def petersen():
    # Outer 5-cycle 0 .. 4, spokes i - i+5, inner pentagram 5 .. 9.
    return build_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                       + [(i, i + 5) for i in range(5)]
                       + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def test_non_hamiltonian_certificate_matches_the_engine_without_it(monkeypatch):
    # The certificate only turns Hamilton-length DFS probes into certified
    # pairs: the same answer and witness for every pair, the same spectra,
    # verdicts and evidence, and at least as much budget left.
    rng = random.Random(61)
    corpus = list(NAMED) + [petersen(), q_graph(25)] + [
        random_connected_graph(rng, n, density)
        for n in range(8, 13)
        for density in (0.1, 0.25, 0.4, 0.6)
        for _ in range(2)
    ]
    for n in range(3, 8):
        corpus += enumerate_graphs(n, graph_filter=GraphFilter(connectivity=1))
    moved = 0
    for g in corpus:
        probes, ref = checks._Probes(g), NoHamiltonCertificateProbes(g)
        for e in g.edges():
            for length in range(3, g.order + 1):
                assert probes.cycle(e.u, e.v, length) == ref.cycle(e.u, e.v, length)
        assert probes.probes + probes.certified == ref.probes + ref.certified
        assert probes.reused == ref.reused
        moved += ref.probes - probes.probes
        oracle = lambda run: with_engine(monkeypatch, NoHamiltonCertificateProbes, run)
        assert cycle_spectrum(g) == oracle(lambda: cycle_spectrum(g))
        for check in _CHECKS:
            got = check(g, None)
            want = oracle(lambda: check(g, None))
            assert (got.verdict, got.evidence) == (want.verdict, want.evidence)
            assert (got.stats["probes"] + got.stats["certified"], got.stats["reused"]) == (
                want.stats["probes"] + want.stats["certified"], want.stats["reused"])
            for budget in (5, 40, 300):
                got = check(g, budget)
                want = oracle(lambda: check(g, budget))
                assert got.stats["budget_left"] >= want.stats["budget_left"]
                if want.verdict is not None:
                    assert (got.verdict, got.evidence) == (want.verdict, want.evidence)
        for budget in (5, 40, 300):
            want = oracle(lambda: cycle_spectrum(g, budget=budget))
            if want.complete:
                assert cycle_spectrum(g, budget=budget) == want
    assert moved > 0


def test_petersen_hamilton_length_takes_two_probes(monkeypatch):
    # Every vertex has degree 3, so two edges at vertex 0 off every Hamilton
    # cycle certify the other 13 edges at length 10.
    g = petersen()
    counter = _CountingProbe(monkeypatch)
    probes, ref = checks._Probes(g), NoHamiltonCertificateProbes(g)
    for e in g.edges():
        assert probes.lengths(e.u, e.v, range(3, 11))[0] == {5, 6, 8, 9}
    assert [(a, b) for a, b, length in counter.seen if length == 9] == [(0, 1), (0, 4)]
    for e in g.edges():
        ref.lengths(e.u, e.v, range(3, 11))
    assert sum(length == 9 for _, _, length in counter.seen) == 2 + 15
    assert probes.certified - ref.certified == 13
    assert probes.probes + probes.certified == ref.probes + ref.certified == 77


def test_non_hamiltonian_certificate_counts_distinct_edges():
    # C6 plus the chord 0-3, which lies on no Hamilton cycle. A vertex-
    # pancyclic check asks a pair once from each end: the second ask must
    # not count as a second edge at 0 or 3, or the block would be certified
    # non-Hamiltonian while the rim 0 .. 5 is a Hamilton cycle.
    g = build_graph(6, [(v, (v + 1) % 6) for v in range(6)] + [(0, 3)])
    probes = checks._Probes(g)
    assert probes.cycle(0, 3, 6) == (False, None)
    assert probes.cycle(0, 3, 6) == (False, None)
    found, walk = probes.cycle(0, 1, 6)
    assert found
    assert_cycle_witness(g, 0, 1, 6, walk)
    assert (probes.probes, probes.certified) == (3, 0)


def test_budget_spectrum_incomplete_flag():
    spec = cycle_spectrum(g_ring(3).graph, budget=50)
    assert not spec.complete
    full = cycle_spectrum(wheel(6), budget=None)
    assert full.complete


# -- layer bounds and the block battery ----------------------------------------


def test_layer_bounds_pass_cases():
    for n in (13, 14, 15):
        rep = verify_distance_layer_bounds(q_graph(n))
        assert rep.verdict is True, rep.evidence
    assert verify_distance_layer_bounds(wheel(6)).verdict is True


def test_layer_bounds_failure_and_errors():
    rep = verify_distance_layer_bounds(cycle(8))
    assert rep.verdict is False
    assert rep.evidence["first_layer_min3"] is False
    with pytest.raises(GraphError):
        verify_distance_layer_bounds(cycle(3))
    with pytest.raises(GraphError):
        verify_distance_layer_bounds(build_graph(4, [(0, 1), (2, 3)]))


# SHA-256 of the layer-battery reports over the corpus below, serialized with
# sorted keys.
LAYER_BOUNDS_DIGEST = "d67b905d682f2a2be14193e91ce0ae2fd58c1c3ceae9fc67ea90c84f29088e86"


def test_layer_bounds_reports_match_frozen_digest():
    # Every branch of the battery: q-graphs with inner pairs to check,
    # wheels and complete graphs (d = 1, the last-two floor skipped), cycles
    # failing the floors, and the paper's A-graphs, H-block and ring.
    corpus = (
        [q_graph(n) for n in range(10, 40)]
        + [wheel(n) for n in range(4, 14)]
        + [complete(n) for n in range(4, 9)]
        + [cycle(n) for n in range(4, 12)]
        + [a_graph(n).graph for n in (8, 10, 12)]
        + [h_block(3).graph, g_ring(3).graph]
    )
    reports = [verify_distance_layer_bounds(g).to_json_dict() for g in corpus]
    assert len(reports) == 58
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == LAYER_BOUNDS_DIGEST


def test_block_battery_k3():
    rep = verify_h_block_properties(3)
    assert rep.verdict is True
    assert rep.evidence["P5"]["exact_spectrum"] == list(range(3, 9))
    assert rep.evidence["order"] == 14 and rep.evidence["size"] == 25
    with pytest.raises(GraphError):
        verify_h_block_properties(2)


def test_report_serialization_shapes():
    rep = is_edge_pancyclic(wheel(5))
    d = rep.to_json_dict()
    assert set(d) == {"predicate", "verdict", "evidence", "stats"}
    assert d["predicate"] == "edge-pancyclic"
    assert "probes" in d["stats"]
    spec = cycle_spectrum(cycle(3)).to_json_dict()
    assert spec == {"edges": {"0-1": [3], "0-2": [3], "1-2": [3]}, "complete": True}


# -- property-based -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(graphs(max_order=7))
def test_spectrum_lengths_in_range_property(g):
    spectrum = cycle_spectrum(g)
    for e, lengths in spectrum.lengths_by_edge.items():
        for ln in lengths:
            assert 3 <= ln <= g.order
    # a spectrum is symmetric data: it lists exactly the graph edges
    assert {tuple(e) for e in spectrum.lengths_by_edge} == set(
        tuple(e) for e in g.edges()
    )
