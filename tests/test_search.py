"""Generators and extremal searches: counts, censuses, determinism."""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from pancyclic import (
    BUDGET_NOTE,
    Graph,
    GraphError,
    GraphFilter,
    a_graph,
    are_isomorphic,
    build_graph,
    canonical_code,
    canonical_graph,
    emit_graph6,
    enumerate_covered_graphs,
    enumerate_graphs,
    extremal_census,
    has_triangle_cover,
    is_connected,
    is_k_connected,
    min_degree,
    min_size_edge_pancyclic,
    min_size_triangle_cover,
    max_diameter_edge_pancyclic,
    odd_extremal,
    parse_graph6,
    resolve_workers,
    wheel,
)
from pancyclic import search
from pancyclic.search import WORKERS_ENV
from oracles import (
    canonical_removal,
    iter_labeled_graphs,
    plain_accepted_children,
    plain_covered_children,
    plain_edge_children,
)

CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044)  # graphs on 0..7 vertices
# OEIS A008406: graphs on 7 vertices with 0..21 edges
SIZE_COUNTS_7 = (1, 1, 2, 5, 10, 21, 41, 65, 97, 131, 148, 148, 131, 97, 65, 41, 21, 10, 5, 2, 1, 1)


# -- the unrestricted generator -----------------------------------------------


def test_generator_class_counts():
    for n, want in enumerate(CLASS_COUNTS):
        got = sum(1 for _ in enumerate_graphs(n))
        assert got == want, f"order {n}"


def test_generator_emits_each_class_once():
    seen = set()
    for g in enumerate_graphs(6):
        code = canonical_code(g)
        assert code not in seen
        seen.add(code)


def test_generator_filtered_count_matches_naive_oracle():
    # Each generator yields one graph per class of a canonical-code dedup of
    # every labeled graph that passes the same test: order 6, connected,
    # minimum degree 2; and every covered graph with no isolated vertex of
    # order <= 6, which also pins the covered tree apart from the edge tree.
    flt = GraphFilter(min_degree=2, connectivity=1)
    cases = [(6, enumerate_graphs(6, graph_filter=flt),
              lambda g: min_degree(g) >= 2 and is_connected(g))]
    for n in range(1, 7):
        cases.append((n, enumerate_covered_graphs(n, n * (n - 1) // 2),
                      lambda g: min_degree(g) > 0 and has_triangle_cover(g).verdict))
    for n, generated, holds in cases:
        got = [canonical_code(g).bits for g in generated]
        want = set()
        for order, edges in iter_labeled_graphs(n):
            g = build_graph(order, edges)
            if holds(g):
                want.add(canonical_code(g).bits)
        assert len(got) == len(set(got)) and set(got) == want, n


def test_generator_yields_canonical_graphs():
    # Each yielded graph is read off its tree node's canonical code, padded
    # with isolated vertices; it must be the canonical form of itself.
    for n in range(8):
        for g in enumerate_graphs(n):
            assert canonical_graph(g) == g, emit_graph6(g)


def test_generator_size_range():
    for g in enumerate_graphs(5, size_range=(4, 6)):
        assert 4 <= g.size <= 6
    assert sum(1 for _ in enumerate_graphs(5, size_range=(0, 0))) == 1
    for m, want in enumerate(SIZE_COUNTS_7):
        assert sum(1 for _ in enumerate_graphs(7, size_range=(m, m))) == want, m


def test_generator_order_bound():
    with pytest.raises(GraphError):
        next(enumerate_graphs(13))


def test_generator_rejects_bad_size_range():
    # A size range outside 0 .. n(n-1)/2, or with lo > hi, is an error, not
    # an empty (or unbounded) walk.
    for size_range in ((5, 2), (-5, 99), (-1, 3), (0, 7), (7, 7)):
        with pytest.raises(GraphError):
            next(enumerate_graphs(4, size_range))
    assert sum(1 for _ in enumerate_graphs(4, (0, 6))) == 11
    assert sum(1 for _ in enumerate_graphs(4, (6, 6))) == 1


# -- the covered-universe generator ---------------------------------------------


def test_covered_generator_against_edge_generator():
    for n, want in ((3, 1), (4, 2), (5, 7), (6, 32), (7, 220), (8, 2654)):
        via_triangles = {
            canonical_code(g).bits: g.size
            for g in enumerate_covered_graphs(n, n * (n - 1) // 2)
        }
        assert len(via_triangles) == want
        via_edges = {
            canonical_code(g).bits: g.size
            for g in enumerate_graphs(n)
            if g.size > 0
            and min(g.degrees()) > 0
            and has_triangle_cover(g).verdict
        }
        # Class counts per size first: a mismatch then shows which sizes.
        assert Counter(via_triangles.values()) == Counter(via_edges.values()), n
        assert via_triangles.keys() == via_edges.keys(), n
    # min_deg_final is a floor on every yielded graph.
    for n in (5, 6, 7):
        floored = {
            canonical_code(g).bits
            for g in enumerate_covered_graphs(n, n * (n - 1) // 2, min_deg_final=3)
        }
        via_edges = {
            canonical_code(g).bits
            for g in enumerate_graphs(n)
            if g.size > 0 and min(g.degrees()) >= 3 and has_triangle_cover(g).verdict
        }
        assert floored == via_edges, n


def test_covered_generator_respects_size_cap():
    for g in enumerate_covered_graphs(6, 9):
        assert g.size <= 9
        assert has_triangle_cover(g).verdict is True
        assert g.order == 6


def test_covered_generator_rejects_bad_parameters():
    # Like enumerate_graphs: an order outside 0.._BUILTIN_MAX_ORDER or a
    # negative size cap is an error, not an empty (or unbounded) walk.
    for n, max_size in ((-1, 5), (65, 3), (search._BUILTIN_MAX_ORDER + 1, 3), (5, -3)):
        with pytest.raises(GraphError):
            next(enumerate_covered_graphs(n, max_size))
    # A negative degree floor is an error too, not a walk with no floor.
    with pytest.raises(GraphError, match="degree floor"):
        next(enumerate_covered_graphs(5, 10, min_deg_final=-3))
    assert list(enumerate_covered_graphs(5, 0)) == []


def test_planted_graphs_are_reached():
    target = canonical_code(a_graph(10).graph)
    assert any(
        canonical_code(g) == target
        for g in enumerate_covered_graphs(10, 15, min_deg_final=2)
    )
    target = canonical_code(wheel(8))
    assert any(
        canonical_code(g) == target
        for g in enumerate_covered_graphs(8, 14, min_deg_final=3)
    )


def test_canonical_removal_matches_brute_force():
    # The descending key-order scan returns exactly the removable set of
    # largest key that the exhaustive oracle finds, for any relabeling, in
    # the covered universe (triangle edge subsets) and the edge universe.
    rng = random.Random(11)
    sizes = set()
    for _ in range(300):
        n = rng.randint(4, 10)
        rows = [0] * n
        for _ in range(rng.randint(1, 2 * n)):
            tri = rng.sample(range(n), 3)
            for a in tri:
                for b in tri:
                    if a != b:
                        rows[a] |= 1 << b
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (rows[u] >> v) & 1]
        sigma = list(range(n))
        rng.shuffle(sigma)
        for covered, sets, removable in (
            (True, search._covered_sets, search._covered_after_removal),
            (False, search._edge_sets, search._always_removable),
        ):
            got = search._canonical_removal(rows, n, tuple(sigma), sets, removable)
            assert all(a < b for a, b in got) and list(got) == sorted(got)
            want = canonical_removal(n, edges, sigma, covered)
            assert frozenset(got) == want, (covered, n, edges, sigma)
            if covered:
                sizes.add(len(got))
            else:
                assert len(got) == 1
    assert sizes == {1, 2, 3}


def test_pruned_step_accepts_the_plain_steps_classes(monkeypatch):
    # At every node of both trees, the acceptance step with orbit pruning
    # alone, with the degree pass of the rank pre-filter too, and with both
    # its passes (degrees, then root cells) must accept the classes the
    # unpruned step accepts. The pre-filter may reach a class through
    # another move, with other labels, so codes are compared, not rows.
    # Each node's moves must also be the case-by-case oracle's, in its order.
    canonize = search._canonize
    rejects = search._rejects
    calls = Counter()
    which = ["pruned"]

    def counted(g, root=None):
        calls[which[0]] += 1
        return canonize(g, root)

    def plain_canonize(order, rows):
        calls["plain"] += 1
        return canonize(Graph(order, rows))

    def never(rank, rows, act, added, sets, removable):
        return False

    def degrees_only(rank, rows, act, added, sets, removable):
        # The degree pass ranks by negated degrees, all <= 0 and one < 0 as
        # a child has an edge; the cell pass ranks by cell indices, all >= 0.
        return min(rank) < 0 and rejects(rank, rows, act, added, sets, removable)

    monkeypatch.setattr(search, "_canonize", counted)
    universes = []
    for n, m_hi, floor in ((5, 10, 2), (6, 15, 3), (7, 21, 2), (8, 13, 2), (8, 16, 3), (8, 20, 4)):
        tree = search._Tree(n, m_hi, GraphFilter(min_degree=floor))
        universes.append((
            lambda rows, act, m, tree=tree: search._covered_children(rows, act, m, tree),
            lambda rows, act, m, tree=tree: plain_covered_children(rows, act, m, tree),
            search._covered_sets, search._covered_after_removal,
        ))
    for n in range(1, 7):
        universes.append((
            lambda rows, act, m, n=n: search._edge_children(rows, act, m, n),
            lambda rows, act, m, n=n: plain_edge_children(rows, act, m, n),
            search._edge_sets, search._always_removable,
        ))
    nodes = 0
    for moves_of, oracle_moves_of, sets, removable in universes:
        def removal_of(rows, act, sigma, sets=sets, removable=removable):
            return search._canonical_removal(rows, act, sigma, sets, removable)

        stack = [([], 0, 0, 0, ())]
        while stack:
            node = stack.pop()
            rows, act, m, _, _ = node
            nodes += 1
            assert list(moves_of(rows, act, m)) == list(oracle_moves_of(rows, act, m)), rows
            want = {(c[1], c[3]) for c in plain_accepted_children(
                node, moves_of(rows, act, m), removal_of, plain_canonize)}
            passes = {}
            for which[0], rank_filter in (
                ("orbits", never), ("degrees", degrees_only), ("pruned", rejects)
            ):
                monkeypatch.setattr(search, "_rejects", rank_filter)
                passes[which[0]] = list(
                    search._accepted_children(node, moves_of(rows, act, m), sets, removable)
                )
            for got in passes.values():
                codes = [(c[1], c[3]) for c in got]
                assert len(codes) == len(set(codes)) and set(codes) == want, rows
            stack.extend(passes["pruned"])
    assert nodes > 1000
    assert calls["pruned"] < calls["degrees"] < calls["orbits"] < calls["plain"], calls


# -- minimum-size searches -------------------------------------------------------


def test_min_size_edge_pancyclic_small():
    out = min_size_edge_pancyclic(4)
    assert out.value == 6 and out.exhaustive
    assert out.witnesses == [emit_graph6(canonical_graph(build_graph(4, [
        (u, v) for u in range(4) for v in range(u + 1, 4)
    ])))]
    out5 = min_size_edge_pancyclic(5)
    assert out5.value == 8 and len(out5.witnesses) == 1
    assert out5.counts["floor"] == 8


def test_min_size_edge_pancyclic_through_the_edge_tree():
    # A second route to f(n) = 2n - 2: the edge tree walks every graph, not
    # only the covered ones, through the same leaf filter. No graph of at
    # most 2n - 3 edges passes it, and those of 2n - 2 edges that pass are
    # exactly the covered search's witnesses (that half takes about 11 s at
    # n = 9, so it stops at n = 8).
    for n in (7, 8, 9):
        keep = search._leaf_filter("edge-pancyclic", n)
        assert next(enumerate_graphs(n, (0, 2 * n - 3), graph_filter=keep), None) is None, n
    for n in (7, 8):
        keep = search._leaf_filter("edge-pancyclic", n)
        at_wheel = enumerate_graphs(n, (2 * n - 2, 2 * n - 2), graph_filter=keep)
        found = sorted(emit_graph6(g) for g in at_wheel)
        assert found == min_size_edge_pancyclic(n).witnesses, n


def test_min_size_triangle_cover_spec_values():
    out = min_size_triangle_cover(9, 2)
    assert out.value == 14 and out.exhaustive
    fgh = {
        emit_graph6(canonical_graph(odd_extremal(kind, 9).graph)) for kind in "FGH"
    }
    assert set(out.witnesses) == fgh
    out = min_size_triangle_cover(8, 3)
    assert out.value == 14
    assert out.witnesses == [emit_graph6(canonical_graph(wheel(8)))]
    out = min_size_triangle_cover(7, 1)
    assert out.value == 9
    out = min_size_triangle_cover(8, 2)
    assert out.value == 12
    assert set(out.witnesses) == {emit_graph6(canonical_graph(a_graph(8).graph))}


def test_min_size_rejects_bad_parameters():
    with pytest.raises(GraphError):
        min_size_edge_pancyclic(3)
    with pytest.raises(GraphError):
        min_size_edge_pancyclic(13)
    with pytest.raises(GraphError):
        min_size_triangle_cover(8, 4)
    with pytest.raises(GraphError):
        min_size_triangle_cover(3, 3)


def test_stream_mode_rejects_workers_and_class_budget():
    # The stream is read whole in this process, so neither option means
    # anything there; giving one is an error, as an unread option is on
    # the command line.
    for bad in ({"class_budget": -5, "workers": -3}, {"workers": 1}, {"class_budget": 9}):
        with pytest.raises(GraphError, match="stream mode"):
            min_size_edge_pancyclic(4, stream=["C~"], **bad)
    assert min_size_edge_pancyclic(4, stream=["C~"]).value == 6


def test_search_determinism_and_worker_independence(monkeypatch):
    runs = (
        lambda w: min_size_triangle_cover(8, 2, workers=w),
        lambda w: max_diameter_edge_pancyclic(6, mode="exhaustive", workers=w),
        lambda w: min_size_edge_pancyclic(8, workers=w),
    )
    for run in runs:
        a = run(1)
        assert a.exhaustive
        for other in (run(1), run(2), run(3)):
            assert other.value == a.value
            assert other.witnesses == a.witnesses
            assert other.counts == a.counts
            assert other.exhaustive == a.exhaustive
    # A tree smaller than the split frontier has no worker tasks: it is
    # walked in this process and never asks for a pool.
    serial = min_size_triangle_cover(5, 2, workers=1)
    monkeypatch.setattr(search, "multiprocessing", None)
    fallback = min_size_triangle_cover(5, 2, workers=4)
    assert fallback.to_json_dict() == serial.to_json_dict()


# SHA-256 of the 32 outcomes below, serialized with sorted keys.
OUTCOME_DIGEST = "b2dfca17cb9384ef93a2483a7b596411d5ed68d6ac4ee2a2e7516b68849180c7"


@pytest.mark.parametrize("workers", [1, 2])
def test_search_outcomes_match_frozen_digest(workers):
    # Every value, witness, class count and tree-node count of the small
    # searches is frozen: a change to the trees' rules that alters any of
    # them, at any worker count, changes the digest.
    outs = [min_size_edge_pancyclic(n, workers=workers) for n in range(4, 10)]
    for kappa, lo in ((1, 2), (2, 3), (3, 4)):
        outs += [min_size_triangle_cover(n, kappa, workers=workers) for n in range(lo, 10)]
    outs += [
        max_diameter_edge_pancyclic(n, mode="exhaustive", workers=workers) for n in range(3, 8)
    ]
    assert len(outs) == 32
    text = json.dumps([o.to_json_dict() for o in outs], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == OUTCOME_DIGEST


def test_sub_wheel_walk_at_order_12_is_worker_invariant():
    # The walk that bounds f(12) from below: no edge-pancyclic graph of
    # order 12 has at most 2n - 3 = 21 edges. Its 7,304 tree nodes and its
    # per-size counts are the same at 1 and 2 workers (about 3 s in all).
    tree = search._Tree(12, 21, search._leaf_filter("edge-pancyclic", 12))
    serial, split = (search._survey_covered(tree, workers=w) for w in (1, 2))
    assert serial == split
    survey, complete = serial
    assert complete and survey.classes_seen == 7304 and survey.survivors == []


def test_worker_split_fills_the_frontier(monkeypatch):
    # Replays the split in this process and records each task list.
    task_nodes: list[list[int]] = []

    class SerialPool:
        def __init__(self, processes):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

        def map(self, fn, tasks):
            out = [fn(t) for t in tasks]
            task_nodes.append([seen for seen, _, _ in out])
            return out

    monkeypatch.setattr(search, "multiprocessing", SimpleNamespace(Pool=SerialPool))
    for workers in (2, 3):
        task_nodes.clear()
        out = min_size_edge_pancyclic(8, workers=workers)
        (nodes,) = task_nodes
        assert len(nodes) >= search._TASKS_PER_WORKER * workers
        assert sum(nodes) < out.counts["tree_nodes"] == 147
        assert max(nodes) <= out.counts["tree_nodes"] // 4


def test_class_budget_marks_outcome_non_exhaustive():
    out = min_size_triangle_cover(9, 2, class_budget=40)
    assert not out.exhaustive
    assert out.notes == BUDGET_NOTE
    with pytest.raises(GraphError):
        min_size_triangle_cover(9, 2, class_budget=-2)


def test_witnesses_are_reverified(monkeypatch):
    # The predicate passes the first time it sees each isomorphism class and
    # fails every later time, so only the re-verification of the extreme
    # group can catch it.
    holds = search._predicate_holds
    seen: set = set()

    def first_call_only(name, g):
        code = canonical_code(g)
        if code in seen:
            return False
        seen.add(code)
        return holds(name, g)

    monkeypatch.setattr(search, "_predicate_holds", first_call_only)
    witnesses = [emit_graph6(canonical_graph(wheel(6)))]
    for run in (
        lambda: min_size_edge_pancyclic(6, workers=1),
        lambda: max_diameter_edge_pancyclic(5, mode="exhaustive", workers=1),
        lambda: min_size_edge_pancyclic(6, stream=iter(witnesses)),
    ):
        seen.clear()
        with pytest.raises(GraphError, match="re-verification"):
            run()


def test_stream_search_mode():
    witnesses = min_size_edge_pancyclic(6).witnesses
    out = min_size_edge_pancyclic(6, stream=iter(witnesses + ["E|fG"]))
    assert out.value == 10
    assert not out.exhaustive
    assert "stream" in out.notes
    with pytest.raises(GraphError) as e:
        min_size_edge_pancyclic(6, stream=iter(["C~"]))
    assert "line 1" in str(e.value)
    # The triangle is edge-pancyclic: the degree-3 floor starts at order 4.
    assert min_size_edge_pancyclic(3, stream=iter(["Bw"])).witnesses == ["Bw"]


def test_stream_search_line_numbers_and_classes():
    # DqK is Dhc relabeled; C~ has the wrong order; D!c is not graph6.
    for lines, bad in ((["Dhc", "DqK", "C~", "", "Dhc"], 3), (["Dhc", "D!c"], 2)):
        with pytest.raises(GraphError) as e:
            min_size_edge_pancyclic(5, stream=iter(lines))
        assert f"stream line {bad}:" in str(e.value)
    out = min_size_edge_pancyclic(5, stream=iter(["Dhc", "DqK", "", "Dhc"]))
    assert out.counts["stream_classes"] == 1  # the three non-empty lines are one class


def test_outcome_serialization():
    out = min_size_edge_pancyclic(4)
    d = out.to_json_dict()
    assert {"objective", "order", "value", "witnesses", "exhaustive", "counts"} <= set(d)
    assert d["value"] == 6 and d["order"] == 4


# -- censuses and diameter search --------------------------------------------------


def test_census_three_connected_order_5():
    found = extremal_census(5, "triangle-cover", kappa=3)
    assert len(found) == 3
    assert sorted(g.size for g in found) == [8, 9, 10]
    for g in found:
        assert is_k_connected(g, 3)
        assert has_triangle_cover(g).verdict is True


def test_census_fixed_size_includes_wheel():
    found = extremal_census(9, "edge-pancyclic", kappa=2, size=16)
    codes = {canonical_code(g) for g in found}
    assert canonical_code(wheel(9)) in codes
    assert all(g.size == 16 and g.order == 9 for g in found)


def test_census_rejects_bad_parameters():
    with pytest.raises(GraphError):
        extremal_census(5, "pancyclic")
    with pytest.raises(GraphError):
        extremal_census(13, "triangle-cover")
    with pytest.raises(GraphError):
        extremal_census(5, "triangle-cover", size=11)
    with pytest.raises(GraphError):
        extremal_census(5, "triangle-cover", kappa=-3)


def test_max_diameter_exhaustive_small():
    out = max_diameter_edge_pancyclic(6, mode="exhaustive")
    assert out.value == 2 and out.exhaustive
    assert emit_graph6(canonical_graph(wheel(6))) in out.witnesses
    assert out.counts["edge_pancyclic_total"] == 10
    out7 = max_diameter_edge_pancyclic(7, mode="exhaustive")
    assert out7.value == 2 and out7.counts["target"] == 2


def test_max_diameter_witness_mode():
    out = max_diameter_edge_pancyclic(10, mode="witness")
    assert out.value == 4 and not out.exhaustive
    assert out.counts["witness_family"] == "q-graph"
    g = parse_graph6(out.witnesses[0])
    assert g.order == 10
    out3 = max_diameter_edge_pancyclic(3)
    assert out3.value == 1 and out3.counts.get("witness_family", "") in ("triangle", "")
    with pytest.raises(GraphError):
        max_diameter_edge_pancyclic(2)
    with pytest.raises(GraphError):
        max_diameter_edge_pancyclic(10, mode="exhaustive")


def test_max_diameter_rejects_bad_budget_and_workers_in_every_mode():
    for mode in ("auto", "witness", "exhaustive"):
        with pytest.raises(GraphError, match="class budget"):
            max_diameter_edge_pancyclic(10, mode=mode, class_budget=-5)
        with pytest.raises(GraphError, match="worker count"):
            max_diameter_edge_pancyclic(10, mode=mode, workers=0)


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert resolve_workers(4) == 4
    assert resolve_workers() >= 1
    monkeypatch.setenv(WORKERS_ENV, "2")
    assert resolve_workers() == 2
    assert resolve_workers(1) == 1  # explicit beats environment
    with pytest.raises(GraphError):
        resolve_workers(0)
    monkeypatch.setenv(WORKERS_ENV, "abc")
    with pytest.raises(GraphError, match=WORKERS_ENV):
        resolve_workers()
