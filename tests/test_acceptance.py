"""End-to-end reproduction gate.

Every numbered criterion prints exactly one summary line, PASS or FAIL,
directly to the terminal (bypassing pytest capture), then asserts. Stated
time budgets are enforced where the work runs inside the test body.
"""

from __future__ import annotations

import random
import sys
import time
from contextlib import contextmanager

import pytest

from pancyclic import (
    a_graph,
    build_graph,
    canonical_code,
    canonical_graph,
    cycle_spectrum,
    diameter,
    emit_graph6,
    enumerate_graphs,
    extremal_census,
    g_ring,
    has_triangle_cover,
    is_connected,
    is_edge_pancyclic,
    is_k_connected,
    max_diameter_edge_pancyclic,
    min_size_edge_pancyclic,
    min_size_triangle_cover,
    odd_extremal,
    parse_graph6,
    q_graph,
    verify_distance_layer_bounds,
    verify_h_block_properties,
    vertex_connectivity,
    wheel,
)
from conftest import random_graph
from oracles import burnside_class_count, edge_spectrum, iter_labeled_graphs


_REPORTER = None


@pytest.fixture(scope="session", autouse=True)
def _terminal_reporter(request):
    # pytest's fd-level capture swallows even sys.__stdout__; the terminal
    # reporter holds the real stream, so summary lines always reach the user.
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")
    yield
    _REPORTER = None


def _emit(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _REPORTER is not None:
        _REPORTER.ensure_newline()
        _REPORTER.write_line(line)
    else:
        sys.__stdout__.write(line + "\n")
        sys.__stdout__.flush()


@contextmanager
def criterion(num: int):
    report = {"detail": ""}
    t0 = time.monotonic()
    try:
        yield report
    except BaseException as exc:  # print the one FAIL line, then let pytest fail
        _emit(num, False, f"{type(exc).__name__}: {exc}")
        raise
    elapsed = time.monotonic() - t0
    _emit(num, True, f"{report['detail']} [{elapsed:.1f}s]")


def _canon6(g):
    return emit_graph6(canonical_graph(g))


@pytest.fixture(scope="session")
def min_sizes():
    """Exhaustive minimum-size searches for the pancyclicity predicate, 4..9."""
    t0 = time.monotonic()
    outs = {n: min_size_edge_pancyclic(n) for n in range(4, 10)}
    return outs, time.monotonic() - t0


@pytest.fixture(scope="session")
def small_censuses():
    """All edge-pancyclic graphs of orders 4 and 5, any size."""
    return (
        extremal_census(4, "edge-pancyclic"),
        extremal_census(5, "edge-pancyclic"),
    )


@pytest.fixture(scope="session")
def q_family():
    return {n: q_graph(n) for n in range(10, 26)}


def test_criterion_01_minimum_size_per_order(min_sizes):
    with criterion(1) as c:
        outs, elapsed = min_sizes
        for n in range(4, 10):
            out = outs[n]
            assert out.value == 2 * n - 2, f"order {n}: got {out.value}"
            assert out.exhaustive, f"order {n}: search not exhaustive"
        assert elapsed <= 600, f"searches took {elapsed:.0f}s > 600s"
        values = ", ".join(str(outs[n].value) for n in range(4, 10))
        c["detail"] = (
            f"minimum sizes for orders 4..9 = {values} = 2n-2, all exhaustive "
            f"({elapsed:.1f}s <= 600s); orders 10, 11 and 12 (18, 20, 22) are "
            "pinned by their own test"
        )


def test_minimum_size_orders_10_and_11():
    # f(10) = 18, f(11) = 20 and f(12) = 22, past the paper's small orders:
    # 2n - 2 still, with every extremal class and the tree size of the
    # exhaustive built-in search.
    expected = {
        10: (18, 2208, ["IrqcSLOKG", "I}iSSIA_W"]),
        11: (20, 9901, ["J}iSSIA_S@_"]),
        12: (22, 47810, ["K]iRAaG`ICGH", "KrqcSIA_Y_E@", "K}iSSIA_S@OB"]),
    }
    t0 = time.monotonic()
    for n, (value, tree_nodes, witnesses) in expected.items():
        out = min_size_edge_pancyclic(n)
        assert out.exhaustive, f"order {n}: search not exhaustive"
        assert (out.value, out.witnesses) == (value, witnesses), f"order {n}"
        assert out.counts["tree_nodes"] == tree_nodes, f"order {n}"
    elapsed = time.monotonic() - t0
    assert elapsed <= 600, f"searches took {elapsed:.0f}s > 600s"


def test_criterion_02_small_order_censuses(small_censuses):
    with criterion(2) as c:
        census4, census5 = small_censuses
        k4 = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert [canonical_code(g) for g in census4] == [canonical_code(k4)]
        assert len(census5) == 3
        assert sorted(g.size for g in census5) == [8, 9, 10]
        for g in census4 + census5:
            assert is_edge_pancyclic(g).verdict is True
        c["detail"] = (
            "order 4 has the complete graph as its only edge-pancyclic graph; "
            "order 5 has exactly three, sizes {8, 9, 10}"
        )


def test_criterion_03_two_connected_cover_minimum():
    with criterion(3) as c:
        t0 = time.monotonic()
        want_census = {
            8: {_canon6(a_graph(8).graph)},
            10: {_canon6(a_graph(10).graph)},
            9: {_canon6(odd_extremal(kind, 9).graph) for kind in "FGH"},
            11: {_canon6(odd_extremal(kind, 11).graph) for kind in "FGH"},
        }
        mins = []
        for n in range(6, 12):
            out = min_size_triangle_cover(n, 2)
            assert out.value == (3 * n + 1) // 2, f"order {n}: got {out.value}"
            assert out.exhaustive
            if n in want_census:
                assert set(out.witnesses) == want_census[n], f"order {n} census"
            mins.append(out.value)
        elapsed = time.monotonic() - t0
        assert elapsed <= 1800, f"searches took {elapsed:.0f}s > 1800s"
        c["detail"] = (
            f"2-connected cover minima for orders 6..11 = {mins} = ceil(3n/2); "
            "censuses match the named families at orders 8..11 "
            f"({elapsed:.1f}s <= 1800s)"
        )


def test_criterion_04_three_connected_cover_minimum():
    with criterion(4) as c:
        for n in range(4, 10):
            out = min_size_triangle_cover(n, 3)
            assert out.value == 2 * n - 2, f"order {n}: got {out.value}"
            assert out.exhaustive
            assert out.witnesses == [_canon6(wheel(n))], f"order {n} extremal"
        census = extremal_census(5, "triangle-cover", kappa=3)
        assert len(census) == 3
        for g in census:
            assert is_k_connected(g, 3)
            assert has_triangle_cover(g).verdict is True
        c["detail"] = (
            "3-connected cover minimum is 2n-2 with the wheel as unique "
            "extremal graph for orders 4..9; exactly three 3-connected "
            "order-5 cover graphs"
        )


def test_criterion_05_connected_cover_minimum():
    with criterion(5) as c:
        mins = []
        for n in range(4, 11):
            out = min_size_triangle_cover(n, 1)
            assert out.value == (3 * n - 2) // 2, f"order {n}: got {out.value}"
            assert out.exhaustive
            mins.append(out.value)
        c["detail"] = (
            f"connected cover minima for orders 4..10 = {mins} = floor((3n-2)/2)"
        )


def test_criterion_06_ring_construction_fully_witnessed():
    with criterion(6) as c:
        t0 = time.monotonic()
        ring = g_ring(3).graph
        assert ring.order == 39 and ring.size == 75
        report = is_edge_pancyclic(ring, witnesses=True)
        assert report.verdict is True
        adjacency = [set(ring.neighbors(v)) for v in range(ring.order)]
        witnesses = report.evidence["witnesses"]
        assert set(witnesses) == {f"{e.u}-{e.v}" for e in ring.edges()}
        checked = 0
        for key, by_length in witnesses.items():
            u, v = map(int, key.split("-"))
            assert sorted(by_length) == list(range(3, 40)), f"edge {key}"
            for length, cyc in by_length.items():
                assert len(cyc) == length and len(set(cyc)) == length
                pos_u, pos_v = cyc.index(u), cyc.index(v)
                assert (pos_u - pos_v) % length in (1, length - 1)
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    assert b in adjacency[a]
                checked += 1
        assert checked == 75 * 37
        elapsed = time.monotonic() - t0
        assert elapsed <= 600, f"witness run took {elapsed:.0f}s > 600s"
        c["detail"] = (
            "ring construction at k=3: order 39, size 75, edge-pancyclic with "
            f"all {checked} (edge, length) cycles verified "
            f"({elapsed:.1f}s <= 600s)"
        )


def test_criterion_07_block_battery():
    with criterion(7) as c:
        for k in (3, 4, 5):
            report = verify_h_block_properties(k)
            assert report.verdict is True, f"k={k}: {report.evidence}"
        c["detail"] = (
            "bridged-fan block battery passes all six structural properties "
            "for k = 3, 4, 5"
        )


def test_criterion_08_diameter_family_and_search(q_family):
    with criterion(8) as c:
        t0 = time.monotonic()
        for n in range(10, 26):
            g = q_family[n]
            assert diameter(g) == 2 * n // 5, f"order {n} diameter"
            assert is_edge_pancyclic(g).verdict is True, f"order {n}"
        for n in range(3, 8):
            out = max_diameter_edge_pancyclic(n, mode="witness")
            assert out.value == 2 * n // 5, f"order {n} witness"
        for n in (6, 7, 8):
            out = max_diameter_edge_pancyclic(n, mode="exhaustive")
            assert out.value == 2 * n // 5, f"order {n} exhaustive: {out.value}"
            assert out.exhaustive
        elapsed = time.monotonic() - t0
        assert elapsed <= 1800, f"runs took {elapsed:.0f}s > 1800s"
        c["detail"] = (
            "sequential-join family reaches diameter floor(2n/5) and is "
            "edge-pancyclic for orders 10..25; witnesses cover orders 3..7; "
            "exhaustive search confirms the maximum for orders 6..8 "
            f"({elapsed:.1f}s <= 1800s)"
        )


def test_criterion_09_layer_floors(min_sizes, small_censuses, q_family):
    with criterion(9) as c:
        outs, _ = min_sizes
        census4, census5 = small_censuses
        extremal = {}
        for out in outs.values():
            for line in out.witnesses:
                g = parse_graph6(line)
                extremal[canonical_code(g).bits] = g
        for g in census4 + census5:
            extremal[canonical_code(g).bits] = g
        deep = [q_family[n] for n in range(10, 26) if 2 * n // 5 >= 5]
        for g in list(extremal.values()) + deep:
            assert min(g.degrees()) >= 3
            assert vertex_connectivity(g) >= 2
            report = verify_distance_layer_bounds(g)
            assert report.verdict is True, report.evidence
        c["detail"] = (
            f"layer-size floors, minimum degree >= 3 and connectivity >= 2 "
            f"hold on {len(extremal)} extremal graphs and {len(deep)} "
            "deep sequential-join graphs (diameter >= 5)"
        )


def test_criterion_10_infrastructure_oracles():
    with criterion(10) as c:
        t0 = time.monotonic()
        rng = random.Random(424242)

        for _ in range(10_000):
            g = random_graph(rng, rng.randint(1, 30), rng.choice((0.2, 0.5, 0.8)))
            back = parse_graph6(emit_graph6(g))
            assert back.order == g.order and sorted(back.edges()) == sorted(g.edges())

        for _ in range(1_000):
            g = random_graph(rng, rng.randint(3, 10))
            base = canonical_code(g).bits
            for _ in range(10):
                perm = list(range(g.order))
                rng.shuffle(perm)
                assert canonical_code(g.relabel(tuple(perm))).bits == base

        expected_classes = (1, 2, 4, 11, 34, 156, 1044)
        for n, want in enumerate(expected_classes, start=1):
            generated = sum(1 for _ in enumerate_graphs(n))
            dedup = len(
                {
                    canonical_code(build_graph(order, edges)).bits
                    for order, edges in iter_labeled_graphs(n)
                }
            )
            assert generated == dedup == burnside_class_count(n) == want, f"n={n}"

        connected = 0
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                if not is_connected(g):
                    continue
                spec = cycle_spectrum(g)
                want = edge_spectrum(g.order, g.edges())
                assert spec.complete
                assert {tuple(e) for e in spec.lengths_by_edge} == set(want)
                for e, lengths in spec.lengths_by_edge.items():
                    assert set(lengths) == want[tuple(e)]
                connected += 1
        assert connected == 1 + 1 + 2 + 6 + 21 + 112 + 853

        elapsed = time.monotonic() - t0
        assert elapsed <= 600, f"oracle battery took {elapsed:.0f}s > 600s"
        c["detail"] = (
            "10,000 graph6 roundtrips; 1,000 x 10 canonical-code invariance; "
            "class counts for orders 1..7 match the naive dedup and the "
            f"cycle-index count; cycle spectra match brute enumeration on all "
            f"{connected} connected graphs of order <= 7 "
            f"({elapsed:.1f}s <= 600s)"
        )
