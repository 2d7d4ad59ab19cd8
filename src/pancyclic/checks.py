"""Exact decision procedures for cycle spectra and related predicates.

The workhorse is a depth-first search for a simple (a, b)-path of an exact
edge count, pruned at every node by a breadth-first scan of the residual
graph (unvisited vertices plus the current one): the target must remain
reachable within the remaining length, there must be enough reachable
unvisited vertices left, and a required edge, when one is set, must keep
both endpoints reachable. A cycle of length L through edge ab is exactly a
simple (a, b)-path of length L - 1 in the graph without ab.

Absence of a length is certified by exhausting the pruned search tree. An
optional node budget, one total shared by every probe of a check, turns
long probes into an explicit "unknown" verdict (never a silent false
negative); reports carry the verdict, evidence, and search statistics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import families
from .graphs import (
    DistanceLayers,
    Edge,
    Graph,
    GraphError,
    distance_layers,
    is_connected,
    is_k_connected,
    min_degree,
)


@dataclass
class CheckReport:
    """Outcome of one predicate check: verdict, evidence, search statistics.

    ``verdict`` is True/False when decided, None when a node budget stopped
    the decision — unknown, because absence was never certified.
    """

    predicate: str
    verdict: bool | None
    evidence: dict
    stats: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "predicate": self.predicate,
            "verdict": self.verdict,
            "evidence": self.evidence,
            "stats": self.stats,
        }


@dataclass
class CycleSpectrum:
    """Cycle lengths through each probed edge; ``complete`` is False when a
    budget stopped some probe, in which case only confirmed lengths are
    listed and nothing is claimed about the rest."""

    lengths_by_edge: dict[Edge, frozenset[int]]
    complete: bool

    def to_json_dict(self) -> dict:
        return {
            "edges": {
                f"{e.u}-{e.v}": sorted(lengths)
                for e, lengths in sorted(self.lengths_by_edge.items())
            },
            "complete": self.complete,
        }


class _Budget:
    __slots__ = ("left",)

    def __init__(self, ceiling: int | None):
        self.left = ceiling

    def spend(self) -> bool:
        if self.left is None:
            return True
        if self.left <= 0:
            return False
        self.left -= 1
        return True


class _OutOfBudget(Exception):
    pass


def _find_exact_path(
    adj: tuple[int, ...] | list[int],
    a: int,
    b: int,
    length: int,
    budget: _Budget,
    required: tuple[int, int] | None = None,
) -> list[int] | None:
    """Vertex list of a simple (a, b)-path with exactly ``length`` edges, or
    None when no such path exists. Raises _OutOfBudget when the node budget
    runs out before either answer is certain."""
    if length < 1 or a == b:
        raise GraphError("path probes need distinct endpoints and length >= 1")
    bbit = 1 << b
    req_mask = 0
    if required is not None:
        req_mask = (1 << required[0]) | (1 << required[1])
    path = [a]

    def rec(cur: int, vis: int, r: int, used: bool) -> bool:
        if not budget.spend():
            raise _OutOfBudget
        cbit = 1 << cur
        if r == 1:
            if (adj[cur] & bbit) and not (vis & bbit):
                if required is None or used or (cbit | bbit) == req_mask:
                    path.append(b)
                    return True
            return False
        alive = ~vis
        # Residual BFS from cur: distance to b, reachable unvisited count,
        # and reachability of a still-unused required edge's endpoints.
        seen = cbit
        frontier = cbit
        dist_b = -1
        d = 0
        while frontier:
            d += 1
            f = frontier
            nxt = 0
            while f:
                low = f & -f
                nxt |= adj[low.bit_length() - 1]
                f ^= low
            nxt &= alive & ~seen
            if not nxt:
                break
            if dist_b < 0 and nxt & bbit:
                dist_b = d
            seen |= nxt
            frontier = nxt
        if dist_b < 0 or dist_b > r:
            return False
        if (seen & alive).bit_count() < r:
            return False
        if required is not None and not used:
            if (seen | cbit) & req_mask != req_mask:
                return False
        nbrs = adj[cur] & alive & ~bbit
        while nbrs:
            low = nbrs & -nbrs
            w = low.bit_length() - 1
            nbrs ^= low
            path.append(w)
            w_used = used or (required is not None and (cbit | low) == req_mask)
            if rec(w, vis | low, r - 1, w_used):
                return True
            path.pop()
        return False

    if rec(a, 1 << a, length, False):
        return path
    return None


def _probe(
    adj,
    a: int,
    b: int,
    length: int,
    budget: _Budget,
    required: tuple[int, int] | None = None,
) -> tuple[bool | None, list[int] | None]:
    """(found, witness); found=None when the budget ran out."""
    try:
        witness = _find_exact_path(adj, a, b, length, budget, required)
    except _OutOfBudget:
        return None, None
    if witness is None:
        return False, None
    return True, witness


# -- public low-level operations -------------------------------------------


def path_length_set(
    g: Graph, a: int, b: int, targets: tuple[int, ...] | None = None
) -> frozenset[int]:
    """Exact set of lengths in ``targets`` realized by simple (a, b)-paths."""
    if not (0 <= a < g.order and 0 <= b < g.order) or a == b:
        raise GraphError(f"invalid path endpoints ({a}, {b})")
    if targets is None:
        targets = tuple(range(1, g.order))
    found = set()
    budget = _Budget(None)
    for length in sorted(set(targets)):
        if length < 1 or length > g.order - 1:
            continue
        ok, _ = _probe(g.adj, a, b, length, budget)
        if ok:
            found.add(length)
    return frozenset(found)


def edge_cycle_lengths(
    g: Graph, e: tuple[int, int], targets: tuple[int, ...] | None = None
) -> frozenset[int]:
    """Exact set of cycle lengths through edge ``e`` (within ``targets``)."""
    u, v = e
    if not g.has_edge(u, v):
        raise GraphError(f"({u}, {v}) is not an edge of the graph")
    if targets is None:
        targets = tuple(range(3, g.order + 1))
    reduced = g.without_edge(u, v)
    found = set()
    budget = _Budget(None)
    for length in sorted(set(targets)):
        if length < 3 or length > g.order:
            continue
        ok, _ = _probe(reduced.adj, u, v, length - 1, budget)
        if ok:
            found.add(length)
    return frozenset(found)


def cycle_spectrum(
    g: Graph,
    edges: list[tuple[int, int]] | None = None,
    targets: tuple[int, ...] | None = None,
    budget: int | None = None,
) -> CycleSpectrum:
    """Per-edge cycle length sets; budget (total DFS nodes) may leave it
    incomplete, in which case only confirmed lengths appear."""
    probe_edges = [Edge.of(*e) for e in edges] if edges is not None else list(g.edges())
    if targets is None:
        targets = tuple(range(3, g.order + 1))
    shared = _Budget(budget)
    table: dict[Edge, frozenset[int]] = {}
    complete = True
    for e in probe_edges:
        if not g.has_edge(e.u, e.v):
            raise GraphError(f"({e.u}, {e.v}) is not an edge of the graph")
        reduced = g.without_edge(e.u, e.v)
        found = set()
        for length in sorted(set(targets)):
            if length < 3 or length > g.order:
                continue
            ok, _ = _probe(reduced.adj, e.u, e.v, length - 1, shared)
            if ok is None:
                complete = False
                break
            if ok:
                found.add(length)
        table[e] = frozenset(found)
        if not complete:
            break
    return CycleSpectrum(lengths_by_edge=table, complete=complete)


# -- predicates -------------------------------------------------------------


def has_triangle_cover(g: Graph) -> CheckReport:
    """Whether every edge has an endpoint-common neighbour (lies in a triangle)."""
    uncovered = [
        [u, v] for u, v in g.edges() if not (g.adj[u] & g.adj[v])
    ]
    return CheckReport(
        predicate="triangle-cover",
        verdict=not uncovered,
        evidence={"uncovered_edges": uncovered},
        stats={"edges": g.size},
    )


def is_edge_pancyclic(
    g: Graph, *, budget: int | None = None, witnesses: bool = False
) -> CheckReport:
    """Every edge on a cycle of every length from 3 to the order.

    Probes edges in lexicographic order and lengths ascending; stops at the
    first certified miss. With ``witnesses=True`` the evidence carries one
    cycle (vertex list) per edge and length.
    """
    if g.order < 3:
        raise GraphError("edge-pancyclicity needs at least 3 vertices")
    t0 = time.monotonic()
    shared = _Budget(budget)
    witness_map: dict[str, dict[int, list[int]]] = {}
    probes = 0
    for e in g.edges():
        reduced = g.without_edge(e.u, e.v)
        per_edge: dict[int, list[int]] = {}
        for length in range(3, g.order + 1):
            probes += 1
            ok, path = _probe(reduced.adj, e.u, e.v, length - 1, shared)
            if ok is None:
                return CheckReport(
                    predicate="edge-pancyclic",
                    verdict=None,
                    evidence={"undecided_edge": [e.u, e.v], "undecided_length": length},
                    stats=_stats(t0, probes, budget, shared),
                )
            if not ok:
                return CheckReport(
                    predicate="edge-pancyclic",
                    verdict=False,
                    evidence={"missing_edge": [e.u, e.v], "missing_length": length},
                    stats=_stats(t0, probes, budget, shared),
                )
            if witnesses:
                per_edge[length] = path
        if witnesses:
            witness_map[f"{e.u}-{e.v}"] = per_edge
    evidence: dict = {"edges_checked": g.size, "lengths": [3, g.order]}
    if witnesses:
        evidence["witnesses"] = witness_map
    return CheckReport(
        predicate="edge-pancyclic",
        verdict=True,
        evidence=evidence,
        stats=_stats(t0, probes, budget, shared),
    )


def is_vertex_pancyclic(g: Graph, *, budget: int | None = None) -> CheckReport:
    """Every vertex on a cycle of every length from 3 to the order."""
    if g.order < 3:
        raise GraphError("vertex-pancyclicity needs at least 3 vertices")
    t0 = time.monotonic()
    shared = _Budget(budget)
    probes = 0
    for v in range(g.order):
        for length in range(3, g.order + 1):
            found = False
            undecided = False
            for u in g.neighbors(v):
                probes += 1
                reduced = g.without_edge(v, u)
                ok, _ = _probe(reduced.adj, v, u, length - 1, shared)
                if ok:
                    found = True
                    break
                if ok is None:
                    undecided = True
                    break
            if found:
                continue
            if undecided:
                return CheckReport(
                    predicate="vertex-pancyclic",
                    verdict=None,
                    evidence={"undecided_vertex": v, "undecided_length": length},
                    stats=_stats(t0, probes, budget, shared),
                )
            return CheckReport(
                predicate="vertex-pancyclic",
                verdict=False,
                evidence={"missing_vertex": v, "missing_length": length},
                stats=_stats(t0, probes, budget, shared),
            )
    return CheckReport(
        predicate="vertex-pancyclic",
        verdict=True,
        evidence={"vertices_checked": g.order, "lengths": [3, g.order]},
        stats=_stats(t0, probes, budget, shared),
    )


def is_pancyclic(g: Graph, *, budget: int | None = None) -> CheckReport:
    """Some cycle of every length from 3 to the order."""
    if g.order < 3:
        raise GraphError("pancyclicity needs at least 3 vertices")
    t0 = time.monotonic()
    shared = _Budget(budget)
    probes = 0
    all_edges = list(g.edges())
    for length in range(3, g.order + 1):
        found = False
        for e in all_edges:
            probes += 1
            reduced = g.without_edge(e.u, e.v)
            ok, _ = _probe(reduced.adj, e.u, e.v, length - 1, shared)
            if ok is None:
                return CheckReport(
                    predicate="pancyclic",
                    verdict=None,
                    evidence={"undecided_length": length},
                    stats=_stats(t0, probes, budget, shared),
                )
            if ok:
                found = True
                break
        if not found:
            return CheckReport(
                predicate="pancyclic",
                verdict=False,
                evidence={"missing_length": length},
                stats=_stats(t0, probes, budget, shared),
            )
    return CheckReport(
        predicate="pancyclic",
        verdict=True,
        evidence={"lengths": [3, g.order]},
        stats=_stats(t0, probes, budget, shared),
    )


def _stats(t0: float, probes: int, budget: int | None, shared: _Budget) -> dict:
    out = {"probes": probes, "elapsed_ms": int((time.monotonic() - t0) * 1000)}
    if budget is not None:
        out["budget"] = budget
        out["budget_left"] = shared.left
    return out


# -- structural verifications ------------------------------------------------


def verify_distance_layer_bounds(g: Graph) -> CheckReport:
    """Layer-size floors from a peripheral vertex, plus delta >= 3 and 2-connexity.

    With layers V_0 .. V_d from a vertex of maximum eccentricity the checks
    are |V_1| >= 3 (d >= 1), |V_{d-1}| + |V_d| >= 4 (d >= 2), and
    |V_i| + |V_{i+1}| >= 5 for 1 <= i <= d - 2. Inapplicable inequalities
    (diameter too small) are recorded as skipped.
    """
    if g.order < 4:
        raise GraphError("layer bound verification needs at least 4 vertices")
    if not is_connected(g):
        raise GraphError("layer bound verification needs a connected graph")
    eccs = [distance_layers(g, v).eccentricity for v in range(g.order)]
    d = max(eccs)
    source = eccs.index(d)
    layers = distance_layers(g, source)
    sizes = layers.sizes()
    results: dict = {
        "source": source,
        "diameter": d,
        "layer_sizes": list(sizes),
    }
    ok = True
    if d >= 1:
        results["first_layer_min3"] = sizes[1] >= 3
        ok &= sizes[1] >= 3
    else:
        results["first_layer_min3"] = "skipped"
    if d >= 2:
        results["last_two_layers_min4"] = sizes[d - 1] + sizes[d] >= 4
        ok &= sizes[d - 1] + sizes[d] >= 4
    else:
        results["last_two_layers_min4"] = "skipped"
    failing = [
        i for i in range(1, d - 1) if sizes[i] + sizes[i + 1] < 5
    ]
    results["inner_pairs_min5"] = {
        "applies_to": [1, d - 2] if d >= 3 else None,
        "failing": failing,
    }
    ok &= not failing
    dm = min_degree(g)
    results["min_degree"] = dm
    ok &= dm >= 3
    two_conn = is_k_connected(g, 2)
    results["two_connected"] = two_conn
    ok &= two_conn
    return CheckReport(
        predicate="layer-bounds",
        verdict=bool(ok),
        evidence=results,
        stats={},
    )


def verify_h_block_properties(k: int, *, budget: int | None = None) -> CheckReport:
    """The six structural properties of the two-fan block on 6k - 4 vertices.

    P1: (v1, u1)-paths of every length 3 .. 6k-5.
    P2: every spine edge lies on a (v1, u1)-path of length 6k-5.
    P3: each path edge v_i v_{i+1} (i <= 3k-4) lies on cycles of every
        length 3 .. 6k-4 and on a (v1, u1)-path of length 3k-i+1.
    P4: the v-to-far-fan edge lies on cycles of every length 3 .. 6k-4 and
        on a (v1, u1)-path of length 4.
    P5: the centre-centre edge vu lies on cycles of every length 3 .. 3k-1
        and on a (v1, u1)-path of length 3; its full exact spectrum is
        reported as evidence.
    P6: each spoke vv_i lies on cycles of every length 3 .. 6k-i-3 and on a
        (v1, u1)-path of length 3k-i+1.
    """
    if k < 3:
        raise GraphError("the two-fan block needs k >= 3")
    t0 = time.monotonic()
    lab = families.h_block(k)
    g, names = lab.graph, lab.labels
    v, u = names["v"], names["u"]
    v1, u1 = names["v1"], names["u1"]
    order = g.order
    shared = _Budget(budget)
    probes = 0
    evidence: dict = {"k": k, "order": order, "size": g.size}

    def fail(prop: str, detail: dict) -> CheckReport:
        evidence["failed"] = {"property": prop, **detail}
        return CheckReport(
            predicate="h-block-properties",
            verdict=False,
            evidence=evidence,
            stats=_stats(t0, probes, budget, shared),
        )

    def undecided(prop: str, detail: dict) -> CheckReport:
        evidence["undecided"] = {"property": prop, **detail}
        return CheckReport(
            predicate="h-block-properties",
            verdict=None,
            evidence=evidence,
            stats=_stats(t0, probes, budget, shared),
        )

    def path_probe(length: int, required: tuple[int, int] | None = None):
        nonlocal probes
        probes += 1
        return _probe(g.adj, v1, u1, length, shared, required)

    def cycles_probe(edge: tuple[int, int], lengths: range) -> tuple[str, int] | None:
        # Returns None when all lengths present; otherwise ("miss"|"budget", length).
        nonlocal probes
        reduced = g.without_edge(*edge)
        for p in lengths:
            probes += 1
            ok, _ = _probe(reduced.adj, edge[0], edge[1], p - 1, shared)
            if ok is None:
                return ("budget", p)
            if not ok:
                return ("miss", p)
        return None

    # P1
    for p in range(3, 6 * k - 4):
        ok, _ = path_probe(p)
        if ok is None:
            return undecided("P1", {"length": p})
        if not ok:
            return fail("P1", {"length": p})
    evidence["P1"] = {"path_lengths": [3, 6 * k - 5]}

    # P2
    spine = families.h_block_spine_edges(lab)
    for e in spine:
        ok, _ = path_probe(6 * k - 5, required=(e.u, e.v))
        if ok is None:
            return undecided("P2", {"edge": [e.u, e.v]})
        if not ok:
            return fail("P2", {"edge": [e.u, e.v]})
    evidence["P2"] = {"spine_edges": len(spine), "path_length": 6 * k - 5}

    # P3
    for i in range(1, 3 * k - 3):
        e = (names[f"v{i}"], names[f"v{i + 1}"])
        bad = cycles_probe(e, range(3, 6 * k - 3))
        if bad is not None:
            kind, p = bad
            return (undecided if kind == "budget" else fail)(
                "P3", {"edge": list(e), "length": p}
            )
        ok, _ = path_probe(3 * k - i + 1, required=e)
        if ok is None:
            return undecided("P3", {"edge": list(e), "path_length": 3 * k - i + 1})
        if not ok:
            return fail("P3", {"edge": list(e), "path_length": 3 * k - i + 1})
    evidence["P3"] = {"edges": 3 * k - 4, "cycle_lengths": [3, 6 * k - 4]}

    # P4
    far = (v, names[f"u{3 * k - 3}"])
    bad = cycles_probe(far, range(3, 6 * k - 3))
    if bad is not None:
        kind, p = bad
        return (undecided if kind == "budget" else fail)("P4", {"length": p})
    ok, _ = path_probe(4, required=far)
    if ok is None:
        return undecided("P4", {"path_length": 4})
    if not ok:
        return fail("P4", {"path_length": 4})
    evidence["P4"] = {"cycle_lengths": [3, 6 * k - 4], "path_length": 4}

    # P5: required range plus the full exact spectrum as evidence.
    centre = (v, u)
    bad = cycles_probe(centre, range(3, 3 * k))
    if bad is not None:
        kind, p = bad
        return (undecided if kind == "budget" else fail)("P5", {"length": p})
    ok, _ = path_probe(3, required=centre)
    if ok is None:
        return undecided("P5", {"path_length": 3})
    if not ok:
        return fail("P5", {"path_length": 3})
    spectrum = edge_cycle_lengths(g, centre)
    probes += order - 2
    evidence["P5"] = {
        "cycle_lengths": [3, 3 * k - 1],
        "path_length": 3,
        "exact_spectrum": sorted(spectrum),
    }

    # P6
    for i in range(1, 3 * k - 2):
        e = (v, names[f"v{i}"])
        bad = cycles_probe(e, range(3, 6 * k - i - 2))
        if bad is not None:
            kind, p = bad
            return (undecided if kind == "budget" else fail)(
                "P6", {"edge": list(e), "length": p}
            )
        ok, _ = path_probe(3 * k - i + 1, required=e)
        if ok is None:
            return undecided("P6", {"edge": list(e), "path_length": 3 * k - i + 1})
        if not ok:
            return fail("P6", {"edge": list(e), "path_length": 3 * k - i + 1})
    evidence["P6"] = {"edges": 3 * k - 3}

    return CheckReport(
        predicate="h-block-properties",
        verdict=True,
        evidence=evidence,
        stats=_stats(t0, probes, budget, shared),
    )
