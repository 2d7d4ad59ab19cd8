"""Exact decision procedures for cycle spectra and related predicates.

The workhorse is a depth-first search for a simple (a, b)-path of an exact
edge count. A cycle of length L through edge ab is exactly a simple
(a, b)-path of length L - 1 in the graph without ab. A DFS node is a path
a .. cur with r edges still to go; it tries cur's neighbours in ascending
order, and four exact rules cut it short:

- Residual scan, b a sink. A breadth-first scan from cur over the
  unvisited vertices, never expanding b, prunes the node unless b lies
  within r steps, at least r unvisited vertices are reached, and a
  required edge not yet on the path has both endpoints reached. The rest
  of any completion runs from cur to b through unvisited vertices and
  meets b only at its end, so all of it lies in the scan: a pruned node
  has no completion.
- Early stop. The scan ends as soon as all three tests pass, and fails
  once level r is done without b. Each test only turns from failing to
  passing as levels are added, so it decides as the full scan would.
- One-step close. With r == 2 and no required edge left to cover, the
  node closes the path through the lowest unvisited common neighbour of
  cur and b: the first child whose last step the DFS would complete.
- Dead ends (after Rubin, JACM 21, 1974). Once the scan passes with at
  most r + 2 vertices reached, cur and b included, r - 1 of the others
  need two reached neighbours: the inner vertices of any completion do,
  as both of their path neighbours lie on it. The count only grows with
  the scan, so a short count resumes it and prunes once it runs out.

A pruned subtree holds no path, and the close returns the path its
children would have found first, so the search finds the same first path
in neighbour order as the plain DFS (full scan, b expanded, children down
to r == 1) and expands no more nodes. Under a node budget it can only
decide more.

Absence of a length is certified by exhausting the pruned search tree. An
optional node budget, one total shared by every probe of a check, turns
long probes into an explicit "unknown" verdict (never a silent false
negative); reports carry the verdict, evidence, and search statistics.

Every check runs on one engine. ``_Probes`` holds a check's budget, probe
count and per-edge graph-without-edge adjacency. A predicate is a generator
of needs in probe order, each a detail plus the probes that can meet it;
``_first_unmet`` returns the first need that no probe met, certified absent
(False) or stopped by the budget (None). The h-block battery is a table.

Cycle probes run inside the edge's block (Hopcroft & Tarjan, CACM 16(6),
1973). A cycle is 2-connected, so a cycle through ab lies inside ab's
block: a length above the block's order (a bridge is a block of order 2)
is certified absent with no DFS, and so is an odd length in a bipartite
block, which has no odd cycle. A block B is also certified
non-Hamiltonian, and every later length-|B| pair of it absent, once
exhausted DFS probes have put deg_B(x) - 1 distinct edges at one vertex x
on no Hamilton cycle of B: a Hamilton cycle uses two edges at x, and at
most one is left. None of these spends budget; ``stats`` counts them
as ``certified``, apart from the DFS ``probes``. Every other cycle probe
searches the graph without ab restricted to ab's block. That DFS walks a
subtree of the unrestricted one in the same neighbour order: every pruning
test reads a subset of the same residual graph and prunes there whenever
it prunes on the whole of it, and every path it can
complete lies in the block, as does the common neighbour a one-step close
picks (it closes a cycle through ab). So it finds the same witness,
expands at most as many nodes, and under a budget can only turn an
unknown into a decision.
Path probes (``_Probes.path``) search the whole graph.

A cycle found for one pair is a witness for more: a cycle of length L
through ab passes through L edges, and proves L present for each of them.
``_Probes`` indexes it once, under each vertex on it, and answers a later
probe of any of those pairs with the first recorded cycle that has the
pair on it, with no DFS and no budget spent. A recorded cycle also answers
many of its chords: when ab joins two vertices of a recorded L-cycle C, a
crossing-chord exchange (the step of the closure argument of Bondy &
Chvatal, Discrete Math. 15(2), 1976) turns C into an L-cycle through ab
whenever the successors, or the predecessors, of a and b on C are
adjacent. Two more local edits, steps of the cycle-extension arguments
for pancyclic graphs (Bondy, "Pancyclic graphs I", JCTB 11, 1971; Hendry,
"Extending cycles in graphs", Discrete Math. 85, 1990), answer a pair that
no exchange does. Vertex substitution: when b is off a recorded L-cycle
through a and adjacent to the vertex two steps from a along it, b takes
the place of the vertex between them. One-vertex insertion: when a
recorded (L-1)-cycle has ab on it and the ends of another of its edges
have a common neighbour off it, that neighbour goes between them. These
edits are tried in that order (exchange, substitution, insertion), only
when no recorded cycle has ab on it, and the new cycle is recorded in
turn. ``stats`` counts the pairs answered by a recorded or reshaped cycle
as ``reused``. Every such step only proves a length present; absence is
still proved only by an exhausted DFS or a block certificate, so every
spectrum and verdict stays exact. An absent pair never meets a recorded
cycle, so it reaches the DFS either way, and the non-Hamiltonian
certificate fires at the same pair. A check asks for its pairs in the same
order either way and a probed pair costs the same nodes, so a budgeted
check has at least as much budget left at every point as it would without
them, and decides at least as much. Recorded cycles are scanned in record
order, so the answers do not depend on how a search splits its work
between processes.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from . import families
from .graphs import (
    Block,
    Edge,
    Graph,
    GraphError,
    distance_layers,
    eccentricity,
    edge_blocks,
    is_connected,
    is_k_connected,
    min_degree,
    vertex_connectivity,
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
    """Vertex list of a simple (a, b)-path with exactly ``length`` edges,
    through ``required`` when it is set, or None when no such path exists.
    Raises _OutOfBudget when the node budget runs out before either answer
    is certain.

    A node is a path a .. cur with r edges still to go; each spends one
    budget unit. It tries cur's unvisited neighbours other than b in
    ascending order, cut short by the four rules the module docstring
    argues: at r == 2 with no required edge still to cover, the one-step
    close; otherwise the residual BFS from cur with b a sink, stopped
    early, and the dead-end count when the BFS passes with at most r + 2
    vertices reached. The first path found is the plain DFS's.
    """
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
            if adj[cur] & bbit and (used or (cbit | bbit) == req_mask):
                path.append(b)
                return True
            return False
        alive = ~vis
        want = 0 if used else req_mask
        if r == 2 and not want:
            close = adj[cur] & alive & adj[b]
            if close:
                path.append((close & -close).bit_length() - 1)
                path.append(b)
                return True
            return False
        # Residual BFS from cur, b a sink, stopped once every test passes.
        seen = cbit
        frontier = cbit
        d = 0
        while frontier:
            d += 1
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            nxt &= alive & ~seen
            seen |= nxt
            frontier = nxt & ~bbit
            if not seen & bbit:
                if d >= r:
                    return False
                continue
            size = seen.bit_count()
            if size <= r or seen & want != want:
                continue
            if size <= r + 2:
                # Dead-end count: at most size - r - 1 reached vertices other
                # than cur and b may have fewer than two reached neighbours.
                spare = size - r - 1
                rest = seen ^ cbit ^ bbit
                while rest:
                    low = rest & -rest
                    rest ^= low
                    if (adj[low.bit_length() - 1] & seen).bit_count() < 2:
                        spare -= 1
                        if spare < 0:
                            break
                if spare < 0:
                    continue
            break
        else:
            return False
        nbrs = adj[cur] & alive & ~bbit
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            w = low.bit_length() - 1
            path.append(w)
            if rec(w, vis | low, r - 1, used or (cbit | low) == want):
                return True
            path.pop()
        return False

    if rec(a, 1 << a, length, required is None):
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


# -- the probe engine --------------------------------------------------------


class _Probes:
    """Probe state of one check: its graph, one node budget shared by every
    probe, the probe count, the count of cycle probes certified without a
    DFS, the count of cycle pairs answered by a recorded or reshaped cycle,
    each edge's block (computed on the first cycle probe), each probed
    edge's block-without-edge adjacency, built on first use, the recorded
    cycles ("rings"), and what the Hamilton-length probes proved of each
    block. Every DFS goes through ``_probe``.

    Witness reuse (module docstring): one index lists, for each length L
    and vertex x, the L-rings through x in record order; a ring is written
    once per vertex on it, and a length's lists are made when its first
    ring is recorded. :meth:`_answer`, which both :meth:`cycle` and
    :meth:`lengths` ask, scans the L-rings through a and answers a cycle
    pair (ab, L) by

    - the first of them with b next to a, the first ring recorded with ab
      on it;
    - else the first chord exchange (:meth:`_exchange`) that one of them
      with b on it admits, computed once while the scan looks on for the
      first case;
    - else the vertex substitution (:meth:`_substitute`) of b into the
      first of them without b, found by the same scan, if it applies;
    - else the one-vertex insertion (:meth:`_insert`) into an (L-1)-ring
      with ab on it, if one applies;
    - else the result of :meth:`_search`.

    Every case but the first records the ring it gives (a search, when it
    finds one), and only a search spends budget; :meth:`cycle` returns the
    ring turned to run from a to b. The index holds tuples, so a caller's
    witness list cannot change it, and it lives as long as the check: one
    graph's (edge, length) pairs.

    A block B is certified non-Hamiltonian (module docstring) once
    exhausted DFS probes put deg_B(x) - 1 distinct edges at one vertex x on
    no Hamilton cycle of B; every later (e, |B|) pair of B is then
    certified absent."""

    def __init__(self, g: Graph, budget: int | None = None):
        if budget is not None and budget < 0:
            raise GraphError(f"budget must be a node count >= 0, got {budget}")
        self.g = g
        self.budget = budget
        self.shared = _Budget(budget)
        self.probes = 0
        self.certified = 0
        self.reused = 0
        self.t0 = time.monotonic()
        self._blocks: dict[Edge, Block] | None = None
        self._without: dict[Edge, list[int]] = {}
        # _rings[L][v]: the L-rings through v, in record order; None until
        # the first L-ring is recorded
        self._rings: list[list[list[tuple[int, ...]]] | None] = [None] * (g.order + 1)
        # block mask -> {x: the neighbours y of x with xy on no Hamilton
        # cycle of the block, as a mask}
        self._off_hamilton: dict[int, dict[int, int]] = {}
        self._non_hamiltonian: set[int] = set()

    def path(
        self, a: int, b: int, length: int, required: tuple[int, int] | None = None
    ) -> tuple[bool | None, list[int] | None]:
        """A simple (a, b)-path with ``length`` edges, through ``required`` if set."""
        self.probes += 1
        return _probe(self.g.adj, a, b, length, self.shared, required)

    def cycle(self, a: int, b: int, length: int) -> tuple[bool | None, list[int] | None]:
        """A cycle of ``length`` through edge ab, as an (a, b)-path of
        ``length - 1`` edges without ab, found as the class docstring says."""
        ring = self._answer(a, b, length)
        if not ring:
            return ring, None
        i = ring.index(a)
        if ring[i - 1] == b:  # the ring runs a, ..., b as recorded
            return True, [*ring[i:], *ring[:i]]
        return True, [*ring[i::-1], *ring[:i:-1]]

    def _answer(self, a: int, b: int, length: int) -> tuple[int, ...] | bool | None:
        """The ring that answers the cycle pair (ab, ``length``), with ab on
        it; False when the pair is certified absent, None when the budget
        stopped its DFS."""
        rows = self._rings[length]
        swap = miss = None
        if rows is not None:
            for ring in rows[a]:
                i = ring.index(a)
                if ring[i - 1] == b or ring[i + 1 - length] == b:
                    self.reused += 1
                    return ring
                if swap is None:
                    if b in ring:
                        swap = self._exchange(ring, i, ring.index(b))
                    elif miss is None:
                        miss = ring, i
        ring = swap
        if ring is None and miss is not None:
            ring = self._substitute(*miss, b)
        if ring is None:
            ring = self._insert(a, b, length)
        if ring is None:
            found, witness = self._search(a, b, length)
            if not found:
                return found
            ring = tuple(witness)
        else:
            self.reused += 1
        self._record(ring, length)
        return ring

    def _record(self, ring: tuple[int, ...], length: int) -> None:
        rows = self._rings[length]
        if rows is None:
            rows = self._rings[length] = [[] for _ in range(self.g.order)]
        for x in ring:
            rows[x].append(ring)

    def _exchange(self, ring: tuple[int, ...], i: int, j: int) -> tuple[int, ...] | None:
        """An L-ring through the chord c_i c_j of ``ring`` = c_0 .. c_{L-1},
        or None; i and j come in either order. A chord is not a ring edge:
        with i < j, j >= i + 2 and (i, j) != (0, L - 1). Replacing the ring
        edges c_i c_{i+1} and c_j c_{j+1} by the chord and c_{i+1} c_{j+1},
        when that is an edge, reverses c_{i+1} .. c_j into a simple L-cycle
        through the chord; failing that, replacing c_{i-1} c_i and c_{j-1} c_j
        by c_{i-1} c_{j-1} and the chord reverses c_i .. c_{j-1}. Indices are
        taken mod L, and the first exchange is tried before the second."""
        if i > j:
            i, j = j, i
        adj = self.g.adj
        if adj[ring[i + 1]] >> ring[(j + 1) % len(ring)] & 1:
            return ring[: i + 1] + ring[i + 1 : j + 1][::-1] + ring[j + 1 :]
        if adj[ring[i - 1]] >> ring[j - 1] & 1:
            return ring[:i] + ring[i:j][::-1] + ring[j:]
        return None

    def _substitute(self, ring: tuple[int, ...], i: int, b: int) -> tuple[int, ...] | None:
        """An L-ring through the edge c_i b, for a vertex b off ``ring`` =
        c_0 .. c_{L-1}, or None. When b is adjacent to c_{i+2}, putting b in
        place of c_{i+1} gives the simple L-cycle .. c_i b c_{i+2} ..;
        failing that, when b is adjacent to c_{i-2}, b takes the place of
        c_{i-1}. Indices are taken mod L."""
        size = len(ring)
        row = self.g.adj[b]
        if row >> ring[(i + 2) % size] & 1:
            k = (i + 1) % size
        elif row >> ring[i - 2] & 1:
            k = (i - 1) % size
        else:
            return None
        return ring[:k] + (b,) + ring[k + 1 :]

    def _insert(self, a: int, b: int, length: int) -> tuple[int, ...] | None:
        """An L-ring through ab made from an (L-1)-ring through ab, or None.
        The (L-1)-rings with ab on them are taken in record order; the first
        with a ring edge xy other than ab whose ends have a common neighbour
        w off the ring gives the simple L-cycle .. x w y ..: the lowest such
        w, at the first such edge in ring order."""
        short = length - 1
        rows = self._rings[short]
        if rows is None:
            return None
        adj = self.g.adj
        for ring in rows[a]:
            i = ring.index(a)
            if ring[i - 1] != b and ring[i + 1 - short] != b:
                continue
            off = ~sum(1 << x for x in ring)
            for j in range(short):
                x, y = ring[j], ring[j + 1 - short]
                if x in (a, b) and y in (a, b):
                    continue
                common = adj[x] & adj[y] & off
                if common:
                    w = (common & -common).bit_length() - 1
                    return ring[: j + 1] + (w,) + ring[j + 1 :]
        return None

    def _search(self, a: int, b: int, length: int) -> tuple[bool | None, list[int] | None]:
        """Cycle probe by DFS: an (a, b)-path of ``length - 1`` edges in
        ab's block without ab. Certified absent, with no DFS and no budget
        spent, when ``length`` exceeds the block's order, is odd in a
        bipartite block, or is the order of a block certified
        non-Hamiltonian (module docstring)."""
        if self._blocks is None:
            self._blocks = edge_blocks(self.g)
        key = Edge.of(a, b)
        mask, bipartite = self._blocks[key]
        order = mask.bit_count()
        if (
            length > order
            or (bipartite and length & 1)
            or (length == order and mask in self._non_hamiltonian)
        ):
            self.certified += 1
            return False, None
        adj = self._without.get(key)
        if adj is None:
            adj = self._without[key] = [
                row & mask if mask >> v & 1 else 0 for v, row in enumerate(self.g.adj)
            ]
            adj[a] &= ~(1 << b)
            adj[b] &= ~(1 << a)
        self.probes += 1
        found, witness = _probe(adj, a, b, length - 1, self.shared)
        if found is False and length == order:
            self._rule_out(a, b, mask)
        return found, witness

    def _rule_out(self, a: int, b: int, mask: int) -> None:
        """Note that ab lies on no Hamilton cycle of its block ``mask``, and
        certify the block non-Hamiltonian once some vertex x has
        deg_B(x) - 1 distinct such edges (module docstring)."""
        off = self._off_hamilton.setdefault(mask, {})
        adj = self.g.adj
        for x, y in ((a, b), (b, a)):
            edges = off[x] = off.get(x, 0) | 1 << y
            if edges.bit_count() >= (adj[x] & mask).bit_count() - 1:
                self._non_hamiltonian.add(mask)

    def lengths(self, a: int, b: int, targets: range) -> tuple[frozenset[int], int | None]:
        """Cycle lengths through edge ab among ``targets``, an ascending range
        inside 3 .. order, probed in order; and the length at which the budget
        stopped the probing, or None when it did not."""
        n = self.g.order
        if not (0 <= a < n and 0 <= b < n and self.g.has_edge(a, b)):
            raise GraphError(f"({a}, {b}) is not an edge of the graph")
        found = set()
        for length in targets:
            ring = self._answer(a, b, length)
            if ring is None:
                return frozenset(found), length
            if ring:
                found.add(length)
        return frozenset(found), None

    def report(self, predicate: str, verdict: bool | None, evidence: dict) -> CheckReport:
        stats = {
            "probes": self.probes,
            "certified": self.certified,
            "reused": self.reused,
            "elapsed_ms": int((time.monotonic() - self.t0) * 1000),
        }
        if self.budget is not None:
            stats["budget"] = self.budget
            stats["budget_left"] = self.shared.left
        return CheckReport(predicate, verdict, evidence, stats)


_Need = tuple[dict, Iterable[tuple[bool | None, list[int] | None]]]


def _first_unmet(needs: Iterable[_Need]) -> tuple[bool | None, dict | None]:
    """Meet each need, in order, with the first of its probes that finds a path.

    A need is (detail, probe results), the results produced lazily. Returns
    (False, detail) for the first need whose probes are all certified
    absent, (None, detail) when the budget stopped a probe of it first, and
    (True, None) when every need is met.
    """
    for detail, results in needs:
        for found, _ in results:
            if found is None:
                return None, detail
            if found:
                break
        else:
            return False, detail
    return True, None


def _decide(
    probes: _Probes, predicate: str, needs: Iterable[_Need], holds: dict
) -> CheckReport:
    # Evidence: ``holds``, or the first unmet need's detail as missing_*/undecided_*.
    verdict, detail = _first_unmet(needs)
    if verdict:
        return probes.report(predicate, True, holds)
    prefix = "missing" if verdict is False else "undecided"
    return probes.report(
        predicate, verdict, {f"{prefix}_{key}": val for key, val in detail.items()}
    )


# -- public low-level operations -------------------------------------------


def path_length_set(
    g: Graph, a: int, b: int, targets: tuple[int, ...] | None = None
) -> frozenset[int]:
    """Exact set of lengths in ``targets`` realized by simple (a, b)-paths."""
    if not (0 <= a < g.order and 0 <= b < g.order) or a == b:
        raise GraphError(f"invalid path endpoints ({a}, {b})")
    if targets is None:
        targets = tuple(range(1, g.order))
    probes = _Probes(g)
    return frozenset(
        length
        for length in sorted(set(targets))
        if 1 <= length <= g.order - 1 and probes.path(a, b, length)[0]
    )


def edge_cycle_lengths(g: Graph, e: tuple[int, int]) -> frozenset[int]:
    """Exact set of cycle lengths (3 .. order) through edge ``e``."""
    return _Probes(g).lengths(*e, range(3, g.order + 1))[0]


def cycle_spectrum(
    g: Graph, edges: list[tuple[int, int]] | None = None, *, budget: int | None = None
) -> CycleSpectrum:
    """Per-edge sets of cycle lengths 3 .. order, for ``edges`` (default:
    every edge); budget (total DFS nodes) may leave it incomplete, in which
    case only confirmed lengths appear."""
    probe_edges = [Edge.of(*e) for e in edges] if edges is not None else list(g.edges())
    probes = _Probes(g, budget)
    table: dict[Edge, frozenset[int]] = {}
    for e in probe_edges:
        table[e], stopped = probes.lengths(e.u, e.v, range(3, g.order + 1))
        if stopped is not None:
            return CycleSpectrum(lengths_by_edge=table, complete=False)
    return CycleSpectrum(lengths_by_edge=table, complete=True)


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
    probes = _Probes(g, budget)
    cycles: dict[str, dict[int, list[int]]] = {}

    def needs() -> Iterator[_Need]:
        for e in g.edges():
            for length in range(3, g.order + 1):
                hit = probes.cycle(e.u, e.v, length)
                if witnesses:
                    cycles.setdefault(f"{e.u}-{e.v}", {})[length] = hit[1]
                yield {"edge": [e.u, e.v], "length": length}, (hit,)

    holds: dict = {"edges_checked": g.size, "lengths": [3, g.order]}
    if witnesses:
        holds["witnesses"] = cycles  # complete whenever every need is met
    return _decide(probes, "edge-pancyclic", needs(), holds)


def is_vertex_pancyclic(g: Graph, *, budget: int | None = None) -> CheckReport:
    """Every vertex on a cycle of every length from 3 to the order.

    Each edge uv is probed as (min, max), the direction every other check
    probes it in; the verdict does not depend on the direction."""
    if g.order < 3:
        raise GraphError("vertex-pancyclicity needs at least 3 vertices")
    probes = _Probes(g, budget)

    def needs() -> Iterator[_Need]:
        for v in range(g.order):
            for length in range(3, g.order + 1):
                yield (
                    {"vertex": v, "length": length},
                    (probes.cycle(min(v, u), max(v, u), length) for u in g.neighbors(v)),
                )

    holds = {"vertices_checked": g.order, "lengths": [3, g.order]}
    return _decide(probes, "vertex-pancyclic", needs(), holds)


def is_pancyclic(g: Graph, *, budget: int | None = None) -> CheckReport:
    """Some cycle of every length from 3 to the order."""
    if g.order < 3:
        raise GraphError("pancyclicity needs at least 3 vertices")
    probes = _Probes(g, budget)
    all_edges = list(g.edges())

    def needs() -> Iterator[_Need]:
        for length in range(3, g.order + 1):
            yield (
                {"length": length},
                (probes.cycle(e.u, e.v, length) for e in all_edges),
            )

    return _decide(probes, "pancyclic", needs(), {"lengths": [3, g.order]})


# -- structural verifications ------------------------------------------------


def verify_distance_layer_bounds(g: Graph) -> CheckReport:
    """Layer-size floors from a peripheral vertex, plus delta >= 3 and 2-connexity.

    With layers V_0 .. V_d from the first vertex of maximum eccentricity the
    checks are |V_1| >= 3, |V_{d-1}| + |V_d| >= 4 (d >= 2), and
    |V_i| + |V_{i+1}| >= 5 for 1 <= i <= d - 2. A connected graph on at
    least 4 vertices has d >= 1, so the first floor always applies; the
    others are recorded as skipped when d is too small.
    """
    if g.order < 4:
        raise GraphError("layer bound verification needs at least 4 vertices")
    if not is_connected(g):
        raise GraphError("layer bound verification needs a connected graph")
    eccs = [eccentricity(g, v) for v in range(g.order)]
    d = max(eccs)
    source = eccs.index(d)
    sizes = distance_layers(g, source).sizes()
    evidence: dict = {
        "source": source,
        "diameter": d,
        "layer_sizes": list(sizes),
        # d >= 1 here: the graph is connected and has a second vertex.
        "first_layer_min3": sizes[1] >= 3,
        "last_two_layers_min4": sizes[d - 1] + sizes[d] >= 4 if d >= 2 else "skipped",
        "inner_pairs_min5": {
            "applies_to": [1, d - 2] if d >= 3 else None,
            "failing": [i for i in range(1, d - 1) if sizes[i] + sizes[i + 1] < 5],
        },
        "min_degree": min_degree(g),
        "two_connected": is_k_connected(g, 2),
    }
    verdict = (
        evidence["first_layer_min3"]
        and evidence["last_two_layers_min4"] is not False
        and not evidence["inner_pairs_min5"]["failing"]
        and evidence["min_degree"] >= 3
        and evidence["two_connected"]
    )
    return CheckReport(
        predicate="layer-bounds",
        verdict=verdict,
        evidence=evidence,
        stats={},
    )


def check_connectivity(g: Graph, *, kappa: int = 1) -> CheckReport:
    """Whether ``g`` is ``kappa``-connected; the evidence carries its vertex
    connectivity."""
    if kappa < 0:
        raise GraphError(f"kappa must be >= 0, got {kappa}")
    found = vertex_connectivity(g)
    return CheckReport(
        predicate="connectivity",
        verdict=found >= kappa,
        evidence={"kappa": found, "required": kappa},
        stats={},
    )


# Each check predicate by name, with the keyword options its check reads; an
# option left out takes the check's own default. A check is held by name and
# looked up in this module when it runs, so a wrapper set on the module
# attribute is what runs.
PREDICATES: dict[str, tuple[str, tuple[str, ...]]] = {
    "triangle-cover": ("has_triangle_cover", ()),
    "edge-pancyclic": ("is_edge_pancyclic", ("budget", "witnesses")),
    "vertex-pancyclic": ("is_vertex_pancyclic", ("budget",)),
    "pancyclic": ("is_pancyclic", ("budget",)),
    "layer-bounds": ("verify_distance_layer_bounds", ()),
    "connectivity": ("check_connectivity", ("kappa",)),
}


def check(predicate: str, g: Graph, **options) -> CheckReport:
    """Run the check that :data:`PREDICATES` names ``predicate`` on ``g``."""
    if predicate not in PREDICATES:
        raise GraphError(f"unknown predicate {predicate!r}")
    return globals()[PREDICATES[predicate][0]](g, **options)


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
        reported as evidence, its longer lengths probed from the same budget.
    P6: each spoke vv_i lies on cycles of every length 3 .. 6k-i-3 and on a
        (v1, u1)-path of length 3k-i+1.
    """
    if k < 3:
        raise GraphError("the two-fan block needs k >= 3")
    lab = families.h_block(k)
    probes = _Probes(lab.graph, budget)
    evidence: dict = {"k": k, "order": lab.graph.order, "size": lab.graph.size}
    verdict, detail = _first_unmet(_h_block_needs(k, lab, probes, evidence))
    if verdict is not True:
        evidence["failed" if verdict is False else "undecided"] = detail
    return probes.report("h-block-properties", verdict, evidence)


def _h_block_needs(
    k: int, lab: families.Labeled, probes: _Probes, evidence: dict
) -> Iterator[_Need]:
    # P1-P6 as needs in probe order. A property's evidence is written when
    # the generator resumes past its last need, that is once all were met.
    names = lab.labels
    v, u, v1, u1 = names["v"], names["u"], names["v1"], names["u1"]
    top = 6 * k - 4  # the order: the longest cycle, one more than the longest path
    for p in range(3, top):
        yield {"property": "P1", "length": p}, (probes.path(v1, u1, p),)
    evidence["P1"] = {"path_lengths": [3, top - 1]}
    spine = families.h_block_spine_edges(lab)
    for e in spine:
        yield (
            {"property": "P2", "edge": [e.u, e.v]},
            (probes.path(v1, u1, top - 1, (e.u, e.v)),),
        )
    evidence["P2"] = {"spine_edges": len(spine), "path_length": top - 1}
    # P3-P6: (property, rows of (edge, longest cycle length, (v1, u1)-path
    # length through the edge), evidence). A row's detail names its edge
    # only when the property has several.
    table = (
        ("P3", [((names[f"v{i}"], names[f"v{i + 1}"]), top, 3 * k - i + 1)
                for i in range(1, 3 * k - 3)],
         {"edges": 3 * k - 4, "cycle_lengths": [3, top]}),
        ("P4", [((v, names[f"u{3 * k - 3}"]), top, 4)],
         {"cycle_lengths": [3, top], "path_length": 4}),
        ("P5", [((v, u), 3 * k - 1, 3)],
         {"cycle_lengths": [3, 3 * k - 1], "path_length": 3}),
        ("P6", [((v, names[f"v{i}"]), top - i + 1, 3 * k - i + 1)
                for i in range(1, 3 * k - 2)],
         {"edges": 3 * k - 3}),
    )
    for prop, rows, met in table:
        for e, longest, path_length in rows:
            at = {"property": prop, "edge": list(e)} if len(rows) > 1 else {"property": prop}
            for p in range(3, longest + 1):
                yield {**at, "length": p}, (probes.cycle(*e, p),)
            yield {**at, "path_length": path_length}, (probes.path(v1, u1, path_length, e),)
        if prop == "P5":
            # Spectrum evidence: 3 .. 3k-1 were certified just above.
            tail, stopped = probes.lengths(v, u, range(3 * k, top + 1))
            if stopped is not None:
                yield {"property": "P5", "length": stopped}, ((None, None),)
            met["exact_spectrum"] = list(range(3, 3 * k)) + sorted(tail)
        evidence[prop] = met
