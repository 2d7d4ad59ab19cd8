"""Naive reference implementations used only to cross-check the library.

Everything here is deliberately brute force and independent of the library
internals: permutation search for isomorphism, exhaustive DFS for cycles,
subset deletion for connectivity, and the cycle index of the pair action
for isomorphism-class counts. Slow but obviously right. Functions take
plain (order, edge list) data so they cannot silently reuse library logic.
The exceptions are the reference versions of a library step with a
shortcut left out, kept to show that the shortcut changes no result:
``plain_accepted_children`` (no rejection before canonization),
``PlainProbes`` (no cycle-witness reuse), ``ExchangeOnlyProbes`` (reuse
and the chord exchange, no vertex substitution or insertion),
``ReuseOnlyProbes`` (reuse alone), ``TwoTableProbes`` (each recorded cycle
also kept in a table keyed by its edges), ``NoHamiltonCertificateProbes``
(no non-Hamiltonian block certificate), ``plain_find_exact_path`` (the
path DFS with a full residual BFS at every node: b expanded like any
vertex, no early stop, no one-step close, no dead-end count) and
``NoBackjumpCanonizer`` (the canonizer without the jump back to the first
path).
"""

from __future__ import annotations

import itertools
from math import factorial

from pancyclic import canon, checks


def normalized(edges) -> set[tuple[int, int]]:
    return {(u, v) if u < v else (v, u) for u, v in edges}


def perm_isomorphic(n: int, edges_a, edges_b) -> bool:
    """Isomorphism by trying all n! vertex bijections."""
    ea, eb = normalized(edges_a), normalized(edges_b)
    if len(ea) != len(eb):
        return False
    for perm in itertools.permutations(range(n)):
        if all(
            ((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])) in eb
            for u, v in ea
        ):
            return True
    return False


def all_simple_cycles(n: int, edges) -> set[tuple[int, ...]]:
    """Every simple cycle as a vertex tuple, reported exactly once.

    The representative starts at the cycle's smallest vertex and runs in the
    direction whose second vertex is smaller than its last; DFS only visits
    vertices above the start, so each cycle appears exactly twice (the two
    orientations) before the tie-break keeps one.
    """
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in normalized(edges):
        adj[u].add(v)
        adj[v].add(u)
    cycles: set[tuple[int, ...]] = set()

    def extend(path: list[int], on_path: set[int]) -> None:
        start, cur = path[0], path[-1]
        for w in sorted(adj[cur]):
            if w == start:
                if len(path) >= 3 and path[1] < path[-1]:
                    cycles.add(tuple(path))
            elif w > start and w not in on_path:
                path.append(w)
                on_path.add(w)
                extend(path, on_path)
                on_path.discard(w)
                path.pop()

    for s in range(n):
        extend([s], {s})
    return cycles


def cycle_edge_set(cycle: tuple[int, ...]) -> set[tuple[int, int]]:
    return normalized(
        (cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
    )


def edge_spectrum(n: int, edges) -> dict[tuple[int, int], set[int]]:
    """Cycle lengths through each edge, from full cycle enumeration."""
    edges = normalized(edges)  # materialize: the argument may be a generator
    spectrum: dict[tuple[int, int], set[int]] = {e: set() for e in edges}
    for cycle in all_simple_cycles(n, edges):
        for e in cycle_edge_set(cycle):
            spectrum[e].add(len(cycle))
    return spectrum


def all_simple_paths_between(n: int, edges, a: int, b: int) -> set[tuple[int, ...]]:
    """Every simple path from a to b as a vertex tuple."""
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in normalized(edges):
        adj[u].add(v)
        adj[v].add(u)
    paths: set[tuple[int, ...]] = set()

    def extend(path: list[int], on_path: set[int]) -> None:
        cur = path[-1]
        if cur == b:
            paths.add(tuple(path))
            return
        for w in sorted(adj[cur]):
            if w not in on_path:
                path.append(w)
                on_path.add(w)
                extend(path, on_path)
                on_path.discard(w)
                path.pop()

    extend([a], {a})
    return paths


def _connected_after_removal(n: int, edges, removed: set[int]) -> bool:
    alive = [v for v in range(n) if v not in removed]
    if not alive:
        return True
    adj: dict[int, set[int]] = {v: set() for v in alive}
    for u, v in normalized(edges):
        if u not in removed and v not in removed:
            adj[u].add(v)
            adj[v].add(u)
    seen = {alive[0]}
    frontier = [alive[0]]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen) == len(alive)


def connectivity_by_deletion(n: int, edges) -> int:
    """Vertex connectivity as the smallest disconnecting deletion set."""
    if n < 2:
        return 0
    edges = normalized(edges)
    if len(edges) == n * (n - 1) // 2:
        return n - 1
    if not _connected_after_removal(n, edges, set()):
        return 0
    for k in range(1, n - 1):
        for subset in itertools.combinations(range(n), k):
            if not _connected_after_removal(n, edges, set(subset)):
                return k
    return n - 1


def burnside_class_count(n: int) -> int:
    """Number of graphs on n vertices up to isomorphism, by the cycle index
    of the permutation action on vertex pairs (no graph library involved)."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    total = 0
    for perm in itertools.permutations(range(n)):
        mapping = [
            index[
                (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
            ]
            for u, v in pairs
        ]
        seen = [False] * len(pairs)
        orbits = 0
        for start in range(len(pairs)):
            if not seen[start]:
                orbits += 1
                cur = start
                while not seen[cur]:
                    seen[cur] = True
                    cur = mapping[cur]
        total += 2**orbits
    count, rem = divmod(total, factorial(n))
    assert rem == 0
    return count


def iter_labeled_graphs(n: int):
    """All 2^C(n,2) labeled graphs as (order, edge tuple) pairs."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield n, tuple(p for i, p in enumerate(pairs) if (mask >> i) & 1)


def canonical_removal(n: int, edges, sigma, covered: bool = True) -> frozenset[tuple[int, int]]:
    """The parent move of a graph, by exhaustion: of the candidate sets, the
    one whose sorted list of relabeled pairs (``sigma[v]`` is the new label
    of ``v``) is largest. With ``covered`` the candidates are the nonempty
    subsets of a triangle's edges whose removal leaves each remaining edge in
    a triangle; without it they are the single edges."""
    es = normalized(edges)
    if covered:
        triangles = [
            t for t in itertools.combinations(range(n), 3)
            if {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])} <= es
        ]
        subsets = [
            subset
            for a, b, c in triangles
            for k in (1, 2, 3)
            for subset in itertools.combinations(((a, b), (a, c), (b, c)), k)
        ]
    else:
        subsets = [(e,) for e in es]

    def removable(subset) -> bool:
        rest = es - set(subset)
        return not covered or all(
            any((min(u, w), max(u, w)) in rest and (min(v, w), max(v, w)) in rest
                for w in range(n) if w not in (u, v))
            for u, v in rest
        )

    def key(subset) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(
            (min(sigma[u], sigma[v]), max(sigma[u], sigma[v])) for u, v in subset
        ))

    best = max((s for s in subsets if removable(s)), key=key, default=None)
    assert best is not None, "a nonempty graph of a universe has a removable set"
    return frozenset(best)


def reference_canonize(n: int, edges) -> tuple[int, list[int]]:
    """Canonical (code, labeling) by the plain loops the library's
    canonizer must match exactly: refinement that rebuilds every cell mask
    and rescans from the first cell after each split, and an orbit test
    that rebuilds a union-find from every stored automorphism fixing the
    individualized prefix. ``labeling[pos]`` is the vertex placed at
    ``pos``; ``code`` packs the relabeled upper triangle column by column."""
    adj = [0] * n
    for u, v in normalized(edges):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    degs = [row.bit_count() for row in adj]
    state = {"best": None, "first": None}
    gens: list[list[int]] = []

    def refine(cells):
        changed = True
        while changed:
            changed = False
            for smask in [sum(1 << v for v in cell) for cell in cells]:
                out, split = [], False
                for cell in cells:
                    groups: dict[int, list[int]] = {}
                    for v in cell:
                        groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
                    split |= len(groups) > 1
                    out += [groups[k] for k in sorted(groups, reverse=True)]
                cells = out
                if split:
                    changed = True
                    break
        return cells

    def code_of(perm):
        code = 0
        for j in range(1, n):
            for i in range(j):
                code = (code << 1) | ((adj[perm[j]] >> perm[i]) & 1)
        return code

    def record(pa, pb):
        gamma = [0] * n
        for a, b in zip(pa, pb):
            gamma[a] = b
        if gamma != list(range(n)) and gamma not in gens:
            gens.append(gamma)

    def in_tried_orbit(v, tried, fixed):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for g in gens:
            if all(g[f] == f for f in fixed):
                for a in range(n):
                    ra, rb = find(a), find(g[a])
                    if ra != rb:
                        parent[ra] = rb
        return any(find(u) == find(v) for u in tried)

    def node(cells, fixed):
        cells = refine(cells)
        multi = [i for i, cell in enumerate(cells) if len(cell) > 1]
        if not multi:
            perm = [cell[0] for cell in cells]
            code = code_of(perm)
            if state["first"] is None:
                state["first"] = (code, perm)
            elif code == state["first"][0]:
                record(state["first"][1], perm)
            if state["best"] is None or code < state["best"][0]:
                state["best"] = (code, perm)
            elif code == state["best"][0] and perm != state["best"][1]:
                record(state["best"][1], perm)
            return
        # First non-singleton cell of largest degree.
        target = max(multi, key=lambda i: (degs[cells[i][0]], -i))
        tried: list[int] = []
        for v in cells[target]:
            if tried and in_tried_orbit(v, tried, fixed):
                continue
            tried.append(v)
            rest = [w for w in cells[target] if w != v]
            node(cells[:target] + [[v], rest] + cells[target + 1:], fixed + [v])

    if n == 0:
        return 0, []
    node([list(range(n))], [])
    return state["best"]


def plain_accepted_children(node, moves, removal_of, canonize):
    """The augmentation trees' acceptance step with no rejection before
    canonization: drop a move whose child rows repeat an earlier one,
    canonize every other child, drop a sibling with an earlier code, then
    keep the child iff undoing its canonical removal gives a graph with the
    code of ``node``.

    ``node`` starts ``(rows, act, m, code)``; ``moves`` and ``removal_of``
    are a tree's own; ``canonize(order, rows)`` returns ``(code, labeling,
    ...)`` with ``labeling[pos]`` the vertex at ``pos``. Yields ``(rows,
    act, m, code)`` for each accepted child, in move order."""
    rows, _, _, code = node[:4]
    degrees = sorted(r.bit_count() for r in rows)
    seen_rows = set()
    seen_codes = set()
    for child, new_act, new_m, added in moves:
        key = tuple(child)
        if key in seen_rows:
            continue
        seen_rows.add(key)
        ccode, perm = canonize(new_act, key)[:2]
        if (new_act, ccode) in seen_codes:
            continue
        seen_codes.add((new_act, ccode))
        sigma = [0] * new_act
        for pos, vert in enumerate(perm):
            sigma[vert] = pos
        removal = removal_of(child, new_act, tuple(sigma))
        if frozenset(removal) != frozenset(added):
            back = child[:]
            for a, b in removal:
                back[a] &= ~(1 << b)
                back[b] &= ~(1 << a)
            # Drop the vertices the removal isolated, keeping the order.
            keep = [v for v in range(new_act) if back[v]]
            back_rows = tuple(
                sum(1 << i for i, u in enumerate(keep) if (back[v] >> u) & 1) for v in keep
            )
            back_degrees = sorted(r.bit_count() for r in back_rows)
            if back_degrees != degrees or canonize(len(keep), back_rows)[0] != code:
                continue
        yield child, new_act, new_m, ccode


def plain_edge_children(rows, act, m, n):
    """The edge tree's moves, written out case by case: the non-adjacent
    pairs of active vertices in lexicographic order, then each active vertex
    with the first fresh one, then the first two fresh ones."""
    pairs = [(u, v) for u in range(act) for v in range(u + 1, act) if not (rows[u] >> v) & 1]
    if act + 1 <= n:
        pairs += [(u, act) for u in range(act)]
    if act + 2 <= n:
        pairs.append((act, act + 1))
    for u, v in pairs:
        new_act = max(act, v + 1)
        child = rows[:act] + [0] * (new_act - act)
        child[u] |= 1 << v
        child[v] |= 1 << u
        yield child, new_act, m + 1, ((u, v),)


def plain_covered_children(rows, act, m, tree):
    """The covered tree's moves, written out case by case: every triple
    with 0, 1, 2 and then 3 fresh vertices is listed first, then filtered
    by its missing edges, the size cap, and the activation and degree
    bounds."""
    n, m_hi, floor = tree.n, tree.m_hi, tree.keep.min_degree
    budget = m_hi - m
    if budget <= 0:
        return
    triples = []
    for u in range(act):
        for v in range(u + 1, act):
            for w in range(v + 1, act):
                triples.append((u, v, w))
    if act + 1 <= n:
        for u in range(act):
            for v in range(u + 1, act):
                triples.append((u, v, act))
    if act + 2 <= n:
        for u in range(act):
            triples.append((u, act, act + 1))
    if act + 3 <= n:
        triples.append((act, act + 1, act + 2))
    for u, v, w in triples:
        missing = []
        if not (v < act and (rows[u] >> v) & 1):
            missing.append((u, v))
        if not (w < act and (rows[u] >> w) & 1):
            missing.append((u, w))
        if not (w < act and (rows[v] >> w) & 1):
            missing.append((v, w))
        if not missing or len(missing) > budget:
            continue
        new_act = max(act, w + 1)
        new_m = m + len(missing)
        if new_act + (m_hi - new_m) < n:
            continue
        child = rows[:act] + [0] * (new_act - act)
        for a, b in missing:
            child[a] |= 1 << b
            child[b] |= 1 << a
        if floor > 0:
            deficit = floor * (n - new_act)
            for x in range(new_act):
                d = child[x].bit_count()
                if d < floor:
                    deficit += floor - d
            if deficit > 2 * (m_hi - new_m):
                continue
        yield child, new_act, new_m, tuple(missing)


class PlainProbes(checks._Probes):
    """The probe engine with no cycle-witness reuse: every cycle probe goes
    to the block certificates and the block-restricted DFS, as if no cycle
    had been found before it."""

    def _answer(self, a, b, length):
        found, witness = self._search(a, b, length)
        return tuple(witness) if found else found


class NoHamiltonCertificateProbes(checks._Probes):
    """The probe engine that never certifies a block non-Hamiltonian: every
    Hamilton-length pair that no recorded cycle answers is searched."""

    def _rule_out(self, a, b, mask):
        pass


class ExchangeOnlyProbes(checks._Probes):
    """The probe engine without vertex substitution and one-vertex
    insertion: a cycle probe is answered by a recorded cycle with its pair
    on it or by a chord exchange on one, or else searched."""

    def _substitute(self, ring, i, b):
        return None

    def _insert(self, a, b, length):
        return None


class ReuseOnlyProbes(ExchangeOnlyProbes):
    """The probe engine without the chord exchange and without reshaping a
    recorded cycle: a cycle probe is answered by the cycle recorded for its
    own pair, or else searched."""

    def _exchange(self, ring, i, j):
        return None


class TwoTableProbes(checks._Probes):
    """The probe engine with a ring stored twice: once per ring edge in a
    (u, v, length) pair table that keeps the first ring recorded for a
    pair, and once per vertex in the (length, vertex) ring lists that the
    chord exchange scans. A probe looks up its pair first and runs the
    exchange only on a table miss. It never substitutes or inserts a
    vertex, so ``ExchangeOnlyProbes`` is the engine it matches."""

    def __init__(self, g, budget=None):
        super().__init__(g, budget)
        self._cycles = {}
        self._lists = {}  # (length, vertex) -> rings, in record order

    def _answer(self, a, b, length):
        known = self._cycles.get((a, b, length) if a < b else (b, a, length))
        if known is None:
            known = self._exchange(a, b, length)
            if known is None:
                found, witness = self._search(a, b, length)
                if not found:
                    return found
                known = tuple(witness)
                self._record(known, length)
                return known
            self._record(known, length)
        self.reused += 1
        return known

    def _record(self, ring, length):
        pairs = self._cycles.setdefault
        for x, y in zip(ring, ring[1:] + ring[:1]):
            pairs((x, y, length) if x < y else (y, x, length), ring)
        for x in ring:
            self._lists.setdefault((length, x), []).append(ring)

    def _exchange(self, a, b, length):
        adj = self.g.adj
        for ring in self._lists.get((length, a), ()):
            if b not in ring:
                continue
            i, j = sorted((ring.index(a), ring.index(b)))
            if adj[ring[i + 1]] >> ring[(j + 1) % length] & 1:
                return ring[: i + 1] + ring[i + 1 : j + 1][::-1] + ring[j + 1 :]
            if adj[ring[i - 1]] >> ring[j - 1] & 1:
                return ring[:i] + ring[i:j][::-1] + ring[j:]
        return None


def plain_find_exact_path(
    adj: tuple[int, ...] | list[int],
    a: int,
    b: int,
    length: int,
    budget,
    required: tuple[int, int] | None = None,
) -> list[int] | None:
    """``checks._find_exact_path`` without its four shortcuts: at
    every node a BFS of the whole residual graph from cur, b expanded like
    any other vertex, then the same three tests, and children down to
    r == 1. Same arguments, same witness order; raises
    ``checks._OutOfBudget`` when ``budget.spend()`` refuses a node."""
    if length < 1 or a == b:
        raise checks.GraphError("path probes need distinct endpoints and length >= 1")
    bbit = 1 << b
    req_mask = 0
    if required is not None:
        req_mask = (1 << required[0]) | (1 << required[1])
    path = [a]

    def rec(cur: int, vis: int, r: int, used: bool) -> bool:
        if not budget.spend():
            raise checks._OutOfBudget
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


class NoBackjumpCanonizer(canon._Canonizer):
    """The canonizer that walks every subtree the orbit skip leaves: a leaf
    with the first leaf's code records its automorphism and the search goes
    on below the same node, as it did before the backjump. Run it as
    ``NoBackjumpCanonizer(g).run(canon._root(g))``."""

    def run(self, root):
        cells, masks, multi, stable = root
        self._node(cells, masks, multi, set(stable), 0)

    def _leaf(self, cells):
        perm = [c[0] for c in cells]
        code = canon._perm_code(self.adj, perm)
        if self.first_code is None:
            self.first_code = code
            self.first_perm = perm
        elif code == self.first_code:
            self._record_aut(self.first_perm, perm)
        if self.best_code is None or code < self.best_code:
            self.best_code = code
            self.best_perm = perm
        elif code == self.best_code and perm != self.best_perm:
            self._record_aut(self.best_perm, perm)

    def _node(self, cells, masks, multi, stable, fixed):
        if not multi:
            self._leaf(cells)
            return
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
        parent = None
        seen = 0
        gens = self.gens
        tried = []
        for v in cell:
            if tried:
                for support, moves in gens[seen:]:
                    if not support & fixed:
                        if parent is None:
                            parent = list(range(self.n))
                        for a, b in moves:
                            a, b = canon._find(parent, a), canon._find(parent, b)
                            if a != b:
                                parent[a] = b
                seen = len(gens)
                if parent is not None:
                    rv = canon._find(parent, v)
                    if any(canon._find(parent, u) == rv for u in tried):
                        continue
            tried.append(v)
            bit = 1 << v
            sub = stable.copy()
            ccells, cmasks, cmulti = canon._refine(
                self.adj,
                head + [[v], [w for w in cell if w != v]] + tail,
                mhead + [bit, tmask ^ bit] + mtail,
                sub,
                target,
            )
            self._node(ccells, cmasks, cmulti, sub, fixed | bit)
