"""Spans around the calls one pancyclic module makes into the next.

The library is not changed: :class:`Tracer` replaces a function under the
name its caller looks up (``pancyclic.search._canonize``,
``pancyclic.checks._probe``, ``pancyclic.cli.canonical_code``, ...) with a
wrapper that records a span, and puts the original back on exit. A span is
``[name, start, end, parent, tag]``; the layer is the name's first dotted
part, and ``parent`` is the index of the innermost open span. Spans stay in
memory until :meth:`Tracer.dump`.

:class:`Counters` is the separate counting pass: it counts probe-DFS nodes
through the probe's own node budget, and replays the search module's worker
split serially in-process to size each subtree task. Both counts repeat
exactly for the same inputs.
"""

from __future__ import annotations

import contextlib
import json
import time
from types import ModuleType, SimpleNamespace
from typing import Any, Callable

from pancyclic import checks, cli, families, search

Tag = Callable[[tuple, Any], "str | None"]

# Public functions of each layer that another layer (or the benchmark) calls.
_SEARCH_API = ("min_size_triangle_cover", "min_size_edge_pancyclic", "max_diameter_edge_pancyclic")
_CHECKS_API = ("has_triangle_cover", "is_edge_pancyclic", "is_vertex_pancyclic", "is_pancyclic",
               "cycle_spectrum", "edge_cycle_lengths", "verify_h_block_properties")
_FAMILIES_API = ("complete", "empty", "cycle", "join", "a_graph", "q_graph", "h_block",
                 "h_block_spine_edges")
_SEARCH_GRAPHS = ("build_graph", "diameter", "emit_graph6", "is_k_connected", "min_degree",
                  "parse_graph6")
_CHECKS_GRAPHS = ("distance_layers", "is_connected", "is_k_connected", "min_degree")
PARENT_TEST = ("search._canonical_removal", "search._compact")


def _probe_tag(args: tuple, out: Any) -> str:
    found = out[0]
    return "hit" if found else "absent" if found is False else "unknown"


class _Patches:
    """Function replacements under caller-visible names, undone in reverse."""

    def __init__(self) -> None:
        self._saved: list[tuple[ModuleType, str, Any]] = []

    def patch(self, owner: ModuleType, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer(_Patches):
    def __init__(self, canon_tag: Tag | None = None) -> None:
        super().__init__()
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.t0 = time.perf_counter()
        self._canon_tag = canon_tag

    def _open(self, name: str) -> list:
        stack = self._stack
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        self._stack.pop()
        rec[2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a whole job."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, owner: ModuleType, attr: str, name: str, tag: Tag | None = None) -> None:
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if tag is not None:
                rec[4] = tag(args, out)
            return out

        self.patch(owner, attr, traced)

    def __enter__(self):
        for attr in _SEARCH_API:
            self.wrap(search, attr, f"search.{attr}")
        self.wrap(search, "_canonize", "canon._canonize")
        self.wrap(search, "canonical_graph", "canon.canonical_graph")
        for name in PARENT_TEST:
            self.wrap(search, name.split(".")[1], name)
        for attr in _SEARCH_GRAPHS:
            self.wrap(search, attr, f"graphs.{attr}")
        for attr in _CHECKS_API:
            self.wrap(checks, attr, f"checks.{attr}")
        self.wrap(checks, "_probe", "checks._probe", _probe_tag)
        for attr in _CHECKS_GRAPHS:
            self.wrap(checks, attr, f"graphs.{attr}")
        for attr in _FAMILIES_API:
            self.wrap(families, attr, f"families.{attr}")
        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "canonical_code", "canon.canonical_code", self._canon_tag)
        self.wrap(cli, "canonical_graph", "canon.canonical_graph", self._canon_tag)
        self.wrap(cli, "parse_graph6", "graphs.parse_graph6")
        self.wrap(cli, "emit_graph6", "graphs.emit_graph6")
        return self

    def dump(self, path, meta: dict) -> None:
        t0 = self.t0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": ["name", "start_s", "end_s", "parent", "tag"],
                       "spans": [[n, round(s - t0, 7), round(e - t0, 7), p, t]
                                 for n, s, e, p, t in self.spans]}, fh)
            fh.write("\n")


# -- span analysis ----------------------------------------------------------


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class SpanStats:
    """Counts, busy time and self time per span name and per layer."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        child_time = [0.0] * len(spans)
        for n, s, e, p, _ in spans:
            if p >= 0:
                child_time[p] += e - s
        self.self_time = [e - s - c for (n, s, e, p, _), c in zip(spans, child_time)]

    def select(self, pred: Callable[[list], bool]) -> list[int]:
        return [i for i, sp in enumerate(self.spans) if pred(sp)]

    def duration(self, idx: list[int]) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in idx)

    def self_s(self, idx: list[int]) -> float:
        return sum(self.self_time[i] for i in idx)

    def outermost(self, pred: Callable[[list], bool]) -> list[int]:
        """Spans matching ``pred`` with no matching ancestor, so time nested
        inside another matching span is not counted twice."""
        out = []
        for i, sp in enumerate(self.spans):
            if not pred(sp):
                continue
            p = sp[3]
            while p >= 0 and not pred(self.spans[p]):
                p = self.spans[p][3]
            if p < 0:
                out.append(i)
        return out

    def layer_busy(self, layer: str) -> float:
        return self.duration(self.outermost(lambda sp: _layer(sp[0]) == layer))


# -- counting pass ----------------------------------------------------------


class _CountingBudget:
    """Stands in for the probe's node budget: counts every DFS node, then
    defers to the real budget so budget semantics are unchanged."""

    __slots__ = ("inner", "nodes")

    def __init__(self, inner) -> None:
        self.inner = inner
        self.nodes = 0

    def spend(self) -> bool:
        self.nodes += 1
        return self.inner.spend()


class Counters(_Patches):
    """Exact DFS node count and serial replay of the search worker split."""

    def __init__(self) -> None:
        super().__init__()
        self.dfs_nodes = 0
        self.task_nodes: list[int] = []  # tree nodes of each split task, in order

    def __enter__(self):
        probe = checks._probe

        def counted(adj, a, b, length, budget, required=None):
            proxy = _CountingBudget(budget)
            try:
                return probe(adj, a, b, length, proxy, required)
            finally:
                self.dfs_nodes += proxy.nodes

        counters = self

        class SerialPool:
            # The module's own task list, run in order in this process.
            def __init__(self, processes: int) -> None:
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc) -> None:
                pass

            def map(self, fn, tasks):
                out = [fn(t) for t in tasks]
                counters.task_nodes.extend(seen for seen, _, _ in out)
                return out

        self.patch(checks, "_probe", counted)
        self.patch(search, "multiprocessing", SimpleNamespace(Pool=SerialPool))
        return self
