"""Benchmark for the pancyclic library: one workload per run, checked outputs.

    python3 perfbench/run.py --workload search|certify|batch --seed N \
        --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.

``--trace 0`` repeats the workload's jobs in rounds for about ``--seconds``
seconds (the whole number of rounds nearest to it), checks every output
outside the timed region, and reports medians over rounds. ``--trace 1`` makes fixed passes instead: untraced reference
passes, one traced pass recording a span around every call from one module
into the next, and one counting pass for exact work counts; it reports the
per-layer metrics and writes the spans to ``perfbench/out/``.

Human-readable metric lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. See
``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 11

# Metrics in the final JSON line, with their units.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SEARCH_JOBS = ("tc2_n10", "ep_n9", "diam_n7")
PER_LAYER = {
    "canon.calls": "count",
    "canon.busy_s": "s",
    "canon.share": "frac",
    "canon.us_per_call": "us",
    "canon.sym_ms_per_call": "ms",
    "canon.rand_us_per_call": "us",
    "search.tree_nodes": "count",
    **{f"search.tree_nodes.{j}": "count" for j in SEARCH_JOBS},
    "search.canon_per_node": "ratio",
    "search.parent_test_calls": "count",
    "search.parent_test_s": "s",
    "search.self_s": "s",
    "search.pool_speedup": "ratio",
    **{f"search.pool_speedup.{j}": "ratio" for j in SEARCH_JOBS},
    "search.largest_task_node_share": "frac",
    **{f"search.largest_task_node_share.{j}": "frac" for j in SEARCH_JOBS},
    "checks.probes": "count",
    "checks.probe_hit_ratio": "frac",
    "checks.dfs_nodes": "count",
    "checks.dfs_nodes_per_s": "1/s",
    "checks.absent_probe_s": "s",
    "checks.busy_s": "s",
    "checks.share": "frac",
    "graphs.kconn_calls": "count",
    "graphs.kconn_s": "s",
    "graphs.codec_us_per_line": "us",
    "cli.self_us_per_line": "us",
    "families.build_s": "s",
    "trace.overhead_frac": "frac",
}


def _import_library() -> None:
    # The benchmark measures the checkout it sits in, never an installed copy.
    if not (SRC / "pancyclic" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pancyclic sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pancyclic

    if Path(pancyclic.__file__).resolve().parent != SRC / "pancyclic":
        raise SystemExit(f"perfbench: imported pancyclic from {pancyclic.__file__}, not {SRC}")


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
    except OSError:
        return "unknown"
    return head


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pancyclic").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _meta(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


@dataclass
class Tally:
    """Job times per round, plus what the output gate found."""

    times: dict[str, list[float]] = field(default_factory=dict)
    walls: list[float] = field(default_factory=list)
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    line_gaps: list[float] = field(default_factory=list)

    def run(self, jobs: list) -> list:
        """Run every job once, timed; a job that raises yields its traceback."""
        outs = []
        wall = 0.0
        for job in jobs:
            t0 = time.perf_counter()
            try:
                out = job.run()
            except Exception:  # a crashed job is a failed operation
                out = traceback.format_exc()
            dt = time.perf_counter() - t0
            self.times.setdefault(job.name, []).append(dt)
            wall += dt
            outs.append(out)
        self.walls.append(wall)
        return outs

    def check(self, jobs: list, outs: list) -> None:
        for job, out in zip(jobs, outs, strict=True):
            if isinstance(out, str):
                self.attempted += 1
                self.errors.append(f"{job.name} raised: {out}")
                continue
            try:
                n, errs = job.check(out)
            except Exception:  # output too malformed to check is a wrong result
                n, errs = 1, [traceback.format_exc()]
            self.attempted += n
            self.errors += [f"{job.name}: {e}" for e in errs]
            if job.name == "spectrum_cmd":
                self.line_gaps += out.gaps()

    def round(self, jobs: list) -> list:
        outs = self.run(jobs)
        self.check(jobs, outs)
        return outs


def _setup_seconds(args: argparse.Namespace) -> float:
    """Median wall time of fresh processes that import the library and build
    the workload's inputs, from launch to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux: this process plus its largest reaped child.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def timed_run(args: argparse.Namespace, workloads, inputs) -> tuple[Tally, dict, dict]:
    jobs = workloads.make_jobs(args.workload, inputs)
    tally = Tally()
    # Whole rounds, as many as bring the run nearest to --seconds (at least one).
    start = time.perf_counter()
    longest = 0.0
    while True:
        r0 = time.perf_counter()
        tally.round(jobs)
        longest = max(longest, time.perf_counter() - r0)
        if time.perf_counter() - start + longest / 2 > args.seconds:
            break
    peak = _peak_rss_mb()  # before the set-up probes start children of their own
    metrics = {
        "setup_s": _setup_seconds(args),
        "wall_s": statistics.median(tally.walls),
        "peak_rss_mb": peak,
    }
    report = {f"job.{name}_s": (statistics.median(ts), "s") for name, ts in tally.times.items()}
    report["rounds"] = (len(tally.walls), "count")
    report["fail_frac"] = (len(tally.errors) / tally.attempted, "frac")
    if tally.line_gaps:
        gaps = tally.line_gaps
        report["line_p50_ms"] = (statistics.median(gaps) * 1e3, "ms")
        report["line_p95_ms"] = (statistics.quantiles(gaps, n=100)[94] * 1e3, "ms")
        report["line_n"] = (len(gaps), "count")
    return tally, metrics, report


def traced_run(args: argparse.Namespace, workloads, inputs) -> tuple[Tally, dict, dict]:
    from tracer import PARENT_TEST, Counters, SpanStats, Tracer

    search = args.workload == "search"
    tally = Tally()
    # A layer the workload does not exercise reads 0.
    m: dict[str, float] = {k: 0 if unit == "count" else 0.0 for k, unit in PER_LAYER.items()}

    # Untraced reference at one worker, so that the traced pass does the
    # same work in this process.
    serial = workloads.make_jobs(args.workload, inputs, workers=1)
    tally.round(serial)
    untraced_wall = tally.walls[-1]
    if search:
        tally.round(workloads.make_jobs(args.workload, inputs, workers=2))
        for j in SEARCH_JOBS:
            m[f"search.pool_speedup.{j}"] = tally.times[j][0] / tally.times[j][1]
        m["search.pool_speedup"] = untraced_wall / tally.walls[-1]

    kinds = {}
    if args.workload == "batch":
        kinds = {e.graph.adj: "sym" if e.kind == "sym" else "rand" for e in inputs.entries}
    tracer = Tracer(canon_tag=lambda call_args, out: kinds.get(call_args[0].adj))
    traced_jobs = [workloads.Job(job.name, _in_span(tracer, f"job.{job.name}", job.run), job.check)
                   for job in serial]
    with tracer:
        with tracer.span("setup"):
            workloads.make_inputs(args.workload, args.seed)
        outs = tally.run(traced_jobs)
    tally.check(traced_jobs, outs)
    traced_wall = tally.walls[-1]
    # A second reference after the traced pass evens out drift in machine speed.
    tally.round(serial)
    untraced_wall = (untraced_wall + tally.walls[-1]) / 2
    m["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall

    st = SpanStats(tracer.spans)
    canon_idx = st.outermost(lambda sp: sp[0].startswith("canon."))
    m["canon.calls"] = len(canon_idx)
    m["canon.busy_s"] = st.duration(canon_idx)
    m["canon.share"] = m["canon.busy_s"] / traced_wall
    if canon_idx:
        m["canon.us_per_call"] = m["canon.busy_s"] / len(canon_idx) * 1e6
    for tag, key, scale in (("sym", "canon.sym_ms_per_call", 1e3),
                            ("rand", "canon.rand_us_per_call", 1e6)):
        idx = [i for i in canon_idx if st.spans[i][4] == tag]
        if idx:
            m[key] = st.duration(idx) / len(idx) * scale

    if search:
        for j, out in zip(SEARCH_JOBS, outs, strict=True):
            m[f"search.tree_nodes.{j}"] = out.counts["tree_nodes"]
        m["search.tree_nodes"] = sum(m[f"search.tree_nodes.{j}"] for j in SEARCH_JOBS)
        m["search.canon_per_node"] = m["canon.calls"] / m["search.tree_nodes"]
        m["search.parent_test_calls"] = len(st.select(lambda sp: sp[0] == PARENT_TEST[0]))
        m["search.parent_test_s"] = st.duration(st.select(lambda sp: sp[0] in PARENT_TEST))
        m["search.self_s"] = st.self_s(st.select(
            lambda sp: sp[0].startswith("search.") and sp[0] not in PARENT_TEST))

    probes = st.select(lambda sp: sp[0] == "checks._probe")
    m["checks.probes"] = len(probes)
    if probes:
        m["checks.probe_hit_ratio"] = sum(st.spans[i][4] == "hit" for i in probes) / len(probes)
    m["checks.absent_probe_s"] = st.duration([i for i in probes if st.spans[i][4] == "absent"])
    m["checks.busy_s"] = st.layer_busy("checks")
    m["checks.share"] = m["checks.busy_s"] / traced_wall
    kconn = st.select(lambda sp: sp[0] == "graphs.is_k_connected")
    m["graphs.kconn_calls"] = len(kconn)
    m["graphs.kconn_s"] = st.duration(kconn)
    cli_idx = set(st.select(lambda sp: sp[0] == "cli.main"))
    if cli_idx:
        lines = len(inputs.entries) * len(cli_idx)
        codec = st.select(lambda sp: sp[0] in ("graphs.parse_graph6", "graphs.emit_graph6")
                          and sp[3] in cli_idx)
        m["graphs.codec_us_per_line"] = st.duration(codec) / lines * 1e6
        m["cli.self_us_per_line"] = st.self_s(list(cli_idx)) / lines * 1e6
    m["families.build_s"] = st.layer_busy("families")

    # Counting pass: exact DFS nodes, and the worker split replayed serially.
    jobs = workloads.make_jobs(args.workload, inputs, workers=2)
    outs = []
    with Counters() as counters:
        for job in jobs:
            counters.task_nodes.clear()
            outs += tally.run([job])
            if search and counters.task_nodes:
                m[f"search.largest_task_node_share.{job.name}"] = (
                    max(counters.task_nodes) / outs[-1].counts["tree_nodes"])
    tally.check(jobs, outs)
    m["checks.dfs_nodes"] = counters.dfs_nodes
    probe_s = st.duration(probes)
    if probe_s:
        m["checks.dfs_nodes_per_s"] = counters.dfs_nodes / probe_s
    if search:
        m["search.largest_task_node_share"] = max(
            m[f"search.largest_task_node_share.{j}"] for j in SEARCH_JOBS)

    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json", _meta(args))
    report = {"trace.spans": (len(tracer.spans), "count"),
              "fail_frac": (len(tally.errors) / tally.attempted, "frac")}
    return tally, m, report


def _in_span(tracer, name: str, fn):
    def run():
        with tracer.span(name):
            return fn()
    return run


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("search", "certify", "batch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    _import_library()
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    if args.setup_only:
        return 0
    meta = _meta(args)
    if args.trace:
        tally, metrics, report = traced_run(args, workloads, inputs)
        units = PER_LAYER
    else:
        tally, metrics, report = timed_run(args, workloads, inputs)
        units = END_TO_END
    print("# " + json.dumps(meta, sort_keys=True))
    lines = [*sorted(report.items()), *((name, (metrics[name], unit)) for name, unit in units.items())]
    for name, (value, unit) in lines:
        print(f"{name:40s} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    for err in tally.errors[:10]:
        print(f"perfbench: wrong output: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
