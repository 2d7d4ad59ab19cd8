"""Self-tests for the benchmark: its inputs, its output gate, its metric set.

    PYTHONPATH=src python -m pytest -q perfbench

The metric test runs every workload once untraced and once traced, about
three minutes on two cores.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from pancyclic import checks, families, search  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_batch_stream_is_deterministic_per_seed():
    a = workloads.make_inputs("batch", 11)
    b = workloads.make_inputs("batch", 11)
    assert a.stream.encode() == b.stream.encode()
    assert a.stream != workloads.make_inputs("batch", 12).stream
    kinds = [e.kind for e in a.entries]
    assert kinds.count("copy") == workloads.BATCH_COPIES
    assert kinds.count("rand") == (
        len(workloads.BATCH_ORDERS) * len(workloads.BATCH_DENSITIES) * workloads.BATCH_PER_CELL
    )


def test_wrong_search_outcome_is_a_failed_operation():
    jobs = workloads.search_jobs(workloads.make_inputs("search", 0))
    good = search.SearchOutcome("x", 9, 16, list(workloads.EP_N9_WITNESSES), True, {})
    wrong_value = search.SearchOutcome("x", 9, 15, list(workloads.EP_N9_WITNESSES), True, {})
    not_exhaustive = search.SearchOutcome("x", 9, 16, list(workloads.EP_N9_WITNESSES), False, {})
    ep9 = jobs[1]
    assert ep9.check(good) == (1, [])
    tally = run.Tally()
    fakes = [workloads.Job("ep_n9", lambda out=out: out, ep9.check)
             for out in (good, wrong_value, not_exhaustive)]
    tally.round(fakes)
    assert tally.attempted == 3 and len(tally.errors) == 2


def test_broken_witness_cycle_is_a_failed_operation():
    g = families.q_graph(10)
    job = workloads.certify_jobs([(10, g)])[0]
    reports = job.run()
    assert job.check(reports) == (1, [])
    cycles = reports[0].evidence["witnesses"]["0-1"]
    cycles[4] = [0, 1, 0, 1]
    attempted, errors = job.check(reports)
    assert attempted == 1 and len(errors) == 1


def test_wrong_spectrum_counts_in_fail_frac(monkeypatch):
    real = checks.cycle_spectrum

    def drop_longest(g, **kwargs):
        spec = real(g, **kwargs)
        for e, lengths in spec.lengths_by_edge.items():
            spec.lengths_by_edge[e] = lengths - {max(lengths, default=0)}
            break
        return spec

    monkeypatch.setattr(checks, "cycle_spectrum", drop_longest)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        run.main(["--workload", "batch", "--seed", "5", "--seconds", "1"])
    lines = stdout.getvalue().splitlines()
    result = json.loads(lines[-1])
    fail_frac = next(float(line.split()[1]) for line in lines if line.startswith("fail_frac"))
    assert result["correct"] is False and result["failed"] > 0
    assert fail_frac == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


REPORTED = {
    "search": ["job.tc2_n10_s", "job.ep_n9_s", "job.diam_n7_s"],
    "certify": ["job.q_family_s", "job.h_block_s"],
    "batch": ["job.canon_cmd_s", "job.spectrum_cmd_s", "line_p50_ms", "line_p95_ms", "line_n"],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert lines[0].startswith("# ")
    meta = json.loads(lines[0][2:])
    assert {"seed", "nproc", "python", "commit", "src_sha256"} <= set(meta)
    reported = {line.split()[0]: line.split()[2] for line in lines[1:-1]}
    assert "fail_frac" in reported
    if not trace:
        assert set(REPORTED[workload]) <= set(reported)
    if trace and workload == "search":
        assert all(result["metrics"][f"search.tree_nodes.{j}"]["value"] > 0 for j in run.SEARCH_JOBS)
