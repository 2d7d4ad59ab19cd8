"""Command-line interface: envelopes, exit codes, thin composition."""

from __future__ import annotations

import argparse
import importlib
import importlib.resources
import importlib.util
import io
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from conftest import random_graph
from test_checks import _CountingProbe, battery_nodes, petersen

import pancyclic
from pancyclic import (
    BUDGET_NOTE,
    MAX_ORDER,
    __version__,
    build_graph,
    canon,
    canonical_code,
    canonical_graph,
    checks,
    cli,
    complete,
    cycle,
    cycle_spectrum,
    emit_graph6,
    empty,
    families,
    h_block,
    join,
    min_size_edge_pancyclic,
    min_size_triangle_cover,
    parse_graph6,
    search,
    wheel,
)

SCHEMA = json.loads(
    importlib.resources.files("pancyclic")
    .joinpath("schema/report.schema.json")
    .read_text()
)
C4 = emit_graph6(cycle(4))
C5 = emit_graph6(cycle(5))


def run_cli(monkeypatch, capsys, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def envelopes(out):
    rows = [json.loads(line) for line in out.splitlines() if line]
    for row in rows:
        jsonschema.validate(row, SCHEMA)
    return rows


# -- construct ---------------------------------------------------------------


def test_construct_ring(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["construct", "g-ring", "--k", "3"])
    assert code == 0
    g = parse_graph6(out.strip())
    assert g.order == 39 and g.size == 75


def test_construct_ring_past_the_short_graph6_form(monkeypatch, capsys):
    # Order 76 takes the graph6 long form, which canon reads back.
    code, out, _ = run_cli(monkeypatch, capsys, ["construct", "g-ring", "--k", "4"])
    assert code == 0 and out.startswith("~")
    g = parse_graph6(out.strip())
    assert (g.order, g.size) == (76, 148)
    code, out, _ = run_cli(monkeypatch, capsys, ["canon"], stdin=out)
    assert code == 0
    (row,) = envelopes(out)
    assert parse_graph6(row["result"]["graph6"]) == canonical_graph(g)


def test_verify_ring_claims_the_general_formulas(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["verify", "thm5", "--k", "4"])
    assert code == 0
    (row,) = envelopes(out)
    claims = {c["name"]: (c["expected"], c["actual"]) for c in row["result"]["claims"]}
    assert claims == {"order": (76, 76), "size": (148, 148), "edge-pancyclic": (True, True)}


def test_construct_labels(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch, capsys, ["construct", "h-block", "--k", "3", "--labels"]
    )
    assert code == 0
    g6, labels_line = out.splitlines()
    labels = json.loads(labels_line)
    built = h_block(3)
    assert sorted(parse_graph6(g6).edges()) == sorted(built.graph.edges())
    assert labels == {name: v for name, v in built.labels.items()}
    assert labels["v"] == 0 and "u" in labels


def test_construct_dot_is_deterministic(monkeypatch, capsys):
    first = run_cli(monkeypatch, capsys, ["construct", "wheel", "--n", "5", "--format", "dot"])
    second = run_cli(monkeypatch, capsys, ["construct", "wheel", "--n", "5", "--format", "dot"])
    assert first == second
    assert first[0] == 0
    assert first[1].startswith("graph") and "--" in first[1]


def test_construct_usage_errors(monkeypatch, capsys):
    code, _, err = run_cli(monkeypatch, capsys, ["construct", "no-such-family", "--n", "5"])
    assert code == 2 and "no-such-family" in err
    code, _, err = run_cli(monkeypatch, capsys, ["construct", "g-ring"])
    assert code == 2 and "--k" in err
    code, _, err = run_cli(monkeypatch, capsys, ["construct", "wheel", "--n", "5", "--format", "png"])
    assert code == 2


def test_construct_names_the_order_it_rejects(monkeypatch, capsys):
    # wheel and fan check the order they were given, not the order of the
    # rim or path they join to the hub.
    # An order over the cap is named by build_graph, one under the least
    # order by the family.
    for family, order in (
        ("wheel", 2 * MAX_ORDER), ("wheel", MAX_ORDER + 1), ("fan", 2 * MAX_ORDER), ("fan", 1)
    ):
        code, out, err = run_cli(monkeypatch, capsys, ["construct", family, "--n", str(order)])
        assert code == 2 and out == ""
        if order > MAX_ORDER:
            assert f"order {order} outside" in err
        else:
            assert f"{family} needs order" in err and f"got {order}" in err
    code, out, _ = run_cli(
        monkeypatch, capsys, ["construct", "fan", "--n", str(MAX_ORDER), "--format", "dot"]
    )
    assert code == 0 and out.count("--") == 2 * MAX_ORDER - 3


# -- check -------------------------------------------------------------------


def test_check_edge_pancyclic_counterexample(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch, capsys, ["check", "edge-pancyclic"], stdin=C4 + "\n"
    )
    assert code == 1
    (row,) = envelopes(out)
    assert row["command"] == "check"
    assert row["result"]["verdict"] is False
    assert row["result"]["evidence"]["missing_length"] == 3
    assert row["result"]["evidence"]["missing_edge"] == [0, 1]


def test_check_edge_pancyclic_witnesses(monkeypatch, capsys):
    w6 = emit_graph6(wheel(6))
    code, out, _ = run_cli(
        monkeypatch, capsys, ["check", "edge-pancyclic", "--witnesses"], stdin=w6
    )
    assert code == 0
    (row,) = envelopes(out)
    assert row["result"]["verdict"] is True
    witnesses = row["result"]["evidence"]["witnesses"]
    assert set(witnesses) == {f"{u}-{v}" for u, v in wheel(6).edges()}
    cyc = witnesses["0-1"]["4"]
    assert len(cyc) == 4 and {0, 1} <= set(cyc)


def test_check_batch_reports_worst_exit(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch, capsys, ["check", "edge-pancyclic"], stdin="C~\n" + C4 + "\n"
    )
    assert code == 1
    rows = envelopes(out)
    assert [r["result"]["verdict"] for r in rows] == [True, False]
    assert [r["inputs"]["line"] for r in rows] == [1, 2]


def test_check_connectivity(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch, capsys, ["check", "connectivity", "--kappa", "3"], stdin="C~"
    )
    assert code == 0
    (row,) = envelopes(out)
    assert row["result"]["evidence"] == {"kappa": 3, "required": 3}
    code, _, _ = run_cli(
        monkeypatch, capsys, ["check", "connectivity", "--kappa", "3"], stdin=C4
    )
    assert code == 1


def test_check_triangle_cover_and_layers(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["check", "triangle-cover"], stdin=C4)
    assert code == 1
    (row,) = envelopes(out)
    assert row["result"]["evidence"]["uncovered_edges"]
    code, out, _ = run_cli(
        monkeypatch, capsys, ["check", "layer-bounds"], stdin=emit_graph6(cycle(8))
    )
    assert code == 1
    (row,) = envelopes(out)
    assert row["result"]["evidence"]["first_layer_min3"] is False


def test_malformed_graph6_names_line_and_offset(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["canon"], stdin="C~~\n")
    assert code == 2 and out == ""
    assert "line 1" in err and "offset" in err


def test_graph_a_check_rejects_is_named_by_its_line(monkeypatch, capsys):
    # Line 1 is checked and reported; the check rejects line 2's order-2
    # graph, and the error names that line.
    code, out, err = run_cli(
        monkeypatch, capsys, ["check", "edge-pancyclic"], stdin="C~\n\nA_\n"
    )
    assert code == 2
    (row,) = envelopes(out)
    assert row["inputs"]["line"] == 1 and row["result"]["verdict"] is True
    assert "line 3: edge-pancyclicity needs at least 3 vertices" in err


def test_empty_stdin_is_usage_error(monkeypatch, capsys):
    code, _, err = run_cli(monkeypatch, capsys, ["check", "pancyclic"], stdin="")
    assert code == 2 and "standard input" in err


# -- spectrum and canon --------------------------------------------------------


def test_spectrum_matches_module_call(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["spectrum"], stdin=C5)
    assert code == 0
    (row,) = envelopes(out)
    direct = cycle_spectrum(cycle(5)).to_json_dict()
    assert row["result"] == json.loads(json.dumps(direct))
    assert row["result"]["edges"]["0-1"] == [5]
    assert row["result"]["complete"] is True


def test_spectrum_budget_exit(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["spectrum", "--budget", "1"], stdin=C5)
    assert code == 3
    (row,) = envelopes(out)
    assert row["result"]["complete"] is False
    for argv in (["spectrum", "--budget", "-1"], ["check", "edge-pancyclic", "--budget", "-1"]):
        code, out, err = run_cli(monkeypatch, capsys, argv, stdin=C5)
        assert code == 2 and out == "" and "budget" in err, argv


def test_unread_option_is_usage_error(monkeypatch, capsys, tmp_path):
    # An option the chosen command never reads names the misuse and exits 2
    # before any input is read or any search runs.
    for predicate in ("triangle-cover", "layer-bounds", "connectivity"):
        for budget in ("-1", "100"):
            code, out, err = run_cli(
                monkeypatch, capsys, ["check", predicate, "--budget", budget], stdin="C~"
            )
            assert code == 2 and out == "" and "--budget" in err, predicate
    for predicate in ("vertex-pancyclic", "pancyclic", "triangle-cover"):
        code, out, err = run_cli(
            monkeypatch, capsys, ["check", predicate, "--witnesses"], stdin="C~"
        )
        assert code == 2 and out == "" and "--witnesses" in err, predicate
    stream = tmp_path / "order6.g6"
    stream.write_text("E~~w\n")
    for argv, option in (
        (["verify", "erdos", "--n", "5", "--budget", "-1"], "--budget"),
        (["verify", "lemma1", "--n", "6", "--budget", "100"], "--budget"),
        (["verify", "lemma2", "--n", "6", "--budget", "100"], "--budget"),
        (["verify", "thm6", "--n", "10", "--budget", "100"], "--budget"),
        (["verify", "hk-props", "--k", "3", "--n", "7", "--workers", "0", "--exhaustive"],
         "--exhaustive"),
        (["verify", "hk-props", "--k", "3", "--workers", "0"], "--workers"),
        (["verify", "thm5", "--k", "3", "--n", "7"], "--n"),
        (["verify", "lemma1", "--n", "6", "--k", "9", "--exhaustive"], "--exhaustive"),
        (["verify", "lemma1", "--n", "6", "--k", "9"], "--k"),
        (["search", "min-size", "--order", "6", "--predicate", "edge-pancyclic",
          "--stream", str(stream), "--max-classes", "-5"], "--max-classes"),
        (["search", "min-size", "--order", "6", "--predicate", "edge-pancyclic",
          "--stream", str(stream), "--workers", "0"], "--workers"),
    ):
        code, out, err = run_cli(monkeypatch, capsys, argv)
        assert code == 2 and out == "" and option in err, argv
    child = run_child(
        [sys.executable, "-m", "pancyclic", "check", "triangle-cover", "--budget", "-1"],
        stdin="C~\n",
    )
    assert child.returncode == 2 and child.stdout == "" and "--budget" in child.stderr


def test_negative_count_option_exits_before_reading_input(monkeypatch, capsys):
    # A negative --budget or --kappa is a usage error of the command line
    # itself, named before the first stdin line is read.
    for argv, option in (
        (["check", "connectivity", "--kappa", "-1"], "--kappa"),
        (["check", "pancyclic", "--budget", "-1"], "--budget"),
        (["spectrum", "--budget", "-1"], "--budget"),
    ):
        stdin = io.StringIO("C~\n")
        monkeypatch.setattr("sys.stdin", stdin)
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert exit_.value.code == 2 and out == "" and option in err, argv
        assert "line 1" not in err and stdin.tell() == 0, argv


# A value for every option that some table row reads; None marks a flag.
OPTION_VALUES = {
    "n": "6", "k": "3", "kind": "F", "parts": "K1", "budget": "100",
    "witnesses": None, "kappa": "2", "workers": "1", "max_classes": "5",
    "exhaustive": None, "stream": "order6.g6",
}


def table_rows(tmp_path):
    """(argv prefix, table, name) for every row of every dispatch table."""
    stream = str(tmp_path / OPTION_VALUES["stream"])
    search_argv = ["search", "min-size", "--order", "6", "--predicate"]
    for name in checks.PREDICATES:
        yield ["check", name], checks.PREDICATES, name
    for name in cli._VERIFY:
        yield ["verify", name], cli._VERIFY, name
    for name in cli._MIN_SIZE:
        streamed = name == "edge-pancyclic stream"
        prefix = search_argv + (["edge-pancyclic", "--stream", stream] if streamed else [name])
        yield prefix, cli._MIN_SIZE, name
    for name in families.FAMILIES:
        yield ["construct", name], families.FAMILIES, name


def option_argv(opt, tmp_path):
    value = OPTION_VALUES[opt]
    if opt == "stream":
        value = str(tmp_path / value)
    return [f"--{opt.replace('_', '-')}"] + ([] if value is None else [value])


def test_every_row_rejects_exactly_its_unread_options(monkeypatch, capsys, tmp_path):
    (tmp_path / OPTION_VALUES["stream"]).write_text("E~~w\n")
    for prefix, table, name in table_rows(tmp_path):
        command = " ".join(prefix[:2]) if prefix[0] == "search" else prefix[0]
        reads = table[name][1]
        for opt in sorted({o for _, opts in table.values() for o in opts}):
            argv = prefix + option_argv(opt, tmp_path)
            if opt in reads:
                args = cli.build_parser().parse_args(argv)
                assert opt in cli._options(args, command, name, table), argv
                continue
            if prefix[0] == "search" and opt == "stream" and name == "edge-pancyclic":
                continue  # --stream with this predicate selects the stream row
            stdin = io.StringIO("C~\n")
            monkeypatch.setattr("sys.stdin", stdin)
            code = cli.main(argv)
            out, err = capsys.readouterr()
            option = option_argv(opt, tmp_path)[0]
            assert code == 2 and out == "" and option in err, argv
            assert stdin.tell() == 0, argv
    for argv, stdin, option in (
        (["construct", "wheel", "--n", "6", "--k", "9", "--kind", "F", "--parts", "K1"],
         "", "--k"),
        (["search", "min-size", "--order", "5", "--predicate", "edge-pancyclic",
          "--kappa", "3"], "", "--kappa"),
        (["check", "edge-pancyclic", "--kappa", "5"], "DqK\n", "--kappa"),
        (["check", "connectivity", "--kappa", "-1"], "DqK\n", "kappa"),
        (["search", "min-size", "--order", "6", "--predicate", "triangle-cover",
          "--kappa", "0"], "", "kappa"),
        (["search", "min-size", "--order", "6", "--predicate", "triangle-cover",
          "--kappa", "4"], "", "kappa"),
    ):
        with monkeypatch.context() as m:
            m.setattr(search, "_ascend_min_size", None)  # no walk may run
            code, out, err = run_cli(m, capsys, argv, stdin=stdin)
        assert code == 2 and out == "" and option in err, argv


def subcommand_parsers(parser, path=()):
    """(path, parser) for the parser and every subcommand below it."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from subcommand_parsers(sub, path + (name,))


def test_help_renders_and_is_derived_from_the_tables():
    # argparse formats help lazily, so a stray "%" breaks only --help. Each
    # table-driven subcommand offers exactly the options its rows read, plus
    # its fixed ones, and names the reader rows of an option not all read.
    tables = {
        ("construct",): (families.FAMILIES, {"--format", "--labels"}),
        ("check",): (checks.PREDICATES, set()),
        ("search", "min-size"): (cli._MIN_SIZE, {"--order", "--predicate"}),
        ("verify",): (cli._VERIFY, set()),
    }
    seen = set()
    for path, parser in subcommand_parsers(cli.build_parser()):
        assert parser.format_help(), path
        if path not in tables:
            continue
        seen.add(path)
        table, fixed = tables[path]
        helps = {opt: action.help for action in parser._actions
                 for opt in action.option_strings if opt.startswith("--")}
        read = {opt for _, opts in table.values() for opt in opts}
        flags = {f"--{opt.replace('_', '-')}": opt for opt in read}
        assert set(helps) == set(flags) | fixed | {"--help"}, path
        for flag, opt in flags.items():
            readers = [name for name, (_, opts) in table.items() if opt in opts]
            rows, only, _ = helps[flag].partition(" only: ")
            if len(readers) < len(table):
                assert only and rows == ", ".join(readers), (path, flag)
            else:
                assert not only, (path, flag)
    assert seen == set(tables)


def test_bad_budget_or_workers_fail_in_witness_mode(monkeypatch, capsys):
    # search max-diameter reads --max-classes and --workers in every mode, so
    # a bad value is a usage error even where the witness needs no walk.
    for extra, message in (
        (["--max-classes", "-5"], "class budget"),
        (["--workers", "0"], "worker count"),
        (["--max-classes", "-5", "--workers", "0"], "class budget"),
    ):
        for mode in (["--witness"], []):
            argv = ["search", "max-diameter", "--order", "10", *mode, *extra]
            code, out, err = run_cli(monkeypatch, capsys, argv)
            assert code == 2 and out == "" and message in err, argv


def hypercube(d: int):
    return build_graph(1 << d, [(v, v ^ (1 << i)) for v in range(1 << d)
                                for i in range(d) if v < v ^ (1 << i)])


def test_canon_matches_module_calls(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["canon"], stdin="DqK\nC~\n")
    assert code == 0
    rows = envelopes(out)
    assert rows[0]["result"]["code_hex"] == "0323"
    assert rows[1]["result"]["code_hex"] == "3f"
    # One canonization per line, its graph6 read off the code's bits.
    rng = random.Random(7)
    graphs = [random_graph(rng, n, rng.random()) for n in range(15) for _ in range(3)]
    graphs += [join(empty(6), empty(6)), hypercube(4),
               build_graph(14, list(complete(7).edges())
                           + [(u + 7, v + 7) for u, v in complete(7).edges()])]
    lines = ["DqK", "C~"] + [emit_graph6(g) for g in graphs]
    canonize = canon._canonize
    calls = []

    def counted(g):
        calls.append(g)
        return canonize(g)

    monkeypatch.setattr(canon, "_canonize", counted)
    code, out, _ = run_cli(monkeypatch, capsys, ["canon"], stdin="\n".join(lines))
    assert code == 0 and len(calls) == len(lines)
    monkeypatch.setattr(canon, "_canonize", canonize)
    rows = envelopes(out)
    assert len(rows) == len(lines)
    for row, line in zip(rows, lines):
        g = parse_graph6(line)
        assert row["result"]["graph6"] == emit_graph6(canonical_graph(g)), line
        assert row["result"]["code_hex"] == canonical_code(g).hex(), line


# -- search ------------------------------------------------------------------


def test_search_min_size_is_thin_composition(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch,
        capsys,
        ["search", "min-size", "--order", "4", "--predicate", "edge-pancyclic"],
    )
    assert code == 0
    (row,) = envelopes(out)
    direct = min_size_edge_pancyclic(4).to_json_dict()
    assert row["result"] == json.loads(json.dumps(direct))
    assert row["result"]["value"] == 6


def test_search_budget_exhausted_exit(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch,
        capsys,
        ["search", "min-size", "--order", "9", "--predicate", "triangle-cover",
         "--kappa", "2", "--max-classes", "5"],
    )
    assert code == 3
    (row,) = envelopes(out)
    assert row["result"]["notes"] == BUDGET_NOTE
    assert row["result"]["exhaustive"] is False
    code, out, err = run_cli(
        monkeypatch,
        capsys,
        ["search", "min-size", "--order", "9", "--predicate", "triangle-cover",
         "--kappa", "2", "--max-classes", "-2"],
    )
    assert code == 2 and out == "" and "budget" in err


def test_search_stream_file(monkeypatch, capsys, tmp_path):
    stream = tmp_path / "order6.g6"
    stream.write_text("\n".join(min_size_edge_pancyclic(6).witnesses) + "\n")
    code, out, _ = run_cli(
        monkeypatch,
        capsys,
        ["search", "min-size", "--order", "6", "--predicate", "edge-pancyclic",
         "--stream", str(stream)],
    )
    assert code == 0
    (row,) = envelopes(out)
    assert row["result"]["value"] == 10
    assert row["result"]["exhaustive"] is False


def test_search_stream_file_errors(monkeypatch, capsys, tmp_path):
    # An unreadable stream file is a usage error naming the file, and a
    # malformed line one naming the line, not a traceback that exits 1.
    (tmp_path / "latin.g6").write_bytes("E~~w \u00e9\n".encode("latin-1"))
    (tmp_path / "bad.g6").write_text("E~~w\nD!c\n")
    for name, named in (("missing.g6", None), ("", None), ("latin.g6", None),
                        ("bad.g6", "stream line 2:")):
        stream = str(tmp_path / name)
        code, out, err = run_cli(
            monkeypatch, capsys,
            ["search", "min-size", "--order", "6", "--predicate", "edge-pancyclic",
             "--stream", stream],
        )
        assert code == 2 and out == "" and (named or stream) in err, name
        assert "Traceback" not in err


def test_search_max_diameter(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch, capsys, ["search", "max-diameter", "--order", "6", "--exhaustive"]
    )
    assert code == 0
    (row,) = envelopes(out)
    assert row["result"]["value"] == 2 and row["result"]["exhaustive"] is True
    code, out, _ = run_cli(
        monkeypatch, capsys, ["search", "max-diameter", "--order", "10", "--witness"]
    )
    assert code == 0
    (row,) = envelopes(out)
    assert row["result"]["value"] == 4 and row["result"]["exhaustive"] is False
    code, _, _ = run_cli(
        monkeypatch, capsys,
        ["search", "max-diameter", "--order", "6", "--exhaustive", "--witness"],
    )
    assert code == 2


# -- verify ------------------------------------------------------------------


def test_verify_lemma2_example(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["verify", "lemma2", "--n", "8"])
    assert code == 0
    (row,) = envelopes(out)
    assert row["result"]["pass"] is True
    direct = min_size_triangle_cover(8, 3)
    by_name = {c["name"]: c for c in row["result"]["claims"]}
    assert by_name["minimum size"]["actual"] == direct.value == 14
    assert by_name["extremal census"]["actual"] == direct.witnesses
    assert by_name["extremal census"]["expected"] == [
        emit_graph6(canonical_graph(wheel(8)))
    ]


def test_verify_fast_claims(monkeypatch, capsys):
    for argv in (
        ["verify", "erdos", "--n", "7"],
        ["verify", "hk-props", "--k", "3"],
        ["verify", "thm6", "--n", "10"],
    ):
        code, out, _ = run_cli(monkeypatch, capsys, argv)
        assert code == 0, argv
        (row,) = envelopes(out)
        assert row["result"]["pass"] is True
        assert all(c["pass"] for c in row["result"]["claims"])
    # A budget that stops the check is "undecided" (3), not "claim false" (1);
    # one node short of the unbudgeted battery stops the block battery.
    short = battery_nodes(monkeypatch)[0] - 1
    for argv in (
        ["verify", "thm5", "--k", "3", "--budget", "100"],
        ["verify", "hk-props", "--k", "3", "--budget", str(short)],
    ):
        code, out, _ = run_cli(monkeypatch, capsys, argv)
        assert code == 3, argv
        (row,) = envelopes(out)
        assert row["inputs"]["budget"] == int(argv[-1])
        assert row["result"]["pass"] is False


def test_verify_usage_errors(monkeypatch, capsys):
    code, _, err = run_cli(monkeypatch, capsys, ["verify", "lemma1"])
    assert code == 2 and "--n" in err
    code, _, _ = run_cli(monkeypatch, capsys, ["verify", "no-such-claim", "--n", "5"])
    assert code == 2
    # Orders below the first at which the claim holds exit 2 before a search.
    with monkeypatch.context() as m:
        m.setattr(search, "min_size_triangle_cover", None)
        for result, n, lo in (("lemma1", 3, 6), ("lemma1", 4, 6), ("lemma1", 5, 6),
                              ("erdos", 2, 3)):
            code, out, err = run_cli(m, capsys, ["verify", result, "--n", str(n)])
            assert code == 2 and out == "" and f"n >= {lo}" in err, (result, n)
    for result, n in (("lemma1", 6), ("erdos", 3)):
        code, _, _ = run_cli(monkeypatch, capsys,
                             ["verify", result, "--n", str(n), "--workers", "1"])
        assert code == 0, (result, n)
    for result in ("thm5", "hk-props"):
        code, out, err = run_cli(
            monkeypatch, capsys, ["verify", result, "--k", "3", "--budget", "-1"]
        )
        assert code == 2 and out == "" and "budget" in err, result


# -- envelope metadata and entry point ------------------------------------------


def test_envelope_metadata(monkeypatch, capsys):
    _, out, _ = run_cli(monkeypatch, capsys, ["canon"], stdin="C~")
    (row,) = envelopes(out)
    assert row["version"] == __version__
    assert isinstance(row["elapsed_ms"], int) and row["elapsed_ms"] >= 0
    assert row["inputs"]["graph6"] == "C~"


def test_benchmark_tracer_seams(monkeypatch, capsys):
    # The benchmark's tracer wraps functions under the names their callers
    # look up; entering it fails if one of those names is gone, and a call
    # that bypasses the name records no span.
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # The counting pass reads DFS nodes through the node budget, so the
    # kernel must spend exactly one budget unit per node.
    with tracer.Counters() as counters:
        with monkeypatch.context() as m:
            counter = _CountingProbe(m)
            cycle_spectrum(petersen())
    assert counters.dfs_nodes > 0
    assert counters.dfs_nodes == counter.nodes
    with tracer.Tracer() as t:
        run_cli(monkeypatch, capsys, ["check", "edge-pancyclic"],
                stdin=emit_graph6(wheel(5)))
        run_cli(monkeypatch, capsys, ["canon"], stdin="DqK\n")
        search.min_size_edge_pancyclic(5, workers=1)
    names = {span[0] for span in t.spans}
    assert {"checks.is_edge_pancyclic", "canon.canonical_code",
            "canon._canonize"} <= names


def run_child(argv, stdin=None, **extra_env):
    # The child must import the package under test: put the directory that
    # holds it first on PYTHONPATH, ahead of any installed copy.
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(pancyclic.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    return subprocess.run(argv, input=stdin, capture_output=True, text=True, env=env)


def test_console_script_runs():
    version = run_child([sys.executable, "-m", "pancyclic.cli", "--version"])
    assert version.returncode == 0
    assert __version__ in version.stdout

    # `python -m pancyclic` is the install-free form of the `pancyclic` command.
    piped = run_child([sys.executable, "-m", "pancyclic", "canon"], stdin="C~\n")
    assert piped.returncode == 0
    assert json.loads(piped.stdout)["result"]["code_hex"] == "3f"
    empty = run_child([sys.executable, "-m", "pancyclic", "canon"], stdin="")
    assert empty.returncode == 2 and "standard input" in empty.stderr

    # The console script that an install creates calls cli.main.
    if sys.version_info >= (3, 11):
        import tomllib

        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["pancyclic"]
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is cli.main

    # Where the console script is installed, run it on the same pipe.
    script = shutil.which("pancyclic")
    if script is not None:
        installed = run_child([script, "canon"], stdin="C~\n")
        assert installed.returncode == 0
        assert json.loads(installed.stdout)["result"]["code_hex"] == "3f"


def test_bad_worker_env_is_usage_error():
    bad = run_child(
        [sys.executable, "-m", "pancyclic", "search", "min-size", "--order", "4",
         "--predicate", "edge-pancyclic"],
        PANCYCLIC_WORKERS="abc",
    )
    assert bad.returncode == 2
    assert "PANCYCLIC_WORKERS" in bad.stderr and "Traceback" not in bad.stderr


def test_readme_cli_block_runs_as_documented(monkeypatch, capsys):
    # Each line of the README's CLI block, run in-process with stdin from
    # its echo, exits with the code its comment states (0 when it states
    # none).
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = [line for line in block.splitlines() if line.strip()]
    assert len(lines) >= 10
    for line in lines:
        words = shlex.split(line, comments=True)
        stdin = ""
        if words[0] == "echo":
            bar = words.index("|")
            stdin = " ".join(words[1:bar]) + "\n"
            words = words[bar + 1:]
        assert words[0] == "pancyclic", line
        stated = re.search(r"# exit (\d)", line)
        code, _, err = run_cli(monkeypatch, capsys, words[1:], stdin=stdin)
        assert code == (int(stated.group(1)) if stated else 0), (line, err)
