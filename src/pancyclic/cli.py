"""Command-line front end: construction, checking, searching, verification.

Every JSON-producing subcommand wraps its payload in a one-line report
envelope ``{command, inputs, result, version, elapsed_ms}``; batch input
(one graph6 line per graph on standard input) yields one envelope line per
input. Exit codes: 0 verdict true / run completed, 1 verdict false,
2 usage or input error, 3 budget exhausted before a decision.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Iterator

from . import __version__, checks, families, search
from .canon import canonical_code, canonical_graph
from .graphs import (
    Graph,
    Graph6Error,
    GraphError,
    emit_dot,
    emit_graph6,
    parse_graph6,
    vertex_connectivity,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# The options (argparse dests) that each check predicate, verify result and
# search min-size mode reads. Any other option of the same table, given
# anyway, is a usage error. --kappa is not listed: it has a default, so a
# given value cannot be told from it.
_READS = {
    "check": {
        "triangle-cover": (),
        "edge-pancyclic": ("budget", "witnesses"),
        "vertex-pancyclic": ("budget",),
        "pancyclic": ("budget",),
        "layer-bounds": (),
        "connectivity": (),
    },
    "verify": {
        "lemma1": ("n", "workers"),
        "lemma2": ("n", "workers"),
        "erdos": ("n", "workers"),
        "thm5": ("k", "budget"),
        "thm6": ("n", "exhaustive", "workers"),
        "hk-props": ("k", "budget"),
    },
    "search min-size": {
        "edge-pancyclic": ("workers", "max_classes"),
        "triangle-cover": ("workers", "max_classes"),
        "--stream": ("stream",),
    },
}


def _envelope(command: str, inputs: dict, result: dict, t0: float) -> str:
    return json.dumps(
        {
            "command": command,
            "inputs": inputs,
            "result": result,
            "version": __version__,
            "elapsed_ms": int((time.monotonic() - t0) * 1000),
        },
        sort_keys=True,
    )


def _stdin_graphs() -> Iterator[tuple[int, str, Graph]]:
    """Parse one graph6 value per non-empty standard-input line."""
    got_any = False
    for lineno, line in enumerate(sys.stdin, start=1):
        line = line.strip()
        if not line:
            continue
        got_any = True
        try:
            yield lineno, line, parse_graph6(line)
        except Graph6Error as exc:
            raise GraphError(f"line {lineno}: {exc}") from exc
    if not got_any:
        raise GraphError("no graph6 input on standard input")


def _reject_unread(args: argparse.Namespace, command: str, name: str) -> None:
    """An option given to ``command name`` that it never reads is a usage error."""
    table = _READS[command]
    for opt in sorted(set().union(*table.values()) - set(table[name])):
        given = getattr(args, opt)  # None or False when not given; 0 is given
        if given is not None and given is not False:
            raise GraphError(
                f"--{opt.replace('_', '-')} does not apply to {command} {name}"
            )


def _worst(codes: list[int]) -> int:
    for level in (EXIT_FALSE, EXIT_BUDGET):
        if level in codes:
            return level
    return EXIT_TRUE


# -- subcommand runners ------------------------------------------------------


def _run_construct(args: argparse.Namespace) -> int:
    spec = families.FamilySpec(
        family=args.family.replace("_", "-"),
        n=args.n,
        k=args.k,
        kind=args.kind,
        parts=tuple(args.parts) if args.parts else None,
    )
    g, labels = spec.build()
    if args.format == "graph6":
        print(emit_graph6(g))
    else:
        print(emit_dot(g), end="")
    if args.labels:
        print(json.dumps(labels or {}, sort_keys=True))
    return EXIT_TRUE


def _check_one(predicate: str, g: Graph, args: argparse.Namespace) -> dict:
    if predicate == "triangle-cover":
        return checks.has_triangle_cover(g).to_json_dict()
    if predicate == "edge-pancyclic":
        return checks.is_edge_pancyclic(
            g, budget=args.budget, witnesses=args.witnesses
        ).to_json_dict()
    if predicate == "vertex-pancyclic":
        return checks.is_vertex_pancyclic(g, budget=args.budget).to_json_dict()
    if predicate == "pancyclic":
        return checks.is_pancyclic(g, budget=args.budget).to_json_dict()
    if predicate == "layer-bounds":
        return checks.verify_distance_layer_bounds(g).to_json_dict()
    if predicate == "connectivity":
        kappa = vertex_connectivity(g)
        return checks.CheckReport(
            predicate="connectivity",
            verdict=kappa >= args.kappa,
            evidence={"kappa": kappa, "required": args.kappa},
            stats={},
        ).to_json_dict()
    raise GraphError(f"unknown predicate {predicate!r}")


def _run_check(args: argparse.Namespace) -> int:
    _reject_unread(args, "check", args.predicate)
    codes = []
    for lineno, line, g in _stdin_graphs():
        t0 = time.monotonic()
        result = _check_one(args.predicate, g, args)
        inputs = {"line": lineno, "graph6": line, "predicate": args.predicate}
        if args.budget is not None:
            inputs["budget"] = args.budget
        print(_envelope("check", inputs, result, t0))
        verdict = result["verdict"]
        codes.append(
            EXIT_TRUE if verdict else EXIT_BUDGET if verdict is None else EXIT_FALSE
        )
    return _worst(codes)


def _run_spectrum(args: argparse.Namespace) -> int:
    codes = []
    for lineno, line, g in _stdin_graphs():
        t0 = time.monotonic()
        spec = checks.cycle_spectrum(g, budget=args.budget)
        result = spec.to_json_dict()
        inputs = {"line": lineno, "graph6": line}
        if args.budget is not None:
            inputs["budget"] = args.budget
        print(_envelope("spectrum", inputs, result, t0))
        codes.append(EXIT_TRUE if spec.complete else EXIT_BUDGET)
    return _worst(codes)


def _run_canon(args: argparse.Namespace) -> int:
    for lineno, line, g in _stdin_graphs():
        t0 = time.monotonic()
        result = {
            "graph6": emit_graph6(canonical_graph(g)),
            "code_hex": canonical_code(g).hex(),
        }
        print(_envelope("canon", {"line": lineno, "graph6": line}, result, t0))
    return EXIT_TRUE


def _outcome_exit(outcome: search.SearchOutcome) -> int:
    return EXIT_BUDGET if outcome.notes == search.BUDGET_NOTE else EXIT_TRUE


def _run_search_min_size(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    _reject_unread(
        args, "search min-size", args.predicate if args.stream is None else "--stream"
    )
    inputs = {"order": args.order, "predicate": args.predicate}
    if args.predicate == "edge-pancyclic":
        if args.stream is not None:
            with open(args.stream, encoding="ascii") as fh:
                outcome = search.min_size_edge_pancyclic(args.order, stream=fh)
            inputs["stream"] = args.stream
        else:
            outcome = search.min_size_edge_pancyclic(
                args.order, workers=args.workers, class_budget=args.max_classes
            )
    else:
        if args.stream is not None:
            raise GraphError("stream mode is only wired to the edge-pancyclic search")
        inputs["kappa"] = args.kappa
        outcome = search.min_size_triangle_cover(
            args.order, args.kappa,
            workers=args.workers, class_budget=args.max_classes,
        )
    print(_envelope("search min-size", inputs, outcome.to_json_dict(), t0))
    return _outcome_exit(outcome)


def _run_search_max_diameter(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    mode = "exhaustive" if args.exhaustive else "witness" if args.witness else "auto"
    outcome = search.max_diameter_edge_pancyclic(
        args.order, mode=mode,
        workers=args.workers, class_budget=args.max_classes,
    )
    inputs = {"order": args.order, "mode": mode}
    print(_envelope("search max-diameter", inputs, outcome.to_json_dict(), t0))
    return _outcome_exit(outcome)


# -- verify: thin compositions over families / checks / search ---------------


def _claim(name: str, expected, actual) -> dict:
    return {"name": name, "expected": expected, "actual": actual,
            "pass": expected == actual}


def _verify_lemma1(n: int, workers: int | None) -> list[dict]:
    outcome = search.min_size_triangle_cover(n, 2, workers=workers)
    claims = [_claim("minimum size", -(-3 * n // 2), outcome.value)]
    if n >= 8 and n % 2 == 0:
        expected = [emit_graph6(canonical_graph(families.a_graph(n).graph))]
        claims.append(_claim("extremal census", expected, outcome.witnesses))
    elif n >= 9 and n % 2 == 1:
        expected = sorted(
            emit_graph6(canonical_graph(families.odd_extremal(kind, n).graph))
            for kind in "FGH"
        )
        claims.append(_claim("extremal census", expected, outcome.witnesses))
    return claims


def _verify_lemma2(n: int, workers: int | None) -> list[dict]:
    outcome = search.min_size_triangle_cover(n, 3, workers=workers)
    expected = [emit_graph6(canonical_graph(families.wheel(n)))]
    return [
        _claim("minimum size", 2 * n - 2, outcome.value),
        _claim("extremal census", expected, outcome.witnesses),
    ]


def _verify_erdos(n: int, workers: int | None) -> list[dict]:
    outcome = search.min_size_triangle_cover(n, 1, workers=workers)
    return [_claim("minimum size", (3 * n - 2) // 2, outcome.value)]


def _verify_ring(k: int, budget: int | None) -> list[dict]:
    g = families.g_ring(k).graph
    rep = checks.is_edge_pancyclic(g, budget=budget)
    return [
        _claim("order", 13 * k, g.order),
        _claim("size", 2 * (13 * k) - k, g.size),
        _claim("edge-pancyclic", True, rep.verdict),
    ]


def _verify_diameter(n: int, exhaustive: bool, workers: int | None) -> list[dict]:
    mode = "exhaustive" if exhaustive else "auto"
    outcome = search.max_diameter_edge_pancyclic(n, mode=mode, workers=workers)
    return [_claim("maximum diameter", 2 * n // 5, outcome.value)]


def _verify_block(k: int, budget: int | None) -> list[dict]:
    rep = checks.verify_h_block_properties(k, budget=budget)
    claims = [_claim("all six properties", True, rep.verdict)]
    spectrum = rep.evidence.get("P5", {}).get("exact_spectrum")
    if spectrum is not None:
        claims.append(
            _claim("centre edge exact spectrum", list(range(3, 3 * k)), spectrum)
        )
    return claims


def _run_verify(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    name = args.result
    _reject_unread(args, "verify", name)
    inputs: dict = {}
    for opt in ("n", "k"):
        if opt in _READS["verify"][name]:
            if getattr(args, opt) is None:
                raise GraphError(f"verify {name} needs --{opt}")
            inputs[opt] = getattr(args, opt)
    if args.budget is not None:
        inputs["budget"] = args.budget
    if name == "lemma1":
        claims = _verify_lemma1(args.n, args.workers)
    elif name == "lemma2":
        claims = _verify_lemma2(args.n, args.workers)
    elif name == "erdos":
        claims = _verify_erdos(args.n, args.workers)
    elif name == "thm5":
        claims = _verify_ring(args.k, args.budget)
    elif name == "thm6":
        inputs["exhaustive"] = args.exhaustive
        claims = _verify_diameter(args.n, args.exhaustive, args.workers)
    else:
        claims = _verify_block(args.k, args.budget)
    result = {"claims": claims, "pass": all(c["pass"] for c in claims)}
    print(_envelope("verify", {"result": name, **inputs}, result, t0))
    # A check that the budget stopped reports its verdict claim as None.
    return _worst([
        EXIT_TRUE if c["pass"]
        else EXIT_BUDGET if c["actual"] is None and "budget" in inputs
        else EXIT_FALSE
        for c in claims
    ])


# -- parser wiring -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pancyclic",
        description="Construct, check and search graphs around edge-pancyclicity.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "construct", help="emit a named family graph (graph6 or DOT)"
    )
    p.add_argument("family", help="family name, e.g. wheel, h-block, q-diameter")
    p.add_argument("--n", type=int, help="order parameter")
    p.add_argument("--k", type=int, help="block/ring parameter")
    p.add_argument("--kind", choices=("F", "G", "H"),
                   help="odd-extremal variant")
    p.add_argument("--parts", nargs="+", metavar="TOKEN",
                   help="join parts, e.g. K1 C5 E2")
    p.add_argument("--format", choices=("graph6", "dot"), default="graph6")
    p.add_argument("--labels", action="store_true",
                   help="also print the JSON label map")
    p.set_defaults(func=_run_construct)

    p = sub.add_parser(
        "check", help="decide a predicate for each graph6 line on stdin",
        description="Decide a predicate for each graph6 line on stdin. "
                    "--budget or --witnesses given to a predicate that does "
                    "not read it exits 2 before stdin is read. --kappa is "
                    "not checked: its default cannot be told from a given value.",
    )
    p.add_argument("predicate", choices=tuple(_READS["check"]))
    p.add_argument("--budget", type=int, default=None,
                   help="edge-pancyclic, vertex-pancyclic and pancyclic only: "
                        "total DFS node cap per checked graph, shared by all of "
                        "its (edge, length) probes; lengths certified absent by "
                        "the edge's block spend none, and stats.probes counts "
                        "DFS probes only; default unlimited")
    p.add_argument("--witnesses", action="store_true",
                   help="edge-pancyclic only: include one cycle per (edge, length)")
    p.add_argument("--kappa", type=int, default=1,
                   help="connectivity only: required lower bound (default 1)")
    p.set_defaults(func=_run_check)

    p = sub.add_parser(
        "spectrum", help="per-edge cycle length sets for stdin graphs"
    )
    p.add_argument("--budget", type=int, default=None,
                   help="total DFS node cap per graph, shared by all of its "
                        "(edge, length) probes; lengths certified absent by the "
                        "edge's block spend none; a stopped spectrum lists only "
                        "confirmed lengths and exits 3")
    p.set_defaults(func=_run_spectrum)

    p = sub.add_parser("canon", help="canonical graph6 and hex code for stdin graphs")
    p.set_defaults(func=_run_canon)

    p = sub.add_parser("search", help="extremal searches")
    ssub = p.add_subparsers(dest="search_kind", required=True)

    q = ssub.add_parser("min-size", help="smallest size admitting the predicate")
    q.add_argument("--order", type=int, required=True)
    q.add_argument("--predicate", required=True,
                   choices=("edge-pancyclic", "triangle-cover"))
    q.add_argument("--kappa", type=int, default=2, choices=(1, 2, 3),
                   help="triangle-cover only: required connectivity")
    q.add_argument("--stream", metavar="FILE",
                   help="graph6 file replacing the built-in generator "
                        "(edge-pancyclic only); --workers and --max-classes "
                        "do not apply to it and exit 2")
    q.add_argument("--workers", type=int, default=None)
    q.add_argument("--max-classes", type=int, default=None,
                   help="stop after this many tree nodes (outcome marked non-exhaustive)")
    q.set_defaults(func=_run_search_min_size)

    q = ssub.add_parser(
        "max-diameter",
        help="largest diameter over edge-pancyclic graphs",
        description="Largest diameter over edge-pancyclic graphs of one order. "
                    "Order 9 has no constructed witness, so auto and --witness "
                    "mode silently run the exhaustive walk there, with no time "
                    "estimate.",
    )
    q.add_argument("--order", type=int, required=True)
    mode = q.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true",
                      help="full census (order <= 9)")
    mode.add_argument("--witness", action="store_true",
                      help="constructed witness only")
    q.add_argument("--workers", type=int, default=None)
    q.add_argument("--max-classes", type=int, default=None)
    q.set_defaults(func=_run_search_max_diameter)

    p = sub.add_parser(
        "verify", help="reproduce a named result at given parameters",
        description="Reproduce a named result at given parameters. An option "
                    "that the chosen result does not read (see each option's "
                    "help) exits 2.",
    )
    p.add_argument("result", choices=tuple(_READS["verify"]))
    p.add_argument("--n", type=int, help="order (lemma1, lemma2, erdos, thm6)")
    p.add_argument("--k", type=int, help="parameter (thm5, hk-props)")
    p.add_argument("--exhaustive", action="store_true",
                   help="thm6: search instead of constructing a witness; "
                        "without it, order 9 has no constructed witness and "
                        "silently runs the exhaustive walk, with no time estimate")
    p.add_argument("--budget", type=int, default=None,
                   help="one total DFS node cap for thm5/hk-props, P5 spectrum "
                        "included; a check it stops exits 3; default unlimited")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for the lemma1, lemma2, erdos and thm6 "
                        "searches (default: PANCYCLIC_WORKERS, else all processors)")
    p.set_defaults(func=_run_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Graph6Error as exc:
        print(f"pancyclic: graph6 error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphError as exc:
        print(f"pancyclic: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
