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
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


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


def _options(args: argparse.Namespace, command: str, name: str, table: dict) -> dict:
    """The options that row ``name`` of ``table`` reads and that were given.

    Each row of a table is (runner, the argparse dests of the options it
    reads); the caller passes the runner exactly these options, so an absent
    one takes the runner's own default. An option that only other rows read,
    given to ``command name``, is a usage error, raised before any input is
    read.
    """
    if name not in table:
        raise GraphError(f"{command}: unknown name {name!r}")
    reads = table[name][1]
    for opt in sorted({opt for _, opts in table.values() for opt in opts} - set(reads)):
        if getattr(args, opt) is not None:
            raise GraphError(
                f"--{opt.replace('_', '-')} does not apply to {command} {name}"
            )
    return {opt: getattr(args, opt) for opt in reads if getattr(args, opt) is not None}


def _worst(codes: list[int]) -> int:
    for level in (EXIT_FALSE, EXIT_BUDGET):
        if level in codes:
            return level
    return EXIT_TRUE


# -- subcommand runners ------------------------------------------------------


def _run_construct(args: argparse.Namespace) -> int:
    family = args.family.replace("_", "-")
    options = _options(args, "construct", family, families.FAMILIES)
    g, labels = families.FamilySpec(family, **options).build()
    if args.format == "dot":
        print(emit_dot(g), end="")
    else:
        print(emit_graph6(g))
    if args.labels:
        print(json.dumps(labels or {}, sort_keys=True))
    return EXIT_TRUE


def _run_check(args: argparse.Namespace) -> int:
    options = _options(args, "check", args.predicate, checks.PREDICATES)
    codes = []
    for lineno, line, g in _stdin_graphs():
        t0 = time.monotonic()
        try:
            result = checks.check(args.predicate, g, **options).to_json_dict()
        except GraphError as exc:
            raise GraphError(f"line {lineno}: {exc}") from exc
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
        code = canonical_code(g)
        result = {"graph6": code.graph6(), "code_hex": code.hex()}
        print(_envelope("canon", {"line": lineno, "graph6": line}, result, t0))
    return EXIT_TRUE


def _outcome_exit(outcome: search.SearchOutcome) -> int:
    return EXIT_BUDGET if outcome.notes == search.BUDGET_NOTE else EXIT_TRUE


# The search min-size modes: each runner takes the order plus the options it
# reads, and returns the inputs it records next to the outcome.


def _min_size_edge_pancyclic(
    order: int, workers: int | None = None, max_classes: int | None = None
) -> tuple[dict, search.SearchOutcome]:
    return {}, search.min_size_edge_pancyclic(
        order, workers=workers, class_budget=max_classes
    )


def _min_size_triangle_cover(
    order: int, kappa: int = 2, workers: int | None = None,
    max_classes: int | None = None,
) -> tuple[dict, search.SearchOutcome]:
    return {"kappa": kappa}, search.min_size_triangle_cover(
        order, kappa, workers=workers, class_budget=max_classes
    )


def _min_size_stream(order: int, stream: str) -> tuple[dict, search.SearchOutcome]:
    try:
        with open(stream, encoding="ascii") as fh:
            return {"stream": stream}, search.min_size_edge_pancyclic(order, stream=fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"cannot read stream file {stream}: {exc}") from exc


_MIN_SIZE = {
    "edge-pancyclic": (_min_size_edge_pancyclic, ("workers", "max_classes")),
    "triangle-cover": (_min_size_triangle_cover, ("kappa", "workers", "max_classes")),
    "--stream": (_min_size_stream, ("stream",)),
}


def _run_search_min_size(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    # --stream selects the stream mode of the edge-pancyclic search; the
    # triangle-cover search does not read it.
    streamed = args.stream is not None and args.predicate == "edge-pancyclic"
    name = "--stream" if streamed else args.predicate
    options = _options(args, "search min-size", name, _MIN_SIZE)
    inputs, outcome = _MIN_SIZE[name][0](args.order, **options)
    inputs.update(order=args.order, predicate=args.predicate)
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
#
# Each runner takes the options its result reads and returns the inputs it
# records (None values dropped) next to its claims.


def _claim(name: str, expected, actual) -> dict:
    return {"name": name, "expected": expected, "actual": actual,
            "pass": expected == actual}


def _verify_lemma1(n: int, workers: int | None = None) -> tuple[dict, list[dict]]:
    # Below order 6 the formula does not hold: the minima at orders 3, 4 and 5
    # are 3, 5 and 7.
    if n < 6:
        raise GraphError(f"verify lemma1 holds for n >= 6, got {n}")
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
    return {"n": n}, claims


def _verify_lemma2(n: int, workers: int | None = None) -> tuple[dict, list[dict]]:
    outcome = search.min_size_triangle_cover(n, 3, workers=workers)
    expected = [emit_graph6(canonical_graph(families.wheel(n)))]
    return {"n": n}, [
        _claim("minimum size", 2 * n - 2, outcome.value),
        _claim("extremal census", expected, outcome.witnesses),
    ]


def _verify_erdos(n: int, workers: int | None = None) -> tuple[dict, list[dict]]:
    # Order 2 has no connected graph with every edge in a triangle.
    if n < 3:
        raise GraphError(f"verify erdos holds for n >= 3, got {n}")
    outcome = search.min_size_triangle_cover(n, 1, workers=workers)
    return {"n": n}, [_claim("minimum size", (3 * n - 2) // 2, outcome.value)]


def _verify_ring(k: int, budget: int | None = None) -> tuple[dict, list[dict]]:
    g = families.g_ring(k).graph
    rep = checks.is_edge_pancyclic(g, budget=budget)
    return {"k": k, "budget": budget}, [
        _claim("order", 13 * k, g.order),
        _claim("size", 2 * (13 * k) - k, g.size),
        _claim("edge-pancyclic", True, rep.verdict),
    ]


def _verify_diameter(
    n: int, exhaustive: bool = False, workers: int | None = None
) -> tuple[dict, list[dict]]:
    mode = "exhaustive" if exhaustive else "auto"
    outcome = search.max_diameter_edge_pancyclic(n, mode=mode, workers=workers)
    return {"n": n, "exhaustive": exhaustive}, [
        _claim("maximum diameter", 2 * n // 5, outcome.value)
    ]


def _verify_block(k: int, budget: int | None = None) -> tuple[dict, list[dict]]:
    rep = checks.verify_h_block_properties(k, budget=budget)
    claims = [_claim("all six properties", True, rep.verdict)]
    spectrum = rep.evidence.get("P5", {}).get("exact_spectrum")
    if spectrum is not None:
        claims.append(
            _claim("centre edge exact spectrum", list(range(3, 3 * k)), spectrum)
        )
    return {"k": k, "budget": budget}, claims


_VERIFY = {
    "lemma1": (_verify_lemma1, ("n", "workers")),
    "lemma2": (_verify_lemma2, ("n", "workers")),
    "erdos": (_verify_erdos, ("n", "workers")),
    "thm5": (_verify_ring, ("k", "budget")),
    "thm6": (_verify_diameter, ("n", "exhaustive", "workers")),
    "hk-props": (_verify_block, ("k", "budget")),
}


def _run_verify(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    name = args.result
    options = _options(args, "verify", name, _VERIFY)
    run, reads = _VERIFY[name]
    for opt in ("n", "k"):
        if opt in reads and opt not in options:
            raise GraphError(f"verify {name} needs --{opt}")
    recorded, claims = run(**options)
    inputs = {k: v for k, v in recorded.items() if v is not None}
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


def _non_negative(text: str) -> int:
    """argparse type of a count option: an integer >= 0, checked before any
    input is read."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


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
    p.add_argument("--format", choices=("graph6", "dot"))
    p.add_argument("--labels", action="store_true", default=None,
                   help="also print the JSON label map")
    p.set_defaults(func=_run_construct)

    p = sub.add_parser(
        "check", help="decide a predicate for each graph6 line on stdin",
        description="Decide a predicate for each graph6 line on stdin. An "
                    "option that the chosen predicate does not read (see each "
                    "option's help) exits 2 before stdin is read.",
    )
    p.add_argument("predicate", choices=tuple(checks.PREDICATES))
    p.add_argument("--budget", type=_non_negative,
                   help="edge-pancyclic, vertex-pancyclic and pancyclic only: "
                        "total DFS node cap per checked graph, shared by all of "
                        "its (edge, length) probes; lengths certified absent by "
                        "the edge's block (its order too, once the block is "
                        "certified non-Hamiltonian) spend none, nor do pairs "
                        "answered by a cycle found earlier in the check, by a "
                        "chord exchange or a vertex substitution on one of the "
                        "same length, or by a vertex insertion into one a "
                        "length shorter (stats.reused), and stats.probes counts "
                        "DFS probes only; the DFS prunes dead ends and adds no "
                        "node for it; default unlimited")
    p.add_argument("--witnesses", action="store_true", default=None,
                   help="edge-pancyclic only: include one cycle per (edge, length)")
    p.add_argument("--kappa", type=_non_negative,
                   help="connectivity only: required lower bound on the vertex "
                        "connectivity, at least 0 (default 1)")
    p.set_defaults(func=_run_check)

    p = sub.add_parser(
        "spectrum", help="per-edge cycle length sets for stdin graphs"
    )
    p.add_argument("--budget", type=_non_negative,
                   help="total DFS node cap per graph, shared by all of its "
                        "(edge, length) probes; lengths certified absent by the "
                        "edge's block (its order too, once the block is "
                        "certified non-Hamiltonian) spend none, nor do pairs "
                        "answered by a cycle found earlier for the graph, by a "
                        "chord exchange or a vertex substitution on one of the "
                        "same length, or by a vertex insertion into one a "
                        "length shorter; "
                        "the DFS prunes dead ends and adds no node for it; a "
                        "spectrum line carries no stats; a stopped spectrum "
                        "lists only confirmed lengths and exits 3")
    p.set_defaults(func=_run_spectrum)

    p = sub.add_parser("canon", help="canonical graph6 and hex code for stdin graphs")
    p.set_defaults(func=_run_canon)

    p = sub.add_parser("search", help="extremal searches")
    ssub = p.add_subparsers(dest="search_kind", required=True)

    q = ssub.add_parser("min-size", help="smallest size admitting the predicate")
    q.add_argument("--order", type=int, required=True)
    q.add_argument("--predicate", required=True,
                   choices=("edge-pancyclic", "triangle-cover"))
    q.add_argument("--kappa", type=int, choices=(1, 2, 3),
                   help="triangle-cover only: required connectivity (default 2)")
    q.add_argument("--stream", metavar="FILE",
                   help="graph6 file replacing the built-in generator "
                        "(edge-pancyclic only); --kappa, --workers and "
                        "--max-classes do not apply to it and exit 2, and so "
                        "does a file that cannot be read as ASCII")
    q.add_argument("--workers", type=int)
    q.add_argument("--max-classes", type=int,
                   help="stop after this many tree nodes (outcome marked non-exhaustive)")
    q.set_defaults(func=_run_search_min_size)

    q = ssub.add_parser(
        "max-diameter",
        help="largest diameter over edge-pancyclic graphs",
        description="Largest diameter over edge-pancyclic graphs of one order. "
                    "Order 9 has no constructed witness, so auto and --witness "
                    "mode silently run the exhaustive walk there, which takes "
                    "about 40 s at one worker.",
    )
    q.add_argument("--order", type=int, required=True)
    mode = q.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", default=None,
                      help="full census (order <= 9)")
    mode.add_argument("--witness", action="store_true", default=None,
                      help="constructed witness only")
    q.add_argument("--workers", type=int)
    q.add_argument("--max-classes", type=int)
    q.set_defaults(func=_run_search_max_diameter)

    p = sub.add_parser(
        "verify", help="reproduce a named result at given parameters",
        description="Reproduce a named result at given parameters. An option "
                    "that the chosen result does not read (see each option's "
                    "help) exits 2.",
    )
    p.add_argument("result", choices=tuple(_VERIFY))
    p.add_argument("--n", type=int, help="order (lemma1, lemma2, erdos, thm6)")
    p.add_argument("--k", type=int, help="parameter (thm5, hk-props)")
    p.add_argument("--exhaustive", action="store_true", default=None,
                   help="thm6: search instead of constructing a witness; "
                        "without it, order 9 has no constructed witness and "
                        "silently runs the exhaustive walk, which takes about "
                        "40 s at one worker")
    p.add_argument("--budget", type=_non_negative,
                   help="one total DFS node cap for thm5/hk-props, P5 spectrum "
                        "included; a check it stops exits 3; default unlimited")
    p.add_argument("--workers", type=int,
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
