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


def _per_line(command: str, answer, **inputs) -> int:
    """Print one envelope per graph6 line of standard input and return the
    worst exit code. ``answer(g)`` gives the line's (result, exit code); a
    ``GraphError`` it raises is named by its line. The envelope's inputs are
    the line, its graph6 and the given ``inputs`` that are not None."""
    inputs = {k: v for k, v in inputs.items() if v is not None}
    codes = []
    for lineno, line, g in _stdin_graphs():
        t0 = time.monotonic()
        try:
            result, code = answer(g)
        except GraphError as exc:
            raise GraphError(f"line {lineno}: {exc}") from exc
        print(_envelope(command, {"line": lineno, "graph6": line, **inputs}, result, t0))
        codes.append(code)
    return _worst(codes)


def _run_check(args: argparse.Namespace) -> int:
    options = _options(args, "check", args.predicate, checks.PREDICATES)

    def answer(g: Graph) -> tuple[dict, int]:
        result = checks.check(args.predicate, g, **options).to_json_dict()
        verdict = result["verdict"]
        return result, (
            EXIT_TRUE if verdict else EXIT_BUDGET if verdict is None else EXIT_FALSE
        )

    return _per_line("check", answer, predicate=args.predicate, budget=args.budget)


def _run_spectrum(args: argparse.Namespace) -> int:
    def answer(g: Graph) -> tuple[dict, int]:
        spec = checks.cycle_spectrum(g, budget=args.budget)
        return spec.to_json_dict(), EXIT_TRUE if spec.complete else EXIT_BUDGET

    return _per_line("spectrum", answer, budget=args.budget)


def _run_canon(args: argparse.Namespace) -> int:
    def answer(g: Graph) -> tuple[dict, int]:
        code = canonical_code(g)
        return {"graph6": code.graph6(), "code_hex": code.hex()}, EXIT_TRUE

    return _per_line("canon", answer)


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
    "edge-pancyclic stream": (_min_size_stream, ("stream",)),
}


def _run_search_min_size(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    # --stream selects the stream row of the edge-pancyclic search; the
    # triangle-cover search does not read it.
    streamed = args.stream is not None and args.predicate == "edge-pancyclic"
    name = "edge-pancyclic stream" if streamed else args.predicate
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
    order = 6 * k * k - 5 * k
    return {"k": k, "budget": budget}, [
        _claim("order", order, g.order),
        _claim("size", 2 * order - k, g.size),
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


# One spec per option: its argparse keywords and its help. A table-driven
# subcommand adds exactly the options its rows read, the help of one that
# not every row reads prefixed with the rows that do.
_OPTIONS: dict[str, dict] = {
    "n": {"type": int, "help": "order"},
    "k": {"type": int, "help": "block/ring parameter"},
    "kind": {"choices": ("F", "G", "H"), "help": "variant"},
    "parts": {"nargs": "+", "metavar": "TOKEN", "help": "join parts, e.g. K1 C5 E2"},
    "budget": {
        "type": _non_negative,
        "help": "total DFS node cap per checked graph, shared by all of its "
                "(edge, length) probes, the hk-props P5 spectrum included; a "
                "run it stops exits 3 (a stopped spectrum lists only the "
                "lengths it confirmed); default unlimited; the README's "
                "--budget paragraph says which probes spend none",
    },
    "witnesses": {"action": "store_true", "default": None,
                  "help": "include one cycle per (edge, length)"},
    "kappa": {"type": _non_negative,
              "help": "required vertex connectivity (check: at least 0, "
                      "default 1; search min-size: 1, 2 or 3, default 2)"},
    "workers": {"type": int, "help": "worker processes (default: "
                "PANCYCLIC_WORKERS, else all processors)"},
    "max_classes": {"type": int, "help": "stop after this many tree nodes "
                    "(outcome marked non-exhaustive)"},
    "exhaustive": {
        "action": "store_true", "default": None,
        "help": "full census (order <= 9) instead of a constructed witness; "
                "order 9 has none, so without it the census runs anyway, "
                "which takes about 40 s at one worker",
    },
    "stream": {"metavar": "FILE",
               "help": "graph6 file replacing the built-in generator, read in "
                       "one process with no class budget; a file that cannot "
                       "be read as ASCII exits 2"},
}


def _add(p, dest: str, prefix: str = "") -> None:
    spec = _OPTIONS[dest]
    p.add_argument(f"--{dest.replace('_', '-')}",
                   **{**spec, "help": prefix + spec["help"]})


def _table_parser(sub, name: str, summary: str, noun: str, table: dict, func):
    """Subcommand ``name`` with every option that some row of ``table`` reads."""
    p = sub.add_parser(
        name, help=summary,
        description=f"{summary[0].upper()}{summary[1:]}. An option that the "
                    f"chosen {noun} does not read (see each option's help) exits "
                    "2 before any input is read or any search runs.",
    )
    for dest in _OPTIONS:
        readers = [key for key, (_, reads) in table.items() if dest in reads]
        if readers:
            partial = len(readers) < len(table)
            _add(p, dest, f"{', '.join(readers)} only: " if partial else "")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pancyclic",
        description="Construct, check and search graphs around edge-pancyclicity.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = _table_parser(sub, "construct", "emit a named family graph (graph6 or DOT)",
                      "family", families.FAMILIES, _run_construct)
    p.add_argument("family", help="family name, e.g. wheel, h-block, q-diameter")
    p.add_argument("--format", choices=("graph6", "dot"))
    p.add_argument("--labels", action="store_true", default=None,
                   help="also print the JSON label map")

    p = _table_parser(sub, "check", "decide a predicate for each graph6 line on stdin",
                      "predicate", checks.PREDICATES, _run_check)
    p.add_argument("predicate", choices=tuple(checks.PREDICATES))

    p = sub.add_parser(
        "spectrum", help="per-edge cycle length sets for stdin graphs"
    )
    _add(p, "budget")
    p.set_defaults(func=_run_spectrum)

    p = sub.add_parser("canon", help="canonical graph6 and hex code for stdin graphs")
    p.set_defaults(func=_run_canon)

    p = sub.add_parser("search", help="extremal searches")
    ssub = p.add_subparsers(dest="search_kind", required=True)

    q = _table_parser(ssub, "min-size", "smallest size admitting the predicate",
                      "mode", _MIN_SIZE, _run_search_min_size)
    q.add_argument("--order", type=int, required=True)
    q.add_argument("--predicate", required=True,
                   choices=("edge-pancyclic", "triangle-cover"))

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
    _add(mode, "exhaustive")
    mode.add_argument("--witness", action="store_true", default=None,
                      help="constructed witness only")
    _add(q, "workers")
    _add(q, "max_classes")
    q.set_defaults(func=_run_search_max_diameter)

    p = _table_parser(sub, "verify", "reproduce a named result at given parameters",
                      "result", _VERIFY, _run_verify)
    p.add_argument("result", choices=tuple(_VERIFY))

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
