"""Command-line front end.

Commands: analyze (prime chains of a graph or ideal file), graph (matching
invariants and parallelizations), verify-paper (the bundled reference claims),
property-battery (the theorem sweeps). Exit codes: 0 success, 1 failed checks
or a reader that closed the output pipe early, 2 parse errors, 3 budget
refusals.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import partial
from pathlib import Path

from .battery import run_battery
from .claims import run_claims
from .errors import BOX_CELLS, BudgetExceededError, ParseError, UsageError, bounded
from .formats import looks_like_ideal, parse_graph, parse_ideal
from .graphs import (
    Graph,
    berge_deficiency,
    deficiency,
    duplicate_edge,
    edge_ideal,
    maximum_matching,
    parallelize,
)
from .stability import both_chains, stability_bound

SCHEMA_VERSION = "edge-ideal-lab/1"  # every JSON document carries it

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


def decimal_number(raw: str, kind: type = int) -> int | float:
    """The one reader of numbers on the command line: ASCII decimal notation,
    an optional minus, digits and (for a float) one fractional part. int() and
    float() also take '_' separators, a '+' and the digits of other scripts."""
    match = re.fullmatch(r"-?[0-9]+(\.[0-9]+)?", raw)
    if not match or (kind is int and match[1]):
        what = "an integer" if kind is int else "a number"
        raise argparse.ArgumentTypeError(f"expected {what} in decimal digits, got {raw!r}")
    return kind(raw)


def positive_int(raw: str) -> int:
    value = decimal_number(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _decimal_numbers(raw: str) -> tuple[int, ...]:
    return tuple(map(decimal_number, raw.split(",")))


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eilab",
        description="exact edge-ideal computations: prime chains, closures, matchings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="prime chains of powers and closures")
    analyze.add_argument("input", type=Path)
    analyze.add_argument("--max-power", type=decimal_number, default=3)
    analyze.add_argument("--mode", choices=("ass", "closure", "both"), default="both")
    analyze.add_argument("--allow-unused-vars", action="store_true")
    analyze.add_argument(
        "--closure-cap", type=positive_int, default=BOX_CELLS,
        help="cells of the largest exponent box a power may scan (refused above)",
    )
    analyze.add_argument(
        "--budget-seconds", type=partial(decimal_number, kind=float), default=None,
        help="hard deadline for the whole walk; a spent budget refuses (exit 3)",
    )
    _common_flags(analyze)

    graph = sub.add_parser("graph", help="matching invariants and parallelizations")
    graph.add_argument("input", type=Path)
    graph.add_argument(
        "subcommand",
        choices=("matching", "deficiency", "berge", "parallelize", "duplicate"),
    )
    graph.add_argument("--mult", type=_decimal_numbers, help="comma-separated multiplicities")
    graph.add_argument("--edge", type=str, default=None, help="edge as 'u v'")
    graph.add_argument(
        "--then",
        choices=("matching", "deficiency", "berge"),
        default=None,
        help="measurement applied to the transformed graph",
    )
    _common_flags(graph)

    verify = sub.add_parser("verify-paper", help="run the bundled reference claims")
    verify.add_argument("--only", type=str, default=None, help="substring filter on claim ids")
    _common_flags(verify)

    battery = sub.add_parser("property-battery", help="run the theorem sweeps")
    battery.add_argument("--max-vertices", type=decimal_number, default=5)
    battery.add_argument("--max-power", type=decimal_number, default=3)
    battery.add_argument("--sample-seed", type=decimal_number, default=2014)
    battery.add_argument("--samples", type=decimal_number, default=12)
    _common_flags(battery)

    return parser


def _load_input(path: Path, allow_unused: bool):
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    suffix = path.suffix.lower()
    if suffix == ".ideal" or (suffix != ".graph" and looks_like_ideal(text)):
        return parse_ideal(text, allow_unused_vars=allow_unused)
    return parse_graph(text)


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    """Print ``doc`` under the schema tag as JSON, or else the text lines."""
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA_VERSION, **doc}, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_analyze(args) -> int:
    loaded = _load_input(args.input, args.allow_unused_vars)
    if isinstance(loaded, Graph):
        ideal = edge_ideal(loaded)
        bound = stability_bound(loaded)
        label = f"I({args.input.name})"
    else:
        ideal = loaded
        bound = None
        label = args.input.name
    if ideal.is_zero or ideal.is_unit:
        raise ParseError("analyze needs a proper nonzero ideal")
    with bounded(args.closure_cap, args.budget_seconds):
        report = both_chains(ideal, args.max_power, label, bound, mode=args.mode)
    _emit(args, report.to_json_dict(), [report.to_text()])
    return EXIT_OK


def _graph_measurement(graph: Graph, which: str) -> dict:
    if which == "matching":
        cert = maximum_matching(graph)
        return {
            "measurement": "matching",
            "value": cert.size,
            "pairs": [list(p) for p in cert.pairs],
        }
    if which == "deficiency":
        return {"measurement": "deficiency", "value": deficiency(graph)}
    value, witness = berge_deficiency(graph)
    return {
        "measurement": "berge-deficiency",
        "value": value,
        "witness": sorted(witness),
    }


def _cmd_graph(args) -> int:
    for flag, value, owners in (
        ("--then", args.then, ("parallelize", "duplicate")),
        ("--mult", args.mult, ("parallelize",)),
        ("--edge", args.edge, ("duplicate",)),
    ):
        if value is not None and args.subcommand not in owners:
            raise UsageError(f"{flag} applies only to {' and '.join(owners)}")
    loaded = _load_input(args.input, allow_unused=True)
    if not isinstance(loaded, Graph):
        raise ParseError("the graph command needs a graph file")
    graph = loaded
    doc: dict = {"input": str(args.input)}
    if args.subcommand in ("matching", "deficiency", "berge"):
        doc.update(_graph_measurement(graph, args.subcommand))
    else:
        if args.subcommand == "parallelize":
            if args.mult is None:
                raise UsageError("parallelize needs --mult")
            pg = parallelize(graph, args.mult)
        else:
            if args.edge is None:
                raise UsageError("duplicate needs --edge 'u v'")
            names = args.edge.split()
            if len(names) != 2 or any(n not in graph.labels for n in names):
                raise UsageError(f"bad edge {args.edge!r}")
            pg = duplicate_edge(
                graph, (graph.labels.index(names[0]), graph.labels.index(names[1]))
            )
        flat = pg.flat
        doc.update(
            {
                "transform": args.subcommand,
                "vertices": flat.n,
                "edges": len(flat.edges),
            }
        )
        if args.then:
            doc["then"] = _graph_measurement(flat, args.then)
    _emit(args, doc, [f"{key}: {value}" for key, value in doc.items()])
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_claims(only=args.only)
    claims = [
        {"id": r.claim_id, "description": r.description, "passed": r.passed,
         "detail": r.detail}
        for r in results
    ]
    text = [
        f"[{'PASS' if r.passed else 'FAIL'}] {r.claim_id}: {r.description} ({r.detail})"
        for r in results
    ]
    text.append(f"{sum(r.passed for r in results)}/{len(results)} claims passed")
    _emit(args, {"claims": claims}, text)
    if not results:
        print("no claims matched the filter", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAILED


def _cmd_battery(args) -> int:
    results = run_battery(
        max_vertices=args.max_vertices,
        max_power=args.max_power,
        seed=args.sample_seed,
        samples=args.samples,
    )
    checks = [{"name": n, "passed": p, "detail": d} for n, p, d in results]
    text = [f"[FAIL] {n} ({d})" for n, p, d in results if not p]
    text.append(f"{sum(p for _, p, _ in results)}/{len(results)} checks passed")
    _emit(args, {"checks": checks}, text)
    return EXIT_OK if all(p for _, p, _ in results) else EXIT_FAILED


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "graph": _cmd_graph,
        "verify-paper": _cmd_verify,
        "property-battery": _cmd_battery,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (``| head``): send what is still buffered to
        # devnull so the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILED
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
