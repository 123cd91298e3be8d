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
import sys
from pathlib import Path

from .battery import run_battery
from .claims import run_claims
from .closure import DEFAULT_BOX_CAP
from .errors import BudgetExceededError, ParseError, UsageError
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
from .stability import SCHEMA_VERSION, both_chains, closure_ass_chain, ass_chain, stability_bound

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


def positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


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
    analyze.add_argument("--max-power", type=int, default=3)
    analyze.add_argument("--mode", choices=("ass", "closure", "both"), default="both")
    analyze.add_argument("--allow-unused-vars", action="store_true")
    analyze.add_argument("--closure-cap", type=positive_int, default=DEFAULT_BOX_CAP)
    analyze.add_argument("--budget-seconds", type=float, default=None)
    _common_flags(analyze)

    graph = sub.add_parser("graph", help="matching invariants and parallelizations")
    graph.add_argument("input", type=Path)
    graph.add_argument(
        "subcommand",
        choices=("matching", "deficiency", "berge", "parallelize", "duplicate"),
    )
    graph.add_argument("--mult", type=str, default=None, help="comma-separated multiplicities")
    graph.add_argument("--edge", type=str, default=None, help="edge as 'u v'")
    graph.add_argument(
        "--then",
        choices=("matching", "deficiency", "berge"),
        default=None,
        help="measurement applied to the transformed graph",
    )
    graph.add_argument("--berge-cap", type=positive_int, default=16)
    _common_flags(graph)

    verify = sub.add_parser("verify-paper", help="run the bundled reference claims")
    verify.add_argument("--only", type=str, default=None, help="substring filter on claim ids")
    _common_flags(verify)

    battery = sub.add_parser("property-battery", help="run the theorem sweeps")
    battery.add_argument("--max-vertices", type=int, default=5)
    battery.add_argument("--max-power", type=int, default=3)
    battery.add_argument("--sample-seed", type=int, default=2014)
    battery.add_argument("--samples", type=int, default=12)
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
    if args.mode == "ass":
        report = ass_chain(
            ideal, args.max_power, label, bound, budget_seconds=args.budget_seconds
        )
    elif args.mode == "closure":
        report = closure_ass_chain(
            ideal,
            args.max_power,
            label,
            budget_seconds=args.budget_seconds,
            closure_cap=args.closure_cap,
        )
    else:
        report = both_chains(
            ideal,
            args.max_power,
            label,
            bound,
            budget_seconds=args.budget_seconds,
            closure_cap=args.closure_cap,
        )
    print(report.to_json() if args.format == "json" else report.to_text())
    return EXIT_OK


def _parse_mult(raw: str, n: int) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in raw.split(","))
    except ValueError:
        raise UsageError(f"bad multiplicity vector {raw!r}")
    if len(values) != n or any(v < 0 for v in values):
        raise UsageError(
            f"multiplicity vector needs {n} non-negative entries, got {raw!r}"
        )
    return values


def _graph_measurement(graph: Graph, which: str, berge_cap: int) -> dict:
    if which == "matching":
        cert = maximum_matching(graph)
        return {
            "measurement": "matching",
            "value": cert.size,
            "pairs": [list(p) for p in cert.pairs],
        }
    if which == "deficiency":
        return {"measurement": "deficiency", "value": deficiency(graph)}
    value, witness = berge_deficiency(graph, cap=berge_cap)
    return {
        "measurement": "berge-deficiency",
        "value": value,
        "witness": sorted(witness),
    }


def _cmd_graph(args) -> int:
    loaded = _load_input(args.input, allow_unused=True)
    if not isinstance(loaded, Graph):
        raise ParseError("the graph command needs a graph file")
    graph = loaded
    doc: dict = {"schema": SCHEMA_VERSION, "input": str(args.input)}
    if args.subcommand in ("matching", "deficiency", "berge"):
        doc.update(_graph_measurement(graph, args.subcommand, args.berge_cap))
    else:
        if args.subcommand == "parallelize":
            if args.mult is None:
                raise UsageError("parallelize needs --mult")
            pg = parallelize(graph, _parse_mult(args.mult, graph.n))
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
            doc["then"] = _graph_measurement(flat, args.then, args.berge_cap)
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for key, value in doc.items():
            if key != "schema":
                print(f"{key}: {value}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_claims(only=args.only)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "schema": SCHEMA_VERSION,
                    "claims": [
                        {
                            "id": r.claim_id,
                            "description": r.description,
                            "passed": r.passed,
                            "detail": r.detail,
                        }
                        for r in results
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"[{mark}] {r.claim_id}: {r.description} ({r.detail})")
        print(f"{sum(r.passed for r in results)}/{len(results)} claims passed")
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
    if args.format == "json":
        print(
            json.dumps(
                {
                    "schema": SCHEMA_VERSION,
                    "checks": [
                        {"name": n, "passed": p, "detail": d} for n, p, d in results
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        failed = [(n, d) for n, p, d in results if not p]
        for name, detail in failed:
            print(f"[FAIL] {name} ({detail})")
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
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
