"""Text formats for graphs and monomial ideals.

Graph files: an optional ``vars:`` header naming the vertices, then one edge
per line as two whitespace-separated names. Ideal files: a mandatory ``vars:``
header, then one monomial per line with ``*``-joined factors (``x1*x2^2``;
repeated factors also accumulate). ``#`` starts a comment.
"""

from __future__ import annotations

import re

from .errors import ParseError, UsageError
from .graphs import Graph
from .monomials import MonomialIdeal, VariableSet

_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _parse_header(lines: list[tuple[int, str]]) -> tuple[list[str] | None, list[tuple[int, str]]]:
    if lines and lines[0][1].startswith("vars:"):
        lineno, line = lines[0]
        names = line[len("vars:") :].split()
        if not names:
            raise ParseError("empty vars: header", lineno)
        for name in names:
            if not _NAME.match(name):
                raise ParseError(f"bad variable name {name!r}", lineno)
        if len(set(names)) != len(names):
            raise ParseError("duplicate names in vars: header", lineno)
        return names, lines[1:]
    return None, lines


def parse_graph(text: str) -> Graph:
    declared, lines = _parse_header(_content_lines(text))
    order: list[str] = list(declared) if declared else []
    index = {name: i for i, name in enumerate(order)}
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"expected two vertex names, got {line!r}", lineno)
        pair = []
        for name in tokens:
            if not _NAME.match(name):
                raise ParseError(f"bad vertex name {name!r}", lineno)
            if name not in index:
                if declared is not None:
                    raise ParseError(f"vertex {name!r} not in vars: header", lineno)
                index[name] = len(order)
                order.append(name)
            pair.append(index[name])
        u, v = pair
        if u == v:
            raise ParseError(f"loop at {tokens[0]!r}", lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"duplicate edge {line!r}", lineno)
        seen.add(key)
        edges.append(key)
    if not order:
        raise ParseError("graph file has no vertices")
    return Graph.from_edges(order, edges)


def parse_ideal(text: str, allow_unused_vars: bool = False) -> MonomialIdeal:
    declared, lines = _parse_header(_content_lines(text))
    if declared is None:
        raise ParseError("ideal files need a vars: header")
    vset = VariableSet(tuple(declared))
    rows: list[tuple[int, ...]] = []
    for lineno, line in lines:
        if " " in line:
            raise ParseError(f"monomials cannot contain spaces: {line!r}", lineno)
        exps = [0] * vset.n
        if line != "1":
            for factor in line.split("*"):
                name, _, power = factor.partition("^")
                if power:
                    if not power.isdigit() or int(power) < 1:
                        raise ParseError(f"bad exponent in {factor!r}", lineno)
                    e = int(power)
                else:
                    e = 1
                if name not in vset.index:
                    raise ParseError(f"unknown variable {name!r}", lineno)
                exps[vset.index[name]] += e
        rows.append(tuple(exps))
    ideal = MonomialIdeal.from_exponents(vset, rows)
    if not allow_unused_vars:
        used = ideal.exponent_array.any(axis=0)
        unused = [name for name, u in zip(vset.names, used) if not u]
        if unused and not ideal.is_unit:
            raise ParseError(
                f"declared variables never used: {', '.join(unused)} "
                "(pass --allow-unused-vars to permit)"
            )
    return ideal


def serialize_graph(graph: Graph) -> str:
    for label in graph.labels:  # a parallelization's x1^2 would not read back
        if not _NAME.match(label):
            raise UsageError(f"label {label!r} is not a name a graph file can hold")
    lines = ["vars: " + " ".join(graph.labels)]
    lines.extend(f"{graph.labels[u]} {graph.labels[v]}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def serialize_ideal(ideal: MonomialIdeal) -> str:
    lines = ["vars: " + " ".join(ideal.vset.names)]
    lines.extend(str(g) for g in ideal.gens)
    return "\n".join(lines) + "\n"


def looks_like_ideal(text: str) -> bool:
    """Heuristic used when the file extension does not decide: monomial lines
    are single tokens, edge lines are two."""
    _, lines = _parse_header(_content_lines(text))
    return bool(lines) and all(len(line.split()) == 1 for _, line in lines)
