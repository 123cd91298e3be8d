"""Bundled graphs and ideals used by the reference checks and the batteries.

The edge and generator lists are embedded verbatim; tests byte-compare their
serializations so silent edits cannot slip through.
"""

from __future__ import annotations

from .graphs import Graph, disjoint_union, parallelize
from .monomials import MonomialIdeal, VariableSet


FIG7_EDGES = [
    ("x1", "x3"),
    ("x2", "x3"),
    ("x3", "x4"),
    ("x4", "x5"),
    ("x4", "x6"),
]


def fig7() -> Graph:
    labels = tuple(f"x{i}" for i in range(1, 7))
    index = {name: i for i, name in enumerate(labels)}
    return Graph.from_edges(labels, [(index[a], index[b]) for a, b in FIG7_EDGES])


FIG8_MULTIPLICITY = (1, 1, 2, 2, 1, 1)


FIG9_EDGES = [
    ("x1", "x2"),
    ("x2", "x3"),
    ("x1", "x3"),
    ("x3", "x4"),
    ("x4", "x5"),
    ("x5", "x6"),
    ("x6", "x7"),
    ("x7", "x8"),
    ("x8", "x9"),
    ("x5", "x9"),
]


def fig9() -> Graph:
    """Nine vertices: a triangle, a two-edge path, and a five-cycle in series."""
    labels = tuple(f"x{i}" for i in range(1, 10))
    index = {name: i for i, name in enumerate(labels)}
    return Graph.from_edges(labels, [(index[a], index[b]) for a, b in FIG9_EDGES])


FIG9_CLOSURE_WITNESS = (1, 1, 1, 0, 1, 1, 1, 1, 1)  # x1*x2*x3*x5*x6*x7*x8*x9


ASSCE_GENERATORS = (
    (1, 2, 5),
    (1, 3, 4),
    (1, 2, 6),
    (1, 3, 6),
    (1, 4, 5),
    (2, 3, 4),
    (2, 3, 5),
    (2, 4, 6),
    (3, 5, 6),
    (4, 5, 6),
)


def assce() -> MonomialIdeal:
    """Ten squarefree cubics in six variables: a non-normal ideal whose prime
    chain still ascends and turns constant at the third power."""
    vset = VariableSet.standard(6)
    rows = []
    for triple in ASSCE_GENERATORS:
        row = [0] * 6
        for i in triple:
            row[i - 1] = 1
        rows.append(tuple(row))
    return MonomialIdeal.from_exponents(vset, rows)


def graph_catalog() -> dict[str, Graph]:
    edge = Graph.single_edge()
    return {
        "E1": edge,
        "STAR31": parallelize(edge, (3, 1)).flat,  # a star with three leaves
        "K33": parallelize(edge, (3, 3)).flat,  # complete bipartite 3x3
        "FIG7": fig7(),
        # fig7 with both endpoints of the middle edge duplicated
        "FIG8": parallelize(fig7(), FIG8_MULTIPLICITY).flat,
        "FIG9": fig9(),
        "C3": Graph.cycle(3),
        "C4": Graph.cycle(4),
        "C5": Graph.cycle(5),
        "P4": Graph.path(4),
        "K23": Graph.complete_bipartite(2, 3),
        "C3+C3": disjoint_union(Graph.cycle(3), Graph.cycle(3, prefix="y")),
        "C3+C4": disjoint_union(Graph.cycle(3), Graph.cycle(4, prefix="y")),
    }


def ideal_catalog() -> dict[str, MonomialIdeal]:
    return {"ASSCE": assce()}
