"""The run limits: one box cap and one deadline, set by ``errors.bounded``."""

import ast
import time
import tracemalloc
from math import inf
from pathlib import Path

import numpy as np
import pytest

import edge_ideal_lab
from edge_ideal_lab import assprimes, errors
from edge_ideal_lab.assprimes import (
    associated_primes_witness_oracle,
    irreducible_decomposition,
)
from edge_ideal_lab.battery import colon_identity_holds
from edge_ideal_lab.closure import (
    _closure_fast_path,
    _closure_lp_path,
    integral_closure_power,
)
from edge_ideal_lab.errors import (
    BOX_CELLS,
    BudgetExceededError,
    UsageError,
    bounded,
    check_box,
)
from edge_ideal_lab.fixtures import assce, fig9
from edge_ideal_lab.graphs import (
    Graph,
    _parallel_layout,
    berge_deficiency,
    connected_graphs,
    edge_ideal,
    factor_by_matching,
    matching_number,
    minimal_vertex_covers,
    parallelize,
    power_index,
)
from edge_ideal_lab.monomials import membership_mask
from edge_ideal_lab.stability import both_chains, power_chain

C5 = edge_ideal(Graph.cycle(5))
C5_CUBE = C5.power(3)  # box 4^5: two leading axes, three packed in 64-cell words


def limits():
    return errors._LIMITS.get()


class TestBounded:
    def test_restores_the_outer_limits(self):
        assert limits() == (BOX_CELLS, inf)
        with bounded(box_cells=100, seconds=60):
            outer = limits()
            assert outer[0] == 100 and outer[1] < inf
            refusal = r"a box needs 11 cells \(cap 10\)"
            with pytest.raises(BudgetExceededError, match=refusal):
                with bounded(box_cells=10):
                    assert limits() == (10, outer[1])
                    check_box(11, "a box")
            assert limits() == outer
            with pytest.raises(KeyError), bounded(box_cells=5, seconds=1):
                raise KeyError("any exception")
            assert limits() == outer
            with bounded(seconds=10**6):  # no deadline outlives the outer one
                assert limits() == outer
            check_box(100, "a box")
            with pytest.raises(BudgetExceededError):
                check_box(101, "a box")
        assert limits() == (BOX_CELLS, inf)
        check_box(BOX_CELLS, "a box")

    def test_rejects_a_negative_or_nan_budget(self):
        # True would be a one-second deadline
        for bad in (-1.0, float("nan"), "1", True, False):
            with pytest.raises(UsageError, match="budget seconds must be >= 0"):
                with bounded(seconds=bad):
                    pytest.fail("the body ran")
        assert limits() == (BOX_CELLS, inf)

    def test_rejects_a_cap_that_is_not_a_cap(self):
        # a NaN cap would let every check_box pass; a string or a float
        # would fail only at the first check; True and False would be caps
        # of 1 and 0
        for bad in (float("nan"), "100", 1.5, -1, True, False, np.bool_(True)):
            refusal = "box cells must be an integer >= 0"
            with pytest.raises(UsageError, match=refusal), bounded(box_cells=bad):
                pytest.fail("the body ran")
            with pytest.raises(UsageError, match=refusal):
                both_chains(C5, 1, closure_cap=bad)
        assert limits() == (BOX_CELLS, inf)

    def test_accepts_any_integer_cap(self):
        for cap in (0, 10**30, np.int64(7)):
            with bounded(box_cells=cap):
                assert limits()[0] == cap and type(limits()[0]) is int
                check_box(cap, "a box")
                with pytest.raises(BudgetExceededError):
                    check_box(cap + 1, "a box")

    def test_one_cap_bounds_the_corner_mask_the_closure_and_the_oracle(self):
        # FIG9's cube: the corner mask, the k=3 closure box and the oracle box
        # are all [0, 3]^9, 4^9 cells
        ideal = edge_ideal(fig9())
        cube = ideal.power(3)
        runs = [
            lambda: irreducible_decomposition(cube),
            lambda: integral_closure_power(ideal, 3),
            lambda: associated_primes_witness_oracle(cube),
        ]
        for run in runs:
            with bounded(box_cells=4**9 - 1):
                with pytest.raises(BudgetExceededError, match=f"needs {4**9} cells"):
                    run()
            with bounded(box_cells=4**9):
                assert len(run()) > 0

    def test_the_cap_bounds_the_colon_box(self):
        # C5 at k=2: the box [0, 3]^5 holds the generators of I^2 and I^3
        cells = 4**5
        with bounded(box_cells=cells - 1):
            refusal = f"colon box needs {cells} cells"
            with pytest.raises(BudgetExceededError, match=refusal):
                colon_identity_holds(C5, 2)
        with bounded(box_cells=cells):
            assert colon_identity_holds(C5, 2)


ENGINES = {
    # the corner engine reads the clock per axis of its mask pass, then per
    # axis of its corner pass: five and five, so it stops in the second pass
    "corner": (lambda: assprimes._corner_cells(C5_CUBE), 5 + 2, "corner scan"),
    "mask": (lambda: membership_mask(C5_CUBE.exponent_array, [3] * 5), 2, "mask"),
    "slice": (lambda: _closure_fast_path(C5, 2, (2,) * 5), 2, "closure slice"),
    # one read per undominated point, whether a kept direction rejects it or
    # an LP decides it
    "lp": (lambda: _closure_lp_path(assce(), 2, (2,) * 6, 6), 2, "LP closure sweep"),
    "oracle": (lambda: associated_primes_witness_oracle(C5_CUBE), 5 + 2, "oracle"),
    "walk": (lambda: [s.k for s in power_chain(C5, 4)], 2, "power chain"),
    # one read per axis of each prefix scan and one per window: five for the
    # bitset of I^3, then five windows, so it stops among the windows
    "colon": (lambda: colon_identity_holds(C5, 2), 5 + 2, "colon identity"),
    # one read before the table of the low twelve vertices and one per block
    # of 4096 subsets: three on 13 vertices, so it stops after the table
    "berge": (lambda: berge_deficiency(Graph.path(13)), 1, "Berge sweep"),
    # one read per augmenting search: the greedy matches the star's centre
    # to one leaf, and each of the eight other leaves starts a search
    "blossom": (
        lambda: matching_number(Graph.complete_bipartite(1, 9)), 2, "blossom matching"
    ),
    # one read per edge filter of the cover table: five on C5
    "covers": (lambda: minimal_vertex_covers(Graph.cycle(5)), 2, "cover enumeration"),
    # one read per vertex count: four on 2..5 vertices
    "corpus": (lambda: list(connected_graphs(2, 5)), 2, "graph corpus"),
}


@pytest.mark.parametrize("engine", ENGINES)
def test_deadline_stops_the_engine_partway(engine, expiring_clock):
    run, live, where = ENGINES[engine]
    reads = expiring_clock(10**6)
    with bounded(seconds=1):
        run()
    full = len(reads) - 1  # the reads of a whole run, past the entry read
    assert full > live + 1
    reads = expiring_clock(live)
    with bounded(seconds=1), pytest.raises(BudgetExceededError, match=where):
        run()
    # the entry read, the live reads and the one that refused, out of a run
    # that needs more
    assert len(reads) == live + 2


class TestParallelLayouts:
    """G^a is charged a cell per copy and per copy edge before it is laid out."""

    def test_one_cell_over_the_cap_refuses(self):
        # the path x3 - x1 - x2 - x4 at a = 1: the greedy takes x1x2 alone,
        # both bounds read 2, and the blossom needs G^a: 4 copies, 3 edges
        p4 = Graph.from_edges(("x1", "x2", "x3", "x4"), [(0, 1), (0, 2), (1, 3)])
        for build in (power_index, factor_by_matching, _parallel_layout, parallelize):
            with bounded(box_cells=6):
                with pytest.raises(BudgetExceededError, match=r"G\^a layout needs 7 "):
                    build(p4, (1, 1, 1, 1))
            with bounded(box_cells=7):
                build(p4, (1, 1, 1, 1))
        with bounded(box_cells=0):  # the certificate closes (3, 3): no layout
            assert power_index(Graph.single_edge(), (3, 3)) == 3
            assert factor_by_matching(Graph.single_edge(), (3, 3)).matched_degree == 3

    def test_refused_before_any_allocation(self):
        # 10^6 copies per vertex of FIG9 would be 10^13 copy edges, and the
        # greedy certificate does not close there
        a = (10**6,) * 9
        tracemalloc.start()
        try:
            for build in (_parallel_layout, parallelize, factor_by_matching):
                with pytest.raises(BudgetExceededError, match=r"G\^a layout"):
                    build(fig9(), a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16, peak

    def test_the_deadline_stops_a_large_blossom(self):
        # 4004 copies inside the cap: the blossom on G^a takes 47 s to its
        # answer, and reads the deadline before each augmenting search
        a = (0, 0, 0, 0, 1001, 1001, 1001, 0, 1001)
        start = time.monotonic()
        with bounded(seconds=1), pytest.raises(BudgetExceededError, match="blossom"):
            power_index(fig9(), a)
        assert time.monotonic() - start < 5


def _module_trees():
    package = Path(edge_ideal_lab.__file__).parent
    for path in sorted(package.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _module_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_limits_live_only_in_errors():
    # no module but errors.py defines a cap, and no function takes a limit
    # as a parameter, except the benchmark-pinned both_chains keyword; a
    # deadline is set only by bounded(seconds=...)
    allowed = {("stability.py", "both_chains"): {"closure_cap"}}
    caps, takers = {}, set()
    for module, tree in _module_trees():
        for name in _module_level_names(tree):
            if name.endswith(("_CAP", "_CELLS")):
                caps[name] = module
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
                taken = params & {"cap", "closure_cap", "budget_seconds"}
                where = (module, node.name)
                assert taken <= allowed.get(where, set()), (where, taken)
                if taken:
                    takers.add(where)
    assert caps == {"BOX_CELLS": "errors.py"}
    assert takers == set(allowed)


def test_every_refusal_passes_through_errors():
    # BudgetExceededError is raised by check_box and check_time alone, so no
    # module can refuse by a cap or clock of its own
    raisers = set()
    for module, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if ast.unparse(exc).split(".")[-1] == "BudgetExceededError":
                    raisers.add(module)
    assert raisers == {"errors.py"}


def test_every_imported_name_is_used():
    # the package __init__ re-exports, and __future__ imports are directives
    unused = []
    for module, tree in _module_trees():
        if module == "__init__.py":
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append((module, bound))
    assert unused == []


def test_json_is_written_only_by_the_cli():
    # one emitter: every JSON document the package prints goes through cli._emit
    writers = set()
    for module, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "json.dumps":
                writers.add(module)
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                writers.update(module for a in node.names if a.name == "dumps")
    assert writers == {"cli.py"}


def _functions(tree: ast.Module):
    """Every function of a module with the name of its class, if any."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, ast.FunctionDef) and node.col_offset == 0:
            yield node.name, node


def _mentions(node: ast.AST, name: str) -> int:
    """How often a tree reads `name`, bare or as an attribute."""
    return sum(
        getattr(n, "id", None) == name or getattr(n, "attr", None) == name
        for n in ast.walk(node)
    )


def test_the_subset_sweep_has_one_caller():
    # one-set Tutte-Berge questions go to _berge_bound, never to the 2^n sweep
    trees = list(_module_trees())
    assert sum(_mentions(tree, "_odd_component_blocks") for _, tree in trees) == 1
    users = [
        (module, name)
        for module, tree in trees
        for name, fn in _functions(tree)
        if _mentions(fn, "_odd_component_blocks")
    ]
    assert users == [("graphs.py", "berge_deficiency")]


def test_one_component_walk():
    # the list-as-queue walk (a loop over a list that appends to it) lives in
    # Graph._bfs alone; every other component question calls it
    walks = [
        (module, name)
        for module, tree in _module_trees()
        for name, fn in _functions(tree)
        for loop in ast.walk(fn)
        if isinstance(loop, ast.For) and isinstance(loop.iter, ast.Name)
        for call in ast.walk(loop)
        if isinstance(call, ast.Call)
        and ast.unparse(call.func) == f"{loop.iter.id}.append"
    ]
    assert walks == [("graphs.py", "Graph._bfs")]


def test_one_cover_table():
    # graphs._cover_weights is the one 2^n cover enumeration: the Ass engine
    # imports neither graphs.py nor combinations, and the table has its two
    # readers alone
    trees = dict(_module_trees())
    imports = [
        ast.unparse(node)
        for node in ast.walk(trees["assprimes.py"])
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert [i for i in imports if "graphs" in i or "combinations" in i] == []
    assert sum(_mentions(tree, "_cover_weights") for tree in trees.values()) == 2
    users = [
        (module, name)
        for module, tree in trees.items()
        for name, fn in _functions(tree)
        if _mentions(fn, "_cover_weights")
    ]
    assert users == [
        ("closure.py", "_cover_slack"),
        ("graphs.py", "minimal_vertex_covers"),
    ]


def test_one_b_matching():
    # graphs._b_matching answers every G^a question: it alone takes the
    # greedy step and lays out G^a, the blossom is otherwise read only by the
    # plain matching functions, and the blossom-only size helper is gone
    trees = dict(_module_trees())
    assert sum(_mentions(tree, "_parallel_layout") for tree in trees.values()) == 1
    layouts = [
        (module, name)
        for module, tree in trees.items()
        for name, fn in _functions(tree)
        if _mentions(fn, "_parallel_layout")
    ]
    assert layouts == [("graphs.py", "_b_matching")]
    greedy = [
        (module, name)
        for module, tree in trees.items()
        for name, fn in _functions(tree)
        if any(
            isinstance(call, ast.Call) and ast.unparse(call) == "min(r[u], r[v])"
            for call in ast.walk(fn)
        )
    ]
    assert greedy == [("graphs.py", "_b_matching")]
    blossoms = [
        name
        for name, fn in _functions(trees["graphs.py"])
        if _mentions(fn, "_checked_matching")
    ]
    assert blossoms == ["maximum_matching", "matching_number", "_b_matching"]
    names = {name for tree in trees.values() for name, _ in _functions(tree)}
    assert "_matching_size" not in names
    assert sum(_mentions(tree, "_matching_size") for tree in trees.values()) == 0
