"""Chain reports, stability bounds, analytic spread, and the criteria batteries."""

import ast
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import edge_ideal_lab
from edge_ideal_lab.assprimes import associated_primes
from edge_ideal_lab.battery import maximal_step_sweep, persistence_sweep
from edge_ideal_lab.claims import _claim_assce
from edge_ideal_lab.closure import integral_closure_power
from edge_ideal_lab.errors import BudgetExceededError, UsageError, bounded
from edge_ideal_lab.fixtures import fig9, graph_catalog, ideal_catalog
from edge_ideal_lab.graphs import Graph, connected_graphs, edge_ideal
from edge_ideal_lab.monomials import MonomialIdeal, VariableSet
from edge_ideal_lab.stability import (
    _first_constant_index,
    analytic_spread,
    both_chains,
    is_normal_up_to,
    maximal_ideal_criteria,
    power_chain,
    stability_bound,
)


@pytest.fixture
def spy(monkeypatch):
    """spy(fn) wraps fn in every package module that binds it and returns
    the list of positional arguments of each call made while the test runs."""

    def install(fn):
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "edge_ideal_lab" or name.startswith("edge_ideal_lab."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, recording)
        return calls

    return install


class TestFirstConstantIndex:
    def test_patterns(self):
        a, b, c = frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3})
        assert _first_constant_index([(a,)]) == 1
        assert _first_constant_index([(a,), (a,)]) == 1
        assert _first_constant_index([(a,), (b,), (b,)]) == 2
        assert _first_constant_index([(a,), (b,), (c,)]) == 3


class TestStabilityBound:
    def test_fig9(self):
        assert stability_bound(fig9()) == 8

    def test_bipartite_is_one(self):
        for g in (Graph.cycle(4), Graph.path(4), Graph.complete_bipartite(2, 3)):
            assert stability_bound(g) == 1

    def test_odd_cycles(self):
        assert stability_bound(Graph.cycle(3)) == 2
        assert stability_bound(Graph.cycle(5)) == 3

    def test_disjoint_composition(self):
        assert stability_bound(graph_catalog()["C3+C3"]) == 3
        assert stability_bound(graph_catalog()["C3+C4"]) == 2

    def test_leaves_lower_the_bound(self):
        # triangle with one pendant vertex: 4 - 1 - 1 = 2
        g = Graph.from_edges(
            ("x1", "x2", "x3", "x4"), [(0, 1), (1, 2), (0, 2), (2, 3)]
        )
        assert stability_bound(g) == 2


class TestAnalyticSpread:
    def test_cycles(self):
        assert analytic_spread(edge_ideal(Graph.cycle(3))) == 3
        assert analytic_spread(edge_ideal(Graph.cycle(4))) == 3

    def test_single_edge(self):
        i = MonomialIdeal.from_exponents(VariableSet.standard(2), [(1, 1)])
        assert analytic_spread(i) == 1

    def test_disjoint_triangles_additive(self):
        assert analytic_spread(edge_ideal(graph_catalog()["C3+C3"])) == 6

    def test_mixed_degree_rejected(self):
        mixed = MonomialIdeal.from_exponents(
            VariableSet.standard(2), [(1, 1), (3, 0)]
        )
        with pytest.raises(UsageError):
            analytic_spread(mixed)


def _strict_steps(sets):
    return [set(a) < set(b) for a, b in zip(sets, sets[1:])]


class TestChainReports:
    def test_bipartite_constant_chain(self):
        g = Graph.cycle(4)
        report = both_chains(edge_ideal(g), 3, "I(C4)", stability_bound(g))
        assert report.ascending
        assert report.n1_observed == 1 and report.n2_observed == 1
        assert report.n1_certified
        assert report.stable_sets_equal is True
        assert _strict_steps(report.ass_sets) == [False, False]

    def test_triangle_strict_step(self):
        report = both_chains(edge_ideal(Graph.cycle(3)), 3, "I(C3)", 2, mode="ass")
        assert _strict_steps(report.ass_sets) == [True, False]
        assert report.n1_observed == 2

    def test_closure_only_chain(self):
        report = both_chains(edge_ideal(Graph.cycle(3)), 2, "I(C3)", mode="closure")
        assert report.ass_sets is None
        assert report.n1_observed is None and report.n2_observed == 2
        assert report.stable_sets_equal is None

    def test_spent_budget_refuses(self):
        # a spent budget is a refusal, never a partial report
        with bounded(seconds=0.0):
            with pytest.raises(BudgetExceededError, match="time budget"):
                both_chains(edge_ideal(Graph.cycle(4)), 3, "I(C4)", mode="ass")

    def test_budget_stops_both_sides_at_once(self, product_count):
        with bounded(seconds=0.0):
            with pytest.raises(BudgetExceededError, match="time budget"):
                both_chains(edge_ideal(Graph.cycle(5)), 3, "I(C5)")
        assert len(product_count) == 0

    def test_text_rendering_mentions_certified_bound(self):
        g = Graph.cycle(4)
        text = both_chains(edge_ideal(g), 3, "I(C4)", stability_bound(g)).to_text()
        assert "certified" in text
        uncertified = both_chains(
            edge_ideal(Graph.cycle(5)), 2, "I(C5)", 3, mode="ass"
        ).to_text()
        assert "constant within computed range" in uncertified

    def test_unknown_mode_rejected(self):
        with pytest.raises(UsageError, match="mode"):
            both_chains(edge_ideal(Graph.cycle(4)), 2, mode="closures")

    @pytest.mark.parametrize("k", [0, -1])
    def test_power_below_one_refused(self, k):
        with pytest.raises(UsageError, match="max power must be >= 1"):
            both_chains(edge_ideal(Graph.cycle(3)), k)

    def test_closure_mode_keeps_no_bound(self):
        report = both_chains(edge_ideal(Graph.cycle(4)), 2, n1_bound=1, mode="closure")
        assert report.n1_bound is None
        assert report.to_json_dict()["verdicts"]["n1_bound"] is None


C3 = edge_ideal(Graph.cycle(3))
CHAIN_WALKS = {
    "both_chains": lambda k: both_chains(C3, k),
    "power_chain": lambda k: list(power_chain(C3, k)),
    "is_normal_up_to": lambda k: is_normal_up_to(C3, k),
    "maximal_ideal_criteria": lambda k: maximal_ideal_criteria(Graph.cycle(3), k),
}


@pytest.mark.parametrize("k", [1.5, "2"])
@pytest.mark.parametrize("walk", CHAIN_WALKS)
def test_non_integer_max_power_refused(walk, k):
    # 1.5 reached range() and raised a bare TypeError
    with pytest.raises(UsageError, match="the power chain needs an integer power"):
        CHAIN_WALKS[walk](k)


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("walk", CHAIN_WALKS)
def test_max_power_below_one_refused(walk, k):
    # a chain of no power read as normal, and as consistent, with nothing
    # computed
    with pytest.raises(UsageError, match="max power must be >= 1"):
        CHAIN_WALKS[walk](k)


class TestChainProducts:
    """The chains walk one power chain, built only where the Ass side needs it."""

    def test_closure_chain_builds_no_power(self, product_count):
        both_chains(edge_ideal(Graph.cycle(5)), 3, mode="closure")
        assert len(product_count) == 0

    def test_both_chains_build_each_power_once(self, product_count):
        both_chains(edge_ideal(Graph.cycle(5)), 3)
        assert len(product_count) == 2

    def test_ass_chain_builds_each_power_once(self, product_count):
        both_chains(edge_ideal(Graph.cycle(5)), 4, mode="ass")
        assert len(product_count) == 3

    def test_refusal_stops_at_its_power(self, product_count):
        # the boxes of C5 hold 2^5 cells at k=1 and 3^5 at k=2, its closure's
        # cover rows 5 * 2^5 at every k: refused at k=2, after I^2 and
        # before I^3
        with pytest.raises(BudgetExceededError):
            both_chains(edge_ideal(Graph.cycle(5)), 3, closure_cap=200)
        assert len(product_count) == 1

    def test_both_chains_on_fig9_build_no_generator_objects(self, monkeypatch):
        # relabeled, so the closures are computed here and not taken from the
        # memo of another test that may have printed them
        g = fig9()
        ideal = edge_ideal(Graph(tuple(f"fig{v}" for v in g.labels), g.edges))
        created = []
        canonical = MonomialIdeal._canonical.__func__

        def recording(cls, vset, rows):
            created.append(canonical(cls, vset, rows))
            return created[-1]

        monkeypatch.setattr(MonomialIdeal, "_canonical", classmethod(recording))
        both_chains(ideal, 4)
        built = list(created)
        closures = [integral_closure_power(ideal, k) for k in range(1, 5)]
        assert all(any(c is i for i in built) for c in closures)
        assert all(power in built for power in list(ideal.powers(4))[1:])
        assert all("gens" not in vars(i) for i in [ideal, *built])


class TestMaximalIdealCriteria:
    def test_triangle(self):
        report = maximal_ideal_criteria(Graph.cycle(3), 2)
        assert report.in_ass_at == 2
        assert report.in_closure_ass_at == 2
        assert report.components_nonbipartite and report.rank_is_vertex_count
        assert report.rank_matches_components and report.consistent
        assert not report.inconclusive

    def test_square_all_absent(self):
        report = maximal_ideal_criteria(Graph.cycle(4), 3)
        assert report.in_ass_at is None and report.in_closure_ass_at is None
        assert not report.components_nonbipartite and not report.rank_is_vertex_count
        assert report.rank_matches_components and report.consistent

    def test_mixed_components(self):
        report = maximal_ideal_criteria(graph_catalog()["C3+C4"], 3)
        assert not report.components_nonbipartite
        assert not report.rank_is_vertex_count
        assert report.in_ass_at is None and report.in_closure_ass_at is None
        assert report.consistent

    def test_small_budget_is_inconclusive_not_inconsistent(self):
        report = maximal_ideal_criteria(Graph.cycle(5), 2)
        assert report.components_nonbipartite and report.rank_is_vertex_count
        assert report.in_ass_at is None
        assert report.inconclusive and report.consistent


@dataclass(frozen=True)
class TorsionFreeReport:
    max_power: int
    holds: bool
    first_failure: int | None  # power where some prime set differs from Ass(R/I)


def ntf_check(graph: Graph, max_power: int) -> TorsionFreeReport:
    """Whether Ass stays equal to Ass(R/I) for powers and closures up to K."""
    ideal = edge_ideal(graph)
    base = set(associated_primes(ideal))
    for step in power_chain(ideal, max_power):
        if set(step.ass) != base or set(step.closure_ass) != base:
            return TorsionFreeReport(max_power, False, step.k)
    return TorsionFreeReport(max_power, True, None)


class TestNtf:
    def test_square_torsion_free(self):
        report = ntf_check(Graph.cycle(4), 3)
        assert report.holds and report.first_failure is None

    def test_triangle_fails_at_two(self):
        report = ntf_check(Graph.cycle(3), 2)
        assert not report.holds and report.first_failure == 2

    def test_disjoint_triangles_fail(self):
        report = ntf_check(graph_catalog()["C3+C3"], 3)
        assert not report.holds


class TestWalkLaziness:
    """Each consumer of the power walk asks only for what it reads."""

    def test_ass_chain_asks_for_no_closure(self, spy):
        closures = spy(integral_closure_power)
        report = both_chains(edge_ideal(Graph.cycle(5)), 3, mode="ass")
        assert report.closure_ass_sets is None and len(report.ass_sets) == 3
        assert closures == []

    def test_ntf_stops_before_the_closure_of_the_square(self, spy):
        closures = spy(integral_closure_power)
        assert ntf_check(Graph.cycle(3), 2).first_failure == 2
        # Ass(I^2) already differs from Ass(I), so closure(I^2) is not needed
        assert [args[1] for args in closures] == [1]

    def test_sweeps_over_ass_ask_for_no_closure(self, spy):
        closures = spy(integral_closure_power)
        graphs = list(connected_graphs(2, 4))
        assert all(ok for _, ok, _ in persistence_sweep(graphs, max_power=3))
        assert all(ok for _, ok, _ in maximal_step_sweep(graphs, max_power=3))
        assert closures == []

    def test_normality_asks_for_no_associated_primes(self, spy):
        ass = spy(associated_primes)
        assert is_normal_up_to(edge_ideal(Graph.cycle(5)), 3).normal_up_to_checked
        assert ass == []

    def test_maximal_criteria_stop_once_both_sides_are_found(self, product_count):
        report = maximal_ideal_criteria(Graph.cycle(3), 5)
        assert report.in_ass_at == report.in_closure_ass_at == 2
        assert len(product_count) == 1  # I^2 only

    def test_assce_claim_stops_at_the_first_non_normal_power(self, spy):
        closures = spy(integral_closure_power)
        ok, _ = _claim_assce(graph_catalog(), ideal_catalog())
        assert ok
        assert [args[1] for args in closures] == [1, 2]


def _names(node: ast.AST, name: str) -> bool:
    return any(
        (isinstance(n, ast.Name) and n.id == name)
        or (isinstance(n, ast.Attribute) and n.attr == name)
        for n in ast.walk(node)
    )


def test_star_import_names_only_live_objects():
    # a stale __all__ entry makes "from edge_ideal_lab import *" raise
    package_root = Path(edge_ideal_lab.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", "from edge_ideal_lab import *; print(both_chains.__name__)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "both_chains"


def test_only_the_walk_and_the_closure_pins_name_integral_closure_power():
    # power-by-power consumers read closures off stability.power_chain's steps;
    # claims may pin a single closure, and __init__ re-exports the function
    allowed = {
        "stability.py": {"PowerStep"},
        "claims.py": {"_claim_fig9_closure4", "_claim_fig9_closure5"},
    }
    package = Path(edge_ideal_lab.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "closure.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if _names(node, "integral_closure_power"):
                where = getattr(node, "name", f"line {node.lineno}")
                assert where in allowed.get(path.name, ()), (path.name, where)
