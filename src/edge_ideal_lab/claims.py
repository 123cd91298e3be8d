"""Curated expected results for the bundled fixtures.

Each claim pins one documented fact about a fixture (a matching number, a
closure identity, a chain shape) and recomputes it from scratch. The CLI's
verify command runs them all and fails loudly on any mismatch, so the claims
double as an executable regression net for the whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .assprimes import associated_primes, disjoint_union_ass
from .closure import closure_member_matching_oracle, integral_closure_power
from .graphs import (
    Graph,
    _berge_bound,
    berge_deficiency,
    deficiency,
    edge_ideal,
    has_perfect_matching,
    incidence_rank,
    matching_number,
    minimal_vertex_covers,
    parallelize,
    power_index,
)
from .fixtures import (
    FIG9_CLOSURE_WITNESS,
    FIG8_MULTIPLICITY,
    graph_catalog,
    ideal_catalog,
)
from .monomials import Monomial, MonomialIdeal, maximal_prime
from .stability import (
    analytic_spread,
    both_chains,
    is_normal_up_to,
    maximal_ideal_criteria,
    power_chain,
    stability_bound,
)


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    description: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Claim:
    claim_id: str
    description: str
    run: Callable[[dict[str, Graph], dict[str, MonomialIdeal]], tuple[bool, str]]

    def evaluate(
        self, graphs: dict[str, Graph], ideals: dict[str, MonomialIdeal]
    ) -> ClaimResult:
        try:
            ok, detail = self.run(graphs, ideals)
        except Exception as exc:  # a crashed claim is a failed claim
            ok, detail = False, f"exception: {exc}"
        return ClaimResult(self.claim_id, self.description, ok, detail)


def _claim_parallelization_k33(graphs, ideals):
    pg = parallelize(graphs["E1"], (3, 3)).flat
    nu = matching_number(pg)
    sides = {len(part) for part in pg.bipartition() or ()}
    return (
        pg.n == 6 and nu == 3 and sides == {3} and has_perfect_matching(pg),
        f"vertices {pg.n}, matching {nu}",
    )


def _claim_star(graphs, ideals):
    star = graphs["STAR31"]
    return (
        star.n == 4 and star.leaf_count() == 3 and matching_number(star) == 1,
        f"{star}",
    )


def _claim_fig7(graphs, ideals):
    g = graphs["FIG7"]
    value, witness = berge_deficiency(g)
    s_34 = {g.labels.index("x3"), g.labels.index("x4")}
    achieved = g.n - 2 * _berge_bound(g, (1,) * g.n, s_34)  # odd(G - S) - |S|
    return (
        deficiency(g) == 2 and value == 2 and achieved == 2,
        f"deficiency 2, berge witness S={sorted(witness)}",
    )


def _claim_fig8(graphs, ideals):
    g8 = parallelize(graphs["FIG7"], FIG8_MULTIPLICITY).flat
    return (
        deficiency(g8) == 0 and g8.n == 8,
        f"{g8.n} vertices, deficiency {deficiency(g8)}",
    )


def _claim_colon_identity_c3(graphs, ideals):
    ideal = edge_ideal(graphs["C3"])
    return (ideal.power(2).colon(ideal) == ideal, "(I^2 : I) == I on the triangle")


def _claim_ass_c3_covers(graphs, ideals):
    ideal = edge_ideal(graphs["C3"])
    ass = {frozenset(p.names) for p in associated_primes(ideal)}
    covers = set(minimal_vertex_covers(graphs["C3"]))
    return (ass == covers and len(ass) == 3, f"{len(ass)} covers")


def _claim_ass_c3_square(graphs, ideals):
    ideal = edge_ideal(graphs["C3"])
    ass2 = {frozenset(p.names) for p in associated_primes(ideal.power(2))}
    expected = {
        frozenset({"x1", "x2"}),
        frozenset({"x1", "x3"}),
        frozenset({"x2", "x3"}),
        frozenset({"x1", "x2", "x3"}),
    }
    return (ass2 == expected, "three covers plus the full prime")


def _claim_bipartite_constant(graphs, ideals):
    results = []
    for name in ("C4", "P4", "K23"):
        ideal = edge_ideal(graphs[name])
        base = set(associated_primes(ideal))
        constant = all(set(step.ass) == base for step in power_chain(ideal, 3))
        results.append(constant and stability_bound(graphs[name]) == 1)
    return (all(results), "prime sets constant through the cube, bound 1")


def _claim_fig9_stability_bound(graphs, ideals):
    g = graphs["FIG9"]
    return (
        stability_bound(g) == 8
        and g.odd_girth() == 3
        and g.leaf_count() == 0,
        "bound 9 - 1 - 0 = 8",
    )


def _fig9_chain(graphs):
    g = graphs["FIG9"]
    return both_chains(edge_ideal(g), 5, label="I(FIG9)", n1_bound=stability_bound(g))


def _claim_fig9_normal_through_cube(graphs, ideals):
    report = is_normal_up_to(edge_ideal(graphs["FIG9"]), 3)
    return (report.normal_up_to_checked, "closure equals power at k=1,2,3")


def _claim_fig9_closure4(graphs, ideals):
    ideal = edge_ideal(graphs["FIG9"])
    witness = Monomial(ideal.vset, FIG9_CLOSURE_WITNESS)
    closure = integral_closure_power(ideal, 4)
    expected = ideal.power(4).sum(MonomialIdeal.from_monomials(ideal.vset, [witness]))
    inside = power_index(graphs["FIG9"], FIG9_CLOSURE_WITNESS)
    return (
        closure == expected and inside == 3,
        "fourth closure adds exactly x1*x2*x3*x5*x6*x7*x8*x9 (itself in I^3 only)",
    )


def _claim_fig9_closure5(graphs, ideals):
    ideal = edge_ideal(graphs["FIG9"])
    witness = Monomial(ideal.vset, FIG9_CLOSURE_WITNESS)
    closure = integral_closure_power(ideal, 5)
    expected = ideal.power(5).sum(
        ideal.product(MonomialIdeal.from_monomials(ideal.vset, [witness]))
    )
    return (closure == expected, "fifth closure adds the edge multiples of the witness")


def _claim_fig9_chains(graphs, ideals):
    report = _fig9_chain(graphs)
    assert report.ass_sets and report.closure_ass_sets
    ass = [set(s) for s in report.ass_sets]
    cas = [set(s) for s in report.closure_ass_sets]
    strict_powers = all(a < b for a, b in zip(ass[:4], ass[1:4]))
    stable_tail = ass[3] == ass[4]
    closure_shape = cas[2] < cas[3] < cas[4] and cas[3] < ass[3]
    equal_elsewhere = all(ass[i] == cas[i] for i in (0, 1, 2, 4))
    return (
        strict_powers
        and stable_tail
        and closure_shape
        and equal_elsewhere
        and report.stable_sets_equal is True
        and report.n1_observed == 4
        and report.n2_observed == 5,
        f"sizes {[len(s) for s in ass]} / {[len(s) for s in cas]}",
    )


def _claim_fig9_matching_oracle(graphs, ideals):
    g = graphs["FIG9"]
    # exact both ways: the witness is in the fourth closure and not the fifth
    inside = closure_member_matching_oracle(g, FIG9_CLOSURE_WITNESS, 4)
    outside = closure_member_matching_oracle(g, FIG9_CLOSURE_WITNESS, 5)
    return (
        inside and not outside,
        "matching certificate found for the closure witness",
    )


def _claim_assce(graphs, ideals):
    ideal = ideals["ASSCE"]
    steps = list(power_chain(ideal, 4))
    p2, p3 = steps[1].power, steps[2].power
    colon_ok = p2.colon(ideal) == ideal and p3.colon(ideal) != p2
    sets = [set(step.ass) for step in steps]
    ascending = all(a <= b for a, b in zip(sets, sets[1:]))
    stabilized = sets[2] == sets[3] and sets[1] != sets[2]
    # stops at the first non-normal power (k=2): later closures are not built
    non_normal = any(step.closure != step.power for step in steps)
    return (
        colon_ok and ascending and stabilized and non_normal,
        f"sizes {[len(s) for s in sets]}",
    )


def _claim_maximal_criteria(graphs, ideals):
    c3 = maximal_ideal_criteria(graphs["C3"], 2)
    c4 = maximal_ideal_criteria(graphs["C4"], 3)
    mixed = maximal_ideal_criteria(graphs["C3+C4"], 3)
    ok = (
        c3.in_ass_at == 2
        and c3.in_closure_ass_at == 2
        and c3.components_nonbipartite
        and c3.rank_is_vertex_count
        and c4.in_ass_at is None
        and c4.in_closure_ass_at is None
        and not c4.components_nonbipartite
        and not c4.rank_is_vertex_count
        and mixed.in_ass_at is None
        and not mixed.components_nonbipartite
        and not mixed.rank_is_vertex_count
        and incidence_rank(graphs["C3+C4"]) == 6
    )
    return (ok, "triangle realizes the full prime at 2; bipartite parts never do")


def _claim_spread(graphs, ideals):
    spread_c3 = analytic_spread(edge_ideal(graphs["C3"]))
    spread_c4 = analytic_spread(edge_ideal(graphs["C4"]))
    spread_pair = analytic_spread(edge_ideal(graphs["C3+C3"]))
    return (
        spread_c3 == 3 and spread_c4 == 3 and spread_pair == 6,
        f"spreads {spread_c3}, {spread_c4}, {spread_pair}",
    )


def _claim_disjoint_union(graphs, ideals):
    pair = graphs["C3+C3"]
    parts = [edge_ideal(c) for c in pair.components()]
    composed = set(disjoint_union_ass(parts, 3))
    direct = set(associated_primes(edge_ideal(pair).power(3)))
    full = maximal_prime(edge_ideal(pair).vset)
    return (
        composed == direct and full in composed,
        f"{len(composed)} primes at k=3, full prime present",
    )


CLAIMS: tuple[Claim, ...] = (
    Claim("april9.k33", "duplicating both ends of an edge 3x gives a 3x3 complete bipartite graph with a perfect matching", _claim_parallelization_k33),
    Claim("april9.star", "duplicating one end of an edge twice gives a 3-leaf star", _claim_star),
    Claim("fig7.deficiency", "the 6-vertex double-star has deficiency 2 (matching and subset formulas agree; S={x3,x4} attains it)", _claim_fig7),
    Claim("fig8.perfect", "duplicating the middle edge of the double-star removes the deficiency", _claim_fig8),
    Claim("colon.c3", "second power colon base ideal returns the base ideal on the triangle", _claim_colon_identity_c3),
    Claim("ass.c3", "associated primes of the triangle ideal are its three minimal vertex covers", _claim_ass_c3_covers),
    Claim("ass.c3sq", "the triangle's square picks up exactly the full prime", _claim_ass_c3_square),
    Claim("bipartite.constant", "bipartite fixtures keep one constant prime set (stability index 1)", _claim_bipartite_constant),
    Claim("intcl1.bound", "the 9-vertex fixture has stability bound 8", _claim_fig9_stability_bound),
    Claim("intcl1.normal123", "the 9-vertex fixture is normal through its cube", _claim_fig9_normal_through_cube),
    Claim("intcl1.closure4", "the fourth closure adds exactly one squarefree generator", _claim_fig9_closure4),
    Claim("intcl1.closure5", "the fifth closure adds the edge multiples of that generator", _claim_fig9_closure5),
    Claim("intcl1.chains", "prime chains: strict through 4 then constant; closure chain lags at 4; stable sets equal", _claim_fig9_chains),
    Claim("intcl1.oracle", "the matching oracle certifies the closure witness", _claim_fig9_matching_oracle),
    Claim("assce.profile", "the six-variable cubic ideal: colon identity holds at 2, fails at 3; ascending chain stabilizes at 3; non-normal", _claim_assce),
    Claim("feb1.criteria", "maximal-prime criteria: non-bipartite components, incidence rank, and realization line up", _claim_maximal_criteria),
    Claim("spread.values", "analytic spreads: 3 for the triangle, 3 for the square, 6 for two disjoint triangles", _claim_spread),
    Claim("disjoint.union", "disjoint-union composition of prime sets matches the direct computation", _claim_disjoint_union),
)


def run_claims(only: str | None = None) -> list[ClaimResult]:
    graphs = graph_catalog()
    ideals = ideal_catalog()
    selected = [c for c in CLAIMS if only is None or only in c.claim_id]
    return [c.evaluate(graphs, ideals) for c in selected]
