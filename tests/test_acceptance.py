"""Acceptance criteria, one test per criterion. All identities are exact.

The heavy shared computations (nine-vertex powers/closures and the exhaustive
five-vertex corpus sweep) live in session fixtures so each criterion reads
precomputed data where possible.
"""

from __future__ import annotations

import random
from itertools import product as iter_product

import pytest

from edge_ideal_lab.assprimes import (
    associated_primes,
    associated_primes_witness_oracle,
)
from edge_ideal_lab.battery import colon_identity_holds
from edge_ideal_lab.errors import bounded
from edge_ideal_lab.closure import closure_member_matching_oracle, np_member
from edge_ideal_lab.fixtures import (
    FIG9_CLOSURE_WITNESS,
    graph_catalog,
)
from edge_ideal_lab.graphs import (
    berge_deficiency,
    connected_graphs,
    deficiency,
    duplicate_edge,
    edge_ideal,
    edge_subring_member,
    has_perfect_matching,
    incidence_rank,
    matching_number,
    power_index,
    sample_graphs,
)
from edge_ideal_lab.monomials import (
    Monomial,
    MonomialIdeal,
    VariableSet,
    maximal_prime,
)
from edge_ideal_lab.stability import analytic_spread, maximal_ideal_criteria


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def corpus5():
    return list(connected_graphs(2, 5))


@pytest.fixture(scope="session")
def corpus_sweep(corpus5):
    """Per-graph data for criteria 3, 4, and 6 over the exhaustive corpus."""
    out = []
    for g in corpus5:
        ideal = edge_ideal(g)
        colon_ok = all(colon_identity_holds(ideal, k) for k in (1, 2, 3))
        ass_sets = []
        oracle_ok = True
        for power in ideal.powers(4):
            primes = set(associated_primes(power))
            ass_sets.append(primes)
            oracle = associated_primes_witness_oracle(power)
            oracle_ok &= {w.prime for w in oracle} == primes
        out.append((g, colon_ok, ass_sets, oracle_ok))
    return out


@pytest.fixture(scope="session")
def seeded67():
    return sample_graphs(50, (6, 7), seed=2014)


@pytest.fixture(scope="session")
def seeded_sweep(seeded67):
    out = []
    for g in seeded67:
        ideal = edge_ideal(g)
        sets = []
        oracle_ok = True
        for power in ideal.powers(3):
            primes = set(associated_primes(power))
            sets.append(primes)
            oracle = associated_primes_witness_oracle(power)
            oracle_ok &= {w.prime for w in oracle} == primes
        out.append((g, sets, oracle_ok))
    return out


class TestCriterion1Fig9:
    def test_closures_match_reported_pattern(self, fig9_lab):
        lab = fig9_lab
        vset = lab.ideal.vset
        witness = Monomial(vset, FIG9_CLOSURE_WITNESS)
        ok_i = all(lab.closures[k] == lab.powers[k] for k in (1, 2, 3))
        report("1.i (closure equals power, k=1..3)", ok_i)
        expected4 = lab.powers[4].sum(MonomialIdeal.from_monomials(vset, [witness]))
        report("1.ii (fourth closure adds the witness)", lab.closures[4] == expected4)
        expected5 = lab.powers[5].sum(
            lab.ideal.product(MonomialIdeal.from_monomials(vset, [witness]))
        )
        report(
            "1.iii (fifth closure adds witness edge-multiples)",
            lab.closures[5] == expected5,
        )
        ass = [lab.ass[k] for k in range(1, 6)]
        ok_iv = all(a < b for a, b in zip(ass[:3], ass[1:4])) and ass[3] == ass[4]
        report("1.iv (prime chain strict to 4, then constant)", ok_iv)
        cas = [lab.closure_ass[k] for k in range(1, 6)]
        ok_v = cas[2] < cas[3] < cas[4] and cas[3] < ass[3]
        report("1.v (closure chain lags at 4)", ok_v)
        report("1.vi (stable sets equal at 5)", ass[4] == cas[4])


class TestCriterion2Assce:
    def test_colons_normality_chain(self, assce_lab):
        lab = assce_lab
        report("2.colon1 ((I^2 : I) == I)", lab.powers[2].colon(lab.ideal) == lab.ideal)
        report(
            "2.colon2 ((I^3 : I) != I^2)",
            lab.powers[3].colon(lab.ideal) != lab.powers[2],
        )
        non_normal = any(lab.closures[k] != lab.powers[k] for k in range(1, 5))
        report("2.normality (non-normal within 4 powers)", non_normal)
        sets = [lab.ass[k] for k in range(1, 5)]
        ascending = all(a <= b for a, b in zip(sets, sets[1:]))
        stabilized = sets[1] != sets[2] and sets[2] == sets[3]
        report("2.chain (ascending, constant from 3)", ascending and stabilized)


class TestCriterion3ColonSweep:
    def test_exhaustive_five_vertex_colon_identity(self, corpus_sweep):
        bad = [str(g) for g, colon_ok, _, _ in corpus_sweep if not colon_ok]
        report(
            "3 (colon identity, exhaustive <=5 vertices, k=1..3)",
            not bad,
            f"{len(corpus_sweep)} graphs" + (f"; failing: {bad[:3]}" if bad else ""),
        )

    def test_colon_operation_spot_checks(self, corpus_sweep):
        rng = random.Random(2014)
        sample = rng.sample(corpus_sweep, 12)
        for g, _, _, _ in sample:
            ideal = edge_ideal(g)
            for k in (1, 2):
                assert ideal.power(k + 1).colon(ideal) == ideal.power(k), str(g)


class TestCriterion4Persistence:
    def test_exhaustive_corpus(self, corpus_sweep):
        bad = []
        for g, _, sets, _ in corpus_sweep:
            if not all(a <= b for a, b in zip(sets, sets[1:])):
                bad.append(str(g))
        report(
            "4.exhaustive (ascending chains, <=5 vertices, k=1..3)",
            not bad,
            f"{len(corpus_sweep)} graphs",
        )

    def test_seeded_graphs(self, seeded_sweep):
        bad = []
        for g, sets, _ in seeded_sweep:
            if not all(a <= b for a, b in zip(sets, sets[1:])):
                bad.append(str(g))
        report(
            "4.seeded (ascending chains, 50 seeded 6-7 vertex graphs, k=1..2)",
            not bad,
            f"{len(seeded_sweep)} graphs",
        )


class TestCriterion5MatchingBattery:
    def test_battery(self):
        catalog = {
            name: g for name, g in graph_catalog().items() if g.n <= 10
        }
        failures = []
        for name, g in catalog.items():
            if berge_deficiency(g)[0] != deficiency(g):
                failures.append(f"{name}: berge")
            if (berge_deficiency(g)[0] == 0) != has_perfect_matching(g):
                failures.append(f"{name}: tutte")
            pm = has_perfect_matching(g)
            dup_pm = [has_perfect_matching(duplicate_edge(g, f).flat) for f in g.edges]
            if all(dup_pm) != pm:
                failures.append(f"{name}: duplication-pm")
            nu = matching_number(g)
            defs = [deficiency(duplicate_edge(g, f).flat) for f in g.edges]
            nus = [matching_number(duplicate_edge(g, f).flat) for f in g.edges]
            lhs = len(set(defs)) == 1
            rhs = lhs and defs[0] == deficiency(g) and all(v == nu + 1 for v in nus)
            if lhs != rhs:
                failures.append(f"{name}: constant-deficiency")
        report("5.matching (berge/tutte/duplication)", not failures, str(failures))

    def test_membership_coherence(self):
        rng = random.Random(5)
        failures = []
        for name, g in graph_catalog().items():
            if g.n > 10:
                continue
            ideal = edge_ideal(g)
            powers = list(ideal.powers(4))
            if g.n <= 6:
                vectors = list(iter_product(range(3), repeat=g.n))
            else:
                vectors = [
                    tuple(rng.randint(0, 3) for _ in range(g.n)) for _ in range(60)
                ]
            for a in vectors:
                nu = power_index(g, a)
                x_a = Monomial(ideal.vset, a)
                if any(
                    powers[k - 1].contains(x_a) != (k <= nu) for k in range(1, 5)
                ):
                    failures.append(f"{name} a={a}")
                    break
        report("5.membership (power membership = matching count, k<=4)", not failures, str(failures[:3]))

    def test_multiset_equivalence(self):
        failures = []
        for name, g in graph_catalog().items():
            if g.n > 4:
                continue
            ideal = edge_ideal(g)
            powers = list(ideal.powers((3 * g.n) // 2))
            for a in iter_product(range(4), repeat=g.n):
                total = sum(a)
                member = edge_subring_member(g, a)
                expected = (
                    total % 2 == 0
                    and (
                        total == 0
                        or powers[total // 2 - 1].contains(Monomial(ideal.vset, a))
                    )
                )
                if member != expected:
                    failures.append(f"{name} a={a}")
                    break
        report(
            "5.multiset (subring membership = perfect matching, entries<=3, n<=4)",
            not failures,
            str(failures[:3]),
        )


class TestCriterion6Oracles:
    def test_corpus_oracle_agreement(self, corpus_sweep, seeded_sweep):
        bad = [str(g) for g, _, _, ok in corpus_sweep if not ok]
        bad += [str(g) for g, _, ok in seeded_sweep if not ok]
        report(
            "6.corpus (witness oracle matches decomposition on criteria 3-4 corpus)",
            not bad,
            str(bad[:3]),
        )

    def test_fig9_and_assce_oracles(self, fig9_lab, assce_lab):
        checked = 0
        for lab in (fig9_lab, assce_lab):
            for k, power in lab.powers.items():
                with bounded(box_cells=2 * 10**7):
                    oracle = associated_primes_witness_oracle(power)
                assert {w.prime for w in oracle} == set(lab.ass[k]), f"power {k}"
                checked += 1
            for k, closure in lab.closures.items():
                with bounded(box_cells=2 * 10**7):
                    oracle = associated_primes_witness_oracle(closure)
                assert {w.prime for w in oracle} == set(lab.closure_ass[k]), f"closure {k}"
                checked += 1
        report("6.fixtures (oracle on nine-vertex and cubic fixture powers)", True, f"{checked} ideals")

    def test_matching_certificates_confirmed_by_lp(self, fig9_lab):
        graphs = graph_catalog()
        confirmed = 0
        for name in ("C3", "C4", "C5", "FIG7"):
            g = graphs[name]
            ideal = edge_ideal(g)
            for a in iter_product(range(2), repeat=g.n):
                for k in (1, 2):
                    member = closure_member_matching_oracle(g, a, k)
                    assert member == np_member(a, ideal, k), (name, a, k)
                    confirmed += member
        g9 = graphs["FIG9"]
        cert = closure_member_matching_oracle(g9, FIG9_CLOSURE_WITNESS, 4)
        assert cert is True
        assert np_member(FIG9_CLOSURE_WITNESS, fig9_lab.ideal, 4)
        report(
            "6.closure-oracle (matching certificates all LP-confirmed)",
            True,
            f"{confirmed + 1} certificates",
        )


class TestCriterion7MaximalIdeal:
    def test_rank_iff_nonbipartite_everywhere(self, corpus5):
        catalog = list(graph_catalog().values())
        for g in catalog + corpus5[::17]:
            nonbip = all(not c.is_bipartite() for c in g.components())
            assert (incidence_rank(g) == g.n) == nonbip, str(g)
        report("7.rank (rank = n exactly for non-bipartite components)", True)

    def test_realized_for_odd_fixtures(self, fig9_lab):
        graphs = graph_catalog()
        # the closure chain for two disjoint triangles picks up the full prime
        # only at the fifth power, two steps after the power chain
        for name, budget in (("C3", 2), ("C5", 3), ("C3+C3", 5)):
            rep = maximal_ideal_criteria(graphs[name], budget)
            assert rep.components_nonbipartite and rep.rank_is_vertex_count, name
            assert rep.in_ass_at is not None, name
            assert rep.in_closure_ass_at is not None, name
        m = maximal_prime(fig9_lab.ideal.vset)
        assert m in fig9_lab.ass[4] and m in fig9_lab.ass[5]
        assert m in fig9_lab.closure_ass[5]
        report("7.realized (full prime appears for odd fixtures within budget)", True)

    def test_absent_for_bipartite(self):
        graphs = graph_catalog()
        for name in ("C4", "P4", "K23", "E1", "K33"):
            rep = maximal_ideal_criteria(graphs[name], 3)
            ok = (
                not rep.components_nonbipartite
                and not rep.rank_is_vertex_count
                and rep.in_ass_at is None
                and rep.in_closure_ass_at is None
            )
            assert ok, name
        report("7.bipartite (all four conditions absent, K=3)", True)


class TestCriterion8Bipartite:
    def test_torsion_free_triple(self):
        graphs = graph_catalog()
        for name in ("C4", "P4", "K23"):
            ideal = edge_ideal(graphs[name])
            base = set(associated_primes(ideal))
            for k in (1, 2, 3):
                from edge_ideal_lab.closure import integral_closure_power

                assert set(associated_primes(ideal.power(k))) == base, name
                assert (
                    set(associated_primes(integral_closure_power(ideal, k))) == base
                ), name
        report("8 (bipartite fixtures: both chains constant at Ass(R/I), k<=3)", True)


class TestCriterion9AnalyticSpread:
    def test_fixture_values(self):
        graphs = graph_catalog()
        values = (
            analytic_spread(edge_ideal(graphs["C3"])),
            analytic_spread(edge_ideal(graphs["C4"])),
            analytic_spread(edge_ideal(graphs["C3+C3"])),
        )
        report("9.values (spreads 3, 3, 6)", values == (3, 3, 6), str(values))

    def test_seeded_additivity(self):
        rng = random.Random(2014)
        checked = 0
        while checked < 20:
            n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
            # one degree for both parts keeps the sum equigenerated, which the
            # rank-formula operation requires
            degree = rng.randint(2, 3)
            part1 = _random_equigenerated(rng, n1, degree, prefix="x")
            part2 = _random_equigenerated(rng, n2, degree, prefix="y")
            if part1 is None or part2 is None:
                continue
            joint_names = part1.vset.names + part2.vset.names
            joint = VariableSet(joint_names)
            rows = [g.exps + (0,) * n2 for g in part1.gens]
            rows += [(0,) * n1 + g.exps for g in part2.gens]
            total = MonomialIdeal.from_exponents(joint, rows)
            assert analytic_spread(total) == analytic_spread(part1) + analytic_spread(
                part2
            )
            checked += 1
        report("9.additivity (20 seeded disjoint pairs)", True)


def _random_equigenerated(rng, n, degree, prefix):
    vset = VariableSet.standard(n, prefix=prefix)
    rows = set()
    for _ in range(rng.randint(1, 4)):
        row = [0] * n
        for _ in range(degree):
            row[rng.randrange(n)] += 1
        rows.add(tuple(row))
    ideal = MonomialIdeal.from_exponents(vset, rows)
    # same-degree rows cannot divide each other, so the ideal is equigenerated
    return ideal if not ideal.is_zero else None
