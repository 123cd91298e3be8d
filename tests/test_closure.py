"""Newton-polyhedron membership and integral closure sweeps."""

import tracemalloc

import pytest

from edge_ideal_lab.closure import (
    NewtonPolyhedron,
    _closure_lp_path,
    closure_member_matching_oracle,
    integral_closure_power,
    is_normal_up_to,
    np_member,
)
from edge_ideal_lab.errors import BudgetExceededError, UsageError
from edge_ideal_lab.fixtures import assce, c3_disjoint_c3, fig7, fig9
from edge_ideal_lab.graphs import Graph, edge_ideal
from edge_ideal_lab.monomials import MonomialIdeal, VariableSet


class TestNpMember:
    def test_generators_are_members(self):
        i = edge_ideal(Graph.cycle(3))
        for k in (1, 2, 3):
            poly = NewtonPolyhedron.of_power(i, k)
            for g in i.power(k).gens:
                assert np_member(g, poly)

    def test_triangle_unit_vector_case(self):
        i = edge_ideal(Graph.cycle(3))
        assert np_member((1, 1, 1), NewtonPolyhedron.of_power(i, 1))
        assert not np_member((1, 1, 1), NewtonPolyhedron.of_power(i, 2))

    def test_fig9_witness_in_scaled_polyhedron(self):
        i = edge_ideal(fig9())
        witness = (1, 1, 1, 0, 1, 1, 1, 1, 1)
        assert np_member(witness, NewtonPolyhedron.of_power(i, 4))
        assert not np_member(witness, NewtonPolyhedron.of_power(i, 5))

    def test_monotone_in_exponents(self):
        i = edge_ideal(Graph.cycle(5))
        poly = NewtonPolyhedron.of_power(i, 2)
        members = [g.exps for g in i.power(2).gens][:5]
        for a in members:
            for axis in range(5):
                bumped = list(a)
                bumped[axis] += 1
                assert np_member(bumped, poly)

    def test_dimension_mismatch(self):
        poly = NewtonPolyhedron.of_power(edge_ideal(Graph.cycle(3)), 1)
        with pytest.raises(UsageError):
            np_member((1, 1), poly)


class TestClosurePower:
    def test_squarefree_fixtures_integrally_closed(self):
        for g in (Graph.cycle(3), Graph.cycle(4), fig7()):
            i = edge_ideal(g)
            assert integral_closure_power(i, 1) == i

    def test_triangle_normal_up_to_three(self):
        report = is_normal_up_to(edge_ideal(Graph.cycle(3)), 3)
        assert report.normal_up_to_checked
        assert report.checked == ((1, True), (2, True), (3, True))

    def test_power_inside_closure_with_degree_floor(self):
        i = edge_ideal(Graph.cycle(5))
        for k in (1, 2):
            closure = integral_closure_power(i, k)
            assert i.power(k).is_subset_of(closure)
            assert all(g.degree >= 2 * k for g in closure.gens)

    def test_lp_path_matches_fast_path(self):
        bowtie = Graph.from_edges(
            [f"x{i}" for i in range(1, 6)],
            [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)],
        )
        cases = [
            (g, k)
            for g in (Graph.cycle(3), Graph.cycle(4), Graph.path(4), fig7())
            for k in (1, 2)
        ]
        cases += [(c3_disjoint_c3(), k) for k in (1, 2, 3)]
        cases += [(Graph.cycle(5), 3), (bowtie, 3)]
        for g, k in cases:
            i = edge_ideal(g)
            fast = integral_closure_power(i, k)
            bounds = tuple(k * e for e in i.max_exponents())
            slow = MonomialIdeal.from_exponents(
                i.vset, _closure_lp_path(i, k, bounds, 2 * k)
            )
            assert fast == slow, f"{g} k={k}"
        # C3+C3 at k=3 is the smallest case found where the paths meet on a
        # closure larger than the power: x1*...*x6 is in it but not in I^3
        i = edge_ideal(c3_disjoint_c3())
        assert integral_closure_power(i, 3) != i.power(3)

    def test_fig9_closure_memory(self):
        # the box of the fourth power has 5^9 cells; one bool mask over it and
        # its int64 cover sums stay far below a box-by-covers matrix
        ideal = edge_ideal(fig9())
        tracemalloc.start()
        try:
            integral_closure_power.__wrapped__(ideal, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_closure_generators_pass_lp(self):
        i = edge_ideal(fig7())
        for k in (1, 2):
            poly = NewtonPolyhedron.of_power(i, k)
            for g in integral_closure_power(i, k).gens:
                assert np_member(g, poly)

    def test_assce_first_failure_at_two(self):
        i = assce()
        report = is_normal_up_to(i, 4, label="ASSCE")
        assert not report.normal_up_to_checked
        assert report.first_failure == 2
        closure2 = integral_closure_power(i, 2)
        assert i.power(2).is_subset_of(closure2)
        assert closure2 != i.power(2)

    def test_mixed_degree_rejected(self):
        mixed = MonomialIdeal.from_exponents(
            VariableSet.standard(2), [(2, 0), (1, 1), (0, 3)]
        )
        with pytest.raises(UsageError):
            integral_closure_power(mixed, 1)

    def test_cap_refusal(self):
        with pytest.raises(BudgetExceededError):
            integral_closure_power(edge_ideal(fig9()), 5, cap=10**6)


class TestMatchingOracle:
    def test_fig9_witness_certified(self):
        assert (
            closure_member_matching_oracle(fig9(), (1, 1, 1, 0, 1, 1, 1, 1, 1), 4)
            is True
        )

    def test_generators_certified_at_m1(self):
        g = Graph.cycle(4)
        i = edge_ideal(g)
        for gen in i.power(2).gens:
            assert closure_member_matching_oracle(g, gen.exps, 2) is True

    def test_degree_deficit_unknown(self):
        assert closure_member_matching_oracle(Graph.cycle(3), (1, 1, 1), 2) is None

    def test_certificates_confirmed_by_lp(self):
        g = Graph.cycle(5)
        i = edge_ideal(g)
        from itertools import product

        for a in product(range(2), repeat=5):
            for k in (1, 2):
                if closure_member_matching_oracle(g, a, k) is True:
                    assert np_member(a, NewtonPolyhedron.of_power(i, k))
