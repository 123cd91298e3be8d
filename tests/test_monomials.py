"""Monomial and ideal arithmetic."""

import numpy as np
import pytest

from edge_ideal_lab.errors import MismatchedVariablesError, UsageError
from edge_ideal_lab.fixtures import assce
from edge_ideal_lab.graphs import Graph, edge_ideal
from edge_ideal_lab.monomials import (
    Monomial,
    MonomialIdeal,
    MonomialPrime,
    VariableSet,
)

V3 = VariableSet.standard(3)


def m(*exps):
    return Monomial(VariableSet.standard(len(exps)), exps)


def ideal(*rows):
    return MonomialIdeal.from_exponents(VariableSet.standard(len(rows[0])), rows)


class TestDivides:
    def test_componentwise(self):
        assert m(1, 1, 0).divides(m(2, 1, 1))

    def test_missing_variable(self):
        assert not m(1, 1, 0).divides(m(1, 0, 1))

    def test_one_divides_everything(self):
        one = Monomial.one(V3)
        assert one.divides(m(0, 0, 0))
        assert one.divides(m(3, 1, 2))

    def test_mismatched_variable_sets(self):
        with pytest.raises(MismatchedVariablesError):
            m(1, 0).divides(m(1, 0, 0))


class TestMinimalize:
    def test_divisor_absorbs_multiple(self):
        assert ideal((1, 1), (2, 1)) == ideal((1, 1))

    def test_triangle_square_products(self):
        c3 = edge_ideal(Graph.cycle(3))
        raw = [a.mul(b).exps for a in c3.gens for b in c3.gens]
        reduced = MonomialIdeal.from_exponents(c3.vset, raw)
        assert len(reduced) == 6
        assert all(g.degree == 4 for g in reduced.gens)

    def test_empty_is_zero_ideal(self):
        zero = MonomialIdeal.from_exponents(V3, [])
        assert zero.is_zero and len(zero) == 0

    def test_constructor_rejects_non_minimal(self):
        gens = (Monomial(V3, (1, 1, 0)), Monomial(V3, (2, 1, 0)))
        with pytest.raises(UsageError):
            MonomialIdeal(V3, gens)


class TestFromExponents:
    def test_rows_of_wrong_length_rejected(self):
        # three rows of length 2 over three variables must not be read as one
        # row of length 3, nor reach numpy's reshape
        for rows in ([(1, 2), (3, 4), (5, 6)], [(1, 2)], [(1, 2, 3), (1, 2)]):
            with pytest.raises(UsageError, match="length"):
                MonomialIdeal.from_exponents(V3, rows)
        with pytest.raises(UsageError, match="length"):
            MonomialIdeal.from_exponents(V3, np.array([[1, 2], [3, 4]]))

    def test_huge_exponent_is_an_overflow_error(self):
        for e in (2**70, 3_000_000_000):
            with pytest.raises(UsageError, match="exponent overflow"):
                MonomialIdeal.from_exponents(V3, [(e, 1, 0)])

    def test_negative_exponent_rejected(self):
        for rows in ([(1, -1, 0)], np.array([[1, -1, 0]])):
            with pytest.raises(UsageError, match="non-negative"):
                MonomialIdeal.from_exponents(V3, rows)

    def test_array_and_rows_agree(self):
        rows = [(2, 1, 0), (1, 1, 0), (0, 0, 3)]
        from_array = MonomialIdeal.from_exponents(V3, np.array(rows))
        assert from_array == MonomialIdeal.from_exponents(V3, rows)
        assert [g.exps for g in from_array.gens] == [(1, 1, 0), (0, 0, 3)]

    def test_exponent_array_is_canonical_and_read_only(self):
        i = edge_ideal(Graph.cycle(5)).power(2)
        arr = i.exponent_array
        assert arr.dtype == np.int64
        assert arr.tolist() == [list(g.exps) for g in i.gens]
        with pytest.raises(ValueError):
            arr[0, 0] = 7


class TestSumPowerProduct:
    def test_sum_with_zero(self):
        i = ideal((1, 1))
        assert i.sum(MonomialIdeal.zero(i.vset)) == i

    def test_sum_absorption(self):
        assert ideal((1, 1)).sum(ideal((1, 0))) == ideal((1, 0))

    def test_single_edge_square(self):
        assert ideal((1, 1)).power(2) == ideal((2, 2))

    def test_triangle_square_has_six_generators(self):
        assert len(edge_ideal(Graph.cycle(3)).power(2)) == 6

    def test_power_degrees(self):
        for g in (Graph.cycle(4), Graph.cycle(5)):
            i = edge_ideal(g)
            for k in (1, 2, 3):
                assert all(gen.degree == 2 * k for gen in i.power(k).gens)

    def test_power_zero_is_unit(self):
        i = ideal((1, 1))
        assert i.power(0).is_unit

    def test_power_coherence(self):
        i = edge_ideal(Graph.cycle(4))
        assert i.power(2).product(i.power(3)) == i.power(5)

    def test_powers_chain_matches_power(self):
        for i in (assce(), edge_ideal(Graph.cycle(5))):
            assert list(i.powers(4)) == [i.power(k) for k in range(1, 5)]
            assert list(i.powers(0)) == []
            assert i.power(0) == MonomialIdeal.unit(i.vset)


class TestColon:
    def test_single_generators(self):
        # (x1x2 : x2x3) = (x1)
        assert ideal((1, 1, 0)).colon(ideal((0, 1, 1))) == ideal((1, 0, 0))

    def test_triangle_identity(self):
        i = edge_ideal(Graph.cycle(3))
        assert i.power(2).colon(i) == i

    def test_colon_by_unit(self):
        i = edge_ideal(Graph.cycle(4))
        assert i.colon(MonomialIdeal.unit(i.vset)) == i

    def test_self_colon_is_unit(self):
        # 1 * I is inside I, so (I : I) is the unit ideal for every nonzero I
        for i in (
            edge_ideal(Graph.cycle(4)),
            ideal((1, 1)),
            ideal((2, 0), (1, 1)),
        ):
            self_colon = i.colon(i)
            assert i.is_subset_of(self_colon)
            assert self_colon.is_unit

    def test_colon_by_zero_rejected(self):
        i = ideal((1, 1))
        with pytest.raises(UsageError):
            i.colon(MonomialIdeal.zero(i.vset))


class TestMembershipContainment:
    def test_square_membership(self):
        i2 = edge_ideal(Graph.cycle(3)).power(2)
        assert i2.contains(m(2, 1, 1))
        assert not i2.contains(m(1, 1, 1))

    def test_unit_membership(self):
        assert MonomialIdeal.unit(V3).contains(m(0, 0, 0))
        assert MonomialIdeal.unit(V3).contains(m(5, 0, 2))

    def test_subset_reflexive_and_powers(self):
        i = edge_ideal(Graph.cycle(3))
        assert i.is_subset_of(i)
        assert i.power(2).is_subset_of(i)
        assert not i.is_subset_of(i.power(2))


class TestCanonicalForm:
    def test_deterministic_serialization(self):
        i = edge_ideal(Graph.cycle(5)).power(2)
        again = MonomialIdeal.from_exponents(i.vset, [g.exps for g in i.gens])
        assert str(i) == str(again)
        assert [g.exps for g in i.gens] == sorted(
            set(g.exps for g in i.gens), key=lambda e: (sum(e), e)
        )

    def test_monomial_str(self):
        assert str(m(2, 1, 0)) == "x1^2*x2"
        assert str(Monomial.one(V3)) == "1"

    def test_prime_ordering_and_str(self):
        p = MonomialPrime(("x1", "x3"))
        assert str(p) == "(x1,x3)"
        with pytest.raises(UsageError):
            MonomialPrime(())
