"""Monomial and ideal arithmetic."""

import inspect
import os
import random
import re
import subprocess
import sys
from dataclasses import fields
from itertools import product as iter_product
from pathlib import Path

import numpy as np
import pytest

import edge_ideal_lab
from edge_ideal_lab import formats, monomials
from edge_ideal_lab.battery import colon_identity_holds
from edge_ideal_lab.errors import MismatchedVariablesError, UsageError
from edge_ideal_lab.fixtures import assce, fig9
from edge_ideal_lab.graphs import Graph, connected_graphs, edge_ideal
from edge_ideal_lab.monomials import (
    MAX_EXPONENT,
    Monomial,
    MonomialIdeal,
    MonomialPrime,
    VariableSet,
    minimalize_rows,
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
        one = m(0, 0, 0)
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
        with pytest.raises(UsageError):
            MonomialIdeal(V3, np.array([(1, 1, 0), (2, 1, 0)]))

    def test_constructor_rejects_unsorted_rows(self):
        for rows in ([(2, 0, 1), (1, 1, 0)], [(1, 1, 0), (0, 1, 1)]):
            with pytest.raises(UsageError):
                MonomialIdeal(V3, np.array(rows))

    def test_constructor_casts_int32_rows(self):
        rows = np.array([(1, 1, 0), (0, 0, 3)], dtype=np.int32)
        direct = MonomialIdeal(V3, rows)
        expected = MonomialIdeal.from_exponents(V3, rows)
        assert direct.exponent_array.dtype == np.int64
        assert direct == expected and hash(direct) == hash(expected)


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

    def test_non_integer_exponent_rejected(self):
        # 1.5 must not be truncated to 1, in a row or in a float array
        for rows in ([(1.5, 1, 0)], np.array([[1.5, 1, 0]]), np.array([[1.0, 1, 0]])):
            with pytest.raises(UsageError, match="integers"):
                MonomialIdeal.from_exponents(V3, rows)
        with pytest.raises(UsageError, match="integers"):
            Monomial(V3, (1.5, 1, 0))
        # numpy integers stay accepted, and are stored as Python ints
        a = Monomial(V3, (np.int64(2), np.uint8(1), 0))
        assert a.exps == (2, 1, 0) and all(type(e) is int for e in a.exps)
        rows = [(np.int32(1), 1, 0)]
        assert MonomialIdeal.from_exponents(V3, rows) == ideal((1, 1, 0))

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


def reference_minimalize(rows: np.ndarray) -> np.ndarray:
    """The row-wise unique, lexsort and degree-block scan that the packed-key
    canonicalizer replaced, kept as its reference."""
    arr = np.asarray(rows, dtype=np.int64)
    if arr.shape[0] == 0:
        return arr
    arr = np.unique(arr, axis=0)
    degs = arr.sum(axis=1)
    order = np.lexsort(
        tuple(arr[:, c] for c in range(arr.shape[1] - 1, -1, -1)) + (degs,)
    )
    arr = arr[order]
    degs = degs[order]
    kept_blocks: list[np.ndarray] = []
    start = 0
    m = len(arr)
    while start < m:
        stop = start
        while stop < m and degs[stop] == degs[start]:
            stop += 1
        block = arr[start:stop]
        if kept_blocks:
            kept = kept_blocks[0] if len(kept_blocks) == 1 else np.vstack(kept_blocks)
            kept_blocks = [kept]
            divisible = (kept[None, :, :] <= block[:, None, :]).all(axis=2).any(axis=1)
            block = block[~divisible]
        if len(block):
            kept_blocks.append(block)
        start = stop
    return kept_blocks[0] if len(kept_blocks) == 1 else np.vstack(kept_blocks)


class TestCanonicalizer:
    """minimalize_rows against the reference, in dtype, shape and row order."""

    @pytest.fixture
    def unique_calls(self, monkeypatch):
        calls = []
        original = np.unique

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(monomials.np, "unique", counting)
        return calls

    @pytest.fixture
    def assert_same(self, unique_calls):
        """Compares one row set and returns the np.unique calls that
        minimalize_rows made for it."""

        def check(rows) -> int:
            before = len(unique_calls)
            got = minimalize_rows(rows)
            made = len(unique_calls) - before
            want = reference_minimalize(rows)
            assert got.dtype == want.dtype == np.int64
            assert got.shape == want.shape
            assert np.array_equal(got, want), np.asarray(rows).tolist()
            return made

        return check

    @staticmethod
    def product_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1])

    def test_seeded_random_rows(self, assert_same):
        made = 0
        rng = np.random.default_rng(2009)
        for _ in range(400):
            width = int(rng.integers(1, 11))
            rows = rng.integers(0, 5, size=(int(rng.integers(1, 30)), width))
            # duplicates and zero rows at random places
            extra = rows[rng.integers(0, len(rows), size=int(rng.integers(0, 8)))]
            zeros = np.zeros((int(rng.integers(0, 2)), width), dtype=rows.dtype)
            mixed = np.vstack((rows, extra, zeros))
            made += assert_same(mixed[rng.permutation(len(mixed))])
        made += assert_same(np.zeros((0, 4), dtype=np.int64))
        assert made == 0  # every key fitted

    def test_corpus_powers(self, assert_same):
        made = 0
        for g in connected_graphs(2, 5):
            base = edge_ideal(g).exponent_array
            made += assert_same(base[::-1])
            power = base
            for _ in (2, 3):
                rows = self.product_rows(power, base)
                made += assert_same(rows)
                power = minimalize_rows(rows)
        assert made == 0

    def test_fig9_powers(self, assert_same):
        base = edge_ideal(fig9()).exponent_array
        power = base
        for _ in range(2, 6):
            rows = self.product_rows(power, base)
            assert assert_same(rows) == 0
            power = minimalize_rows(rows)

    def test_key_overflow_takes_the_fallback(self, assert_same):
        top = MAX_EXPONENT
        rows = np.array(
            [[top, 0, 1], [top - 1, 1, 0], [top, 0, 1], [0, top, top], [1, 0, 1]],
            dtype=np.int64,
        )
        assert assert_same(rows) == 1  # the row-wise unique of the fallback
        assert minimalize_rows(rows).tolist() == [
            [1, 0, 1], [top - 1, 1, 0], [0, top, top]
        ]


class TestPowerChain:
    """powers() is memoized on the base instance."""

    def test_second_walk_builds_nothing(self, product_count):
        i = edge_ideal(Graph.cycle(5))
        first = list(i.powers(4))
        assert len(product_count) == 3
        second = list(i.powers(4))
        assert len(product_count) == 3
        assert all(a is b for a, b in zip(first, second))
        assert first[0] is i

    def test_longer_walk_extends_the_chain(self, product_count):
        i = assce()
        list(i.powers(3))
        assert len(product_count) == 2
        list(i.powers(5))
        assert len(product_count) == 4

    def test_power_reads_the_walked_chain(self, product_count):
        i = edge_ideal(Graph.cycle(4))
        chain = list(i.powers(4))
        before = len(product_count)
        assert [i.power(k) for k in range(1, 5)] == chain
        assert i.power(3) is chain[2]
        assert len(product_count) == before

    def test_colon_identities_share_one_chain(self, product_count):
        # I^2, I^3, I^4 once each; 1 + 2 + 3 = 6 when every call rebuilt them
        i = edge_ideal(Graph.cycle(5))
        assert all(colon_identity_holds(i, k) for k in (1, 2, 3))
        assert len(product_count) == 3

    def test_chain_is_not_part_of_the_value(self):
        walked, fresh = edge_ideal(Graph.cycle(5)), edge_ideal(Graph.cycle(5))
        list(walked.powers(3))
        assert walked == fresh and hash(walked) == hash(fresh)
        assert [f.name for f in fields(MonomialIdeal)] == ["vset", "exponent_array"]


def test_chain_work_never_imports_numpy_ma():
    # np.unique imports numpy.ma on first use, at a cost of tens of ms; the
    # chain, colon and closure paths call none of it
    script = (
        "import sys\n"
        "from edge_ideal_lab.battery import colon_identity_holds\n"
        "from edge_ideal_lab.closure import integral_closure_power\n"
        "from edge_ideal_lab.fixtures import fig9\n"
        "from edge_ideal_lab.graphs import Graph, edge_ideal\n"
        "from edge_ideal_lab.stability import both_chains\n"
        "both_chains(edge_ideal(fig9()), 3)\n"
        "c5 = edge_ideal(Graph.cycle(5))\n"
        "assert colon_identity_holds(c5, 2)\n"
        "integral_closure_power(c5, 2)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    package_root = Path(edge_ideal_lab.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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

    @pytest.mark.parametrize("k", [1.5, "2", -1])
    def test_power_refuses_a_bad_exponent(self, k):
        # a UsageError, not a bare TypeError from the chain walk
        with pytest.raises(UsageError, match="power chain needs"):
            edge_ideal(Graph.cycle(3)).power(k)

    @pytest.mark.parametrize("k", [-1, 1.5, "2"])
    def test_powers_refuses_a_bad_count_at_the_call(self, k):
        # refused at the call, before any step, instead of yielding nothing
        with pytest.raises(UsageError, match="power chain needs"):
            edge_ideal(Graph.cycle(3)).powers(k)


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

    def test_contains_equals_generator_scan_on_fig9_powers(self):
        # every a in {0,1,2}^9 against I(FIG9)^k for k = 1..4; the expected
        # member set is the union, generator by generator, of its multiples
        i = edge_ideal(fig9())
        box = list(iter_product(range(3), repeat=i.vset.n))
        power = i
        for _ in range(4):
            expected = set()
            for g in power.gens:
                expected.update(iter_product(*(range(e, 3) for e in g.exps)))
            got = {a for a in box if power.contains(Monomial(i.vset, a))}
            assert got == expected
            power = power.product(i)

    def test_contains_equals_generator_scan_on_seeded_ideals(self):
        # mixed degrees and exponents up to 3, queried on a box that reaches
        # two past every generator maximum; the zero and unit ideals too
        rng = random.Random(23)
        ideals = [MonomialIdeal.zero(V3), MonomialIdeal.unit(V3)]
        for _ in range(40):
            rows = [[rng.randint(0, 3) for _ in range(3)] for _ in range(rng.randint(1, 6))]
            ideals.append(MonomialIdeal.from_exponents(V3, rows))
        for i in ideals:
            top = max(i.max_exponents()) + 2
            for a in iter_product(range(top + 1), repeat=3):
                scan = any(all(map(int.__le__, g.exps, a)) for g in i.gens)
                assert i.contains(m(*a)) == scan, (str(i), a)

    def test_zero_ideal_contains_nothing(self):
        zero = MonomialIdeal.zero(V3)
        assert not zero.contains(m(0, 0, 0))
        assert not zero.contains(m(4, 4, 4))

    def test_contains_refuses_foreign_variables(self):
        i = edge_ideal(Graph.cycle(3))
        foreign = Monomial(VariableSet(("y1", "y2", "y3")), (1, 1, 0))
        with pytest.raises(MismatchedVariablesError):
            i.contains(foreign)

    def test_subset_reflexive_and_powers(self):
        i = edge_ideal(Graph.cycle(3))
        assert i.is_subset_of(i)
        assert i.power(2).is_subset_of(i)
        assert not i.is_subset_of(i.power(2))


def reference_subset(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    return all(any(h.divides(g) for h in b.gens) for g in a.gens)


class TestArrayForm:
    def test_queries_match_generator_reference_on_corpus(self):
        # every corpus ideal on <= 5 vertices and its powers k <= 3, with each
        # query recomputed generator by generator from ``gens``
        for g in connected_graphs(2, 5):
            chain = list(edge_ideal(g).powers(3))
            for power in chain:
                gens = power.gens
                exps = [m.exps for m in gens]
                assert len(power) == len(gens)
                assert power.is_unit == (len(gens) == 1 and gens[0].is_one)
                assert power.is_squarefree == all(m.is_squarefree for m in gens)
                degrees = {m.degree for m in gens}
                common = degrees.pop() if len(degrees) == 1 else None
                assert power.generated_degree() == common
                # the same ideal from shuffled rows padded with multiples
                rows = exps[::-1] + [tuple(e + 1 for e in row) for row in exps]
                again = MonomialIdeal.from_exponents(power.vset, rows)
                assert again == power and hash(again) == hash(power)
            for a, b in iter_product(chain, repeat=2):
                same = [m.exps for m in a.gens] == [m.exps for m in b.gens]
                assert (a == b) == same
            # both directions between consecutive powers: I^(k+1) is inside I^k only
            for a, b in zip(chain + chain[1:], chain[1:] + chain):
                assert a.is_subset_of(b) == reference_subset(a, b)

    def test_zero_unit_and_mixed_degrees(self):
        mixed = ideal((1, 1, 0), (0, 0, 3))
        assert mixed.generated_degree() is None and not mixed.is_squarefree
        assert ideal((1, 1, 0)) != ideal((0, 1, 1))
        zero, unit = MonomialIdeal.zero(V3), MonomialIdeal.unit(V3)
        assert zero.is_zero and not zero.is_unit and zero.generated_degree() is None
        assert unit.is_unit and unit.generated_degree() == 0
        assert zero.is_subset_of(unit) and not unit.is_subset_of(zero)
        assert zero != unit and zero == MonomialIdeal.from_exponents(V3, [])
        assert zero != MonomialIdeal.zero(VariableSet.standard(3, prefix="y"))

    def test_exponent_array_is_the_only_field(self):
        assert [f.name for f in fields(MonomialIdeal)] == ["vset", "exponent_array"]

    def test_only_monomials_and_serialize_ideal_read_gens(self):
        # the generator objects are a derived view; engines read exponent_array
        package = Path(edge_ideal_lab.__file__).parent
        serializer = inspect.getsource(formats.serialize_ideal)
        for path in sorted(package.glob("*.py")):
            if path.name == "monomials.py":
                continue
            source = path.read_text().replace(serializer, "")
            assert not re.search(r"\.gens\b", source), path.name


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
        assert str(m(0, 0, 0)) == "1"

    def test_prime_ordering_and_str(self):
        p = MonomialPrime(("x1", "x3"))
        assert str(p) == "(x1,x3)"
        with pytest.raises(UsageError):
            MonomialPrime(())
