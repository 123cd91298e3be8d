"""The decomposition engine, the witness oracle, and prime-set combinatorics."""

import random
from itertools import combinations, permutations
from math import prod
from typing import Sequence

import numpy as np
import pytest

from edge_ideal_lab import assprimes, monomials
from edge_ideal_lab.assprimes import (
    AssWitness,
    IrreducibleComponent,
    associated_primes,
    associated_primes_witness_oracle,
    disjoint_union_ass,
    irreducible_decomposition,
    minimal_primes,
)
from edge_ideal_lab.errors import BudgetExceededError, UsageError, bounded
from edge_ideal_lab.fixtures import assce, fig9, graph_catalog
from edge_ideal_lab.battery import min_ass_battery
from edge_ideal_lab.graphs import (
    Graph,
    connected_graphs,
    disjoint_union,
    edge_ideal,
    minimal_vertex_covers,
    sample_graphs,
)
from edge_ideal_lab.monomials import (
    Monomial,
    MonomialIdeal,
    MonomialPrime,
    VariableSet,
    maximal_prime,
    membership_mask,
)


def ideal(*rows):
    return MonomialIdeal.from_exponents(VariableSet.standard(len(rows[0])), rows)


def primes(ideal_):
    return {p.names for p in associated_primes(ideal_)}


def assert_irredundant_decomposition(target, comps):
    """The components are the unique irredundant irreducible decomposition of
    ``target`` (Miller-Sturmfels, Combinatorial Commutative Algebra, ch. 5):
    they intersect back to it and none contains another.

    The pairwise test gives full irredundancy: for irreducible monomial ideals,
    an intersection lies inside Q exactly when a single member does (pick a
    monomial outside Q from each member otherwise; their lcm stays outside Q).
    """
    as_ideals = [c.as_ideal(target.vset) for c in comps]
    total = as_ideals[0]
    for other in as_ideals[1:]:
        total = total.intersect(other)
    assert total == target, str(target)
    for a, b in permutations(comps, 2):
        assert not contains_component(a, b), f"{a} contains {b} in {target}"


def contains_component(a: IrreducibleComponent, b: IrreducibleComponent) -> bool:
    """Ideal containment b <= a: b's support inside a's, with b's exponents at
    least a's there."""
    mine = dict(a.entries)
    return all(i in mine and e >= mine[i] for i, e in b.entries)


class TestDecomposition:
    def test_split_one_edge(self):
        comps = irreducible_decomposition(ideal((1, 1)))
        assert {c.entries for c in comps} == {((0, 1),), ((1, 1),)}

    def test_triangle_covers(self):
        comps = irreducible_decomposition(edge_ideal(Graph.cycle(3)))
        assert {c.entries for c in comps} == {
            ((0, 1), (1, 1)),
            ((0, 1), (2, 1)),
            ((1, 1), (2, 1)),
        }

    def test_embedded_component(self):
        comps = irreducible_decomposition(ideal((2, 0), (1, 1)))
        assert {c.entries for c in comps} == {((0, 1),), ((0, 2), (1, 1))}

    def test_rejects_zero_and_unit(self):
        vset = VariableSet.standard(2)
        with pytest.raises(UsageError):
            irreducible_decomposition(MonomialIdeal.zero(vset))
        with pytest.raises(UsageError):
            irreducible_decomposition(MonomialIdeal.unit(vset))

    def test_engines_agree_on_corpus(self):
        for g in connected_graphs(2, 4):
            for k in (1, 2):
                power = edge_ideal(g).power(k)
                assert_irredundant_decomposition(power, irreducible_decomposition(power))

    def test_engines_agree_on_random_ideals(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(2, 4)
            vset = VariableSet.standard(n)
            rows = {
                tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))
            }
            rows = {r for r in rows if sum(r) > 0}
            if not rows:
                continue
            target = MonomialIdeal.from_exponents(vset, rows)
            if target.is_unit or target.is_zero:
                continue
            assert_irredundant_decomposition(target, irreducible_decomposition(target))

    def test_three_routes_agree_on_mid_size_ideals(self):
        k5 = Graph.from_edges(
            tuple(f"x{i}" for i in range(1, 6)), list(combinations(range(5), 2))
        )
        targets = [assce().power(2), assce().power(3), edge_ideal(k5).power(4)]
        for target in targets:
            corner = irreducible_decomposition(target)
            assert_irredundant_decomposition(target, corner)
            oracle = {w.prime for w in associated_primes_witness_oracle(target)}
            assert oracle == {
                MonomialPrime.from_indices(target.vset, c.support) for c in corner
            }

    def test_unused_variables_do_not_count_toward_the_support_cap(self):
        # 24 or 70 declared variables, 2 occurring: only the occurring ones are
        # swept, by the corner scan and by the oracle (an array of 70 axes is
        # more than numpy allows)
        for n in (24, 70):
            vset = VariableSet.standard(n)
            rows = [(1, 1) + (0,) * (n - 2), (0, 2) + (0,) * (n - 2)]
            target = MonomialIdeal.from_exponents(vset, rows)
            comps = irreducible_decomposition(target)
            assert {c.entries for c in comps} == {((1, 1),), ((0, 1), (1, 2))}
            assert primes(target) == {("x2",), ("x1", "x2")}
            witnesses = associated_primes_witness_oracle(target)
            assert {w.prime.names for w in witnesses} == {("x2",), ("x1", "x2")}
            for w in witnesses:
                assert target.colon_monomial(w.witness) == w.prime.as_ideal(vset)

    def test_many_occurring_variables_fit_the_cell_cap(self):
        # the star K_{1,21}: 22 occurring variables but a box of 2^22 cells,
        # decomposed into its two minimal vertex covers
        target = edge_ideal(Graph.complete_bipartite(1, 21))
        comps = irreducible_decomposition(target)
        assert {c.entries for c in comps} == {
            ((0, 1),),
            tuple((i, 1) for i in range(1, 22)),
        }
        assert_irredundant_decomposition(target, comps)

    def test_corner_cell_cap_boundary(self):
        # the box cap bounds the one mask over [0, u]: ASSCE^2 fits a cap of
        # exactly its box and is refused one cell below it
        target = assce().power(2)
        box = prod(e + 1 for e in target.max_exponents())
        with bounded(box_cells=box):
            assert_irredundant_decomposition(target, irreducible_decomposition(target))
        with bounded(box_cells=box - 1), pytest.raises(BudgetExceededError):
            irreducible_decomposition(target)

    def test_cached_primes_obey_the_box_cap(self):
        # FIG9^3 has a 4^9-cell box; once an unbounded call has memoized its
        # primes, a smaller cap still refuses it and a cap of its box answers
        target = edge_ideal(fig9()).power(3)
        primes = associated_primes(target)
        assert len(primes) == 23
        with bounded(box_cells=4**9 - 1), pytest.raises(
            BudgetExceededError, match=r"corner membership mask needs 262144 cells"
        ):
            associated_primes(target)
        with bounded(box_cells=4**9):
            assert associated_primes(target) is primes

    def test_intersection_reconstructs_ideal(self):
        for target in (
            edge_ideal(Graph.cycle(3)).power(2),
            assce(),
            ideal((2, 0), (1, 1)),
            ideal((3, 0, 0), (1, 1, 1), (0, 2, 1)),
        ):
            assert_irredundant_decomposition(target, irreducible_decomposition(target))


def kernel_targets():
    """Ideals spanning each word layout of the corner kernel, with the
    layout's leading-axis count and word size."""
    return [
        # one-word boxes: every axis packed
        (ideal((2,), (3,)), 0, 8),
        (ideal((1, 1)), 0, 8),
        (ideal((3, 0, 0), (1, 1, 1), (0, 2, 1)), 0, 32),
        (edge_ideal(Graph.cycle(5)).power(3), 2, 64),  # 4^3 cells per word
        # an axis of more than 64 cells: packed as the last axis only when
        # it fits, and the last one leaves nothing packed (a byte per cell)
        (ideal((70, 0), (3, 2), (0, 3)), 1, 8),
        (ideal((0, 70), (2, 3), (3, 0)), 2, 8),
        # mixed axis lengths, shape (3, 4, 2, 5): three axes in a 40-bit word
        (ideal((2, 0, 0, 1), (0, 3, 1, 0), (1, 1, 0, 4), (0, 2, 1, 2)), 1, 64),
        (assce().power(2), 3, 32),  # 3^3 cells per word
    ]


def oracle_primes(target):
    return {w.prime for w in associated_primes_witness_oracle(target)}


def component_primes(target, comps):
    return {MonomialPrime.from_indices(target.vset, c.support) for c in comps}


def random_ideals(seed, count):
    """Seeded random ideals over 1 to 5 variables, exponents up to 3 but on
    one axis, whose exponents reach up to 66 (wider than a word)."""
    rng = random.Random(seed)
    while count:
        n = rng.randint(1, 5)
        tops = [3] * n
        tops[rng.randrange(n)] = rng.choice([1, 3, 7, 9, 66])
        rows = [
            tuple(rng.randint(0, t) for t in tops) for _ in range(rng.randint(1, 6))
        ]
        target = MonomialIdeal.from_exponents(VariableSet.standard(n), rows)
        if not (target.is_unit or target.is_zero):
            count -= 1
            yield target


class TestCornerKernel:
    """The bit-packed corner scan, checked on each word layout against the
    intersection of its components and against the witness oracle."""

    def test_layouts(self):
        for target, lead, width in kernel_targets():
            shape = tuple(e + 1 for e in target.max_exponents())
            layout = assprimes._word_layout(shape)
            assert (layout[0], np.iinfo(layout[2]).bits) == (lead, width), shape

    def test_every_layout_matches_the_oracle(self):
        for target, _, _ in kernel_targets():
            comps = irreducible_decomposition(target)
            assert_irredundant_decomposition(target, comps)
            assert set(associated_primes(target)) == oracle_primes(target)
            assert set(associated_primes(target)) == component_primes(target, comps)

    def test_random_ideals_match_the_oracle(self):
        for target in random_ideals(seed=20, count=300):
            comps = irreducible_decomposition(target)
            assert_irredundant_decomposition(target, comps)
            assert set(associated_primes(target)) == oracle_primes(target), target

    @pytest.mark.parametrize("fault", ["no top bits", "last packed axis unscanned"])
    def test_planted_faults_are_caught(self, fault, monkeypatch):
        # a kernel missing the top bits of the corner test, or the prefix OR
        # along its last packed axis, answers wrongly on the kernel targets
        layout = assprimes._word_layout.__wrapped__

        def faulty(shape):
            lead, bits, dtype, full, packed = layout(shape)
            packed = list(packed)
            if packed and fault == "no top bits":
                packed = [(stride, low, dtype(0)) for stride, low, _ in packed]
            elif packed:
                packed[-1] = (packed[-1][0], dtype(0), packed[-1][2])
            return lead, bits, dtype, full, tuple(packed)

        targets = [t for t, _, _ in kernel_targets()]
        want = [irreducible_decomposition(t) for t in targets]
        monkeypatch.setattr(assprimes, "_word_layout", faulty)
        wrong = [irreducible_decomposition(t) != w for t, w in zip(targets, want)]
        assert sum(wrong) >= len(targets) // 2

    def test_runs_without_the_shared_mask_builder(self, monkeypatch):
        # the engine packs its own mask; monomials.membership_mask is left
        # to the oracle and the colon identity it cross-checks
        def forbidden(*args, **kwargs):
            raise AssertionError("the corner engine built a boolean mask")

        want = [irreducible_decomposition(t) for t, _, _ in kernel_targets()]
        assprimes._associated_primes.cache_clear()
        monkeypatch.setattr(monomials, "membership_mask", forbidden)
        monkeypatch.setattr(assprimes, "membership_mask", forbidden)
        for (target, _, _), comps in zip(kernel_targets(), want):
            assert irreducible_decomposition(target) == comps
            assert set(associated_primes(target)) == component_primes(target, comps)


class TestAssociatedPrimes:
    def test_triangle(self):
        assert primes(edge_ideal(Graph.cycle(3))) == {
            ("x1", "x2"),
            ("x1", "x3"),
            ("x2", "x3"),
        }

    def test_triangle_square_adds_maximal(self):
        assert primes(edge_ideal(Graph.cycle(3)).power(2)) == {
            ("x1", "x2"),
            ("x1", "x3"),
            ("x2", "x3"),
            ("x1", "x2", "x3"),
        }

    def test_bipartite_square_constant(self):
        i = edge_ideal(Graph.cycle(4))
        base = primes(i)
        assert base == {("x1", "x3"), ("x2", "x4")}
        for k in (2, 3):
            assert primes(i.power(k)) == base

    def test_min_subset_of_ass(self):
        i2 = edge_ideal(Graph.cycle(3)).power(2)
        mins = set(minimal_primes(i2))
        assert mins < set(associated_primes(i2))
        assert maximal_prime(i2.vset) not in mins

    def test_min_equals_ass_for_edge_ideals(self):
        for g in (Graph.cycle(3), Graph.cycle(5), Graph.path(4)):
            i = edge_ideal(g)
            assert set(minimal_primes(i)) == set(associated_primes(i))


def reference_minimal_vertex_covers(graph: Graph) -> tuple[frozenset[str], ...]:
    """The covers by Python set tests over the vertex sets in combinations
    order (by size, then by indices), each kept when it holds no earlier one;
    sorting an antichain by inclusion keeps that order."""
    covers: list[set[int]] = []
    for r in range(graph.n + 1):
        for subset in combinations(range(graph.n), r):
            s = set(subset)
            if all(u in s or v in s for u, v in graph.edges):
                if not any(c <= s for c in covers):
                    covers.append(s)
    return tuple(sorted(frozenset(graph.labels[v] for v in c) for c in covers))


class TestVertexCovers:
    def test_triangle(self):
        assert set(minimal_vertex_covers(Graph.cycle(3))) == {
            frozenset({"x1", "x2"}),
            frozenset({"x1", "x3"}),
            frozenset({"x2", "x3"}),
        }

    def test_single_edge(self):
        assert set(minimal_vertex_covers(Graph.single_edge())) == {
            frozenset({"x1"}),
            frozenset({"x2"}),
        }

    def test_square(self):
        assert set(minimal_vertex_covers(Graph.cycle(4))) == {
            frozenset({"x1", "x3"}),
            frozenset({"x2", "x4"}),
        }

    def test_bijection_with_minimal_primes(self):
        for g in connected_graphs(2, 4):
            covers = set(minimal_vertex_covers(g))
            prime_supports = {frozenset(p.names) for p in minimal_primes(edge_ideal(g))}
            assert covers == prime_supports, str(g)

    @pytest.mark.parametrize(
        "graphs",
        [
            lambda: graph_catalog().values(),
            lambda: connected_graphs(2, 5),
            lambda: sample_graphs(60, (6, 13), 36),
            lambda: [Graph((), ())],
        ],
        ids=["catalog", "corpus", "seeded", "no-vertex"],
    )
    def test_the_reference_tuples_in_order(self, graphs):
        for g in graphs():
            assert minimal_vertex_covers(g) == reference_minimal_vertex_covers(g), g

    def test_by_size_then_indices_not_by_mask(self):
        # the square x1 - x2 - x4 - x3: {x2, x3} has mask 6, {x1, x4} mask 9
        edges = [(0, 1), (1, 3), (2, 3), (0, 2)]
        square = Graph.from_edges(("x1", "x2", "x3", "x4"), edges)
        assert minimal_vertex_covers(square) == (
            frozenset({"x1", "x4"}),
            frozenset({"x2", "x3"}),
        )

    def test_unforced_weights_fail_min_equals_ass(self, unforced_covers):
        # y_C with its forced 2s left at 1 reads every vertex of a cover as
        # free to leave it: no cover is minimal, against the corner engine
        checks = list(min_ass_battery({"C5": Graph.cycle(5), "P4": Graph.path(4)}))
        assert [ok for _, ok, _ in checks] == [False, False]

    def test_run_limits(self):
        # the 2^14 vertex sets of C14 charge 14 * 2^14 cells, and a spent
        # deadline stops the enumeration; C14 has Perrin(14) = 51 maximal
        # independent sets, whose complements are its minimal covers
        c14, cells = Graph.cycle(14), 14 << 14
        with bounded(seconds=0):
            with pytest.raises(BudgetExceededError, match="time budget spent"):
                minimal_vertex_covers(c14)
        with bounded(box_cells=cells - 1):
            refusal = f"cover enumeration needs {cells} cells"
            with pytest.raises(BudgetExceededError, match=refusal):
                minimal_vertex_covers(c14)
        with bounded(box_cells=cells):
            assert len(minimal_vertex_covers(c14)) == 51


def reference_witness_oracle(target: MonomialIdeal) -> tuple[AssWitness, ...]:
    """The witness oracle with S as a boolean row per outside cell, the rows
    deduplicated by one lexicographic row sort: the same definition, no
    integer key."""
    occurring = np.flatnonzero(target.exponent_array.any(axis=0))
    rows = target.exponent_array[:, occurring]
    u = rows.max(axis=0).tolist()
    shape = tuple(e + 1 for e in u)
    total = prod(shape)
    member = membership_mask(rows, u).ravel()
    outside = np.flatnonzero(~member)
    raised = np.full(len(outside), total - 1, dtype=np.int64)
    in_prime = np.empty((len(occurring), len(outside)), dtype=bool)
    stride = total
    for j, side in enumerate(shape):
        stride //= side
        c = outside // stride % side
        in_prime[j] = member[np.where(c < u[j], outside + stride, outside)]
        raised -= np.where(in_prime[j], (u[j] - c) * stride, 0)
    realized = ~member[raised]
    supports, first = np.unique(in_prime[:, realized].T, axis=0, return_index=True)
    exps = np.zeros((len(supports), target.vset.n), dtype=np.int64)
    exps[:, occurring] = np.transpose(np.unravel_index(outside[realized][first], shape))
    witnesses = [
        AssWitness(
            MonomialPrime.from_indices(target.vset, occurring[support]),
            Monomial(target.vset, tuple(row)),
        )
        for support, row in zip(supports, exps.tolist())
    ]
    return tuple(sorted(witnesses, key=lambda w: w.prime))


class TestWitnessOracle:
    def test_single_edge_witnesses(self):
        i = ideal((1, 1))
        witnesses = associated_primes_witness_oracle(i)
        assert {w.prime.names for w in witnesses} == {("x1",), ("x2",)}
        # (I : x1) = (x2)
        by_prime = {w.prime.names: w.witness for w in witnesses}
        assert by_prime[("x2",)].exps == (1, 0)

    def test_triangle_square_finds_maximal_witness(self):
        i2 = edge_ideal(Graph.cycle(3)).power(2)
        witnesses = associated_primes_witness_oracle(i2)
        full = {w for w in witnesses if len(w.prime.names) == 3}
        assert len(full) == 1
        assert next(iter(full)).witness.exps == (1, 1, 1)

    def test_witness_invariants(self):
        targets = [edge_ideal(Graph.cycle(3)).power(2), assce()]
        for g in connected_graphs(2, 5):
            targets.extend(edge_ideal(g).powers(3))
        for target in targets:
            for w in associated_primes_witness_oracle(target):
                assert not target.contains(w.witness), str(target)
                colon = target.colon_monomial(w.witness)
                assert colon == w.prime.as_ideal(target.vset), str(target)

    def test_matches_decomposition(self):
        for target in (assce(), assce().power(2), edge_ideal(Graph.cycle(5)).power(2)):
            oracle = {w.prime for w in associated_primes_witness_oracle(target)}
            assert oracle == set(associated_primes(target))

    def test_exponents_wider_than_int16(self):
        i = ideal((40000, 0), (0, 1))
        witnesses = associated_primes_witness_oracle(i)
        assert [w.prime.names for w in witnesses] == [("x1", "x2")]
        assert witnesses[0].witness.exps == (39999, 0)

    def test_cap_refusal(self):
        with bounded(box_cells=10), pytest.raises(BudgetExceededError):
            associated_primes_witness_oracle(assce().power(2))

    def test_matches_the_row_sort_reference(self):
        # the same primes and the same first witnesses in C order
        targets = [
            power for g in connected_graphs(2, 5) for power in edge_ideal(g).powers(3)
        ]
        targets += edge_ideal(fig9()).powers(4)
        targets += assce().powers(4)
        targets += random_ideals(seed=20, count=300)
        for target in targets:
            got = associated_primes_witness_oracle(target)
            assert got == reference_witness_oracle(target), str(target)

    def test_at_most_62_occurring_variables(self):
        # the path on 63 variables is refused for the width of its keys; on
        # 62 the key fits and the box cap refuses its 2^62 cells
        for n, refusal in ((63, UsageError), (62, BudgetExceededError)):
            target = edge_ideal(Graph.path(n))
            with pytest.raises(refusal, match="62 variables" if n == 63 else "cells"):
                associated_primes_witness_oracle(target)

    def test_independent_of_the_decomposition_engine(self, monkeypatch):
        # the oracle is a cross-check: it must not reach the corner scan or
        # the minimalization it would be checking
        target = assce().power(2)
        expected = set(associated_primes(target))

        def forbidden(*args, **kwargs):
            raise AssertionError("the witness oracle called decomposition code")

        monkeypatch.setattr(assprimes, "irreducible_decomposition", forbidden)
        monkeypatch.setattr(assprimes, "_corner_cells", forbidden)
        monkeypatch.setattr(monomials, "minimalize_rows", forbidden)
        witnesses = associated_primes_witness_oracle(target)
        assert {w.prime for w in witnesses} == expected


def combined_ideal(parts: Sequence[MonomialIdeal]) -> MonomialIdeal:
    """The sum of the parts inside the concatenated variable set, for direct
    cross-checks of disjoint_union_ass."""
    names: list[str] = []
    for p in parts:
        names.extend(p.vset.names)
    joint = VariableSet(tuple(names))
    blocks = []
    offset = 0
    for p in parts:
        block = np.zeros((len(p), len(names)), dtype=np.int64)
        block[:, offset : offset + p.vset.n] = p.exponent_array
        blocks.append(block)
        offset += p.vset.n
    return MonomialIdeal.from_exponents(joint, np.vstack(blocks))


class TestDisjointUnion:
    def test_single_part_is_identity(self):
        i = edge_ideal(Graph.cycle(3))
        for k in (1, 2):
            assert set(disjoint_union_ass([i], k)) == set(associated_primes(i.power(k)))

    def test_two_triangles_k3_has_full_prime(self):
        parts = [edge_ideal(Graph.cycle(3)), edge_ideal(Graph.cycle(3, prefix="y"))]
        composed = set(disjoint_union_ass(parts, 3))
        full = MonomialPrime(tuple(sorted(["x1", "x2", "x3", "y1", "y2", "y3"])))
        assert full in composed
        direct = set(associated_primes(combined_ideal(parts).power(3)))
        assert composed == direct

    def test_direct_comparison_all_small_powers(self):
        pair = disjoint_union(Graph.cycle(3), Graph.cycle(4, prefix="y"))
        parts = [edge_ideal(c) for c in pair.components()]
        whole = edge_ideal(pair)
        for k in (1, 2, 3):
            assert set(disjoint_union_ass(parts, k)) == set(
                associated_primes(whole.power(k))
            )

    def test_variable_part(self):
        i = edge_ideal(Graph.cycle(3))
        y = MonomialIdeal.from_exponents(VariableSet(("y1",)), [(1,)])
        for k in (1, 2, 3):
            composed = disjoint_union_ass([i, y], k)
            assert all("y1" in p.names for p in composed)

    def test_overlapping_supports_rejected(self):
        i = edge_ideal(Graph.cycle(3))
        with pytest.raises(UsageError):
            disjoint_union_ass([i, i], 2)

    @pytest.mark.parametrize(
        "k, message",
        [(0, "positive power"), (1.5, "integer power"), ("2", "integer power")],
    )
    def test_bad_power_refused(self, k, message):
        # 1.5 reached range() and raised a bare TypeError
        with pytest.raises(UsageError, match=message):
            disjoint_union_ass([edge_ideal(Graph.cycle(3))], k)


class TestMaximalStep:
    def test_once_in_always_in(self):
        i = edge_ideal(Graph.cycle(3))
        m = maximal_prime(i.vset)
        assert m not in associated_primes(i)
        assert m in associated_primes(i.power(2))
        assert m in associated_primes(i.power(3))

    def test_five_cycle_entry_point(self):
        i = edge_ideal(Graph.cycle(5))
        m = maximal_prime(i.vset)
        entries = [k for k in (1, 2, 3) if m in associated_primes(i.power(k))]
        assert entries == [3]
