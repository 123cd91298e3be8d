"""Graphs, matchings, parallelizations, and the graph-ideal bridge."""

import tracemalloc
from itertools import combinations, product as iter_product

import pytest

from edge_ideal_lab.errors import BudgetExceededError, UsageError
from edge_ideal_lab.fixtures import fig7, fig9, graph_catalog, k33, star_3_1
from edge_ideal_lab.graphs import (
    _SUBSET_BLOCK,
    Graph,
    _odd_component_count,
    _odd_component_counts,
    berge_deficiency,
    connected_graphs,
    deficiency,
    disjoint_union,
    duplicate_copy_edge,
    duplicate_edge,
    edge_ideal,
    edge_subring_member,
    factor_by_matching,
    has_perfect_matching,
    incidence_rank,
    matching_number,
    maximum_matching,
    parallel_edge_set_canonical,
    parallelize,
    power_index,
    sample_graphs,
    tutte_condition_holds,
)
from edge_ideal_lab.monomials import Monomial


def brute_force_matching_number(g: Graph) -> int:
    """Independent oracle: maximize over all edge subsets directly."""
    best = 0
    for r in range(g.n // 2, 0, -1):
        for subset in combinations(g.edges, r):
            used = [v for e in subset for v in e]
            if len(set(used)) == 2 * r:
                return r
    return best


class TestMatching:
    def test_single_edge(self):
        assert matching_number(Graph.single_edge()) == 1

    def test_fig7(self):
        assert matching_number(fig7()) == 2

    def test_k33(self):
        assert matching_number(k33()) == 3
        assert has_perfect_matching(k33())

    def test_certificate_validates(self):
        cert = maximum_matching(fig9())
        cert.validate()
        assert cert.size == 4

    def test_blossom_against_brute_force_exhaustive(self):
        for g in connected_graphs(2, 4):
            assert matching_number(g) == brute_force_matching_number(g), str(g)

    def test_blossom_against_brute_force_sampled(self):
        for g in sample_graphs(25, (5, 7), seed=7):
            assert matching_number(g) == brute_force_matching_number(g), str(g)

    def test_odd_cycles_need_blossoms(self):
        # two triangles joined by a path defeat greedy augmenting without contraction
        g = Graph.from_labeled_edges(
            [
                ("a1", "a2"),
                ("a2", "a3"),
                ("a1", "a3"),
                ("a3", "b3"),
                ("b1", "b2"),
                ("b2", "b3"),
                ("b1", "b3"),
            ]
        )
        assert matching_number(g) == 3


class TestDeficiencyAndBerge:
    def test_fig7_deficiency(self):
        assert deficiency(fig7()) == 2

    def test_fig8_deficiency(self):
        assert deficiency(parallelize(fig7(), (1, 1, 2, 2, 1, 1)).flat) == 0

    def test_triangle(self):
        assert deficiency(Graph.cycle(3)) == 1

    def test_berge_matches_deficiency_on_fixtures(self):
        for g in (Graph.single_edge(), Graph.cycle(3), Graph.cycle(4), fig7(), k33()):
            value, witness = berge_deficiency(g)
            assert value == deficiency(g)

    def test_berge_fig7_named_witness(self):
        g = fig7()
        value, _ = berge_deficiency(g)
        assert value == 2
        mask = (1 << g.labels.index("x3")) | (1 << g.labels.index("x4"))
        assert _odd_component_count(g, mask) - 2 == 2

    def test_berge_single_edge_and_triangle(self):
        assert berge_deficiency(Graph.single_edge())[0] == 0
        value, witness = berge_deficiency(Graph.cycle(3))
        assert value == 1 and witness == frozenset()

    def test_berge_cap(self):
        big = Graph.path(17)
        with pytest.raises(BudgetExceededError):
            berge_deficiency(big)
        assert berge_deficiency(big, cap=17)[0] == deficiency(big)

    def test_tutte_iff_perfect_matching(self):
        for g in (Graph.single_edge(), Graph.cycle(3), Graph.cycle(4), fig7(), k33()):
            assert tutte_condition_holds(g) == has_perfect_matching(g)


def reference_odd_counts(g: Graph) -> list[int]:
    """Independent oracle: a set-based flood fill of G - S for every mask S."""
    counts = []
    for mask in range(1 << g.n):
        left = {v for v in range(g.n) if not mask >> v & 1}
        odd = 0
        while left:
            component = {left.pop()}
            frontier = list(component)
            while frontier:
                v = frontier.pop()
                for w in g.adjacency[v]:
                    if w in left:
                        left.remove(w)
                        component.add(w)
                        frontier.append(w)
            odd += len(component) % 2
        counts.append(odd)
    return counts


def reference_berge(g: Graph) -> tuple[int, frozenset[str]]:
    """(max of odd - |S|, the first maximizing S in mask order)."""
    values = [
        odd - bin(mask).count("1") for mask, odd in enumerate(reference_odd_counts(g))
    ]
    best = max(values)
    mask = values.index(best)
    return best, frozenset(g.labels[v] for v in range(g.n) if mask >> v & 1)


def kernel_graphs() -> list[Graph]:
    """Every connected graph on 2..5 vertices, the catalog graphs up to six
    vertices, and seeded graphs up to twelve."""
    small = [g for g in graph_catalog().values() if g.n <= 6]
    return list(connected_graphs(2, 5)) + small + sample_graphs(6, (7, 12), seed=11)


class TestOddComponentKernel:
    def test_counts_match_reference_flood_fill(self):
        for g in kernel_graphs():
            got = _odd_component_counts(g, 0, 1 << g.n).tolist()
            assert got == reference_odd_counts(g), str(g)

    def test_one_mask_read_and_subranges(self):
        g = sample_graphs(1, (9, 9), seed=5)[0]
        expected = reference_odd_counts(g)
        assert _odd_component_counts(g, 100, 173).tolist() == expected[100:173]
        assert [_odd_component_count(g, s) for s in (0, 7, 300, 511)] == [
            expected[s] for s in (0, 7, 300, 511)
        ]

    def test_berge_value_and_first_witness_match_reference(self):
        for g in kernel_graphs():
            assert berge_deficiency(g) == reference_berge(g), str(g)

    def test_tutte_iff_zero_berge_deficiency(self):
        for g in kernel_graphs():
            assert tutte_condition_holds(g) == (berge_deficiency(g)[0] == 0), str(g)

    def test_several_blocks(self):
        # 2^13 subsets span two blocks; the star's only maximizer {x13} lies
        # in the second, and the seeded graph is checked against the oracle
        assert 1 << 13 > _SUBSET_BLOCK
        star = Graph.from_edges(
            [f"x{i}" for i in range(1, 14)], [(i, 12) for i in range(12)]
        )
        assert berge_deficiency(star) == (11, frozenset({"x13"}))
        assert not tutte_condition_holds(star)
        # x1 - x13 - x2 beside ten isolated vertices ties S = {} (block one)
        # with S = {x13} (block two) at 11: the first maximizer is kept
        tie = Graph.from_edges([f"x{i}" for i in range(1, 14)], [(0, 12), (1, 12)])
        assert berge_deficiency(tie) == (11, frozenset()) == reference_berge(tie)
        for g in (star, sample_graphs(1, (13, 13), seed=3)[0]):
            assert g.n == 13
            assert berge_deficiency(g) == reference_berge(g), str(g)
            assert tutte_condition_holds(g) == has_perfect_matching(g)

    def test_memory_stays_per_block(self):
        flat = parallelize(fig9(), (2, 2, 2, 2, 2, 2, 2, 1, 1)).flat
        assert flat.n == 16
        tracemalloc.start()
        try:
            value, _ = berge_deficiency(flat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == deficiency(flat)
        assert peak < 4 * 2**20, peak


class TestParallelize:
    def test_single_edge_3_3_is_k33(self):
        pg = parallelize(Graph.single_edge(), (3, 3)).flat
        assert pg.n == 6 and len(pg.edges) == 9
        assert pg.is_bipartite() and has_perfect_matching(pg)

    def test_identity_multiplicity(self):
        for g in (Graph.cycle(3), fig7()):
            flat = parallelize(g, (1,) * g.n).flat
            assert flat.n == g.n and len(flat.edges) == len(g.edges)
            assert matching_number(flat) == matching_number(g)

    def test_star_from_duplications(self):
        star = star_3_1()
        assert star.n == 4 and star.leaf_count() == 3

    def test_zero_multiplicity_deletes(self):
        pg = parallelize(Graph.cycle(3), (0, 1, 1))
        assert pg.n == 2 and len(pg.edge_set) == 1
        empty = parallelize(Graph.cycle(3), (0, 0, 0))
        assert empty.n == 0 and matching_number(empty.flat) == 0

    def test_duplicate_edge_examples(self):
        c4 = Graph.cycle(4)
        for f in c4.edges:
            dup = duplicate_edge(c4, f).flat
            assert dup.n == 6 and has_perfect_matching(dup)
        # duplicating the middle edge is exactly the (1,1,2,2,1,1) parallelization,
        # which wipes out the deficiency
        g = fig7()
        dup = duplicate_edge(g, (g.labels.index("x3"), g.labels.index("x4"))).flat
        assert dup.n == 8 and deficiency(dup) == 0

    def test_duplicate_single_edge_gives_four_cycle(self):
        dup = duplicate_edge(Graph.single_edge(), (0, 1)).flat
        assert dup.n == 4 and len(dup.edges) == 4
        assert dup.is_bipartite() and has_perfect_matching(dup)

    def test_duplicate_missing_edge_rejected(self):
        with pytest.raises(UsageError):
            duplicate_edge(Graph.cycle(4), (0, 2))

    def test_commutation_with_parallelization(self):
        g = Graph.cycle(3)
        for a in [(1, 1, 1), (2, 1, 1), (2, 2, 1)]:
            pg = parallelize(g, a)
            for copy_edge in sorted(pg.edge_set):
                x, y = copy_edge
                bumped = list(a)
                bumped[x[0]] += 1
                bumped[y[0]] += 1
                assert duplicate_copy_edge(pg, copy_edge) == parallel_edge_set_canonical(
                    parallelize(g, bumped)
                )


class TestStructure:
    def test_triangle_profile(self):
        c3 = Graph.cycle(3)
        assert not c3.is_bipartite()
        assert c3.odd_girth() == 3
        assert c3.leaf_count() == 0

    def test_fig9_profile(self):
        g = fig9()
        assert len(g.component_indices()) == 1
        assert not g.is_bipartite()
        assert g.odd_girth() == 3
        assert g.leaf_count() == 0

    def test_odd_girth_five_cycle(self):
        assert Graph.cycle(5).odd_girth() == 5
        assert Graph.cycle(4).odd_girth() is None

    def test_disjoint_components(self):
        g = disjoint_union(Graph.cycle(3), Graph.cycle(4, prefix="y"))
        comps = g.components()
        assert len(comps) == 2
        assert [c.is_bipartite() for c in comps] == [False, True]


class TestSampleGraphs:
    def test_refuses_vertex_ranges_without_an_edge(self):
        # one vertex has no partner for the isolated-vertex repair
        for bad in ((1, 1), (0, 3), (5, 4)):
            with pytest.raises(UsageError, match="vertex range"):
                sample_graphs(1, bad, 0)

    def test_smallest_range_gives_an_edge(self):
        assert sample_graphs(3, (2, 2), 0) == [Graph.single_edge()] * 3


class TestIncidenceRank:
    def test_cycles(self):
        assert incidence_rank(Graph.cycle(3)) == 3
        assert incidence_rank(Graph.cycle(4)) == 3

    def test_disjoint_additivity(self):
        g = disjoint_union(Graph.cycle(3), Graph.cycle(4, prefix="y"))
        assert incidence_rank(g) == 6

    def test_component_formula(self):
        for g in list(connected_graphs(2, 4)) + [fig7(), fig9()]:
            expected = sum(
                c.n - 1 + (0 if c.is_bipartite() else 1) for c in g.components()
            )
            assert incidence_rank(g) == expected, str(g)


class TestEdgeIdeal:
    def test_single_edge(self):
        assert str(edge_ideal(Graph.single_edge())) == "(x1*x2)"

    def test_triangle(self):
        assert len(edge_ideal(Graph.cycle(3))) == 3

    def test_fig9_ten_generators(self):
        ideal = edge_ideal(fig9())
        assert len(ideal) == 10
        assert all(g.degree == 2 and g.is_squarefree for g in ideal.gens)

    def test_isolated_vertex_rejected(self):
        g = Graph.from_edges(("x1", "x2", "x3"), [(0, 1)])
        with pytest.raises(UsageError, match="isolated"):
            edge_ideal(g)


class TestPowerIndexAndFactorization:
    def test_single_edge_cubed(self):
        assert power_index(Graph.single_edge(), (3, 3)) == 3
        ideal = edge_ideal(Graph.single_edge())
        x33 = Monomial(ideal.vset, (3, 3))
        assert ideal.power(3).contains(x33)
        assert not ideal.power(4).contains(x33)

    def test_triangle_ones(self):
        assert power_index(Graph.cycle(3), (1, 1, 1)) == 1

    def test_fig9_closure_witness_power(self):
        assert power_index(fig9(), (1, 1, 1, 0, 1, 1, 1, 1, 1)) == 3

    def test_factorization_triangle(self):
        cert = factor_by_matching(Graph.cycle(3), (1, 1, 1))
        assert cert.matched_degree == 1 and cert.delta.degree == 1

    def test_factorization_parallel_edge(self):
        cert = factor_by_matching(Graph.single_edge(), (3, 3))
        assert cert.edge_multiplicities == (3,)
        assert cert.delta.degree == 0

    def test_factorization_fig7(self):
        cert = factor_by_matching(fig7(), (1,) * 6)
        assert cert.matched_degree == 2 and cert.delta.degree == 2

    def test_edge_subring_membership(self):
        assert edge_subring_member(Graph.single_edge(), (3, 3))
        assert not edge_subring_member(Graph.cycle(3), (1, 1, 1))
        assert edge_subring_member(Graph.cycle(3), (2, 2, 2))

    def test_membership_coherence_exhaustive_small(self):
        for g in connected_graphs(2, 3):
            ideal = edge_ideal(g)
            powers = [ideal.power(k) for k in range(1, 5)]
            for a in iter_product(range(3), repeat=g.n):
                nu = power_index(g, a)
                x_a = Monomial(ideal.vset, a)
                for k in range(1, 5):
                    assert powers[k - 1].contains(x_a) == (k <= nu)
