"""Graphs, matchings, parallelizations, and the graph-ideal bridge."""

import hashlib
import random
import tracemalloc
from collections import Counter
from itertools import combinations, product as iter_product

import networkx as nx
import numpy as np
import pytest

from edge_ideal_lab import graphs
from edge_ideal_lab.errors import BudgetExceededError, UsageError, bounded
from edge_ideal_lab.fixtures import fig7, fig9, graph_catalog
from edge_ideal_lab.graphs import (
    _LOW_VERTICES,
    Graph,
    ParallelGraph,
    _berge_bound,
    _odd_component_blocks,
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
    parallelize,
    power_index,
    sample_graphs,
)
from edge_ideal_lab.monomials import Monomial

CATALOG = graph_catalog()


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
        assert matching_number(CATALOG["K33"]) == 3
        assert has_perfect_matching(CATALOG["K33"])

    def test_certificate_validates(self):
        cert = maximum_matching(fig9())
        assert len({v for pair in cert.pairs for v in pair}) == 2 * cert.size
        assert cert.size == 4

    def test_blossom_against_brute_force_exhaustive(self):
        for g in connected_graphs(2, 4):
            assert matching_number(g) == brute_force_matching_number(g), str(g)

    def test_blossom_against_brute_force_sampled(self):
        for g in sample_graphs(25, (5, 7), seed=7):
            assert matching_number(g) == brute_force_matching_number(g), str(g)

    def test_odd_cycles_need_blossoms(self):
        # two triangles joined by a path defeat greedy augmenting without contraction
        g = Graph.from_edges(
            ("a1", "a2", "a3", "b3", "b1", "b2"),
            [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5), (5, 3), (4, 3)],
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
        for g in (CATALOG[name] for name in ("E1", "C3", "C4", "FIG7", "K33")):
            value, witness = berge_deficiency(g)
            assert value == deficiency(g)

    def test_berge_fig7_named_witness(self):
        g = fig7()
        value, _ = berge_deficiency(g)
        assert value == 2
        s_34 = {g.labels.index("x3"), g.labels.index("x4")}
        assert g.n - 2 * _berge_bound(g, (1,) * g.n, s_34) == 2

    def test_berge_single_edge_and_triangle(self):
        assert berge_deficiency(Graph.single_edge())[0] == 0
        value, witness = berge_deficiency(Graph.cycle(3))
        assert value == 1 and witness == frozenset()

    def test_berge_charges_the_box_cap(self):
        # n * 2^n cells per sweep: one cell less refuses, and 17 vertices fit
        # the default cap
        big, cells = Graph.path(17), 17 << 17
        with bounded(box_cells=cells - 1):
            with pytest.raises(BudgetExceededError, match=f"Berge sweep needs {cells}"):
                berge_deficiency(big)
            with pytest.raises(BudgetExceededError, match="Berge sweep"):
                kernel_counts(big)
        with bounded(box_cells=cells):
            assert berge_deficiency(big)[0] == deficiency(big)
        assert berge_deficiency(big)[0] == deficiency(big)

    def test_tutte_iff_perfect_matching(self):
        # Tutte's condition is Berge's formula at value 0
        for g in (CATALOG[name] for name in ("E1", "C3", "C4", "FIG7", "K33")):
            assert (berge_deficiency(g)[0] == 0) == has_perfect_matching(g)


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


def reference_berge(
    g: Graph, odd_counts: list[int] | None = None
) -> tuple[int, frozenset[str]]:
    """(max of odd - |S|, the first maximizing S in mask order), from the
    flood-fill counts, computed here unless given."""
    if odd_counts is None:
        odd_counts = reference_odd_counts(g)
    values = [odd - bin(mask).count("1") for mask, odd in enumerate(odd_counts)]
    best = max(values)
    mask = values.index(best)
    return best, frozenset(g.labels[v] for v in range(g.n) if mask >> v & 1)


def reference_labels(g: Graph, kept: int) -> list[int]:
    """Each vertex of G[kept] labeled by the least vertex of its component,
    each vertex outside the bitmask `kept` by n, by flood fill."""
    labels = [g.n] * g.n
    for start in range(g.n):
        if kept >> start & 1 and labels[start] == g.n:
            labels[start], frontier = start, [start]
            while frontier:
                for w in g.adjacency[frontier.pop()]:
                    if kept >> w & 1 and labels[w] == g.n:
                        labels[w] = start
                        frontier.append(w)
    return labels


def kernel_graphs() -> list[Graph]:
    """Every connected graph on 2..5 vertices, the catalog graphs up to six
    vertices, and seeded graphs up to twelve."""
    small = [g for g in graph_catalog().values() if g.n <= 6]
    return list(connected_graphs(2, 5)) + small + sample_graphs(6, (7, 12), seed=11)


def kernel_counts(g: Graph) -> list[int]:
    """The kernel's odd counts for every mask, its blocks checked to tile
    [0, 2^n) in mask order."""
    blocks = list(_odd_component_blocks(g))
    starts = [lo for lo, _ in blocks]
    assert starts == [0, *np.cumsum([len(odd) for _, odd in blocks])[:-1]]
    counts = np.concatenate([odd for _, odd in blocks])
    assert counts.dtype == np.int64 and len(counts) == 1 << g.n
    return counts.tolist()


def ones_deficiency(g: Graph, mask: int) -> int:
    """n - 2 * _berge_bound(G, 1, S) for the vertex bitmask S."""
    removed = {v for v in range(g.n) if mask >> v & 1}
    return g.n - 2 * _berge_bound(g, (1,) * g.n, removed)


class TestOddComponentKernel:
    def test_counts_match_reference_flood_fill(self):
        for g in kernel_graphs():
            assert kernel_counts(g) == reference_odd_counts(g), str(g)

    def test_a_merge_labels_by_the_least_vertex(self):
        # adding v to every kept set R below it relabels each component that
        # v joins, and v itself, by the least vertex of the merged component;
        # a column holds 1 << label per vertex, in either word width
        for g, dtype in iter_product(kernel_graphs(), (np.int32, np.int64)):
            for v in range(g.n):
                kept = range(1 << v)
                columns = [[1 << x for x in reference_labels(g, r)] for r in kept]
                bits = np.array(columns, dtype=dtype).T.copy()
                lower = [w for w in g.adjacency[v] if w < v]
                graphs._add_top_vertex(bits, v, lower)
                want = [[1 << x for x in reference_labels(g, r | 1 << v)] for r in kept]
                assert bits.T.tolist() == want, (str(g), v)

    def test_one_mask_read_and_subranges(self):
        # a sub-range of the kernel's counts, and single sets read off the
        # Tutte-Berge bound at a = 1, against the flood fill
        g = sample_graphs(1, (9, 9), seed=5)[0]
        expected = reference_odd_counts(g)
        assert kernel_counts(g)[100:173] == expected[100:173]
        assert [ones_deficiency(g, s) for s in (0, 7, 300, 511)] == [
            expected[s] - bin(s).count("1") for s in (0, 7, 300, 511)
        ]
        # 13 vertices: the second block holds the masks with x13 removed
        g = sample_graphs(1, (13, 13), seed=3)[0]
        assert [lo for lo, _ in _odd_component_blocks(g)] == [0, 1 << _LOW_VERTICES]
        expected = reference_odd_counts(g)
        masks = (0, 4095, 4096, 5000, 8191)
        assert [ones_deficiency(g, s) for s in masks] == [
            expected[s] - bin(s).count("1") for s in masks
        ]

    def test_sixteen_vertex_parallelizations(self):
        # four high vertices, so 16 blocks, on three parallelizations of FIG9
        # that double different vertices
        for a in ((2, 2, 2, 2, 2, 2, 2, 1, 1), (1, 2, 2, 1, 2, 2, 2, 2, 2),
                  (2, 1, 2, 2, 2, 2, 1, 2, 2)):
            flat = parallelize(fig9(), a).flat
            assert flat.n == 16
            expected = reference_odd_counts(flat)
            assert kernel_counts(flat) == expected, a
            assert berge_deficiency(flat) == reference_berge(flat, expected), a

    def test_seventeen_vertices_under_the_default_cap(self):
        g = sample_graphs(1, (17, 17), seed=2, edge_prob=0.2)[0]
        expected = reference_odd_counts(g)
        assert kernel_counts(g) == expected
        assert berge_deficiency(g) == reference_berge(g, expected)

    def test_bound_at_ones_is_odd_components_minus_the_set(self):
        # n - 2 * _berge_bound(G, 1, S) = odd(G - S) - |S| for every S: a
        # component K of G - S leaves |K| // 2 in the bound, and |K| % 2 odd
        cases = list(CATALOG.values()) + sample_graphs(2, (9, 9), seed=5)
        cases += sample_graphs(1, (13, 13), seed=3)
        assert max(g.n for g in cases) == 13
        for g in cases:
            expected = reference_odd_counts(g)
            got = [ones_deficiency(g, s) for s in range(1 << g.n)]
            assert got == [odd - bin(s).count("1") for s, odd in enumerate(expected)]

    def test_bound_at_one_set_needs_no_sweep(self, monkeypatch):
        # past the sweep's 62 vertices and under a zero cap: one BFS
        monkeypatch.setattr(graphs, "_odd_component_blocks", None)
        path = Graph.path(100)
        removed = set(range(2, 100, 3))  # 33 cuts: 33 edges and x100 alone
        with bounded(box_cells=0):
            assert _berge_bound(path, (1,) * 100, removed) == 33 + 33
        assert reference_bound(path, (1,) * 100, removed) == 66

    def test_a_witness_moved_by_one_vertex_is_caught(self, monkeypatch):
        # a planted kernel fault: each set's count reported at the set with
        # x1 toggled, so the sweep's maximizer is one vertex off the set that
        # attains it; the witness check against _berge_bound refuses it
        blocks = graphs._odd_component_blocks

        def toggled(g):
            for lo, odd in blocks(g):
                yield lo, odd[np.arange(len(odd)) ^ 1]

        monkeypatch.setattr(graphs, "_odd_component_blocks", toggled)
        for g in CATALOG.values():
            with pytest.raises(AssertionError, match="witness"):
                berge_deficiency(g)

    def test_berge_value_and_first_witness_match_reference(self):
        for g in kernel_graphs():
            assert berge_deficiency(g) == reference_berge(g), str(g)

    def test_tutte_iff_zero_berge_deficiency(self):
        # Tutte's condition, every S leaving at most |S| odd components, read
        # off the flood-fill reference
        for g in kernel_graphs():
            tutte = all(
                odd <= bin(mask).count("1")
                for mask, odd in enumerate(reference_odd_counts(g))
            )
            assert tutte == (berge_deficiency(g)[0] == 0), str(g)

    def test_several_blocks(self):
        # 2^13 subsets span two blocks; the star's only maximizer {x13} lies
        # in the second, and the seeded graph is checked against the oracle
        assert 13 > _LOW_VERTICES
        star = Graph.from_edges(
            [f"x{i}" for i in range(1, 14)], [(i, 12) for i in range(12)]
        )
        assert berge_deficiency(star) == (11, frozenset({"x13"}))
        # x1 - x13 - x2 beside ten isolated vertices ties S = {} (block one)
        # with S = {x13} (block two) at 11: the first maximizer is kept
        tie = Graph.from_edges([f"x{i}" for i in range(1, 14)], [(0, 12), (1, 12)])
        assert berge_deficiency(tie) == (11, frozenset()) == reference_berge(tie)
        for g in (star, sample_graphs(1, (13, 13), seed=3)[0]):
            assert g.n == 13
            assert berge_deficiency(g) == reference_berge(g), str(g)
            assert (berge_deficiency(g)[0] == 0) == has_perfect_matching(g)

    def test_a_tie_across_high_blocks_keeps_the_first(self):
        # x1, x2 - x13 - x14 - x3, x4 beside eight isolated vertices: S =
        # {x13}, {x14} and {x13, x14} (blocks two, three and four) all reach
        # 10, and every S inside the first block less
        tie = Graph.from_edges(
            [f"x{i}" for i in range(1, 15)],
            [(0, 12), (1, 12), (2, 13), (3, 13), (12, 13)],
        )
        expected = reference_odd_counts(tie)
        assert kernel_counts(tie) == expected
        values = [odd - bin(s).count("1") for s, odd in enumerate(expected)]
        assert max(values[: 1 << _LOW_VERTICES]) < 10
        assert [s >> 12 for s, v in enumerate(values) if v == 10] == [1, 2, 3]
        assert berge_deficiency(tie) == (10, frozenset({"x13"}))
        assert berge_deficiency(tie) == reference_berge(tie, expected)

    def test_thirty_and_thirty_one_vertices(self):
        # the label words are int32 up to 30 vertices, whose absent bit 1 << 30
        # still fits, and int64 from 31 on: the first block of each width
        # against the flood fill
        for n in (30, 31):
            g = sample_graphs(1, (n, n), seed=n, edge_prob=0.1)[0]
            with bounded(box_cells=n << n):
                lo, odd = next(_odd_component_blocks(g))
            assert lo == 0
            for s in range(0, 1 << _LOW_VERTICES, 97):
                sizes = Counter(x for x in reference_labels(g, ~s) if x < n)
                assert odd[s] == sum(c % 2 for c in sizes.values()), (n, s)

    def test_at_most_62_vertices(self):
        # the path on 63 vertices is refused for the width of its label bits,
        # under any cap; on 62 the sweep starts, and a spent deadline stops it
        with bounded(box_cells=10**30):
            with pytest.raises(UsageError, match="62 vertices"):
                berge_deficiency(Graph.path(63))
            with bounded(seconds=0), pytest.raises(BudgetExceededError, match="Berge"):
                berge_deficiency(Graph.path(62))

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
        star = CATALOG["STAR31"]
        assert star.n == 4 and star.leaf_count() == 3

    def test_zero_multiplicity_deletes(self):
        pg = parallelize(Graph.cycle(3), (0, 1, 1))
        assert pg.flat.n == 2 and len(pg.edge_set) == 1
        empty = parallelize(Graph.cycle(3), (0, 0, 0)).flat
        assert empty.n == 0 and matching_number(empty) == 0

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
                assert (
                    duplicate_copy_edge(pg, copy_edge)
                    == parallelize(g, bumped).edge_set
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

    def test_bipartition(self):
        two_parts = Graph.from_edges("abcde", [(0, 1), (1, 2), (3, 4)])
        cases = (
            (CATALOG["K33"], [3, 3]),
            (CATALOG["C4"], [2, 2]),
            (CATALOG["P4"], [2, 2]),
            (two_parts, [3, 2]),
        )
        for g, sizes in cases:
            first, second = g.bipartition()
            assert sorted(first + second) == list(range(g.n))
            assert [len(first), len(second)] == sizes
            assert all((u in first) != (v in first) for u, v in g.edges)
            assert g.is_bipartite()
        assert CATALOG["C5"].bipartition() is None and not CATALOG["C5"].is_bipartite()

    def test_direct_constructor_requires_canonical_edges(self):
        labels = ("a", "b", "c")
        canonical = Graph.from_edges(labels, [(2, 1), (1, 0)])
        assert Graph(labels, ((0, 1), (1, 2))) == canonical
        for edges in (
            ((1, 0),),  # reversed pair
            ((1, 2), (0, 1)),  # unsorted pairs
            ((0, 1), (0, 1)),  # duplicate
            ((1, 1),),  # loop
            ((0, 3),),  # out of range
            ((-1, 0),),
            ([0, 1],),  # not a tuple
            ((0, 0.5),),  # not an index: adjacency could not read it
            ((0, 1.0),),
            ((0, 1, 2),),  # three entries
            ((0,),),
            ((False, True),),  # bools are not vertex indices here
            ((np.int64(0), 1),),  # from_edges converts; the constructor does not
        ):
            with pytest.raises(UsageError):
                Graph(labels, edges)

    def test_from_edges_takes_exactly_two_integer_endpoints(self):
        # no endpoint is rounded or parsed, and no third entry is dropped
        labels = ("a", "b", "c")
        for bad in ((0, 1.7), ("0", "1"), (0, 1, 2), (0,), 5, None):
            with pytest.raises(UsageError, match="an edge is two vertex indices"):
                Graph.from_edges(labels, [bad, (1, 2)])
        # integer types other than int go through operator.index to int
        g = Graph.from_edges(labels, [(np.int64(2), np.uint8(1)), [0, True]])
        assert g.edges == ((0, 1), (1, 2))
        assert all(type(v) is int for e in g.edges for v in e)


def bfs_graphs() -> list[Graph]:
    """The 771-graph corpus, 300 seeded graphs, and 200 disjoint unions of two
    of them with the vertices shuffled, so components interleave."""
    single = list(connected_graphs(2, 5))
    single += sample_graphs(300, (2, 9), 5, edge_prob=0.25)
    rng = random.Random(17)
    unions = []
    for _ in range(200):
        a, b = rng.sample(single, 2)
        n = a.n + b.n
        perm = rng.sample(range(n), n)
        edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
        labels = [f"x{i}" for i in range(1, n + 1)]
        unions.append(Graph.from_edges(labels, [(perm[u], perm[v]) for u, v in edges]))
    return single + unions


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def reference_odd_girth(g: Graph) -> int | None:
    """The shortest (v,0) -> (v,1) path in the bipartite double cover: the
    shortest odd closed walk, whose length is that of a shortest odd cycle."""
    cover = nx.Graph()
    for u, v in g.edges:
        cover.add_edges_from((((u, p), (v, 1 - p)) for p in (0, 1)))
    lengths = [
        nx.single_source_shortest_path_length(cover, (v, 0)).get((v, 1))
        for v in range(g.n)
        if (v, 0) in cover
    ]
    return min((d for d in lengths if d is not None), default=None)


class TestBreadthFirstQueries:
    """The three BFS queries against networkx on the same inputs."""

    @pytest.fixture(scope="class")
    def inputs(self):
        graphs_ = bfs_graphs()
        assert len(graphs_) == 1271
        return [(g, to_networkx(g)) for g in graphs_]

    def test_components(self, inputs):
        for g, h in inputs:
            expected = sorted(sorted(c) for c in nx.connected_components(h))
            assert g.component_indices() == expected, str(g)

    def test_bipartition(self, inputs):
        for g, h in inputs:
            parts = g.bipartition()
            assert (parts is None) == (not nx.is_bipartite(h)), str(g)
            if parts is not None:
                first, second = parts
                assert sorted(first + second) == list(range(g.n)), str(g)
                assert all((u in first) != (v in first) for u, v in g.edges), str(g)
                assert all(min(c) in first for c in nx.connected_components(h))

    def test_odd_girth(self, inputs):
        for g, _ in inputs:
            assert g.odd_girth() == reference_odd_girth(g), str(g)


class TestConnectedGraphs:
    def test_charges_the_edge_masks_of_the_most_vertices(self):
        # 2^10 edge masks on five vertices, charged before the first graph;
        # the 2^28 on eight exceed the default cap
        with bounded(box_cells=1023):
            with pytest.raises(BudgetExceededError, match="corpus needs 1024 cells"):
                next(connected_graphs(2, 5))
        with bounded(box_cells=1024):
            assert len(list(connected_graphs(2, 5))) == 771
        with pytest.raises(BudgetExceededError, match=f"needs {1 << 28} cells"):
            next(connected_graphs(2, 8))
        assert list(connected_graphs(9, 8)) == list(connected_graphs(-3, 1)) == []


class TestSampleGraphs:
    def test_refuses_vertex_ranges_without_an_edge(self):
        # one vertex has no partner for the isolated-vertex repair
        for bad in ((1, 1), (0, 3), (5, 4)):
            with pytest.raises(UsageError, match="vertex range"):
                sample_graphs(1, bad, 0)

    def test_smallest_range_gives_an_edge(self):
        assert sample_graphs(3, (2, 2), 0) == [Graph.single_edge()] * 3

    def test_the_draws_are_pinned(self):
        # 600 graphs on 2-13 vertices at three edge densities, none with an
        # isolated vertex: a change to the draws shows here before it moves
        # the figures of the seeded tests
        digest = hashlib.sha256()
        for seed in range(20):
            prob = (0.05, 0.2, 0.4)[seed % 3]
            for g in sample_graphs(30, (2, 13), seed, edge_prob=prob):
                assert not g.has_isolated_vertices()
                digest.update(repr((g.labels, g.edges)).encode())
        pin = "4d8ea27c143418cf42a7d0e388c6b93df280aa47b9e1dc4e34998bc3c2e9f603"
        assert digest.hexdigest() == pin


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


def labeled_power_index(g: Graph, a) -> int:
    """Reference: the matching number of the labeled parallelization."""
    return matching_number(parallelize(g, a).flat)


class TestPowerIndexFromBlocks:
    """power_index reads G^a from block offsets; the labeled G^a is the reference."""

    def test_small_corpus_exhaustive(self):
        for g in connected_graphs(2, 4):
            for a in iter_product(range(3), repeat=g.n):
                assert power_index(g, a) == labeled_power_index(g, a), (str(g), a)

    def test_seeded_fig9_vectors(self):
        g, rng = fig9(), random.Random(14)
        for _ in range(300):
            a = tuple(rng.randint(0, 3) for _ in range(9))
            assert power_index(g, a) == labeled_power_index(g, a), a

    def test_zero_entries(self):
        g = fig9()
        assert power_index(g, (0,) * 9) == 0 == labeled_power_index(g, (0,) * 9)
        vectors = [
            (0, 1, 1, 0, 0, 0, 0, 0, 0),
            (3, 0, 0, 2, 0, 0, 0, 0, 0),
            (0, 2, 2, 2, 0, 1, 1, 1, 0),
            (2, 2, 0, 2, 2, 0, 2, 2, 0),
        ]
        for a in vectors:
            assert power_index(g, a) == labeled_power_index(g, a), a
        assert power_index(Graph.cycle(3), (0, 0, 2)) == 0
        assert power_index(Graph.cycle(3), (0, 1, 3)) == 1

    def test_same_adjacency_and_partners_as_labeled_graph(self, monkeypatch):
        # only vectors whose greedy b-matching meets no bound reach the
        # blossom, with G^a laid out exactly as the labeled parallelization
        g, rng, runs = fig9(), random.Random(41), []
        blossom = graphs._blossom_matching

        def recording(n, adj):
            match = blossom(n, adj)
            runs.append((n, tuple(adj), match))
            return match

        monkeypatch.setattr(graphs, "_blossom_matching", recording)
        reached = 0
        for _ in range(200):
            a = tuple(rng.randint(0, 3) for _ in range(9))
            flat = parallelize(g, a).flat
            runs.clear()
            power_index(g, a)
            if runs:
                [(n, adj, match)] = runs
                assert (n, adj) == (flat.n, flat.adjacency), a
                assert match == blossom(flat.n, flat.adjacency), a
                reached += 1
        assert reached >= 10, reached

    def test_partner_array_must_be_an_involution(self, monkeypatch):
        # the path x3 - x1 - x2 - x4: the greedy takes x1x2 alone, and both
        # bounds read 2, so power_index runs the blossom
        p4 = Graph.from_edges(("x1", "x2", "x3", "x4"), [(0, 1), (0, 2), (1, 3)])
        assert power_index(p4, (1, 1, 1, 1)) == 2
        monkeypatch.setattr(graphs, "_blossom_matching", lambda n, adj: [1, -1])
        with pytest.raises(AssertionError, match="disjoint"):
            power_index(p4, (1, 1, 1, 1))
        with pytest.raises(AssertionError, match="disjoint"):
            matching_number(Graph.single_edge())
        with pytest.raises(AssertionError, match="disjoint"):
            maximum_matching(Graph.single_edge())
        # the certificate closes (1, 1) on an edge, so the blossom is asked
        # only where it does not
        with pytest.raises(AssertionError, match="disjoint"):
            factor_by_matching(p4, (1, 1, 1, 1))

    def test_input_checks(self):
        with pytest.raises(UsageError, match="length"):
            power_index(fig9(), (1,) * 8)
        with pytest.raises(UsageError, match="non-negative"):
            power_index(fig9(), (1, 1, 1, 1, -1, 1, 1, 1, 1))
        # 1.7 must not be truncated to 1
        with pytest.raises(UsageError, match="integers"):
            power_index(Graph.cycle(3), (1.7, 1, 1))
        with pytest.raises(UsageError, match="integers"):
            parallelize(Graph.cycle(3), (1, 1.0, 1))
        with pytest.raises(UsageError, match="integers"):
            ParallelGraph(Graph.cycle(3), (1.5, 1, 1))
        # the parallelization refuses what power_index refuses, in the same words
        with pytest.raises(UsageError, match="length"):
            parallelize(fig9(), (1,) * 8)
        with pytest.raises(UsageError, match="non-negative"):
            parallelize(Graph.cycle(3), (0, -1, 1))
        assert power_index(Graph.cycle(3), (np.int64(2), 1, 1)) == 2


def blossom_power_index(g: Graph, a) -> int:
    """Reference: the blossom on G^a laid out from block offsets, with no
    greedy certificate."""
    _, start, adj = graphs._parallel_layout(g, a)
    return sum(w > v for v, w in enumerate(graphs._checked_matching(start[-1], adj)))


def reference_bound(g: Graph, a, removed: set[int]) -> int:
    """a(S) plus floor(a(K) / 2) per component K of G[supp a - S] that has an
    edge, by networkx."""
    kept = to_networkx(g).subgraph(v for v in range(g.n) if a[v] and v not in removed)
    parts = [c for c in nx.connected_components(kept) if len(c) > 1]
    return sum(a[v] for v in removed) + sum(sum(a[v] for v in c) // 2 for c in parts)


def corpus_vectors(seed: int) -> list[tuple[Graph, tuple[int, ...]]]:
    """Four seeded vectors with entries 0..4 per corpus graph on 2-5 vertices."""
    rng = random.Random(seed)
    return [
        (g, tuple(rng.randint(0, 4) for _ in range(g.n)))
        for g in connected_graphs(2, 5)
        for _ in range(4)
    ]


def first_bound_fault(cases):
    """The first (graph, a, S) where _berge_bound leaves the networkx count,
    or (graph, a) where its least value over every S is not nu(G^a): for G^a
    that is the Tutte-Berge formula, as the copies of a vertex are twins and
    the Gallai-Edmonds set is a union of whole copy classes."""
    for g, a in cases:
        values = []
        for mask in range(1 << g.n):
            removed = {v for v in range(g.n) if mask >> v & 1}
            values.append(graphs._berge_bound(g, a, removed))
            if values[-1] != reference_bound(g, a, removed):
                return str(g), a, removed
        if min(values) != blossom_power_index(g, a):
            return str(g), a
    return None


def fig9_blossom_runs(monkeypatch) -> int:
    """How many of FIG9's 3^9 vectors in {0,1,2}^9 lay out G^a for the blossom."""
    runs, layout = [], graphs._parallel_layout
    with monkeypatch.context() as patch:
        patch.setattr(graphs, "_parallel_layout", lambda *x: runs.append(1) or layout(*x))
        for a in iter_product(range(3), repeat=9):
            power_index(fig9(), a)
    return len(runs)


class TestPowerIndexCertificate:
    """power_index stops where a greedy b-matching meets _berge_bound; the
    blossom on G^a decides every other vector and is the reference here."""

    def test_fig9_exhaustive_entries_up_to_two(self):
        g = fig9()
        for a in iter_product(range(3), repeat=9):
            assert power_index(g, a) == blossom_power_index(g, a), a

    def test_corpus_seeded_entries_up_to_four(self):
        for g, a in corpus_vectors(31):
            assert power_index(g, a) == blossom_power_index(g, a), (str(g), a)

    def test_bound_over_every_subset(self):
        assert first_bound_fault(corpus_vectors(32)[::3]) is None

    def test_most_fig9_vectors_close_without_the_blossom(self, monkeypatch):
        # a bound that overcounts gives no wrong answer, only more layouts:
        # 17 426 of the 19 683 vectors close by the certificate
        assert fig9_blossom_runs(monkeypatch) == 2257

    def test_factorization_over_fig9_entries_up_to_two(self, monkeypatch):
        # the certificate reads power_index's b-matching; where it reaches
        # the blossom, the labeled G^a is the reference
        g, runs, layout = fig9(), [], graphs._parallel_layout
        monkeypatch.setattr(
            graphs, "_parallel_layout", lambda *x: runs.append(1) or layout(*x)
        )
        reached = 0
        for a in iter_product(range(3), repeat=9):
            runs.clear()
            cert = factor_by_matching(g, a)
            used = [0] * g.n
            for (u, v), c in zip(g.edges, cert.edge_multiplicities):
                used[u] += c
                used[v] += c
            assert all(x <= m for x, m in zip(used, a)), a
            assert cert.matched_degree == power_index(g, a), a
            if runs:
                reached += 1
                assert cert.matched_degree == matching_number(parallelize(g, a).flat), a
        assert reached == 2257

    @pytest.mark.parametrize("planted", ["singleton counted", "a(S) dropped"])
    def test_planted_bound_faults_are_caught(self, planted, monkeypatch):
        bound = graphs._berge_bound

        def faulty(g, a, removed):
            if planted == "a(S) dropped":
                return bound(g, a, removed) - sum(a[v] for v in removed)
            alone = [
                v for v in range(g.n)
                if a[v] and v not in removed
                and all(not a[w] or w in removed for w in g.adjacency[v])
            ]
            return bound(g, a, removed) + sum(a[v] // 2 for v in alone)

        monkeypatch.setattr(graphs, "_berge_bound", faulty)
        assert first_bound_fault(corpus_vectors(32)[::3]) is not None
        assert fig9_blossom_runs(monkeypatch) > 2257


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

    def test_power_index_builds_no_graph(self, monkeypatch):
        g, canonicalized, built = fig9(), [], []
        canonical_edges = graphs._canonical_edges
        post_init = Graph.__post_init__

        def counting_edges(edges):
            canonicalized.append(1)
            return canonical_edges(edges)

        def counting_graphs(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(graphs, "_canonical_edges", counting_edges)
        monkeypatch.setattr(Graph, "__post_init__", counting_graphs)
        assert power_index(g, (2, 1, 1, 0, 1, 1, 1, 1, 1)) == 4
        assert factor_by_matching(g, (2, 1, 1, 0, 1, 1, 1, 1, 1)).matched_degree == 4
        assert canonicalized == [] and built == []

    def test_factorization_triangle(self):
        cert = factor_by_matching(Graph.cycle(3), (1, 1, 1))
        assert cert.matched_degree == 1 and cert.delta.degree == 1

    def test_factorization_parallel_edge(self):
        cert = factor_by_matching(Graph.single_edge(), (3, 3))
        assert cert.edge_multiplicities == (3,)
        assert cert.delta.degree == 0
        # the greedy certificate closes, so G^a is neither laid out nor charged
        with bounded(box_cells=0):
            cert = factor_by_matching(Graph.single_edge(), (10**6, 10**6))
        assert cert.edge_multiplicities == (10**6,)
        assert cert.delta.degree == 0

    def test_factorization_fig7(self):
        cert = factor_by_matching(fig7(), (1,) * 6)
        assert cert.matched_degree == 2 and cert.delta.degree == 2

    def test_factorization_against_labeled_parallelization(self):
        for g in connected_graphs(2, 4):
            for a in iter_product(range(3), repeat=g.n):
                cert = factor_by_matching(g, a)
                nu = matching_number(parallelize(g, a).flat)
                assert cert.matched_degree == nu, (g, a)
                assert cert.delta.degree == sum(a) - 2 * nu, (g, a)

    def test_edge_subring_membership(self):
        assert edge_subring_member(Graph.single_edge(), (3, 3))
        assert not edge_subring_member(Graph.cycle(3), (1, 1, 1))
        assert edge_subring_member(Graph.cycle(3), (2, 2, 2))
        # 1.5 must not be truncated to 1, which would make x1*x2 of (1.5, 1)
        with pytest.raises(UsageError, match="integers"):
            edge_subring_member(Graph.single_edge(), (1.5, 1))
        # the multiplicities are read once, as Python ints: an iterator is
        # not spent before the sum, and uint8 entries do not wrap in it
        assert edge_subring_member(Graph.single_edge(), iter([1, 1]))
        assert edge_subring_member(
            Graph.single_edge(), np.array([200, 200], dtype=np.uint8)
        )

    def test_membership_coherence_exhaustive_small(self):
        for g in connected_graphs(2, 3):
            ideal = edge_ideal(g)
            powers = [ideal.power(k) for k in range(1, 5)]
            for a in iter_product(range(3), repeat=g.n):
                nu = power_index(g, a)
                x_a = Monomial(ideal.vset, a)
                for k in range(1, 5):
                    assert powers[k - 1].contains(x_a) == (k <= nu)
