"""Simple graphs, parallelizations, and exact matching invariants.

The matching number is computed by Edmonds' blossom algorithm (augmenting
paths with cycle contraction) seeded by a greedy matching over the canonical
edge order, so results and certificates are deterministic. Parallelized
graphs keep their (vertex, copy) structure so copy-relabeling comparisons
stay exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError, UsageError
from .linalg import integer_rank
from .monomials import Monomial, MonomialIdeal, VariableSet

Edge = tuple[int, int]


def _canonical_edges(edges: Iterable[Sequence[int]]) -> tuple[Edge, ...]:
    seen = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise UsageError(f"loop at vertex index {u}")
        seen.add((min(u, v), max(u, v)))
    return tuple(sorted(seen))


@dataclass(frozen=True)
class Graph:
    """A finite simple graph with labeled vertices."""

    labels: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise UsageError("vertex labels must be distinct")
        if self.edges != _canonical_edges(self.edges):
            raise UsageError("edges must be canonical (sorted index pairs)")
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise UsageError(f"edge ({u},{v}) out of range")

    @classmethod
    def from_edges(
        cls, labels: Sequence[str], edges: Iterable[Sequence[int]]
    ) -> Graph:
        return cls(tuple(labels), _canonical_edges(edges))

    @classmethod
    def from_labeled_edges(cls, pairs: Iterable[tuple[str, str]]) -> Graph:
        """Vertices appear in first-occurrence order."""
        labels: list[str] = []
        index: dict[str, int] = {}
        edges = []
        for a, b in pairs:
            for name in (a, b):
                if name not in index:
                    index[name] = len(labels)
                    labels.append(name)
            edges.append((index[a], index[b]))
        return cls.from_edges(labels, edges)

    @classmethod
    def cycle(cls, n: int, prefix: str = "x") -> Graph:
        labels = [f"{prefix}{i}" for i in range(1, n + 1)]
        return cls.from_edges(labels, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int, prefix: str = "x") -> Graph:
        labels = [f"{prefix}{i}" for i in range(1, n + 1)]
        return cls.from_edges(labels, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def complete_bipartite(cls, a: int, b: int, prefix: str = "x") -> Graph:
        labels = [f"{prefix}{i}" for i in range(1, a + b + 1)]
        return cls.from_edges(labels, [(i, a + j) for i in range(a) for j in range(b)])

    @classmethod
    def single_edge(cls) -> Graph:
        return cls.from_edges(("x1", "x2"), [(0, 1)])

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def has_isolated_vertices(self) -> bool:
        return any(d == 0 for d in self.degrees)

    def edge_index(self) -> dict[Edge, int]:
        return {e: i for i, e in enumerate(self.edges)}

    def component_indices(self) -> list[list[int]]:
        """Vertex index lists of the connected components, in discovery order."""
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            comp = []
            queue = deque([start])
            seen[start] = True
            while queue:
                v = queue.popleft()
                comp.append(v)
                for w in self.adjacency[v]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
            comps.append(sorted(comp))
        return comps

    def subgraph(self, vertices: Sequence[int]) -> Graph:
        keep = sorted(set(vertices))
        remap = {v: i for i, v in enumerate(keep)}
        edges = [
            (remap[u], remap[v]) for u, v in self.edges if u in remap and v in remap
        ]
        return Graph.from_edges([self.labels[v] for v in keep], edges)

    def components(self) -> list[Graph]:
        return [self.subgraph(c) for c in self.component_indices()]

    def is_bipartite(self) -> bool:
        color = [-1] * self.n
        for start in range(self.n):
            if color[start] != -1:
                continue
            color[start] = 0
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for w in self.adjacency[v]:
                    if color[w] == -1:
                        color[w] = 1 - color[v]
                        queue.append(w)
                    elif color[w] == color[v]:
                        return False
        return True

    def odd_girth(self) -> int | None:
        """Length of a shortest odd cycle; None when bipartite."""
        best: int | None = None
        for start in range(self.n):
            dist = [-1] * self.n
            dist[start] = 0
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for w in self.adjacency[v]:
                    if dist[w] == -1:
                        dist[w] = dist[v] + 1
                        queue.append(w)
            for u, v in self.edges:
                if dist[u] != -1 and dist[u] == dist[v]:
                    length = 2 * dist[u] + 1
                    if best is None or length < best:
                        best = length
        return best

    def leaf_count(self) -> int:
        return sum(1 for d in self.degrees if d == 1)

    def __str__(self) -> str:
        pairs = ", ".join(f"{self.labels[u]}{self.labels[v]}" for u, v in self.edges)
        return f"Graph[{pairs}]"


def disjoint_union(a: Graph, b: Graph) -> Graph:
    if set(a.labels) & set(b.labels):
        raise UsageError("disjoint union requires distinct vertex labels")
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return Graph.from_edges(a.labels + b.labels, edges)


# ---------------------------------------------------------------------------
# maximum matching (Edmonds blossom)
# ---------------------------------------------------------------------------


def _greedy_matching(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    return match


def _blossom_matching(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    """Partner array of a maximum matching (-1 for exposed vertices)."""
    match = _greedy_matching(n, adj)
    parent = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        on_path = [False] * n
        while True:
            a = base[a]
            on_path[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if on_path[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting_path(root: int) -> bool:
        nonlocal parent, base
        used = [False] * n
        parent = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    cur_base = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, cur_base, to, in_blossom)
                    mark_path(to, cur_base, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur_base
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv = parent[u]
                            next_u = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = next_u
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_augmenting_path(v)
    return match


@dataclass(frozen=True)
class MatchingCertificate:
    """A maximum matching witness: pairwise disjoint edges by vertex label."""

    pairs: tuple[tuple[str, str], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)

    @property
    def covered(self) -> frozenset[str]:
        return frozenset(v for pair in self.pairs for v in pair)

    def validate(self) -> None:
        if len(self.covered) != 2 * len(self.pairs):
            raise AssertionError("matching edges are not pairwise disjoint")


def maximum_matching(graph: Graph) -> MatchingCertificate:
    match = _blossom_matching(graph.n, graph.adjacency)
    pairs = tuple(
        sorted(
            (graph.labels[v], graph.labels[match[v]])
            for v in range(graph.n)
            if match[v] > v
        )
    )
    cert = MatchingCertificate(pairs)
    cert.validate()
    return cert


def matching_number(graph: Graph) -> int:
    return maximum_matching(graph).size


def deficiency(graph: Graph) -> int:
    """Number of vertices left uncovered by any maximum matching."""
    return graph.n - 2 * matching_number(graph)


def has_perfect_matching(graph: Graph) -> bool:
    return deficiency(graph) == 0


# subsets per vectorized block of the Berge and Tutte sweeps: the kernel's
# arrays are (n, block), so memory stays O(n * 4096) whatever n is
_SUBSET_BLOCK = 1 << 12


def _odd_component_counts(graph: Graph, lo: int, hi: int) -> np.ndarray:
    """Odd components of graph minus S, for each vertex bitmask S in [lo, hi).

    Vertex labels live in one (n, hi - lo) int16 array whose column j is
    G - S for S = lo + j. Each surviving vertex starts with its own index and
    every removed vertex with n; sweeps over the edges lower each end to the
    other's label until nothing changes, so every component ends up labeled
    by its smallest vertex. A removed vertex is penalized by n in both
    directions: it neither takes nor passes a label.
    """
    n = graph.n
    masks = np.arange(lo, hi, dtype=np.int64)
    penalty = np.array([(masks >> v) & 1 for v in range(n)], dtype=np.int16)
    penalty = penalty.reshape(n, len(masks)) * np.int16(n)
    labels = np.maximum(penalty, np.arange(n, dtype=np.int16)[:, None])
    scratch = np.empty(len(masks), dtype=np.int16)
    sweep = list(graph.edges) + [(v, u) for u, v in reversed(graph.edges)]
    while True:
        before = labels.copy()
        for u, v in sweep:
            np.add(labels[v], penalty[u], out=scratch)
            np.minimum(labels[u], scratch, out=labels[u])
        if np.array_equal(before, labels):
            break
    odd = np.zeros(len(masks), dtype=np.int64)
    for root in range(n):
        odd += np.count_nonzero(labels == root, axis=0) & 1
    return odd


def _odd_component_count(graph: Graph, removed: int) -> int:
    """Number of odd components of graph minus the vertex bitmask `removed`."""
    return int(_odd_component_counts(graph, removed, removed + 1)[0])


def _surplus_blocks(graph: Graph) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, odd(G - S) - |S| for S in [lo, lo + block)) over all vertex subsets."""
    total = 1 << graph.n
    for lo in range(0, total, _SUBSET_BLOCK):
        hi = min(lo + _SUBSET_BLOCK, total)
        masks = np.arange(lo, hi, dtype=np.int64)
        sizes = sum((masks >> v) & 1 for v in range(graph.n))
        yield lo, _odd_component_counts(graph, lo, hi) - sizes


def berge_deficiency(graph: Graph, cap: int = 16) -> tuple[int, frozenset[str]]:
    """max over S of (odd components of G minus S) - |S|, with an argmax witness.

    Exhaustive over all vertex subsets, in vectorized blocks, so refuses above
    `cap` vertices. The witness is the first maximizing subset in mask order.
    """
    if graph.n > cap:
        raise BudgetExceededError(
            f"berge_deficiency is exhaustive over 2^{graph.n} subsets; "
            f"cap is {cap} vertices (use deficiency() instead, or raise the cap)"
        )
    best = None
    best_mask = 0
    for lo, values in _surplus_blocks(graph):
        j = int(np.argmax(values))
        if best is None or values[j] > best:
            best = int(values[j])
            best_mask = lo + j
    witness = frozenset(
        graph.labels[v] for v in range(graph.n) if best_mask & (1 << v)
    )
    assert best is not None
    return best, witness


def tutte_condition_holds(graph: Graph, cap: int = 16) -> bool:
    """Whether every vertex subset S leaves at most |S| odd components."""
    if graph.n > cap:
        raise BudgetExceededError(f"exhaustive Tutte check capped at {cap} vertices")
    return not any((values > 0).any() for _, values in _surplus_blocks(graph))


# ---------------------------------------------------------------------------
# parallelization
# ---------------------------------------------------------------------------

CopyVertex = tuple[int, int]  # (base vertex index, copy number >= 1)


@dataclass(frozen=True)
class ParallelGraph:
    """The graph obtained by deleting multiplicity-0 vertices and duplicating
    vertex i to multiplicity[i] copies, joining copies of adjacent vertices."""

    base: Graph
    multiplicity: tuple[int, ...]

    def __post_init__(self):
        if len(self.multiplicity) != self.base.n:
            raise UsageError("multiplicity length must equal vertex count")
        if any(m < 0 for m in self.multiplicity):
            raise UsageError("multiplicities must be non-negative")

    @cached_property
    def vertices(self) -> tuple[CopyVertex, ...]:
        return tuple(
            (i, c)
            for i in range(self.base.n)
            for c in range(1, self.multiplicity[i] + 1)
        )

    @cached_property
    def edge_set(self) -> frozenset[tuple[CopyVertex, CopyVertex]]:
        out = set()
        for i, j in self.base.edges:
            for s in range(1, self.multiplicity[i] + 1):
                for t in range(1, self.multiplicity[j] + 1):
                    out.add(((i, s), (j, t)))
        return frozenset(out)

    @property
    def n(self) -> int:
        return sum(self.multiplicity)

    def copy_label(self, v: CopyVertex) -> str:
        return f"{self.base.labels[v[0]]}^{v[1]}"

    @cached_property
    def flat(self) -> Graph:
        """The same graph with plain string labels name^copy."""
        index = {v: k for k, v in enumerate(self.vertices)}
        edges = [(index[u], index[v]) for u, v in self.edge_set]
        return Graph.from_edges([self.copy_label(v) for v in self.vertices], edges)


def parallelize(graph: Graph, multiplicity: Sequence[int]) -> ParallelGraph:
    return ParallelGraph(graph, tuple(int(m) for m in multiplicity))


def duplicate_edge(graph: Graph, edge: tuple[int, int]) -> ParallelGraph:
    """Duplicate both endpoints of an existing edge (multiplicity 1+e_i+e_j)."""
    e = (min(edge), max(edge))
    if e not in graph.edges:
        raise UsageError(f"({graph.labels[e[0]]},{graph.labels[e[1]]}) is not an edge")
    mult = [1] * graph.n
    mult[e[0]] += 1
    mult[e[1]] += 1
    return parallelize(graph, mult)


def duplicate_copy_edge(
    pg: ParallelGraph, copy_edge: tuple[CopyVertex, CopyVertex]
) -> frozenset[tuple[CopyVertex, CopyVertex]]:
    """Edge set of the parallel graph after duplicating both ends of one of its
    edges, with the duplicate of base vertex i labeled (i, multiplicity[i]+1).

    Built from the duplication rule alone, so it can be compared against the
    one-step parallelization with incremented multiplicities.
    """
    x, y = copy_edge
    key = frozenset({x, y})
    if not any(frozenset(e) == key for e in pg.edge_set):
        raise UsageError("copy edge not present in the parallelized graph")
    adjacency: dict[CopyVertex, set[CopyVertex]] = {v: set() for v in pg.vertices}
    for u, v in pg.edge_set:
        adjacency[u].add(v)
        adjacency[v].add(u)
    x_dup = (x[0], pg.multiplicity[x[0]] + 1)
    y_dup = (y[0], pg.multiplicity[y[0]] + 1)
    edges = {frozenset(e) for e in pg.edge_set}
    edges |= {frozenset({x_dup, w}) for w in adjacency[x]}
    # y is duplicated second, so its copy also sees x's fresh duplicate
    neighbors_of_y = adjacency[y] | ({x_dup} if x in adjacency[y] else set())
    edges |= {frozenset({y_dup, w}) for w in neighbors_of_y}
    return frozenset(tuple(sorted(e)) for e in edges)


def parallel_edge_set_canonical(pg: ParallelGraph) -> frozenset:
    return frozenset(tuple(sorted(e)) for e in pg.edge_set)


# ---------------------------------------------------------------------------
# graph <-> ideal bridge
# ---------------------------------------------------------------------------


def edge_ideal(graph: Graph) -> MonomialIdeal:
    """The ideal generated by x_i*x_j over the edges of the graph."""
    if graph.n == 0 or graph.has_isolated_vertices():
        isolated = [graph.labels[v] for v, d in enumerate(graph.degrees) if d == 0]
        raise UsageError(
            "edge ideals require every vertex to occur in at least one edge; "
            f"isolated: {', '.join(isolated) or '(empty graph)'}"
        )
    vset = VariableSet(graph.labels)
    rows = []
    for u, v in graph.edges:
        e = [0] * graph.n
        e[u] = 1
        e[v] = 1
        rows.append(tuple(e))
    return MonomialIdeal.from_exponents(vset, rows)


def incidence_rank(graph: Graph) -> int:
    """Exact rank over the rationals of the vertex-edge incidence matrix."""
    if not graph.edges:
        return 0
    matrix = [[0] * len(graph.edges) for _ in range(graph.n)]
    for col, (u, v) in enumerate(graph.edges):
        matrix[u][col] = 1
        matrix[v][col] = 1
    return integer_rank(matrix)


def power_index(graph: Graph, multiplicity: Sequence[int]) -> int:
    """The matching number of the parallelization; x^a lies in exactly the
    powers I(G)^k with k at most this value."""
    return matching_number(parallelize(graph, multiplicity).flat)


@dataclass(frozen=True)
class FactorizationCertificate:
    """A factorization x^a = x^delta * (product of edge monomials)^c."""

    delta: Monomial
    edge_multiplicities: tuple[int, ...]

    @property
    def matched_degree(self) -> int:
        return sum(self.edge_multiplicities)


def factor_by_matching(graph: Graph, multiplicity: Sequence[int]) -> FactorizationCertificate:
    """Factor x^a into edges along a maximum matching of the parallelization,
    leaving a deficiency-degree remainder."""
    a = tuple(int(m) for m in multiplicity)
    pg = parallelize(graph, a)
    match_pairs = maximum_matching(pg.flat).pairs
    label_to_copy = {pg.copy_label(v): v for v in pg.vertices}
    counts = [0] * len(graph.edges)
    index = graph.edge_index()
    used = [0] * graph.n
    for la, lb in match_pairs:
        (i, _), (j, _) = label_to_copy[la], label_to_copy[lb]
        counts[index[(min(i, j), max(i, j))]] += 1
        used[i] += 1
        used[j] += 1
    delta = tuple(a[i] - used[i] for i in range(graph.n))
    if any(d < 0 for d in delta):
        raise AssertionError("matching used a vertex beyond its multiplicity")
    cert = FactorizationCertificate(
        Monomial(VariableSet(graph.labels), delta), tuple(counts)
    )
    # the factorization must reproduce x^a exactly
    rebuilt = list(cert.delta.exps)
    for e_idx, c in enumerate(cert.edge_multiplicities):
        u, v = graph.edges[e_idx]
        rebuilt[u] += c
        rebuilt[v] += c
    if tuple(rebuilt) != a:
        raise AssertionError("factorization does not reproduce the exponent vector")
    return cert


def edge_subring_member(graph: Graph, multiplicity: Sequence[int]) -> bool:
    """Whether x^a is a product of edge monomials, i.e. the parallelization
    has a perfect matching."""
    a = tuple(int(m) for m in multiplicity)
    return sum(a) == 2 * power_index(graph, a)


# ---------------------------------------------------------------------------
# corpus enumeration and sampling
# ---------------------------------------------------------------------------


def connected_graphs(min_vertices: int = 2, max_vertices: int = 5) -> Iterator[Graph]:
    """All labeled connected graphs on min..max vertices (no isolated vertices)."""
    from itertools import combinations

    for n in range(min_vertices, max_vertices + 1):
        labels = tuple(f"x{i}" for i in range(1, n + 1))
        all_edges = list(combinations(range(n), 2))
        for mask in range(1 << len(all_edges)):
            edges = [e for k, e in enumerate(all_edges) if mask & (1 << k)]
            if len(edges) < n - 1:
                continue
            g = Graph.from_edges(labels, edges)
            if g.has_isolated_vertices():
                continue
            if len(g.component_indices()) == 1:
                yield g


def sample_graphs(
    count: int, vertex_range: tuple[int, int], seed: int, edge_prob: float = 0.4
) -> list[Graph]:
    """Seeded random graphs with isolated vertices repaired by pendant edges."""
    import random

    lo, hi = vertex_range
    # one vertex leaves the isolated-vertex repair nothing to join
    if not 2 <= lo <= hi:
        raise UsageError(f"vertex range must satisfy 2 <= lo <= hi, got {vertex_range}")
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(lo, hi)
        labels = tuple(f"x{i}" for i in range(1, n + 1))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < edge_prob
        ]
        g = Graph.from_edges(labels, edges)
        for v, d in enumerate(g.degrees):
            if d == 0:
                w = rng.choice([u for u in range(n) if u != v])
                edges.append((min(v, w), max(v, w)))
                g = Graph.from_edges(labels, edges)
        if not g.edges:
            continue
        out.append(g)
    return out
