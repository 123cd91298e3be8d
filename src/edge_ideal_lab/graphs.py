"""Simple graphs, parallelizations, and exact matching invariants.

The matching number is computed by Edmonds' blossom algorithm (augmenting
paths with cycle contraction) seeded by a greedy matching over the canonical
edge order, so results and certificates are deterministic. Parallelized
graphs keep their (vertex, copy) structure so copy-relabeling comparisons
stay exact.
"""

from __future__ import annotations

import operator
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import UsageError, check_box, check_time
from .linalg import integer_rank
from .monomials import Monomial, MonomialIdeal, VariableSet, integers

Edge = tuple[int, int]


def _canonical_edges(edges: Iterable[Sequence[int]]) -> tuple[Edge, ...]:
    seen = set()
    for e in edges:
        try:  # exactly two integer endpoints: no rounding, no dropped entry
            u, v = map(operator.index, e)
        except (TypeError, ValueError):
            raise UsageError(f"an edge is two vertex indices, not {e!r}") from None
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
        # one pass: each edge a tuple of ints 0 <= u < v < n after the last, (0, 0)
        # standing in for anything but a pair
        n, previous = self.n, ()
        for edge in self.edges:
            u, v = edge if type(edge) is tuple and len(edge) == 2 else (0, 0)
            if not (int is type(u) is type(v) and 0 <= u < v < n and previous < edge):
                raise UsageError(f"edges must be sorted index pairs u < v < {n}")
            previous = edge

    @classmethod
    def from_edges(cls, labels: Sequence[str], edges: Iterable[Sequence[int]]) -> Graph:
        return cls(tuple(labels), _canonical_edges(edges))

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

    def _bfs(
        self, starts: Iterable[int], skip: Iterable[int] = ()
    ) -> tuple[list[list[int]], list[int]]:
        """A breadth-first walk of G - skip from each start no earlier one
        reached: each component's vertices in visit order, and each vertex's
        distance from its component's start (-1 unreached, -2 skipped)."""
        dist, adjacency, comps = [-1] * self.n, self.adjacency, []
        for v in skip:
            dist[v] = -2
        for start in starts:
            if dist[start] == -1:
                dist[start] = 0
                comp = [start]
                for v in comp:  # the list is the queue: it grows as it is read
                    for w in adjacency[v]:
                        if dist[w] == -1:
                            dist[w] = dist[v] + 1
                            comp.append(w)
                comps.append(comp)
        return comps, dist

    def component_indices(self) -> list[list[int]]:
        """Vertex index lists of the connected components, in discovery order."""
        return [sorted(comp) for comp in self._bfs(range(self.n))[0]]

    def subgraph(self, vertices: Sequence[int]) -> Graph:
        keep = sorted(set(vertices))
        remap = {v: i for i, v in enumerate(keep)}
        edges = [
            (remap[u], remap[v]) for u, v in self.edges if u in remap and v in remap
        ]
        return Graph.from_edges([self.labels[v] for v in keep], edges)

    def components(self) -> list[Graph]:
        return [self.subgraph(c) for c in self.component_indices()]

    def bipartition(self) -> tuple[list[int], list[int]] | None:
        """The two colour classes of a BFS 2-colouring (each component's first
        vertex in the first class), or None when the graph has an odd cycle."""
        # an edge joins BFS layers at most one apart: same parity, same layer
        dist = self._bfs(range(self.n))[1]
        if any(dist[u] == dist[v] for u, v in self.edges):
            return None
        return (
            [v for v in range(self.n) if dist[v] % 2 == 0],
            [v for v in range(self.n) if dist[v] % 2 == 1],
        )

    def is_bipartite(self) -> bool:
        return self.bipartition() is not None

    def odd_girth(self) -> int | None:
        """Length of a shortest odd cycle; None when bipartite."""
        lengths = [
            2 * dist[u] + 1
            for start in range(self.n)
            for dist in [self._bfs([start])[1]]
            for u, v in self.edges
            if dist[u] != -1 and dist[u] == dist[v]
        ]
        return min(lengths, default=None)

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
    """Partner array of a maximum matching (-1 for exposed vertices); reads
    the deadline before each augmenting search."""
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
            check_time("the blossom matching")
            find_augmenting_path(v)
    return match


@dataclass(frozen=True)
class MatchingCertificate:
    """A maximum matching witness: pairwise disjoint edges by vertex label."""

    pairs: tuple[tuple[str, str], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)


def _checked_matching(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    """Blossom partner array, checked to be an involution."""
    match = _blossom_matching(n, adj)
    if any(w != -1 and match[w] != v for v, w in enumerate(match)):
        raise AssertionError("matching edges are not pairwise disjoint")
    return match


def maximum_matching(graph: Graph) -> MatchingCertificate:
    match, labels = _checked_matching(graph.n, graph.adjacency), graph.labels
    return MatchingCertificate(
        tuple(sorted((labels[v], labels[w]) for v, w in enumerate(match) if w > v))
    )


def _matching_size(n: int, adj: Sequence[Sequence[int]]) -> int:
    return sum(w > v for v, w in enumerate(_checked_matching(n, adj)))


def matching_number(graph: Graph) -> int:
    return _matching_size(graph.n, graph.adjacency)


def deficiency(graph: Graph) -> int:
    """Number of vertices left uncovered by any maximum matching."""
    return graph.n - 2 * matching_number(graph)


def has_perfect_matching(graph: Graph) -> bool:
    return deficiency(graph) == 0


# the low vertices of the Berge sweep: their 2^12 subsets make one block, and
# the kernel's arrays are (n, block), so memory stays O(n * 4096) whatever n is
_LOW_VERTICES = 12


def _add_top_vertex(bits: np.ndarray, v: int, lower: list[int]) -> None:
    """Put vertex v, above every present vertex, into each column's kept set.

    A column holds 1 << label per vertex: each component is labeled by its
    least vertex, each absent vertex by n. The components that touch v's
    lower neighbours `lower` merge with v and take the least of their labels,
    or v when there is none. Works in place, with one boolean temporary."""
    n, width = bits.shape
    touched = np.full(width, 1 << v, dtype=bits.dtype)
    for w in lower:
        touched |= bits[w]
    touched &= ~(1 << n)  # an absent neighbour touches nothing
    merged = touched & -touched  # the lowest bit
    below = bits[:v]
    # a single bit b is in touched exactly when b ^ touched < touched
    below ^= touched
    hit = below < touched
    below ^= touched
    np.copyto(below, merged, where=hit)
    bits[v] = merged


def _odd_component_blocks(graph: Graph) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, odd) per block of vertex bitmasks S in [lo, lo + len(odd)), in
    mask order: odd[j] is the number of odd components of G - S, S = lo + j.

    A subset DP over kept sets R = V - S. The labels of G[R] (each component
    by its least vertex) are built once for every R of the low 12 vertices,
    adding vertices in increasing order, each by one merge with the labels of
    R minus its top vertex, and kept as one byte per vertex. A block fixes
    the high vertices of S, and extends that table by one merge per high
    vertex it keeps. odd(G[R]) is the popcount of the XOR of 1 << label over
    the vertices: a component sets its label's bit when its size is odd, and
    the bit n of the absent vertices is masked off. The columns are int32
    while that bit fits one (n <= 30), else int64. It charges n * 2^n cells,
    and reads the deadline before the table and before each block.
    """
    n = graph.n
    if n > 62:  # the bit 1 << n of an absent vertex fits an int64
        raise UsageError(f"the Berge sweep takes at most 62 vertices, got {n}")
    check_box(n << n, "Berge sweep")
    low = min(n, _LOW_VERTICES)
    lower = [[w for w in graph.adjacency[v] if w < v] for v in range(n)]
    check_time("the Berge sweep")
    dtype = np.int32 if n <= 30 else np.int64
    bits = np.full((n, 1 << low), 1 << n, dtype=dtype)
    for v in range(low):
        bits[:, 1 << v : 2 << v] = bits[:, : 1 << v]
        _add_top_vertex(bits[:, 1 << v : 2 << v], v, lower[v])
    # S = lo + j keeps the low vertices of mask 2^low - 1 - j; (1 << label) - 1
    # has label ones, so the table holds the labels as uint8
    bits -= 1
    table = np.bitwise_count(bits[:, ::-1])
    for high in range(1 << (n - low)):
        check_time("the Berge sweep")
        np.left_shift(dtype(1), table, out=bits)
        for v in range(low, n):
            if not high >> (v - low) & 1:
                _add_top_vertex(bits, v, lower[v])
        parity = np.bitwise_xor.reduce(bits, axis=0) & ~(1 << n)
        yield high << low, np.bitwise_count(parity).astype(np.int64)


def berge_deficiency(graph: Graph) -> tuple[int, frozenset[str]]:
    """max over S of (odd components of G minus S) - |S|, with an argmax witness.

    Exhaustive over all vertex subsets, in vectorized blocks of the subset DP
    of _odd_component_blocks: it charges n * 2^n cells to the box cap, refuses
    above 62 vertices under any cap and reads the deadline once per block. The
    witness is the first maximizing subset in mask order, checked against its
    Tutte-Berge bound: n - 2 * _berge_bound(G, 1, S) = odd(G - S) - |S|.
    """
    best, best_mask = None, 0
    for lo, odd in _odd_component_blocks(graph):
        masks = np.arange(lo, lo + len(odd), dtype=np.int64)
        values = odd - np.bitwise_count(masks)  # odd(G - S) - |S|
        j = int(np.argmax(values))
        if best is None or values[j] > best:
            best, best_mask = int(values[j]), lo + j
    removed = {v for v in range(graph.n) if best_mask >> v & 1}
    if graph.n - 2 * _berge_bound(graph, (1,) * graph.n, removed) != best:
        raise AssertionError(f"Berge witness {removed} does not reach {best}")
    return best, frozenset(graph.labels[v] for v in removed)


# ---------------------------------------------------------------------------
# parallelization
# ---------------------------------------------------------------------------

CopyVertex = tuple[int, int]  # (base vertex index, copy number >= 1)


def _multiplicities(graph: Graph, multiplicity: Sequence[int]) -> tuple[int, ...]:
    """The multiplicities as Python ints, one per vertex, none negative."""
    a = integers(multiplicity)
    if len(a) != graph.n:
        raise UsageError("multiplicity length must equal vertex count")
    if min(a, default=0) < 0:
        raise UsageError("multiplicities must be non-negative")
    return a


def _charge_copies(graph: Graph, a: tuple[int, ...]) -> None:
    """Charge a layout of G^a to the box cap: a cell per copy and per copy edge."""
    check_box(sum(a) + sum(a[u] * a[v] for u, v in graph.edges), "G^a layout")


@dataclass(frozen=True)
class ParallelGraph:
    """The graph obtained by deleting multiplicity-0 vertices and duplicating
    vertex i to multiplicity[i] copies, joining copies of adjacent vertices.
    Construction charges its copies and copy edges to the box cap."""

    base: Graph
    multiplicity: tuple[int, ...]

    def __post_init__(self):
        a = _multiplicities(self.base, self.multiplicity)
        _charge_copies(self.base, a)
        object.__setattr__(self, "multiplicity", a)

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

    @cached_property
    def flat(self) -> Graph:
        """The same graph with plain string labels name^copy."""
        index = {v: k for k, v in enumerate(self.vertices)}
        edges = [(index[u], index[v]) for u, v in self.edge_set]
        labels = [f"{self.base.labels[i]}^{c}" for i, c in self.vertices]
        return Graph.from_edges(labels, edges)


def parallelize(graph: Graph, multiplicity: Sequence[int]) -> ParallelGraph:
    return ParallelGraph(graph, multiplicity)


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


def _parallel_layout(
    graph: Graph, multiplicity: Sequence[int]
) -> tuple[tuple[int, ...], list[int], list[tuple[int, ...]]]:
    """G^a without labels: the multiplicities, block offsets and adjacency.

    Copy c of vertex i is start[i] + c - 1 and all copies of i share the blocks
    of i's neighbours: G^a.flat's adjacency, tuple for tuple."""
    a = _multiplicities(graph, multiplicity)
    _charge_copies(graph, a)
    start = list(accumulate(a, initial=0))
    blocks = list(map(range, start, start[1:]))
    adj = []
    for m, neighbours in zip(a, graph.adjacency):
        if m:
            adj += [tuple(chain.from_iterable(map(blocks.__getitem__, neighbours)))] * m
    return a, start, adj


def _berge_bound(graph: Graph, a: Sequence[int], removed: set[int]) -> int:
    """a(S) + sum of floor(a(K) / 2) over the components K of G[supp a - S]
    that have an edge, for S = removed: at least nu(G^a) (power_index)."""
    skip = [v for v, m in enumerate(a) if not m or v in removed]
    bound = sum(a[v] for v in removed)
    for comp in graph._bfs(range(graph.n), skip)[0]:
        if len(comp) > 1:
            bound += sum([a[v] for v in comp]) // 2
    return bound


def power_index(graph: Graph, multiplicity: Sequence[int]) -> int:
    """nu(G^a): x^a lies in exactly the powers I(G)^k with k at most this value.

    A greedy b-matching of G with capacities a (each edge in turn takes the
    least residual capacity r of its ends) is a matching of G^a. It is maximum
    when its size meets _berge_bound at S = {} or at S = N(X) - X for X = {v :
    r_v > 0}: every matching edge of G^a meets one of the a(S) copies of S or
    lies inside one component of G^a - S^a, which holds at most floor(a(K)/2)
    of them; the copies of a vertex isolated in G[supp a - S] are isolated, so
    such a component holds no edge. Only when neither bound closes is G^a
    laid out for the blossom."""
    a = _multiplicities(graph, multiplicity)
    r, size = list(a), 0
    for u, v in graph.edges:
        m = min(r[u], r[v])
        r[u] -= m
        r[v] -= m
        size += m
    if size == _berge_bound(graph, a, set()):
        return size
    spare = {v for v in range(graph.n) if r[v]}
    removed = {w for v in spare for w in graph.adjacency[v]} - spare
    if size == _berge_bound(graph, a, removed):
        return size
    _, start, adj = _parallel_layout(graph, a)
    return _matching_size(start[-1], adj)


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
    a, start, adj = _parallel_layout(graph, multiplicity)
    base = [i for i, m in enumerate(a) for _ in range(m)]  # copy -> base vertex
    counts = [0] * len(graph.edges)
    index = {e: i for i, e in enumerate(graph.edges)}
    used = [0] * graph.n
    for v, w in enumerate(_checked_matching(start[-1], adj)):
        if w > v:  # blocks ascend, so i <= j
            i, j = base[v], base[w]
            counts[index[i, j]] += 1
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
    a = _multiplicities(graph, multiplicity)
    return 2 * power_index(graph, a) == sum(a)


# ---------------------------------------------------------------------------
# corpus enumeration and sampling
# ---------------------------------------------------------------------------


def connected_graphs(min_vertices: int = 2, max_vertices: int = 5) -> Iterator[Graph]:
    """All labeled connected graphs on min..max vertices (no isolated vertices),
    after a charge of the 2^(m(m-1)/2) edge masks on the most vertices m."""
    m = max_vertices if max_vertices >= min_vertices else 0
    check_box(1 << m * (m - 1) // 2, "graph corpus")
    for n in range(min_vertices, max_vertices + 1):
        check_time("the graph corpus")
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
