"""Newton-polyhedron membership and integral closure sweeps."""

import hashlib
import random
import tracemalloc
from itertools import product as iter_product
from math import prod

import networkx as nx
import numpy as np
import pytest

from edge_ideal_lab import closure, linalg
from edge_ideal_lab.closure import (
    _closure_fast_path,
    _closure_lp_path,
    _closure_sweep,
    closure_member_matching_oracle,
    integral_closure_power,
    np_member,
)
from edge_ideal_lab.errors import (
    BOX_CELLS,
    BudgetExceededError,
    MismatchedVariablesError,
    UsageError,
    bounded,
)
from edge_ideal_lab.fixtures import assce, fig7, fig9, graph_catalog
from edge_ideal_lab.formats import parse_ideal
from edge_ideal_lab.graphs import (
    Graph,
    connected_graphs,
    edge_ideal,
    sample_graphs,
)
from edge_ideal_lab.monomials import Monomial, MonomialIdeal, VariableSet
from edge_ideal_lab.stability import is_normal_up_to


class TestNpMember:
    def test_generators_are_members(self):
        i = edge_ideal(Graph.cycle(3))
        for k in (1, 2, 3):
            for g in i.power(k).gens:
                assert np_member(g, i, k)

    def test_triangle_unit_vector_case(self):
        i = edge_ideal(Graph.cycle(3))
        assert np_member((1, 1, 1), i, 1)
        assert not np_member((1, 1, 1), i, 2)

    def test_fig9_witness_in_scaled_polyhedron(self):
        i = edge_ideal(fig9())
        witness = (1, 1, 1, 0, 1, 1, 1, 1, 1)
        assert np_member(witness, i, 4)
        assert not np_member(witness, i, 5)

    def test_monotone_in_exponents(self):
        i = edge_ideal(Graph.cycle(5))
        members = [g.exps for g in i.power(2).gens][:5]
        for a in members:
            for axis in range(5):
                bumped = list(a)
                bumped[axis] += 1
                assert np_member(bumped, i, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            np_member((1, 1), edge_ideal(Graph.cycle(3)), 1)

    def test_monomial_over_other_variables_refused(self):
        # same length, other names: answered True, where contains refuses
        i = edge_ideal(Graph.cycle(3))
        other = Monomial(VariableSet(("y1", "y2", "y3")), (1, 1, 0))
        with pytest.raises(MismatchedVariablesError):
            i.contains(other)
        with pytest.raises(MismatchedVariablesError):
            np_member(other, i, 1)
        assert np_member(Monomial(i.vset, (1, 1, 0)), i, 1)

    def test_negative_exponent_refused(self):
        with pytest.raises(UsageError, match="non-negative"):
            np_member((-1, 1, 1), edge_ideal(Graph.cycle(3)), 1)

    def test_non_integer_exponent_refused(self):
        # 0.5 must not reach the LP as a right-hand side
        with pytest.raises(UsageError, match="integers"):
            np_member((0.5, 1, 1), edge_ideal(Graph.cycle(3)), 1)

    @pytest.mark.parametrize("k", [0, -1])
    def test_power_below_one_refused(self, k):
        with pytest.raises(UsageError, match="power >= 1"):
            np_member((1, 1, 1), edge_ideal(Graph.cycle(3)), k)

    @pytest.mark.parametrize("k", [1.5, 2.0, "2"])
    def test_non_integer_power_refused(self, k):
        # 1.5 must not reach the LP as the weight total
        with pytest.raises(UsageError, match="integer power"):
            np_member((1, 1, 1), edge_ideal(Graph.cycle(3)), k)

    def test_zero_ideal_refused(self):
        with pytest.raises(UsageError, match="nonzero ideal"):
            np_member((1, 1, 1), MonomialIdeal.zero(VariableSet.standard(3)), 1)

    def test_numpy_power_accepted(self):
        assert np_member((1, 1, 1), edge_ideal(Graph.cycle(3)), np.int64(1))


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
        cases += [(graph_catalog()["C3+C3"], k) for k in (1, 2, 3)]
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
        i = edge_ideal(graph_catalog()["C3+C3"])
        assert integral_closure_power(i, 3) != i.power(3)

    @staticmethod
    def _closure_peak(k: int) -> int:
        ideal = edge_ideal(fig9())
        tracemalloc.start()
        try:
            _closure_sweep.__wrapped__(ideal, k)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_fig9_closure_memory(self):
        # the fourth power's box has 5^9 cells, its degree-8 slice 11 385
        # points; the pruned slice peaks near 0.7 MB
        assert self._closure_peak(4) < 1.5 * 2**20

    def test_fig9_sixth_closure_memory(self):
        # the sixth power's box has 7^9 cells (int64 cover sums over it alone
        # take 323 MB); its degree-12 slice has 114 387 points, the whole
        # slice about 24 MB, and the pruned slice peaks near 4 MB
        assert self._closure_peak(6) < 8 * 2**20

    def test_closure_generators_pass_lp(self):
        i = edge_ideal(fig7())
        for k in (1, 2):
            for g in integral_closure_power(i, k).gens:
                assert np_member(g, i, k)

    def test_assce_eighth_closure_under_the_default_cap(self):
        # the box has 9^6 = 531 441 points, 6 * 9^6 cells of the cap; checked
        # by containments and by np_member, which the sweep does not call
        i = assce()
        closure7, closure8 = integral_closure_power(i, 7), integral_closure_power(i, 8)
        assert len(closure8) == 10_671
        assert i.power(8).is_subset_of(closure8) and closure8.is_subset_of(closure7)
        assert i.product(closure7).is_subset_of(closure8)
        for g in random.Random(8).sample(closure8.gens, 100):
            assert np_member(g, i, 8), g
            for j in np.flatnonzero(g.exps).tolist():
                down = list(g.exps)
                down[j] -= 1
                assert not np_member(down, i, 8), (g, j)

    def test_lp_sweep_memory(self):
        # ASSCE at k=7: 8^6 = 262 144 cells; the sweep keeps a byte of degree
        # and a byte of mask per cell, where an int64 table of every cell's
        # coordinates would take 12 MB alone
        tracemalloc.start()
        try:
            _closure_lp_path(assce(), 7, (7,) * 6, 21)
            assert tracemalloc.get_traced_memory()[1] <= 8 * 2**20
        finally:
            tracemalloc.stop()

    def test_lp_sweep_charges_a_cell_per_neighbour(self):
        # a squarefree cubic on 25 variables: its box of 2^25 cells fits the
        # default cap, but the sweep reads 25 neighbours of each
        vset = VariableSet.standard(25)
        rows = [[int(j - i in (0, 1, 2)) for j in range(25)] for i in range(23)]
        ideal = MonomialIdeal.from_exponents(vset, rows)
        refusal = rf"LP closure sweep needs {25 << 25} cells \(cap {BOX_CELLS}\)"
        with pytest.raises(BudgetExceededError, match=refusal):
            integral_closure_power(ideal, 1)

    def test_assce_first_failure_at_two(self):
        i = assce()
        report = is_normal_up_to(i, 4)
        assert not report.normal_up_to_checked
        assert report.first_failure == 2
        closure2 = integral_closure_power(i, 2)
        assert i.power(2).is_subset_of(closure2)
        assert closure2 != i.power(2)

    @pytest.mark.parametrize("k", [0, 1.5, "2"])
    def test_bad_power_refused(self, k):
        # 1.5 must not reach the sweep: on C3 it answered (x1*x2*x3)
        with pytest.raises(UsageError, match="integral closure needs"):
            integral_closure_power(edge_ideal(Graph.cycle(3)), k)

    def test_mixed_degree_rejected(self):
        mixed = MonomialIdeal.from_exponents(
            VariableSet.standard(2), [(2, 0), (1, 1), (0, 3)]
        )
        with pytest.raises(UsageError):
            integral_closure_power(mixed, 1)

    def test_cap_refusal(self):
        with bounded(box_cells=10**6), pytest.raises(BudgetExceededError):
            integral_closure_power(edge_ideal(fig9()), 5)

    def test_memo_ignores_call_form_and_cap(self):
        # ASSCE at k=2 has a 3^6 = 729-point box, and its LP sweep reads the 6
        # neighbours of each point: 6 * 729 = 4374 cells of the cap
        ideal = assce()
        _closure_sweep.cache_clear()
        results = [integral_closure_power(ideal, 2), integral_closure_power(ideal, k=2)]
        for box_cells in (BOX_CELLS, 2 * 10**7):
            with bounded(box_cells=box_cells):
                results.append(integral_closure_power(ideal, 2))
        info = integral_closure_power.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        assert all(r is results[0] for r in results)
        # the cap is checked before the lookup, so a cached closure still refuses
        refusal = r"LP closure sweep needs 4374 cells \(cap 4373\)"
        with bounded(box_cells=4373), pytest.raises(BudgetExceededError, match=refusal):
            integral_closure_power(ideal, 2)
        with bounded(box_cells=4374):
            assert integral_closure_power(ideal, 2) is results[0]


def _slice_and_lp(ideal: MonomialIdeal, k: int) -> tuple[MonomialIdeal, MonomialIdeal]:
    bounds = tuple(k * e for e in ideal.max_exponents())
    fast = _closure_fast_path(ideal, k, bounds)
    slow = _closure_lp_path(ideal, k, bounds, 2 * k)
    return (
        MonomialIdeal.from_exponents(ideal.vset, fast),
        MonomialIdeal.from_exponents(ideal.vset, slow),
    )


class TestSliceMatchesLp:
    """The degree-2k slice against the exact LP sweep, which walks every
    degree of the box and so needs no claim about generator degrees."""

    def test_corpus(self):
        for g in connected_graphs(2, 5):
            for k in (1, 2):
                fast, slow = _slice_and_lp(edge_ideal(g), k)
                assert fast == slow, f"{g} k={k}"

    def test_seeded_graphs(self):
        checked = 0
        for g in sample_graphs(20, (6, 8), 2026):
            ideal = edge_ideal(g)
            for k in (1, 2):
                fast, slow = _slice_and_lp(ideal, k)
                assert fast == slow, f"{g} k={k}"
                checked += 1
        assert checked == 40

    def test_fig9_sizes(self):
        # the closure equals the power up to k = 3; I^4 gains the witness and
        # I^5 eight of its edge multiples, each certified by the LP
        ideal = edge_ideal(fig9())
        powers = list(ideal.powers(5))
        for k, (power, size) in enumerate(zip(powers, (10, 55, 220, 716, 2010)), 1):
            closure = MonomialIdeal.from_exponents(
                ideal.vset, _closure_fast_path(ideal, k, (k,) * 9)
            )
            assert len(closure) == size
            assert power.is_subset_of(closure)
            extra = [g for g in closure.gens if not power.contains(g)]
            assert len(extra) == size - len(power)
            assert all(g.degree == 2 * k and np_member(g, ideal, k) for g in extra)


def dot(u, v) -> int:
    return sum(p * q for p, q in zip(u, v))


def reference_lp_closure(ideal: MonomialIdeal, k: int) -> tuple[np.ndarray, list]:
    """The LP sweep with no kept direction: every point of the box at or above
    degree d*k, in (degree, lex) order, that no member found so far divides
    goes to its own LP. Returns the members and the undominated non-members."""
    bounds = tuple(k * e for e in ideal.max_exponents())
    box = np.array(list(iter_product(*(range(b + 1) for b in bounds))))
    found, outside = np.zeros((0, len(bounds)), dtype=np.int64), []
    for s in range(k * ideal.generated_degree(), sum(bounds) + 1):
        block = box[box.sum(axis=1) == s]
        block = block[~(found[None] <= block[:, None]).all(axis=2).any(axis=1)]
        for a in map(tuple, block.tolist()):
            if np_member(a, ideal, k):
                found = np.vstack((found, a))
            else:
                outside.append(a)
    return found, outside


def recorded_lp_sweep(ideal: MonomialIdeal, k: int, monkeypatch):
    """_closure_lp_path's rows, with each point it sent to an LP and each
    direction it got back."""
    solve, asked, directions = closure.separating_direction, set(), []

    def recording(a_le, b_le, a_eq, b_eq):
        asked.add(tuple(b_le))
        y = solve(a_le, b_le, a_eq, b_eq)
        if y is not None:
            directions.append(y)
        return y

    with monkeypatch.context() as patch:
        patch.setattr(closure, "separating_direction", recording)
        bounds = tuple(k * e for e in ideal.max_exponents())
        rows = _closure_lp_path(ideal, k, bounds, k * ideal.generated_degree())
    return rows, asked, directions


def seeded_equigenerated(count: int, seed: int) -> list[tuple[MonomialIdeal, int]]:
    """Ideals on 2..5 variables generated by 1..6 monomials of one degree, 2
    or 3, with squares and cubes allowed, each with a power k <= 2 whose box
    stays small."""
    rng, cases = random.Random(seed), []
    while len(cases) < count:
        n, d = rng.randint(2, 5), rng.choice((2, 3))
        monomials = [a for a in iter_product(range(d + 1), repeat=n) if sum(a) == d]
        rows = rng.sample(monomials, rng.randint(1, min(6, len(monomials))))
        ideal = MonomialIdeal.from_exponents(VariableSet.standard(n), rows)
        k = rng.randint(1, 2)
        if prod(k * e + 1 for e in ideal.max_exponents()) <= 2000:
            cases.append((ideal, k))
    return cases


class TestLpSweepMatchesReference:
    """The LP sweep that accepts points of I^k and rejects points by kept
    separating directions against one LP per undominated point: the same
    rows, byte for byte, every row accepted without an LP divisible by a
    generator of I^k, and every point rejected without an LP violating a
    kept direction y >= 0."""

    @staticmethod
    def check(cases, monkeypatch):
        for ideal, k in cases:
            rows, asked, directions = recorded_lp_sweep(ideal, k, monkeypatch)
            want, outside = reference_lp_closure(ideal, k)
            assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes(), (
                f"{ideal} k={k}"
            )
            power = ideal.power(k).exponent_array
            for a in map(tuple, rows.tolist()):
                if a not in asked:
                    assert (power <= a).all(axis=1).any(), (f"{ideal} k={k}", a)
            # the certificate, on Python ints: a.y < k * min_g g.y with y >= 0
            gens = ideal.exponent_array.tolist()
            floors = [(y, k * min(dot(g, y) for g in gens)) for y in directions]
            for a in outside:
                if a not in asked:
                    assert any(
                        min(y) >= 0 and dot(a, y) < floor for y, floor in floors
                    ), (f"{ideal} k={k}", a)

    def test_assce(self, monkeypatch):
        self.check([(assce(), k) for k in (1, 2, 3, 4)], monkeypatch)

    def test_assce_lp_counts(self, monkeypatch):
        # 20, 66, 220 and 616 LPs when members of I^k took one each
        asked = [recorded_lp_sweep(assce(), k, monkeypatch)[1] for k in (1, 2, 3, 4)]
        assert list(map(len, asked)) == [10, 11, 10, 10]

    def test_a_membership_test_that_accepts_everything_is_caught(self, monkeypatch):
        monkeypatch.setattr(MonomialIdeal, "_contains_row", lambda self, row: True)
        with pytest.raises(AssertionError):
            self.check([(assce(), 2)], monkeypatch)

    def test_assce_rows_and_lp_counts_to_six(self, monkeypatch):
        # the sha256 of each row table and the LP count, as the sweep gave
        # them when it tested membership in I^k before the kept directions
        pins = {
            1: ("61d79f0968ec6b4b466e1b79053eeacb7e1d9f3d8a9f63f46fdfaf60a8265242", 10),
            2: ("9090a6b21fc2e5c1b635a3e0e1c6e291380f7aef370faac34ff0edb0dc1498bb", 11),
            3: ("ce966ef7c31b904c6c44be3535484663bb28e8f545a0ddcc386ff20433dcd883", 10),
            4: ("dc47ac5526c0f2e54c92eee4e6d7e2533d6d9a9297285d367390aeb25da01e2b", 10),
            5: ("ac882ffa900f3bb34a1e7b4e46f3698687ef76bb9a5ae482728a4532c5d482e7", 10),
            6: ("99f30992eafb0657f5dc9ad3e7617be713c1b176e3b560f774085374a8328311", 10),
        }
        for k, pin in pins.items():
            rows, asked, _ = recorded_lp_sweep(assce(), k, monkeypatch)
            assert rows.dtype == np.int64
            assert (hashlib.sha256(rows.tobytes()).hexdigest(), len(asked)) == pin, k

    def test_builds_no_monomial_per_point(self, monkeypatch):
        # membership in I^k is read on the raw row
        def refuse(*_):
            raise AssertionError("a Monomial was built")

        want = _closure_lp_path(assce(), 3, (3,) * 6, 9)
        monkeypatch.setattr(closure, "Monomial", refuse)
        got = _closure_lp_path(assce(), 3, (3,) * 6, 9)
        assert got.tobytes() == want.tobytes() and len(got) == 210

    def test_seeded_equigenerated(self, monkeypatch):
        cases = seeded_equigenerated(60, 23)
        assert {ideal.generated_degree() for ideal, _ in cases} == {2, 3}
        assert any(not ideal.is_squarefree for ideal, _ in cases)
        self.check(cases, monkeypatch)

    def test_corpus(self, monkeypatch):
        cases = [(edge_ideal(g), k) for g in connected_graphs(2, 5) for k in (1, 2)]
        self.check(cases, monkeypatch)

    def test_a_flipped_direction_is_caught(self, monkeypatch):
        solve = closure.separating_direction

        def flipped(*system):
            y = solve(*system)
            return None if y is None else [-v for v in y]

        monkeypatch.setattr(closure, "separating_direction", flipped)
        with pytest.raises(AssertionError, match="does not separate"):
            _closure_lp_path(assce(), 2, (2,) * 6, 6)


def reference_slice(bounds: tuple[int, ...], total: int) -> np.ndarray:
    """Every point of the box [0, bounds] of degree `total`, in C order, with
    no pruning beyond the degree."""
    points = np.zeros((1, 0), dtype=np.int64)
    for j, b in enumerate(bounds):
        table = points.sum(axis=1)[:, None] + np.arange(b + 1)
        rows, vals = np.nonzero((table <= total) & (table + sum(bounds[j + 1 :]) >= total))
        points = np.column_stack((points[rows], vals))
    return points


def reference_covers(ideal: MonomialIdeal) -> np.ndarray:
    """Every componentwise-minimal y in {0,1,2}^n with y_u + y_v >= 2 on each
    generator x_u*x_v, by a scan of the whole 3^n grid."""
    n = ideal.vset.n
    grid = np.indices((3,) * n, dtype=np.int8).reshape(n, -1).T
    place = 3 ** np.arange(n - 1, -1, -1)  # y sits in row y @ place
    valid = np.ones(len(grid), dtype=bool)
    for u, v in np.nonzero(ideal.exponent_array)[1].reshape(-1, 2).tolist():
        valid &= grid[:, u] + grid[:, v] >= 2
    minimal = valid.copy()
    for i in range(n):
        lower = np.flatnonzero(grid[:, i])
        minimal[lower] &= ~valid[lower - place[i]]
    return grid[minimal].astype(np.int64)


def reference_cover_rows(ideal: MonomialIdeal) -> np.ndarray:
    """_cover_slack's rows by the 3^n grid: d = y - 1 for every minimal cover
    y with a zero, then a row of -1 for the degree to place."""
    d = reference_covers(ideal) - 1
    return np.vstack((d[d.min(axis=1) < 0], np.full(ideal.vset.n, -1)))


def atlas_graphs(sizes) -> list[Graph]:
    """One connected graph per isomorphism class on each number of vertices
    in ``sizes`` (networkx's atlas stops at 7)."""
    return [
        Graph.from_edges([f"x{i}" for i in range(1, h.number_of_nodes() + 1)], list(h.edges))
        for h in nx.graph_atlas_g()
        if h.number_of_nodes() in sizes and nx.is_connected(h)
    ]


def sweep_cover_rows(ideal: MonomialIdeal) -> np.ndarray:
    """_cover_slack's rows by its own sweep before the cover table moved to
    graphs.py: the covers among all sets but V, one edge filter at a time,
    y_C raised to 2 along each arc, then kept when each 1 has a neighbour
    below 2."""
    n = ideal.vset.n
    edges = np.nonzero(ideal.exponent_array)[1].reshape(-1, 2).tolist()
    sets, bits = np.arange(2**n - 1), [1 << v for v in range(n)]
    for u, v in edges:
        sets = sets[(sets & (bits[u] | bits[v])) != 0]
    y = np.array([(sets & b) != 0 for b in bits], dtype=np.int16)
    arcs = edges + [[v, u] for u, v in edges]
    for u, v in arcs:
        y[u, y[v] == 0] = 2
    low = np.zeros(y.shape, dtype=bool)
    for u, v in arcs:
        low[u] |= y[v] < 2
    d = np.vstack((y[:, ((y != 1) | low).all(axis=0)].T - 1, np.full(n, -1)))
    return d.astype(np.int16)


class TestCoverRows:
    """The cover rows from the 2^n vertex sets against the 3^n grid."""

    @pytest.mark.parametrize(
        "graphs, rows",
        [
            (lambda: [fig9()], 51),
            (lambda: [Graph.cycle(12)], 191),
            (lambda: connected_graphs(2, 5), None),
        ],
        ids=["FIG9", "C12", "corpus"],
    )
    def test_the_sweep_rows_byte_for_byte(self, graphs, rows):
        for g in graphs():
            ideal = edge_ideal(g)
            got, want = closure._cover_slack.__wrapped__(ideal)[0], sweep_cover_rows(ideal)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), g
            assert got.tobytes() == want.tobytes(), g
            assert rows is None or len(got) == rows + 1  # and the degree row

    def test_unforced_weights_fail_against_the_lp(self, unforced_covers):
        # 1 on all of C is no cover when C misses a neighbour: too strong a
        # row, so the slice loses members that the LP sweep keeps
        wrong = [
            str(g)
            for g in connected_graphs(2, 4)
            for fast, slow in [_slice_and_lp(edge_ideal(g), 1)]
            if fast != slow
        ]
        assert len(wrong) > 0

    @staticmethod
    def mismatches(ideals) -> list[MonomialIdeal]:
        bad = []
        for ideal in ideals:
            rows = closure._cover_slack.__wrapped__(ideal)[0]
            want = reference_cover_rows(ideal)
            same = set(map(tuple, rows.tolist())) == set(map(tuple, want.tolist()))
            if not (same and len(rows) == len(want) and (rows[-1] == -1).all()):
                bad.append(ideal)
        return bad

    def test_corpus_and_atlas(self):
        # every labeled graph on 2-5 vertices, every class on 6 and 7
        graphs = list(connected_graphs(2, 5)) + atlas_graphs((6, 7))
        assert len(graphs) == 771 + 112 + 853
        assert self.mismatches(map(edge_ideal, graphs)) == []

    def test_seeded_graphs_up_to_twelve_vertices(self):
        graphs = sample_graphs(30, (6, 12), 28)
        assert max(g.n for g in graphs) == 12
        assert self.mismatches(map(edge_ideal, graphs)) == []

    def test_catalog(self):
        assert self.mismatches(map(edge_ideal, graph_catalog().values())) == []

    def test_unused_variables(self):
        # x4 and x6 lie in no generator: every minimal cover is 0 there
        ideal = parse_ideal(
            "vars: x1 x2 x3 x4 x5 x6\nx1*x2\nx2*x3\nx1*x3\nx3*x5\n",
            allow_unused_vars=True,
        )
        assert self.mismatches([ideal]) == []
        rows = closure._cover_slack.__wrapped__(ideal)[0][:-1]
        assert (rows[:, [3, 5]] == -1).all()

    def test_cap(self):
        # C20 is bipartite, so its edge ideal is normal; the 21 * 2^21 cells
        # of C21's rows exceed the default box cap
        c20 = edge_ideal(Graph.cycle(20))
        assert integral_closure_power(c20, 1) == c20
        refusal = rf"closure cover sweep needs {21 << 21} cells \(cap {BOX_CELLS}\)"
        with pytest.raises(BudgetExceededError, match=refusal):
            integral_closure_power(edge_ideal(Graph.cycle(21)), 1)

    def test_charged_ahead_of_the_memos(self):
        # C12 at k=1: a closure box of 2^12 cells, rows over 12 * 2^12; once
        # the closure and its rows are cached, one cell less still refuses
        ideal, cells = edge_ideal(Graph.cycle(12)), 12 << 12
        closure_1 = integral_closure_power(ideal, 1)
        with bounded(box_cells=cells - 1):
            with pytest.raises(BudgetExceededError, match=f"sweep needs {cells} cells"):
                integral_closure_power(ideal, 1)
        with bounded(box_cells=cells):
            assert integral_closure_power(ideal, 1) is closure_1


def slice_by_matchings(graph: Graph, k: int) -> tuple[MonomialIdeal, int]:
    """The closure of I(G)^k, checked against nu(G^(2a)) >= 2k on every point
    of the degree-2k slice of [0, k*u], and the number of points checked. No
    cover, LP or pruning is involved in the check; every generator has degree
    2k, so on the slice a member is a generator."""
    ideal = edge_ideal(graph)
    closure_k = integral_closure_power(ideal, k)
    members = set(map(tuple, closure_k.exponent_array.tolist()))
    points = reference_slice(tuple(k * e for e in ideal.max_exponents()), 2 * k)
    for a in points.tolist():
        assert (tuple(a) in members) == closure_member_matching_oracle(graph, a, k), a
    return closure_k, len(points)


class TestPastTwelveVariables:
    """Edge ideals on 13 or more variables take the cover slice like any
    other. Matchings are the reference here: they read the degree-2k slice
    alone, where the LP sweep would walk every degree of the box (3^13 cells
    for C13 squared)."""

    def test_c13_square(self):
        closure2, checked = slice_by_matchings(Graph.cycle(13), 2)
        assert checked == 1651
        assert closure2 == edge_ideal(Graph.cycle(13)).power(2)

    def test_two_triangles_and_a_path_cubed(self):
        # x1*...*x6 is in the closure of I^3, not in I^3; the box of 4^13
        # cells needs a raised cap
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        edges += [(i, i + 1) for i in range(6, 12)]
        graph = Graph.from_edges([f"x{i}" for i in range(1, 14)], edges)
        with bounded(box_cells=10**8):
            closure3, checked = slice_by_matchings(graph, 3)
        assert checked == 17_381
        power3 = edge_ideal(graph).power(3)
        assert (len(closure3), len(power3)) == (365, 364)
        assert power3.is_subset_of(closure3)
        extra = [g.exps for g in closure3.gens if not power3.contains(g)]
        assert extra == [(1,) * 6 + (0,) * 7]


def reference_closure(ideal: MonomialIdeal, k: int) -> np.ndarray:
    """The whole degree-2k slice, then a.y >= 2k for every minimal cover."""
    points = reference_slice(tuple(k * e for e in ideal.max_exponents()), 2 * k)
    return points[(points @ reference_covers(ideal).T >= 2 * k).all(axis=1)]


def slice_cases():
    """Edge ideals of the corpus (k <= 3), of seeded graphs on 6-12 vertices,
    of FIG9 (k <= 6), and degree-2 squarefree ideals with unused variables."""
    cases = [(edge_ideal(g), k) for g in connected_graphs(2, 5) for k in (1, 2, 3)]
    cases += [(edge_ideal(g), k) for g in sample_graphs(12, (6, 12), 22) for k in (1, 2, 3)]
    cases += [(edge_ideal(fig9()), k) for k in range(1, 7)]
    rng = random.Random(22)
    for _ in range(60):
        n = rng.randint(3, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rows = []
        for u, v in rng.sample(pairs, rng.randint(1, n - 1)):
            row = [0] * n
            row[u] = row[v] = 1
            rows.append(row)
        ideal = MonomialIdeal.from_exponents(VariableSet.standard(n), rows)
        cases.append((ideal, rng.randint(1, 4)))
    return cases


def fast_rows(ideal: MonomialIdeal, k: int) -> np.ndarray:
    return _closure_fast_path(ideal, k, tuple(k * e for e in ideal.max_exponents()))


def first_mismatch(cases):
    for ideal, k in cases:
        if not np.array_equal(fast_rows(ideal, k), reference_closure(ideal, k)):
            return ideal, k
    return None


class TestSliceMatchesReference:
    """The pruned slice against the whole slice filtered by every cover."""

    @pytest.fixture(scope="class")
    def cases(self):
        cases = slice_cases()
        # at least one ideal has a variable in no generator
        assert any(0 in ideal.max_exponents() for ideal, _ in cases)
        return cases

    def test_same_rows_in_the_same_order(self, cases):
        assert first_mismatch(cases) is None

    def test_rows_are_canonical_as_returned(self, cases):
        # _closure_sweep wraps them unchecked; the validating constructor
        # refuses rows that are not the sorted divisibility-minimal set
        for ideal, k in cases:
            MonomialIdeal(ideal.vset, fast_rows(ideal, k))

    @pytest.mark.parametrize("planted", ["zeroed", "from axis j+2"])
    def test_too_tight_prune_is_caught(self, cases, planted, monkeypatch):
        cover_slack = closure._cover_slack

        def tight(ideal):
            d, later = cover_slack(ideal)
            if planted == "zeroed":
                return d, np.zeros_like(later)
            return d, np.column_stack((later[:, 1:], np.zeros(len(later), later.dtype)))

        monkeypatch.setattr(closure, "_cover_slack", tight)
        assert first_mismatch(cases) is not None


def test_fig9_fourth_closure_by_matchings():
    # matchings read the 11 385 points of the degree-8 slice, where the LP
    # sweep would walk all 5^9 cells of the box
    assert slice_by_matchings(fig9(), 4)[1] == 11_385


class TestMatchingOracle:
    def test_fig9_witness_certified(self):
        # in the fourth closure and, exactly, not in the fifth
        witness = (1, 1, 1, 0, 1, 1, 1, 1, 1)
        assert closure_member_matching_oracle(fig9(), witness, 4) is True
        assert closure_member_matching_oracle(fig9(), witness, 5) is False

    def test_generators_are_members(self):
        g = Graph.cycle(4)
        i = edge_ideal(g)
        for gen in i.power(2).gens:
            assert closure_member_matching_oracle(g, gen.exps, 2) is True

    def test_non_integer_exponent_rejected(self):
        # 0.9 must not be truncated to 0
        with pytest.raises(UsageError, match="integers"):
            closure_member_matching_oracle(Graph.cycle(3), (0.9, 1, 1), 1)

    @pytest.mark.parametrize("k", [0, 1.5, "2"])
    def test_bad_power_refused(self, k):
        # like np_member: 1.5 must not be answered as a power
        with pytest.raises(UsageError, match="matching oracle needs"):
            closure_member_matching_oracle(Graph.cycle(3), (1, 1, 1), k)

    def test_degree_deficit_is_refused(self):
        # degree 3 < 2k = 4: not a member, and the oracle says so (False,
        # never None)
        assert closure_member_matching_oracle(Graph.cycle(3), (1, 1, 1), 2) is False

    def test_certificates_confirmed_by_lp(self):
        # both ways: every answer, True or False, is the LP's
        g = Graph.cycle(5)
        i = edge_ideal(g)
        for a in iter_product(range(3), repeat=5):
            for k in (1, 2):
                assert closure_member_matching_oracle(g, a, k) == np_member(a, i, k), a

    def test_equals_the_closure_on_every_corpus_slice(self):
        # every point of the degree-2k slice of [0, k*u], where the closure's
        # generators live, for all 771 corpus graphs at k <= 2
        checked = 0
        for g in connected_graphs(2, 5):
            ideal = edge_ideal(g)
            for k in (1, 2):
                closure = integral_closure_power(ideal, k)
                bounds = tuple(k * e for e in ideal.max_exponents())
                for a in reference_slice(bounds, 2 * k).tolist():
                    inside = closure.contains(Monomial(ideal.vset, a))
                    assert closure_member_matching_oracle(g, a, k) == inside, (g, a, k)
                    checked += 1
        assert checked == 41_028

    def test_uses_no_cover_lp_or_slice(self, monkeypatch):
        # the oracle shares no code with either closure path
        def refuse(*args, **kwargs):
            raise AssertionError("the matching oracle reached a closure path")

        for module, name in [
            (linalg, "separating_direction"),
            (closure, "separating_direction"),
            (closure, "_cover_slack"),
            (closure, "_closure_fast_path"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        g = fig9()
        witness = (1, 1, 1, 0, 1, 1, 1, 1, 1)
        assert closure_member_matching_oracle(g, witness, 4) is True
        assert closure_member_matching_oracle(g, witness, 5) is False
        with pytest.raises(AssertionError, match="closure path"):
            np_member(witness, edge_ideal(g), 4)
