"""The assembled property battery at reduced caps (the full-cap run is the
acceptance suite's job)."""

import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

from edge_ideal_lab import battery, graphs
from edge_ideal_lab.battery import (
    certificate_battery,
    closure_oracle_soundness,
    colon_identity_holds,
    colon_identity_sweep,
    commutation_sweep,
    membership_coherence_sweep,
    multiset_matching_sweep,
    run_battery,
)
from edge_ideal_lab.closure import closure_member_matching_oracle
from edge_ideal_lab.errors import UsageError
from edge_ideal_lab.fixtures import assce, fig9, graph_catalog
from edge_ideal_lab.graphs import Graph, connected_graphs, edge_ideal
from edge_ideal_lab.monomials import MonomialIdeal, VariableSet, membership_mask


def test_membership_mask_matches_contains():
    import random
    from itertools import product

    import numpy as np

    from edge_ideal_lab.monomials import Monomial

    ideal = edge_ideal(Graph.cycle(3)).power(2)
    bounds = (3, 3, 3)
    mask = membership_mask(ideal.exponent_array, bounds)
    for a in product(range(4), repeat=3):
        assert mask[a] == ideal.contains(Monomial(ideal.vset, a))
    # a row past the box marks nothing
    assert not membership_mask([(4, 0, 0)], bounds).any()

    def marked_multiples(rows, bounds):
        # each row marks the slice of its multiples, and a slice that starts
        # past the box is empty
        expected = np.zeros(tuple(np.asarray(bounds) + 1), dtype=bool)
        for row in np.asarray(rows).tolist():
            expected[tuple(slice(e, None) for e in row)] = True
        return expected

    # seeded random rows against the per-row slice reference
    rng = random.Random(2014)
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = np.array(
            [[rng.randint(0, 3) for _ in range(n)] for _ in range(rng.randint(1, 6))]
        )
        top = rows.max(axis=0)
        for bounds in (np.maximum(top - 1, 0), top, top + 1):
            # a row inside the box on every axis but one
            past = np.minimum(rows[0], bounds)
            axis = rng.randrange(n)
            past[axis] = bounds[axis] + 1
            inputs = np.vstack([rows, past])
            got = membership_mask(inputs, bounds)
            expected = marked_multiples(inputs, bounds)
            assert (got == expected).all(), (inputs.tolist(), bounds.tolist())
    edge_shapes = [
        ([(1, 0, 2), (0, 1, 1), (2, 0, 0)], (2, 0, 3)),  # a length-1 axis
        ([(3,), (5,)], (6,)),  # a 1-D box
        (np.zeros((0, 3), dtype=np.int64), (2, 1, 2)),  # no rows
        ([(3, 0), (1, 5), (0, 2)], (2, 4)),  # rows past the box on one axis
    ]
    for rows, bounds in edge_shapes:
        got = membership_mask(np.asarray(rows, dtype=np.int64), bounds)
        assert got.shape == tuple(b + 1 for b in bounds)
        assert (got == marked_multiples(rows, bounds)).all(), (rows, bounds)


def test_membership_mask_takes_plain_lists():
    # an empty list is no rows, not a float array of shape (0,)
    assert not membership_mask([], (2, 2)).any()
    assert membership_mask([], (2, 2)).shape == (3, 3)
    rows = [(1, 0), (0, 2)]
    mask = membership_mask(rows, (2, 2))
    assert (mask == membership_mask(np.array(rows, dtype=np.int64), (2, 2))).all()
    assert mask.sum() == 6 + 3 - 2  # multiples of x1, of x2^2, of both


def test_membership_mask_allocates_only_the_mask():
    # in-place slice ORs make no box-sized temporary
    power = edge_ideal(fig9()).power(4)
    tracemalloc.start()
    try:
        mask = membership_mask(power.exponent_array, power.max_exponents())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.size == 5**9
    assert peak <= 1.1 * mask.nbytes


def test_colon_identity_from_power_zero():
    # (I : I) is the unit ideal I^0, and (I^3 : I) = I^2 on the triangle
    i = edge_ideal(Graph.cycle(3))
    assert all(colon_identity_holds(i, k) for k in (0, 1, 2))


def reference_colon_identity(ideal: MonomialIdeal, k: int) -> bool:
    """(I^(k+1) : I) == I^k on numpy masks: the mask of I^(k+1) over the
    extended box [0, bounds + max(I)], one window of it per generator g of I
    starting at g, and the AND of the windows against the mask of I^k."""
    *_, power_k, power_k1 = [MonomialIdeal.unit(ideal.vset), *ideal.powers(k + 1)]
    bounds = tuple(
        max(x, y) for x, y in zip(power_k.max_exponents(), power_k1.max_exponents())
    )
    extended = tuple(b + s for b, s in zip(bounds, ideal.max_exponents()))
    high_mask = membership_mask(power_k1.exponent_array, extended)
    colon_mask = np.ones(tuple(b + 1 for b in bounds), dtype=bool)
    for row in ideal.exponent_array.tolist():
        colon_mask &= high_mask[tuple(slice(e, e + b + 1) for e, b in zip(row, bounds))]
    return bool((colon_mask == membership_mask(power_k.exponent_array, bounds)).all())


def mixed_ideals(count: int, seed: int = 2014):
    """Seeded ideals in 2..4 variables: pure squares and cubes beside mixed
    monomials with exponents up to 3, so the generators have mixed degrees."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 4)
        rows = [
            [rng.choice((2, 3)) if i == j else 0 for i in range(n)]
            for j in rng.sample(range(n), rng.randint(1, n))
        ]
        for _ in range(rng.randint(1, 4)):
            rows.append([rng.randint(0, 3) for _ in range(n)])
        yield MonomialIdeal.from_exponents(VariableSet.standard(n), rows)


# (x^4, x^3 y, x y^3, y^4): x^2 y^2 is in (I^2 : I) but not in I
RATLIFF_RUSH = MonomialIdeal.from_exponents(
    VariableSet.standard(2), [(4, 0), (3, 1), (1, 3), (0, 4)]
)


class TestColonAgainstReference:
    """The bitset kernel against the numpy-mask reference on the extended box."""

    def agree(self, ideal, powers):
        answers = [colon_identity_holds(ideal, k) for k in powers]
        assert answers == [reference_colon_identity(ideal, k) for k in powers], ideal
        return answers

    def test_five_vertex_corpus(self):
        graphs = list(connected_graphs(2, 5))
        assert len(graphs) == 771
        for g in graphs:
            assert self.agree(edge_ideal(g), range(4)) == [True] * 4, str(g)

    def test_assce_fails_at_two(self):
        assert self.agree(assce(), range(5)) == [True, True, False, True, True]

    def test_ratliff_rush_fails_at_one(self):
        assert self.agree(RATLIFF_RUSH, range(4)) == [True, False, True, True]

    def test_seeded_mixed_degree_ideals(self):
        ideals = list(mixed_ideals(60))
        degrees = {int(d) for i in ideals for d in i.exponent_array.max(axis=1)}
        assert {2, 3} <= degrees  # squares and cubes among the generators
        for ideal in ideals:
            self.agree(ideal, range(3))

    def test_fig9(self):
        assert self.agree(edge_ideal(fig9()), range(4)) == [True] * 4


@pytest.mark.parametrize(
    "ideal, k, message",
    [
        (edge_ideal(Graph.cycle(3)), -1, "a power >= 0"),
        (edge_ideal(Graph.cycle(3)), 1.5, "an integer power"),
        (MonomialIdeal.zero(VariableSet.standard(3)), 1, "a nonzero ideal"),
    ],
    ids=["negative-k", "non-integer-k", "zero-ideal"],
)
def test_colon_identity_refuses_bad_input(ideal, k, message):
    with pytest.raises(UsageError, match=message):
        colon_identity_holds(ideal, k)


def test_colon_identity_peak_memory_per_cell():
    # FIG9 at k=3: the box [0, 4]^9; the chain is built before tracing, so
    # the peak is the kernel's own bitsets and seed buffers
    ideal = edge_ideal(fig9())
    list(ideal.powers(4))
    cells = 5**9
    tracemalloc.start()
    try:
        assert colon_identity_holds(ideal, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * cells


class TestColonChain:
    """The colon sweep walks one power chain per graph."""

    def test_sweep_builds_each_power_once(self, product_count):
        checks = list(colon_identity_sweep([Graph.cycle(5)], powers=(1, 2, 3)))
        assert [ok for _, ok, _ in checks] == [True]
        # I^2, I^3, I^4: three products, not 1 + 2 + 3 from one chain per k
        assert len(product_count) == 3

    def test_single_identity_builds_its_chain(self, product_count):
        assert colon_identity_holds(edge_ideal(Graph.cycle(5)), 3)
        assert len(product_count) == 3


def test_corpus_counts():
    # labeled connected graphs without isolated vertices: 1, 4, 38 on 2..4 vertices
    assert len(list(connected_graphs(2, 4))) == 1 + 4 + 38


def test_run_battery_small_caps():
    results = run_battery(max_vertices=4, max_power=2, samples=4)
    failures = [(n, d) for n, p, d in results if not p]
    assert not failures, failures[:5]


def test_certificate_battery_catches_a_layout_fault(monkeypatch):
    # every copy of G^a loses its last neighbour in the unlabeled layout that
    # factor_by_matching and power_index share; the labeled G^a does not
    layout = graphs._parallel_layout

    def faulty(graph, multiplicity):
        a, start, adj = layout(graph, multiplicity)
        return a, start, [row[:-1] for row in adj]

    catalog = graph_catalog()
    named = {name: catalog[name] for name in ("E1", "STAR31", "C3", "C4", "P4")}
    assert all(ok for _, ok, _ in certificate_battery(named))
    monkeypatch.setattr(graphs, "_parallel_layout", faulty)
    checks = list(certificate_battery(named))
    assert [name for name, _, _ in checks] == [f"factorization[{n}]" for n in named]
    assert ("factorization[E1]", False, "a=(1, 1)") in checks


def test_closure_oracle_soundness_reports_the_first_failure(monkeypatch):
    # with LP membership planted to refuse everything, every certified (a, k)
    # fails, and the detail names the first of them in the scan order
    g = graph_catalog()["C3"]
    certified = [
        (a, k)
        for a in product(range(3), repeat=3)
        for k in (1, 2)
        if closure_member_matching_oracle(g, a, k) is True
    ]
    monkeypatch.setattr(battery, "np_member", lambda a, ideal, k: False)
    [check] = closure_oracle_soundness({"C3": g}, max_power=2)
    a, k = certified[0]
    assert check == ("closure-oracle-soundness[C3]", False, f"a={a} k={k}")


def test_closure_oracle_soundness_fails_on_a_false_member(monkeypatch):
    # LP membership planted to accept everything disagrees first at the first
    # (a, k) outside the closure: a = 0 at k = 1
    g = graph_catalog()["C3"]
    assert all(ok for _, ok, _ in closure_oracle_soundness({"C3": g}))
    monkeypatch.setattr(battery, "np_member", lambda a, ideal, k: True)
    [check] = closure_oracle_soundness({"C3": g}, max_power=2)
    assert check == ("closure-oracle-soundness[C3]", False, "a=(0, 0, 0) k=1")


@pytest.mark.parametrize(
    "sweep, patched, key, planted, detail",
    [
        # power_index says no edge divides x^a
        (
            membership_coherence_sweep, "power_index", lambda g, a: a,
            {(1, 1): 0, (2, 2): 0}, "a=(1, 1) k=1 nu=0",
        ),
        # edge_subring_member says x^a is no product of edges
        (
            multiset_matching_sweep, "edge_subring_member", lambda g, a: a,
            {(1, 1): False, (2, 2): False}, "a=(1, 1)",
        ),
        # duplicate_copy_edge loses every edge
        (
            commutation_sweep, "duplicate_copy_edge",
            lambda pg, f: (pg.multiplicity, f),
            {
                ((2, 1), ((0, 2), (1, 1))): frozenset(),
                ((1, 2), ((0, 1), (1, 1))): frozenset(),
            },
            "a=(2, 1) f=((0, 2), (1, 1))",
        ),
    ],
)
def test_sweeps_report_the_first_planted_fault(
    monkeypatch, sweep, patched, key, planted, detail
):
    # two inputs answer wrongly; the check fails and names the one the scan
    # reaches first
    real = getattr(battery, patched)

    def faulty(x, arg):
        return planted.get(key(x, arg), real(x, arg))

    named = {"E1": graph_catalog()["E1"]}
    [(name, ok, _)] = sweep(named)
    assert ok
    monkeypatch.setattr(battery, patched, faulty)
    assert list(sweep(named)) == [(name, False, detail)]


@pytest.mark.parametrize(
    "k, message", [(0, "max power must be >= 1"), (1.5, "integer power"), ("2", "integer power")]
)
def test_run_battery_refuses_bad_max_power(k, message):
    with pytest.raises(UsageError, match=message):
        run_battery(max_vertices=3, max_power=k, samples=1)


def test_run_battery_refuses_negative_samples():
    # library callers get the same refusal as the command line
    with pytest.raises(UsageError, match="samples must be >= 0"):
        run_battery(max_vertices=3, max_power=1, samples=-3)
