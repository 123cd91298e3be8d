"""The assembled property battery at reduced caps (the full-cap run is the
acceptance suite's job)."""

from edge_ideal_lab.battery import colon_identity_holds, corpus_graphs, run_battery
from edge_ideal_lab.graphs import Graph, edge_ideal
from edge_ideal_lab.monomials import membership_mask


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
    # seeded random rows against the definition: each row marks the slice of
    # its multiples, and a slice that starts past the box is empty
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
            expected = np.zeros(tuple(bounds + 1), dtype=bool)
            for row in inputs.tolist():
                expected[tuple(slice(e, None) for e in row)] = True
            got = membership_mask(inputs, bounds)
            assert (got == expected).all(), (inputs.tolist(), bounds.tolist())


def test_colon_identity_from_power_zero():
    # (I : I) is the unit ideal I^0, and (I^3 : I) = I^2 on the triangle
    i = edge_ideal(Graph.cycle(3))
    assert all(colon_identity_holds(i, k) for k in (0, 1, 2))


def test_corpus_counts():
    # labeled connected graphs without isolated vertices: 1, 4, 38 on 2..4 vertices
    assert len(corpus_graphs(4)) == 1 + 4 + 38


def test_run_battery_small_caps():
    results = run_battery(max_vertices=4, max_power=2, samples=4)
    failures = [(n, d) for n, p, d in results if not p]
    assert not failures, failures[:5]
