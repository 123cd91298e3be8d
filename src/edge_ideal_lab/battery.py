"""Reusable property sweeps: every theorem-shaped statement as a batch check.

Each sweep yields (name, passed, detail) triples so the CLI battery command,
the test suite, and the acceptance criteria all run the same code. The
colon identity over whole corpora is decided on membership bitsets (Python
ints) over one bounded exponent box (both sides' minimal generators live
inside the box, so bitset equality is ideal equality), which keeps
exhaustive sweeps cheap.
"""

from __future__ import annotations

from functools import reduce
from itertools import product as iter_product
from math import inf, prod
from typing import Iterable, Iterator, Sequence

import numpy as np

from .assprimes import associated_primes, irreducible_decomposition, minimal_primes
from .closure import closure_member_matching_oracle, np_member
from .errors import UsageError, check_box, check_time
from .graphs import (
    Graph,
    berge_deficiency,
    connected_graphs,
    deficiency,
    duplicate_copy_edge,
    duplicate_edge,
    edge_ideal,
    edge_subring_member,
    factor_by_matching,
    matching_number,
    minimal_vertex_covers,
    parallelize,
    power_index,
    sample_graphs,
)
from .monomials import Monomial, MonomialIdeal, integer_power, maximal_prime
from .stability import both_chains, power_chain

Check = tuple[str, bool, str]


def colon_identity_holds(ideal: MonomialIdeal, k: int) -> bool:
    """Whether (I^(k+1) : I) equals I^k, decided on bitsets over one box.

    Both sides' minimal generators are bounded by the componentwise maxima
    ``bounds`` of I^k and I^(k+1), so the box [0, bounds] decides equality.
    A membership bitset is a Python int whose bit i is cell i in C order: one
    bit per generator, spread along each axis by a doubling prefix OR. Colon
    membership at c is membership of c+g in I^(k+1) for every generator g of
    I, an AND of windows; each window is read in the same box by shifts that
    saturate at the top of every axis, which is exact because membership in
    I^(k+1) is constant past its generator maxima. The powers come from the
    ideal's memoized chain, so a sweep over k builds each of them once.
    """
    k = integer_power(k, 0, "the colon identity")
    if ideal.is_zero:
        raise UsageError("the colon identity needs a nonzero ideal")
    # the chain I^0 = R, I, ..., I^(k+1), so k = 0 needs no special case
    *_, power_k, power_k1 = [MonomialIdeal.unit(ideal.vset), *ideal.powers(k + 1)]
    bounds = [
        max(x, y) for x, y in zip(power_k.max_exponents(), power_k1.max_exponents())
    ]
    cells = prod(b + 1 for b in bounds)
    check_box(cells, "colon box")
    full = (1 << cells) - 1
    axes, stride = [], cells  # per axis: bound, stride, top layer, cells below it
    for b in bounds:
        stride //= b + 1
        top, width = (1 << stride) - 1 << b * stride, stride * (b + 1)
        while width < cells:  # repeat the first period's top layer
            top, width = top | top << width, 2 * width
        axes.append((b, stride, top & full, ~top & full))
    strides = np.array([s for _, s, _, _ in axes], dtype=np.int64)

    def members(rows: np.ndarray) -> int:
        idx = rows @ strides
        seed = np.zeros(cells // 8 + 1, dtype=np.uint8)
        np.bitwise_or.at(seed, idx >> 3, (1 << (idx & 7)).astype(np.uint8))
        m = int.from_bytes(seed, "little")
        for b, s, top, _ in axes:
            check_time("the colon identity")
            keep, t = full ^ top >> b * s, s  # the cells at least t/s above the bottom
            while t <= b * s:
                m |= (m << t) & keep
                keep &= keep << t
                t *= 2
        return m

    high, colon = members(power_k1.exponent_array), full
    for row in ideal.exponent_array.tolist():
        check_time("the colon identity")
        window = high
        for e, (_, s, top, low) in zip(row, axes):
            for _ in range(e):
                window = ((window >> s) & low) | (window & top)
        colon &= window
    return colon == members(power_k.exponent_array)


# ---------------------------------------------------------------------------
# corpus sweeps
# ---------------------------------------------------------------------------


def _first_failure(name: str, failures: Iterator[str]) -> Check:
    """The check ``name``: passed when ``failures`` yields nothing, else
    failed with its first detail (the scan stops there)."""
    detail = next(failures, None)
    return name, detail is None, detail or ""


def colon_identity_sweep(
    graphs: Iterable[Graph], powers: Sequence[int] = (1, 2, 3)
) -> Iterator[Check]:
    for idx, g in enumerate(graphs):
        ideal = edge_ideal(g)
        ok = all(colon_identity_holds(ideal, k) for k in powers)
        yield f"colon-identity[{idx}:{g}]", ok, f"powers {tuple(powers)}"


def persistence_sweep(graphs: Iterable[Graph], max_power: int = 4) -> Iterator[Check]:
    """Ascending-chain checks of the associated primes of the powers."""
    for idx, g in enumerate(graphs):
        report = both_chains(edge_ideal(g), max_power, mode="ass")
        sizes = [len(s) for s in report.ass_sets]
        yield f"persistence[{idx}:{g}]", report.ascending, f"sizes {sizes}"


def maximal_step_sweep(
    graphs: Iterable[Graph], max_power: int = 3
) -> Iterator[Check]:
    """Once the full prime appears it stays in every later computed power."""
    for idx, g in enumerate(graphs):
        ideal = edge_ideal(g)
        m = maximal_prime(ideal.vset)
        seen = False
        ok = True
        for step in power_chain(ideal, max_power):
            present = m in step.ass
            if seen and not present:
                ok = False
            seen = seen or present
        yield f"maximal-step[{idx}:{g}]", ok, ""


# ---------------------------------------------------------------------------
# matching-theory battery
# ---------------------------------------------------------------------------


def matching_battery(named_graphs: dict[str, Graph]) -> Iterator[Check]:
    for name, g in named_graphs.items():
        value, witness = berge_deficiency(g)
        direct = deficiency(g)  # the one blossom run: nu and pm read off it
        yield f"berge-equals-deficiency[{name}]", value == direct, (
            f"berge {value} via S={sorted(witness)}, matching {direct}"
        )
        pm = direct == 0

        # duplicating any edge keeps a perfect matching exactly when one exists
        if g.edges:
            mults = [duplicate_edge(g, f).multiplicity for f in g.edges]
            dup_nus = [power_index(g, a) for a in mults]
            dup_defs = [sum(a) - 2 * v for a, v in zip(mults, dup_nus)]
            dup_pms = [d == 0 for d in dup_defs]
            yield f"edge-duplication-pm[{name}]", all(dup_pms) == pm, (
                f"pm={pm}, duplicated {sum(dup_pms)}/{len(dup_pms)}"
            )
            nu = (g.n - direct) // 2
            lhs = len(set(dup_defs)) == 1
            rhs = len(set(dup_defs)) == 1 and dup_defs[0] == direct and all(
                v == nu + 1 for v in dup_nus
            )
            yield f"constant-dup-deficiency[{name}]", lhs == rhs, (
                f"dup defs {sorted(set(dup_defs))}, def {direct}"
            )


def certificate_battery(named_graphs: dict[str, Graph]) -> Iterator[Check]:
    for name, g in named_graphs.items():
        # the labeled G^a is the reference: power_index reads the b-matching
        # of factor_by_matching, so it misses its faults
        failures = (
            f"a={a}"
            for a in _multiplicity_samples(g.n)
            for cert in [factor_by_matching(g, a)]
            for nu in [matching_number(parallelize(g, a).flat)]
            if (cert.matched_degree, cert.delta.degree) != (nu, sum(a) - 2 * nu)
        )
        yield _first_failure(f"factorization[{name}]", failures)


def _multiplicity_samples(n: int) -> list[tuple[int, ...]]:
    ones = (1,) * n
    samples = [ones]
    for i in range(n):
        bumped = list(ones)
        bumped[i] = 2
        samples.append(tuple(bumped))
    samples.append(tuple(2 for _ in range(n)))
    samples.append(tuple(3 if i % 2 == 0 else 1 for i in range(n)))
    return samples


def membership_coherence_sweep(
    named_graphs: dict[str, Graph], max_power: int = 4
) -> Iterator[Check]:
    """Power membership of x^a agrees with the matching number of the
    parallelization, for every a with entries up to 2."""
    for name, g in named_graphs.items():
        ideal = edge_ideal(g)
        powers = list(ideal.powers(max_power))
        failures = (
            f"a={a} k={k} nu={nu}"
            for a in iter_product(range(3), repeat=g.n)
            for nu in [power_index(g, a)]
            for x_a in [Monomial(ideal.vset, a)]
            for k, power in enumerate(powers, 1)
            if power.contains(x_a) != (k <= nu)
        )
        yield _first_failure(f"membership-coherence[{name}]", failures)


def multiset_matching_sweep(named_graphs: dict[str, Graph]) -> Iterator[Check]:
    """x^a (entries up to 2) is a product of edges exactly when the
    parallelization has a perfect matching; the ideal-membership route is the
    independent check."""
    for name, g in named_graphs.items():
        ideal = edge_ideal(g)
        # the chain I^0 = R, I, I^2, ..., so a = 0 needs no special case
        powers = [MonomialIdeal.unit(ideal.vset), *ideal.powers(g.n)]
        failures = (
            f"a={a}"
            for a in iter_product(range(3), repeat=g.n)
            for member, total in [(edge_subring_member(g, a), sum(a))]
            if member
            != (total % 2 == 0 and powers[total // 2].contains(Monomial(ideal.vset, a)))
        )
        yield _first_failure(f"multiset-matching[{name}]", failures)


def commutation_sweep(named_graphs: dict[str, Graph]) -> Iterator[Check]:
    """Duplicating an edge of a parallelization equals bumping multiplicities."""

    def failures(g: Graph) -> Iterator[str]:
        for a in _multiplicity_samples(g.n)[: g.n + 1]:
            pg = parallelize(g, a)
            for copy_edge in sorted(pg.edge_set):
                x, y = copy_edge
                bumped = list(a)
                bumped[x[0]] += 1
                bumped[y[0]] += 1
                one_step = parallelize(g, bumped).edge_set
                if duplicate_copy_edge(pg, copy_edge) != one_step:
                    yield f"a={a} f={copy_edge}"

    for name, g in named_graphs.items():
        yield _first_failure(f"parallel-commutation[{name}]", failures(g))


# ---------------------------------------------------------------------------
# decomposition and closure batteries
# ---------------------------------------------------------------------------


def decomposition_validity(ideals: dict[str, MonomialIdeal]) -> Iterator[Check]:
    """Components intersect back to the ideal; dropping any one breaks it."""
    for name, ideal in ideals.items():
        comps = irreducible_decomposition(ideal)
        as_ideals = [c.as_ideal(ideal.vset) for c in comps]
        ok = reduce(MonomialIdeal.intersect, as_ideals) == ideal
        redundant = ok and len(as_ideals) > 1 and any(
            reduce(MonomialIdeal.intersect, as_ideals[:skip] + as_ideals[skip + 1 :])
            == ideal
            for skip in range(len(as_ideals))
        )
        yield f"decomposition-validity[{name}]", ok and not redundant, (
            f"{len(comps)} components"
            + ("" if ok else " INTERSECTION!=IDEAL")
            + (" REDUNDANT" if redundant else "")
        )


def min_ass_battery(named_graphs: dict[str, Graph]) -> Iterator[Check]:
    """For edge ideals the minimal primes are all of the associated primes and
    biject with the minimal vertex covers."""
    for name, g in named_graphs.items():
        ideal = edge_ideal(g)
        ass = set(associated_primes(ideal))
        mins = set(minimal_primes(ideal))
        covers = {frozenset(p.names) for p in ass}
        direct = set(minimal_vertex_covers(g))
        ok = ass == mins and covers == direct
        yield f"min-equals-ass[{name}]", ok, f"{len(ass)} covers"


def closure_battery(
    named_graphs: dict[str, Graph], max_power: int = 2
) -> Iterator[Check]:
    for name, g in named_graphs.items():
        ideal = edge_ideal(g)
        ok = True
        detail = []
        for step in power_chain(ideal, max_power):
            k, power, closure = step.k, step.power, step.closure
            if not power.is_subset_of(closure):
                ok = False
                detail.append(f"power not inside closure at k={k}")
            rows = closure.exponent_array
            if (rows.sum(axis=1) < 2 * k).any():
                ok = False
                detail.append(f"degree floor broken at k={k}")
            if (rows > np.array(power.max_exponents())).any():
                ok = False
                detail.append(f"generator outside box at k={k}")
            if not all(np_member(row, ideal, k) for row in rows.tolist()):
                ok = False
                detail.append(f"closure generator fails LP membership at k={k}")
        yield f"closure-sanity[{name}]", ok, "; ".join(detail)


def closure_oracle_soundness(
    named_graphs: dict[str, Graph], max_power: int = 2
) -> Iterator[Check]:
    """The matching oracle and exact LP membership give the same answer, in
    either direction, for every x^a with entries up to 2 and k <= max_power."""
    for name, g in named_graphs.items():
        ideal = edge_ideal(g)
        failures = (
            f"a={a} k={k}"
            for a in iter_product(range(3), repeat=g.n)
            for k in range(1, max_power + 1)
            if closure_member_matching_oracle(g, a, k) != np_member(a, ideal, k)
        )
        yield _first_failure(f"closure-oracle-soundness[{name}]", failures)


# ---------------------------------------------------------------------------
# assembled battery
# ---------------------------------------------------------------------------


def run_battery(
    max_vertices: int = 5,
    max_power: int = 3,
    seed: int = 2014,
    samples: int = 12,
) -> list[Check]:
    """The default property battery: exhaustive small graphs plus seeded ones."""
    from .fixtures import graph_catalog, ideal_catalog

    if integer_power(max_power, -inf, "the battery") < 1:
        raise UsageError("max power must be >= 1")
    if samples < 0:
        raise UsageError("samples must be >= 0")

    named = {
        name: g
        for name, g in graph_catalog().items()
        if g.n <= 6 and name not in ("FIG8",)
    }
    small_named = {name: g for name, g in named.items() if g.n <= 4}
    corpus = list(connected_graphs(2, max_vertices))
    seeded = sample_graphs(samples, (6, 7), seed)
    if not corpus and not seeded:
        # with no graphs the colon-identity and persistence sweeps are empty
        # and the battery would pass without testing either theorem
        raise UsageError(
            "no graphs to sweep: max vertices must be >= 2 or samples >= 1"
        )
    results: list[Check] = []
    results.extend(matching_battery(named))
    results.extend(certificate_battery(small_named))
    results.extend(membership_coherence_sweep(small_named, max_power=max_power))
    results.extend(multiset_matching_sweep(small_named))
    results.extend(commutation_sweep(small_named))
    results.extend(min_ass_battery(named))
    decomposition_targets: dict[str, MonomialIdeal] = {}
    for name, g in small_named.items():
        ideal = edge_ideal(g)
        decomposition_targets[name] = ideal
        decomposition_targets[f"{name}^2"] = ideal.power(2)
    decomposition_targets["ASSCE"] = ideal_catalog()["ASSCE"]
    results.extend(decomposition_validity(decomposition_targets))
    results.extend(closure_battery(small_named, max_power=max_power))
    results.extend(closure_oracle_soundness(small_named, max_power=2))
    results.extend(colon_identity_sweep(corpus, powers=range(1, max_power + 1)))
    results.extend(persistence_sweep(corpus, max_power=max_power))
    results.extend(persistence_sweep(seeded, max_power=2))
    results.extend(maximal_step_sweep(list(small_named.values()), max_power=max_power))
    return results
