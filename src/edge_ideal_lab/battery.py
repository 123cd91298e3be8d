"""Reusable property sweeps: every theorem-shaped statement as a batch check.

Each sweep yields (name, passed, detail) triples so the CLI battery command,
the test suite, and the acceptance criteria all run the same code. Ideal
equalities over whole corpora are decided on membership masks over bounded
exponent boxes (both sides' minimal generators live inside the box, so mask
equality is ideal equality), which keeps exhaustive sweeps cheap.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .assprimes import (
    associated_primes,
    irreducible_decomposition,
    minimal_primes,
    minimal_vertex_covers,
)
from .closure import (
    NewtonPolyhedron,
    closure_member_matching_oracle,
    integral_closure_power,
    np_member,
)
from .errors import UsageError
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
    has_perfect_matching,
    matching_number,
    parallel_edge_set_canonical,
    parallelize,
    power_index,
    sample_graphs,
    tutte_condition_holds,
)
from .monomials import Monomial, MonomialIdeal, maximal_prime, membership_mask

Check = tuple[str, bool, str]


def colon_identity_holds(ideal: MonomialIdeal, k: int) -> bool:
    """Whether (I^(k+1) : I) equals I^k, decided on membership masks.

    colon membership at c is membership of c+g in the higher power for every
    generator g, i.e. an AND of shifted masks; both sides' minimal generators
    are bounded by the componentwise maxima, so the box decides equality.
    """
    # the chain I^0 = R, I, ..., I^(k+1), so k = 0 needs no special case
    *_, power_k, power_k1 = [MonomialIdeal.unit(ideal.vset), *ideal.powers(k + 1)]
    bounds = tuple(
        max(x, y) for x, y in zip(power_k.max_exponents(), power_k1.max_exponents())
    )
    extended = tuple(b + s for b, s in zip(bounds, ideal.max_exponents()))
    high_mask = membership_mask(power_k1.exponent_array, extended)
    colon_mask: np.ndarray | None = None
    for g in ideal.gens:
        idx = tuple(
            slice(e, e + b + 1) for e, b in zip(g.exps, bounds)
        )
        window = high_mask[idx]
        colon_mask = window if colon_mask is None else colon_mask & window
    assert colon_mask is not None
    return bool((colon_mask == membership_mask(power_k.exponent_array, bounds)).all())


# ---------------------------------------------------------------------------
# corpus sweeps
# ---------------------------------------------------------------------------


def corpus_graphs(max_vertices: int = 5) -> list[Graph]:
    return list(connected_graphs(2, max_vertices))


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
        ideal = edge_ideal(g)
        sets = [set(associated_primes(power)) for power in ideal.powers(max_power)]
        ok = all(a <= b for a, b in zip(sets, sets[1:]))
        yield f"persistence[{idx}:{g}]", ok, f"sizes {[len(s) for s in sets]}"


def maximal_step_sweep(
    graphs: Iterable[Graph], max_power: int = 3
) -> Iterator[Check]:
    """Once the full prime appears it stays in every later computed power."""
    for idx, g in enumerate(graphs):
        ideal = edge_ideal(g)
        m = maximal_prime(ideal.vset)
        seen = False
        ok = True
        for power in ideal.powers(max_power):
            present = m in associated_primes(power)
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
        direct = deficiency(g)
        yield f"berge-equals-deficiency[{name}]", value == direct, (
            f"berge {value} via S={sorted(witness)}, matching {direct}"
        )
        pm = has_perfect_matching(g)
        yield f"tutte-iff-perfect-matching[{name}]", pm == tutte_condition_holds(
            g
        ), f"pm={pm}"

        # duplicating any edge keeps a perfect matching exactly when one exists
        if g.edges:
            dup_pms = [has_perfect_matching(duplicate_edge(g, f).flat) for f in g.edges]
            yield f"edge-duplication-pm[{name}]", all(dup_pms) == pm, (
                f"pm={pm}, duplicated {sum(dup_pms)}/{len(dup_pms)}"
            )
            dup_defs = [deficiency(duplicate_edge(g, f).flat) for f in g.edges]
            nu = matching_number(g)
            dup_nus = [matching_number(duplicate_edge(g, f).flat) for f in g.edges]
            lhs = len(set(dup_defs)) == 1
            rhs = len(set(dup_defs)) == 1 and dup_defs[0] == direct and all(
                v == nu + 1 for v in dup_nus
            )
            yield f"constant-dup-deficiency[{name}]", lhs == rhs, (
                f"dup defs {sorted(set(dup_defs))}, def {direct}"
            )


def certificate_battery(named_graphs: dict[str, Graph]) -> Iterator[Check]:
    for name, g in named_graphs.items():
        for a in _multiplicity_samples(g.n):
            cert = factor_by_matching(g, a)
            pg_nu = power_index(g, a)
            ok = (
                cert.matched_degree == pg_nu
                and cert.delta.degree == sum(a) - 2 * pg_nu
            )
            if not ok:
                yield f"factorization[{name}]", False, f"a={a}"
                break
        else:
            yield f"factorization[{name}]", True, ""


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
    named_graphs: dict[str, Graph], max_power: int = 4, max_entry: int = 2
) -> Iterator[Check]:
    """Power membership of x^a agrees with the matching number of the
    parallelization, for every a with entries up to max_entry."""
    for name, g in named_graphs.items():
        ideal = edge_ideal(g)
        powers = list(ideal.powers(max_power))
        ok = True
        bad = ""
        for a in iter_product(range(max_entry + 1), repeat=g.n):
            nu = power_index(g, a)
            x_a = Monomial(ideal.vset, a)
            for k in range(1, max_power + 1):
                if powers[k - 1].contains(x_a) != (k <= nu):
                    ok = False
                    bad = f"a={a} k={k} nu={nu}"
                    break
            if not ok:
                break
        yield f"membership-coherence[{name}]", ok, bad


def multiset_matching_sweep(
    named_graphs: dict[str, Graph], max_entry: int = 3
) -> Iterator[Check]:
    """x^a is a product of edges exactly when the parallelization has a
    perfect matching; the ideal-membership route is the independent check."""
    for name, g in named_graphs.items():
        ideal = edge_ideal(g)
        powers = list(ideal.powers((max_entry * g.n) // 2))
        ok = True
        bad = ""
        for a in iter_product(range(max_entry + 1), repeat=g.n):
            total = sum(a)
            member = edge_subring_member(g, a)
            if total % 2 == 1:
                expected = False
            else:
                expected = total == 0 or powers[total // 2 - 1].contains(
                    Monomial(ideal.vset, a)
                )
            if member != expected:
                ok = False
                bad = f"a={a}"
                break
        yield f"multiset-matching[{name}]", ok, bad


def commutation_sweep(
    named_graphs: dict[str, Graph], multiplicities: Sequence[tuple[int, ...]] = ()
) -> Iterator[Check]:
    """Duplicating an edge of a parallelization equals bumping multiplicities."""
    for name, g in named_graphs.items():
        vectors = list(multiplicities) or _multiplicity_samples(g.n)[: g.n + 1]
        ok = True
        bad = ""
        for a in vectors:
            pg = parallelize(g, a)
            for copy_edge in sorted(pg.edge_set):
                x, y = copy_edge
                bumped = list(a)
                bumped[x[0]] += 1
                bumped[y[0]] += 1
                direct = duplicate_copy_edge(pg, copy_edge)
                one_step = parallel_edge_set_canonical(parallelize(g, bumped))
                if direct != one_step:
                    ok = False
                    bad = f"a={a} f={copy_edge}"
                    break
            if not ok:
                break
        yield f"parallel-commutation[{name}]", ok, bad


# ---------------------------------------------------------------------------
# decomposition and closure batteries
# ---------------------------------------------------------------------------


def decomposition_validity(ideals: dict[str, MonomialIdeal]) -> Iterator[Check]:
    """Components intersect back to the ideal; dropping any one breaks it."""
    for name, ideal in ideals.items():
        comps = irreducible_decomposition(ideal)
        as_ideals = [c.as_ideal(ideal.vset) for c in comps]
        total = as_ideals[0]
        for other in as_ideals[1:]:
            total = total.intersect(other)
        ok = total == ideal
        irredundant = True
        if ok and len(as_ideals) > 1:
            for skip in range(len(as_ideals)):
                rest = [c for i, c in enumerate(as_ideals) if i != skip]
                partial = rest[0]
                for other in rest[1:]:
                    partial = partial.intersect(other)
                if partial == ideal:
                    irredundant = False
                    break
        yield f"decomposition-validity[{name}]", ok and irredundant, (
            f"{len(comps)} components"
            + ("" if ok else " INTERSECTION!=IDEAL")
            + ("" if irredundant else " REDUNDANT")
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
        for k, power in enumerate(ideal.powers(max_power), 1):
            closure = integral_closure_power(ideal, k)
            if not power.is_subset_of(closure):
                ok = False
                detail.append(f"power not inside closure at k={k}")
            floor = 2 * k
            if any(m.degree < floor for m in closure.gens):
                ok = False
                detail.append(f"degree floor broken at k={k}")
            bound = power.max_exponents()
            if any(
                any(e > b for e, b in zip(m.exps, bound)) for m in closure.gens
            ):
                ok = False
                detail.append(f"generator outside box at k={k}")
            poly = NewtonPolyhedron.of_power(ideal, k)
            if not all(np_member(m, poly) for m in closure.gens):
                ok = False
                detail.append(f"closure generator fails LP membership at k={k}")
        yield f"closure-sanity[{name}]", ok, "; ".join(detail)


def closure_oracle_soundness(
    named_graphs: dict[str, Graph], max_power: int = 2, max_entry: int = 2
) -> Iterator[Check]:
    """Every certificate from the matching-based closure oracle is confirmed
    by exact LP membership."""
    for name, g in named_graphs.items():
        ideal = edge_ideal(g)
        ok = True
        bad = ""
        for a in iter_product(range(max_entry + 1), repeat=g.n):
            for k in range(1, max_power + 1):
                cert = closure_member_matching_oracle(g, a, k)
                if cert is True:
                    if not np_member(a, NewtonPolyhedron.of_power(ideal, k)):
                        ok = False
                        bad = f"a={a} k={k}"
        yield f"closure-oracle-soundness[{name}]", ok, bad


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

    if max_power < 1:
        raise UsageError("max power must be >= 1")
    if samples < 0:
        raise UsageError("samples must be >= 0")

    named = {
        name: g
        for name, g in graph_catalog().items()
        if g.n <= 6 and name not in ("FIG8",)
    }
    small_named = {name: g for name, g in named.items() if g.n <= 4}
    corpus = corpus_graphs(max_vertices)
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
    results.extend(multiset_matching_sweep(small_named, max_entry=2))
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
    results.extend(closure_oracle_soundness(small_named, max_power=2, max_entry=2))
    results.extend(colon_identity_sweep(corpus, powers=range(1, max_power + 1)))
    results.extend(persistence_sweep(corpus, max_power=max_power))
    results.extend(persistence_sweep(seeded, max_power=2))
    results.extend(maximal_step_sweep(list(small_named.values()), max_power=max_power))
    return results
