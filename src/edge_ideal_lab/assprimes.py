"""Associated primes of monomial ideals via irredundant irreducible decomposition.

One engine computes the (unique) irredundant decomposition: the corner scan
localizes at each candidate support (inverting the other variables) and reads
components off the socle of the localized ideal: c is a corner iff c is outside
the ideal but every c*x_i is inside, and then the component has exponents c+1.
Membership over the box [0, u] under the generator maximum u is one boolean
array per ideal. Localizing at a support raises the other coordinates to u,
where membership saturates, so the localizations partition that box (a cell
belongs to the support of its coordinates below u) and one pass of shifted
slice ANDs over it finds the corners of every support at once. Only variables
that occur in some generator span the box.

A witness oracle re-derives the associated primes from the definition (the
colon by a monomial outside the ideal equals a prime) by lookups in one
membership mask, and is used as an independent cross-check. Both build that
mask with monomials.membership_mask, a prefix scan of in-place slice ORs
along each axis that allocates nothing beyond the mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import prod
from typing import Sequence

import numpy as np

from .errors import COVER_CAP, BudgetExceededError, UsageError, check_box, check_time
from .graphs import Graph
from .monomials import (
    Monomial,
    MonomialIdeal,
    MonomialPrime,
    VariableSet,
    membership_mask,
)

_CORNER_BLOCK = 1 << 21  # cells per block of the corner pass


@dataclass(frozen=True)
class IrreducibleComponent:
    """An ideal generated by pure powers: entries (variable index, exponent)."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.entries:
            raise UsageError("an irreducible component needs non-empty support")
        if self.entries != tuple(sorted(self.entries)) or any(
            e <= 0 for _, e in self.entries
        ):
            raise UsageError("entries must be sorted with positive exponents")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def as_ideal(self, vset: VariableSet) -> MonomialIdeal:
        rows = np.zeros((len(self.entries), vset.n), dtype=np.int64)
        for row, (i, e) in enumerate(self.entries):
            rows[row, i] = e
        return MonomialIdeal.from_exponents(vset, rows)


def _require_decomposable(ideal: MonomialIdeal) -> None:
    if ideal.is_zero:
        raise UsageError("cannot decompose the zero ideal")
    if ideal.is_unit:
        raise UsageError("cannot decompose the unit ideal")


# ---------------------------------------------------------------------------
# corner engine
# ---------------------------------------------------------------------------


def _corner_components(ideal: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    exps = ideal.exponent_array
    # a support holding a variable that occurs in no generator localizes to a
    # box with a zero side and has no corners, so only occurring ones count
    occurring = [i for i in range(ideal.vset.n) if exps[:, i].any()]
    rows = exps[:, occurring]
    u = rows.max(axis=0).tolist()
    cells = prod(v + 1 for v in u)
    check_box(cells, "corner membership mask")
    member = membership_mask(rows, u)
    # every cell c lies in the localization at exactly one support, S(c) =
    # {j : c_j < u_j} (the other coordinates sit at u, where membership
    # saturates; past the localized maximum it is constant along an axis, so
    # the wider box adds no corner). c is a corner of it when c is outside
    # the ideal and c + e_j is inside for every j in S(c): one pass over the
    # box tests every support at once. An improper localization (some
    # generator misses S) holds every cell of its region, so it has none.
    # The pass runs over blocks of leading-axis slices, so the corner array
    # beside the mask stays near _CORNER_BLOCK cells.
    out = []
    step = max(1, _CORNER_BLOCK * (u[0] + 1) // cells)
    for lo in range(0, u[0] + 1, step):
        check_time("the corner scan")
        window = member[lo : lo + step]
        corners = ~window
        # the leading axis reads the slice after each one, past the window
        below = min(lo + step, u[0]) - lo
        corners[:below] &= member[lo + 1 : lo + 1 + below]
        for j in range(1, len(u)):
            lead = (slice(None),) * j
            corners[lead + (slice(0, u[j]),)] &= window[lead + (slice(1, None),)]
        for cell in np.argwhere(corners).tolist():
            cell[0] += lo
            out.append(
                tuple((occurring[j], c + 1) for j, c in enumerate(cell) if c < u[j])
            )
    return tuple(IrreducibleComponent(c) for c in sorted(out))


# ---------------------------------------------------------------------------
# public decomposition API
# ---------------------------------------------------------------------------


def irreducible_decomposition(ideal: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """The unique irredundant decomposition of a proper nonzero monomial ideal
    into ideals generated by pure variable powers."""
    _require_decomposable(ideal)
    return _corner_components(ideal)


def associated_primes(ideal: MonomialIdeal) -> tuple[MonomialPrime, ...]:
    """Radical supports of the irredundant irreducible components, sorted."""
    # the box cap is checked before the memo, so a cached answer obeys it too
    check_box(prod(e + 1 for e in ideal.max_exponents()), "corner membership mask")
    return _associated_primes(ideal)


@lru_cache(maxsize=512)
def _associated_primes(ideal: MonomialIdeal) -> tuple[MonomialPrime, ...]:
    supports = {c.support for c in irreducible_decomposition(ideal)}
    return tuple(sorted(MonomialPrime.from_indices(ideal.vset, s) for s in supports))


def minimal_primes(ideal: MonomialIdeal) -> tuple[MonomialPrime, ...]:
    primes = associated_primes(ideal)
    supports = [set(p.names) for p in primes]
    return tuple(
        sorted(
            p
            for p, s in zip(primes, supports)
            if not any(o < s for o in supports)
        )
    )


def minimal_vertex_covers(graph: Graph) -> tuple[frozenset[str], ...]:
    """Inclusion-minimal vertex sets meeting every edge, by direct enumeration."""
    if graph.has_isolated_vertices():
        raise UsageError("vertex covers are for graphs without isolated vertices")
    if graph.n > COVER_CAP:
        raise BudgetExceededError(f"cover enumeration capped at {COVER_CAP} vertices")
    covers = []
    for r in range(graph.n + 1):
        for subset in combinations(range(graph.n), r):
            s = set(subset)
            if all(u in s or v in s for u, v in graph.edges):
                if not any(c <= s for c in covers):
                    covers.append(s)
    return tuple(
        sorted(frozenset(graph.labels[v] for v in c) for c in covers)
    )


# ---------------------------------------------------------------------------
# witness oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssWitness:
    """A prime realized as (ideal : witness), with the witness outside the ideal."""

    prime: MonomialPrime
    witness: Monomial


def associated_primes_witness_oracle(ideal: MonomialIdeal) -> tuple[AssWitness, ...]:
    """Associated primes straight from the definition, each with its witness.

    Every associated prime is (I : x^c) for some c in the box [0, u] under the
    generator maximum u, beyond which membership no longer changes. For c
    outside I let S = {i : c + e_i in I}; where c_i = u_i, c + e_i saturates
    back to c and so counts as outside. Then (I : x^c) contains P_S, and
    equals it exactly when c, with every coordinate outside S raised to u, is
    still outside I. Each prime keeps its first witness in C order. A variable
    in no generator is never in such a colon, so the box spans the occurring
    variables only and witnesses are 0 elsewhere. Only the membership mask
    builder is shared with the decomposition engine.
    """
    _require_decomposable(ideal)
    occurring = np.flatnonzero(ideal.exponent_array.any(axis=0))
    rows = ideal.exponent_array[:, occurring]
    u = rows.max(axis=0).tolist()
    shape = tuple(e + 1 for e in u)
    total = prod(shape)
    check_box(total, "witness oracle box")
    member = membership_mask(rows, u).ravel()
    outside = np.flatnonzero(~member)
    raised = np.full(len(outside), total - 1, dtype=np.int64)  # the corner u
    in_prime = np.empty((len(occurring), len(outside)), dtype=bool)
    stride = total
    for j, side in enumerate(shape):
        check_time("the witness oracle")
        stride //= side  # C-order stride of axis j
        c = outside // stride % side
        # c + e_j, or c itself where c_j = u_j (membership saturates there)
        in_prime[j] = member[np.where(c < u[j], outside + stride, outside)]
        # keep c_j on the axes in S; the others stay raised to u_j
        raised -= np.where(in_prime[j], (u[j] - c) * stride, 0)
    realized = ~member[raised]
    supports, first = np.unique(in_prime[:, realized].T, axis=0, return_index=True)
    exps = np.zeros((len(supports), ideal.vset.n), dtype=np.int64)
    exps[:, occurring] = np.transpose(np.unravel_index(outside[realized][first], shape))
    witnesses = [
        AssWitness(
            MonomialPrime.from_indices(ideal.vset, occurring[support]),
            Monomial(ideal.vset, tuple(row)),
        )
        for support, row in zip(supports, exps.tolist())
    ]
    return tuple(sorted(witnesses, key=lambda w: w.prime))


# ---------------------------------------------------------------------------
# disjoint unions
# ---------------------------------------------------------------------------


def disjoint_union_ass(
    parts: Sequence[MonomialIdeal], k: int
) -> tuple[MonomialPrime, ...]:
    """Associated primes of the k-th power of a sum of ideals in pairwise
    disjoint variables: unions of per-part primes at powers k_i >= 1 with
    sum (k_i - 1) = k - 1."""
    if not parts or k < 1:
        raise UsageError("need at least one part and a positive power")
    for part in parts:
        _require_decomposable(part)
    names = [name for p in parts for name in p.vset.names]
    if len(set(names)) != len(names):
        raise UsageError("parts must use pairwise disjoint variable names")

    s = len(parts)
    results: set[MonomialPrime] = set()
    for ks in product(range(1, k + 1), repeat=s):
        if sum(ks) != k + s - 1:
            continue
        per_part = [associated_primes(p.power(ki)) for p, ki in zip(parts, ks)]
        for choice in product(*per_part):
            names = sorted(name for p in choice for name in p.names)
            results.add(MonomialPrime(tuple(names)))
    return tuple(sorted(results))
