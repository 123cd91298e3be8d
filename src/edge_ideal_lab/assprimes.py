"""Associated primes of monomial ideals via irredundant irreducible decomposition.

One engine computes the (unique) irredundant decomposition: the corner scan
localizes at each candidate support (inverting the other variables) and reads
components off the socle of the localized ideal: c is a corner iff c is outside
the ideal but every c*x_i is inside, and then the component has exponents c+1.
Membership over the box [0, u] under the generator maximum u is one mask per
ideal, its trailing axes (as many as fit in 64 cells) packed into the bits of
machine words. Localizing at a support raises the other coordinates to u,
where membership saturates, so the localizations partition that box (a cell
belongs to the support of its coordinates below u) and one pass of ANDs with
the next cell along each axis (slices on the leading axes, bit shifts on the
packed ones) finds the corners of every support at once. Only variables that
occur in some generator span the box.

A witness oracle re-derives the associated primes from the definition (the
colon by a monomial outside the ideal equals a prime) by lookups in the
boolean mask of monomials.membership_mask, which the engine does not use, and
is an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import inf, prod
from typing import Sequence

import numpy as np

from .errors import UsageError, check_box, check_time
from .monomials import (
    Monomial,
    MonomialIdeal,
    MonomialPrime,
    VariableSet,
    integer_power,
    membership_mask,
)

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


@lru_cache(maxsize=64)
def _word_layout(shape: tuple[int, ...]):
    """The trailing axes that fit in 64 cells are the bits of a word in C
    order, and the `lead` others index the words. Per packed axis: its bit
    stride, low (coordinate > 0) and top (coordinate at the maximum) bits,
    in the word dtype (numpy 2 promotes uint64 mixed with int64 to float)."""
    lead, bits = len(shape), 1
    while lead and bits * shape[lead - 1] <= 64:
        lead -= 1
        bits *= shape[lead]
    full = (1 << bits) - 1
    dtype = np.min_scalar_type(full).type  # uint8, 16, 32 or 64
    packed, stride = [], bits
    for n in shape[lead:]:
        stride //= n
        coord = [b // stride % n for b in range(bits)]
        low = sum(1 << b for b, c in enumerate(coord) if c > 0)
        top = sum(1 << b for b, c in enumerate(coord) if c == n - 1)
        packed.append((dtype(stride), dtype(low), dtype(top)))
    return lead, bits, dtype, dtype(full), tuple(packed)


def _corner_cells(ideal: MonomialIdeal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The occurring variables, their generator maximum u and one corner cell
    per irredundant component (exponents cell + 1 where the cell is below u)."""
    _require_decomposable(ideal)
    exps = ideal.exponent_array
    # a support holding a variable that occurs in no generator localizes to a
    # box with a zero side and has no corners, so only occurring ones count
    occurring = np.flatnonzero(exps.any(axis=0))
    rows = exps[:, occurring]
    u = rows.max(axis=0)
    shape = tuple((u + 1).tolist())
    check_box(prod(shape), "corner membership mask")
    lead, bits, dtype, full, packed = _word_layout(shape)
    # each generator sets its bit; prefix ORs along each axis spread the bits
    word, bit = np.divmod(np.ravel_multi_index(rows.T, shape), bits)
    member = np.zeros(shape[:lead], dtype)
    np.bitwise_or.at(member.reshape(-1), word, dtype(1) << bit.astype(dtype))
    for j in range(lead):
        check_time("the corner mask")
        along = member.swapaxes(0, j)
        for i in range(1, shape[j]):
            along[i] |= along[i - 1]
    for (stride, low, _), n in zip(packed, shape[lead:]):
        check_time("the corner mask")
        for _ in range(1, n):
            member |= (member << stride) & low
    # every cell c lies in the localization at exactly one support, S(c) =
    # {j : c_j < u_j} (the other coordinates sit at u, where membership
    # saturates; past the localized maximum it is constant along an axis, so
    # the wider box adds no corner). c is a corner of it when c is outside
    # the ideal and c + e_j is inside for every j in S(c): one pass over the
    # box tests every support at once. An improper localization (some
    # generator misses S) holds every cell of its region, so it has none.
    corners = ~member & full
    for j in range(lead):
        check_time("the corner scan")
        corners.swapaxes(0, j)[: u[j]] &= member.swapaxes(0, j)[1:]
    for stride, _, top in packed:
        check_time("the corner scan")
        corners &= (member >> stride) | top
    # shift the bits out of the nonzero words, with no byte-order assumption
    words = np.flatnonzero(corners)
    hit = (corners.ravel()[words, None] >> np.arange(bits, dtype=dtype)) & dtype(1)
    at, bit = np.nonzero(hit)
    cells = np.stack(np.unravel_index(words[at] * bits + bit, shape), axis=1)
    return occurring, u, cells


# ---------------------------------------------------------------------------
# public decomposition API
# ---------------------------------------------------------------------------


def irreducible_decomposition(ideal: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """The unique irredundant decomposition of a proper nonzero monomial ideal
    into ideals generated by pure variable powers."""
    occurring, u, cells = (a.tolist() for a in _corner_cells(ideal))
    comps = sorted(
        tuple((i, c + 1) for i, c, top in zip(occurring, cell, u) if c < top)
        for cell in cells
    )
    return tuple(IrreducibleComponent(c) for c in comps)


def associated_primes(ideal: MonomialIdeal) -> tuple[MonomialPrime, ...]:
    """Radical supports of the irredundant irreducible components, sorted."""
    # the box cap is checked before the memo, so a cached answer obeys it too
    check_box(prod(e + 1 for e in ideal.max_exponents()), "corner membership mask")
    return _associated_primes(ideal)


@lru_cache(maxsize=1)
def _associated_primes(ideal: MonomialIdeal) -> tuple[MonomialPrime, ...]:
    occurring, u, cells = _corner_cells(ideal)
    # each support as a bit code over the occurring variables
    place = 1 << np.arange(len(u))
    codes = set(((cells < u) @ place).tolist())
    supports = (occurring[(code & place) > 0] for code in codes)
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
    still outside I. S is one int64 key per outside cell, bit j set when c +
    e_j is in I, so at most 62 occurring variables are taken; one sort of the
    realized keys gives each prime its first witness in C order. A variable
    in no generator is never in such a colon, so the box spans the occurring
    variables only and witnesses are 0 elsewhere. Nothing is shared with the
    decomposition engine, which packs its own mask.
    """
    _require_decomposable(ideal)
    occurring = np.flatnonzero(ideal.exponent_array.any(axis=0))
    if len(occurring) > 62:
        raise UsageError(
            f"the witness oracle takes at most 62 variables, got {len(occurring)}"
        )
    rows = ideal.exponent_array[:, occurring]
    u = rows.max(axis=0).tolist()
    shape = tuple(e + 1 for e in u)
    total = prod(shape)
    check_box(total, "witness oracle box")
    member = membership_mask(rows, u).ravel()
    outside = np.flatnonzero(~member)
    raised = np.full(len(outside), total - 1, dtype=np.int64)  # the corner u
    keys = np.zeros(len(outside), dtype=np.int64)  # bit j: j in S
    stride = total
    for j, side in enumerate(shape):
        check_time("the witness oracle")
        stride //= side  # C-order stride of axis j
        c = outside // stride % side
        # c + e_j, or c itself where c_j = u_j (membership saturates there)
        in_prime = member[np.where(c < u[j], outside + stride, outside)]
        keys |= in_prime << np.int64(j)
        # keep c_j on the axes in S; the others stay raised to u_j
        raised -= np.where(in_prime, (u[j] - c) * stride, 0)
    realized = ~member[raised]
    keys, first = np.unique(keys[realized], return_index=True)
    supports = (keys[:, None] >> np.arange(len(occurring))) & 1 == 1
    exps = np.zeros((len(keys), ideal.vset.n), dtype=np.int64)
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
    if not parts or integer_power(k, -inf, "the disjoint-union rule") < 1:
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
