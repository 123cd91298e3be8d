"""Exact arithmetic on monomials and monomial ideals over a fixed variable set.

Monomials are exponent vectors; ideals carry a canonical minimal generating
set, sorted by (degree, exponents) so that every computation is deterministic
and serializations are byte-stable.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, reduce
from math import prod
from operator import index
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import MismatchedVariablesError, UsageError, check_time

MAX_EXPONENT = 2**31  # overflow guard; degrees in scope stay tiny


@dataclass(frozen=True)
class VariableSet:
    """An ordered finite set of distinct variable names."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise UsageError("variable set must be non-empty")
        if len(set(self.names)) != len(self.names):
            raise UsageError("variable names must be distinct")

    @classmethod
    def standard(cls, n: int, prefix: str = "x") -> VariableSet:
        """x1..xn."""
        return cls(tuple(f"{prefix}{i}" for i in range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def __repr__(self) -> str:
        return f"VariableSet({' '.join(self.names)})"


def _trusted(cls, **fields):
    """An instance of a frozen dataclass built without its __post_init__
    checks, for values that are canonical by construction."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def integers(values: Iterable) -> tuple[int, ...]:
    """The values as Python ints; a non-integer such as 1.5 is refused."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise UsageError("exponents must be integers") from None


def integer_power(k, least: int, what: str) -> int:
    """The power k as a Python int, refused unless it is an integer >= least."""
    try:
        k = index(k)
    except TypeError:
        raise UsageError(f"{what} needs an integer power") from None
    if k < least:
        raise UsageError(f"{what} needs a power >= {least}")
    return k


def _check_range(low: int, high: int) -> None:
    if low < 0:
        raise UsageError("exponents must be non-negative")
    if high > MAX_EXPONENT:
        raise UsageError("exponent overflow")


def _check_same(a: VariableSet, b: VariableSet) -> None:
    if a.names != b.names:
        raise MismatchedVariablesError(f"variable sets differ: {a!r} vs {b!r}")


@dataclass(frozen=True)
class Monomial:
    """x^a for an exponent vector a over a fixed variable set."""

    vset: VariableSet
    exps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exps", integers(self.exps))
        if len(self.exps) != self.vset.n:
            raise UsageError("exponent vector length must equal variable count")
        _check_range(min(self.exps), max(self.exps))

    @classmethod
    def variable(cls, vset: VariableSet, i: int) -> Monomial:
        """The unit-vector monomial x_i (0-based index)."""
        e = [0] * vset.n
        e[i] = 1
        return cls(vset, tuple(e))

    @property
    def degree(self) -> int:
        return sum(self.exps)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.exps) if e > 0)

    @property
    def is_one(self) -> bool:
        return all(e == 0 for e in self.exps)

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)

    def divides(self, other: Monomial) -> bool:
        _check_same(self.vset, other.vset)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def mul(self, other: Monomial) -> Monomial:
        _check_same(self.vset, other.vset)
        return Monomial(self.vset, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __str__(self) -> str:
        if self.is_one:
            return "1"
        parts = []
        for name, e in zip(self.vset.names, self.exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({self})"


def _exponent_rows(n: int, exps: np.ndarray | Iterable[Sequence[int]]) -> np.ndarray:
    """Validated exponent rows as an (m, n) int64 matrix: an integer array or
    any iterable of length-n rows of integers, every entry in range."""
    if not isinstance(exps, np.ndarray):
        rows = [integers(r) for r in exps]
        if any(len(r) != n for r in rows):
            raise UsageError("exponent vector length must equal variable count")
        # checked on Python ints: the int64 cast must not see a huge value
        flat = [v for r in rows for v in r]
        _check_range(min(flat, default=0), max(flat, default=0))
        return np.array(rows, dtype=np.int64).reshape(-1, n)
    if exps.ndim != 2 or exps.shape[1] != n:
        raise UsageError("exponent vector length must equal variable count")
    if exps.dtype.kind not in "biu":  # bool, signed, unsigned
        raise UsageError("exponents must be integers")
    if exps.size:
        _check_range(exps.min(), exps.max())
    return exps.astype(np.int64, copy=False)


def _distinct_sorted(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a non-empty int64 matrix in (degree, lex) order,
    with their degrees.

    One int64 key per row, the degree and then the exponents in mixed radix
    (radix max + 1 per column, column 0 most significant), orders the rows
    exactly as (degree, lex) does, and equal keys are equal rows: one argsort
    and one first-of-run mask. Rows whose key would not fit in int64 take a
    row-wise unique and lexsort instead.
    """
    degs = arr.sum(axis=1)
    radix = [v + 1 for v in arr.max(axis=0).tolist()]
    span = prod(radix)
    # checked on Python ints: the largest key is (max degree + 1) * span - 1
    if span * (int(degs.max()) + 1) <= 2**63:
        weights = [prod(radix[c + 1 :]) for c in range(len(radix))]
        keys = arr @ np.array(weights, dtype=np.int64) + degs * span
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.empty(len(keys), dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        order = order[first]
        return arr[order], degs[order]
    arr = np.unique(arr, axis=0)
    degs = arr.sum(axis=1)
    order = np.lexsort(
        tuple(arr[:, c] for c in range(arr.shape[1] - 1, -1, -1)) + (degs,)
    )
    return arr[order], degs[order]


def minimalize_rows(rows: np.ndarray) -> np.ndarray:
    """Divisibility-minimal rows of an exponent matrix, sorted by (degree, lex).

    Rows are deduplicated and sorted on one packed int64 key per row (degree,
    then mixed-radix exponents; a row-wise unique and lexsort when the key
    would overflow), then filtered by degree blocks: a vector can only be
    divided by a kept vector of strictly smaller degree, so each block needs
    one vectorized comparison against the kept set.
    """
    arr = np.asarray(rows, dtype=np.int64)
    if arr.shape[0] == 0:
        return arr
    arr, degs = _distinct_sorted(arr)
    cuts = [0, *(np.flatnonzero(degs[1:] != degs[:-1]) + 1).tolist(), len(arr)]
    kept = arr[: cuts[1]]  # the lowest degree block is minimal
    for start, stop in zip(cuts[1:], cuts[2:]):
        block = arr[start:stop]
        divisible = (kept[None, :, :] <= block[:, None, :]).all(axis=2).any(axis=1)
        if not divisible.all():
            kept = np.vstack((kept, block[~divisible]))
    return kept


def membership_mask(rows: np.ndarray, bounds: Sequence[int]) -> np.ndarray:
    """Boolean array over the box [0, bounds] marking the multiples of any row.

    Each in-box row marks its own cell, and a prefix scan along every axis
    spreads the marks to all multiples: slice i of the axis is ORed in place
    with slice i - 1, so the work is O(n * box) with no box-sized temporary.
    A row that exceeds the box somewhere marks nothing.
    """
    upper = np.asarray(bounds)
    arr = np.asarray(rows, dtype=np.int64).reshape(-1, len(upper))
    mask = np.zeros(tuple(upper + 1), dtype=bool)
    mask[tuple(arr[(arr <= upper).all(axis=1)].T)] = True
    for axis, length in enumerate(mask.shape):
        check_time("a membership mask")
        lead = (slice(None),) * axis
        for i in range(1, length):
            mask[lead + (i,)] |= mask[lead + (i - 1,)]
    return mask


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, held as its canonical minimal generating set.

    The one stored form is the read-only int64 ``exponent_array`` of the
    divisibility-minimal generators sorted by (degree, exponents); equality,
    hashing and every query read it. ``gens`` gives the same rows as
    :class:`Monomial` objects, built on first use; the power chain of
    :meth:`powers` is cached the same way. Neither is a field, so neither
    takes part in equality or hashing. The empty array is the zero
    ideal; the single row 0 is the unit ideal. Construct through
    :meth:`from_exponents` (the one constructor that canonicalizes),
    :meth:`from_monomials` or the arithmetic methods. A direct
    ``MonomialIdeal(vset, rows)`` validates the rows and requires them to be
    canonical already.
    """

    vset: VariableSet
    # the read-only (num_gens, n) int64 matrix of the generators' exponents
    exponent_array: np.ndarray

    @classmethod
    def from_monomials(cls, vset: VariableSet, gens: Iterable[Monomial]) -> MonomialIdeal:
        gens = list(gens)
        for g in gens:
            _check_same(vset, g.vset)
        return cls.from_exponents(vset, [g.exps for g in gens])

    @classmethod
    def from_exponents(
        cls, vset: VariableSet, exps: np.ndarray | Iterable[Sequence[int]]
    ) -> MonomialIdeal:
        """The ideal generated by the given exponent rows: an integer (m, n)
        array or any iterable of length-n rows. Rows are validated here, once,
        and minimalized once."""
        return cls._canonical(vset, minimalize_rows(_exponent_rows(vset.n, exps)))

    @classmethod
    def _canonical(cls, vset: VariableSet, rows: np.ndarray) -> MonomialIdeal:
        """Wrap rows that are already minimal and sorted, without re-checking."""
        rows = rows.view()
        rows.setflags(write=False)
        return _trusted(cls, vset=vset, exponent_array=rows)

    @classmethod
    def zero(cls, vset: VariableSet) -> MonomialIdeal:
        return cls._canonical(vset, np.zeros((0, vset.n), dtype=np.int64))

    @classmethod
    def unit(cls, vset: VariableSet) -> MonomialIdeal:
        return cls._canonical(vset, np.zeros((1, vset.n), dtype=np.int64))

    def __post_init__(self):
        rows = _exponent_rows(self.vset.n, self.exponent_array)
        canonical = minimalize_rows(rows).view()
        if not np.array_equal(rows, canonical):
            raise UsageError("generators are not the sorted divisibility-minimal set")
        canonical.setflags(write=False)
        object.__setattr__(self, "exponent_array", canonical)

    @cached_property
    def gens(self) -> tuple[Monomial, ...]:
        """The generators as :class:`Monomial` objects, in canonical order."""
        return tuple(
            _trusted(Monomial, vset=self.vset, exps=tuple(r))
            for r in self.exponent_array.tolist()
        )

    @property
    def is_zero(self) -> bool:
        return len(self.exponent_array) == 0

    @property
    def is_unit(self) -> bool:
        return len(self.exponent_array) == 1 and not self.exponent_array.any()

    @property
    def is_squarefree(self) -> bool:
        return bool((self.exponent_array <= 1).all())

    def generated_degree(self) -> int | None:
        """The common generator degree, or None for mixed degrees / zero ideal."""
        # rows are sorted by degree, so the first and last bound all of them
        degs = self.exponent_array.sum(axis=1)
        return int(degs[0]) if len(degs) and degs[0] == degs[-1] else None

    @cached_property
    def _max_exponents(self) -> tuple[int, ...]:
        return tuple(self.exponent_array.max(axis=0, initial=0).tolist())

    def max_exponents(self) -> tuple[int, ...]:
        """Componentwise max of the generators (the exponent vector of their lcm)."""
        return self._max_exponents

    @cached_property
    def _bitsets(self) -> tuple[tuple[list[int], tuple[int, ...]], ...]:
        """Per variable: its distinct exponents e_1 < ... < e_r, and 0 then, per
        e_j, the bitset of the generators with exponent <= e_j (bit g: row g)."""
        out = []
        for col in self.exponent_array.T:
            values = sorted(set(col.tolist()))
            bits = np.packbits(col <= np.c_[values], axis=1, bitorder="little")
            masks = (0, *(int.from_bytes(row.tobytes(), "little") for row in bits))
            out.append((values, masks))
        return tuple(out)

    def contains(self, m: Monomial) -> bool:
        """Whether some generator divides m: one bitset AND per variable."""
        _check_same(self.vset, m.vset)
        return self._contains_row(m.exps)

    def _contains_row(self, exps: Sequence[int]) -> bool:
        """contains for a row of n exponents, taken as given."""
        acc = -1  # every generator
        for e, (values, masks) in zip(exps, self._bitsets):
            acc &= masks[bisect_right(values, e)]
            if not acc:
                return False
        return True

    def is_subset_of(self, other: MonomialIdeal) -> bool:
        _check_same(self.vset, other.vset)
        return all(map(other.contains, self.gens))

    def sum(self, other: MonomialIdeal) -> MonomialIdeal:
        _check_same(self.vset, other.vset)
        return MonomialIdeal.from_exponents(
            self.vset, np.vstack((self.exponent_array, other.exponent_array))
        )

    def product(self, other: MonomialIdeal) -> MonomialIdeal:
        _check_same(self.vset, other.vset)
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.vset)
        a = self.exponent_array
        b = other.exponent_array
        prods = (a[:, None, :] + b[None, :, :]).reshape(-1, self.vset.n)
        return MonomialIdeal.from_exponents(self.vset, prods)

    @cached_property
    def _chain(self) -> list[MonomialIdeal]:
        """I^2, I^3, ... as far as any walk has built them; not I, since a
        chain that held its owner would make every walked ideal a cycle."""
        return []

    def powers(self, max_power: int) -> Iterator[MonomialIdeal]:
        """I, I^2, ..., I^max_power, each one the previous one times I.

        The chain is memoized on this instance, like ``gens``: a walk builds
        only the powers no earlier walk reached, one product each, and yields
        the same objects every time. Lazy: a consumer that stops early builds
        no further product. A negative or non-integer max_power is refused at
        the call, before any step.
        """
        count = integer_power(max_power, 0, "the power chain")
        return map(self._chain_step, range(count))

    def _chain_step(self, k: int) -> MonomialIdeal:
        """I^(k+1), built from I^k when no walk has reached it yet."""
        chain = self._chain
        if k > len(chain):
            chain.append((chain[-1] if chain else self).product(self))
        return chain[k - 1] if k else self

    def power(self, k: int) -> MonomialIdeal:
        """The k-th element of the power chain; k = 0 gives the unit ideal."""
        *_, last = [MonomialIdeal.unit(self.vset), *self.powers(k)]
        return last

    def intersect(self, other: MonomialIdeal) -> MonomialIdeal:
        _check_same(self.vset, other.vset)
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.vset)
        a = self.exponent_array
        b = other.exponent_array
        lcms = np.maximum(a[:, None, :], b[None, :, :]).reshape(-1, self.vset.n)
        return MonomialIdeal.from_exponents(self.vset, lcms)

    def colon_monomial(self, m: Monomial) -> MonomialIdeal:
        """(self : m) for a single monomial m."""
        _check_same(self.vset, m.vset)
        quotients = np.maximum(self.exponent_array - np.array(m.exps, dtype=np.int64), 0)
        return MonomialIdeal.from_exponents(self.vset, quotients)

    def colon(self, other: MonomialIdeal) -> MonomialIdeal:
        """(self : other) = intersection of the colons by the generators of other."""
        _check_same(self.vset, other.vset)
        if other.is_zero:
            raise UsageError("colon by the zero ideal is undefined")
        return reduce(MonomialIdeal.intersect, map(self.colon_monomial, other.gens))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.vset.names == other.vset.names and np.array_equal(
            self.exponent_array, other.exponent_array
        )

    def __hash__(self) -> int:
        return hash((self.vset.names, self.exponent_array.tobytes()))

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.gens)

    def __len__(self) -> int:
        return len(self.exponent_array)

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"

    def __repr__(self) -> str:
        return f"MonomialIdeal{self}"


@dataclass(frozen=True, order=True)
class MonomialPrime:
    """A prime generated by a subset of the variables."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise UsageError("a monomial prime needs non-empty support")
        if self.names != tuple(sorted(set(self.names))):
            raise UsageError("prime support must be sorted and duplicate-free")

    @classmethod
    def from_indices(cls, vset: VariableSet, indices: Iterable[int]) -> MonomialPrime:
        return cls(tuple(sorted(vset.names[i] for i in set(indices))))

    def as_ideal(self, vset: VariableSet) -> MonomialIdeal:
        return MonomialIdeal.from_monomials(
            vset, (Monomial.variable(vset, vset.index[name]) for name in self.names)
        )

    def __str__(self) -> str:
        return "(" + ",".join(self.names) + ")"


def maximal_prime(vset: VariableSet) -> MonomialPrime:
    """The prime generated by every variable."""
    return MonomialPrime(tuple(sorted(vset.names)))


def primes_to_lists(primes: Iterable[MonomialPrime]) -> list[list[str]]:
    """Canonical serialization: sorted list of sorted variable-name lists."""
    return sorted([list(p.names) for p in primes])
