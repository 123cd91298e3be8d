"""Exact arithmetic on monomials and monomial ideals over a fixed variable set.

Monomials are exponent vectors; ideals carry a canonical minimal generating
set, sorted by (degree, exponents) so that every computation is deterministic
and serializations are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import MismatchedVariablesError, UsageError

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
        if len(self.exps) != self.vset.n:
            raise UsageError("exponent vector length must equal variable count")
        _check_range(min(self.exps), max(self.exps))

    @classmethod
    def one(cls, vset: VariableSet) -> Monomial:
        return cls(vset, (0,) * vset.n)

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


def minimalize_rows(rows: np.ndarray) -> np.ndarray:
    """Divisibility-minimal rows of an exponent matrix, sorted by (degree, lex).

    Rows are deduplicated, then filtered by degree blocks: a vector can only be
    divided by a kept vector of strictly smaller degree, so each block needs one
    vectorized comparison against the kept set.
    """
    arr = np.asarray(rows, dtype=np.int64)
    if arr.shape[0] == 0:
        return arr
    arr = np.unique(arr, axis=0)
    degs = arr.sum(axis=1)
    order = np.lexsort(
        tuple(arr[:, c] for c in range(arr.shape[1] - 1, -1, -1)) + (degs,)
    )
    arr = arr[order]
    degs = degs[order]
    kept_blocks: list[np.ndarray] = []
    start = 0
    m = len(arr)
    while start < m:
        stop = start
        while stop < m and degs[stop] == degs[start]:
            stop += 1
        block = arr[start:stop]
        if kept_blocks:
            kept = kept_blocks[0] if len(kept_blocks) == 1 else np.vstack(kept_blocks)
            kept_blocks = [kept]
            divisible = (kept[None, :, :] <= block[:, None, :]).all(axis=2).any(axis=1)
            block = block[~divisible]
        if len(block):
            kept_blocks.append(block)
        start = stop
    if not kept_blocks:
        return arr[:0]
    return kept_blocks[0] if len(kept_blocks) == 1 else np.vstack(kept_blocks)


def membership_mask(rows: np.ndarray, bounds: Sequence[int]) -> np.ndarray:
    """Boolean array over the box [0, bounds] marking the multiples of any row.

    Each in-box row marks its own cell, and a logical-or prefix scan along
    every axis spreads the marks to all multiples: O(n * box) work. A row that
    exceeds the box somewhere marks nothing.
    """
    upper, arr = np.asarray(bounds), np.asarray(rows)
    mask = np.zeros(tuple(upper + 1), dtype=bool)
    mask[tuple(arr[(arr <= upper).all(axis=1)].T)] = True
    for axis in range(mask.ndim):
        np.logical_or.accumulate(mask, axis=axis, out=mask)
    return mask


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, held as its canonical minimal generating set.

    The canonical form is the read-only int64 ``exponent_array`` of the
    divisibility-minimal generators sorted by (degree, exponents); ``gens``
    holds the same rows as :class:`Monomial` objects. The empty generating set
    is the zero ideal; the single generator 1 is the unit ideal. Construct
    through :meth:`from_exponents` (the one constructor that validates and
    canonicalizes), :meth:`from_monomials` or the arithmetic methods. A direct
    ``MonomialIdeal(vset, gens)`` only checks that ``gens`` is canonical.
    """

    vset: VariableSet
    gens: tuple[Monomial, ...]
    # the read-only (num_gens, n) int64 matrix of the generators' exponents
    exponent_array: np.ndarray = field(init=False, repr=False, compare=False)

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
        n = vset.n
        if not isinstance(exps, np.ndarray):
            rows = [tuple(r) for r in exps]
            if any(len(r) != n for r in rows):
                raise UsageError("exponent vector length must equal variable count")
            # checked on Python ints: the int64 cast must not see a huge value
            flat = [v for r in rows for v in r]
            _check_range(min(flat, default=0), max(flat, default=0))
            exps = np.array(rows, dtype=np.int64).reshape(-1, n)
        elif exps.ndim != 2 or exps.shape[1] != n:
            raise UsageError("exponent vector length must equal variable count")
        elif exps.size:
            _check_range(exps.min(), exps.max())
        return cls._canonical(vset, minimalize_rows(exps.astype(np.int64, copy=False)))

    @classmethod
    def _canonical(cls, vset: VariableSet, rows: np.ndarray) -> MonomialIdeal:
        """Wrap rows that are already minimal and sorted, without re-checking."""
        rows = rows.view()
        rows.setflags(write=False)
        gens = tuple(_trusted(Monomial, vset=vset, exps=tuple(r)) for r in rows.tolist())
        return _trusted(cls, vset=vset, gens=gens, exponent_array=rows)

    @classmethod
    def zero(cls, vset: VariableSet) -> MonomialIdeal:
        return cls._canonical(vset, np.zeros((0, vset.n), dtype=np.int64))

    @classmethod
    def unit(cls, vset: VariableSet) -> MonomialIdeal:
        return cls._canonical(vset, np.zeros((1, vset.n), dtype=np.int64))

    def __post_init__(self):
        exps = tuple(g.exps for g in self.gens)
        if exps != tuple(sorted(set(exps), key=lambda e: (sum(e), e))):
            raise UsageError("generators are not in canonical sorted form")
        rows = np.array(exps, dtype=np.int64).reshape(-1, self.vset.n)
        if len(minimalize_rows(rows)) != len(exps):
            raise UsageError("generating set is not divisibility-minimal")
        rows.setflags(write=False)
        object.__setattr__(self, "exponent_array", rows)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_one

    @property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self.gens)

    def generated_degree(self) -> int | None:
        """The common generator degree, or None for mixed degrees / zero ideal."""
        degs = {g.degree for g in self.gens}
        return degs.pop() if len(degs) == 1 else None

    def max_exponents(self) -> tuple[int, ...]:
        """Componentwise max of the generators (the exponent vector of their lcm)."""
        if not self.gens:
            return (0,) * self.vset.n
        return tuple(int(v) for v in self.exponent_array.max(axis=0))

    def contains(self, m: Monomial) -> bool:
        _check_same(self.vset, m.vset)
        return bool((self.exponent_array <= m.exps).all(axis=1).any())

    def is_subset_of(self, other: MonomialIdeal) -> bool:
        _check_same(self.vset, other.vset)
        return all(other.contains(g) for g in self.gens)

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

    def powers(self, max_power: int) -> Iterator[MonomialIdeal]:
        """I, I^2, ..., I^max_power, each one the previous one times I.

        Lazy: a consumer that stops early builds no further product. Nothing
        is memoized, so a chain costs max_power - 1 products per walk.
        """
        power = self
        for k in range(1, max_power + 1):
            if k > 1:
                power = power.product(self)
            yield power

    def power(self, k: int) -> MonomialIdeal:
        """The k-fold product; k = 0 gives the unit ideal by convention."""
        if k < 0:
            raise UsageError("power must be non-negative")
        result = MonomialIdeal.unit(self.vset)
        for result in self.powers(k):
            pass  # keep only the last power
        return result

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
        result: MonomialIdeal | None = None
        for g in other.gens:
            piece = self.colon_monomial(g)
            result = piece if result is None else result.intersect(piece)
        assert result is not None
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.vset.names == other.vset.names and [g.exps for g in self.gens] == [
            g.exps for g in other.gens
        ]

    def __hash__(self) -> int:
        return hash((self.vset.names, tuple(g.exps for g in self.gens)))

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.gens)

    def __len__(self) -> int:
        return len(self.gens)

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

    def indices(self, vset: VariableSet) -> tuple[int, ...]:
        return tuple(vset.index[name] for name in self.names)

    def as_ideal(self, vset: VariableSet) -> MonomialIdeal:
        return MonomialIdeal.from_monomials(
            vset, (Monomial.variable(vset, vset.index[name]) for name in self.names)
        )

    @property
    def height(self) -> int:
        return len(self.names)

    def __str__(self) -> str:
        return "(" + ",".join(self.names) + ")"


def maximal_prime(vset: VariableSet) -> MonomialPrime:
    """The prime generated by every variable."""
    return MonomialPrime(tuple(sorted(vset.names)))


def primes_to_lists(primes: Iterable[MonomialPrime]) -> list[list[str]]:
    """Canonical serialization: sorted list of sorted variable-name lists."""
    return sorted([list(p.names) for p in primes])
