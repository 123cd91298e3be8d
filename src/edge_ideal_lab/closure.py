"""Integral closures of powers of equigenerated monomial ideals.

Membership in the closure of the k-th power is membership of the exponent
vector in k times the Newton polyhedron of the base ideal, an exact rational
LP. A general ideal walks the box [0, k*u] of the power's generators in
degree order. An undominated lattice point is rejected with no LP when a
kept y puts it outside, accepted with no LP when I^k's bitsets find a
generator of I^k dividing it (a member by definition), and otherwise takes
one LP: an LP that puts a outside gives y >= 0 with a.y < k * min_g g.y over
the generators g, and every b in k * conv(V) + R^n_+ has b.y >= k * min_g g.y.
That sweep is also the oracle of the edge-ideal path. For I = I(G),
membership is min_y a.y >= 2k over the minimal half-integral vertex covers y
(the duals of the matching LP), and the minimal generators are the members
of the slice |a| = 2k:
- a member has |a| >= a.y' >= 2k for the minimal cover y' under all-ones, so
  every member of the slice is minimal;
- none lies above 2k. R[It] is the edge subring of the cone G' = G + apex z
  (Villarreal, Comm. Algebra 23, 1995): x^a z^c becomes x^a t^b, |a| = 2b+c.
  The normalization of an edge subring is generated by edges and bowties
  x_C1*x_C2 of odd cycles (Simis-Vasconcelos-Villarreal, J. Algebra 199,
  1998). A cycle through z is z times a matching of a path of G; an odd cycle
  of G is a matching times one vertex; so each generator with c > 0 has a
  cone edge x_i*z as a factor. When |a| > 2b, x^a / x_i is in the closure of
  I^b, and x^a is not minimal.
The slice is pruned while it is built: on it a.y >= 2k is a.d >= 0 for
d = y - 1, which every cover with no zero meets, and a prefix is dropped once
some cover's partial a.d plus the most the later axes can add, min(2k - |a|,
sum of the later bounds with d_i = +1), is negative. The last axis is the test.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import mul
from typing import Sequence

import numpy as np

from .errors import UsageError, check_box, check_time
from .graphs import Graph, _cover_weights, power_index
from .linalg import feasible_nonneg, separating_direction
from .monomials import Monomial, MonomialIdeal, _check_same, integer_power, integers


def _power_lp(ideal: MonomialIdeal, k: int):
    """The LP of k * conv(V) + R^n_+ for the generator exponents V: V as
    columns (one row per coordinate), and lambda summing to k."""
    return tuple(zip(*ideal.exponent_array.tolist())), [[1] * len(ideal)], [k]


def np_member(
    exponents: Sequence[int] | Monomial, ideal: MonomialIdeal, k: int
) -> bool:
    """Whether x^a lies in the integral closure of the k-th power of a nonzero
    ideal: exact LP feasibility of lambda >= 0, sum lambda = k, V lambda <= a."""
    k = integer_power(k, 1, "closure membership")
    if ideal.is_zero:
        raise UsageError("closure membership needs a nonzero ideal")
    if isinstance(exponents, Monomial):
        _check_same(ideal.vset, exponents.vset)
        exponents = exponents.exps
    a = Monomial(ideal.vset, exponents).exps  # integer entries, length and sign
    columns, weights, scale = _power_lp(ideal, k)
    return feasible_nonneg(columns, a, weights, scale)


@lru_cache(maxsize=1)
def _cover_slack(ideal: MonomialIdeal) -> tuple[np.ndarray, np.ndarray]:
    """Rows d = y - 1 for every componentwise-minimal y in {0,1,2}^n with a
    zero and y_u + y_v >= 2 on every edge (51 on FIG9, 191 on C12: a superset
    of twice the 25 and 29 vertices of the fractional vertex-cover polytope),
    then a row of -1 for the degree to place; and later[c, j] = sum(u_i : i >
    j, d[c, i] = +1), u the max exponents, so k * later sums the bounds k * u_i.
    A valid y lies above the valid y_C of its support (graphs._cover_weights),
    so y_C is minimal exactly when every 1 has a neighbour below 2."""
    n = ideal.vset.n
    # every generator is squarefree of degree 2: its row has two nonzeros
    edges = np.nonzero(ideal.exponent_array)[1].reshape(-1, 2).tolist()
    y = _cover_weights(n, edges)
    low = np.zeros(y.shape, dtype=bool)  # a neighbour below 2
    for u, v in edges:
        low[u] |= y[v] < 2
        low[v] |= y[u] < 2
    d = np.vstack((y[:, ((y != 1) | low).all(axis=0)].T - 1, np.full(n, -1)))
    plus = np.maximum(d, 0) * np.array(ideal.max_exponents())
    d = d.astype(np.int16)
    later = plus[:, ::-1].cumsum(axis=1)[:, ::-1] - plus
    d.flags.writeable = later.flags.writeable = False
    return d, later


def _closure_fast_path(
    ideal: MonomialIdeal, k: int, bounds: tuple[int, ...]
) -> np.ndarray:
    # the slice {a in [0, bounds] : |a| = 2k} in C order, pruned as it is built
    # (module docstring): the state is a.d per cover, then r = 2k - |a| in
    # [0, sum of later bounds]; members are read back from (row, value) pairs.
    d, later = _cover_slack(ideal)
    dtype = np.int16 if 4 * k < 2**15 else np.int64  # |state + lift| <= 4k
    lift = np.minimum(k * later, 2 * k).astype(dtype)
    state = np.zeros((len(d), 1), dtype=dtype)
    state[-1] = 2 * k
    rest, steps = sum(bounds), []
    for b, d_j, lift_j in zip(bounds, d.T[:, :, None], lift.T[:, :, None]):
        check_time("the closure slice")
        rest -= b
        table = state[-1, :, None] - np.arange(b + 1, dtype=dtype)
        rows, vals = ((table >= 0) & (table <= rest)).nonzero()
        state = state[:, rows] + d_j * vals.astype(dtype)
        keep = (state + np.minimum(lift_j, state[-1])).min(axis=0) >= 0
        steps.append((rows[keep], vals[keep]))
        state = state[:, keep]
    at, cols = np.arange(state.shape[1]), []
    for rows, vals in reversed(steps):
        cols.append(vals[at])
        at = rows[at]
    return np.column_stack(cols[::-1])


def _closure_lp_path(
    ideal: MonomialIdeal, k: int, bounds: tuple[int, ...], degree_floor: int
) -> np.ndarray:
    columns, weights, scale = _power_lp(ideal, k)
    gens, power = ideal.exponent_array.tolist(), ideal.power(k)
    shape = tuple(b + 1 for b in bounds)
    strides = [prod(shape[i + 1 :]) for i in range(len(shape))]  # C order
    axes = (np.arange(b, dtype=np.min_scalar_type(sum(bounds))) for b in shape)
    degrees = sum(np.ix_(*axes)).ravel()  # with dominated, the only box arrays
    # dominated[p]: p is a member found so far or a multiple of one, filled
    # in degree order: p is dominated when it is a member or some p - e_i is
    dominated = np.zeros(len(degrees), dtype=bool)
    found: list[list[int]] = []
    kept: list[tuple[list[int], int]] = []  # (y, k * min_g g.y) on Python ints
    for s in range(degree_floor, sum(bounds) + 1):
        cells = np.flatnonzero(degrees == s)
        block = np.unravel_index(cells, shape)  # one coordinate array per axis
        for axis, stride in zip(block, strides):  # p - e_i, or p where p_i = 0
            dominated[cells] |= dominated[np.where(axis > 0, cells - stride, cells)]
        fresh = ~dominated[cells]
        rows = np.transpose(block)[fresh].tolist()
        for cell, row in zip(cells[fresh].tolist(), rows):
            check_time("the LP closure sweep")
            if any(sum(map(mul, row, y)) < floor for y, floor in kept):
                continue
            if power._contains_row(row):
                y = None  # a generator of I^k divides x^a: a member, no LP
            else:
                y = separating_direction(columns, row, weights, scale)
            if y is None:
                found.append(row)
                dominated[cell] = True
                continue
            floor = k * min(sum(map(mul, g, y)) for g in gens)
            if min(y) < 0 or sum(map(mul, row, y)) >= floor:
                raise AssertionError(f"{y} does not separate {row} from the closure")
            kept.append((y, floor))
    return np.array(found, dtype=np.int64).reshape(-1, len(bounds))


def integral_closure_power(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """Minimal generators of the integral closure of the k-th power.

    Requires the ideal to be generated in a single degree, so the closure's
    minimal generators stay inside the componentwise-maximum box of the power's
    generators (k times the base maxima). A degree-2 squarefree ideal tests its
    cover inequalities on the box's degree-2k slice (module docstring) for a
    charge of the box and n * 2^n cover-row cells; others take the exact LP
    sweep, n * box cells, as it reads n neighbours of each box cell. Charges
    precede the memo on (ideal, k): a cached closure still refuses below them.
    """
    k = integer_power(k, 1, "the integral closure")
    if ideal.is_zero:
        return ideal
    degree = ideal.generated_degree()
    if degree is None:
        raise UsageError("integral closure sweep requires a single generator degree")
    n, box = ideal.vset.n, prod(k * e + 1 for e in ideal.max_exponents())
    if degree == 2 and ideal.is_squarefree:  # the slice and its cover rows
        check_box(box, "closure box")
        check_box(n << n, "closure cover sweep")
    else:
        check_box(n * box, "LP closure sweep")
    return _closure_sweep(ideal, k)


@lru_cache(maxsize=1)
def _closure_sweep(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    degree = ideal.generated_degree()
    bounds = tuple(k * e for e in ideal.max_exponents())
    if degree == 2 and ideal.is_squarefree:
        # one degree in C order is canonical order; all members are minimal
        members = _closure_fast_path(ideal, k, bounds)
        return MonomialIdeal._canonical(ideal.vset, members)
    members = _closure_lp_path(ideal, k, bounds, degree * k)
    return MonomialIdeal.from_exponents(ideal.vset, members)


# the sweep's hit and miss counts, read through the public entry point
integral_closure_power.cache_info = _closure_sweep.cache_info  # type: ignore[attr-defined]


def closure_member_matching_oracle(
    graph: Graph, a: Sequence[int], k: int
) -> bool:
    """x^a is in the closure of I(G)^k exactly when nu(G^(2a)) >= 2k.
    Membership is a.y >= k for every fractional vertex cover y; the least a.y
    is, by LP duality, the fractional b-matching number with capacities a,
    whose polytope is half-integral (Schrijver, Combinatorial Optimization,
    2003), so twice it is the matching number of G^(2a). No cover, LP or box
    is involved."""
    k = integer_power(k, 1, "the matching oracle")
    return power_index(graph, [2 * v for v in integers(a)]) >= 2 * k
