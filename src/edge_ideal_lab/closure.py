"""Integral closures of powers of equigenerated monomial ideals.

Membership in the closure of the k-th power is membership of the exponent
vector in k times the Newton polyhedron of the base ideal, decided by exact
rational LP feasibility. The closure's minimal generators lie in the box
[0, k*u] spanned by the power's generators. For degree-two squarefree ideals
(edge ideals) membership is min_y a.y >= 2k over the minimal half-integral
vertex covers y (the duals of the matching LP), so one boolean mask over the
box is the AND of one broadcast inequality per cover, and the generators are
the minimal cells of that mask. Other ideals walk the box in degree order
with one LP call per undominated lattice point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, UsageError
from .graphs import Graph, parallelize, matching_number
from .monomials import Monomial, MonomialIdeal

FAST_PATH_MAX_VARS = 12  # cover-vector grid is 3^n
DEFAULT_BOX_CAP = 10**7


@dataclass(frozen=True)
class NewtonPolyhedron:
    """scale * conv(generator exponents) + the non-negative orthant."""

    generators_matrix: tuple[tuple[int, ...], ...]
    scale: int

    def __post_init__(self):
        if self.scale < 1:
            raise UsageError("scale must be a positive integer")
        if not self.generators_matrix:
            raise UsageError("a Newton polyhedron needs at least one generator")

    @classmethod
    def of_power(cls, ideal: MonomialIdeal, k: int) -> NewtonPolyhedron:
        if ideal.is_zero:
            raise UsageError("the zero ideal has no Newton polyhedron")
        return cls(tuple(map(tuple, ideal.exponent_array.tolist())), k)

    @property
    def dimension(self) -> int:
        return len(self.generators_matrix[0])


def np_member(exponents: Sequence[int] | Monomial, poly: NewtonPolyhedron) -> bool:
    """Exact LP feasibility of lambda >= 0, sum lambda = scale, V lambda <= a."""
    from .linalg import feasible_nonneg

    a = list(exponents.exps) if isinstance(exponents, Monomial) else list(exponents)
    if len(a) != poly.dimension:
        raise UsageError("exponent vector dimension mismatch")
    q = len(poly.generators_matrix)
    a_le = [[poly.generators_matrix[j][i] for j in range(q)] for i in range(len(a))]
    return feasible_nonneg(a_le, a, [[1] * q], [poly.scale])


def _minimal_cells(mask: np.ndarray) -> np.ndarray:
    """Indices of the cells of an upward-closed boolean box mask that have no
    marked cell one step below them along any axis: its minimal elements."""
    minimal = mask.copy()
    for axis in range(mask.ndim):
        below = [slice(None)] * mask.ndim
        above = [slice(None)] * mask.ndim
        below[axis] = slice(0, -1)
        above[axis] = slice(1, None)
        minimal[tuple(above)] &= ~mask[tuple(below)]
    return np.argwhere(minimal)


def _minimal_cover_vectors(ideal: MonomialIdeal) -> np.ndarray:
    """Componentwise-minimal y in {0,1,2}^n with y_u + y_v >= 2 on every edge.

    These are (twice) the vertices of the fractional vertex-cover polytope, the
    dual feasible points of the matching LP; membership of a in the scaled
    Newton polyhedron is min_y a.y >= 2*scale.
    """
    n = ideal.vset.n
    shape = (3,) * n
    valid = np.ones(shape, dtype=bool)
    # every generator is squarefree of degree 2: its row has two nonzeros
    for u, v in np.nonzero(ideal.exponent_array)[1].reshape(-1, 2).tolist():
        for yu, yv in ((0, 0), (0, 1), (1, 0)):
            idx: list = [slice(None)] * n
            idx[u] = yu
            idx[v] = yv
            valid[tuple(idx)] = False
    return _minimal_cells(valid)


def _closure_fast_path(
    ideal: MonomialIdeal, k: int, bounds: tuple[int, ...]
) -> np.ndarray:
    n = len(bounds)
    # multiples[j][y_j] is y_j * (0..b_j) shaped to broadcast along axis j,
    # built once because small boxes spend their time on per-cover overhead
    multiples = []
    for j, b in enumerate(bounds):
        a = np.arange(b + 1, dtype=np.int64).reshape((-1,) + (1,) * (n - j - 1))
        multiples.append((None, a, 2 * a))
    member = np.ones(tuple(b + 1 for b in bounds), dtype=bool)
    for y in _minimal_cover_vectors(ideal).tolist():
        terms = [multiples[j][yj] for j, yj in enumerate(y) if yj]
        member &= sum(terms[1:], terms[0]) >= 2 * k
    return _minimal_cells(member)


def _closure_lp_path(
    ideal: MonomialIdeal, k: int, bounds: tuple[int, ...], degree_floor: int
) -> np.ndarray:
    poly = NewtonPolyhedron.of_power(ideal, k)
    points = np.indices(tuple(b + 1 for b in bounds)).reshape(len(bounds), -1).T
    degrees = points.sum(axis=1)
    found: list[np.ndarray] = []
    for s in range(degree_floor, int(degrees.max()) + 1):
        block = points[degrees == s]
        if not len(block):
            continue
        if found:
            mins = np.array(found, dtype=np.int64)
            dominated = (mins[None, :, :] <= block[:, None, :]).all(axis=2).any(axis=1)
            block = block[~dominated]
        for row in block:
            if np_member([int(v) for v in row], poly):
                found.append(row)
    return np.array(found, dtype=np.int64).reshape(-1, len(bounds))


@lru_cache(maxsize=256)
def integral_closure_power(
    ideal: MonomialIdeal, k: int, cap: int = DEFAULT_BOX_CAP
) -> MonomialIdeal:
    """Minimal generators of the integral closure of the k-th power.

    Requires the ideal to be generated in a single degree, so the closure's
    minimal generators stay inside the componentwise-maximum box of the power's
    generators (k times the base maxima). ``cap`` bounds the lattice points
    of that box. Edge ideals on at most FAST_PATH_MAX_VARS variables build
    the closure's membership mask over the whole box, one broadcast cover
    inequality at a time, and read off its minimal cells; any other ideal
    takes the exact LP sweep, refused above 500 000 box points.
    """
    if k < 1:
        raise UsageError("power must be >= 1")
    if ideal.is_zero:
        return ideal
    degree = ideal.generated_degree()
    if degree is None:
        raise UsageError("integral closure sweep requires a single generator degree")
    bounds = tuple(k * e for e in ideal.max_exponents())
    total = prod(b + 1 for b in bounds)
    if total > cap:
        raise BudgetExceededError(
            f"closure search space has {total} lattice points (cap {cap}); "
            "raise the cap to proceed"
        )
    if degree == 2 and ideal.is_squarefree and ideal.vset.n <= FAST_PATH_MAX_VARS:
        members = _closure_fast_path(ideal, k, bounds)
    else:
        if total > 500_000:
            raise BudgetExceededError(
                f"LP closure sweep over {total} lattice points is impractical; "
                "only degree-2 squarefree ideals have a fast path"
            )
        members = _closure_lp_path(ideal, k, bounds, degree * k)
    return MonomialIdeal.from_exponents(ideal.vset, members)


def closure_member_matching_oracle(
    graph: Graph, a: Sequence[int], k: int
) -> bool | None:
    """One-sided closure membership via matchings of scaled parallelizations.

    True when some multiple m has matching number of the m*a parallelization at
    least k*m (certifying x^a in the closure of the k-th edge-ideal power);
    None when no m = 1..n certifies it.
    """
    a = tuple(int(v) for v in a)
    for m in range(1, graph.n + 1):
        scaled = tuple(m * v for v in a)
        if matching_number(parallelize(graph, scaled).flat) >= k * m:
            return True
    return None


@dataclass(frozen=True)
class NormalityReport:
    ideal_label: str
    checked: tuple[tuple[int, bool], ...]  # (k, closure equals power)
    first_failure: int | None

    @property
    def normal_up_to_checked(self) -> bool:
        return self.first_failure is None


def is_normal_up_to(
    ideal: MonomialIdeal, max_power: int, cap: int = DEFAULT_BOX_CAP, label: str = "I"
) -> NormalityReport:
    """Compare each power with its integral closure for k = 1..max_power."""
    checked = []
    first_failure = None
    for k, power in enumerate(ideal.powers(max_power), 1):
        equal = integral_closure_power(ideal, k, cap=cap) == power
        checked.append((k, equal))
        if not equal and first_failure is None:
            first_failure = k
    return NormalityReport(label, tuple(checked), first_failure)
