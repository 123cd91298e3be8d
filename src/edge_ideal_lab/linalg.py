"""Exact integer linear algebra: matrix rank and LP feasibility.

No floating point and no rationals anywhere: both routines pivot on Python
ints and stay fraction-free. Rank uses Bareiss elimination; feasibility uses
an integer-preserving (Edmonds) phase-one simplex with Bland's rule for
guaranteed termination, whose every division by the previous pivot is exact.
"""

from __future__ import annotations

from math import gcd
from operator import index
from typing import Sequence


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix, by Bareiss elimination."""
    m = [[int(v) for v in row] for row in rows]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev_pivot = 1
    row = 0
    for col in range(n_cols):
        pivot_row = next((r for r in range(row, n_rows) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        pivot = m[row][col]
        for r in range(row + 1, n_rows):
            for c in range(col + 1, n_cols):
                m[r][c] = (pivot * m[r][c] - m[r][col] * m[row][c]) // prev_pivot
            m[r][col] = 0
        prev_pivot = pivot
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def feasible_nonneg(a_le, b_le, a_eq, b_eq) -> bool:
    """Whether {x >= 0 : a_le x <= b_le, a_eq x = b_eq} is non-empty (the
    arguments are those of separating_direction)."""
    return separating_direction(a_le, b_le, a_eq, b_eq) is None


def separating_direction(
    a_le: Sequence[Sequence[int]],
    b_le: Sequence[int],
    a_eq: Sequence[Sequence[int]],
    b_eq: Sequence[int],
) -> list[int] | None:
    """None when {x >= 0 : a_le x <= b_le, a_eq x = b_eq} is non-empty, else
    multipliers y >= 0 of the inequality rows, over their gcd, that some z
    on the equality rows extends to y a_le + z a_eq >= 0, y b_le + z b_eq < 0.

    Requires b_le >= 0 and b_eq >= 0 (all uses here satisfy this), so slacks
    give a starting basis for the inequality rows and one artificial variable
    per equality row. Phase one minimizes the artificial sum, entering by
    Bland's rule (lowest improving column, which guarantees termination) and
    leaving by the least ratio, ties to the lowest basic variable.

    The tableau is integer-preserving (Edmonds): every stored entry, the
    objective row included, is the true tableau entry times the previous
    pivot, the determinant of the current basis. A pivot leaves its own row
    unchanged and maps every other row, including one whose entering entry is
    0, to (pivot*row - f*pivot_row) // prev_pivot, a division that is exact
    (see _pivot for the shortcuts that store the same integers).
    Artificials never re-enter, so their columns are not stored.

    The certificate is Farkas' lemma (Schrijver, Combinatorial Optimization,
    2003) read off the objective row. Like every row it combines the original
    rows, as -det * (y [a_le | b_le] + z [a_eq | b_eq]), so slack column i
    holds -det * y_i. At the stop no entry is positive: y >= 0 and
    y a_le + z a_eq >= 0, and the positive artificial sum is -det times
    y b_le + z b_eq.
    """
    if any(b < 0 for b in b_le) or any(b < 0 for b in b_eq):
        raise ValueError("right-hand sides must be non-negative")
    if not a_eq:
        return None  # x = 0 satisfies a_le x <= b_le
    n = len(a_eq[0])
    n_le = len(a_le)
    n_rows = n_le + len(a_eq)
    width = n + n_le  # structural + slack columns; the rhs is column `width`
    tableau = [
        [index(v) for v in coeffs] + [0] * n_le + [index(b)]
        for coeffs, b in zip([*a_le, *a_eq], [*b_le, *b_eq])
    ]
    for i in range(n_le):
        tableau[i][n + i] = 1
    basis = list(range(n, n + n_rows))  # slack i is n + i, artificial i is n + n_le + i
    # objective row last: the artificial sum over the current basis
    tableau.append([sum(col) for col in zip(*tableau[n_le:])])
    prev_pivot = 1
    while True:
        obj = tableau[-1]
        entering = next((j for j in range(width) if obj[j] > 0), None)
        if entering is None:
            break
        leave = None
        for i in range(n_rows):
            t = tableau[i][entering]
            if t > 0 and (
                leave is None
                or (tableau[i][width] * best_t, basis[i])
                < (tableau[leave][width] * t, basis[leave])
            ):
                leave, best_t = i, t
        if leave is None:
            break  # unbounded direction cannot occur in phase one; defensive
        _pivot(tableau, leave, entering, prev_pivot)  # the pivot row is kept
        prev_pivot = best_t
        basis[leave] = entering
    if obj[width] == 0:
        return None
    common = gcd(*obj[n:width]) or 1
    return [-v // common for v in obj[n:width]]


def _pivot(
    tableau: list[list[int]], leave: int, entering: int, prev_pivot: int
) -> None:
    """Map every row but `leave` to (pivot*row - f*pivot_row) // prev_pivot, in
    place, with f the row's entering entry. A row with f == 0 is just rescaled
    by pivot/prev_pivot, and kept when that is 1; with prev_pivot == 1 there is
    nothing to divide. Every stored entry is the same integer either way."""
    pivot_row = tableau[leave]
    pivot = pivot_row[entering]
    for i, row in enumerate(tableau):
        f = row[entering]
        if i == leave or (f == 0 and pivot == prev_pivot):
            continue
        if f == 0:
            tableau[i] = [pivot * v // prev_pivot for v in row]
        elif prev_pivot == 1:
            tableau[i] = [pivot * v - f * w for v, w in zip(row, pivot_row)]
        else:
            tableau[i] = [
                (pivot * v - f * w) // prev_pivot for v, w in zip(row, pivot_row)
            ]
