"""Exact rank and LP feasibility, cross-checked against independent routes."""

import inspect
import random
from fractions import Fraction

import pytest

from edge_ideal_lab import linalg
from edge_ideal_lab.linalg import feasible_nonneg, integer_rank, separating_direction


def fraction_gauss_rank(rows):
    """Independent oracle: plain Gaussian elimination over Fraction."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m or not m[0]:
        return 0
    rank = 0
    n_rows, n_cols = len(m), len(m[0])
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for r in range(n_rows):
            if r != row and m[r][col] != 0:
                factor = m[r][col] / m[row][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
    return rank


def mixed_sign_systems():
    """300 seeded systems with negative coefficients and many zero right-hand
    sides (ratio ties): (a_le, b_le, a_eq, b_eq) with at least one equality."""
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(1, 6)
        m_le = rng.randint(0, 5)
        m_eq = rng.randint(1, 3)
        a_le = [[rng.randint(-3, 4) for _ in range(n)] for _ in range(m_le)]
        b_le = [rng.choice((0, 0, rng.randint(1, 6))) for _ in range(m_le)]
        a_eq = [[rng.randint(-3, 4) for _ in range(n)] for _ in range(m_eq)]
        b_eq = [rng.choice((0, rng.randint(1, 6))) for _ in range(m_eq)]
        yield a_le, b_le, a_eq, b_eq


def nonneg_systems():
    """250 seeded systems with non-negative coefficients, some with no
    equality row: (a_le, b_le, a_eq, b_eq) with at least one row."""
    rng = random.Random(11)
    for _ in range(250):
        n = rng.randint(1, 5)
        m_le = rng.randint(0, 4)
        m_eq = rng.randint(0, 2)
        if m_le + m_eq == 0:
            continue
        a_le = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m_le)]
        b_le = [rng.randint(0, 6) for _ in range(m_le)]
        a_eq = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m_eq)]
        b_eq = [rng.randint(0, 6) for _ in range(m_eq)]
        yield a_le, b_le, a_eq, b_eq


def scipy_feasible(scipy_opt, a_le, b_le, a_eq, b_eq) -> bool:
    n = len((a_le or a_eq)[0])
    res = scipy_opt.linprog(
        [0] * n,
        A_ub=a_le or None,
        b_ub=b_le or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=[(0, None)] * n,
        method="highs",
    )
    assert res.status in (0, 2)
    return res.status == 0


def row_scaled(a_le, b_le, a_eq, b_eq):
    """The same system with each row scaled by its own factor near 3^40."""
    scale = [3**40 + 7 * i for i in range(len(a_le) + len(a_eq))]
    return (
        [[c * v for v in row] for c, row in zip(scale, a_le)],
        [c * b for c, b in zip(scale, b_le)],
        [[c * v for v in row] for c, row in zip(scale[len(a_le) :], a_eq)],
        [c * b for c, b in zip(scale[len(a_le) :], b_eq)],
    )


class TestIntegerRank:
    def test_known_matrices(self):
        assert integer_rank([[1, 0], [0, 1]]) == 2
        assert integer_rank([[1, 2], [2, 4]]) == 1
        assert integer_rank([[0, 0], [0, 0]]) == 0
        assert integer_rank([]) == 0

    def test_against_fraction_elimination(self):
        rng = random.Random(3)
        for _ in range(300):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            matrix = [
                [rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)
            ]
            assert integer_rank(matrix) == fraction_gauss_rank(matrix), matrix


class TestFeasibility:
    def test_simple_cases(self):
        # x1 + x2 = 2, x1 <= 1, x2 <= 1 is exactly satisfiable
        assert feasible_nonneg([[1, 0], [0, 1]], [1, 1], [[1, 1]], [2])
        # but not with sum 3
        assert not feasible_nonneg([[1, 0], [0, 1]], [1, 1], [[1, 1]], [3])

    def test_degenerate_zero_rhs(self):
        assert feasible_nonneg([[1, 1]], [0], [[1, 0]], [0])
        assert not feasible_nonneg([[1, 1]], [0], [[1, 1]], [1])

    def test_negative_rhs_rejected(self):
        with pytest.raises(ValueError):
            feasible_nonneg([[1]], [-1], [], [])

    def test_against_scipy(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        for system in nonneg_systems():
            assert feasible_nonneg(*system) == scipy_feasible(scipy_opt, *system)

    def test_mixed_sign_and_degenerate_against_scipy(self):
        # negative coefficients and many zero right-hand sides (ratio ties);
        # scaling each row by its own large factor must not change the answer
        scipy_opt = pytest.importorskip("scipy.optimize")
        for system in mixed_sign_systems():
            mine = feasible_nonneg(*system)
            assert mine == scipy_feasible(scipy_opt, *system), system
            assert feasible_nonneg(*row_scaled(*system)) == mine, system

    def test_row_update_shortcuts_store_the_same_tableau(self, monkeypatch):
        # reference: the plain Edmonds update of every other row, no shortcut
        def full_update(tableau, leave, entering, prev_pivot):
            pivot_row = tableau[leave]
            pivot = pivot_row[entering]
            for i, row in enumerate(tableau):
                if i != leave:
                    f = row[entering]
                    tableau[i] = [
                        (pivot * v - f * w) // prev_pivot
                        for v, w in zip(row, pivot_row)
                    ]

        pivot, kinds = linalg._pivot, set()

        def both(tableau, leave, entering, prev_pivot):
            expected = [row[:] for row in tableau]
            full_update(expected, leave, entering, prev_pivot)
            same = tableau[leave][entering] == prev_pivot
            for i, row in enumerate(tableau):
                if i != leave:
                    kinds.add((row[entering] == 0, same, prev_pivot == 1))
            pivot(tableau, leave, entering, prev_pivot)
            assert tableau == expected

        monkeypatch.setattr(linalg, "_pivot", both)
        for system in mixed_sign_systems():
            assert feasible_nonneg(*system) == feasible_nonneg(*row_scaled(*system))
        # every shortcut ran: kept rows, rescaled rows, undivided and divided updates
        assert {(True, True, False), (True, False, False)} <= kinds
        assert {(False, False, True), (False, False, False)} <= kinds

    def test_coefficients_beyond_float_precision(self):
        # 10^17 > 2^53: a float LP cannot tell (10^17 + 1) / 10^17 from 1
        big = 10**17
        # x1 = 1, x2 = 0
        assert feasible_nonneg([[1, 0]], [1], [[big + 1, big]], [big + 1])
        # x1 = 0 forces x2 = 1 + 10^-17 > 1
        assert not feasible_nonneg([[1, 0], [0, 1]], [0, 1], [[big + 1, big]], [big + 1])

    def test_no_fractions_in_linalg(self):
        source = inspect.getsource(linalg)
        assert "Fraction" not in source and "fractions" not in source


def farkas_extension_value(scipy_opt, y, a_le, b_le, a_eq, b_eq) -> float:
    """min over z of y b_le + z b_eq subject to y a_le + z a_eq >= 0, by a
    float LP in the free z (-inf when unbounded, +inf when infeasible)."""
    n = len((a_le or a_eq)[0])
    y_a = [sum(y[i] * a_le[i][j] for i in range(len(a_le))) for j in range(n)]
    y_b = sum(v * b for v, b in zip(y, b_le))
    if not a_eq:
        return y_b if min(y_a, default=0) >= 0 else float("inf")
    res = scipy_opt.linprog(
        b_eq,
        A_ub=[[-row[j] for row in a_eq] for j in range(n)],
        b_ub=y_a,
        bounds=[(None, None)] * len(a_eq),
        method="highs",
    )
    assert res.status in (0, 2, 3)
    if res.status == 0:
        return y_b + res.fun
    return float("inf") if res.status == 2 else -float("inf")


class TestSeparatingDirection:
    """The multipliers read off the final objective row: None exactly on the
    feasible systems, else y >= 0 that a Farkas certificate extends."""

    def test_against_scipy(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        infeasible = nonzero = 0
        for system in [*nonneg_systems(), *mixed_sign_systems()]:
            a_le, b_le, a_eq, b_eq = system
            y = separating_direction(*system)
            assert (y is None) == scipy_feasible(scipy_opt, *system), system
            if y is None:
                continue
            infeasible += 1
            assert len(y) == len(a_le) and min(y, default=0) >= 0, (system, y)
            assert farkas_extension_value(scipy_opt, y, *system) < -1e-9, (system, y)
            # y = 0 certifies nothing unless the equalities alone are infeasible
            if scipy_feasible(scipy_opt, [], [], a_eq, b_eq):
                assert any(y), (system, y)
                nonzero += 1
        assert infeasible > 100 and nonzero > 50

    def test_reduced_by_the_gcd(self):
        # x1 + x2 = 3 with x1 <= 1 and x2 <= 1, every row scaled by 6
        y = separating_direction([[6, 0], [0, 6]], [6, 6], [[6, 6]], [18])
        assert y == [1, 1]

    def test_feasible_and_equality_free_systems_give_none(self):
        assert separating_direction([[1, 0], [0, 1]], [1, 1], [[1, 1]], [2]) is None
        assert separating_direction([[1, -1]], [0], [], []) is None
