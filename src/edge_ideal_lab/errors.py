"""Shared exception types and the run limits: the default caps, and one box
cap and deadline that :func:`bounded` sets for a block (like
``decimal.localcontext``), so that memo keys stay the inputs alone."""

from __future__ import annotations

import operator
import time
from contextlib import contextmanager
from contextvars import ContextVar
from math import inf
from numbers import Integral, Real

# One cap on cells bounds every box ([0, k*u] for I^k of an equigenerated ideal)
# and every sweep: n * 2^n over vertex sets, n * box for LP closures, one cell
# per corpus edge mask.
BOX_CELLS = 40_000_000


class UsageError(ValueError):
    """A call violated an operation's precondition."""


class MismatchedVariablesError(UsageError):
    """Operands live over different variable sets."""


class BudgetExceededError(RuntimeError):
    """A computation would exceed its cap, or its time budget is spent."""


class ParseError(ValueError):
    """A graph or ideal file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


_LIMITS = ContextVar("limits", default=(BOX_CELLS, inf))  # (cells, deadline)


def check_box(cells: int, what: str) -> None:
    """Refuse a box or sweep of more cells than the current cap."""
    cap = _LIMITS.get()[0]
    if cells > cap:
        raise BudgetExceededError(f"{what} needs {cells} cells (cap {cap})")


def check_time(what: str) -> None:
    """Refuse once the current deadline has been reached."""
    if time.monotonic() >= _LIMITS.get()[1]:
        raise BudgetExceededError(f"time budget spent in {what}")


@contextmanager
def bounded(box_cells: int | None = None, seconds: float | None = None):
    """Run the body under a box cap and a deadline ``seconds`` from now (None
    keeps the outer one; no deadline outlives it), restored on exit. A cap not
    an integer >= 0, or seconds not a real >= 0 (a bool is neither), is refused."""
    cap, deadline = _LIMITS.get()
    if box_cells is not None:
        if not isinstance(box_cells, Integral) or isinstance(box_cells, bool) or box_cells < 0:
            raise UsageError("box cells must be an integer >= 0")
        cap = operator.index(box_cells)
    if seconds is not None:
        if not isinstance(seconds, Real) or isinstance(seconds, bool) or not seconds >= 0:
            raise UsageError("budget seconds must be >= 0")
        deadline = min(deadline, time.monotonic() + seconds)
    token = _LIMITS.set((cap, deadline))
    try:
        yield
    finally:
        _LIMITS.reset(token)
