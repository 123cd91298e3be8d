"""Shared fixtures; the heavy nine-vertex computations run once per session."""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from edge_ideal_lab import errors
from edge_ideal_lab.assprimes import associated_primes
from edge_ideal_lab.closure import integral_closure_power
from edge_ideal_lab.errors import bounded
from edge_ideal_lab.fixtures import assce, fig9
from edge_ideal_lab.graphs import Graph, edge_ideal
from edge_ideal_lab.monomials import MonomialIdeal, MonomialPrime


@dataclass(frozen=True)
class PowerLab:
    """Powers, closures, and their prime sets for one ideal."""

    ideal: MonomialIdeal
    powers: dict[int, MonomialIdeal]
    closures: dict[int, MonomialIdeal]
    ass: dict[int, frozenset[MonomialPrime]]
    closure_ass: dict[int, frozenset[MonomialPrime]]


def build_lab(
    ideal: MonomialIdeal, max_power: int, box_cells: int = 10**7
) -> PowerLab:
    with bounded(box_cells=box_cells):
        powers = dict(enumerate(ideal.powers(max_power), 1))
        closures = {k: integral_closure_power(ideal, k) for k in powers}
        ass = {k: frozenset(associated_primes(powers[k])) for k in powers}
        closure_ass = {k: frozenset(associated_primes(closures[k])) for k in closures}
    return PowerLab(ideal, powers, closures, ass, closure_ass)


@pytest.fixture
def expiring_clock(monkeypatch):
    """expiring_clock(n) replaces the clock of the run limits: the read that
    sets a deadline and the next n reads give 0, every later read is past
    any deadline. Returns the list of reads made."""

    def install(live_reads: int) -> list:
        reads: list = []

        def monotonic() -> float:
            reads.append(len(reads))
            return 0.0 if len(reads) <= live_reads + 1 else 10.0**9

        monkeypatch.setattr(errors, "time", SimpleNamespace(monotonic=monotonic))
        return reads

    return install


@pytest.fixture
def product_count(monkeypatch):
    """Counts MonomialIdeal.product calls made while the test runs."""
    calls = []
    original = MonomialIdeal.product

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(MonomialIdeal, "product", counting)
    return calls


@pytest.fixture(scope="session")
def fig9_graph() -> Graph:
    return fig9()


@pytest.fixture(scope="session")
def fig9_lab(fig9_graph) -> PowerLab:
    # the fifth-power closure box has 6^9 (about 10^7) cells
    return build_lab(edge_ideal(fig9_graph), 5, box_cells=2 * 10**7)


@pytest.fixture(scope="session")
def assce_lab() -> PowerLab:
    return build_lab(assce(), 4)
