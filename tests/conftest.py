"""Shared fixtures; the heavy nine-vertex computations run once per session."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from edge_ideal_lab.assprimes import associated_primes
from edge_ideal_lab.closure import integral_closure_power
from edge_ideal_lab.fixtures import assce, fig9
from edge_ideal_lab.graphs import Graph, edge_ideal
from edge_ideal_lab.monomials import MonomialIdeal, MonomialPrime

FIG9_CAP = 2 * 10**7  # the fifth-power closure box has ~10^7 lattice points


@dataclass(frozen=True)
class PowerLab:
    """Powers, closures, and their prime sets for one ideal."""

    ideal: MonomialIdeal
    powers: dict[int, MonomialIdeal]
    closures: dict[int, MonomialIdeal]
    ass: dict[int, frozenset[MonomialPrime]]
    closure_ass: dict[int, frozenset[MonomialPrime]]


def build_lab(ideal: MonomialIdeal, max_power: int, cap: int = 10**7) -> PowerLab:
    powers = dict(enumerate(ideal.powers(max_power), 1))
    closures = {
        k: integral_closure_power(ideal, k, cap=cap) for k in range(1, max_power + 1)
    }
    ass = {k: frozenset(associated_primes(powers[k])) for k in powers}
    closure_ass = {k: frozenset(associated_primes(closures[k])) for k in closures}
    return PowerLab(ideal, powers, closures, ass, closure_ass)


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
    return build_lab(edge_ideal(fig9_graph), 5, cap=FIG9_CAP)


@pytest.fixture(scope="session")
def assce_lab() -> PowerLab:
    return build_lab(assce(), 4)
