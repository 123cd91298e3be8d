"""Chains of associated primes across powers and their closures.

One walk, :func:`power_chain`, yields a lazy :class:`PowerStep` per power;
every power-by-power consumer reads it. On it sit the per-power reports (is
the chain ascending, where does it become constant, how does that compare to
the theoretical bound), the normality check, the analytic spread as an
exponent-matrix rank, and the four-way equivalence battery for the maximal
ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf
from typing import Iterator, Sequence

from .assprimes import associated_primes
from .closure import integral_closure_power
from .errors import UsageError, bounded, check_time
from .graphs import Graph, edge_ideal, incidence_rank
from .linalg import integer_rank
from .monomials import (
    MonomialIdeal,
    MonomialPrime,
    integer_power,
    maximal_prime,
    primes_to_lists,
)

PrimeSet = tuple[MonomialPrime, ...]


def _first_constant_index(sets: Sequence[PrimeSet]) -> int:
    """1-based index from which all later sets agree with the last one."""
    n1 = len(sets)
    for j in range(len(sets) - 1, 0, -1):
        if set(sets[j - 1]) == set(sets[-1]):
            n1 = j
        else:
            break
    return n1


@dataclass(frozen=True)
class ChainReport:
    """Associated-prime chains of the powers (and closures of powers) of an ideal."""

    ideal_label: str
    max_power: int
    ass_sets: tuple[PrimeSet, ...] | None
    closure_ass_sets: tuple[PrimeSet, ...] | None
    n1_bound: int | None = None

    @property
    def ascending(self) -> bool:
        return all(
            set(a) <= set(b)
            for side in (self.ass_sets, self.closure_ass_sets)
            if side is not None
            for a, b in zip(side, side[1:])
        )

    @property
    def n1_observed(self) -> int | None:
        if not self.ass_sets:
            return None
        return _first_constant_index(self.ass_sets)

    @property
    def n2_observed(self) -> int | None:
        if not self.closure_ass_sets:
            return None
        return _first_constant_index(self.closure_ass_sets)

    @property
    def n1_certified(self) -> bool:
        """Constancy proven, not just observed: the computed range reaches the
        theoretical stability bound (the chain is ascending and bounded)."""
        return self.n1_bound is not None and self.max_power >= self.n1_bound

    @property
    def stable_sets_equal(self) -> bool | None:
        if not self.ass_sets or not self.closure_ass_sets:
            return None
        # each chain is constant from its observed index on, up to its end
        return set(self.ass_sets[-1]) == set(self.closure_ass_sets[-1])

    def to_json_dict(self) -> dict:
        chains = []
        sides = {"ass": self.ass_sets, "closure_ass": self.closure_ass_sets}
        for i in range(self.max_power):
            entry: dict = {"k": i + 1}
            for key, side in sides.items():
                entry[key] = primes_to_lists(side[i]) if side else None
            chains.append(entry)
        return {
            "ideal": self.ideal_label,
            "K": self.max_power,
            "chains": chains,
            "verdicts": {
                "ascending": self.ascending,
                "n1_observed": self.n1_observed,
                "n1_bound": self.n1_bound,
                "n2_observed": self.n2_observed,
                "stable_sets_equal": self.stable_sets_equal,
            },
        }

    def to_text(self) -> str:
        lines = [f"ideal: {self.ideal_label}   (max power {self.max_power})"]
        for i in range(self.max_power):
            k = i + 1
            if self.ass_sets is not None:
                names = ", ".join(str(p) for p in sorted(self.ass_sets[i]))
                lines.append(f"  Ass(R/I^{k}) = {{{names}}}")
            if self.closure_ass_sets is not None:
                names = ", ".join(str(p) for p in sorted(self.closure_ass_sets[i]))
                lines.append(f"  Ass(R/closure(I^{k})) = {{{names}}}")
        lines.append(f"  ascending: {self.ascending}")
        if self.ass_sets is not None:
            claim = "certified" if self.n1_certified else "constant within computed range"
            lines.append(
                f"  stability index observed: {self.n1_observed} ({claim};"
                f" theoretical bound {self.n1_bound})"
            )
        if self.closure_ass_sets is not None:
            lines.append(
                f"  closure-chain constant from: {self.n2_observed} (observational)"
            )
        if self.stable_sets_equal is not None:
            lines.append(f"  stable sets equal: {self.stable_sets_equal}")
        return "\n".join(lines)


@dataclass(frozen=True)
class PowerStep:
    """The k-th power of ``ideal`` and what the chains ask of it.

    Each field is computed when a consumer first reads it, so a walk pays
    only for what its consumer reads: a closure-only chain builds no power,
    and a check that stops on the Ass side asks for no closure.
    """

    ideal: MonomialIdeal
    k: int

    @cached_property
    def power(self) -> MonomialIdeal:
        return self.ideal.power(self.k)

    @cached_property
    def ass(self) -> PrimeSet:
        return associated_primes(self.power)

    @cached_property
    def closure(self) -> MonomialIdeal:
        return integral_closure_power(self.ideal, self.k)

    @cached_property
    def closure_ass(self) -> PrimeSet:
        return associated_primes(self.closure)


def power_chain(ideal: MonomialIdeal, max_power: int) -> Iterator[PowerStep]:
    """The steps k = 1..max_power of ``ideal``, one at a time, each under
    the run limits of :mod:`errors` (a spent deadline refuses the next)."""
    max_power = integer_power(max_power, -inf, "the power chain")
    if max_power < 1:
        raise UsageError("max power must be >= 1")
    for k in range(1, max_power + 1):
        check_time("the power chain")
        yield PowerStep(ideal, k)


def both_chains(
    ideal: MonomialIdeal,
    max_power: int,
    label: str = "I",
    n1_bound: int | None = None,
    *,
    mode: str = "both",
    closure_cap: int | None = None,
) -> ChainReport:
    """Associated primes of each power 1..max_power (``mode="ass"``), of the
    closure of each power (``"closure"``) or both, read off one walk.

    The walk runs under ``bounded(closure_cap)`` and the caller's deadline,
    which ``bounded(seconds=...)`` sets: a refusal or a spent budget raises,
    with no partial report. A closure-only report carries no stability
    bound: ``n1_bound`` bounds the Ass chain.
    """
    if mode not in ("ass", "closure", "both"):
        raise UsageError(f"unknown chain mode {mode!r}: use ass, closure or both")
    ass, closure = mode != "closure", mode != "ass"
    with bounded(closure_cap):
        sides = [
            (step.ass if ass else None, step.closure_ass if closure else None)
            for step in power_chain(ideal, max_power)
        ]
    return ChainReport(
        label,
        max_power,
        tuple(a for a, _ in sides) if ass else None,
        tuple(c for _, c in sides) if closure else None,
        n1_bound if ass else None,
    )


@dataclass(frozen=True)
class NormalityReport:
    checked: tuple[tuple[int, bool], ...]  # (k, closure equals power)
    first_failure: int | None

    @property
    def normal_up_to_checked(self) -> bool:
        return self.first_failure is None


def is_normal_up_to(ideal: MonomialIdeal, max_power: int) -> NormalityReport:
    """Compare each power with its integral closure for k = 1..max_power."""
    checked = tuple(
        (step.k, step.closure == step.power) for step in power_chain(ideal, max_power)
    )
    first_failure = next((k for k, equal in checked if not equal), None)
    return NormalityReport(checked, first_failure)


# ---------------------------------------------------------------------------
# bounds and spreads
# ---------------------------------------------------------------------------


def stability_bound(graph: Graph) -> int | None:
    """Upper bound for the index where the chain of prime sets turns constant.

    Per connected component: 1 when bipartite, otherwise n - k - s where the
    shortest odd cycle has length 2k+1 and s counts leaves. Components combine
    as sum(bound - 1) + 1, matching how powers distribute over disjoint parts.
    """
    components = graph.components()
    if not components:
        return None
    bounds = []
    for comp in components:
        og = comp.odd_girth()  # None when bipartite
        bounds.append(1 if og is None else comp.n - (og - 1) // 2 - comp.leaf_count())
    return sum(b - 1 for b in bounds) + 1


def analytic_spread(ideal: MonomialIdeal) -> int:
    """Rank of the exponent matrix of an equigenerated ideal (the dimension of
    the subring generated by its monomials)."""
    if ideal.is_zero:
        raise UsageError("analytic spread of the zero ideal is undefined")
    if ideal.generated_degree() is None:
        raise UsageError("analytic spread formula needs a single generator degree")
    return integer_rank(ideal.exponent_array.T.tolist())


# ---------------------------------------------------------------------------
# maximal ideal battery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaximalIdealReport:
    """Four views of when the full variable prime is eventually associated."""

    max_power: int
    in_ass_at: int | None  # first k <= K with the maximal ideal associated
    components_nonbipartite: bool
    in_closure_ass_at: int | None
    rank_is_vertex_count: bool
    inconclusive: bool  # nonbipartite but not realized within the budget

    @property
    def rank_matches_components(self) -> bool:
        return self.components_nonbipartite == self.rank_is_vertex_count

    @property
    def consistent(self) -> bool:
        if not self.rank_matches_components:
            return False
        if self.components_nonbipartite:
            return True  # realization may legitimately exceed the budget
        return self.in_ass_at is None and self.in_closure_ass_at is None


def maximal_ideal_criteria(graph: Graph, max_power: int) -> MaximalIdealReport:
    ideal = edge_ideal(graph)
    m = maximal_prime(ideal.vset)
    in_ass = None
    in_closure = None
    for step in power_chain(ideal, max_power):
        if in_ass is None and m in step.ass:
            in_ass = step.k
        if in_closure is None and m in step.closure_ass:
            in_closure = step.k
        if in_ass is not None and in_closure is not None:
            break
    nonbip = all(not c.is_bipartite() for c in graph.components())
    rank_full = incidence_rank(graph) == graph.n
    return MaximalIdealReport(
        max_power=max_power,
        in_ass_at=in_ass,
        components_nonbipartite=nonbip,
        in_closure_ass_at=in_closure,
        rank_is_vertex_count=rank_full,
        inconclusive=nonbip and (in_ass is None or in_closure is None),
    )

