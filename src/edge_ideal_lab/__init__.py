"""Edge-ideal laboratory: associated primes of powers, integral closures, and
matching-theoretic graph invariants, all in exact arithmetic.

Each module memo keeps its last answer, a base ideal owns its power chain, and
nothing else holds an ideal, so a run keeps no more than the walk in hand."""

from .errors import (
    BudgetExceededError,
    MismatchedVariablesError,
    ParseError,
    UsageError,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    MonomialPrime,
    VariableSet,
    maximal_prime,
)
from .graphs import (
    Graph,
    MatchingCertificate,
    ParallelGraph,
    berge_deficiency,
    deficiency,
    duplicate_edge,
    edge_ideal,
    edge_subring_member,
    factor_by_matching,
    has_perfect_matching,
    incidence_rank,
    matching_number,
    maximum_matching,
    minimal_vertex_covers,
    parallelize,
    power_index,
)
from .assprimes import (
    AssWitness,
    IrreducibleComponent,
    associated_primes,
    associated_primes_witness_oracle,
    disjoint_union_ass,
    irreducible_decomposition,
    minimal_primes,
)
from .closure import (
    closure_member_matching_oracle,
    integral_closure_power,
    np_member,
)
from .stability import (
    ChainReport,
    analytic_spread,
    both_chains,
    is_normal_up_to,
    maximal_ideal_criteria,
    stability_bound,
)

__all__ = [
    "BudgetExceededError",
    "MismatchedVariablesError",
    "ParseError",
    "UsageError",
    "Monomial",
    "MonomialIdeal",
    "MonomialPrime",
    "VariableSet",
    "maximal_prime",
    "Graph",
    "MatchingCertificate",
    "ParallelGraph",
    "berge_deficiency",
    "deficiency",
    "duplicate_edge",
    "edge_ideal",
    "edge_subring_member",
    "factor_by_matching",
    "has_perfect_matching",
    "incidence_rank",
    "matching_number",
    "maximum_matching",
    "minimal_vertex_covers",
    "parallelize",
    "power_index",
    "AssWitness",
    "IrreducibleComponent",
    "associated_primes",
    "associated_primes_witness_oracle",
    "disjoint_union_ass",
    "irreducible_decomposition",
    "minimal_primes",
    "closure_member_matching_oracle",
    "integral_closure_power",
    "is_normal_up_to",
    "np_member",
    "ChainReport",
    "analytic_spread",
    "both_chains",
    "maximal_ideal_criteria",
    "stability_bound",
]
