"""Sampling-based decision procedures for CSPs of relational theories.

A sample family maps an instance size n to finitely many finite structures
that jointly decide satisfiability of n-variable conjunctions in the
underlying theory. Built-in families cover dense linear orders, colored
partitions, successor, alternating matchings and a de Bruijn-colored
successor cycle; the product combinator builds a family for the union of
two signature-disjoint theories from equality-matching factors. Solvers
run exact homomorphism search or consistency pipelines over the samples.
"""

from .families import (
    alternating_cycles_sampling,
    colored_partition_sampling,
    dense_order_sampling,
    marked_colors_sampling,
    succ2col_sampling,
    successor_sampling,
)
from .formulas import (
    BOT,
    Atom,
    Bot,
    Eq,
    Instance,
    InstanceError,
    Neq,
    Rel,
    canonical_database,
    contract_equalities,
    validate,
)
from .model import (
    RuleRelation,
    Signature,
    SignatureError,
    Structure,
    disjoint_union,
    is_homomorphism,
)
from .polymorphisms import (
    OperationTable,
    SearchCapExceeded,
    check_polymorphism,
    find_totally_symmetric_polymorphism,
    is_near_unanimity,
    is_totally_symmetric,
    majority_eq_operation,
    min_operation,
)
from .qf import DefinitionError, parse_definition
from .sampling import (
    SampleFamily,
    SamplingError,
    VerificationReport,
    equality_expansion,
    explicit_sampling,
    family_size,
    product_sampling,
    sampling_from_decider,
    verify_equality_matching,
)
from .solvers import (
    ACState,
    SolveResult,
    SolverError,
    arc_consistency,
    check_witness,
    establish_23_consistency,
    hom_search,
    solve_ac_over_sampling,
    solve_nu_over_sampling,
    solve_via_sampling,
)

__all__ = [
    "ACState",
    "Atom",
    "BOT",
    "Bot",
    "DefinitionError",
    "Eq",
    "Instance",
    "InstanceError",
    "Neq",
    "OperationTable",
    "Rel",
    "RuleRelation",
    "SampleFamily",
    "SamplingError",
    "SearchCapExceeded",
    "Signature",
    "SignatureError",
    "SolveResult",
    "SolverError",
    "Structure",
    "VerificationReport",
    "alternating_cycles_sampling",
    "arc_consistency",
    "canonical_database",
    "check_polymorphism",
    "check_witness",
    "colored_partition_sampling",
    "contract_equalities",
    "dense_order_sampling",
    "disjoint_union",
    "equality_expansion",
    "establish_23_consistency",
    "explicit_sampling",
    "family_size",
    "find_totally_symmetric_polymorphism",
    "hom_search",
    "is_homomorphism",
    "is_near_unanimity",
    "is_totally_symmetric",
    "majority_eq_operation",
    "marked_colors_sampling",
    "min_operation",
    "parse_definition",
    "product_sampling",
    "sampling_from_decider",
    "solve_ac_over_sampling",
    "solve_nu_over_sampling",
    "solve_via_sampling",
    "succ2col_sampling",
    "successor_sampling",
    "validate",
    "verify_equality_matching",
]
