"""Approval-based collective choice over mixed divisible and indivisible goods.

A library plus CLI for allocating a budgeted mix of a cake [0, c] and
indivisible goods under approval preferences: greedy cohesive-group,
equal-shares, harmonic-score, and Nash-welfare rules; exact verifiers for
the representation axioms they satisfy; proportionality-degree auditors;
named instance constructions; and brute-force oracles for validation.
"""

__version__ = "0.1.0"

from .core import (
    Atom,
    Bundle,
    Instance,
    IntervalSet,
    Rational,
    approval_closure,
    atomize,
    bundle_size,
    common_bundle,
    instance_digest,
    intersect,
    measure,
    normalize,
    utilities,
    utility,
)
from .harmonic import HarmonicValue, gpav_score, harmonic
from .rules import (
    GreedyTrace,
    PavSolution,
    PaymentLedger,
    achievable_exact_size,
    concave_cake_opt,
    generalized_mes,
    generalized_pav,
    greedy_ejr_m,
    mes_price,
    mnw_indivisible,
)
from .verify import (
    AxiomReport,
    CohesiveProfile,
    audit_degree,
    cohesive_profiles,
    verify_cake_ejr,
    verify_ejr_1,
    verify_ejr_beta,
    verify_ejr_m,
)
from .generate import ConstructionSpec, gen_construction, gen_random
from .oracle import (
    EnumerationConfig,
    enumerate_allocations,
    oracle_discretized_opt,
    oracle_min_max_avg,
    oracle_no_ejr_beta,
)

__all__ = [
    "__version__",
    "Atom",
    "Bundle",
    "Instance",
    "IntervalSet",
    "Rational",
    "approval_closure",
    "atomize",
    "bundle_size",
    "common_bundle",
    "instance_digest",
    "intersect",
    "measure",
    "normalize",
    "utilities",
    "utility",
    "HarmonicValue",
    "gpav_score",
    "harmonic",
    "GreedyTrace",
    "PavSolution",
    "PaymentLedger",
    "achievable_exact_size",
    "concave_cake_opt",
    "generalized_mes",
    "generalized_pav",
    "greedy_ejr_m",
    "mes_price",
    "mnw_indivisible",
    "AxiomReport",
    "CohesiveProfile",
    "audit_degree",
    "cohesive_profiles",
    "verify_cake_ejr",
    "verify_ejr_1",
    "verify_ejr_beta",
    "verify_ejr_m",
    "ConstructionSpec",
    "gen_construction",
    "gen_random",
    "EnumerationConfig",
    "enumerate_allocations",
    "oracle_discretized_opt",
    "oracle_min_max_avg",
    "oracle_no_ejr_beta",
]
