"""Approximate maximin-share allocation under hereditary set system valuations.

A solver library and CLI built on exact rational arithmetic: lone-divider
solving in existence, 2/5, lossy-oracle, and entitled modes; constraint
adapters for budgets, conflicting items, and interval scheduling; brute-force
oracles for desk-scale verification of every guarantee.
"""

from .core import (
    Allocation,
    AsymmetricSpec,
    BudgetSystem,
    ConflictSystem,
    EntitledSpec,
    ExplicitSystem,
    FreeSystem,
    Instance,
    IntervalSystem,
    instance_from_json,
    instance_to_json,
    validate_instance,
)
from .driver import (
    SolveResult,
    alpha_for_error,
    solve_alpha,
    solve_entitled,
    solve_existence,
    solve_two_fifths,
)
from .adapters import (
    ConstraintReport,
    constrained_mms,
    solve_budget_adapter,
    solve_conflicts_adapter,
    solve_intervals_adapter,
)
from .mms_oracle import (
    MmsRecord,
    compute_mms_exact,
    mms_bounds,
    verify_allocation,
)
from .valuation import IndependentBundle, ValuationOracle, oracle_for

__all__ = [
    "Allocation",
    "AsymmetricSpec",
    "BudgetSystem",
    "ConflictSystem",
    "ConstraintReport",
    "EntitledSpec",
    "ExplicitSystem",
    "FreeSystem",
    "IndependentBundle",
    "Instance",
    "IntervalSystem",
    "MmsRecord",
    "SolveResult",
    "ValuationOracle",
    "alpha_for_error",
    "compute_mms_exact",
    "constrained_mms",
    "instance_from_json",
    "instance_to_json",
    "mms_bounds",
    "oracle_for",
    "solve_alpha",
    "solve_budget_adapter",
    "solve_conflicts_adapter",
    "solve_entitled",
    "solve_existence",
    "solve_intervals_adapter",
    "solve_two_fifths",
    "validate_instance",
    "verify_allocation",
]

__version__ = "0.1.0"
