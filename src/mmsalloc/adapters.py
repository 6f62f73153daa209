"""Constraint-specific front ends: budget, conflicting items, interval jobs.

Each adapter maps its constraint onto the matching valuation oracle, runs the
appropriate solver mode, restores the constraint-specific output contract
(feasibility flags, graph completion, schedule witnesses), and offers the
constraint-aware brute-force maximin share the guarantees are measured
against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .core import (
    ZERO,
    Allocation,
    BudgetSystem,
    ConflictSystem,
    DegreeTooHigh,
    Instance,
    IntervalSystem,
    UnsupportedSystem,
)
from .driver import SolveResult, solve_alpha, solve_entitled, solve_existence
from .mms_oracle import DEFAULT_MMS_GATE, _best_min_assignment
from .valuation import DEFAULT_GATES, _schedule_is_valid, oracle_for

HALF = Fraction(1, 2)


class ConstraintReport(NamedTuple):
    """Adapter output: the solve result plus constraint-specific evidence."""

    result: SolveResult
    allocation: Allocation
    feasible: tuple[bool, ...]
    completion: tuple[tuple[int, int], ...] = ()
    schedules: tuple[dict[int, int], ...] = ()


# ---------------------------------------------------------------------------
# Budget constraints
# ---------------------------------------------------------------------------

def solve_budget_adapter(instance: Instance, *,
                         epsilon: Fraction | None = None) -> ConstraintReport:
    """2/5-approximate allocation where every bundle fits its owner's budget.

    Budgets order the agents from most to least restrictive, so the entitled
    solver applies at oracle error ``epsilon`` (1/(k+1) when None); its
    oracle-subset awards are affordable by construction.
    """
    systems = [instance.system_for(i) for i in range(instance.n)]
    if not all(isinstance(system, BudgetSystem) for system in systems):
        raise UnsupportedSystem("budget adapter needs budget systems")
    result = solve_entitled(instance, epsilon)
    feasible = tuple(system.independent(bundle) for system, bundle
                     in zip(systems, result.allocation.bundles))
    assert all(feasible)
    return ConstraintReport(result=result, allocation=result.allocation,
                            feasible=feasible)


# ---------------------------------------------------------------------------
# Conflicting items
# ---------------------------------------------------------------------------

def solve_conflicts_adapter(instance: Instance, *,
                            gate: int = DEFAULT_MMS_GATE) -> ConstraintReport:
    """Complete allocation of conflict-graph items at the existence guarantee.

    Requires strictly more agents than the maximum degree, so the partial
    existence-mode allocation extends greedily: each leftover item goes to the
    lowest-index agent holding none of its neighbours.
    """
    system = instance.system
    if not isinstance(system, ConflictSystem):
        raise UnsupportedSystem("conflicts adapter needs a shared conflict graph")
    if instance.n == 0:
        raise DegreeTooHigh("completion needs at least one agent")
    neighbours = system.neighbours
    delta = max(map(len, neighbours.values()), default=0)
    if instance.n <= delta:
        raise DegreeTooHigh(
            f"{instance.n} agents but the conflict graph has degree {delta}")

    result = solve_existence(instance, gate=gate)
    bundles = [set(b) for b in result.allocation.bundles]
    taken = set().union(*bundles) if bundles else set()
    completion = []
    for item in sorted(set(range(instance.m)) - taken):
        adjacent = neighbours.get(item, set())
        receiver = next(i for i in range(instance.n)
                        if not bundles[i] & adjacent)
        assert not bundles[receiver] & adjacent
        bundles[receiver].add(item)
        completion.append((receiver, item))

    allocation = Allocation(bundles=tuple(frozenset(b) for b in bundles),
                            complete=True)
    feasible = tuple(map(system.independent, bundles))
    assert all(feasible)
    return ConstraintReport(result=result, allocation=allocation,
                            feasible=feasible, completion=tuple(completion))


# ---------------------------------------------------------------------------
# Interval scheduling
# ---------------------------------------------------------------------------

def solve_intervals_adapter(instance: Instance, *,
                            epsilon: Fraction | None = None) -> ConstraintReport:
    """Approximate allocation of interval jobs with schedule witnesses.

    Runs the lossy-oracle mode at error bound ``epsilon``; None means 1/2,
    the ratio of the greedy local-ratio scheduler, which guarantees 2/7.  Every
    awarded bundle carries the start times that proved it schedulable; they
    are emitted so feasibility is checkable directly.
    """
    if not isinstance(instance.system, IntervalSystem):
        raise UnsupportedSystem("intervals adapter needs a shared interval system")
    result = solve_alpha(instance, HALF if epsilon is None else epsilon)
    schedules = tuple(result.awarded[i].witness if i in result.awarded else {}
                      for i in range(instance.n))
    feasible = tuple(_schedule_is_valid(instance.system, bundle, witness) for
                     bundle, witness in zip(result.allocation.bundles, schedules))
    assert all(feasible)
    return ConstraintReport(result=result, allocation=result.allocation,
                            feasible=feasible, schedules=schedules)


# ---------------------------------------------------------------------------
# Constraint-aware brute-force maximin shares
# ---------------------------------------------------------------------------

def constrained_mms(instance: Instance, agent: int, *,
                    gate: int = DEFAULT_MMS_GATE) -> Fraction:
    """Brute-force MMS where witness partitions use only feasible bundles.

    Budget and interval constraints allow leaving items out (their guarantees
    concern partial allocations); conflicting items demand complete
    partitions.  Bundle values are additive, since feasible bundles waste
    nothing.  Returns 0 when no feasible witness exists at all.
    """
    system = instance.system_for(agent)
    if system.kind not in DEFAULT_GATES:
        raise UnsupportedSystem(
            f"no constraint-aware brute force for {system.kind} systems")
    # Interval membership sits behind the oracle's gate, here m.
    oracle = oracle_for(instance, agent, gate=instance.m)
    found = _best_min_assignment(
        range(instance.m), oracle.additive_weight, oracle.weights, instance.n,
        gate=gate, feasible=oracle.is_independent,
        allow_discard=not isinstance(system, ConflictSystem))
    return ZERO if found is None else Fraction(found[0], oracle.scale)
