"""Correctness checks that do not consult the library's oracles.

Every solved instance is checked here: bundles are pairwise disjoint, each
bundle is independent for its owner according to a checker written from the
set-system definitions, and each awarded value (an additive sum, since the
bundle is independent) reaches the owner's threshold.
"""

from __future__ import annotations

from fractions import Fraction


def is_independent(system, items, witness=None) -> bool:
    """Membership straight from the definition of each system kind.

    Interval bundles are judged by their emitted witness schedule: every job
    of the bundle starts inside its window and no two jobs overlap.
    """
    items = frozenset(items)
    kind = system.kind
    if not items or kind == "free":
        return True
    if kind == "explicit":
        return any(items <= s for s in system.maximal_sets)
    if kind == "budget":
        return sum((system.sizes[j] for j in items), Fraction(0)) <= system.budget
    if kind == "conflict":
        return not any(a in items and b in items for a, b in system.edges)
    if kind == "interval":
        return witness is not None and _schedule_ok(system.jobs, items, witness)
    raise ValueError(f"no checker for {kind} systems")


def _schedule_ok(jobs, items, starts) -> bool:
    if set(starts) != set(items):
        return False
    busy = []
    for j, start in starts.items():
        p, r, d = jobs[j]
        if start < r or start + p - 1 > d:
            return False
        busy.append((start, start + p - 1))
    busy.sort()
    return all(end < nxt for (_, end), (nxt, _) in zip(busy, busy[1:]))


def additive_value(instance, agent: int, items) -> Fraction:
    return sum((instance.values[agent][j] for j in items), Fraction(0))


def check_allocation(instance, bundles, thresholds, witnesses=None) -> list[str]:
    """Problems found in an allocation; an empty list means it passed.

    ``thresholds`` maps agents to the value their bundle must reach;
    ``witnesses`` holds one start-time schedule per agent for interval
    instances.
    """
    problems = []
    if len(bundles) != instance.n:
        return [f"{len(bundles)} bundles for {instance.n} agents"]
    seen: set[int] = set()
    for agent, bundle in enumerate(bundles):
        if seen & bundle:
            problems.append(f"agent {agent + 1}: items {sorted(seen & bundle)} "
                            f"already awarded")
        seen |= bundle
        witness = witnesses[agent] if witnesses is not None else None
        if not is_independent(instance.system_for(agent), bundle, witness):
            problems.append(f"agent {agent + 1}: bundle is not independent")
        threshold = thresholds.get(agent)
        if threshold is not None and additive_value(instance, agent, bundle) < threshold:
            problems.append(f"agent {agent + 1}: value below threshold {threshold}")
    return problems
