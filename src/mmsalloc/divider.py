"""The lone-divider engine with pluggable bundle construction.

Each round one remaining agent (the divider) builds as many disjoint bundles
as there are remaining agents, each worth her own threshold; an envy-free
matching then hands bundles to agents who value them enough, and the round's
items leave the pool.  Envy-freeness keeps every allocated bundle cheap for
whoever remains.

The two engines differ only in what a non-divider is offered for a bundle.
``lone_divider`` offers each bundle as built, at its additive value.
``lone_divider_entitled`` works through approximate oracles: it offers the
independent subset the agent's oracle reports, and swaps the divider when a
bundle betrays a more restrictive remaining agent.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .core import Instance, Items
from .matching import envy_free_matching
from .valuation import IndependentBundle, ValuationOracle


class RoundRecord(NamedTuple):
    """Everything a round did, for assertions and --trace output."""

    index: int
    divider: int
    agents: tuple[int, ...]
    swaps: tuple[tuple[int, int], ...]
    bundles: tuple[Items, ...]
    grants: tuple[tuple[int, int, IndependentBundle], ...]
    matching: tuple[tuple[int, int], ...]
    awarded: tuple[tuple[int, Items], ...]


class DividerOutcome(NamedTuple):
    allocation: dict[int, IndependentBundle] | None
    failed_agent: int | None
    trace: tuple[RoundRecord, ...]

    @property
    def succeeded(self) -> bool:
        return self.allocation is not None


def _run_rounds(instance: Instance, thresholds: dict[int, Fraction], maker,
                offers_for, ordering: tuple[int, ...] | None) -> DividerOutcome:
    """The round loop behind both engines, over the agents of ``thresholds``.

    Each round the most restrictive remaining agent of ``ordering`` divides,
    or the lowest-index one when there is no ordering.

    ``offers_for(divider, remaining, bundles)`` returns either a dict giving
    the bundle each non-divider would receive for each (agent, bundle index),
    or an agent who must take over as divider, in which case she rebuilds
    the bundles.  The divider is offered her own bundles; whatever a matched
    agent receives, the whole matched bundle leaves the item pool.
    """
    remaining = sorted(thresholds)
    limits = {agent: t.as_integer_ratio() for agent, t in thresholds.items()}
    items = instance.all_items()
    allocation: dict[int, IndependentBundle] = {}
    trace: list[RoundRecord] = []

    while remaining:
        divider = (remaining[0] if ordering is None
                   else min(remaining, key=ordering.index))
        swaps: list[tuple[int, int]] = []
        dividers_seen = {divider}
        while True:
            bundles = maker(divider, items, len(remaining))
            if bundles is None:
                return DividerOutcome(allocation=None, failed_agent=divider,
                                      trace=tuple(trace))
            assert len(bundles) == len(remaining)
            assert all(_reaches(b, limits[divider]) for b in bundles)
            offers = offers_for(divider, remaining, bundles)
            if not isinstance(offers, int):
                break
            swaps.append((divider, offers))
            assert offers not in dividers_seen
            dividers_seen.add(offers)
            divider = offers

        grants = {(agent, idx): bundle if agent == divider else offers[agent, idx]
                  for agent in remaining for idx, bundle in enumerate(bundles)}
        adjacency = [[idx for idx in range(len(bundles))
                      if _reaches(grants[agent, idx], limits[agent])]
                     for agent in remaining]
        matched = [(remaining[pos], idx) for pos, idx in
                   envy_free_matching(len(remaining), len(bundles), adjacency)]
        assert matched and any(agent == divider for agent, _ in matched)

        awarded = []
        for agent, idx in matched:
            granted = grants[agent, idx]
            assert _reaches(granted, limits[agent])
            allocation[agent] = granted
            awarded.append((agent, granted.items))

        trace.append(RoundRecord(
            index=len(trace), divider=divider, agents=tuple(remaining),
            swaps=tuple(swaps), bundles=tuple(b.items for b in bundles),
            grants=tuple((agent, idx, granted)
                         for (agent, idx), granted in grants.items()),
            matching=tuple(matched), awarded=tuple(awarded)))
        matched_agents = {agent for agent, _ in matched}
        taken = frozenset().union(*(bundles[idx].items for _, idx in matched))
        remaining = [a for a in remaining if a not in matched_agents]
        items -= taken

    return DividerOutcome(allocation=allocation, failed_agent=None,
                          trace=tuple(trace))


def _reaches(bundle: IndependentBundle, limit: tuple[int, int]) -> bool:
    """Whether the bundle is worth at least the threshold t = limit[0] / limit[1]."""
    return bundle.weight * limit[1] >= limit[0] * bundle.scale


def lone_divider(instance: Instance, thresholds: dict[int, Fraction], maker,
                 oracles: dict[int, ValuationOracle]) -> DividerOutcome:
    """Run the engine with exact additive edge values.

    ``maker(agent, items, k)`` must return k disjoint bundles independent for
    ``agent`` and worth her threshold, or None on legitimate failure.  The
    additive edge predicate is only sound when every built bundle is
    independent for every remaining agent: shared systems always, entitled
    ones under the most-restrictive-first rule, so an entitled instance's
    dividers follow its own ordering.
    """
    def additive(divider, remaining, bundles):
        return {(agent, idx): IndependentBundle(
                    bundle.items, oracles[agent].additive_weight(bundle.items),
                    oracles[agent].scale, bundle.witness)
                for agent in remaining if agent != divider
                for idx, bundle in enumerate(bundles)}

    ordering = instance.system.ordering if instance.is_entitled else None
    return _run_rounds(instance, thresholds, maker, additive, ordering)


def lone_divider_entitled(instance: Instance, thresholds: dict[int, Fraction],
                          maker, oracles: dict[int, ValuationOracle]
                          ) -> DividerOutcome:
    """Engine variant for per-agent families behind approximate oracles.

    After the divider builds her bundles, any remaining agent whose oracle
    reports a bundle below (1 - its error bound) times the item sum must hold
    a strictly smaller family, so she takes over as divider and the bundles
    are rebuilt from scratch.  Matching edges use oracle-reported subset
    values, and matched agents other than the divider receive exactly that
    reported independent subset, while the whole bundle leaves the item pool.
    """
    def reported(divider, remaining, bundles):
        subset_of: dict[tuple[int, int], IndependentBundle] = {}
        for agent in remaining:
            if agent == divider:
                continue
            a, b = oracles[agent].epsilon.as_integer_ratio()
            for idx, bundle in enumerate(bundles):
                subset = oracles[agent].approx_value_subset(bundle.items)
                if (subset.weight * b < (b - a)
                        * oracles[agent].additive_weight(bundle.items)):
                    # The bundle is independent for the current divider but
                    # not for this agent, so her family is strictly smaller.
                    return agent
                subset_of[agent, idx] = subset
        return subset_of

    return _run_rounds(instance, thresholds, maker, reported, None)


def trace_to_dicts(outcome: DividerOutcome, run: int = 1) -> list[dict]:
    """Serialise a trace as JSON-ready dicts (1-based agents and items)."""
    rows = []
    for record in outcome.trace:
        rows.append({
            "run": run,
            "round": record.index + 1,
            "divider": record.divider + 1,
            "agents": [a + 1 for a in record.agents],
            "swaps": [[a + 1, b + 1] for a, b in record.swaps],
            "bundles": [sorted(j + 1 for j in b) for b in record.bundles],
            "edges": [[a + 1, idx + 1, str(granted.value)]
                      for a, idx, granted in record.grants],
            "matching": [[a + 1, idx + 1] for a, idx in record.matching],
            "awarded": [[a + 1, sorted(j + 1 for j in items)]
                        for a, items in record.awarded],
        })
    return rows
