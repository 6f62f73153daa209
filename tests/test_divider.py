"""Lone-divider engine: progress, trace invariants, the entitled variant."""

from __future__ import annotations

import random
from fractions import Fraction

from mmsalloc.bundles import BundleRequest, bundles_from_mms_partition, make_bundles_alpha
from mmsalloc.core import BudgetSystem, EntitledSpec, Instance, validate_instance
from mmsalloc.divider import lone_divider, lone_divider_entitled, trace_to_dicts
from mmsalloc.generators import gen_random_hereditary, gen_two_thirds_bound
from mmsalloc.mms_oracle import compute_mms_exact
from mmsalloc.valuation import oracle_for

from conftest import rand_budget_instance

F = Fraction


def _existence_setup(inst, ratio):
    oracles = {i: oracle_for(inst, i) for i in range(inst.n)}
    records = {i: compute_mms_exact(inst, i) for i in range(inst.n)}
    thresholds = {i: ratio * records[i].mu for i in range(inst.n)}

    def maker(agent, items, count):
        return bundles_from_mms_partition(oracles[agent], records[agent],
                                          items, count, thresholds[agent])

    return thresholds, maker, records, oracles


def test_single_agent_round():
    inst = gen_random_hereditary(m=5, n=1, seed=2)
    thresholds, maker, records, oracles = _existence_setup(inst, F(1))
    outcome = lone_divider(inst, thresholds, maker, oracles)
    assert outcome.succeeded
    assert outcome.allocation[0].value >= records[0].mu


def test_gadget_halves_thresholds():
    inst = gen_two_thirds_bound(2)
    thresholds, maker, records, oracles = _existence_setup(inst, F(1, 2))
    outcome = lone_divider(inst, thresholds, maker, oracles)
    assert outcome.succeeded
    for agent, bundle in outcome.allocation.items():
        assert bundle.value >= F(3, 2)
        assert oracle_for(inst, agent).exact_value(bundle.items) >= F(3, 2)


def test_round_progress_and_non_matched_safety():
    rng = random.Random(11)
    for seed in range(25):
        n = rng.choice((2, 3))
        inst = gen_random_hereditary(m=8, n=n, seed=900 + seed)
        ratio = F(n, 2 * n - 1)
        thresholds, maker, _, oracles = _existence_setup(inst, ratio)
        outcome = lone_divider(inst, thresholds, maker, oracles)
        assert outcome.succeeded
        remaining_counts = [len(record.agents) for record in outcome.trace]
        assert remaining_counts == sorted(remaining_counts, reverse=True)
        assert all(a > b for a, b in zip(remaining_counts, remaining_counts[1:]))
        for record in outcome.trace:
            matched_agents = {a for a, _ in record.matching}
            matched_bundles = {idx for _, idx in record.matching}
            assert record.divider in matched_agents
            values = {(a, idx): granted.value for a, idx, granted in record.grants}
            for agent in record.agents:
                if agent in matched_agents:
                    continue
                for idx in matched_bundles:
                    assert values[agent, idx] < thresholds[agent]


def test_all_awarded_bundles_meet_thresholds_and_independence():
    rng = random.Random(13)
    for seed in range(20):
        n = rng.choice((2, 3))
        inst = gen_random_hereditary(m=8, n=n, seed=1300 + seed)
        thresholds, maker, _, oracles = _existence_setup(inst, F(n, 2 * n - 1))
        outcome = lone_divider(inst, thresholds, maker, oracles)
        assert outcome.succeeded
        claimed = set()
        for agent, bundle in outcome.allocation.items():
            oracle = oracle_for(inst, agent)
            assert oracle.is_independent(bundle.items)
            assert oracle.exact_value(bundle.items) == bundle.value
            assert bundle.value >= thresholds[agent]
            assert claimed.isdisjoint(bundle.items)
            claimed.update(bundle.items)


def test_maker_failure_reports_the_divider():
    inst = gen_two_thirds_bound(2)
    oracles = {i: oracle_for(inst, i) for i in range(2)}

    def maker(agent, items, count):
        return make_bundles_alpha(BundleRequest(
            oracle=oracles[agent], items=items, count=count, mu_star=F(100)))

    outcome = lone_divider(inst, {0: F(40), 1: F(40)}, maker, oracles)
    assert not outcome.succeeded
    assert outcome.failed_agent == 0  # lowest index divides first


def test_entitled_instance_lets_its_most_restrictive_agent_divide():
    # Agent 2's budget is the smaller, so the additive offers are sound only
    # when she divides first; lone_divider reads that from the instance.
    sizes = (F(1),) * 4
    inst = Instance(n=2, m=4, values=((F(1),) * 4,) * 2, system=EntitledSpec(
        systems=(BudgetSystem(sizes=sizes, budget=F(3)),
                 BudgetSystem(sizes=sizes, budget=F(2))), ordering=(1, 0)))
    thresholds, maker, _, oracles = _existence_setup(inst, F(2, 3))
    outcome = lone_divider(inst, thresholds, maker, oracles)
    assert outcome.succeeded
    assert outcome.trace[0].divider == 1


def _entitled_setup(inst, epsilon, mu_star_scale=1):
    oracles = {i: oracle_for(inst, i, epsilon=epsilon) for i in range(inst.n)}
    records = {i: compute_mms_exact(inst, i) for i in range(inst.n)}
    mu_star = {i: max(records[i].mu * mu_star_scale, F(1)) for i in range(inst.n)}
    thresholds = {i: F(2, 5) * mu_star[i] for i in range(inst.n)}

    def maker(agent, items, count):
        return make_bundles_alpha(BundleRequest(
            oracle=oracles[agent], items=items, count=count,
            mu_star=mu_star[agent]))

    return oracles, thresholds, maker, records


def test_entitled_budget_with_known_ordering_never_swaps():
    rng = random.Random(19)
    for seed in range(15):
        inst = rand_budget_instance(rng)
        epsilon = F(1, inst.n + 1)
        oracles, thresholds, maker, records = _entitled_setup(inst, epsilon)
        if any(records[i].mu == 0 for i in range(inst.n)):
            continue
        # Agent 0 is the most restrictive, so she divides first.
        outcome = lone_divider_entitled(inst, thresholds, maker, oracles)
        assert outcome.succeeded
        assert all(record.swaps == () for record in outcome.trace)


def test_entitled_awards_are_feasible_oracle_subsets():
    rng = random.Random(29)
    for seed in range(15):
        inst = rand_budget_instance(rng)
        epsilon = F(1, inst.n + 1)
        oracles, thresholds, maker, records = _entitled_setup(inst, epsilon)
        if any(records[i].mu == 0 for i in range(inst.n)):
            continue
        outcome = lone_divider_entitled(inst, thresholds, maker, oracles)
        assert outcome.succeeded
        for agent, bundle in outcome.allocation.items():
            system = inst.system_for(agent)
            sizes = sum((system.sizes[j] for j in bundle.items), F(0))
            assert sizes <= system.budget
            assert bundle.value >= thresholds[agent]


def _reversed_agents(inst):
    """The same entitled instance with its agents numbered backwards."""
    n = inst.n
    return validate_instance(Instance(
        n=n, m=inst.m, values=inst.values[::-1],
        system=EntitledSpec(systems=inst.system.systems[::-1],
                            ordering=tuple(n - 1 - i for i in inst.system.ordering))))


def test_entitled_swap_fires_for_misordered_divider_rule():
    """With the least restrictive agent at the lowest index she divides first,
    which must trigger the takeover whenever her bundle is infeasible for a
    stricter agent."""
    rng = random.Random(43)
    saw_swap = False
    for seed in range(40):
        inst = _reversed_agents(rand_budget_instance(rng, m=6, n=2))
        epsilon = F(1, 3)
        oracles, thresholds, maker, records = _entitled_setup(inst, epsilon)
        if any(records[i].mu == 0 for i in range(2)):
            continue
        outcome = lone_divider_entitled(inst, thresholds, maker, oracles)
        if not outcome.succeeded:
            continue
        for record in outcome.trace:
            for was, now in record.swaps:
                saw_swap = True
                # The takeover moves to a strictly more restrictive agent.
                assert (inst.system_for(now).budget
                        < inst.system_for(was).budget)
        for agent, bundle in outcome.allocation.items():
            system = inst.system_for(agent)
            assert sum((system.sizes[j] for j in bundle.items), F(0)) \
                <= system.budget
    assert saw_swap


def test_trace_serialisation_is_one_based():
    inst = gen_two_thirds_bound(2)
    thresholds, maker, _, oracles = _existence_setup(inst, F(1, 2))
    outcome = lone_divider(inst, thresholds, maker, oracles)
    rows = trace_to_dicts(outcome, run=3)
    assert rows and rows[0]["run"] == 3 and rows[0]["round"] == 1
    assert min(min(b) for row in rows for b in row["bundles"] if b) >= 1
