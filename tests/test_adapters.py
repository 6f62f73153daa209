"""Constraint adapters: feasibility contracts and constrained-MMS ratios."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import mmsalloc.adapters
from mmsalloc.adapters import (
    constrained_mms,
    solve_budget_adapter,
    solve_conflicts_adapter,
    solve_intervals_adapter,
)
from mmsalloc.core import (
    BudgetSystem,
    ConflictSystem,
    DegreeTooHigh,
    EntitledSpec,
    FreeSystem,
    Instance,
    IntervalSystem,
    UnsupportedSystem,
    validate_instance,
)
from mmsalloc.driver import solve_two_fifths
from mmsalloc.mms_oracle import compute_mms_exact
from mmsalloc.valuation import ValuationOracle

from conftest import (
    brute_member,
    brute_schedulable,
    rand_budget_instance,
    rand_conflict_instance,
    rand_interval_instance,
    schedule_fits,
)

F = Fraction


def _additive(instance, agent, items):
    return sum((instance.values[agent][j] for j in items), F(0))


def test_budget_reduces_to_free_when_budgets_cover_everything():
    rng = random.Random(5)
    m = 6
    sizes = tuple(F(1) for _ in range(m))
    values = tuple(tuple(F(rng.randint(0, 5)) for _ in range(m))
                   for _ in range(2))
    roomy = validate_instance(Instance(
        n=2, m=m, values=values,
        system=EntitledSpec(
            systems=(BudgetSystem(sizes=sizes, budget=F(m)),) * 2,
            ordering=(0, 1))))
    free = validate_instance(Instance(n=2, m=m, values=values,
                                      system=FreeSystem()))
    report = solve_budget_adapter(roomy)
    assert report.allocation == solve_two_fifths(free).allocation


def test_budget_unit_example():
    inst = validate_instance(Instance(
        n=2, m=4, values=((F(1),) * 4, (F(1),) * 4),
        system=EntitledSpec(
            systems=(BudgetSystem(sizes=(F(1),) * 4, budget=F(3)),
                     BudgetSystem(sizes=(F(1),) * 4, budget=F(6))),
            ordering=(0, 1))))
    report = solve_budget_adapter(inst)
    assert all(report.feasible)
    for i in range(2):
        mu = constrained_mms(inst, i)
        assert mu == 2
        assert _additive(inst, i, report.allocation.bundles[i]) >= F(2, 5) * mu


def test_budget_zero_budget_agent_is_dropped():
    inst = validate_instance(Instance(
        n=2, m=3, values=((F(1),) * 3, (F(1),) * 3),
        system=EntitledSpec(
            systems=(BudgetSystem(sizes=(F(1),) * 3, budget=F(0)),
                     BudgetSystem(sizes=(F(1),) * 3, budget=F(3))),
            ordering=(0, 1))))
    report = solve_budget_adapter(inst)
    assert report.result.active_agents == (1,)
    assert report.allocation.bundles[0] == frozenset()


def test_budget_adapter_ratios_on_randoms():
    rng = random.Random(11)
    for trial in range(40):
        inst = rand_budget_instance(rng)
        report = solve_budget_adapter(inst)
        assert all(report.feasible)
        for i in range(inst.n):
            assert brute_member(inst.system_for(i), report.allocation.bundles[i])
            mu = constrained_mms(inst, i)
            if mu > 0:
                assert _additive(inst, i, report.allocation.bundles[i]) \
                    >= F(2, 5) * mu


def test_conflicts_edgeless_reduces_to_free():
    values = ((F(2), F(1), F(3)), (F(1), F(1), F(1)))
    edgeless = validate_instance(Instance(
        n=2, m=3, values=values, system=ConflictSystem(edges=())))
    report = solve_conflicts_adapter(edgeless)
    assert report.allocation.complete


def test_conflicts_path_graph_example():
    inst = validate_instance(Instance(
        n=3, m=4, values=((F(1),) * 4,) * 3,
        system=ConflictSystem.normalize([(0, 1), (1, 2), (2, 3)])))
    report = solve_conflicts_adapter(inst)
    assert report.allocation.complete and all(report.feasible)
    for i in range(3):
        mu = constrained_mms(inst, i)
        assert _additive(inst, i, report.allocation.bundles[i]) >= F(1, 2) * mu


def test_conflicts_degree_guard():
    star = ConflictSystem.normalize([(0, 1), (0, 2), (0, 3)])
    inst = validate_instance(Instance(
        n=3, m=4, values=((F(1),) * 4,) * 3, system=star))
    with pytest.raises(DegreeTooHigh):
        solve_conflicts_adapter(inst)


@pytest.mark.parametrize("edges", [((0, 1), (0, 1)), ((0, 1), (1, 0))])
def test_conflicts_degree_guard_counts_distinct_neighbours(edges):
    """A repeated edge is one conflict: one edge has degree 1, so two agents
    suffice for the completion."""
    inst = validate_instance(Instance(
        n=2, m=3, values=((F(1),) * 3,) * 2, system=ConflictSystem(edges=edges)))
    report = solve_conflicts_adapter(inst)
    assert report.allocation.complete and all(report.feasible)
    for i in range(2):
        assert brute_member(inst.system, report.allocation.bundles[i])


def test_conflicts_completion_is_conflict_free_and_logged():
    rng = random.Random(13)
    for trial in range(40):
        inst = rand_conflict_instance(rng)
        report = solve_conflicts_adapter(inst)
        assert report.allocation.complete
        neighbours = {j: set() for j in range(inst.m)}
        for a, b in inst.system.edges:
            neighbours[a].add(b)
            neighbours[b].add(a)
        partial = {agent: set(bundle.items)
                   for agent, bundle in report.result.awarded.items()}
        for i in range(inst.n):
            partial.setdefault(i, set())
        for agent, item in report.completion:
            assert not partial[agent] & neighbours[item]
            partial[agent].add(item)
        assert tuple(frozenset(partial[i]) for i in range(inst.n)) == \
            report.allocation.bundles
        for i in range(inst.n):
            assert brute_member(inst.system_for(i), report.allocation.bundles[i])
            mu = constrained_mms(inst, i)
            if mu > 0:
                assert _additive(inst, i, report.allocation.bundles[i]) \
                    >= F(1, 2) * mu


def test_intervals_wide_windows_reduce_to_everything_schedulable():
    inst = validate_instance(Instance(
        n=2, m=3, values=((F(2), F(1), F(1)), (F(1), F(1), F(1))),
        system=IntervalSystem(jobs=((1, 1, 9), (1, 1, 9), (1, 1, 9)))))
    report = solve_intervals_adapter(inst)
    assert all(report.feasible)


def test_intervals_tight_window_example():
    inst = validate_instance(Instance(
        n=2, m=4, values=((F(1),) * 4,) * 2,
        system=IntervalSystem(jobs=((1, 1, 2),) * 4)))
    assert constrained_mms(inst, 0) == 2
    report = solve_intervals_adapter(inst)
    for i in range(2):
        assert _additive(inst, i, report.allocation.bundles[i]) >= 1


def test_intervals_adapter_emits_valid_schedules():
    rng = random.Random(17)
    for trial in range(40):
        inst = rand_interval_instance(rng)
        report = solve_intervals_adapter(inst)
        assert all(report.feasible)
        for i in range(inst.n):
            bundle = report.allocation.bundles[i]
            witness = report.schedules[i]
            assert set(witness) == set(bundle)
            assert brute_schedulable(inst.system.jobs, bundle)
            spans = sorted((start, start + inst.system.jobs[j][0] - 1, j)
                           for j, start in witness.items())
            for start, end, j in spans:
                p, r, d = inst.system.jobs[j]
                assert r <= start and end <= d
            assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
            mu = constrained_mms(inst, i)
            if mu > 0:
                assert _additive(inst, i, bundle) >= F(2, 7) * mu


def test_intervals_adapter_emits_the_carried_schedules(monkeypatch):
    # The solve's bundles already carry their schedules, so the adapter
    # builds no oracle and schedules nothing again.
    def refuse(*args, **kwargs):
        raise AssertionError("the adapter derived a schedule again")

    monkeypatch.setattr(mmsalloc.adapters, "oracle_for", refuse)
    monkeypatch.setattr(ValuationOracle, "schedule_witness", refuse)
    rng = random.Random(29)
    for trial in range(30):
        inst = rand_interval_instance(rng, m=rng.randint(3, 20))
        report = solve_intervals_adapter(inst)
        awarded = report.result.awarded
        for i in range(inst.n):
            witness = report.schedules[i]
            assert witness is awarded[i].witness if i in awarded else not witness
            assert schedule_fits(inst.system.jobs, report.allocation.bundles[i],
                                 witness), trial


def test_constrained_mms_matches_hereditary_mms_for_budget_and_intervals():
    """Partial-allocation constraints price bundles exactly like the
    hereditary valuation, so the two MMS notions coincide."""
    rng = random.Random(19)
    for trial in range(15):
        inst = rand_budget_instance(rng, entitled=False)
        shared = validate_instance(Instance(
            n=inst.n, m=inst.m, values=inst.values, system=inst.system))
        for i in range(inst.n):
            assert constrained_mms(inst, i) == \
                compute_mms_exact(shared, i).mu
    for trial in range(15):
        inst = rand_interval_instance(rng, m=6)
        for i in range(inst.n):
            assert constrained_mms(inst, i) == compute_mms_exact(inst, i).mu


def test_adapters_refuse_other_system_kinds():
    free = validate_instance(Instance(n=2, m=2, values=((F(1), F(1)),) * 2,
                                      system=FreeSystem()))
    for adapter, needle in ((solve_budget_adapter, "needs budget systems"),
                            (solve_conflicts_adapter, "needs a shared conflict"),
                            (solve_intervals_adapter, "needs a shared interval")):
        with pytest.raises(UnsupportedSystem, match=needle):
            adapter(free)
    with pytest.raises(UnsupportedSystem, match="for free systems"):
        constrained_mms(free, 0)


def test_conflicts_adapter_needs_an_agent():
    inst = validate_instance(Instance(n=0, m=2, values=(),
                                      system=ConflictSystem(edges=((0, 1),))))
    with pytest.raises(DegreeTooHigh, match="at least one agent"):
        solve_conflicts_adapter(inst)


def test_constrained_mms_is_zero_without_a_feasible_partition():
    # Each pair of a triangle conflicts, so two bundles cannot hold its three
    # items, and a conflict graph demands a complete partition.
    triangle = ConflictSystem(edges=((0, 1), (1, 2), (0, 2)))
    inst = validate_instance(Instance(n=2, m=3, values=((F(1),) * 3,) * 2,
                                      system=triangle))
    assert constrained_mms(inst, 0) == 0
