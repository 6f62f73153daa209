"""Oracle contracts per system variant, against from-the-definition references."""

from __future__ import annotations

import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import mmsalloc.valuation
from mmsalloc.bundles import BundleRequest, bundles_from_mms_partition, make_bundles_alpha
from mmsalloc.core import (
    BudgetSystem,
    ConflictSystem,
    EpsilonOutOfRange,
    ExactnessGateExceeded,
    ExplicitSystem,
    FreeSystem,
    IntervalSystem,
)
from mmsalloc.driver import solve_entitled, solve_existence, solve_two_fifths
from mmsalloc.generators import gen_random_hereditary, gen_two_thirds_bound
from mmsalloc.mms_oracle import compute_mms_exact
from mmsalloc.valuation import (
    IndependentBundle,
    ValuationOracle,
    _schedule_is_valid,
    oracle_for,
    singleton_weights,
)

from conftest import (
    AdversarialOracle,
    brute_member,
    brute_schedulable,
    brute_value,
    rand_budget_instance,
    schedule_fits,
)

F = Fraction


class CountingOracle(ValuationOracle):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.exact_calls = 0

    def exact_value(self, bundle):
        self.exact_calls += 1
        return super().exact_value(bundle)


def test_weights_hold_the_values_on_one_integer_scale():
    rng = random.Random(97)
    vectors = [(), (F(0), F(0)), (F(3), F(0), F(7)),
               (F(1, 97), F(1, 89), F(5, 6), F(0))]
    for _ in range(200):
        vectors.append(tuple(
            F(rng.randint(0, 12), rng.choice((1, 1, 2, 3, 7, 89, 97)))
            for _ in range(rng.randint(1, 9))))
    for values in vectors:
        oracle = ValuationOracle(FreeSystem(), values)
        assert all(type(w) is int for w in oracle.weights)
        assert [F(w, oracle.scale) for w in oracle.weights] == list(values)
        for _ in range(6):
            bundle = [j for j in range(len(values)) if rng.random() < 0.5]
            assert F(oracle.additive_weight(bundle), oracle.scale) == \
                sum((values[j] for j in bundle), F(0))
    assert ValuationOracle(FreeSystem(), vectors[0]).scale == 1
    assert ValuationOracle(FreeSystem(), vectors[2]).scale == 1
    assert ValuationOracle(FreeSystem(), vectors[3]).scale == 97 * 89 * 6


def test_free_system_values_are_additive():
    oracle = ValuationOracle(FreeSystem(), (F(3), F(4)))
    assert oracle.exact_value(frozenset({0, 1})) == 7


def test_gadget_agent_value_is_capped_at_three():
    inst = gen_two_thirds_bound(2)
    oracle = oracle_for(inst, 0)
    assert oracle.exact_value(frozenset({0, 1, 2})) == 3
    assert oracle.exact_value(inst.all_items()) == 3


def test_budget_exact_value_by_enumeration():
    system = BudgetSystem(sizes=(F(3), F(3), F(3)), budget=F(6))
    oracle = ValuationOracle(system, (F(1), F(1), F(1)))
    assert oracle.exact_value(frozenset({0, 1, 2})) == 2


def test_budget_fptas_worked_example():
    system = BudgetSystem(sizes=(F(4), F(3), F(3)), budget=F(6))
    oracle = ValuationOracle(system, (F(5), F(3), F(3)), epsilon=F(1, 3))
    result = oracle.approx_value_subset(frozenset({0, 1, 2}))
    assert result.items == frozenset({1, 2})
    assert result.value == 6
    assert result.value >= F(2, 3) * 6


def test_subset_answers_are_memoized_per_oracle(monkeypatch):
    runs = []
    fptas = mmsalloc.valuation._knapsack

    def counting(*args):
        runs.append(args)
        return fptas(*args)

    monkeypatch.setattr(mmsalloc.valuation, "_knapsack", counting)
    system = BudgetSystem(sizes=(F(4), F(3), F(3)), budget=F(6))
    oracle = ValuationOracle(system, (F(5), F(3), F(3)), epsilon=F(1, 3))
    first = oracle.approx_value_subset(frozenset({0, 1, 2}))
    second = oracle.approx_value_subset([2, 1, 0])
    assert first == second
    assert len(runs) == 1


def _reference_fptas(items, values, sizes, budget, eps):
    """Value-scaling DP over Fraction sizes that copies chosen tuples."""
    usable = [j for j in items if sizes[j] <= budget and values[j] > 0]
    if not usable:
        return []
    unit = eps * max(values[j] for j in usable) / len(usable)
    dp = {0: (F(0), ())}
    for j in usable:
        w = int(values[j] / unit)
        updates = {}
        for total, (size, chosen) in dp.items():
            grown = size + sizes[j]
            if grown > budget:
                continue
            incumbent = updates.get(total + w, dp.get(total + w))
            if incumbent is None or grown < incumbent[0]:
                updates[total + w] = (grown, chosen + (j,))
        for total, candidate in updates.items():
            incumbent = dp.get(total)
            if incumbent is None or candidate[0] < incumbent[0]:
                dp[total] = candidate
    return sorted(dp[max(dp)][1])


def test_fptas_matches_the_fraction_reference():
    rng = random.Random(2024)
    for trial in range(600):
        m = rng.randint(0, 11)
        sizes = tuple(F(rng.randint(0, 9), rng.choice((1, 2, 3, 4, 6)))
                      for _ in range(m))
        budget = F(0) if trial % 10 == 0 else \
            F(rng.randint(0, 24), rng.choice((1, 2, 3, 5)))
        values = tuple(F(rng.randint(0, 9), rng.choice((1, 2, 3)))
                       for _ in range(m))
        eps = rng.choice((F(1, 2), F(1, 3), F(1, 5), F(1, 9)))
        items = sorted(j for j in range(m) if rng.random() < 0.85)
        scaled = BudgetSystem(sizes=sizes, budget=budget).scaled
        assert mmsalloc.valuation._knapsack(
                items, values, *scaled, *eps.as_integer_ratio()) == \
            _reference_fptas(items, values, sizes, budget, eps), trial


def _reference_reduce(system, values, bundle):
    """Ascending scan that drops each item whose removal keeps the value."""
    items = frozenset(bundle)
    value = brute_value(system, values, items)
    for j in sorted(items):
        if brute_value(system, values, items - {j}) == value:
            items = items - {j}
    return items, value


def test_explicit_reduce_matches_the_ascending_scan():
    rng = random.Random(4242)
    for trial in range(320):
        m = rng.randint(0, 8)
        system = ExplicitSystem.normalize(
            frozenset(j for j in range(m) if rng.random() < 0.5)
            for _ in range(rng.randint(1, 5)))
        values = tuple(F(rng.randint(0, 4), rng.choice((1, 2)))
                       for _ in range(m))
        bundle = frozenset(j for j in range(m) if rng.random() < 0.8)
        reduced = ValuationOracle(system, values).reduce_to_independent(bundle)
        assert (reduced.items, reduced.value) == \
            _reference_reduce(system, values, bundle), trial


@st.composite
def explicit_histories(draw):
    """An explicit family on m <= 12 items, values with zeros among them, and
    a query sequence that either draws afresh or toggles a few items of the
    previous query, with the empty query somewhere in it."""
    m = draw(st.integers(1, 12))
    item = st.integers(0, m - 1)
    sets = draw(st.lists(st.frozensets(item), max_size=6))
    values = tuple(draw(st.lists(
        st.builds(F, st.integers(0, 4), st.sampled_from((1, 2, 3))),
        min_size=m, max_size=m)))
    queries, last = [], frozenset()
    for toggle, drawn in draw(st.lists(st.tuples(st.booleans(), st.frozensets(item)),
                                       max_size=12)):
        last = last ^ drawn if toggle else drawn
        queries.append(last)
    queries.insert(draw(st.integers(0, len(queries))), frozenset())
    return sets, values, queries


@settings(max_examples=200, deadline=None)
@given(explicit_histories())
# The empty family; then item 2 in no set, items 0 and 3 weighing nothing,
# and queries that move by one item at a time through the empty query.
@example(([], (F(1), F(0)), [frozenset({0, 1}), frozenset(), frozenset({1})]))
@example(([{0, 1}, {1, 3}], (F(0), F(2), F(5), F(0)),
          [frozenset({0, 1, 2, 3}), frozenset({0, 1, 2}), frozenset({1, 2}),
           frozenset({2}), frozenset(), frozenset({3}), frozenset({0, 3})]))
def test_explicit_answers_do_not_depend_on_query_history(history):
    sets, values, queries = history
    system = ExplicitSystem.normalize(sets)
    assert system.incidence == {
        j: tuple(t for t, s in enumerate(system.maximal_sets) if j in s)
        for j in range(len(values)) if any(j in s for s in system.maximal_sets)}
    oracle = ValuationOracle(system, values)
    assert oracle.singleton_weights == tuple(
        w if system.independent(frozenset({j})) else 0
        for j, w in enumerate(oracle.weights))
    for q in queries:
        assert oracle.exact_value(q) \
            == ValuationOracle(system, values).exact_value(q) == max(
                (sum((values[j] for j in q & s), F(0))
                 for s in system.maximal_sets), default=0), q
        assert oracle.reduce_to_independent(q) \
            == ValuationOracle(system, values).reduce_to_independent(q), q
        assert oracle.approx_value_subset(q) \
            == ValuationOracle(system, values).approx_value_subset(q), q


@settings(max_examples=200, deadline=None)
@given(explicit_histories(), st.sampled_from((F(0), F(1, 3))))
# The empty family, and item 2 in no set with items 0 and 3 weighing
# nothing, each through the empty query.
@example(([], (F(1), F(0)), [frozenset({0, 1}), frozenset(), frozenset({0})]),
         F(0))
@example(([{0, 1}, {1, 3}], (F(0), F(2), F(5), F(0)),
          [frozenset({0, 1}), frozenset({0, 1, 2, 3}), frozenset({2}),
           frozenset(), frozenset({1, 3}), frozenset({0, 3})]), F(0))
def test_explicit_subset_answers_match_the_two_step_reference(history, epsilon):
    """The query itself, zero weights and all, when a maximal set holds it;
    else the ascending scan."""
    sets, values, queries = history
    system = ExplicitSystem.normalize(sets)
    oracle = ValuationOracle(system, values, epsilon=epsilon)
    for q in queries:
        if brute_member(system, q):
            expected = q, sum((values[j] for j in q), F(0))
        else:
            expected = _reference_reduce(system, values, q)
        answer = oracle.approx_value_subset(q)
        assert (answer.items, answer.value) == expected, q


def _tied_families(rng, trials):
    """Explicit families on at most 9 items with values 0, 1 and a few 2s,
    so equal-weight sets are common; up to two last items lie in no set,
    and every tenth family is empty."""
    for trial in range(trials):
        m = rng.randint(1, 9)
        held = m - rng.randint(0, 2)
        system = ExplicitSystem() if trial % 10 == 0 else ExplicitSystem.normalize(
            frozenset(j for j in range(held) if rng.random() < 0.5)
            for _ in range(rng.randint(1, 8)))
        values = tuple(F(rng.choice((0, 1, 1, 1, 2))) for _ in range(m))
        yield system, values


def test_explicit_answers_match_the_ascending_scan():
    """Subset answers (the query itself when a maximal set holds it) and
    reductions equal the ascending scan, whether one set or several reach
    the query's value, and each carries a maximal set that holds it and
    weighs its weight inside the query."""
    rng = random.Random(3033)
    alone = tied = 0
    for system, values in _tied_families(rng, 600):
        oracle = ValuationOracle(system, values)
        for _ in range(4):
            q = frozenset(j for j in range(len(values)) if rng.random() < 0.6)
            sums = sorted((sum((values[j] for j in q & s), F(0))
                           for s in system.maximal_sets), reverse=True)
            tied += len(sums) > 1 and sums[0] == sums[1]
            alone += len(sums) == 1 or len(sums) > 1 and sums[0] != sums[1]
            scanned = _reference_reduce(system, values, q)
            whole = (q, sum((values[j] for j in q), F(0))) \
                if brute_member(system, q) else scanned
            for answer, expected in ((oracle.approx_value_subset(q), whole),
                                     (oracle.reduce_to_independent(q), scanned)):
                assert (answer.items, answer.value) == expected, (system, values, q)
                if answer.witness is None:
                    assert not system.maximal_sets
                else:
                    assert answer.witness in system.maximal_sets
                    assert answer.items <= answer.witness
                    assert sum((values[j] for j in q & answer.witness), F(0)) \
                        == answer.value, (system, values, q)
    assert alone >= 1500 and tied >= 300, (alone, tied)


def test_explicit_pair_independence_is_membership():
    rng = random.Random(3034)
    for system, values in _tied_families(rng, 200):
        oracle = ValuationOracle(system, values)
        for j1 in range(len(values)):
            for j2 in range(j1 + 1, len(values)):
                assert oracle.pair_independent(j1, j2) \
                    is brute_member(system, {j1, j2}), (system, j1, j2)


def test_interval_single_slot_forces_singleton():
    system = IntervalSystem(jobs=((1, 1, 1), (1, 1, 1), (1, 1, 1)))
    oracle = ValuationOracle(system, (F(1), F(1), F(1)), epsilon=F(1, 2))
    result = oracle.approx_value_subset(frozenset({0, 1, 2}))
    assert len(result.items) == 1 and result.value == 1


def test_reduce_keeps_value_and_is_independent():
    system = ExplicitSystem.normalize([{0, 1}, {1, 2}])
    oracle = CountingOracle(system, (F(1), F(1), F(1)))
    reduced = oracle.reduce_to_independent(frozenset({0, 1, 2}))
    assert reduced.value == 2
    assert reduced.items == frozenset({1, 2})  # ascending scan drops item 0
    assert oracle.is_independent(reduced.items)
    assert oracle.exact_calls <= 2 * 3 + 1


def test_reduce_on_gadget_drops_worthless_item():
    inst = gen_two_thirds_bound(2)
    oracle = oracle_for(inst, 0)
    reduced = oracle.reduce_to_independent(frozenset({0, 1, 2, 3}))
    assert reduced.items == frozenset({0, 1, 2})
    assert reduced.value == 3


def test_reduce_identity_on_independent_bundle():
    oracle = ValuationOracle(FreeSystem(), (F(2), F(5)))
    reduced = oracle.reduce_to_independent(frozenset({0, 1}))
    assert reduced.items == frozenset({0, 1})


def test_singleton_independence_per_variant():
    free = ValuationOracle(FreeSystem(), (F(1),))
    assert free.is_independent({0})

    explicit = ValuationOracle(ExplicitSystem.normalize([{0, 1}]),
                               (F(1), F(1), F(1)))
    assert not explicit.is_independent({2})

    budget = ValuationOracle(BudgetSystem(sizes=(F(5),), budget=F(4)), (F(1),))
    assert not budget.is_independent({0})

    # The one singleton rule keeps a weight exactly where the oracle's
    # membership test admits {j}.  Item 1 weighs nothing, item 3 lies outside
    # every explicit set, and item 2 is larger than the budget.
    values = (F(1), F(0), F(2), F(3, 2))
    kinds = [
        (FreeSystem(), ()),
        (ExplicitSystem.normalize([{0, 1}, {1, 2}]), (3,)),
        (BudgetSystem(sizes=(F(1), F(2), F(5), F(4)), budget=F(4)), (2,)),
        # Item 3 fills the budget exactly on the sizes' common scale.
        (BudgetSystem(sizes=(F(1, 3), F(1, 2), F(5, 6), F(2, 3)),
                      budget=F(2, 3)), (2,)),
        (ConflictSystem.normalize([(0, 2), (2, 3)]), ()),
        (IntervalSystem(jobs=((1, 1, 1), (2, 1, 3), (1, 2, 2), (3, 1, 3))), ()),
    ]
    for system, excluded in kinds:
        oracle = ValuationOracle(system, values)
        expected = tuple(w if oracle.is_independent({j}) else 0
                         for j, w in enumerate(oracle.weights))
        assert singleton_weights(system, oracle.weights) == expected, system
        assert oracle.singleton_weights == expected, system
        assert [j for j in range(4) if not oracle.is_independent({j})] \
            == list(excluded), system
        assert expected[1] == 0 and all(expected[j] for j in (0, 2, 3)
                                        if j not in excluded), system


def test_pair_independence_examples():
    both_fit = ValuationOracle(IntervalSystem(jobs=((1, 1, 2), (1, 1, 2))),
                               (F(1), F(1)))
    assert both_fit.pair_independent(0, 1)

    clash = ValuationOracle(IntervalSystem(jobs=((1, 1, 1), (1, 1, 1))),
                            (F(1), F(1)))
    assert not clash.pair_independent(0, 1)

    conflict = ValuationOracle(ConflictSystem.normalize([(0, 1)]),
                               (F(1), F(1)))
    assert not conflict.pair_independent(0, 1)

    # One pair of each kind: the pair test and the set test agree.
    ones = (F(1), F(1), F(1))
    kinds = [
        (FreeSystem(), (0, 1), True),
        (ExplicitSystem.normalize([{0, 1}, {2}]), (0, 2), False),
        (BudgetSystem(sizes=(F(2), F(3), F(1)), budget=F(4)), (0, 2), True),
        (ConflictSystem.normalize([(1, 2)]), (1, 2), False),
        (IntervalSystem(jobs=((2, 1, 3), (1, 1, 3), (2, 2, 3))), (0, 1), True),
    ]
    for system, (j1, j2), expected in kinds:
        pair = ValuationOracle(system, ones).pair_independent(j1, j2)
        whole = ValuationOracle(system, ones).is_independent({j1, j2})
        assert pair == whole == expected, system


def test_interval_oracle_rejects_sub_half_epsilon():
    system = IntervalSystem(jobs=((1, 1, 1),))
    with pytest.raises(EpsilonOutOfRange):
        ValuationOracle(system, (F(1),), epsilon=F(1, 4))


def test_adversarial_oracle_checks_epsilon_like_the_base_class():
    system = IntervalSystem(jobs=((1, 1, 1),))
    for epsilon in (F(1, 4), F(-1, 2), F(1)):
        with pytest.raises(EpsilonOutOfRange):
            AdversarialOracle(system, (F(1),), epsilon=epsilon)
    assert AdversarialOracle(system, (F(1),), epsilon=F(1, 2)).epsilon == F(1, 2)


def test_fptas_contract_on_random_knapsacks():
    rng = random.Random(99)
    for trial in range(120):
        m = rng.randint(1, 12)
        system = BudgetSystem(
            sizes=tuple(F(rng.randint(0, 9), rng.choice((1, 2))) for _ in range(m)),
            budget=F(rng.randint(0, 18), rng.choice((1, 2))))
        values = tuple(F(rng.randint(0, 9), rng.choice((1, 3))) for _ in range(m))
        eps = rng.choice((F(1, 3), F(1, 4), F(1, 8)))
        oracle = ValuationOracle(system, values, epsilon=eps)
        bundle = frozenset(j for j in range(m) if rng.random() < 0.8)
        answer = oracle.approx_value_subset(bundle)
        assert answer.items <= bundle
        assert sum((system.sizes[j] for j in answer.items), F(0)) <= system.budget
        assert answer.value >= (1 - eps) * brute_value(system, values, bundle)


def _goal_oracles(rng, trials):
    """Per trial, two like oracles and a query: budget FPTAS at a random
    error, adversarial on an explicit family, interval at error 1/2 or exact
    explicit, in turn."""
    for trial in range(trials):
        kind, m = trial % 4, rng.randint(1, 11)
        values = tuple(F(rng.randint(0, 9), rng.choice((1, 2, 3)))
                       for _ in range(m))
        if kind == 0:
            system = BudgetSystem(
                sizes=tuple(F(rng.randint(0, 9), rng.choice((1, 2)))
                            for _ in range(m)),
                budget=F(rng.randint(0, 18), rng.choice((1, 2))))
            eps = rng.choice((F(1, 2), F(1, 3), F(1, 5), F(1, 9)))
            make = lambda: ValuationOracle(system, values, epsilon=eps)  # noqa: E731
        elif kind == 2:
            jobs = []
            for _ in range(m):
                p, r = rng.randint(1, 3), rng.randint(1, 5)
                jobs.append((p, r, r + p - 1 + rng.randint(0, 4)))
            system = IntervalSystem(jobs=tuple(jobs))
            make = lambda: ValuationOracle(system, values, epsilon=F(1, 2))  # noqa: E731
        else:
            system = ExplicitSystem.normalize(
                frozenset(j for j in range(m) if rng.random() < 0.6)
                for _ in range(rng.randint(1, 4)))
            if kind == 1:
                eps = rng.choice((F(1, 3), F(1, 2)))
                make = lambda: AdversarialOracle(system, values, epsilon=eps)  # noqa: E731
            else:
                make = lambda: ValuationOracle(system, values)  # noqa: E731
        bundle = frozenset(j for j in range(m) if rng.random() < 0.85)
        yield make(), make(), bundle


def test_a_goal_answer_reaches_it_or_is_the_answer_without_one(monkeypatch):
    """Each answer to a goal is independent and weighs at least the goal or
    is exactly the answer without a goal, and a later query without a goal
    still gets that answer: a reached one never stands in for it."""
    runs = []
    fptas = mmsalloc.valuation._knapsack

    def counting(*args):
        runs.append(args)
        return fptas(*args)

    monkeypatch.setattr(mmsalloc.valuation, "_knapsack", counting)
    rng = random.Random(2032)
    reached_early = missed = served_again = 0
    for oracle, fresh, bundle in _goal_oracles(rng, 1200):
        plain = fresh.approx_value_subset(bundle)
        # Goals from 1 to past the optimum, so some cannot be reached.
        goal = rng.randint(1, fresh.exact_weight(bundle) + 2)
        answer = oracle.approx_value_subset(bundle, goal=goal)
        assert answer.items <= bundle
        if answer.witness is None:
            assert brute_member(oracle.system, answer.items)
        elif oracle.system.kind == "interval":
            assert schedule_fits(oracle.system.jobs, answer.items, answer.witness)
        else:
            assert answer.witness in oracle.system.maximal_sets
            assert answer.items <= answer.witness
            assert brute_member(oracle.system, answer.items)
        weight = oracle.additive_weight(answer.items)
        assert answer.value == F(weight, oracle.scale)
        if weight < goal:
            assert answer == plain, (oracle.system, bundle, goal)
            missed += oracle.system.kind == "budget" and answer.items != bundle
        elif answer != plain:
            assert oracle.system.kind == "budget", oracle.system
            reached_early += 1
            # A lower goal is served from the kept answer, with no new run.
            before = len(runs)
            lower = rng.randint(1, goal)
            assert oracle.approx_value_subset(bundle, goal=lower) == answer
            served_again += len(runs) == before
        assert oracle.approx_value_subset(bundle) == plain
        assert oracle.approx_value_subset(bundle, goal=goal) in (answer, plain)
    assert reached_early >= 40 and missed >= 40, (reached_early, missed)
    assert served_again == reached_early


class _TwoMemoRule:
    """Reference: the two-memo rule the one memo replaced.  Answers without
    a goal and short answers go to ``_subset_cache``, which serves every
    later query; answers that reached a goal go to ``_reached``, which only
    approximate budget oracles other than the adversary keep."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._subset_cache = {}
        self._reached = ({} if self._approximate and isinstance(
            self.system, BudgetSystem) and not isinstance(self, AdversarialOracle)
            else None)

    def approx_value_subset(self, bundle, goal=None):
        items = frozenset(bundle)
        answer = self._subset_cache.get(items)
        if answer is not None:
            return answer
        if goal is None or self._reached is None:
            answer = self._subset_cache[items] = self._approx_value_subset(items, None)
            return answer
        answer = self._reached.get(items)
        if answer is None or self.additive_weight(answer.items) < goal:
            answer = self._approx_value_subset(items, goal)
            if self.additive_weight(answer.items) >= goal:
                self._reached[items] = answer
            else:
                self._subset_cache[items] = answer
        return answer


class _TwoMemoOracle(_TwoMemoRule, ValuationOracle):
    pass


class _TwoMemoAdversary(_TwoMemoRule, AdversarialOracle):
    pass


def _memo_system(rng, kind, m):
    """A random system of one kind: explicit, free, conflict, budget or
    interval."""
    if kind == "explicit":
        return ExplicitSystem.normalize(
            frozenset(j for j in range(m) if rng.random() < 0.6)
            for _ in range(rng.randint(1, 4)))
    if kind == "free":
        return FreeSystem()
    if kind == "conflict":
        return ConflictSystem.normalize(
            [(a, b) for a in range(m) for b in range(a + 1, m) if rng.random() < 0.3])
    if kind == "interval":
        jobs = []
        for _ in range(m):
            p, r = rng.randint(1, 3), rng.randint(1, 5)
            jobs.append((p, r, r + p - 1 + rng.randint(0, 4)))
        return IntervalSystem(jobs=tuple(jobs))
    return BudgetSystem(
        sizes=tuple(F(rng.randint(0, 9), rng.choice((1, 2))) for _ in range(m)),
        budget=F(rng.randint(0, 18), rng.choice((1, 2))))


# (system kind, error bounds, adversary?): explicit, free, exact budget,
# budget FPTAS, interval at error 1/2, and the adversary on either family.
_MEMO_SETTINGS = (
    ("explicit", (F(0),), False), ("free", (F(0),), False),
    ("budget", (F(0),), False), ("budget", (F(1, 2), F(1, 3), F(1, 5), F(1, 9)), False),
    ("interval", (F(1, 2),), False), ("explicit", (F(1, 3), F(1, 2)), True),
    ("budget", (F(1, 3), F(1, 2)), True))


def test_one_memo_answers_as_the_two_memo_rule(monkeypatch):
    """Seeded query histories, each asked of the library oracle and of the
    two-memo reference: plain queries, falling goals, rising goals and
    random ones, over a few overlapping item sets asked again and again.
    Every answer equals the reference's in items, value and witness, and
    a budget FPTAS oracle runs the knapsack as often as the reference."""
    runs = []
    fptas = mmsalloc.valuation._knapsack

    def counting(*args):
        runs.append(args)
        return fptas(*args)

    monkeypatch.setattr(mmsalloc.valuation, "_knapsack", counting)
    rng = random.Random(2027)
    reached_early = 0
    for trial in range(840):
        kind, errors, adversarial = _MEMO_SETTINGS[trial % len(_MEMO_SETTINGS)]
        history = ("plain", "falling", "rising", "random")[
            trial // len(_MEMO_SETTINGS) % 4]
        m = rng.randint(1, 11)
        values = tuple(F(rng.randint(0, 9), rng.choice((1, 2, 3))) for _ in range(m))
        system, eps = _memo_system(rng, kind, m), rng.choice(errors)
        ours, fresh, reference = (
            cls(system, values, epsilon=eps) for cls in
            ((AdversarialOracle, AdversarialOracle, _TwoMemoAdversary) if adversarial
             else (ValuationOracle, ValuationOracle, _TwoMemoOracle)))
        base = frozenset(j for j in range(m) if rng.random() < 0.85)
        pool = [base] + [frozenset(j for j in base if rng.random() < 0.7)
                         for _ in range(2)]
        top = {items: fresh.exact_weight(items) + 2 for items in pool}
        plain = {items: fresh.approx_value_subset(items) for items in pool}
        counted = kind == "budget" and eps and not adversarial
        for step in range(12):
            items = rng.choice(pool)
            if history == "plain" or history == "random" and rng.random() < 0.3:
                goal = None
            elif history == "falling":
                goal = max(1, -(-top[items] * (11 - step) // 11))
            elif history == "rising":
                goal = max(1, top[items] * step // 11)
            else:
                goal = rng.randint(1, top[items])
            before = len(runs)
            answer = ours.approx_value_subset(items, goal)
            ours_ran = len(runs) - before
            expected = reference.approx_value_subset(items, goal)
            assert not counted or len(runs) - before == 2 * ours_ran
            assert (answer.items, answer.value, answer.witness) == \
                (expected.items, expected.value, expected.witness), \
                (system, eps, adversarial, history, items, goal)
            reached_early += answer != plain[items]
    assert reached_early >= 40, reached_early


# An oracle of every kind: free, explicit, exact and FPTAS budget, exact
# conflict, interval at error 1/2, and the adversary on an explicit family.
_WEIGHT_SETTINGS = (
    ("free", F(0), False), ("explicit", F(0), False), ("budget", F(0), False),
    ("budget", F(1, 3), False), ("conflict", F(0), False),
    ("interval", F(1, 2), False), ("explicit", F(1, 3), True))


def _carries_its_weight(oracle, bundle):
    assert bundle.weight == oracle.additive_weight(bundle.items), \
        (oracle.system, bundle)
    assert bundle.scale == oracle.scale
    assert bundle.value == F(bundle.weight, oracle.scale)


def test_every_bundle_carries_its_own_weight():
    """Every bundle holds its items' weight on its oracle's scale, and its
    value is that weight over the scale: oracle answers, each asked twice so
    that the memo's copy is checked too, reductions, both bundle makers, and
    what the divider grants through its additive and reported engines."""
    rng = random.Random(2029)
    for trial in range(210):
        kind, eps, adversarial = _WEIGHT_SETTINGS[trial % len(_WEIGHT_SETTINGS)]
        m = rng.randint(1, 9)
        values = tuple(F(rng.randint(0, 9), rng.choice((1, 2, 3))) for _ in range(m))
        oracle = (AdversarialOracle if adversarial else ValuationOracle)(
            _memo_system(rng, kind, m), values, epsilon=eps)
        for _ in range(3):
            query = frozenset(j for j in range(m) if rng.random() < 0.85)
            goal = rng.choice((None, rng.randint(1, oracle.exact_weight(query) + 2)))
            for _ in range(2):  # answered, then from the memo
                _carries_its_weight(oracle, oracle.approx_value_subset(query, goal))
            _carries_its_weight(oracle, oracle.reduce_to_independent(query))
    built = granted = reported = 0
    for seed in range(12):
        inst = gen_random_hereditary(m=rng.randint(5, 8), n=rng.choice((2, 3)),
                                     seed=3000 + seed)
        oracle = oracle_for(inst, 0)
        record = compute_mms_exact(inst, 0, oracle=oracle)
        remaining = frozenset(j for j in range(inst.m) if rng.random() < 0.8)
        bundles = bundles_from_mms_partition(oracle, record, remaining, inst.n, F(0))
        if record.mu:
            bundles += make_bundles_alpha(BundleRequest(
                oracle=oracle, items=inst.all_items(), count=inst.n,
                mu_star=record.mu)) or []
        for bundle in bundles:
            _carries_its_weight(oracle, bundle)
        built += len(bundles)
        entitled = rand_budget_instance(rng)
        for solved, result in ((inst, solve_existence(inst)),
                               (inst, solve_two_fifths(inst)),
                               (entitled, solve_entitled(entitled))):
            oracles = [oracle_for(solved, i) for i in range(solved.n)]
            for run in result.runs:
                for round_record in run.trace:
                    for agent, _, bundle in round_record.grants:
                        _carries_its_weight(oracles[agent], bundle)
                        granted += 1
                        reported += solved is entitled
            for agent, bundle in result.awarded.items():
                _carries_its_weight(oracles[agent], bundle)
    assert built >= 40 and granted >= 200 and reported >= 50, \
        (built, granted, reported)


def test_interval_oracle_contract_on_random_instances():
    rng = random.Random(5)
    for trial in range(120):
        m = rng.randint(1, 8)
        jobs = []
        for _ in range(m):
            p, r = rng.randint(1, 3), rng.randint(1, 5)
            jobs.append((p, r, r + p - 1 + rng.randint(0, 4)))
        system = IntervalSystem(jobs=tuple(jobs))
        values = tuple(F(rng.randint(0, 9)) for _ in range(m))
        oracle = ValuationOracle(system, values, epsilon=F(1, 2))
        bundle = frozenset(j for j in range(m) if rng.random() < 0.9)
        answer = oracle.approx_value_subset(bundle)
        assert answer.items <= bundle
        assert brute_schedulable(jobs, answer.items)
        assert 2 * answer.value >= brute_value(system, values, bundle)


def _reference_local_ratio(system, weights, items):
    """The local-ratio scheduler with its charges applied one by one: each
    push lowers the residual of every placement of its job or overlapping it."""
    placements = sorted((start + p - 1, start, j)
                        for j in items for p, r, d in (system.jobs[j],)
                        for start in range(r, d - p + 2))
    residual = {pl: weights[pl[2]] for pl in placements}
    stack = []
    for pl in placements:
        if residual[pl] <= 0:
            continue
        end, start, job = pl
        stack.append(pl)
        charge = residual[pl]
        for other in placements:
            o_end, o_start, o_job = other
            if o_job == job or (o_start <= end and start <= o_end):
                residual[other] -= charge
    chosen, occupied = {}, []
    for end, start, job in reversed(stack):
        if job not in chosen and not any(start <= o_end and o_start <= end
                                         for o_start, o_end in occupied):
            chosen[job] = start
            occupied.append((start, end))
    return chosen


def test_interval_local_ratio_matches_the_quadratic_charge():
    rng = random.Random(211)
    seen = {"zero weight": 0, "zero slack": 0, "self overlap": 0}
    for trial in range(600):
        m = rng.randint(1, 12)
        jobs = []
        for _ in range(m):
            p, r = rng.randint(1, 4), rng.randint(1, 8)
            jobs.append((p, r, r + p - 1 + rng.choice((0, 0, 1, 2, 3, 6))))
        system = IntervalSystem(jobs=tuple(jobs))
        weights = [rng.choice((0, 0, 1, 2, 3, 5, 8)) for _ in range(m)]
        items = sorted(rng.sample(range(m), rng.randint(1, m)))
        seen["zero weight"] += any(weights[j] == 0 for j in items)
        seen["zero slack"] += any(jobs[j][2] == jobs[j][1] + jobs[j][0] - 1
                                  for j in items)
        seen["self overlap"] += any(1 <= d - r - p + 1 < p
                                    for p, r, d in (jobs[j] for j in items))
        got = mmsalloc.valuation._interval_local_ratio(system, weights, items)
        assert got == _reference_local_ratio(system, weights, items), trial
    assert min(seen.values()) >= 100, seen


def test_conflict_exact_matches_brute_force():
    rng = random.Random(12)
    for trial in range(90):
        m = rng.randint(1, 10) if trial < 80 else rng.randint(11, 16)
        system = ConflictSystem.normalize(
            (a, b) for a in range(m) for b in range(a + 1, m)
            if rng.random() < 0.4)
        values = tuple(F(rng.randint(0, 9), rng.choice((1, 2))) for _ in range(m))
        oracle = ValuationOracle(system, values)
        bundle = frozenset(j for j in range(m) if rng.random() < 0.85)
        assert oracle.exact_value(bundle) == brute_value(system, values, bundle)


def test_budget_exact_matches_brute_force():
    rng = random.Random(17)
    for trial in range(360):
        m = rng.randint(1, 10)
        den = 1 if trial % 2 == 0 else rng.choice((2, 3, 4, 6))
        sizes = tuple(F(rng.randint(0, 9), rng.choice((1, den)))
                      for _ in range(m))
        budget = F(0) if trial % 9 == 0 else \
            F(rng.randint(0, 20), rng.choice((1, den)))
        system = BudgetSystem(sizes=sizes, budget=budget)
        values = tuple(F(rng.randint(0, 9), rng.choice((1, 2)))
                       for _ in range(m))
        oracle = ValuationOracle(system, values)
        bundle = frozenset(j for j in range(m) if rng.random() < 0.85)
        assert oracle.exact_value(bundle) == \
            brute_value(system, values, bundle), trial



def _capacity_dp_value(values, sizes, budget):
    """Textbook 0/1 knapsack: best value per integer capacity."""
    best = [0] * (budget + 1)
    for value, size in zip(values, sizes):
        for room in range(budget, size - 1, -1):
            best[room] = max(best[room], best[room - size] + value)
    return best[budget]


def test_budget_exact_on_correlated_knapsacks_at_the_gate():
    """Strongly correlated knapsacks (value = size + 1, even sizes, odd
    budget) at the 25-item gate defeat bounding; the exact DP must not."""
    rng = random.Random(25)
    spent = 0.0
    for trial in range(20):
        sizes = [2 * rng.randint(50, 500) for _ in range(25)]
        values = [size + 1 for size in sizes]
        budget = sum(sizes) // 2 | 1
        oracle = ValuationOracle(
            BudgetSystem(sizes=tuple(map(F, sizes)), budget=F(budget)),
            tuple(map(F, values)))
        started = time.perf_counter()
        value = oracle.exact_value(range(25))
        spent += time.perf_counter() - started
        assert value == _capacity_dp_value(values, sizes, budget), trial
    assert spent < 10, spent

def test_adversarial_wrapper_sits_on_the_contract_boundary():
    rng = random.Random(31)
    for trial in range(60):
        m = rng.randint(1, 8)
        system = ExplicitSystem.normalize(
            frozenset(j for j in range(m) if rng.random() < 0.6)
            for _ in range(rng.randint(1, 4)))
        values = tuple(F(rng.randint(0, 9)) for _ in range(m))
        eps = rng.choice((F(1, 3), F(1, 4)))
        adversary = AdversarialOracle(system, values, epsilon=eps)
        bundle = frozenset(j for j in range(m) if rng.random() < 0.8)
        truth = brute_value(system, values, bundle)
        answer = adversary.approx_value_subset(bundle)
        assert answer.items <= bundle
        assert brute_member(system, answer.items)
        assert answer.value >= (1 - eps) * truth
        # No contract-respecting independent subset is worth less.
        import itertools as it
        for r in range(len(bundle) + 1):
            for comb in it.combinations(sorted(bundle), r):
                value = sum((values[j] for j in comb), F(0))
                if brute_member(system, comb) and value >= (1 - eps) * truth:
                    assert answer.value <= value


def test_placement_cap_trips_before_placements_are_built():
    # Three jobs due in slot 1 make the bundle dependent, so the scheduler
    # runs; the fourth job alone has two million placements.
    system = IntervalSystem(jobs=((1, 1, 1),) * 3 + ((1, 1, 2_000_000),))
    oracle = ValuationOracle(system, (F(3), F(3), F(1), F(1)), epsilon=F(1, 2))
    tracemalloc.start()
    try:
        with pytest.raises(ExactnessGateExceeded,
                           match="2000003 interval placements exceed"):
            oracle.approx_value_subset(range(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak


def test_interval_exact_questions_keep_the_gate():
    system = IntervalSystem(jobs=((1, 1, 100),) * 17)
    oracle = ValuationOracle(system, (F(1),) * 17, epsilon=F(1, 2))
    for question in (oracle.is_independent, oracle.exact_value,
                     oracle.schedule_witness):
        with pytest.raises(ExactnessGateExceeded,
                           match="interval bundle of size 17 exceeds"):
            question(range(17))
    # The subset query above error 0 schedules the same bundle instead.
    answer = oracle.approx_value_subset(range(17))
    assert answer.items == frozenset(range(17))
    assert _schedule_is_valid(system, answer.items, answer.witness)


def test_schedule_witness_is_a_real_schedule():
    system = IntervalSystem(jobs=((2, 1, 4), (1, 2, 3), (1, 1, 5)))
    oracle = ValuationOracle(system, (F(1), F(1), F(1)))
    starts = oracle.schedule_witness(frozenset({0, 1, 2}))
    assert set(starts) == {0, 1, 2}
    spans = sorted((s, s + system.jobs[j][0] - 1, j) for j, s in starts.items())
    for (s, e, j) in spans:
        p, r, d = system.jobs[j]
        assert r <= s and e <= d
    assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))


def test_interval_exact_matches_brute_force():
    rng = random.Random(61)
    fits_seen = set()
    for trial in range(320):
        m = rng.randint(1, 8)
        jobs = []
        for _ in range(m):
            p, r = rng.randint(1, 3), rng.randint(1, 6)
            jobs.append((p, r, r + p - 1 + rng.randint(0, 4)))
        system = IntervalSystem(jobs=tuple(jobs))
        values = tuple(F(rng.randint(0, 9), rng.choice((1, 2)))
                       for _ in range(m))
        oracle = ValuationOracle(system, values)
        bundle = frozenset(j for j in range(m) if rng.random() < 0.85)
        assert oracle.exact_value(bundle) == \
            brute_value(system, values, bundle), trial
        fits = brute_schedulable(jobs, bundle)
        fits_seen.add(fits)
        assert oracle.is_independent(bundle) == fits, trial
        if fits:
            witness = oracle.schedule_witness(bundle)
            assert _schedule_is_valid(system, bundle, witness), trial
        else:
            with pytest.raises(ValueError):
                oracle.schedule_witness(bundle)
    assert fits_seen == {True, False}


def _list_schedule(jobs):
    """Jackson's list schedule by a scan of the pending jobs: when free, run
    the released job due first, ties to the earlier release, then the earlier
    position.  Its starts in the order of ``jobs``, or None at a miss."""
    pending = sorted((r, t, d, p) for t, (p, r, d) in enumerate(jobs))
    starts = [0] * len(jobs)
    finish = 0
    while pending:
        start = max(finish + 1, pending[0][0])
        job = min((job for job in pending if job[0] <= start),
                  key=lambda job: job[2])
        pending.remove(job)
        starts[job[1]] = start
        finish = start + job[3] - 1
        if finish > job[2]:
            return None
    return starts


def test_interval_independence_matches_the_subset_table():
    """The schedule exists exactly when the subset table fits the full mask;
    the heap list schedule starts what the scan starts; the preemptive check
    holds on every set that fits and refuses many that do not."""
    rng = random.Random(85)
    corpus = [
        # The earliest-deadline schedule starts the long job at slot 1 and
        # misses the short one; idling for one slot fits all three.
        [(3, 1, 10), (1, 2, 2), (1, 6, 20)],
        [(4, 1, 12), (2, 3, 4), (1, 8, 9), (1, 2, 12)],
        [(1, 1, 100)] * 16,
        [(1, 1, 15)] * 16,
    ]
    for trial in range(300):
        k = rng.randint(12, 16) if trial >= 290 else rng.randint(3, 11)
        spread = 1 + trial % 2
        jobs = []
        for _ in range(k):
            p, r = rng.randint(1, 4), rng.randint(1, 3 * k)
            jobs.append((p, r, r + p - 1 + rng.randint(0, spread * k)))
        corpus.append(jobs)
    crowded = random.Random(2029)  # short horizon, tied releases and deadlines
    for _ in range(800):
        k, jobs = crowded.randint(3, 10), []
        for _ in range(k):
            p, r = crowded.randint(1, 3), crowded.randint(1, 2 * k)
            jobs.append((p, r, r + p - 1 + crowded.randint(0, 3)))
        corpus.append(jobs)
    wide, first_wide = random.Random(5), len(corpus)
    while len(corpus) < first_wide + 60:  # windows up to 30 slots past the job
        k, jobs = wide.randint(8, 13), []
        for _ in range(k):
            p, r = wide.randint(1, 4), wide.randint(1, 2 * k)
            jobs.append((p, r, r + p - 1 + wide.randint(0, 30)))
        if _list_schedule(jobs) is None:  # only where the search decides
            corpus.append(jobs)
    answers, refused = [], 0
    for jobs in corpus:
        system = IntervalSystem(jobs=tuple(jobs))
        oracle = ValuationOracle(system, tuple(F(1) for _ in jobs))
        items = range(len(jobs))
        table = mmsalloc.valuation._interval_table(system, items)[-1]
        answer = oracle.is_independent(items)
        assert answer == (table is not None), jobs
        starts = mmsalloc.valuation._interval_schedule(jobs)
        assert (starts is not None) == answer, jobs
        assert starts is None or _schedule_is_valid(
            system, frozenset(items), dict(zip(items, starts))), jobs
        listed = _list_schedule(jobs)
        assert mmsalloc.valuation._interval_schedule(jobs, search=False) \
            == listed, jobs
        assert listed is None or starts == listed, jobs
        preemptive = mmsalloc.valuation._preemptive_fits(jobs)
        if answer:
            assert preemptive, jobs
            witness = oracle.schedule_witness(items)
            assert _schedule_is_valid(system, frozenset(items), witness), jobs
        refused += not preemptive
        answers.append((answer, listed is not None))
    assert answers[:4] == [(True, False), (True, False),
                           (True, True), (False, False)]
    tally = {kind: answers.count(kind) for kind in set(answers)}
    assert tally[True, True] >= 40 and tally[False, False] >= 40, tally
    assert tally[True, False] >= 10, tally
    assert (False, True) not in tally
    assert refused >= 400, refused
    wide_fits = sum(answer for answer, _ in answers[first_wide:])
    assert 20 <= wide_fits <= 50, wide_fits


def test_interval_search_schedules_a_long_chain_on_its_own_stack():
    """Six hundred blocks of a long job and a unit job pinned inside its
    window: the list schedule misses at the first block, so the search holds
    a prefix 1,200 jobs long, deeper than Python's recursion limit."""
    jobs = [job for b in range(600)
            for job in ((3, 20 * b + 1, 20 * b + 10), (1, 20 * b + 2, 20 * b + 2))]
    assert _list_schedule(jobs) is None
    starts = mmsalloc.valuation._interval_schedule(jobs)
    system = IntervalSystem(jobs=tuple(jobs))
    assert _schedule_is_valid(system, frozenset(range(len(jobs))),
                              dict(enumerate(starts)))


def test_schedule_check_refuses_missing_jobs_windows_and_overlaps():
    system = IntervalSystem(jobs=((2, 1, 4), (1, 2, 3)))
    items = frozenset({0, 1})
    assert _schedule_is_valid(system, items, {0: 1, 1: 3})
    assert not _schedule_is_valid(system, items, {0: 1})  # job 2 has no start
    assert not _schedule_is_valid(system, items, {0: 4, 1: 2})  # job 1 ends at 5
    assert not _schedule_is_valid(system, items, {0: 1, 1: 2})  # both run at 2


def test_bundle_inequality_negates_equality_whatever_the_scale_or_witness():
    """Bundles are equal when their items and values are: the same value on
    two scales is equal, a witness alone makes no difference, and != is
    always the negation of ==."""
    items = frozenset({0, 2})
    equal = [(IndependentBundle(items, 3, 2), IndependentBundle(items, 6, 4)),
             (IndependentBundle(items, 3, 2), IndependentBundle(items, 3, 2, {0: 1, 2: 3})),
             (IndependentBundle(items, 0, 1, {0: 1}), IndependentBundle(items, 0, 5))]
    unequal = [(IndependentBundle(items, 3, 2), IndependentBundle(items, 4, 2)),
               (IndependentBundle(items, 3, 2), IndependentBundle(frozenset({0}), 3, 2)),
               (IndependentBundle(items, 3, 2), (items, 3, 2, None))]
    for (a, b), alike in [*((pair, True) for pair in equal),
                          *((pair, False) for pair in unequal)]:
        for x, y in ((a, b), (b, a)):
            assert (x == y) is alike and (x != y) is (not alike)
        if alike:
            assert hash(a) == hash(b)
    bundle = IndependentBundle(items, 6, 4)
    assert bundle.value == F(3, 2) and bundle.value == bundle.value
