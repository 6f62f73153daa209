"""Solver modes: guarantees, preprocessing, estimate bookkeeping, determinism."""

from __future__ import annotations

import math
import random
import types
from fractions import Fraction

import pytest

import mmsalloc.driver
from mmsalloc.adapters import solve_budget_adapter, solve_intervals_adapter
from mmsalloc.bundles import TWO_FIFTHS, BundleRequest, make_bundles_alpha
from mmsalloc.core import (
    BudgetSystem,
    EntitledSpec,
    EpsilonOutOfRange,
    ExplicitSystem,
    FreeSystem,
    Instance,
    IntervalSystem,
    UnsupportedSystem,
    validate_instance,
)
from mmsalloc.driver import (
    _shrink_rule,
    alpha_for_error,
    solve_alpha,
    solve_entitled,
    solve_existence,
    solve_two_fifths,
)
from mmsalloc.generators import (
    gen_asymmetric_half,
    gen_random_hereditary,
    gen_two_thirds_bound,
)
from mmsalloc.mms_oracle import compute_mms_exact, mms_bounds, verify_allocation
from mmsalloc.valuation import ValuationOracle, oracle_for

from conftest import (
    AdversarialOracle,
    brute_member,
    rand_budget_instance,
    rand_conflict_instance,
    rand_interval_instance,
    rand_values,
    schedule_fits,
)

F = Fraction


def test_alpha_formula_landmarks():
    assert alpha_for_error(F(0)) == F(2, 5)
    assert alpha_for_error(F(1, 2)) == F(2, 7)
    assert alpha_for_error(F(1, 3)) == F(1, 3)


def _reference_factor(k: int, epsilon: Fraction | None) -> Fraction:
    """The shrink factor as the theorems state it: k/(k+1) in the 2/5
    modes (no error given), else one over one plus the alpha mode's
    overshoot (3 - 3eps) / (5k - 3k eps + 3eps + 3)."""
    if epsilon is None:
        return F(k, k + 1)
    return 1 / (1 + (3 - 3 * epsilon) / (5 * k - 3 * k * epsilon
                                         + 3 * epsilon + 3))


def test_the_integer_rule_is_the_rational_rule():
    """alpha_for_error and each shrink factor equal the rational formulas,
    and each cap is bit for bit the float that the formula's Fraction form
    gives: (6/5)(k+1) ln m at 2/5, else (1/(1-eps))(5k+3) ln m."""
    for k in range(2, 61):
        for epsilon in (F(0), F(1, 100), F(1, 3), F(2, 7), F(1, 2), F(9, 10),
                        F(99, 100), F(1, k + 1)):
            a, b = epsilon.numerator, epsilon.denominator
            alpha = alpha_for_error(epsilon)
            assert type(alpha) is F
            assert alpha == (1 - epsilon) / (1 + F(3, 2) * (1 - epsilon))
            for m in (2, 3, 24, 300, 2000):
                fn, fd, cap = _shrink_rule(False, a, b, k, m)
                assert F(fn, fd) == _reference_factor(k, epsilon)
                assert cap == float(1 / (1 - epsilon)) * (5 * k + 3) * math.log(m)
                fn, fd, cap = _shrink_rule(True, a, b, k, m)
                assert F(fn, fd) == _reference_factor(k, None)
                assert cap == F(6, 5) * (k + 1) * math.log(m)


@pytest.mark.parametrize("make, solve, epsilon", [
    (lambda seed: gen_random_hereditary(m=12, n=3, seed=seed), solve_two_fifths,
     None),
    (lambda seed: gen_random_hereditary(m=12, n=3, seed=seed),
     lambda inst: solve_alpha(inst, F(1, 2)), F(1, 2)),
    (lambda seed: gen_random_hereditary(m=12, n=3, seed=seed),
     lambda inst: solve_alpha(inst, F(1, 3)), F(1, 3)),
    (lambda seed: _budgets_at_scale(m=12, n=3, seed=seed), solve_entitled, None),
], ids=["two-fifths", "alpha-half", "alpha-third", "entitled-budgets"])
def test_settled_estimates_and_thresholds_follow_the_rational_rule(
        make, solve, epsilon):
    """Each settled estimate is m times the agent's k-th best singleton
    value times the factor to the power of her adjustments, and each
    threshold is alpha times it, both Fractions."""
    shrunk = 0
    for seed in range(1, 21):
        inst = make(seed)
        result = solve(inst)
        k = len(result.active_agents)
        factor = _reference_factor(k, epsilon)
        for i, estimate in result.estimates.items():
            oracle = oracle_for(inst, i)
            start = F(inst.m * sorted(oracle.singleton_weights)[-k], oracle.scale)
            assert type(estimate) is F and type(result.thresholds[i]) is F
            assert estimate == start * factor ** result.adjustments[i], (seed, i)
            assert result.thresholds[i] == result.alpha * estimate, (seed, i)
            shrunk += result.adjustments[i] > 0
    assert shrunk >= 10, shrunk


def test_results_share_no_records():
    """Each result holds its own records: filling one leaves the others."""
    inst = gen_two_thirds_bound(2)
    first, second = solve_two_fifths(inst), solve_two_fifths(inst)
    existence = solve_existence(inst)
    first.records[0] = existence.records[0]
    assert second.records == {} and solve_two_fifths(inst).records == {}
    assert sorted(existence.records) == [0, 1]


def test_existence_on_gadget_reaches_two_thirds():
    inst = gen_two_thirds_bound(2)
    result = solve_existence(inst)
    report = verify_allocation(inst, result.allocation, F(2, 3))
    assert report.ok


def test_existence_single_agent_ratio_one():
    inst = gen_random_hereditary(m=6, n=1, seed=21)
    result = solve_existence(inst)
    assert verify_allocation(inst, result.allocation, F(1)).ok


def test_existence_on_random_triples():
    rng = random.Random(31)
    for seed in range(30):
        inst = gen_random_hereditary(m=rng.randint(3, 9), n=3,
                                     family_density=rng.uniform(0.3, 1),
                                     seed=3000 + seed)
        result = solve_existence(inst)
        assert verify_allocation(inst, result.allocation, F(3, 5)).ok


def test_two_fifths_on_gadget():
    inst = gen_two_thirds_bound(2)
    result = solve_two_fifths(inst)
    assert verify_allocation(inst, result.allocation, F(2, 5)).ok
    # Binary values make anything above 2/5 of 3 at least 2.
    assert all(oracle_for(inst, i).exact_value(result.allocation.bundles[i]) >= 2
               for i in range(2))


def test_two_fifths_all_zero_values_vacuous():
    inst = validate_instance(Instance(
        n=2, m=3, values=((F(0),) * 3, (F(0),) * 3), system=FreeSystem()))
    result = solve_two_fifths(inst)
    assert result.active_agents == ()
    assert verify_allocation(inst, result.allocation, F(2, 5)).ok


def test_zero_mms_agents_are_dropped_not_served():
    # Second agent only values one item, so her 2-partition MMS is 0.
    inst = validate_instance(Instance(
        n=2, m=4,
        values=((F(1), F(1), F(1), F(1)), (F(0), F(0), F(5), F(0))),
        system=FreeSystem()))
    result = solve_two_fifths(inst)
    assert result.active_agents == (0,)
    assert verify_allocation(inst, result.allocation, F(2, 5)).ok


def test_a_value_on_an_item_outside_every_maximal_set_counts_for_nothing():
    # Agent 1's second positive value sits on item 3, which no maximal set
    # holds, so fewer than n = 2 of her singletons are worth something.
    inst = validate_instance(Instance(
        n=2, m=3, values=((F(1), F(0), F(5)), (F(1), F(1), F(1))),
        system=ExplicitSystem(maximal_sets=(frozenset({0, 1}),))))
    result = solve_two_fifths(inst)
    assert result.active_agents == (1,)
    assert result.allocation.bundles == (frozenset(), frozenset({0, 1}))


def test_existence_with_no_agents_allocates_nothing():
    inst = validate_instance(Instance(n=0, m=2, values=(), system=FreeSystem()))
    result = solve_existence(inst)
    assert result.allocation.bundles == () and result.runs == ()


def test_estimate_soundness_and_adjustment_bounds():
    rng = random.Random(37)
    for seed in range(40):
        n = rng.choice((2, 3))
        inst = gen_random_hereditary(m=rng.randint(4, 9), n=n,
                                     family_density=rng.uniform(0.3, 1),
                                     seed=3700 + seed)
        result = solve_two_fifths(inst)
        k = len(result.active_agents)
        for agent in result.estimates:  # empty for the one-agent shortcut
            mu = compute_mms_exact(inst, agent).mu
            assert result.estimates[agent] >= mu
            bound = F(6, 5) * (k + 1) * math.log(inst.m)
            assert result.adjustments[agent] < bound


def test_pre_pass_shrinks_check_the_adjustment_cap(monkeypatch):
    # Three agents valuing six free items alike start at estimate 6, and
    # k * alpha * 6 = 36/5 exceeds the singleton sum 6, so agent 1 shrinks
    # in the pre-pass before any divider run.  With ln m read as 0.0 the cap
    # is 0.0 and trips right there; a float, since an int 0 would make the
    # cap a Fraction, which the message's float format cannot print.
    inst = validate_instance(Instance(
        n=3, m=6, values=((F(1),) * 6,) * 3, system=FreeSystem()))
    assert 3 * TWO_FIFTHS * inst.m > sum(inst.values[0])

    def divide(*args):
        pytest.fail("a divider ran before the pre-pass shrank")

    monkeypatch.setattr(mmsalloc.driver, "lone_divider", divide)
    monkeypatch.setattr(mmsalloc.driver, "math",
                        types.SimpleNamespace(log=lambda m: 0.0))
    with pytest.raises(AssertionError, match="agent 1 exceeded"):
        solve_two_fifths(inst)


def test_a_pre_pass_with_no_shrink_checks_no_cap(monkeypatch):
    # Two agents valuing two free items at 1 start at estimate 2, below the
    # ceiling 2 / (2 * 2/5) = 5/2, and each singleton reaches the threshold
    # 4/5: the pre-pass shrinks no one, so even a cap of 0.0 never trips.
    inst = validate_instance(Instance(
        n=2, m=2, values=((F(1), F(1)),) * 2, system=FreeSystem()))
    monkeypatch.setattr(mmsalloc.driver, "math",
                        types.SimpleNamespace(log=lambda m: 0.0))
    result = solve_two_fifths(inst)
    assert result.adjustments == {0: 0, 1: 0}
    assert len(result.runs) == 1


def test_an_estimate_at_the_singleton_ceiling_stays():
    # Two agents valuing five free items at (3, 3, 1, 1, 0) start at 5 * 3 =
    # 15 against the ceiling 8 / (2 * 2/5) = 10.  One shrink by 2/3 lands on
    # the ceiling exactly, which no longer exceeds it, and bundles {3, 1}
    # twice reach the threshold 4 there.
    row = (F(3), F(3), F(1), F(1), F(0))
    inst = validate_instance(Instance(n=2, m=5, values=(row, row),
                                      system=FreeSystem()))
    result = solve_two_fifths(inst)
    assert result.estimates == {0: 10, 1: 10}
    assert result.adjustments == {0: 1, 1: 1}
    assert len(result.runs) == 1


def test_final_estimates_pass_round_one_on_all_items():
    rng = random.Random(43)
    for seed in range(12):
        inst = gen_random_hereditary(m=rng.randint(12, 24),
                                     n=rng.choice((3, 4, 5)),
                                     family_density=rng.uniform(0.4, 1),
                                     seed=4300 + seed)
        result = solve_two_fifths(inst)
        k = len(result.active_agents)
        for agent, estimate in result.estimates.items():
            bundles = make_bundles_alpha(BundleRequest(
                oracle=oracle_for(inst, agent, epsilon=F(1, k + 1)),
                items=inst.all_items(), count=k, mu_star=estimate))
            assert bundles is not None and len(bundles) == k, (seed, agent)


def _budgets_at_scale(m: int, n: int, shared: bool = False,
                      seed: int = 1) -> Instance:
    """Budgets as the benchmark draws them: sizes 1-9, budgets 10-40.  They
    are nested, or with ``shared`` the first is every agent's."""
    rng = random.Random(seed)
    sizes = tuple(F(rng.randint(1, 9)) for _ in range(m))
    budgets = [F(rng.randint(10, 40)) for _ in range(n)]
    values = tuple(tuple(F(rng.randint(0, 6), rng.choice((1, 1, 2, 3)))
                         for _ in range(m)) for _ in range(n))
    system = BudgetSystem(sizes=sizes, budget=budgets[0]) if shared else \
        EntitledSpec(
            systems=tuple(BudgetSystem(sizes=sizes, budget=b) for b in budgets),
            ordering=tuple(sorted(range(n), key=lambda i: (budgets[i], i))))
    return validate_instance(Instance(n=n, m=m, values=values, system=system))


def _two_fifths_cap(k: int, m: int) -> float:
    return F(6, 5) * (k + 1) * math.log(m)


def _alpha_half_cap(k: int, m: int) -> float:
    # Error 1/2 makes delta = 1/(1 - 1/2) = 2 in the alpha mode's cap.
    return 2 * (5 * k + 3) * math.log(m)


@pytest.mark.parametrize("make, solve, cap", [
    (lambda: gen_random_hereditary(m=300, n=20, family_density=1, seed=1),
     solve_two_fifths, _two_fifths_cap),
    # Density 0.6 gives many maximal sets, so each explicit subset query
    # walks the item-to-sets incidence.
    (lambda: gen_random_hereditary(m=300, n=20, family_density=0.6, seed=1),
     solve_two_fifths, _two_fifths_cap),
    (lambda: gen_random_hereditary(m=300, n=20, family_density=0.6, seed=1),
     lambda inst: solve_alpha(inst, F(1, 2)), _alpha_half_cap),
    (lambda: gen_random_hereditary(m=600, n=30, family_density=0.6, seed=1),
     solve_two_fifths, _two_fifths_cap),
    (lambda: _budgets_at_scale(m=200, n=10),
     lambda inst: solve_budget_adapter(inst).result, _two_fifths_cap),
    # Error 1/2 answers every carving query by the knapsack FPTAS.
    (lambda: _budgets_at_scale(m=200, n=10, shared=True),
     lambda inst: solve_alpha(inst, F(1, 2)), _alpha_half_cap),
], ids=["explicit-m300-n20", "explicit-sparse-m300-n20",
        "explicit-sparse-alpha-m300-n20", "explicit-sparse-m600-n30",
        "budget-m200-n10", "shared-budget-alpha-m200-n10"])
def test_polynomial_solves_at_scale_make_one_divider_run(make, solve, cap):
    inst = make()
    result = solve(inst)
    k = len(result.active_agents)
    assert k > 1
    claimed = [j for bundle in result.allocation.bundles for j in bundle]
    assert len(claimed) == len(set(claimed))
    for i in result.active_agents:
        bundle = result.allocation.bundles[i]
        assert brute_member(inst.system_for(i), bundle), i
        assert sum((inst.values[i][j] for j in bundle), F(0)) \
            >= result.thresholds[i], i
        assert result.adjustments[i] < cap(k, inst.m)
        # A round-one shrink needs alpha * e above the k-th best singleton
        # (else k singletons serve), so no estimate drops below the n-th.
        assert result.estimates[i] >= mms_bounds(inst, i).lower, i
    assert len(result.runs) == 1


def _nested_explicit_at_scale(m: int, n: int) -> Instance:
    """The explicit benchmark family cut, for each agent, to an item prefix
    of seeded length m/2 to m; the ordering follows the cuts, so the
    families grow along it and agent 1 need not be the most restrictive."""
    base = gen_random_hereditary(m=m, n=n, family_density=0.6, seed=1)
    rng = random.Random(1)
    cuts = [rng.randint(m // 2, m) for _ in range(n)]
    systems = tuple(ExplicitSystem.normalize(
        [s & frozenset(range(cut)) for s in base.system.maximal_sets])
        for cut in cuts)
    return validate_instance(Instance(
        n=n, m=m, values=base.values,
        system=EntitledSpec(systems=systems, ordering=tuple(
            sorted(range(n), key=lambda i: (cuts[i], i))))))


@pytest.mark.parametrize("m, n", [(100, 10), (300, 20)])
def test_entitled_solves_nested_explicit_families_at_scale(m, n):
    # A divider who fails in a later round shrinks and the divider runs
    # again, so this asserts the outcome and not a single run.
    inst = _nested_explicit_at_scale(m, n)
    result = solve_entitled(inst)
    k = len(result.active_agents)
    assert k > 1 and result.runs[-1].succeeded
    claimed = [j for bundle in result.allocation.bundles for j in bundle]
    assert len(claimed) == len(set(claimed))
    for i in result.active_agents:
        bundle = result.allocation.bundles[i]
        assert brute_member(inst.system_for(i), bundle), i
        assert sum((inst.values[i][j] for j in bundle), F(0)) \
            >= result.thresholds[i], i
        assert result.adjustments[i] < _two_fifths_cap(k, m)


def _intervals_at_scale(m: int, n: int, seed: int = 1) -> Instance:
    """Jobs as the benchmark draws them: processing 1-3, release 1-2m,
    slack 0-6."""
    rng = random.Random(seed)
    jobs = []
    for _ in range(m):
        p, r = rng.randint(1, 3), rng.randint(1, 2 * m)
        jobs.append((p, r, r + p - 1 + rng.randint(0, 6)))
    values = tuple(tuple(F(rng.randint(0, 6), rng.choice((1, 1, 2, 3)))
                         for _ in range(m)) for _ in range(n))
    return validate_instance(Instance(n=n, m=m, values=values,
                                      system=IntervalSystem(jobs=tuple(jobs))))


@pytest.mark.parametrize("m, n", [(20, 3), (30, 3), (60, 4), (200, 8), (400, 8)])
def test_interval_adapter_at_scale_makes_one_divider_run(m, n):
    inst = _intervals_at_scale(m, n)
    report = solve_intervals_adapter(inst)
    result = report.result
    k = len(result.active_agents)
    assert k > 1
    claimed = [j for bundle in report.allocation.bundles for j in bundle]
    assert len(claimed) == len(set(claimed))
    for i in range(inst.n):
        bundle = report.allocation.bundles[i]
        assert schedule_fits(inst.system.jobs, bundle, report.schedules[i]), i
    # Error 1/2 makes delta = 1/(1 - 1/2) = 2 in the alpha mode's cap.
    for i in result.active_agents:
        bundle = report.allocation.bundles[i]
        assert sum((inst.values[i][j] for j in bundle), F(0)) \
            >= result.thresholds[i], i
        assert result.adjustments[i] < 2 * (5 * k + 3) * math.log(inst.m)
        assert result.estimates[i] >= mms_bounds(inst, i).lower, i
    assert len(result.runs) == 1


def _record_bundle_requests(monkeypatch):
    """Spy on the bundle maker and the divider engines.  ``built`` lists each
    make_bundles_alpha call's (oracle, items, count, mu_star) and answer;
    ``runs`` lists, per divider run, the index into ``built`` at its start
    and each (agent, items, count) request of the run with its answer."""
    built, runs = [], []
    build = mmsalloc.driver.make_bundles_alpha

    def building(request):
        answer = build(request)
        built.append((request[:4], answer))
        return answer

    monkeypatch.setattr(mmsalloc.driver, "make_bundles_alpha", building)
    for name in ("lone_divider", "lone_divider_entitled"):
        def running(instance, thresholds, maker, oracles,
                    engine=getattr(mmsalloc.driver, name)):
            asked = []
            runs.append((len(built), asked))

            def asking(*request):
                answer = maker(*request)
                asked.append((request, answer))
                return answer
            return engine(instance, thresholds, asking, oracles)
        monkeypatch.setattr(mmsalloc.driver, name, running)
    return built, runs


@pytest.mark.parametrize("make, solve", [
    (lambda seed: gen_random_hereditary(m=24, n=5, family_density=0.6, seed=seed),
     solve_two_fifths),
    (lambda seed: _budgets_at_scale(m=16, n=4, seed=seed),
     lambda inst: solve_budget_adapter(inst).result),
    (lambda seed: _intervals_at_scale(m=10 + 2 * (seed % 3), n=3, seed=seed),
     lambda inst: solve_intervals_adapter(inst).result),
], ids=["explicit-m24-n5", "budget-m16-n4", "interval-m10-14"])
def test_the_first_divider_request_takes_the_pre_pass_bundles(monkeypatch,
                                                              make, solve):
    """The first request of the first run takes the first agent's last
    pre-pass answer.  No request for k bundles from all items is built twice
    for one agent at one estimate: a divider swapped in during round one and
    a later run take the bundles built at that estimate before.  A solve of
    one run builds no request twice."""
    built, runs = _record_bundle_requests(monkeypatch)
    swapped = rerun = 0
    for seed in (*range(1, 31), 51):  # explicit seed 51 makes two runs
        built.clear()
        runs.clear()
        inst = make(seed)
        result = solve(inst)
        k = len(result.active_agents)
        start, asked = runs[0]
        oracle = built[0][0][0]  # the pre-pass starts with the first agent
        kept = [answer for request, answer in built[:start]
                if request[0] is oracle][-1]
        (request, answer), round_one = asked[0], result.runs[0].trace[0]
        assert request == (result.active_agents[0], inst.all_items(), k)
        assert kept is not None and answer is kept, seed
        if not round_one.swaps:
            assert round_one.bundles == tuple(b.items for b in kept), seed
        requests = [request for request, _ in built]
        whole = [request for request in requests
                 if request[1] == inst.all_items() and request[2] == k]
        assert len(whole) == len(set(whole)), seed
        if len(result.runs) == 1:
            assert len(requests) == len(set(requests)), seed
        swapped += bool(round_one.swaps)
        rerun += len(result.runs) > 1
    assert swapped or not inst.is_entitled, swapped
    assert rerun or isinstance(inst.system, IntervalSystem), rerun


@pytest.mark.parametrize("solve", [solve_two_fifths, solve_entitled])
def test_polynomial_solve_builds_one_oracle_per_active_agent(monkeypatch, solve):
    # Agent 3 values nothing, so k = 2 of n = 3 agents are active; the
    # singletons are ranked on the instance's weights, not by probe oracles.
    values = ((F(3), F(2), F(2), F(1), F(1), F(1)),
              (F(1), F(2), F(3), F(1), F(2), F(1, 2)),
              (F(0),) * 6)
    inst = validate_instance(Instance(n=3, m=6, values=values,
                                      system=FreeSystem()))
    built = []
    init = ValuationOracle.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ValuationOracle, "__init__", counting_init)
    assert solve(inst).active_agents == (0, 1)
    assert len(built) == 2

    # With a factory, it alone builds the oracles, once per active agent.
    def refuse(*args, **kwargs):
        raise AssertionError("oracle_for called beside the factory")

    asked = []

    def factory(instance, agent, epsilon):
        asked.append(agent)
        return ValuationOracle(instance.system_for(agent),
                               instance.values[agent], epsilon=epsilon)

    monkeypatch.setattr(mmsalloc.driver, "oracle_for", refuse)
    built.clear()
    assert solve(inst, oracle_factory=factory).active_agents == (0, 1)
    assert sorted(asked) == [0, 1] and len(built) == 2


def test_interval_alpha_asks_no_gated_question():
    # Every oracle of the solve has the gate at 2 jobs, so any exact
    # independence test, exact value or gated schedule on a larger bundle
    # would raise; pairs and singletons stay within it.
    inst = _intervals_at_scale(m=60, n=4)

    def gated(instance, agent, epsilon):
        return oracle_for(instance, agent, epsilon=epsilon, gate=2)

    result = solve_alpha(inst, F(1, 2), oracle_factory=gated)
    assert len(result.active_agents) > 1
    for i, granted in result.awarded.items():
        assert schedule_fits(inst.system.jobs, granted.items, granted.witness)
        assert granted.value >= result.thresholds[i]
    assert any(len(granted.items) > 2 for granted in result.awarded.values())


def test_one_active_interval_agent_takes_a_scheduled_subset_of_every_job():
    # The only active agent's one subset query holds all 30 jobs, past the
    # 16-job gate; the second agent values nothing.
    base = rand_interval_instance(random.Random(89), m=30, n=2)
    inst = validate_instance(Instance(
        n=2, m=30, values=(base.values[0], (F(0),) * 30), system=base.system))
    for solve in (solve_two_fifths, solve_entitled):
        result = solve(inst)
        assert result.active_agents == (0,)
        granted = result.awarded[0]
        assert granted.items == result.allocation.bundles[0]
        assert schedule_fits(inst.system.jobs, granted.items, granted.witness)
        assert granted.value == sum((inst.values[0][j] for j in granted.items),
                                    F(0)) > 0


def test_two_fifths_under_adversarial_oracles():
    def adversarial(instance, agent, epsilon):
        return AdversarialOracle(instance.system_for(agent),
                                 instance.values[agent], epsilon=epsilon)

    rng = random.Random(41)
    for seed in range(25):
        n = rng.choice((2, 3))
        inst = gen_random_hereditary(m=rng.randint(4, 8), n=n,
                                     family_density=rng.uniform(0.4, 1),
                                     seed=4100 + seed)
        result = solve_two_fifths(inst, oracle_factory=adversarial)
        assert verify_allocation(inst, result.allocation, F(2, 5)).ok


def _tight_budgets(seed: int, shared: bool) -> Instance:
    """Budgets 4-14 over sizes 1-5 on ten items, nested in random agent order
    or, with ``shared``, the first agent's budget for all three."""
    rng = random.Random(seed)
    sizes = tuple(F(rng.randint(1, 5)) for _ in range(10))
    budgets = [F(rng.randint(4, 14)) for _ in range(3)]
    system = BudgetSystem(sizes=sizes, budget=budgets[0]) if shared else \
        EntitledSpec(
            systems=tuple(BudgetSystem(sizes=sizes, budget=b) for b in budgets),
            ordering=tuple(sorted(range(3), key=lambda i: (budgets[i], i))))
    return validate_instance(Instance(n=3, m=10, values=rand_values(rng, 3, 10),
                                      system=system))


def test_alpha_zero_is_bundle_for_bundle_identical():
    # Error 0 is the 2/5 mode: its oracles run at 1/(k+1), so an exact
    # budget question is not refused, and nested budgets still divide by
    # swap detection.
    cases = [gen_random_hereditary(m=7, n=2, seed=4300 + seed)
             for seed in range(20)]
    cases += [_tight_budgets(seed, shared) for seed in range(8)
              for shared in (False, True)]
    errors = []

    def recording(instance, agent, epsilon):
        errors.append(epsilon)
        return oracle_for(instance, agent, epsilon)

    swaps = 0
    for inst in cases:
        plain = solve_two_fifths(inst)
        errors.clear()
        alpha = solve_alpha(inst, F(0), oracle_factory=recording)
        assert alpha.mode == "alpha"
        assert alpha.allocation == plain.allocation
        assert alpha.adjustments == plain.adjustments
        assert [r.trace for r in alpha.runs] == [r.trace for r in plain.runs]
        k = len(alpha.active_agents)
        assert set(errors) == ({F(1, k + 1)} if k else set())
        swaps += sum(len(record.swaps) for run in alpha.runs
                     for record in run.trace)
    assert swaps > 0


def test_alpha_half_reaches_two_sevenths():
    rng = random.Random(47)
    for seed in range(20):
        inst = gen_random_hereditary(m=rng.randint(4, 8), n=2,
                                     seed=4700 + seed)
        result = solve_alpha(inst, F(1, 2))
        assert result.alpha == F(2, 7)
        assert verify_allocation(inst, result.allocation, F(2, 7)).ok


def test_alpha_third_matches_spec_value():
    inst = gen_random_hereditary(m=6, n=2, seed=51)
    result = solve_alpha(inst, F(1, 3))
    assert result.alpha == F(1, 3)
    assert verify_allocation(inst, result.allocation, F(1, 3)).ok


def test_alpha_rejects_bad_epsilon():
    inst = gen_random_hereditary(m=5, n=2, seed=5)
    with pytest.raises(EpsilonOutOfRange):
        solve_alpha(inst, F(3, 2))


def _identical_interval_families(entitled: bool) -> Instance:
    system = IntervalSystem(jobs=((1, 1, 2),) * 4)
    spec = (EntitledSpec(systems=(system, system), ordering=(0, 1))
            if entitled else system)
    return validate_instance(Instance(
        n=2, m=4, values=((F(1),) * 4,) * 2, system=spec))


def test_interval_oracles_keep_the_declared_error():
    # Interval oracles serve error 0 or at least 1/2, so these modes may not
    # quietly run them at 1/2 while reporting a ratio for less error.
    with pytest.raises(EpsilonOutOfRange):
        solve_alpha(_identical_interval_families(entitled=False), F(1, 3))
    with pytest.raises(EpsilonOutOfRange):
        solve_entitled(_identical_interval_families(entitled=True))
    assert solve_alpha(_identical_interval_families(entitled=False),
                       F(1, 2)).alpha == F(2, 7)


def test_solvers_reject_asymmetric_instances():
    inst = gen_asymmetric_half(2)
    for solver in (solve_existence, solve_two_fifths):
        with pytest.raises(UnsupportedSystem):
            solver(inst)


def test_two_fifths_rejects_intervals():
    rng = random.Random(53)
    inst = rand_interval_instance(rng, m=5, n=2)
    with pytest.raises(EpsilonOutOfRange):
        solve_two_fifths(inst)


def _instances_at_forty_items():
    rng = random.Random(83)
    return {
        "free": validate_instance(Instance(
            n=4, m=40, values=rand_values(rng, 4, 40), system=FreeSystem())),
        "explicit": gen_random_hereditary(m=40, n=4, seed=83),
        "budget": rand_budget_instance(rng, m=40, n=3),
        "interval": rand_interval_instance(rng, m=40, n=2),
        "conflict": rand_conflict_instance(rng, m=40),
    }


_MODES = {
    "two_fifths": solve_two_fifths,
    "alpha-1/3": lambda inst: solve_alpha(inst, F(1, 3)),
    "alpha-1/2": lambda inst: solve_alpha(inst, F(1, 2)),
    "entitled": solve_entitled,
    "entitled-0": lambda inst: solve_entitled(inst, F(0)),
}

# What each polynomial mode does with each kind at 40 items: solve (None) or
# refuse, never trip an exactness gate.  Per-agent budgets take no alpha
# mode; the budget FPTAS needs an error above 0; the interval scheduler needs
# 1/2; no conflict-graph oracle is polynomial at any error.
_OUTCOMES = {
    "free": dict.fromkeys(_MODES),
    "explicit": dict.fromkeys(_MODES),
    "budget": {"two_fifths": None, "alpha-1/3": UnsupportedSystem,
               "alpha-1/2": UnsupportedSystem, "entitled": None,
               "entitled-0": UnsupportedSystem},
    "interval": {"two_fifths": EpsilonOutOfRange,
                 "alpha-1/3": EpsilonOutOfRange, "alpha-1/2": None,
                 "entitled": EpsilonOutOfRange,
                 "entitled-0": UnsupportedSystem},
    "conflict": dict.fromkeys(_MODES, UnsupportedSystem),
}


@pytest.mark.parametrize("kind", list(_OUTCOMES))
def test_polynomial_modes_solve_or_refuse_each_kind_at_forty_items(kind):
    inst = _instances_at_forty_items()[kind]
    for mode, expected in _OUTCOMES[kind].items():
        if expected is None:
            # Interval systems have no membership test of their own; their
            # bundles are checked by the schedule they carry.  Agents with
            # no award hold the empty bundle.
            result = _MODES[mode](inst)
            for i, granted in result.awarded.items():
                system = inst.system_for(i)
                assert (schedule_fits(system.jobs, granted.items, granted.witness)
                        if isinstance(system, IntervalSystem)
                        else system.independent(granted.items)), (kind, mode)
            if kind == "interval":
                assert result.awarded, mode
        else:
            with pytest.raises(expected):
                _MODES[mode](inst)


def test_entitled_identical_budgets_match_shared_solve():
    rng = random.Random(59)
    from mmsalloc.core import BudgetSystem, EntitledSpec
    for seed in range(10):
        m = rng.randint(4, 7)
        sizes = tuple(F(rng.randint(1, 4)) for _ in range(m))
        budget = F(rng.randint(4, 10))
        values = tuple(tuple(F(rng.randint(0, 5)) for _ in range(m))
                       for _ in range(2))
        shared = validate_instance(Instance(
            n=2, m=m, values=values,
            system=BudgetSystem(sizes=sizes, budget=budget)))
        entitled = validate_instance(Instance(
            n=2, m=m, values=values,
            system=EntitledSpec(
                systems=(BudgetSystem(sizes=sizes, budget=budget),) * 2,
                ordering=(0, 1))))
        assert solve_entitled(entitled).allocation == \
            solve_two_fifths(shared).allocation


def test_entitled_budget_guarantee():
    rng = random.Random(61)
    for seed in range(20):
        inst = rand_budget_instance(rng)
        result = solve_entitled(inst)
        assert verify_allocation(inst, result.allocation, F(2, 5)).ok
        for i in range(inst.n):
            system = inst.system_for(i)
            load = sum((system.sizes[j] for j in result.allocation.bundles[i]),
                       F(0))
            assert load <= system.budget


def test_entitled_rejects_oversized_epsilon():
    rng = random.Random(67)
    inst = rand_budget_instance(rng, n=2)
    with pytest.raises(EpsilonOutOfRange):
        solve_entitled(inst, F(2, 3))


def test_full_pipeline_is_deterministic():
    inst = gen_random_hereditary(m=8, n=3, seed=71)
    first = solve_two_fifths(inst)
    second = solve_two_fifths(inst)
    assert first.allocation == second.allocation
    assert first.adjustments == second.adjustments
    assert [r.trace for r in first.runs] == [r.trace for r in second.runs]


def test_empty_instances_yield_empty_allocations():
    empty_agents = validate_instance(
        Instance(n=0, m=0, values=(), system=FreeSystem()))
    assert solve_two_fifths(empty_agents).allocation.bundles == ()
    no_items = validate_instance(
        Instance(n=2, m=0, values=((), ()), system=FreeSystem()))
    result = solve_existence(no_items)
    assert all(not b for b in result.allocation.bundles)


def test_entitled_explicit_families_end_to_end():
    from mmsalloc.core import EntitledSpec, ExplicitSystem
    rng = random.Random(73)
    for seed in range(12):
        m = rng.randint(4, 8)
        inner = [frozenset(j for j in range(m) if rng.random() < 0.5)
                 for _ in range(rng.randint(1, 3))]
        extra = [frozenset(j for j in range(m) if rng.random() < 0.6)
                 for _ in range(rng.randint(1, 2))]
        strict = ExplicitSystem.normalize(inner)
        loose = ExplicitSystem.normalize(list(strict.maximal_sets) + extra)
        inst = validate_instance(Instance(
            n=2, m=m,
            values=tuple(tuple(F(rng.randint(0, 5)) for _ in range(m))
                         for _ in range(2)),
            system=EntitledSpec(systems=(strict, loose), ordering=(0, 1))))
        result = solve_entitled(inst)
        assert verify_allocation(inst, result.allocation, F(2, 5)).ok
        for agent in range(2):
            bundle = result.allocation.bundles[agent]
            assert oracle_for(inst, agent).is_independent(bundle)


def test_entitled_under_adversarial_oracles():
    def adversarial(instance, agent, epsilon):
        return AdversarialOracle(instance.system_for(agent),
                                 instance.values[agent], epsilon=epsilon)

    rng = random.Random(79)
    for seed in range(12):
        inst = rand_budget_instance(rng, m=rng.randint(4, 7))
        result = solve_entitled(inst, oracle_factory=adversarial)
        assert verify_allocation(inst, result.allocation, F(2, 5)).ok
        for agent in range(inst.n):
            system = inst.system_for(agent)
            load = sum((system.sizes[j]
                        for j in result.allocation.bundles[agent]), F(0))
            assert load <= system.budget


def _shrink_factor(alpha, epsilon, k):
    """Each shrink's factor: k/(k+1) at 2/5, else the inverse of one plus the
    alpha mode's overshoot at error ``epsilon``."""
    if alpha == TWO_FIFTHS:
        return F(k, k + 1)
    overshoot = (3 - 3 * epsilon) / (5 * k - 3 * k * epsilon + 3 * epsilon + 3)
    return 1 / (1 + overshoot)


def _premise_corpus(rng, per_family):
    """Desk instances at m 9-11 and n 2-4, each with its solve and the error
    that solve's alpha mode runs at (None at 2/5)."""
    half = F(1, 2)
    for _ in range(per_family):
        m, n = rng.randint(9, 11), rng.randint(2, 4)
        explicit = gen_random_hereditary(m=m, n=n,
                                         family_density=rng.uniform(0.3, 1),
                                         seed=rng.randrange(10**6))
        yield explicit, solve_two_fifths, None
        yield explicit, lambda inst: solve_alpha(inst, half), half
        yield (rand_budget_instance(rng, m=m, n=n),
               lambda inst: solve_budget_adapter(inst).result, None)
        yield (rand_budget_instance(rng, m=m, n=n, entitled=False),
               lambda inst: solve_alpha(inst, half), half)
        yield (rand_interval_instance(rng, m=m, n=n),
               lambda inst: solve_intervals_adapter(inst).result, half)


def test_every_shrunk_estimate_keeps_the_failure_lemmas_premise():
    """An estimate shrinks by f only from one above the agent's MMS: a maker
    fails only when each short carving answer keeps (1 - eps) * OPT below
    the threshold, and the pre-pass ceiling lies above the MMS.  So every
    agent that shrank ends with mu_i <= e_i / f.  A subset answer taken as
    short while some subset reaches the threshold would break this."""
    rng = random.Random(2031)
    shrunk = [0] * 5  # per solve of the corpus, in its order
    for case, (inst, solve, epsilon) in enumerate(_premise_corpus(rng, 24)):
        result = solve(inst)
        k = len(result.active_agents)
        for i in result.active_agents:
            if not result.adjustments.get(i):
                continue
            factor = _shrink_factor(result.alpha, epsilon, k)
            mu = compute_mms_exact(inst, i).mu
            assert mu <= result.estimates[i] / factor, (case, i)
            shrunk[case % 5] += 1
    assert min(shrunk) >= 50, shrunk
