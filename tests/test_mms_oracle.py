"""Brute-force MMS oracle: exact values, bounds, verification."""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest

from mmsalloc import adapters, mms_oracle
from mmsalloc.core import (
    Allocation,
    AsymmetricSpec,
    BruteForceGateExceeded,
    ExplicitSystem,
    FreeSystem,
    Instance,
    IntervalSystem,
    validate_instance,
)
from mmsalloc.generators import (
    gen_asymmetric_half,
    gen_random_hereditary,
    gen_two_thirds_bound,
)
from mmsalloc.mms_oracle import (
    MmsRecord,
    compute_mms_exact,
    mms_bounds,
    verify_allocation,
)
from mmsalloc.valuation import oracle_for

from conftest import (
    brute_mms,
    max_min_allocation_value,
    rand_budget_instance,
    rand_conflict_instance,
    rand_interval_instance,
    rand_values,
)

F = Fraction


def test_gadget_mms_is_three_for_both_agent_kinds():
    for n in (2, 3):
        inst = gen_two_thirds_bound(n)
        for agent in range(n):
            record = compute_mms_exact(inst, agent)
            assert record.mu == 3
            oracle = oracle_for(inst, agent)
            assert all(oracle.exact_value(b) >= record.mu
                       for b in record.witness)


def test_asymmetric_gadget_mms_is_two():
    inst = gen_asymmetric_half(2)
    assert compute_mms_exact(inst, 0).mu == 2
    assert compute_mms_exact(inst, 1).mu == 2


def test_unit_free_mms():
    inst = Instance(n=2, m=5, values=(tuple(F(1) for _ in range(5)),) * 2,
                    system=FreeSystem())
    record = compute_mms_exact(inst, 0)
    assert record.mu == 2


def test_matches_labelled_brute_force_on_smalls():
    rng = random.Random(17)
    for trial in range(40):
        m = rng.randint(0, 6)
        n = rng.choice((1, 2, 3))
        inst = gen_random_hereditary(m=m, n=n, family_density=rng.uniform(0.3, 1),
                                     seed=1000 + trial)
        agent = rng.randrange(n)
        record = compute_mms_exact(inst, agent)
        assert record.mu == brute_mms(inst, agent)
        # The witness is a partition attaining mu on its minimum block.
        union = frozenset().union(*record.witness)
        assert union == inst.all_items()
        assert sum(len(b) for b in record.witness) == inst.m
        oracle = oracle_for(inst, agent)
        assert min(oracle.exact_value(b) for b in record.witness) == record.mu


def test_gate_is_enforced():
    inst = gen_random_hereditary(m=8, n=2, seed=0)
    with pytest.raises(BruteForceGateExceeded):
        compute_mms_exact(inst, 0, gate=7)


def test_search_runs_to_its_depth_limit_under_a_raised_gate():
    # The search recurses once per item; 500 items stay within Python's
    # recursion limit, and one agent's maximin share is all items' value.
    inst = gen_random_hereditary(m=500, n=1, family_density=0.5, seed=0)
    record = compute_mms_exact(inst, 0, gate=5000)
    assert record.mu == oracle_for(inst, 0).exact_value(inst.all_items())
    assert record.witness == (inst.all_items(),)


def test_bounds_bracket_mms_and_flag_small_m():
    rng = random.Random(23)
    for trial in range(40):
        m = rng.randint(2, 10)
        n = rng.choice((2, 3))
        inst = gen_random_hereditary(m=m, n=n, family_density=rng.uniform(0.3, 1),
                                     seed=2000 + trial)
        for agent in range(n):
            bounds = mms_bounds(inst, agent)
            if m < n:
                assert bounds.fewer_items_than_agents
                continue
            mu = compute_mms_exact(inst, agent).mu
            assert bounds.lower <= mu <= bounds.upper
            # Positive MMS exactly when the n-th best singleton is positive.
            assert (mu > 0) == (bounds.lower > 0)


def test_gadget_bounds_example():
    inst = gen_two_thirds_bound(2)
    bounds = mms_bounds(inst, 0)
    assert (bounds.lower, bounds.upper) == (1, 8)


def test_bounds_are_fractions_when_the_pivot_is_zero():
    # No maximal set holds item 3, so {3} is worth the int 0 that
    # singleton_weights writes, and it is the 2nd best singleton.
    inst = validate_instance(Instance(
        n=2, m=3, values=((F(1), F(0), F(5)),) * 2,
        system=ExplicitSystem(maximal_sets=(frozenset({0, 1}),))))
    bounds = mms_bounds(inst, 0)
    assert (bounds.lower, bounds.upper) == (0, 0)
    assert type(bounds.lower) is Fraction and type(bounds.upper) is Fraction


def test_no_agents_have_no_maximin_share():
    inst = validate_instance(Instance(n=0, m=2, values=(), system=FreeSystem()))
    assert max_min_allocation_value(inst) == (0, ())
    with pytest.raises(ValueError, match="at least one block"):
        compute_mms_exact(inst, 0)


def test_verify_single_agent_gets_everything():
    inst = gen_random_hereditary(m=5, n=1, seed=9)
    allocation = Allocation(bundles=(inst.all_items(),), complete=True)
    report = verify_allocation(inst, allocation, F(1))
    assert report.ok


def test_verify_gadget_partial_allocation_ratios():
    inst = gen_two_thirds_bound(2)
    allocation = Allocation(bundles=(frozenset({0, 1, 2}),
                                     frozenset({3, 4, 5, 6, 7})))
    report = verify_allocation(inst, allocation, F(2, 3))
    assert report.ok
    by_agent = {check.agent: check for check in report.checks}
    assert by_agent[0].value == 3 and by_agent[0].ratio == 1
    assert by_agent[1].value == 2 and by_agent[1].ratio == F(2, 3)
    # A stricter alpha flips agent 2.
    assert not verify_allocation(inst, allocation, F(3, 4)).ok


def test_verify_empty_bundles_fail_on_positive_mu():
    inst = gen_two_thirds_bound(2)
    allocation = Allocation(bundles=(frozenset(), frozenset()))
    report = verify_allocation(inst, allocation, F(1, 10))
    assert not report.ok
    assert all(check.ratio == 0 for check in report.checks)


def test_verify_reports_gate_instead_of_guessing():
    inst = gen_random_hereditary(m=9, n=2, seed=5)
    allocation = Allocation(bundles=(inst.all_items(), frozenset()))
    report = verify_allocation(inst, allocation, F(1, 2), gate=5)
    assert not report.ok
    assert any("gate" in (check.reason or "") for check in report.checks)


def test_verify_keeps_a_known_mu_past_the_value_gate():
    # Twenty unit jobs, job t only in slot t: the one bundle is past the
    # 16-job exactness gate.  A supplied MMS survives the gated value, and
    # an MMS of 0 passes whatever the value; with neither, the value's gate
    # is the reason.
    inst = Instance(n=1, m=20, values=((F(1),) * 20,),
                    system=IntervalSystem(jobs=tuple((1, t, t)
                                                     for t in range(20))))
    allocation = Allocation(bundles=(inst.all_items(),), complete=True)
    reason = "interval bundle of size 20 exceeds the exactness gate 16"
    for mu, ok in ((F(20), False), (F(0), True), (None, False)):
        records = None if mu is None else {
            0: MmsRecord(agent=0, mu=mu, witness=(inst.all_items(),))}
        (check,) = verify_allocation(inst, allocation, F(2, 7),
                                     records=records).checks
        assert (check.value, check.mu, check.ok) == (None, mu, ok)
        assert check.reason == (None if ok else reason)


def test_exhaustive_allocation_search_on_gadget():
    inst = gen_two_thirds_bound(2)
    best, witness = max_min_allocation_value(inst)
    assert best == 2
    union = frozenset().union(*witness)
    assert union == inst.all_items()


def _repeated_rows_instance(rng, seed):
    """Agents drawn from two value rows and, per agent, two families."""
    m = rng.randint(2, 7)
    n = rng.choice((2, 3))
    rows = rand_values(rng, 2, m)
    values = tuple(rng.choice(rows) for _ in range(n))
    if rng.random() < 0.5:
        system = gen_random_hereditary(m=m, n=1, family_density=0.6,
                                       seed=seed).system
    else:
        families = [gen_random_hereditary(m=m, n=1, family_density=0.6,
                                          seed=seed + k).system
                    for k in range(2)]
        system = AsymmetricSpec(
            systems=tuple(rng.choice(families) for _ in range(n)))
    return validate_instance(Instance(n=n, m=m, values=values, system=system))


def test_bounds_trivial_cases():
    single = Instance(n=1, m=3, values=((F(0), F(7), F(0)),),
                      system=FreeSystem())
    bounds = mms_bounds(single, 0)
    assert bounds.lower == 7 and bounds.upper == 21

    zeros = Instance(n=2, m=3, values=((F(0), F(0), F(0)),) * 2,
                     system=FreeSystem())
    bounds = mms_bounds(zeros, 0)
    assert (bounds.lower, bounds.upper) == (0, 0)


def _first_best_leaf(items, value_fn, weights, holders, *, gate,
                     feasible=None, allow_discard=False):
    """Unpruned reference for ``_best_min_assignment``: the same depth-first
    walk, heaviest item first and only the lowest-index empty holder started,
    visits every leaf and keeps the first with the largest min holder
    value."""
    order = sorted(items, key=lambda j: (-weights[j], j))
    value = functools.cache(value_fn)
    bundles = [frozenset()] * holders
    best = None

    def descend(t):
        nonlocal best
        if t == len(order):
            leaf = 0 if frozenset() in bundles else min(map(value, bundles))
            if best is None or leaf > best[0]:
                best = (leaf, [sum(1 << j for j in b) for b in bundles])
            return
        for h in range(holders):
            if not bundles[h] and frozenset() in bundles[:h]:
                continue
            grown = bundles[h] | {order[t]}
            if feasible is not None and not feasible(grown):
                continue
            bundles[h] = grown
            descend(t + 1)
            bundles[h] = grown - {order[t]}
        if allow_discard:
            descend(t + 1)

    descend(0)
    return best


def _desk_instances():
    """Seeded instances of every kind with at most eight items."""
    rng = random.Random(41)
    for trial in range(12):
        yield gen_random_hereditary(m=rng.randint(4, 8), n=rng.choice((2, 3)),
                                    family_density=rng.uniform(0.3, 1),
                                    seed=4000 + trial)
        yield _repeated_rows_instance(rng, 5000 + trial)
        yield rand_budget_instance(rng, m=rng.randint(4, 8))
        yield rand_conflict_instance(rng, m=rng.randint(4, 7))
        yield rand_interval_instance(rng, m=rng.randint(4, 7))


def test_pruned_search_returns_the_first_best_leaf(monkeypatch):
    # The greedy seed, the node cut and the leaf cutoffs skip only leaves
    # that cannot beat the best value, so the search records the same first
    # optimal leaf as the unpruned walk: plain in the maximin share, and
    # feasible holdings with and without discarding in the constrained share.
    searched = []

    def spy(*args, original=mms_oracle._best_min_assignment, **kwargs):
        found = original(*args, **kwargs)
        searched.append((args, kwargs, found))
        return found

    monkeypatch.setattr(mms_oracle, "_best_min_assignment", spy)
    monkeypatch.setattr(adapters, "_best_min_assignment", spy)
    seen = set()
    for inst in _desk_instances():
        for agent in range(inst.n):
            compute_mms_exact(inst, agent)
            if inst.system_for(agent).kind in ("budget", "conflict",
                                               "interval"):
                adapters.constrained_mms(inst, agent)
        for args, kwargs, found in searched:
            assert found == _first_best_leaf(*args, **kwargs)
            seen.add((kwargs.get("feasible") is not None,
                      kwargs.get("allow_discard", False)))
        searched.clear()
    assert seen == {(False, False), (True, False), (True, True)}


def test_exact_mms_evaluates_few_exact_values():
    # The greedy seed and the leaf cutoffs leave 300 exact value reads on
    # this instance; a search that starts from nothing and evaluates every
    # holder of every leaf it reaches makes 1,180.
    inst = gen_random_hereditary(m=12, n=3, family_density=0.6, seed=13)
    oracle = oracle_for(inst, 0)
    reads = []

    def counted(items, original=oracle.exact_weight):
        reads.append(items)
        return original(items)

    oracle.exact_weight = counted
    assert compute_mms_exact(inst, 0, oracle=oracle).mu == 8
    assert len(reads) == 300
