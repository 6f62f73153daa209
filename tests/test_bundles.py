"""Bundle makers: witness slicing and the two-phase threshold construction."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import mmsalloc.bundles
from mmsalloc.bundles import (
    TWO_FIFTHS,
    BundleRequest,
    bundles_from_mms_partition,
    make_bundles_alpha,
)
from mmsalloc.core import (
    ExactnessGateExceeded,
    FreeSystem,
    InsufficientBundles,
)
from mmsalloc.driver import alpha_for_error
from mmsalloc.generators import gen_random_hereditary, gen_two_thirds_bound
from mmsalloc.matching import max_general_matching
from mmsalloc.mms_oracle import compute_mms_exact
from mmsalloc.valuation import (
    IndependentBundle,
    ValuationOracle,
    _schedule_is_valid,
    oracle_for,
)

from conftest import (
    AdversarialOracle,
    rand_budget_instance,
    rand_conflict_instance,
    rand_interval_instance,
    rand_values,
)

F = Fraction


def _disjoint_independent(oracle, bundles, threshold):
    claimed = set()
    for bundle in bundles:
        assert oracle.is_independent(bundle.items)
        assert bundle.value >= threshold
        assert claimed.isdisjoint(bundle.items)
        claimed.update(bundle.items)


def test_witness_slicing_identity_case():
    inst = gen_two_thirds_bound(2)
    oracle = oracle_for(inst, 0)
    record = compute_mms_exact(inst, 0)
    got = bundles_from_mms_partition(oracle, record, inst.all_items(), 2,
                                     record.mu)
    _disjoint_independent(oracle, got, record.mu)


def test_witness_slicing_after_removals():
    inst = gen_two_thirds_bound(2)
    oracle = oracle_for(inst, 0)
    record = compute_mms_exact(inst, 0)
    remaining = inst.all_items() - frozenset({2, 3, 5})  # items 3, 4, 6
    got = bundles_from_mms_partition(oracle, record, remaining, 1, F(3, 2))
    _disjoint_independent(oracle, got, F(3, 2))
    assert all(b.items <= remaining for b in got)


def test_witness_slicing_zero_threshold_always_succeeds():
    inst = gen_random_hereditary(m=6, n=2, seed=1)
    oracle = oracle_for(inst, 0)
    record = compute_mms_exact(inst, 0)
    got = bundles_from_mms_partition(oracle, record, inst.all_items(), 2, F(0))
    assert len(got) == 2


def test_witness_slicing_raises_when_too_little_survives():
    inst = gen_two_thirds_bound(2)
    oracle = oracle_for(inst, 0)
    record = compute_mms_exact(inst, 0)
    with pytest.raises(InsufficientBundles,
                       match=r"^agent 1: only 0 of 1 witness blocks"):
        bundles_from_mms_partition(oracle, record, frozenset(), 1, F(1))


def test_two_fifths_on_gadget():
    inst = gen_two_thirds_bound(2)
    oracle = oracle_for(inst, 0)
    request = BundleRequest(oracle=oracle, items=inst.all_items(), count=2,
                            mu_star=F(3))
    got = make_bundles_alpha(request)
    assert got is not None and len(got) == 2
    _disjoint_independent(oracle, got, F(6, 5))


def test_two_fifths_failure_on_hopeless_estimate():
    inst = gen_two_thirds_bound(2)
    oracle = oracle_for(inst, 0)
    request = BundleRequest(oracle=oracle, items=inst.all_items(), count=2,
                            mu_star=F(30))
    assert make_bundles_alpha(request) is None


def test_zero_count_is_an_empty_success():
    inst = gen_random_hereditary(m=5, n=2, seed=3)
    oracle = oracle_for(inst, 0)
    request = BundleRequest(oracle=oracle, items=inst.all_items(), count=0,
                            mu_star=F(1))
    assert make_bundles_alpha(request) == []


def test_alpha_zero_error_equals_two_fifths():
    for seed in range(12):
        inst = gen_random_hereditary(m=7, n=2, seed=seed)
        oracle = oracle_for(inst, 0)
        mu = compute_mms_exact(inst, 0).mu
        if mu == 0:
            continue
        base = BundleRequest(oracle=oracle, items=inst.all_items(), count=2,
                             mu_star=mu)
        zero_error = base._replace(alpha=alpha_for_error(F(0)))
        assert make_bundles_alpha(zero_error) == make_bundles_alpha(base)


def test_multi_item_bundles_are_minimal_and_value_capped():
    rng = random.Random(77)
    for seed in range(30):
        inst = gen_random_hereditary(m=8, n=2, family_density=rng.uniform(0.3, 1),
                                     seed=400 + seed)
        oracle = oracle_for(inst, 0)
        mu = compute_mms_exact(inst, 0).mu
        if mu == 0:
            continue
        threshold = F(2, 5) * mu
        request = BundleRequest(oracle=oracle, items=inst.all_items(), count=1,
                                mu_star=mu)
        got = make_bundles_alpha(request)
        assert got is not None
        for bundle in got:
            if len(bundle.items) < 2:
                continue
            # Minimality: dropping any single item falls below the threshold.
            for j in bundle.items:
                assert bundle.value - oracle.values[j] < threshold
            # Carved bundles (those holding a low-valued item) stay under
            # (3/5) mu*; pairs of two high items are exempt.
            if any(F(oracle.singleton_weights[j], oracle.scale) <= threshold / 2
                   for j in bundle.items):
                assert F(oracle.additive_weight(bundle.items), oracle.scale) \
                    < F(3, 5) * mu


def _random_prior_bundles(rng, inst, agent, count, cap):
    items = set(range(inst.m))
    prior = []
    for _ in range(count):
        pool = sorted(items)
        rng.shuffle(pool)
        chosen, total = set(), F(0)
        for j in pool:
            value = inst.values[agent][j]
            if rng.random() < 0.4 and total + value <= cap:
                chosen.add(j)
                total += value
        prior.append(chosen)
        items -= chosen
    return frozenset(items)


def test_success_contract_under_adversarial_oracle():
    """Whenever mu* <= (1 + 1/(5n-1)) mu and removed bundles keep item sums
    under (3/5) mu*, the construction must return k = n - ell bundles."""
    rng = random.Random(123)
    qualifying = 0
    for trial in range(220):
        n = rng.choice((2, 3))
        m = rng.randint(4, 9)
        inst = gen_random_hereditary(m=m, n=n,
                                     family_density=rng.uniform(0.3, 1.0),
                                     seed=5000 + trial)
        agent = rng.randrange(n)
        mu = compute_mms_exact(inst, agent).mu
        if mu == 0:
            continue
        mu_star = mu * (1 + F(rng.randint(0, 100), 100) * F(1, 5 * n - 1))
        ell = rng.randint(0, n - 1)
        remaining = _random_prior_bundles(rng, inst, agent, ell,
                                          F(3, 5) * mu_star)
        epsilon = F(1, n + 1)
        if trial % 2:
            oracle = AdversarialOracle(inst.system, inst.values[agent],
                                       epsilon=epsilon)
        else:
            oracle = oracle_for(inst, agent, epsilon=epsilon)
        request = BundleRequest(oracle=oracle, items=remaining, count=n - ell,
                                mu_star=mu_star)
        got = make_bundles_alpha(request)
        qualifying += 1
        assert got is not None, (trial, n, m, mu, mu_star, ell)
        _disjoint_independent(oracle, got, F(2, 5) * mu_star)
    assert qualifying >= 150


def _carve(oracle, j, low, threshold, built):
    """Carve one bundle from ``low | {j}`` into ``built``: its minimal part
    of the query's answer, or nothing when the answer falls short.  The query
    passes the threshold as its goal, the least weight that reaches it on the
    oracle's scale.  Returns the carved items."""
    candidate = oracle.approx_value_subset(
        low | {j}, goal=math.ceil(threshold * oracle.scale))
    if candidate.value < threshold:
        return frozenset()
    bundle, value = set(candidate.items), candidate.value
    for removable in sorted(candidate.items):
        if value - oracle.values[removable] >= threshold:
            bundle.discard(removable)
            value -= oracle.values[removable]
    kept = frozenset(bundle)
    assert len(kept) == 1 or value < 3 * threshold / 2
    built.append(IndependentBundle(kept, int(value * oracle.scale), oracle.scale))
    return kept


def _one_pass_scan(oracle, high, low, threshold, built):
    """Each high item in ascending order, asked again only while its carves
    leave it out: a short answer sends it to phase two for good."""
    left = []
    for j in high:
        kept = frozenset()
        while j not in kept:
            kept = _carve(oracle, j, low, threshold, built)
            if not kept:
                left.append(j)
                break
            low -= kept
    return left


def _restart_scan(oracle, high, low, threshold, built):
    """After every carve, start again from the first high item left, so an
    item whose answer fell short is asked again over the smaller low."""
    progress = True
    while progress:
        progress = False
        for j in high:
            kept = _carve(oracle, j, low, threshold, built)
            if kept:
                high = [h for h in high if h not in kept]
                low -= kept
                progress = True
                break
    return high


def _reference_make_bundles(request, scan=_one_pass_scan):
    """The two-phase construction with every threshold test on Fraction
    values: the same scan order as the library, none of its integer kernel.
    ``scan`` carves phase one's bundles and returns the high items left."""
    oracle = request.oracle
    threshold = request.alpha * request.mu_star
    half_threshold = threshold / 2
    singleton = {j: F(oracle.singleton_weights[j], oracle.scale)
                 for j in sorted(request.items)}
    high = [j for j, value in singleton.items() if value > half_threshold]
    low = {j for j, value in singleton.items() if value <= half_threshold}
    built = []
    for j in list(high):
        if singleton[j] >= threshold:
            built.append(IndependentBundle(frozenset((j,)),
                                           oracle.singleton_weights[j], oracle.scale))
            high.remove(j)
    high = scan(oracle, high, low, threshold, built)
    edges, exact_pairs = [], oracle.epsilon > F(1, 3)
    for a_pos, j1 in enumerate(high):
        for b_pos in range(a_pos + 1, len(high)):
            j2 = high[b_pos]
            if exact_pairs:
                qualifies = (oracle.pair_independent(j1, j2)
                             and singleton[j1] + singleton[j2] >= threshold)
            else:
                qualifies = oracle.approx_value_subset(
                    frozenset((j1, j2))).value >= threshold
            if qualifies:
                edges.append((a_pos, b_pos))
    for a_pos, b_pos in max_general_matching(len(high), edges):
        pair = frozenset((high[a_pos], high[b_pos]))
        built.append(IndependentBundle(pair, oracle.additive_weight(pair),
                                       oracle.scale))
    return None if len(built) < request.count else built[:request.count]


def _tie_requests(rng, trials):
    """Requests whose threshold, or half of it, equals the value of a random
    singleton, pair or triple, so the tests at the threshold meet ties."""
    for trial in range(trials):
        kind = trial % 3
        if kind == 0:
            inst = gen_random_hereditary(m=rng.randint(3, 10), n=2,
                                         family_density=rng.uniform(0.3, 1),
                                         seed=9000 + trial)
        elif kind == 1:
            inst = rand_budget_instance(rng, entitled=False)
        else:
            inst = rand_conflict_instance(rng)
        epsilon = rng.choice((F(0), F(1, 3), F(1, 2)))
        if kind == 1 and epsilon:
            # the oracle answers subset queries by the knapsack FPTAS
            make = lambda: oracle_for(inst, 0, epsilon=epsilon)  # noqa: E731
        elif trial % 4 == 3:
            make = lambda: AdversarialOracle(  # noqa: E731
                inst.system, inst.values[0], epsilon=epsilon)
        else:
            make = lambda: oracle_for(inst, 0)  # noqa: E731
        positive = [j for j in range(inst.m) if inst.values[0][j] > 0]
        if not positive:
            continue
        tied = rng.sample(positive, min(len(positive), rng.randint(1, 3)))
        alpha = rng.choice((F(2, 5), F(1, 3), F(2, 7)))
        total = sum((inst.values[0][j] for j in tied), F(0))
        mu_star = total / alpha * rng.choice((1, 2))  # threshold or its half
        items = frozenset(j for j in range(inst.m) if rng.random() < 0.85)
        # The second draw is unused, but dropping it would reseed every
        # later request; the oracle's own error picks the pair test.
        count, _ = rng.randint(1, 3), rng.random()
        yield [BundleRequest(oracle=make(), items=items, count=count,
                             mu_star=mu_star, alpha=alpha)
               for _ in range(2)]


def test_integer_thresholds_match_the_fraction_reference_at_ties():
    rng = random.Random(2025)
    compared = at_threshold = at_half = carved_or_paired = 0
    for ours, reference in _tie_requests(rng, 480):
        expected = _reference_make_bundles(reference)
        assert make_bundles_alpha(ours) == expected, ours
        compared += 1
        threshold = ours.alpha * ours.mu_star
        tied = [b for b in expected or () if b.value == threshold]
        at_threshold += bool(tied)
        carved_or_paired += any(len(b.items) > 1 for b in tied)
        at_half += any(2 * F(ours.oracle.singleton_weights[j], ours.oracle.scale)
                       == threshold for j in ours.items)
    assert compared >= 400
    assert at_threshold >= 60 and carved_or_paired >= 20 and at_half >= 60
    # Near ties: mu* is a tie value times 1 +- 1/D, with D = 7^200, the
    # denominator an estimate carries after a few hundred k/(k+1) shrinks,
    # so ceil(t) and floor(t/2) sit one away from the tie.
    nudged = near = 0
    for ours, reference in _tie_requests(rng, 240):
        tie = ours.alpha * ours.mu_star
        factor = 1 + rng.choice((1, -1)) * F(1, 7 ** 200)
        ours, reference = (r._replace(mu_star=r.mu_star * factor)
                           for r in (ours, reference))
        expected = _reference_make_bundles(reference)
        assert make_bundles_alpha(ours) == expected, ours
        nudged += 1
        near += any(b.value == tie for b in expected or ()) or any(
            2 * F(ours.oracle.singleton_weights[j], ours.oracle.scale) == tie
            for j in ours.items)
    assert nudged >= 200 and near >= 60, (nudged, near)


def _count_queries(oracle):
    """Record each subset query asked of ``oracle`` with its answer."""
    asked, answer = [], oracle.approx_value_subset

    def counted(bundle, goal=None):
        got = answer(bundle, goal=goal)
        asked.append((frozenset(bundle), got))
        return got

    oracle.approx_value_subset = counted
    return asked


def _count_weighings(oracle):
    """Record each bundle ``oracle`` sums the weight of, with whether a
    subset query was running at the time."""
    weighed, weigh, ask = [], oracle.additive_weight, oracle.approx_value_subset
    asking = []

    def counted_weigh(bundle):
        weighed.append((bundle, bool(asking)))
        return weigh(bundle)

    def counted_ask(bundle, goal=None):
        asking.append(bundle)
        try:
            return ask(bundle, goal=goal)
        finally:
            asking.pop()

    oracle.additive_weight, oracle.approx_value_subset = counted_weigh, counted_ask
    return weighed


def test_answers_are_not_weighed_again():
    """Answers carry their weight: a memo hit sums no weight, and the maker
    sums none of a carving answer it accepts."""
    rng = random.Random(2030)
    hits = carves = 0
    for oracle in _lemma_oracles(rng):
        weighed = _count_weighings(oracle)
        for _ in range(3):
            query = frozenset(j for j in range(len(oracle.values))
                              if rng.random() < 0.8)
            goal = rng.choice((None, 1, oracle.exact_weight(query)))
            oracle.approx_value_subset(query, goal)
            weighed.clear()
            oracle.approx_value_subset(query, goal)  # from the memo
            assert weighed == [], (oracle.system, query, goal)
            hits += 1
    for oracle in _lemma_oracles(rng):
        asked = _count_queries(oracle)
        weighed = _count_weighings(oracle)
        mu_star = F(sum(oracle.singleton_weights), oracle.scale * 2) or F(1)
        make_bundles_alpha(BundleRequest(
            oracle=oracle, items=frozenset(range(len(oracle.values))),
            count=2, mu_star=mu_star))
        goal = math.ceil(F(2, 5) * mu_star * oracle.scale)
        for _, answer in asked:
            if answer.weight >= goal:
                assert all(bundle is not answer.items
                           for bundle, querying in weighed if not querying)
                carves += 1
    assert hits >= 500 and carves >= 100, (hits, carves)


def _carving_requests(rng, make_oracle, trials, count_of):
    """Pairs of like requests, each with a fresh oracle from
    ``make_oracle(trial)``, whose threshold t lies between one and two times
    a positive singleton value, so phase one has high items to carve.  Each
    asks for ``count_of(rng, items)`` bundles."""
    for trial in range(trials):
        oracles = make_oracle(trial), make_oracle(trial)
        positive = [w for w in oracles[0].singleton_weights if w]
        if not positive:
            continue
        t = F(rng.choice(positive), oracles[0].scale) * rng.choice(
            (F(5, 4), F(3, 2), F(7, 4)))
        alpha = rng.choice((F(2, 5), F(1, 3), F(2, 7)))
        items = frozenset(j for j in range(len(oracles[0].values))
                          if rng.random() < 0.9)
        count = count_of(rng, items)
        yield [BundleRequest(oracle=oracle, items=items, count=count,
                             mu_star=t / alpha, alpha=alpha)
               for oracle in oracles]


def _exact_answer_oracle(trial):
    """An oracle whose subset answers are exact: ValuationOracle at error 0
    on an explicit, budget, conflict or free system, or on an explicit one
    at a declared error of 1/3 or 1/2."""
    rng = random.Random(11000 + trial)
    kind, m = trial % 6, rng.randint(4, 10)
    if kind == 1:
        inst = rand_budget_instance(rng, m=m, entitled=False)
    elif kind == 2:
        inst = rand_conflict_instance(rng, m=m)
    elif kind == 3:
        return ValuationOracle(FreeSystem(), rand_values(rng, 1, m)[0])
    else:
        inst = gen_random_hereditary(m=m, n=2,
                                     family_density=rng.uniform(0.3, 1),
                                     seed=rng.randrange(10**6))
    epsilon = {4: F(1, 3), 5: F(1, 2)}.get(kind, F(0))
    return oracle_for(inst, 0, epsilon=epsilon)


def test_one_pass_carving_builds_what_the_restart_rule_builds_on_exact_answers():
    """Exact answers only fall as low shrinks, so an item whose answer fell
    short falls short again when the restart rule asks it once more."""
    rng = random.Random(2027)
    compared = reasked = 0
    for ours, reference in _carving_requests(
            rng, _exact_answer_oracle, 360, lambda rng, _: rng.randint(1, 3)):
        asked = _count_queries(ours.oracle)
        asked_again = _count_queries(reference.oracle)
        expected = _reference_make_bundles(reference, scan=_restart_scan)
        assert make_bundles_alpha(ours) == expected, ours
        compared += 1
        reasked += len(asked_again) > len(asked)
    assert compared >= 300 and reasked >= 100, (compared, reasked)


def test_an_item_whose_carving_query_falls_short_is_not_asked_again():
    """Approximate answers: each maker call asks at most one short query per
    high item, where the restart rule asks such items again.  Each request
    asks for more bundles than it has items, so no maker call stops before
    its full pass."""
    rng = random.Random(2028)

    def approximate_oracle(trial):
        kind, local = trial % 4, random.Random(12000 + trial)
        if kind == 2:
            inst = rand_interval_instance(local, m=local.randint(4, 9))
            return oracle_for(inst, 0, epsilon=F(1, 2))
        if kind == 3:
            inst = gen_random_hereditary(m=local.randint(4, 9), n=2,
                                         family_density=local.uniform(0.3, 1),
                                         seed=local.randrange(10**6))
            return AdversarialOracle(inst.system, inst.values[0],
                                     epsilon=F(1, 3))
        inst = rand_budget_instance(local, m=local.randint(4, 10),
                                    entitled=False)
        return oracle_for(inst, 0, epsilon=(F(1, 3), F(1, 2))[kind])

    short_queries = reasked = 0
    for ours, reference in _carving_requests(
            rng, approximate_oracle, 1200, lambda _, items: len(items) + 1):
        threshold = ours.alpha * ours.mu_star
        for request, make in ((ours, make_bundles_alpha),
                              (reference, lambda r: _reference_make_bundles(
                                  r, scan=_restart_scan))):
            asked = _count_queries(request.oracle)
            make(request)
            oracle = request.oracle
            high = [j for query, answer in asked if answer.value < threshold
                    for j in query if 2 * F(oracle.singleton_weights[j],
                                            oracle.scale) > threshold]
            if request is ours:
                assert len(high) == len(set(high)), (request, high)
                short_queries += len(high)
            else:
                reasked += len(high) > len(set(high))
    assert short_queries >= 400 and reasked >= 40, (short_queries, reasked)


def test_explicit_bundles_are_proven_by_the_sets_holding_them(monkeypatch):
    """On an explicit system each bundle carries a maximal set holding it,
    so the maker's final check asks no is_independent.  The adversary's
    answers carry none, so bundles carved from them are still asked."""
    asked = {ValuationOracle: 0, AdversarialOracle: 0}
    searching = []  # the adversary's own enumeration asks too; not counted
    is_independent = ValuationOracle.is_independent
    search = AdversarialOracle._approx_value_subset

    def counted(self, bundle):
        asked[type(self)] += not searching
        return is_independent(self, bundle)

    def enumerating(self, items, goal):
        searching.append(items)
        try:
            return search(self, items, goal)
        finally:
            searching.pop()

    monkeypatch.setattr(ValuationOracle, "is_independent", counted)
    monkeypatch.setattr(AdversarialOracle, "_approx_value_subset", enumerating)
    rng = random.Random(2033)
    built = 0
    for seed in range(60):
        inst = gen_random_hereditary(m=24, n=5, family_density=0.6, seed=seed)
        agent = seed % inst.n
        # At most 16 items, the adversary's enumeration gate.
        items = frozenset(rng.sample(range(inst.m), 14))
        oracle = oracle_for(inst, agent)
        positive = [oracle.singleton_weights[j] for j in sorted(items)
                    if oracle.singleton_weights[j]]
        if not positive:
            continue
        t = F(rng.choice(positive), oracle.scale) * rng.choice(
            (F(5, 4), F(3, 2), F(7, 4)))
        count = rng.randint(2, 5)
        for maker_oracle in (oracle, AdversarialOracle(inst.system, inst.values[agent])):
            request = BundleRequest(oracle=maker_oracle, items=items, count=count,
                                    mu_star=t / TWO_FIFTHS)
            bundles = make_bundles_alpha(request) or []
            if maker_oracle is oracle:
                built += len(bundles)
                for bundle in bundles:
                    assert bundle.witness in inst.system.maximal_sets
                    assert bundle.items <= bundle.witness
    assert asked[ValuationOracle] == 0
    assert asked[AdversarialOracle] > 0 and built >= 100, (asked, built)


def _count_pair_questions(oracle):
    """Record each pair asked of ``oracle.pair_independent``."""
    asked, answer = [], oracle.pair_independent

    def counted(j1, j2):
        asked.append((j1, j2))
        return answer(j1, j2)

    oracle.pair_independent = counted
    return asked


def test_the_maker_stops_asking_once_its_answer_is_settled(monkeypatch):
    """The maker answers as the full two-phase pass does, but asks no subset
    query once count bundles exist or whose items weigh below the threshold
    in all, and no pair when the bundles suffice or pairing cannot reach
    count.  An interval pair is asked by scheduling it, once: a matched pair
    carries that schedule."""
    rng = random.Random(2030)
    scheduled, schedule = [], mmsalloc.bundles._interval_witness
    monkeypatch.setattr(mmsalloc.bundles, "_interval_witness", lambda system, pair:
                        scheduled.append(tuple(sorted(pair))) or schedule(system, pair))

    def any_oracle(trial):
        kind, local = trial % 4, random.Random(13000 + trial)
        m = local.randint(4, 10)
        if kind == 1:
            inst = rand_budget_instance(local, m=m, entitled=False)
            epsilon = local.choice((F(1, 3), F(1, 2)))
            return oracle_for(inst, 0, epsilon=epsilon)
        if kind == 2:
            inst = rand_interval_instance(local, m=m)
            return oracle_for(inst, 0, epsilon=F(1, 2))
        inst = gen_random_hereditary(m=m, n=2,
                                     family_density=local.uniform(0.3, 1),
                                     seed=local.randrange(10**6))
        epsilon = local.choice((F(0), F(1, 3), F(1, 2)))
        if kind == 3:
            return AdversarialOracle(inst.system, inst.values[0],
                                     epsilon=epsilon or F(1, 3))
        return oracle_for(inst, 0, epsilon=epsilon)

    saved = paired = suffice = unreachable = 0
    for ours, reference in _carving_requests(
            rng, any_oracle, 800, lambda rng, _: rng.randint(1, 3)):
        oracle, count = ours.oracle, ours.count
        threshold = ours.alpha * ours.mu_star
        asked, pairs = _count_queries(oracle), _count_pair_questions(oracle)
        asked_in_full = _count_queries(reference.oracle)
        pairs_in_full = _count_pair_questions(reference.oracle)
        expected = _reference_make_bundles(reference)
        scheduled.clear()
        assert make_bundles_alpha(ours) == expected, ours
        pairs += scheduled
        assert len(set(pairs)) == len(pairs), ours
        value = {j: F(oracle.singleton_weights[j], oracle.scale)
                 for j in ours.items}
        built = sum(v >= threshold for v in value.values())
        for query, answer in asked:
            assert built < count, (ours, query)
            assert F(oracle.additive_weight(query), oracle.scale) >= threshold, \
                (ours, query)
            built += answer.value >= threshold
        if pairs:
            left = {j for pair in pairs for j in pair}
            assert built < count <= built + len(left) // 2, ours
            paired += 1
        elif pairs_in_full or any(  # an approximate pair question
                len(query) == 2 and all(2 * value[j] > threshold for j in query)
                for query, _ in asked_in_full):
            suffice += built >= count
            unreachable += built < count
        saved += len(asked) < len(asked_in_full)
    assert saved >= 400 and paired >= 40 and suffice >= 100 \
        and unreachable >= 40, (saved, paired, suffice, unreachable)


def test_a_settled_request_asks_no_query_past_the_enumeration_gate():
    """Two singletons meet the count, so the high item 7 is never carved: its
    query over 17 low items would exceed the adversary's gate of 16.  One
    bundle more, and the carving query is asked and refused."""
    values = (F(10), F(10), F(7)) + (F(1),) * 17
    oracle = AdversarialOracle(FreeSystem(), values, epsilon=F(1, 3))
    request = BundleRequest(oracle=oracle, items=frozenset(range(20)),
                            count=2, mu_star=F(20), alpha=F(1, 2))
    assert make_bundles_alpha(request) == [
        IndependentBundle(frozenset({0}), 10, 1),
        IndependentBundle(frozenset({1}), 10, 1)]
    with pytest.raises(ExactnessGateExceeded):
        make_bundles_alpha(request._replace(count=3))


def _lemma_oracles(rng):
    """Oracles on seeded explicit, shared-budget and free systems at errors
    up to 1/3; a budget oracle above error 0 answers by the FPTAS."""
    for trial in range(90):
        kind = trial % 3
        m = rng.randint(4, 9)
        if kind == 0:
            inst = gen_random_hereditary(m=m, n=2,
                                         family_density=rng.uniform(0.3, 1),
                                         seed=7000 + trial)
        elif kind == 1:
            inst = rand_budget_instance(rng, m=m, entitled=False)
        system = FreeSystem() if kind == 2 else inst.system
        values = rand_values(rng, 1, m)[0] if kind == 2 else inst.values[0]
        for epsilon in (F(0), F(1, 5), F(1, 3)):
            for cls in (ValuationOracle, AdversarialOracle):
                yield cls(system, values, epsilon=epsilon)


def test_approximate_pair_test_is_exact_pair_independence_up_to_one_third():
    """With t/2 < w2 <= w1 < t, an answer keeping (1 - eps) >= 2/3 of an
    independent pair keeps the pair, so phase two may ask pair_independent
    at every error: the approximate test reaches t exactly when it holds."""
    rng = random.Random(2026)
    independent = dependent = 0
    for oracle in _lemma_oracles(rng):
        value = {j: F(w, oracle.scale)
                 for j, w in enumerate(oracle.singleton_weights) if w}
        for t in {v * F(3, 2) for v in value.values()}:
            high = sorted(j for j, v in value.items() if t / 2 < v < t)
            for a, j1 in enumerate(high):
                for j2 in high[a + 1:]:
                    pair = frozenset((j1, j2))
                    answer = oracle.approx_value_subset(pair)
                    exact = oracle.pair_independent(j1, j2)
                    assert (answer.value >= t) == exact, (oracle, pair, t)
                    independent += exact
                    dependent += not exact
    assert independent >= 2000 and dependent >= 150, (independent, dependent)


def test_above_one_third_an_approximate_answer_may_drop_an_independent_pair():
    # At error 1/2 the adversary may keep only 19 of the pair's 30, which
    # falls short of t = 20, although the pair is independent and worth 30.
    oracle = AdversarialOracle(FreeSystem(), (F(19), F(11)), epsilon=F(1, 2))
    assert oracle.approx_value_subset(frozenset((0, 1))).items == {0}
    assert oracle.pair_independent(0, 1)
    request = BundleRequest(oracle=oracle, items=frozenset((0, 1)), count=1,
                            mu_star=F(50), alpha=F(2, 5))
    assert make_bundles_alpha(request) == \
        [IndependentBundle(frozenset((0, 1)), 30, 1)]


@pytest.mark.parametrize("count, mu_star, needle", [
    (-1, F(1), "must be non-negative"),
    (1, F(0), "must be positive"),
    (1, F(-1, 2), "must be positive"),
], ids=["negative-count", "zero-mu-star", "negative-mu-star"])
def test_bundle_request_refuses_a_negative_count_or_a_zero_estimate(
        count, mu_star, needle):
    oracle = oracle_for(gen_two_thirds_bound(2), 0)
    with pytest.raises(ValueError, match=needle):
        BundleRequest(oracle=oracle, items=frozenset(range(8)), count=count,
                      mu_star=mu_star)


def test_an_interval_job_built_alone_starts_at_its_release(monkeypatch):
    """A singleton's schedule is its release slot, with no scheduler call."""
    witness = mmsalloc.bundles._interval_witness

    def pairs_only(system, items, search=True):
        assert len(items) > 1, f"job {set(items)} was scheduled alone"
        return witness(system, items, search)

    monkeypatch.setattr(mmsalloc.bundles, "_interval_witness", pairs_only)
    rng = random.Random(2032)
    singletons = 0
    for _ in range(60):
        inst = rand_interval_instance(rng, m=rng.randint(3, 9))
        oracle = oracle_for(inst, 0, epsilon=F(1, 2))
        values = [v for v in inst.values[0] if v]
        if not values:
            continue
        threshold = rng.choice(values)
        count = sum(v >= threshold for v in inst.values[0])
        got = make_bundles_alpha(BundleRequest(
            oracle=oracle, items=inst.all_items(), count=count,
            mu_star=threshold / F(2, 7), alpha=F(2, 7)))
        assert got is not None and len(got) == count
        for bundle in got:
            [j] = bundle.items
            assert bundle.witness == {j: inst.system.jobs[j][1]}
            assert _schedule_is_valid(inst.system, bundle.items, bundle.witness)
        singletons += count
    assert singletons >= 100, singletons
