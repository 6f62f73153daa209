"""Acceptance suite: every guarantee checked at its stated tolerance.

One test per criterion; each prints a single PASS line (run with ``-s`` to
see them).  Expensive shared work (the 500-instance corpus with exact MMS
records) is computed once per session.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from mmsalloc.adapters import (
    constrained_mms,
    solve_budget_adapter,
    solve_conflicts_adapter,
    solve_intervals_adapter,
)
from mmsalloc.bundles import BundleRequest, make_bundles_alpha
from mmsalloc.cli import main as cli_main
from mmsalloc.core import BudgetSystem, IntervalSystem
from mmsalloc.driver import (
    alpha_for_error,
    solve_alpha,
    solve_existence,
    solve_two_fifths,
)
from mmsalloc.generators import (
    gen_asymmetric_half,
    gen_random_hereditary,
    gen_three_partition,
    gen_two_thirds_bound,
)
from mmsalloc.matching import (
    envy_free_matching,
    is_envy_free,
    max_general_matching,
)
from mmsalloc.mms_oracle import compute_mms_exact, verify_allocation
from mmsalloc.valuation import ValuationOracle, oracle_for

from conftest import (
    AdversarialOracle,
    brute_envy_free_max,
    brute_max_matching_size,
    brute_member,
    brute_schedulable,
    brute_value,
    max_min_allocation_value,
    rand_budget_instance,
    rand_conflict_instance,
    rand_interval_instance,
    three_partition_decision,
)

F = Fraction
CORPUS_SIZE = 500


def _passed(number: int, label: str, started: float, extra: str = "") -> None:
    note = f" {extra}" if extra else ""
    print(f"ACCEPTANCE {number} ({label}): PASS "
          f"[{time.time() - started:.1f}s{note}]")


@pytest.fixture(scope="module")
def corpus():
    """Seeded random hereditary instances with exact MMS records."""
    entries = []
    for seed in range(CORPUS_SIZE):
        rng = random.Random(seed)
        inst = gen_random_hereditary(
            m=rng.randint(4, 10), n=rng.choice((2, 3)),
            family_density=rng.uniform(0.25, 1.0), seed=seed)
        records = {i: compute_mms_exact(inst, i) for i in range(inst.n)}
        entries.append((inst, records))
    return entries


def adversarial_factory(instance, agent, epsilon):
    return AdversarialOracle(instance.system_for(agent),
                             instance.values[agent], epsilon=epsilon)


def test_c01_gadget_tightness():
    started = time.time()
    two = gen_two_thirds_bound(2)
    assert all(compute_mms_exact(two, i).mu == 3 for i in range(2))
    best, _ = max_min_allocation_value(two)
    assert best == 2  # best possible ratio is exactly 2/3

    three = gen_two_thirds_bound(3)
    assert all(compute_mms_exact(three, i).mu == 3 for i in range(3))
    best3, _ = max_min_allocation_value(three)
    assert best3 < 3
    elapsed = time.time() - started
    assert elapsed < 60
    _passed(1, "two-thirds gadget tightness", started)


def test_c02_asymmetric_tightness():
    started = time.time()
    inst = gen_asymmetric_half(2)
    assert all(compute_mms_exact(inst, i).mu == 2 for i in range(2))
    best, _ = max_min_allocation_value(inst)
    assert best == 1  # best possible ratio is exactly 1/2
    elapsed = time.time() - started
    assert elapsed < 10
    _passed(2, "asymmetric gadget tightness", started)


def test_c03_existence_mode_corpus(corpus):
    started = time.time()
    for inst, records in corpus:
        ratio = F(inst.n, 2 * inst.n - 1)
        result = solve_existence(inst)
        report = verify_allocation(inst, result.allocation, ratio,
                                   records=records)
        assert report.ok, (inst, report)
    elapsed = time.time() - started
    assert elapsed < 600
    _passed(3, "existence mode at n/(2n-1)", started,
            f"{len(corpus)} instances")


def test_c04_two_fifths_corpus_and_gadgets(corpus):
    started = time.time()
    cases = list(corpus)
    for n in (2, 3):
        gadget = gen_two_thirds_bound(n)
        cases.append((gadget, {i: compute_mms_exact(gadget, i)
                               for i in range(n)}))
    for inst, records in cases:
        for factory in (None, adversarial_factory):
            result = solve_two_fifths(inst, oracle_factory=factory)
            report = verify_allocation(inst, result.allocation, F(2, 5),
                                       records=records)
            assert report.ok, (inst, factory, report)
            k = len(result.active_agents)
            for agent, count in result.adjustments.items():
                assert count < F(6, 5) * (k + 1) * math.log(inst.m)
                assert result.estimates.get(agent, records[agent].mu) \
                    >= records[agent].mu
    _passed(4, "2/5 mode incl. adversarial oracles", started,
            f"{len(cases)} instances x2")


def test_c05_alpha_mode_ladder(corpus):
    started = time.time()
    for index, (inst, records) in enumerate(corpus):
        plain = solve_two_fifths(inst)
        identical = solve_alpha(inst, F(0))
        assert identical.allocation == plain.allocation
        assert identical.awarded == plain.awarded
        for epsilon in (F(1, 4), F(1, 2)):
            factory = adversarial_factory if index % 5 == 0 else None
            result = solve_alpha(inst, epsilon, oracle_factory=factory)
            target = alpha_for_error(epsilon)
            assert result.alpha == target
            report = verify_allocation(inst, result.allocation, target,
                                       records=records)
            assert report.ok, (inst, epsilon, report)
    _passed(5, "alpha mode at eps in {0, 1/4, 1/2}", started,
            f"{len(corpus)} instances")


def test_c06_bundle_construction_contract():
    started = time.time()
    rng = random.Random(606)
    qualifying = 0
    attempts = 0
    while qualifying < 1000 and attempts < 4000:
        attempts += 1
        n = rng.choice((2, 3))
        m = rng.randint(4, 9)
        inst = gen_random_hereditary(m=m, n=n,
                                     family_density=rng.uniform(0.3, 1.0),
                                     seed=60_000 + attempts)
        agent = rng.randrange(n)
        mu = compute_mms_exact(inst, agent).mu
        if mu == 0:
            continue
        mu_star = mu * (1 + F(rng.randint(0, 100), 100) * F(1, 5 * n - 1))
        cap = F(3, 5) * mu_star
        items = set(range(m))
        ell = rng.randint(0, n - 1)
        for _ in range(ell):
            pool = sorted(items)
            rng.shuffle(pool)
            chosen, total = set(), F(0)
            for j in pool:
                value = inst.values[agent][j]
                if rng.random() < 0.4 and total + value <= cap:
                    chosen.add(j)
                    total += value
            items -= chosen
        epsilon = F(1, n + 1)
        if attempts % 2:
            oracle = AdversarialOracle(inst.system, inst.values[agent],
                                       epsilon=epsilon)
        else:
            oracle = oracle_for(inst, agent, epsilon=epsilon)
        got = make_bundles_alpha(BundleRequest(
            oracle=oracle, items=frozenset(items), count=n - ell,
            mu_star=mu_star))
        qualifying += 1
        assert got is not None, (attempts, n, m, mu, mu_star, ell)
        assert len(got) == n - ell
        assert all(b.value >= F(2, 5) * mu_star for b in got)
    assert qualifying >= 1000
    _passed(6, "bundle maker success contract", started,
            f"{qualifying} qualifying trials")


def test_c07_matching_oracles():
    started = time.time()
    rng = random.Random(707)
    for trial in range(500):
        n = rng.randint(1, 12)
        p = rng.random()
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < p]
        assert len(max_general_matching(n, edges)) == \
            brute_max_matching_size(n, edges)
    nonempty_checked = 0
    for trial in range(500):
        n_left, n_right = rng.randint(1, 6), rng.randint(1, 6)
        p = rng.random()
        adjacency = [[y for y in range(n_right) if rng.random() < p]
                     for _ in range(n_left)]
        matching = envy_free_matching(n_left, n_right, adjacency)
        assert is_envy_free(n_left, adjacency, matching)
        assert len(matching) == brute_envy_free_max(n_left, n_right, adjacency)
        covered = set().union(*map(set, adjacency))
        if len(covered) >= n_left:
            nonempty_checked += 1
            assert matching
    assert nonempty_checked > 50
    _passed(7, "matching vs brute force", started,
            f"1000 graphs, {nonempty_checked} Hall-type cases")


class _CountingOracle(ValuationOracle):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.exact_calls = 0

    def exact_value(self, bundle):
        self.exact_calls += 1
        return super().exact_value(bundle)


def test_c08_reduction_contract(corpus):
    started = time.time()
    rng = random.Random(808)
    queries = 0
    for inst, _records in corpus[:250]:
        agent = rng.randrange(inst.n)
        oracle = _CountingOracle(inst.system_for(agent), inst.values[agent])
        reference = oracle_for(inst, agent)
        for _ in range(3):
            bundle = frozenset(j for j in range(inst.m) if rng.random() < 0.6)
            oracle.exact_calls = 0
            reduced = oracle.reduce_to_independent(bundle)
            queries += 1
            assert oracle.exact_calls <= 2 * len(bundle) + 1
            assert reduced.items <= bundle
            assert brute_member(inst.system_for(agent), reduced.items)
            assert reduced.value == reference.exact_value(bundle)
            assert reduced.value == \
                sum((inst.values[agent][j] for j in reduced.items), F(0))
    _passed(8, "equal-value independent reduction", started,
            f"{queries} queries")


def test_c09_adapters(corpus):
    started = time.time()
    rng = random.Random(909)

    for trial in range(200):
        inst = rand_budget_instance(rng)
        report = solve_budget_adapter(inst)
        assert all(report.feasible)
        for i in range(inst.n):
            system = inst.system_for(i)
            load = sum((system.sizes[j] for j in report.allocation.bundles[i]),
                       F(0))
            assert load <= system.budget
            mu = constrained_mms(inst, i)
            value = sum((inst.values[i][j]
                         for j in report.allocation.bundles[i]), F(0))
            assert mu == 0 or value >= F(2, 5) * mu

    for trial in range(200):
        inst = rand_conflict_instance(rng)
        report = solve_conflicts_adapter(inst)
        assert report.allocation.complete and all(report.feasible)
        for i in range(inst.n):
            bundle = report.allocation.bundles[i]
            assert not any(a in bundle and b in bundle
                           for a, b in inst.system.edges)
            mu = constrained_mms(inst, i)
            value = sum((inst.values[i][j] for j in bundle), F(0))
            assert mu == 0 or value >= F(1, 2) * mu

    for trial in range(200):
        inst = rand_interval_instance(rng, m=rng.randint(3, 7))
        report = solve_intervals_adapter(inst)
        assert all(report.feasible)
        for i in range(inst.n):
            bundle = report.allocation.bundles[i]
            assert brute_schedulable(inst.system.jobs, bundle)
            assert set(report.schedules[i]) == set(bundle)
            mu = constrained_mms(inst, i)
            value = sum((inst.values[i][j] for j in bundle), F(0))
            assert mu == 0 or value >= F(2, 7) * mu

    # The oracle-side ratio contracts behind the adapters.
    for trial in range(200):
        m = rng.randint(1, 12)
        system = BudgetSystem(
            sizes=tuple(F(rng.randint(0, 9), rng.choice((1, 2)))
                        for _ in range(m)),
            budget=F(rng.randint(0, 18), rng.choice((1, 2))))
        values = tuple(F(rng.randint(0, 9), rng.choice((1, 3)))
                       for _ in range(m))
        eps = F(1, rng.randint(3, 6))
        oracle = ValuationOracle(system, values, epsilon=eps)
        bundle = frozenset(j for j in range(m) if rng.random() < 0.8)
        answer = oracle.approx_value_subset(bundle)
        assert sum((system.sizes[j] for j in answer.items), F(0)) \
            <= system.budget
        assert answer.value >= (1 - eps) * brute_value(system, values, bundle)
    for trial in range(200):
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
        assert brute_schedulable(jobs, answer.items)
        assert 2 * answer.value >= brute_value(system, values, bundle)

    _passed(9, "constraint adapters and oracle ratios", started,
            "200 instances per adapter")


def _three_partition_pool(rng, yes_target, no_target, sizes):
    """Curated multisets with a balanced YES/NO decision mix."""
    pool = []
    counts = {True: 0, False: 0}
    attempts = 0
    while (counts[True] < yes_target or counts[False] < no_target) \
            and attempts < 3000:
        attempts += 1
        n = rng.choice(sizes)
        style = rng.random()
        if style < 0.4:
            numbers = []
            target = rng.randint(6, 12)
            for _ in range(n):
                a = rng.randint(1, target - 2)
                b = rng.randint(1, target - a - 1)
                numbers += [a, b, target - a - b]
        elif style < 0.7:
            # Concentrate weight in a few numbers: usually unsplittable.
            while True:
                numbers = sorted(rng.randint(1, 4) for _ in range(3 * n - 2))
                heavy = rng.randint(6, 12)
                numbers += [heavy, heavy]
                if sum(numbers) % n == 0:
                    break
        else:
            while True:
                numbers = [rng.randint(1, 8) for _ in range(3 * n)]
                if sum(numbers) % n == 0:
                    break
        answer = three_partition_decision(numbers)
        if counts[answer] < (yes_target if answer else no_target):
            counts[answer] += 1
            pool.append((numbers, answer))
    return pool


def test_c10_three_partition_reduction():
    started = time.time()
    rng = random.Random(1010)
    pool = _three_partition_pool(rng, yes_target=30, no_target=22,
                                 sizes=(2, 2, 3))
    pool += _three_partition_pool(rng, yes_target=2, no_target=2, sizes=(4,))
    agreements = {True: 0, False: 0}
    for numbers, answer in pool:
        inst = gen_three_partition(numbers)
        mu = compute_mms_exact(inst, 0).mu
        assert (mu == 3) == answer, (numbers, mu, answer)
        agreements[answer] += 1
    assert len(pool) >= 50
    assert agreements[True] >= 20 and agreements[False] >= 20
    _passed(10, "3-PARTITION reduction agreement", started,
            f"{len(pool)} inputs ({agreements[True]} yes / "
            f"{agreements[False]} no)")


def test_c11_cli_determinism(tmp_path):
    started = time.time()
    runs = []
    for label in ("first", "second"):
        base = tmp_path / label
        base.mkdir()
        for args in (
            ["gen", "two-thirds", "--n", "2", "--out", str(base / "tt.json")],
            ["gen", "asym-half", "--n", "2", "--out", str(base / "ah.json")],
            ["gen", "random", "--m", "9", "--n", "3", "--seed", "13",
             "--out", str(base / "rand.json")],
            ["solve", str(base / "rand.json"), "--mode", "existence",
             "--certify", "--out", str(base / "ex.json")],
            ["solve", str(base / "rand.json"), "--mode", "two_fifths",
             "--certify", "--out", str(base / "tf.json"),
             "--trace", str(base / "tf.trace")],
            ["solve", str(base / "rand.json"), "--mode", "alpha",
             "--epsilon", "1/2", "--out", str(base / "al.json")],
            ["mms", str(base / "rand.json"), "--agent", "1",
             "--out", str(base / "mms.txt")],
            ["verify", str(base / "rand.json"), str(base / "tf.json"),
             "--alpha", "2/5", "--out", str(base / "ver.txt")],
        ):
            assert cli_main(list(args)) == 0
        runs.append(base)
    names = ["tt.json", "ah.json", "rand.json", "ex.json", "tf.json",
             "tf.trace", "al.json", "mms.txt", "ver.txt"]
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    _passed(11, "byte-identical CLI outputs", started, f"{len(names)} files")
