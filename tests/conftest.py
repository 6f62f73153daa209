"""Shared test helpers: independent brute-force references, an adversarial
oracle, and samplers.

Every reference here recomputes from the definitions along a different code
path than the library (permutation search instead of DP, subset enumeration
instead of DP and branch and bound), so agreement is meaningful.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from mmsalloc.core import (
    BudgetSystem,
    ConflictSystem,
    ExactnessGateExceeded,
    ExplicitSystem,
    FreeSystem,
    Instance,
    IntervalSystem,
    validate_instance,
)
from mmsalloc.valuation import IndependentBundle, ValuationOracle, oracle_for

F = Fraction


# ---------------------------------------------------------------------------
# Membership and value straight from the definitions
# ---------------------------------------------------------------------------

def brute_member(system, items) -> bool:
    items = frozenset(items)
    if not items or isinstance(system, FreeSystem):
        return True
    if isinstance(system, ExplicitSystem):
        return any(items <= s for s in system.maximal_sets)
    if isinstance(system, BudgetSystem):
        return sum((system.sizes[j] for j in items), F(0)) <= system.budget
    if isinstance(system, ConflictSystem):
        return not any(a in items and b in items for a, b in system.edges)
    if isinstance(system, IntervalSystem):
        return brute_schedulable(system.jobs, items)
    raise TypeError(system)


def brute_schedulable(jobs, subset) -> bool:
    """Feasibility by trying every execution order."""
    subset = sorted(subset)
    if not subset:
        return True
    for order in itertools.permutations(subset):
        last = 0
        for j in order:
            p, r, d = jobs[j]
            start = max(r, last + 1)
            if start + p - 1 > d:
                break
            last = start + p - 1
        else:
            return True
    return False


def schedule_fits(jobs, subset, starts) -> bool:
    """Whether ``starts`` runs exactly the jobs of ``subset``, each inside its
    window and no two in one slot, checked slot by slot."""
    if starts is None or set(starts) != set(subset):
        return False
    taken: set[int] = set()
    for j, start in starts.items():
        p, r, d = jobs[j]
        slots = set(range(start, start + p))
        if start < r or start + p - 1 > d or slots & taken:
            return False
        taken |= slots
    return True


def brute_value(system, values, items) -> Fraction:
    """Max additive value over independent subsets, by full enumeration."""
    items = sorted(items)
    best = F(0)
    for r in range(len(items) + 1):
        for comb in itertools.combinations(items, r):
            if brute_member(system, comb):
                best = max(best, sum((values[j] for j in comb), F(0)))
    return best


def brute_mms(instance, agent, parts=None) -> Fraction:
    """Max-min over every labelled assignment of items to blocks."""
    parts = instance.n if parts is None else parts
    system = instance.system_for(agent)
    values = instance.values[agent]
    best = F(0)
    for labels in itertools.product(range(parts), repeat=instance.m):
        blocks = [[j for j in range(instance.m) if labels[j] == b]
                  for b in range(parts)]
        best = max(best, min(brute_value(system, values, b) for b in blocks))
    return best


def max_min_allocation_value(instance):
    """Best min bundle value over every complete allocation, by enumerating
    every labelling of items with agents.  Bundle values are the library's
    exact values, memoized per agent and bundle bitmask; only the pruned
    search is replaced.  Returns (best min value, witness bundles)."""
    n, m = instance.n, instance.m
    if n == 0:
        return F(0), ()

    def bundle(mask):
        return frozenset(j for j in range(m) if mask >> j & 1)

    values = [functools.cache(lambda mask, oracle=oracle_for(instance, i):
                              oracle.exact_value(bundle(mask)))
              for i in range(n)]
    best = None
    for labels in itertools.product(range(n), repeat=m):
        masks = [0] * n
        for j, agent in enumerate(labels):
            masks[agent] |= 1 << j
        value = min(values[i](masks[i]) for i in range(n))
        if best is None or value > best[0]:
            best = (value, masks)
    return best[0], tuple(map(bundle, best[1]))


def three_partition_decision(numbers) -> bool:
    """Direct backtracking decision for 3-PARTITION, independent of the MMS path."""
    numbers = list(numbers)
    if len(numbers) % 3 != 0 or not numbers:
        return False
    n = len(numbers) // 3
    total = sum(numbers)
    if total % n != 0:
        return False
    target = total // n
    order = sorted(range(len(numbers)), key=lambda j: -numbers[j])
    used = [False] * len(numbers)

    def fill(remaining_triples: int) -> bool:
        if remaining_triples == 0:
            return True
        first = next(j for j in order if not used[j])
        used[first] = True
        rest = [j for j in order if not used[j]]
        for t2 in range(len(rest)):
            j2 = rest[t2]
            if numbers[first] + numbers[j2] > target:
                continue
            for t3 in range(t2 + 1, len(rest)):
                j3 = rest[t3]
                if numbers[first] + numbers[j2] + numbers[j3] == target:
                    used[j2] = used[j3] = True
                    if fill(remaining_triples - 1):
                        return True
                    used[j2] = used[j3] = False
        used[first] = False
        return False

    return fill(n)


# ---------------------------------------------------------------------------
# An oracle at the edge of its contract
# ---------------------------------------------------------------------------

class AdversarialOracle(ValuationOracle):
    """Answers subset queries as badly as the error bound allows.

    Returns the minimum-value independent subset whose value still reaches
    (1 - epsilon) times the true bundle value, so downstream consumers are
    exercised at the exact boundary of the oracle contract.  Only the
    uncached query is overridden, so the memo and goal rules still apply.
    """

    ENUMERATION_GATE = 16

    def _approx_value_subset(self, items, goal):
        if len(items) > self.ENUMERATION_GATE:
            raise ExactnessGateExceeded(
                f"adversarial enumeration over {len(items)} items exceeds the "
                f"gate {self.ENUMERATION_GATE}")
        bound = (1 - self.epsilon) * self.exact_weight(items)  # on the weight scale
        ordered = sorted(items)
        best = None
        for mask in range(1 << len(ordered)):
            subset = frozenset(ordered[t] for t in range(len(ordered))
                               if mask >> t & 1)
            weight = self.additive_weight(subset)
            if weight < bound or not self.is_independent(subset):
                continue
            key = (weight, tuple(sorted(subset)))
            if best is None or key < best:
                best = key
        assert best is not None  # the reduced optimum always qualifies
        return IndependentBundle(frozenset(best[1]), best[0], self.scale)


# ---------------------------------------------------------------------------
# Matching references
# ---------------------------------------------------------------------------

def brute_max_matching_size(n, edges) -> int:
    edges = sorted({(min(a, b), max(a, b)) for a, b in edges if a != b})
    best = 0

    def grow(idx, used, size):
        nonlocal best
        best = max(best, size)
        for t in range(idx, len(edges)):
            a, b = edges[t]
            if a not in used and b not in used:
                grow(t + 1, used | {a, b}, size + 1)

    grow(0, frozenset(), 0)
    return best


def brute_envy_free_max(n_left, n_right, adjacency) -> int:
    """Max size over all matchings whose unmatched left vertices see no
    matched right vertex."""
    best = 0

    def extend(x, used_right, pairs):
        nonlocal best
        if x == n_left:
            matched_left = {a for a, _ in pairs}
            matched_right = {b for _, b in pairs}
            for other in range(n_left):
                if other not in matched_left and \
                        not matched_right.isdisjoint(adjacency[other]):
                    return
            best = max(best, len(pairs))
            return
        extend(x + 1, used_right, pairs)
        for y in adjacency[x]:
            if y not in used_right:
                extend(x + 1, used_right | {y}, pairs + [(x, y)])

    extend(0, frozenset(), [])
    return best


# ---------------------------------------------------------------------------
# Instance samplers (all deterministic in the seed)
# ---------------------------------------------------------------------------

def rand_values(rng, n, m, hi=6):
    return tuple(tuple(F(rng.randint(0, hi), rng.choice((1, 1, 2, 3)))
                       for _ in range(m)) for _ in range(n))


def rand_budget_instance(rng, m=None, n=None, entitled=True):
    m = m if m is not None else rng.randint(3, 8)
    n = n if n is not None else rng.choice((2, 3))
    sizes = tuple(F(rng.randint(1, 5)) for _ in range(m))
    if entitled:
        from mmsalloc.core import EntitledSpec
        budgets = sorted(F(rng.randint(2, 12)) for _ in range(n))
        spec = EntitledSpec(
            systems=tuple(BudgetSystem(sizes=sizes, budget=b) for b in budgets),
            ordering=tuple(range(n)))
    else:
        spec = BudgetSystem(sizes=sizes, budget=F(rng.randint(2, 12)))
    return validate_instance(
        Instance(n=n, m=m, values=rand_values(rng, n, m), system=spec))


def rand_conflict_instance(rng, m=None, density=0.25):
    m = m if m is not None else rng.randint(3, 8)
    edges = [(a, b) for a in range(m) for b in range(a + 1, m)
             if rng.random() < density]
    system = ConflictSystem.normalize(edges)
    degree = [0] * m
    for a, b in system.edges:
        degree[a] += 1
        degree[b] += 1
    n = min(m, max(degree, default=0) + 1 + rng.randint(0, 1))
    return validate_instance(
        Instance(n=n, m=m, values=rand_values(rng, n, m), system=system))


def rand_interval_instance(rng, m=None, n=None):
    m = m if m is not None else rng.randint(3, 7)
    n = n if n is not None else 2
    jobs = []
    for _ in range(m):
        p = rng.randint(1, 2)
        r = rng.randint(1, 4)
        jobs.append((p, r, r + p - 1 + rng.randint(0, 3)))
    return validate_instance(
        Instance(n=n, m=m, values=rand_values(rng, n, m),
                 system=IntervalSystem(jobs=tuple(jobs))))
