"""Brute-force ground truth: exact maximin shares, witnesses, verification.

Everything here enumerates exhaustively (with symmetry and bound pruning) and
is gated by item count.  The solvers never call into this module; it exists
so that every guarantee they claim can be checked against an independent
computation at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    ZERO,
    Allocation,
    BruteForceGateExceeded,
    Instance,
    Items,
)
from .valuation import ValuationOracle, oracle_for

DEFAULT_MMS_GATE = 12


@dataclass(frozen=True)
class MmsRecord:
    """Exact maximin share of one agent with a witnessing partition."""

    agent: int
    mu: Fraction
    witness: tuple[Items, ...]


@dataclass(frozen=True)
class MmsBounds:
    """Singleton-derived bracket: lower <= mu <= upper.

    Both bounds are 0 with the flag set when there are fewer items than
    agents, in which case the maximin share itself is 0.
    """

    lower: Fraction
    upper: Fraction
    fewer_items_than_agents: bool = False


@dataclass(frozen=True)
class AgentCheck:
    agent: int
    value: Fraction | None
    mu: Fraction | None
    ratio: Fraction | None
    ok: bool
    reason: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    alpha: Fraction
    checks: tuple[AgentCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def gate_hit(self) -> bool:
        """Some agent's MMS was past the brute-force gate, so it is unverified."""
        return any(check.mu is None for check in self.checks)


def _mask_items(mask: int) -> Items:
    items = set()
    j = 0
    while mask:
        if mask & 1:
            items.add(j)
        mask >>= 1
        j += 1
    return frozenset(items)


def maximin_partition(item_order, parts, value_fn, weights, *,
                      feasible_fn=None, allow_discard=False):
    """Maximise the minimum block value over partitions into ``parts`` blocks.

    Blocks are interchangeable, so the search assigns items (in the given
    order) only to already-used blocks plus one fresh block.  ``weights`` must
    upper-bound each item's marginal contribution to any block value, which
    drives the bound pruning.  ``feasible_fn`` (on bitmasks over item ids)
    restricts blocks hereditarily; ``allow_discard`` adds an unconstrained
    spill block that never counts towards the minimum.

    Returns (best min value, block masks) or None when no assignment satisfies
    the feasibility predicate.
    """
    k = len(item_order)
    suffix = [ZERO] * (k + 1)
    for t in reversed(range(k)):
        suffix[t] = suffix[t + 1] + weights[item_order[t]]

    value_cache: dict[int, Fraction] = {0: ZERO}

    def block_value(mask: int) -> Fraction:
        cached = value_cache.get(mask)
        if cached is None:
            cached = value_fn(_mask_items(mask))
            value_cache[mask] = cached
        return cached

    best_mu: Fraction | None = None
    best_blocks: list[int] | None = None
    block_masks = [0] * parts
    block_weight = [ZERO] * parts

    def descend(t: int, used: int) -> None:
        nonlocal best_mu, best_blocks
        if t == k:
            if used < parts:
                mu = ZERO
            else:
                mu = min(block_value(mask) for mask in block_masks)
            if best_mu is None or mu > best_mu:
                best_mu = mu
                best_blocks = list(block_masks)
            return
        if best_mu is not None:
            rem = suffix[t]
            if min(w + rem for w in block_weight) <= best_mu:
                return
        j = item_order[t]
        bit = 1 << j
        for b in range(min(used + 1, parts)):
            new_mask = block_masks[b] | bit
            if feasible_fn is not None and not feasible_fn(new_mask):
                continue
            block_masks[b] = new_mask
            block_weight[b] += weights[j]
            descend(t + 1, max(used, b + 1))
            block_masks[b] ^= bit
            block_weight[b] -= weights[j]
        if allow_discard:
            descend(t + 1, used)

    descend(0, 0)
    if best_blocks is None:
        return None
    return best_mu, best_blocks


def compute_mms_exact(instance: Instance, agent: int, parts: int | None = None,
                      *, gate: int = DEFAULT_MMS_GATE,
                      oracle: ValuationOracle | None = None) -> MmsRecord:
    """Exact maximin share of ``agent`` over ``parts`` blocks, with witness."""
    if instance.m > gate:
        raise BruteForceGateExceeded(
            f"{instance.m} items exceed the brute-force gate {gate}")
    if parts is None:
        parts = instance.n
    if parts < 1:
        raise ValueError("the maximin share needs at least one block")
    if oracle is None:
        oracle = oracle_for(instance, agent)
    weights = [oracle.singleton_value(j) for j in range(instance.m)]
    order = sorted(range(instance.m), key=lambda j: (-weights[j], j))
    result = maximin_partition(order, parts, oracle.exact_value, weights)
    assert result is not None
    mu, blocks = result
    witness = tuple(_mask_items(mask) for mask in blocks)
    return MmsRecord(agent=agent, mu=mu, witness=witness)


def mms_bounds(instance: Instance, agent: int, *,
               oracle: ValuationOracle | None = None) -> MmsBounds:
    """Bracket the maximin share from the n-th most valuable item.

    The n-th largest singleton oracle value w satisfies w <= mu <= m * w.
    """
    n, m = instance.n, instance.m
    if m < n:
        return MmsBounds(ZERO, ZERO, fewer_items_than_agents=True)
    if oracle is None:
        oracle = oracle_for(instance, agent)
    singleton_values = sorted(
        (oracle.singleton_value(j) for j in range(m)), reverse=True)
    pivot = singleton_values[n - 1]
    return MmsBounds(lower=pivot, upper=m * pivot)


def verify_allocation(instance: Instance, allocation: Allocation,
                      alpha: Fraction, *,
                      records: dict[int, MmsRecord] | None = None,
                      gate: int = DEFAULT_MMS_GATE) -> VerificationReport:
    """Per-agent check that the allocation reaches alpha times the MMS.

    Agents whose exact MMS is unavailable (gate exceeded, no record supplied)
    fail their check explicitly instead of being silently skipped.
    """
    checks = []
    for agent in range(instance.n):
        bundle = allocation.bundles[agent]
        oracle = oracle_for(instance, agent)
        value = oracle.exact_value(bundle)
        record = records.get(agent) if records else None
        if record is None:
            try:
                record = compute_mms_exact(instance, agent, gate=gate,
                                           oracle=oracle)
            except BruteForceGateExceeded:
                checks.append(AgentCheck(agent=agent, value=value, mu=None,
                                         ratio=None, ok=False,
                                         reason="mms gate exceeded and no "
                                                "record supplied"))
                continue
        mu = record.mu
        if mu == 0:
            checks.append(AgentCheck(agent=agent, value=value, mu=mu,
                                     ratio=None, ok=True))
            continue
        ratio = value / mu
        checks.append(AgentCheck(agent=agent, value=value, mu=mu, ratio=ratio,
                                 ok=value >= alpha * mu))
    return VerificationReport(alpha=alpha, checks=tuple(checks))


def max_min_allocation_value(instance: Instance, *,
                             gate: int = DEFAULT_MMS_GATE):
    """Exhaustive best min bundle value over all complete allocations.

    Agents with identical valuations are interchangeable, so within each such
    group an item may only start the lowest-indexed still-empty agent.
    Returns (best min value, witness bundles).
    """
    if instance.m > gate:
        raise BruteForceGateExceeded(
            f"{instance.m} items exceed the brute-force gate {gate}")
    n, m = instance.n, instance.m
    if n == 0:
        return ZERO, ()
    oracles = [oracle_for(instance, i) for i in range(n)]
    weights = [[oracles[i].singleton_value(j) for j in range(m)]
               for i in range(n)]

    signature = [(instance.values[i], instance.system_for(i)) for i in range(n)]
    group_of: dict = {}
    groups: list[list[int]] = []
    group_index = [0] * n
    for i in range(n):
        g = group_of.get(signature[i])
        if g is None:
            g = len(groups)
            group_of[signature[i]] = g
            groups.append([])
        groups[g].append(i)
        group_index[i] = g

    order = sorted(range(m),
                   key=lambda j: (-max(weights[i][j] for i in range(n)), j))
    suffix = [[ZERO] * (m + 1) for _ in range(n)]
    for i in range(n):
        for t in reversed(range(m)):
            suffix[i][t] = suffix[i][t + 1] + weights[i][order[t]]

    masks = [0] * n
    held_weight = [ZERO] * n
    best_value: Fraction | None = None
    best_masks: list[int] | None = None
    caches: list[dict[int, Fraction]] = [{0: ZERO} for _ in range(n)]

    def agent_value(i: int, mask: int) -> Fraction:
        cached = caches[i].get(mask)
        if cached is None:
            cached = oracles[i].exact_value(_mask_items(mask))
            caches[i][mask] = cached
        return cached

    def descend(t: int) -> None:
        nonlocal best_value, best_masks
        if t == m:
            value = min(agent_value(i, masks[i]) for i in range(n))
            if best_value is None or value > best_value:
                best_value = value
                best_masks = list(masks)
            return
        if best_value is not None:
            if min(held_weight[i] + suffix[i][t] for i in range(n)) <= best_value:
                return
        j = order[t]
        bit = 1 << j
        for i in range(n):
            if masks[i] == 0:
                g = group_index[i]
                first_empty = next(a for a in groups[g] if masks[a] == 0)
                if i != first_empty:
                    continue
            masks[i] |= bit
            held_weight[i] += weights[i][j]
            descend(t + 1)
            masks[i] ^= bit
            held_weight[i] -= weights[i][j]

    descend(0)
    assert best_value is not None and best_masks is not None
    return best_value, tuple(_mask_items(mask) for mask in best_masks)
