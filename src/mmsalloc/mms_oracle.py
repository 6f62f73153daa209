"""Brute-force ground truth: exact maximin shares, witnesses, verification.

Everything here enumerates exhaustively (with symmetry and bound pruning) and
is gated by item count.  The existence mode (``solve_existence``, and through
it the conflicts adapter) builds its bundles from these maximin partitions,
and ``adapters.constrained_mms`` runs the same search over feasible bundles;
otherwise this module checks the solvers' guarantees at desk scale.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .core import (
    ZERO,
    Allocation,
    BruteForceGateExceeded,
    ExactnessGateExceeded,
    Instance,
    Items,
)
from .valuation import ValuationOracle, oracle_for, singleton_weights

DEFAULT_MMS_GATE = 12
SEARCH_DEPTH_LIMIT = 500


class MmsRecord(NamedTuple):
    """Exact maximin share of one agent with a witnessing partition."""

    agent: int
    mu: Fraction
    witness: tuple[Items, ...]


class MmsBounds(NamedTuple):
    """Singleton-derived bracket: lower <= mu <= upper.

    Both bounds are 0 with the flag set when there are fewer items than
    agents, in which case the maximin share itself is 0.
    """

    lower: Fraction
    upper: Fraction
    fewer_items_than_agents: bool = False


class AgentCheck(NamedTuple):
    agent: int
    value: Fraction | None
    mu: Fraction | None
    ratio: Fraction | None
    ok: bool
    reason: str | None = None


class VerificationReport(NamedTuple):
    alpha: Fraction
    checks: tuple[AgentCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)


def _mask_items(mask: int) -> Items:
    items = []
    while mask:  # one step per set bit, lowest first
        low = mask & -mask
        items.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(items)


def _on_masks(fn):
    """``fn`` on item sets as a memoized function on item bitmasks."""
    return functools.cache(lambda mask: fn(_mask_items(mask)))


def _best_min_assignment(items, value_fn, weights, holders, *, gate,
                         feasible=None, allow_discard=False):
    """Maximise the minimum holder value over assignments of items to holders.

    All ``holders`` holders value what they hold by ``value_fn``, an integer
    value function on item sets; ``weights`` are per-item integer weights
    that upper-bound each item's marginal contribution to that value (they
    drive the bound pruning).  Items are placed heaviest first, ties by
    index; holders are interchangeable, so an item tries the non-empty
    holders and then only the first empty one.  ``feasible`` (on item sets)
    restricts holdings hereditarily; ``allow_discard`` lets an item go to no
    holder.

    Without ``feasible`` the best value starts one below that of Graham's
    LPT greedy (each item in turn to the holder of least weight), so the
    first optimal leaf is still the one returned.  Nodes and leaves that
    cannot beat the best value are cut, evaluating no more holders.

    The search recurses once per item, so past SEARCH_DEPTH_LIMIT items, as
    past ``gate``, it raises BruteForceGateExceeded.  Returns (best min
    value, holder masks) or None when no assignment is feasible.
    """
    if gate < 0:
        raise ValueError(f"the brute-force gate must be non-negative, not {gate}")
    limit = min(gate, SEARCH_DEPTH_LIMIT)
    if len(items) > limit:
        raise BruteForceGateExceeded(
            f"{len(items)} items exceed the brute-force gate {limit}")
    order = sorted(items, key=lambda j: (-weights[j], j))
    k = len(order)
    suffix = [0] * (k + 1)
    for t in reversed(range(k)):
        suffix[t] = suffix[t + 1] + weights[order[t]]
    mask_value = _on_masks(value_fn)
    fits = None if feasible is None else _on_masks(feasible)

    # Values are non-negative, so -1 lets the first leaf in.
    best_value = -1
    best_masks: list[int] | None = None
    masks = [0] * holders
    held = [0] * holders
    if feasible is None:
        greedy, load = [0] * holders, [0] * holders
        for j in order:
            h = load.index(min(load))
            greedy[h] |= 1 << j
            load[h] += weights[j]
        if 0 not in greedy:
            best_value = min(map(mask_value, greedy)) - 1

    def descend(t: int) -> None:
        nonlocal best_value, best_masks
        if min(held) + suffix[t] <= best_value:
            return
        if t == k:
            # An empty holder passes the cut only while best_value is -1.
            value = 0 if 0 in masks else math.inf
            if value:
                for mask in masks:
                    value = min(value, mask_value(mask))
                    if value <= best_value:
                        return
            best_value, best_masks = value, list(masks)
            return
        bit = 1 << order[t]
        weight = weights[order[t]]
        for h in range(holders):
            mask = masks[h]
            if fits is None or fits(mask | bit):
                masks[h] = mask | bit
                held[h] += weight
                descend(t + 1)
                masks[h] = mask
                held[h] -= weight
            if not mask:
                break
        if allow_discard:
            descend(t + 1)

    descend(0)
    if best_masks is None:
        return None
    return best_value, best_masks


def compute_mms_exact(instance: Instance, agent: int, *,
                      gate: int = DEFAULT_MMS_GATE,
                      oracle: ValuationOracle | None = None) -> MmsRecord:
    """Exact maximin share of ``agent`` over n blocks, with witness."""
    if instance.n < 1:
        raise ValueError("the maximin share needs at least one block")
    if oracle is None:
        oracle = oracle_for(instance, agent)
    # A maximin partition: an assignment to n holders sharing one valuation.
    mu, blocks = _best_min_assignment(
        range(instance.m), oracle.exact_weight, oracle.singleton_weights,
        instance.n, gate=gate)
    witness = tuple(_mask_items(mask) for mask in blocks)
    return MmsRecord(agent=agent, mu=Fraction(mu, oracle.scale), witness=witness)


def mms_bounds(instance: Instance, agent: int) -> MmsBounds:
    """Bracket the maximin share from the n-th most valuable item.

    The n-th largest singleton oracle value w satisfies w <= mu <= m * w.
    """
    n, m = instance.n, instance.m
    if m < n:
        return MmsBounds(ZERO, ZERO, fewer_items_than_agents=True)
    # A singleton that is not independent is worth an int 0.
    pivot = Fraction(sorted(singleton_weights(
        instance.system_for(agent), instance.values[agent]))[m - n])
    return MmsBounds(lower=pivot, upper=m * pivot)


def verify_allocation(instance: Instance, allocation: Allocation,
                      alpha: Fraction, *,
                      records: dict[int, MmsRecord] | None = None,
                      gate: int = DEFAULT_MMS_GATE) -> VerificationReport:
    """Per-agent check that the allocation reaches alpha times the MMS.

    Value and MMS are each None past their gate.  MMS 0 passes whatever the
    value; any other agent missing either fails explicitly, never skipped,
    with the value's gate named first.  A negative alpha is refused.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, not {alpha}")
    checks = []
    for agent in range(instance.n):
        oracle = oracle_for(instance, agent)
        record = records.get(agent) if records else None
        value = reason = None
        try:
            value = oracle.exact_value(allocation.bundles[agent])
        except ExactnessGateExceeded as exc:
            reason = str(exc)
        if record is None:
            try:
                record = compute_mms_exact(instance, agent, gate=gate,
                                           oracle=oracle)
            except (BruteForceGateExceeded, ExactnessGateExceeded) as exc:
                reason = reason or str(exc)
        mu = None if record is None else record.mu
        if mu == 0 or value is None or mu is None:
            checks.append(AgentCheck(agent=agent, value=value, mu=mu,
                                     ratio=None, ok=mu == 0,
                                     reason=None if mu == 0 else reason))
        else:
            checks.append(AgentCheck(agent=agent, value=value, mu=mu,
                                     ratio=value / mu, ok=value >= alpha * mu))
    return VerificationReport(alpha=alpha, checks=tuple(checks))
