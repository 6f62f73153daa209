"""Bundle-construction strategies plugged into the lone-divider engine.

Two families: slicing an exact maximin-share witness (existence mode), and
the polynomial two-phase construction that works from an approximate oracle
and a threshold alpha * mu_star (2/5 mode and its generalisation to lossier
oracles).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .core import InsufficientBundles, IntervalSystem, Items
from .matching import max_general_matching
from .mms_oracle import MmsRecord
from .valuation import IndependentBundle, ValuationOracle, _interval_witness, _schedule_is_valid

TWO_FIFTHS = Fraction(2, 5)


class BundleRequest(NamedTuple("BundleRequest", [
        ("oracle", ValuationOracle), ("items", Items), ("count", int),
        ("mu_star", Fraction), ("alpha", Fraction)])):
    """One construction task: k disjoint independent bundles worth
    alpha * mu_star each, drawn from ``items`` under ``oracle``.  Building
    one checks count and mu_star; ``_replace`` copies without the check."""

    __slots__ = ()

    def __new__(cls, oracle, items, count, mu_star, alpha=TWO_FIFTHS):
        if count < 0:
            raise ValueError("bundle count must be non-negative")
        if mu_star.numerator <= 0:
            raise ValueError("mu_star must be positive")
        return super().__new__(cls, oracle, items, count, mu_star, alpha)


def bundles_from_mms_partition(oracle: ValuationOracle, record: MmsRecord,
                               items: Items, count: int,
                               threshold: Fraction) -> list[IndependentBundle]:
    """Slice a maximin-share witness into k independent bundles worth
    at least ``threshold`` after restriction to the remaining ``items``.

    Raises InsufficientBundles when fewer than ``count`` witness blocks
    survive the restriction; under the existence guarantees that signals a
    broken caller invariant, not a recoverable state.
    """
    survivors = []
    for block in record.witness:
        restricted = block & items
        if oracle.exact_weight(restricted) * threshold.denominator \
                >= threshold.numerator * oracle.scale:
            survivors.append(oracle.reduce_to_independent(restricted))
        if len(survivors) == count:
            break
    if len(survivors) < count:
        raise InsufficientBundles(
            f"agent {record.agent + 1}: only {len(survivors)} of {count} "
            f"witness blocks kept value >= {threshold} on the remaining items")
    return survivors


def make_bundles_alpha(request: BundleRequest) -> list[IndependentBundle] | None:
    """Two-phase construction at threshold alpha * mu_star.

    Phase one greedily carves minimal bundles holding at most one high-valued
    item each; phase two pairs up the remaining high-valued items through a
    maximum matching.  Items are scanned in ascending index order throughout.
    Interval bundles carry their schedule: a carved one restricts its query's,
    a singleton starts at its release and a pair takes the exact scheduler's.
    Explicit bundles carry a maximal set holding them, a carved one its answer's.
    Returns None when fewer than the requested number of bundles exist, which
    is the legitimate signal that the caller's estimate is too high.
    """
    oracle, count = request.oracle, request.count
    weights, weight_of = oracle.weights, oracle.additive_weight
    # On the oracle's integer scale alpha * mu_star is t = t_num / t_den; an
    # integer weight w reaches t when w >= goal, and w <= t/2 when w <= half.
    alpha, mu_star = request.alpha, request.mu_star
    t_num = alpha.numerator * mu_star.numerator * oracle.scale
    t_den = alpha.denominator * mu_star.denominator
    goal, half = -(-t_num // t_den), t_num // (2 * t_den)
    singleton = oracle.singleton_weights
    jobs = oracle.system.jobs if isinstance(oracle.system, IntervalSystem) else None

    # Phase one, singletons: items already meeting the threshold are built;
    # the rest are high (worth more than half of it) or low.
    built: list[tuple[Items, int, dict | Items | None]] = []  # (bundle, weight, witness)
    high, low = [], set()
    for j in sorted(request.items):
        if singleton[j] <= half:
            low.add(j)
        elif singleton[j] < goal:
            high.append(j)
        else:
            built.append((frozenset((j,)), weights[j],
                          {j: jobs[j][1]} if jobs is not None else oracle.holder((j,))))

    # Phase one, carving: one high item plus low items, minimised, in one
    # ascending pass that stops once count bundles are built.  An item whose
    # answer falls short is not asked again: low only shrinks, so that answer
    # still bounds OPT(low | {j}) < t/(1-eps).  A query weighing less than t
    # in all is short unasked, as its answer is a subset of it.  Each query
    # asks only whether some subset reaches t, so it passes t as its goal.
    # An answer is a subset of low | {j}, so j is the only high item it holds.
    low_weight = weight_of(low)
    for j in high[:]:
        while len(built) < count and low_weight + weights[j] >= goal:
            candidate = oracle.approx_value_subset(low | {j}, goal=goal)
            weight = candidate.weight
            if weight < goal:
                break
            kept = []
            for item in sorted(candidate.items):
                if weight - weights[item] >= goal:
                    weight -= weights[item]
                else:
                    kept.append(item)
            assert len(kept) == 1 or 2 * weight * t_den < 3 * t_num, \
                "phase-one bundle exceeds its value cap"
            witness = candidate.witness
            built.append((frozenset(kept), weight, {i: witness[i] for i in kept}
                          if isinstance(witness, dict) else witness))
            low.difference_update(kept)
            if j in kept:
                high.remove(j)
                low_weight -= weight - weights[j]
                break
            low_weight -= weight

    # Phase two: two high items always reach the threshold together, so a
    # pair qualifies exactly when it is independent.  Up to error 1/3 an
    # approximate query answers the same: with t/2 < w2 <= w1 < t, one item
    # weighs w1 < (2/3)(w1 + w2), so the answer to an independent pair is
    # the pair itself.  Above 1/3 it may keep one item, so ask exactly.
    # No pair is asked when the bundles suffice or pairing all cannot.  An
    # interval pair is decided by its schedule, which a matched pair carries.
    if len(built) < count <= len(built) + len(high) // 2:
        answers = {(a, b): _interval_witness(oracle.system, (high[a], high[b]))
                   if jobs is not None else oracle.pair_independent(high[a], high[b])
                   for a in range(len(high)) for b in range(a + 1, len(high))}
        for a_pos, b_pos in max_general_matching(
                len(high), [edge for edge, answer in answers.items() if answer]):
            pair = frozenset((high[a_pos], high[b_pos]))
            built.append((pair, weight_of(pair), answers[a_pos, b_pos]
                          if jobs is not None else oracle.holder(pair)))

    claimed: set[int] = set()
    for items, weight, witness in built:
        assert (oracle.is_independent(items) if witness is None else
                _schedule_is_valid(oracle.system, items, witness) if jobs is not None else
                items <= witness and witness in oracle.system.maximal_sets)
        assert weight >= goal
        assert claimed.isdisjoint(items)
        claimed.update(items)

    if len(built) < count:
        return None
    return [IndependentBundle(items, weight, oracle.scale, witness)
            for items, weight, witness in built[:count]]
