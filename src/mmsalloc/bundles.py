"""Bundle-construction strategies plugged into the lone-divider engine.

Two families: slicing an exact maximin-share witness (existence mode), and
the polynomial two-phase construction that works from an approximate oracle
and a threshold alpha * mu_star (2/5 mode and its generalisation to lossier
oracles).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .core import InsufficientBundles, Items
from .mms_oracle import MmsRecord
from .valuation import IndependentBundle, ValuationOracle

TWO_FIFTHS = Fraction(2, 5)


@dataclass(frozen=True)
class BundleRequest:
    """One construction task: k disjoint independent bundles worth
    alpha * mu_star each, drawn from ``items`` under ``oracle``."""

    oracle: ValuationOracle
    items: Items
    count: int
    mu_star: Fraction
    alpha: Fraction = TWO_FIFTHS
    exact_pairs: bool = False

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("bundle count must be non-negative")
        if self.mu_star <= 0:
            raise ValueError("mu_star must be positive")


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
        if oracle.exact_value(restricted) >= threshold:
            survivors.append(oracle.reduce_to_independent(restricted))
        if len(survivors) == count:
            break
    if len(survivors) < count:
        raise InsufficientBundles(
            f"only {len(survivors)} of {count} witness blocks kept value "
            f">= {threshold} on the remaining items")
    return survivors


def make_bundles_two_fifths(request: BundleRequest) -> list[IndependentBundle] | None:
    """Two-phase construction at threshold (2/5) * mu_star."""
    return make_bundles_alpha(replace(request, alpha=TWO_FIFTHS))


def make_bundles_alpha(request: BundleRequest) -> list[IndependentBundle] | None:
    """Two-phase construction at threshold alpha * mu_star.

    Phase one greedily carves minimal bundles holding at most one high-valued
    item each; phase two pairs up the remaining high-valued items through a
    maximum matching.  Items are scanned in ascending index order throughout.
    Returns None when fewer than the requested number of bundles exist, which
    is the legitimate signal that the caller's estimate is too high.
    """
    from .matching import max_general_matching  # local import, no cycle at module load

    oracle = request.oracle
    threshold = request.alpha * request.mu_star
    half_threshold = threshold / 2
    singleton = {j: oracle.singleton_value(j) for j in sorted(request.items)}

    high = [j for j, value in singleton.items() if value > half_threshold]
    low = {j for j, value in singleton.items() if value <= half_threshold}
    built: list[IndependentBundle] = []

    # Phase one, singletons: high items already meeting the threshold.
    for j in list(high):
        if singleton[j] >= threshold:
            built.append(IndependentBundle(items=frozenset((j,)),
                                           value=singleton[j]))
            high.remove(j)

    # Phase one, carving: one high item plus low items, minimised.
    progress = True
    while progress:
        progress = False
        for j in high:
            candidate = oracle.approx_value_subset(low | {j})
            if candidate.value < threshold:
                continue
            bundle = set(candidate.items)
            value = candidate.value
            for removable in sorted(candidate.items):
                slimmer = value - oracle.values[removable]
                if slimmer >= threshold:
                    bundle.discard(removable)
                    value = slimmer
            kept = frozenset(bundle)
            assert len(kept) == 1 or value < 3 * half_threshold, \
                "phase-one bundle exceeds its value cap"
            built.append(IndependentBundle(items=kept, value=value))
            high = [h for h in high if h not in kept]
            low -= kept
            progress = True
            break

    # Phase two: pairs of high items reaching the threshold together.
    index_of = {j: t for t, j in enumerate(high)}
    edges = []
    for a_pos, j1 in enumerate(high):
        for j2 in high[a_pos + 1:]:
            if request.exact_pairs:
                qualifies = (oracle.pair_independent(j1, j2)
                             and singleton[j1] + singleton[j2] >= threshold)
            else:
                answer = oracle.approx_value_subset(frozenset((j1, j2)))
                qualifies = answer.value >= threshold
            if qualifies:
                edges.append((index_of[j1], index_of[j2]))
    for a_pos, b_pos in max_general_matching(len(high), edges):
        pair = frozenset((high[a_pos], high[b_pos]))
        built.append(IndependentBundle(items=pair,
                                       value=oracle.additive_value(pair)))

    for bundle in built:
        assert oracle.is_independent(bundle.items)
        assert bundle.value >= threshold
    claimed: set[int] = set()
    for bundle in built:
        assert claimed.isdisjoint(bundle.items)
        claimed.update(bundle.items)

    if len(built) < request.count:
        return None
    return built[:request.count]
