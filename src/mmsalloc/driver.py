"""Top-level solvers.

* ``solve_existence`` slices exact maximin-share witnesses (brute force, so
  desk scale only) and guarantees every agent n/(2n-1) of her MMS.
* The polynomial modes share one pipeline: estimate each agent's MMS from
  singleton values, shrink each estimate until her two-phase bundle maker
  builds k bundles from all items (k active agents), then run the lone
  divider, shrinking a divider who fails in a later round until a run
  succeeds.  ``solve_two_fifths`` and ``solve_entitled`` guarantee 2/5 with
  oracle error at most 1/(k+1); ``solve_alpha`` guarantees
  (1-eps)/(1+(3/2)(1-eps)) at error bound eps and is the 2/5 mode at eps 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .bundles import (
    TWO_FIFTHS,
    BundleRequest,
    bundles_from_mms_partition,
    make_bundles_alpha,
)
from .core import (
    ONE,
    Allocation,
    EpsilonOutOfRange,
    Instance,
    Items,
    UnsupportedSystem,
)
from .divider import DividerOutcome, lone_divider, lone_divider_entitled
from .mms_oracle import DEFAULT_MMS_GATE, MmsRecord, compute_mms_exact
from .valuation import (APPROXIMATE_ERRORS, DEFAULT_GATES, IndependentBundle,
                        oracle_for, singleton_weights)


class SolveResult(NamedTuple):
    mode: str
    alpha: Fraction
    allocation: Allocation
    awarded: dict[int, IndependentBundle]
    active_agents: tuple[int, ...]
    thresholds: dict[int, Fraction]
    estimates: dict[int, Fraction]
    adjustments: dict[int, int]
    runs: tuple[DividerOutcome, ...]
    # Exact shares of an existence solve, for certificates to reuse; the
    # polynomial modes' estimates are not shares, so they leave it empty.
    records: dict[int, MmsRecord]


def alpha_for_error(epsilon: Fraction) -> Fraction:
    """Guaranteed ratio (1-eps)/(1+(3/2)(1-eps)) = 2(b-a)/(5b-3a) at error a/b."""
    a, b = epsilon.as_integer_ratio()
    if not 0 <= a < b:
        raise EpsilonOutOfRange(f"error bound {epsilon} not in [0, 1)")
    return Fraction(2 * (b - a), 5 * b - 3 * a)


def _assemble(instance, mode, alpha, awarded, active, thresholds, estimates,
              adjustments, runs) -> SolveResult:
    bundles = tuple(awarded[i].items if i in awarded else frozenset()
                    for i in range(instance.n))
    claimed = frozenset().union(*bundles) if bundles else frozenset()
    return SolveResult(
        mode=mode, alpha=alpha,
        allocation=Allocation(bundles=bundles,
                              complete=len(claimed) == instance.m),
        awarded=awarded, active_agents=tuple(active), thresholds=thresholds,
        estimates=estimates, adjustments=adjustments, runs=tuple(runs),
        records={})


def _reject_asymmetric(instance: Instance, mode: str) -> None:
    if instance.is_asymmetric:
        raise UnsupportedSystem(
            f"{mode} carries no guarantee for unrelated per-agent families")


# ---------------------------------------------------------------------------
# Existence mode
# ---------------------------------------------------------------------------

def solve_existence(instance: Instance, *,
                    gate: int = DEFAULT_MMS_GATE) -> SolveResult:
    """Partial allocation giving every agent n/(2n-1) of her exact MMS.

    Dividers hand out surviving blocks of their own MMS witness partitions,
    reduced to independent form.  Requires exact MMS computation, so this is
    a desk-scale verifier rather than a polynomial algorithm.
    """
    _reject_asymmetric(instance, "existence mode")
    n = instance.n
    ratio = Fraction(n, 2 * n - 1) if n >= 1 else ONE
    if n == 0:
        return _assemble(instance, "existence", ratio, {}, (), {}, {}, {}, ())

    oracles = {i: oracle_for(instance, i) for i in range(n)}
    records: dict[int, MmsRecord] = {
        i: compute_mms_exact(instance, i, gate=gate, oracle=oracles[i])
        for i in range(n)}
    thresholds = {i: ratio * records[i].mu for i in range(n)}

    def maker(agent: int, items: Items, count: int):
        return bundles_from_mms_partition(oracles[agent], records[agent],
                                          items, count, thresholds[agent])

    outcome = lone_divider(instance, thresholds, maker, oracles)
    assert outcome.succeeded
    return _assemble(instance, "existence", ratio, outcome.allocation,
                     range(n), thresholds, {i: records[i].mu for i in range(n)},
                     {i: 0 for i in range(n)}, [outcome])._replace(records=records)


# ---------------------------------------------------------------------------
# The polynomial pipeline behind the 2/5, alpha and entitled modes
# ---------------------------------------------------------------------------

def _shrink_rule(two_fifths: bool, a: int, b: int, k: int, m: int):
    """Shrink factor fn/fd and cap on shrinks for k active agents at error a/b."""
    if two_fifths:
        return k, k + 1, 6 * (k + 1) / 5 * math.log(m)
    d = 5 * k * b - 3 * k * a + 3 * a + 3 * b
    return d, d + 3 * (b - a), b / (b - a) * (5 * k + 3) * math.log(m)


def _solve_polynomial(instance: Instance, mode: str, alpha: Fraction,
                      epsilon: Fraction | None = None, *,
                      oracle_factory=None) -> SolveResult:
    """Estimate each agent's MMS from singleton values, shrink each estimate
    until her bundle maker builds k bundles from all items (the round-one
    pre-pass), then run the lone divider, shrinking a divider who fails in a
    later round, until a run succeeds.  Each shrink is one adjustment.

    ``alpha`` picks the theorem.  At 2/5, with k active agents, the oracle
    error is at most 1/(k+1) (the default), each shrink is by k/(k+1) and
    the cap on shrinks (6/5)(k+1) ln m; at any other alpha each shrink undoes
    the alpha mode's overshoot and the cap is (5k+3) ln m / (1-epsilon).
    The caller has refused an error outside [0, 1).  A gated kind with no
    approximation at the error is refused here, before any oracle work; each
    oracle also rejects an error below its kind's least.
    An entitled instance divides by swap detection through its agents'
    oracles; every other bundle is independent for every agent, so it is
    offered at its additive value.
    """
    a, b = (0, 1) if epsilon is None else epsilon.as_integer_ratio()
    n, m = instance.n, instance.m
    # An agent is active (her MMS is positive) when at least n of her
    # singletons are worth something.
    active = [i for i in range(n) if sum(map(bool, singleton_weights(
        instance.system_for(i), [v.numerator for v in instance.values[i]]))) >= n]
    if not active:
        return _assemble(instance, mode, alpha, {}, (), {}, {}, {}, ())
    k, two_fifths = len(active), alpha == TWO_FIFTHS
    if two_fifths and epsilon is None:
        epsilon, a, b = Fraction(1, k + 1), 1, k + 1
    elif two_fifths and a * (k + 1) > b:
        raise EpsilonOutOfRange(
            f"entitled mode needs oracle error at most 1/(k+1) = 1/{k + 1} "
            f"for its k = {k} active agents, got {epsilon}")
    fn, fd, cap = _shrink_rule(two_fifths, a, b, k, m)
    for i in active:
        kind = instance.system_for(i).kind
        if kind in DEFAULT_GATES and not (a and kind in APPROXIMATE_ERRORS):
            raise UnsupportedSystem(f"agent {i + 1}: no polynomial {kind} "
                                    f"oracle at error {epsilon}")
    oracles = {i: (oracle_factory or oracle_for)(instance, i, epsilon)
               for i in active}
    if k == 1:
        # A single positive agent receives an oracle subset of all items.
        granted = oracles[active[0]].approx_value_subset(instance.all_items())
        return _assemble(instance, mode, alpha, {active[0]: granted}, active,
                         {}, {}, {active[0]: 0}, [])

    # m times the k-th best singleton value.
    estimates = {i: Fraction(m * sorted(oracles[i].singleton_weights)[-k],
                             oracles[i].scale) for i in active}
    adjustments = {i: 0 for i in active}
    alpha_n, alpha_d = alpha.as_integer_ratio()
    # Each agent's last k bundles, always asked from all items, and the estimate
    # object that built them: until a shrink replaces it, asking rebuilds them.
    kept: dict[int, tuple[Fraction, list[IndependentBundle] | None]] = {}

    def maker(agent: int, items: Items, count: int):
        if count == k and agent in kept and kept[agent][0] is estimates[agent]:
            return kept[agent][1]
        bundles = make_bundles_alpha(
            BundleRequest(oracles[agent], items, count, estimates[agent], alpha))
        if count == k:
            kept[agent] = estimates[agent], bundles
        return bundles

    def shrink(agent: int, steps: int = 1) -> None:
        if steps:  # the count only grows, so one check trips iff a step's would
            adjustments[agent] += steps
            if not adjustments[agent] < cap:
                raise AssertionError(
                    f"agent {agent + 1} exceeded the adjustment bound {cap:.3f}")
            e = estimates[agent]
            estimates[agent] = Fraction(e.numerator * fn**steps, e.denominator * fd**steps)

    # Round one on all items: an agent whose maker cannot build k bundles
    # there would fail as the divider.  k bundles worth alpha * e each need
    # k * alpha * e <= her singleton sum, so larger estimates fail unasked.
    for i in active:
        e, steps = estimates[i], 0
        above = e.numerator * oracles[i].scale * k * alpha_n
        below = sum(oracles[i].singleton_weights) * e.denominator * alpha_d
        while above > below:  # k * alpha * e * factor ** steps > the sum
            steps += 1
            above, below = above * fn, below * fd
        shrink(i, steps)
        while maker(i, instance.all_items(), k) is None:
            shrink(i)

    runs: list[DividerOutcome] = []
    while True:
        thresholds = {i: Fraction(alpha_n * e.numerator, alpha_d * e.denominator)
                      for i, e in estimates.items()}
        outcome = (lone_divider_entitled if instance.is_entitled else lone_divider)(
            instance, thresholds, maker, oracles)
        runs.append(outcome)
        if outcome.succeeded:
            return _assemble(instance, mode, alpha, outcome.allocation, active,
                             thresholds, dict(estimates), adjustments, runs)
        shrink(outcome.failed_agent)


def solve_two_fifths(instance: Instance, *, oracle_factory=None) -> SolveResult:
    """Polynomial 2/5-approximate solver at oracle error 1/(k+1).

    Budget systems use the knapsack value scaling at exactly that error,
    conflict graphs are refused, and interval systems are rejected by their
    oracle unless one agent is active (its polynomial path loses a factor 2;
    use solve_alpha at epsilon 1/2).  An entitled instance is solved as
    ``solve_entitled`` solves it, under that mode's name.
    """
    _reject_asymmetric(instance, "the 2/5 mode")
    return _solve_polynomial(
        instance, "entitled" if instance.is_entitled else "two_fifths",
        TWO_FIFTHS, oracle_factory=oracle_factory)


def solve_alpha(instance: Instance, epsilon: Fraction, *,
                oracle_factory=None) -> SolveResult:
    """Solver for inaccurate oracles with error bound epsilon.

    Guarantees every agent alpha = (1-eps)/(1+(3/2)(1-eps)) of her MMS.
    Epsilon 0 is the 2/5 mode bundle for bundle: the oracles run at error
    1/(k+1) and an entitled instance is served.  Above 0 an entitled
    instance is refused.
    """
    alpha = alpha_for_error(epsilon)
    _reject_asymmetric(instance, "the alpha mode")
    if epsilon and instance.is_entitled:
        raise UnsupportedSystem(
            "per-agent families take solve_entitled, not the alpha mode")
    return _solve_polynomial(instance, "alpha", alpha, epsilon or None,
                             oracle_factory=oracle_factory)


def solve_entitled(instance: Instance, epsilon: Fraction | None = None, *,
                   oracle_factory=None) -> SolveResult:
    """Polynomial 2/5 solver at oracle error epsilon, 1/(k+1) by default.

    On nested per-agent families the ordering is treated as unknown: matched
    agents receive the independent subsets their own oracles reported, so
    the output also satisfies per-agent feasibility constraints.  A shared
    system's bundles are offered at their additive value.
    """
    _reject_asymmetric(instance, "the entitled mode")
    if epsilon is not None:
        alpha_for_error(epsilon)  # refuses an error bound outside [0, 1)
    return _solve_polynomial(instance, "entitled", TWO_FIFTHS, epsilon,
                             oracle_factory=oracle_factory)
