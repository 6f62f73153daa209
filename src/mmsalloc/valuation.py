"""Valuation oracles for each set-system variant.

An oracle answers, for one agent, exact value queries (gated for the NP-hard
variants) and approximate independent-subset queries with a declared error
bound.  Independent bundles have additive value, so most of the solving
pipeline only ever touches sums of item values.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, reduce
from heapq import heappop, heappush
from typing import NamedTuple

from .core import (
    ZERO,
    BudgetSystem,
    ConflictSystem,
    EpsilonOutOfRange,
    ExactnessGateExceeded,
    ExplicitSystem,
    Instance,
    IntervalSystem,
    Items,
    SetSystem,
    scaled_weights,
)

DEFAULT_GATES = {"budget": 25, "conflict": 30, "interval": 16}
# Gated kinds whose subset query approximates in polynomial time above error
# 0, with the least error met (0: any positive error, the knapsack FPTAS).
APPROXIMATE_ERRORS = {"budget": ZERO, "interval": Fraction(1, 2)}


class IndependentBundle(NamedTuple):
    """An independent bundle, its exact additive weight on its oracle's integer
    scale (its value is weight / scale) and any witness: a schedule, or a
    maximal set of the answering oracle's system holding it.  Bundles are
    equal when their items and values are."""

    items: Items
    weight: int
    scale: int
    witness: dict[int, int] | Items | None = None

    @property
    def value(self) -> Fraction:
        return Fraction(self.weight, self.scale)

    def __eq__(self, other):
        return isinstance(other, IndependentBundle) and \
            (self.items, self.value) == (other.items, other.value)

    def __ne__(self, other):  # else tuple's own, which compares every field
        return not self == other

    def __hash__(self):
        return hash((self.items, self.value))


class ValuationOracle:
    """Value queries for one agent against a hereditary set system.

    ``epsilon`` is the declared error bound of ``approx_value_subset``: the
    returned bundle is independent and worth at least (1 - epsilon) times the
    true value of the query.  With epsilon 0 the oracle behaves exactly,
    subject to the exactness gate on the NP-hard variants.
    """

    def __init__(self, system: SetSystem, values: tuple[Fraction, ...], *,
                 epsilon: Fraction = ZERO, gate: int | None = None):
        least = APPROXIMATE_ERRORS.get(system.kind, ZERO)
        a, b = self._error = epsilon.as_integer_ratio()
        if not (a == 0 or least.numerator * b <= a * least.denominator and a < b):
            raise EpsilonOutOfRange(f"{system.kind} oracles support error bound "
                                    f"0 or one in [{least}, 1), not {epsilon}")
        self.system = system
        self.values = tuple(values)
        self.scale, self.weights = scaled_weights(self.values)
        self.epsilon = epsilon
        self._approximate = bool(a) and system.kind in APPROXIMATE_ERRORS
        self.gate = gate if gate is not None else DEFAULT_GATES.get(system.kind)
        # Item set -> (answer, full); see approx_value_subset.
        self._subset_memo: dict[Items, tuple[IndependentBundle, bool]] = {}
        self._last_walk: tuple[Items, list[int]] = (frozenset(), [])

    # -- additive arithmetic, on integer weights: value = weight / scale ----

    def additive_weight(self, bundle) -> int:
        return sum(map(self.weights.__getitem__, bundle))

    # -- independence -------------------------------------------------------

    def is_independent(self, bundle) -> bool:
        """Each system decides membership, apart from interval scheduling:
        its exact test is exponential, so the oracle gates it."""
        items = frozenset(bundle)
        system = self.system
        if not isinstance(system, IntervalSystem):
            return system.independent(items)
        if len(items) <= 1:
            return True  # d >= r + p - 1 is validated at construction
        if len(items) > 2:
            self._check_gate(items)
        return _interval_schedule([system.jobs[j] for j in items]) is not None

    def pair_independent(self, j1: int, j2: int) -> bool:
        """Decide whether {j1, j2} is independent, exactly and in poly time."""
        if isinstance(self.system, ExplicitSystem):  # some maximal set holds both
            return bool(self.system.masks.get(j1, 0) & self.system.masks.get(j2, 0))
        return self.is_independent(frozenset((j1, j2)))

    def holder(self, items, among: int = -1) -> Items | None:
        """The lowest-position maximal set of an explicit system holding
        ``items``, of those in the bitmask ``among``; else None."""
        if not isinstance(self.system, ExplicitSystem):
            return None
        held = reduce(int.__and__, [self.system.masks.get(j, 0) for j in items], among)
        return self.system.maximal_sets[(held & -held).bit_length() - 1] if held else None

    @cached_property
    def singleton_weights(self) -> tuple[int, ...]:
        """Weight of each {j}: the item weight if {j} is independent, else 0."""
        return singleton_weights(self.system, self.weights)

    # -- exact values -------------------------------------------------------

    def _check_gate(self, items) -> None:
        if self.gate is not None and len(items) > self.gate:
            raise ExactnessGateExceeded(
                f"{self.system.kind} bundle of size {len(items)} exceeds the "
                f"exactness gate {self.gate}")

    def exact_value(self, bundle) -> Fraction:
        """Max additive value over independent subsets of the bundle."""
        return Fraction(self.exact_weight(frozenset(bundle)), self.scale)

    def exact_weight(self, items: Items) -> int:
        """``exact_value`` on the integer scale, for a frozenset of items."""
        system = self.system
        if isinstance(system, ExplicitSystem):
            return max(self._set_weights(items), default=0)
        if self.is_independent(items):
            return self.additive_weight(items)
        self._check_gate(items)
        if isinstance(system, BudgetSystem):
            return self.additive_weight(_knapsack(
                sorted(items), self.weights, *system.scaled, 0, 1))
        if isinstance(system, ConflictSystem):
            return self.additive_weight(
                _mwis_exact(sorted(items), self.weights, system.neighbours))
        if isinstance(system, IntervalSystem):
            ordered = sorted(items)
            finish = _interval_table(system, ordered)
            return max(self.additive_weight(j for t, j in enumerate(ordered)
                                            if mask >> t & 1)
                       for mask, end in enumerate(finish) if end is not None)
        raise TypeError(f"unknown system variant: {system!r}")

    def _set_weights(self, items: Items) -> list[int]:
        """Each maximal set's weight inside ``items``, walking each item's sets
        in the system's incidence: from the last query's weights by the items
        that left and came in when those are fewer than ``items``, else from
        zeros.  The list is kept for the next walk, so callers only read it."""
        last, sums = self._last_walk
        if len(last ^ items) < len(items):
            moves, sums = ((last - items, -1), (items - last, 1)), sums.copy()
        else:
            moves, sums = ((items, 1),), [0] * len(self.system.maximal_sets)
        holding, weights = self.system.incidence, self.weights
        for moved, sign in moves:
            for j in moved:
                w = sign * weights[j]
                for t in holding.get(j, ()):
                    sums[t] += w
        self._last_walk = (items, sums)
        return sums

    def reduce_to_independent(self, bundle) -> IndependentBundle:
        """Shrink a bundle to an independent one of equal value.

        Scans items in ascending index order and drops each item whose removal
        keeps the value unchanged; with ties between equal-value independent
        subsets the result therefore depends on this order.  Uses at most
        len(bundle) + 1 exact weight queries; explicit families need none, as
        one walk of the item-to-sets incidence gives every set's weight.
        """
        items = frozenset(bundle)
        if isinstance(self.system, ExplicitSystem):
            return self._reduce_explicit(items)
        weight = self.exact_weight(items)
        for j in sorted(items):
            without = items - {j}
            if self.exact_weight(without) == weight:
                items = without
        return IndependentBundle(items, weight, self.scale)

    @cached_property
    def _zero_items(self) -> Items:
        return frozenset(j for j, w in enumerate(self.weights) if not w)

    def _reduce_explicit(self, items: Items, whole: bool = False) -> IndependentBundle:
        """The ascending scan of ``reduce_to_independent`` over the optimal
        sets only, a bitmask of their positions; with ``whole``, the query
        itself when an optimal set holds all of it, as subset queries answer.
        Each answer carries an optimal set holding it as its witness.

        The bundle's value is the largest of its maximal sets' weights, which
        ``_set_weights`` gives.  Dropping an item never raises a set's weight,
        so a set below the value never regains it: j goes when it weighs
        nothing or some set still at the value lacks it; only those then stay.
        """
        if not self.system.maximal_sets:
            return IndependentBundle(frozenset(), 0, self.scale)
        sums = self._set_weights(items)
        weight = max(sums)
        if sums.count(weight) == 1:
            held = self.system.maximal_sets[sums.index(weight)]
            kept = items if whole and items <= held else items & held - self._zero_items
            return IndependentBundle(kept, weight, self.scale, held)
        best = sum(1 << t for t, s in enumerate(sums) if s == weight)
        # A set holding the query outweighs every set lacking a positive item.
        held = self.holder(items, best) if whole else None
        if held is not None:
            return IndependentBundle(items, weight, self.scale, held)
        masks, kept = self.system.masks, []
        for j in sorted(filter(self.weights.__getitem__, items)):
            lacking = best & ~masks.get(j, 0)
            if lacking:
                best = lacking
            else:
                kept.append(j)
        return IndependentBundle(frozenset(kept), weight, self.scale,
                                 self.holder(kept, best))

    # -- approximate subset queries ------------------------------------------

    def approx_value_subset(self, bundle, goal: int | None = None) -> IndependentBundle:
        """Independent subset worth at least (1 - epsilon) of the true value.

        With ``goal``, an integer on the oracle's weight scale, any independent
        subset weighing at least ``goal`` may answer instead: the budget FPTAS
        stops at the first table entry that reaches it, and every other
        oracle ignores it.  An answer short of the goal is exactly the answer
        without one.

        Answers are memoized for the life of the oracle: the round-one
        pre-pass and later divider runs ask the same subset queries again.
        One asked without a goal or short of it is full, serving every later
        query; one that reached its goal serves the goals it still meets.
        """
        items = frozenset(bundle)
        kept = self._subset_memo.get(items)
        if kept is not None:
            answer, full = kept
            if full or goal is not None and answer.weight >= goal:
                return answer
        answer = self._approx_value_subset(items, goal)
        self._subset_memo[items] = (answer, goal is None or answer.weight < goal)
        return answer

    def _approx_value_subset(self, items: Items, goal: int | None) -> IndependentBundle:
        system = self.system
        if isinstance(system, ExplicitSystem):  # one incidence walk
            return self._reduce_explicit(items, whole=True)
        if self._approximate and isinstance(system, IntervalSystem):
            # The whole query when a schedule fits it (searched exactly only
            # within the gate), else local ratio; the answer carries it.
            witness = _interval_witness(system, items, len(items) <= self.gate)
            if witness is None:
                witness = _interval_local_ratio(system, self.weights, sorted(items))
            return IndependentBundle(frozenset(witness), self.additive_weight(witness),
                                     self.scale, witness)
        if self.is_independent(items):
            return IndependentBundle(items, self.additive_weight(items), self.scale)
        if not self._approximate:
            return self.reduce_to_independent(items)
        chosen = _knapsack(sorted(items), self.weights, *system.scaled,
                           *self._error, goal)
        return IndependentBundle(frozenset(chosen), self.additive_weight(chosen),
                                 self.scale)

    def schedule_witness(self, bundle) -> dict[int, int]:
        """Start times proving an interval bundle schedulable (gated)."""
        system = self.system
        if not isinstance(system, IntervalSystem):
            raise TypeError("schedule witnesses only exist for interval systems")
        items = sorted(bundle)
        self._check_gate(items)
        witness = _interval_witness(system, items)
        if witness is None:
            raise ValueError(f"bundle {items} is not schedulable")
        return witness


def singleton_weights(system: SetSystem, weights) -> tuple:
    """Each weight, or 0 where {j} is not independent.  Validated interval
    jobs fit their own windows, and conflict graphs have no self-loops."""
    if isinstance(system, ExplicitSystem):  # {j} fits a set exactly when held
        held = system.incidence
        return tuple(w if j in held else 0 for j, w in enumerate(weights))
    if isinstance(system, BudgetSystem):  # {j} fits when its size does
        sizes, capacity = system.scaled
        return tuple(w if size <= capacity else 0
                     for w, size in zip(weights, sizes))
    return tuple(weights)


def oracle_for(instance: Instance, agent: int, epsilon: Fraction = ZERO, *,
               gate: int | None = None) -> ValuationOracle:
    """Build the oracle for one agent of an instance."""
    return ValuationOracle(instance.system_for(agent), instance.values[agent],
                           epsilon=epsilon, gate=gate)


# ---------------------------------------------------------------------------
# Knapsack by value scaling: approximate above error 0, exact at 0
# ---------------------------------------------------------------------------

def _knapsack(items, weights, sizes, capacity, a, b, goal=None):
    """Feasible subset with value at least (1 - eps) times the optimum, eps = a/b.

    Classic value scaling on integer weights: each is floored to a multiple
    of the unit eps * wmax / k, so the additive loss is at most
    eps * wmax <= eps * OPT, and a min-size DP over scaled totals picks the
    best reachable total; at error 0 the weights are exact totals already.
    Sizes and the capacity are integers on one scale (``BudgetSystem.scaled``);
    each entry links its last item to the entry it grew from instead of
    copying the chosen tuple, and keeps its real integer weight.

    With ``goal``, the first improving entry whose real weight reaches it is
    returned at once.  When none does, the table runs to the end as without
    a goal, so the answer is the one above and weighs less than ``goal``.
    """
    usable = [j for j in items if sizes[j] <= capacity and weights[j] > 0]
    if not usable:
        return []
    if goal is None:  # a weight no subset reaches
        goal = sum(map(weights.__getitem__, usable)) + 1
    scaled = [weights[j] for j in usable]
    if a:  # floor(w / unit) = w * k // (eps * wmax), in integers
        numer, denom = len(usable) * b, a * max(scaled)
        scaled = [w * numer // denom for w in scaled]
    # dp: scaled total -> (min combined scaled size, real weight,
    #                      (last item, rest) link)
    dp: dict[int, tuple[int, int, tuple | None]] = {0: (0, 0, None)}
    for j, w in zip(usable, scaled):
        size_j, weight_j = sizes[j], weights[j]
        updates: dict[int, tuple[int, int, tuple | None]] = {}
        for total, (size, weight, chosen) in dp.items():
            grown = size + size_j
            if grown > capacity:
                continue
            key = total + w  # distinct per total, so no update meets another
            incumbent = dp.get(key)
            if incumbent is None or grown < incumbent[0]:
                weight += weight_j
                if weight >= goal:
                    return _linked((j, chosen))
                updates[key] = (grown, weight, (j, chosen))
        # Every update is strictly smaller than what dp holds at its total.
        dp.update(updates)
        # A total that a larger one reaches in no more room lies on no
        # optimal path.  Dropping it bounds the table by the distinct sizes;
        # without it an exact table keeps one entry per distinct value sum.
        least = capacity + 1
        for total in sorted(dp, reverse=True):
            if dp[total][0] < least:
                least = dp[total][0]
            else:
                del dp[total]
    return _linked(dp[max(dp)][2])


def _linked(chosen):
    """The items of a (last item, rest) link chain, ascending."""
    picked = []
    while chosen is not None:
        j, chosen = chosen
        picked.append(j)
    return sorted(picked)


# ---------------------------------------------------------------------------
# Exact maximum-weight independent set by branch and bound
# ---------------------------------------------------------------------------

def _mwis_exact(items, weights, adjacency):
    vertices = [j for j in items if weights[j] > 0]
    neighbours = {j: (adjacency.get(j, set()) & set(vertices))
                  for j in vertices}
    best_value = 0
    best_set: list[int] = []

    def explore(active, value, chosen):
        nonlocal best_value, best_set
        if value > best_value:
            best_value = value
            best_set = list(chosen)
        if not active:
            return
        if value + sum(weights[j] for j in active) <= best_value:
            return
        # Branch on the highest-degree remaining vertex.
        pivot = max(active, key=lambda j: (len(neighbours[j] & active), -j))
        rest = active - {pivot}
        chosen.append(pivot)
        explore(rest - neighbours[pivot], value + weights[pivot], chosen)
        chosen.pop()
        explore(rest, value, chosen)

    explore(frozenset(vertices), 0, [])
    return sorted(best_set)


# ---------------------------------------------------------------------------
# Interval jobs: a pruned prefix search that returns its schedule, subset DP
# for exact values, local ratio for approximation
# ---------------------------------------------------------------------------

def _interval_table(system, items):
    """DP over subsets: the least last-occupied slot per schedulable subset.

    Scheduling the remaining job after an earliest-completion schedule of the
    rest is always optimal, so the recurrence over "last job" is exact.
    Returns the finish slot per bitmask over ``items``, None if infeasible.
    """
    jobs = [system.jobs[j] for j in items]
    k = len(items)
    finish: list[int | None] = [None] * (1 << k)
    finish[0] = 0
    for mask in range(1, 1 << k):
        best = None
        for t in range(k):
            if not mask >> t & 1:
                continue
            prev = finish[mask ^ (1 << t)]
            if prev is None:
                continue
            p, r, d = jobs[t]
            end = max(r, prev + 1) + p - 1
            if end <= d and (best is None or end < best):
                best = end
        finish[mask] = best
    return finish


def _interval_schedule(jobs, search=True):
    """Start slots fitting the (p, r, d) jobs, one at a time, in their
    windows, listed in the order of ``jobs``; None when no schedule exists,
    or, without ``search``, when the list schedule misses.

    Jackson's earliest-deadline list schedule (1955) settles most yes
    answers: when the machine is free, it starts the released job due first,
    taking released jobs from a heap by (deadline, release, position).  When
    that misses a deadline and ``_preemptive_fits`` refuses the jobs, no
    schedule exists.  Otherwise a depth-first search runs the recurrence of
    ``_interval_table`` over sequence prefixes, appending jobs in position
    order.  It skips a prefix mask explored before at no later finish (what
    completes this one completes that one), and drops a prefix whose outside
    jobs cannot all run after its finish: the work due by some deadline b
    exceeds b - finish.  Nor does it append a job released after another
    pending job could finish, since running that one in the gap first delays
    nothing.  So from every prefix whose outside jobs fit after its finish,
    a schedule of them that the search follows exists, and the answer is
    exact.  Each append writes its job's start: the first full sequence
    reached is the schedule.
    """
    releases = sorted((r, d, t, p) for t, (p, r, d) in enumerate(jobs))
    released: list[tuple[int, int, int, int]] = []  # (d, r, position, p)
    starts = [0] * len(jobs)
    finish = at = 0
    while at < len(releases) or released:
        start = finish + 1 if released else max(finish + 1, releases[at][0])
        while at < len(releases) and releases[at][0] <= start:
            r, d, t, p = releases[at]
            heappush(released, (d, r, t, p))
            at += 1
        d, _, t, p = heappop(released)
        starts[t] = start
        finish = start + p - 1
        if finish > d:
            break
    else:
        return starts
    if not search or not _preemptive_fits(jobs):
        return None

    by_deadline = sorted(range(len(jobs)), key=lambda t: jobs[t][2])

    def rest_fits(mask, finish):
        work = 0
        for t in by_deadline:
            if not mask >> t & 1:
                p, _, d = jobs[t]
                work += p
                if work > d - finish:
                    return False
        return True

    explored: dict[int, int] = {}  # prefix mask -> least finish explored at

    def grow(mask, finish):
        ends = {t: max(r, finish + 1) + p - 1
                for t, (p, r, _) in enumerate(jobs) if not mask >> t & 1}
        soonest = min(ends.values())
        for t, end in ends.items():
            p, r, d = jobs[t]
            longer = mask | 1 << t
            if r <= soonest and end <= d and end < explored.get(longer, end + 1):
                explored[longer] = end
                if rest_fits(longer, end):
                    starts[t] = end - p + 1
                    yield longer, end

    stack = [grow(0, 0)]  # one per prefix length, so a full prefix outgrows jobs
    while 0 < len(stack) <= len(jobs):
        prefix = next(stack[-1], None)
        if prefix is None:
            stack.pop()
        else:
            stack.append(grow(*prefix))
    return starts if stack else None


def _preemptive_fits(jobs) -> bool:
    """Whether the (p, r, d) jobs fit when a job may be split: earliest
    deadline first over unit slots, which is optimal (Horn 1974).  A schedule
    with each job in one piece is also a split one, so a miss here refuses."""
    releases = sorted((r, d, p) for p, r, d in jobs)
    released: list[list[int]] = []  # [d, work left]; the top's work only falls
    slot = at = 0  # the next free slot
    while at < len(releases) or released:
        if not released:
            slot = max(slot, releases[at][0])
        while at < len(releases) and releases[at][0] <= slot:
            r, d, p = releases[at]
            heappush(released, [d, p])
            at += 1
        job = released[0]
        run = job[1] if at == len(releases) else \
            min(job[1], releases[at][0] - slot)
        slot += run
        job[1] -= run
        if not job[1]:
            if slot - 1 > job[0]:
                return False
            heappop(released)
    return True


def _interval_witness(system, items, search=True):
    """Start slot per job of ``items`` from ``_interval_schedule``, or None."""
    items = sorted(items)
    starts = _interval_schedule([system.jobs[j] for j in items], search)
    return None if starts is None else dict(zip(items, starts))


def _schedule_is_valid(system: IntervalSystem, items: Items,
                       starts: dict[int, int]) -> bool:
    """Whether ``starts`` runs the jobs of ``items`` in their windows, one at a time."""
    if set(starts) != set(items):
        return False
    busy: list[tuple[int, int]] = []
    for j, start in starts.items():
        p, r, d = system.jobs[j]
        if start < r or start + p - 1 > d:
            return False
        busy.append((start, start + p - 1))
    busy.sort()
    return all(prev_end < nxt_start for (_, prev_end), (nxt_start, _)
               in zip(busy, busy[1:]))


_PLACEMENT_CAP = 500_000


def _interval_local_ratio(system, weights, items):
    """Greedy local-ratio schedule with at least half the optimal weight.

    Expands every feasible placement of every job, repeatedly pushes the
    earliest-ending placement with positive residual weight while charging its
    weight to everything it conflicts with (same job or overlapping in time),
    then unwinds the stack keeping whatever still fits.
    """
    jobs = [system.jobs[j] for j in items]
    count = sum(d - p - r + 2 for p, r, d in jobs)
    if count > _PLACEMENT_CAP:  # checked before a single placement is built
        raise ExactnessGateExceeded(
            f"{count} interval placements exceed the cap {_PLACEMENT_CAP}")
    placements = []  # (end, start, job)
    for j, (p, r, d) in zip(items, jobs):
        for start in range(r, d - p + 2):
            placements.append((start + p - 1, start, j))
    placements.sort()
    # Pushes come in end order, so a placement overlaps a pushed one exactly
    # when it starts by the pushed end: prefix sums of the charges over the
    # pushed ends, in all and per job, give each residual by bisection.
    ends, charged = [], [0]
    by_job = {j: ([], [0]) for j in items}
    stack = []
    for pl in placements:
        end, start, job = pl
        job_ends, job_charged = by_job[job]
        residual = (weights[job] - job_charged[bisect_left(job_ends, start)]
                    - charged[-1] + charged[bisect_left(ends, start)])
        if residual <= 0:
            continue
        stack.append(pl)
        for pushed_ends, sums in ((ends, charged), by_job[job]):
            pushed_ends.append(end)
            sums.append(sums[-1] + residual)
    # Kept placements are disjoint, so their ends follow their starts' order
    # and a new one can overlap only its neighbours in that order.
    chosen: dict[int, int] = {}
    kept_starts, kept_ends = [], []
    for end, start, job in reversed(stack):
        at = bisect_left(kept_starts, start)
        if job in chosen or at and kept_ends[at - 1] >= start \
                or at < len(kept_starts) and kept_starts[at] <= end:
            continue
        chosen[job] = start
        kept_starts.insert(at, start)
        kept_ends.insert(at, end)
    return chosen
