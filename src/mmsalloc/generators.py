"""Canonical instance constructors: tightness gadgets, hardness reductions,
and seeded random hereditary instances for property tests.

Generators follow the 1-based item numbering used by the file formats, so the
emitted structures can be audited directly against the JSON output.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import (
    AsymmetricSpec,
    ExplicitSystem,
    Instance,
    NotDivisible,
    NotTripleMultiple,
    validate_instance,
)

ONE = Fraction(1)


def gen_two_thirds_bound(n: int, r: int = 1) -> Instance:
    """Gadget with binary values where no allocation beats 2/3 of the MMS.

    Built on 4n items arranged in n columns of four.  The independent sets are
    two interleaved families of triples: {4k+1, 4k+2, 4k+3} and
    {4k+3, 4k+4, 4k+6} (with item 4k+6 wrapping around to item 2 in the last
    column).  ``r`` agents value everything except the column bottoms (items
    4k+4) and n - r agents value everything except the column tops (items
    4k+1); every agent's maximin share is exactly 3.
    """
    if n < 2:
        raise ValueError("the gadget needs at least two agents")
    if not 0 < r < n:
        raise ValueError("both agent types must be present (0 < r < n)")
    m = 4 * n
    triples = []
    for k in range(n):
        triples.append({4 * k + 1, 4 * k + 2, 4 * k + 3})
        wrap = 2 if k == n - 1 else 4 * k + 6
        triples.append({4 * k + 3, 4 * k + 4, wrap})
    system = ExplicitSystem.normalize(
        frozenset(j - 1 for j in t) for t in triples)

    def first_kind(j: int) -> Fraction:
        return Fraction(0 if j % 4 == 0 else 1)

    def second_kind(j: int) -> Fraction:
        return Fraction(0 if j % 4 == 1 else 1)

    rows = [tuple(first_kind(j) for j in range(1, m + 1))] * r
    rows += [tuple(second_kind(j) for j in range(1, m + 1))] * (n - r)
    return validate_instance(
        Instance(n=n, m=m, values=tuple(rows), system=system))


def gen_asymmetric_half(n: int) -> Instance:
    """Unit-value gadget where unrelated per-agent families cap the ratio at 1/2.

    2n items; n - 1 agents only derive paired value from {1,2}, {3,4}, ...,
    {2n-1, 2n}, while the last agent's pairs are shifted by one with a
    wrap-around pair {1, 2n}.  Every agent's maximin share is 2, but any
    allocation leaves someone at value 1.
    """
    if n < 2:
        raise ValueError("the gadget needs at least two agents")
    m = 2 * n
    aligned = [frozenset((2 * i, 2 * i + 1)) for i in range(n)]
    shifted = [frozenset((2 * i - 1, 2 * i)) for i in range(1, n)]
    shifted.append(frozenset((0, m - 1)))
    first = ExplicitSystem.normalize(aligned)
    second = ExplicitSystem.normalize(shifted)
    systems = tuple([first] * (n - 1) + [second])
    rows = tuple(tuple(ONE for _ in range(m)) for _ in range(n))
    return validate_instance(
        Instance(n=n, m=m, values=rows, system=AsymmetricSpec(systems=systems)))


def gen_three_partition(numbers) -> Instance:
    """Reduction from 3-PARTITION: unit values, triples within the target sum.

    Given 3n positive integers summing to n * T, the independent sets are all
    item sets of cardinality at most three whose numbers sum to at most T.
    The maximin share of the n identical agents is 3 exactly when the numbers
    split into n triples of sum T.
    """
    numbers = list(numbers)
    if not numbers or any(not isinstance(a, int) or a <= 0 for a in numbers):
        raise ValueError("expected a non-empty multiset of positive integers")
    if len(numbers) % 3 != 0:
        raise NotTripleMultiple(
            f"{len(numbers)} numbers cannot split into triples")
    n = len(numbers) // 3
    total = sum(numbers)
    if total % n != 0:
        raise NotDivisible(f"sum {total} is not divisible by {n} agents")
    target = total // n
    m = len(numbers)
    sets = [frozenset()]
    for j1 in range(m):
        if numbers[j1] <= target:
            sets.append(frozenset((j1,)))
        for j2 in range(j1 + 1, m):
            if numbers[j1] + numbers[j2] <= target:
                sets.append(frozenset((j1, j2)))
            for j3 in range(j2 + 1, m):
                if numbers[j1] + numbers[j2] + numbers[j3] <= target:
                    sets.append(frozenset((j1, j2, j3)))
    system = ExplicitSystem.normalize(sets)
    rows = tuple(tuple(ONE for _ in range(m)) for _ in range(n))
    return validate_instance(Instance(n=n, m=m, values=rows, system=system))


def gen_random_hereditary(m: int, n: int, family_density: float = 0.5,
                          value_range: tuple[int, int] = (0, 6),
                          seed: int = 0) -> Instance:
    """Seeded random explicit-family instance with rational values.

    ``family_density`` is the inclusion probability of each item in each of
    the sampled maximal sets; at density 1 the family collapses to the full
    item set and the instance behaves additively.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be non-negative")
    lo, hi = value_range
    if lo < 0 or hi < lo:
        raise ValueError(f"bad value range {value_range}")
    if not 0 <= family_density <= 1:  # NaN too
        raise ValueError(f"family density {family_density} is not in [0, 1]")
    rng = random.Random(seed)
    if family_density >= 1:
        sets = [frozenset(range(m))]
    else:
        count = rng.randint(1, max(1, m))
        sets = [frozenset(j for j in range(m) if rng.random() < family_density)
                for _ in range(count)]
    system = ExplicitSystem.normalize(sets)
    denominators = (1, 1, 2, 3)
    rows = tuple(
        tuple(Fraction(rng.randint(lo, hi), rng.choice(denominators))
              for _ in range(m))
        for _ in range(n))
    return validate_instance(Instance(n=n, m=m, values=rows, system=system))
