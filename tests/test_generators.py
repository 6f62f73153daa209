"""Generator fixtures: gadget numbers, reduction soundness, reproducibility."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from mmsalloc.core import NotDivisible, NotTripleMultiple, validate_instance
from mmsalloc.generators import (
    gen_asymmetric_half,
    gen_random_hereditary,
    gen_three_partition,
    gen_two_thirds_bound,
)
from mmsalloc.mms_oracle import compute_mms_exact

from conftest import (
    brute_member,
    max_min_allocation_value,
    three_partition_decision,
)

F = Fraction


def test_two_thirds_layout_for_two_agents():
    inst = gen_two_thirds_bound(2)
    assert (inst.n, inst.m) == (2, 8)
    listed = {tuple(sorted(j + 1 for j in s))
              for s in inst.system.maximal_sets}
    assert listed == {(1, 2, 3), (5, 6, 7), (3, 4, 6), (2, 7, 8)}
    assert inst.values[0] == tuple(F(0 if j % 4 == 0 else 1)
                                   for j in range(1, 9))
    assert inst.values[1] == tuple(F(0 if j % 4 == 1 else 1)
                                   for j in range(1, 9))


def test_two_thirds_mu_and_tightness():
    inst = gen_two_thirds_bound(2)
    assert all(compute_mms_exact(inst, i).mu == 3 for i in range(2))
    best, _ = max_min_allocation_value(inst)
    assert best == 2


def test_two_thirds_r_parameter():
    inst = gen_two_thirds_bound(3, r=2)
    assert inst.values[0] == inst.values[1] != inst.values[2]
    with pytest.raises(ValueError):
        gen_two_thirds_bound(3, r=3)


def test_asymmetric_gadget_families_disagree():
    inst = gen_asymmetric_half(2)
    validate_instance(inst)
    assert inst.is_asymmetric
    first, second = inst.system.systems[0], inst.system.systems[-1]
    assert first != second
    # Neither family contains the other.
    assert any(not brute_member(second, s) for s in first.maximal_sets)
    assert any(not brute_member(first, s) for s in second.maximal_sets)


def test_asymmetric_gadget_numbers():
    inst = gen_asymmetric_half(2)
    assert all(compute_mms_exact(inst, i).mu == 2 for i in range(2))
    best, _ = max_min_allocation_value(inst)
    assert best == 1


def test_asymmetric_gadget_scales_with_n():
    inst = gen_asymmetric_half(3)
    assert (inst.n, inst.m) == (3, 6)
    assert compute_mms_exact(inst, 0).mu == 2
    assert compute_mms_exact(inst, 2).mu == 2


def test_three_partition_examples():
    easy = gen_three_partition([1, 1, 1, 1, 1, 1])
    assert compute_mms_exact(easy, 0).mu == 3

    mixed = gen_three_partition([1, 1, 2, 2, 3, 3])
    assert compute_mms_exact(mixed, 0).mu == 3
    assert three_partition_decision([1, 1, 2, 2, 3, 3])

    with pytest.raises(NotDivisible):
        gen_three_partition([1, 1, 1, 2, 2, 2])  # sum 9, two agents
    with pytest.raises(NotTripleMultiple):
        gen_three_partition([1, 1, 1, 1])


def test_three_partition_mu_tracks_decision():
    rng = random.Random(83)
    for trial in range(25):
        n = rng.choice((2, 3))
        if rng.random() < 0.5:
            numbers = []
            target = rng.randint(6, 12)
            for _ in range(n):
                a = rng.randint(1, target - 2)
                b = rng.randint(1, target - a - 1)
                numbers += [a, b, target - a - b]
        else:
            while True:
                numbers = [rng.randint(1, 8) for _ in range(3 * n)]
                if sum(numbers) % n == 0:
                    break
        inst = gen_three_partition(numbers)
        mu = compute_mms_exact(inst, 0).mu
        assert (mu == 3) == three_partition_decision(numbers)


def test_random_hereditary_is_reproducible_and_closed():
    first = gen_random_hereditary(m=8, n=2, seed=7)
    second = gen_random_hereditary(m=8, n=2, seed=7)
    assert first == second
    assert first != gen_random_hereditary(m=8, n=2, seed=8)

    full = gen_random_hereditary(m=6, n=2, family_density=1, seed=0)
    assert full.system.maximal_sets == (frozenset(range(6)),)
    # The density check draws nothing, so valid densities keep their draws.
    assert gen_random_hereditary(m=6, n=2, family_density=0, seed=3) \
        .system.maximal_sets == (frozenset(),)
    pinned = gen_random_hereditary(m=6, n=2, family_density=0.5, seed=6)
    assert sorted(sorted(s) for s in pinned.system.maximal_sets) == [
        [0, 3], [0, 4, 5], [1, 2, 3, 5], [2, 3, 4]]
    assert pinned.values[0] == (2, 0, 3, 3, 4, F(5, 2))
