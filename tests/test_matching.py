"""Matching algorithms against brute-force enumeration."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from mmsalloc.matching import (
    envy_free_matching,
    is_envy_free,
    max_general_matching,
)

from conftest import brute_envy_free_max, brute_max_matching_size


def _bipartite_edges(n_left, adjacency):
    """Right vertex y of ``adjacency`` as vertex n_left + y of one graph."""
    return [(x, n_left + y) for x in range(n_left) for y in adjacency[x]]


def test_trivial_graphs():
    assert max_general_matching(0, []) == []
    assert envy_free_matching(1, 1, [[0]]) == [(0, 0)]
    # Two agents fighting over one bundle: matching either leaves envy.
    assert envy_free_matching(2, 1, [[0], [0]]) == []


def test_small_named_cases():
    # Triangle: one edge max.
    assert len(max_general_matching(3, [(0, 1), (1, 2), (0, 2)])) == 1
    # Two disjoint edges.
    assert len(max_general_matching(4, [(0, 1), (2, 3)])) == 2
    # Complete 2x2 bipartite.
    assert len(max_general_matching(4, _bipartite_edges(2, [[0, 1], [0, 1]]))) == 2
    # Odd cycle of length 5 needs blossom handling: floor(5/2) = 2.
    assert len(max_general_matching(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])) == 2


def test_bipartite_matching_matches_brute_force():
    rng = random.Random(1)
    for trial in range(250):
        n_left, n_right = rng.randint(0, 7), rng.randint(0, 7)
        p = rng.random()
        adjacency = [[y for y in range(n_right) if rng.random() < p]
                     for _ in range(n_left)]
        edges = _bipartite_edges(n_left, adjacency)
        assert len(max_general_matching(n_left + n_right, edges)) == \
            brute_max_matching_size(n_left + n_right, edges)


def test_general_matching_matches_brute_force():
    rng = random.Random(2)
    for trial in range(250):
        n = rng.randint(1, 12)
        p = rng.random()
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < p]
        assert len(max_general_matching(n, edges)) == \
            brute_max_matching_size(n, edges)


def test_envy_free_matching_matches_brute_force():
    rng = random.Random(3)
    for trial in range(250):
        n_left, n_right = rng.randint(1, 6), rng.randint(1, 6)
        p = rng.random()
        adjacency = [[y for y in range(n_right) if rng.random() < p]
                     for _ in range(n_left)]
        matching = envy_free_matching(n_left, n_right, adjacency)
        assert is_envy_free(n_left, adjacency, matching)
        assert len(matching) == brute_envy_free_max(n_left, n_right, adjacency)


def _covered_by_every_maximum_matching(n_left, adjacency) -> set[int]:
    """Left vertices in every maximum matching, by listing all matchings."""
    best, covered = 0, set(range(n_left))

    def extend(x, used_right, matched):
        nonlocal best, covered
        if x == n_left:
            if len(matched) > best:
                best, covered = len(matched), set(matched)
            elif len(matched) == best:
                covered &= set(matched)
            return
        extend(x + 1, used_right, matched)
        for y in adjacency[x]:
            if y not in used_right:
                extend(x + 1, used_right | {y}, matched + [x])

    extend(0, frozenset(), [])
    return covered


def test_envy_free_matching_keeps_the_agents_every_maximum_matching_covers():
    # Gallai-Edmonds: the agents an alternating path from an unmatched agent
    # misses are those every maximum matching covers, so which maximum
    # matching the trimming starts from cannot change who is matched.
    rng = random.Random(4)
    for trial in range(200):
        n_left, n_right = rng.randint(1, 6), rng.randint(1, 6)
        p = rng.random()
        adjacency = [[y for y in range(n_right) if rng.random() < p]
                     for _ in range(n_left)]
        matched = {x for x, _ in envy_free_matching(n_left, n_right, adjacency)}
        assert matched == _covered_by_every_maximum_matching(n_left, adjacency)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_left=st.integers(1, 5), extra=st.integers(0, 3))
def test_nonempty_when_neighbourhood_covers_left(data, n_left, extra):
    """If |N(X)| >= |X| > 0 there is a non-empty envy-free matching."""
    n_right = n_left + extra
    adjacency = []
    for x in range(n_left):
        row = data.draw(st.lists(st.integers(0, n_right - 1), min_size=0,
                                 max_size=n_right, unique=True))
        adjacency.append(sorted(row))
    covered = set().union(*map(set, adjacency)) if adjacency else set()
    if len(covered) < n_left:
        # Widen the neighbourhood deterministically until the premise holds.
        missing = [y for y in range(n_right) if y not in covered]
        x = 0
        while len(covered) < n_left and missing:
            y = missing.pop()
            adjacency[x % n_left].append(y)
            adjacency[x % n_left].sort()
            covered.add(y)
            x += 1
    if len(covered) >= n_left:
        assert envy_free_matching(n_left, n_right, adjacency)


def test_deterministic_tie_break():
    adjacency = [[0, 1], [0, 1]]
    first = envy_free_matching(2, 2, adjacency)
    assert first == envy_free_matching(2, 2, adjacency)
    # The breadth-first search from agent 1 reaches the free bundle 1 before
    # it would extend a path through agent 0, so agent 0 keeps bundle 0.
    assert first == [(0, 0), (1, 1)]


def test_long_augmenting_path_needs_no_recursion():
    # Left 0..n-2 take right 0..n-2 greedily; left n-1 then rematches the
    # whole chain along one alternating path of length n.
    n = 1500
    adjacency = [[i, i + 1] for i in range(n - 1)] + [[0]]
    expected = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    assert envy_free_matching(n, n, adjacency) == expected
