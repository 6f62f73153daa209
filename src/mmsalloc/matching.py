"""Maximum-cardinality matching: general (blossom) and envy-free bipartite.

The envy-free variant matches agents (left side) to bundles (right side) so
that every unmatched agent has no edge to any matched bundle; it trims the
blossom routine's maximum matching.  All scans run in ascending index order,
so results are deterministic.
"""

from __future__ import annotations

from collections import deque


def is_envy_free(n_left: int, adjacency: list[list[int]],
                 matching: list[tuple[int, int]]) -> bool:
    """Check that no unmatched left vertex has an edge to a matched right one."""
    matched_left = {x for x, _ in matching}
    matched_right = {y for _, y in matching}
    return all(matched_right.isdisjoint(adjacency[x])
               for x in range(n_left) if x not in matched_left)


def envy_free_matching(n_left: int, n_right: int,
                       adjacency: list[list[int]]) -> list[tuple[int, int]]:
    """Maximum-cardinality envy-free matching with regards to the left side.

    Construction: take a maximum matching, mark every left vertex reachable
    from an unmatched left vertex by an alternating path, and keep the
    matching restricted to the unmarked left vertices.
    """
    # Bundle y is vertex n_left + y; each pair comes out agent first.
    matching = [(x, y - n_left) for x, y in max_general_matching(
        n_left + n_right, [(x, n_left + y) for x in range(n_left)
                           for y in adjacency[x]])]
    match_left = {x: y for x, y in matching}
    match_right = {y: x for x, y in matching}

    reachable = [x for x in range(n_left) if x not in match_left]
    seen_left = set(reachable)
    seen_right: set[int] = set()
    queue = deque(reachable)
    while queue:
        x = queue.popleft()
        for y in adjacency[x]:
            if y in seen_right:
                continue
            seen_right.add(y)
            mate = match_right.get(y)
            if mate is not None and mate not in seen_left:
                seen_left.add(mate)
                queue.append(mate)

    kept = [(x, y) for x, y in matching if x not in seen_left]
    assert is_envy_free(n_left, adjacency, kept)
    return kept


def max_general_matching(n: int, edges) -> list[tuple[int, int]]:
    """Maximum-cardinality matching in a general graph.

    Augmenting-path search with blossom (odd cycle) contraction, O(n^3).
    Vertices are scanned in ascending order for deterministic output.
    """
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        if a == b:
            continue
        adjacency[a].append(b)
        adjacency[b].append(a)
    for row in adjacency:
        row.sort()

    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))

    def lowest_common_ancestor(a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = parent[match[b]]

    def mark_blossom(ancestor: int, v: int, child: int,
                     in_blossom: list[bool]) -> None:
        while base[v] != ancestor:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting_path(root: int) -> int:
        nonlocal base, parent
        parent = [-1] * n
        base = list(range(n))
        in_tree = [False] * n
        in_tree[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adjacency[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # Odd cycle: contract the blossom around the common base.
                    ancestor = lowest_common_ancestor(v, to)
                    in_blossom = [False] * n
                    mark_blossom(ancestor, v, to, in_blossom)
                    mark_blossom(ancestor, to, v, in_blossom)
                    for u in range(n):
                        if in_blossom[base[u]]:
                            base[u] = ancestor
                            if not in_tree[u]:
                                in_tree[u] = True
                                queue.append(u)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        return to  # augmenting path found
                    in_tree[match[to]] = True
                    queue.append(match[to])
        return -1

    for v in range(n):
        if match[v] != -1:
            continue
        end = find_augmenting_path(v)
        while end != -1:
            prev = parent[end]
            step = match[prev]
            match[end] = prev
            match[prev] = end
            end = step
        # Unmatched roots stay unmatched when no augmenting path exists.

    return [(v, match[v]) for v in range(n) if match[v] > v]
