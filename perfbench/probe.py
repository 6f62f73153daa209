"""A fixed task that times how fast the host runs solver-like code right now.

On a shared host the processor's speed drifts within seconds: the same 30
budget solves took from 1.4 to 2.7 processor seconds from one pass to the
next.  The solves and this task slow down together.  With the task run right
after each solve, the ratio of the pass's solve time to its task time varied
by 1.7% (coefficient of variation over 27 passes, with an earlier 30 ms
version of the task).  Scaled as below, the total of the same 219 solves
varied by 1% over four runs; unscaled, by 7%.  Timed runs therefore run
the task every ``run.PROBE_EVERY_S`` of solving and divide each time by the
task's mean time around it, then multiply by ``REFERENCE_S``.

The task never touches mmsalloc, so no change to the library moves it.  It
mixes the solver's kinds of work: exact-rational sums over item sets (the
shape of explicit exact values), a table keyed by partial sizes that copies
tuples (the shape of the knapsack FPTAS), and an augmenting-path matching.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction

REFERENCE_S = 0.01  # the task's processor time on the reference host

_rng = random.Random(7)
VALUES = [Fraction(_rng.randint(0, 6), _rng.choice((1, 1, 2, 3))) for _ in range(24)]
SETS = [frozenset(j for j in range(20) if _rng.random() < 0.6) for _ in range(8)]
SIZES = [_rng.randint(1, 9) for _ in range(24)]
EDGES = [[b for b in range(40) if _rng.random() < 0.1] for _ in range(40)]


def task() -> None:
    items = frozenset(range(20))
    best_part = {}
    for j in items:
        part = items - {j}
        best_part[part] = max(sum((VALUES[i] for i in part & s), Fraction(0))
                              for s in SETS)

    table = {0: (Fraction(0), ())}
    for j, size in enumerate(SIZES):
        for used, (value, chosen) in list(table.items()):
            grown = used + size
            if grown <= 60 and (grown not in table or table[grown][0] < value + VALUES[j]):
                table[grown] = (value + VALUES[j], chosen + (j,))

    match = [-1] * len(EDGES)

    def augment(x: int, seen: list[bool]) -> bool:
        for y in EDGES[x]:
            if not seen[y]:
                seen[y] = True
                if match[y] == -1 or augment(match[y], seen):
                    match[y] = x
                    return True
        return False

    for x in range(len(EDGES)):
        augment(x, [False] * len(EDGES))


def scale(times) -> float:
    """Factor that brings processor times taken alongside ``times`` to the
    reference host."""
    return REFERENCE_S / statistics.fmean(times)
