"""Golden outputs: allocation and trace bytes pinned across code changes.

The determinism tests compare two runs of the same code.  These digests
catch a change in what the polynomial modes output from one version of the
code to the next; a change that alters outputs on purpose updates them and
says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from mmsalloc.adapters import (
    solve_budget_adapter,
    solve_conflicts_adapter,
    solve_intervals_adapter,
)
from mmsalloc.core import (
    BudgetSystem,
    EntitledSpec,
    Instance,
    allocation_to_json,
    validate_instance,
)
from mmsalloc.divider import trace_to_dicts
from mmsalloc.driver import (
    solve_alpha,
    solve_entitled,
    solve_existence,
    solve_two_fifths,
)
from mmsalloc.generators import gen_random_hereditary

from conftest import rand_conflict_instance, rand_interval_instance, rand_values

F = Fraction


def _budget_instance(seed: int, m: int, n: int) -> Instance:
    """Nested budgets in random agent order, so agent 1 need not be the most
    restrictive and the swap-detect rule has takeovers to make."""
    rng = random.Random(seed)
    sizes = tuple(F(rng.randint(1, 5)) for _ in range(m))
    budgets = [F(rng.randint(4, 14)) for _ in range(n)]
    ordering = tuple(sorted(range(n), key=lambda i: (budgets[i], i)))
    return validate_instance(Instance(
        n=n, m=m, values=rand_values(rng, n, m),
        system=EntitledSpec(
            systems=tuple(BudgetSystem(sizes=sizes, budget=b) for b in budgets),
            ordering=ordering)))


def _fractional_budget_instance(seed: int, m: int, n: int) -> Instance:
    """Nested budgets with sizes and budgets in halves, thirds and quarters,
    so the knapsack oracles work over mixed denominators."""
    rng = random.Random(seed)
    sizes = tuple(F(rng.randint(0, 12), rng.choice((1, 2, 3, 4)))
                  for _ in range(m))
    budgets = [F(rng.randint(8, 30), rng.choice((2, 3))) for _ in range(n)]
    ordering = tuple(sorted(range(n), key=lambda i: (budgets[i], i)))
    return validate_instance(Instance(
        n=n, m=m, values=rand_values(rng, n, m),
        system=EntitledSpec(
            systems=tuple(BudgetSystem(sizes=sizes, budget=b) for b in budgets),
            ordering=ordering)))


def _cases():
    for seed, m, n in ((1, 8, 3), (2, 9, 3), (3, 9, 2), (4, 10, 4)):
        inst = gen_random_hereditary(m=m, n=n, family_density=0.6, seed=seed)
        yield f"two_fifths-{seed}", inst, lambda inst=inst: solve_two_fifths(inst)
    inst = gen_random_hereditary(m=8, n=3, seed=5)
    yield "alpha0-5", inst, lambda inst=inst: solve_alpha(inst, F(0))
    yield "alpha1_3-5", inst, lambda inst=inst: solve_alpha(inst, F(1, 3))
    # One agent with a positive MMS takes an oracle subset of everything.
    inst = validate_instance(Instance(
        n=2, m=4, values=((F(1), F(2), F(1), F(3)), (F(0), F(0), F(5), F(0))),
        system=gen_random_hereditary(m=4, n=1, seed=13).system))
    yield "one_active-13", inst, lambda inst=inst: solve_two_fifths(inst)
    for seed in (6, 7, 8):
        inst = rand_interval_instance(random.Random(seed), m=7, n=2)
        yield f"intervals-{seed}", inst, lambda inst=inst: solve_intervals_adapter(inst)
    for seed, m, n in ((9, 10, 3), (10, 10, 4), (11, 10, 4), (17, 8, 3)):
        inst = _budget_instance(seed, m, n)
        for rule in ("swap_detect", "most_restrictive"):
            yield (f"entitled-{rule}-{seed}", inst,
                   lambda inst=inst, rule=rule: solve_entitled(inst, divider_rule=rule))
    for seed, m, n in ((18, 12, 3), (19, 14, 4)):
        inst = _fractional_budget_instance(seed, m, n)
        yield (f"budget_fractional-{seed}", inst,
               lambda inst=inst: solve_budget_adapter(inst))
    inst = gen_random_hereditary(m=40, n=6, seed=20)
    yield "two_fifths_m40-20", inst, lambda inst=inst: solve_two_fifths(inst)
    # Existence allocations slice exact MMS witnesses, so these pin the
    # brute-force partition search's visiting order.
    for seed, m, n in ((21, 8, 3), (22, 9, 2), (23, 10, 4)):
        inst = gen_random_hereditary(m=m, n=n, family_density=0.6, seed=seed)
        yield f"existence-{seed}", inst, lambda inst=inst: solve_existence(inst)
    inst = _budget_instance(24, 9, 3)
    yield "existence_budget-24", inst, lambda inst=inst: solve_existence(inst)
    for seed in (25, 26):
        inst = rand_conflict_instance(random.Random(seed), m=9)
        yield (f"conflicts-{seed}", inst,
               lambda inst=inst: solve_conflicts_adapter(inst))


def _golden_doc(inst, solved) -> dict:
    result = getattr(solved, "result", solved)
    extras = {}
    if getattr(solved, "schedules", ()):
        extras["schedules"] = [{str(job + 1): start for job, start in sorted(w.items())}
                               for w in solved.schedules]
    return {
        "allocation": allocation_to_json(inst, solved.allocation, extras),
        "mode": result.mode,
        "alpha": str(result.alpha),
        "estimates": {str(i + 1): str(v) for i, v in sorted(result.estimates.items())},
        "adjustments": {str(i + 1): c for i, c in sorted(result.adjustments.items())},
        "traces": [trace_to_dicts(run, index + 1)
                   for index, run in enumerate(result.runs)],
    }


def _digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


GOLDEN = {
    "two_fifths-1":
        "d6761aa68af850ca516cadd234e900ad585d7b57f1308b50ede8c95baf03416a",
    "two_fifths-2":
        "1fde02fe16b25c5f73fda6c22a82c852ef421422b05902e1133f1daef9368c93",
    "two_fifths-3":
        "969a411b95e0a3de68f50c41f0efd2d5e679bcda68fd2e94fd9c79c1e2dd0491",
    "two_fifths-4":
        "0c36595d4c199b6f76c643d14e2e4f57de9eefce44704a6506abfe6e951da416",
    "alpha0-5":
        "4475b78fe0c8e4abc57c617412771fac6f146e96cdf3a9c3fafdd9535a290726",
    "alpha1_3-5":
        "14a3044895e01b4585387f4b637ea4054f051641e429ec28082af207d0548c56",
    "one_active-13":
        "bdee7126cbb26b4ea2c6edcfd1c2661f559e2721f7fa863a61ceec4975fd4968",
    "intervals-6":
        "73b2e28f69c7156bdc0da0555510468828c456994b921581f8f448fdd51aaf82",
    "intervals-7":
        "1ae38e9de67b008d2a19f498b4230d01ecace07d13df4e2af4edec5a62ba39fd",
    "intervals-8":
        "ab624f1d1d75c7500ecd4a3affc1bd55812fd2c8f16082f8e18c314ba15b4866",
    "entitled-swap_detect-9":
        "a664bc7a2fbb2f8003f3c536483bc52d101d8162bfd7fd62a820a938daf6173b",
    "entitled-most_restrictive-9":
        "b7e55215a5ac0694a4e902b349e9e410ad739372a3177343ab4b76f0a526c6c0",
    "entitled-swap_detect-10":
        "93e00d14430448b985e850137759fbfbc26b39376c8d02677a19c4729c435e34",
    "entitled-most_restrictive-10":
        "4e17671462de3f5aa6da28faedf8a7ed379f7726884833dcc1c3f8c0da1ccd78",
    "entitled-swap_detect-11":
        "eeaadea678e163ca1230e68c14ed1691e6cbf3fe21a2e5337548bbe00372a02c",
    "entitled-most_restrictive-11":
        "92b629e1f035885e53dac1bad8e9881394ff1dbfe721a6be30c58cb56732f189",
    "entitled-swap_detect-17":
        "f113fc5deef94b7774f3bf07250bed41efa7074ff8bdec31a66e1b95da93f0d1",
    "entitled-most_restrictive-17":
        "e44a4c1848856302e8240fbb2cea7c508c44d609cb38afae7edd6aeb7d6ee663",
    "budget_fractional-18":
        "35c47a5c71e8bb80d203dc52c1d70e67b274a30732e46fdabca778c305834925",
    "budget_fractional-19":
        "32f5f13cda66a7462e5e267f1ff87c55c7adaaea2150991a9d50288b4b101272",
    "two_fifths_m40-20":
        "c104da63db348a790f684869454d9906eecf37e1b7f708796d33a1b0fd3cabba",
    "existence-21":
        "f39a063e097e1689b23f61e454c35e77732fdd77400cf4e5eebbe5d33c307724",
    "existence-22":
        "4549311110509badf768ede696bbe38b5440c6a24299bcb18a033e25dead586d",
    "existence-23":
        "785827a137d9ab64505ecd22e425c299d65328bc8abcefcf30cdff5aafe52cca",
    "existence_budget-24":
        "df0d89efadc112e5044fab752577ca359af2627997268add53e63ce23d9c45f0",
    "conflicts-25":
        "14814288deb0d4f4521f1b49ba8cc68df6f44e3d5b8fd8dc1293de8783a609da",
    "conflicts-26":
        "ded6791764eaff16d5769a7a41451fbc8038f438a1d956bf91f738bd007b4a4d",
}


@pytest.fixture(scope="module")
def golden_docs():
    return {name: _golden_doc(inst, solve()) for name, inst, solve in _cases()}


def test_golden_digests(golden_docs):
    got = {name: _digest(doc) for name, doc in golden_docs.items()}
    assert got == GOLDEN


def test_golden_corpus_exercises_divider_swaps(golden_docs):
    swaps = [row["swaps"] for doc in golden_docs.values()
             for trace in doc["traces"] for row in trace]
    assert any(swaps)
