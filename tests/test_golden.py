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

from conftest import (
    rand_budget_instance,
    rand_conflict_instance,
    rand_interval_instance,
    rand_values,
)

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
        yield (f"entitled-swap_detect-{seed}", inst,
               lambda inst=inst: solve_entitled(inst))
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
    # The entitled mode on shared systems offers bundles at additive value.
    inst = gen_random_hereditary(m=10, n=3, family_density=0.6, seed=37)
    yield "entitled_shared-37", inst, lambda inst=inst: solve_entitled(inst)
    inst = rand_budget_instance(random.Random(28), m=10, n=3, entitled=False)
    yield ("entitled_shared_budget-28", inst,
           lambda inst=inst: solve_entitled(inst))


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
        "159bf8798ffc78282f12e85f8747f5f8e84dcf65f03d922172b08480a2defd5e",
    "two_fifths-2":
        "9397c98315916db5a44ac82cf3cf7da92a49c6cfea1b1d08af86538b1507f787",
    "two_fifths-3":
        "25b58056fcdc5bc2ba744da267f67c09ab6bbfaadc93265690a7c8049b3fc31f",
    "two_fifths-4":
        "f539ff5ce9d0d173cde957fb964890b109db5b13ff5f82dae0042f697e401f4e",
    "alpha0-5":
        "789d4940def9f676f4105e17215b35318c806e4e4bfa822b7b4f81c5ad741e6c",
    "alpha1_3-5":
        "b633f843ad236bbfc370da9c5bdae01a9fda99727500c5fd20eaa37e47b6b870",
    "one_active-13":
        "bdee7126cbb26b4ea2c6edcfd1c2661f559e2721f7fa863a61ceec4975fd4968",
    "intervals-6":
        "3f3bde5e18e774cbaba3bca75b4b2949555caefeeaa575a250bc6b021f14231a",
    "intervals-7":
        "53756ca12b0314b27e30d442092280d992fb0be9e0ffd0a183c3606ba755bb0b",
    "intervals-8":
        "f10c709501f791920a494e79ff4caeccc499a45a7274d4c9caf6f4842a6e25cf",
    "entitled-swap_detect-9":
        "974980802a4442446ffcd9edb63ad23c87dda2eaac57bb64cbbead35fd5c38b2",
    "entitled-swap_detect-10":
        "43a950e46085c062510dff498853758adfaf0c92dcd932acc6d5633a42d3a71a",
    "entitled-swap_detect-11":
        "ef394554e98788636148bd15b8f79aae975d4e28905ff42769ccec2b057c5fdd",
    "entitled-swap_detect-17":
        "792c8328f703dd7d01f2d5398fd5623b2d5f486c416be344dd4bcaeda524b245",
    "budget_fractional-18":
        "2ed593eaaae70f0d792e9c0367f25eb8ed8554ca7f06362168c1caa7a2e3064e",
    "budget_fractional-19":
        "f0a6898660f3262645c39ce318fe4842252e1ee3b0f06796e7dee25e6ba018e7",
    "two_fifths_m40-20":
        "0e2e044fbdeea2f0ed80278cb8c5ecb5dab327ef0f1024a870bf497370d47728",
    "existence-21":
        "c3668cb31ea8bb52806cc672c75e4ded189ea35c7a3cf0554c98f8364814bd7d",
    "existence-22":
        "772acd0fcfb32810431935e8d138ad2dee47a8e4dcb936ea4a5f57d1d46cca50",
    "existence-23":
        "9be2734355cc8bdfb7b184d67bc4852df4d68a98eac1971389036660bf71a439",
    "existence_budget-24":
        "1d3c1eae2a9991c5ccc56e5562f5c6d11e67619010033bdb823df34d6795e45e",
    "conflicts-25":
        "7c3a53ff6348133d4c2604e76016c4f6daf7faced3d738d5cc059712bbb16ef5",
    "conflicts-26":
        "2bf80867a98208c6df03627f922eca772b5084aa50e150ec97cf0a61870e9b11",
    "entitled_shared-37":
        "3b5c8fb41a2251177eb48ac727eda2232bdd5ad5debed74b06af874059334729",
    "entitled_shared_budget-28":
        "74fe1513ae11c532d85fceb9f3f2d704e5800ecbf5913403a4de2cbfa022f76c",
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
