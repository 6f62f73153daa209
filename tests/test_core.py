"""Core types: validation, rationals, JSON round trips, hereditary invariants."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mmsalloc.cli import main as cli_main
from mmsalloc.core import (
    AsymmetricSpec,
    BudgetSystem,
    ConflictSystem,
    EntitledSpec,
    ExplicitSystem,
    FreeSystem,
    Instance,
    InstanceError,
    IntervalSystem,
    InvalidInterval,
    NegativeValue,
    NonNestedEntitledFamilies,
    IndexOutOfRange,
    allocation_from_json,
    allocation_to_json,
    Allocation,
    instance_from_json,
    instance_to_json,
    parse_rational,
    system_subseteq,
    validate_instance,
)
from mmsalloc.generators import gen_random_hereditary
from mmsalloc.valuation import ValuationOracle, oracle_for

from conftest import brute_member

F = Fraction


def test_parse_rational_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("7") == F(7)
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational(5) == F(5)


# JSON's non-finite numbers, and a literal past the float range, which
# json reads as inf, each with the quote the refusal carries.
_NON_FINITE = [("Infinity", "Infinity"), ("-Infinity", "-Infinity"),
               ("NaN", "NaN"), ("1e400", "Infinity")]
# JSON's other literals are quoted as JSON writes them, not as Python does.
_LITERALS = [("null", "null"), ("true", "true"), ("false", "false")]


@pytest.mark.parametrize("literal, quoted", _NON_FINITE + _LITERALS)
@pytest.mark.parametrize("where", ["value", "size", "budget"])
def test_a_non_finite_number_is_not_a_rational(literal, quoted, where):
    value, size, budget = ((literal if where == w else '"1"')
                           for w in ("value", "size", "budget"))
    text = (f'{{"n": 1, "m": 2, "values": [[{value}, "1"]], "system": '
            f'{{"kind": "budget", "sizes": [{size}, "1"], "budget": {budget}}}}}')
    with pytest.raises(InstanceError, match=f"^not a rational: {quoted}$"):
        instance_from_json(text)


@pytest.mark.parametrize("literal, quoted", _NON_FINITE)
def test_a_non_finite_config_epsilon_is_an_input_error(tmp_path, capsys,
                                                       literal, quoted):
    instance_path, config_path = tmp_path / "inst.json", tmp_path / "config.json"
    instance_path.write_text('{"n": 1, "m": 1, "values": [["1"]], '
                             '"system": {"kind": "free"}}')
    config_path.write_text(f'{{"mode": "alpha", "epsilon": {literal}}}')
    assert cli_main(["solve", str(instance_path), "--config",
                     str(config_path)]) == 2
    assert capsys.readouterr().err == f"error: not a rational: {quoted}\n"


@pytest.mark.parametrize("value, quoted", [
    (None, "null"), (True, "true"), (float("nan"), "NaN"), ("x", "'x'"),
    (1j, "1j"), (F, "<class 'fractions.Fraction'>")])
def test_a_refused_library_value_is_quoted_as_json_only_when_json_holds_it(
        value, quoted):
    with pytest.raises(InstanceError, match=f"^not a rational: {re.escape(quoted)}$"):
        parse_rational(value)


def test_validate_accepts_identity_case():
    inst = Instance(n=2, m=2, values=((F(1), F(1)), (F(1), F(1))),
                    system=FreeSystem())
    assert validate_instance(inst) is inst


def test_validate_rejects_negative_value():
    inst = Instance(n=1, m=1, values=((F(-1),),), system=FreeSystem())
    with pytest.raises(NegativeValue):
        validate_instance(inst)


@pytest.mark.parametrize("sizes, budget, quoted", [
    ((1.5, 1, 1), F(2), "item size 1.5"),
    ((F(3, 2), 1, 1), 2.0, "budget 2.0"),
    ((True, 1, 1), F(2), "item size True"),
])
def test_validate_rejects_inexact_budget_entries(sizes, budget, quoted):
    inst = Instance(n=1, m=3, values=((F(1), F(1), F(1)),),
                    system=BudgetSystem(sizes=sizes, budget=budget))
    with pytest.raises(InstanceError, match=f"^{quoted} is not an exact rational$"):
        validate_instance(inst)


def test_validate_accepts_integer_budget_entries():
    inst = Instance(n=1, m=3, values=((F(1), F(1), F(1)),),
                    system=BudgetSystem(sizes=(F(3, 2), 1, 1), budget=2))
    assert validate_instance(inst) is inst
    assert inst.system.scaled == ((3, 2, 2), 4)


def test_validate_rejects_non_nested_entitled():
    spec = EntitledSpec(
        systems=(ExplicitSystem.normalize([{0}]),
                 ExplicitSystem.normalize([{1}])),
        ordering=(0, 1))
    inst = Instance(n=2, m=2, values=((F(1), F(1)), (F(1), F(1))), system=spec)
    with pytest.raises(NonNestedEntitledFamilies):
        validate_instance(inst)


def test_validate_rejects_bad_interval():
    system = IntervalSystem(jobs=((2, 3, 3),))  # needs d >= r + p - 1 = 4
    inst = Instance(n=1, m=1, values=((F(1),),), system=system)
    with pytest.raises(InvalidInterval):
        validate_instance(inst)


def test_validate_rejects_conflict_self_loop():
    inst = Instance(n=1, m=2, values=((F(1), F(1)),),
                    system=ConflictSystem(edges=((0, 1), (1, 1))))
    with pytest.raises(InstanceError, match="self-loop on item 2$"):
        validate_instance(inst)


def test_validate_rejects_out_of_range_items():
    system = ExplicitSystem.normalize([{0, 5}])
    inst = Instance(n=1, m=3, values=((F(1), F(1), F(1)),), system=system)
    with pytest.raises(IndexOutOfRange,
                       match=re.escape("explicit family: item 6 not in [1, 3]")):
        validate_instance(inst)


def test_entitled_budget_nesting_comes_from_sorted_budgets():
    sizes = (F(1), F(2))
    spec = EntitledSpec(
        systems=(BudgetSystem(sizes=sizes, budget=F(1)),
                 BudgetSystem(sizes=sizes, budget=F(3))),
        ordering=(0, 1))
    inst = Instance(n=2, m=2, values=((F(1), F(1)), (F(1), F(1))), system=spec)
    validate_instance(inst)
    backwards = EntitledSpec(systems=spec.systems, ordering=(1, 0))
    with pytest.raises(NonNestedEntitledFamilies):
        validate_instance(Instance(n=2, m=2, values=inst.values,
                                   system=backwards))


@pytest.mark.parametrize("ordering, shown", [
    ((True, False), "[True, False]"),
    ((1, False), "[2, False]"),
], ids=["both-booleans", "one-boolean"])
def test_entitled_ordering_refuses_booleans(ordering, shown):
    # Booleans sort as 0 and 1, so they once passed for a permutation and
    # the JSON writer then numbered them as agents 2 and 1.
    spec = EntitledSpec(systems=(FreeSystem(), FreeSystem()), ordering=ordering)
    inst = Instance(n=2, m=2, values=((F(1), F(1)), (F(1), F(1))), system=spec)
    with pytest.raises(InstanceError, match=re.escape(
            f"entitled ordering {shown} is not a permutation of the agents")):
        validate_instance(inst)


def test_explicit_normalization_keeps_maximal_antichain():
    system = ExplicitSystem.normalize([{0, 1}, {0}, {1, 2}, {0, 1}])
    assert set(system.maximal_sets) == {frozenset({0, 1}), frozenset({1, 2})}


def test_set_systems_are_immutable_values_of_their_own_kind():
    """A system equals only systems of its kind with equal fields, hashes like
    them, is true even with no fields, refuses assignment and deletion, and
    computes each cached property once, apart from equality."""
    defaults = [FreeSystem(), ExplicitSystem(), BudgetSystem(), ConflictSystem(),
                IntervalSystem()]
    same_fields = [ExplicitSystem(()), ConflictSystem(()), IntervalSystem(())]
    for a, b in itertools.permutations(defaults, 2):
        assert a != b and not a == b
    for a, b in itertools.permutations(same_fields, 2):
        assert a != b and not a == b
    assert all(defaults) and FreeSystem() == FreeSystem()
    pairs = [(ExplicitSystem.normalize([{1, 2}, {0}, {1}]),
              ExplicitSystem(maximal_sets=(frozenset({0}), frozenset({1, 2})))),
             (ConflictSystem([(2, 1), (1, 2)]), ConflictSystem(edges=((1, 2),))),
             (BudgetSystem((Fraction(1),), Fraction(2)),
              BudgetSystem(sizes=(Fraction(1),), budget=Fraction(2)))]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
        name = a._fields[0]
        with pytest.raises(AttributeError):
            setattr(a, name, ())
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert a == b
    assert repr(pairs[1][0]) == "ConflictSystem(edges=((1, 2),))"
    with pytest.raises(TypeError):
        ExplicitSystem(sets=())
    explicit, twin = pairs[0]
    conflict = pairs[1][0]
    budget = pairs[2][0]
    for system, cached in ((explicit, "incidence"), (explicit, "masks"),
                           (conflict, "neighbours"), (budget, "scaled")):
        first = getattr(system, cached)
        assert getattr(system, cached) is first
    assert explicit.masks == twin.masks and explicit.masks is not twin.masks
    assert explicit == twin and hash(explicit) == hash(twin)


def test_instance_json_round_trip_field_formats():
    inst = gen_random_hereditary(m=6, n=2, seed=11)
    text = instance_to_json(inst)
    again = instance_from_json(text)
    assert again == inst
    assert instance_to_json(again) == text


def test_entitled_and_asymmetric_json_round_trip():
    rng = random.Random(3)
    from conftest import rand_budget_instance
    entitled = rand_budget_instance(rng, entitled=True)
    assert instance_from_json(instance_to_json(entitled)) == entitled

    asym = Instance(
        n=2, m=3, values=((F(1), F(1), F(1)), (F(1), F(1), F(1))),
        system=AsymmetricSpec(systems=(
            ExplicitSystem.normalize([{0, 1}]),
            ExplicitSystem.normalize([{1, 2}]))))
    validate_instance(asym)
    assert instance_from_json(instance_to_json(asym)) == asym


_SIZES = (F(3, 2), F(0), F(2), F(1, 3))


@pytest.mark.parametrize("spec", [
    FreeSystem(),
    ExplicitSystem.normalize([{0, 1}, {1, 2, 3}]),
    BudgetSystem(sizes=_SIZES, budget=F(7, 2)),
    EntitledSpec(systems=(BudgetSystem(sizes=_SIZES, budget=F(2)),
                          BudgetSystem(sizes=_SIZES, budget=F(5, 2))),
                 ordering=(0, 1)),
    ConflictSystem.normalize([(0, 1), (3, 2)]),
    ConflictSystem(edges=((2, 3), (0, 1), (2, 3))),
    ConflictSystem(edges=((0, 1), (1, 0))),
    IntervalSystem(jobs=((1, 1, 2), (2, 1, 4), (1, 3, 3), (3, 2, 6))),
    AsymmetricSpec(systems=(ExplicitSystem.normalize([{0, 3}]),
                            BudgetSystem(sizes=_SIZES, budget=F(1)))),
], ids=["free", "explicit", "shared-budget", "per-agent-budgets", "conflict",
        "conflict-repeated-edge", "conflict-reversed-edge", "interval",
        "asymmetric"])
def test_every_system_kind_survives_a_json_round_trip(spec):
    inst = validate_instance(Instance(
        n=2, m=4, values=((F(1), F(3, 2), F(0), F(2)),
                          (F(5, 3), F(1), F(1), F(0))), system=spec))
    text = instance_to_json(inst)
    assert instance_from_json(text) == inst
    assert instance_to_json(instance_from_json(text)) == text


def test_allocation_json_round_trip_and_validation():
    inst = gen_random_hereditary(m=5, n=2, seed=4)
    alloc = Allocation(bundles=(frozenset({0, 2}), frozenset({1})),
                       complete=False)
    text = allocation_to_json(inst, alloc)
    assert allocation_from_json(inst, text) == alloc
    overlapping = '{"bundles": [[1, 2], [2]], "complete": false}'
    with pytest.raises(InstanceError, match=r"^bundles overlap on items \[2\]$"):
        allocation_from_json(inst, overlapping)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 7))
def test_explicit_membership_downward_closed(seed, m):
    inst = gen_random_hereditary(m=m, n=1, family_density=0.6, seed=seed)
    system = inst.system
    universe = list(range(m))
    for r in range(m + 1):
        for combo in itertools.combinations(universe, r):
            if brute_member(system, combo):
                for smaller in itertools.combinations(combo, max(r - 1, 0)):
                    assert brute_member(system, smaller)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(0, 7))
def test_oracle_values_monotone_and_zero_on_empty(seed, m):
    inst = gen_random_hereditary(m=m, n=1, family_density=0.5, seed=seed)
    oracle = oracle_for(inst, 0)
    assert oracle.exact_value(frozenset()) == 0
    universe = list(range(m))
    for r in range(m + 1):
        for combo in itertools.combinations(universe, r):
            value = oracle.exact_value(frozenset(combo))
            for j in combo:
                assert oracle.exact_value(frozenset(combo) - {j}) <= value


def test_explicit_entitled_json_round_trip():
    from mmsalloc.core import EntitledSpec
    spec = EntitledSpec(
        systems=(ExplicitSystem.normalize([{0, 1}]),
                 ExplicitSystem.normalize([{0, 1}, {1, 2}])),
        ordering=(0, 1))
    inst = validate_instance(Instance(
        n=2, m=3, values=((F(1), F(1), F(1)),) * 2, system=spec))
    assert instance_from_json(instance_to_json(inst)) == inst


def test_membership_downward_closed_exhaustively_at_eight_items():
    inst = gen_random_hereditary(m=8, n=1, family_density=0.55, seed=88)
    system = inst.system
    oracle = oracle_for(inst, 0)
    for mask in range(1 << 8):
        combo = frozenset(j for j in range(8) if mask >> j & 1)
        if brute_member(system, combo):
            assert all(brute_member(system, combo - {j}) for j in combo)
        for j in combo:
            assert oracle.exact_value(combo - {j}) <= oracle.exact_value(combo)


def test_system_membership_matches_the_definition():
    """Each system's own membership test, and the oracle that asks it, agree
    with the definition on every subset of seven items."""
    rng = random.Random(29)
    m = 7

    def sizes(zeros):
        return tuple(F(rng.choice(zeros + (1, 2, 3)), rng.choice((1, 2, 3)))
                     for _ in range(m))

    systems = [
        FreeSystem(),
        ExplicitSystem(),
        gen_random_hereditary(m=m, n=1, family_density=0.5, seed=29).system,
        BudgetSystem(sizes=sizes((0, 0, 0)), budget=F(0)),
        BudgetSystem(sizes=sizes((0,)), budget=F(7, 3)),
        BudgetSystem(sizes=sizes(()), budget=F(9, 2)),
        # A budget whose denominator lies outside the sizes' scale, and one
        # that a subset of sizes with mixed denominators meets exactly.
        BudgetSystem(sizes=tuple(F(k, 2) for k in (1, 3, 2, 4, 5, 1, 3)),
                     budget=F(9, 4)),
        BudgetSystem(sizes=(F(1, 3), F(1, 2), F(3, 4), F(1, 5), F(2, 3), F(1),
                            F(5, 6)),
                     budget=F(1, 3) + F(1, 2) + F(3, 4)),
        ConflictSystem(edges=((0, 1), (1, 0), (0, 1), (2, 4), (2, 4))),
        ConflictSystem.normalize((a, b) for a in range(m)
                                 for b in range(a + 1, m)
                                 if rng.random() < 0.3),
    ]
    for system in systems:
        if isinstance(system, BudgetSystem):
            scaled_sizes, capacity = system.scaled
            assert all(type(s) is int for s in scaled_sizes)
            assert type(capacity) is int
        oracle = ValuationOracle(system, (F(1),) * m)
        for mask in range(1 << m):
            items = frozenset(j for j in range(m) if mask >> j & 1)
            expected = brute_member(system, items)
            assert system.independent(items) == expected, (system, items)
            assert oracle.is_independent(items) == expected, (system, items)


def test_nesting_check_accepts_any_family_under_a_free_system():
    explicit = ExplicitSystem(maximal_sets=(frozenset({0}), frozenset({1, 2})))
    assert system_subseteq(explicit, FreeSystem(), 3)
    budget = BudgetSystem(sizes=(F(1),) * 3, budget=F(1))
    with pytest.raises(NonNestedEntitledFamilies,
                       match="between conflict and budget"):
        system_subseteq(ConflictSystem(edges=((0, 1),)), budget, 3)


@pytest.mark.parametrize("sets, needle", [
    (({0}, {0, 1}), "not an antichain"),
    (({0, 1}, {0, 1}), "duplicate sets"),
], ids=["nested-sets", "duplicate-sets"])
def test_hand_built_explicit_family_needs_distinct_maximal_sets(sets, needle):
    system = ExplicitSystem(maximal_sets=tuple(map(frozenset, sets)))
    with pytest.raises(InstanceError, match=needle):
        validate_instance(Instance(n=1, m=2, values=((F(1), F(1)),),
                                   system=system))
