"""Domain types, exact arithmetic policy, and instance validation.

Threshold comparisons are exact, on `fractions.Fraction` or on integer weights
over one scale per agent (`scaled_weights`).  Items and agents are 0-based
internally and 1-based in every file format and CLI surface.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from typing import NamedTuple, Union

Items = frozenset[int]

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class InstanceError(ValueError):
    """An instance violates a structural invariant."""


class NegativeValue(InstanceError):
    pass


class NonNestedEntitledFamilies(InstanceError):
    pass


class InvalidInterval(InstanceError):
    pass


class IndexOutOfRange(InstanceError):
    pass


class ExactnessGateExceeded(RuntimeError):
    """An exact NP-hard evaluation was requested above the configured gate."""


class BruteForceGateExceeded(RuntimeError):
    """A brute-force enumeration was requested above the configured gate."""


class InsufficientBundles(RuntimeError):
    """A maker with a success guarantee produced fewer bundles than required."""


class DegreeTooHigh(ValueError):
    """Conflict completion needs strictly more agents than the max degree."""


class EpsilonOutOfRange(ValueError):
    pass


class NotDivisible(ValueError):
    pass


class NotTripleMultiple(ValueError):
    pass


class UnsupportedSystem(ValueError):
    """The requested operation has no guarantee for this system variant."""


# ---------------------------------------------------------------------------
# Exact rationals at the boundary
# ---------------------------------------------------------------------------

def parse_rational(value) -> Fraction:
    """Convert an int or a "p/q" / "p" / decimal string to an exact Fraction."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float) and math.isfinite(value):
        return Fraction(repr(value))  # its shortest decimal form, exactly
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            pass
    # JSON's literals (null, true, Infinity) are quoted as JSON writes them
    json_literal = value is None or isinstance(value, (bool, float))
    raise InstanceError("not a rational: "
                        + (json.dumps(value) if json_literal else repr(value)))


def scaled_weights(values) -> tuple[int, tuple[int, ...]]:
    """The least common multiple of the values' denominators, and each value
    times it: exact integer weights with value = weight / scale."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*{d for _, d in ratios})
    return scale, tuple(a * (scale // d) for a, d in ratios)


# ---------------------------------------------------------------------------
# Set system variants
# ---------------------------------------------------------------------------

class _Frozen:
    """Immutable value base of the set systems: ``_fields`` names the
    constructor's arguments, and one left out keeps its class default.  Unlike
    tuples, systems equal only their own class, are true and cache properties."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        if len(args) > len(self._fields) or kwargs.keys() - self._fields:
            raise TypeError(f"{type(self).__name__} takes fields {self._fields}")
        self.__dict__.update(zip(self._fields, args), **kwargs)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class FreeSystem(_Frozen):
    """Every subset is independent (plain additive valuations)."""

    kind = "free"

    def independent(self, items: Items) -> bool:
        return True


class ExplicitSystem(_Frozen):
    """Hereditary family stored as an antichain of maximal independent sets.

    A set is independent iff it is contained in some listed maximal set, so
    downward closure holds by construction.
    """

    kind = "explicit"
    _fields = ("maximal_sets",)
    maximal_sets: tuple[Items, ...] = ()

    @staticmethod
    def normalize(sets) -> "ExplicitSystem":
        """Build from arbitrary sets, keeping only the maximal distinct ones."""
        distinct = {frozenset(s) for s in sets}
        maximal = [s for s in distinct
                   if not any(s < t for t in distinct)]
        maximal.sort(key=lambda s: (len(s), sorted(s)))
        return ExplicitSystem(maximal_sets=tuple(maximal))

    @functools.cached_property
    def incidence(self) -> dict[int, tuple[int, ...]]:
        """The positions of the maximal sets holding each item, for items in
        some set: {j} is independent exactly when j is a key."""
        return {j: tuple(t for t, s in enumerate(self.maximal_sets) if j in s)
                for j in frozenset().union(*self.maximal_sets)}

    @functools.cached_property
    def masks(self) -> dict[int, int]:  # ``incidence`` as bitmasks of positions
        return {j: sum(1 << t for t in held) for j, held in self.incidence.items()}

    def independent(self, items: Items) -> bool:
        return not items or any(items <= s for s in self.maximal_sets)


class BudgetSystem(_Frozen):
    """Items have sizes; a bundle is independent if its sizes fit the budget."""

    kind = "budget"
    _fields = ("sizes", "budget")
    sizes: tuple[Fraction, ...] = ()
    budget: Fraction = ZERO

    @functools.cached_property
    def scaled(self) -> tuple[tuple[int, ...], int]:
        """The sizes as integers over the lcm of their denominators, and the
        budget on that scale rounded down, which a fitting sum never passes."""
        scale, sizes = scaled_weights(self.sizes)
        return sizes, self.budget.numerator * scale // self.budget.denominator

    def independent(self, items: Items) -> bool:
        sizes, capacity = self.scaled
        return sum(map(sizes.__getitem__, items)) <= capacity


class ConflictSystem(_Frozen):
    """A bundle is independent if it induces no edge of the conflict graph;
    edges are sorted distinct (min, max) pairs, so equal graphs compare equal."""

    kind = "conflict"
    _fields = ("edges",)

    def __init__(self, edges=()):
        super().__init__(tuple(sorted({(min(a, b), max(a, b)) for a, b in edges})))

    @staticmethod
    def normalize(edges) -> "ConflictSystem":
        return ConflictSystem(edges=edges)

    @functools.cached_property
    def neighbours(self) -> dict[int, set[int]]:
        """The items each item conflicts with, for items on some edge."""
        adjacent: dict[int, set[int]] = {}
        for a, b in self.edges:
            adjacent.setdefault(a, set()).add(b)
            adjacent.setdefault(b, set()).add(a)
        return adjacent

    def independent(self, items: Items) -> bool:
        neighbours = self.neighbours
        for a in items:
            adjacent = neighbours.get(a)
            if adjacent and any(b in adjacent and b > a for b in items):
                return False
        return True


class IntervalSystem(_Frozen):
    """Jobs with processing time, release, and deadline on a single machine.

    A bundle is independent if its jobs can be scheduled without overlap,
    each inside its release/deadline window, over integer unit time periods.
    Each job is a (processing, release, deadline) triple.
    """

    kind = "interval"
    _fields = ("jobs",)
    jobs: tuple[tuple[int, int, int], ...] = ()


SetSystem = Union[FreeSystem, ExplicitSystem, BudgetSystem, ConflictSystem,
                  IntervalSystem]


class EntitledSpec(NamedTuple):
    """Per-agent systems nested along an agent ordering.

    ``ordering`` lists agent indices from most to least restrictive, so the
    families grow along it.
    """

    systems: tuple[SetSystem, ...]
    ordering: tuple[int, ...]


class AsymmetricSpec(NamedTuple):
    """Per-agent systems with no relation between the families."""

    systems: tuple[SetSystem, ...]


SystemSpec = Union[SetSystem, EntitledSpec, AsymmetricSpec]


def system_subseteq(a: SetSystem, b: SetSystem, m: int) -> bool:
    """Decide whether every independent set of ``a`` is independent in ``b``.

    Only the combinations needed for entitled validation are supported;
    anything else raises NonNestedEntitledFamilies.
    """
    if a == b:
        return True
    if isinstance(b, (FreeSystem, ExplicitSystem)) \
            and b.independent(frozenset(range(m))):
        return True
    if isinstance(a, ExplicitSystem) and isinstance(b, ExplicitSystem):
        return all(map(b.independent, a.maximal_sets))
    if (isinstance(a, BudgetSystem) and isinstance(b, BudgetSystem)
            and a.sizes == b.sizes):
        return a.budget <= b.budget
    raise NonNestedEntitledFamilies(
        f"cannot verify nesting between {a.kind} and {b.kind} systems")


# ---------------------------------------------------------------------------
# Instance and allocation
# ---------------------------------------------------------------------------

class Instance(NamedTuple):
    """A fair-allocation instance: agents, items, values, and a set system."""

    n: int
    m: int
    values: tuple[tuple[Fraction, ...], ...]
    system: SystemSpec

    def system_for(self, agent: int) -> SetSystem:
        if isinstance(self.system, (EntitledSpec, AsymmetricSpec)):
            return self.system.systems[agent]
        return self.system

    @property
    def is_entitled(self) -> bool:
        return isinstance(self.system, EntitledSpec)

    @property
    def is_asymmetric(self) -> bool:
        return isinstance(self.system, AsymmetricSpec)

    def all_items(self) -> Items:
        return frozenset(range(self.m))


class Allocation(NamedTuple):
    """Ordered pairwise-disjoint bundles, one per agent, possibly partial."""

    bundles: tuple[Items, ...]
    complete: bool = False


def _check_item_indices(indices, m: int, what: str) -> None:
    for j in indices:
        if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < m:
            number = j + 1 if type(j) is int else repr(j)  # files count from 1
            raise IndexOutOfRange(f"{what}: item {number} not in [1, {m}]")


def _validate_system(system: SetSystem, m: int) -> None:
    if isinstance(system, FreeSystem):
        return
    if isinstance(system, ExplicitSystem):
        for s in system.maximal_sets:
            _check_item_indices(s, m, "explicit family")
        for s in system.maximal_sets:
            if any(s < t for t in system.maximal_sets):
                raise InstanceError(
                    "explicit family is not an antichain of maximal sets")
        if len(set(system.maximal_sets)) != len(system.maximal_sets):
            raise InstanceError("explicit family contains duplicate sets")
        return
    if isinstance(system, BudgetSystem):
        if len(system.sizes) != m:
            raise InstanceError(
                f"budget system has {len(system.sizes)} sizes for {m} items")
        for what, x in [*(("item size", s) for s in system.sizes),
                        ("budget", system.budget)]:
            if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
                raise InstanceError(f"{what} {x!r} is not an exact rational")
            if x < 0:
                raise NegativeValue(f"negative {what} {x}")
        return
    if isinstance(system, ConflictSystem):
        for a, b in system.edges:
            _check_item_indices((a, b), m, "conflict edge")
            if a == b:
                raise InstanceError(f"conflict self-loop on item {a + 1}")
        return
    if isinstance(system, IntervalSystem):
        if len(system.jobs) != m:
            raise InstanceError(
                f"interval system has {len(system.jobs)} jobs for {m} items")
        for t, (p, r, d) in enumerate(system.jobs, 1):
            if not all(isinstance(x, int) and not isinstance(x, bool)
                       for x in (p, r, d)):
                raise InvalidInterval(f"interval job {t}: non-integer parameters")
            if p < 1 or r < 1:
                raise InvalidInterval(f"interval job {t}: needs p >= 1 and r >= 1")
            if d < r + p - 1:
                raise InvalidInterval(f"interval job {t}: deadline {d} < release "
                                      f"{r} + processing {p} - 1")
        return
    raise InstanceError(f"unknown system variant: {system!r}")


def _check_counts(n, m) -> None:
    for count, what in ((n, "agent"), (m, "item")):
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise InstanceError(f"{what} count {count!r} must be a non-negative int")


def validate_instance(instance: Instance) -> Instance:
    """Check all structural invariants, returning the instance unchanged.

    Raises a subclass of InstanceError on the first violation found.
    """
    n, m = instance.n, instance.m
    _check_counts(n, m)
    if len(instance.values) != n:
        raise InstanceError(
            f"value matrix has {len(instance.values)} rows for {n} agents")
    for i, row in enumerate(instance.values):
        if len(row) != m:
            raise InstanceError(
                f"agent {i + 1}: value row has {len(row)} entries for {m} items")
        for v in row:
            if not isinstance(v, Fraction):
                raise InstanceError(
                    f"agent {i + 1}: value {v!r} is not an exact rational")
            if v < 0:
                raise NegativeValue(f"agent {i + 1}: negative value {v}")

    spec = instance.system
    if not isinstance(spec, (AsymmetricSpec, EntitledSpec)):
        _validate_system(spec, m)
        return instance
    if len(spec.systems) != n:
        kind = "entitled" if isinstance(spec, EntitledSpec) else "asymmetric"
        raise InstanceError(
            f"{kind} spec has {len(spec.systems)} systems for {n} agents")
    for sys_i in spec.systems:
        _validate_system(sys_i, m)
    if isinstance(spec, EntitledSpec):
        # A boolean sorts as 0 or 1, so it must not pass for an agent.
        if bool in map(type, spec.ordering) or sorted(spec.ordering) != list(range(n)):
            numbers = [i + 1 if type(i) is int else i for i in spec.ordering]
            raise IndexOutOfRange(
                f"entitled ordering {numbers} is not a permutation of the agents")
        for prev, nxt in zip(spec.ordering, spec.ordering[1:]):
            if not system_subseteq(spec.systems[prev], spec.systems[nxt], m):
                raise NonNestedEntitledFamilies(
                    f"agent {prev + 1}'s family is not contained in agent {nxt + 1}'s")
    return instance


def validate_allocation(instance: Instance, allocation: Allocation) -> Allocation:
    if len(allocation.bundles) != instance.n:
        raise InstanceError(
            f"allocation has {len(allocation.bundles)} bundles for {instance.n} agents")
    seen: set[int] = set()
    for bundle in allocation.bundles:
        _check_item_indices(bundle, instance.m, "allocation")
        overlap = seen.intersection(bundle)
        if overlap:
            raise InstanceError(f"bundles overlap on items {sorted(j + 1 for j in overlap)}")
        seen.update(bundle)
    if allocation.complete and len(seen) != instance.m:
        raise InstanceError("allocation marked complete but items are missing")
    return allocation


# ---------------------------------------------------------------------------
# JSON interchange (1-based agents and items)
# ---------------------------------------------------------------------------

def _system_to_payload(system: SetSystem) -> dict:
    if isinstance(system, FreeSystem):
        return {"kind": "free"}
    if isinstance(system, ExplicitSystem):
        return {"kind": "explicit",
                "maximal_sets": [[j + 1 for j in sorted(s)]
                                 for s in system.maximal_sets]}
    if isinstance(system, BudgetSystem):
        return {"kind": "budget",
                "sizes": [str(s) for s in system.sizes],
                "budget": str(system.budget)}
    if isinstance(system, ConflictSystem):
        return {"kind": "conflict",
                "edges": [[a + 1, b + 1] for a, b in system.edges]}
    if isinstance(system, IntervalSystem):
        return {"kind": "interval",
                "jobs": [{"p": p, "r": r, "d": d} for p, r, d in system.jobs]}
    raise InstanceError(f"unknown system variant: {system!r}")


def _json_list(value, what: str) -> list:
    """The value, if a JSON list: a string would be read char by char."""
    if not isinstance(value, list):
        raise InstanceError(f"{what} must be a JSON list, got {value!r}")
    return value


def _zero_based(numbers, what: str) -> list:
    """Shift 1-based numbers from a file to indices, refusing non-integers."""
    numbers = _json_list(numbers, what)
    for j in numbers:
        if not isinstance(j, int) or isinstance(j, bool):
            raise InstanceError(f"{what} {json.dumps(numbers)}: "
                                f"{json.dumps(j)} is not an integer")
    return [j - 1 for j in numbers]


def _system_from_payload(payload: dict, n: int) -> SetSystem | EntitledSpec:
    if not isinstance(payload, dict):
        raise InstanceError(f"system payload must be an object, got {payload!r}")
    kind = payload.get("kind")
    if kind == "free":
        return FreeSystem()
    if kind == "explicit":
        sets = [frozenset(_zero_based(s, "maximal set"))
                for s in _json_list(payload["maximal_sets"], "maximal sets")]
        return ExplicitSystem.normalize(sets)
    if kind == "budget":
        sizes = tuple(map(parse_rational, _json_list(payload["sizes"], "sizes")))
        if "budgets" in payload:
            budgets = list(map(parse_rational,
                               _json_list(payload["budgets"], "budgets")))
            if len(budgets) != n:
                raise InstanceError(
                    f"budget system has {len(budgets)} budgets for {n} agents")
            systems = tuple(BudgetSystem(sizes=sizes, budget=b) for b in budgets)
            order = tuple(sorted(range(n), key=lambda i: (budgets[i], i)))
            return EntitledSpec(systems=systems, ordering=order)
        return BudgetSystem(sizes=sizes, budget=parse_rational(payload["budget"]))
    if kind == "conflict":
        edges = [_zero_based(edge, "conflict edge")
                 for edge in _json_list(payload["edges"], "conflict edges")]
        for edge in edges:
            if len(edge) != 2:
                raise InstanceError(
                    f"conflict edge {[j + 1 for j in edge]} does not join two items")
        return ConflictSystem.normalize(edges)
    if kind == "interval":
        jobs = _json_list(payload["jobs"], "interval jobs")
        for t, job in enumerate(jobs, 1):
            if not isinstance(job, dict) or not {"p", "r", "d"} <= job.keys():
                raise InstanceError(f"interval job {t} must be an object with "
                                    f"keys p, r and d, got {json.dumps(job)}")
        return IntervalSystem(jobs=tuple((job["p"], job["r"], job["d"])
                                         for job in jobs))
    raise InstanceError(f"unknown system kind: {kind!r}")


def instance_to_json(instance: Instance) -> str:
    doc: dict = {
        "n": instance.n,
        "m": instance.m,
        "values": [[str(v) for v in row] for row in instance.values],
    }
    spec = instance.system
    if isinstance(spec, EntitledSpec):
        kinds = {s.kind for s in spec.systems}
        if kinds == {"budget"} and len({s.sizes for s in spec.systems}) == 1:
            doc["system"] = {
                "kind": "budget",
                "sizes": [str(s) for s in spec.systems[0].sizes],
                "budgets": [str(s.budget) for s in spec.systems],
            }
        else:
            doc["asymmetric"] = [_system_to_payload(s) for s in spec.systems]
        doc["entitled"] = [i + 1 for i in spec.ordering]
    elif isinstance(spec, AsymmetricSpec):
        doc["asymmetric"] = [_system_to_payload(s) for s in spec.systems]
    else:
        doc["system"] = _system_to_payload(spec)
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def instance_from_json(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"malformed instance JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError(
            f"instance must be a JSON object, got {type(doc).__name__}")
    spec: SystemSpec
    try:
        n, m = doc["n"], doc["m"]
        _check_counts(n, m)  # before the system, which reads n
        values = tuple(tuple(map(parse_rational, _json_list(row, "value row")))
                       for row in _json_list(doc["values"], "value matrix"))
        has_system = "system" in doc
        has_asym = "asymmetric" in doc
        has_order = "entitled" in doc
        if has_system and has_asym:
            raise InstanceError(
                "instance declares both a shared and per-agent systems")
        if has_order:
            ordering = tuple(_zero_based(doc["entitled"], "entitled ordering"))
        if has_asym:
            systems = tuple(_system_from_payload(p, n) for p in
                            _json_list(doc["asymmetric"], "asymmetric block"))
            if any(isinstance(s, EntitledSpec) for s in systems):
                raise InstanceError("per-agent system payloads must be plain systems")
            if has_order:
                spec = EntitledSpec(systems=systems, ordering=ordering)
            else:
                spec = AsymmetricSpec(systems=systems)
        elif has_system:
            parsed = _system_from_payload(doc["system"], n)
            if has_order:
                if not isinstance(parsed, EntitledSpec):
                    raise InstanceError(
                        "an entitled ordering needs per-agent systems "
                        "(per-agent budgets or an asymmetric block)")
                parsed = EntitledSpec(systems=parsed.systems, ordering=ordering)
            spec = parsed
        else:
            raise InstanceError("instance declares no set system")
    except KeyError as exc:
        raise InstanceError(f"malformed instance JSON: missing key {exc}") from exc
    except TypeError as exc:
        raise InstanceError(f"malformed instance JSON: {exc}") from exc

    return validate_instance(Instance(n=n, m=m, values=values, system=spec))


def allocation_to_json(instance: Instance, allocation: Allocation,
                       extras: dict | None = None) -> str:
    doc: dict = {
        "n": instance.n,
        "m": instance.m,
        "bundles": [[j + 1 for j in sorted(b)] for b in allocation.bundles],
        "complete": allocation.complete,
    }
    if extras:
        doc.update(extras)
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def allocation_from_json(instance: Instance, text: str) -> Allocation:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"malformed allocation JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("bundles"), list):
        raise InstanceError("allocation must be an object with a list of bundles")
    bundles = tuple(frozenset(_zero_based(b, "allocation bundle"))
                    for b in doc["bundles"])
    complete = doc.get("complete", False)
    if not isinstance(complete, bool):
        raise InstanceError(f"allocation complete flag {complete!r} is not a boolean")
    allocation = Allocation(bundles=bundles, complete=complete)
    return validate_allocation(instance, allocation)
