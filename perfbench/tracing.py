"""Spans recorded around calls into the library, from outside the library.

``Recorder.installed()`` replaces each traced function at every name its
callers look up (module attributes that hold the same function object) and
the oracle methods at class level, so internal calls such as
``reduce_to_independent -> exact_value`` nest.  Spans stay in memory as
columns (name, parent, case, start, end) until the run writes them out.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import weakref
from array import array
from collections import Counter
from time import perf_counter

# (defining module, function, span name)
FUNCTIONS = (
    ("driver", "solve_existence", "driver.solve"),
    ("driver", "solve_two_fifths", "driver.solve"),
    ("driver", "solve_alpha", "driver.solve"),
    ("driver", "solve_entitled", "driver.solve"),
    ("divider", "lone_divider", "divider.lone_divider"),
    ("divider", "lone_divider_entitled", "divider.lone_divider_entitled"),
    ("bundles", "make_bundles_alpha", "bundles.make_bundles_alpha"),
    ("bundles", "bundles_from_mms_partition", "bundles.bundles_from_mms_partition"),
    ("matching", "envy_free_matching", "matching.envy_free_matching"),
    ("matching", "max_general_matching", "matching.max_general_matching"),
    ("mms_oracle", "compute_mms_exact", "mms_oracle.compute_mms_exact"),
    ("mms_oracle", "verify_allocation", "mms_oracle.verify_allocation"),
    ("adapters", "solve_budget_adapter", "adapters.solve_budget_adapter"),
    ("adapters", "solve_intervals_adapter", "adapters.solve_intervals_adapter"),
    ("adapters", "solve_conflicts_adapter", "adapters.solve_conflicts_adapter"),
    ("core", "instance_from_json", "core.instance_from_json"),
    ("core", "allocation_to_json", "core.allocation_to_json"),
    ("cli", "main", "cli.main"),
)

# ValuationOracle methods; spans are named valuation.<system kind>.<method>.
KINDS = ("explicit", "budget", "interval", "conflict")
METHODS = ("exact_value", "reduce_to_independent", "approx_value_subset",
           "is_independent", "pair_independent", "schedule_witness")


class Recorder:
    def __init__(self):
        self.case = -1
        self.names: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_case = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._queried = weakref.WeakKeyDictionary()  # oracle -> item sets seen

    # -- spans ---------------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs):
        nid = self.names.setdefault(name, len(self.names))
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_case.append(self.case)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start[idx] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[idx] = perf_counter()
            self._stack.pop()

    def _function_wrapper(self, name: str, fn):
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def _method_wrapper(self, method: str, fn):
        def wrapper(oracle, *args, **kwargs):
            name = f"valuation.{oracle.system.kind}.{method}"
            if method == "approx_value_subset":
                seen = self._queried.setdefault(oracle, set())
                items = frozenset(args[0] if args else kwargs["bundle"])
                if items in seen:
                    self.counts[f"{name}.repeats"] += 1
                seen.add(items)
            return self._call(name, fn, (oracle, *args), kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "mmsalloc" or name.startswith("mmsalloc.")]
        patches = []
        for module, function, name in FUNCTIONS:
            original = getattr(sys.modules[f"mmsalloc.{module}"], function)
            wrapper = self._function_wrapper(name, original)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        patches.append((holder, attr, original))
                        setattr(holder, attr, wrapper)
        oracle_class = sys.modules["mmsalloc.valuation"].ValuationOracle
        for method in METHODS:
            original = vars(oracle_class)[method]
            patches.append((oracle_class, method, original))
            setattr(oracle_class, method, self._method_wrapper(method, original))
        try:
            yield self
        finally:
            for holder, attr, original in reversed(patches):
                setattr(holder, attr, original)

    # -- summaries -------------------------------------------------------------

    def self_times(self) -> array:
        """Each span's duration minus the time its child spans cover."""
        own = array("d", (e - s for s, e in zip(self.span_start, self.span_end)))
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= self.span_end[idx] - self.span_start[idx]
        return own

    def totals(self) -> tuple[Counter, Counter]:
        """Per span name: call count and summed self time."""
        label = {nid: name for name, nid in self.names.items()}
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for nid, own in zip(self.span_name, self.self_times()):
            calls[label[nid]] += 1
            self_s[label[nid]] += own
        return calls, self_s

    def calls_by_case(self) -> dict[int, Counter]:
        label = {nid: name for name, nid in self.names.items()}
        by_case: dict[int, Counter] = {}
        for nid, case in zip(self.span_name, self.span_case):
            by_case.setdefault(case, Counter())[label[nid]] += 1
        return by_case

    def write(self, path: str) -> None:
        """Spans as gzipped tab-separated rows: id, name, parent, case, start, end."""
        label = {nid: name for name, nid in self.names.items()}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("id\tname\tparent\tcase\tstart_s\tend_s\n")
            for idx, (nid, parent, case, start, end) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_case,
                    self.span_start, self.span_end)):
                handle.write(f"{idx}\t{label[nid]}\t{parent}\t{case}\t"
                             f"{start:.9f}\t{end:.9f}\n")


def _after_divider(recorder, args, outcome):
    recorder.counts["divider.successes"] += outcome.succeeded
    recorder.counts["divider.rounds"] += len(outcome.trace)
    recorder.counts["divider.swaps"] += sum(len(r.swaps) for r in outcome.trace)


def _after_make_bundles(recorder, args, bundles):
    recorder.counts["bundles.make_bundles_alpha.yields"] += bundles is not None


_AFTER = {
    "divider.lone_divider": _after_divider,
    "divider.lone_divider_entitled": _after_divider,
    "bundles.make_bundles_alpha": _after_make_bundles,
}


def per_layer(recorder: Recorder) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, zero where unused."""
    calls, self_s = recorder.totals()
    counts = recorder.counts
    runs = calls["divider.lone_divider"] + calls["divider.lone_divider_entitled"]
    metrics = {
        "driver.divider_runs": runs,
        "driver.adjustments": runs - counts["divider.successes"],
        "driver.solve.self_s": self_s["driver.solve"],
        "divider.rounds": counts["divider.rounds"],
        "divider.swaps": counts["divider.swaps"],
        "divider.success_ratio": _ratio(counts["divider.successes"], runs),
        "bundles.make_bundles_alpha.yield_ratio": _ratio(
            counts["bundles.make_bundles_alpha.yields"],
            calls["bundles.make_bundles_alpha"]),
    }
    for name in ("divider.lone_divider", "divider.lone_divider_entitled",
                 "bundles.make_bundles_alpha", "bundles.bundles_from_mms_partition",
                 "matching.envy_free_matching", "matching.max_general_matching",
                 "mms_oracle.compute_mms_exact", "mms_oracle.verify_allocation"):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    for kind in KINDS:
        for method in ("exact_value", "reduce_to_independent",
                       "approx_value_subset", "is_independent"):
            name = f"valuation.{kind}.{method}"
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"valuation.{kind}.pair_independent.calls"] = \
            calls[f"valuation.{kind}.pair_independent"]
        name = f"valuation.{kind}.approx_value_subset"
        metrics[f"{name}.repeat_ratio"] = _ratio(counts[f"{name}.repeats"], calls[name])
    metrics["valuation.interval.schedule_witness.calls"] = \
        calls["valuation.interval.schedule_witness"]
    metrics["valuation.interval.schedule_witness.self_s"] = \
        self_s["valuation.interval.schedule_witness"]
    for name in ("adapters.solve_budget_adapter", "adapters.solve_intervals_adapter",
                 "adapters.solve_conflicts_adapter", "core.instance_from_json",
                 "core.allocation_to_json", "cli.main"):
        metrics[f"{name}.self_s"] = self_s[name]
    return metrics


def _ratio(part: int, whole: int) -> float:
    """part / whole, or 0 when nothing was attempted."""
    return part / whole if whole else 0.0
