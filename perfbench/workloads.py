"""Seeded workloads: instance generators, one solve per instance, and checks.

Each workload turns a seed into a corpus of cases, solves one case at a
time through the library's public entry points, and judges the result with
the oracle-free checks in ``checks``.  The library is looked up at call time
(``lib``) so that the tracing wrappers, installed on the modules, see every
call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

import checks

# Exit codes of ``mmsalloc solve`` (see mmsalloc.cli).
EXIT_OK, EXIT_VERIFY_FAIL = 0, 1


def lib(module: str):
    return importlib.import_module(f"mmsalloc.{module}")


@dataclass(frozen=True)
class Case:
    index: int
    instance: object
    mode: str
    path: str | None = None


@dataclass(frozen=True)
class Outcome:
    """What one solve produced; everything but ``ratios`` must repeat exactly.

    ``ratios`` holds awarded value over exact MMS for each agent with a
    positive MMS, where the workload certifies it.
    """

    ok: bool
    failure: str | None = None
    digests: tuple[str, ...] = ()
    divider_runs: int = 0
    adjustments: int = 0
    ratios: tuple[float, ...] = ()

    def key(self) -> tuple:
        return (self.ok, self.failure, self.digests, self.divider_runs,
                self.adjustments)


def classify(exc: BaseException) -> str:
    """Exception class plus the first line of its message."""
    lines = str(exc).strip().splitlines()
    return f"{type(exc).__name__}: {lines[0]}" if lines else type(exc).__name__


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Seeded generators (the package ships only the explicit one)
# ---------------------------------------------------------------------------

def _values(rng, n, m):
    return tuple(tuple(Fraction(rng.randint(0, 6), rng.choice((1, 1, 2, 3)))
                       for _ in range(m)) for _ in range(n))


def gen_explicit(rng, m, n):
    generators = lib("generators")
    return generators.gen_random_hereditary(m=m, n=n, family_density=0.6,
                                            seed=rng.getrandbits(32))


def gen_budget(rng, m, n):
    """Nested per-agent budgets over shared sizes (sizes 1-9, budgets 10-40)."""
    core = lib("core")
    sizes = tuple(Fraction(rng.randint(1, 9)) for _ in range(m))
    budgets = [Fraction(rng.randint(10, 40)) for _ in range(n)]
    systems = tuple(core.BudgetSystem(sizes=sizes, budget=b) for b in budgets)
    ordering = tuple(sorted(range(n), key=lambda i: (budgets[i], i)))
    return core.validate_instance(core.Instance(
        n=n, m=m, values=_values(rng, n, m),
        system=core.EntitledSpec(systems=systems, ordering=ordering)))


def gen_interval(rng, m, n):
    """Jobs with processing time 1-3 and slack 0-6, released over 2m slots."""
    core = lib("core")
    jobs = []
    for _ in range(m):
        p = rng.randint(1, 3)
        r = rng.randint(1, 2 * m)
        jobs.append((p, r, r + p - 1 + rng.randint(0, 6)))
    return core.validate_instance(core.Instance(
        n=n, m=m, values=_values(rng, n, m),
        system=core.IntervalSystem(jobs=tuple(jobs))))


def gen_conflict(rng, m, n):
    """Random conflict graph whose maximum degree stays below n."""
    core = lib("core")
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    rng.shuffle(pairs)
    degree = [0] * m
    edges = []
    for a, b in pairs:
        if rng.random() < 0.3 and degree[a] < n - 1 and degree[b] < n - 1:
            edges.append((a, b))
            degree[a] += 1
            degree[b] += 1
    return core.validate_instance(core.Instance(
        n=n, m=m, values=_values(rng, n, m),
        system=core.ConflictSystem.normalize(edges)))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _allocation_digest(bundles, alpha, schedules=()) -> str:
    doc = {"bundles": [sorted(j + 1 for j in b) for b in bundles],
           "alpha": str(alpha),
           "schedules": [{str(j + 1): s for j, s in sorted(w.items())}
                         for w in schedules]}
    return _sha256(json.dumps(doc, sort_keys=True).encode())


class InProcess:
    """Solves each case by calling a library entry point in this process.

    ``shape`` lists (m, n) pairs; case t of the corpus uses shape
    t mod len(shape), so every corpus holds the same mix of sizes.
    """

    exact_mms = False

    def __init__(self, name, generate, entry, shape, corpus_size, trace_cases):
        self.name = name
        self.generate = generate
        self.entry = entry
        self.shape = shape
        self.corpus_size = corpus_size
        self.trace_cases = trace_cases

    def make_corpus(self, seed: int, workdir: str) -> list[Case]:
        rng = random.Random(f"{self.name}/{seed}")
        return [Case(t, self.generate(rng, *self.shape[t % len(self.shape)]), "")
                for t in range(self.corpus_size)]

    def solve(self, case: Case, in_process: bool):
        module, function = self.entry
        return getattr(lib(module), function)(case.instance)

    def judge(self, case: Case, solved) -> Outcome:
        instance = case.instance
        result = getattr(solved, "result", solved)
        schedules = getattr(solved, "schedules", ())
        bundles = solved.allocation.bundles
        problems = checks.check_allocation(
            instance, bundles, result.thresholds,
            witnesses=schedules or None)
        for agent, granted in result.awarded.items():
            if granted.items != bundles[agent]:
                problems.append(f"agent {agent + 1}: awarded bundle differs "
                                f"from the allocation")
        return Outcome(
            ok=not problems,
            failure=f"CheckFailed: {problems[0]}" if problems else None,
            digests=(_allocation_digest(bundles, result.alpha, schedules),),
            divider_runs=len(result.runs),
            adjustments=sum(result.adjustments.values()))


class DeskCli:
    """Solves desk-scale instance files with ``mmsalloc solve --certify``.

    Timed runs start the CLI as a subprocess; traced runs call
    ``mmsalloc.cli.main`` in this process so the wrappers see the calls.
    """

    name = "desk-certify"
    exact_mms = True
    # (system kind, mode, m, n), cycled through the corpus.
    shape = (("explicit", "existence", 10, 3), ("explicit", "two_fifths", 10, 3),
             ("conflict", "existence", 10, 3), ("explicit", "existence", 9, 3),
             ("explicit", "two_fifths", 11, 3), ("conflict", "existence", 9, 3))
    corpus_size = 96
    trace_cases = 24

    def __init__(self, src: str):
        self.src = src

    def make_corpus(self, seed: int, workdir: str) -> list[Case]:
        core = lib("core")
        rng = random.Random(f"{self.name}/{seed}")
        corpus = []
        for t in range(self.corpus_size):
            kind, mode, m, n = self.shape[t % len(self.shape)]
            make = gen_conflict if kind == "conflict" else gen_explicit
            instance = make(rng, m, n)
            path = os.path.join(workdir, f"case{t}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(core.instance_to_json(instance))
            corpus.append(Case(t, instance, mode, path))
        return corpus

    def _argv(self, case: Case) -> list[str]:
        stem = case.path[:-len(".json")]
        return ["solve", case.path, "--mode", case.mode, "--certify",
                "--out", f"{stem}.alloc.json", "--trace", f"{stem}.trace"]

    def solve(self, case: Case, in_process: bool):
        stem = case.path[:-len(".json")]
        for stale in (f"{stem}.alloc.json", f"{stem}.trace"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(stale)
        if in_process:
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = lib("cli").main(self._argv(case))
            return code, stderr.getvalue()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (self.src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-m", "mmsalloc.cli", *self._argv(case)],
                              env=env, capture_output=True, text=True, timeout=60)
        return done.returncode, done.stderr

    def judge(self, case: Case, solved) -> Outcome:
        """Judge the written allocation on exit 0, and on exit 1 too.

        Exit 1 means a certificate failed: the allocation and trace are
        written all the same, so the failure is a CheckFailed one and its
        ratios count.  Other exits (bad input, a tripped gate) are failures
        with nothing to judge.
        """
        code, stderr = solved
        if code not in (EXIT_OK, EXIT_VERIFY_FAIL):
            first = stderr.strip().splitlines()[0] if stderr.strip() else ""
            return Outcome(ok=False, failure=f"exit {code}: {first}")
        stem = case.path[:-len(".json")]
        with open(f"{stem}.alloc.json", "rb") as handle:
            alloc_bytes = handle.read()
        with open(f"{stem}.trace", "rb") as handle:
            trace_bytes = handle.read()
        doc = json.loads(alloc_bytes)
        instance = case.instance
        certificates = doc["certificates"]
        bundles = [frozenset(j - 1 for j in b) for b in doc["bundles"]]
        alpha = Fraction(doc["alpha"])
        mu = {c["agent"] - 1: Fraction(c["mu"]) for c in certificates
              if c["mu"] is not None}
        problems = checks.check_allocation(
            instance, bundles, {i: alpha * mu[i] for i in mu})
        if sorted(c["agent"] - 1 for c in certificates) != list(range(instance.n)):
            problems.append("certificates do not cover every agent")
        refused = [c["agent"] for c in certificates if not c["ok"]]
        if refused:
            problems.append(f"agent {refused[0]}: certificate is not ok")
        elif code != EXIT_OK:
            problems.append(f"exit {code} although every certificate is ok")
        runs = [json.loads(line)["run"] for line in trace_bytes.splitlines()]
        ratios = tuple(float(checks.additive_value(instance, i, bundles[i]) / mu[i])
                       for i in sorted(mu) if i < len(bundles) and mu[i] > 0)
        return Outcome(
            ok=not problems,
            failure=f"CheckFailed: {problems[0]}" if problems else None,
            digests=(_sha256(alloc_bytes), _sha256(trace_bytes)),
            divider_runs=max(runs, default=0),
            adjustments=max(max(runs, default=0) - 1, 0),
            ratios=ratios)


def workloads(src: str) -> dict:
    return {w.name: w for w in (
        InProcess("explicit-adjust", gen_explicit, ("driver", "solve_two_fifths"),
                  shape=((24, 5),), corpus_size=400, trace_cases=30),
        InProcess("budget-entitled", gen_budget, ("adapters", "solve_budget_adapter"),
                  shape=((16, 4),), corpus_size=500, trace_cases=40),
        # Three of the five sizes are 12, so the median falls inside one
        # size class.  No size exceeds the 16-job exactness gate, so no
        # solve fails.
        InProcess("interval-sched", gen_interval, ("adapters", "solve_intervals_adapter"),
                  shape=((10, 3), (12, 3), (12, 3), (12, 3), (14, 3)),
                  corpus_size=1000, trace_cases=40),
        DeskCli(src),
    )}
