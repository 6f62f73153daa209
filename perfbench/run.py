"""Seeded, single-process benchmark for mmsalloc.

Usage, from the repository root:

    python3 perfbench/run.py --workload explicit-adjust --seed 1 --seconds 25 --trace 0

A closed loop with one client: cases of the seeded corpus are solved one
after another, each starting when the previous one returns.  Every solve is
checked without the library's oracles.  With ``--trace 0`` the loop runs for
``--seconds`` and the end-to-end metrics are reported, in processor seconds
scaled to a reference host by ``probe``.  With ``--trace 1`` a fixed prefix
of the corpus is solved under the span wrappers of ``tracing`` and again
without them, and the per-layer metrics are reported, unscaled.

Both modes solve their first cases a second time and stop with exit code 1,
printing the mismatch instead of numbers, if any output digest, divider-run
count, adjustment count, failure class or per-layer call count differs.

The last line of standard output is one JSON object; the lines before it
print every metric with its unit, the failure classes and the environment.
Per-case records (digests, counts, failures) go to ``perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import probe
from tracing import Recorder, per_layer
from workloads import Outcome, classify, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 9
RECHECK_CASES = 2
# Processor seconds of solving between two runs of the host-speed task, and
# how many runs of it on each side of a solve give that solve's scale.
PROBE_EVERY_S = 0.05
PROBE_WINDOW = 3
# Seconds a failed solve counts as, beyond its time to failure.  A run ends
# within 180 s, so no solve that passed can come near it.
CENSOR_S = 1000.0
MODULES = ("core", "valuation", "matching", "mms_oracle", "bundles", "divider",
           "driver", "adapters", "generators", "cli")


class Mismatch(Exception):
    """Two solves of the same seeded case disagreed."""


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def cpu_seconds() -> float:
    """Processor time used by this process and its waited-for children.

    Unlike wall time it leaves out the time other tenants of a shared host
    held the processor.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def time_probe() -> float:
    """Processor seconds of one run of the host-speed task in ``probe``."""
    start = cpu_seconds()
    probe.task()
    return cpu_seconds() - start


def import_library() -> None:
    """Import the package afresh from ``src``, as a new process would."""
    for name in [n for n in sys.modules if n == "mmsalloc" or n.startswith("mmsalloc.")]:
        del sys.modules[name]
    package = importlib.import_module("mmsalloc")
    for module in MODULES:
        importlib.import_module(f"mmsalloc.{module}")
    if Path(package.__file__).resolve().parent != SRC / "mmsalloc":
        fail(f"imported mmsalloc from {package.__file__}, not from {SRC}")


def setup(workload, seed: int, workdir: Path):
    """Import, generate the corpus and write its files, SETUP_REPEATS times.

    Returns the corpus and the median set-up time.  Each repeat's time is
    scaled by the host-speed probe runs just before and after it.
    """
    times = []
    before = [time_probe() for _ in range(PROBE_WINDOW)]
    for attempt in range(SETUP_REPEATS):
        target = workdir / f"setup{attempt}"
        target.mkdir()
        start = cpu_seconds()
        import_library()
        corpus = workload.make_corpus(seed, str(target))
        elapsed = cpu_seconds() - start
        after = [time_probe() for _ in range(PROBE_WINDOW)]
        times.append(elapsed * probe.scale(before + after))
        before = after
        if attempt < SETUP_REPEATS - 1:
            shutil.rmtree(target)
    return corpus, statistics.median(times)


def solve_once(workload, case, in_process: bool):
    """One timed solve, judged afterwards; failures become outcomes."""
    start = cpu_seconds()
    try:
        solved = workload.solve(case, in_process)
    except Exception as exc:  # the loop goes on; the class is reported
        return cpu_seconds() - start, Outcome(ok=False, failure=classify(exc))
    elapsed = cpu_seconds() - start
    try:
        return elapsed, workload.judge(case, solved)
    except Exception as exc:  # an output the checks cannot read fails them
        return elapsed, Outcome(ok=False, failure=f"CheckFailed: {classify(exc)}")


def expect_same(what: str, index: int, first, again) -> None:
    if first != again:
        raise Mismatch(f"case {index}: {what} {first} then {again}")


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than eleven
    samples it is the maximum, with fewer than ten beyond it.
    """
    ordered = sorted(samples)
    rank = max(len(ordered) - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), len(ordered) - rank - 1


def failures(outcomes) -> dict:
    attempted = len(outcomes)
    classes = Counter(o.failure for o in outcomes if not o.ok)
    failed = sum(classes.values())
    return {"attempted": attempted, "failures": classes,
            "fail_share": failed / attempted,
            "fail_note": f"{failed} of {attempted} attempted"}


def timed_run(workload, corpus, seconds: float) -> dict:
    """Closed loop over the corpus for ``seconds`` of wall time.

    The host-speed probe runs PROBE_WINDOW times first, then after every
    PROBE_EVERY_S of processor time, and PROBE_WINDOW times at the end; its
    time is left out of the run's.  Each solve's time is scaled by the
    PROBE_WINDOW probe runs on each side of it, so a drift in the host's
    speed during the run is taken out solve by solve.
    """
    latencies, outcomes, first, slots = [], [], {}, []
    probes = [time_probe() for _ in range(PROBE_WINDOW)]
    deadline = time.perf_counter() + seconds
    start = cpu_seconds()
    next_probe = start + PROBE_EVERY_S
    position = 0
    while True:
        case = corpus[position % len(corpus)]
        slots.append(len(probes))
        elapsed, outcome = solve_once(workload, case, in_process=False)
        latencies.append(elapsed)
        outcomes.append(outcome)
        expect_same("gave", case.index, first.setdefault(case.index, outcome).key(),
                    outcome.key())
        position += 1
        if cpu_seconds() >= next_probe:
            probes.append(time_probe())
            next_probe = cpu_seconds() + PROBE_EVERY_S
        if time.perf_counter() >= deadline:
            break
    busy = cpu_seconds() - start - sum(probes[PROBE_WINDOW:])
    probes += [time_probe() for _ in range(PROBE_WINDOW)]
    rss = resource.getrusage(resource.RUSAGE_CHILDREN if workload.exact_mms
                             else resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for case in corpus[:RECHECK_CASES]:
        if case.index in first:
            _, again = solve_once(workload, case, in_process=False)
            expect_same("gave", case.index, first[case.index].key(), again.key())
    untimed = []
    if workload.exact_mms:
        # The MMS ratios cover the whole corpus, so that they do not depend
        # on how far the loop got: cases it did not reach are solved now,
        # untimed, and judged like the rest.
        for case in corpus:
            if case.index not in first:
                _, first[case.index] = solve_once(workload, case, in_process=False)
                untimed.append(first[case.index])

    judged = outcomes + untimed

    scale = probe.scale(probes)
    passed = sum(o.ok for o in outcomes)
    # A failed solve never finished: it counts as CENSOR_S plus its time to
    # failure, above any solve that passed and ordered among the failures.
    censored = [t * probe.scale(probes[max(slot - PROBE_WINDOW, 0):slot + PROBE_WINDOW])
                + (0.0 if o.ok else CENSOR_S)
                for t, o, slot in zip(latencies, outcomes, slots)]
    tail_s, percentile, beyond = tail(censored)
    unscaled = [t + (0.0 if o.ok else CENSOR_S) for t, o in zip(latencies, outcomes)]
    notes = {"solve_s_p50": f"{statistics.median(unscaled):.6g} s unscaled",
             "solve_s_tail": f"p{percentile:.1f}, {beyond} of {len(censored)} "
                             f"samples beyond",
             "host": f"mean probe {statistics.fmean(probes) * 1e3:.2f} ms over "
                     f"{len(probes)}, reference {probe.REFERENCE_S * 1e3:g} ms, "
                     f"times scaled by {scale:.4f} on average",
             "run": f"{busy:.3f} processor seconds in {seconds:g} s of wall time, "
                    f"{len(untimed)} more cases solved untimed"}
    ratios = [r for o in first.values() for r in o.ratios]
    if workload.exact_mms:
        # With every solve failed there is no ratio; report the worst, 0.
        mms_min = min(ratios, default=0.0)
        mms_mean = statistics.fmean(ratios) if ratios else 0.0
    else:
        mms_min = mms_mean = 1.0
        notes["mms_ratio_min"] = notes["mms_ratio_mean"] = \
            "not measured: no exact MMS at this size, reported as 1"
    return {
        "metrics": {
            "solve_s_p50": statistics.median(censored),
            "solve_s_tail": tail_s,
            "goodput_ips": passed / (scale * busy),
            "ok_share": sum(o.ok for o in judged) / len(judged),
            "mms_ratio_min": mms_min,
            "mms_ratio_mean": mms_mean,
            "peak_rss_mb": rss,
        },
        "notes": notes,
        "cases": first,
        **failures(judged),
    }


def traced_run(workload, corpus, spans_path: Path) -> dict:
    """A fixed corpus prefix, each case solved with and then without the wrappers.

    Solving the two back to back keeps a change in host speed out of the
    overhead.  The first cases are then traced a second time.
    """
    prefix = corpus[:workload.trace_cases]
    traced, again = Recorder(), Recorder()
    outcomes, plain, repeated = {}, {}, {}
    traced_s = untraced_s = 0.0
    for case in prefix:
        traced.case = case.index
        with traced.installed():
            elapsed, outcomes[case.index] = solve_once(workload, case, in_process=True)
        traced_s += elapsed
        elapsed, plain[case.index] = solve_once(workload, case, in_process=True)
        untraced_s += elapsed
    for case in prefix[:RECHECK_CASES]:
        again.case = case.index
        with again.installed():
            _, repeated[case.index] = solve_once(workload, case, in_process=True)

    calls_first, calls_again = traced.calls_by_case(), again.calls_by_case()
    for index, outcome in repeated.items():
        expect_same("gave", index, outcomes[index].key(), outcome.key())
        expect_same("made calls", index, dict(calls_first.get(index, {})),
                    dict(calls_again.get(index, {})))
    for index, outcome in plain.items():
        expect_same("gave (traced, untraced)", index, outcomes[index].key(), outcome.key())

    traced.write(str(spans_path))
    metrics = per_layer(traced)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return {
        "metrics": metrics,
        "notes": {"trace.overhead_s": f"traced {traced_s:.3f} s, untraced "
                                      f"{untraced_s:.3f} s over {len(prefix)} cases",
                  "spans": f"{len(traced.span_name)} written to {spans_path.name}"},
        "cases": outcomes,
        "calls": {index: dict(calls) for index, calls in calls_first.items()},
        **failures(list(outcomes.values())),
    }


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mmsalloc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit,
            "source_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mmsalloc" / "__init__.py").is_file():
        fail(f"no mmsalloc sources under {SRC}; run from a checkout of the repository")
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(SRC))
    table = workloads(str(SRC))
    if args.workload not in table:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(table)}")
    workload = table[args.workload]

    RESULTS.mkdir(exist_ok=True)
    (HERE / "work").mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=HERE / "work"))
    try:
        corpus, setup_s = setup(workload, args.seed, workdir)
        if args.trace:
            report = traced_run(workload, corpus, RESULTS / f"{stem}.spans.tsv.gz")
        else:
            report = timed_run(workload, corpus, args.seconds)
            report["metrics"]["setup_s"] = setup_s
    except Mismatch as exc:
        fail(f"same seed, different results: {exc}", code=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in report["metrics"]]
    if missing:
        fail(f"metrics declared but not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]}
               for m in listed}
    env = environment()
    checks_missed = sum(n for failure, n in report["failures"].items()
                        if failure.startswith("CheckFailed"))
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, "metrics": metrics,
            "notes": report["notes"], "fail_share": report["fail_share"],
            "failures": dict(report["failures"]),
            "cases": [{"case": index, "ok": o.ok, "failure": o.failure,
                       "digests": list(o.digests), "divider_runs": o.divider_runs,
                       "adjustments": o.adjustments,
                       **({"calls": report["calls"].get(index, {})}
                          if "calls" in report else {})}
                      for index, o in sorted(report["cases"].items())],
        }, handle, indent=1, sort_keys=True)

    why = {w["name"]: w["why"] for w in declared["workloads"]}.get(workload.name, "")
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {why}")
    print("env " + " ".join(f"{key}={value}" for key, value in env.items()))
    for name, metric in metrics.items():
        note = report["notes"].get(name)
        print(f"{name} {metric['value']:.6g} {metric['unit']}" + (f" ({note})" if note else ""))
    print(f"fail_share {report['fail_share']:.6g} ratio ({report['fail_note']})")
    for failure, count in report["failures"].most_common():
        print(f"failure x{count}: {failure}")
    for key, note in report["notes"].items():
        if key not in metrics:
            print(f"{key}: {note}")
    print(f"results {RESULTS.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps({"correct": checks_missed == 0, "attempted": report["attempted"],
                      "failed": sum(report["failures"].values()), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
