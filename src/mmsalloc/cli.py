"""Command-line interface: generate, solve, compute MMS, verify.

Exit codes: 0 success (or verification pass), 1 verification failure,
2 input error, 3 brute-force or exactness gate exceeded.  All numeric inputs
are parsed exactly ("p/q", integer, or decimal strings); all emitted files
are byte-identical across repeated runs on the same inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .adapters import (
    ConstraintReport,
    solve_budget_adapter,
    solve_conflicts_adapter,
    solve_intervals_adapter,
)
from .core import (
    BruteForceGateExceeded,
    BudgetSystem,
    ConflictSystem,
    ExactnessGateExceeded,
    InstanceError,
    IntervalSystem,
    allocation_from_json,
    allocation_to_json,
    instance_from_json,
    instance_to_json,
    parse_rational,
)
from .divider import trace_to_dicts
from .driver import (
    solve_alpha,
    solve_entitled,
    solve_existence,
    solve_two_fifths,
)
from .mms_oracle import DEFAULT_MMS_GATE, compute_mms_exact, mms_bounds, verify_allocation

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_GATE = 3


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _verdict(report) -> int:
    """The exit code of a verification report.  Past the gate it also names
    the first unverified agent and the reason on stderr."""
    for check in report.checks:
        if check.reason is not None:
            print(f"error: agent {check.agent + 1}: {check.reason}",
                  file=sys.stderr)
            return EXIT_GATE
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def _cmd_gen(args) -> int:
    # Imported here, so that the other commands do not compile the generators.
    from .generators import (
        gen_asymmetric_half,
        gen_random_hereditary,
        gen_three_partition,
        gen_two_thirds_bound,
    )

    if args.family == "two-thirds":
        instance = gen_two_thirds_bound(args.n, args.r)
    elif args.family == "asym-half":
        instance = gen_asymmetric_half(args.n)
    elif args.family == "three-partition":
        numbers = []
        for entry in filter(str.strip, args.numbers.split(",")):
            try:
                numbers.append(int(entry))
            except ValueError:
                raise ValueError(f"--numbers: {entry.strip()!r} is not an integer") from None
        instance = gen_three_partition(numbers)
    else:  # "random"; argparse refuses any other family
        instance = gen_random_hereditary(m=args.m, n=args.n,
                                         family_density=args.density,
                                         value_range=(args.lo, args.hi),
                                         seed=args.seed)
    _emit(instance_to_json(instance), args.out)
    return EXIT_OK


def _solve(instance, mode: str, epsilon: Fraction | None, gate: int):
    """Route to the solver or adapter matching the mode and system kind."""
    if epsilon is not None and mode in ("existence", "two_fifths"):
        raise InstanceError(f"the {mode} mode takes no oracle error bound; "
                            "drop epsilon or use --mode alpha or entitled")
    if isinstance(instance.system, ConflictSystem) and mode == "existence":
        return solve_conflicts_adapter(instance, gate=gate)
    if isinstance(instance.system, IntervalSystem) and mode == "alpha":
        return solve_intervals_adapter(instance, epsilon=epsilon)
    if (mode in ("two_fifths", "entitled") and instance.n > 0
            and all(isinstance(instance.system_for(i), BudgetSystem)
                    for i in range(instance.n))):
        return solve_budget_adapter(instance, epsilon=epsilon)
    if mode == "existence":
        return solve_existence(instance, gate=gate)
    if mode == "two_fifths":
        return solve_two_fifths(instance)
    if mode == "alpha":
        return solve_alpha(instance, epsilon if epsilon is not None else Fraction(0))
    if mode == "entitled":
        return solve_entitled(instance, epsilon)
    raise InstanceError(f"unknown mode {mode!r}")


def _cmd_solve(args) -> int:
    instance = instance_from_json(_read(args.instance))
    mode = args.mode
    epsilon_text = args.epsilon
    trace_path = args.trace
    if args.config is not None:
        try:
            config = json.loads(_read(args.config))
        except json.JSONDecodeError as exc:
            raise InstanceError(f"malformed config JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise InstanceError(
                f"config must be a JSON object, got {type(config).__name__}")
        if mode is None:
            mode = config.get("mode")
        if epsilon_text is None and "epsilon" in config:
            epsilon_text = config["epsilon"]
        if trace_path is None and config.get("trace"):
            base = args.out if args.out is not None else "allocation"
            trace_path = f"{base}.trace"
    if mode is None:
        mode = "two_fifths"
    epsilon = parse_rational(epsilon_text) if epsilon_text is not None else None
    solved = _solve(instance, mode, epsilon, args.gate)
    result, allocation = solved, solved.allocation
    extras: dict = {"mode": mode}
    if isinstance(solved, ConstraintReport):
        result = solved.result
        extras["feasible"] = list(solved.feasible)
        if solved.completion:
            extras["completion"] = [[agent + 1, item + 1]
                                    for agent, item in solved.completion]
        if solved.schedules:
            extras["schedules"] = [
                {str(job + 1): start for job, start in sorted(witness.items())}
                for witness in solved.schedules]
    extras["alpha"] = str(result.alpha)

    report = None
    if args.certify:
        report = verify_allocation(instance, allocation, result.alpha,
                                   records=result.records, gate=args.gate)
        extras["certificates"] = [
            {"agent": check.agent + 1,
             "value": None if check.value is None else str(check.value),
             "mu": None if check.mu is None else str(check.mu),
             "ratio": None if check.ratio is None else str(check.ratio),
             "ok": check.ok}
            for check in report.checks]

    _emit(allocation_to_json(instance, allocation, extras), args.out)
    if trace_path is not None:
        lines = [json.dumps(row, sort_keys=True, separators=(",", ":"))
                 for index, run in enumerate(result.runs)
                 for row in trace_to_dicts(run, index + 1)]
        _emit("".join(line + "\n" for line in lines), trace_path)
    return EXIT_OK if report is None else _verdict(report)


def _cmd_mms(args) -> int:
    instance = instance_from_json(_read(args.instance))
    agent = args.agent - 1
    if not 0 <= agent < instance.n:
        raise InstanceError(f"agent {args.agent} out of range")
    bounds = mms_bounds(instance, agent)
    lines = [f"agent {args.agent}: singleton bounds "
             f"[{bounds.lower}, {bounds.upper}]"]
    status = EXIT_OK
    if bounds.fewer_items_than_agents:  # the share is 0; nothing to search
        lines.append("fewer items than agents: mu = 0")
    else:
        try:
            record = compute_mms_exact(instance, agent, gate=args.gate)
            lines.append(f"mu = {record.mu}")
            lines += [f"witness bundle {idx + 1}: {sorted(j + 1 for j in block)}"
                      for idx, block in enumerate(record.witness)]
        except (BruteForceGateExceeded, ExactnessGateExceeded) as exc:
            print(f"error: {exc}", file=sys.stderr)
            lines.append(f"mu: not computed ({exc})")
            status = EXIT_GATE
    _emit("".join(line + "\n" for line in lines), args.out)
    return status


def _cmd_verify(args) -> int:
    instance = instance_from_json(_read(args.instance))
    allocation = allocation_from_json(instance, _read(args.allocation))
    alpha = parse_rational(args.alpha)
    report = verify_allocation(instance, allocation, alpha, gate=args.gate)
    lines = []
    for check in report.checks:
        value, mu = ("?" if x is None else str(x) for x in (check.value, check.mu))
        ratio = "-" if check.ratio is None else str(check.ratio)
        verdict = "pass" if check.ok else "FAIL"
        lines.append(f"agent {check.agent + 1}: value {value} "
                     f"mu {mu} ratio {ratio} {verdict}")
    lines.append(f"alpha {alpha}: {'pass' if report.ok else 'FAIL'}")
    _emit("".join(line + "\n" for line in lines), args.out)
    return _verdict(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmsalloc",
        description="Approximate maximin-share allocation under hereditary "
                    "set system valuations.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a generated instance")
    gen.add_argument("family",
                     choices=["two-thirds", "asym-half", "three-partition",
                              "random"])
    gen.add_argument("--n", type=int, default=2)
    gen.add_argument("--m", type=int, default=8)
    gen.add_argument("--r", type=int, default=1,
                     help="two-thirds: agents of the first value pattern")
    gen.add_argument("--numbers", type=str, default="",
                     help="three-partition: comma-separated positive integers")
    gen.add_argument("--density", type=float, default=0.5)
    gen.add_argument("--lo", type=int, default=0)
    gen.add_argument("--hi", type=int, default=6)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=str, default=None)
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("instance")
    solve.add_argument("--mode", default=None,
                       choices=["existence", "two_fifths", "alpha", "entitled"])
    solve.add_argument("--config", type=str, default=None,
                       help="JSON block with mode/epsilon/trace defaults")
    solve.add_argument("--epsilon", type=str, default=None,
                       help="oracle error bound as p/q or decimal")
    solve.add_argument("--certify", action="store_true",
                       help="attach exact mu and ratios (within the gate)")
    solve.add_argument("--trace", type=str, default=None,
                       help="write round-by-round trace JSON lines here")
    solve.add_argument("--gate", type=int, default=DEFAULT_MMS_GATE)
    solve.add_argument("--out", type=str, default=None)
    solve.set_defaults(func=_cmd_solve)

    mms = sub.add_parser("mms", help="exact maximin share of one agent")
    mms.add_argument("instance")
    mms.add_argument("--agent", type=int, required=True)
    mms.add_argument("--gate", type=int, default=DEFAULT_MMS_GATE)
    mms.add_argument("--out", type=str, default=None)
    mms.set_defaults(func=_cmd_mms)

    verify = sub.add_parser("verify", help="check an allocation against alpha")
    verify.add_argument("instance")
    verify.add_argument("allocation")
    verify.add_argument("--alpha", type=str, required=True)
    verify.add_argument("--gate", type=int, default=DEFAULT_MMS_GATE)
    verify.add_argument("--out", type=str, default=None)
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BruteForceGateExceeded, ExactnessGateExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GATE
    except (InstanceError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
