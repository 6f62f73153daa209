"""CLI: round trips, exit codes, byte-level determinism."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mmsalloc
import mmsalloc.cli
import mmsalloc.driver
import mmsalloc.mms_oracle
from mmsalloc.cli import main
from mmsalloc.core import Allocation, allocation_from_json, instance_from_json
from mmsalloc.driver import solve_two_fifths
from mmsalloc.mms_oracle import verify_allocation


def run_cli(*argv) -> int:
    return main(list(argv))


def test_gen_two_thirds_writes_valid_instance(tmp_path):
    out = tmp_path / "gadget.json"
    assert run_cli("gen", "two-thirds", "--n", "2", "--out", str(out)) == 0
    inst = instance_from_json(out.read_text())
    assert (inst.n, inst.m) == (2, 8)


def test_gen_asym_half(tmp_path):
    out = tmp_path / "asym.json"
    assert run_cli("gen", "asym-half", "--n", "3", "--out", str(out)) == 0
    inst = instance_from_json(out.read_text())
    assert inst.is_asymmetric and inst.m == 6


def test_gen_three_partition_error_exit_code(tmp_path):
    out = tmp_path / "tp.json"
    assert run_cli("gen", "three-partition", "--numbers", "1,1,1,2,2,2",
                   "--out", str(out)) == 2  # sum 9 not divisible by 2


def test_solve_verify_round_trip_all_modes(tmp_path):
    fixtures = {
        "gadget": (["gen", "two-thirds", "--n", "2"],
                   [("existence", "2/3"), ("two_fifths", "2/5"),
                    ("alpha", "2/5")]),
        "threep": (["gen", "three-partition", "--numbers", "1,1,2,2,3,3"],
                   [("existence", "2/3"), ("two_fifths", "2/5")]),
        "random": (["gen", "random", "--m", "8", "--n", "2", "--seed", "5"],
                   [("existence", "2/3"), ("two_fifths", "2/5"),
                    ("alpha", "2/5"), ("entitled", "2/5")]),
    }
    for name, (gen_args, modes) in fixtures.items():
        instance_path = tmp_path / f"{name}.json"
        assert run_cli(*gen_args, "--out", str(instance_path)) == 0
        for mode, alpha in modes:
            alloc_path = tmp_path / f"{name}-{mode}.json"
            assert run_cli("solve", str(instance_path), "--mode", mode,
                           "--out", str(alloc_path)) == 0
            assert run_cli("verify", str(instance_path), str(alloc_path),
                           "--alpha", alpha) == 0


def test_solve_alpha_on_intervals_reports_schedule(tmp_path):
    instance_path = tmp_path / "intervals.json"
    doc = {
        "n": 2, "m": 4,
        "values": [["1", "1", "1", "1"], ["1", "1", "1", "1"]],
        "system": {"kind": "interval",
                   "jobs": [{"p": 1, "r": 1, "d": 2}] * 4},
    }
    instance_path.write_text(json.dumps(doc))
    alloc_path = tmp_path / "alloc.json"
    assert run_cli("solve", str(instance_path), "--mode", "alpha",
                   "--certify", "--out", str(alloc_path)) == 0
    payload = json.loads(alloc_path.read_text())
    assert payload["alpha"] == "2/7"
    assert payload["feasible"] == [True, True]
    assert "schedules" in payload
    assert run_cli("verify", str(instance_path), str(alloc_path),
                   "--alpha", "2/7") == 0


def test_solve_conflicts_runs_completion(tmp_path):
    instance_path = tmp_path / "conflict.json"
    doc = {
        "n": 3, "m": 4,
        "values": [["1", "1", "1", "1"]] * 3,
        "system": {"kind": "conflict",
                   "edges": [[1, 2], [2, 3], [3, 4]]},
    }
    instance_path.write_text(json.dumps(doc))
    alloc_path = tmp_path / "alloc.json"
    assert run_cli("solve", str(instance_path), "--mode", "existence",
                   "--out", str(alloc_path)) == 0
    payload = json.loads(alloc_path.read_text())
    assert payload["complete"] is True
    assert run_cli("verify", str(instance_path), str(alloc_path),
                   "--alpha", "1/2") == 0


def test_mms_command_and_gate_exit(tmp_path):
    instance_path = tmp_path / "inst.json"
    run_cli("gen", "two-thirds", "--n", "2", "--out", str(instance_path))
    out = tmp_path / "mms.txt"
    assert run_cli("mms", str(instance_path), "--agent", "1",
                   "--out", str(out)) == 0
    assert "mu = 3" in out.read_text()
    assert run_cli("mms", str(instance_path), "--agent", "1",
                   "--gate", "4", "--out", str(out)) == 3
    assert "bounds" in out.read_text()


@pytest.mark.parametrize("command", ["solve", "mms", "verify"])
def test_a_negative_gate_is_an_input_error(tmp_path, capsys, command):
    # Gate 0 still means that any item trips it (exit 3); below 0 no gate
    # is meant, so the run stops with one line before any search.
    instance_path = tmp_path / "inst.json"
    alloc_path = tmp_path / "alloc.json"
    run_cli("gen", "two-thirds", "--n", "2", "--out", str(instance_path))
    run_cli("solve", str(instance_path), "--out", str(alloc_path))
    extra = {"solve": ["--certify"], "mms": ["--agent", "1"],
             "verify": [str(alloc_path), "--alpha", "2/5"]}[command]
    for gate, status in (("0", 3), ("-1", 2)):
        capsys.readouterr()
        assert run_cli(command, str(instance_path), *extra, "--gate", gate,
                       "--out", str(tmp_path / "out")) == status
    assert capsys.readouterr().err == \
        "error: the brute-force gate must be non-negative, not -1\n"


def test_verify_failure_exit_code(tmp_path):
    instance_path = tmp_path / "inst.json"
    run_cli("gen", "two-thirds", "--n", "2", "--out", str(instance_path))
    alloc_path = tmp_path / "empty.json"
    alloc_path.write_text('{"bundles": [[], []], "complete": false}')
    assert run_cli("verify", str(instance_path), str(alloc_path),
                   "--alpha", "1/2") == 1
    assert run_cli("verify", str(instance_path), str(alloc_path),
                   "--alpha", "0") == 0


def test_verify_refuses_a_negative_alpha(tmp_path, capsys):
    # Every share passes a negative ratio, so it is an input error, not a
    # verdict.  "-1/5" reads as an option to argparse, so it goes after "=".
    instance_path = tmp_path / "inst.json"
    alloc_path = tmp_path / "alloc.json"
    run_cli("gen", "two-thirds", "--n", "2", "--out", str(instance_path))
    run_cli("solve", str(instance_path), "--out", str(alloc_path))
    for flag, shown in ((["--alpha", "-1"], "-1"), (["--alpha=-1/5"], "-1/5")):
        capsys.readouterr()
        assert run_cli("verify", str(instance_path), str(alloc_path), *flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: alpha must be non-negative, not {shown}\n"


# Each case names the substring its one-line error must contain; the first
# four keep the ids pytest generated for them before they had one.
@pytest.mark.parametrize("fields, needle", [
    pytest.param({"system": {"kind": "explicit", "maximal_sets": [["a"]]}},
                 'maximal set ["a"]: "a" is not an integer', id="fields0"),
    pytest.param({"system": {"kind": "explicit", "maximal_sets": 5}},
                 "maximal sets must be a JSON list, got 5", id="fields1"),
    pytest.param({"system": 5}, "system payload must be an object, got 5",
                 id="fields2"),
    pytest.param({"system": {"kind": "budget", "sizes": ["1", "1"],
                             "budgets": ["1", "2"]}, "entitled": ["x", 2]},
                 'entitled ordering ["x", 2]: "x" is not an integer',
                 id="fields3"),
    # A string where the format wants a list must not be read one character
    # at a time, nor an object by its keys.
    pytest.param({"values": ["12", "21"], "system": {"kind": "free"}},
                 "value row must be a JSON list", id="value-row-a-string"),
    pytest.param({"m": 1, "values": "12", "system": {"kind": "free"}},
                 "value matrix must be a JSON list", id="value-matrix-a-string"),
    pytest.param({"system": {"kind": "budget", "sizes": "11", "budget": "2"}},
                 "sizes must be a JSON list", id="sizes-a-string"),
    pytest.param({"system": {"kind": "budget", "sizes": ["1", "1"],
                             "budgets": "12"}},
                 "budgets must be a JSON list", id="budgets-a-string"),
    pytest.param({"system": {"kind": "explicit", "maximal_sets": {}}},
                 "maximal sets must be a JSON list", id="maximal-sets-an-object"),
    pytest.param({"system": {"kind": "explicit", "maximal_sets": [""]}},
                 "maximal set must be a JSON list", id="maximal-set-a-string"),
    pytest.param({"n": 0, "m": 0, "values": [],
                  "system": {"kind": "budget", "sizes": [], "budgets": []},
                  "entitled": {}}, "entitled ordering must be a JSON list",
                 id="entitled-ordering-an-object"),
    # Entries and keys are named as the file writes them, and interval jobs
    # by their 1-based number.
    pytest.param({"system": {"kind": "explicit", "maximal_sets": [["x", 2]]}},
                 'maximal set ["x", 2]: "x" is not an integer',
                 id="string-in-maximal-set"),
    pytest.param({"system": {"kind": "conflict", "edges": [[1, "2"]]}},
                 'conflict edge [1, "2"]: "2" is not an integer',
                 id="string-in-edge"),
    pytest.param({"system": {"kind": "explicit", "maximal_sets": [[1.5, 2]]}},
                 "maximal set [1.5, 2]: 1.5 is not an integer",
                 id="fraction-in-maximal-set"),
    pytest.param({"n": None, "system": {"kind": "free"}}, "missing key 'n'",
                 id="agent-count-missing"),
    pytest.param({"system": {"kind": "interval", "jobs": [
        {"p": 1, "r": 1, "d": 2}, {"p": 1, "r": 1}]}},
        "interval job 2 must be an object with keys p, r and d",
        id="interval-job-without-deadline"),
    pytest.param({"system": {"kind": "interval", "jobs": [
        [1, 1, 2], {"p": 1, "r": 1, "d": 2}]}},
        "interval job 1 must be an object with keys p, r and d, got [1, 1, 2]",
        id="interval-job-a-list"),
])
def test_malformed_instance_is_an_input_error(tmp_path, capsys, fields, needle):
    doc = {"n": 2, "m": 2, "values": [["1", "1"], ["1", "1"]], **fields}
    instance_path = tmp_path / "bad.json"  # a field set to None is left out
    instance_path.write_text(json.dumps(
        {key: value for key, value in doc.items() if value is not None}))
    assert run_cli("solve", str(instance_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err
    assert "Traceback" not in err


_TWO_BY_TWO = {"n": 2, "m": 2, "values": [["1", "1"], ["1", "1"]]}
_INTERVALS = {"kind": "interval", "jobs": [{"p": 1, "r": 1, "d": 2}] * 4}
_CONFLICTS = {**_TWO_BY_TWO, "system": {"kind": "conflict", "edges": [[1, 2]]}}
_NO_ACTIVE = {"n": 2, "m": 3, "values": [["0", "0", "0"], ["0", "0", "0"]],
              "system": {"kind": "free"}}
_BUDGETS = {"n": 2, "m": 4, "values": [["1"] * 4] * 2,
            "system": {"kind": "budget", "sizes": ["1"] * 4,
                       "budgets": ["2", "3"]}}


@pytest.mark.parametrize("doc, argv", [
    ({**_TWO_BY_TWO,
      "system": {"kind": "explicit", "maximal_sets": [[True, 2]]}}, ()),
    ({**_TWO_BY_TWO, "system": {"kind": "conflict", "edges": [[True, 2]]}},
     ("--mode", "existence")),
    ({**_TWO_BY_TWO, "system": {"kind": "budget", "sizes": ["1", "1"],
                                "budgets": ["1", "2"]},
      "entitled": [True, 2]}, ()),
    ({"n": True, "m": 2, "values": [["1", "1"]], "system": {"kind": "free"}},
     ()),
    ({"n": 2, "m": 4, "values": [["1"] * 4] * 2, "system": _INTERVALS},
     ("--mode", "alpha", "--epsilon", "1/3")),
    ({"n": 2, "m": 4, "values": [["1"] * 4] * 2,
      "asymmetric": [_INTERVALS, _INTERVALS], "entitled": [1, 2]},
     ("--mode", "entitled")),
    ({**_TWO_BY_TWO, "system": {"kind": "conflict", "edges": ""}},
     ("--mode", "existence")),
    ({"n": 2, "m": 0, "values": [[], []],
      "system": {"kind": "interval", "jobs": {}}},
     ("--mode", "alpha", "--epsilon", "1/2")),
    ({"n": 0, "m": 0, "values": [], "asymmetric": "", "entitled": []},
     ("--mode", "entitled")),
    (_CONFLICTS, ("--mode", "two_fifths")),
    (_CONFLICTS, ("--mode", "alpha")),
    (_CONFLICTS, ("--mode", "entitled")),
    ({"n": 2, "m": 4, "values": [["1"] * 4] * 2, "system": _INTERVALS},
     ("--mode", "two_fifths")),
    (_BUDGETS, ("--mode", "entitled", "--epsilon", "0")),
    # No agent values an item, yet an error bound outside [0, 1) is refused.
    (_NO_ACTIVE, ("--mode", "entitled", "--epsilon", "-1")),
    (_NO_ACTIVE, ("--mode", "entitled", "--epsilon", "5")),
], ids=["boolean-in-maximal-set", "boolean-in-edge", "boolean-in-ordering",
        "boolean-agent-count", "interval-error-below-half",
        "entitled-interval-families", "edges-a-string", "jobs-an-object",
        "asymmetric-block-a-string", "conflict-two-fifths", "conflict-alpha",
        "conflict-entitled", "interval-two-fifths", "budgets-entitled-error-0",
        "no-active-error-negative", "no-active-error-above-one"])
def test_unservable_instance_is_an_input_error(tmp_path, capsys, doc, argv):
    instance_path = tmp_path / "inst.json"
    instance_path.write_text(json.dumps(doc))
    assert run_cli("solve", str(instance_path), *argv,
                   "--out", str(tmp_path / "alloc.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_the_entitled_error_bound_counts_active_agents(tmp_path, capsys):
    # Two of three agents value something, so k = 2: the bound is
    # 1/(k+1) = 1/3, not 1/(n+1) = 1/4.  Error 1/2 is refused with one line
    # naming k, and 1/3 is served.
    instance_path = tmp_path / "inact.json"
    instance_path.write_text(json.dumps({
        "n": 3, "m": 4, "system": {"kind": "free"},
        "values": [["1", "1", "1", "1"], ["1", "2", "1", "1"], ["0"] * 4]}))
    out = str(tmp_path / "alloc.json")
    assert run_cli("solve", str(instance_path), "--mode", "entitled",
                   "--epsilon", "1/2", "--out", out) == 2
    assert capsys.readouterr().err == (
        "error: entitled mode needs oracle error at most 1/(k+1) = 1/3 "
        "for its k = 2 active agents, got 1/2\n")
    assert run_cli("solve", str(instance_path), "--mode", "entitled",
                   "--epsilon", "1/3", "--out", out) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("doc, argv, config, mode", [
    (_BUDGETS, ("--mode", "two_fifths", "--epsilon", "9/10"), None,
     "two_fifths"),
    (None, ("--mode", "two_fifths", "--epsilon", "9/10"), None, "two_fifths"),
    (None, ("--mode", "existence", "--epsilon", "9/10"), None, "existence"),
    (None, (), {"mode": "existence", "epsilon": "1/2"}, "existence"),
    (None, ("--mode", "two_fifths"), {"epsilon": "1/10"}, "two_fifths"),
], ids=["budget-two-fifths-flag", "explicit-two-fifths-flag",
        "explicit-existence-flag", "existence-config", "two-fifths-config"])
def test_epsilon_under_a_mode_without_one_is_an_input_error(
        tmp_path, capsys, doc, argv, config, mode):
    instance_path = tmp_path / "inst.json"
    if doc is None:
        run_cli("gen", "random", "--m", "6", "--n", "2", "--seed", "3",
                "--out", str(instance_path))
    else:
        instance_path.write_text(json.dumps(doc))
    if config is not None:
        config_path = tmp_path / "solver.json"
        config_path.write_text(json.dumps(config))
        argv = (*argv, "--config", str(config_path))
    capsys.readouterr()
    assert run_cli("solve", str(instance_path), *argv,
                   "--out", str(tmp_path / "alloc.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"the {mode} mode" in err


def test_alpha_mode_rejects_asymmetric_input_in_its_own_name(tmp_path, capsys):
    instance_path = tmp_path / "asym.json"
    run_cli("gen", "asym-half", "--n", "2", "--out", str(instance_path))
    capsys.readouterr()
    assert run_cli("solve", str(instance_path), "--mode", "alpha",
                   "--out", str(tmp_path / "alloc.json")) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "the alpha mode" in err and "2/5" not in err


def test_alpha_refusal_names_no_mode_it_delegates_to(tmp_path, capsys):
    # At error 0 the alpha mode runs the 2/5 pipeline, whose refusal must
    # not name the two_fifths mode that the caller never asked for.
    instance_path = tmp_path / "conflicts.json"
    instance_path.write_text(json.dumps(_CONFLICTS))
    assert run_cli("solve", str(instance_path), "--mode", "alpha",
                   "--out", str(tmp_path / "alloc.json")) == 2
    err = capsys.readouterr().err
    assert err == "error: agent 1: no polynomial conflict oracle at error 1/3\n"
    assert "two_fifths" not in err


def test_conflict_edge_that_is_not_a_pair_is_named(tmp_path, capsys):
    instance_path = tmp_path / "inst.json"
    instance_path.write_text(json.dumps(
        {**_TWO_BY_TWO, "system": {"kind": "conflict", "edges": [[1, 2, 2]]}}))
    assert run_cli("solve", str(instance_path), "--mode", "existence") == 2
    assert capsys.readouterr().err == \
        "error: conflict edge [1, 2, 2] does not join two items\n"


_JOB = {"p": 1, "r": 1, "d": 2}
_FREE = {**_TWO_BY_TWO, "system": {"kind": "free"}}
_EXPLICIT = {"kind": "explicit", "maximal_sets": [[1, 2]]}


# Input errors that no other case reaches.  The instance is a document or raw
# text; with an allocation text the case runs verify, else solve.
@pytest.mark.parametrize("instance, allocation, needle", [
    pytest.param({**_TWO_BY_TWO, "system": {"kind": "interval", "jobs": [_JOB]}},
                 None, "interval system has 1 jobs for 2 items",
                 id="interval-job-count"),
    pytest.param({**_TWO_BY_TWO, "system": {"kind": "interval", "jobs": [
        _JOB, {"p": 1.5, "r": 1, "d": 3}]}}, None,
        "interval job 2: non-integer parameters", id="interval-p-not-an-integer"),
    pytest.param({**_TWO_BY_TWO, "system": {"kind": "interval", "jobs": [
        _JOB, {"p": 0, "r": 1, "d": 2}]}}, None,
        "interval job 2: needs p >= 1 and r >= 1", id="interval-p-below-1"),
    pytest.param({**_TWO_BY_TWO, "system": {"kind": "interval", "jobs": [
        {"p": 1, "r": 0, "d": 2}, _JOB]}}, None,
        "interval job 1: needs p >= 1 and r >= 1", id="interval-r-below-1"),
    pytest.param({**_TWO_BY_TWO, "system": {"kind": "budget", "sizes": ["1"],
                                            "budget": "1"}}, None,
                 "budget system has 1 sizes for 2 items", id="budget-size-count"),
    pytest.param({**_TWO_BY_TWO, "system": {"kind": "budget",
                                            "sizes": ["-1", "1"], "budget": "1"}},
                 None, "negative item size -1", id="negative-size"),
    pytest.param({**_TWO_BY_TWO, "system": {"kind": "budget",
                                            "sizes": ["1", "1"], "budget": "-1"}},
                 None, "negative budget -1", id="negative-budget"),
    pytest.param({**_TWO_BY_TWO, "system": {"kind": "matroid"}}, None,
                 "unknown system kind: 'matroid'", id="unknown-kind"),
    pytest.param('{"n": 2,', None, "malformed instance JSON",
                 id="malformed-json"),
    pytest.param("[]", None, "instance must be a JSON object, got list",
                 id="document-a-list"),
    pytest.param('"an instance"', None, "instance must be a JSON object, got str",
                 id="document-a-string"),
    pytest.param({**_FREE, "asymmetric": [{"kind": "free"}] * 2}, None,
                 "both a shared and per-agent systems",
                 id="system-and-asymmetric"),
    pytest.param({**_TWO_BY_TWO, "asymmetric": [
        {"kind": "budget", "sizes": ["1", "1"], "budgets": ["1", "2"]}] * 2},
        None, "per-agent system payloads must be plain systems",
        id="budgets-inside-asymmetric"),
    pytest.param({**_TWO_BY_TWO, "system": _EXPLICIT, "entitled": [1, 2]}, None,
                 "an entitled ordering needs per-agent systems",
                 id="entitled-shared-explicit"),
    pytest.param(_TWO_BY_TWO, None, "instance declares no set system",
                 id="no-system"),
    pytest.param({**_TWO_BY_TWO, "asymmetric": [_EXPLICIT] * 2,
                  "entitled": [1, 1]}, None,
                 "error: entitled ordering [1, 1] is not a permutation of the agents",
                 id="order-not-a-permutation"),
    pytest.param({**_TWO_BY_TWO, "system": {"kind": "explicit",
                                            "maximal_sets": [[1, 5]]}},
                 None, "error: explicit family: item 5 not in [1, 2]\n",
                 id="explicit-item-out-of-range"),
    pytest.param({**_TWO_BY_TWO, "system": {"kind": "conflict", "edges": [[1, 1]]}},
                 None, "error: conflict self-loop on item 1\n", id="conflict-self-loop"),
    pytest.param({**_TWO_BY_TWO, "entitled": [1, 2], "asymmetric": [
        {"kind": "explicit", "maximal_sets": [[1]]},
        {"kind": "explicit", "maximal_sets": [[2]]}]}, None,
        "agent 1's family is not contained in agent 2's", id="families-not-nested"),
    pytest.param({**_TWO_BY_TWO, "asymmetric": [_EXPLICIT]}, None,
                 "asymmetric spec has 1 systems for 2 agents",
                 id="per-agent-system-count"),
    pytest.param({**_FREE, "values": [["1"], ["1", "1"]]}, None,
                 "agent 1: value row has 1 entries for 2 items",
                 id="value-row-length"),
    pytest.param({**_FREE, "values": [["1", "1"]]}, None,
                 "value matrix has 1 rows for 2 agents", id="value-row-count"),
    pytest.param({**_TWO_BY_TWO, "system": {
        "kind": "budget", "sizes": ["1", "1"], "budgets": ["1", "2", "3"]}},
        None, "budget system has 3 budgets for 2 agents",
        id="per-agent-budget-count"),
    pytest.param({**_TWO_BY_TWO, "n": "2", "system": {
        "kind": "budget", "sizes": ["1", "1"], "budgets": ["1", "2"]}}, None,
        "agent count '2' must be a non-negative int",
        id="agent-count-a-string-with-per-agent-budgets"),
    pytest.param({**_FREE, "m": -1}, None,
                 "item count -1 must be a non-negative int",
                 id="item-count-negative"),
    pytest.param({**_FREE, "values": [["abc"]]}, None, "not a rational",
                 id="value-not-a-number"),
    pytest.param({**_FREE, "values": [["1/0"]]}, None, "not a rational",
                 id="value-zero-denominator"),
    pytest.param({**_TWO_BY_TWO, "asymmetric": [_EXPLICIT], "entitled": [1, 2]},
                 None, "entitled spec has 1 systems for 2 agents",
                 id="entitled-system-count"),
    pytest.param(_FREE, '{"bundles": [[1]]}',
                 "allocation has 1 bundles for 2 agents",
                 id="verify-bundle-count"),
    pytest.param(_FREE, '{"bundles": [[1], []', "malformed allocation JSON",
                 id="verify-malformed-allocation"),
    pytest.param(_FREE, '{"bundles": [[1], []], "complete": true}',
                 "allocation marked complete but items are missing",
                 id="verify-complete-with-items-missing"),
])
def test_each_input_error_exits_2_with_one_line(tmp_path, capsys, instance,
                                                allocation, needle):
    instance_path = tmp_path / "inst.json"
    instance_path.write_text(instance if isinstance(instance, str)
                             else json.dumps(instance))
    alloc_path = tmp_path / "alloc.json"
    if allocation is None:
        argv = ("solve", str(instance_path), "--out", str(alloc_path))
    else:
        alloc_path.write_text(allocation)
        argv = ("verify", str(instance_path), str(alloc_path), "--alpha", "2/5")
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize("argv, needle", [
    (["two-thirds", "--n", "1"], "the gadget needs at least two agents"),
    (["two-thirds", "--n", "3", "--r", "3"],
     "both agent types must be present (0 < r < n)"),
    (["asym-half", "--n", "1"], "the gadget needs at least two agents"),
    (["three-partition", "--numbers", "1,2"],
     "2 numbers cannot split into triples"),
    (["three-partition", "--numbers", "1,1,2,2,3,4"],
     "sum 13 is not divisible by 2 agents"),
    (["three-partition", "--numbers", "0,1,2"],
     "expected a non-empty multiset of positive integers"),
    (["random", "--lo", "5", "--hi", "2"], "bad value range (5, 2)"),
    (["random", "--m", "-1"], "m and n must be non-negative"),
    (["three-partition", "--numbers", "1, x"], "--numbers: 'x' is not an integer"),
    (["random", "--density", "nan"], "family density nan is not in [0, 1]"),
    (["random", "--density", "-0.5"], "family density -0.5 is not in [0, 1]"),
    (["random", "--density", "1.5"], "family density 1.5 is not in [0, 1]"),
])
def test_gen_refuses_bad_parameters_with_exit_2_and_one_line(tmp_path, capsys,
                                                             argv, needle):
    out = tmp_path / "inst.json"
    assert run_cli("gen", *argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {needle}\n"
    assert not out.exists()


def test_search_depth_limit_exits_3_past_a_raised_gate(tmp_path, capsys):
    # The exhaustive search recurses once per item, so past 500 items it is
    # refused whatever --gate says, never with a RecursionError.
    instance_path = tmp_path / "inst.json"
    run_cli("gen", "random", "--m", "501", "--n", "1", "--density", "0.5",
            "--out", str(instance_path))
    reason = "501 items exceed the brute-force gate 500"
    capsys.readouterr()
    assert run_cli("mms", str(instance_path), "--agent", "1",
                   "--gate", "5000") == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == f"mu: not computed ({reason})"
    assert captured.err == f"error: {reason}\n"
    assert run_cli("solve", str(instance_path), "--mode", "existence",
                   "--gate", "5000") == 3
    assert capsys.readouterr().err == f"error: {reason}\n"


def _write_unit_jobs(path, m: int) -> None:
    """One agent, m unit jobs; job t may only run in slot t."""
    path.write_text(json.dumps({
        "n": 1, "m": m, "values": [["1"] * m],
        "system": {"kind": "interval",
                   "jobs": [{"p": 1, "r": t, "d": t} for t in range(1, m + 1)]}}))


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_gate_past_a_certificate_names_the_agent_on_stderr(tmp_path, capsys,
                                                           command):
    # Fourteen items are past the 12-item brute-force gate, so no agent's
    # MMS is verified, though each bundle's value is.  Twenty interval jobs
    # are past the 16-job exactness gate, so the one agent's bundle value is
    # not computed either.  Each exits 3 with the first agent's reason as
    # the one line, and the certified solve still writes its allocation.
    m14 = tmp_path / "m14.json"
    run_cli("gen", "random", "--m", "14", "--n", "2", "--seed", "3",
            "--out", str(m14))
    jobs20 = tmp_path / "jobs20.json"
    _write_unit_jobs(jobs20, 20)
    cases = [
        (m14, (), "2/5", "14 items exceed the brute-force gate 12", 2, True),
        (jobs20, ("--mode", "alpha"), "2/7",
         "interval bundle of size 20 exceeds the exactness gate 16", 1, False),
    ]
    for instance_path, mode, alpha, reason, n, value_known in cases:
        alloc_path = tmp_path / f"{instance_path.stem}-alloc.json"
        solve = ("solve", str(instance_path), *mode, "--certify",
                 "--out", str(alloc_path))
        if command == "verify":
            assert run_cli(*solve) == 3
            capsys.readouterr()
            argv = ("verify", str(instance_path), str(alloc_path),
                    "--alpha", alpha)
        else:
            argv = solve
        assert run_cli(*argv) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: agent 1: {reason}\n"
        if command == "verify":
            assert captured.out.splitlines()[-1] == f"alpha {alpha}: FAIL"
            continue
        assert alloc_path.exists()
        certificates = json.loads(alloc_path.read_text())["certificates"]
        assert [c["mu"] for c in certificates] == [None] * n
        assert [c["value"] is not None for c in certificates] == \
            [value_known] * n


def test_mms_past_the_exactness_gate_prints_bracket_and_reason(tmp_path,
                                                               capsys):
    # A raised brute-force gate lets the search start; its exact value query
    # on the twenty jobs is then past the 16-job exactness gate.
    instance_path = tmp_path / "jobs20.json"
    _write_unit_jobs(instance_path, 20)
    reason = "interval bundle of size 20 exceeds the exactness gate 16"
    assert run_cli("mms", str(instance_path), "--agent", "1",
                   "--gate", "24") == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "agent 1: singleton bounds [1, 20]", f"mu: not computed ({reason})"]
    assert captured.err == f"error: {reason}\n"


def test_certify_exits_1_when_a_certificate_fails(tmp_path, capsys,
                                                  monkeypatch):
    instance_path = tmp_path / "inst.json"
    alloc_path = tmp_path / "alloc.json"
    run_cli("gen", "two-thirds", "--n", "2", "--out", str(instance_path))
    empty = solve_two_fifths(instance_from_json(instance_path.read_text()))
    empty = empty._replace(allocation=Allocation(bundles=(frozenset(),) * 2))
    monkeypatch.setattr(mmsalloc.cli, "solve_two_fifths", lambda inst: empty)
    capsys.readouterr()
    assert run_cli("solve", str(instance_path), "--certify",
                   "--out", str(alloc_path)) == 1
    assert capsys.readouterr().err == ""
    certificates = json.loads(alloc_path.read_text())["certificates"]
    assert [c["ok"] for c in certificates] == [False, False]


@pytest.mark.parametrize("doc", [
    {"n": 3, "m": 8, "values": [[str(1 + (i + j) % 4) for j in range(8)]
                                for i in range(3)],
     "system": {"kind": "explicit",
                "maximal_sets": [[1, 2, 3, 5, 8], [2, 4, 6, 7], [1, 3, 4, 7, 8]]}},
    {"n": 3, "m": 7, "values": [[str(1 + (i * j) % 5) for j in range(7)]
                                for i in range(3)],
     "system": {"kind": "conflict", "edges": [[1, 2], [2, 3], [4, 5], [6, 7]]}},
], ids=["explicit", "conflict"])
def test_existence_certificates_reuse_the_solve_shares(tmp_path, monkeypatch,
                                                       doc):
    # The existence solve computes each agent's exact MMS once; its
    # certificates equal those of an independent verification.
    instance_path = tmp_path / "inst.json"
    alloc_path = tmp_path / "alloc.json"
    instance_path.write_text(json.dumps(doc))
    calls = []
    for module in (mmsalloc.driver, mmsalloc.mms_oracle):
        def counted(*args, original=module.compute_mms_exact, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)
        monkeypatch.setattr(module, "compute_mms_exact", counted)
    assert run_cli("solve", str(instance_path), "--mode", "existence",
                   "--certify", "--out", str(alloc_path)) == 0
    assert sorted(calls) == [0, 1, 2]
    monkeypatch.undo()
    instance = instance_from_json(instance_path.read_text())
    payload = json.loads(alloc_path.read_text())
    report = verify_allocation(
        instance, allocation_from_json(instance, alloc_path.read_text()),
        Fraction(payload["alpha"]))
    assert payload["certificates"] == [
        {"agent": check.agent + 1, "value": str(check.value),
         "mu": str(check.mu), "ratio": str(check.ratio), "ok": check.ok}
        for check in report.checks]


def test_config_naming_an_unknown_mode_is_an_input_error(tmp_path, capsys):
    instance_path = tmp_path / "inst.json"
    config_path = tmp_path / "config.json"
    instance_path.write_text(json.dumps(_FREE))
    config_path.write_text('{"mode": "bogus"}')
    assert run_cli("solve", str(instance_path), "--config",
                   str(config_path)) == 2
    assert capsys.readouterr().err == "error: unknown mode 'bogus'\n"


@pytest.mark.parametrize("doc, agent, code, lines", [
    (_FREE, "3", 2, None),
    # With fewer items than agents the share is 0 and no search runs, even
    # past the 12-item brute-force gate.
    ({"n": 3, "m": 2, "values": [["1", "1"]] * 3, "system": {"kind": "free"}},
     "1", 0, ["agent 1: singleton bounds [0, 0]",
              "fewer items than agents: mu = 0"]),
    ({"n": 14, "m": 13, "values": [["1"] * 13] * 14, "system": {"kind": "free"}},
     "1", 0, ["agent 1: singleton bounds [0, 0]",
              "fewer items than agents: mu = 0"]),
    # A JSON float is read as its shortest decimal: 0.1 is 1/10.
    ({"n": 1, "m": 2, "values": [[0.1, 0.5]], "system": {"kind": "free"}},
     "1", 0, ["agent 1: singleton bounds [1/2, 1]", "mu = 3/5",
              "witness bundle 1: [1, 2]"]),
], ids=["agent-out-of-range", "fewer-items-than-agents",
        "fewer-items-than-agents-past-the-gate", "float-values"])
def test_mms_command_edges(tmp_path, capsys, doc, agent, code, lines):
    instance_path = tmp_path / "inst.json"
    instance_path.write_text(json.dumps(doc))
    assert run_cli("mms", str(instance_path), "--agent", agent) == code
    captured = capsys.readouterr()
    if lines is None:
        assert captured.err == f"error: agent {agent} out of range\n"
    else:
        assert captured.out.splitlines() == lines
        assert captured.err == ""


_THIRTEEN = {"n": 3, "m": 13, "values": [[str(1 + j % 4) for j in range(13)]] * 3}


@pytest.mark.parametrize("doc, argv, code, keys", [
    ({**_THIRTEEN, "n": 2, "values": _THIRTEEN["values"][:2],
      "system": {"kind": "free"}},
     ("--mode", "existence", "--gate", "13"), 0, ()),
    ({**_THIRTEEN, "system": {"kind": "conflict",
                              "edges": [[j, j + 1] for j in range(1, 13)]}},
     ("--mode", "existence", "--gate", "13"), 0, ("feasible",)),
    ({"n": 3, "m": 4, "values": [["1"] * 4] * 3,
      "system": {"kind": "budget", "sizes": ["1"] * 4,
                 "budgets": ["1", "2", "3"]}},
     ("--mode", "entitled", "--epsilon", "1/2"), 2, ()),
    ({"n": 2, "m": 4, "values": [["1"] * 4] * 2, "system": _INTERVALS},
     ("--mode", "alpha", "--epsilon", "3/5"), 0, ("feasible", "schedules")),
], ids=["gate-reaches-existence", "gate-reaches-conflicts",
        "epsilon-reaches-budgets", "epsilon-reaches-intervals"])
def test_solve_flags_reach_the_solver(tmp_path, doc, argv, code, keys):
    instance_path = tmp_path / "inst.json"
    instance_path.write_text(json.dumps(doc))
    alloc_path = tmp_path / "alloc.json"
    assert run_cli("solve", str(instance_path), *argv,
                   "--out", str(alloc_path)) == code
    if code == 0:
        payload = json.loads(alloc_path.read_text())
        assert all(payload[key] for key in keys)

@pytest.mark.parametrize("command, text", [
    ("verify", '{"bundles": [["a"], []]}'),
    ("verify", '{"bundles": 5}'),
    ("verify", '[]'),
    ("solve", '[1]'),
    ("verify", '{"bundles": [[1, 2, 3, 4], [5, 6, 7, 8]], "complete": "no"}'),
    ("verify", '{"bundles": [[], []], "complete": 0}'),
    ("solve", 'x'),
], ids=["bundle-entry", "bundles-not-a-list", "allocation-not-an-object",
        "config-not-an-object", "complete-a-string", "complete-a-number",
        "config-not-json"])
def test_malformed_allocation_or_config_is_an_input_error(tmp_path, capsys,
                                                          command, text):
    instance_path = tmp_path / "inst.json"
    run_cli("gen", "two-thirds", "--n", "2", "--out", str(instance_path))
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(text)
    capsys.readouterr()
    if command == "verify":
        argv = ("verify", str(instance_path), str(bad_path), "--alpha", "2/5")
    else:
        argv = ("solve", str(instance_path), "--config", str(bad_path),
                "--out", str(tmp_path / "alloc.json"))
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if text == "x":  # named as instance and allocation files are
        assert err.startswith("error: malformed config JSON: ")


def test_byte_identical_outputs_across_runs(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    first.mkdir()
    second.mkdir()
    for base in (first, second):
        run_cli("gen", "random", "--m", "8", "--n", "2", "--seed", "7",
                "--out", str(base / "inst.json"))
        run_cli("solve", str(base / "inst.json"), "--mode", "two_fifths",
                "--certify", "--out", str(base / "alloc.json"),
                "--trace", str(base / "trace.jsonl"))
        run_cli("mms", str(base / "inst.json"), "--agent", "2",
                "--out", str(base / "mms.txt"))
    for name in ("inst.json", "alloc.json", "trace.jsonl", "mms.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_console_entry_point(tmp_path):
    out = tmp_path / "inst.json"
    proc = subprocess.run(
        [sys.executable, "-m", "mmsalloc.cli", "gen", "two-thirds",
         "--n", "2", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert instance_from_json(out.read_text()).m == 8


def test_importing_the_cli_loads_neither_dataclasses_nor_generators():
    """A fresh interpreter, without site packages, imports mmsalloc.cli
    without dataclasses or inspect: importing them and generating classes
    through them would slow every CLI run.  Only ``gen`` compiles the
    generators."""
    probe = ("import sys, mmsalloc.cli; print(*sorted("
             "{'dataclasses', 'inspect', 'mmsalloc.generators'} "
             "& set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(mmsalloc.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


# Valid documents of at most six items, one per system kind, for the fuzz.
_FUZZ_INSTANCES = [
    {"n": 3, "m": 6, "values": [[str(1 + j % 3) for j in range(6)]] * 3,
     "system": {"kind": "free"}},
    {"n": 2, "m": 5, "values": [["3", "2", "2", "1", "1"],
                                ["1", "2", "2", "3", "1/2"]],
     "system": {"kind": "explicit", "maximal_sets": [[1, 2, 3], [3, 4, 5]]}},
    _BUDGETS,
    _CONFLICTS,
    {"n": 2, "m": 4, "values": [["1", "2", "1", "2"]] * 2, "system": _INTERVALS},
    {"n": 2, "m": 4, "values": [["1"] * 4] * 2, "entitled": [1, 2],
     "asymmetric": [{"kind": "budget", "sizes": ["1"] * 4, "budget": "1"},
                    {"kind": "budget", "sizes": ["1"] * 4, "budget": "2"}]},
]
_FUZZ_CONFIGS = [
    {"mode": "two_fifths"},
    {"mode": "alpha", "epsilon": "1/2", "trace": True},
    {"mode": "entitled", "epsilon": "1/3"},
    {"mode": "existence", "trace": True},
]
# Booleans, nulls and strings where numbers go, numbers where lists go, and
# items out of range, as JSON text so that no draw shares a list.
_ODD_VALUES = ("true", "false", "null", '""', '"x"', '"1/0"', '"-1/2"', "-1",
               "0", "7", "2.5", "[]", "{}", "[7]", "[[0]]")


def _paths(node, path=()):
    if isinstance(node, dict):
        entries = node.items()
    elif isinstance(node, list):
        entries = enumerate(node)
    else:
        return
    for key, child in entries:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutated(data, doc):
    """The document with up to three entries dropped or swapped for odd ones."""
    doc = json.loads(json.dumps(doc))  # a copy sharing no rows
    for _ in range(data.draw(st.integers(0, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, last = data.draw(st.sampled_from(paths))
        holder = doc
        for key in parents:
            holder = holder[key]
        if data.draw(st.booleans()):
            del holder[last]
        else:
            holder[last] = json.loads(data.draw(st.sampled_from(_ODD_VALUES)))
    return doc


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_documents_end_in_an_exit_code_never_a_traceback(data):
    base = data.draw(st.sampled_from(_FUZZ_INSTANCES))
    command = data.draw(st.sampled_from(["solve", "mms", "verify"]))
    allocation = {"bundles": [[i + 1] for i in range(base["n"])],
                  "complete": False}
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, doc):
            path = Path(tmp) / name
            path.write_text(json.dumps(_mutated(data, doc)))
            return str(path)

        argv = [command, write("inst.json", base)]
        if command == "solve":
            argv += ["--certify", "--config",
                     write("config.json", data.draw(st.sampled_from(_FUZZ_CONFIGS)))]
        elif command == "mms":
            argv += ["--agent", "1"]
        else:
            argv += [write("alloc.json", allocation), "--alpha", "2/5"]
        report = Path(tmp) / "out.txt"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out", str(report)])
        wrote = report.exists()
    assert code in (0, 1, 2, 3)
    err = err.getvalue()
    if code == 2 or err:
        # An input error, or a gate that stops the run: one line.
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        # A verdict (1 below alpha, 3 when an MMS is past the gate) is the
        # report itself.
        assert wrote
