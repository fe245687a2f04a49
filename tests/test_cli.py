import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import porthunt
from porthunt import experiments_cli
from porthunt.errors import ParseError, StepBudgetExceeded
from porthunt.experiments_cli import (
    EXIT_BAD_INPUT,
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_OK,
    check_lowerbound,
    main,
    resolve_graph,
)
from porthunt.hunt_engine import first_visit_times
from porthunt.port_graph import builtin, tree_node

GRAPH_TEXT = "edge u 1 x 1\nedge x 2 v 1\n"


@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "path3.graph"
    p.write_text(GRAPH_TEXT)
    return str(p)


def test_resolve_graph_builtin_and_file(graph_file):
    g = resolve_graph("ring:5")
    assert len(g.nodes()) == 5
    assert resolve_graph("tree_omega").nodes() is None
    g2 = resolve_graph(graph_file)
    assert sorted(g2.nodes()) == ["u", "v", "x"]
    with pytest.raises(ParseError):
        resolve_graph("no_such_file.graph")


def test_hunt_command_passes(capsys):
    code = main(["hunt", "--graph", "two_node", "--base", "u", "--treasure", "v"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "measured=1" in out
    assert "bound=4" in out
    assert "result=pass" in out


def test_hunt_command_on_file_graph(graph_file, capsys):
    code = main(["hunt", "--graph", graph_file, "--base", "u", "--treasure", "v"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "measured=14" in out and "oracle=32" in out


def test_hunt_bad_node_is_exit_2():
    assert main(["hunt", "--graph", "two_node", "--base", "u",
                 "--treasure", "nope"]) == EXIT_BAD_INPUT


def test_hunt_budget_is_exit_3(graph_file):
    assert main(["hunt", "--graph", graph_file, "--base", "u",
                 "--treasure", "v", "--max-steps", "5"]) == EXIT_BUDGET


def test_weight_command(capsys):
    code = main(["weight", "--graph", "tree_omega", "--from", "r", "--to", "r/7"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "oracle=14" in out
    assert "character=(7, 1)" in out and "index=8" in out


def test_weight_same_node_is_exit_2():
    assert main(["weight", "--graph", "two_node", "--from", "u",
                 "--to", "u"]) == EXIT_BAD_INPUT


def test_weight_cap_is_exit_3(graph_file):
    assert main(["weight", "--graph", graph_file, "--from", "u",
                 "--to", "v", "--cap", "16"]) == EXIT_BUDGET


def test_rv_command(capsys):
    code = main(["rv", "--graph", "two_node", "--start1", "u", "--label1", "1",
                 "--start2", "v", "--label2", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "measured=43" in out
    assert "bound=273" in out


def test_rv_same_label_is_exit_2():
    assert main(["rv", "--graph", "two_node", "--start1", "u", "--label1", "3",
                 "--start2", "v", "--label2", "3"]) == EXIT_BAD_INPUT


def test_rv_budget_is_exit_3():
    assert main(["rv", "--graph", "two_node", "--start1", "u", "--label1", "1",
                 "--start2", "v", "--label2", "2",
                 "--max-rounds", "5"]) == EXIT_BUDGET


def test_phase_command(capsys):
    assert main(["phase", "--j", "128", "--mode", "strict"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "(4,2) value=128" in out and "(64,1) value=128" in out
    assert main(["phase", "--j", "2", "--mode", "strict"]) == EXIT_OK
    assert "(none)" in capsys.readouterr().out
    assert main(["phase", "--j", "1"]) == EXIT_BAD_INPUT


def test_lowerbound_command(capsys):
    code = main(["lowerbound", "--i", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK and "result=pass" in out
    rep = check_lowerbound(2)
    assert rep.passed and rep.measured >= rep.bound


def test_lowerbound_budget_fails_at_the_latest_first_visit():
    """The run raises StepBudgetExceeded exactly when r/2i, the child entered
    last, is entered beyond the budget: at i = 1000 that is step 6865."""
    for budget in (3998, 6864):
        with pytest.raises(StepBudgetExceeded):
            check_lowerbound(1000, max_steps=budget)
    assert check_lowerbound(1000, max_steps=6865).measured == 6865


@pytest.mark.parametrize("i", [1, 2, 3, 5, 16, 64])
def test_lowerbound_is_the_literal_experiment(i):
    """The experiment as stated: sweep for all i targets r/(i+1) .. r/2i and
    take the one visited last; it is r/2i, at the measured step."""
    targets = {tree_node(j): j for j in range(i + 1, 2 * i + 1)}
    visits = first_visit_times(builtin("tree_omega"), tree_node(), targets)
    last = max(targets, key=visits.get)
    rep = check_lowerbound(i)
    assert targets[last] == 2 * i
    assert (rep.instance, rep.measured) == (f"tree_omega i={i} r={2 * i}", visits[last])


def test_lowerbound_command_is_one_hunt(capsys):
    assert main(["lowerbound", "--i", "1000000"]) == EXIT_OK
    assert "measured=7664013" in capsys.readouterr().out


def test_sleeper_command(capsys):
    code = main(["sleeper", "--graph", "ring:4", "--start1", "0",
                 "--label1", "3", "--start2", "2"])
    assert code == EXIT_OK
    assert "result=pass" in capsys.readouterr().out


def test_sleeper_bound_comes_from_its_oracle(capsys):
    # critical path index 3 times a tape block of 8 bits: n_hat = 24 bits
    assert main(["sleeper", "--graph", "ring:4", "--start1", "0",
                 "--label1", "3", "--start2", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "measured=6329" in out and "oracle=24" in out and "bound=14700" in out


def test_sleeper_fails_off_the_exact_round(capsys, monkeypatch):
    # a meeting one round after the critical-path round is within the bound
    # but not the round the dormant agent must be met at
    real = experiments_cli.run_urv

    def late(*args):
        r = real(*args)
        return dataclasses.replace(r, meeting_round=r.meeting_round + 1)

    monkeypatch.setattr(experiments_cli, "run_urv", late)
    assert main(["sleeper", "--graph", "ring:4", "--start1", "0",
                 "--label1", "3", "--start2", "2"]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "measured=6330" in out and "bound=14700" in out and "result=fail" in out


def test_hunt_trace_file_is_deterministic(tmp_path, graph_file):
    t1, t2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for t in (t1, t2):
        assert main(["hunt", "--graph", graph_file, "--base", "u",
                     "--treasure", "v", "--trace", t]) == EXIT_OK
    b1 = open(t1, "rb").read()
    assert b1 == open(t2, "rb").read()
    rows = list(csv.reader(open(t1)))
    assert rows[0] == ["step", "phase_value", "type_m", "type_delta",
                       "action", "port", "result"]
    assert rows[-1][4] == "move" and rows[-1][6] == "treasure"
    assert rows[-1][0] == "14"


def test_hunt_trace_under_an_exhausted_budget(tmp_path, graph_file):
    """The rows up to the move the budget refuses stay in the file."""
    t = tmp_path / "t.csv"
    proc = _run_cli("hunt", "--graph", graph_file, "--base", "u", "--treasure", "v",
                    "--max-steps", "5", "--trace", str(t))
    assert proc.returncode == EXIT_BUDGET, proc.stderr
    assert "Traceback" not in proc.stderr
    assert t.read_text().splitlines() == [
        "step,phase_value,type_m,type_delta,action,port,result",
        "1,2,1,1,move,1,ok",
        "2,2,1,1,backtrack,1,ok",
        "2,4,2,1,probe_fail,2,ok",
        "2,6,3,1,probe_fail,3,ok",
        "3,8,1,2,move,1,ok",
        "4,8,1,2,move,1,ok",
        "5,8,1,2,backtrack,1,ok",
    ]


def test_rv_trace_file(tmp_path):
    t = str(tmp_path / "rv.csv")
    assert main(["rv", "--graph", "two_node", "--start1", "u", "--label1", "1",
                 "--start2", "v", "--label2", "2", "--trace", t]) == EXIT_OK
    rows = list(csv.reader(open(t)))
    assert rows[0][0] == "round"
    assert len(rows) == 1 + 2 * 43  # header + one row per agent per round


def _write_suite(tmp_path, checks):
    p = tmp_path / "suite.json"
    p.write_text(json.dumps({"checks": checks}))
    return str(p)


def test_bench_passing_suite(tmp_path, graph_file):
    suite = _write_suite(tmp_path, [
        {"kind": "hunt", "graph": "two_node", "base": "u", "treasure": "v"},
        {"kind": "weight", "graph": graph_file, "from": "u", "to": "v"},
        {"kind": "rv", "graph": "two_node", "start1": "u", "label1": 1,
         "start2": "v", "label2": 2},
        {"kind": "lowerbound", "i": 1},
        {"kind": "sleeper", "graph": "two_node", "start1": "u", "label1": 1,
         "start2": "v"},
    ])
    out = str(tmp_path / "report.csv")
    assert main(["bench", "--suite", suite, "--out", out]) == EXIT_OK
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["kind", "instance", "measured", "oracle", "bound", "result"]
    assert len(rows) == 6
    assert all(r[-1] == "pass" for r in rows[1:])


def test_bench_failing_check_is_exit_1(tmp_path, graph_file):
    suite = _write_suite(tmp_path, [
        {"kind": "weight", "graph": graph_file, "from": "u", "to": "v", "cap": 16},
    ])
    out = str(tmp_path / "report.csv")
    assert main(["bench", "--suite", suite, "--out", out]) == EXIT_FAIL
    rows = list(csv.reader(open(out)))
    assert rows[1][2] == "CapExceeded" and rows[1][-1] == "fail"


def test_bench_unknown_kind_is_exit_1(tmp_path):
    suite = _write_suite(tmp_path, [{"kind": "mystery"}])
    assert main(["bench", "--suite", suite, "--out",
                 str(tmp_path / "r.csv")]) == EXIT_FAIL


def test_bench_bad_specs_are_failed_rows(tmp_path, graph_file):
    good = {"kind": "hunt", "graph": "two_node", "base": "u", "treasure": "v"}
    suite = _write_suite(tmp_path, [
        {"kind": "hunt", "graph": "two_node", "base": "u"},  # missing key
        5,  # a check that is not an object
        ["hunt"],
        dict(good, max_steps="10"),  # wrong type
        dict(good, mode="bogus"),  # not a choice
        dict(good, max_steps=True),
        {"kind": "rv", "graph": "two_node", "start1": "u", "label1": 0,
         "start2": "v", "label2": 2},  # below the minimum
        good,
    ])
    out = str(tmp_path / "report.csv")
    assert main(["bench", "--suite", suite, "--out", out]) == EXIT_FAIL
    rows = list(csv.reader(open(out)))[1:]
    assert len(rows) == 8
    assert [r[2] for r in rows[:7]] == ["BadParams"] * 7
    assert all(r[-1] == "fail" for r in rows[:7])
    assert "'treasure'" in rows[0][3] and "max_steps" in rows[3][3] and "mode" in rows[4][3]
    assert [r[0] for r in rows[:3]] == ["hunt", "unknown", "unknown"]
    assert rows[7][-1] == "pass"


def test_bench_checks_the_oracle_cap_before_the_hunt(tmp_path, graph_file):
    suite = _write_suite(tmp_path, [
        {"kind": "hunt", "graph": graph_file, "base": "u", "treasure": "v",
         "max_steps": 5, "cap": 16},
    ])
    out = str(tmp_path / "report.csv")
    assert main(["bench", "--suite", suite, "--out", out]) == EXIT_FAIL
    assert list(csv.reader(open(out)))[1][2] == "CapExceeded"


@pytest.mark.parametrize("text", [
    "{not json",
    json.dumps([{"kind": "lowerbound", "i": 1}]),  # a suite that is not an object
    json.dumps({"checks": {"kind": "lowerbound", "i": 1}}),  # checks not a list
])
def test_bench_malformed_suite_is_exit_2(tmp_path, text):
    p = tmp_path / "suite.json"
    p.write_text(text)
    assert main(["bench", "--suite", str(p)]) == EXIT_BAD_INPUT


def _run_cli(*args):
    src = str(Path(porthunt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "porthunt.experiments_cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)


_HUNT = ["hunt", "--graph", "two_node", "--base", "u", "--treasure", "v"]


@pytest.mark.parametrize("args", [
    ["hunt", "--graph", "ring:x", "--base", "0", "--treasure", "1"],
    ["rv", "--graph", "two_node", "--start1", "u", "--label1", "0",
     "--start2", "v", "--label2", "2"],
    ["sleeper", "--graph", "two_node", "--start1", "u", "--label1", "0", "--start2", "v"],
    _HUNT + ["--max-steps", "0"],
    _HUNT + ["--max-steps", "0", "--trace", "{tmp}/t.csv"],
    _HUNT + ["--trace", "{tmp}/missing/t.csv"],
    ["weight", "--graph", "two_node", "--from", "u", "--to", "nope"],
    ["lowerbound", "--i", "1", "--max-steps", "0"],
    ["bench", "--suite", "{tmp}/missing.json"],
    ["hunt", "--graph", "{tmp}", "--base", "u", "--treasure", "v"],
    ["rv", "--graph", "ring:9", "--start1", "0", "--label1", "3",
     "--start2", "4", "--label2", "3", "--cap", "10"],
], ids=["graph-params", "rv-label", "sleeper-label", "max-steps", "max-steps-traced",
        "trace-path", "unknown-node", "lowerbound-steps", "suite-path", "graph-dir",
        "rv-same-label-small-cap"])
def test_bad_input_exits_2_without_traceback(tmp_path, args):
    proc = _run_cli(*[a.format(tmp=tmp_path) for a in args])
    assert proc.returncode == EXIT_BAD_INPUT, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(("error:", "usage:"))


def test_bench_empty_suite_is_ok(tmp_path):
    suite = _write_suite(tmp_path, [])
    out = str(tmp_path / "report.csv")
    assert main(["bench", "--suite", suite, "--out", out]) == EXIT_OK
    assert len(list(csv.reader(open(out)))) == 1


def test_node_without_ports_is_bad_input(tmp_path):
    graph = tmp_path / "lonely.graph"
    graph.write_text("node a\n")
    proc = _run_cli("hunt", "--graph", str(graph), "--base", "a", "--treasure", "a")
    assert proc.returncode == EXIT_BAD_INPUT, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    good = {"kind": "hunt", "graph": "two_node", "base": "u", "treasure": "v"}
    suite = _write_suite(tmp_path, [dict(good, graph=str(graph), base="a", treasure="a"), good])
    out = str(tmp_path / "report.csv")
    assert main(["bench", "--suite", suite, "--out", out]) == EXIT_FAIL
    rows = list(csv.reader(open(out)))[1:]
    assert [(r[2], r[-1]) for r in rows] == [("InvalidPorts", "fail"), ("1", "pass")]


_DEEP_WEIGHT = ["weight", "--graph", "ring:2048", "--from", "0", "--to", "1024"]
_DEEP_HUNT = ["hunt", "--graph", "ring:2048", "--base", "0", "--treasure", "1024"]
_HUGE = str(10 ** 700)


@pytest.mark.parametrize("args,code", [
    (_DEEP_WEIGHT + ["--cap", _HUGE], EXIT_OK),
    (_DEEP_HUNT + ["--cap", _HUGE, "--max-steps", _HUGE], EXIT_OK),
    (_DEEP_WEIGHT + ["--cap", "1000"], EXIT_BUDGET),
    (_DEEP_HUNT + ["--cap", "1000", "--max-steps", _HUGE], EXIT_BUDGET),
], ids=["weight", "hunt", "weight-cap", "hunt-cap"])
def test_query_deeper_than_the_recursion_limit(args, code):
    """The character (1, 1024) of ring:2048 is deeper than Python's default
    limit of 1,000 frames; the prefix-tree searches keep their own stacks."""
    proc = _run_cli(*args)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
