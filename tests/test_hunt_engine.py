import pytest

from porthunt.battery import hunt_battery
from porthunt.errors import StepBudgetExceeded, UnknownNode
from porthunt.hunt_engine import HuntConfig, first_visit_times, run_uth
from porthunt.path_algebra import EnumMode
from porthunt.port_graph import (
    FiniteGraph,
    TreeOmega,
    TreeRegular,
    builtin,
    from_text,
    tree_node,
    two_node,
)

from instances import multi_route_example, path3_graph, relabeled

CHAIN_TEXT = """
# u -5-> a -2-> b -3-> c, with filler leaves completing the port sets
edge u 5 a 1
edge a 2 b 1
edge b 3 c 1
edge b 2 bl 1
edge c 2 cl2 1
edge c 3 cl3 1
edge u 1 l1 1
edge u 2 l2 1
edge u 3 l3 1
edge u 4 l4 1
"""


def test_walk_stops_at_the_first_missing_port():
    g = from_text(CHAIN_TEXT)
    nodes, entries = g.walk("u", (5, 2, 3, 5, 4, 1))
    assert nodes == ["a", "b", "c"]  # c has degree 3, port 5 missing
    assert entries == [1, 1, 1]


def test_walk_never_stops_on_tree_omega():
    assert TreeOmega().walk("r", (5, 9, 100, 1)) == \
        (["r/5", "r/5/8", "r/5/8/99", "r/5/8"], [1, 1, 1, 100])


def test_walk_and_traced_hunt_reject_an_unknown_start():
    with pytest.raises(UnknownNode):
        two_node().walk("w", (1,))
    with pytest.raises(UnknownNode):
        run_uth(two_node(), "w", "v", HuntConfig(trace=lambda row: None))


def test_traced_failed_probe_costs_nothing():
    # u - v as in two_node, and a treasure out of reach: the agent sweeps
    # until the budget; in type (2, 2), (1, 2) costs 2 steps, and (2, 1)
    # and (2, 2) fail their first probe
    g = FiniteGraph({"u": {1: ("v", 1)}, "v": {1: ("u", 1)},
                     "t": {1: ("t", 2), 2: ("t", 1)}})
    rows = []
    with pytest.raises(StepBudgetExceeded):
        run_uth(g, "u", "t", HuntConfig(max_steps=14, trace=rows.append))
    assert [r for r in rows if r[2:4] == (2, 2)] == [
        (13, 32, 2, 2, "move", 1, "ok"), (13, 32, 2, 2, "probe_fail", 2, "ok"),
        (14, 32, 2, 2, "backtrack", 1, "ok"), (14, 32, 2, 2, "probe_fail", 2, "ok"),
        (14, 32, 2, 2, "probe_fail", 2, "ok")]


def test_traced_hunt_halts_on_the_treasure_entry():
    # in STRICT mode the first walk into x is the prefix (1,) of path (1, 2)
    rows = []
    r = run_uth(path3_graph(), "u", "x", HuntConfig(mode=EnumMode.STRICT, trace=rows.append))
    assert (r.steps, r.found_type, r.visit_prefix) == (1, (2, 2), (1,))
    assert rows[-1] == (1, 32, 2, 2, "move", 1, "treasure")


# Trace rows (step phase_value type_m type_delta action port result),
# recorded once; a budget keeps the rows at steps within it.
PATH3_FIXED_ROWS = """
1 2 1 1 move 1 ok
2 2 1 1 backtrack 1 ok
2 4 2 1 probe_fail 2 ok
2 6 3 1 probe_fail 3 ok
3 8 1 2 move 1 ok
4 8 1 2 move 1 ok
5 8 1 2 backtrack 1 ok
6 8 1 2 backtrack 1 ok
6 8 4 1 probe_fail 4 ok
6 10 5 1 probe_fail 5 ok
6 12 6 1 probe_fail 6 ok
6 14 7 1 probe_fail 7 ok
6 16 8 1 probe_fail 8 ok
6 18 9 1 probe_fail 9 ok
6 20 10 1 probe_fail 10 ok
6 22 11 1 probe_fail 11 ok
7 24 1 3 move 1 ok
8 24 1 3 move 1 ok
9 24 1 3 move 1 ok
10 24 1 3 backtrack 1 ok
11 24 1 3 backtrack 1 ok
12 24 1 3 backtrack 1 ok
12 24 12 1 probe_fail 12 ok
12 26 13 1 probe_fail 13 ok
12 28 14 1 probe_fail 14 ok
12 30 15 1 probe_fail 15 ok
13 32 2 2 move 1 ok
14 32 2 2 move 2 treasure
"""
PATH3_STRICT_ROWS = """
0 4 2 1 probe_fail 2 ok
0 6 3 1 probe_fail 3 ok
0 8 4 1 probe_fail 4 ok
0 10 5 1 probe_fail 5 ok
0 12 6 1 probe_fail 6 ok
0 14 7 1 probe_fail 7 ok
0 16 8 1 probe_fail 8 ok
0 18 9 1 probe_fail 9 ok
0 20 10 1 probe_fail 10 ok
0 22 11 1 probe_fail 11 ok
0 24 12 1 probe_fail 12 ok
0 26 13 1 probe_fail 13 ok
0 28 14 1 probe_fail 14 ok
0 30 15 1 probe_fail 15 ok
1 32 2 2 move 1 ok
2 32 2 2 move 2 treasure
"""
TREE3_ROWS = """
1 2 1 1 move 1 ok
2 2 1 1 backtrack 1 ok
3 4 2 1 move 2 ok
4 4 2 1 backtrack 1 ok
5 6 3 1 move 3 ok
6 6 3 1 backtrack 1 ok
7 8 1 2 move 1 ok
8 8 1 2 move 1 ok
9 8 1 2 backtrack 1 ok
10 8 1 2 backtrack 1 ok
10 8 4 1 probe_fail 4 ok
10 10 5 1 probe_fail 5 ok
10 12 6 1 probe_fail 6 ok
10 14 7 1 probe_fail 7 ok
10 16 8 1 probe_fail 8 ok
10 18 9 1 probe_fail 9 ok
10 20 10 1 probe_fail 10 ok
10 22 11 1 probe_fail 11 ok
11 24 1 3 move 1 ok
12 24 1 3 move 1 ok
13 24 1 3 move 1 ok
14 24 1 3 backtrack 1 ok
15 24 1 3 backtrack 1 ok
16 24 1 3 backtrack 1 ok
16 24 12 1 probe_fail 12 ok
16 26 13 1 probe_fail 13 ok
16 28 14 1 probe_fail 14 ok
16 30 15 1 probe_fail 15 ok
17 32 2 2 move 1 ok
18 32 2 2 move 2 ok
19 32 2 2 backtrack 1 ok
20 32 2 2 backtrack 1 ok
21 32 2 2 move 2 ok
22 32 2 2 move 1 ok
23 32 2 2 backtrack 2 ok
24 32 2 2 backtrack 1 ok
25 32 2 2 move 2 ok
26 32 2 2 move 2 treasure
"""


@pytest.mark.parametrize("g,base,treasure,mode,max_steps,pinned", [
    (path3_graph(), "u", "v", EnumMode.FIXED, None, PATH3_FIXED_ROWS),
    (path3_graph(), "u", "v", EnumMode.STRICT, None, PATH3_STRICT_ROWS),
    (TreeRegular(3), "r", "r/2/1", EnumMode.FIXED, None, TREE3_ROWS),
    (path3_graph(), "u", "v", EnumMode.FIXED, 6, PATH3_FIXED_ROWS),
    (TreeRegular(3), "r", "r/2/1", EnumMode.FIXED, 20, TREE3_ROWS),
], ids=["path3-fixed", "path3-strict", "tree_regular:3", "path3-budget-6",
        "tree_regular:3-budget-20"])
def test_trace_rows_are_pinned(g, base, treasure, mode, max_steps, pinned):
    """Every row up to the treasure entry; under a budget, every row up to
    the move it refuses, failed probes at the last step included."""
    lines = pinned.strip().splitlines()
    rows = []
    if max_steps is None:
        run_uth(g, base, treasure, HuntConfig(mode=mode, trace=rows.append))
    else:
        with pytest.raises(StepBudgetExceeded):
            run_uth(g, base, treasure, HuntConfig(mode=mode, max_steps=max_steps,
                                                  trace=rows.append))
        lines = [line for line in lines if int(line.split()[0]) <= max_steps]
    assert [" ".join(map(str, row)) for row in rows] == lines


def test_run_uth_trivial_cases():
    g = two_node()
    assert run_uth(g, "u", "u").steps == 0
    r = run_uth(g, "u", "v")
    assert r.found and r.steps == 1
    assert r.found_type == (1, 1) and r.found_phase_value == 2
    assert r.visit_prefix == (1,)


def test_run_uth_path3_frozen():
    r = run_uth(path3_graph(), "u", "v")
    assert r.found
    assert r.steps == 14
    assert r.found_type == (2, 2)
    assert r.found_phase_value == 32
    assert r.visit_prefix == (1, 2)


def test_run_uth_multi_route_phase():
    g, u, v = multi_route_example()
    r = run_uth(g, u, v)
    assert r.found_type == (4, 2)
    assert r.found_phase_value == 128
    assert r.steps <= 2 * 128


def test_run_uth_rejects_unknown_treasure():
    with pytest.raises(UnknownNode):
        run_uth(two_node(), "u", "zzz")


def test_run_uth_step_budget():
    with pytest.raises(StepBudgetExceeded):
        run_uth(path3_graph(), "u", "v", HuntConfig(max_steps=5))
    # a budget of exactly the true step count succeeds
    assert run_uth(path3_graph(), "u", "v", HuntConfig(max_steps=14)).found


def _traced_run(g, base, treasure, mode=EnumMode.FIXED):
    rows = []
    r = run_uth(g, base, treasure, HuntConfig(mode=mode, trace=rows.append))
    return r, rows


@pytest.mark.parametrize("mode", [EnumMode.FIXED, EnumMode.STRICT])
def test_compressed_sweep_matches_path_by_path(mode):
    cases = [(path3_graph(), "u", "v"), (path3_graph(), "v", "u"),
             (builtin("ring", [5]), "0", "2"), (two_node(), "u", "v")]
    for g, b, t in cases:
        fast = run_uth(g, b, t, HuntConfig(mode=mode))
        slow, _rows = _traced_run(g, b, t, mode)
        assert (fast.steps, fast.found_type, fast.visit_prefix) == \
            (slow.steps, slow.found_type, slow.visit_prefix)


def test_compressed_sweep_matches_on_random_battery():
    for g in hunt_battery(count=6):
        ns = g.nodes()
        b, t = ns[0], ns[-1]
        if b == t:
            continue
        fast = run_uth(g, b, t)
        slow, _ = _traced_run(g, b, t)
        assert (fast.steps, fast.found_type) == (slow.steps, slow.found_type)


def test_hunt_is_deterministic():
    g = builtin("random_tree", [8, 5])
    ns = sorted(g.nodes())
    r1, rows1 = _traced_run(g, ns[0], ns[-1])
    r2, rows2 = _traced_run(g, ns[0], ns[-1])
    assert r1 == r2
    assert rows1 == rows2


def test_hunt_is_anonymous_under_relabeling():
    g = builtin("random_tree", [8, 5])
    ns = sorted(g.nodes())
    mapping = {v: f"x{v}" for v in g.nodes()}
    rg = relabeled(g, mapping)
    r1, rows1 = _traced_run(g, ns[0], ns[-1])
    r2, rows2 = _traced_run(rg, mapping[ns[0]], mapping[ns[-1]])
    assert rows1 == rows2  # trace rows carry no node names
    assert (r1.steps, r1.found_type, r1.visit_prefix) == \
        (r2.steps, r2.found_type, r2.visit_prefix)


def test_run_uth_on_infinite_tree():
    g = TreeOmega()
    r = run_uth(g, tree_node(), tree_node(7))
    assert r.found
    assert r.found_phase_value == 14  # single edge through port 7
    assert r.steps <= 2 * 14


def test_first_visit_times_basics():
    g = TreeOmega()
    targets = [tree_node(), tree_node(2), tree_node(3)]
    visits = first_visit_times(g, tree_node(), targets)
    assert visits[tree_node()] == 0
    # lower-port children are swept earlier
    assert 0 < visits[tree_node(2)] < visits[tree_node(3)]


def test_first_visit_times_consistent_with_hunts():
    g = builtin("ring", [5])
    targets = [v for v in g.nodes() if v != "0"]
    visits = first_visit_times(g, "0", targets)
    for t in targets:
        assert visits[t] == run_uth(g, "0", t).steps


def _raises(fn, *args):
    """The budget error fn raises (a budget below 1 is a ValueError), or None."""
    try:
        fn(*args)
    except (StepBudgetExceeded, ValueError) as exc:
        return type(exc)
    return None


def test_first_visit_times_budget_matches_the_hunt():
    g = builtin("ring", [5])
    targets = ["1", "2", "3", "4"]
    # the budget ends at the last first visit, not at the end of its type
    assert first_visit_times(g, "0", targets, max_steps=11) == {"1": 1, "4": 3, "2": 6, "3": 11}
    with pytest.raises(StepBudgetExceeded):
        first_visit_times(g, "0", targets, max_steps=10)
    for g in [g, path3_graph()] + hunt_battery(count=4):
        ns = sorted(g.nodes())
        for t in ns[1:]:
            s_t = run_uth(g, ns[0], t).steps
            for M in (s_t - 1, s_t):
                assert _raises(first_visit_times, g, ns[0], [t], EnumMode.FIXED, M) == \
                    _raises(run_uth, g, ns[0], t, HuntConfig(max_steps=M))


def test_budget_stops_the_sweep_inside_a_type(monkeypatch):
    """1,302,328 steps precede type (3, 9), whose sweep takes over 50,000
    neighbor calls; ten steps more of budget stop it within a few frames."""
    calls = []
    neighbor = TreeRegular.neighbor

    def counted(g, v, p):
        calls.append(v)
        return neighbor(g, v, p)
    monkeypatch.setattr(TreeRegular, "neighbor", counted)
    treasure = "r/3" + "/2" * 8
    with pytest.raises(StepBudgetExceeded):
        run_uth(TreeRegular(3), "r", treasure, HuntConfig(max_steps=1_302_338))
    assert len(calls) < 1000
    r = run_uth(TreeRegular(3), "r", treasure, HuntConfig(max_steps=1_647_397))
    assert (r.steps, r.found_type, r.visit_prefix) == (1647397, (3, 9), (3,) * 9)


@pytest.mark.parametrize("g,base,target", [(builtin("ring", [5]), "0", "nope"),
                                           (TreeRegular(3), "r", "r/9")],
                         ids=["ring:5", "tree_regular:3"])
def test_first_visit_times_rejects_an_unknown_target(g, base, target):
    with pytest.raises(UnknownNode):
        first_visit_times(g, base, [base, target])


@pytest.mark.parametrize("max_steps", [0, -3])
def test_budget_below_one_is_rejected_on_every_path(max_steps):
    g = two_node()
    with pytest.raises(ValueError, match="max_steps must be >= 1"):
        run_uth(g, "u", "v", HuntConfig(max_steps=max_steps))
    with pytest.raises(ValueError, match="max_steps must be >= 1"):
        run_uth(g, "u", "v", HuntConfig(max_steps=max_steps, trace=lambda row: None))
    with pytest.raises(ValueError, match="max_steps must be >= 1"):
        run_uth(g, "u", "u", HuntConfig(max_steps=max_steps))
    with pytest.raises(ValueError, match="max_steps must be >= 1"):
        first_visit_times(g, "u", ["v"], max_steps=max_steps)
    with pytest.raises(ValueError, match="max_steps must be >= 1"):
        first_visit_times(g, "u", ["u"], max_steps=max_steps)
