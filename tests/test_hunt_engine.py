import pytest

from porthunt.battery import hunt_battery, multi_route_example, path3_graph
from porthunt.errors import StepBudgetExceeded, UnknownNode
from porthunt.hunt_engine import (
    HuntConfig,
    Navigator,
    first_visit_times,
    run_paths_procedure,
    run_uth,
    traverse,
)
from porthunt.path_algebra import EnumMode
from porthunt.port_graph import (
    RelabeledGraph,
    TreeOmega,
    builtin,
    from_text,
    tree_node,
    two_node,
)

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


def test_navigator_counts_moves_only():
    g = two_node()
    nav = Navigator(g, "u")
    assert nav.move(2) is None  # probing a missing port costs nothing
    assert nav.steps == 0
    assert nav.move(1) == 1
    assert nav.steps == 1
    assert nav.position == "v"


def test_navigator_rejects_bad_start_and_budget():
    with pytest.raises(UnknownNode):
        Navigator(two_node(), "w")
    with pytest.raises(ValueError):
        Navigator(two_node(), "u", max_steps=0)
    nav = Navigator(two_node(), "u", max_steps=1)
    nav.move(1)
    with pytest.raises(StepBudgetExceeded):
        nav.move(1)


def test_traverse_backs_off_at_first_missing_port():
    g = from_text(CHAIN_TEXT)
    nav = Navigator(g, "u")
    out = traverse(nav, (5, 2, 3, 5, 4, 1))
    assert out.feasible_prefix == (5, 2, 3)  # c has degree 3, port 5 missing
    assert out.learned_reverse == (1, 1, 1)
    assert out.steps_used == 6  # 3 forward + 3 back
    assert nav.position == "u"  # traverse always returns home
    assert out.treasure_hit is None


def test_traverse_halts_on_treasure_entry():
    g = path3_graph()
    nav = Navigator(g, "u", treasure="v")
    out = traverse(nav, (1, 2))
    assert out.treasure_hit == 2
    assert out.steps_used == 2
    assert nav.position == "v"  # the agent stays at the treasure


def test_run_paths_two_node_type_2_2():
    # (1,2): one move, port 2 missing at v, one move back -> 2 steps;
    # (2,1) and (2,2) fail their first probe -> 0 steps each
    nav = Navigator(two_node(), "u")
    out = run_paths_procedure(nav, 2, 2)
    assert out.steps_used == 2
    assert out.treasure_prefix is None


def test_run_paths_finds_treasure():
    nav = Navigator(two_node(), "u", treasure="v")
    out = run_paths_procedure(nav, 1, 1)
    assert out.treasure_prefix == (1,)
    assert out.steps_used == 1


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
    rg = RelabeledGraph(g, mapping)
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
