import itertools
from itertools import count, islice

import pytest

from porthunt.battery import far_pair, low_port_edge, rendezvous_graphs
from porthunt.errors import NegativeWait, PreconditionError, RoundBudgetExceeded, UnknownNode
from porthunt.path_algebra import EnumMode, global_paths
from porthunt.port_graph import PortGraph, TreeOmega, TreeRegular, builtin, tree_node, two_node
from porthunt import port_graph
from porthunt.rendezvous_engine import (
    _ROUNDS,
    RvConfig,
    RvResult,
    _move_events,
    _walker,
    bound_time,
    run_urv,
    trans,
)
from porthunt.weight_oracle import critical_path

from instances import path3_graph, rendezvous_start_pairs


def tape_bit(label, i):
    """i-th bit (1-based) of the infinite periodic tape of a label."""
    seg = trans(label)
    return seg[(i - 1) % len(seg)]


def alloc(i):
    """Rounds allocated to the i-th tape bit: 3 * i**2."""
    if i < 1:
        raise ValueError("bit indices start at 1")
    return 3 * i * i


def take_paths(n, mode=EnumMode.FIXED):
    """First n paths of the global order."""
    return list(islice(global_paths(mode), n))


def test_trans_examples():
    assert trans(1) == (1, 1, 0, 1)
    assert trans(2) == (1, 1, 0, 0, 0, 1)
    assert trans(5) == (1, 1, 0, 0, 1, 1, 0, 1)
    with pytest.raises(ValueError):
        trans(0)


def test_trans_length_formula():
    for label in range(1, 1025):
        assert len(trans(label)) == 2 * (label.bit_length()) + 2


def test_trans_is_injective_and_self_delimiting():
    blocks = {trans(label) for label in range(1, 200)}
    assert len(blocks) == 199
    for b in blocks:
        assert b[-2:] == (0, 1)
        # the delimiter cannot occur on an even boundary inside the block
        for k in range(0, len(b) - 2, 2):
            assert b[k] == b[k + 1]


def test_tape_is_periodic():
    for label in (1, 2, 5, 21):
        s = len(trans(label))
        for i in range(1, 10 * s + 1):
            assert tape_bit(label, i) == tape_bit(label, i + s)
            assert tape_bit(label, i) == trans(label)[(i - 1) % s]


def test_alloc_and_bound_time_identity():
    assert [alloc(i) for i in (1, 2, 3)] == [3, 12, 27]
    for n in range(1, 1001):
        assert bound_time(n) == sum(3 * j * j for j in range(1, n + 1))
    with pytest.raises(ValueError):
        alloc(0)
    with pytest.raises(ValueError):
        bound_time(0)


def test_take_paths_prefix():
    assert take_paths(6) == [(1,), (2,), (3,), (1, 1), (4,), (5,)]


def _agent1_rows(g, home, label, rounds, far):
    """Trace rows (node, action, port, bit_index, bit_value, segment) of agent 1
    for its first `rounds` rounds; agent 2 sleeps at `far`, which agent 1 must
    not reach that early."""
    rows = []
    with pytest.raises(RoundBudgetExceeded):
        run_urv(g, (home, label), (far, label + 1),
                RvConfig(delay=rounds, max_rounds=rounds, trace=rows.append))
    return [row[3:] for row in rows if row[1] == 1]


def test_plan_bit_examples_on_two_node():
    # label 1 has tape 1101: bits 1-3 lie in segment 1 and a 1-bit walks path (1,)
    rows = []
    run_urv(two_node(), ("u", 1), ("v", 2), RvConfig(trace=rows.append))
    agent1 = [row[3:] for row in rows if row[1] == 1]
    assert [row[1:3] for row in agent1[:3]] == [("move", 1), ("wait", 0), ("move", 1)]
    assert {row[3:] for row in agent1[:3]} == {(1, 1, 1)}
    assert [row[1:3] for row in agent1[3:15]] == [("move", 1)] + [("wait", 0)] * 10 + [("move", 1)]
    assert {row[3:] for row in agent1[3:15]} == {(2, 1, 1)}
    # a 0-bit always waits out its allocation
    assert [row[1:] for row in agent1[15:42]] == [("wait", 0, 3, 0, 1)] * 27
    # bits 5-8 target path (2,); port 2 does not exist at u, so the agent does not
    # move from the end of bit 4 until segment 4 walks path (1, 1) in bit 13
    events = list(islice(_move_events(two_node(), "u", 1, EnumMode.FIXED), 7))
    assert events == [(1, "v", 1), (3, "u", 1), (4, "v", 1), (15, "u", 1),
                      (43, "v", 1), (90, "u", 1), (bound_time(12) + 1, "v", 1)]


@pytest.mark.parametrize("i", range(1, 8))
@pytest.mark.parametrize("bit", [0, 1])
def test_plan_bit_length_is_allocation(i, bit):
    # a label whose tape has `bit` at i; every tape opens with a doubled 1, so
    # bits 1 and 2 are never 0 and fall back to label 1
    label = next((n for n in range(1, 64) if tape_bit(n, i) == bit), 1)
    rows = _agent1_rows(builtin("ring", [5]), "0", label, bound_time(i), far="2")
    of_bit = [row for row in rows if row[3] == i]
    assert len(of_bit) == alloc(i)
    assert rows[-len(of_bit):] == of_bit  # the bit's rounds are the last ones
    value = tape_bit(label, i)
    assert {row[4:] for row in of_bit} == {(value, (i - 1) // len(trans(label)) + 1)}
    if value == 0:
        assert {row[:3] for row in of_bit} == {("0", "wait", 0)}


def test_bit_actions_reject_overlong_path(monkeypatch):
    # serve the same path for every segment, on a graph that has walked none yet
    monkeypatch.setattr(port_graph, "departures",
                        lambda d, mode, skip: ((j, (1, 1, 1, 1)) for j in count(skip + 1)))
    g = builtin("ring", [5])
    events = _move_events(g, "0", 1, EnumMode.FIXED)
    with pytest.raises(NegativeWait):
        list(islice(events, 64))  # bit 1 lasts 3 rounds: 8 moves cannot fit
    # path 2 walks 50 moves: bit 9 of a tape of length 8 (243 rounds) fits
    # it, bit 5 of a tape of length 4 (75 rounds) does not
    monkeypatch.setattr(port_graph, "departures",
                        lambda d, mode, skip: ((j, (1,) * (50 if j == 2 else 1))
                                               for j in count(skip + 1)))
    g = builtin("ring", [5])
    list(islice(_walker(g, "0", 5, EnumMode.FIXED), 6))  # tape length 8 prices segments 1-6
    for _ in range(2):  # on the warm graph, every walker of label 1 raises at segment 2
        events = []
        with pytest.raises(NegativeWait, match="bit 5 "):
            events += _move_events(g, "0", 1, EnumMode.FIXED)
        assert len(events) == 6  # the three 1-bits of segment 1, out and back
        assert [len(rounds) for _, rounds in _ROUNDS[g].values()] == [12, 2]


def _per_bit_events(g, home, label, mode=EnumMode.FIXED):
    """Reference bit walker: walks the segment's path afresh at every bit, and
    back through the graph, adding up the rounds of every bit."""
    seg = trans(label)
    s = len(seg)
    paths = []
    stream = global_paths(mode)
    pos = home
    r = 0
    i = 0
    while True:
        i += 1
        duration = alloc(i)
        if seg[(i - 1) % s] == 0:
            r += duration
            continue
        j = (i - 1) // s + 1
        paths += islice(stream, j - len(paths))
        path = paths[j - 1]
        entries = []
        for p in path:
            d = g.degree(pos)
            if d is not None and p > d:
                break
            pos, q = g.neighbor(pos, p)
            entries.append(q)
            r += 1
            yield (r, pos, p)
        pad = duration - 2 * len(entries)
        if pad < 0:
            raise NegativeWait(f"bit {i} cannot fit path {path}")
        r += pad
        for q in reversed(entries):
            pos, _ = g.neighbor(pos, q)
            r += 1
            yield (r, pos, q)


def _walker_cases():
    cases = [("two_node", two_node(), "u"), ("path3", path3_graph(), "u")]
    cases += [(f"ring:{n}", builtin("ring", [n]), "0") for n in range(3, 7)]
    for name, g in rendezvous_graphs():
        cases += [(f"{name}@{v}", g, v) for v in sorted(set(far_pair(g)))]
    cases.append(("tree_regular:3", TreeRegular(3), tree_node(2, 1)))
    cases.append(("tree_omega", TreeOmega(), tree_node()))  # a home of infinite degree
    cases.append(("tree_omega@deep", TreeOmega(), tree_node(3, 1)))
    return cases


WALKER_CASES = _walker_cases()
RV_GRAPHS = rendezvous_graphs()


@pytest.mark.parametrize("name,g,home", WALKER_CASES, ids=[c[0] for c in WALKER_CASES])
def test_segment_walker_matches_per_bit_walker(name, g, home):
    for label in range(1, 129):
        fast = list(islice(_move_events(g, home, label, EnumMode.FIXED), 100))
        assert fast == list(islice(_per_bit_events(g, home, label), 100)), label


class _CountingGraph(PortGraph):
    """Counts the degree and neighbor calls made on a wrapped graph."""

    def __init__(self, base):
        self._base = base
        self.calls = {"degree": 0, "neighbor": 0}

    def degree(self, v):
        self.calls["degree"] += 1
        return self._base.degree(v)

    def neighbor(self, v, p):
        self.calls["neighbor"] += 1
        return self._base.neighbor(v, p)


def _walk_length(g, home, path):
    """Moves of the maximal feasible prefix of path from home."""
    pos = home
    for n, p in enumerate(path):
        d = g.degree(pos)
        if d is not None and p > d:
            return n
        pos, _ = g.neighbor(pos, p)
    return len(path)


def _forward_steps(g, home, label, offset, meeting_round):
    """Forward moves of the segments an agent's walker has entered by the
    meeting.  The merge stops inside the item that holds the meeting move, so
    each walker has entered the segment of its first move at or after the
    meeting round, and no later one."""
    r = next(r for r, _, _ in _per_bit_events(g, home, label) if r + offset >= meeting_round)
    i = next(i for i in range(1, r + 1) if bound_time(i) >= r)
    last_segment = (i - 1) // len(trans(label)) + 1
    return sum(_walk_length(g, home, path) for path in take_paths(last_segment))


# meets at round 273 = bound_time(6), agent 1's move home that ends its
# first segment: its walker has not entered segment 2
SEGMENT_END_MEETINGS = {"ring:3": [(("1", "0"), (3, 2), 17)]}


@pytest.mark.parametrize("name,g", RV_GRAPHS, ids=[n for n, _ in RV_GRAPHS])
def test_walker_walks_each_segment_once(name, g):
    # every segment has at least three 1-bits, so a walk per bit would at
    # least triple the neighbor calls
    cases = list(itertools.product(rendezvous_start_pairs(g), [(7, 11), (21, 13)], [0, 17]))
    for (v1, v2), (l1, l2), delay in cases + SEGMENT_END_MEETINGS.get(name, []):
        counted = _CountingGraph(g)
        r = run_urv(counted, (v1, l1), (v2, l2), RvConfig(delay=delay)).meeting_round
        steps = _forward_steps(g, v1, l1, 0, r) + _forward_steps(g, v2, l2, delay, r)
        assert counted.calls["neighbor"] == steps
        # run_urv's two checks, one per home, at most one per forward step
        assert counted.calls["degree"] <= steps + 4


def test_agent_returns_home_at_every_bit_boundary():
    rows = _agent1_rows(builtin("ring", [5]), "0", 5, bound_time(5), far="2")
    boundaries = {bound_time(i) for i in range(1, 6)}
    for r, (node, _act, _port, i, bit, _j) in enumerate(rows, start=1):
        assert bit == tape_bit(5, i)
        if r in boundaries:
            assert node == "0"


def _naive_positions(g, home, label):
    """Independent per-round position stream built from first principles."""
    seg = []
    for ch in bin(label)[2:]:
        seg += [int(ch), int(ch)]
    seg += [0, 1]
    paths = []
    stream = global_paths()
    pos = home
    i = 0
    while True:
        i += 1
        bit = seg[(i - 1) % len(seg)]
        duration = 3 * i * i
        if bit == 0:
            for _ in range(duration):
                yield pos
            continue
        j = (i - 1) // len(seg) + 1
        paths += islice(stream, j - len(paths))
        path = paths[j - 1]
        entries = []
        for p in path:
            d = g.degree(pos)
            if d is not None and p > d:
                break
            pos, q = g.neighbor(pos, p)
            entries.append(q)
            yield pos
        for _ in range(duration - 2 * len(entries)):
            yield pos
        for q in reversed(entries):
            pos, _ = g.neighbor(pos, q)
            yield pos


def _naive_meeting(g, start1, start2, delay=0, max_rounds=5 * 10 ** 5):
    (v1, l1), (v2, l2) = start1, start2
    s1 = _naive_positions(g, v1, l1)
    s2 = _naive_positions(g, v2, l2)
    pos1, pos2 = v1, v2
    for r in range(1, max_rounds + 1):
        pos1 = next(s1)
        if r > delay:
            pos2 = next(s2)
        if pos1 == pos2:
            return r, pos1
    raise AssertionError("naive simulation found no meeting")


def test_reference_meeting_round_is_43():
    r = run_urv(two_node(), ("u", 1), ("v", 2))
    assert r.met and r.meeting_round == 43
    assert _naive_meeting(two_node(), ("u", 1), ("v", 2)) == (43, r.meeting_node)


CASES = [
    (two_node(), ("u", 1), ("v", 2), 0),
    (two_node(), ("u", 1), ("v", 2), 1),
    (two_node(), ("u", 2), ("v", 1), 5),
    (path3_graph(), ("u", 1), ("v", 2), 0),
    (builtin("ring", [3]), ("0", 3), ("2", 5), 0),
    (builtin("ring", [4]), ("0", 1), ("2", 2), 17),
]


@pytest.mark.parametrize("g,s1,s2,delay", CASES)
def test_simulator_matches_naive_and_trace(g, s1, s2, delay):
    fast = run_urv(g, s1, s2, RvConfig(delay=delay))
    rows = []
    traced = run_urv(g, s1, s2, RvConfig(delay=delay, trace=rows.append))
    naive_round, naive_node = _naive_meeting(g, s1, s2, delay)
    assert fast.meeting_round == traced.meeting_round == naive_round
    assert fast.meeting_node == traced.meeting_node == naive_node
    assert len(rows) == 2 * fast.meeting_round  # one row per agent per round


@pytest.mark.parametrize("g,s1,s2,delay", CASES)
def test_traced_rows_follow_naive_positions(g, s1, s2, delay):
    # the traced and fast runners share one walker; the naive stream is independent
    rows = []
    run_urv(g, s1, s2, RvConfig(delay=delay, trace=rows.append))
    naive1 = _naive_positions(g, s1[0], s1[1])
    naive2 = _naive_positions(g, s2[0], s2[1])
    for r, agent, awake, node, *_ in rows:
        if agent == 1:
            assert node == next(naive1)
        else:
            assert awake == (r > delay)
            assert node == (next(naive2) if awake else s2[0])


def test_crossing_an_edge_is_not_a_meeting():
    # in round 1 both agents traverse the single edge in opposite directions
    rows = []
    r = run_urv(two_node(), ("u", 1), ("v", 2), RvConfig(trace=rows.append))
    round1 = [row for row in rows if row[0] == 1]
    assert [(row[1], row[3], row[4]) for row in round1] == \
        [(1, "v", "move"), (2, "u", "move")]
    assert r.meeting_round == 43  # the swap did not count


def test_dormant_agent_is_met_at_its_start():
    cfg = RvConfig(delay=10 ** 6, max_rounds=10 ** 6)
    r = run_urv(two_node(), ("u", 1), ("v", 2), cfg)
    assert r.met and r.meeting_round == 1 and r.meeting_node == "v"


def test_meeting_within_cumulative_time_bound():
    # two_node: both critical-path indices are 1, so the worst agent needs
    # N = max(len(trans(1)), len(trans(2))) = 6 useful bits
    bound = bound_time(6)
    assert bound == 273
    for delay in (0, 1, 5, 17):
        r = run_urv(two_node(), ("u", 1), ("v", 2), RvConfig(delay=delay))
        assert r.met and r.meeting_round <= delay + bound


def test_preconditions():
    g = two_node()
    with pytest.raises(PreconditionError):
        run_urv(g, ("u", 1), ("u", 2))  # same start node
    with pytest.raises(PreconditionError):
        run_urv(g, ("u", 1), ("v", 1))  # same label
    with pytest.raises(PreconditionError):
        run_urv(g, ("u", 1), ("v", 2), RvConfig(delay=-1))


def test_round_budget():
    with pytest.raises(RoundBudgetExceeded):
        run_urv(two_node(), ("u", 1), ("v", 2), RvConfig(max_rounds=5))
    with pytest.raises(RoundBudgetExceeded):
        run_urv(two_node(), ("u", 1), ("v", 2),
                RvConfig(max_rounds=5, trace=lambda row: None))


def test_symmetric_labels_meet_in_both_assignments():
    g = builtin("ring", [4])
    a = run_urv(g, ("0", 7), ("2", 11))
    b = run_urv(g, ("0", 11), ("2", 7))
    assert a.met and b.met
    # the schedules differ, so the meetings generally do too; both are finite
    assert a.meeting_round >= 1 and b.meeting_round >= 1


def _dormant_cases(graphs=RV_GRAPHS):
    cases = []
    for name, g in graphs:
        for pair in sorted({low_port_edge(g), far_pair(g)}):
            for v1, v2 in (pair, pair[::-1]):
                path, k = critical_path(g, v1, v2)
                cases.append((name, g, v1, v2, path, k))
    return cases


def test_dormant_agent_is_met_at_the_critical_path_round():
    assert _dormant_runs(_dormant_cases()) == 1344


def _dormant_runs(cases):
    # No path before the critical path p (index k) has a feasible prefix that
    # enters v2, and every segment opens with a 1-bit, so agent 1 first enters
    # the dormant v2 at step len(p) of segment k.
    runs = 0
    for name, g, v1, v2, path, k in cases:
        for label in range(1, 33):
            s = len(trans(label))
            pred = (bound_time((k - 1) * s) if k > 1 else 0) + len(path)
            cfg = RvConfig(delay=pred + 1, max_rounds=pred + 1)
            r = run_urv(g, (v1, label), (v2, label + 1), cfg)
            assert (r.meeting_round, r.meeting_node) == (pred, v2), (name, v1, v2, label)
            runs += 1
    return runs


@pytest.mark.parametrize("n,meeting_round,node", [
    (24, 18947145140821692, "12"),
    (28, 1948705681130728862, "14"),
    (32, 188796833887884225184, "16"),
])
def test_far_pair_on_large_rings(n, meeting_round, node):
    cfg = RvConfig(max_rounds=meeting_round)
    r = run_urv(builtin("ring", [n]), ("0", 5), (str(n // 2), 12), cfg)
    assert r.met and (r.meeting_round, r.meeting_node) == (meeting_round, node)


def _event_meeting(g, start1, start2, cfg):
    """Reference merge: pulls one (round, node, port) move event at a time from
    each agent's flattened walker and checks every round where one moves."""
    (v1, l1), (v2, l2) = start1, start2
    ev1 = _move_events(g, v1, l1, cfg.mode)
    ev2 = _move_events(g, v2, l2, cfg.mode)
    pos1, pos2 = v1, v2
    r1, node1, _ = next(ev1)
    r2, node2, _ = next(ev2)
    r2 += cfg.delay  # agent 2's rounds are counted from agent 1's wake-up
    while True:
        r = min(r1, r2)
        if r > cfg.max_rounds:
            raise RoundBudgetExceeded(f"no meeting within {cfg.max_rounds} rounds")
        if r1 == r:  # an agent moves at most once per round
            pos1 = node1
            r1, node1, _ = next(ev1)
        if r2 == r:
            pos2 = node2
            r2, node2, _ = next(ev2)
            r2 += cfg.delay
        if pos1 == pos2:
            return RvResult(met=True, meeting_round=r, meeting_node=pos1)


def _outcome(run, *args):
    try:
        r = run(*args)
    except RoundBudgetExceeded as exc:
        return ("budget", str(exc))
    return (r.met, r.meeting_round, r.meeting_node)


def _cross_check_cases(graphs=RV_GRAPHS):
    cases = []
    for name, g in graphs:
        for pair in sorted({low_port_edge(g), far_pair(g)}):
            cases += [(f"{name}:{a}-{b}", g, a, b) for a, b in (pair, pair[::-1])]
    cases.append(("tree_regular:3", TreeRegular(3), tree_node(2, 1), tree_node(1, 2)))
    cases.append(("tree_omega", TreeOmega(), tree_node(), tree_node(2, 1)))  # infinite degree
    return cases


CROSS_CHECK_CASES = _cross_check_cases()


@pytest.mark.parametrize("mode", [EnumMode.FIXED, EnumMode.STRICT], ids=["fixed", "strict"])
@pytest.mark.parametrize("name,g,v1,v2", CROSS_CHECK_CASES, ids=[c[0] for c in CROSS_CHECK_CASES])
def test_interval_merge_matches_event_merge(name, g, v1, v2, mode):
    for (l1, l2), delay, max_rounds in itertools.product(
        [(1, 2), (5, 12), (7, 11), (21, 13)], [0, 1, 3, 17, 10 ** 6],
        [1, 5, 30, 200, 5000, 10 ** 6],
    ):
        cfg = RvConfig(delay=delay, max_rounds=max_rounds, mode=mode)
        fast = _outcome(run_urv, g, (v1, l1), (v2, l2), cfg)
        assert fast == _outcome(_event_meeting, g, (v1, l1), (v2, l2), cfg), (l1, l2, cfg)


# --- the per-home walk memo of finite graphs ----------------------------------------


def _counting(monkeypatch, g, name):
    """Count the calls of one method on one graph instance."""
    calls = []
    method = getattr(g, name)

    def counted(*args):
        calls.append(args)
        return method(*args)

    monkeypatch.setattr(g, name, counted)
    return calls


def test_second_run_on_one_graph_walks_nothing(monkeypatch):
    for name, g in rendezvous_graphs():
        v1, v2 = far_pair(g)
        for cfg in (RvConfig(max_rounds=10 ** 30),
                    RvConfig(delay=17, max_rounds=10 ** 30, mode=EnumMode.STRICT)):
            first = run_urv(g, (v1, 5), (v2, 12), cfg)
            calls = _counting(monkeypatch, g, "neighbor")
            assert run_urv(g, (v1, 5), (v2, 12), cfg) == first, name
            assert calls == [], name
            monkeypatch.undo()


@pytest.mark.parametrize("cap", [2, port_graph.WALK_MEMO_CAP])
def test_interleaved_streams_from_one_home_match_fresh_graphs(monkeypatch, cap):
    monkeypatch.setattr(port_graph, "WALK_MEMO_CAP", cap)
    g = builtin("ring", [6])
    streams = [_move_events(g, "0", label, EnumMode.FIXED) for label in (5, 12, 5)]
    got = [[], [], []]
    for t in range(600):  # uneven steps, so each stream leads in turn
        k = t % 3
        got[k] += islice(streams[k], 1 + (t * 7) % 5)
    for label, events in zip((5, 12, 5), got):
        fresh = _move_events(builtin("ring", [6]), "0", label, EnumMode.FIXED)
        assert events == list(islice(fresh, len(events))), label
    assert all(len(memo) <= cap for memo, _ in g._walks.values())


def test_walk_memo_cap_keeps_every_outcome(monkeypatch):
    monkeypatch.setattr(port_graph, "WALK_MEMO_CAP", 2)
    fresh = rendezvous_graphs()
    for name, g, v1, v2 in _cross_check_cases(fresh):
        for mode in EnumMode:
            test_interval_merge_matches_event_merge(name, g, v1, v2, mode)
    assert _dormant_runs(_dormant_cases(fresh)) == 1344
    for name, g in fresh:
        for home in sorted(set(far_pair(g))):
            test_segment_walker_matches_per_bit_walker(name, g, home)
    memos = [memo for _, g in fresh for memo, _ in g._walks.values()]
    assert max(map(len, memos)) == 2


def test_walk_memo_walks_each_segment_once(monkeypatch):
    monkeypatch.setattr(port_graph, "WALK_MEMO_CAP", 3)
    g = builtin("ring", [7])
    walks = _counting(monkeypatch, g, "walk")
    fresh = PortGraph.departing_walks(builtin("ring", [7]), "0", EnumMode.FIXED)
    reference = list(islice(fresh, 10))
    for walked in (10, 7):  # past the cap a stream walks its own segments, and only those
        got = list(islice(g.departing_walks("0", EnumMode.FIXED), 10))
        assert [(j, p, list(n), list(e)) for j, p, n, e in got] == reference
        assert len(walks) == walked
        walks.clear()
    skipped = islice(g.departing_walks("0", EnumMode.FIXED, 8), 2)
    assert [j for j, *_ in skipped] == [j for j, *_ in reference[8:]]


def test_full_walk_memo_drops_its_stream(monkeypatch):
    monkeypatch.setattr(port_graph, "WALK_MEMO_CAP", 3)
    g = builtin("ring", [7])
    stream = g.departing_walks("0", EnumMode.FIXED)
    list(islice(stream, 2))
    assert g._walks["0", EnumMode.FIXED][1] is not None
    next(stream)
    memo, source = g._walks["0", EnumMode.FIXED]
    assert len(memo) == 3 and source is None
    fresh = PortGraph.departing_walks(builtin("ring", [7]), "0", EnumMode.FIXED)
    reference = [(j, p, list(n), list(e)) for j, p, n, e in islice(fresh, 10)]
    for got in (list(islice(stream, 7)), list(islice(g.departing_walks("0", EnumMode.FIXED), 10))):
        assert [(j, p, list(n), list(e)) for j, p, n, e in got] == reference[-len(got):]


def test_unknown_home_raises_and_leaves_no_walk_memo():
    g = builtin("ring", [5])
    with pytest.raises(UnknownNode):
        next(g.departing_walks("5", EnumMode.FIXED))
    with pytest.raises(UnknownNode):
        run_urv(g, ("0", 1), ("5", 2))
    assert g._walks == {}


# --- the rounds of the kept walks, priced once per tape length -------------------


def _segment_items(g, home, label, mode, n, offset=0):
    """The first n segment items of a walker, split into bursts at none."""
    return [item[:2] + (tuple(item[2]),) for item in islice(_walker(g, home, label, mode, offset), n)]


@pytest.mark.parametrize("mode", [EnumMode.FIXED, EnumMode.STRICT], ids=["fixed", "strict"])
def test_kept_rounds_are_the_bound_times_of_their_segments(mode):
    labels = (1, 5, 12, 100, 5, 1)  # tape lengths 4, 8, 10 and 16, then two again
    for name, g in [("ring:6", builtin("ring", [6]))] + rendezvous_graphs()[:3]:
        home = sorted(g.nodes())[0]
        for label in labels:  # the first prices on a fresh graph, the last two read
            s = len(trans(label))
            reference = _segment_items(_CountingGraph(g), home, label, mode, 40, 7)
            assert _segment_items(g, home, label, mode, 40, 7) == reference, (name, label)
            kept, rounds = _ROUNDS[g][home, mode, s]
            assert len(rounds) == 2 * 40
            for q, (j, _, nodes, _) in enumerate(kept[:40]):
                first = bound_time((j - 1) * s) if j > 1 else 0
                assert rounds[2 * q:2 * q + 2] == [first, bound_time(j * s)]
                assert reference[q] == (7 + first, 7 + bound_time(j * s), nodes)


@pytest.mark.parametrize("cap", [2, 3])
def test_kept_rounds_hold_what_the_deepest_walker_read(monkeypatch, cap):
    monkeypatch.setattr(port_graph, "WALK_MEMO_CAP", cap)
    g = builtin("ring", [7])
    deepest = 0
    for depth in (1, 2, 1, 5, 3):
        walker = _walker(g, "0", 5, EnumMode.FIXED)
        next(walker)
        for _ in range(depth - 1):  # split each segment into its bursts and move on
            walker.send(True)
            while walker.send(False)[3] is not None:
                pass
        deepest = max(deepest, depth)
        kept, rounds = _ROUNDS[g]["0", EnumMode.FIXED, 8]
        assert len(rounds) == 2 * min(deepest, cap) and len(kept) == min(deepest, cap)
    fresh = _segment_items(_CountingGraph(builtin("ring", [7])), "0", 5, EnumMode.FIXED, 8)
    assert _segment_items(g, "0", 5, EnumMode.FIXED, 8) == fresh  # read past the cap


def test_unknown_home_leaves_no_kept_rounds():
    g = builtin("ring", [5])
    for mode in EnumMode:
        with pytest.raises(UnknownNode):
            next(_move_events(g, "5", 3, mode))
    assert g._walks == {} and not _ROUNDS.get(g)
