from itertools import islice

import pytest

from porthunt.battery import path3_graph
from porthunt.errors import NegativeWait, PreconditionError, RoundBudgetExceeded
from porthunt.path_algebra import EnumMode
from porthunt.rendezvous_engine import (
    PathBook,
    RvConfig,
    _move_events,
    alloc,
    bound_time,
    run_urv,
    take_paths,
    tape_bit,
    trans,
)
from porthunt.port_graph import builtin, two_node


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


class _StubBook:
    """A path book that serves the same path for every segment."""

    def __init__(self, path):
        self.path = path

    def get(self, j):
        return self.path


def test_bit_actions_reject_overlong_path():
    g = builtin("ring", [5])
    events = _move_events(g, "0", 1, EnumMode.FIXED, _StubBook((1, 1, 1, 1)))
    with pytest.raises(NegativeWait):
        list(events)  # bit 1 lasts 3 rounds: 8 moves cannot fit


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
    book = PathBook()
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
        path = book.get((i - 1) // len(seg) + 1)
        entries = []
        for p in path:
            if not g.degree(pos).has_port(p):
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
