"""Two-agent rendezvous: label tapes, the 3i^2 bit scheduler, one bit walker.

Each agent derives an infinite periodic bit tape from its label and processes
bit i for exactly 3 * i**2 rounds.  A 1-bit in the j-th tape segment walks the
maximal feasible prefix of the j-th path of the global order, waits at its
end, and walks back; a 0-bit waits in place.  Agents start and end every bit
at their starting node.

The simulator is synchronous.  Meetings are detected at round boundaries only;
agents crossing the same edge in opposite directions do not meet.  A dormant
(not yet woken) agent sits at its start node and can be met there.  Both
simulators consume the move events of ``_move_events``: the fast loop jumps
between them, the traced one renders every round.  All 1-bits of a segment
walk the same path, so the walker walks it once per segment and replays the
walk at each 1-bit.  Each agent enumerates only the global paths whose first
port exists at its home, indexed in closed form, with no cache shared between
agents or runs; 0-bits and segments that cannot leave home cost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator, List, Optional, Tuple

from .errors import NegativeWait, PreconditionError, RoundBudgetExceeded
from .path_algebra import EnumMode, departures, global_paths
from .port_graph import NodeId, PortGraph

RvTraceRow = Tuple[int, int, int, NodeId, str, int, int, int, int]
# round, agent, awake, node, action, port, bit_index, bit_value, segment_index

RV_TRACE_HEADER = (
    "round", "agent", "awake", "node", "action", "port",
    "bit_index", "bit_value", "segment_index",
)


def _digits(label: int) -> str:
    """Binary digits of a label, most significant first."""
    if label < 1:
        raise ValueError("labels are positive integers")
    return bin(label)[2:]


def trans(label: int) -> Tuple[int, ...]:
    """Self-delimiting bit block of a label: each binary digit doubled, then 01."""
    bits: List[int] = []
    for ch in _digits(label):
        b = int(ch)
        bits += [b, b]
    return tuple(bits) + (0, 1)


def alloc(i: int) -> int:
    """Rounds allocated to the i-th tape bit: 3 * i**2."""
    if i < 1:
        raise ValueError("bit indices start at 1")
    return 3 * i * i


def bound_time(n: int) -> int:
    """Total rounds of the first n bits: n(n+1)(2n+1)/2, exactly sum of 3*j**2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * (n + 1) * (2 * n + 1) // 2


def _move_events(
    g: PortGraph, home: NodeId, label: int, mode: EnumMode
) -> Iterator[Tuple[int, NodeId, int]]:
    """The only bit walker: the rounds where the agent changes position, as
    (local round, new node, port taken).

    Every 1-bit of segment j walks the maximal feasible prefix of the j-th
    global path, waits, and walks back through the learned entry ports, so
    the walk is made once per segment and replayed at each 1-bit, which
    starts at round bound_time(i-1).  The agent enumerates only the paths
    whose first port exists at home, with their indices in closed form
    (``departures``), so 0-bits and segments whose path cannot leave home
    yield nothing and cost nothing; positions are constant between yields.
    A home of infinite degree departs on every path.
    """
    digits = _digits(label)
    s = 2 * len(digits) + 2
    # 0-based offsets of the 1-bits of trans(label): both copies of each 1, then the delimiter's
    ones = [k for t, ch in enumerate(digits) if ch == "1" for k in (2 * t, 2 * t + 1)]
    ones.append(s - 1)
    d = g.degree(home).d  # None: infinite degree
    paths = enumerate(global_paths(mode), 1) if d is None else departures(d, mode)
    for j, path in paths:
        pos, q = g.neighbor(home, path[0])
        forward = [(1, pos, path[0])]
        entries = [q]
        for p in path[1:]:
            if not g.degree(pos).has_port(p):
                break
            pos, q = g.neighbor(pos, p)
            forward.append((len(forward) + 1, pos, p))
            entries.append(q)
        n = len(forward)
        back = None
        for k in ones:
            i = (j - 1) * s + k + 1
            start = (i - 1) * i * (2 * i - 1) // 2  # bound_time(i - 1)
            for t, node, p in forward:
                yield (start + t, node, p)
            duration = 3 * i * i  # alloc(i)
            if duration < 2 * n:
                raise NegativeWait(f"bit {i} cannot fit path {path}")
            if back is None:
                nodes = [node for _, node, _ in forward[-2::-1]] + [home]
                back = list(zip(range(1, n + 1), nodes, reversed(entries)))
            start += duration - n
            for t, node, q in back:
                yield (start + t, node, q)


def _agent_rows(
    g: PortGraph, home: NodeId, label: int, mode: EnumMode
) -> Iterator[Tuple[NodeId, str, int, int, int, int]]:
    """Per-round (node, action, port, bit_index, bit_value, segment) rendered
    from _move_events; bit i covers local rounds bound_time(i-1)+1..bound_time(i)."""
    seg = trans(label)
    s = len(seg)
    pos, r, i, end, bit = home, 0, 0, 0, ()
    for move_round, node, port in _move_events(g, home, label, mode):
        while end < move_round:  # wait out bit i, then start bit i + 1
            yield from repeat((pos, "wait", 0) + bit, end - r)
            r, i = end, i + 1
            end = bound_time(i)
            bit = (i, seg[(i - 1) % s], (i - 1) // s + 1)
        yield from repeat((pos, "wait", 0) + bit, move_round - 1 - r)
        pos, r = node, move_round
        yield (pos, "move", port) + bit


@dataclass
class RvConfig:
    delay: int = 0  # wake-up offset of agent 2 after agent 1
    max_rounds: int = 10 ** 8
    mode: EnumMode = EnumMode.FIXED
    trace: Optional[Callable[[RvTraceRow], None]] = None


@dataclass
class RvResult:
    met: bool
    meeting_round: Optional[int] = None  # rounds since the earlier wake-up
    meeting_node: Optional[NodeId] = None


def check_starts(start1: Tuple[NodeId, int], start2: Tuple[NodeId, int], delay: int) -> None:
    """run_urv's preconditions: distinct start nodes, distinct labels, delay >= 0."""
    if start1[0] == start2[0]:
        raise PreconditionError("agents must start at distinct nodes")
    if start1[1] == start2[1]:
        raise PreconditionError("agents must have distinct labels")
    if delay < 0:
        raise PreconditionError("delay must be >= 0; swap the agents instead")


def run_urv(
    g: PortGraph,
    start1: Tuple[NodeId, int],
    start2: Tuple[NodeId, int],
    cfg: Optional[RvConfig] = None,
) -> RvResult:
    """Simulate both agents until they are co-located at a round boundary.

    Agent 1 wakes at round 1; agent 2 stays dormant at its start node through
    round cfg.delay.  Raises RoundBudgetExceeded if no meeting happens within
    cfg.max_rounds.
    """
    cfg = cfg or RvConfig()
    check_starts(start1, start2, cfg.delay)
    (v1, l1), (v2, l2) = start1, start2
    g.degree(v1)
    g.degree(v2)
    if cfg.trace is not None:
        return _run_traced(g, start1, start2, cfg)

    ev1 = _move_events(g, v1, l1, cfg.mode)
    ev2 = _move_events(g, v2, l2, cfg.mode)
    pos1, pos2 = v1, v2
    off2, max_rounds = cfg.delay, cfg.max_rounds
    r1, node1, _ = next(ev1)
    r2, node2, _ = next(ev2)
    r2 += off2  # agent 2's rounds are counted from agent 1's wake-up
    while True:
        r = r1 if r1 < r2 else r2
        if r > max_rounds:
            raise RoundBudgetExceeded(f"no meeting within {max_rounds} rounds")
        if r1 == r:  # an agent moves at most once per round
            pos1 = node1
            r1, node1, _ = next(ev1)
        if r2 == r:
            pos2 = node2
            r2, node2, _ = next(ev2)
            r2 += off2
        if pos1 == pos2:
            return RvResult(met=True, meeting_round=r, meeting_node=pos1)


def _run_traced(
    g: PortGraph,
    start1: Tuple[NodeId, int],
    start2: Tuple[NodeId, int],
    cfg: RvConfig,
) -> RvResult:
    """Round-by-round simulation emitting one trace row per agent per round,
    rendered from the same event walker as the fast loop."""
    (v1, l1), (v2, l2) = start1, start2
    trace = cfg.trace
    rounds1 = _agent_rows(g, v1, l1, cfg.mode)
    rounds2 = _agent_rows(g, v2, l2, cfg.mode)
    pos1, pos2 = v1, v2
    for r in range(1, cfg.max_rounds + 1):
        pos1, act, port, i, b, j = next(rounds1)
        trace((r, 1, 1, pos1, act, port, i, b, j))
        if r > cfg.delay:
            pos2, act, port, i, b, j = next(rounds2)
            trace((r, 2, 1, pos2, act, port, i, b, j))
        else:
            trace((r, 2, 0, pos2, "wait", 0, 0, 0, 0))
        if pos1 == pos2:
            return RvResult(met=True, meeting_round=r, meeting_node=pos1)
    raise RoundBudgetExceeded(f"no meeting within {cfg.max_rounds} rounds")
