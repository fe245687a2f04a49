"""Two-agent rendezvous: label tapes, the 3i^2 bit scheduler, one bit walker.

Each agent derives an infinite periodic bit tape from its label and processes
bit i for exactly 3 * i**2 rounds.  A 1-bit in the j-th tape segment walks the
maximal feasible prefix of the j-th path of the global order, waits at its
end, and walks back; a 0-bit waits in place.  Agents start and end every bit
at their starting node.

The simulator is synchronous.  Meetings are detected at round boundaries only;
agents crossing the same edge in opposite directions do not meet.  A dormant
(not yet woken) agent sits at its start node and can be met there.  One walker,
``_walker``, serves both simulators.  All 1-bits of a segment walk the same
path, so it walks the path once per segment and yields the segment as one
item; asked, it then yields the segment's bursts, the walk out or back of one
1-bit.  The walks of a home depend on neither label nor delay: the graph
yields them (``PortGraph.departing_walks``), only for the global paths whose
first port exists at the home, indexed in closed form, and a finite graph
walks each of the first 1,024 once per (home, mode) for every run on it;
0-bits and segments that cannot leave home cost nothing.  The fast loop merges
the two agents by intervals: while one agent stands still through the other's
whole item, a segment that does not visit its node is skipped and a burst is
searched for it, each in O(1); only where two bursts overlap does it compare
round by round.  The traced simulator renders every round from the walker
flattened into move events (``_move_events``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Generator, Iterator, List, Optional, Sequence, Tuple

from .errors import NegativeWait, PreconditionError, RoundBudgetExceeded
from .path_algebra import EnumMode
# unused here, but perfbench/tracing.py reads and patches this name
from .path_algebra import global_paths  # noqa: F401
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


def bound_time(n: int) -> int:
    """Total rounds of the first n bits: n(n+1)(2n+1)/2, exactly sum of 3*j**2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * (n + 1) * (2 * n + 1) // 2


def _walker(
    g: PortGraph, home: NodeId, label: int, mode: EnumMode, offset: int = 0
) -> Generator[Tuple[int, int, Sequence[NodeId], Optional[Sequence[int]]], bool, None]:
    """The only bit walker: one item per segment whose path departs from home,
    and, when asked, that segment's bursts.

    An item is (first, last, nodes, ports): the agent moves in rounds
    first+1..last (rounds counted from offset) and never leaves nodes and
    home meanwhile.  A segment item has ports None, last = bound_time(i) for
    its last bit i, and nodes the walk of the maximal feasible prefix of its
    path.  Sent a true value, the walker yields the segment's bursts next:
    for each 1-bit i, the walk out from round bound_time(i-1) and the walk
    back, through the learned entry ports, that ends at round bound_time(i);
    a burst moves once per round, to nodes[t] with port ports[t].  The
    agent is at home outside its segments, and at the far end of the walk
    between the two bursts of a bit.  The walks come from the graph
    (``departing_walks``), which depend only on home and mode; the walker
    adds the label's rounds.
    """
    digits = _digits(label)
    s = 2 * len(digits) + 2
    # 0-based offsets of the 1-bits of trans(label): both copies of each 1, then the delimiter's
    ones = [k for t, ch in enumerate(digits) if ch == "1" for k in (2 * t, 2 * t + 1)]
    ones.append(s - 1)
    for j, path, nodes, entries in g.departing_walks(home, mode):
        n = len(nodes)
        top = (j - 1) * s  # bits before the segment; its first bit, a 1-bit, is the shortest
        if 3 * (top + 1) * (top + 1) < 2 * n:
            raise NegativeWait(f"bit {top + 1} cannot fit path {path}")
        first = offset + top * (top + 1) * (2 * top + 1) // 2  # bound_time(top)
        last = offset + (top + s) * (top + s + 1) * (2 * top + 2 * s + 1) // 2
        if (yield first, last, nodes, None):
            ports, back, back_ports = path[:n], (*nodes[-2::-1], home), entries[::-1]
            for k in ones:
                i = top + k + 1
                start = offset + (i - 1) * i * (2 * i - 1) // 2  # bound_time(i - 1)
                yield start, start + n, nodes, ports
                end = start + 3 * i * i  # bit i holds 3 * i**2 rounds
                yield end - n, end, back, back_ports


def _move_events(
    g: PortGraph, home: NodeId, label: int, mode: EnumMode
) -> Iterator[Tuple[int, NodeId, int]]:
    """The walker flattened: every round where the agent changes position, as
    (local round, new node, port taken); positions are constant between."""
    walker = _walker(g, home, label, mode)
    while True:
        r, _, nodes, ports = next(walker)
        if ports is None:  # a segment: its bursts follow
            r, _, nodes, ports = walker.send(True)
        for node, port in zip(nodes, ports):
            r += 1
            yield r, node, port


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

    The fast loop holds one walker item per agent and takes the one that
    starts first; a segment is split into bursts only when the other agent
    moves during it or stands on its walk.
    """
    cfg = cfg or RvConfig()
    check_starts(start1, start2, cfg.delay)
    (v1, l1), (v2, l2) = start1, start2
    g.degree(v1)
    g.degree(v2)
    if cfg.trace is not None:
        return _run_traced(g, start1, start2, cfg)

    max_rounds = cfg.max_rounds
    wa, wb = _walker(g, v1, l1, cfg.mode), _walker(g, v2, l2, cfg.mode, cfg.delay)
    fa, la, na, pa = next(wa)
    fb, lb, nb, pb = next(wb)
    at, bt = v1, v2  # the agents' nodes in rounds fa and fb
    while True:
        if fb < fa:  # a is the agent whose item starts first
            wa, fa, la, na, pa, at, wb, fb, lb, nb, pb, bt = \
                wb, fb, lb, nb, pb, bt, wa, fa, la, na, pa, at
        if fa >= max_rounds:
            raise RoundBudgetExceeded(f"no meeting within {max_rounds} rounds")
        if la <= fb:  # b stands still at bt through a's whole item
            if bt in na:  # a segment's walk back adds only a's home, where bt is not
                if pa is None:  # a segment that reaches bt: step through its bursts
                    fa, la, na, pa = wa.send(True)
                    continue
                return _meeting(fa + 1 + na.index(bt), bt, max_rounds)
            if pa is not None:  # a burst ends at its last node, a segment at home
                at = na[-1]
            fa, la, na, pa = next(wa)
        elif pa is None:
            fa, la, na, pa = wa.send(True)
        elif pb is None:
            fb, lb, nb, pb = wb.send(True)
        else:  # two bursts overlap: a moves alone through round fb, then both move
            k = fb - fa
            if bt in na[:k]:
                return _meeting(fa + 1 + na.index(bt), bt, max_rounds)
            m = la if la < lb else lb  # both bursts are compared through round m
            for t in range(k, m - fa):
                if na[t] == nb[t - k]:
                    return _meeting(fa + 1 + t, na[t], max_rounds)
            at, bt = na[m - fa - 1], nb[m - fb - 1]
            if m == la:
                fa, la, na, pa = next(wa)
            else:
                fa, na, pa = m, na[m - fa:], pa[m - fa:]
            if m == lb:
                fb, lb, nb, pb = next(wb)
            else:
                fb, nb, pb = m, nb[m - fb:], pb[m - fb:]


def _meeting(r: int, node: NodeId, max_rounds: int) -> RvResult:
    """The first meeting, at round r: a result within the budget, else an error."""
    if r > max_rounds:
        raise RoundBudgetExceeded(f"no meeting within {max_rounds} rounds")
    return RvResult(met=True, meeting_round=r, meeting_node=node)


def _run_traced(
    g: PortGraph,
    start1: Tuple[NodeId, int],
    start2: Tuple[NodeId, int],
    cfg: RvConfig,
) -> RvResult:
    """Round-by-round simulation emitting one trace row per agent per round,
    rendered from the same walker as the fast loop."""
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
