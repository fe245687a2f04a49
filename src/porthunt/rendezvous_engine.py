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
between them, the traced one renders every round.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from typing import Callable, Iterator, List, Optional, Tuple

from .errors import NegativeWait, PreconditionError, RoundBudgetExceeded
from .path_algebra import EnumMode, Path, global_paths
from .port_graph import NodeId, PortGraph

RvTraceRow = Tuple[int, int, int, NodeId, str, int, int, int, int]
# round, agent, awake, node, action, port, bit_index, bit_value, segment_index

RV_TRACE_HEADER = (
    "round", "agent", "awake", "node", "action", "port",
    "bit_index", "bit_value", "segment_index",
)


def trans(label: int) -> Tuple[int, ...]:
    """Self-delimiting bit block of a label: each binary digit doubled, then 01."""
    if label < 1:
        raise ValueError("labels are positive integers")
    bits: List[int] = []
    for ch in bin(label)[2:]:
        b = int(ch)
        bits += [b, b]
    return tuple(bits) + (0, 1)


def tape_bit(label: int, i: int) -> int:
    """i-th bit (1-based) of the infinite periodic tape of a label."""
    seg = trans(label)
    return seg[(i - 1) % len(seg)]


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


class PathBook:
    """Shared 1-based cache over the global path order."""

    def __init__(self, mode: EnumMode = EnumMode.FIXED):
        self._iter = global_paths(mode)
        self._cache: List[Path] = []

    def get(self, j: int) -> Path:
        while len(self._cache) < j:
            self._cache.append(next(self._iter))
        return self._cache[j - 1]


def _move_events(
    g: PortGraph,
    home: NodeId,
    label: int,
    mode: EnumMode,
    book: Optional[PathBook] = None,
) -> Iterator[Tuple[int, NodeId, int]]:
    """The only bit walker: the rounds where the agent changes position, as
    (local round, new node, port taken).

    A 1-bit in segment j walks the maximal feasible prefix of the j-th global
    path, waits, and walks back through the learned entry ports; a 0-bit
    waits.  Waits are skipped in O(1); positions are constant between yields.
    """
    seg = trans(label)
    s = len(seg)
    book = book or PathBook(mode)
    pos = home
    r = 0
    i = 0
    while True:
        i += 1
        bit = seg[(i - 1) % s]
        duration = alloc(i)
        if bit == 0:
            r += duration
            continue
        path = book.get((i - 1) // s + 1)
        entries: List[int] = []
        for p in path:
            if not g.degree(pos).has_port(p):
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


def _agent_rows(
    g: PortGraph, home: NodeId, label: int, mode: EnumMode, book: PathBook
) -> Iterator[Tuple[NodeId, str, int, int, int, int]]:
    """Per-round (node, action, port, bit_index, bit_value, segment) rendered
    from _move_events; bit i covers local rounds bound_time(i-1)+1..bound_time(i)."""
    seg = trans(label)
    s = len(seg)
    pos, r, i, end, bit = home, 0, 0, 0, ()
    for move_round, node, port in _move_events(g, home, label, mode, book):
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
    (v1, l1), (v2, l2) = start1, start2
    if v1 == v2:
        raise PreconditionError("agents must start at distinct nodes")
    if l1 == l2:
        raise PreconditionError("agents must have distinct labels")
    if cfg.delay < 0:
        raise PreconditionError("delay must be >= 0; swap the agents instead")
    g.degree(v1)
    g.degree(v2)
    if cfg.trace is not None:
        return _run_traced(g, start1, start2, cfg)

    book = PathBook(cfg.mode)
    ev1 = _move_events(g, v1, l1, cfg.mode, book)
    ev2 = _move_events(g, v2, l2, cfg.mode, book)
    pos1, pos2 = v1, v2
    next1 = next(ev1)
    next2 = next(ev2)
    off2 = cfg.delay
    while True:
        r = min(next1[0], next2[0] + off2)
        if r > cfg.max_rounds:
            raise RoundBudgetExceeded(f"no meeting within {cfg.max_rounds} rounds")
        while next1[0] == r:
            pos1 = next1[1]
            next1 = next(ev1)
        while next2[0] + off2 == r:
            pos2 = next2[1]
            next2 = next(ev2)
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
    book = PathBook(cfg.mode)
    rounds1 = _agent_rows(g, v1, l1, cfg.mode, book)
    rounds2 = _agent_rows(g, v2, l2, cfg.mode, book)
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


def take_paths(n: int, mode: EnumMode = EnumMode.FIXED) -> List[Path]:
    """First n paths of the global order (convenience for tests and reports)."""
    return list(islice(global_paths(mode), n))
