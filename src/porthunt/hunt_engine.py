"""Treasure hunt execution: single-path traversal, per-type sweeps, full hunt.

The agent only sees ports.  It probes a port by attempting a move; a probe of
a nonexistent port costs nothing, a successful move costs one step.  The
simulator (not the agent) recognizes arrival at the treasure node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .errors import StepBudgetExceeded
from .path_algebra import (
    EnumMode,
    Path,
    PathType,
    last_x_by_length,
    paths_of_type,
    sweep_bound,
    types_in_order,
    value,
)
from .port_graph import NodeId, PortGraph, max_degree

TraceRow = Tuple[int, int, int, int, str, int, str]
# step, phase_value, type_m, type_delta, action, port, result

TRACE_HEADER = ("step", "phase_value", "type_m", "type_delta", "action", "port", "result")


def _check_budget(max_steps: int) -> None:
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")


class Navigator:
    """Hides the graph behind a ports-only move interface and counts steps."""

    def __init__(
        self,
        graph: PortGraph,
        start: NodeId,
        treasure: Optional[NodeId] = None,
        max_steps: int = 10 ** 6,
    ):
        _check_budget(max_steps)
        graph.degree(start)  # raises UnknownNode for a bad start
        self._graph = graph
        self._pos = start
        self._treasure = treasure
        self.max_steps = max_steps
        self.steps = 0
        self.at_treasure = start == treasure

    def move(self, p: int) -> Optional[int]:
        """Take port p; returns the entry port, or None if p does not exist here."""
        if not self._graph.degree(self._pos).has_port(p):
            return None
        if self.steps >= self.max_steps:
            raise StepBudgetExceeded(f"step budget {self.max_steps} exhausted")
        self._pos, entry = self._graph.neighbor(self._pos, p)
        self.steps += 1
        self.at_treasure = self._pos == self._treasure
        return entry

    @property
    def position(self) -> NodeId:
        """Simulator-side peek; agent logic must not use this."""
        return self._pos


@dataclass
class TraverseOutcome:
    feasible_prefix: Path
    learned_reverse: Path
    steps_used: int
    treasure_hit: Optional[int] = None  # prefix length at first hit


@dataclass
class HuntConfig:
    mode: EnumMode = EnumMode.FIXED
    max_steps: int = 10 ** 6
    trace: Optional[Callable[[TraceRow], None]] = None


def traverse(
    nav: Navigator,
    path: Path,
    trace: Optional[Callable[[TraceRow], None]] = None,
    phase: Tuple[int, PathType] = (0, (0, 0)),
) -> TraverseOutcome:
    """Walk the maximal feasible prefix of path, then retrace back to base.

    If the walk enters the treasure node, the agent halts there immediately.
    Costs at most 2 * len(path) steps.
    """
    phase_value, (tm, td) = phase
    entries: List[int] = []
    taken = 0
    for p in path:
        entry = nav.move(p)
        if entry is None:
            if trace:
                trace((nav.steps, phase_value, tm, td, "probe_fail", p, "ok"))
            break
        taken += 1
        entries.append(entry)
        if trace:
            trace((nav.steps, phase_value, tm, td, "move", p, "treasure" if nav.at_treasure else "ok"))
        if nav.at_treasure:
            return TraverseOutcome(
                feasible_prefix=path[:taken],
                learned_reverse=tuple(reversed(entries)),
                steps_used=taken,
                treasure_hit=taken,
            )
    for q in reversed(entries):
        nav.move(q)
        if trace:
            trace((nav.steps, phase_value, tm, td, "backtrack", q, "ok"))
    return TraverseOutcome(
        feasible_prefix=path[:taken],
        learned_reverse=tuple(reversed(entries)),
        steps_used=2 * taken,
    )


@dataclass
class PathsOutcome:
    steps_used: int
    treasure_prefix: Optional[Path] = None  # prefix that entered the treasure


def run_paths_procedure(
    nav: Navigator,
    m: int,
    delta: int,
    trace: Optional[Callable[[TraceRow], None]] = None,
) -> PathsOutcome:
    """Traverse every path of type (m, delta) in lexicographic order."""
    before = nav.steps
    phase = (value(m, delta), (m, delta))
    for path in paths_of_type(m, delta):
        outcome = traverse(nav, path, trace, phase)
        if outcome.treasure_hit is not None:
            return PathsOutcome(nav.steps - before, treasure_prefix=outcome.feasible_prefix)
    return PathsOutcome(nav.steps - before)


@dataclass
class HuntResult:
    found: bool
    steps: int
    found_type: Optional[PathType] = None
    found_phase_value: Optional[int] = None
    visit_prefix: Optional[Path] = None


def run_uth(
    g: PortGraph,
    base: NodeId,
    treasure: NodeId,
    cfg: Optional[HuntConfig] = None,
) -> HuntResult:
    """Universal treasure hunt: sweep types in increasing value order until the
    treasure node is entered.  Raises StepBudgetExceeded if the cap runs out.

    Without a trace sink the hunt is the first visit of {treasure} by the
    compressed sweep; with one, the path-by-path Navigator agent renders
    every step.  Both give the same steps, type and prefix.
    """
    cfg = cfg or HuntConfig()
    _check_budget(cfg.max_steps)
    g.degree(treasure)  # raises UnknownNode for a bad treasure
    if base == treasure:
        return HuntResult(found=True, steps=0)
    if cfg.trace is None:
        steps, ptype, prefix = _first_visits(g, base, {treasure}, cfg.mode, cfg.max_steps)[treasure]
        return HuntResult(True, steps, ptype, value(*ptype), prefix)
    nav = Navigator(g, base, treasure=treasure, max_steps=cfg.max_steps)
    for m, delta in types_in_order(cfg.mode):
        outcome = run_paths_procedure(nav, m, delta, cfg.trace)
        if outcome.treasure_prefix is not None:
            return HuntResult(
                found=True,
                steps=nav.steps,
                found_type=(m, delta),
                found_phase_value=value(m, delta),
                visit_prefix=outcome.treasure_prefix,
            )
    raise AssertionError("unreachable")


Visit = Tuple[int, PathType, Path]  # step, type and prefix of a first entry


def _sweep_type_fast(
    g: PortGraph,
    base: NodeId,
    targets: Set[NodeId],
    m: int,
    delta: int,
    steps_before: int,
    visits: Dict[NodeId, Visit],
) -> int:
    """Sweep all paths of type (m, delta), recording first entries of targets.

    Walks the feasible prefix tree once, in lexicographic order.  Each path's
    cost is twice its maximal feasible prefix; paths cut off at the same
    infeasible port are charged in bulk.  A target entered is recorded in
    visits and removed from targets; once targets is empty the sweep stops
    and returns the step of that last entry, else the steps after the whole
    type.  Both match the path-by-path agent exactly.
    """
    pow_m = [m ** r for r in range(delta)]
    pow_m1 = [(m - 1) ** r for r in range(delta)]
    steps = steps_before
    path: List[int] = []

    def dfs(pos: NodeId, depth: int, seen_max: bool) -> bool:
        """Sweep the subtree below the current prefix; True once targets is empty."""
        nonlocal steps
        remaining = delta - depth
        if remaining == 0:
            steps += 2 * delta
            return False
        low = m if (not seen_max and remaining == 1) else 1
        for q in range(low, m + 1):
            sub_seen = seen_max or q == m
            if not g.degree(pos).has_port(q):
                # every member with this prefix breaks off here: 2*depth steps each
                members = pow_m[remaining - 1] if sub_seen \
                    else pow_m[remaining - 1] - pow_m1[remaining - 1]
                steps += 2 * depth * members
                continue
            nxt, _ = g.neighbor(pos, q)
            path.append(q)
            if nxt in targets:
                # the first path with this prefix enters nxt on its forward walk
                visits[nxt] = (steps + depth + 1, (m, delta), tuple(path))
                targets.discard(nxt)
                if not targets:
                    steps += depth + 1
                    return True
            if dfs(nxt, depth + 1, sub_seen):
                return True
            path.pop()
        return False

    dfs(base, 0, m == 1)
    return steps


class _SkippedTypes:
    """Hunt cost of the types whose max port exceeds delta, charged in runs of x:
    type (x, y) costs 2 * sum_{d=1}^{y-1} N_d * (x**(y-d) - (x-1)**(y-d)), with
    N_d the feasible port walks of length d from base; a run telescopes."""

    def __init__(self, g: PortGraph, base: NodeId, delta: int):
        self._g, self._delta = g, delta
        self._layer, self._walks = {base: 1}, [1]  # walks of the last length by end; N_d
        self._charged: Dict[int, int] = {}  # length -> largest x charged

    def run_cost(self, y: int, a: int, b: int) -> int:
        """Steps of the sweeps of types (a+1, y) .. (b, y), for a >= delta."""
        while len(self._walks) < y:
            nxt: Dict[NodeId, int] = {}
            for v, n in self._layer.items():
                for p in range(1, self._g.degree(v).d + 1):
                    u, _ = self._g.neighbor(v, p)
                    nxt[u] = nxt.get(u, 0) + n
            self._layer = nxt
            self._walks.append(sum(nxt.values()))
        return 2 * sum(self._walks[d] * (b ** (y - d) - a ** (y - d)) for d in range(1, y))

    def before(self, t: PathType) -> int:
        """Steps of the skipped types before t not charged yet."""
        cost = 0
        for y, b in last_x_by_length(t, self._delta + 1):
            a = self._charged.get(y, self._delta)
            if b > a:
                cost += self.run_cost(y, a, b)
                self._charged[y] = b
        return cost


def _first_visits(
    g: PortGraph, base: NodeId, targets: Set[NodeId], mode: EnumMode, max_steps: int
) -> Dict[NodeId, Visit]:
    """First entry of each target (a non-empty set without base, emptied here).

    Sweeps the types with max port at most the max degree in order, charges
    the others (no first entry) in closed form, and stops right after the sweep
    that empties the set.  Raises StepBudgetExceeded once a type ends with
    targets left beyond max_steps, or a first entry lies beyond it.
    """
    visits: Dict[NodeId, Visit] = {}
    steps = 0
    bound = sweep_bound(max_degree(g), mode)
    skipped = None if bound is None else _SkippedTypes(g, base, bound)
    for m, delta in types_in_order(mode, bound):
        steps += skipped.before((m, delta)) if skipped else 0
        steps = _sweep_type_fast(g, base, targets, m, delta, steps, visits)
        if steps > max_steps:
            raise StepBudgetExceeded(f"step budget {max_steps} exhausted")
        if not targets:
            return visits
    raise AssertionError("unreachable")


def first_visit_times(
    g: PortGraph,
    base: NodeId,
    targets: Iterable[NodeId],
    mode: EnumMode = EnumMode.FIXED,
    max_steps: int = 10 ** 6,
) -> Dict[NodeId, int]:
    """Step count at the first visit of each target node during a hunt sweep.

    The sweep does not depend on the treasure before its first entry, so
    each visit is the step at which run_uth would find that target, under the
    same budget rule.
    """
    _check_budget(max_steps)
    remaining = set(targets)
    visits = {base: 0} if base in remaining else {}
    remaining.discard(base)
    if remaining:
        found = _first_visits(g, base, remaining, mode, max_steps)
        visits.update((v, steps) for v, (steps, _, _) in found.items())
    return visits
