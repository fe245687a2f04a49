"""Treasure hunt execution: the compressed per-type sweep and the traced agent.

The agent only sees ports.  It probes a port by attempting a move; a probe of
a nonexistent port costs nothing, a successful move costs one step.  The
simulator (not the agent) recognizes arrival at the treasure node.  Every
query is answered by the compressed sweep of the types that can enter a
target, each after one closed-form charge for every earlier type (the graph's
sweep_cost); a traced hunt renders every step from the path-by-path loop over
the graph's walk of each path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .errors import StepBudgetExceeded
from .path_algebra import (
    LEAST_PORT,
    EnumMode,
    Path,
    PathType,
    last_x_by_length,
    paths_of_type,
    sweep_bound,
    types_in_order,
    value,
)
from .port_graph import NodeId, PortGraph

TraceRow = Tuple[int, int, int, int, str, int, str]
# step, phase_value, type_m, type_delta, action, port, result

TRACE_HEADER = ("step", "phase_value", "type_m", "type_delta", "action", "port", "result")

DEFAULT_MAX_STEPS = 10 ** 6


def _check_budget(max_steps: int) -> None:
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")


@dataclass
class HuntConfig:
    mode: EnumMode = EnumMode.FIXED
    max_steps: int = DEFAULT_MAX_STEPS
    trace: Optional[Callable[[TraceRow], None]] = None


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
    compressed sweep; with one, the path-by-path agent (_run_traced) renders
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
    return _run_traced(g, base, treasure, cfg)


def _run_traced(g: PortGraph, base: NodeId, treasure: NodeId, cfg: HuntConfig) -> HuntResult:
    """The path-by-path agent: for every path in order, walk its maximal
    feasible prefix and retrace it through the learned entry ports, with one
    trace row per move and per failed probe, which costs no step.  Halts on
    entering the treasure; raises StepBudgetExceeded before any move beyond
    cfg.max_steps."""
    trace, max_steps = cfg.trace, cfg.max_steps
    steps = 0
    for m, delta in types_in_order(cfg.mode):
        phase = value(m, delta)
        for path in paths_of_type(m, delta):
            nodes, entries = g.walk(base, path)
            for k, (node, p) in enumerate(zip(nodes, path), 1):
                if steps == max_steps:
                    raise StepBudgetExceeded(f"step budget {max_steps} exhausted")
                steps += 1
                if node == treasure:
                    trace((steps, phase, m, delta, "move", p, "treasure"))
                    return HuntResult(True, steps, (m, delta), phase, path[:k])
                trace((steps, phase, m, delta, "move", p, "ok"))
            if len(nodes) < delta:
                trace((steps, phase, m, delta, "probe_fail", path[len(nodes)], "ok"))
            for q in reversed(entries):
                if steps == max_steps:
                    raise StepBudgetExceeded(f"step budget {max_steps} exhausted")
                steps += 1
                trace((steps, phase, m, delta, "backtrack", q, "ok"))
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
    max_steps: int,
) -> int:
    """Sweep all paths of type (m, delta), recording first entries of targets.

    Walks the feasible prefix tree once, in lexicographic order, with one
    stack frame per prefix: its node, whether it holds port m, its untried
    ports and its missing ones.  Each path's cost is twice its maximal
    feasible prefix; paths cut off at the same infeasible port are charged in
    bulk.  A target entered is recorded in visits and removed from targets;
    once targets is empty the sweep stops and returns the step of that last
    entry, else the steps after the whole type.  Both match the path-by-path
    agent exactly.  Raises StepBudgetExceeded at a first entry beyond
    max_steps, and at the end of any frame once the count passes it.
    """
    steps = steps_before
    path: List[int] = []
    stack: List[Tuple[NodeId, bool, Iterator[int], int]] = []

    def push(pos: NodeId, seen_max: bool) -> None:
        low = m if not seen_max and len(path) == delta - 1 else 1
        d = g.degree(pos)  # None: every port exists
        high = m if d is None else min(m, d)
        stack.append((pos, seen_max, iter(range(low, high + 1)), m - max(high, low - 1)))

    push(base, m == 1)
    while stack:
        pos, seen_max, ports, cut = stack[-1]
        q = next(ports, 0)
        if not q:
            stack.pop()
            depth = len(path)
            if cut:
                # every member through a missing port breaks off here: 2*depth steps each
                rest = delta - depth - 1
                members = cut * m ** rest - (0 if seen_max else (cut - 1) * (m - 1) ** rest)
                steps += 2 * depth * members
            if steps > max_steps:
                raise StepBudgetExceeded(f"step budget {max_steps} exhausted")
            if path:
                path.pop()
            continue
        nxt = g.neighbor(pos, q)[0]
        path.append(q)
        depth = len(path)
        if nxt in targets:
            # the first path with this prefix enters nxt on its forward walk
            if steps + depth > max_steps:
                raise StepBudgetExceeded(f"step budget {max_steps} exhausted")
            visits[nxt] = (steps + depth, (m, delta), tuple(path))
            targets.discard(nxt)
            if not targets:
                return steps + depth
        if depth == delta:
            steps += 2 * delta
            path.pop()
        else:
            push(nxt, seen_max or q == m)
    return steps


def _charge(g: PortGraph, base: NodeId, x_lo: int, t: PathType) -> int:
    """Steps of the complete sweeps of the types before t with max port at
    least x_lo, in closed form.

    Sweeping all of {1..x}**y from base costs 2 * G_x(y), the graph's
    sweep_cost, so type (x, y) costs 2 * (G_x(y) - G_{x-1}(y)), and per
    length y the types (x_lo .. X_y(t), y) before t telescope.
    """
    cost = g.sweep_cost
    # longest first: a graph that keeps its costs grows each list once per charge
    return 2 * sum(cost(base, x, y) - cost(base, x_lo - 1, y)
                   for y, x in last_x_by_length(t, x_lo))


def _first_visits(
    g: PortGraph, base: NodeId, targets: Set[NodeId], mode: EnumMode, max_steps: int
) -> Dict[NodeId, Visit]:
    """First entry of each target (a non-empty set without base, emptied here).

    Sweeps in order only the types that can enter a target and charges every
    earlier type in closed form, then stops right after the sweep that
    empties the set.  Those are the types (x, y) with x at least the least
    max port and y at least the hop distance of a walk into the set (the
    graph's entry_bounds), and with x at most the max degree: any prefix
    entering a node within a type of larger max port is itself (in STRICT
    mode, followed by port 2) a path of a smaller type.  Raises
    StepBudgetExceeded inside the sweep once the steps pass max_steps with
    targets left, when a first entry lies beyond it, or at once if no target
    is reachable.
    """
    bounds = g.entry_bounds(base, targets)
    if bounds is None:
        raise StepBudgetExceeded(f"step budget {max_steps} exhausted")
    visits: Dict[NodeId, Visit] = {}
    x_lo = LEAST_PORT[mode]
    stream = types_in_order(mode, sweep_bound(g.max_degree(), mode),
                            min_port=bounds[0], min_length=bounds[1])
    for m, delta in stream:
        steps_before = _charge(g, base, x_lo, (m, delta))
        _sweep_type_fast(g, base, targets, m, delta, steps_before, visits, max_steps)
        if not targets:
            return visits
    raise AssertionError("unreachable")


def first_visit_times(
    g: PortGraph,
    base: NodeId,
    targets: Iterable[NodeId],
    mode: EnumMode = EnumMode.FIXED,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Dict[NodeId, int]:
    """Step count at the first visit of each target node during a hunt sweep.

    The sweep does not depend on the treasure before its first entry, so
    each visit is the step at which run_uth would find that target, under the
    same budget rule.
    """
    _check_budget(max_steps)
    remaining = set(targets)
    for t in remaining:
        g.degree(t)  # raises UnknownNode for a bad target
    visits = {base: 0} if base in remaining else {}
    remaining.discard(base)
    if remaining:
        found = _first_visits(g, base, remaining, mode, max_steps)
        visits.update((v, steps) for v, (steps, _, _) in found.items())
    return visits
