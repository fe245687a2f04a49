"""Brute-force ground truth: character, weight, critical paths.

Everything here enumerates paths in the global order and simulates them
directly on the graph, independently of the hunt engine's agent machinery.
Every search takes an explicit value cap and fails loudly when it is hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .errors import CapExceeded, PreconditionError
from .path_algebra import (
    EnumMode,
    Path,
    PathType,
    index_of_path,
    sweep_bound,
    type_of,
    types_in_order,
    value,
)
from .port_graph import NodeId, PortGraph

DEFAULT_CAP = 10 ** 6


@dataclass
class WeightResult:
    character: PathType
    weight: int
    witness: Path  # first u -> v path in the FIXED global order
    witness_index: int  # its 1-based position in that order


def _search_type(g: PortGraph, u: NodeId, v: NodeId, m: int, delta: int) -> Optional[Path]:
    """First full u -> v path of type (m, delta), or None.

    Depth-first over the feasible prefix tree in lexicographic order, with
    one stack frame per prefix: its node, whether it holds port m and its
    untried ports, the existing ones up to m.
    """
    path: List[int] = []
    stack: List[Tuple[NodeId, bool, Iterator[int]]] = []

    def push(pos: NodeId, seen_max: bool) -> None:
        low = m if not seen_max and len(path) == delta - 1 else 1
        d = g.degree(pos)  # None: every port exists
        stack.append((pos, seen_max, iter(range(low, (m if d is None else min(m, d)) + 1))))

    push(u, m == 1)
    while stack:
        pos, seen_max, ports = stack[-1]
        q = next(ports, 0)
        if not q:
            stack.pop()
            if path:
                path.pop()
            continue
        nxt = g.neighbor(pos, q)[0]
        path.append(q)
        if len(path) < delta:
            push(nxt, seen_max or q == m)
        elif nxt == v:
            return tuple(path)
        else:
            path.pop()
    return None


def _first_connecting(g: PortGraph, u: NodeId, v: NodeId, cap: int) -> Path:
    """First full u -> v path in the FIXED global order."""
    g.degree(v)  # an unknown target raises UnknownNode here instead of CapExceeded at the cap
    # only types with max port in mu..max degree and length >= D hold a full path
    bounds = g.entry_bounds(u, {v})
    if bounds is None:
        raise CapExceeded(f"no path {u!r} -> {v!r} of value <= {cap}")
    mode = EnumMode.FIXED
    stream = types_in_order(mode, sweep_bound(g.max_degree(), mode),
                            min_port=bounds[0], min_length=bounds[1])
    for m, delta in stream:
        if value(m, delta) > cap:
            raise CapExceeded(f"no path {u!r} -> {v!r} of value <= {cap}")
        path = _search_type(g, u, v, m, delta)
        if path is not None:
            return path
    raise AssertionError("unreachable")


def character_weight(
    g: PortGraph, u: NodeId, v: NodeId, cap: int = DEFAULT_CAP
) -> WeightResult:
    """Character and weight of the ordered pair (u, v), by exhaustive enumeration."""
    if u == v:
        raise PreconditionError("character is defined for distinct nodes")
    if cap < 2:
        raise PreconditionError("cap must be >= 2")
    path = _first_connecting(g, u, v, cap)
    ptype = type_of(path)
    return WeightResult(character=ptype, weight=value(*ptype), witness=path,
                        witness_index=index_of_path(path))


def critical_path(
    g: PortGraph, v1: NodeId, v2: NodeId, cap: int = DEFAULT_CAP
) -> Tuple[Path, int]:
    """First v1 -> v2 path in the global FIXED order and its 1-based index."""
    if v1 == v2:
        raise PreconditionError("critical path is defined for distinct nodes")
    path = _first_connecting(g, v1, v2, cap)
    return path, index_of_path(path)
