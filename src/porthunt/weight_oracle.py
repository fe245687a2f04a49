"""Brute-force ground truth: character, weight, W, critical paths.

Everything here enumerates paths in the global order and simulates them
directly on the graph, independently of the hunt engine's agent machinery.
Every search takes an explicit value cap and fails loudly when it is hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import CapExceeded, PreconditionError
from .path_algebra import (
    EnumMode,
    Path,
    PathType,
    paths_before,
    sweep_bound,
    types_in_order,
    value,
)
from .port_graph import (
    FiniteGraph,
    NodeId,
    PortGraph,
    PortTable,
    distances,
    hop_distance,
    least_max_port,
)

DEFAULT_CAP = 10 ** 6


@dataclass
class WeightResult:
    character: PathType
    weight: int
    witness: Path  # first u -> v path in the FIXED global order
    witness_index: int  # its 1-based position in that order


def _search_type(
    g: PortGraph, u: NodeId, v: NodeId, m: int, delta: int
) -> Optional[Tuple[Path, int]]:
    """First full u -> v path of type (m, delta) and its 1-based lex rank.

    Depth-first over the feasible prefix tree in lexicographic order;
    infeasible subtrees are skipped with their member counts added
    combinatorially, so the returned rank equals the rank under full
    enumeration.
    """
    pow_m = [m ** r for r in range(delta)]
    pow_m1 = [(m - 1) ** r for r in range(delta)]

    rank = 0
    path: list = []

    def dfs(pos: NodeId, remaining: int, seen_max: bool) -> bool:
        nonlocal rank
        if remaining == 0:
            rank += 1
            return pos == v
        low = m if (not seen_max and remaining == 1) else 1
        d = g.degree(pos)  # None: every port exists
        for q in range(low, m + 1):
            sub_seen = seen_max or q == m
            if d is not None and q > d:
                rank += pow_m[remaining - 1] if sub_seen \
                    else pow_m[remaining - 1] - pow_m1[remaining - 1]
                continue
            nxt, _ = g.neighbor(pos, q)
            path.append(q)
            if dfs(nxt, remaining - 1, sub_seen):
                return True
            path.pop()
        return False

    if dfs(u, delta, m == 1):
        return tuple(path), rank
    return None


def _first_connecting(
    g: PortGraph, u: NodeId, v: NodeId, cap: int, mode: EnumMode
) -> Tuple[Path, int, PathType, int]:
    """First full u -> v path in the global order, with its index, type and value."""
    g.degree(v)  # an unknown target raises UnknownNode here instead of CapExceeded at the cap
    # only types with max port at most the max degree hold a full path and, on
    # a finite graph, only those whose max port and length admit a walk into v
    top = g.max_degree()
    least, near = 1, 1
    if g.nodes() is not None:
        ports = PortTable(g)
        near = hop_distance(ports, u, {v})
        if near is None:
            raise CapExceeded(f"no path {u!r} -> {v!r} of value <= {cap}")
        least = least_max_port(ports, u, {v}, top)
    for m, delta in types_in_order(mode, sweep_bound(top, mode), min_port=least, min_length=near):
        val = value(m, delta)
        if val > cap:
            raise CapExceeded(f"no path {u!r} -> {v!r} of value <= {cap}")
        found = _search_type(g, u, v, m, delta)
        if found is not None:
            path, rank = found
            return path, paths_before((m, delta), mode) + rank, (m, delta), val
    raise AssertionError("unreachable")


def character_weight(
    g: PortGraph, u: NodeId, v: NodeId, cap: int = DEFAULT_CAP
) -> WeightResult:
    """Character and weight of the ordered pair (u, v), by exhaustive enumeration."""
    if u == v:
        raise PreconditionError("character is defined for distinct nodes")
    if cap < 2:
        raise PreconditionError("cap must be >= 2")
    path, index, ptype, val = _first_connecting(g, u, v, cap, EnumMode.FIXED)
    return WeightResult(character=ptype, weight=val, witness=path, witness_index=index)


def big_weight(g: PortGraph, v1: NodeId, v2: NodeId, cap: int = DEFAULT_CAP) -> int:
    """W(v1, v2) = max of the two directed weights."""
    return max(
        character_weight(g, v1, v2, cap).weight,
        character_weight(g, v2, v1, cap).weight,
    )


def critical_path(
    g: PortGraph, v1: NodeId, v2: NodeId, cap: int = DEFAULT_CAP
) -> Tuple[Path, int]:
    """First v1 -> v2 path in the global FIXED order and its 1-based index."""
    if v1 == v2:
        raise PreconditionError("critical path is defined for distinct nodes")
    path, index, _ptype, _val = _first_connecting(g, v1, v2, cap, EnumMode.FIXED)
    return path, index


def bp_lex_shortest_path(g: FiniteGraph, v1: NodeId, v2: NodeId) -> Path:
    """Lexicographically smallest port sequence among shortest v1 -> v2 paths.

    BFS layering from v2 over the underlying edges, then a greedy walk taking
    the smallest port that decreases the remaining distance.  Finite graphs
    only.
    """
    if v1 == v2:
        return ()
    dist = distances(g.adjacency, v2)
    if v1 not in dist:
        raise PreconditionError(f"{v2!r} unreachable from {v1!r}")
    ports = []
    pos = v1
    while pos != v2:
        step = min(
            p for p, (y, _q) in sorted(g.adjacency[pos].items())
            if dist.get(y, -1) == dist[pos] - 1
        )
        ports.append(step)
        pos, _ = g.neighbor(pos, step)
    return tuple(ports)
