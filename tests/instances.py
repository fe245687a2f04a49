"""Test-only instances and helpers: the worked four-route example, the
three-node path, a graph with its nodes renamed, the start pairs of the
rendezvous battery, and a comparator for the global path order."""

from typing import Dict, List, Tuple

from porthunt.battery import far_pair, low_port_edge
from porthunt.path_algebra import Path, type_of, value
from porthunt.port_graph import FiniteGraph, NodeId
from porthunt.weight_oracle import critical_path


def multi_route_example() -> Tuple[FiniteGraph, NodeId, NodeId]:
    """Graph realizing the worked four-route weight computation.

    From u to v there are exactly four edge-disjoint routes, with port
    sequences (2,1,2,1), (3,10), (4,3) and (64); every other u -> v path has a
    strictly larger type value.  The character of (u, v) is (4,2) and the
    weight is 128.
    """
    adj: Dict[NodeId, Dict[int, Tuple[NodeId, int]]] = {}

    def link(a: NodeId, pa: int, b: NodeId, pb: int) -> None:
        adj.setdefault(a, {})[pa] = (b, pb)
        adj.setdefault(b, {})[pb] = (a, pa)

    # route (2,1,2,1): u -2-> x1 -1-> x2 -2-> x3 -1-> v
    link("u", 2, "x1", 2)
    link("x1", 1, "x2", 1)
    link("x2", 2, "x3", 2)
    link("x3", 1, "v", 1)
    # route (3,10): u -3-> y1 -10-> v; y1 needs ports 1..10
    link("u", 3, "y1", 1)
    link("y1", 10, "v", 2)
    for k in range(2, 10):
        link("y1", k, f"yleaf{k}", 1)
    # route (4,3): u -4-> z1 -3-> v
    link("u", 4, "z1", 1)
    link("z1", 3, "v", 3)
    link("z1", 2, "zleaf", 1)
    # route (64): the direct edge, plus filler leaves so u's ports are 1..64
    link("u", 64, "v", 4)
    for p in [1] + list(range(5, 64)):
        link("u", p, f"uleaf{p}", 1)
    g = FiniteGraph(adj)
    return g, "u", "v"


def path3_graph() -> FiniteGraph:
    """Three-node path u - x - v with ports (1,1) and (2,1)."""
    adj: Dict[NodeId, Dict[int, Tuple[NodeId, int]]] = {
        "u": {1: ("x", 1)},
        "x": {1: ("u", 1), 2: ("v", 1)},
        "v": {1: ("x", 2)},
    }
    return FiniteGraph(adj)


def relabeled(g: FiniteGraph, names: Dict[NodeId, NodeId]) -> FiniteGraph:
    """The same ports as g with every node v renamed names[v]."""
    adj = g.adjacency
    if len({names[v] for v in adj}) != len(adj):
        raise ValueError("names is not a bijection")
    return FiniteGraph({names[v]: {p: (names[u], q) for p, (u, q) in ports.items()}
                        for v, ports in adj.items()})


def rendezvous_start_pairs(g: FiniteGraph, max_k_star: int = 33) -> List[Tuple[NodeId, NodeId]]:
    """Start pairs for the rendezvous battery.

    Always the lowest-port edge; additionally a BFS-farthest pair when its
    critical-path indices are small enough that the exact cumulative-time
    bound stays below the default round cap.
    """
    pairs = [low_port_edge(g)]
    fp = far_pair(g)
    if fp != pairs[0] and fp != tuple(reversed(pairs[0])):
        _, k1 = critical_path(g, fp[0], fp[1])
        _, k2 = critical_path(g, fp[1], fp[0])
        if max(k1, k2) <= max_k_star:
            pairs.append(fp)
    return pairs


def star_key(path: Path) -> Tuple[int, int, int, Path]:
    """Sort key realizing the global path order: value, type lex, path lex."""
    m, delta = type_of(path)
    return (value(m, delta), m, delta, path)


def compare_star(a: Path, b: Path) -> int:
    """-1, 0 or 1 as a precedes, equals or follows b in the global order."""
    ka, kb = star_key(a), star_key(b)
    return -1 if ka < kb else (0 if ka == kb else 1)
