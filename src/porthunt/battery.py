"""Deterministic instance batteries used by the bench command and the tests."""

from __future__ import annotations

import random
from typing import List, Tuple

from .port_graph import (
    FiniteGraph,
    NodeId,
    _assign_ports,
    builtin,
    distances,
    tree_node,
)

DEFAULT_SEED = 20240811


def random_port_graph(rng: random.Random, max_nodes: int = 8, max_degree: int = 6) -> FiniteGraph:
    """Seeded random connected port multigraph: a random tree plus a few extra
    edges (multi-edges and self-loops allowed), ports randomly permuted."""
    n = rng.randint(2, max_nodes)
    edges: List[Tuple[int, int]] = [(rng.randrange(k), k) for k in range(1, n)]
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    for _ in range(rng.randint(0, n)):
        a = rng.randrange(n)
        b = rng.randrange(n)
        need_a = 2 if a == b else 1
        if deg[a] + need_a > max_degree or (a != b and deg[b] + 1 > max_degree):
            continue
        edges.append((a, b))
        deg[a] += need_a
        if a != b:
            deg[b] += 1
    if max(deg) > max_degree:
        # the random tree alone can exceed the cap; rebuild as a path graph
        edges = [(k - 1, k) for k in range(1, n)]
    return _assign_ports(n, edges, rng)


def hunt_battery(count: int = 50, seed: int = DEFAULT_SEED) -> List[FiniteGraph]:
    """The seeded battery of random finite graphs for the hunt checks."""
    rng = random.Random(seed)
    return [random_port_graph(rng) for _ in range(count)]


def truncated_tree_sample_nodes() -> List[NodeId]:
    """Deterministic node sample of truncated_tree_omega(2, 12): the root, all
    twelve depth-1 children, and three shallow-port leaves.  Restricting the
    leaves keeps every pairwise weight small enough for exhaustive runs."""
    nodes = [tree_node()] + [tree_node(j) for j in range(1, 13)]
    nodes += [tree_node(1, 1), tree_node(1, 2), tree_node(2, 1)]
    return nodes


def low_port_edge(g: FiniteGraph) -> Tuple[NodeId, NodeId]:
    """Endpoints of the edge minimizing its larger port number.

    Used to pick rendezvous start pairs whose weights stay small, so the exact
    cumulative-time bound fits under the round cap.
    """
    best = None
    for v in g.nodes():
        for p, (u, q) in g.adjacency[v].items():
            if u == v:
                continue
            key = (max(p, q), min(p, q), v, u)
            if best is None or key < best:
                best = key
    if best is None:
        raise ValueError("graph has no non-loop edge")
    return best[2], best[3]


def far_pair(g: FiniteGraph) -> Tuple[NodeId, NodeId]:
    """First node and a BFS-farthest node from it (deterministic tie-break)."""
    ns = g.nodes()
    dist = distances(g, ns[0])
    return ns[0], max(ns, key=lambda n: (dist[n], n))


def rendezvous_graphs() -> List[Tuple[str, FiniteGraph]]:
    """The graph families of the rendezvous battery."""
    out: List[Tuple[str, FiniteGraph]] = [("two_node", builtin("two_node"))]
    for n in range(3, 7):
        out.append((f"ring:{n}", builtin("ring", [n])))
    rng = random.Random(DEFAULT_SEED + 1)
    for k in range(5):
        n = rng.randint(4, 8)
        out.append((f"random_tree[{k}]", builtin("random_tree", [n, rng.randrange(10 ** 6)])))
    out.append(("truncated_tree_omega:2,8", builtin("truncated_tree_omega", [2, 8])))
    return out


RENDEZVOUS_LABEL_PAIRS: List[Tuple[int, int]] = [
    (1, 2), (2, 1), (3, 5), (7, 11), (15, 16), (31, 32), (1, 32), (21, 13),
]

RENDEZVOUS_DELAYS: List[int] = [0, 1, 5, 17]
