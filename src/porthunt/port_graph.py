"""Anonymous port-numbered connected multigraphs, finite or lazily infinite.

Every node of finite degree d carries ports exactly 1..d; nodes of countably
infinite degree carry all positive integers as ports.  Navigation is through
``neighbor(v, p) -> (u, q)`` which must be an involution: taking port q at u
leads back to v through port p.  Node identifiers exist only for the simulator
and the oracles; agents never observe them.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    BadParams,
    Disconnected,
    InvalidPorts,
    NoSuchPort,
    ParseError,
    UnknownFamily,
    UnknownNode,
)

NodeId = str


@dataclass(frozen=True)
class Degree:
    """Degree of a node: ``Degree(d)`` for finite d, ``Degree(None)`` for countably infinite."""

    d: Optional[int]

    def __post_init__(self) -> None:
        if self.d is not None and self.d < 1:
            raise ValueError("finite degree must be >= 1")

    @property
    def is_finite(self) -> bool:
        return self.d is not None

    def has_port(self, p: int) -> bool:
        return p >= 1 and (self.d is None or p <= self.d)


INFINITE = Degree(None)


class PortGraph:
    """Abstract navigation structure: degree(v) and neighbor(v, p)."""

    def degree(self, v: NodeId) -> Degree:
        raise NotImplementedError

    def neighbor(self, v: NodeId, p: int) -> Tuple[NodeId, int]:
        raise NotImplementedError

    def nodes(self) -> Optional[List[NodeId]]:
        """Full node list for finite graphs, None for infinite generators."""
        return None

    def contains(self, v: NodeId) -> bool:
        try:
            self.degree(v)
            return True
        except UnknownNode:
            return False


def max_degree(g: PortGraph) -> Optional[int]:
    """Largest degree over g.nodes(); None for an infinite graph or an infinite degree."""
    degrees = [g.degree(v).d for v in g.nodes() or ()]
    return None if not degrees or None in degrees else max(degrees)


class FiniteGraph(PortGraph):
    """Finite port graph backed by an adjacency dict (node -> port -> (node, port))."""

    def __init__(self, adj: Dict[NodeId, Dict[int, Tuple[NodeId, int]]]):
        self._adj = adj
        self._degrees = {v: Degree(len(ports)) for v, ports in adj.items()}

    def degree(self, v: NodeId) -> Degree:
        try:
            return self._degrees[v]
        except KeyError:
            raise UnknownNode(f"no node {v!r}") from None

    def neighbor(self, v: NodeId, p: int) -> Tuple[NodeId, int]:
        try:
            ports = self._adj[v]
        except KeyError:
            raise UnknownNode(f"no node {v!r}") from None
        try:
            return ports[p]
        except KeyError:
            raise NoSuchPort(f"node {v!r} has no port {p}") from None

    def nodes(self) -> List[NodeId]:
        return list(self._adj)

    @property
    def adjacency(self) -> Dict[NodeId, Dict[int, Tuple[NodeId, int]]]:
        return self._adj


@dataclass
class FiniteGraphSpec:
    """Parsed text form of a finite graph: node names and edge records."""

    node_names: List[str] = field(default_factory=list)
    edges: List[Tuple[str, int, str, int]] = field(default_factory=list)


def parse_graph_text(text: str) -> FiniteGraphSpec:
    """Parse the line-oriented graph format (``node <name>`` / ``edge a pa b pb`` / ``#``)."""
    spec = FiniteGraphSpec()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "node":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'node <name>'")
            spec.node_names.append(parts[1])
        elif parts[0] == "edge":
            if len(parts) != 5:
                raise ParseError(f"line {lineno}: expected 'edge <a> <pa> <b> <pb>'")
            a, pa, b, pb = parts[1], parts[2], parts[3], parts[4]
            try:
                pa_i, pb_i = int(pa), int(pb)
            except ValueError:
                raise ParseError(f"line {lineno}: ports must be integers") from None
            if pa_i < 1 or pb_i < 1:
                raise ParseError(f"line {lineno}: ports must be positive")
            spec.edges.append((a, pa_i, b, pb_i))
        else:
            raise ParseError(f"line {lineno}: unknown record {parts[0]!r}")
    return spec


def build_finite(spec: FiniteGraphSpec) -> FiniteGraph:
    """Build and validate a finite graph from a spec.

    Rejects duplicate ports, port sets that are not exactly 1..deg, and
    disconnected graphs.
    """
    adj: Dict[NodeId, Dict[int, Tuple[NodeId, int]]] = {}
    for name in spec.node_names:
        adj.setdefault(name, {})
    for a, pa, b, pb in spec.edges:
        adj.setdefault(a, {})
        adj.setdefault(b, {})
        for (u, p, v, q) in ((a, pa, b, pb), (b, pb, a, pa)):
            if p in adj[u]:
                raise InvalidPorts(f"port {p} reused at node {u!r}")
            adj[u][p] = (v, q)
    if not adj:
        raise ParseError("empty graph")
    for v, ports in adj.items():
        if not ports or set(ports) != set(range(1, len(ports) + 1)):
            raise InvalidPorts(f"ports at node {v!r} are not exactly 1..deg with deg >= 1: "
                               f"{sorted(ports)}")
    seen = distances(adj, next(iter(adj)))
    if len(seen) != len(adj):
        raise Disconnected(f"unreachable nodes: {sorted(set(adj) - set(seen))}")
    return FiniteGraph(adj)


def distances(adj: Dict[NodeId, Dict[int, Tuple[NodeId, int]]], src: NodeId) -> Dict[NodeId, int]:
    """Edge count of a shortest path from src to every node it reaches (BFS)."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for (u, _q) in adj[v].values():
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def from_text(text: str) -> FiniteGraph:
    return build_finite(parse_graph_text(text))


# --- lazy infinite families -------------------------------------------------

_ROOT = "r"
_SEP = "/"


def _parse_address(v: NodeId) -> Optional[Tuple[int, ...]]:
    """Child-index sequence for a tree address, () for the root, None if malformed."""
    if v == _ROOT:
        return ()
    if not v.startswith(_ROOT + _SEP):
        return None
    out = []
    for piece in v[len(_ROOT) + 1:].split(_SEP):
        if not piece.isdigit() or int(piece) < 1:
            return None
        out.append(int(piece))
    return tuple(out)


def _address(indices: Sequence[int]) -> NodeId:
    if not indices:
        return _ROOT
    return _ROOT + _SEP + _SEP.join(str(i) for i in indices)


class _LazyTree(PortGraph):
    """Infinite rooted tree navigated by child-index addresses.

    At the root, port j leads to the j-th child; at every other node, port 1
    leads to the parent and port j >= 2 leads to the (j-1)-th child.  Children
    are always entered through port 1.
    """

    def __init__(self) -> None:
        self._materialized: set = set()

    def _child_cap(self, is_root: bool) -> Optional[int]:
        """Max child index at a node, None for unbounded."""
        raise NotImplementedError

    def _degree_of(self, addr: Tuple[int, ...]) -> Degree:
        cap = self._child_cap(is_root=not addr)
        if cap is None:
            return INFINITE
        return Degree(cap if not addr else cap + 1)

    def _validated(self, v: NodeId) -> Tuple[int, ...]:
        addr = _parse_address(v)
        if addr is None or not self._valid_address(addr):
            raise UnknownNode(f"no node {v!r}")
        return addr

    def _valid_address(self, addr: Tuple[int, ...]) -> bool:
        for depth, k in enumerate(addr):
            cap = self._child_cap(is_root=depth == 0)
            if cap is not None and k > cap:
                return False
        return True

    def degree(self, v: NodeId) -> Degree:
        addr = self._validated(v)
        self._materialized.add(v)
        return self._degree_of(addr)

    def neighbor(self, v: NodeId, p: int) -> Tuple[NodeId, int]:
        addr = self._validated(v)
        deg = self._degree_of(addr)
        if not deg.has_port(p):
            raise NoSuchPort(f"node {v!r} has no port {p}")
        if addr and p == 1:
            parent = addr[:-1]
            k = addr[-1]
            entry = k if not parent else k + 1
            result = _address(parent), entry
        else:
            child_index = p if not addr else p - 1
            result = _address(addr + (child_index,)), 1
        self._materialized.update((v, result[0]))
        return result

    @property
    def materialized_count(self) -> int:
        return len(self._materialized)


class TreeOmega(_LazyTree):
    """The infinite tree with every node of countably infinite degree."""

    def _child_cap(self, is_root: bool) -> Optional[int]:
        return None


class TreeRegular(_LazyTree):
    """The infinite tree with every node of degree d."""

    def __init__(self, d: int) -> None:
        super().__init__()
        if d < 1:
            raise BadParams("tree_regular needs d >= 1")
        self.d = d

    def _child_cap(self, is_root: bool) -> Optional[int]:
        return self.d if is_root else self.d - 1


def truncated_tree_omega(depth: int, max_port: int) -> FiniteGraph:
    """Finite cap of the infinite-degree tree: levels <= depth, ports <= max_port."""
    if depth < 1 or max_port < 1:
        raise BadParams("truncated_tree_omega needs depth >= 1 and max_port >= 1")
    adj: Dict[NodeId, Dict[int, Tuple[NodeId, int]]] = {_ROOT: {}}
    frontier: List[Tuple[int, ...]] = [()]
    for level in range(depth):
        next_frontier = []
        for addr in frontier:
            v = _address(addr)
            n_children = max_port if not addr else max_port - 1
            for k in range(1, n_children + 1):
                child = addr + (k,)
                c = _address(child)
                port_at_v = k if not addr else k + 1
                adj.setdefault(v, {})[port_at_v] = (c, 1)
                adj.setdefault(c, {})[1] = (v, port_at_v)
                next_frontier.append(child)
        frontier = next_frontier
    return FiniteGraph(adj)


# --- small finite families ---------------------------------------------------

def two_node() -> FiniteGraph:
    return build_finite(FiniteGraphSpec(edges=[("u", 1, "v", 1)]))


def ring(n: int) -> FiniteGraph:
    """Cycle on n >= 3 nodes: port 1 clockwise, port 2 counterclockwise."""
    if n < 3:
        raise BadParams("ring needs n >= 3")
    adj: Dict[NodeId, Dict[int, Tuple[NodeId, int]]] = {}
    for i in range(n):
        adj[str(i)] = {
            1: (str((i + 1) % n), 2),
            2: (str((i - 1) % n), 1),
        }
    return FiniteGraph(adj)


def complete(n: int) -> FiniteGraph:
    """Complete graph on n >= 2 nodes; at node i, the other nodes get ports 1..n-1 in order."""
    if n < 2:
        raise BadParams("complete needs n >= 2")
    names = [str(i) for i in range(n)]
    adj: Dict[NodeId, Dict[int, Tuple[NodeId, int]]] = {v: {} for v in names}
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for p, j in enumerate(others, start=1):
            back = [k for k in range(n) if k != j].index(i) + 1
            adj[names[i]][p] = (names[j], back)
    return FiniteGraph(adj)


def random_tree(n: int, seed: int) -> FiniteGraph:
    """Seeded random tree on n >= 2 nodes with randomly permuted ports."""
    if n < 2:
        raise BadParams("random_tree needs n >= 2")
    rng = random.Random(seed)
    edges = [(rng.randrange(k), k) for k in range(1, n)]
    return _assign_ports(n, edges, rng)


def _assign_ports(n: int, edges: List[Tuple[int, int]], rng: random.Random) -> FiniteGraph:
    """Turn an edge list over nodes 0..n-1 into a port graph with shuffled ports."""
    slots: Dict[int, List[int]] = {i: [] for i in range(n)}
    for idx, (a, b) in enumerate(edges):
        slots[a].append(idx)
        slots[b].append(idx)
    port_of: Dict[Tuple[int, int], int] = {}  # (edge idx, occurrence) -> port
    for node, incident in slots.items():
        rng.shuffle(incident)
        seen: Dict[int, int] = {}
        for port, idx in enumerate(incident, start=1):
            occ = seen.get(idx, 0)
            seen[idx] = occ + 1
            port_of[(idx, _side(edges[idx], node, occ))] = port
    adj: Dict[NodeId, Dict[int, Tuple[NodeId, int]]] = {str(i): {} for i in range(n)}
    for idx, (a, b) in enumerate(edges):
        pa = port_of[(idx, 0)]
        pb = port_of[(idx, 1)]
        adj[str(a)][pa] = (str(b), pb)
        adj[str(b)][pb] = (str(a), pa)
    return FiniteGraph(adj)


def _side(edge: Tuple[int, int], node: int, occurrence: int) -> int:
    a, b = edge
    if a == b:  # self-loop: first slot at the node is side 0, second is side 1
        return occurrence
    return 0 if node == a else 1


FAMILIES = {
    "two_node": (0, lambda: two_node()),
    "ring": (1, ring),
    "complete": (1, complete),
    "random_tree": (2, random_tree),
    "tree_regular": (1, TreeRegular),
    "tree_omega": (0, lambda: TreeOmega()),
    "truncated_tree_omega": (2, truncated_tree_omega),
}


def builtin(name: str, params: Sequence[int] = ()) -> PortGraph:
    """Construct a builtin graph family by name."""
    try:
        arity, ctor = FAMILIES[name]
    except KeyError:
        raise UnknownFamily(f"unknown family {name!r}") from None
    if len(params) != arity:
        raise BadParams(f"{name} takes {arity} parameter(s), got {len(params)}")
    return ctor(*params)


def tree_node(*indices: int) -> NodeId:
    """Address of a tree node by its child-index sequence from the root."""
    return _address(indices)


# --- validation ---------------------------------------------------------------

def validate(
    g: PortGraph,
    sample_nodes: Optional[Iterable[NodeId]] = None,
    port_cap: Optional[int] = None,
) -> List[str]:
    """Check involution and entry-port validity; returns the violations found.

    Finite graphs are checked exhaustively.  Infinite graphs need an explicit
    sampling budget: a node sample and a port cap.
    """
    violations: List[str] = []
    nodes = g.nodes()
    if nodes is None:
        if sample_nodes is None or port_cap is None:
            raise ValueError("infinite graph: pass sample_nodes and port_cap")
        nodes = list(sample_nodes)
    for v in nodes:
        deg = g.degree(v)
        ports = range(1, (deg.d if deg.is_finite else port_cap) + 1)
        if port_cap is not None and deg.is_finite:
            ports = range(1, min(deg.d, port_cap) + 1)
        for p in ports:
            try:
                u, q = g.neighbor(v, p)
            except NoSuchPort:
                violations.append(f"port {p} missing at {v!r} (degree says it exists)")
                continue
            if not g.degree(u).has_port(q):
                violations.append(f"entry port {q} invalid at {u!r} (from {v!r}:{p})")
                continue
            back = g.neighbor(u, q)
            if back != (v, p):
                violations.append(
                    f"involution broken: neighbor({v!r},{p})=({u!r},{q}) but neighbor({u!r},{q})={back}"
                )
    return violations


class RelabeledGraph(PortGraph):
    """Bijective node-renaming wrapper, used to test agent anonymity."""

    def __init__(self, base: PortGraph, mapping: Dict[NodeId, NodeId]):
        self._base = base
        self._fwd = mapping
        self._rev = {v: k for k, v in mapping.items()}
        if len(self._rev) != len(self._fwd):
            raise ValueError("mapping is not a bijection")

    def _old(self, v: NodeId) -> NodeId:
        try:
            return self._rev[v]
        except KeyError:
            raise UnknownNode(f"no node {v!r}") from None

    def degree(self, v: NodeId) -> Degree:
        return self._base.degree(self._old(v))

    def neighbor(self, v: NodeId, p: int) -> Tuple[NodeId, int]:
        u, q = self._base.neighbor(self._old(v), p)
        return self._fwd[u], q

    def nodes(self) -> Optional[List[NodeId]]:
        ns = self._base.nodes()
        return None if ns is None else [self._fwd[v] for v in ns]
