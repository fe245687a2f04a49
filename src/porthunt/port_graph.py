"""Anonymous port-numbered connected multigraphs, finite or lazily infinite.

A node's degree is a plain integer: ``degree(v)`` is d when v carries ports
exactly 1..d, and None when v has countably infinite degree and carries every
positive integer as a port; ``max_degree()`` is the largest degree, None if a
degree is infinite or unbounded.  Navigation is through
``neighbor(v, p) -> (u, q)`` which must be an involution: taking port q at u
leads back to v through port p.  Node identifiers exist only for the simulator
and the oracles; agents never observe them.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import (
    BadParams,
    Disconnected,
    InvalidPorts,
    NoSuchPort,
    ParseError,
    UnknownFamily,
    UnknownNode,
)
from .path_algebra import EnumMode, Path, departures

NodeId = str
# (j, path j, nodes entered, entry ports) of one departing segment
Departure = Tuple[int, Path, Sequence[NodeId], Sequence[int]]

WALK_MEMO_CAP = 1024  # departing segments a FiniteGraph keeps per (home, mode)


class PortGraph:
    """Abstract navigation structure: degree(v) and neighbor(v, p)."""

    def degree(self, v: NodeId) -> Optional[int]:
        """d >= 1 when v has the ports 1..d, None when every positive integer is one."""
        raise NotImplementedError

    def neighbor(self, v: NodeId, p: int) -> Tuple[NodeId, int]:
        raise NotImplementedError

    def nodes(self) -> Optional[List[NodeId]]:
        """Full node list for finite graphs, None for infinite generators."""
        return None

    def max_degree(self) -> Optional[int]:
        """Largest degree of any node; None if a degree is infinite or unbounded."""
        return None

    def entry_bounds(self, src: NodeId, targets: Set[NodeId]) -> Optional[Tuple[int, int]]:
        """(mu, D) for the walks from src into targets (src not among them): the
        least max port and the fewest moves of such a walk; None if no target is
        reachable.  No type (x, y) with x < mu or y < D holds a walk into targets."""
        raise NotImplementedError

    def walk_counts(self, src: NodeId, x: int) -> Iterator[int]:
        """A_x(1), A_x(2), ...: the number of port walks from src of each length
        whose ports are all at most x."""
        raise NotImplementedError

    def walk(self, v: NodeId, path: Sequence[int]) -> Tuple[List[NodeId], List[int]]:
        """The nodes entered by the maximal feasible prefix of path from v, and
        the entry port at each: the walk stops at the first port missing where
        it stands."""
        nodes: List[NodeId] = []
        entries: List[int] = []
        degree, neighbor = self.degree, self.neighbor
        for p in path:
            d = degree(v)  # None: every port exists
            if d is not None and p > d:
                break
            v, q = neighbor(v, p)
            nodes.append(v)
            entries.append(q)
        return nodes, entries

    def departing_walks(self, home: NodeId, mode: EnumMode, skip: int = 0) -> Iterator[Departure]:
        """(j, path, nodes, entries) for each path j of global_paths(mode) whose
        first port exists at home, from the skip-th on, never ending, with the
        walk of its maximal feasible prefix from home.  Skipped paths are
        enumerated, not walked."""
        for j, path in departures(self.degree(home), mode, skip):
            nodes, entries = self.walk(home, path)
            yield j, path, nodes, entries


class FiniteGraph(PortGraph):
    """Finite port graph backed by an adjacency dict (node -> port -> (node, port))."""

    def __init__(self, adj: Dict[NodeId, Dict[int, Tuple[NodeId, int]]]):
        self._adj = adj
        self._degrees = {v: len(ports) for v, ports in adj.items()}
        if 0 in self._degrees.values():
            raise ValueError("finite degree must be >= 1")
        self._max_degree = max(self._degrees.values(), default=None)
        self._bounds: Dict[NodeId, Tuple[Dict[NodeId, int], Dict[NodeId, int]]] = {}
        # (home, mode) -> (kept segments, the stream that walks the next one)
        self._walks: Dict[Tuple[NodeId, EnumMode], Tuple[List[Departure], Iterator[Departure]]] = {}

    def degree(self, v: NodeId) -> int:
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

    def max_degree(self) -> Optional[int]:
        return self._max_degree

    @cached_property
    def _rows(self) -> Dict[NodeId, Tuple[NodeId, ...]]:
        return {v: tuple([ports[p][0] for p in range(1, len(ports) + 1)])
                for v, ports in self._adj.items()}

    def row(self, v: NodeId) -> Tuple[NodeId, ...]:
        try:
            return self._rows[v]
        except KeyError:
            raise UnknownNode(f"no node {v!r}") from None

    def entry_bounds(self, src: NodeId, targets: Set[NodeId]) -> Optional[Tuple[int, int]]:
        """Minima over the reachable targets of the least max port and the hop
        distance from src, read from two complete searches kept per base."""
        if src not in self._bounds:  # O(|V|) per base; the graph never changes
            self._bounds[src] = least_max_ports(self, src), distances(self, src)
        least, dist = self._bounds[src]
        reached = [(least[t], dist[t]) for t in targets if t in dist]
        return tuple(map(min, zip(*reached))) if reached else None

    def departing_walks(self, home: NodeId, mode: EnumMode, skip: int = 0) -> Iterator[Departure]:
        """The same stream.  Its first WALK_MEMO_CAP segments are kept per
        (home, mode) as they are first walked, and shared by every later
        stream; past them each stream walks its own."""
        if (home, mode) not in self._walks:
            self.degree(home)  # an unknown home raises here and leaves no entry
            self._walks[home, mode] = [], super().departing_walks(home, mode)
        cap = max(skip, WALK_MEMO_CAP)
        return chain(self._kept(home, mode, skip, cap), super().departing_walks(home, mode, cap))

    def _kept(self, home: NodeId, mode: EnumMode, skip: int, cap: int) -> Iterator[Departure]:
        memo, source = self._walks[home, mode]
        for k in range(skip, cap):
            while len(memo) <= k:
                j, path, nodes, entries = next(source)
                memo.append((j, path, tuple(nodes), tuple(entries)))  # shared: immutable
            yield memo[k]

    def walk_counts(self, src: NodeId, x: int) -> Iterator[int]:
        rows = self._rows
        layer = {src: 1}
        while True:
            nxt: Dict[NodeId, int] = {}
            for v, k in layer.items():
                for u in rows[v][:x]:
                    nxt[u] = nxt.get(u, 0) + k
            layer = nxt
            yield sum(nxt.values())

    def relabeled(self, names: Dict[NodeId, NodeId]) -> FiniteGraph:
        """The same ports with every node v renamed names[v]."""
        if len({names[v] for v in self._adj}) != len(self._adj):
            raise ValueError("names is not a bijection")
        return FiniteGraph({names[v]: {p: (names[u], q) for p, (u, q) in ports.items()}
                            for v, ports in self._adj.items()})

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
    g = FiniteGraph(adj)
    seen = distances(g, next(iter(adj)))
    if len(seen) != len(adj):
        raise Disconnected(f"unreachable nodes: {sorted(set(adj) - set(seen))}")
    return g


def distances(g: FiniteGraph, src: NodeId) -> Dict[NodeId, int]:
    """Edge count of a shortest path from src to every node it reaches (BFS)."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for u in g.row(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def least_max_ports(g: FiniteGraph, src: NodeId) -> Dict[NodeId, int]:
    """Least max port of a walk from src into each node it reaches (src: 0).

    Bucket search over port numbers: bucket x holds the nodes whose least max
    port over walks from src is x; no port exceeds the max degree.
    """
    best = {src: 0}
    buckets: List[List[NodeId]] = [[src]] + [[] for _ in range(g.max_degree())]
    for x, bucket in enumerate(buckets):
        while bucket:
            v = bucket.pop()
            if best[v] < x:
                continue  # reached later through a smaller max port
            row = g.row(v)
            for u in row[:x]:  # a port <= x keeps the max port at x
                if best.get(u, x + 1) > x:
                    best[u] = x
                    bucket.append(u)
            for p, u in enumerate(row[x:], x + 1):
                if best.get(u, p + 1) > p:
                    best[u] = p
                    buckets[p].append(u)
    return best


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
    """Infinite rooted tree navigated by child-index addresses, every node of
    degree d (None: countably infinite).

    At the root, port j leads to the j-th child; at every other node, port 1
    leads to the parent and port j >= 2 leads to the (j-1)-th child.  Children
    are always entered through port 1, so the root has d children and every
    other node d - 1.
    """

    def __init__(self, d: Optional[int]) -> None:
        self.d = d
        self._materialized: set = set()

    def max_degree(self) -> Optional[int]:
        return self.d

    def _validated(self, v: NodeId) -> Tuple[int, ...]:
        addr = _parse_address(v)
        d = self.d
        if addr is None or (d is not None and addr
                            and (addr[0] > d or any(k >= d for k in addr[1:]))):
            raise UnknownNode(f"no node {v!r}")
        return addr

    def degree(self, v: NodeId) -> Optional[int]:
        self._validated(v)
        self._materialized.add(v)
        return self.d

    def neighbor(self, v: NodeId, p: int) -> Tuple[NodeId, int]:
        addr = self._validated(v)
        if p < 1 or self.d is not None and p > self.d:
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

    def entry_bounds(self, src: NodeId, targets: Set[NodeId]) -> Tuple[int, int]:
        """In closed form: every walk into t crosses each edge of the src -> t
        geodesic in its direction, through the same port, so mu is the largest
        port on the geodesic (1 up, k down to the root's k-th child, k + 1 down
        to any other k-th child) and D is its length."""
        a = self._validated(src)
        geodesics = []
        for b in map(self._validated, targets):
            # up from src to the common ancestor at depth j, then down to t
            j = next((i for i, (p, q) in enumerate(zip(a, b)) if p != q), min(len(a), len(b)))
            geodesics.append([1] * (len(a) - j) + [k + (i > 0) for i, k in enumerate(b[j:], j)])
        return min(map(max, geodesics)), min(map(len, geodesics))

    def walk_counts(self, src: NodeId, x: int) -> Iterator[int]:
        """Every node has the ports 1..d, so A_x(l) = min(x, d)**l."""
        w = x if self.d is None else min(x, self.d)
        return (w ** l for l in count(1))

    @property
    def materialized_count(self) -> int:
        return len(self._materialized)


class TreeOmega(_LazyTree):
    """The infinite tree with every node of countably infinite degree."""

    def __init__(self) -> None:
        super().__init__(None)


class TreeRegular(_LazyTree):
    """The infinite tree with every node of degree d."""

    def __init__(self, d: int) -> None:
        if d < 1:
            raise BadParams("tree_regular needs d >= 1")
        super().__init__(d)


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
        top = g.degree(v)
        if top is None or port_cap is not None and port_cap < top:
            top = port_cap
        for p in range(1, top + 1):
            try:
                u, q = g.neighbor(v, p)
            except NoSuchPort:
                violations.append(f"port {p} missing at {v!r} (degree says it exists)")
                continue
            du = g.degree(u)
            if q < 1 or du is not None and q > du:
                violations.append(f"entry port {q} invalid at {u!r} (from {v!r}:{p})")
                continue
            back = g.neighbor(u, q)
            if back != (v, p):
                violations.append(
                    f"involution broken: neighbor({v!r},{p})=({u!r},{q}) but neighbor({u!r},{q})={back}"
                )
    return violations

