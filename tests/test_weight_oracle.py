import itertools

import pytest

from porthunt.battery import hunt_battery
from porthunt.errors import CapExceeded, PreconditionError
from porthunt.path_algebra import EnumMode, paths_of_type, types_in_order, value
from porthunt.port_graph import TreeOmega, builtin, distances, from_text, tree_node, two_node
from porthunt.weight_oracle import character_weight, critical_path

from instances import multi_route_example, path3_graph, star_key

ASYMMETRIC_TEXT = """
# a -1/9- b plus eight leaves filling b's ports 1..8
edge a 1 b 9
edge b 1 l1 1
edge b 2 l2 1
edge b 3 l3 1
edge b 4 l4 1
edge b 5 l5 1
edge b 6 l6 1
edge b 7 l7 1
edge b 8 l8 1
"""


def walk(g, u, path):
    """Test-local full-path walker, independent of the oracle internals."""
    pos = u
    for p in path:
        d = g.degree(pos)
        if d is not None and p > d:
            return None
        pos, _ = g.neighbor(pos, p)
    return pos


def big_weight(g, v1, v2):
    """W(v1, v2) = max of the two directed weights."""
    return max(character_weight(g, v1, v2).weight, character_weight(g, v2, v1).weight)


def bp_lex_shortest_path(g, v1, v2):
    """Lexicographically smallest port sequence among shortest v1 -> v2 paths.

    BFS layering from v2 over the underlying edges, then a greedy walk taking
    the smallest port that decreases the remaining distance.  Finite graphs
    only.
    """
    if v1 == v2:
        return ()
    dist = distances(g, v2)
    if v1 not in dist:
        raise PreconditionError(f"{v2!r} unreachable from {v1!r}")
    ports = []
    pos = v1
    while pos != v2:
        row = g.row(pos)
        step = next(p for p, y in enumerate(row, 1) if dist[y] == dist[pos] - 1)
        ports.append(step)
        pos = row[step - 1]
    return tuple(ports)


def brute_character(g, u, v, max_value):
    """Independent oracle: scan the global order by product-filter enumeration."""
    index = 0
    for m, delta in types_in_order(EnumMode.FIXED):
        if value(m, delta) > max_value:
            raise AssertionError("brute-force scan exhausted")
        members = [p for p in itertools.product(range(1, m + 1), repeat=delta)
                   if max(p) == m]
        for p in members:
            index += 1
            if walk(g, u, p) == v:
                return (m, delta), value(m, delta), p, index


def test_multi_route_worked_example():
    g, u, v = multi_route_example()
    r = character_weight(g, u, v)
    assert r.character == (4, 2)
    assert r.weight == 128
    assert r.witness == (4, 3)
    assert r.witness_index == 80
    # the four intended routes all reach v, and the witness is the global
    # minimum among them
    routes = [(2, 1, 2, 1), (3, 10), (4, 3), (64,)]
    assert all(walk(g, u, p) == v for p in routes)
    assert min(routes, key=star_key) == (4, 3)


def test_tree_child_weights_are_twice_the_port():
    g = TreeOmega()
    for j in range(1, 11):
        r = character_weight(g, tree_node(), tree_node(j))
        assert r.character == (j, 1)
        assert r.weight == 2 * j
        assert r.witness == (j,)


def test_path3_weights_and_directionality():
    g = path3_graph()
    fwd = character_weight(g, "u", "v")
    back = character_weight(g, "v", "u")
    assert (fwd.character, fwd.weight, fwd.witness, fwd.witness_index) == \
        ((2, 2), 32, (1, 2), 18)
    assert (back.character, back.weight, back.witness, back.witness_index) == \
        ((1, 2), 8, (1, 1), 4)
    assert fwd.weight != back.weight  # weight is direction-dependent
    assert big_weight(g, "u", "v") == 32


def test_big_weight_asymmetric_edge():
    g = from_text(ASYMMETRIC_TEXT)
    assert character_weight(g, "a", "b").weight == 2  # path (1)
    assert character_weight(g, "b", "a").weight == 18  # path (9)
    assert big_weight(g, "a", "b") == 18


def test_two_node_weights():
    g = two_node()
    assert character_weight(g, "u", "v").weight == 2
    assert big_weight(g, "u", "v") == 2


def test_oracle_matches_independent_brute_force():
    cases = [
        (path3_graph(), "u", "v"),
        (path3_graph(), "v", "u"),
        (two_node(), "u", "v"),
        (builtin("ring", [4]), "0", "2"),
        (builtin("ring", [5]), "0", "3"),
        (from_text(ASYMMETRIC_TEXT), "b", "a"),
    ]
    for g in hunt_battery(count=3):
        ns = sorted(g.nodes())
        cases.append((g, ns[0], ns[-1]))
    for g, u, v in cases:
        ptype, weight, witness, index = brute_character(g, u, v, max_value=10 ** 6)
        r = character_weight(g, u, v)
        assert r.character == ptype
        assert r.weight == weight
        assert r.witness == witness
        assert r.witness_index == index


def test_witness_index_never_exceeds_weight():
    for g in hunt_battery(count=8):
        ns = sorted(g.nodes())
        for u, v in [(ns[0], ns[-1]), (ns[-1], ns[0])]:
            r = character_weight(g, u, v)
            assert r.witness_index <= r.weight


def test_preconditions_and_cap():
    g = path3_graph()
    with pytest.raises(PreconditionError):
        character_weight(g, "u", "u")
    with pytest.raises(PreconditionError):
        character_weight(g, "u", "v", cap=1)
    with pytest.raises(CapExceeded):
        character_weight(g, "u", "v", cap=16)  # true weight is 32


def test_critical_path_examples():
    assert critical_path(two_node(), "u", "v") == ((1,), 1)
    assert critical_path(path3_graph(), "u", "v") == ((1, 2), 18)
    assert critical_path(TreeOmega(), tree_node(), tree_node(3)) == ((3,), 3)
    with pytest.raises(PreconditionError):
        critical_path(two_node(), "u", "u")


def test_critical_path_index_bounded_by_weight():
    for g in hunt_battery(count=5):
        ns = sorted(g.nodes())
        path, k = critical_path(g, ns[0], ns[-1])
        r = character_weight(g, ns[0], ns[-1])
        assert path == r.witness and k == r.witness_index
        assert k <= r.weight


def test_bp_lex_shortest_path_examples():
    assert bp_lex_shortest_path(two_node(), "u", "v") == (1,)
    assert bp_lex_shortest_path(path3_graph(), "u", "v") == (1, 2)
    assert bp_lex_shortest_path(builtin("ring", [4]), "0", "2") == (1, 1)
    assert bp_lex_shortest_path(two_node(), "u", "u") == ()


def test_bp_lex_shortest_path_brute_force():
    for g in [builtin("ring", [5]), builtin("random_tree", [7, 3]), path3_graph()]:
        ns = sorted(g.nodes())
        v1, v2 = ns[0], ns[-1]
        got = bp_lex_shortest_path(g, v1, v2)
        assert walk(g, v1, got) == v2
        max_deg = max(g.degree(v) for v in g.nodes())
        # no shorter route exists, and got is lex-minimal at its length
        for length in range(1, len(got) + 1):
            for p in itertools.product(range(1, max_deg + 1), repeat=length):
                if walk(g, v1, p) == v2:
                    assert length == len(got) and got <= p
                    break
            else:
                continue
            break


def test_bp_lex_path_can_differ_from_critical_path():
    # on the worked example the shortest route is the direct port-64 edge,
    # while the value-minimal route is (4, 3)
    g, u, v = multi_route_example()
    assert bp_lex_shortest_path(g, u, v) == (64,)
    assert critical_path(g, u, v)[0] == (4, 3)
