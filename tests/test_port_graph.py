import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porthunt import port_graph
from porthunt.battery import random_port_graph
from porthunt.errors import (
    BadParams,
    Disconnected,
    InvalidPorts,
    NoSuchPort,
    ParseError,
    UnknownFamily,
    UnknownNode,
)
from porthunt.port_graph import (
    FiniteGraph,
    TreeOmega,
    TreeRegular,
    builtin,
    from_text,
    parse_graph_text,
    tree_node,
    truncated_tree_omega,
    two_node,
    validate,
)

from instances import relabeled

TEXT_OK = """
# three-node path
node u
edge u 1 x 1
edge x 2 v 1
"""


def test_parse_and_build_roundtrip():
    g = from_text(TEXT_OK)
    assert sorted(g.nodes()) == ["u", "v", "x"]
    assert g.degree("x") == 2
    assert g.neighbor("u", 1) == ("x", 1)
    assert g.neighbor("x", 2) == ("v", 1)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_graph_text("edge u 1 v")  # wrong arity
    with pytest.raises(ParseError):
        parse_graph_text("edge u 0 v 1")  # nonpositive port
    with pytest.raises(ParseError):
        parse_graph_text("vertex u")  # unknown record
    with pytest.raises(ParseError):
        from_text("# nothing but a comment")


def test_build_rejects_duplicate_port():
    with pytest.raises(InvalidPorts):
        from_text("edge u 1 v 1\nedge u 1 w 1")


def test_build_rejects_port_gap():
    with pytest.raises(InvalidPorts):
        from_text("edge u 2 v 1")  # u has port 2 but not port 1


def test_build_rejects_disconnected():
    with pytest.raises(Disconnected):
        from_text("edge a 1 b 1\nedge c 1 d 1")


@pytest.mark.parametrize("text", ["node a", "node a\nedge u 1 v 1"])
def test_build_rejects_node_without_ports(text):
    with pytest.raises(InvalidPorts):
        from_text(text)


def test_validate_reports_each_violation():
    g = FiniteGraph({
        "u": {1: ("v", 1), 3: ("v", 2)},  # degree 2 without port 2; u:1 -> v:1 -/-> u
        "v": {1: ("w", 1), 2: ("u", 3)},  # u has no port 3
        "w": {1: ("v", 9)},  # v has no port 9
    })
    assert validate(g) == [
        "involution broken: neighbor('u',1)=('v',1) but neighbor('v',1)=('w', 1)",
        "port 2 missing at 'u' (degree says it exists)",
        "involution broken: neighbor('v',1)=('w',1) but neighbor('w',1)=('v', 9)",
        "entry port 3 invalid at 'u' (from 'v':2)",
        "entry port 9 invalid at 'v' (from 'w':1)",
    ]


def test_validate_checks_only_ports_up_to_the_cap():
    g = FiniteGraph({
        "u": {1: ("v", 1), 2: ("w", 1), 3: ("w", 1)},  # u:3 -> w:1 leads back to u:2
        "v": {1: ("u", 1), 2: ("w", 1)},  # v:2 -> w:1 leads back to u:2
        "w": {1: ("u", 2)},
    })
    v_broken = "involution broken: neighbor('v',2)=('w',1) but neighbor('w',1)=('u', 2)"
    u_broken = "involution broken: neighbor('u',3)=('w',1) but neighbor('w',1)=('u', 2)"
    assert validate(g, port_cap=2) == [v_broken]  # port 3 of u (degree 3) is above the cap
    assert validate(g) == [u_broken, v_broken]


def test_self_loop_occupies_two_ports():
    g = from_text("edge u 1 v 1\nedge v 2 v 3")
    assert g.degree("v") == 3
    assert g.neighbor("v", 2) == ("v", 3)
    assert g.neighbor("v", 3) == ("v", 2)
    assert not validate(g)


def test_degree_contract():
    assert from_text(TEXT_OK).degree("x") == 2
    with pytest.raises(ValueError):
        FiniteGraph({"u": {1: ("u", 1)}, "x": {}})  # a finite degree is at least 1
    for d in (2, 3, 7):
        g = TreeRegular(d)
        assert g.degree(tree_node()) == d
        assert g.degree(tree_node(d, d - 1, d - 1)) == d  # depth 3, last child at each level
    assert TreeOmega().degree(tree_node(9, 9, 9)) is None
    ring = builtin("ring", [5])
    renamed = relabeled(ring, {v: "n" + v for v in ring.nodes()})
    assert renamed.degree("n3") == 2 and renamed.max_degree() == 2
    for g in (TreeRegular(3), TreeOmega()):
        with pytest.raises(NoSuchPort):
            g.neighbor(tree_node(1), 0)
    with pytest.raises(NoSuchPort):
        TreeRegular(3).neighbor(tree_node(), 4)
    with pytest.raises(NoSuchPort):
        TreeRegular(3).neighbor(tree_node(1), 4)


def test_unknown_node_and_port():
    g = two_node()
    with pytest.raises(UnknownNode):
        g.degree("w")
    with pytest.raises(NoSuchPort):
        g.neighbor("u", 2)


def test_two_node_family():
    g = builtin("two_node")
    assert g.neighbor("u", 1) == ("v", 1)
    assert g.neighbor("v", 1) == ("u", 1)
    assert not validate(g)


def test_ring_family():
    g = builtin("ring", [5])
    # port 1 walks all the way around
    pos = "0"
    for _ in range(5):
        pos, entry = g.neighbor(pos, 1)
        assert entry == 2
    assert pos == "0"
    assert not validate(g)
    with pytest.raises(BadParams):
        builtin("ring", [2])


def test_complete_family():
    g = builtin("complete", [4])
    assert all(g.degree(v) == 3 for v in g.nodes())
    assert not validate(g)


def test_random_tree_family_deterministic():
    g1 = builtin("random_tree", [8, 42])
    g2 = builtin("random_tree", [8, 42])
    assert g1.adjacency == g2.adjacency
    assert not validate(g1)
    assert builtin("random_tree", [8, 43]).adjacency != g1.adjacency


def test_builtin_dispatch_errors():
    with pytest.raises(UnknownFamily):
        builtin("moebius")
    with pytest.raises(BadParams):
        builtin("ring", [3, 3])


def test_tree_omega_navigation():
    g = TreeOmega()
    root = tree_node()
    assert g.degree(root) is None
    child7, entry = g.neighbor(root, 7)
    assert (child7, entry) == (tree_node(7), 1)
    assert g.neighbor(child7, 1) == (root, 7)
    # grandchild through port 4 at a non-root node is child index 3
    gc, entry = g.neighbor(child7, 4)
    assert (gc, entry) == (tree_node(7, 3), 1)
    assert g.neighbor(gc, 1) == (child7, 4)


def test_tree_omega_involution_sampled():
    g = TreeOmega()
    sample = [tree_node(), tree_node(3), tree_node(3, 5), tree_node(100, 1, 2)]
    assert not validate(g, sample_nodes=sample, port_cap=50)


def test_tree_omega_rejects_malformed_addresses():
    g = TreeOmega()
    for bad in ("x", "r/", "r/0", "r/1/x", ""):
        with pytest.raises(UnknownNode):
            g.degree(bad)
    assert g.degree(tree_node(1, 2, 3)) is None


def test_tree_regular():
    g = TreeRegular(3)
    assert g.degree(tree_node()) == 3
    assert g.degree(tree_node(2)) == 3
    assert g.neighbor(tree_node(2), 3) == (tree_node(2, 2), 1)
    with pytest.raises(UnknownNode):
        g.degree(tree_node(4))  # root has only 3 children
    with pytest.raises(UnknownNode):
        g.degree(tree_node(1, 3))  # non-root nodes have 2 children
    with pytest.raises(UnknownNode):
        TreeRegular(1).degree(tree_node(1, 1))  # d = 1: a single edge
    assert TreeRegular(1).degree(tree_node(1)) == 1
    assert not validate(g, sample_nodes=[tree_node(), tree_node(1), tree_node(1, 1)],
                        port_cap=3)


def test_lazy_tree_materializes_only_touched_nodes():
    g = TreeOmega()
    assert g.materialized_count == 0
    pos = tree_node()
    for p in (5, 2, 9):
        pos, _ = g.neighbor(pos, p)
    # a 3-move walk touches at most 4 nodes
    assert g.materialized_count <= 4


def test_lazy_tree_parses_each_address_once(monkeypatch):
    """A node materialized by degree or neighbor keeps its parse, and later
    calls read it; an address never materialized is still refused."""
    parses = []

    def counted(v, original=port_graph._parse_address):
        parses.append(v)
        return original(v)
    monkeypatch.setattr(port_graph, "_parse_address", counted)
    g = TreeRegular(3)
    pos = tree_node()
    for p in (3, 2, 2, 1, 2):
        pos, _ = g.neighbor(pos, p)
    assert (pos, g.degree(pos), g.materialized_count) == (tree_node(3, 1, 1), 3, 4)
    assert parses == [tree_node()]
    with pytest.raises(UnknownNode):
        g.degree(tree_node(3, 3))


def test_truncated_tree_omega_shape():
    g = truncated_tree_omega(3, 20)
    assert not validate(g)
    assert g.degree(tree_node()) == 20
    assert g.degree(tree_node(1)) == 20
    assert g.degree(tree_node(1, 1, 1)) == 1  # leaf at the depth cap
    # node count: 1 + 20 + 20*19 + 20*19*19
    assert len(g.nodes()) == 1 + 20 + 20 * 19 + 20 * 19 * 19
    with pytest.raises(BadParams):
        truncated_tree_omega(0, 5)


def test_truncated_tree_matches_infinite_tree_locally():
    finite = truncated_tree_omega(2, 8)
    infinite = TreeOmega()
    for v in [tree_node(), tree_node(3), tree_node(3, 2)]:
        cap = finite.degree(v)
        for p in range(1, cap + 1):
            assert finite.neighbor(v, p) == infinite.neighbor(v, p)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_battery_graphs_validate(seed):
    g = random_port_graph(random.Random(seed))
    assert not validate(g)
    assert len(g.nodes()) >= 2


def test_relabeled_graph_is_same_structure():
    g = builtin("ring", [4])
    mapping = {v: f"n{v}" for v in g.nodes()}
    rg = relabeled(g, mapping)
    assert not validate(rg)
    assert rg.neighbor("n0", 1) == ("n1", 2)
    with pytest.raises(UnknownNode):
        rg.degree("0")
    with pytest.raises(ValueError):
        relabeled(g, dict(mapping, **{"1": "n0"}))  # two nodes named n0


def test_neighbor_is_deterministic():
    g = builtin("random_tree", [10, 7])
    for v in g.nodes():
        for p in range(1, g.degree(v) + 1):
            assert g.neighbor(v, p) == g.neighbor(v, p)
