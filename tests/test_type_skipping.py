"""Type skipping, cross-checked against sweeping every type.

The hunt and the oracle sweep only the types whose max port is at most the
graph's max degree and at least the least max port of a walk into the target,
with length at least its hop distance (the graph's entry bounds; closed forms
on a lazy tree, kept per base on a finite graph); the hunt charges every
earlier type in closed form.  The references here sweep or count every type,
as the engines did before.
"""

import itertools
import math
import random

import pytest

from porthunt import hunt_engine, port_graph, weight_oracle
from porthunt.battery import (
    RENDEZVOUS_DELAYS,
    RENDEZVOUS_LABEL_PAIRS,
    hunt_battery,
    rendezvous_graphs,
    truncated_tree_sample_nodes,
)
from porthunt.errors import CapExceeded, StepBudgetExceeded, UnknownNode
from porthunt.hunt_engine import (
    HuntConfig,
    _charge,
    _sweep_type_fast,
    first_visit_times,
    run_uth,
)
from porthunt.path_algebra import (
    LEAST_PORT,
    EnumMode,
    count_of_type,
    index_of_path,
    sweep_bound,
    types_in_order,
    value,
)
from porthunt.port_graph import (
    FiniteGraph,
    TreeOmega,
    TreeRegular,
    builtin,
    tree_node,
    truncated_tree_omega,
    two_node,
)
from porthunt.rendezvous_engine import RvConfig, _tape, bound_time, run_urv, trans
from porthunt.weight_oracle import character_weight, critical_path

from instances import path3_graph, relabeled, rendezvous_start_pairs

MODES = [EnumMode.FIXED, EnumMode.STRICT]
NO_BUDGET = math.inf


def _graphs():
    out = [("two_node", two_node()), ("path3", path3_graph())]
    out += [(f"ring:{n}", builtin("ring", [n])) for n in range(3, 9)]
    out += [(f"complete:{n}", builtin("complete", [n])) for n in range(2, 6)]
    out += [(f"battery:{i}", g) for i, g in enumerate(hunt_battery(count=10))]
    return out


GRAPHS = _graphs()


def _reference_first_visits(g, base, targets, mode):
    """Step of the first entry of each target, sweeping every type in order."""
    targets = set(targets) - {base}
    visits = {}
    steps = 0
    for m, delta in types_in_order(mode):
        if not targets:
            break
        steps = _sweep_type_fast(g, base, targets, m, delta, steps, visits, NO_BUDGET)
    return {base: 0, **{v: s for v, (s, _, _) in visits.items()}}


def _raises(g, base, treasure, mode, max_steps):
    try:
        run_uth(g, base, treasure, HuntConfig(mode=mode, max_steps=max_steps))
    except StepBudgetExceeded:
        return True
    return False


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_skipping_driver_matches_sweeping_every_type(name, g, mode):
    ns = g.nodes()
    for base in ns:
        expected = _reference_first_visits(g, base, ns, mode)
        assert first_visit_times(g, base, ns, mode) == expected
        for t in ns:
            if t == base:
                continue
            s = expected[t]
            assert run_uth(g, base, t, HuntConfig(mode=mode, max_steps=s)).steps == s
            assert s == 1 or _raises(g, base, t, mode, s - 1)


def _lazy_tree(d):
    return TreeOmega() if d is None else TreeRegular(d)


# (d, base, treasure); d None is tree_omega
TREE_HUNTS = [
    (1, "r", "r/1"), (2, "r", "r/2/1/1/1"), (3, "r", "r/1/2"), (3, "r", "r/3/2/2"),
    (4, "r", "r/4/3/2"), (3, "r/2/1", "r"), (2, "r/1/1/1", "r/1/1"), (4, "r/2/2", "r/4/3"),
    (None, "r", "r/3/2"), (None, "r/2/7", "r/2/1/3"), (None, "r/4", "r/1/1"),
]


def _hunt_id(d, base, treasure):
    return f"{d or 'omega'}:" + (treasure if base == "r" else f"{base}->{treasure}")


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("d,base,treasure", TREE_HUNTS, ids=[_hunt_id(*h) for h in TREE_HUNTS])
def test_skipping_on_tree_regular_matches_sweeping_every_type(d, base, treasure, mode):
    g = _lazy_tree(d)
    visits = {}
    steps = 0
    for m, delta in types_in_order(mode):
        steps = _sweep_type_fast(g, base, {treasure}, m, delta, steps, visits, NO_BUDGET)
        if visits:
            break
    s, ptype, prefix = visits[treasure]
    r = run_uth(g, base, treasure, HuntConfig(mode=mode, max_steps=s))
    assert (r.steps, r.found_type, r.visit_prefix) == (s, ptype, prefix)
    assert s == 1 or _raises(g, base, treasure, mode, s - 1)
    assert character_weight(_lazy_tree(d), base, treasure).witness == \
        _first_path_searching_every_type(g, base, treasure)


def _first_path_searching_every_type(g, base, treasure):
    """First full base -> treasure path in the FIXED global order."""
    for m, delta in types_in_order(EnumMode.FIXED):
        path = weight_oracle._search_type(g, base, treasure, m, delta)
        if path is not None:
            return path


# hunt (steps, type, prefix) in FIXED and STRICT mode, and the oracle's
# (character, weight, witness index), as sweeping every type gives them
LAZY_PINS = [
    (None, "r", "r/6/5/6/5",
     (286006, (7, 4), (6, 6, 7, 6)), (285824, (7, 4), (6, 6, 7, 6)), ((7, 4), 153664, 104156)),
    (None, "r/3/3", "r/9",
     (31481, (9, 3), (1, 1, 9)), (31371, (9, 3), (1, 1, 9)), ((9, 3), 17496, 11669)),
    (4, "r/2/2", "r/4/3/3/3/3",
     (523095, (4, 7), (1, 1, 4, 4, 4, 4, 4)), (522715, (4, 7), (1, 1, 4, 4, 4, 4, 4)),
     ((4, 7), 14680064, 10046280)),
]


@pytest.mark.parametrize("d,base,treasure,fixed,strict,oracle", LAZY_PINS,
                         ids=[_hunt_id(*p[:3]) for p in LAZY_PINS])
def test_lazy_tree_queries_are_pinned(d, base, treasure, fixed, strict, oracle):
    for mode, expected in ((EnumMode.FIXED, fixed), (EnumMode.STRICT, strict)):
        r = run_uth(_lazy_tree(d), base, treasure, HuntConfig(mode=mode, max_steps=10 ** 9))
        assert (r.steps, r.found_type, r.visit_prefix) == expected
    o = character_weight(_lazy_tree(d), base, treasure, cap=10 ** 9)
    assert (o.character, o.weight, o.witness_index) == oracle


def _closed_form_cases():
    out = [(f"tree_regular:{d}", TreeRegular(d), truncated_tree_omega(k, d), d + 1)
           for d, k in ((1, 4), (2, 4), (3, 4), (4, 3))]
    out += [(f"tree_omega:{p}", TreeOmega(), truncated_tree_omega(k, p), p)
            for p, k in ((4, 3), (6, 2))]
    return out


CLOSED_FORM_CASES = _closed_form_cases()


@pytest.mark.parametrize("name,tree,cap,max_x", CLOSED_FORM_CASES,
                         ids=[c[0] for c in CLOSED_FORM_CASES])
def test_lazy_tree_closed_forms_match_the_finite_cap(name, tree, cap, max_x):
    """A finite cap of the same depth names its nodes as the tree does, and
    agrees with it on the entry bounds of every pair and on the sweep costs
    of the lengths that stay above its leaves; tree_omega only over ports up
    to the cap's."""
    depth = max(v.count("/") for v in cap.nodes())
    for b in cap.nodes():
        others = set(cap.nodes()) - {b}
        for t in others:
            assert tree.entry_bounds(b, {t}) == cap.entry_bounds(b, {t}), (b, t)
        assert tree.entry_bounds(b, others) == cap.entry_bounds(b, others), b
        n = depth - b.count("/")
        for x, y in itertools.product(range(max_x + 1), range(n + 1)):
            assert tree.sweep_cost(b, x, y) == cap.sweep_cost(b, x, y), (b, x, y)


def _sweep_cost_by_brute_force(g, base, x, y):
    """Sum of the feasible-prefix lengths of every path of {1..x}**y from base."""
    return sum(len(g.walk(base, path)[0])
               for path in itertools.product(range(1, x + 1), repeat=y))


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_sweep_cost_matches_brute_force(name, g):
    """Over every x up to two above the max degree and every y up to 5, on a
    fresh graph whose kept lists grow as the lengths rise."""
    fresh = _fresh(g)
    for base in g.nodes()[:2]:
        for y, x in itertools.product(range(6), range(g.max_degree() + 3)):
            assert fresh.sweep_cost(base, x, y) == _sweep_cost_by_brute_force(g, base, x, y), \
                (base, x, y)


CHARGE_GRAPHS = GRAPHS + [("tree_regular:3", TreeRegular(3)), ("tree_omega", TreeOmega())]


@pytest.mark.parametrize("name,g", CHARGE_GRAPHS, ids=[name for name, _ in CHARGE_GRAPHS])
def test_run_charge_equals_the_sweeps_of_its_types(name, g):
    """The closed-form total before each of the first 300 types is the sum of
    the sweeps of every earlier type; lazy trees from the root."""
    for mode in MODES:
        for base in (g.nodes() or [tree_node()])[:2]:
            swept = 0
            for m, delta in itertools.islice(types_in_order(mode), 300):
                assert _charge(g, base, LEAST_PORT[mode], (m, delta)) == swept
                swept = _sweep_type_fast(g, base, set(), m, delta, swept, {}, NO_BUDGET)


def _distances_over_ports(g, base, x):
    """Hop distance from base of every node reached over ports <= x (BFS)."""
    dist = {base: 0}
    frontier = [base]
    while frontier:
        nxt = []
        for v in frontier:
            for p in range(1, min(x, g.degree(v)) + 1):
                u, _ = g.neighbor(v, p)
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def _bounds_by_brute_force(g, base, target):
    """(hop distance, least max port) of the walks from base into target."""
    top = g.max_degree()
    least = min(x for x in range(1, top + 1) if target in _distances_over_ports(g, base, x))
    return _distances_over_ports(g, base, top)[target], least


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_row_lists_the_neighbor_of_each_port(name, g):
    for v in g.nodes():
        row = g.row(v)
        assert len(row) == g.degree(v)
        assert all(row[p - 1] == g.neighbor(v, p)[0] for p in range(1, len(row) + 1))


def _fresh(g):
    """A new graph with g's nodes and ports, and no bounds kept yet."""
    return relabeled(g, {v: v for v in g.nodes()})


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_entry_bounds_match_brute_force(name, g):
    """The graph keeps one complete search per base, so the order of the
    queries cannot change a bound: on a fresh graph per order, every target of
    a base is queried far first (larger least max port, then hop distance)
    and near first."""
    found = {b: {t: _bounds_by_brute_force(g, b, t) for t in g.nodes() if t != b}
             for b in g.nodes()}
    for far_first in (True, False):
        fresh = _fresh(g)
        for b, by_target in found.items():
            order = sorted(by_target, key=lambda t: by_target[t][::-1], reverse=far_first)
            for t in order:
                near, least = by_target[t]
                assert fresh.entry_bounds(b, {t}) == (least, near), (b, t, far_first)
            # a set's bounds are the least over its members, each taken on its own
            assert fresh.entry_bounds(b, set(by_target)) == (
                min(x for _, x in by_target.values()), min(d for d, _ in by_target.values()))


def test_entry_bounds_are_kept_per_graph():
    """Two battery graphs name their nodes "0", "1", ... alike and differ in
    some bounds; querying one leaves the other's bounds as they were."""
    graphs = hunt_battery(count=2)
    shared = set.intersection(*(set(g.nodes()) for g in graphs))
    pairs = list(itertools.permutations(sorted(shared), 2))
    expected = [{(b, t): _bounds_by_brute_force(g, b, t)[::-1] for b, t in pairs} for g in graphs]
    assert expected[0] != expected[1]
    for i in (0, 1, 0):
        assert {(b, t): graphs[i].entry_bounds(b, {t}) for b, t in pairs} == expected[i], i


def test_unknown_base_keeps_no_bounds():
    g = builtin("ring", [5])
    with pytest.raises(UnknownNode):
        g.entry_bounds("x", {"1"})
    assert g._bounds == {}
    assert g.entry_bounds("0", {"1"}) == (1, 1)
    assert list(g._bounds) == ["0"]


def test_unknown_base_keeps_no_sweep_costs():
    g = builtin("ring", [5])
    with pytest.raises(UnknownNode):
        g.sweep_cost("x", 1, 3)
    assert g._sweeps == {}
    assert g.sweep_cost("0", 2, 3) == 24  # 8 paths, each walked 3 moves out
    assert list(g._sweeps) == [("0", 2)]


def test_walk_counts_are_kept_only_at_the_max_degree():
    """G_w is kept for every w; A_w only for w = max degree, the Horner case.
    Every node of complete(4) has degree 3, so A_x(l) = min(x, 3)**l."""
    g = builtin("complete", [4])

    def closed_form(x, y):
        return sum(min(x, 3) ** l * x ** (y - l) for l in range(1, y + 1))
    for x in (1, 2, 3, 5, 2, 7):
        assert g.sweep_cost("0", x, 6) == closed_form(x, 6), x
    assert {w: len(counts) for (_, w), (counts, _) in g._sweeps.items()} == {1: 0, 2: 0, 3: 6}
    assert g.sweep_cost("0", 4, 13) == closed_form(4, 13)
    assert [len(costs) for _, costs in g._sweeps.values()] == [7, 7, 14]


def _disconnected_graph():
    """a - b with a self-loop at a, and a separate c - d."""
    return FiniteGraph({
        "a": {1: ("b", 1), 2: ("a", 3), 3: ("a", 2)},
        "b": {1: ("a", 1)},
        "c": {1: ("d", 1)},
        "d": {1: ("c", 1)},
    })


def test_unreachable_target_has_no_bounds_before_and_after_a_reachable_one():
    g = _disconnected_graph()
    assert g.entry_bounds("a", {"c"}) is None
    assert g.entry_bounds("a", {"b"}) == (1, 1)
    assert g.entry_bounds("a", {"c"}) is None
    assert g.entry_bounds("a", {"c", "d"}) is None
    assert g.entry_bounds("a", {"b", "c"}) == (1, 1)


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_types_below_the_bounds_never_enter_the_target(name, g):
    """Every type of value up to four times the weight with y below the hop
    distance or x below the least max port sweeps without entering the target."""
    for b, t in itertools.permutations(g.nodes(), 2):
        near, least = _bounds_by_brute_force(g, b, t)
        weight = character_weight(g, b, t).weight
        for mode in MODES:
            for m, delta in types_in_order(mode, sweep_bound(g.max_degree(), mode)):
                if value(m, delta) > 4 * weight:
                    break
                if delta >= near and m >= least:
                    continue
                visits = {}
                _sweep_type_fast(g, b, {t}, m, delta, 0, visits, NO_BUDGET)
                assert visits == {}, (b, t, m, delta)


def _index_by_counting(mode, n_types):
    """(type, paths before it), by the running count over every earlier type."""
    total = 0
    for t in itertools.islice(types_in_order(mode), n_types):
        yield t, total
        total += count_of_type(*t)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_index_of_path_matches_the_counting_loop(mode):
    for (m, d), before in _index_by_counting(mode, 2000):
        first = (1,) * (d - 1) + (m,)
        last = (m,) * d
        assert index_of_path(first, mode) == before + 1
        assert index_of_path(last, mode) == before + count_of_type(m, d)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("max_port", [1, 2, 3, 7])
def test_bounded_stream_is_the_filtered_stream(mode, max_port):
    if mode is EnumMode.STRICT and max_port == 1:
        with pytest.raises(ValueError):
            next(types_in_order(mode, max_port))
        return
    full = list(itertools.islice(types_in_order(mode), 3000))
    for min_port, min_length in itertools.product([1, 2, 3, 5], [1, 2, 4, 9]):
        if min_port > max_port:
            with pytest.raises(ValueError):
                next(types_in_order(mode, max_port, min_port=min_port, min_length=min_length))
            continue
        kept = [(x, y) for x, y in full if min_port <= x <= max_port and y >= min_length]
        stream = types_in_order(mode, max_port, min_port=min_port, min_length=min_length)
        assert list(itertools.islice(stream, len(kept))) == kept


def test_max_degree_and_sweep_bound():
    assert two_node().max_degree() == 1
    assert builtin("complete", [5]).max_degree() == 4
    assert truncated_tree_omega(2, 12).max_degree() == 12
    ring = builtin("ring", [6])
    assert relabeled(ring, {v: "x" + v for v in ring.nodes()}).max_degree() == 2
    assert TreeOmega().max_degree() is None
    for d in (1, 2, 3, 7):
        assert TreeRegular(d).max_degree() == d
    assert sweep_bound(None, EnumMode.FIXED) is None
    assert sweep_bound(1, EnumMode.FIXED) == 1
    assert sweep_bound(1, EnumMode.STRICT) is None  # the two-node graph hits in (2, 2)
    assert sweep_bound(4, EnumMode.STRICT) == 4


def _criterion_3_instances():
    out = []
    for g in hunt_battery(count=50):
        out.extend((g, b, t) for b, t in itertools.permutations(sorted(g.nodes()), 2))
    tree = truncated_tree_omega(2, 12)
    out.extend((tree, b, t) for b, t in itertools.permutations(truncated_tree_sample_nodes(), 2))
    return out


def _counting(monkeypatch, module, counts):
    original = module.types_in_order

    def counted(*args, **kwargs):
        for t in original(*args, **kwargs):
            counts[module.__name__] += 1
            yield t
    monkeypatch.setattr(module, "types_in_order", counted)


def _counting_calls(monkeypatch, name, counts):
    original = getattr(FiniteGraph, name)

    def counted(self, *args):
        counts[name] += 1
        return original(self, *args)
    monkeypatch.setattr(FiniteGraph, name, counted)


def test_criterion_3_work_is_pinned(monkeypatch):
    counts = {hunt_engine.__name__: 0, weight_oracle.__name__: 0}
    for module in (hunt_engine, weight_oracle):
        _counting(monkeypatch, module, counts)
    nav = {"degree": 0, "neighbor": 0, "_walk_counts": 0}
    for name in nav:
        _counting_calls(monkeypatch, name, nav)
    steps = 0
    instances = _criterion_3_instances()
    for g, b, t in instances:
        o = character_weight(g, b, t)
        steps += run_uth(g, b, t, HuntConfig(max_steps=2 * o.weight)).steps
    # only the types between the entry bounds and the max degree are swept
    assert counts == {hunt_engine.__name__: 1936, weight_oracle.__name__: 1936}
    assert steps == 153544
    # one degree read per expanded prefix-tree node and one neighbor call per
    # prefix-tree edge; the entry bounds and the charges read the graph's rows,
    # and a walk-count recurrence runs only when a kept (base, w) list grows
    assert nav == {"degree": 13434, "neighbor": 13446, "_walk_counts": 1853}
    # the charges keep lists per (base, w <= max degree), none per swept type
    graphs = {id(g): g for g, _, _ in instances}.values()
    bases = {(id(g), b) for g, b, _ in instances}
    kept = [(id(g), b, w, g.max_degree()) for g in graphs for b, w in g._sweeps]
    assert len(kept) == 1157
    assert all((i, b) in bases and 1 <= w <= top for i, b, w, top in kept)


def test_criterion_7_tapes_are_built_once():
    """Each label's tape is built once per process: the criterion-7 battery,
    run twice from an empty memo, builds one tape per distinct label, and
    every later walker and n-hat bound reads the kept one."""
    _tape.cache_clear()
    graphs = [g for _, g in rendezvous_graphs()]
    runs = 0
    for _ in range(2):
        for g in graphs:
            for v1, v2 in rendezvous_start_pairs(g):
                _, k1 = critical_path(g, v1, v2)
                _, k2 = critical_path(g, v2, v1)
                for l1, l2 in RENDEZVOUS_LABEL_PAIRS:
                    n_hat = max(k1 * len(trans(l1)), k2 * len(trans(l2)))
                    for delay in RENDEZVOUS_DELAYS:
                        r = run_urv(g, (v1, l1), (v2, l2), RvConfig(delay=delay))
                        assert r.met and r.meeting_round <= delay + bound_time(n_hat)
                        runs += 1
    labels = {label for pair in RENDEZVOUS_LABEL_PAIRS for label in pair}
    info = _tape.cache_info()
    assert runs == 1024 and len(labels) == 12
    assert info.misses == info.currsize == len(labels)
    # one read per walker (two per run) and two per n-hat (one per four runs)
    assert info.hits + info.misses == 2 * runs + runs // 2


def _counting_searches(monkeypatch, counts):
    for name in counts:
        def counted(*args, original=getattr(port_graph, name), name=name):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(port_graph, name, counted)


def _criterion_3_outputs(instances):
    out = {}
    for g, b, t in instances:
        o = character_weight(g, b, t)
        r = run_uth(g, b, t, HuntConfig(max_steps=2 * o.weight))
        out[id(g), b, t] = (r.steps, r.found_type, r.visit_prefix,
                            o.character, o.weight, o.witness_index)
    return out


def test_entry_bounds_search_once_per_graph_and_base(monkeypatch):
    """The oracle and the hunt share one bucket search and one BFS per base."""
    instances = _criterion_3_instances()
    searches = {"least_max_ports": 0, "distances": 0}
    _counting_searches(monkeypatch, searches)
    _criterion_3_outputs(instances[:1])
    assert searches == {"least_max_ports": 1, "distances": 1}
    _criterion_3_outputs(instances)
    assert len({(id(g), b) for g, b, _ in instances}) == 287
    assert searches == {"least_max_ports": 287, "distances": 287}


def test_query_order_changes_no_output(monkeypatch):
    """The kept bounds carry state from one query to the next: the criterion-3
    pairs give the same outputs in order and then, on the same graphs,
    shuffled, which searches from no base again."""
    instances = _criterion_3_instances()
    searches = {"least_max_ports": 0, "distances": 0}
    _counting_searches(monkeypatch, searches)
    in_order = _criterion_3_outputs(instances)
    shuffled = list(instances)
    random.Random(1).shuffle(shuffled)
    assert _criterion_3_outputs(shuffled) == in_order
    assert searches == {"least_max_ports": 287, "distances": 287}


def test_ring_cliff_is_gone():
    g = builtin("ring", [40])
    o = character_weight(g, "0", "20", cap=10 ** 8)
    assert (o.character, o.weight, o.witness_index) == ((1, 20), 20971520, 14415283)
    r = run_uth(g, "0", "20", HuntConfig(max_steps=2 * o.weight))
    assert (r.steps, r.found_type, r.visit_prefix) == (280958, (1, 20), (1,) * 20)


RING_PINS = [
    (128, 1180591620717411303424, 818211047910047119948, 78405809572864488),
    (256, 43556142965880123323311949751266331066368,
     30190770933503118608479013040393435436592, 26688091563962032746024922340982400),
]


@pytest.mark.parametrize("n,weight,index,steps", RING_PINS, ids=[f"ring:{p[0]}" for p in RING_PINS])
def test_far_pair_on_large_rings_is_pinned(n, weight, index, steps):
    """Oracle and hunt from 0 to n/2: every type but (1, n/2) is charged or skipped."""
    g = builtin("ring", [n])
    half = n // 2
    o = character_weight(g, "0", str(half), cap=weight)
    assert (o.character, o.weight, o.witness_index) == ((1, half), weight, index)
    assert o.witness == (1,) * half
    r = run_uth(g, "0", str(half), HuntConfig(max_steps=steps))
    assert (r.steps, r.found_type, r.visit_prefix) == (steps, (1, half), (1,) * half)
    with pytest.raises(StepBudgetExceeded):
        run_uth(g, "0", str(half), HuntConfig(max_steps=steps - 1))


def test_disconnected_graph_ends_with_budget_errors():
    """A target outside the base's component: no type can enter it."""
    g = _disconnected_graph()
    with pytest.raises(CapExceeded):
        character_weight(g, "a", "c", cap=10 ** 30)
    for mode in MODES:
        with pytest.raises(StepBudgetExceeded):
            run_uth(g, "a", "c", HuntConfig(mode=mode, max_steps=10 ** 30))
        # b is found first; the budget runs out on the sweeps that follow
        with pytest.raises(StepBudgetExceeded):
            first_visit_times(g, "a", ["b", "c"], mode, max_steps=10 ** 6)
