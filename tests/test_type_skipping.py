"""Degree-bounded type skipping, cross-checked against sweeping every type.

The hunt and the oracle sweep only the types whose max port is at most the
graph's max degree and account for the others in closed form.  The
references here sweep or count every type, as the engines did before.
"""

import itertools

import pytest

from porthunt import hunt_engine, weight_oracle
from porthunt.battery import hunt_battery, path3_graph, truncated_tree_sample_nodes
from porthunt.errors import StepBudgetExceeded
from porthunt.hunt_engine import (
    HuntConfig,
    _SkippedTypes,
    _sweep_type_fast,
    first_visit_times,
    run_uth,
)
from porthunt.path_algebra import (
    EnumMode,
    count_of_type,
    index_of_path,
    sweep_bound,
    types_in_order,
)
from porthunt.port_graph import (
    FiniteGraph,
    RelabeledGraph,
    TreeOmega,
    TreeRegular,
    builtin,
    truncated_tree_omega,
    two_node,
)
from porthunt.weight_oracle import character_weight

MODES = [EnumMode.FIXED, EnumMode.STRICT]


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
        steps = _sweep_type_fast(g, base, targets, m, delta, steps, visits)
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


TREE_HUNTS = [(1, "r/1"), (2, "r/2/1/1/1"), (3, "r/1/2"), (3, "r/3/2/2"), (4, "r/4/3/2")]


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("d,treasure", TREE_HUNTS, ids=[f"{d}:{t}" for d, t in TREE_HUNTS])
def test_skipping_on_tree_regular_matches_sweeping_every_type(d, treasure, mode):
    g = TreeRegular(d)
    visits = {}
    steps = 0
    for m, delta in types_in_order(mode):
        steps = _sweep_type_fast(g, "r", {treasure}, m, delta, steps, visits)
        if visits:
            break
    s, ptype, prefix = visits[treasure]
    r = run_uth(g, "r", treasure, HuntConfig(mode=mode, max_steps=s))
    assert (r.steps, r.found_type, r.visit_prefix) == (s, ptype, prefix)
    assert s == 1 or _raises(g, "r", treasure, mode, s - 1)


CHARGE_GRAPHS = [(name, g) for name, g in GRAPHS
                 if name in ("two_node", "path3", "ring:5", "complete:4", "battery:0", "battery:7")]


@pytest.mark.parametrize("name,g", CHARGE_GRAPHS, ids=[name for name, _ in CHARGE_GRAPHS])
def test_run_charge_equals_the_sweeps_of_its_types(name, g):
    delta = g.max_degree()
    for base in g.nodes()[:2]:
        skipped = _SkippedTypes(g, base, delta)
        for y in range(1, 6):
            for a, b in ((delta, delta + 1), (delta, delta + 3), (delta + 2, delta + 5)):
                swept = sum(_sweep_type_fast(g, base, set(), x, y, 0, {})
                            for x in range(a + 1, b + 1))
                assert skipped.run_cost(y, a, b) == swept


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
    full = [t for t in itertools.islice(types_in_order(mode), 3000) if t[0] <= max_port]
    assert list(itertools.islice(types_in_order(mode, max_port), len(full))) == full


def test_max_degree_and_sweep_bound():
    assert two_node().max_degree() == 1
    assert builtin("complete", [5]).max_degree() == 4
    assert truncated_tree_omega(2, 12).max_degree() == 12
    ring = builtin("ring", [6])
    assert RelabeledGraph(ring, {v: "x" + v for v in ring.nodes()}).max_degree() == 2
    for lazy in (TreeOmega(), RelabeledGraph(TreeOmega(), {"r": "root"})):
        assert lazy.max_degree() is None
    for d in (1, 2, 3, 7):
        assert TreeRegular(d).max_degree() == d
    assert RelabeledGraph(TreeRegular(3), {"r": "root"}).max_degree() == 3
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
    nav = {"degree": 0, "neighbor": 0}
    for name in nav:
        _counting_calls(monkeypatch, name, nav)
    steps = 0
    for g, b, t in _criterion_3_instances():
        o = character_weight(g, b, t)
        steps += run_uth(g, b, t, HuntConfig(max_steps=2 * o.weight)).steps
    assert counts == {hunt_engine.__name__: 14611, weight_oracle.__name__: 14611}
    assert steps == 153544
    # one degree read per expanded prefix-tree node, not one per probed port
    assert nav == {"degree": 84320, "neighbor": 92330}


def test_ring_cliff_is_gone():
    g = builtin("ring", [40])
    o = character_weight(g, "0", "20", cap=10 ** 8)
    assert (o.character, o.weight, o.witness_index) == ((1, 20), 20971520, 14415283)
    r = run_uth(g, "0", "20", HuntConfig(max_steps=2 * o.weight))
    assert (r.steps, r.found_type, r.visit_prefix) == (280958, (1, 20), (1,) * 20)
