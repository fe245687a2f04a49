"""End-to-end acceptance checks.

Each test records exactly one verdict line (see conftest.py) covering one
exit criterion, with explicit tolerances and time budgets where they apply.
"""

import functools
import itertools
import random
import time

from porthunt.battery import (
    RENDEZVOUS_DELAYS,
    RENDEZVOUS_LABEL_PAIRS,
    hunt_battery,
    rendezvous_graphs,
    truncated_tree_sample_nodes,
)
from porthunt.experiments_cli import check_lowerbound
from porthunt.hunt_engine import HuntConfig, run_uth
from porthunt.path_algebra import (
    EnumMode,
    count_of_type,
    paths_of_type,
    value,
)
from porthunt.port_graph import (
    TreeOmega,
    TreeRegular,
    builtin,
    tree_node,
    truncated_tree_omega,
    two_node,
    validate,
)
from porthunt.rendezvous_engine import (
    RvConfig,
    bound_time,
    run_urv,
    trans,
)
from porthunt.weight_oracle import character_weight, critical_path

from instances import compare_star, multi_route_example, relabeled, rendezvous_start_pairs


def tape_bit(label, i):
    """i-th bit (1-based) of the infinite periodic tape of a label."""
    seg = trans(label)
    return seg[(i - 1) % len(seg)]


def _hunt_instances():
    """All ordered node pairs of the random battery and the truncated tree."""
    out = []
    for g in hunt_battery(count=50):
        ns = sorted(g.nodes())
        out.extend((g, b, t) for b, t in itertools.permutations(ns, 2))
    tree = truncated_tree_omega(2, 12)
    sample = truncated_tree_sample_nodes()
    out.extend((tree, b, t) for b, t in itertools.permutations(sample, 2))
    return out


@functools.lru_cache(maxsize=1)
def _hunt_sweep():
    """Run every battery hunt with the step cap pinned at exactly 2w."""
    start = time.monotonic()
    records = []
    for g, b, t in _hunt_instances():
        oracle = character_weight(g, b, t)
        result = run_uth(g, b, t, HuntConfig(max_steps=2 * oracle.weight))
        records.append((result, oracle))
    return time.monotonic() - start, records


def test_criterion_01_worked_example(criterion):
    g, u, v = multi_route_example()
    r = character_weight(g, u, v)
    ok = (
        r.character == (4, 2)
        and r.weight == 128
        and r.witness == (4, 3)
        and value(2, 4) == 1024
        and value(10, 2) == 800
        and value(4, 2) == value(64, 1) == 128
    )
    criterion(1, "four-route worked example: character (4,2), weight 128", ok)


def test_criterion_02_type_count_law(criterion):
    ok = all(
        len(list(paths_of_type(m, d))) == count_of_type(m, d) == m ** d - (m - 1) ** d
        for m in range(2, 6)
        for d in range(1, 6)
    )
    criterion(2, "path counts match m^d - (m-1)^d for 2<=m<=5, 1<=d<=5", ok)


def test_criterion_03_hunt_bound(criterion):
    elapsed, records = _hunt_sweep()
    ok = all(r.found and r.steps <= 2 * o.weight for r, o in records)
    ok = ok and elapsed < 60.0
    criterion(
        3,
        f"hunt finishes within 2w on {len(records)} battery instances "
        f"({elapsed:.1f}s < 60s)",
        ok,
    )


def test_criterion_04_exact_phase_agreement(criterion):
    _, records = _hunt_sweep()
    ok = all(
        r.found_type == o.character
        and r.found_phase_value == o.weight
        and o.witness_index <= o.weight
        for r, o in records
    )
    criterion(4, "hunts end in the oracle's phase; witness index <= weight", ok)


def test_criterion_05_adversarial_lower_bound(criterion):
    reports = [check_lowerbound(i) for i in (1, 2, 4, 8, 16)]
    ok = all(rep.passed and rep.measured >= rep.bound for rep in reports)
    criterion(5, "adversarial tree placements need >= weight/4 steps (i up to 16)", ok)


def test_criterion_06_strict_mode_gap(criterion):
    g = two_node()
    fixed = run_uth(g, "u", "v", HuntConfig(mode=EnumMode.FIXED))
    strict = run_uth(g, "u", "v", HuntConfig(mode=EnumMode.STRICT))
    w = character_weight(g, "u", "v").weight
    ok = (
        fixed.found_phase_value == w == 2
        and strict.found_phase_value == 32
        and strict.found_phase_value > 2 * w
    )
    criterion(6, "skipping all-ones types overshoots the weight on the two-node graph", ok)


def test_criterion_07_rendezvous_battery(criterion):
    start = time.monotonic()
    runs = 0
    ok = True
    for _name, g in rendezvous_graphs():
        for v1, v2 in rendezvous_start_pairs(g):
            _, k1 = critical_path(g, v1, v2)
            _, k2 = critical_path(g, v2, v1)
            for l1, l2 in RENDEZVOUS_LABEL_PAIRS:
                n_hat = max(k1 * len(trans(l1)), k2 * len(trans(l2)))
                for delay in RENDEZVOUS_DELAYS:
                    r = run_urv(g, (v1, l1), (v2, l2), RvConfig(delay=delay))
                    runs += 1
                    ok = ok and r.met and r.meeting_round <= delay + bound_time(n_hat)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    criterion(
        7,
        f"{runs} rendezvous runs all meet within delay + cumulative-time bound "
        f"({elapsed:.1f}s < 300s)",
        ok,
    )


def test_criterion_08_reference_meeting_round(criterion):
    r = run_urv(two_node(), ("u", 1), ("v", 2))
    ok = r.met and r.meeting_round == 43
    criterion(8, "labels 1 and 2 on the two-node graph meet at round 43", ok)


def test_criterion_09_schedule_identities(criterion):
    ok = all(
        bound_time(n) == bound_time(n - 1) + 3 * n * n for n in range(2, 1001)
    ) and bound_time(1) == 3
    for label in range(1, 65):
        s = len(trans(label))
        ok = ok and s == 2 * label.bit_length() + 2
        ok = ok and all(
            tape_bit(label, i) == tape_bit(label, i + s) for i in range(1, 10 * s + 1)
        )
    ok = ok and all(
        len(trans(label)) == 2 * label.bit_length() + 2 for label in range(1, 1025)
    )
    criterion(9, "allocation sum, tape periodicity and block-length identities", ok)


def test_criterion_10_structural_properties(criterion):
    ok = all(not validate(g) for g in hunt_battery(count=50))
    tree_sample = [tree_node(), tree_node(2), tree_node(2, 7), tree_node(5, 1, 3)]
    ok = ok and not validate(TreeOmega(), sample_nodes=tree_sample, port_cap=25)
    ok = ok and not validate(
        TreeRegular(4),
        sample_nodes=[tree_node(), tree_node(1), tree_node(1, 2)],
        port_cap=4,
    )

    rng = random.Random(0)
    for _ in range(1000):
        a = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 6)))
        b = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 6)))
        c = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 6)))
        ok = ok and compare_star(a, b) == -compare_star(b, a)
        ok = ok and (compare_star(a, b) == 0) == (a == b)
        if compare_star(a, b) <= 0 and compare_star(b, c) <= 0:
            ok = ok and compare_star(a, c) <= 0

    for g in hunt_battery(count=5):
        ns = sorted(g.nodes())
        mapping = {v: f"renamed-{v}" for v in g.nodes()}
        rg = relabeled(g, mapping)
        ok = ok and not validate(rg)
        r1 = run_uth(g, ns[0], ns[-1])
        r2 = run_uth(rg, mapping[ns[0]], mapping[ns[-1]])
        ok = ok and (r1.steps, r1.found_type, r1.visit_prefix) == (
            r2.steps,
            r2.found_type,
            r2.visit_prefix,
        )
    criterion(
        10,
        "involution, order-law and relabeling-invariance property suites",
        ok,
    )
