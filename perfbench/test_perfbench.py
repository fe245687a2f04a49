"""Self-tests of the benchmark:  python3 -m pytest perfbench -q"""

import itertools
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import harness, tracing
from perfbench.run import WORKLOAD_NAMES
from perfbench.workloads import (
    DEFAULT_SEED,
    WORKLOADS,
    Check,
    hunt_battery_instances,
    verify,
)
from porthunt import battery, hunt_engine, path_algebra
from porthunt.port_graph import FiniteGraph, TreeOmega, builtin, truncated_tree_omega

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _small(name, seed=DEFAULT_SEED):
    """The first checks of a workload, plus its lower-bound checks."""
    wl = WORKLOADS[name](seed)
    extra = [c for c in wl.checks[12:] if c.key[0] == "lowerbound"]
    return replace(wl, checks=wl.checks[:12] + extra)


def test_default_hunt_battery_is_the_criterion_3_set():
    expected = []
    for g in battery.hunt_battery(count=50):
        ns = sorted(g.nodes())
        expected += [(g.adjacency, b, t) for b, t in itertools.permutations(ns, 2)]
    tree = truncated_tree_omega(2, 12)
    sample = battery.truncated_tree_sample_nodes()
    expected += [(tree.adjacency, b, t) for b, t in itertools.permutations(sample, 2)]
    got = [(g.adjacency, b, t) for _key, g, b, t in hunt_battery_instances(DEFAULT_SEED)]
    assert len(got) == 1576
    assert got == expected


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_runs_agree(name):
    wl = _small(name)
    plain = harness.run_pass(wl, tracing.plain_api())
    assert plain.failed == 0
    tr = tracing.Tracer()
    counts = []
    with tracing.instrument(tr) as api:
        for _ in range(2):
            traced = harness.run_pass(wl, api, tr)
            assert traced.digest == plain.digest
            metrics = tracing.layer_metrics(tr)
            counts.append({k: metrics[k] for k in tracing.COUNTS})
            tr.reset()
    assert counts[0] == counts[1]
    assert counts[0]["path_algebra.types_yielded"] > 0
    # the patches are gone once the block ends
    assert hunt_engine.types_in_order is path_algebra.types_in_order
    assert FiniteGraph.degree.__qualname__ == "FiniteGraph.degree"
    assert "degree" not in vars(TreeOmega) and "neighbor" not in vars(TreeOmega)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_decides_the_inputs(name):
    first = [c.inputs for c in WORKLOADS[name](1).checks]
    assert first == [c.inputs for c in WORKLOADS[name](1).checks]
    assert first != [c.inputs for c in WORKLOADS[name](2).checks]


def test_seed_free_outputs_keep_their_digest():
    assert WORKLOADS["hunt-battery"](1).seed_free_outputs
    default = _small("hunt-battery")
    keys = {c.key for c in default.checks}
    other = WORKLOADS["hunt-battery"](1)
    other = replace(other, checks=[c for c in other.checks if c.key in keys])
    api = tracing.plain_api()
    assert harness.run_pass(other, api).digest == harness.run_pass(default, api).digest


def test_failures_are_counted_and_the_pass_goes_on():
    wl = _small("hunt-battery")
    ring = builtin("ring", [9])

    def capped(api, ctx):  # weight 64 is above the cap: the oracle raises CapExceeded
        api.character_weight(ring, "0", "4", cap=10)

    def wrong(api, ctx):
        verify(False, "injected")

    injected = replace(wl, checks=[Check(("x", 1), (), capped), Check(("x", 2), (), wrong)]
                       + wl.checks)
    api = tracing.plain_api()
    clean = harness.run_pass(wl, api)
    dirty = harness.run_pass(injected, api)
    assert clean.failed == 0
    assert dirty.attempted == clean.attempted + 2
    assert dirty.failures == {"CapExceeded": 1, "Mismatch": 1}
    assert dirty.digest != clean.digest
    s = harness.summarise([dirty])
    assert s.failed / s.attempted == 2 / dirty.attempted


def test_tail_has_ten_checks_beyond_it():
    lat = [float(i) for i in range(100)]
    value, pct = harness.tail(lat)
    assert sum(x > value for x in lat) == harness.TAIL_BEYOND
    assert pct == 90.0


def test_spec_baseline_and_code_name_the_same_things():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(WORKLOAD_NAMES)
    tr = tracing.Tracer()
    layer_names = set(tracing.layer_metrics(tr)) | {"battery.build_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    baseline = json.loads((HERE / "baseline.json").read_text())
    for name in WORKLOADS:
        recorded = baseline["workloads"][name]
        assert set(recorded["counts"]) == set(tracing.COUNTS)
        assert len(recorded["digest"]) == 64


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hunt-battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "no porthunt sources" in proc.stderr
    assert '"metrics"' not in proc.stdout
