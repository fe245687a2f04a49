"""The porthunt benchmark: run one seeded workload (or all), check, report.

    python3 perfbench/run.py --workload hunt-battery --seed 20240811 --seconds 55 --trace 0

Prints a report and then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` measures
the end-to-end metrics untraced; ``--trace 1`` runs one untraced pass to
price the tracing, then traced passes for the per-layer metrics, and writes
the spans to ``.perfbench_out/``.  Metric names and units come from
``BENCHMARK.json``; the recorded digests and counts from ``baseline.json``.

Exit status: 0 after a report (even one with failed checks), 2 when the
sources or the arguments are missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("hunt-battery", "rv-battery")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, help="input seed (default: battery.DEFAULT_SEED)")
    p.add_argument("--seconds", type=float, default=55.0, help="measuring time of a run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds(workload: str, seed: int):
    """Median wall time of SETUP_PROBES fresh processes that only set up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms
        subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times), times


def judge(wl, seed, digests, recorded, default_seed):
    """(correct, notes): passes agree, and match the recorded digest where it applies."""
    notes = []
    correct = len(set(digests)) == 1
    if not correct:
        notes.append("passes disagree: " + ", ".join(sorted(set(digests))))
    if seed == default_seed or wl.seed_free_outputs:
        expected = recorded.get("digest")
        if expected is None:
            correct = False
            notes.append(f"digest {digests[0]}: nothing recorded for this workload")
        elif digests[0] != expected:
            correct = False
            notes.append(f"digest {digests[0]} differs from the recorded {expected}")
        else:
            notes.append(f"digest {digests[0][:16]} matches the recorded one")
    else:
        notes.append(f"digest {digests[0][:16]} (recorded only for outputs the seed cannot change)")
    return correct, notes


def emit(metrics_spec, values, correct, attempted, failed):
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def report_checks(s):
    ratio = s.failed / s.attempted
    print(f"  checks      {s.checks_per_pass} per pass, {s.passes} passes; "
          f"fail_ratio {ratio:.6g} ({s.failed} failed of {s.attempted} attempted)")
    for name, n in sorted(s.failures.items()):
        print(f"    failed: {n} x {name}")
    for line in s.mismatches[:10]:
        print(f"    mismatch: {line}")


def report_scaling(s):
    if s.scaling:
        print("  scaling (median ms per check, by size class):")
        for (label, value), (n, ms) in s.scaling.items():
            print(f"    {label} {value:<10} {n:6d} checks {ms:12.3f} ms")


def run_untraced(args, spec, wl, recorded, default_seed):
    from perfbench import harness, tracing

    setup_s, probes = setup_seconds(args.workload, args.seed)
    passes = harness.repeat(wl, tracing.plain_api(), args.seconds)
    s = harness.summarise(passes)
    correct, notes = judge(wl, args.seed, s.digests, recorded, default_seed)
    correct = correct and not s.mismatches
    values = {
        "setup_s": setup_s,
        "wall_s": s.wall_s,
        "check_p50_ms": s.check_p50_ms,
        "check_tail_ms": s.check_tail_ms,
        "peak_rss_mb": s.peak_rss_mb,
    }
    print(f"porthunt benchmark: workload {args.workload}, seed {args.seed}, untraced")
    report_checks(s)
    print(f"  setup_s       {setup_s:12.6f} s   median of {SETUP_PROBES} process starts "
          f"({min(probes):.4f} .. {max(probes):.4f})")
    print(f"  wall_s        {s.wall_s:12.6f} s   median of {s.passes} passes")
    print(f"  check_p50_ms  {s.check_p50_ms:12.6f} ms  median of {s.attempted} checks")
    print(f"  check_tail_ms {s.check_tail_ms:12.6f} ms  p{s.tail_percentile:.2f} of "
          f"{s.checks_per_pass} checks per pass, median of {s.passes} passes")
    print(f"  peak_rss_mb   {s.peak_rss_mb:12.6f} MB  peak resident memory through set-up and one pass")
    for note in notes:
        print(f"  {note}")
    report_scaling(s)
    emit(spec["end_to_end"], values, correct, s.attempted, s.failed)


def run_traced(args, spec, wl, build_s, recorded, default_seed):
    from perfbench import harness, tracing

    plain = harness.run_pass(wl, tracing.plain_api())
    tr = tracing.Tracer()
    per_pass = []

    def collect():
        per_pass.append(tracing.layer_metrics(tr))
        tr.reset()

    with tracing.instrument(tr) as api:
        passes = harness.repeat(wl, api, args.seconds - plain.wall_s, tr, collect)
    s = harness.summarise(passes)
    correct, notes = judge(wl, args.seed, [plain.digest] + s.digests, recorded, default_seed)
    correct = correct and not s.mismatches and not plain.mismatches
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    for name in tracing.COUNTS:
        seen = {p[name] for p in per_pass}
        if len(seen) > 1:
            correct = False
            notes.append(f"{name} differs between traced passes: {sorted(seen)}")
        values[name] = per_pass[0][name]
    values["battery.build_s"] = build_s
    if args.seed == default_seed and "counts" in recorded:
        moved = {n: (v, values[n]) for n, v in recorded["counts"].items() if values[n] != v}
        notes.append("counts: " + ("identical to the recorded ones" if not moved else
                     "; ".join(f"{n} {a} -> {b}" for n, (a, b) in moved.items())))

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for sid, name, start, end, parent, check, covered in tr.spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                 "parent": parent, "check": check,
                                 "self": end - start - covered}) + "\n")

    print(f"porthunt benchmark: workload {args.workload}, seed {args.seed}, traced")
    report_checks(s)
    print(f"  tracing overhead {s.wall_s - plain.wall_s:.6f} s per pass "
          f"(traced {s.wall_s:.6f} s, median of {s.passes}; untraced {plain.wall_s:.6f} s)")
    print(f"  timer cost subtracted per fine-grained call: {tr.bias * 1e9:.1f} ns")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<38} {values[m['name']]:>22.6f} {m['unit']}")
    for note in notes:
        print(f"  {note}")
    print(f"  spans: {len(tr.spans)} written to {spans_path.relative_to(ROOT)}")
    emit(spec["per_layer"], values, correct, s.attempted, s.failed)


def run_all(args):
    """Each workload in its own process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "porthunt" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no porthunt sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    if args.seed is None:
        args.seed = DEFAULT_SEED
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    recorded = baseline.get("workloads", {}).get(args.workload, {})
    t0 = perf_counter()
    wl = WORKLOADS[args.workload](args.seed)
    build_s = perf_counter() - t0
    if args.trace:
        run_traced(args, spec, wl, build_s, recorded, DEFAULT_SEED)
    else:
        run_untraced(args, spec, wl, recorded, DEFAULT_SEED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
