"""Running a workload's checks: timing, failure accounting and the digest."""

from __future__ import annotations

import hashlib
import resource
import statistics
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Tuple

from perfbench.workloads import Mismatch, Size, Workload

TAIL_BEYOND = 10  # the tail percentile is the highest one with this many checks beyond it


@dataclass
class PassResult:
    wall_s: float
    latencies: List[float]  # seconds, one per check, in check order
    sizes: List[Size]
    failures: Counter  # exception name (or "Mismatch") -> count
    mismatches: List[str]  # what each failed cross-check reported
    digest: str
    peak_rss_mb: float  # peak resident memory of the process so far

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_pass(workload: Workload, api, tracer=None) -> PassResult:
    """Run every check once.

    A check that raises (a budget or cap exhausted, or any other exception) or
    whose cross-check fails counts as failed under its exception name, and
    the pass goes on.  The digest hashes every check's outputs, or the name of
    its failure, in the order of the keys' repr.
    """
    ctx: dict = {}  # what checks of one pass share, e.g. critical-path indices
    latencies: List[float] = []
    sizes: List[Size] = []
    failures: Counter = Counter()
    mismatches: List[str] = []
    entries = []
    start = perf_counter()
    for i, check in enumerate(workload.checks):
        t0 = perf_counter()
        try:
            if tracer is None:
                size, outputs = check.run(api, ctx)
            else:
                tracer.check = i
                with tracer.span("check"):
                    size, outputs = check.run(api, ctx)
        except Mismatch as exc:
            size, outputs = None, ("failed", "Mismatch")
            failures["Mismatch"] += 1
            mismatches.append(f"{check.key}: {exc}")
        except Exception as exc:  # noqa: BLE001 - every failure is counted, the run goes on
            size, outputs = None, ("failed", type(exc).__name__)
            failures[type(exc).__name__] += 1
        latencies.append(perf_counter() - t0)
        sizes.append(size)
        entries.append((check.key, outputs))
    wall = perf_counter() - start
    h = hashlib.sha256()
    for key, outputs in sorted(entries, key=lambda e: repr(e[0])):
        h.update(repr((key, outputs)).encode())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return PassResult(wall, latencies, sizes, failures, mismatches, h.hexdigest(), peak_rss_mb)


def tail(latencies: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND checks beyond it."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return max(latencies), 100.0
    return sorted(latencies)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


@dataclass
class Summary:
    """Medians over the passes of a run.

    Medians, unlike best-of-n times, do not drift with the number of passes
    that fit in the run, which itself depends on the machine's speed.
    """
    passes: int
    checks_per_pass: int
    wall_s: float  # median wall time of a whole pass
    check_p50_ms: float  # median over every check of every pass
    check_tail_ms: float  # median over the passes of each pass's tail
    tail_percentile: float
    # after set-up and the first pass: later passes only add allocator
    # fragmentation, which would tie the peak to how many passes fit
    peak_rss_mb: float
    attempted: int
    failed: int
    failures: Counter
    mismatches: List[str]
    digests: List[str]
    scaling: Dict[Size, Tuple[int, float]]  # size -> (checks, median ms)


def summarise(passes: List[PassResult]) -> Summary:
    every = [x for p in passes for x in p.latencies]
    tails = [tail(p.latencies) for p in passes]
    by_size: Dict[Size, List[float]] = {}
    for p in passes:
        for size, x in zip(p.sizes, p.latencies):
            if size is not None:
                by_size.setdefault(size, []).append(x)
    failures: Counter = Counter()
    for p in passes:
        failures.update(p.failures)
    return Summary(
        passes=len(passes),
        checks_per_pass=passes[0].attempted,
        wall_s=statistics.median(p.wall_s for p in passes),
        check_p50_ms=1000 * statistics.median(every),
        check_tail_ms=1000 * statistics.median(t for t, _ in tails),
        tail_percentile=tails[0][1],
        peak_rss_mb=passes[0].peak_rss_mb,
        attempted=len(every),
        failed=sum(failures.values()),
        failures=failures,
        mismatches=[m for p in passes for m in p.mismatches],
        digests=[p.digest for p in passes],
        scaling={s: (len(xs), 1000 * statistics.median(xs)) for s, xs in sorted(by_size.items())},
    )


def repeat(workload: Workload, api, seconds: float, tracer=None,
           after_pass=None) -> List[PassResult]:
    """Whole passes, at least one, while the next one still fits in seconds."""
    passes: List[PassResult] = []
    start = perf_counter()
    while True:
        passes.append(run_pass(workload, api, tracer))
        if after_pass is not None:
            after_pass()
        elapsed = perf_counter() - start
        if elapsed + statistics.median(p.wall_s for p in passes) > seconds:
            return passes

