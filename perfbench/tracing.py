"""Per-layer tracing of porthunt from outside the package.

``instrument(tracer)`` swaps, for the duration of a ``with`` block, the
public functions each layer exposes for timed wrappers, and returns the
traced ``api`` the checks call.  Nothing in ``src/`` changes:

* engine calls (``run_uth``, ``first_visit_times``, ``character_weight``,
  ``critical_path``, ``run_urv``, ``index_of_path``, ``check_lowerbound``)
  become spans: name, start, end, parent span and check id;
* the type stream (``types_in_order``, as each module imported it),
  ``global_paths`` and graph navigation (``neighbor``/``degree`` of finite
  graphs and of ``tree_omega``) are too fine for one span per call, so each
  call is counted and its time added to the layer's busy time and to the
  self-time deduction of the innermost open span.  A type is booked as swept
  by the hunt (``run_uth``) or searched by the oracle (``character_weight``,
  ``critical_path``) when one of those calls is the innermost engine call.

A span's self time is its duration minus the time its child spans and the
fine-grained calls inside it cover.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, List

from porthunt import experiments_cli, hunt_engine, path_algebra, rendezvous_engine, weight_oracle
from porthunt.port_graph import FiniteGraph, TreeOmega


def timer_cost(rounds: int = 5, n: int = 20000) -> float:
    """What one read-to-read interval of perf_counter adds by itself."""
    best = math.inf
    for _ in range(rounds):
        total = 0.0
        for _ in range(n):
            t0 = perf_counter()
            total += perf_counter() - t0
        best = min(best, total / n)
    return best


def max_degree(g) -> float:
    adj = getattr(g, "adjacency", None)
    return max(map(len, adj.values())) if adj is not None else math.inf


class Tracer:
    def __init__(self) -> None:
        self.bias = timer_cost()
        self.spans: List[tuple] = []  # (id, name, start, end, parent, check, covered)
        self.check = None  # id of the check being run
        self.delta = math.inf  # max degree of the graph the current engine call runs on
        self.sweeper = None  # layer whose type counts the current engine call feeds
        self.depth = 0  # nesting of fine-grained timed calls
        self._stack: List[list] = []  # open spans: [id, covered]
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        """Start a new pass: fresh counters, busy times and lazy-tree set."""
        self.counts: Counter = Counter()
        self.busy: Dict[str, float] = Counter()
        self.trees: set = set()
        self.first_span = len(self.spans)

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans.append((sid, name, start, end, parent, self.check, frame[1]))

    def fine(self, metric: str, elapsed: float) -> None:
        """Book one fine-grained call; only the outermost one covers the span."""
        elapsed -= self.bias
        self.busy[metric] += elapsed
        if self.depth == 0 and self._stack:
            self._stack[-1][1] += elapsed

    def pass_spans(self) -> List[tuple]:
        return self.spans[self.first_span:]


# --- wrappers -------------------------------------------------------------------

def _timed_types(tr: Tracer, orig):
    def types_in_order(*args, **kwargs):
        it = orig(*args, **kwargs)
        while True:
            tr.depth += 1
            t0 = perf_counter()
            t = next(it)
            elapsed = perf_counter() - t0
            tr.depth -= 1
            tr.fine("path_algebra.types_s", elapsed)
            counts = tr.counts
            counts["path_algebra.types_yielded"] += 1
            if tr.sweeper is not None:
                counts[f"{tr.sweeper}.types"] += 1
                if t[0] <= tr.delta:
                    counts[f"{tr.sweeper}.feasible_types"] += 1
            yield t
    return types_in_order


def _timed_paths(tr: Tracer, orig):
    def global_paths(*args, **kwargs):
        it = orig(*args, **kwargs)
        index = 0
        while True:
            tr.depth += 1
            t0 = perf_counter()
            path = next(it)
            elapsed = perf_counter() - t0
            tr.depth -= 1
            tr.fine("path_algebra.global_paths_s", elapsed)
            index += 1
            tr.counts["path_algebra.global_paths_yielded"] += 1
            if index > tr.counts["rendezvous_engine.path_index_max"]:
                tr.counts["rendezvous_engine.path_index_max"] = index
            yield path
    return global_paths


def _timed_nav(tr: Tracer, orig, counter: str, lazy: bool):
    def method(self, *args):
        tr.depth += 1
        t0 = perf_counter()
        try:
            return orig(self, *args)
        finally:
            elapsed = perf_counter() - t0
            tr.depth -= 1
            tr.fine("port_graph.nav_s", elapsed)
            tr.counts[counter] += 1
            if lazy:
                tr.trees.add(self)
    return method


def _span_call(tr: Tracer, name: str, fn, sweeper=None, after=None):
    """fn inside a span, its types booked to sweeper (fn's first argument is then the graph)."""
    def wrapper(*args, **kwargs):
        saved = tr.delta, tr.sweeper
        tr.sweeper = sweeper
        if sweeper is not None:
            tr.delta = max_degree(args[0])
        try:
            with tr.span(name):
                result = fn(*args, **kwargs)
        finally:
            tr.delta, tr.sweeper = saved
        if after is not None:
            after(result)
        return result
    return wrapper


def plain_api() -> SimpleNamespace:
    """The untraced layer functions the checks call."""
    return SimpleNamespace(
        run_uth=hunt_engine.run_uth,
        character_weight=weight_oracle.character_weight,
        critical_path=weight_oracle.critical_path,
        run_urv=rendezvous_engine.run_urv,
        index_of_path=path_algebra.index_of_path,
        check_lowerbound=experiments_cli.check_lowerbound,
    )


_MISSING = object()


@contextmanager
def instrument(tr: Tracer):
    """Patch the layers' public functions for the block; yield the traced api."""
    def add_steps(result):
        tr.counts["hunt_engine.steps"] += result.steps

    def add_rounds(result):
        tr.counts["rendezvous_engine.rounds"] += result.meeting_round

    types = _timed_types(tr, path_algebra.types_in_order)
    patches = [(module, "types_in_order", types)
               for module in (path_algebra, hunt_engine, weight_oracle)]
    patches += [
        (rendezvous_engine, "global_paths", _timed_paths(tr, rendezvous_engine.global_paths)),
        (experiments_cli, "first_visit_times",
         _span_call(tr, "hunt_engine.first_visit_times", experiments_cli.first_visit_times)),
    ]
    for cls, lazy in ((FiniteGraph, False), (TreeOmega, True)):
        for name in ("neighbor", "degree"):
            patches.append((cls, name, _timed_nav(tr, getattr(cls, name),
                                                  f"port_graph.{name}_calls", lazy)))
    api = SimpleNamespace(
        run_uth=_span_call(tr, "hunt_engine.run_uth", hunt_engine.run_uth,
                           "hunt_engine", add_steps),
        character_weight=_span_call(tr, "weight_oracle.character_weight",
                                    weight_oracle.character_weight, "weight_oracle"),
        critical_path=_span_call(tr, "weight_oracle.critical_path",
                                 weight_oracle.critical_path, "weight_oracle"),
        run_urv=_span_call(tr, "rendezvous_engine.run_urv", rendezvous_engine.run_urv,
                           after=add_rounds),
        index_of_path=_span_call(tr, "path_algebra.index_of_path", path_algebra.index_of_path),
        check_lowerbound=_span_call(tr, "experiments_cli.check_lowerbound",
                                    experiments_cli.check_lowerbound),
    )
    saved = [(owner, name, vars(owner).get(name, _MISSING)) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield api
    finally:
        for owner, name, original in saved:
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


# --- per-layer metrics ------------------------------------------------------------

def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tr: Tracer) -> Dict[str, float]:
    """The per-layer metrics of the pass traced since the last reset()."""
    dur: Dict[str, float] = Counter()
    own: Dict[str, float] = Counter()
    for _sid, name, start, end, _parent, _check, covered in tr.pass_spans():
        dur[name] += end - start
        own[name] += end - start - covered
    c, busy = tr.counts, tr.busy
    return {
        "path_algebra.types_yielded": c["path_algebra.types_yielded"],
        "path_algebra.types_s": busy["path_algebra.types_s"],
        "path_algebra.index_of_path_s": dur["path_algebra.index_of_path"],
        "path_algebra.global_paths_yielded": c["path_algebra.global_paths_yielded"],
        "path_algebra.global_paths_s": busy["path_algebra.global_paths_s"],
        "port_graph.neighbor_calls": c["port_graph.neighbor_calls"],
        "port_graph.degree_calls": c["port_graph.degree_calls"],
        "port_graph.nav_s": busy["port_graph.nav_s"],
        "port_graph.materialized_nodes": sum(t.materialized_count for t in tr.trees),
        "hunt_engine.run_uth_s": dur["hunt_engine.run_uth"],
        "hunt_engine.self_s": own["hunt_engine.run_uth"] + own["hunt_engine.first_visit_times"],
        "hunt_engine.types_swept": c["hunt_engine.types"],
        "hunt_engine.feasible_type_ratio": _ratio(c["hunt_engine.feasible_types"],
                                                  c["hunt_engine.types"]),
        "hunt_engine.steps": c["hunt_engine.steps"],
        "hunt_engine.first_visit_times_s": dur["hunt_engine.first_visit_times"],
        "weight_oracle.character_weight_s": dur["weight_oracle.character_weight"],
        "weight_oracle.critical_path_s": dur["weight_oracle.critical_path"],
        "weight_oracle.self_s": own["weight_oracle.character_weight"]
        + own["weight_oracle.critical_path"],
        "weight_oracle.types_searched": c["weight_oracle.types"],
        "weight_oracle.feasible_type_ratio": _ratio(c["weight_oracle.feasible_types"],
                                                    c["weight_oracle.types"]),
        "rendezvous_engine.run_urv_s": dur["rendezvous_engine.run_urv"],
        "rendezvous_engine.self_s": own["rendezvous_engine.run_urv"],
        "rendezvous_engine.rounds": c["rendezvous_engine.rounds"],
        "rendezvous_engine.path_index_max": c["rendezvous_engine.path_index_max"],
        "experiments_cli.check_lowerbound_s": dur["experiments_cli.check_lowerbound"],
    }


# Metrics that count work: identical in every pass and run of the same inputs.
COUNTS = (
    "path_algebra.types_yielded", "path_algebra.global_paths_yielded",
    "port_graph.neighbor_calls", "port_graph.degree_calls", "port_graph.materialized_nodes",
    "hunt_engine.types_swept", "hunt_engine.feasible_type_ratio", "hunt_engine.steps",
    "weight_oracle.types_searched", "weight_oracle.feasible_type_ratio",
    "rendezvous_engine.rounds", "rendezvous_engine.path_index_max",
)
