"""Command-line front end: hunts, rendezvous, oracle queries, experiments, bench.

Exit codes: 0 success, 1 failed bench check, 2 bad input (parse/unknown
node/precondition/unreadable file), 3 exhausted budget or cap.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    BadParams,
    CapExceeded,
    Disconnected,
    InvalidPorts,
    ParseError,
    PortHuntError,
    PreconditionError,
    RoundBudgetExceeded,
    StepBudgetExceeded,
    UnknownFamily,
    UnknownNode,
)
from .hunt_engine import TRACE_HEADER, HuntConfig, first_visit_times, run_uth
from .path_algebra import EnumMode, phase_types, value
from .port_graph import FAMILIES, PortGraph, builtin, from_text, tree_node
from .rendezvous_engine import (
    RV_TRACE_HEADER,
    RvConfig,
    bound_time,
    check_starts,
    run_urv,
    trans,
)
from .weight_oracle import DEFAULT_CAP, character_weight, critical_path

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3

_BAD_INPUT = (ParseError, UnknownNode, UnknownFamily, BadParams, InvalidPorts,
              Disconnected, PreconditionError, OSError)
_BUDGET = (StepBudgetExceeded, RoundBudgetExceeded, CapExceeded)


@dataclass
class ExperimentReport:
    kind: str
    instance: str
    measured: object
    oracle: object
    bound: object
    passed: bool

    def row(self) -> List[str]:
        return [self.kind, self.instance, str(self.measured), str(self.oracle),
                str(self.bound), "pass" if self.passed else "fail"]


REPORT_HEADER = ("kind", "instance", "measured", "oracle", "bound", "result")


def resolve_graph(ref: str) -> PortGraph:
    """Builtin reference ``name[:p1,p2,...]`` or a path to a graph text file."""
    name, _, params = ref.partition(":")
    if name in FAMILIES:
        try:
            args = [int(p) for p in params.split(",")] if params else []
        except ValueError:
            raise BadParams(f"{name} takes integer parameters, got {params!r}") from None
        return builtin(name, args)
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            return from_text(fh.read())
    except (OSError, UnicodeDecodeError):
        raise ParseError(f"no readable graph file or builtin: {ref!r}") from None


@contextmanager
def _trace_sink(path: Optional[str], header: Sequence[str]):
    """A CSV row writer for the trace file, or None without one."""
    if path is None:
        yield None
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        yield writer.writerow


# --- checks shared by commands and bench -------------------------------------
# Each check computes its oracle before it simulates: the oracle's value cap
# is the cheap guard against a run that would otherwise go on for a long time.

def check_hunt(graph_ref: str, base: str, treasure: str, mode: str, max_steps: int,
               cap: int, trace_path: Optional[str] = None) -> ExperimentReport:
    g = resolve_graph(graph_ref)
    oracle = character_weight(g, base, treasure, cap) if base != treasure else None
    with _trace_sink(trace_path, TRACE_HEADER) as sink:
        result = run_uth(g, base, treasure, HuntConfig(EnumMode(mode), max_steps, sink))
    instance = f"{graph_ref} {base}->{treasure} {mode}"
    if oracle is None:
        return ExperimentReport("hunt", instance, result.steps, 0, 0, result.steps == 0)
    bound = 2 * oracle.weight
    passed = result.steps <= bound
    if EnumMode(mode) is EnumMode.FIXED:
        passed = passed and result.found_phase_value == oracle.weight \
            and result.found_type == oracle.character
    return ExperimentReport("hunt", instance, result.steps, oracle.weight, bound, passed)


def check_weight(graph_ref: str, src: str, dst: str, cap: int) -> ExperimentReport:
    g = resolve_graph(graph_ref)
    r = character_weight(g, src, dst, cap)
    instance = f"{graph_ref} {src}->{dst}"
    passed = r.witness_index <= r.weight
    return ExperimentReport("weight", instance,
                            f"character={r.character} witness={r.witness} index={r.witness_index}",
                            r.weight, r.weight, passed)


def check_rv(graph_ref: str, start1: str, label1: int, start2: str, label2: int,
             delay: int, mode: str, max_rounds: int, cap: int,
             trace_path: Optional[str] = None) -> ExperimentReport:
    check_starts((start1, label1), (start2, label2), delay)
    g = resolve_graph(graph_ref)
    _, k1 = critical_path(g, start1, start2, cap)
    _, k2 = critical_path(g, start2, start1, cap)
    with _trace_sink(trace_path, RV_TRACE_HEADER) as sink:
        result = run_urv(g, (start1, label1), (start2, label2),
                         RvConfig(delay=delay, max_rounds=max_rounds,
                                  mode=EnumMode(mode), trace=sink))
    n_hat = max(k1 * len(trans(label1)), k2 * len(trans(label2)))
    bound = delay + bound_time(n_hat)
    instance = f"{graph_ref} ({start1},{label1})x({start2},{label2}) delay={delay}"
    passed = result.met and result.meeting_round <= bound
    return ExperimentReport("rv", instance, result.meeting_round, n_hat, bound, passed)


LOWERBOUND_MAX_STEPS = 10 ** 7


def check_lowerbound(i: int, max_steps: int = LOWERBOUND_MAX_STEPS) -> ExperimentReport:
    """Adversarial treasure placement on the infinite-degree tree: among the
    root's children reached by ports i+1..2i, put the treasure at the one the
    hunt visits last and check time >= weight/4.  That child is r/2i: r/j is
    first entered by the path (j,), as every other path into it starts with
    port j and has a larger type, and the types (j, 1) come in increasing j."""
    if i < 1:
        raise PreconditionError("i must be >= 1")
    r = 2 * i
    t = tree_node(r)
    measured = first_visit_times(builtin("tree_omega"), tree_node(), [t], max_steps=max_steps)[t]
    weight = 2 * r  # single edge through port r
    bound = weight / 4
    return ExperimentReport("lowerbound", f"tree_omega i={i} r={r}", measured,
                            weight, bound, measured >= bound)


def check_sleeper(graph_ref: str, start1: str, label1: int, start2: str,
                  max_rounds: int, cap: int) -> ExperimentReport:
    """Agent 2 never wakes up: the run must reduce to a hunt onto its node.

    No path before the critical path p (index k) has a feasible prefix that
    enters the dormant node, and every tape segment opens with a 1-bit, so
    agent 1 enters it exactly at step len(p) of segment k: round
    bound_time((k-1) * s) + len(p), with s = len(trans(label1)).  The run
    passes only at that round, which lies within the first
    n_hat = k * s bits."""
    g = resolve_graph(graph_ref)
    path, k = critical_path(g, start1, start2, cap)
    s = len(trans(label1))
    n_hat = k * s
    bound = bound_time(n_hat)
    exact = (bound_time((k - 1) * s) if k > 1 else 0) + len(path)
    result = run_urv(g, (start1, label1), (start2, label1 + 1),
                     RvConfig(delay=max_rounds, max_rounds=max_rounds))
    instance = f"{graph_ref} ({start1},{label1}) -> dormant {start2}"
    passed = result.met and result.meeting_node == start2 and result.meeting_round == exact
    return ExperimentReport("sleeper", instance, result.meeting_round, n_hat, bound, passed)


# --- the check table: argparse, main and bench are all built from it ----------

@dataclass(frozen=True)
class Param:
    """A check parameter: bench spec key ``key``, CLI flag ``--key`` (``_`` as ``-``)."""
    key: str
    type: type = str
    default: object = None  # None: required
    minimum: Optional[int] = None
    choices: Optional[Tuple[str, ...]] = None

    def validate(self, kind: str, v: object) -> object:
        if v is None:
            raise BadParams(f"{kind}: missing {self.key!r}")
        if type(v) is not self.type or (self.choices and v not in self.choices) \
                or (self.minimum is not None and v < self.minimum):
            rule = f" >= {self.minimum}" if self.minimum is not None else ""
            rule += f" in {list(self.choices)}" if self.choices else ""
            raise BadParams(f"{kind}: {self.key} must be {self.type.__name__}{rule}, got {v!r}")
        return v


@dataclass(frozen=True)
class Check:
    run: Callable[..., ExperimentReport]
    params: Tuple[Param, ...]  # in call order
    help: str
    traced: bool = False  # takes --trace FILE as a last argument

    def bind(self, kind: str, values: Mapping[str, object]) -> List[object]:
        """Validated call arguments from a bench spec or parsed flags."""
        return [p.validate(kind, values.get(p.key, p.default)) for p in self.params]


_MODES = ("fixed", "strict")
_GRAPH, _START1, _START2 = Param("graph"), Param("start1"), Param("start2")
_LABEL1 = Param("label1", int, minimum=1)
_MAX_ROUNDS = Param("max_rounds", int, RvConfig.max_rounds, 1)
_CAP = Param("cap", int, DEFAULT_CAP, 2)

CHECKS: Dict[str, Check] = {
    "hunt": Check(check_hunt, (
        _GRAPH, Param("base"), Param("treasure"),
        Param("mode", default=HuntConfig.mode.value, choices=_MODES),
        Param("max_steps", int, HuntConfig.max_steps, 1), _CAP),
        "run a treasure hunt and check the 2w bound", traced=True),
    "weight": Check(check_weight, (_GRAPH, Param("from"), Param("to"), _CAP),
                    "brute-force character/weight of a node pair"),
    "rv": Check(check_rv, (
        _GRAPH, _START1, _LABEL1, _START2, Param("label2", int, minimum=1),
        Param("delay", int, RvConfig.delay, 0),
        Param("mode", default=RvConfig.mode.value, choices=_MODES), _MAX_ROUNDS, _CAP),
        "run a rendezvous and check the cumulative-time bound", traced=True),
    "lowerbound": Check(check_lowerbound, (
        Param("i", int), Param("max_steps", int, LOWERBOUND_MAX_STEPS, 1)),
        "adversarial hunt on the infinite-degree tree"),
    "sleeper": Check(check_sleeper, (_GRAPH, _START1, _LABEL1, _START2, _MAX_ROUNDS, _CAP),
                     "rendezvous onto a never-woken agent"),
}


def _bench_row(spec: object) -> ExperimentReport:
    """Run one suite entry; a bad spec or a raised error is a failed row naming it."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    check = CHECKS.get(kind) if isinstance(kind, str) else None
    try:
        if check is None:
            raise BadParams(f"a check is an object with a kind in {list(CHECKS)}")
        return check.run(*check.bind(kind, spec))
    except PortHuntError as exc:
        return ExperimentReport(kind if check else "unknown", json.dumps(spec, sort_keys=True),
                                type(exc).__name__, exc, "", False)


def run_bench(suite_path: str, out_path: Optional[str]) -> int:
    with open(suite_path, "r", encoding="utf-8") as fh:
        try:
            suite = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"suite {suite_path!r} is not JSON: {exc}") from None
    checks = suite.get("checks", []) if isinstance(suite, dict) else None
    if not isinstance(checks, list):
        raise ParseError("a suite is an object whose 'checks' is a list")
    reports = [_bench_row(spec) for spec in checks]
    with open(out_path, "w", newline="", encoding="utf-8") if out_path \
            else nullcontext(sys.stdout) as out:
        writer = csv.writer(out)
        writer.writerow(REPORT_HEADER)
        for rep in reports:
            writer.writerow(rep.row())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


# --- argument parsing ---------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="porthunt",
                                     description="Treasure hunt and rendezvous on port-numbered graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, check in CHECKS.items():
        p = sub.add_parser(kind, help=check.help)
        for prm in check.params:
            p.add_argument("--" + prm.key.replace("_", "-"), type=prm.type, default=prm.default,
                           required=prm.default is None, choices=prm.choices)
        if check.traced:
            p.add_argument("--trace")

    p = sub.add_parser("phase", help="print the path types of one phase value")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--mode", choices=_MODES, default="fixed")

    p = sub.add_parser("bench", help="run a suite file and emit a report CSV")
    p.add_argument("--suite", required=True)
    p.add_argument("--out")
    return parser


def _print_report(rep: ExperimentReport) -> None:
    print(f"kind={rep.kind}")
    print(f"instance={rep.instance}")
    print(f"measured={rep.measured}")
    print(f"oracle={rep.oracle}")
    print(f"bound={rep.bound}")
    print(f"result={'pass' if rep.passed else 'fail'}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "phase":
            if args.j < 2:
                raise PreconditionError("phase values start at 2")
            types = phase_types(args.j, EnumMode(args.mode))
            for (x, y) in types:
                print(f"({x},{y}) value={value(x, y)}")
            if not types:
                print("(none)")
            return EXIT_OK
        if args.command == "bench":
            return run_bench(args.suite, args.out)
        check = CHECKS[args.command]
        trace = [args.trace] if check.traced else []
        rep = check.run(*check.bind(args.command, vars(args)), *trace)
    except _BAD_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except _BUDGET as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    _print_report(rep)
    return EXIT_OK if rep.passed else EXIT_FAIL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
