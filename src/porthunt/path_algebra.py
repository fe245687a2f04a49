"""Path types, values, and the two enumeration orders driving the agents.

A path is a nonempty tuple of positive port numbers.  Its type is the pair
(max port, length) and the value of a type (x, y) is y * 2**y * x**y.  Paths
are globally ordered by (value of type, type lex, path lex); enumeration walks
that order lazily.

Two modes exist: STRICT enumerates only types with max port >= 2 (mirroring
the phase loop that skips x = 1), FIXED also enumerates the all-ones types
(1, d) at their natural value d * 2**d.  FIXED is the default everywhere.

Neither order depends on a graph, so the type streams and the per-length
thresholds behind the index are kept per process and shared by every query.
"""

from __future__ import annotations

import heapq
from enum import Enum
from functools import cache
from itertools import chain, count, islice, product
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import NotEnumerated

Path = Tuple[int, ...]
PathType = Tuple[int, int]  # (max port, length)


class EnumMode(Enum):
    STRICT = "strict"
    FIXED = "fixed"
    __hash__ = object.__hash__  # singletons compared by identity: hash in C, not by name


LEAST_PORT = {EnumMode.FIXED: 1, EnumMode.STRICT: 2}  # STRICT skips the all-ones types


def value(x: int, y: int) -> int:
    """Value y * 2**y * x**y of a type (x, y); exact arbitrary precision."""
    if x < 1 or y < 1:
        raise ValueError("value needs x >= 1 and y >= 1")
    return y * (1 << y) * x ** y


def type_of(path: Path) -> PathType:
    if not path:
        raise ValueError("empty path has no type")
    return (max(path), len(path))


def _iroot(n: int, y: int) -> int:
    """Floor of the y-th root of n >= 1, by integer Newton iteration."""
    if n < 2 or y == 1:
        return n
    x = 1 << (-(-n.bit_length() // y))  # >= true root
    while True:
        nxt = ((y - 1) * x + n // x ** (y - 1)) // y
        if nxt >= x:
            return x
        x = nxt


def phase_types(j: int, mode: EnumMode = EnumMode.FIXED) -> List[PathType]:
    """All types (x, y) of value exactly j, sorted lexicographically.

    Reference divisor-test implementation: for each candidate length y, check
    whether j / (y * 2**y) is an exact y-th power.
    """
    if j < 2:
        raise ValueError("phases start at j = 2")
    min_x = LEAST_PORT[mode]
    out = []
    y = 1
    while y * (1 << y) <= j:
        base = y * (1 << y)
        if j % base == 0:
            q = j // base
            x = _iroot(q, y)
            if x ** y == q and x >= min_x:
                out.append((x, y))
        y += 1
    out.sort()
    return out


# (x0, max_port, max_single, min_length) -> (the types merged so far, the merge
# that appends the next one); one per restriction, shared by every stream of it
_KEPT_TYPES: Dict[tuple, Tuple[List[PathType], Iterator[PathType]]] = {}


def types_in_order(
    mode: EnumMode = EnumMode.FIXED,
    max_port: Optional[int] = None,
    max_single: Optional[int] = None,
    min_port: int = 1,
    min_length: int = 1,
) -> Iterator[PathType]:
    """All types in increasing (value, lex) order, one per yield, never ending.

    Emits exactly the order of the phase loop (j = 2, 3, ... with lex-sorted
    types inside each phase).  With max_port, each per-length stream ends at
    x = max_port: the subsequence of types whose max port is at most
    max_port.  With max_single, the length-1 stream also ends at
    x = max_single (it is empty below the mode's least port).  With min_port
    and min_length, the streams start at x = min_port (or the mode's least
    port, if larger) and the lengths at min_length: the subsequence of types
    (x, y) with x >= min_port and y >= min_length.

    The order does not depend on the caller, so each restriction's types are
    kept per process in one list, read by position by every stream of it and
    grown by one merged type whenever a stream reads past its end.
    """
    x0 = max(min_port, LEAST_PORT[mode])
    key = x0, max_port, max_single, min_length
    if key not in _KEPT_TYPES:
        if max_port is not None and max_port < x0:  # raised on every call; nothing kept
            raise ValueError(f"no type of mode {mode.value} has max port in {x0}..{max_port}")
        _KEPT_TYPES[key] = [], _merge(*key)
    kept, merge = _KEPT_TYPES[key]
    i = 0
    while True:
        if i == len(kept):
            kept.append(next(merge))
        yield kept[i]
        i += 1


def _merge(x0: int, max_port: Optional[int], max_single: Optional[int],
           min_length: int) -> Iterator[PathType]:
    """Priority-queue merge of the per-length streams of types_in_order."""
    next_y = 2 if min_length == 1 and max_single is not None and max_single < x0 else min_length
    heap: List[Tuple[int, int, int]] = []
    while True:
        while not heap or value(x0, next_y) <= heap[0][0]:
            heapq.heappush(heap, (value(x0, next_y), x0, next_y))
            next_y += 1
        _, x, y = heapq.heappop(heap)
        if (max_port is None or x < max_port) and (y > 1 or max_single is None or x < max_single):
            heapq.heappush(heap, (value(x + 1, y), x + 1, y))
        yield (x, y)


def sweep_bound(max_degree: Optional[int], mode: EnumMode) -> Optional[int]:
    """Largest max port a sweep must visit at that max degree; None visits all.
    A prefix entering a node within a type of larger max port is itself (in
    STRICT mode, followed by port 2) a path of a smaller type; STRICT mode at
    degree 1 has no type without port 2."""
    return None if max_degree is None or max_degree < LEAST_PORT[mode] else max_degree


@cache
def last_x_by_length(t: PathType, x_min: int) -> Tuple[Tuple[int, int], ...]:
    """(y, X_y(t)) for each length y whose type (x_min, y) precedes t, longest
    first, where X_y(t) is the largest x with (value(x, y), x, y) < (value(t), t).
    Kept per (t, x_min) for the process: the tuple is shared by every caller."""
    v, y = value(*t), 1
    key = (v,) + t
    out = []
    while ((scale := y << y) * x_min ** y, x_min, y) < key:  # value(x, y) = scale * x**y
        x = _iroot(v // scale, y)
        out.append((y, x - 1 if scale * x ** y == v and (x, y) >= t else x))
        y += 1
    return tuple(reversed(out))


def paths_before(t: PathType, mode: EnumMode = EnumMode.FIXED) -> int:
    """Number of paths of the types before t; per length y their counts telescope."""
    x0 = LEAST_PORT[mode]
    return sum(x ** y - (x0 - 1) ** y for y, x in last_x_by_length(t, x0))


def count_of_type(m: int, delta: int) -> int:
    """Number of paths of type (m, delta): m**delta - (m-1)**delta."""
    return m ** delta - (m - 1) ** delta


def paths_of_type(m: int, delta: int) -> Iterator[Path]:
    """All paths in {1..m}**delta with max exactly m, in lexicographic order."""
    if m < 1 or delta < 1:
        raise ValueError("paths_of_type needs m >= 1 and delta >= 1")
    return _gen_type_members((), delta, m == 1, m)


def _gen_type_members(prefix: Path, remaining: int, seen_max: bool, m: int) -> Iterator[Path]:
    """prefix + c for every c in {1..m}**remaining that leaves m in the path,
    in lex order: once m is seen, every completion is one product."""
    if seen_max:
        return map(prefix.__add__, product(range(1, m + 1), repeat=remaining))
    if remaining == 1:  # the max port has not appeared: it must go in the last slot
        return iter((prefix + (m,),))
    return chain.from_iterable(_gen_type_members(prefix + (q,), remaining - 1, q == m, m)
                               for q in range(1, m + 1))


def global_paths(mode: EnumMode = EnumMode.FIXED) -> Iterator[Path]:
    """All finite paths over positive ports, each exactly once, in star order."""
    for m, delta in types_in_order(mode):
        yield from paths_of_type(m, delta)


def departures(
    d: Optional[int], mode: EnumMode = EnumMode.FIXED, skip: int = 0
) -> Iterator[Tuple[int, Path]]:
    """(j, path j of global_paths(mode)) for every path whose first port is at
    most d, in order, from the skip-th on, never ending; the paths a node of
    degree d can depart on.  A node of infinite degree (d None) departs on
    every path.

    The departing paths of a type (m, delta) are a lex-prefix block of it: the
    whole type if m <= d, else first ports 1..d (none at length 1).  Their
    indices follow the type's first index, counted as it passes: every type of
    length >= 2 is read, and the length-1 types before (m, delta) are
    (x0..m-1, 1) if delta = 1, else (x0..value(m, delta)/2 - 1, 1).  The
    length-1 stream ends at x = d, since no other length-1 type departs.  A
    skipped block is counted, not generated.
    """
    x0 = LEAST_PORT[mode]
    longer = 0  # paths of the types of length >= 2 read so far
    for m, delta in types_in_order(mode, max_single=d):
        if delta == 1:
            if skip:
                skip -= 1
            else:
                yield longer + m - x0 + 1, (m,)
            continue
        first = longer + value(m, delta) // 2 - x0 + 1
        longer += count_of_type(m, delta)
        top = m if d is None or d > m else d
        block = count_of_type(m, delta) if top == m else top * count_of_type(m, delta - 1)
        if skip >= block:
            skip -= block
            continue
        members = chain.from_iterable(
            _gen_type_members((q,), delta - 1, q == m, m) for q in range(1, top + 1)
        )
        yield from islice(zip(count(first), members), skip, None)
        skip = 0


def _rank_in_type(path: Path) -> int:
    """1-based lexicographic rank of a path among paths of its own type."""
    m, delta = type_of(path)

    def completions(remaining: int, seen_max: bool) -> int:
        if seen_max:
            return m ** remaining
        return m ** remaining - (m - 1) ** remaining

    rank = 1
    seen = False
    for i, p in enumerate(path):
        remaining = delta - i - 1
        for q in range(1, p):
            rank += completions(remaining, seen or q == m)
        seen = seen or p == m
    return rank


def index_of_path(path: Path, mode: EnumMode = EnumMode.FIXED) -> int:
    """1-based position of a path in global_paths(mode), in closed form."""
    m, delta = type_of(path)
    if mode is EnumMode.STRICT and m == 1:
        raise NotEnumerated(f"all-ones path {path} is never enumerated in STRICT mode")
    return paths_before((m, delta), mode) + _rank_in_type(path)
