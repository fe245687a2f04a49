"""Path types, values, and the two enumeration orders driving the agents.

A path is a nonempty tuple of positive port numbers.  Its type is the pair
(max port, length) and the value of a type (x, y) is y * 2**y * x**y.  Paths
are globally ordered by (value of type, type lex, path lex); enumeration walks
that order lazily.

Two modes exist: STRICT enumerates only types with max port >= 2 (mirroring
the phase loop that skips x = 1), FIXED also enumerates the all-ones types
(1, d) at their natural value d * 2**d.  FIXED is the default everywhere.
"""

from __future__ import annotations

import heapq
from enum import Enum
from typing import Iterator, List, Tuple

from .errors import NotEnumerated

Path = Tuple[int, ...]
PathType = Tuple[int, int]  # (max port, length)


class EnumMode(Enum):
    STRICT = "strict"
    FIXED = "fixed"


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
    min_x = 1 if mode is EnumMode.FIXED else 2
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


def types_in_order(mode: EnumMode = EnumMode.FIXED) -> Iterator[PathType]:
    """All types in increasing (value, lex) order, one per yield, never ending.

    Priority-queue merge of the per-length streams; emits exactly the order of
    the phase loop (j = 2, 3, ... with lex-sorted types inside each phase).
    """
    x0 = 1 if mode is EnumMode.FIXED else 2
    heap = [(value(x0, 1), x0, 1)]
    next_y = 2
    while True:
        while value(x0, next_y) <= heap[0][0]:
            heapq.heappush(heap, (value(x0, next_y), x0, next_y))
            next_y += 1
        _, x, y = heapq.heappop(heap)
        heapq.heappush(heap, (value(x + 1, y), x + 1, y))
        yield (x, y)


def count_of_type(m: int, delta: int) -> int:
    """Number of paths of type (m, delta): m**delta - (m-1)**delta."""
    return m ** delta - (m - 1) ** delta


def paths_of_type(m: int, delta: int) -> Iterator[Path]:
    """All paths in {1..m}**delta with max exactly m, in lexicographic order."""
    if m < 1 or delta < 1:
        raise ValueError("paths_of_type needs m >= 1 and delta >= 1")
    if m == 1:
        yield (1,) * delta
        return
    if delta == 1:
        yield (m,)
        return
    yield from _gen_type_members([], delta, False, m)


def _gen_type_members(prefix: List[int], remaining: int, seen_max: bool, m: int) -> Iterator[Path]:
    if remaining == 0:
        yield tuple(prefix)
        return
    # if the max port has not appeared and one slot is left, it must go there
    low = m if (not seen_max and remaining == 1) else 1
    for q in range(low, m + 1):
        prefix.append(q)
        yield from _gen_type_members(prefix, remaining - 1, seen_max or q == m, m)
        prefix.pop()


def star_key(path: Path) -> Tuple[int, int, int, Path]:
    """Sort key realizing the global path order: value, type lex, path lex."""
    m, delta = type_of(path)
    return (value(m, delta), m, delta, path)


def compare_star(a: Path, b: Path) -> int:
    """-1, 0 or 1 as a precedes, equals or follows b in the global order."""
    ka, kb = star_key(a), star_key(b)
    return -1 if ka < kb else (0 if ka == kb else 1)


def global_paths(mode: EnumMode = EnumMode.FIXED) -> Iterator[Path]:
    """All finite paths over positive ports, each exactly once, in star order."""
    for m, delta in types_in_order(mode):
        yield from paths_of_type(m, delta)


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
    """1-based position of a path in global_paths(mode), computed by counting."""
    m, delta = type_of(path)
    if mode is EnumMode.STRICT and m == 1:
        raise NotEnumerated(f"all-ones path {path} is never enumerated in STRICT mode")
    total = 0
    for t in types_in_order(mode):
        if t == (m, delta):
            return total + _rank_in_type(path)
        total += count_of_type(*t)
    raise AssertionError("unreachable")
