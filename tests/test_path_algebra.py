import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porthunt.errors import NotEnumerated
from porthunt.path_algebra import (
    EnumMode,
    count_of_type,
    departures,
    global_paths,
    index_of_path,
    paths_of_type,
    phase_types,
    type_of,
    types_in_order,
    value,
)

from instances import compare_star

FIXED = EnumMode.FIXED
STRICT = EnumMode.STRICT

paths_st = st.lists(st.integers(1, 6), min_size=1, max_size=5).map(tuple)


def test_value_worked_examples():
    assert value(2, 4) == 1024
    assert value(10, 2) == 800
    assert value(4, 2) == 128
    assert value(64, 1) == 128
    assert value(1, 1) == 2


def test_value_is_arbitrary_precision():
    assert value(2, 100) == 100 * 2 ** 100 * 2 ** 100


@given(st.integers(1, 50), st.integers(1, 30))
def test_value_strictly_monotone(x, y):
    assert value(x + 1, y) > value(x, y)
    assert value(x, y + 1) > value(x, y)


def test_type_of_examples():
    assert type_of((2, 1, 2, 1)) == (2, 4)
    assert type_of((3, 10)) == (10, 2)
    assert type_of((64,)) == (64, 1)
    assert type_of((1, 1, 1)) == (1, 3)


def test_phase_types_examples():
    assert phase_types(128, STRICT) == [(4, 2), (64, 1)]
    assert phase_types(2, STRICT) == []
    assert phase_types(2, FIXED) == [(1, 1)]
    assert phase_types(24, FIXED) == [(1, 3), (12, 1)]
    assert phase_types(24, STRICT) == [(12, 1)]


def test_phase_types_against_grid_scan():
    # independent oracle: scan the whole (x, y) grid that could reach value j
    for j in range(2, 600):
        expected = sorted(
            (x, y)
            for y in range(1, 10)
            for x in range(1, j + 1)
            if value(x, y) == j
        )
        assert phase_types(j, FIXED) == expected
        assert phase_types(j, STRICT) == [(x, y) for (x, y) in expected if x >= 2]


@pytest.mark.parametrize("mode", [FIXED, STRICT])
def test_types_in_order_matches_phase_loop(mode):
    from_stream = list(itertools.islice(types_in_order(mode), 200))
    from_phases = []
    j = 1
    while len(from_phases) < 200:
        j += 1
        from_phases.extend(phase_types(j, mode))
    assert from_stream == from_phases[:200]


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("delta", range(1, 6))
def test_paths_of_type_count_law_and_order(m, delta):
    got = list(paths_of_type(m, delta))
    assert len(got) == count_of_type(m, delta) == m ** delta - (m - 1) ** delta
    assert len(set(got)) == len(got)
    assert got == sorted(got)
    # independent oracle: filter the full product
    expected = [
        p for p in itertools.product(range(1, m + 1), repeat=delta) if max(p) == m
    ]
    assert got == expected


def test_paths_of_type_small_examples():
    assert list(paths_of_type(2, 2)) == [(1, 2), (2, 1), (2, 2)]
    assert list(paths_of_type(1, 3)) == [(1, 1, 1)]
    assert list(paths_of_type(3, 2)) == [(1, 3), (2, 3), (3, 1), (3, 2), (3, 3)]


def test_compare_star_examples():
    assert compare_star((3, 10), (2, 1, 2, 1)) == -1  # 800 < 1024
    assert compare_star((4, 3), (64,)) == -1  # values tie at 128, (4,2) beats (64,1)
    assert compare_star((1, 2), (2, 1)) == -1  # same type, path tiebreak
    assert compare_star((2, 1), (2, 1)) == 0


@given(paths_st, paths_st)
def test_compare_star_antisymmetric(a, b):
    assert compare_star(a, b) == -compare_star(b, a)
    assert (compare_star(a, b) == 0) == (a == b)


@given(paths_st, paths_st, paths_st)
def test_compare_star_transitive(a, b, c):
    if compare_star(a, b) <= 0 and compare_star(b, c) <= 0:
        assert compare_star(a, c) <= 0


def test_global_paths_fixed_prefix():
    got = list(itertools.islice(global_paths(FIXED), 6))
    assert got == [(1,), (2,), (3,), (1, 1), (4,), (5,)]


def test_global_paths_strict_prefix():
    # value(m, 1) = 2m covers 4..30 before the value-32 tie of (2,2) and (16,1)
    got = list(itertools.islice(global_paths(STRICT), 18))
    expected = [(m,) for m in range(2, 16)] + [(1, 2), (2, 1), (2, 2), (16,)]
    assert got == expected


@pytest.mark.parametrize("mode", [FIXED, STRICT])
def test_global_paths_strictly_increasing(mode):
    stream = list(itertools.islice(global_paths(mode), 400))
    for a, b in zip(stream, stream[1:]):
        assert compare_star(a, b) == -1
    assert len(set(stream)) == len(stream)


DEPARTURES_PREFIX = 30000


@functools.lru_cache(maxsize=None)
def _global_prefix(mode):
    return list(itertools.islice(global_paths(mode), DEPARTURES_PREFIX))


@pytest.mark.parametrize("mode", [FIXED, STRICT])
@pytest.mark.parametrize("d", [*range(1, 8), None])
def test_departures_are_the_global_paths_leaving_a_degree_d_node(mode, d):
    # STRICT with d = 1 has no length-1 type at all: its least port is 2;
    # d = None is a node of infinite degree, which departs on every path
    top = float("inf") if d is None else d
    expected = [(j, p) for j, p in enumerate(_global_prefix(mode), 1) if p[0] <= top]
    stream = departures(d, mode)
    got = list(itertools.islice(stream, len(expected)))
    assert got == expected
    following = list(itertools.islice(stream, 3200))  # the stream goes on past the prefix
    j, p = following[0]
    assert j > DEPARTURES_PREFIX and p[0] <= top
    assert all(p[0] <= top for _, p in got)
    for j, p in got[::97]:
        assert index_of_path(p, mode) == j
    ahead = got + following
    for skip in (1, 2, 3, 7, 64, 255, 256, 1000, 1024, 2999):  # counted, not generated
        assert list(itertools.islice(departures(d, mode, skip), 200)) == ahead[skip:skip + 200]


def test_enumeration_completeness_fixed():
    budget = 2 * value(3, 3)
    prefix = set(itertools.islice(global_paths(FIXED), budget))
    for delta in range(1, 4):
        for p in itertools.product(range(1, 4), repeat=delta):
            assert p in prefix


def test_index_of_path_examples():
    assert index_of_path((1,), FIXED) == 1
    assert index_of_path((2,), STRICT) == 1
    assert index_of_path((1, 1), FIXED) == 4


def test_index_of_path_rejects_all_ones_in_strict():
    with pytest.raises(NotEnumerated):
        index_of_path((1, 1, 1), STRICT)


@pytest.mark.parametrize("mode", [FIXED, STRICT])
def test_index_counting_agrees_with_scanning(mode):
    sample = [
        p
        for delta in range(1, 4)
        for p in itertools.product(range(1, 4), repeat=delta)
        if not (mode is STRICT and max(p) == 1)
    ]
    positions = {}
    for i, p in enumerate(itertools.islice(global_paths(mode), 5000), start=1):
        positions[p] = i
    for p in sample:
        assert index_of_path(p, mode) == positions[p]


@given(paths_st, st.integers(1, 5))
def test_prefix_domination(path, cut):
    prefix = path[: min(cut, len(path))]
    vp, vq = value(*type_of(prefix)), value(*type_of(path))
    assert vp <= vq
    assert (vp == vq) == (type_of(prefix) == type_of(path))


@settings(max_examples=30)
@given(st.integers(2, 5000))
def test_phase_value_roundtrip(j):
    for (x, y) in phase_types(j, FIXED):
        assert value(x, y) == j
