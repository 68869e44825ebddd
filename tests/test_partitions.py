from collections import Counter

import pytest
from hypothesis import given, strategies as st

from schurgas.partitions import (
    check_partition,
    conjugate,
    count_partitions,
    count_parts,
    gen_partitions,
    is_partition,
    iter_partitions,
)
from schurgas.statistics import FERMI, admitted_partitions


@st.composite
def partition_strategy(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    counts = Counter(bins)
    return tuple(sorted(counts.values(), reverse=True))


def brute_partitions(n, max_parts):
    # independent recursion: smallest part last, parts bounded above by prev
    def rec(remaining, largest, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    return set(rec(n, n, max_parts))


def test_gen_partitions_trivial_cases():
    assert gen_partitions(0, 3) == [()]
    assert gen_partitions(2, 2) == [(2,), (1, 1)]


def test_gen_partitions_six_three():
    assert gen_partitions(6, 3) == [
        (6,),
        (5, 1),
        (4, 2),
        (4, 1, 1),
        (3, 3),
        (3, 2, 1),
        (2, 2, 2),
    ]


def test_partition_counts_through_twelve():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n, count in enumerate(expected):
        assert len(gen_partitions(n, max(n, 1))) == count


def test_gen_partitions_reverse_lexicographic():
    for n in range(9):
        parts = gen_partitions(n, max(n, 1))
        assert parts == sorted(parts, reverse=True)


@given(n=st.integers(0, 9), max_parts=st.integers(1, 9))
def test_gen_partitions_matches_brute_force(n, max_parts):
    got = gen_partitions(n, max_parts)
    assert len(got) == len(set(got))
    assert set(got) == brute_partitions(n, max_parts)


@given(n=st.integers(0, 10), max_parts=st.integers(1, 10))
def test_generated_partitions_are_valid(n, max_parts):
    for lam in iter_partitions(n, max_parts):
        assert is_partition(lam)
        assert sum(lam) == n
        assert len(lam) <= max_parts


def test_iter_partitions_rejects_bad_arguments():
    with pytest.raises(ValueError):
        list(iter_partitions(-1, 3))
    with pytest.raises(ValueError):
        list(iter_partitions(3, 0))


def recursive_partitions(n, max_parts, max_part=None):
    # the generator iter_partitions replaced, one recursion level per part
    def rec(remaining, cap, slots, prefix):
        if remaining == 0:
            yield prefix
            return
        if slots == 0:
            return
        for k in range(min(remaining, cap), 0, -1):
            if k * slots < remaining:
                break
            yield from rec(remaining - k, k, slots - 1, prefix + (k,))

    yield from rec(n, n if max_part is None else max_part, max_parts, ())


def test_iter_partitions_matches_the_recursion_in_order():
    for n in range(13):
        for max_parts in range(1, 14):
            for max_part in (None, 0, 1, 2, 3, 5, 13):
                assert list(iter_partitions(n, max_parts, max_part)) == list(
                    recursive_partitions(n, max_parts, max_part)), (n, max_parts, max_part)


def test_iter_partitions_has_no_recursion_limit():
    # the recursion stopped near 990 parts
    assert list(iter_partitions(1500, 1500, 1)) == [(1,) * 1500]
    assert admitted_partitions(FERMI, 1500, 1500) == [(1,) * 1500]
    assert next(iter_partitions(1500, 1500, 2)) == (2,) * 750
    assert count_partitions(1502, 1500, 2) == sum(1 for _ in iter_partitions(1502, 1500, 2))


def test_count_partitions_is_the_listing_length():
    for n in range(13):
        for max_parts in range(1, 8):
            for max_part in (None, *range(1, 8)):
                expected = sum(1 for _ in iter_partitions(n, max_parts, max_part))
                assert count_partitions(n, max_parts, max_part) == expected, (n, max_parts, max_part)
        assert count_partitions(n, 0) == (n == 0)  # no parts allowed
    assert count_partitions(60, 60) == 966467
    assert count_partitions(100, 100) == 190569292
    with pytest.raises(ValueError):
        count_partitions(-1, 3)


def test_count_parts_is_the_listing_total():
    for n in range(13):
        for max_parts in range(1, 8):
            for max_part in (None, *range(1, 8)):
                expected = sum(len(lam) for lam in iter_partitions(n, max_parts, max_part))
                assert count_parts(n, max_parts, max_part) == expected, (n, max_parts, max_part)
        assert count_parts(n, 0) == 0
    # the totals the `partitions` envelope decides on
    assert count_parts(45, 45) == 1140945
    assert count_parts(2449, 2449, 2) == 2250325
    assert count_parts(500, 500, 3) == 6449352
    with pytest.raises(ValueError):
        count_parts(-1, 3)


def test_conjugate_known_values():
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((3,)) == (1, 1, 1)
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()


@given(partition=partition_strategy())
def test_conjugate_involution(partition):
    assert conjugate(conjugate(partition)) == partition


@given(partition=partition_strategy())
def test_conjugate_preserves_weight(partition):
    assert sum(conjugate(partition)) == sum(partition)


@given(partition=partition_strategy())
def test_conjugate_length_is_largest_part(partition):
    assert len(conjugate(partition)) == partition[0]


def test_is_partition_rejects_non_partitions():
    assert not is_partition((1, 2))
    assert not is_partition((2, 0))
    assert not is_partition((2, -1))
    assert is_partition(())
    with pytest.raises(ValueError):
        check_partition((1, 2))
