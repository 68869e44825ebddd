from collections import Counter

import pytest
from hypothesis import given, strategies as st

from schurgas.partitions import conjugate, gen_partitions
from schurgas.statistics import (
    BOSE,
    EVEN_COLS,
    EVEN_ROWS,
    FERMI,
    HST,
    UnsupportedKind,
    admits,
    admitted_count,
    admitted_partitions,
    kind_name,
    parabose,
    parafermi,
    parse_kind,
    pq,
)


@st.composite
def partition_strategy(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


def test_admits_known_cases():
    assert admits(FERMI, (1, 1, 1))
    assert not admits(FERMI, (2, 1))
    assert not admits(parafermi(2), (3, 1))
    assert admits(parafermi(2), (2, 2, 1))
    assert admits(EVEN_COLS, (2, 2, 1, 1))
    assert not admits(EVEN_COLS, (2, 1, 1))
    assert admits(BOSE, (5,))
    assert not admits(BOSE, (4, 1))


def test_empty_partition_admitted_everywhere():
    kinds = [BOSE, FERMI, HST, EVEN_ROWS, EVEN_COLS, parafermi(2), parabose(3), pq(2, 2)]
    for kind in kinds:
        assert admits(kind, ())


def test_admitted_partitions_examples():
    assert admitted_partitions(BOSE, 5, 3) == [(5,)]
    assert admitted_partitions(EVEN_COLS, 2, 2) == [(1, 1)]
    assert admitted_partitions(EVEN_ROWS, 4, 2) == [(4,), (2, 2)]


def test_admitted_partitions_preserves_order():
    everything = gen_partitions(6, 6)
    admitted = admitted_partitions(parafermi(3), 6, 6)
    assert admitted == [lam for lam in everything if admits(parafermi(3), lam)]


@given(partition=partition_strategy())
def test_hst_admits_everything(partition):
    assert admits(HST, partition)


@given(partition=partition_strategy())
def test_order_one_limits(partition):
    assert admits(parafermi(1), partition) == admits(FERMI, partition)
    assert admits(parabose(1), partition) == admits(BOSE, partition)


@given(partition=partition_strategy(), p=st.integers(1, 6))
def test_row_column_duality(partition, p):
    assert admits(parafermi(p), partition) == admits(parabose(p), conjugate(partition))


@given(partition=partition_strategy(), p=st.integers(1, 5), q=st.integers(1, 5))
def test_pq_is_conjunction(partition, p, q):
    both = admits(parabose(p), partition) and admits(parafermi(q), partition)
    assert admits(pq(p, q), partition) == both


@given(partition=partition_strategy())
def test_even_kinds_force_even_weight(partition):
    if admits(EVEN_ROWS, partition) or admits(EVEN_COLS, partition):
        assert sum(partition) % 2 == 0


@given(partition=partition_strategy())
def test_even_cols_matches_conjugate_definition(partition):
    # the definition: every column of the diagram, a part of the conjugate, is even
    by_conjugate = all(part % 2 == 0 for part in conjugate(partition))
    assert admits(EVEN_COLS, partition) == by_conjugate


def test_kind_grammar_round_trip():
    for name in ("bose", "fermi", "hst", "even-rows", "even-cols",
                 "parafermi:3", "parabose:2", "pq:2:4"):
        assert kind_name(parse_kind(name)) == name


def test_parse_kind_rejects_garbage():
    for bad in ("boltzmann", "parafermi", "parafermi:0", "parafermi:2:3", "pq:2", "pq:0:1",
                "pq:1:2:3", "parabose:x", "bose:1", "parabose:0"):
        with pytest.raises(UnsupportedKind):
            parse_kind(bad)


def test_order_parameters_validated():
    with pytest.raises(ValueError):
        parafermi(0)
    with pytest.raises(ValueError):
        parabose(-1)
    with pytest.raises(ValueError):
        pq(1, 0)


ALL_FAMILIES = (
    [BOSE, FERMI, HST, EVEN_ROWS, EVEN_COLS]
    + [parafermi(p) for p in (1, 2, 3)]
    + [parabose(p) for p in (1, 2, 3)]
    + [pq(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]
)


@pytest.mark.parametrize("kind", ALL_FAMILIES, ids=kind_name)
def test_admitted_partitions_equal_the_filtered_generation(kind):
    # direct generation against the predicate as oracle, order included;
    # admitted_count counts the same shapes, and their parts, without
    # generating them
    for n in range(15):
        for m in range(1, 9):
            expected = [lam for lam in gen_partitions(n, m) if admits(kind, lam)]
            assert admitted_partitions(kind, n, m) == expected, (n, m)
            assert admitted_count(kind, n, m) == len(expected), (n, m)
            assert admitted_count(kind, n, m, parts=True) == sum(map(len, expected)), (n, m)


@pytest.mark.parametrize("kind", ALL_FAMILIES, ids=kind_name)
def test_admitted_partitions_reject_bad_sizes(kind):
    for admitted in (admitted_partitions, admitted_count):
        for n, m in ((-1, 3), (-2, 3), (3, 0), (3, -2)):
            with pytest.raises(ValueError):
                admitted(kind, n, m)
