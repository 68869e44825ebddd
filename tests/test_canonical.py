from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from schurgas.canonical import z_canonical, z_canonical_qpoly
from schurgas.schur import as_point
from schurgas.statistics import (
    BOSE,
    EVEN_COLS,
    EVEN_ROWS,
    FERMI,
    HST,
    UnsupportedKind,
    parabose,
    parafermi,
    pq,
)

PRIMES = (Fraction(2), Fraction(3), Fraction(5), Fraction(7))


def z_occupation_oracle(kind, point, n):
    """Textbook occupation-number sum, independent of any Schur machinery.

    Fermi: over subsets of n distinct levels. Bose: over multisets of n
    levels. Only these two statistics have an elementary occupation rule;
    anything else raises UnsupportedKind.
    """
    xs = as_point(point)
    if kind.family == "fermi":
        picks = combinations(range(len(xs)), n)
    elif kind.family == "bose":
        picks = combinations_with_replacement(range(len(xs)), n)
    else:
        raise UnsupportedKind(f"no occupation oracle for {kind}")
    total = Fraction(0)
    for pick in picks:
        term = Fraction(1)
        for i in pick:
            term *= xs[i]
        total += term
    return total


def test_z_canonical_known_values():
    assert z_canonical(FERMI, PRIMES[:3], 2) == 31
    assert z_canonical(BOSE, PRIMES[:2], 2) == 19
    assert z_canonical(HST, PRIMES[:2], 2) == 25
    assert z_canonical(FERMI, PRIMES[:2], 3) == 0


def test_z_zero_is_one_for_every_kind():
    kinds = [BOSE, FERMI, HST, EVEN_ROWS, EVEN_COLS, parafermi(2), parabose(2), pq(2, 3)]
    for kind in kinds:
        assert z_canonical(kind, PRIMES[:3], 0) == 1


def test_occupation_oracle_known_values():
    assert z_occupation_oracle(FERMI, PRIMES[:3], 2) == 31
    assert z_occupation_oracle(BOSE, PRIMES[:2], 2) == 19
    assert z_occupation_oracle(FERMI, PRIMES[:2], 3) == 0


def test_occupation_oracle_rejects_other_kinds():
    with pytest.raises(UnsupportedKind):
        z_occupation_oracle(HST, PRIMES[:2], 2)


def test_schur_sum_equals_occupation_counting():
    for m in range(1, 5):
        point = PRIMES[:m]
        for n in range(9):
            assert z_canonical(BOSE, point, n) == z_occupation_oracle(BOSE, point, n)
            assert z_canonical(FERMI, point, n) == z_occupation_oracle(FERMI, point, n)


def test_oracle_against_inline_enumeration():
    # third route, written here: explicit occupation vectors
    point = (Fraction(1, 2), Fraction(3), Fraction(5))
    fermi_sum = Fraction(0)
    for subset in combinations(range(3), 2):
        term = Fraction(1)
        for i in subset:
            term *= point[i]
        fermi_sum += term
    assert z_canonical(FERMI, point, 2) == fermi_sum
    bose_sum = Fraction(0)
    for occ in combinations_with_replacement(range(3), 4):
        term = Fraction(1)
        for i in occ:
            term *= point[i]
        bose_sum += term
    assert z_canonical(BOSE, point, 4) == bose_sum


def test_even_kinds_vanish_at_odd_n():
    for n in (1, 3, 5, 7):
        assert z_canonical(EVEN_ROWS, PRIMES[:3], n) == 0
        assert z_canonical(EVEN_COLS, PRIMES[:3], n) == 0


def test_parafermi_equals_hst_when_bound_is_loose():
    for n in range(7):
        for p in (n, n + 1, 9):
            if p >= max(n, 1):
                assert z_canonical(parafermi(p), PRIMES[:3], n) == z_canonical(
                    HST, PRIMES[:3], n
                )


def test_z_canonical_qpoly_known_values():
    assert z_canonical_qpoly(BOSE, (1, 2), 2, 10) == (2, [1, 1, 1])
    assert z_canonical_qpoly(FERMI, (1, 2), 2, 10) == (3, [1])
    assert z_canonical_qpoly(EVEN_COLS, (1, 2), 1, 10) == (0, [])


@settings(max_examples=30)
@given(n=st.integers(0, 6), exps=st.lists(st.integers(0, 3), min_size=1, max_size=3))
def test_qpoly_route_matches_exact_substitution(n, exps):
    q = Fraction(1, 2)
    exps = tuple(exps)
    point = tuple(q**e for e in exps)
    for kind in (BOSE, FERMI, HST, EVEN_ROWS, parabose(2)):
        emax = n * max(exps) if n else 0
        low, coeffs = z_canonical_qpoly(kind, exps, n, emax)
        assert sum(c * q**t for t, c in enumerate(coeffs, low)) == z_canonical(kind, point, n)


def test_pq_refines_parabose_coefficientwise():
    exps = (1, 2, 3)
    for n in range(7):
        low, wide = z_canonical_qpoly(parabose(2), exps, n, 24)
        start, narrow = z_canonical_qpoly(pq(2, 3), exps, n, 24)
        # every narrow state is a wide one: its support lies inside
        assert low <= start and start + len(narrow) <= low + len(wide)
        assert all(a <= b for a, b in zip(narrow, wide[start - low :]))
