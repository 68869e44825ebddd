from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from schurgas.partitions import conjugate, gen_partitions
from schurgas.qpoly import qp_normalize
from schurgas.schur import (
    DistinctnessViolation,
    kostka,
    monomial_sym,
    schur_bialternant,
    schur_qpoly,
    schur_qpoly_sums,
    schur_tableau,
)


@st.composite
def small_partition(draw, max_weight=6):
    n = draw(st.integers(min_value=0, max_value=max_weight))
    options = gen_partitions(n, max(n, 1))
    return draw(st.sampled_from(options))


@st.composite
def distinct_point(draw, max_size=4):
    size = draw(st.integers(min_value=1, max_value=max_size))
    fracs = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6)
    coords = draw(st.lists(fracs, min_size=size, max_size=size, unique=True))
    return tuple(coords)


def brute_schur(lam, point):
    # row-by-row SSYT enumeration written independently of the library:
    # build every filling with rows weakly increasing, columns strictly
    m = len(point)
    if not lam:
        return Fraction(1)
    if len(lam) > m:
        return Fraction(0)
    rows = [[]]
    for r, width in enumerate(lam):
        new_rows = []
        for partial in rows:
            def fills(row_so_far, col):
                if col == width:
                    yield tuple(row_so_far)
                    return
                lo = row_so_far[-1] if row_so_far else 1
                if r > 0 and col < len(partial[r - 1]):
                    lo = max(lo, partial[r - 1][col] + 1)
                for v in range(lo, m + 1):
                    yield from fills(row_so_far + [v], col + 1)

            for row in fills([], 0):
                new_rows.append(partial + [row])
        rows = new_rows
    total = Fraction(0)
    for filling in rows:
        term = Fraction(1)
        for row in filling:
            for v in row:
                term *= point[v - 1]
        total += term
    return total


def test_schur_tableau_known_values():
    assert schur_tableau((1,), (Fraction(2), Fraction(3), Fraction(5))) == 10
    assert schur_tableau((1, 1), (Fraction(2), Fraction(3))) == 6
    assert schur_tableau((2, 1), (Fraction(2), Fraction(3))) == 30
    assert schur_tableau((), (Fraction(7),)) == 1


def test_schur_tableau_vanishes_beyond_m():
    assert schur_tableau((1, 1, 1), (Fraction(2), Fraction(3))) == 0
    assert schur_tableau((2, 2, 1), (Fraction(1), Fraction(4))) == 0


def test_schur_tableau_handles_zero_coordinates():
    assert schur_tableau((1,), (Fraction(0), Fraction(2))) == 2
    assert schur_tableau((1, 1), (Fraction(0), Fraction(2))) == 0
    assert schur_tableau((2,), (Fraction(0), Fraction(2))) == 4


def test_schur_bialternant_known_values():
    assert schur_bialternant((2,), (Fraction(2), Fraction(3))) == 19
    assert schur_bialternant((1, 1), (Fraction(2), Fraction(3))) == 6
    pt = (Fraction(1), Fraction(2), Fraction(3))
    assert schur_bialternant((3, 1), pt) == schur_tableau((3, 1), pt)


def test_schur_bialternant_rejects_repeats():
    with pytest.raises(DistinctnessViolation):
        schur_bialternant((2,), (Fraction(2), Fraction(2)))


def test_schur_bialternant_allows_zero_if_distinct():
    pt = (Fraction(0), Fraction(2), Fraction(3))
    assert schur_bialternant((2, 1), pt) == schur_tableau((2, 1), pt)


@settings(max_examples=60)
@given(lam=small_partition(), point=distinct_point())
def test_backends_agree_on_distinct_points(lam, point):
    assert schur_bialternant(lam, point) == schur_tableau(lam, point)


# Small integers and halves of both signs, and zero: s_lam vanishes at some
# distinct points of these, where the numerator alternant is singular.
SMALL_COORDS = [Fraction(c) for c in (0, 1, -1, 2, -2, 3, -3)] + [Fraction(1, 2), Fraction(-1, 2)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(lam=small_partition(),
       point=st.lists(st.sampled_from(SMALL_COORDS), min_size=1, max_size=5, unique=True))
@example(lam=(1,), point=[Fraction(1), Fraction(-1), Fraction(0)])  # no pivot in column 1
@example(lam=(1,), point=[Fraction(1), Fraction(-1)])  # the last entry eliminates to 0
@example(lam=(2, 1, 1), point=[Fraction(0), Fraction(1), Fraction(2)])  # a zero row
@example(lam=(3,), point=[Fraction(1), Fraction(-1, 2), Fraction(1, 2), Fraction(-1)])
def test_bialternant_is_zero_where_the_numerator_is_singular(lam, point):
    assert schur_bialternant(lam, point) == schur_tableau(lam, point)


@settings(max_examples=40)
@given(lam=small_partition(max_weight=5), point=distinct_point(max_size=3))
# the oracle sums at D x and divides by D^|lam|; brute_schur sums at x itself
@example(lam=(2, 1), point=(Fraction(3, 2), Fraction(3, 2), Fraction(1)))  # repeated
@example(lam=(2, 2), point=(Fraction(0), Fraction(2), Fraction(5)))  # a zero
@example(lam=(3, 1), point=(Fraction(-1, 2), Fraction(-2, 3), Fraction(-4)))  # negatives, D = 6
@example(lam=(2, 1, 1), point=(Fraction(1, 2), Fraction(0), Fraction(-1, 3), Fraction(1, 2)))
@example(lam=(2,), point=(Fraction(0), Fraction(0)))  # all zero
@example(lam=(), point=(Fraction(0), Fraction(0)))
def test_tableau_matches_independent_enumeration(lam, point):
    assert schur_tableau(lam, point) == brute_schur(lam, point)


@given(lam=small_partition(), point=distinct_point(), c=st.sampled_from(
    [Fraction(2), Fraction(1, 3), Fraction(-1), Fraction(5, 2)]))
def test_homogeneity(lam, point, c):
    scaled = tuple(c * x for x in point)
    n = sum(lam)
    assert schur_tableau(lam, scaled) == c**n * schur_tableau(lam, point)


@given(lam=small_partition(max_weight=5))
def test_symmetry_under_coordinate_permutation(lam):
    pt = (Fraction(2), Fraction(1, 2), Fraction(-3))
    base = schur_tableau(lam, pt)
    for perm in permutations(pt):
        assert schur_tableau(lam, perm) == base


def test_kostka_known_values():
    assert kostka((2, 1), (1, 1, 1)) == 2
    for n in range(1, 6):
        assert kostka((n,), (n,)) == 1
    assert kostka((1, 1), (2,)) == 0
    assert kostka((2, 1), (2, 1)) == 1
    assert kostka((2, 2), (2, 1)) == 0  # weight mismatch


def test_tableau_oracles_have_no_recursion_limit():
    # one cell per stack entry, not per Python frame
    assert kostka((1000,), (1000,)) == 1
    assert schur_tableau((1000,), (2,)) == 2 ** 1000
    assert schur_tableau((600, 400), (1, 1)) == 201  # 0..200 twos in the first row
    assert kostka((600, 400), (600, 400)) == 1


def test_monomial_sym_known_values():
    assert monomial_sym((2, 1), (Fraction(2), Fraction(3))) == 30
    assert monomial_sym((1,), (Fraction(2), Fraction(3), Fraction(5))) == 10
    assert monomial_sym((1, 1), (Fraction(2), Fraction(3))) == 6
    assert monomial_sym((1, 1, 1), (Fraction(2), Fraction(3))) == 0


def brute_monomial(mu, point):
    # sum over the distinct rearrangements of the padded exponent vector
    m = len(point)
    if len(mu) > m:
        return Fraction(0)
    padded = tuple(mu) + (0,) * (m - len(mu))
    total = Fraction(0)
    for perm in set(permutations(padded)):
        term = Fraction(1)
        for x, e in zip(point, perm):
            term *= x**e
        total += term
    return total


@settings(max_examples=60)
@given(lam=small_partition(), point=distinct_point(), zero=st.booleans())
def test_monomial_sym_matches_rearrangement_sum(lam, point, zero):
    # repeated and zero coordinates too: m_mu needs no distinctness
    point = point + point[:1] + ((Fraction(0),) if zero else ())
    assert monomial_sym(lam, point) == brute_monomial(lam, point)


@settings(max_examples=40)
@given(lam=small_partition(), point=distinct_point())
def test_kostka_monomial_expansion(lam, point):
    n = sum(lam)
    total = sum(
        (kostka(lam, mu) * monomial_sym(mu, point) for mu in gen_partitions(n, max(n, 1))),
        Fraction(0),
    )
    assert total == schur_tableau(lam, point)


def tableau_count(lam, k):
    """s_lam(1^k), the number of semistandard tableaux of shape lam with
    entries in 1..k, by the hook-content formula prod_u (k + c(u)) / h(u)
    (Macdonald I.3 ex. 4); 0 when lam has more than k parts."""
    cols = conjugate(lam)
    cells = [(r, c) for r in range(len(lam)) for c in range(lam[r])]
    return prod(k + c - r for r, c in cells) // prod(lam[r] - c + cols[c] - r - 1 for r, c in cells)


def test_tableau_count_is_s_lam_at_ones():
    # the hook-content formula against the enumeration it stands in for
    for n in range(6):
        for lam in gen_partitions(n, max(n, 1)):
            for k in range(5):
                assert tableau_count(lam, k) == schur_tableau(lam, (1,) * k)
    assert tableau_count((8, 5, 3), 6) == 504_504
    assert tableau_count((12, 8, 4), 6) == 16_362_500


def test_schur_qpoly_known_values():
    assert schur_qpoly((1,), (1, 2), 10) == (1, [1, 1])
    assert schur_qpoly((1, 1), (1, 2), 10) == (3, [1])
    assert schur_qpoly((2,), (1, 2), 3) == (2, [1, 1])
    assert schur_qpoly((), (1, 2), 5) == (0, [1])
    # truncation inside a gap of the full polynomial q + q^3 normalizes
    assert schur_qpoly((1,), (1, 3), 2) == (1, [1])
    assert schur_qpoly((1, 1, 1), (1, 3), 9) == (0, [])


@settings(max_examples=40)
@given(lam=small_partition(max_weight=5),
       exps=st.lists(st.integers(0, 3), min_size=1, max_size=4))
def test_schur_qpoly_matches_tableau_substitution(lam, exps):
    q = Fraction(1, 3)
    emax = sum(lam) * max(exps) if lam else 0
    low, coeffs = schur_qpoly(lam, tuple(exps), emax)
    point = tuple(q**e for e in exps)
    assert sum(c * q**t for t, c in enumerate(coeffs, low)) == schur_tableau(lam, point)


@given(lam=small_partition(max_weight=5),
       exps=st.lists(st.integers(0, 3), min_size=1, max_size=4))
def test_schur_qpoly_coefficients_nonnegative(lam, exps):
    for c in schur_qpoly(lam, tuple(exps), 12)[1]:
        assert c >= 0


@settings(max_examples=30)
@given(exps=st.lists(st.integers(0, 3), min_size=1, max_size=4), emax=st.integers(0, 14))
def test_schur_qpoly_sums_per_group(exps, emax):
    # groups share one sweep: every group sum must equal the sum over its
    # shapes of the tableau substitution, truncated at emax
    q = Fraction(1, 3)
    point = tuple(q**e for e in exps)
    groups = [gen_partitions(n, max(n, 1)) for n in range(6)] + [[(2, 1), (4,)], []]
    sums = schur_qpoly_sums(tuple(exps), emax, groups)
    full = schur_qpoly_sums(tuple(exps), 5 * max(exps), groups)
    assert len(sums) == len(groups)
    for group, got, (low, whole) in zip(groups, sums, full):
        assert sum(c * q**t for t, c in enumerate(whole, low)) == sum(
            (schur_tableau(lam, point) for lam in group), Fraction(0))
        assert [0] * got[0] + got[1] == qp_normalize(([0] * low + whole)[: emax + 1])
