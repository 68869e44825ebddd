"""Differential tests for the integer front of the branching-rule engine,
and the closed forms against sympy.

`z_canonical` and `gpf_definition` sum s_lam on ints at the point D x of
`clear_denominators` and divide by D^n. The tableau sum over the admitted
shapes, in `Fraction` at x itself, is the independent oracle. The closed
products and the parafermi determinant ratio are held against their
formulas expanded in z by sympy's power-series ring.
"""

from fractions import Fraction as F
from itertools import permutations
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import QQ, ring
from sympy.polys.ring_series import rs_mul, rs_series_inversion

from schurgas.canonical import z_canonical
from schurgas.partitions import conjugate, gen_partitions
from schurgas.schur import as_point, clear_denominators, schur_int_sums, schur_tableau
from schurgas.series import DivisionInconsistency, gpf_definition, gpf_parafermi_det, gpf_product
from schurgas.statistics import (
    BOSE,
    EVEN_COLS,
    EVEN_ROWS,
    FERMI,
    HST,
    admitted_partitions,
    kind_name,
    parabose,
    parafermi,
    pq,
)

# every family, with the orders p and bounds q in 1..3
KINDS = [BOSE, FERMI, HST, EVEN_ROWS, EVEN_COLS] + [
    make(p) for make in (parafermi, parabose) for p in (1, 2, 3)
] + [pq(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]

# zero, negative and mixed-denominator coordinates; lists drawn from these
# repeat coordinates often
COORDS = [F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3), F(5, 4), F(3, 7), F(-7, 6)]
points = st.lists(st.sampled_from(COORDS), min_size=1, max_size=4).map(tuple)

DERANDOMIZED = settings(derandomize=True, max_examples=12, deadline=None)


def tableau_z(kind, point, n):
    return sum((schur_tableau(lam, point) for lam in admitted_partitions(kind, n, len(point))),
               F(0))


@pytest.mark.parametrize("kind", KINDS, ids=kind_name)
@DERANDOMIZED
@given(point=points, n=st.integers(0, 5))
@example(point=(F(0), F(1, 2), F(-2, 3)), n=3)  # zero, negative, denominators 2 and 3
@example(point=(F(-3), F(-3), F(5, 4)), n=4)  # a repeated negative coordinate
@example(point=(F(0), F(0)), n=2)  # only zeros
def test_z_canonical_matches_tableau_sum(kind, point, n):
    assert z_canonical(kind, point, n) == tableau_z(kind, point, n)


@pytest.mark.parametrize("kind", KINDS, ids=kind_name)
@DERANDOMIZED
@given(point=points, nmax=st.integers(0, 6))
@example(point=(F(1, 2), F(-2, 3), F(3, 7)), nmax=6)
def test_gpf_definition_coefficients_are_z_canonical(kind, point, nmax):
    # one call shares its sweep across every N; each coefficient must still
    # be the N it stands for, over its own power of D
    series = gpf_definition(kind, point, nmax)
    assert series.coeffs == tuple(z_canonical(kind, point, n) for n in range(nmax + 1))


@DERANDOMIZED
@given(ys=st.lists(st.integers(-4, 4), min_size=1, max_size=4))
def test_int_sums_per_size(ys):
    # every size shares one sweep; shapes longer than the point contribute
    # 0, and a size with no kept shape (one tiled by the cells) sums to 0
    for outer, (a, b) in (((5,) * 5, (1, 1)), ((3, 1, 1, 1, 1), (2, 1))):
        groups = [[lam for lam in gen_partitions(n, max(n, 1)) if len(lam) <= len(outer)
                   and all(map(int.__le__, lam, outer)) and all(p % b == 0 for p in lam)
                   and all(c % a == 0 for c in conjugate(lam))] for n in range(6)]
        sums = schur_int_sums(ys, outer, 5, (a, b))
        assert len(sums) == len(groups)
        for group, got in zip(groups, sums):
            assert isinstance(got, int)
            assert got == sum((schur_tableau(lam, ys) for lam in group), F(0))


def test_int_sums_edge_cases():
    # 3 x 1 cells need three rows, which two coordinates cut from outer
    assert schur_int_sums([2, 3], (4, 2, 1), 7, (3, 1)) == [1] + [0] * 7
    assert schur_int_sums([2, 3], (2, 1, 1), 3) == [1, 5, 25, 30]
    assert schur_int_sums([2, 3], (2, 1, 1), 3, (2, 1)) == [1, 0, 6, 0]
    assert schur_int_sums([0, 5], (2,), 2) == [1, 5, 25]
    assert schur_int_sums([0, 5], (1, 1), 2) == [1, 5, 0]
    assert schur_int_sums([], (1,), 1) == [1, 0]


def test_z_canonical_divides_by_scale_to_the_n():
    # D = 6 here, so an error in the power of D would show at every n >= 1
    point = (F(1, 2), F(1, 3))
    scale, ys = clear_denominators(point)
    assert (scale, ys) == (6, [3, 2])
    # it coerces what as_point takes: ints, Fractions, "num/den" strings, mixed
    for same in [["1/2", "1/3"], [F(1, 2), "2/6"], [1, "1/3", F(-2, 4), 0]]:
        assert clear_denominators(same) == clear_denominators(as_point(same))
    assert clear_denominators([1, "1/3", F(-2, 4), 0]) == (6, [6, 2, -3, 0])
    assert [z_canonical(BOSE, point, n) for n in range(4)] == [1, F(5, 6), F(19, 36), F(65, 216)]
    assert gpf_definition(BOSE, point, 3).coeffs == (1, F(5, 6), F(19, 36), F(65, 216))


# ---------------------------------------------------------------------------
# Closed forms against a sympy expansion in z, X_i = z x_i.

QZ, z = ring("z", QQ)


def sympy_series(num, den, nmax):
    """Coefficients of z^0..z^nmax of num / den, after cancelling the
    lowest power of z in den (num has at least as many)."""
    low = min(e for (e,) in den.monoms())
    num, den = (QZ({(e - low,): c for (e,), c in p.terms()}) for p in (num, den))
    s = rs_mul(num, rs_series_inversion(den, z, nmax + 1), z, nmax + 1)
    return tuple(F(int(c.numerator), int(c.denominator)) for c in (s.coeff(z**n) for n in range(nmax + 1)))


def product_formula(kind, xs):
    """The closed product as (numerator, denominator) polynomials in z."""
    pairs = prod((1 - xs[i] * xs[j] for i in range(len(xs)) for j in range(i)), start=QZ(1))
    ones = prod((1 - x for x in xs), start=QZ(1))
    return {
        "bose": (QZ(1), ones),
        "fermi": (prod((1 + x for x in xs), start=QZ(1)), QZ(1)),
        "hst": (QZ(1), ones * pairs),
        "even-rows": (QZ(1), prod((1 - x * x for x in xs), start=QZ(1)) * pairs),
        "even-cols": (QZ(1), pairs),
    }[kind.family]


def leibniz_det(rows):
    total = QZ(0)
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        total += (-1) ** inversions * prod((row[c] for row, c in zip(rows, perm)), start=QZ(1))
    return total


def point_id(point):
    return ",".join(map(str, point))


# zero, negative and repeated coordinates, with denominators
PRODUCT_POINTS = [(F(0), F(-1, 2), F(3)), (F(-2), F(-2), F(1, 3)), (F(5, 4),), (F(0), F(0))]


@pytest.mark.parametrize("point", PRODUCT_POINTS, ids=point_id)
@pytest.mark.parametrize("kind", [BOSE, FERMI, HST, EVEN_ROWS, EVEN_COLS], ids=kind_name)
def test_gpf_product_matches_sympy(kind, point):
    xs = [QQ(x.numerator, x.denominator) * z for x in point]
    assert gpf_product(kind, point, 6).coeffs == sympy_series(*product_formula(kind, xs), 6)


@pytest.mark.parametrize("point", [(F(-1, 2), F(3), F(2, 3)), (F(1), F(-1)), (F(5, 4),)],
                         ids=point_id)
@pytest.mark.parametrize("p", [1, 2, 3])
def test_gpf_parafermi_det_matches_sympy(p, point):
    # det(X_j^(2M+p+1-i) - X_j^i) / det(X_j^(2M+1-i) - X_j^i), i = 1..M
    xs = [QQ(x.numerator, x.denominator) * z for x in point]
    m = len(xs)

    def det(top):
        return leibniz_det([[x ** (top - i) - x ** i for x in xs] for i in range(1, m + 1)])

    assert gpf_parafermi_det(p, point, 6).coeffs == sympy_series(det(2 * m + p + 1), det(2 * m + 1), 6)


def test_gpf_parafermi_det_refuses_a_zero_coordinate():
    # a zero column makes the denominator vanish identically
    with pytest.raises(DivisionInconsistency):
        gpf_parafermi_det(2, (F(0), F(1, 2), F(-3)), 6)
