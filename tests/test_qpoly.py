import random
import sys
from collections import Counter
from fractions import Fraction as F
from itertools import permutations
from operator import add

import pytest
from full_bareiss import poly_det, poly_divexact, poly_mul as naive_mul

import schurgas.qpoly
import schurgas.thermo
from schurgas.equivalence import build_spectrum, gpf_bose_biseries, gpf_evencols_biseries
from schurgas.qpoly import (
    qp_det,
    qp_divseries,
    qp_eval_float,
    qp_mul,
    qp_normalize,
    qp_power_sum_rows,
)


def leibniz(matrix):
    """Permutation-sum determinant, independent of any elimination."""
    n = len(matrix)
    total = []
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = [-1 if inversions % 2 else 1]
        for row, col in enumerate(perm):
            term = naive_mul(term, matrix[row][col])
        width = max(len(total), len(term))
        total = qp_normalize(
            (total[k] if k < len(total) else 0) + (term[k] if k < len(term) else 0)
            for k in range(width)
        )
    return total


def all_ints(poly):
    return all(type(c) is int for c in poly)


def random_poly(rng, degree, rational=False, span=4):
    coeffs = [rng.randint(-span, span) for _ in range(degree + 1)]
    if rational:
        coeffs = [F(c, rng.randint(1, 5)) for c in coeffs]
    return qp_normalize(coeffs)


def degree_bound(matrix):
    """Each row's largest entry degree, summed: no term of the determinant
    has a higher degree, so qp_det cut there is the full determinant."""
    return sum(max(max(map(len, row)) - 1, 0) for row in matrix)


def constant_terms(matrix):
    return [[e[:1] for e in row] for row in matrix]


def full_det(matrix):
    """qp_det cut at the degree bound, so nothing is cut."""
    return qp_det(matrix, degree_bound(matrix))


# the test-only full expansion also takes Fraction entries; the kernel takes ints
FRACTION_ZERO_CORNER = [
    [[F(0)], [F(1, 2)], [F(3)]],
    [[F(2, 3)], [F(5)], [F(-1, 4)]],
    [[F(7)], [F(1, 3)], [F(2)]],
]
FRACTION_POLY_ZERO_CORNER = [
    [[], [1, 2], [0, 0, 3]],
    [[F(1, 2), 1], [F(-1)], [2, 0, 1]],
    [[3], [0, 1], [F(2, 3)]],
]
FRACTION_SINGULAR = [[[F(1, 2)], [F(1)], [F(3)]], [[F(1)], [F(2)], [F(6)]], [[F(5)], [F(0)], [F(1)]]]
# the same matrices with each row cleared of its denominators
ZERO_CORNER = [
    [[0], [3], [18]],
    [[8], [60], [-3]],
    [[21], [1], [6]],
]
POLY_ZERO_CORNER = [
    [[], [1, 2], [0, 0, 3]],
    [[1, 2], [-2], [4, 0, 2]],
    [[9], [0, 3], [2]],
]


@pytest.mark.parametrize("matrix", [ZERO_CORNER, POLY_ZERO_CORNER])
def test_det_with_zero_pivot_swaps_rows(matrix):
    det = full_det(matrix)
    assert det == leibniz(matrix)
    assert det


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_det_matches_leibniz_on_random_matrices(n, wide):
    # a refusal only where the constant-term matrix is singular; wide
    # entries make Bareiss divide by large pivots
    rng = random.Random(100 * n + wide)
    compared = 0
    for _ in range(5):
        matrix = [[random_poly(rng, rng.randint(0, 2), span=1000 if wide else 4)
                   for _ in range(n)] for _ in range(n)]
        try:
            assert full_det(matrix) == leibniz(matrix)
            compared += 1
        except ZeroDivisionError:
            assert not leibniz(constant_terms(matrix))
    assert compared >= 3


def singular_or_zero(matrix):
    """qp_det at emax 0 of a singular constant matrix: [] or a refusal."""
    try:
        return qp_det(matrix, 0)
    except ZeroDivisionError:
        return []


SINGULAR_CONSTANT = [
    [[[1], [2]], [[2], [4]]],
    [[[1], [2], [6]], [[2], [4], [12]], [[5], [0], [1]]],
    [[[], [1]], [[], [2]]],  # a zero column: no pivot at all
    [[[1], [1], [1]], [[-1], [-1], [1]], [[0], [0], [1]]],  # no pivot in column 1
    [[[1], [2], [3]], [[0], [0], [0]], [[4], [5], [6]]],  # a zero row
]


def test_det_of_singular_matrix_is_zero():
    for matrix in SINGULAR_CONSTANT:
        assert leibniz(matrix) == []
        assert singular_or_zero(matrix) == []
    assert qp_det([[[1, 1], [2]], [[2, 2], [4]]], 1) == []
    with pytest.raises(ZeroDivisionError):
        qp_det(SINGULAR_CONSTANT[3], 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_constant_det_matches_leibniz(n):
    # small entries with many zeros, so that about a third are singular; a
    # singular matrix gives [] or a refusal, never a wrong value
    rng = random.Random(n)
    singular = 0
    for _ in range(40):
        matrix = [[[rng.choice([0, 0, 0, 1, -1, 2])] for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3 and n > 1:  # one row a multiple of another
            i, j = rng.sample(range(n), 2)
            matrix[i] = [[rng.choice([-2, 1, 3]) * e[0]] for e in matrix[j]]
        want = leibniz(matrix)
        if want:
            det = qp_det(matrix, 0)
            assert det == want and all_ints(det)
        else:
            singular += 1
            assert singular_or_zero(matrix) == []
    assert 0 < singular < 40 or n == 1


def test_det_of_empty_matrix_is_one():
    assert qp_det([], 0) == [1]


def test_det_normalizes_zero_entries():
    # [0] and [0, 0] are zeros with trailing zeros left in; they must not
    # be taken as pivots
    assert qp_det([[[0], [1]], [[1], [0]]], 0) == [-1]
    assert qp_det([[[0], [2], [0, 0]],
                   [[3], [0], [1]],
                   [[1], [1], [0]]], 1) == [2]


def test_int_inputs_never_produce_floats():
    rng = random.Random(7)
    compared = 0
    for n in (2, 3, 4) * 2:
        matrix = [[random_poly(rng, rng.randint(0, 2), False) for _ in range(n)]
                  for _ in range(n)]
        try:
            det = full_det(matrix)
        except ZeroDivisionError:
            continue
        assert all_ints(det)
        assert det == leibniz(matrix)
        compared += 1
    assert compared >= 3
    # the minor 1 + z^2 has an inner zero that is divided by the int 1 of
    # the first Bareiss step
    det = qp_det([[[1], [1]], [[0, 0, 1], [1, 0, 2]]], 2)
    assert det == [1, 0, 1] and all_ints(det)
    quot = poly_divexact([0, 2, 4, 2], [0, 1, 1])
    assert quot == [2, 2] and all_ints(quot)
    assert all_ints(qp_mul([1, -2, 3], [4, 5], 2))


def test_full_expansion_oracle_matches_leibniz():
    # the test-only determinant behind full_parafermi_ratio pivots on any
    # nonzero entry, so it never refuses, and a singular matrix gives []
    for matrix in [FRACTION_ZERO_CORNER, FRACTION_POLY_ZERO_CORNER, FRACTION_SINGULAR,
                   ZERO_CORNER, POLY_ZERO_CORNER, *SINGULAR_CONSTANT, []]:
        assert poly_det(matrix) == leibniz(matrix)
    assert poly_det([[[0], [1]], [[1], [0]]]) == [-1]
    assert poly_det([[[0, 1], [1]], [[0, 2], [3]]]) == [0, 1]  # no constant-term pivot
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        for rational in (False, True):
            matrix = [[random_poly(rng, rng.randint(0, 2), rational) for _ in range(n)]
                      for _ in range(n)]
            det = poly_det(matrix)
            assert det == leibniz(matrix) and (rational or all_ints(det))


def test_divexact_round_trips():
    rng = random.Random(3)
    for rational in (False, True):
        for _ in range(10):
            a = random_poly(rng, 3, rational) or [1]
            b = random_poly(rng, 2, rational) or [1]
            assert poly_divexact(naive_mul(a, b), b) == a


def test_divseries_inverts_a_truncated_product():
    rng = random.Random(5)
    for span in (4, 1000):  # small, then wide coefficients
        for emax in range(6):
            a = random_poly(rng, 4, span=span)
            b = [rng.choice([-3, -1, 2, 5])] + random_poly(rng, 3, span=span)
            quot = qp_divseries(naive_mul(a, b), b, emax)
            assert quot == qp_normalize(a[: emax + 1]) and all_ints(quot)
    # 1 / (1 - w) is the geometric series, cut at emax
    assert qp_divseries([1], [1, -1], 4) == [1, 1, 1, 1, 1]


def test_divseries_refuses_what_it_cannot_divide():
    with pytest.raises(ZeroDivisionError):
        qp_divseries([1, 2], [0, 1], 3)  # no constant term
    with pytest.raises(ZeroDivisionError):
        qp_divseries([1], [], 3)
    with pytest.raises(ArithmeticError):
        qp_divseries([1, 1], [2, 1], 1)  # 1/2 is not an int


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_truncated_det_is_the_full_det_cut(n):
    # a refusal only where the constant-term matrix is singular; anywhere
    # else the full determinant cut at emax
    rng = random.Random(n)
    compared = 0
    for emax in (0, 1, 3, 6) * 3:
        matrix = [[random_poly(rng, rng.randint(0, 3), False) for _ in range(n)]
                  for _ in range(n)]
        try:
            det = qp_det(matrix, emax)
        except ZeroDivisionError:
            assert not leibniz(constant_terms(matrix))
            continue
        assert det == qp_normalize(leibniz(matrix)[: emax + 1]) and all_ints(det)
        compared += 1
    assert compared >= 8


def test_truncated_det_pivots_on_a_constant_term():
    # the (0, 0) entry is w: the full elimination may pivot on it, the
    # truncated one must swap in the row whose entry has a constant term
    matrix = [[[0, 1], [2, 1]], [[3], [1, 0, 4]]]
    assert qp_det(matrix, 3) == qp_normalize(leibniz(matrix)[:4])
    assert qp_det(matrix, 0) == [-6]
    # column 0 has no constant term anywhere: the constant-term matrix is
    # singular, which is reported, not guessed at
    with pytest.raises(ZeroDivisionError):
        qp_det([[[0, 1], [1]], [[0, 2], [3]]], 4)
    # a 1 x 1 matrix needs no pivot, and emax cuts its entry
    assert qp_det([[[0, 1, 2]]], 1) == [0, 1]


def test_divexact_raises_on_inexact_quotient():
    with pytest.raises(ArithmeticError):
        poly_divexact([1, 0, 1], [1, 1])  # remainder 2
    with pytest.raises(ArithmeticError):
        poly_divexact([1], [2])  # exact over Q, not over the ints
    assert poly_divexact([F(1)], [2]) == [F(1, 2)]
    with pytest.raises(ZeroDivisionError):
        poly_divexact([1], [])


def test_mul_truncates_at_emax():
    a, b = [1, 2, 3], [-2, 0, 5]
    full = naive_mul(a, b)
    for emax in range(6):
        assert qp_mul(a, b, emax) == qp_normalize(full[: emax + 1])
    assert qp_mul(a, b, 10) == full
    assert qp_mul([], b, 3) == [] and qp_mul(a, [0, 0], 3) == []
    assert qp_mul([0, 1], [0, 1], 1) == []


def ulps(got, exact):
    """|got - exact| in units of the float epsilon relative to exact; 0 for
    an exact zero got exactly."""
    if not exact:
        return 0.0 if got == 0.0 else float("inf")
    return float(abs(F(got) - exact) / abs(exact)) / sys.float_info.epsilon


def test_eval_float_is_value_and_slope_to_two_ulp():
    # r(q) and q r'(q) against exact Fractions at the same float q. The
    # coefficients are nonnegative, as the thermo weights are, so at q in
    # (0, 1) no cancellation spoils the relative error. That error is 2 ulp
    # to degree 2; above, Horner's a priori bound for nonnegative terms
    # grows with the degree d, to d ulp for r and 2d + 1 for q r' (random
    # polynomials of degree 12 reach 2.25 ulp on q r', of degree 40 about 3)
    rng = random.Random(13)
    polys = [[], [0], [7], [0, 1], [3, 5], [2, 0, 5], [2, 0, 0, 5]]
    polys += [[rng.randint(0, 10 ** rng.randint(0, 12)) for _ in range(rng.randint(1, 41))]
              for _ in range(200)]
    for poly in polys:
        degree = len(poly) - 1
        for q in (rng.random(), rng.uniform(0.9, 1.0), 2.0 ** -30):
            value, slope = qp_eval_float(poly, q)
            fq = F(q)
            assert ulps(value, sum(c * fq ** t for t, c in enumerate(poly))) <= max(2, degree)
            assert ulps(slope, sum(t * c * fq ** t for t, c in enumerate(poly))) <= (
                2 if degree <= 2 else 2 * degree + 1)
    assert qp_eval_float([], 0.5) == (0.0, 0.0)
    assert qp_eval_float([3], 0.5) == (3.0, 0.0)


def test_thermo_evaluates_with_the_kernel_loop():
    assert schurgas.thermo.qp_eval_float is schurgas.qpoly.qp_eval_float


def sweep_rows(factors, nmax, emax):
    """The per-factor sweep that the power-sum kernel replaced, as its
    oracle: each factor (1 - sign c z^r q^t)^(-sign) multiplies a dense
    (z^n, q^e) table in place. A geometric factor sweeps n upward, so each
    row reads one already multiplied (which telescopes the geometric sum);
    a binomial one sweeps downward, so each row reads one not yet touched."""
    rows = [[0] * (emax + 1) for _ in range(nmax + 1)]
    rows[0][0] = 1
    for r, sign, c, t in factors:
        if t > emax:
            continue
        for n in range(r, nmax + 1) if sign == 1 else range(nmax, r - 1, -1):
            row, prev = rows[n], rows[n - r]
            row[t:] = map(add, row[t:], prev if c == 1 else [c * v for v in prev])
    return [qp_normalize(row) for row in rows]


FACTOR_LISTS = {
    "geometric": [(1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 1, 3), (1, 1, 1, 3)],
    "binomial": [(1, -1, 1, 1), (1, -1, 1, 2), (1, -1, 1, 2), (1, -1, 1, 4)],
    "zero-negative-r2": [(1, 1, -2, 1), (2, 1, 3, 0), (2, -1, 0, 1), (1, -1, -1, 2),
                         (2, -1, 5, 3), (2, 1, 3, 0), (1, 1, 0, 2)],
    "pairs-and-squares": [(1, 1, 1, 1), (2, 1, 1, 2), (2, 1, 1, 4), (2, 1, 1, 3), (2, 1, 1, 3)],
    "wide-c": [(1, 1, 3, 0), (2, -1, -25, 1), (1, 1, 3, 0), (3, 1, 7, 2)],
}


@pytest.mark.parametrize("emax", [0, 1, 9])
@pytest.mark.parametrize("name", FACTOR_LISTS)
def test_power_sum_rows_match_the_sweep(name, emax):
    factors = FACTOR_LISTS[name]
    rows = qp_power_sum_rows(factors, 8, emax)
    assert [[0] * low + row for low, row in rows] == sweep_rows(factors, 8, emax)
    assert all(all_ints(row) for _, row in rows)
    # the order and grouping of the factors does not matter
    assert qp_power_sum_rows(factors[::-1], 8, emax) == rows


def test_power_sum_rows_small_products():
    # (1 - c z^2)^(-1): c^k at z^(2k)
    assert qp_power_sum_rows([(2, 1, 3, 0)], 6, 0) == [
        (0, [1]), (0, []), (0, [3]), (0, []), (0, [9]), (0, []), (0, [27])]
    # (1 + z q)(1 + z q^2) = 1 + z (q + q^2) + z^2 q^3, and nothing past z^2
    assert qp_power_sum_rows([(1, -1, 1, 1), (1, -1, 1, 2)], 5, 6) == [
        (0, [1]), (1, [1, 1]), (3, [1]), (0, []), (0, []), (0, [])]
    # a binomial and the geometric factor with -c cancel
    assert qp_power_sum_rows([(3, -1, 2, 1), (3, 1, -2, 1)], 7, 4) == [
        (0, [1])] + [(0, [])] * 7
    assert qp_power_sum_rows([], 3, 2) == [(0, [1]), (0, []), (0, []), (0, [])]
    assert qp_power_sum_rows([(1, 1, 1, 1)], 0, 0) == [(0, [1])]
    # 1/((1 - z q)(1 - z q^3)) has F_n = q^n + q^(n+2) + ... + q^(3n). Cut at
    # q^4, F_2 adds q^3 F_1 = q^4 + q^6 with unit coefficient into room for
    # one power, and F_3's q^3 F_2 term starts past the cap.
    assert qp_power_sum_rows([(1, 1, 1, 1), (1, 1, 1, 3)], 3, 4) == [
        (0, [1]), (1, [1, 0, 1]), (2, [1, 0, 1]), (3, [1])]


def test_power_sum_rows_merge_factors_and_cancel():
    # (1 - z q)^(-2) (1 - z^2 q^3)^(-1): (k + 1) q^k at z^k times q^(3j) at
    # z^(2j), with the repeated factor listed twice or given a multiplicity
    factors = [(1, 1, 1, 1), (2, 1, 1, 3), (1, 1, 1, 1)]
    rows = [(0, [1]), (1, [2]), (2, [3, 1]), (3, [4, 2]), (4, [5, 3, 1])]
    assert qp_power_sum_rows(factors, 4, 6) == rows
    assert qp_power_sum_rows(Counter(factors), 4, 6) == rows
    # the cancelling pair's power sums are zero, as the empty product's
    cancel = [(3, -1, 2, 1), (3, 1, -2, 1)]
    assert qp_power_sum_rows(cancel, 7, 4) == qp_power_sum_rows([], 7, 4)


def test_power_sum_rows_rejects_bad_factors():
    for bad in ((0, 1, 1, 1), (1, 2, 1, 1), (1, 0, 1, 1), (1, 1, 1, -1)):
        with pytest.raises(ValueError):
            qp_power_sum_rows([bad], 3, 3)
    with pytest.raises(ValueError):
        qp_power_sum_rows([(1, 1, 1, 1)], -1, 3)
    with pytest.raises(ValueError):
        qp_power_sum_rows([(1, 1, 1, 1)], 3, -1)


@pytest.mark.parametrize("qmax", [1, 2, 7, 20, 41, 80])
def test_equivalence_tables_match_the_sweep(qmax):
    # the factor lists are rebuilt here from the levels, as the sweep took
    # them: one factor per level copy, and one per pair of eq2 levels
    eq1 = build_spectrum("eq1", qmax)
    bose = [(1, 1, 1, (e - 1) // 2) for e, d in eq1.levels for _ in range(d)]
    assert gpf_bose_biseries(eq1) == tuple(
        tuple(row) + (0,) * (qmax + 1 - len(row)) for row in sweep_rows(bose, qmax, qmax))
    s = [(e - 1) // 2 for e, _ in build_spectrum("eq2", qmax).levels]
    pairs = [(1, 1, 1, a + b) for i, a in enumerate(s) for b in s[i + 1 :]]
    assert gpf_evencols_biseries(build_spectrum("eq2", qmax)) == tuple(
        tuple(row) + (0,) * (qmax + 1 - len(row)) for row in sweep_rows(pairs, qmax, qmax))
