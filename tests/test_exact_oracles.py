"""The two exact paths that stopped enumerating or expanding in full, each
against the code it replaced.

`full_parafermi_ratio` below is the parafermi closed form as it was: both
determinants expanded in full as w-polynomials (the test-only Bareiss of
`full_bareiss`), divided exactly, and only then cut at w^nmax.
`gpf_parafermi_det` now computes the numerator alone, mod w^(nmax+1), and
divides it by the denominator's known product, Weyl's type-B denominator
(Fulton and Harris, Lecture 24); that identity is checked here against the
full expansion too. The two must agree on values, exception types and
messages. The `schur` command now takes its `tableau` value from the
branching engine; the tableau enumeration `schur_tableau` is its oracle.
"""

import contextlib
import io
import json
from fractions import Fraction as F
from itertools import combinations
from math import prod

import pytest
from full_bareiss import poly_det, poly_divexact, poly_mul
from hypothesis import example, given, settings, strategies as st

from schurgas import series
from schurgas.cli import frac_str, run
from schurgas.partitions import gen_partitions
from schurgas.qpoly import QPoly, qp_det, qp_divseries, qp_normalize
from schurgas.schur import DistinctnessViolation, as_point, clear_denominators, schur_tableau
from schurgas.series import DivisionInconsistency, FugacitySeries, gpf_parafermi_det

DERANDOMIZED = settings(derandomize=True, max_examples=100, deadline=None)

# zero, negative and mixed-denominator coordinates
COORDS = [F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3), F(5, 4), F(3, 7), F(-7, 6), F(9, 2)]


def _monomial_diff(y: int, hi: int, lo: int) -> QPoly:
    """y^hi w^hi - y^lo w^lo as a w-polynomial (hi > lo >= 1)."""
    poly = [0] * (hi + 1)
    poly[hi] = y ** hi
    poly[lo] -= y ** lo
    return qp_normalize(poly)


def full_parafermi_ratio(p, point, nmax):
    """The determinant ratio X_j^(2M+p+1-i) - X_j^i over X_j^(2M+1-i) - X_j^i,
    both determinants expanded in full on ints at y = D x, w = z / D."""
    if p < 1:
        raise ValueError("order p must be positive")
    xs = as_point(point)
    m = len(xs)
    if len(set(xs)) != m:
        raise DistinctnessViolation(f"repeated coordinate in point {','.join(map(frac_str, xs))}")
    scale, ys = clear_denominators(xs)
    num = poly_det(
        [[_monomial_diff(ys[j], 2 * m + p + 1 - i, i) for j in range(m)] for i in range(1, m + 1)]
    )
    den = poly_det(
        [[_monomial_diff(ys[j], 2 * m + 1 - i, i) for j in range(m)] for i in range(1, m + 1)]
    )
    if not den:
        raise DivisionInconsistency("denominator determinant is identically zero")
    ratio = tuple(poly_divexact(num, den)[: nmax + 1])
    return FugacitySeries(scale, ratio + (0,) * (nmax + 1 - len(ratio)))


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type and the message must match too
        return type(exc), str(exc)


@DERANDOMIZED
@given(p=st.integers(1, 4),
       point=st.lists(st.sampled_from(COORDS), min_size=1, max_size=6, unique=True),
       nmax=st.integers(0, 10))
@example(p=3, point=[F(1, 2), F(-2, 3), F(3), F(5, 4), F(7)], nmax=6)
@example(p=2, point=[F(1, 2), F(0), F(-3)], nmax=6)  # a zero column in the middle
@example(p=1, point=[F(2), F(-3), F(0)], nmax=10)  # a zero column last: no pivot needed there
@example(p=4, point=[F(-1), F(1)], nmax=0)
@example(p=4, point=[F(-7, 6), F(3, 7), F(1), F(-3), F(9, 2), F(1, 2)], nmax=10)  # M = 6
@example(p=1, point=[F(5, 4), F(-1), F(2), F(-2, 3), F(0), F(3, 7)], nmax=10)
@example(p=2, point=[F(5, 4), F(5, 4)], nmax=3)  # repeated
def test_truncated_parafermi_ratio_matches_the_full_expansion(p, point, nmax):
    assert outcome(gpf_parafermi_det, p, point, nmax) == outcome(full_parafermi_ratio, p, point, nmax)


def _type_b_factors(ys):
    """The factors of Weyl's type-B denominator with w^i out of row i: the
    constant c = (-1)^M prod y_j prod_(i<j) (y_j - y_i), then 1 - w y_j and
    1 - w^2 y_i y_j."""
    pairs = list(combinations(ys, 2))
    c = (-1) ** len(ys) * prod(ys) * prod(b - a for a, b in pairs)
    return [[c]] + [[1, -y] for y in ys] + [[1, 0, -a * b] for a, b in pairs]


@DERANDOMIZED
@given(point=st.lists(st.sampled_from([x for x in COORDS if x]), min_size=1, max_size=5,
                      unique=True))
@example(point=[F(9, 2)])
@example(point=[F(1), F(-1), F(2), F(-3), F(1, 2)])
@example(point=[F(-2, 3), F(5, 4), F(3, 7), F(-7, 6), F(9, 2)])
def test_parafermi_denominator_is_the_type_b_product(point):
    # the identity the closed form divides by: det(X_j^(2M+1-i) - X_j^i)
    # at X_j = w y_j, expanded in full, against its product
    _, ys = clear_denominators(as_point(point))
    m = len(ys)
    den = poly_det([[_monomial_diff(y, 2 * m + 1 - i, i) for y in ys] for i in range(1, m + 1)])
    product = [0] * (m * (m + 1) // 2) + [1]  # w^(1 + 2 + ... + M)
    for factor in _type_b_factors(ys):
        product = poly_mul(product, factor)
    assert den == product


def test_parafermi_ratio_is_one_elimination_over_the_product(monkeypatch):
    eliminations, divisors = [], []

    def counted_det(rows, emax):
        eliminations.append(rows)
        return qp_det(rows, emax)

    def recorded_division(a, b, emax):
        divisors.append(b)
        return qp_divseries(a, b, emax)

    monkeypatch.setattr(series, "qp_det", counted_det)
    monkeypatch.setattr(series, "qp_divseries", recorded_division)
    point = [F(1, 2), F(-2, 3), F(3)]
    got = gpf_parafermi_det(2, point, 8)
    assert len(eliminations) == 1 and len(eliminations[0]) == 3
    # every divisor is a factor of the type-B product, none an elimination's
    _, ys = clear_denominators(as_point(point))
    assert sorted(divisors) == sorted(_type_b_factors(ys))
    assert got == full_parafermi_ratio(2, point, 8)


@pytest.mark.parametrize("point", [[F(0), F(1, 2), F(-3)], [F(1, 2), F(0), F(-3)],
                                   [F(1, 2), F(-3), F(0)]], ids=["first", "middle", "last"])
def test_zero_coordinate_is_refused_before_any_elimination(monkeypatch, point):
    eliminations = []
    monkeypatch.setattr(series, "qp_det", lambda *args: eliminations.append(args))
    with pytest.raises(DivisionInconsistency, match="^denominator determinant is identically zero$"):
        gpf_parafermi_det(2, point, 6)
    assert eliminations == []


def test_truncated_parafermi_ratio_at_twenty_coordinates():
    # expanded in full, both determinants have about 400 powers of w and
    # this ran past 60 s; mod w^7 it is a fraction of a second
    series = gpf_parafermi_det(2, range(1, 21), 6)
    assert series.coeffs[:2] == (1, 210)


SHAPES = [lam for n in range(7) for lam in gen_partitions(n, n or 1)]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(lam=st.sampled_from(SHAPES),
       point=st.lists(st.sampled_from(COORDS[:8]), min_size=1, max_size=4))
@example(lam=(2, 1, 1), point=[F(1, 2), F(3)])  # more parts than coordinates
@example(lam=(3, 1), point=[F(0), F(-2, 3), F(-2, 3)])  # zero and repeated
@example(lam=(), point=[F(0)])
def test_schur_command_matches_the_tableau_sum(lam, point):
    shape = ",".join(map(str, lam)) or "0"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["schur", "--shape", shape, "--point=" + ",".join(map(str, point)),
                    "--format", "json"])
    blob = json.loads(out.getvalue())
    assert code == 0
    assert blob["tableau"] == frac_str(schur_tableau(lam, point))
