"""Truncated fugacity series and the grand canonical partition functions.

A FugacitySeries holds c_0..c_nmax of a power series in the fugacity z as
ints at the point D x of `clear_denominators`: ints[N] = D^N c_N, the
coefficients of the same series in w = z / D. Its `coeffs` property builds
the exact rationals, for output only. The grand series of a statistics comes
in two independently computed flavours, both at that one cleared point:

* `gpf_definition` is the defining sum, coefficient N = z_canonical(kind, N).
  Works for every statistics.
* `gpf_product` and `gpf_parafermi_det` are the closed product and
  determinant forms, for the statistics that have one. Both work mod
  z^(nmax+1): the products by the power-sum kernel, the determinant ratio as
  one Bareiss elimination on series over Weyl's type-B denominator product.

`verify_identity` compares the two on ints, coefficientwise, and reports the
first mismatch, if any. Throughout, X_i = z * x_i, so a factor in X_i X_j or
X_i^2 carries z^2.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import lcm, prod

from .qpoly import Factor, QPoly, qp_det, qp_divseries, qp_mul, qp_power_sum_rows
from .schur import Rational, as_point, check_distinct, clear_denominators, schur_int_sums
from .statistics import StatisticsKind, UnsupportedKind, admitted_partitions, kind_name


class TruncationMismatch(ValueError):
    """Two series with different truncation orders were combined."""


class DivisionInconsistency(ArithmeticError):
    """The determinant ratio could not be expanded as a power series."""


class FugacitySeries(namedtuple("FugacitySeries", "scale ints")):
    """sum c_N z^N to z^nmax as ints[N] = scale^N c_N, nmax = len(ints) - 1."""

    __slots__ = ()

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The exact rationals c_0..c_nmax, built on each read."""
        return tuple(Fraction(c, self.scale ** n) for n, c in enumerate(self.ints))


def _series(scale: int, nmax: int, poly: QPoly) -> FugacitySeries:
    """The series of a kernel polynomial in w = z / scale: truncated, or
    padded with zeros."""
    ints = tuple(poly[: nmax + 1])
    return FugacitySeries(scale, ints + (0,) * (nmax + 1 - len(ints)))


def series_mul(a: FugacitySeries, b: FugacitySeries) -> FugacitySeries:
    """Cauchy product truncated at the common nmax, at the lcm of the scales."""
    if len(a.ints) != len(b.ints):
        raise TruncationMismatch(f"nmax {len(a.ints) - 1} vs {len(b.ints) - 1}")
    nmax, scale = len(a.ints) - 1, lcm(a.scale, b.scale)
    a_ints, b_ints = ([c * (scale // s.scale) ** n for n, c in enumerate(s.ints)] for s in (a, b))
    return _series(scale, nmax, qp_mul(a_ints, b_ints, nmax))


def gpf_definition(kind: StatisticsKind, point: Sequence[Rational], nmax: int) -> FugacitySeries:
    """The grand series straight from its definition: coefficient of z^N is
    the canonical Z_N. Available for every statistics. All N = 0..nmax come
    from one schur_int_sums call at the cleared point, a group of admitted
    shapes per N, so they share one branching-rule sweep."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    scale, ys = clear_denominators(point)
    groups = [admitted_partitions(kind, n, len(ys)) for n in range(nmax + 1)]
    return FugacitySeries(scale, tuple(schur_int_sums(ys, groups)))


PRODUCT_FAMILIES = ("bose", "fermi", "hst", "even-rows", "even-cols")


def product_factors(kind: StatisticsKind, monomials: Sequence[tuple[int, int]]) -> list[Factor]:
    """The factors (see qp_power_sum_rows) of the closed product of the
    grand series at the point x_i = c_i q^(t_i), given as the int monomials
    (c_i, t_i), so the factors are int too; X_i = z x_i, so z counts particles:

    bose:       prod_i 1/(1 - X_i)
    fermi:      prod_i (1 + X_i)
    hst:        prod_i 1/(1 - X_i) * prod_{i<j} 1/(1 - X_i X_j)
    even-rows:  prod_i 1/(1 - X_i^2) * prod_{i<j} 1/(1 - X_i X_j)
    even-cols:  prod_{i<j} 1/(1 - X_i X_j)

    Raises UnsupportedKind for parabose and pq (no closed form exists) and
    for parafermi (see gpf_parafermi_det).
    """
    fam = kind.family
    if fam not in PRODUCT_FAMILIES:
        raise UnsupportedKind(f"no closed product form for {kind_name(kind)}")
    singles = [(1, -1 if fam == "fermi" else 1, c, t) for c, t in monomials]
    pairs = [(2, 1, ci * cj, ti + tj)
             for k, (ci, ti) in enumerate(monomials) for cj, tj in monomials[k + 1 :]]
    squares = [(2, 1, c * c, 2 * t) for c, t in monomials]
    by_family = {"hst": singles + pairs, "even-rows": squares + pairs, "even-cols": pairs}
    return by_family.get(fam, singles)


def gpf_product(kind: StatisticsKind, point: Sequence[Rational], nmax: int) -> FugacitySeries:
    """Closed product form of the grand series (see product_factors), on
    ints at y = D x (clear_denominators)."""
    scale, ys = clear_denominators(point)
    rows = qp_power_sum_rows(product_factors(kind, [(y, 0) for y in ys]), nmax, 0)
    return FugacitySeries(scale, tuple(sum(row) for _, row in rows))


# ---------------------------------------------------------------------------
# Parafermi determinant ratio: one Bareiss determinant over a known product.


def gpf_parafermi_det(p: int, point: Sequence[Rational], nmax: int) -> FugacitySeries:
    """Closed grand series for row-bounded (order-p) statistics: the ratio
    of two determinants with entries X_j^(T-i) - X_j^i (i, j = 1..M), with
    T = 2M+p+1 over T = 2M+1 (Macdonald I.5 Ex. 16), as a series in z cut at z^nmax.

    Row i of both carries w^i; divided out, it leaves the constant-term matrix
    (-y_j^i), of determinant c = (-1)^M prod y_j prod_(i<j) (y_j - y_i). The
    numerator is one qp_det mod w^(nmax+1), never expanded in full; c != 0 is
    its pivot. The denominator is Weyl's type-B denominator (Fulton and Harris,
    Lecture 24), c prod_j (1 - w y_j) prod_(i<j) (1 - w^2 y_i y_j), so the
    ratio divides the numerator by c and by each two-term factor (qp_divseries).

    The point must have pairwise-distinct coordinates; a coincidence raises
    DistinctnessViolation. A zero coordinate makes both determinants vanish
    identically (a zero column), and DivisionInconsistency is raised.
    """
    if p < 1:
        raise ValueError("order p must be positive")
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    xs = as_point(point)
    check_distinct(xs)
    m = len(xs)
    # X_j = z x_j = w y_j with y_j = D x_j integral and w = z / D, so the
    # determinants are integer series in w. Row i over w^i has entries
    # y^i (y^(T-2i) w^(T-2i) - 1), and T - 2i >= 1.
    scale, ys = clear_denominators(xs)
    pairs = [(yi, yj) for k, yi in enumerate(ys) for yj in ys[k + 1 :]]
    c = (-1) ** m * prod(ys) * prod(yj - yi for yi, yj in pairs)
    if not c:  # distinct coordinates, so one of them is 0
        raise DivisionInconsistency("denominator determinant is identically zero")
    ratio = qp_det([[[-y ** i] + [0] * (2 * (m - i) + p) + [y ** (2 * m + p + 1 - i)] for y in ys]
                    for i in range(1, m + 1)], nmax)
    # the ratio, sum of w^|lam| s_lam(y) over the admitted shapes, is integral:
    # every division is exact on ints
    for factor in [[c]] + [[1, -y] for y in ys] + [[1, 0, -yi * yj] for yi, yj in pairs]:
        ratio = qp_divseries(ratio, factor, nmax)
    return _series(scale, nmax, ratio)


# ---------------------------------------------------------------------------
# Identity verification.


class IdentityReport(namedtuple("IdentityReport",
                                "kind point nmax lhs rhs equal first_mismatch")):
    """Coefficientwise comparison of the defining sum `lhs` against a closed
    form `rhs`, both FugacitySeries, with the first differing N or None."""

    __slots__ = ()


def gpf_closed_form(kind: StatisticsKind, point: Sequence[Rational], nmax: int) -> FugacitySeries:
    """Dispatch to the closed form available for this statistics."""
    if kind.family == "parafermi":
        return gpf_parafermi_det(kind.p, point, nmax)
    return gpf_product(kind, point, nmax)


def verify_identity(kind: StatisticsKind, point: Sequence[Rational], nmax: int) -> IdentityReport:
    """Compare the defining Schur sum against the closed form, exactly: both
    clear the same point, so they share D and compare on ints."""
    xs = as_point(point)
    lhs = gpf_definition(kind, xs, nmax)
    rhs = gpf_closed_form(kind, xs, nmax)
    mismatch = next((n for n, (a, b) in enumerate(zip(lhs.ints, rhs.ints)) if a != b), None)
    return IdentityReport(kind, xs, nmax, lhs, rhs, mismatch is None, mismatch)
