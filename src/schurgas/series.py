"""Truncated fugacity series and the grand canonical partition functions.

A FugacitySeries stores exact rational coefficients c_0..c_nmax of a power
series in the fugacity z; the arithmetic on them is the polynomial kernel in
`qpoly`, with z as its variable. The grand series of a statistics comes in
two independently computed flavours:

* `gpf_definition` is the defining sum, coefficient N = z_canonical(kind, N).
  Works for every statistics.
* `gpf_product` and `gpf_parafermi_det` are the closed product and
  determinant forms, for the statistics that have one. Both work mod
  z^(nmax+1) throughout: the products by the power-sum kernel, the
  determinants as Bareiss eliminations on series.

`verify_identity` compares the two coefficientwise and reports the first
mismatch, if any. Throughout, X_i = z * x_i, so a factor in X_i X_j or
X_i^2 carries z^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .canonical import z_canonical_sums
from .qpoly import Factor, QPoly, qp_det, qp_divseries, qp_mul, qp_power_sum_rows
from .schur import DistinctnessViolation, EvalPoint, Rational, as_point, clear_denominators
from .statistics import StatisticsKind, UnsupportedKind, kind_name


class TruncationMismatch(ValueError):
    """Two series with different truncation orders were combined."""


class DivisionInconsistency(ArithmeticError):
    """The determinant ratio could not be expanded as a power series."""


@dataclass(frozen=True)
class FugacitySeries:
    """Coefficients c_0..c_nmax of sum c_N z^N, exact rationals."""

    nmax: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.nmax < 0:
            raise ValueError("nmax must be nonnegative")
        if len(self.coeffs) != self.nmax + 1:
            raise ValueError("need exactly nmax + 1 coefficients")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))


def _series(nmax: int, poly: QPoly) -> FugacitySeries:
    """The series of a kernel polynomial: truncated, or padded with zeros."""
    coeffs = tuple(poly[: nmax + 1])
    return FugacitySeries(nmax, coeffs + (0,) * (nmax + 1 - len(coeffs)))


def series_mul(a: FugacitySeries, b: FugacitySeries) -> FugacitySeries:
    """Cauchy product truncated at the common nmax."""
    if a.nmax != b.nmax:
        raise TruncationMismatch(f"nmax {a.nmax} vs {b.nmax}")
    return _series(a.nmax, qp_mul(a.coeffs, b.coeffs, a.nmax))


def gpf_definition(kind: StatisticsKind, point: Sequence[Rational], nmax: int) -> FugacitySeries:
    """The grand series straight from its definition: coefficient of z^N is
    the canonical Z_N. Available for every statistics. All N = 0..nmax come
    from one z_canonical_sums call, so they share one branching-rule sweep."""
    return FugacitySeries(nmax, tuple(z_canonical_sums(kind, point, range(nmax + 1))))


PRODUCT_FAMILIES = ("bose", "fermi", "hst", "even-rows", "even-cols")


def product_factors(
    kind: StatisticsKind, monomials: Sequence[tuple[Rational, int]]
) -> list[Factor]:
    """The factors (see qp_power_sum_rows) of the closed product of the
    grand series at the point x_i = c_i q^(t_i), given as the monomials
    (c_i, t_i); X_i = z x_i, so z counts particles:

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
    ints at y = D x (clear_denominators), coefficient n divided by D^n."""
    scale, ys = clear_denominators(as_point(point))
    rows = qp_power_sum_rows(product_factors(kind, [(y, 0) for y in ys]), nmax, 0)
    return _series(nmax, [Fraction(sum(row), scale ** n) for n, (_, row) in enumerate(rows)])


# ---------------------------------------------------------------------------
# Parafermi determinant ratio: Bareiss determinants of truncated w-series.


def gpf_parafermi_det(p: int, point: Sequence[Rational], nmax: int) -> FugacitySeries:
    """Closed grand series for row-bounded (order-p) statistics: the ratio
    of two determinants with entries X_j^(T-i) - X_j^i (i, j = 1..M), with
    T = 2M+p+1 over T = 2M+1, as a series in z cut at z^nmax.

    Both determinants are series mod w^(nmax+1) (qp_det at emax = nmax), never
    expanded in full, and so is their ratio (qp_divseries). Row i of both
    carries w^i; divided out, it leaves the constant-term matrix (-y_j^i),
    whose determinant +-prod y_j Vandermonde(y) is the nonzero pivot needed.

    The point must have pairwise-distinct coordinates; a coincidence raises
    DistinctnessViolation. A zero coordinate makes both determinants vanish
    identically (a zero column), and DivisionInconsistency is raised.
    """
    if p < 1:
        raise ValueError("order p must be positive")
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    xs = as_point(point)
    m = len(xs)
    if len(set(xs)) != m:
        raise DistinctnessViolation(f"repeated coordinate in point {xs}")
    # X_j = z x_j = w y_j with y_j = D x_j integral and w = z / D, so both
    # determinants are integer series in w. Row i over w^i has entries
    # y^i (y^(T-2i) w^(T-2i) - 1), and T - 2i >= 1.
    scale, ys = clear_denominators(xs)

    def det(top: int) -> QPoly:
        rows = [[[-y ** i] + [0] * (top - 2 * i - 1) + [y ** (top - i)] for y in ys]
                for i in range(1, m + 1)]
        return qp_det(rows, nmax)

    try:
        # The ratio is the finite sum of w^|lam| s_lam(y) over the admitted
        # shapes, an integer polynomial, so the division is exact on ints.
        ratio = qp_divseries(det(2 * m + p + 1), det(2 * m + 1), nmax)
    except ZeroDivisionError:
        raise DivisionInconsistency("denominator determinant is identically zero") from None
    return _series(nmax, [Fraction(c, scale ** k) for k, c in enumerate(ratio)])


# ---------------------------------------------------------------------------
# Identity verification.


class IdentityReport(NamedTuple):
    """Coefficientwise comparison of the defining sum against a closed form."""

    kind: StatisticsKind
    point: EvalPoint
    nmax: int
    lhs: FugacitySeries
    rhs: FugacitySeries
    equal: bool
    first_mismatch: int | None


def gpf_closed_form(kind: StatisticsKind, point: Sequence[Rational], nmax: int) -> FugacitySeries:
    """Dispatch to the closed form available for this statistics."""
    if kind.family == "parafermi":
        return gpf_parafermi_det(kind.p, point, nmax)
    return gpf_product(kind, point, nmax)


def verify_identity(kind: StatisticsKind, point: Sequence[Rational], nmax: int) -> IdentityReport:
    """Compare the defining Schur sum against the closed form, exactly."""
    xs = as_point(point)
    lhs = gpf_definition(kind, xs, nmax)
    rhs = gpf_closed_form(kind, xs, nmax)
    mismatch = next((n for n in range(nmax + 1) if lhs.coeffs[n] != rhs.coeffs[n]), None)
    return IdentityReport(kind, xs, nmax, lhs, rhs, mismatch is None, mismatch)
