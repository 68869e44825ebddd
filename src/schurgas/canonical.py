"""Canonical N-particle partition functions: restricted Schur sums over the
admitted partitions, at a point of rationals (`z_canonical`) or on an integer
energy grid (`z_canonical_qpoly`). The grand series in `series` sums every
N at once at the same cleared point."""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .qpoly import OffsetPoly
from .schur import Rational, clear_denominators, schur_int_sums, schur_qpoly_sums
from .statistics import StatisticsKind, admitted_partitions


def z_canonical(kind: StatisticsKind, point: Sequence[Rational], n: int) -> Fraction:
    """Z_N for an M-level system (M = number of coordinates): the sum of
    s_lam over the partitions of n admitted by `kind`, with length <= M.
    The sum runs on ints at the point D x of clear_denominators, by one
    schur_int_sums call, and Z_n is it over D^n. Z_0 = 1 for every kind."""
    scale, ys = clear_denominators(point)
    total = schur_int_sums(ys, [admitted_partitions(kind, n, len(ys))])[0]
    return Fraction(total, scale ** n)


def z_canonical_qpoly(
    kind: StatisticsKind, exponents: Sequence[int], n: int, emax: int
) -> OffsetPoly:
    """Z_N on an integer energy grid x_i = q^(e_i), as an exact integer
    q-polynomial truncated at degree emax, in offset form (low, coeffs).

    Coefficients count the n-particle states of each total energy, so they
    are nonnegative.
    """
    return schur_qpoly_sums(exponents, emax, [admitted_partitions(kind, n, len(exponents))])[0]
