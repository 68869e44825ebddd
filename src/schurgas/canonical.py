"""Canonical N-particle partition functions: restricted Schur sums over the
admitted partitions."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .qpoly import OffsetPoly
from .schur import Rational, as_point, clear_denominators, schur_int_sums, schur_qpoly_sums
from .statistics import StatisticsKind, admitted_partitions


def z_canonical(kind: StatisticsKind, point: Sequence[Rational], n: int) -> Fraction:
    """Z_N for an M-level system (M = number of coordinates): the sum of
    s_lam over the partitions of n admitted by `kind`, with length <= M,
    summed on ints (see z_canonical_sums). Z_0 = 1 for every kind."""
    return z_canonical_sums(kind, point, [n])[0]


def z_canonical_sums(
    kind: StatisticsKind, point: Sequence[Rational], ns: Sequence[int]
) -> list[Fraction]:
    """Z_n for each n in ns, from one schur_int_sums call with a group of
    admitted shapes per n, so every n shares one sweep. The sums run on ints
    at the point D x of clear_denominators; Z_n is its group's sum over D^n."""
    xs = as_point(point)
    scale, ys = clear_denominators(xs)
    sums = schur_int_sums(ys, [admitted_partitions(kind, n, len(xs)) for n in ns])
    return [Fraction(total, scale ** n) for n, total in zip(ns, sums)]


def z_canonical_qpoly(
    kind: StatisticsKind, exponents: Sequence[int], n: int, emax: int
) -> OffsetPoly:
    """Z_N on an integer energy grid x_i = q^(e_i), as an exact integer
    q-polynomial truncated at degree emax, in offset form (low, coeffs).

    Coefficients count the n-particle states of each total energy, so they
    are nonnegative.
    """
    return schur_qpoly_sums(exponents, emax, [admitted_partitions(kind, n, len(exponents))])[0]
