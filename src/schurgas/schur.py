"""Exact Schur-function evaluation, Kostka numbers and monomial symmetric
functions.

Two independent backends evaluate s_lam at a point of rationals:

* `schur_tableau` enumerates semistandard Young tableaux depth-first. It is
  total (repeated and zero coordinates are fine) and is the reference
  implementation.
* `schur_bialternant` is the determinant ratio det(x_i^(lam_j + M - j)) /
  det(x_i^(M - j)). It needs pairwise-distinct coordinates (the denominator
  is the Vandermonde determinant) and exists as a cross-check.

`schur_qpoly` evaluates s_lam at monomial points x_i = q^(e_i) and returns
the exact integer coefficient list in q, truncated at a degree cap.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence

from .partitions import Partition, conjugate
from .qpoly import QPoly, qp_add_shifted, qp_det, qp_geometric_rows, qp_normalize

Rational = int | Fraction
EvalPoint = tuple[Fraction, ...]


class DistinctnessViolation(ValueError):
    """Bialternant backend asked for at a point with a repeated coordinate."""


def as_point(values: Sequence[Rational | str]) -> EvalPoint:
    """Coerce a sequence of numbers (or "num/den" strings) to exact rationals."""
    return tuple(Fraction(v) for v in values)


def schur_tableau(lam: Partition, point: Sequence[Rational]) -> Fraction:
    """Schur function s_lam at the given point, as the content sum over all
    semistandard Young tableaux of shape lam with entries in {1..M}.

    Returns 0 when lam has more parts than there are coordinates, and 1 for
    the empty partition.
    """
    xs = as_point(point)
    m = len(xs)
    if len(lam) > m:
        return Fraction(0)
    if not lam:
        return Fraction(1)

    cols = conjugate(lam)  # cols[c] = height of column c+1
    cells = [(r, c) for r in range(len(lam)) for c in range(lam[r])]
    total = Fraction(0)
    tab = [[0] * lam[r] for r in range(len(lam))]

    def fill(idx: int, acc: Fraction) -> None:
        nonlocal total
        if idx == len(cells):
            total += acc
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = tab[r][c - 1]          # weakly increasing along the row
        if r > 0:
            lo = max(lo, tab[r - 1][c] + 1)  # strictly increasing down the column
        hi = m - (cols[c] - r - 1)      # room for the strict entries below
        for v in range(lo, hi + 1):
            x = xs[v - 1]
            if x == 0:
                continue
            tab[r][c] = v
            fill(idx + 1, acc * x)
        tab[r][c] = 0

    fill(0, Fraction(1))
    return total


def schur_bialternant(lam: Partition, point: Sequence[Rational]) -> Fraction:
    """Schur function as the ratio of alternants.

    Raises DistinctnessViolation when two coordinates coincide (the
    denominator vanishes there; use schur_tableau instead).
    """
    xs = as_point(point)
    m = len(xs)
    if len(set(xs)) != m:
        raise DistinctnessViolation(f"repeated coordinate in point {xs}")
    if len(lam) > m:
        return Fraction(0)
    padded = tuple(lam) + (0,) * (m - len(lam))
    scale = prod(x.denominator for x in xs)

    def alternant(exps: list[int]) -> Fraction:
        # Row x = n/d times d^top has integer entries n^e d^(top-e), so the
        # determinant runs on ints and the scale comes back out at the end.
        top = max(exps, default=0)
        det = qp_det([[[x.numerator ** e * x.denominator ** (top - e)] for e in exps] for x in xs])
        return Fraction(det[0] if det else 0, scale ** top)

    num = alternant([p + m - 1 - j for j, p in enumerate(padded)])
    return num / alternant([m - 1 - j for j in range(m)])


def kostka(shape: Partition, content: Partition) -> int:
    """Number of semistandard Young tableaux of the given shape whose entry
    multiplicities equal `content`; 0 when the weights differ."""
    if sum(shape) != sum(content):
        return 0
    if not shape:
        return 1
    m = len(content)
    if len(shape) > m:
        return 0
    remaining = list(content)
    cols = conjugate(shape)
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    tab = [[0] * shape[r] for r in range(len(shape))]
    count = 0

    def fill(idx: int) -> None:
        nonlocal count
        if idx == len(cells):
            count += 1
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = tab[r][c - 1]
        if r > 0:
            lo = max(lo, tab[r - 1][c] + 1)
        hi = m - (cols[c] - r - 1)
        for v in range(lo, hi + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            tab[r][c] = v
            fill(idx + 1)
            remaining[v - 1] += 1
        tab[r][c] = 0

    fill(0)
    return count


def monomial_sym(mu: Partition, point: Sequence[Rational]) -> Fraction:
    """Monomial symmetric function m_mu: the sum over all distinct
    rearrangements of the exponent vector mu (zero-padded to the point's
    length) of the corresponding monomial."""
    from itertools import permutations

    xs = as_point(point)
    m = len(xs)
    if len(mu) > m:
        return Fraction(0)
    padded = tuple(mu) + (0,) * (m - len(mu))
    total = Fraction(0)
    for perm in set(permutations(padded)):
        term = Fraction(1)
        for x, e in zip(xs, perm):
            term *= x ** e
        total += term
    return total


def _interlacings(lam: Partition):
    """All partitions mu with lam_(i+1) <= mu_i <= lam_i (a horizontal strip
    removed from lam)."""
    bounds = [(lam[i + 1] if i + 1 < len(lam) else 0, lam[i]) for i in range(len(lam))]

    def rec(i: int, prefix: tuple[int, ...]):
        if i == len(bounds):
            yield tuple(p for p in prefix if p)
            return
        lo, hi = bounds[i]
        for v in range(hi, lo - 1, -1):
            yield from rec(i + 1, prefix + (v,))

    yield from rec(0, ())


def schur_qpoly(lam: Partition, exponents: Sequence[int], emax: int) -> QPoly:
    """s_lam at the monomial point x_i = q^(e_i), as an integer coefficient
    list in q truncated at degree emax.

    Args:
        lam: shape to evaluate.
        exponents: nonnegative integers e_i, one per variable.
        emax: highest power of q to keep (>= 0).

    Returns:
        Coefficients [c_0, ..., c_d], d <= emax; the zero polynomial is [].
        All coefficients are nonnegative (they count tableaux by content
        energy).
    """
    if emax < 0:
        raise ValueError("emax must be nonnegative")
    exps = tuple(exponents)
    m = len(exps)
    if len(lam) > m:
        return []
    if not lam:
        return [1]
    if len(lam) == 1:
        return qp_normalize(qp_geometric_rows(exps, lam[0], emax)[lam[0]])

    # One variable per level: s_lam(q^e1..q^ej) = sum over horizontal strips
    # lam/mu of q^(e_j * |strip|) * s_mu(q^e1..q^e(j-1)).
    memo: dict[tuple[int, Partition], QPoly] = {}

    def level(j: int, shape: Partition) -> QPoly:
        if not shape:
            return [1]
        if len(shape) > j:
            return []
        key = (j, shape)
        cached = memo.get(key)
        if cached is not None:
            return cached
        w = sum(shape)
        e = exps[j - 1]
        acc = [0] * (emax + 1)
        for mu in _interlacings(shape):
            shift = e * (w - sum(mu))
            if shift > emax:
                continue
            qp_add_shifted(acc, level(j - 1, mu), shift, emax)
        result = qp_normalize(acc)
        memo[key] = result
        return result

    return level(m, tuple(lam))
