"""Exact Schur-function evaluation, Kostka numbers and monomial symmetric
functions.

Two independent backends evaluate s_lam at a point of rationals:

* `schur_tableau` enumerates semistandard Young tableaux depth-first. It is
  total (repeated and zero coordinates are fine) and is the reference
  implementation.
* `schur_bialternant` is the determinant ratio det(x_i^(lam_j + M - j)) /
  det(x_i^(M - j)). It needs pairwise-distinct coordinates (the denominator
  is the Vandermonde determinant) and exists as a cross-check.

`schur_qpoly_sums` evaluates sums of s_lam at monomial points x_i = q^(e_i)
as exact integer coefficient lists in q, truncated at a degree cap, by one
branching-rule recursion shared across all the shapes it is given;
`schur_qpoly` is its one-shape case.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm, prod
from typing import Iterable, Sequence

from .partitions import Partition, conjugate
from .qpoly import QPoly, qp_add, qp_add_shifted, qp_det

Rational = int | Fraction
EvalPoint = tuple[Fraction, ...]


class DistinctnessViolation(ValueError):
    """Bialternant backend asked for at a point with a repeated coordinate."""


def as_point(values: Sequence[Rational | str]) -> EvalPoint:
    """Coerce a sequence of numbers (or "num/den" strings) to exact rationals."""
    return tuple(Fraction(v) for v in values)


def clear_denominators(xs: EvalPoint) -> tuple[int, list[int]]:
    """D and the integers D x_i, with D the lcm of the denominators: a
    function homogeneous of degree k has its value at xs equal to its value
    at D xs over D^k, and at D xs it runs on ints."""
    scale = lcm(*(x.denominator for x in xs))
    return scale, [x.numerator * (scale // x.denominator) for x in xs]


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
    xs = as_point(point)
    m = len(xs)
    if len(mu) > m:
        return Fraction(0)
    scale, ys = clear_denominators(xs)
    memo: dict[tuple[int, ...], int] = {}

    def rest(exps: tuple[int, ...]) -> int:
        # the exponents still to place, largest first, on the last len(exps)
        # variables: each distinct value may go on the first of them
        if not exps:
            return 1
        total = memo.get(exps)
        if total is None:
            y = ys[m - len(exps)]
            total = 0
            for e in dict.fromkeys(exps):
                k = exps.index(e)
                total += y ** e * rest(exps[:k] + exps[k + 1 :])
            memo[exps] = total
        return total

    return Fraction(rest(tuple(mu) + (0,) * (m - len(mu))), scale ** sum(mu))


def schur_qpoly_sums(
    exponents: Sequence[int], emax: int, groups: Iterable[Iterable[Partition]]
) -> list[QPoly]:
    """For each group of shapes, the sum of s_lam at x_i = q^(e_i) over the
    group, as an integer coefficient list truncated at degree emax.

    One branching-rule recursion serves every shape of every group:
    s_lam(q^e1..q^ej) is the sum, over the mu with lam_(i+1) <= mu_i <= lam_i
    (lam/mu a horizontal strip), of q^(e_j |lam/mu|) s_mu(q^e1..q^e(j-1))
    (Macdonald, Symmetric Functions and Hall Polynomials, I.5.11). The memo,
    keyed by (levels used, shape), lives for this call only, and each entry
    is as long as its polynomial's degree.

    Args:
        exponents: nonnegative integers e_i, one per variable.
        emax: highest power of q to keep (>= 0).
        groups: iterables of shapes; a shape with more parts than there are
            exponents contributes zero.

    Returns:
        One normalized coefficient list per group; the zero polynomial is [].
        All coefficients are nonnegative (they count tableaux by content
        energy).
    """
    if emax < 0:
        raise ValueError("emax must be nonnegative")
    exps = tuple(exponents)
    m = len(exps)
    # s_lam on the first j variables has degree sum_i lam_i * desc[j][i], the
    # exponents taken largest first: its leading monomial, and no coefficient
    # is negative to cancel it. An entry cut at emax may end in zeros; the
    # group sums normalize.
    desc = [sorted(exps[:j], reverse=True) for j in range(m + 1)]
    memo: dict[tuple[int, Partition], QPoly] = {}

    def level(j: int, shape: Partition) -> QPoly:
        if not shape:
            return [1]
        key = (j, shape)
        poly = memo.get(key)
        if poly is not None:
            return poly
        top = min(sum(p * e for p, e in zip(shape, desc[j])), emax)
        acc = [0] * (top + 1)
        e = exps[j - 1]
        w = sum(shape)
        # mu_i ranges over [lam_(i+1), lam_i]; mu may keep at most j - 1 parts,
        # so its last slot exists only when lam has fewer than j parts.
        slots = [range(shape[i + 1], shape[i] + 1) for i in range(len(shape) - 1)]
        if len(shape) < j:
            slots.append(range(shape[-1] + 1))
        for mu in product(*slots):
            shift = e * (w - sum(mu))
            if shift <= top:
                if mu and not mu[-1]:
                    mu = mu[:-1]
                qp_add_shifted(acc, level(j - 1, mu), shift, top)
        memo[key] = acc
        return acc

    sums = []
    for group in groups:
        total: QPoly = []
        for lam in group:
            if len(lam) <= m:
                total = qp_add(total, level(m, tuple(lam)))
        sums.append(total)
    # level refers to itself through its closure, so the memo would wait for
    # the cycle collector; free it now
    memo.clear()
    return sums


def schur_qpoly(lam: Partition, exponents: Sequence[int], emax: int) -> QPoly:
    """s_lam at the monomial point x_i = q^(e_i), as an integer coefficient
    list in q truncated at degree emax: schur_qpoly_sums with one group
    holding one shape.

    Args:
        lam: shape to evaluate.
        exponents: nonnegative integers e_i, one per variable.
        emax: highest power of q to keep (>= 0).

    Returns:
        Coefficients [c_0, ..., c_d], d <= emax; the zero polynomial is [].
    """
    return schur_qpoly_sums(exponents, emax, [[lam]])[0]
