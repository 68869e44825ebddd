"""Exact Schur-function evaluation, Kostka numbers and monomial symmetric
functions.

One engine sums s_lam over groups of shapes by the branching rule
(Macdonald, Symmetric Functions and Hall Polynomials, I.5.11), with one
memo keyed by (levels used, shape) for every shape of every group. Two thin
fronts supply its arithmetic: `schur_int_sums` at an integer point (for
`z_canonical_sums`, at the D x of `clear_denominators`), and
`schur_qpoly_sums` at x_i = q^(e_i), on integer q-polynomials cut at a
degree cap (for thermo; `schur_qpoly` is its one-shape case).

Two independent oracles evaluate one s_lam at a point of rationals:
`schur_tableau` sums semistandard Young tableaux (total: repeated and zero
coordinates are fine); `schur_bialternant` is det(x_i^(lam_j + M - j)) /
det(x_i^(M - j)), which needs pairwise-distinct coordinates."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
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


def _branching_sums(m: int, groups: Iterable[Iterable[Partition]], one, start, add) -> list[list]:
    """Per group, the values of its shapes with at most m parts, by the
    branching rule: s_lam on j variables sums x_j^k s_mu on j - 1 over the
    horizontal strips lam/mu of size k. The front's `one` is s_(), start(j,
    lam) gives an empty accumulator and the largest k kept (no larger strip's
    mu is visited), and add(acc, j, k, s_mu) adds a term. The memo is local."""
    memo: dict[tuple[int, Partition], object] = {}

    def level(j: int, shape: Partition):
        if not shape:
            return one
        key = (j, shape)
        value = memo.get(key)
        if value is None:
            w = sum(shape)
            # mu_i ranges over [lam_(i+1), lam_i]; mu may keep at most j - 1
            # parts, so its last slot exists only when lam has fewer than j.
            slots = [range(shape[i + 1], shape[i] + 1) for i in range(len(shape) - 1)]
            if len(shape) < j:
                slots.append(range(shape[-1] + 1))
            value, reach = start(j, shape)
            for mu in product(*slots):
                k = w - sum(mu)
                if k <= reach:
                    if mu and not mu[-1]:
                        mu = mu[:-1]
                    value = add(value, j, k, level(j - 1, mu))
            memo[key] = value
        return value

    values = [[level(m, tuple(lam)) for lam in group if len(lam) <= m] for group in groups]
    # level refers to itself through its closure, so the memo would wait for
    # the cycle collector; free it now
    memo.clear()
    return values


def schur_int_sums(ys: Sequence[int], groups: Iterable[Iterable[Partition]]) -> list[int]:
    """For each group of shapes, the sum of s_lam at the integer point ys,
    adding y_j^k s_mu per strip of size k. A shape with more parts than
    there are coordinates contributes 0; an empty group sums to 0."""

    def start(j, shape):
        return 0, (sum(shape) if ys[j - 1] else 0)  # at y_j = 0 only k = 0 counts

    def add(acc, j, k, sub):
        return acc + ys[j - 1] ** k * sub

    return [sum(values) for values in _branching_sums(len(ys), groups, 1, start, add)]


def schur_qpoly_sums(
    exponents: Sequence[int], emax: int, groups: Iterable[Iterable[Partition]]
) -> list[QPoly]:
    """For each group of shapes, the sum of s_lam at x_i = q^(e_i) over the
    group, as an integer coefficient list truncated at degree emax, adding
    q^(e_j k) s_mu per strip of size k. A term with e_j k > emax is dropped
    without visiting its sub-shape; each memo entry is as long as its
    polynomial's degree.

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
    # s_lam on the first j variables has degree sum_i lam_i * desc[j][i], the
    # exponents taken largest first: its leading monomial, and no coefficient
    # is negative to cancel it. An entry cut at emax may end in zeros; the
    # group sums normalize.
    desc = [sorted(exps[:j], reverse=True) for j in range(len(exps) + 1)]

    def start(j, shape):
        top = min(sum(p * e for p, e in zip(shape, desc[j])), emax)
        e = exps[j - 1]
        return [0] * (top + 1), (top // e if e else sum(shape))

    def add(acc, j, k, sub):
        qp_add_shifted(acc, sub, exps[j - 1] * k, len(acc) - 1)
        return acc

    values = _branching_sums(len(exps), groups, [1], start, add)
    return [reduce(qp_add, polys, []) for polys in values]


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
