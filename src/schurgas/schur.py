"""Exact Schur-function evaluation, Kostka numbers and monomial symmetric
functions.

One engine sums s_lam over groups of shapes by the branching rule
(Macdonald, Symmetric Functions and Hall Polynomials, I.5.11), taken one
variable and one box at a time: a bottom-up sweep over levels that keeps
only the previous level's values and the current level's table. It runs on
ints alone; two thin fronts supply its step: `schur_int_sums` at an integer
point (for `z_canonical`, `gpf_definition` and the `schur` command, at the
D x of `clear_denominators`), and `schur_qpoly_sums` at x_i = q^(e_i), with each
q-polynomial packed into one int at q = 2^W and unpacked at the end into
the kernel's offset form (for thermo; `schur_qpoly` is its one-shape case).

Two independent oracles evaluate one s_lam at a point of rationals:
`schur_tableau` sums semistandard Young tableaux on ints at D x, as the
engine's integer front does (total: repeated and zero coordinates are fine);
`schur_bialternant` is det(x_i^(lam_j + M - j)) / det(x_i^(M - j)), which
needs pairwise-distinct coordinates: the numerator by the kernel's one
determinant (`qp_det` on int constants, cut at 0), the denominator as the
Vandermonde product prod_(i<j) (x_i - x_j)."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import lcm, prod

from .partitions import Partition, conjugate
from .qpoly import OffsetPoly, qp_det

Rational = int | Fraction
EvalPoint = tuple[Fraction, ...]


class DistinctnessViolation(ValueError):
    """Bialternant backend asked for at a point with a repeated coordinate."""


def as_point(values: Sequence[Rational | str]) -> EvalPoint:
    """Coerce a sequence of numbers (or "num/den" strings) to exact rationals."""
    return tuple(Fraction(v) for v in values)


def check_distinct(xs: EvalPoint) -> None:
    """Raise DistinctnessViolation when two coordinates coincide, naming the
    point as output prints it: num/den, joined by commas."""
    if len(set(xs)) != len(xs):
        raise DistinctnessViolation("repeated coordinate in point "
                                    + ",".join(f"{x.numerator}/{x.denominator}" for x in xs))


def clear_denominators(xs: EvalPoint) -> tuple[int, list[int]]:
    """D and the integers D x_i, with D the lcm of the denominators: a
    function homogeneous of degree k has its value at xs equal to its value
    at D xs over D^k, and at D xs it runs on ints."""
    scale = lcm(*(x.denominator for x in xs))
    return scale, [x.numerator * (scale // x.denominator) for x in xs]


def _tableau_sum(lam: Partition, weights: Sequence[int], caps: Sequence[int]) -> int:
    """Sum over the semistandard tableaux of shape lam with entries in
    1..len(weights), entry v used at most caps[v-1] times, of the product of
    weights[v-1] over the cells. The cells are filled in reading order from
    an explicit stack, so the size of lam sets no recursion depth."""
    m = len(weights)
    cols = conjugate(lam)  # cols[c] = height of column c+1
    cells = [(r, c) for r in range(len(lam)) for c in range(lam[r])]
    left = list(caps)
    tab = [[0] * part for part in lam]
    acc = [1] * (len(cells) + 1)  # acc[k] = product over the first k cells
    total, k = 0, 0
    while k >= 0:
        if k == len(cells):
            total += acc[k]
            k -= 1
            continue
        r, c = cells[k]
        v = tab[r][c]
        if v:  # back at this cell: give its entry back and try the next
            left[v - 1] += 1
        else:  # weakly increasing along the row, strictly down the column
            v = max(tab[r][c - 1] if c else 1, tab[r - 1][c] + 1 if r else 1) - 1
        hi = m - (cols[c] - r - 1)  # room for the strict entries below
        v += 1
        while v <= hi and not left[v - 1]:
            v += 1
        if v > hi:
            tab[r][c] = 0
            k -= 1
            continue
        left[v - 1] -= 1
        tab[r][c] = v
        acc[k + 1] = acc[k] * weights[v - 1]
        k += 1
    return total


def schur_tableau(lam: Partition, point: Sequence[Rational]) -> Fraction:
    """Schur function s_lam at the given point, as the content sum over all
    semistandard Young tableaux of shape lam with entries in {1..M}; a zero
    coordinate's entry is skipped. The sum runs on ints at D x
    (clear_denominators) and is divided by D^|lam| once.

    Returns 0 when lam has more parts than there are coordinates, and 1 for
    the empty partition.
    """
    xs = as_point(point)
    if len(lam) > len(xs):
        return Fraction(0)
    scale, ys = clear_denominators(xs)
    return Fraction(_tableau_sum(lam, ys, [sum(lam) if y else 0 for y in ys]), scale ** sum(lam))


def schur_bialternant(lam: Partition, point: Sequence[Rational]) -> Fraction:
    """Schur function as the ratio of alternants.

    Raises DistinctnessViolation when two coordinates coincide (the
    denominator vanishes there; use schur_tableau instead).
    """
    xs = as_point(point)
    check_distinct(xs)
    m = len(xs)
    if len(lam) > m:
        return Fraction(0)
    padded = tuple(lam) + (0,) * (m - len(lam))
    exps = [p + m - 1 - j for j, p in enumerate(padded)]
    # Row x = n/d times d^top has integer entries n^e d^(top-e), so the
    # determinant runs on ints and prod d^top comes back out at the end.
    top = max(exps, default=0)
    rows = [[[x.numerator ** e * x.denominator ** (top - e)] for e in exps] for x in xs]
    try:  # constants, cut at 0: a column with no nonzero pivot is singular
        det = qp_det(rows, 0)
    except ZeroDivisionError:
        return Fraction(0)
    # The denominator det(x_i^(M-j)) is the Vandermonde prod_(i<j) (x_i - x_j)
    # (Macdonald I.3): on ints, prod_(i<j) (n_i d_j - n_j d_i) / prod_i d_i^(M-1).
    vandermonde = prod(a.numerator * b.denominator - b.numerator * a.denominator
                       for i, a in enumerate(xs) for b in xs[i + 1 :])
    scale = prod(x.denominator for x in xs)
    return Fraction(det[0] if det else 0, scale ** (top - m + 1) * vandermonde)


def kostka(shape: Partition, content: Partition) -> int:
    """Number of semistandard Young tableaux of the given shape whose entry
    multiplicities equal `content`; 0 when the weights differ. With equal
    weights, capping entry v at content[v-1] uses it exactly that often."""
    if sum(shape) != sum(content) or len(shape) > len(content):
        return 0
    return _tableau_sum(shape, [1] * len(content), content)


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


def _branching_sums(m: int, groups: Iterable[Iterable[Partition]], step) -> list[list[int]]:
    """Per group, the int values of its shapes with at most m parts, by the
    branching rule taken one variable and one box at a time (the row
    recursion of Demmel and Koev, Math. Comp. 75 (2006)). G(lam, i) sums
    x_j^|lam/mu| s_mu(x_1..x_(j-1)) over the horizontal strips lam/mu that
    keep rows 0..i-1 whole, so G(lam, len(lam)) is level j - 1's value of
    lam, G(lam, i) = G(lam, i + 1) + x_j G(lam - e_i, i) when lam_i >
    lam_(i+1) (G(lam, i + 1) otherwise), and s_lam(x_1..x_j) = G(lam, 0).
    Level j sweeps the downward closure of the groups' shapes, smallest
    first, holding only level j - 1's values and its own G table. s_() is 1,
    a shape longer than its variables has s = 0, and the front's
    step(j, base, sub) gives base + x_j sub."""
    tops = [[tuple(lam) for lam in group if len(lam) <= m] for group in groups]
    subs: dict[Partition, list] = {}
    todo = [lam for group in tops for lam in group]
    while todo:
        lam = todo.pop()
        if lam not in subs:
            # per row i, lam - e_i, or None when row i has no removable box
            subs[lam] = [None if i + 1 < len(lam) and lam[i + 1] == part
                         else lam[:i] + (part - 1,) * (part > 1) + lam[i + 1 :]
                         for i, part in enumerate(lam)]
            todo += [sub for sub in subs[lam] if sub is not None]
    order = sorted(subs, key=sum)
    values = {(): 1}
    for j in range(1, m + 1):
        table: dict[Partition, list[int]] = {}
        for lam in order:
            if len(lam) <= j:
                g = [values.get(lam, 0)] * (len(lam) + 1)
                for i in range(len(lam) - 1, -1, -1):
                    sub = subs[lam][i]
                    g[i] = g[i + 1] if sub is None else step(j, g[i + 1], table[sub][i])
                table[lam] = g
        values = {lam: g[0] for lam, g in table.items()}
    return [[values[lam] for lam in group] for group in tops]


def schur_int_sums(ys: Sequence[int], groups: Iterable[Iterable[Partition]]) -> list[int]:
    """For each group of shapes, the sum of s_lam at the integer point ys.
    A shape with more parts than there are coordinates contributes 0; an
    empty group sums to 0."""

    def step(j, base, sub):
        return base + ys[j - 1] * sub

    return [sum(values) for values in _branching_sums(len(ys), groups, step)]


def schur_qpoly_sums(
    exponents: Sequence[int], emax: int, groups: Iterable[Iterable[Partition]]
) -> list[OffsetPoly]:
    """For each group of shapes, the sum of s_lam at x_i = q^(e_i) (the e_i
    nonnegative integers) as an integer q-polynomial cut at degree emax >= 0,
    in offset form (low, coeffs), so zero is (0, []). A shape with more parts
    than there are exponents contributes zero.

    The engine runs on ints at q = 2^W (Kronecker substitution), where
    x_j sub is a shift. Coefficients are nonnegative and a shape's sum to
    at most M^|lam| (fillings of its cells from M entries), so W, the bit
    length of the largest group sum of M^|lam| in whole bytes, holds each
    coefficient of a group sum as one digit of its int."""
    if emax < 0:
        raise ValueError("emax must be nonnegative")
    groups = [list(group) for group in groups]
    bound = max((sum(len(exponents) ** sum(lam) for lam in group) for group in groups), default=0)
    width = (bound.bit_length() + 7) // 8 or 1  # bytes per coefficient
    shifts = [8 * width * e for e in exponents]

    def step(j, base, sub):
        return base + (sub << shifts[j - 1])

    sums = []
    for values in _branching_sums(len(exponents), groups, step):
        packed = sum(values) & ((1 << 8 * width * (emax + 1)) - 1)
        # sized by the value, so the top digit is nonzero; zero low bytes: zero digits
        raw = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
        low = (len(raw) - len(raw.lstrip(b"\0"))) // width
        sums.append((low, [int.from_bytes(raw[k : k + width], "little")
                           for k in range(low * width, len(raw), width)]))
    return sums


def schur_qpoly(lam: Partition, exponents: Sequence[int], emax: int) -> OffsetPoly:
    """s_lam at x_i = q^(e_i), cut at degree emax: schur_qpoly_sums with one
    group holding one shape. Zero is (0, [])."""
    return schur_qpoly_sums(exponents, emax, [[lam]])[0]
