"""Exact Schur-function evaluation, Kostka numbers and monomial symmetric
functions.

One engine sums s_lam over the shapes in a box tiled by its cells (each
statistics' `shape_box`, or the shapes inside one lam) by the branching rule
(Macdonald, Symmetric Functions and Hall Polynomials, I.5.11), taken one
variable and one box at a time: a bottom-up sweep over levels that keeps
only the previous level's values and the current level's table, with one
table entry per corner row of a shape, each linked to the entry of its
sub-shape that it adds. It runs on ints alone, one per variable, and each
front picks the C operator that applies one: `schur_int_sums` multiplies at
an integer point (for `z_canonical`, `gpf_definition` and the `schur`
command, at the D x of `clear_denominators`), and `schur_qpoly_sums` shifts
by W e_i for x_i = q^(e_i), each q-polynomial packed into one int at
q = 2^W, W / 8 a power of two up to 8 bytes and a multiple of 8 above, and
read at the end in one native-byte-order memoryview cast into the kernel's
offset form (for thermo; `schur_qpoly` is its one-shape case).

Two independent oracles evaluate one s_lam at a point of rationals:
`schur_tableau` sums semistandard Young tableaux on ints at D x, as the
engine's integer front does (total: repeated and zero coordinates are fine);
`schur_bialternant` is det(x_i^(lam_j + M - j)) / det(x_i^(M - j)), which
needs pairwise-distinct coordinates: the numerator by the kernel's one
determinant (`qp_det` on int constants, cut at 0), the denominator as the
Vandermonde product prod_(i<j) (x_i - x_j). `check_schur_envelope` bounds
both backends' work on one shape and point before either runs."""

from __future__ import annotations

import sys
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate
from math import lcm, log10, prod
from operator import lshift, mul

from .partitions import Partition, conjugate
from .qpoly import OffsetPoly, qp_det

Rational = int | Fraction
EvalPoint = tuple[Fraction, ...]
# The `schur` envelope, checked before any work. The engine's table is M
# levels of the shapes inside lam, 3-12 us an entry, and empty when lam is
# longer than the point (s_lam = 0 there, with no plan). The bialternant makes M^3
# Bareiss updates with quadratic division on up to M (lam_1 + M) b bits, b for
# a coordinate: about 2e-14 s per unit of M^5 ((lam_1 + M) b)^2.
SCHUR_MAX_BOXES = 500
SCHUR_MAX_TABLE = 200_000
SCHUR_MAX_COORDS = 32
SCHUR_MAX_BIALTERNANT = 5 * 10 ** 13


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


def clear_denominators(point: Sequence[Rational | str]) -> tuple[int, list[int]]:
    """D and the integers D x_i, with D the lcm of the denominators of the
    point, coerced as by as_point: a function homogeneous of degree k has its
    value at x equal to its value at D x over D^k, and at D x it runs on ints."""
    xs = as_point(point)
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
    scale, ys = clear_denominators(point)
    if len(lam) > len(ys):
        return Fraction(0)
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


def _subshape_count(lam: Partition) -> int:
    """Number of partitions mu inside lam (mu_i <= lam_i), () included:
    cum[v] counts the choices of the rows below whose top part is <= v."""
    cum = [1]
    for part in reversed(lam):
        cum = list(accumulate(cum[min(v, len(cum) - 1)] for v in range(part + 1)))
    return cum[-1]


def check_schur_envelope(lam: Partition, point: EvalPoint) -> None:
    """Raise ValueError before any work when s_lam at point is past the envelope."""
    shape, m = ",".join(map(str, lam)) or "0", len(point)
    if sum(lam) > SCHUR_MAX_BOXES:
        raise ValueError(f"shape {shape} has more than {SCHUR_MAX_BOXES} boxes")
    if m > SCHUR_MAX_COORDS:
        raise ValueError(f"point has {m} coordinates, more than {SCHUR_MAX_COORDS}")
    table = m * _subshape_count(lam) if len(lam) <= m else 0
    if table > SCHUR_MAX_TABLE:
        raise ValueError(f"shape {shape} on {m} coordinates needs a table of {table} "
                         f"entries, more than {SCHUR_MAX_TABLE}")
    bits = max(abs(x.numerator).bit_length() + x.denominator.bit_length() for x in point)
    work = m ** 5 * (max(lam, default=0) + m) ** 2 * bits ** 2
    if work > SCHUR_MAX_BIALTERNANT:
        raise ValueError(f"the bialternant of shape {shape} on this point needs {work} "
                         f"units of work, more than {SCHUR_MAX_BIALTERNANT}")
    check_digits(f"s_{shape}", point, sum(lam))


def check_digits(value: str, point: Sequence[Rational], n: int) -> None:
    """Raise ValueError before any work when a sum of distinct s_lam of n
    boxes at point may have more digits than int to str converts (0: no
    limit). At y = D x (clear_denominators) it is an int over D^n, of size at
    most p_1(|y|)^n = sum_lam f^lam s_lam(|y|) (Macdonald I.7), f^lam >= 1."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    scale, ys = clear_denominators(point)
    digits = int(n * log10(max(scale, sum(map(abs, ys))))) + 1
    if limit and digits > limit:
        raise ValueError(f"{value} at this point may have {digits} digits, more than the "
                         f"{limit} that int to str converts")


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
    scale, ys = clear_denominators(point)
    m = len(ys)
    if len(mu) > m:
        return Fraction(0)
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


def _plan(outer: Partition, top: int, cell: tuple[int, int] = (1, 1)) -> tuple[list, ...]:
    """The engine's plan over the shapes inside outer whose round-up to whole
    cells of a rows and b columns (cell) stays inside outer with at most top
    boxes, in size order: per shape, the place of its last entry in a
    level's table and the places its corners link to (see _branching_sums);
    per size the indices of the shapes tiled by the cells, those equal to
    their round-up; and per shape its record, lam first. Removing a box
    shrinks no round-up, so the plan is closed under it: the downward
    closure of the tiled shapes. A shape grows from the one without a box of
    its last row, by lengthening that row (t = 0) or by a new row (t = 1),
    so each grows once, and its round-up gains a cell, the one place where
    it may leave outer, only where that row starts a run of a rows and had
    a multiple of b boxes. Its last corner
    links to that parent; any other corner i is one of the parent's, and
    lam - e_i is the child of kind t of the parent's sub-shape there."""
    a, b = cell
    # per shape: lam, the place of its first entry, its corners as row,
    # sub-shape pairs in one list, and its round-up's size; at 2 index + t
    # its children
    shapes, children = [((), 0, [], 0)], [-1, -1]
    plan, level, kept = [(0, [])], [0], [[0]]

    def grow(parent: int, t: int, mu: Partition) -> None:
        last, (_, first, pairs, size) = len(mu) - 1, shapes[parent]
        if last % a == 0 and (mu[last] - 1) % b == 0:
            size += a * b
            if size > top or last + a > len(outer) or mu[last] + b - 1 > outer[last + a - 1]:
                return
        own, links = [last, parent], [first + (mu[last] > 1)]
        pairs = iter(pairs)
        for i, sub in zip(pairs, pairs):
            if i < last and mu[i] > mu[i + 1]:  # still a corner
                sub = children[2 * sub + t]
                own += i, sub
                links.append(shapes[sub][1] + len(links) + (mu[i] - 1 > mu[i + 1]))
        children[2 * parent + t] = index = len(shapes)
        children.extend((-1, -1))
        shapes.append((mu, plan[-1][0] + 1, own, size))
        plan.append((plan[-1][0] + 1 + len(links), links))
        level.append(index)
        if size == n:
            kept[-1].append(index)

    for n in range(1, top + 1):
        parents, level = level, []
        kept.append([])
        for parent in parents:
            lam = shapes[parent][0]
            if lam and (len(lam) == 1 or lam[-2] > lam[-1]):
                grow(parent, 0, lam[:-1] + (lam[-1] + 1,))
            grow(parent, 1, lam + (1,))
    return plan, kept, shapes


def _branching_sums(coords: Sequence[int], plan, times) -> list[int]:
    """Per size of the plan (_plan), the int sum of its kept shapes, by the
    branching rule taken one variable and one box at a time (the row
    recursion of Demmel and Koev, Math. Comp. 75 (2006)). G(lam, i) sums
    x_j^|lam/mu| s_mu(x_1..x_(j-1)) over the horizontal strips lam/mu that
    keep rows 0..i-1 whole, so G(lam, len(lam)) is level j - 1's value of
    lam, G(lam, i) = G(lam, i + 1) + x_j G(lam - e_i, i) at a corner row i
    (lam_i > lam_(i+1), with lam_(len(lam)) = 0), G(lam, i + 1) at any other,
    and s_lam(x_1..x_j) = G(lam, 0). So a shape's entries are the base and
    one per corner, last corner first, and each corner links to an entry of
    its sub-shape. Level j sweeps the plan, smallest first, holding only
    level j - 1's table and its own. A shape longer than j sums to 0 there
    with no test: its base is 0 on j - 1 variables, and each corner links to
    a sub-shape at least j long, whose entry is 0. s_() is 1, and the C operator
    times(sub, coords[j - 1]) gives x_j sub, so no Python call runs per entry."""
    entries, kept, _ = plan
    prev = [1] + [0] * entries[-1][0]
    for j, x in enumerate(coords, 1):
        table: list[int] = []
        for last, links in entries:
            value = prev[last]
            table.append(value)
            for link in links:
                value += times(table[link], x)
                table.append(value)
        prev = table
    return [sum(prev[entries[i][0]] for i in group) for group in kept]


def schur_int_sums(ys: Sequence[int], outer: Partition, top: int,
                   cell: tuple[int, int] = (1, 1)) -> list[int]:
    """For each size n = 0..top, the sum of s_lam at the integer point ys
    over the shapes lam of n boxes inside outer tiled by cells of a rows and
    b columns (cell; every shape for 1 x 1). A shape with more parts than
    there are coordinates contributes 0, so only the first len(ys) rows of
    outer are planned."""
    return _branching_sums(ys, _plan(tuple(outer[: len(ys)]), top, cell), mul)


def schur_qpoly_sums(exponents: Sequence[int], emax: int, outer: Partition, top: int,
                     cell: tuple[int, int] = (1, 1)) -> list[OffsetPoly]:
    """For each size n = 0..top, the sum of s_lam at x_i = q^(e_i) (the e_i
    nonnegative integers) over the shapes of schur_int_sums, as an integer
    q-polynomial cut at degree emax >= 0, in offset form (low, coeffs), so
    zero is (0, []).

    The engine runs on ints at q = 2^W (Kronecker substitution), where
    x_j sub is a left shift by W e_j. Coefficients are nonnegative, and those
    of a sum of distinct s_lam of n boxes add up to at most
    sum_lam f^lam s_lam(1^M) = M^n (Macdonald I.7, f^lam >= 1), so a digit
    of W bits holds each coefficient of a size's sum, with W / 8 the least
    number of bytes among 1, 2, 4, 8, 16, 24, ... (a power of two up to 8, a
    multiple of 8 above) that holds M^n for the largest size n with a kept
    shape. A sum's digits are read in one memoryview cast of its bytes in
    native byte order, as words of at most 8 bytes; above 8 bytes each digit
    is joined from W / 64 such limbs, least significant first. Above 8 bytes
    a multiple of 8 pads a digit by at most 7 bytes, where a power of two
    would pad it by up to its own size less one (17 bytes to 32), and the
    sweep's cost grows with its ints' size."""
    if emax < 0:
        raise ValueError("emax must be nonnegative")
    m = len(exponents)
    plan = _plan(tuple(outer[:m]), top, cell)
    bound = max(m ** n for n, group in enumerate(plan[1]) if group)
    width = 1  # bytes per coefficient
    while bound >> 8 * width:
        width += min(width, 8)
    bits, limbs = 8 * width, max(width // 8, 1)
    mask = (1 << bits * (emax + 1)) - 1
    fmt, order = {1: "B", 2: "H", 4: "I"}.get(width, "Q"), 1 if sys.byteorder == "little" else -1
    sums = []
    for total in _branching_sums([bits * e for e in exponents], plan, lshift):
        packed = total & mask
        low = ((packed & -packed).bit_length() - 1) // bits if packed else 0
        packed >>= low * bits
        raw = packed.to_bytes((packed.bit_length() + bits - 1) // bits * width, sys.byteorder)
        words = memoryview(raw).cast(fmt).tolist()[::order]  # least significant first
        digits = words[::limbs]
        for k in range(1, limbs):
            digits = [digit | limb << 64 * k for digit, limb in zip(digits, words[k::limbs])]
        sums.append((low, digits))
    return sums


def schur_qpoly(lam: Partition, exponents: Sequence[int], emax: int) -> OffsetPoly:
    """s_lam at x_i = q^(e_i), cut at degree emax: the last size of
    schur_qpoly_sums on the shapes inside lam, and zero, (0, []), with no
    plan when lam has more parts than there are exponents."""
    if len(lam) > len(exponents):
        return 0, []
    return schur_qpoly_sums(exponents, emax, lam, sum(lam))[-1]
