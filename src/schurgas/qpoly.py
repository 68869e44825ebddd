"""Dense truncated polynomials in one variable: the package's series kernel.

A polynomial is a plain list of coefficients indexed by power. The variable
is whatever the caller makes it: q in the Schur and equivalence tables, the
fugacity z in the grand series. Coefficients may be `int` or `Fraction`;
every operation is exact, and integer inputs give integer outputs (division
is exact division, never float division). The normalized form has trailing
zeros stripped, so the zero polynomial is []. Functions taking `emax` drop
powers above it; the in-place ones (`qp_add_shifted`, `qp_mul_factor`)
update a dense list whose length the caller fixes.

Everything here is a plain function on lists, so there is no class.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Sequence

QPoly = list[int | Fraction]


def qp_normalize(coeffs) -> QPoly:
    """Strip trailing zeros; the zero polynomial becomes []."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def qp_add(a: QPoly, b: QPoly) -> QPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return qp_normalize(out)


def qp_add_shifted(dst: list[int], src: QPoly, shift: int, emax: int) -> None:
    """In-place dst += q^shift * src, dropping powers above emax.

    dst must already have length emax + 1.
    """
    if shift > emax:
        return
    end = min(emax + 1, shift + len(src))
    # map stops with the shorter slice, so src needs no copy
    dst[shift:end] = map(add, dst[shift:end], src)


def qp_mul(a: QPoly, b: QPoly, emax: int | None = None) -> QPoly:
    """Normalized product a * b, dropping powers above emax when given."""
    if not a or not b:
        return []
    top = len(a) + len(b) - 2
    if emax is not None:
        top = min(top, emax)
    out = [0] * (top + 1)
    for i, ca in enumerate(a[: top + 1]):
        if ca:
            for j, cb in enumerate(b[: top + 1 - i]):
                out[i + j] += ca * cb
    return qp_normalize(out)


def qp_mul_factor(dst: list, coef, a_exp: int, power: int) -> None:
    """In-place dst *= (1 - coef q^a_exp)^(-1) for power = -1, or
    dst *= (1 + coef q^a_exp) for power = +1, truncated at len(dst) - 1.

    The geometric factor sweeps upward so each entry reads one already
    multiplied (which telescopes the geometric sum); the binomial factor
    sweeps downward so each entry reads one not yet touched. O(len(dst)).
    """
    if a_exp < 1:
        raise ValueError("a_exp must be positive")
    if power == -1:
        steps = range(a_exp, len(dst))
    elif power == 1:
        steps = range(len(dst) - 1, a_exp - 1, -1)
    else:
        raise ValueError("power must be +1 or -1")
    for t in steps:
        if dst[t - a_exp]:
            dst[t] += coef * dst[t - a_exp]


def qp_geometric_rows(exponents: Sequence[int], amax: int, emax: int) -> list[list[int]]:
    """Rows 0..amax of prod_e 1/(1 - a q^e), truncated at q^emax.

    Row j is the dense coefficient list (length emax + 1) of a^j, i.e. the
    number of multisets of j exponents from `exponents` by their sum; row
    n is also the complete homogeneous polynomial h_n at x_i = q^(e_i).
    Adding a factor with exponent e turns row j into row j + q^e * row j-1
    for j ascending, reading the row just updated.
    """
    rows = [[0] * (emax + 1) for _ in range(amax + 1)]
    rows[0][0] = 1
    for e in exponents:
        for row, prev in zip(rows[1:], rows):
            for t in range(e, emax + 1):
                row[t] += prev[t - e]
    return rows


def _divide(x, y):
    """x / y in the coefficients' own ring: int stays int, or raises."""
    if isinstance(x, int) and isinstance(y, int):
        quot, rem = divmod(x, y)
        if rem:
            raise ArithmeticError(f"inexact integer division {x} / {y}")
        return quot
    return x / y


def qp_divexact(a: QPoly, b: QPoly) -> QPoly:
    """Quotient a / b when b divides a exactly; raises ArithmeticError when
    there is a remainder and ZeroDivisionError when b is zero. b must be
    normalized (nonzero leading coefficient)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for k in range(len(quot) - 1, -1, -1):
        c = _divide(rem[k + len(b) - 1], lead)
        quot[k] = c
        if c:
            for i, cb in enumerate(b):
                rem[k + i] -= c * cb
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return qp_normalize(quot)


def qp_det(matrix: Sequence[Sequence[QPoly]]) -> QPoly:
    """Determinant of a square matrix of polynomials by fraction-free
    (Bareiss) elimination, normalized; a singular matrix gives [].

    Entries are normalized on entry, so [0] works as zero. Every division
    is exact (Bareiss, Math. Comp. 22, 1968), so integer entries give an
    integer determinant. A constant matrix is one of degree-0 entries.
    """
    n = len(matrix)
    if n == 0:
        return [1]
    m = [[qp_normalize(e) for e in row] for row in matrix]
    sign = 1
    prev: QPoly = [1]
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return []
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                minor = qp_add(qp_mul(pivot, m[i][j]), [-c for c in qp_mul(m[i][k], m[k][j])])
                m[i][j] = qp_divexact(minor, prev)
        prev = pivot
    det = m[n - 1][n - 1]
    return [-c for c in det] if sign < 0 else det


def qp_eval_fraction(poly: QPoly, q: Fraction) -> Fraction:
    """Exact evaluation by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * q + c
    return acc


def qp_eval_float(poly: QPoly, q: float) -> float:
    acc = 0.0
    for c in reversed(poly):
        acc = acc * q + c
    return acc


def qp_weighted_eval_float(poly: QPoly, q: float, scale: float) -> float:
    """Sum of scale * t * c_t * q^t, the energy-weighted companion of
    qp_eval_float when powers of q carry energy."""
    acc = 0.0
    qt = 1.0
    for t, c in enumerate(poly):
        if t:
            qt *= q
        acc += scale * t * c * qt
    return acc
