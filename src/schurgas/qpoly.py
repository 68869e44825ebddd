"""Truncated polynomials in one variable: the package's series kernel.

A polynomial is a plain list of coefficients indexed by power. The variable
is whatever the caller makes it: q in the Schur and equivalence tables, the
fugacity z in the grand series. Coefficients are ints and every operation is
exact: division is exact int division, which raises ArithmeticError on a
remainder. The normalized form has trailing zeros stripped, so the zero
polynomial is []. Products, quotients and the determinant take power series
cut at a required `emax` (0 for constants). A q-polynomial leaves its
producer (`qp_power_sum_rows`, the q front in `schur`) in one offset form,
`OffsetPoly` (low, coeffs): low is its lowest degree, coeffs run from there
up, first and last nonzero; zero is (0, []). Floats enter only at
`qp_eval_float`, the one float evaluation (`qp_weighted_eval_float` is the
tests' second route to its slope).

Everything here is a plain function on lists, so there is no class.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from operator import add

QPoly = list[int]
OffsetPoly = tuple[int, QPoly]


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


def qp_mul(a: QPoly, b: QPoly, emax: int) -> QPoly:
    """Normalized product a * b, dropping powers above emax."""
    if not a or not b:
        return []
    top = min(len(a) + len(b) - 2, emax)
    out = [0] * (top + 1)
    for i, ca in enumerate(a[: top + 1]):
        if ca:
            for j, cb in enumerate(b[: top + 1 - i]):
                out[i + j] += ca * cb
    return qp_normalize(out)


def _divide(x: int, y: int) -> int:
    """x / y exactly on ints, or ArithmeticError."""
    quot, rem = divmod(x, y)
    if rem:
        raise ArithmeticError(f"inexact integer division {x} / {y}")
    return quot


def qp_divseries(a: QPoly, b: QPoly, emax: int) -> QPoly:
    """Quotient a / b as a power series cut at emax, by division from the
    low end: b needs a nonzero constant term (ZeroDivisionError otherwise).
    Each coefficient must divide exactly (ArithmeticError otherwise), which
    holds when a / b is an integer series."""
    if not b or not b[0]:
        raise ZeroDivisionError("series division needs a nonzero constant term")
    rem = list(a[: emax + 1])
    rem += [0] * (emax + 1 - len(rem))
    for k in range(emax + 1):
        c = rem[k] = _divide(rem[k], b[0])
        if c:
            for i, cb in enumerate(b[1 : len(rem) - k], k + 1):
                rem[i] -= c * cb
    return qp_normalize(rem)


Factor = tuple[int, int, int, int]


def qp_power_sum_rows(factors: Iterable[Factor], nmax: int, emax: int) -> list[OffsetPoly]:
    """Rows F_0..F_nmax of the product of the factors (r, sign, c, t), each
    (1 - sign c z^r q^t)^(-sign); F_n is the q-polynomial at z^n cut at q^emax,
    in offset form. The factors are listed or mapped to multiplicities;
    repeats are merged. The power sum Q_m maps q^e, e <= emax, to the sum of
    r sign^(k+1) c^k over the factors with r k = m and t k = e, and by
    Newton's identities (Macdonald I.2), n F_n = sum_(m=1..n) Q_m F_(n-m),
    where the division by n is exact on ints."""
    merged = Counter(factors)
    if nmax < 0 or emax < 0 or any(r < 1 or t < 0 or s not in (1, -1) for r, s, _, t in merged):
        raise ValueError("need r >= 1, t >= 0, sign +1 or -1 and nonnegative bounds")
    # binomials alone make a polynomial in z, whose rows past its degree are []
    binomials = all(sign == -1 for _, sign, _, _ in merged)
    last = min(nmax, sum(f[0] * k for f, k in merged.items())) if binomials else nmax
    power_sums: list[dict] = [{} for _ in range(last + 1)]
    for (r, sign, c, t), mult in merged.items():
        for k in range(1, min(last // r, emax // t if t else last) + 1):
            terms = power_sums[r * k]
            terms[t * k] = terms.get(t * k, 0) + mult * r * sign ** (k + 1) * c ** k
    rows: list[OffsetPoly] = [(0, [1])]
    for n in range(1, last + 1):
        # F_n has degree at most n times the largest t / r; floor is monotone
        top = min(emax, max((n * t // r for r, _, _, t in merged), default=0))
        acc = [0] * (top + 1)
        for m in range(1, n + 1):
            low, prev = rows[n - m]
            for shift, coef in power_sums[m].items():
                start = shift + low
                if prev and coef and start <= top:
                    # acc += coef q^start prev to q^top; map stops at the shorter input
                    end = min(top + 1, start + len(prev))
                    acc[start:end] = map(add, acc[start:end], prev if coef == 1
                                         else [coef * v for v in prev[: end - start]])
        row = [_divide(v, n) if v else 0 for v in acc]
        low = next((i for i, v in enumerate(row) if v), 0)
        rows.append((low, qp_normalize(row[low:])))
    return rows + [(0, []) for _ in range(last, nmax)]


def qp_det(matrix: Sequence[Sequence[QPoly]], emax: int) -> QPoly:
    """Determinant of a square matrix of power series by fraction-free
    elimination, cut at emax and normalized; the entries are cut and
    normalized first, so [0] works as zero. Every division is exact
    (Bareiss, Math. Comp. 22, 1968), so integer entries give an integer
    determinant, and a constant matrix takes emax = 0. A pivot needs a
    nonzero constant term for qp_divseries: a column without one (the
    constant-term matrix is singular) raises ZeroDivisionError."""
    n = len(matrix)
    m = [[qp_normalize(e[: emax + 1]) for e in row] for row in matrix]
    prev: QPoly = [1]
    for k in range(n - 1):
        swap = next((i for i in range(k, n) if m[i][k] and m[i][k][0]), None)
        if swap is None:
            raise ZeroDivisionError(f"no pivot with a nonzero constant term in column {k}")
        if swap > k:  # swapping two rows and negating one keeps the determinant
            m[k], m[swap] = m[swap], [[-c for c in e] for e in m[k]]
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                minor = qp_add(qp_mul(pivot, m[i][j], emax),
                               [-c for c in qp_mul(m[i][k], m[k][j], emax)])
                m[i][j] = qp_divseries(minor, prev, emax)
        prev = pivot
    return m[-1][-1] if n else [1]


def qp_eval_float(poly: Sequence[int], q: float) -> tuple[float, float]:
    """r(q) and q r'(q) of the polynomial r, together in one Horner loop."""
    value = slope = 0.0
    for c in reversed(poly):
        slope = slope * q + value
        value = value * q + c
    return value, slope * q


def qp_weighted_eval_float(poly: QPoly, q: float, scale: float) -> float:
    """Sum of scale * t * c_t * q^t by a forward sum: scale times the slope
    of qp_eval_float, computed another way, for the tests."""
    acc = 0.0
    qt = 1.0
    for t, c in enumerate(poly):
        if t:
            qt *= q
        acc += scale * t * c * qt
    return acc
