"""Test-only oracle: the fraction-free (Bareiss) determinant of a matrix of
polynomials, expanded in full, with the exact polynomial division it needs.

The library computes every determinant as a power series cut at a degree
(`qpoly.qp_det`); this one never cuts, so tests can hold the two against each
other. Coefficients may be `int` or `Fraction`; integer inputs stay integer.
The module name does not start with `test_`, so pytest does not collect it.
"""

from schurgas.qpoly import qp_normalize


def _divide(x, y):
    """x / y in the coefficients' own ring: int stays int, or raises."""
    if isinstance(x, int) and isinstance(y, int):
        quot, rem = divmod(x, y)
        if rem:
            raise ArithmeticError(f"inexact integer division {x} / {y}")
        return quot
    return x / y


def poly_mul(a, b):
    """The full product a * b, normalized."""
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return qp_normalize(out)


def poly_divexact(a, b):
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


def poly_det(matrix):
    """Determinant of a square matrix of polynomials, expanded in full and
    normalized; a singular matrix gives []. A pivot need only be nonzero."""
    n = len(matrix)
    if n == 0:
        return [1]
    m = [[qp_normalize(e) for e in row] for row in matrix]
    sign = 1
    prev = [1]
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
                a, b = poly_mul(pivot, m[i][j]), poly_mul(m[i][k], m[k][j])
                width = max(len(a), len(b))
                a, b = a + [0] * (width - len(a)), b + [0] * (width - len(b))
                m[i][j] = poly_divexact(qp_normalize(x - y for x, y in zip(a, b)), prev)
        prev = pivot
    det = m[n - 1][n - 1]
    return [-c for c in det] if sign < 0 else det
