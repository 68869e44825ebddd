"""Every producer of q-polynomials returns the one offset form of
`qpoly.OffsetPoly`: (low, coeffs), low the lowest degree and coeffs from
there up with a nonzero first and last entry, zero as (0, []), and no
power above emax. Padded back from q^0, the rows equal the dense
test-side oracles: the kernel's `sweep_rows` and the engine's
`product_qpoly_sums`.
"""

from hypothesis import example, given, settings, strategies as st
from test_branching_engine import boxes, product_qpoly_sums, shapes_inside
from test_qpoly import sweep_rows

from schurgas.canonical import z_canonical_qpoly
from schurgas.qpoly import qp_power_sum_rows
from schurgas.schur import schur_qpoly, schur_qpoly_sums
from schurgas.statistics import BOSE, EVEN_COLS, FERMI, admitted_partitions, parabose, parafermi

DERANDOMIZED = settings(derandomize=True, max_examples=60, deadline=None)


def padded(rows, emax):
    """Check that each row is in offset form, cut at emax, and return the
    rows as dense coefficient lists from q^0."""
    dense = []
    for low, coeffs in rows:
        if coeffs:
            assert low >= 0 and low + len(coeffs) - 1 <= emax
            assert coeffs[0] != 0 and coeffs[-1] != 0
        else:
            assert low == 0
        dense.append([0] * low + list(coeffs))
    return dense


factors = st.lists(st.tuples(st.integers(1, 3), st.sampled_from((1, -1)),
                             st.integers(-3, 3), st.integers(0, 4)), max_size=6)


@DERANDOMIZED
@given(factors=factors, nmax=st.integers(0, 8), emax=st.integers(0, 10))
@example(factors=[], nmax=3, emax=0)
@example(factors=[(1, 1, 1, 0), (1, 1, 1, 2), (2, -1, 2, 0)], nmax=6, emax=0)  # zero exponents
@example(factors=[(1, 1, 1, 1), (1, 1, 1, 3)], nmax=5, emax=4)  # rows cut at the cap
def test_kernel_rows_are_offset(factors, nmax, emax):
    rows = qp_power_sum_rows(factors, nmax, emax)
    assert len(rows) == nmax + 1
    assert padded(rows, emax) == sweep_rows(factors, nmax, emax)


KINDS = (BOSE, FERMI, EVEN_COLS, parabose(2), parafermi(2))


@DERANDOMIZED
@given(exps=st.lists(st.integers(0, 4), max_size=5), emax=st.integers(0, 12), box=boxes,
       kind=st.sampled_from(KINDS), n=st.integers(0, 5))
@example(exps=[0, 2, 0], emax=0, box=((2, 1, 1, 1), 5, (2, 1)), kind=BOSE, n=2)
@example(exps=[], emax=3, box=((1,), 2, (1, 1)), kind=FERMI, n=0)  # empty point
@example(exps=[1, 3], emax=5, box=((3, 1, 1), 5, (1, 1)), kind=EVEN_COLS, n=4)
def test_engine_rows_are_offset(exps, emax, box, kind, n):
    # the shapes inside an outer shape of weight up to 9 include many longer
    # than the point
    groups = shapes_inside(*box)
    sums = schur_qpoly_sums(exps, emax, *box)
    assert len(sums) == len(groups)
    assert padded(sums, emax) == product_qpoly_sums(exps, emax, groups)
    shapes = [lam for group in groups for lam in group]
    singles = [schur_qpoly(lam, exps, emax) for lam in shapes]
    assert padded(singles, emax) == product_qpoly_sums(exps, emax, [[lam] for lam in shapes])
    if exps:
        admitted = [admitted_partitions(kind, n, len(exps))]
        canonical = [z_canonical_qpoly(kind, exps, n, emax)]
        assert padded(canonical, emax) == product_qpoly_sums(exps, emax, admitted)
