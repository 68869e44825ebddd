"""The branching-rule engine against the interlacing-product engine it
replaced.

`product_branching_sums` below is that engine, kept as the oracle: for each
(level, shape) it sums x_j^k s_mu over every mu interlacing lam, k being
|lam/mu|, in a memo that keeps every level's entries until the call
returns. The live engine removes one box per step and keeps two levels
alive. On both fronts the two must agree exactly, and the live one must
peak lower in memory.
"""

import tracemalloc
from functools import reduce
from itertools import product

from hypothesis import example, given, settings, strategies as st

from schurgas.equivalence import build_spectrum
from schurgas.partitions import gen_partitions
from schurgas.qpoly import qp_add
from schurgas.schur import schur_int_sums, schur_qpoly_sums
from schurgas.statistics import EVEN_COLS, EVEN_ROWS, admitted_partitions, parafermi


def product_branching_sums(m, groups, one, start, add):
    """Per group, the values of its shapes with at most m parts: s_lam on j
    variables sums x_j^k s_mu on j - 1 over the horizontal strips lam/mu of
    size k. The front's start(j, lam) gives an empty accumulator and the
    largest k kept (no larger strip's mu is visited), and add(acc, j, k,
    s_mu) adds a term."""
    memo = {}

    def level(j, shape):
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

    return [[level(m, tuple(lam)) for lam in group if len(lam) <= m] for group in groups]


def product_int_sums(ys, groups):
    def start(j, shape):
        return 0, (sum(shape) if ys[j - 1] else 0)  # at y_j = 0 only k = 0 counts

    def add(acc, j, k, sub):
        return acc + ys[j - 1] ** k * sub

    return [sum(values) for values in product_branching_sums(len(ys), groups, 1, start, add)]


def product_qpoly_sums(exps, emax, groups):
    # s_lam on the first j variables has degree sum_i lam_i desc[j][i], the
    # exponents taken largest first; each entry is that long, cut at emax
    desc = [sorted(exps[:j], reverse=True) for j in range(len(exps) + 1)]

    def start(j, shape):
        top = min(sum(p * e for p, e in zip(shape, desc[j])), emax)
        e = exps[j - 1]
        return [0] * (top + 1), (top // e if e else sum(shape))

    def add(acc, j, k, sub):  # acc += q^(e_j k) sub, cut at the end of acc
        for t, c in enumerate(sub, exps[j - 1] * k):
            if t >= len(acc):
                break
            acc[t] += c
        return acc

    values = product_branching_sums(len(exps), groups, [1], start, add)
    return [reduce(qp_add, polys, []) for polys in values]


# every shape of weight at most 6, so some are longer than the point
SHAPES = [lam for n in range(7) for lam in gen_partitions(n, max(n, 1))]
# empty groups, repeated shapes, and groups not closed under removing boxes
group_lists = st.lists(st.lists(st.sampled_from(SHAPES), max_size=5), max_size=4)
# groups a kind admits whose shapes lose their kind when a box goes
SPARSE = [admitted_partitions(kind, n, 4) for kind in (EVEN_ROWS, EVEN_COLS) for n in range(9)]

DERANDOMIZED = settings(derandomize=True, max_examples=80, deadline=None)


@DERANDOMIZED
@given(ys=st.lists(st.integers(-3, 3), max_size=5), groups=group_lists)
@example(ys=[2, -1, 0, 2], groups=SPARSE)  # zero, negative and repeated coordinates
@example(ys=[], groups=[[()], [(1,)], []])
@example(ys=[0, 0, 0], groups=[[(1, 1, 1), (2,)], [()], [(3, 1, 1, 1)]])
def test_int_front_matches_the_product_engine(ys, groups):
    assert schur_int_sums(ys, groups) == product_int_sums(ys, groups)


@DERANDOMIZED
@given(exps=st.lists(st.integers(0, 4), max_size=5), emax=st.integers(0, 12), groups=group_lists)
@example(exps=[1, 0, 3, 1], emax=12, groups=SPARSE)  # zero and repeated exponents
@example(exps=[2, 2, 5], emax=0, groups=[[(1,)], [()], [(2, 1), (1, 1, 1)]])
@example(exps=[3, 1], emax=3, groups=[[(2,), (1, 1)], [(2, 1)], [(1, 1, 1)]])
@example(exps=[], emax=4, groups=[[()], [(1,)], []])
# packing: 600 needs more than the 8 bits M^|lam| = 2 alone would give
@example(exps=(0, 0), emax=0, groups=[[(1,)] * 300])
@example(exps=(0,) * 24, emax=0, groups=[[(10, 10, 10)] * 3])  # a 70-bit coefficient
def test_qpoly_front_matches_the_product_engine(exps, emax, groups):
    sums = schur_qpoly_sums(exps, emax, groups)
    assert [[0] * low + coeffs for low, coeffs in sums] == product_qpoly_sums(exps, emax, groups)


def traced_peak(build, *args):
    tracemalloc.start()
    try:
        build(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_engine_holds_two_levels():
    # parafermi:3 on 16 levels of eq1 at nmax 12: the product engine keeps
    # every (level, shape) entry, the live one two levels' worth, which
    # here peaks at well under three quarters of the oracle's peak
    exps = build_spectrum("eq1", 7).qpoly_exponents()
    nmax = 12
    groups = [admitted_partitions(parafermi(3), n, len(exps)) for n in range(nmax + 1)]
    args = (exps, nmax * max(exps), groups)
    assert traced_peak(schur_qpoly_sums, *args) < 0.75 * traced_peak(product_qpoly_sums, *args)
