"""The branching-rule engine against the interlacing-product engine it
replaced, and its plan against the closure walk it replaced.

`product_branching_sums` below is that engine, kept as the oracle: for each
(level, shape) it sums x_j^k s_mu over every mu interlacing lam, k being
|lam/mu|, in a memo that keeps every level's entries until the call
returns. The live engine removes one box per step and keeps two levels
alive. On both fronts the two must agree exactly, and the live one must
peak lower in memory. The live engine keeps one entry per corner row, so it
also meets the tableau sum on shapes with repeated rows, and the q front's
digit read, in every width class, meets the int front at q = 2.

The live engine plans the shapes inside an outer shape up to a size whose
round-up to whole cells is a kept shape, which for a statistics is its box
and cell (`statistics.shape_box`). `closure_walk` below is the plan it
replaced, the downward closure of the admitted shapes, kept as the oracle
of every plan.
"""

import tracemalloc
from functools import reduce
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from schurgas.equivalence import build_spectrum
from schurgas.partitions import conjugate, count_partitions, gen_partitions
from schurgas.qpoly import qp_add
from schurgas.schur import _plan, _subshape_count, schur_int_sums, schur_qpoly_sums, schur_tableau
from schurgas.statistics import (BOSE, EVEN_COLS, EVEN_ROWS, FERMI, HST, admitted_partitions,
                                 parabose, parafermi, pq, shape_box)


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


def closure_walk(groups, m):
    """The shapes the engine planned before it read a box: the downward
    closure of the groups' shapes with at most m parts, walked on a stack."""
    closure = set()
    todo = [tuple(lam) for group in groups for lam in group if len(lam) <= m]
    while todo:
        lam = todo.pop()
        if lam not in closure:
            closure.add(lam)
            todo += [lam[:i] + (lam[i] - 1,) * (lam[i] > 1) + lam[i + 1 :]
                     for i in range(len(lam)) if i + 1 == len(lam) or lam[i] > lam[i + 1]]
    return closure


def tiled(cell, lam):
    """Is lam tiled by cells of a rows and b columns: is each of its rows a
    multiple of b long, and each of its columns a multiple of a?"""
    a, b = cell
    return all(part % b == 0 for part in lam) and all(col % a == 0 for col in conjugate(lam))


def shapes_inside(outer, top, cell=(1, 1)):
    """Per size n = 0..top, the shapes of n boxes inside outer tiled by the
    cells, by filtering every partition of n."""
    return [[lam for lam in gen_partitions(n, max(n, 1)) if len(lam) <= len(outer)
             and all(map(int.__le__, lam, outer)) and tiled(cell, lam)]
            for n in range(top + 1)]


def planned(outer, top, cell=(1, 1)):
    """The shapes of _plan(outer, top, cell), in plan order."""
    return [record[0] for record in _plan(outer, top, cell)[2]]


# every shape of weight at most 6, so some are longer than the point
SHAPES = [lam for n in range(7) for lam in gen_partitions(n, max(n, 1))]
# outer shapes, boxes among them, with the sizes to plan to and the cells
OUTERS = SHAPES + [(3,) * 3, (2,) * 5, (6,), (1,) * 6]
CELLS = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)]
boxes = st.tuples(st.sampled_from(OUTERS), st.integers(0, 7), st.sampled_from(CELLS))
# kinds a box does not close: their shapes lose their kind when a box goes
SPARSE = [shape_box(kind, 4, 8) for kind in (EVEN_ROWS, EVEN_COLS)]

DERANDOMIZED = settings(derandomize=True, max_examples=80, deadline=None)


@DERANDOMIZED
@given(ys=st.lists(st.integers(-3, 3), max_size=5), box=boxes)
@example(ys=[2, -1, 0, 2], box=SPARSE[0])  # zero, negative and repeated coordinates
@example(ys=[2, -1, 0, 2], box=SPARSE[1])
@example(ys=[], box=((1,), 1, (1, 1)))
@example(ys=[0, 0, 0], box=((3, 1, 1, 1), 6, (2, 1)))
def test_int_front_matches_the_product_engine(ys, box):
    assert schur_int_sums(ys, *box) == product_int_sums(ys, shapes_inside(*box))


@DERANDOMIZED
@given(exps=st.lists(st.integers(0, 4), max_size=5), emax=st.integers(0, 12), box=boxes)
@example(exps=[1, 0, 3, 1], emax=12, box=SPARSE[0])  # zero and repeated exponents
@example(exps=[1, 0, 3, 1], emax=12, box=SPARSE[1])
@example(exps=[2, 2, 5], emax=0, box=((2, 1, 1), 4, (1, 1)))
@example(exps=[3, 1], emax=3, box=((2, 1), 3, (1, 2)))
@example(exps=[], emax=4, box=((1,), 1, (1, 1)))
# packing: a shape of 11 boxes on 2 levels bounds its digits by 2^11, two bytes
@example(exps=(0, 0), emax=0, box=((11,), 11, (1, 1)))
@example(exps=(0,) * 24, emax=0, box=((10, 10, 10), 30, (1, 1)))  # a 70-bit coefficient
def test_qpoly_front_matches_the_product_engine(exps, emax, box):
    sums = schur_qpoly_sums(exps, emax, *box)
    assert [[0] * low + coeffs for low, coeffs in sums] == product_qpoly_sums(
        exps, emax, shapes_inside(*box))


@st.composite
def blocky_shape(draw):
    """A shape of at most three distinct parts, each repeated up to four
    times: only the last row of each block is a corner, and the columns run
    longer than the point does."""
    parts = draw(st.lists(st.integers(1, 3), max_size=3, unique=True))
    return tuple(part for part in sorted(parts, reverse=True)
                 for _ in range(draw(st.integers(1, 4))))


@DERANDOMIZED
@given(ys=st.lists(st.integers(-3, 3), min_size=1, max_size=5),
       shapes=st.lists(blocky_shape(), max_size=4))
@example(ys=[2, 0, -1, 2], shapes=[(3, 3, 3, 1, 1), (2, 2, 2, 2), (1, 1, 1, 1, 1), (3, 3)])
def test_corner_sweep_matches_the_tableau_sum(ys, shapes):
    # rows equal to the one below are not corners and hold no G entry; the
    # shapes inside lam hold one shape of |lam| boxes, lam itself
    assert [schur_int_sums(ys, lam, sum(lam))[-1] for lam in shapes] == [
        schur_tableau(lam, ys) for lam in shapes]


def assert_full_degree_at_two_is_the_int_front(exps, box):
    # at full degree nothing is cut, so each q-polynomial read at q = 2,
    # sum_t c_t 2^t, is the int front at x_i = 2^(e_i)
    emax = box[1] * max(exps)
    at_two = [sum(c << t for t, c in enumerate(coeffs, low))
              for low, coeffs in schur_qpoly_sums(exps, emax, *box)]
    assert at_two == schur_int_sums([2 ** e for e in exps], *box)


@DERANDOMIZED
@given(exps=st.lists(st.integers(0, 3), min_size=1, max_size=5), outer=blocky_shape(),
       cell=st.sampled_from(CELLS))
def test_qpoly_front_at_two_is_the_int_front(exps, outer, cell):
    assert_full_degree_at_two_is_the_int_front(exps, (outer, sum(outer), cell))


@pytest.mark.parametrize("exps,outer,nbytes", [
    ((1, 2), (4, 2), 1),
    ((0, 0, 1), (5, 2), 2),
    ((0, 0, 1, 2), (6, 3), 3),  # read as 4
    ((0, 0, 0, 1, 1, 2), (8, 4, 1), 5),  # read as 8
    ((0,) * 6 + (1,) * 6, (11, 8, 5, 3, 2, 1), 14),  # 16
    ((0,) * 24, (10, 10, 10), 18),  # 24: three limbs, a 69-bit coefficient
    ((0,) * 40 + (1,) * 40, (20, 20), 32),  # four limbs, 130-bit coefficients
])
def test_qpoly_digits_in_every_width_class(exps, outer, nbytes):
    # nbytes holds M^n for the largest size n with a kept shape; the digits
    # are read in the next power of two up to 8 bytes, above 8 in the next
    # multiple of 8 from joined 8-byte limbs
    bound = max(len(exps) ** n for n, group in enumerate(shapes_inside(outer, sum(outer))) if group)
    assert (bound.bit_length() + 7) // 8 == nbytes
    assert_full_degree_at_two_is_the_int_front(exps, (outer, sum(outer), (1, 1)))


BOX_KINDS = [BOSE, FERMI, HST, parafermi(2), parafermi(3), parabose(2), parabose(3), pq(2, 3),
             pq(3, 2)]


@DERANDOMIZED
@given(kind=st.sampled_from(BOX_KINDS), m=st.integers(1, 9), nmax=st.integers(0, 12))
@example(kind=HST, m=9, nmax=12)
def test_box_plan_is_the_closure_of_the_admitted_shapes(kind, m, nmax):
    # a box is closed under removing boxes, so the closure walk finds no
    # shape outside it; per size the plan holds the box's partition count
    outer, top, cell = shape_box(kind, m, nmax)
    assert cell == (1, 1)
    shapes = planned(outer, top)
    assert len(shapes) == len(set(shapes))
    assert [sum(lam) for lam in shapes] == sorted(sum(lam) for lam in shapes)
    assert set(shapes) == closure_walk([admitted_partitions(kind, n, m) for n in range(nmax + 1)], m)
    rows, cols, _ = kind.box
    kept = _plan(outer, top)[1]
    assert [len(group) for group in kept] == [count_partitions(n, min(rows or m, m), cols)
                                             for n in range(nmax + 1)]


@DERANDOMIZED
@given(kind=st.sampled_from([EVEN_ROWS, EVEN_COLS]), m=st.integers(1, 9), nmax=st.integers(0, 12))
@example(kind=EVEN_COLS, m=5, nmax=8)  # an odd number of levels
def test_tiled_plan_is_the_closure_of_the_tiled_shapes(kind, m, nmax):
    # the tiled kinds read hst's box with their cell, and plan only the
    # shapes whose round-up to whole cells they admit: the closure the walk
    # found for them; each size keeps exactly the kind's own shapes
    outer, top, cell = shape_box(kind, m, nmax)
    assert (outer, top, cell) == (*shape_box(HST, m, nmax)[:2], kind.box[2])
    admitted = [admitted_partitions(kind, n, m) for n in range(nmax + 1)]
    shapes = planned(outer, top, cell)
    assert len(shapes) == len(set(shapes))
    assert set(shapes) == closure_walk(admitted, m)
    assert [sorted(shapes[i] for i in group) for group in _plan(outer, top, cell)[1]] == [
        sorted(group) for group in admitted]


@DERANDOMIZED
@given(box=boxes)
@example(box=((2, 2, 1), 5, (2, 2)))  # the round-up leaves outer
@example(box=((3, 3, 3), 7, (1, 3)))  # the round-up passes top
def test_plan_is_the_closure_of_its_kept_shapes(box):
    # any outer, size and cell: each planned shape once, in size order, and
    # exactly those whose round-up is kept
    shapes = planned(*box)
    assert len(shapes) == len(set(shapes))
    assert [sum(lam) for lam in shapes] == sorted(sum(lam) for lam in shapes)
    assert set(shapes) == closure_walk(shapes_inside(*box), len(box[0]))


@pytest.mark.parametrize("lam", [(), (1,), (3, 1), (2, 2, 2), (4, 2, 2, 1), (1,) * 5,
                                 (5, 5, 3, 1, 1, 1)])
def test_single_shape_plan_is_the_shapes_inside_it(lam):
    # the `schur` command plans lam to its size: the shapes inside lam, as
    # many as its envelope counts, also where lam is longer than a point
    shapes = planned(lam, sum(lam))
    assert len(shapes) == _subshape_count(lam)
    assert [sum(mu) for mu in shapes] == sorted(sum(mu) for mu in shapes)
    assert sorted(shapes) == sorted(mu for group in shapes_inside(lam, sum(lam)) for mu in group)
    for m in range(1, len(lam)):
        assert schur_int_sums(list(range(1, m + 1)), lam, sum(lam))[-1] == 0


ALL_KINDS = BOX_KINDS + [EVEN_ROWS, EVEN_COLS]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
@pytest.mark.parametrize("ys", [[0, 0, 0], [-2, 3, -1], [2, 2, -2, 2], [0, -1, 1, 0, 3]])
def test_box_sums_match_the_tableau_sums(kind, ys):
    # zero, negative and repeated coordinates, on every kind's box
    nmax = 6
    sums = schur_int_sums(ys, *shape_box(kind, len(ys), nmax))
    assert sums == [sum(schur_tableau(lam, ys) for lam in admitted_partitions(kind, n, len(ys)))
                    for n in range(nmax + 1)]


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
    box = shape_box(parafermi(3), len(exps), nmax)
    groups = [admitted_partitions(parafermi(3), n, len(exps)) for n in range(nmax + 1)]
    emax = nmax * max(exps)
    assert traced_peak(schur_qpoly_sums, exps, emax, *box) < 0.75 * traced_peak(
        product_qpoly_sums, exps, emax, groups)
